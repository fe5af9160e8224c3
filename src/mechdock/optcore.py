"""Exact optimization oracle: optimal makespan.

opt_makespan is exact branch-and-bound over active players with a fixed
lexicographic tie-break so witnesses are reproducible.

The search runs on Python ints. Each distinct finite cost v of the
instance gets the integer key

    key(v) = sum_t (q_t * D) * B**rank(t),

where q_t is v's coefficient at tier t, D is the lcm of every coefficient
denominator of the instance's costs, the tiers the costs use are ranked
0, 1, ... from the finest (the coarsest tier has the highest rank), and
B = 2*m*M + 1 with M the largest |q_t * D| over all costs and m the job
count. The map is linear, so the key of a sum of costs is the sum of
their keys. It also orders like tv_compare on every pair of loads the
search meets: a load is a sum of at most m costs, so each scaled tier
coefficient of the difference of two loads is at most 2*m*M = B - 1 in
absolute value. At the coarsest tier where the difference is nonzero,
with rank k, its term is at least B**k in absolute value, while the finer
tiers add up to at most (B - 1) * (B**k - 1) / (B - 1) = B**k - 1; so the
difference's key has the sign of its leading coefficient. B**(tier
count) is above every load's key and stands for the unbounded incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .schedmodel import Allocation

NODE_GUARD = 10**8


class SearchError(RuntimeError):
    pass


class BudgetExceeded(SearchError):
    pass


@dataclass
class OptResult:
    witness: Allocation
    explored: int


def _load_keys(costs, m):
    """The integer key of each of the distinct finite costs, and a key
    above every sum of at most m of them (see the module docstring)."""
    coeffs = [(t, q) for c in costs for t, q in c.items()]
    tiers = sorted({t for t, _ in coeffs})
    scale = lcm(*(q.denominator for _, q in coeffs))
    top = max((abs(q.numerator) * scale // q.denominator for _, q in coeffs), default=0)
    base = 2 * m * top + 1
    weight = {t: base**rank for rank, t in enumerate(reversed(tiers))}
    keys = {
        c: sum(q.numerator * (scale // q.denominator) * weight[t] for t, q in c.items())
        for c in costs
    }
    return keys, base ** len(tiers)


def opt_makespan(T):
    """Exact minimum makespan over allocations to active players.

    Phase 1 finds the optimal value by depth-first branch-and-bound with
    jobs ordered by descending cheapest active cost (pruning on current
    max load >= incumbent). Phase 2 rebuilds the witness in job-index
    order so the returned owner vector is the lexicographically smallest
    one achieving the optimum. Each job's (player, cost) choices are read
    once, by ascending player, and costs and loads are integer keys; a
    branch is undone by restoring the load it replaced.
    """
    columns = []
    for j in T.jobs():
        finite = tuple(T.finite_costs(j))
        if not finite:
            raise SearchError(f"job {j} has no active player")
        columns.append(finite)
    space = 1
    for finite in columns:
        space *= len(finite)
        if space > NODE_GUARD:
            raise BudgetExceeded(
                f"search space exceeds {NODE_GUARD} nodes before pruning"
            )

    keys, unbounded = _load_keys({c for finite in columns for _, c in finite}, T.m)
    choices = [tuple((i, keys[c]) for i, c in finite) for finite in columns]

    def min_cost(j):
        return min(c for _, c in choices[j - 1])

    order = [choices[j - 1] for j in sorted(T.jobs(), key=min_cost, reverse=True)]

    loads = [0] * (T.n + 1)
    explored = 0
    best_value = unbounded

    def descend(idx, current_max):
        nonlocal explored, best_value
        if idx == len(order):
            best_value = current_max
            return
        for i, c in order[idx]:
            explored += 1
            old = loads[i]
            new_load = old + c
            new_max = new_load if new_load > current_max else current_max
            if new_max >= best_value:
                continue
            loads[i] = new_load
            descend(idx + 1, new_max)
            loads[i] = old

    descend(0, 0)

    # Phase 2: lexicographically smallest witness at the known optimum.
    owner = [0] * T.m
    loads = [0] * (T.n + 1)

    def rebuild(j):
        nonlocal explored
        if j > T.m:
            return True
        for i, c in choices[j - 1]:
            explored += 1
            old = loads[i]
            new_load = old + c
            if new_load > best_value:
                continue
            loads[i] = new_load
            owner[j - 1] = i
            if rebuild(j + 1):
                return True
            loads[i] = old
        return False

    if not rebuild(1):
        raise SearchError("witness reconstruction failed")  # pragma: no cover
    witness = Allocation(owner)
    return OptResult(witness=witness, explored=explored)
