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
difference's key has the sign of its leading coefficient.
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
    """The integer key of each of the distinct finite costs, for loads that
    are sums of at most m of them (see the module docstring)."""
    coeffs = [(t, q) for c in costs for t, q in c.items()]
    tiers = sorted({t for t, _ in coeffs})
    scale = lcm(*(q.denominator for _, q in coeffs))
    top = max((abs(q.numerator) * scale // q.denominator for _, q in coeffs), default=0)
    base = 2 * m * top + 1
    weight = {t: base**rank for rank, t in enumerate(reversed(tiers))}
    return {
        c: sum(q.numerator * (scale // q.denominator) * weight[t] for t, q in c.items())
        for c in costs
    }


def opt_makespan(T):
    """Exact minimum makespan over allocations to active players, with the
    lexicographically smallest owner vector achieving it as the witness.

    One depth-first branch-and-bound pass in job-index order, each job's
    players by ascending index. A job with one active player is loaded
    before the search, so only jobs with a real choice are branched on.
    Costs and loads are integer keys; a branch is undone by restoring the
    load it replaced.

    The incumbent starts at the makespan of giving each job to its
    cheapest player. Until an allocation is found, a branch is cut only
    when its largest load goes above that bound; after, a branch that ties
    the incumbent is cut too. The lexicographically smallest optimum A* is
    always reached: every prefix of A* has a load of at most the optimum,
    so only a tie with an allocation found earlier could cut it, and that
    allocation would be lexicographically smaller. Once A* is recorded,
    nothing replaces it.

    Every branched job has at least two choices, so NODE_GUARD on the
    product of choices also caps the recursion depth.
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

    keys = _load_keys({c for finite in columns for _, c in finite}, T.m)
    loads = [0] * (T.n + 1)
    cheapest = [0] * (T.n + 1)
    owner = [0] * T.m
    branched = []
    for j, finite in enumerate(columns):
        choices = tuple((i, keys[c]) for i, c in finite)
        if len(choices) == 1:
            owner[j] = choices[0][0]
            loads[owner[j]] += choices[0][1]
        else:
            branched.append((j, choices))
        i, c = min(choices, key=lambda choice: choice[1])
        cheapest[i] += c

    # A branch is cut once its largest load reaches limit. Keys are integers,
    # so bound + 1 cuts only loads above the starting bound; each allocation
    # found sets limit to its makespan, so from then on ties are cut too.
    limit = max(cheapest) + 1
    witness = None
    explored = 0

    def descend(idx, current_max):
        nonlocal explored, limit, witness
        if idx == len(branched):
            limit, witness = current_max, Allocation(owner)
            return
        j, choices = branched[idx]
        for i, c in choices:
            explored += 1
            old = loads[i]
            new_load = old + c
            new_max = new_load if new_load > current_max else current_max
            if new_max >= limit:
                continue
            loads[i] = new_load
            owner[j] = i
            descend(idx + 1, new_max)
            loads[i] = old

    descend(0, max(loads))
    return OptResult(witness=witness, explored=explored)
