"""Exact optimization oracle: optimal makespan.

opt_makespan is exact branch-and-bound over active players with a fixed
lexicographic tie-break so witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import GT, INF, LT, ZERO, tv_compare
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


def opt_makespan(T):
    """Exact minimum makespan over allocations to active players.

    Phase 1 finds the optimal value by depth-first branch-and-bound with
    jobs ordered by descending cheapest active cost (pruning on current
    max load >= incumbent). Phase 2 rebuilds the witness in job-index
    order so the returned owner vector is the lexicographically smallest
    one achieving the optimum. Each job's (player, cost) choices are read
    once, by ascending player; a branch is undone by restoring the load
    it replaced.
    """
    choices = []
    for j in T.jobs():
        finite = tuple(T.finite_costs(j))
        if not finite:
            raise SearchError(f"job {j} has no active player")
        choices.append(finite)
    space = 1
    for finite in choices:
        space *= len(finite)
        if space > NODE_GUARD:
            raise BudgetExceeded(
                f"search space exceeds {NODE_GUARD} nodes before pruning"
            )

    def min_cost(j):
        return min(c for _, c in choices[j - 1])

    order = [choices[j - 1] for j in sorted(T.jobs(), key=min_cost, reverse=True)]

    loads = [ZERO] * (T.n + 1)
    explored = 0
    best_value = INF

    def descend(idx, current_max):
        nonlocal explored, best_value
        if idx == len(order):
            best_value = current_max
            return
        for i, c in order[idx]:
            explored += 1
            old = loads[i]
            new_load = old + c
            new_max = new_load if tv_compare(new_load, current_max) == GT else current_max
            if tv_compare(new_max, best_value) != LT:
                continue
            loads[i] = new_load
            descend(idx + 1, new_max)
            loads[i] = old

    descend(0, ZERO)
    if best_value.infinite:
        raise SearchError("no finite allocation exists")

    # Phase 2: lexicographically smallest witness at the known optimum.
    owner = [0] * T.m
    loads = [ZERO] * (T.n + 1)

    def rebuild(j):
        nonlocal explored
        if j > T.m:
            return True
        for i, c in choices[j - 1]:
            explored += 1
            old = loads[i]
            new_load = old + c
            if tv_compare(new_load, best_value) == GT:
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
