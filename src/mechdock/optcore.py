"""Exact optimization oracle: optimal makespan.

opt_makespan is exact branch-and-bound over active players with a fixed
lexicographic tie-break so witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import GT, INF, LT, ZERO, tv_compare
from .schedmodel import Allocation, active_players

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
    one achieving the optimum.
    """
    allowed = []
    for j in T.jobs():
        players = sorted(active_players(T, j))
        if not players:
            raise SearchError(f"job {j} has no active player")
        allowed.append(players)
    space = 1
    for players in allowed:
        space *= len(players)
        if space > NODE_GUARD:
            raise BudgetExceeded(
                f"search space exceeds {NODE_GUARD} nodes before pruning"
            )

    def min_cost(j):
        return min(T.cost(i, j) for i in allowed[j - 1])

    order = sorted(T.jobs(), key=min_cost, reverse=True)

    loads = {i: ZERO for i in T.players()}
    explored = 0
    best_value = INF

    def descend(idx, current_max):
        nonlocal explored, best_value
        if idx == len(order):
            best_value = current_max
            return
        j = order[idx]
        for i in allowed[j - 1]:
            explored += 1
            new_load = loads[i] + T.cost(i, j)
            new_max = new_load if tv_compare(new_load, current_max) == GT else current_max
            if tv_compare(new_max, best_value) != LT:
                continue
            loads[i] = new_load
            descend(idx + 1, new_max)
            loads[i] = loads[i] - T.cost(i, j)

    descend(0, ZERO)
    if best_value.infinite:
        raise SearchError("no finite allocation exists")

    # Phase 2: lexicographically smallest witness at the known optimum.
    owner = [0] * T.m
    loads = {i: ZERO for i in T.players()}

    def rebuild(j):
        nonlocal explored
        if j > T.m:
            return True
        for i in allowed[j - 1]:
            explored += 1
            new_load = loads[i] + T.cost(i, j)
            if tv_compare(new_load, best_value) == GT:
                continue
            loads[i] = new_load
            owner[j - 1] = i
            if rebuild(j + 1):
                return True
            loads[i] = loads[i] - T.cost(i, j)
        return False

    if not rebuild(1):
        raise SearchError("witness reconstruction failed")  # pragma: no cover
    witness = Allocation(owner)
    return OptResult(witness=witness, explored=explored)

