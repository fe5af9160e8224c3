import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from mechdock.exactnum import LT, tv, tv_compare
from mechdock.optcore import BudgetExceeded, SearchError, opt_makespan
from mechdock.schedmodel import Allocation, Instance, active_players, makespan

NR = Instance([[1, 0, "inf"], [1, "inf", 0]], dummy_of={1: 2, 2: 3})


def enumerate_opt(T):
    """Brute-force oracle: full enumeration, lexicographically first optimum."""
    pools = [sorted(active_players(T, j)) for j in T.jobs()]
    best_val, best_owner = None, None
    for owner in itertools.product(*pools):
        val = makespan(T, Allocation(owner))
        if best_val is None or tv_compare(val, best_val) == LT:
            best_val, best_owner = val, owner
    return best_val, Allocation(best_owner)


def random_instance(rng, max_players=3, max_jobs=6):
    n = rng.randint(2, max_players)
    m = rng.randint(2, max_jobs)
    costs = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if rng.random() < 0.15:
                row.append(tv("inf"))
            else:
                row.append(tv(Fraction(rng.randint(0, 9), rng.choice([1, 1, 2]))))
        costs.append(row)
    # keep every column assignable
    for j in range(m):
        if all(not row[j].finite for row in costs):
            costs[rng.randrange(n)][j] = tv(rng.randint(0, 9))
    return Instance(costs)


def test_opt_on_dummy_instance():
    res = opt_makespan(NR)
    assert makespan(NR, res.witness) == tv(1)
    # dummies force the diagonal; job 1 breaks lexicographically to player 1
    assert res.witness == Allocation([1, 1, 2])


def test_opt_matches_enumeration_on_seeded_instances():
    rng = random.Random(1234)
    explored = 0
    witnesses = hashlib.sha256()
    for _ in range(200):
        T = random_instance(rng)
        want_val, want_witness = enumerate_opt(T)
        got = opt_makespan(T)
        assert makespan(T, got.witness) == want_val
        assert got.witness == want_witness
        explored += got.explored
        witnesses.update(bytes(got.witness.owner))
    # Pinned: a change to the search order, the pruning or the tie-break
    # shows here, and would move the benchmark's optcore.nodes_per_call.
    assert explored == 6133
    assert witnesses.hexdigest() == (
        "d6053bed9a18c9b10819d901c93d344a5fe5dc75c5eb092035b4382416612bdd"
    )


def test_opt_budget_guard():
    T = Instance([[1] * 30] * 5)
    with pytest.raises(BudgetExceeded):
        opt_makespan(T)


def test_opt_unassignable_job():
    # job 2 costs infinity for every player, so no allocation is finite
    T = Instance([[1, "inf"], [1, "inf"]])
    with pytest.raises(SearchError, match="job 2 has no active player"):
        opt_makespan(T)
