import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mechdock.exactnum import GT, INF, LT, ZERO, tv, tv_compare
from mechdock.forge import MainParams, build_main
from mechdock.mechlib import optmakespan_allocate
from mechdock.optcore import BudgetExceeded, SearchError, _load_keys, opt_makespan
from mechdock.schedmodel import Allocation, Instance, active_players, makespan
from test_exactnum import tiered

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
    assert explored == 3557
    assert witnesses.hexdigest() == (
        "d6053bed9a18c9b10819d901c93d344a5fe5dc75c5eb092035b4382416612bdd"
    )


def test_opt_budget_guard():
    T = Instance([[1] * 30] * 5)
    with pytest.raises(BudgetExceeded):
        opt_makespan(T)


def test_single_choice_jobs_are_loaded_without_a_search():
    # one allocation, whatever the job count: no node and no recursion
    res = opt_makespan(Instance([[1] * 1200]))
    assert res.witness == Allocation([1] * 1200)
    assert res.explored == 0


def test_opt_unassignable_job():
    # job 2 costs infinity for every player, so no allocation is finite
    T = Instance([[1, "inf"], [1, "inf"]])
    with pytest.raises(SearchError, match="job 2 has no active player"):
        opt_makespan(T)


def opt_makespan_oracle(T):
    """opt_makespan as it ran before it became one pass, on TieredValue
    loads: the optimum in descending-cost job order, then a rebuild of the
    lexicographically smallest witness in job-index order, with every load
    a tiered value and every comparison a tv_compare."""
    choices = []
    for j in T.jobs():
        finite = tuple(T.finite_costs(j))
        if not finite:
            raise SearchError(f"job {j} has no active player")
        choices.append(finite)
    order = [
        choices[j - 1]
        for j in sorted(
            T.jobs(), key=lambda j: min(c for _, c in choices[j - 1]), reverse=True
        )
    ]
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
            if tv_compare(new_load, current_max) == GT:
                new_max = new_load
            else:
                new_max = current_max
            if tv_compare(new_max, best_value) != LT:
                continue
            loads[i] = new_load
            descend(idx + 1, new_max)
            loads[i] = old

    descend(0, ZERO)
    if best_value.infinite:
        raise SearchError("no finite allocation exists")
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

    assert rebuild(1)
    return Allocation(owner), explored


def test_optmakespan_matches_the_oracle_on_the_block_chain():
    # the chain's dummy jobs are single-choice and its costs span three tiers
    T = build_main(MainParams(Fraction(1873, 1000), 3, 3))
    assert optmakespan_allocate(T) == opt_makespan_oracle(T)[0]


def random_tiered_cost(rng):
    """A non-negative value on up to four tiers, whose finer-tier
    coefficients may be zero or negative."""
    coeffs = {
        t: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7]))
        for t in rng.sample(range(4), rng.randint(0, 4))
    }
    v = tiered(coeffs)
    return ZERO - v if tv_compare(v, ZERO) == LT else v


def test_keyed_search_matches_the_tiered_value_oracle():
    # the witnesses must agree; the oracle's two passes explore more nodes
    rng = random.Random(20261018)
    seen = {"witness": 0, "no active player": 0}
    explored = 0
    for _ in range(1500):
        n, m = rng.randint(1, 4), rng.randint(1, 7)
        # a small shared pool, so equal costs and tied loads come up often
        pool = [random_tiered_cost(rng) for _ in range(rng.randint(1, 5))]
        costs = [
            ["inf" if rng.random() < 0.25 else rng.choice(pool) for _ in range(m)]
            for _ in range(n)
        ]
        T = Instance(costs)
        try:
            want = opt_makespan_oracle(T)
        except SearchError as exc:
            with pytest.raises(SearchError, match=f"^{exc}$"):
                opt_makespan(T)
            seen["no active player"] += 1
            continue
        got = opt_makespan(T)
        assert got.witness == want[0]
        explored += got.explored
        seen["witness"] += 1
    assert min(seen.values()) >= 50
    assert explored == 20028


_key_values = st.dictionaries(
    st.integers(0, 5),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    max_size=4,
).map(tiered)


@given(
    st.lists(_key_values, min_size=1, max_size=6),
    st.integers(1, 5),
    st.data(),
)
def test_load_keys_add_and_order_like_the_values(values, count, data):
    # a zero value, and zero or negative coefficients on finer tiers, all
    # come from the strategy; loads are sums of at most `count` costs
    keys = _load_keys(set(values), count)
    picks = st.lists(st.sampled_from(values), max_size=count)
    for _ in range(5):
        a, b = data.draw(picks), data.draw(picks)
        u, v = sum(a, ZERO), sum(b, ZERO)
        ku, kv = sum(keys[c] for c in a), sum(keys[c] for c in b)
        assert (ku > kv) - (ku < kv) == tv_compare(u, v)
    assert keys.get(ZERO, 0) == 0
