import json
import shlex
import sys
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mechdock import mechlib
from mechdock.adversary import attack
from mechdock.exactnum import EPS1, EPS2, GT, INF, LT, ZERO, tv, tv_compare
from mechdock.mechlib import (
    RecordedAnswers,
    SeededStub,
    make_mechanism,
    minwork_allocate,
    optmakespan_allocate,
)
from mechdock.optcore import opt_makespan
from mechdock.schedmodel import (
    Allocation,
    Instance,
    MechanismError,
    makespan,
    validate_allocation,
)
from mechdock.wmon import FuzzSpec, fuzz
from test_exactnum import tiered

D_2X2 = Instance([[1, EPS2], [1, EPS1]])


def test_minwork_on_tiered_instance():
    # tie on job 1 goes to the lowest index; tier 2 beats tier 1 on job 2
    assert minwork_allocate(D_2X2) == Allocation([1, 1])


def test_minwork_on_3x3_instance():
    b, c = Fraction(22055, 10000), Fraction(26589, 10000)
    E = Instance([["inf", c, EPS1], [b, "inf", "inf"], [1, b, EPS2]])
    assert minwork_allocate(E) == Allocation([3, 3, 3])


def test_minwork_unique_finite_entry():
    T = Instance([["inf", 1], [2, "inf"]])
    assert minwork_allocate(T) == Allocation([2, 1])


def test_minwork_all_infinite_column():
    with pytest.raises(MechanismError):
        minwork_allocate(Instance([["inf", 1], ["inf", 1]]))


def test_optmakespan_allocate():
    # enumeration: (1,1), (1,2), (2,1) all reach makespan 2; (1,1) is lex-first
    assert optmakespan_allocate(Instance([[1, 1], [2, 2]])) == Allocation([1, 1])
    assert optmakespan_allocate(Instance([[3], [1]])) == Allocation([2])
    D = Instance([[0, "inf"], ["inf", 0]], dummy_of={1: 1, 2: 2})
    assert optmakespan_allocate(D) == Allocation([1, 2])


def test_dictator_allocate():
    T = Instance([[1, 2], [3, 4]])
    assert make_mechanism("dictator:1").query(T) == Allocation([1, 1])
    assert make_mechanism("dictator:1").query(Instance([[5]])) == Allocation([1])


def test_minwork_weakly_monotone_under_fuzz():
    mech = make_mechanism("minwork")
    assert fuzz(mech, FuzzSpec(3, 3, (0, 1, 2, 3, 4)), trials=1000, seed=3) == []


def test_minwork_within_player_count_of_optimum():
    import random

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 3)
        m = rng.randint(n, 5)
        T = Instance([[rng.randint(1, 6) for _ in range(m)] for _ in range(n)])
        mw = makespan(T, minwork_allocate(T))
        opt = makespan(T, opt_makespan(T).witness)
        assert tv_compare(mw, n * opt) != GT


def test_builtins_deterministic_and_valid():
    import random

    rng = random.Random(5)
    for selector in ("minwork", "optmakespan", "dictator:2", "stub:9"):
        mech = make_mechanism(selector)
        for _ in range(20):
            T = Instance(
                [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
            )
            x1, x2 = mech.query(T), mech.query(T)
            assert x1 == x2
            assert validate_allocation(T, x1) == []


def test_stub_respects_active_players_when_asked():
    mech = SeededStub(4, active_only=True)
    T = Instance([[1, 0, "inf"], [1, "inf", 0]], dummy_of={1: 2, 2: 3})
    for _ in range(5):
        x = mech.query(T)
        assert x.owner_of(2) == 1 and x.owner_of(3) == 2


def test_active_stub_draws_a_job_no_player_can_do_from_every_player():
    # job 2 has no active player, so its pool is every player
    T = Instance([[1, "inf", 2], [3, "inf", "inf"], ["inf", "inf", 4]])
    for seed in range(8):
        x = make_mechanism(f"activestub:{seed}").query(T)
        assert validate_allocation(T, x) == []
        assert x == SeededStub(seed, active_only=True).query(T)
        assert x.owner_of(1) in (1, 2) and x.owner_of(3) in (1, 3)
    drawn = {make_mechanism(f"activestub:{s}").query(T).owner_of(2) for s in range(8)}
    assert drawn == {1, 2, 3}


def test_make_mechanism_rejects_unknown():
    with pytest.raises(MechanismError):
        make_mechanism("nope")


def test_recorded_answers_replay_in_order_then_fail():
    steps = [{"owner": [1, 1]}, {"note": "no answer"}, {"owner": [2, 1]}]
    mech = RecordedAnswers("extern:somewhere", steps)
    assert mech.name == "extern:somewhere"
    assert mech.query(D_2X2) == Allocation([1, 1])
    with pytest.raises(MechanismError, match="no answer"):
        mech.query(D_2X2)
    assert mech.query(D_2X2) == Allocation([2, 1])
    with pytest.raises(MechanismError, match="no answer"):
        mech.query(D_2X2)


MALFORMED_OWNERS = [[1.9, 2.2], "12", [True, 2], ["1", "2"]]


@pytest.mark.parametrize("owner", MALFORMED_OWNERS)
def test_recorded_answers_reject_a_malformed_owner(owner):
    mech = RecordedAnswers("extern:somewhere", [{"owner": owner}, {"owner": [1, 2]}])
    with pytest.raises(MechanismError, match="no answer"):
        mech.query(D_2X2)
    assert mech.query(D_2X2) == Allocation([1, 2])


@pytest.mark.parametrize("owner", MALFORMED_OWNERS)
def test_extern_selector_rejects_a_malformed_owner(owner):
    script = Path(__file__).parent / "extern_reply.py"
    reply = json.dumps({"owner": owner})
    argv = [sys.executable, str(script), reply]
    mech = make_mechanism("extern:" + shlex.join(argv))
    try:
        with pytest.raises(MechanismError, match="bad mechanism reply"):
            mech.query(D_2X2)
    finally:
        mech.close()


def _dense_minwork(rows):
    """Reference min-work on a dense matrix: the first least finite cell of
    each job by tv_compare, so ties go to the lowest index; a job with no
    finite cell raises the error minwork_allocate raises."""
    by_cost = cmp_to_key(lambda a, b: tv_compare(a[1], b[1]))
    owner = []
    for j in range(len(rows[0])):
        cells = [(i, tv(row[j])) for i, row in enumerate(rows, start=1)]
        finite = [cell for cell in cells if cell[1].finite]
        if not finite:
            raise MechanismError(f"job {j + 1} has no finite-cost player")
        owner.append(min(finite, key=by_cost)[0])
    return owner


_coeff_maps = st.dictionaries(
    st.integers(0, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=3,
)


@st.composite
def _matrix_and_edits(draw):
    """A matrix and edits whose cells are texts or values of a small pool on
    up to four tiers; a pool cell is the pool's value object itself, shared
    between cells, or an equal copy of it."""
    pool = []
    for coeffs in draw(st.lists(_coeff_maps, min_size=1, max_size=4)):
        v = tiered(coeffs)
        pool.append(ZERO - v if tv_compare(v, ZERO) == LT else v)
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cell = st.one_of(
        st.sampled_from(["0", "1", "2", "1e1", "1/2+1e2", "inf"]),
        st.sampled_from(pool),
        st.sampled_from(pool).map(lambda v: tiered(dict(v._coeffs))),
    )
    rows = [[draw(cell) for _ in range(m)] for _ in range(n)]
    edit = st.tuples(st.integers(1, n), st.integers(1, m), cell)
    return rows, draw(st.lists(edit, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_matrix_and_edits())
def test_minwork_matches_dense_reference(case):
    rows, edits = case
    T = Instance(rows).with_costs(edits)
    for i, j, v in edits:
        rows[i - 1][j - 1] = v
    try:
        expected = _dense_minwork(rows)
    except MechanismError as exc:
        with pytest.raises(MechanismError) as got:
            minwork_allocate(T)
        assert str(got.value) == str(exc)
        return
    assert list(minwork_allocate(T).owner) == expected


def _minwork_outcome(answer):
    """The allocation answer() gives, or the message of its MechanismError."""
    try:
        return answer()
    except MechanismError as exc:
        return str(exc)


_plain_cells = st.sampled_from(["0", "1", "2", "1e1", "1/2+1e2", "inf"])


@st.composite
def _edit_chains(draw):
    """A matrix as _matrix_and_edits draws it, then a chain of instances
    made by these steps: cell edits to plain texts, to values the instance
    holds or to equal copies of them; a column written back to equal
    values, which with_costs puts in a new dict; a column left with no
    finite player; a fresh instance of the same shape; and one of another
    shape, whose player count always differs."""
    rows, edits = draw(_matrix_and_edits())
    chain = [Instance(rows).with_costs(edits)]
    steps = ["edit", "rewrite", "no player", "fresh", "reshape"]
    for step in draw(st.lists(st.sampled_from(steps), max_size=8)):
        T = chain[-1]
        j = draw(st.integers(1, T.m))
        if step == "edit":
            held = [c for jj in T.jobs() for _, c in T.finite_costs(jj)]
            cell = _plain_cells
            if held:
                pool = st.sampled_from(held)
                copies = pool.map(lambda v: tiered(dict(v._coeffs)))
                cell = st.one_of(cell, pool, copies)
            edit = st.tuples(st.integers(1, T.n), st.integers(1, T.m), cell)
            T = T.with_costs(draw(st.lists(edit, min_size=1, max_size=4)))
        elif step == "rewrite":
            T = T.with_costs([(i, j, T.cost(i, j)) for i in T.players()])
        elif step == "no player":
            T = T.with_costs([(i, j, INF) for i in T.players()])
        else:
            n, m = T.n, T.m
            if step == "reshape":
                n, m = n % 4 + 1, draw(st.integers(1, 5))
            T = Instance([[draw(_plain_cells) for _ in range(m)] for _ in range(n)])
        chain.append(T)
    return chain


@settings(max_examples=200, deadline=None)
@given(_edit_chains())
def test_minwork_from_its_last_answer_matches_a_full_pass(chain):
    mech = make_mechanism("minwork")
    last = None
    for T in chain:
        expected = _minwork_outcome(lambda: minwork_allocate(T))
        assert _minwork_outcome(lambda: minwork_allocate(T, last)) == expected
        assert _minwork_outcome(lambda: mech.query(T)) == expected
        if isinstance(expected, Allocation):
            last = T, expected


def test_minwork_decides_again_only_the_columns_an_edit_wrote(monkeypatch):
    decided = []
    cheapest = mechlib._cheapest
    monkeypatch.setattr(
        mechlib, "_cheapest", lambda T, j: decided.append(j) or cheapest(T, j)
    )
    mech = make_mechanism("minwork")
    per_query = []

    class Counted:
        name = mech.name

        def query(self, T):
            decided.clear()
            x = mech.query(T)
            per_query.append(list(decided))
            return x

    report = attack("main", Counted(), {"a": Fraction(1966, 1000), "r": 10})
    m = len(report.transcript[0]["owner"])
    assert per_query[0] == list(range(1, m + 1))
    assert len(per_query) == len(report.transcript) > 1
    for step, jobs in zip(report.transcript[1:], per_query[1:]):
        assert jobs == sorted({j for _, j, _ in step["edits"]})
