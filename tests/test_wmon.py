import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from mechdock import schedmodel
from mechdock.exactnum import (
    EPS1,
    EPS2,
    ZERO,
    ParseError,
    TieredValue,
    format_value,
    parse_value,
    tv,
    tv_compare,
)
from mechdock.mechlib import make_mechanism
from mechdock.schedmodel import Allocation, Instance, MechanismHandle, checked_query
from mechdock.wmon import (
    FuzzSpec,
    HypothesisError,
    LemmaExpectation,
    WmonPreconditionError,
    WmonViolation,
    _dd,
    _l1,
    _l2,
    _l3,
    _l4,
    exhaustive_pairs,
    fuzz,
    infer,
    wmon_value,
)

# The four reference pairs behind the inference lemmas.
G1 = Instance([[1, 2, 3], [2, 1, 3]])
G2 = Instance([[1, 2, 3], [3, 1, 2]])
G1_ALLOC = Allocation([1, 2, 2])

H1 = Instance([[1, 2, 3], [2, 1, 3]])
H2 = Instance([[1, 2, 3], [1, 0, 3]])
H1_ALLOC = Allocation([1, 2, 2])

I1 = Instance([[1, 1, 2, "inf"], [1, 2, 1, 1]], dummy_of={2: 4})
I2 = Instance([[1, 1, 2, "inf"], [2, 2, "1/2", 3]], dummy_of={2: 4})
I1_ALLOC = Allocation([1, 1, 2, 2])

K1 = Instance([[1, 2, 3], [1, 0, 3]])
K2 = Instance([[1, 2, 3], ["3/4", 1, 3]])
K1_ALLOC = Allocation([2, 2, 1])


def test_wmon_value_compliant_answer():
    # follows the L1 prediction: keeps job 3, stays away from job 1
    xp = Allocation([1, 2, 2])
    rep = wmon_value(G1, G1_ALLOC, G2, xp, 2)
    assert not rep > ZERO
    assert rep == ZERO


def test_wmon_value_violation_arithmetic():
    xp = Allocation([1, 1, 1])  # player 2 gets nothing
    rep = wmon_value(G1, G1_ALLOC, G2, xp, 2)
    assert rep > ZERO
    assert rep == tv(1)  # (3-2)*(1-0)


def test_wmon_value_identity_pair():
    rep = wmon_value(G1, G1_ALLOC, G1, G1_ALLOC, 2)
    assert rep == ZERO and not rep > ZERO


def test_wmon_value_skips_double_infinite():
    T = Instance([["inf", 1], [1, 1]])
    Tp = Instance([["inf", 2], [1, 1]])
    rep = wmon_value(T, Allocation([2, 1]), Tp, Allocation([2, 2]), 1)
    assert rep == tv(-1)  # job 1 adds nothing; job 2 gives (1-2)*(1-0)
    assert not rep > ZERO


def test_wmon_value_rejects_other_row_changes():
    with pytest.raises(WmonPreconditionError):
        wmon_value(G1, G1_ALLOC, G2, G1_ALLOC, 1)


def test_wmon_value_rejects_infinite_assignment():
    T = Instance([["inf", 1], [1, 1]])
    with pytest.raises(WmonPreconditionError):
        wmon_value(T, Allocation([1, 1]), T, Allocation([1, 1]), 1)


def test_wmon_value_rejects_flipped_mixed_term():
    T = Instance([[1, 1], [1, 1]])
    Tp = Instance([["inf", 1], [1, 1]])
    with pytest.raises(WmonPreconditionError):
        wmon_value(T, Allocation([1, 1]), Tp, Allocation([2, 1]), 1)


def test_infer_l1_reference_pair():
    exp = LemmaExpectation(
        variant="L1", player=2, f1=frozenset({3}), f2=frozenset({1})
    )
    cons = infer(exp, G1, G1_ALLOC, G2)
    assert cons.keep == {3} and cons.forbid == {1}
    assert cons.defects(Allocation([1, 2, 2])) == []
    assert cons.defects(Allocation([2, 2, 2]))
    assert cons.defects(Allocation([1, 2, 1]))


def test_infer_l2_reference_pair():
    exp = LemmaExpectation(variant="L2", player=2, j=2, k=1)
    cons = infer(exp, H1, H1_ALLOC, H2)
    assert cons.one_of == [frozenset({1, 2})]
    assert cons.keep == set()  # equal decreases: no refinement
    assert cons.defects(Allocation([2, 1, 1])) == []
    assert cons.defects(Allocation([1, 1, 1]))


def test_infer_l2_refinement_forces_the_bigger_decrease():
    Tp = Instance([[1, 2, 3], ["3/2", 0, 3]])  # job 1 drops by 1/2, job 2 by 1
    exp = LemmaExpectation(variant="L2", player=2, j=2, k=1)
    cons = infer(exp, H1, H1_ALLOC, Tp)
    assert cons.keep == {2}


def test_infer_l3_reference_pair():
    exp = LemmaExpectation(
        variant="L3", player=2, f1=frozenset({3}), f2=frozenset({1})
    )
    cons = infer(exp, I1, I1_ALLOC, I2)
    assert cons.keep == {3, 4} and cons.forbid == {1}
    assert cons.defects(Allocation([1, 1, 2, 2])) == []
    assert cons.defects(Allocation([1, 1, 1, 2]))


def test_infer_l4_reference_pair():
    exp = LemmaExpectation(variant="L4", player=2, j1=1, j2=2)
    cons = infer(exp, K1, K1_ALLOC, K2)
    assert cons.implications == [(2, 1)]
    assert cons.defects(Allocation([2, 2, 1])) == []
    assert cons.defects(Allocation([2, 1, 1])) == []  # dropped both: fine
    assert cons.defects(Allocation([1, 2, 1]))


def test_infer_checks_hypotheses():
    exp = LemmaExpectation(
        variant="L1", player=2, f1=frozenset({2}), f2=frozenset({1})
    )
    with pytest.raises(HypothesisError):
        infer(exp, G1, G1_ALLOC, G2)  # job 2 is unchanged, not lowered
    with pytest.raises(HypothesisError):
        infer(
            LemmaExpectation(variant="L3", player=2, f1=frozenset({3})),
            G1,
            G1_ALLOC,
            G2,
        )  # no dummy job


def test_keep_lowered_constraints():
    T = Instance([[1, 1], [1, EPS1]])
    Tp = Instance([[1, 1], [tv(1) - 2 * EPS1, EPS2]])
    cons = infer(_dd(2, keep={1}), T, Allocation([2, 1]), Tp)
    assert cons.keep == {1}
    with pytest.raises(HypothesisError):
        # job 2's decrease (~eps1) does not dominate job 1's (2*eps1)
        infer(_dd(2, keep={2}), T, Allocation([1, 2]), Tp)


def test_fuzz_minwork_is_clean():
    mech = make_mechanism("minwork")
    spec = FuzzSpec(n=3, m=3, values=(0, 1, 2, 3, 4))
    assert fuzz(mech, spec, trials=500, seed=7) == []


def test_fuzz_zero_trials():
    assert fuzz(make_mechanism("minwork"), FuzzSpec(), trials=0, seed=1) == []


def test_fuzz_deterministic():
    mech = make_mechanism("optmakespan")
    spec = FuzzSpec(n=2, m=2, values=(1, 2, 3))
    a = fuzz(mech, spec, trials=300, seed=42)
    b = fuzz(mech, spec, trials=300, seed=42)
    assert [v.to_json_dict() for v in a] == [v.to_json_dict() for v in b]


def test_exhaustive_grid_finds_optmakespan_violation():
    mech = make_mechanism("optmakespan")
    violations = exhaustive_pairs(mech, 2, 2, (1, 2, 3))
    if not violations:
        violations = exhaustive_pairs(mech, 2, 2, (1, 2, 3, 4))
    assert violations
    v = violations[0]
    rep = wmon_value(v.T, v.x, v.Tp, v.xp, v.player)
    assert rep > ZERO and rep == v.value


def exhaustive_pairs_oracle(M, n, m, values):
    """The sweep as first written: every flat grid tuple, each rewrite made
    with with_costs, answers cached by the instance's JSON line."""
    grid = [tv(Fraction(v)) for v in values]
    cache = {}

    def answer(T):
        key = T.to_json_line()
        if key not in cache:
            cache[key] = checked_query(M, T)
        return cache[key]

    violations = []
    for flat in product(grid, repeat=n * m):
        T = Instance(flat[r * m : (r + 1) * m] for r in range(n))
        for i in range(1, n + 1):
            for row in product(grid, repeat=m):
                if row == tuple(T.cost(i, j) for j in T.jobs()):
                    continue
                Tp = T.with_costs((i, j, c) for j, c in enumerate(row, start=1))
                report = wmon_value(T, answer(T), Tp, answer(Tp), i)
                if report > ZERO:
                    violations.append(
                        WmonViolation(
                            player=i,
                            T=T,
                            x=answer(T),
                            Tp=Tp,
                            xp=answer(Tp),
                            value=report,
                        )
                    )
    return violations


class QueryLog(MechanismHandle):
    """Answers as the wrapped mechanism does and logs every query."""

    def __init__(self, mech):
        self.mech = mech
        self.queries = []

    def query(self, T):
        self.queries.append(T.to_json_line())
        return self.mech.query(T)


@pytest.mark.parametrize("selector", ["minwork", "optmakespan", "stub:7", "stub:11"])
@pytest.mark.parametrize(
    "n, m, values",
    [
        (2, 2, (0, 1, 2, 3)),
        (2, 2, (0, 0, 1)),
        (2, 2, ("1/2", 2, "1/2")),
        (2, 3, (1, 2)),
        (3, 2, (1, 2)),
    ],
)
def test_exhaustive_pairs_matches_the_oracle(selector, n, m, values):
    # Repeated grid values give equal instances: each is queried once, and
    # a pair is skipped exactly when the rewritten row equals the old one.
    runs = []
    for sweep in (exhaustive_pairs, exhaustive_pairs_oracle):
        log = QueryLog(make_mechanism(selector))
        found = sweep(log, n, m, values)
        runs.append(([v.to_json_dict() for v in found], log.queries))
    assert runs[0] == runs[1]
    assert len(set(runs[0][1])) == len(runs[0][1])


def test_violation_record_roundtrip():
    rec = WmonViolation(
        player=2, T=G1, x=G1_ALLOC, Tp=G2, xp=Allocation([1, 1, 1]), value=tv(1)
    )
    d = rec.to_json_dict()
    assert d["kind"] == "WmonViolation"
    assert WmonViolation.from_json_dict(d) == rec


def _violation_dict():
    return WmonViolation(
        player=2, T=G1, x=G1_ALLOC, Tp=G2, xp=Allocation([1, 1, 1]), value=tv(1)
    ).to_json_dict()


def test_violation_pair_is_read_through_one_memo(monkeypatch):
    # T and Tprime hold the texts "1", "2" and "3"; each is parsed once
    calls = []

    def counted(text):
        calls.append(text)
        return parse_value(text)

    monkeypatch.setattr(schedmodel, "parse_value", counted)
    d = _violation_dict()
    back = WmonViolation.from_json_dict(d)
    assert (back.T, back.Tp) == (G1, G2)
    assert sorted(calls) == ["1", "2", "3"]


@pytest.mark.parametrize(
    "cell, message",
    [
        ("1/0", "zero denominator in '1/0'"),
        ("x", "malformed value 'x' at offset 0"),
        (["1"], "expected string, got list"),
    ],
)
def test_a_malformed_cell_only_tprime_holds_fails_as_alone(cell, message):
    d = _violation_dict()
    d["Tprime"]["costs"][1][2] = cell
    with pytest.raises(ParseError) as pair:
        WmonViolation.from_json_dict(d)
    with pytest.raises(ParseError) as alone:
        Instance.from_json_dict(d["Tprime"])
    assert str(pair.value) == str(alone.value) == message
    assert WmonViolation.from_json_dict(_violation_dict()).Tp == G2


# Player 2's row [2, 1, 3, 2, 2] becomes [3, 0, 1, 9, 7]: job 1 is raised,
# jobs 2 and 3 lowered, jobs 4 and 5 raised; player 2 holds jobs 2-5.
M1 = Instance([[1, 2, 3, 4, 5], [2, 1, 3, 2, 2]])
M1_ALLOC = Allocation([1, 2, 2, 2, 2])
M2_ROW = [3, 0, 1, 9, 7]


@pytest.mark.parametrize("shared", [True, False])
def test_lemma_checks_name_the_first_job_changed_outside_the_declared_ones(shared):
    # the same messages whether the edit shares unchanged columns or not
    if shared:
        M2 = M1.with_costs((2, j, c) for j, c in enumerate(M2_ROW, start=1))
    else:
        M2 = Instance([[1, 2, 3, 4, 5], M2_ROW])
    cases = [
        (
            LemmaExpectation(variant="L1", player=2, f1=frozenset({3}), f2=frozenset({1})),
            "L1: job 2 outside F1/F2 changed",
        ),
        (
            LemmaExpectation(variant="L2", player=2, j=3, k=2),
            "L2: job 1 outside {j,k} changed",
        ),
        (
            LemmaExpectation(variant="L4", player=2, j1=3, j2=4),
            "L4: job 1 outside {j1,j2} changed",
        ),
    ]
    for exp, message in cases:
        with pytest.raises(HypothesisError, match=f"^{re.escape(message)}$"):
            infer(exp, M1, M1_ALLOC, M2)
    message = "keep-lowered: job 1 is not a finite decrease"
    with pytest.raises(HypothesisError, match=f"^{message}$"):
        infer(_dd(2, keep={3}), M1, M1_ALLOC, M2)


def _without(col, i):
    return {p: c for p, c in col.items() if p != i}


def rows_equal_except_oracle(T, Tp, i):
    """rows_equal_except as first written: each column without row i,
    copied and compared whole."""
    if (T.n, T.m) != (Tp.n, Tp.m):
        return False
    return all(
        _without(dict(T.finite_costs(j)), i) == _without(dict(Tp.finite_costs(j)), i)
        for j in T.jobs()
    )


def wmon_value_oracle(T, x, Tp, xp, i):
    """wmon_value as first written: every job read, each term scaled by
    the change in the indicator."""
    if not rows_equal_except_oracle(T, Tp, i):
        raise WmonPreconditionError("instances differ outside the given row")
    total = ZERO
    for j in T.jobs():
        t, tp = T.cost(i, j), Tp.cost(i, j)
        xi, xpi = x.assigns(i, j), xp.assigns(i, j)
        if t.infinite and xi:
            raise WmonPreconditionError(
                f"job {j} assigned to player {i} at infinite cost in T"
            )
        if tp.infinite and xpi:
            raise WmonPreconditionError(
                f"job {j} assigned to player {i} at infinite cost in T'"
            )
        d = xi - xpi
        if d == 0:
            continue
        if t.infinite or tp.infinite:
            raise WmonPreconditionError(
                f"mixed infinite/finite term with flipped assignment at job {j}"
            )
        total = total + (t - tp) * Fraction(d)
    return total


def _random_cell(rng):
    if rng.random() < 0.3:
        return "inf"
    v = TieredValue(
        {
            t: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            for t in rng.sample(range(3), rng.randint(0, 2))
        }
    )
    return -v if tv_compare(v, ZERO) < 0 else v


def _random_pair(rng):
    """An instance, its rewrite in player i's row (sometimes also in one
    other cell), and two random allocations; the rewrite either shares
    the unchanged columns (with_costs) or rebuilds every column."""
    n, m = rng.randint(1, 3), rng.randint(1, 5)
    rows = [[_random_cell(rng) for _ in range(m)] for _ in range(n)]
    T = Instance(rows)
    i = rng.randint(1, n)
    rewritten = rng.sample(range(1, m + 1), rng.randint(0, m))
    edits = [(i, j, _random_cell(rng)) for j in rewritten]
    if n > 1 and rng.random() < 0.2:
        p = rng.choice([p for p in range(1, n + 1) if p != i])
        edits.append((p, rng.randint(1, m), _random_cell(rng)))
    shared = rng.random() < 0.5
    if shared:
        Tp = T.with_costs(edits)
    else:
        dense = [list(row) for row in rows]
        for p, j, c in edits:
            dense[p - 1][j - 1] = c
        Tp = Instance(dense)
    x = Allocation(rng.randint(1, n) for _ in range(m))
    xp = Allocation(rng.randint(1, n) for _ in range(m))
    return T, x, Tp, xp, i, shared


def _outcome(fn, *args):
    try:
        report = fn(*args)
    except WmonPreconditionError as exc:
        return "error", str(exc)
    return format_value(report), report > ZERO


# One label per outcome of the oracle; T' before T, which it contains.
_KINDS = (
    "outside the given row",
    "infinite cost in T'",
    "infinite cost in T",
    "mixed infinite/finite",
)


def _kind(T, Tp, i, outcome):
    if outcome[0] == "error":
        return next(k for k in _KINDS if k in outcome[1])
    if any(T.cost(i, j).infinite and Tp.cost(i, j).infinite for j in T.jobs()):
        return "evaluated past a double-infinite job"
    return "violated" if outcome[1] else "not violated"


def test_wmon_value_matches_the_per_job_oracle():
    rng = random.Random(20261018)
    seen = {}
    for _ in range(3000):
        T, x, Tp, xp, i, shared = _random_pair(rng)
        for p in T.players():
            assert T.rows_equal_except(Tp, p) == rows_equal_except_oracle(T, Tp, p)
        want = _outcome(wmon_value_oracle, T, x, Tp, xp, i)
        assert _outcome(wmon_value, T, x, Tp, xp, i) == want
        key = _kind(T, Tp, i, want), shared
        seen[key] = seen.get(key, 0) + 1
    # every outcome occurs often, with shared and with rebuilt columns
    kinds = _KINDS + (
        "evaluated past a double-infinite job",
        "violated",
        "not violated",
    )
    assert {k for k, _ in seen} == set(kinds)
    assert all(seen.get((k, s), 0) >= 10 for k in kinds for s in (True, False))


# -- the lemmas against the WMON sum ------------------------------------------

HALF_GRID = st.integers(0, 4).map(lambda k: Fraction(k, 2))  # 0, 1/2, .., 2


@st.composite
def _edited_pairs(draw):
    """Costs on a half-integer grid for n, m <= 3, one player's row with
    each cost kept, lowered or raised on the grid, and a dummy cost before
    and after."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.lists(HALF_GRID, min_size=m, max_size=m)
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    i = draw(st.integers(1, n))
    row = []
    for old in rows[i - 1]:
        k = int(2 * old)
        move = draw(st.sampled_from(["keep", "lower", "raise"]))
        if move == "lower" and k > 0:
            k = draw(st.integers(0, k - 1))
        elif move == "raise" and k < 4:
            k = draw(st.integers(k + 1, 4))
        row.append(Fraction(k, 2))
    dummy = draw(HALF_GRID), draw(HALF_GRID)
    return rows, i, row, dummy


def _splits(jobs):
    """Every (F1, F2) pair of disjoint job sets."""
    for roles in product((0, 1, 2), repeat=len(jobs)):
        yield (
            [j for j, role in zip(jobs, roles) if role == 1],
            [j for j, role in zip(jobs, roles) if role == 2],
        )


def _assert_broken_predictions_violate(T, Tp, lemmas):
    """For every first answer, every lemma whose premise holds on the pair
    and every second answer assigning no job at infinite cost: a broken
    prediction has a positive WMON sum."""
    answers = [
        [
            xp
            for xp in map(Allocation, product(T.players(), repeat=T.m))
            if not any(U.cost(xp.owner_of(j), j).infinite for j in T.jobs())
        ]
        for U in (T, Tp)
    ]
    for x, lemma in product(answers[0], lemmas):
        try:
            cons = infer(lemma, T, x, Tp)
        except HypothesisError:
            continue
        for xp in answers[1]:
            if cons.defects(xp):
                assert wmon_value(T, x, Tp, xp, cons.player) > ZERO


@settings(max_examples=300, deadline=None)
@given(_edited_pairs())
def test_every_broken_lemma_prediction_has_a_positive_wmon_sum(pair):
    rows, i, row, (d, dp) = pair
    jobs = list(range(1, len(row) + 1))
    T = Instance(rows)
    Tp = T.with_costs((i, j, c) for j, c in zip(jobs, row))
    lemmas = [_l1(i, f1, f2) for f1, f2 in _splits(jobs)]
    lemmas += [_dd(i, keep=f1) for f1, f2 in _splits(jobs) if not f2]
    for j, k in permutations(jobs, 2):
        lemmas += [_l2(i, j=j, k=k), _l4(i, j1=j, j2=k)]
    _assert_broken_predictions_violate(T, Tp, lemmas)
    # L3: the same pair with a dummy job for player i, whose cost moves
    # from d to dp
    jd = len(jobs) + 1
    dense = [r + [d if p == i else "inf"] for p, r in enumerate(rows, start=1)]
    T = Instance(dense, dummy_of={i: jd})
    Tp = T.with_costs([(i, j, c) for j, c in zip(jobs, row)] + [(i, jd, dp)])
    lemmas = [_l3(i, f1, f2) for f1, f2 in _splits(jobs)]
    _assert_broken_predictions_violate(T, Tp, lemmas)
