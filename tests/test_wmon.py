import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from mechdock import schedmodel, wmon
from mechdock.exactnum import (
    EPS1,
    EPS2,
    GT,
    LT,
    ZERO,
    ParseError,
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
from test_exactnum import tiered

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
    cons = infer(_l1(2, f1=[3], f2=[1]), G1, G1_ALLOC, G2)
    assert cons.keep == {3} and cons.forbid == {1}
    assert cons.defects(Allocation([1, 2, 2])) == []
    assert cons.defects(Allocation([2, 2, 2]))
    assert cons.defects(Allocation([1, 2, 1]))


def test_infer_l2_reference_pair():
    cons = infer(_l2(2, j=2, k=1), H1, H1_ALLOC, H2)
    assert cons.one_of == ((2, 1),)
    assert cons.keep == set()  # equal decreases: no refinement
    assert cons.defects(Allocation([2, 1, 1])) == []
    assert cons.defects(Allocation([1, 1, 1]))


def test_infer_l2_refinement_forces_the_bigger_decrease():
    Tp = Instance([[1, 2, 3], ["3/2", 0, 3]])  # job 1 drops by 1/2, job 2 by 1
    cons = infer(_l2(2, j=2, k=1), H1, H1_ALLOC, Tp)
    assert cons.keep == {2}


def test_infer_l3_reference_pair():
    cons = infer(_l3(2, f1=[3], f2=[1]), I1, I1_ALLOC, I2)
    assert cons.keep == {3, 4} and cons.forbid == {1}
    assert cons.defects(Allocation([1, 1, 2, 2])) == []
    assert cons.defects(Allocation([1, 1, 1, 2]))


def test_infer_l4_reference_pair():
    cons = infer(_l4(2, j1=1, j2=2), K1, K1_ALLOC, K2)
    assert cons.implications == ((2, 1),)
    assert cons.defects(Allocation([2, 2, 1])) == []
    assert cons.defects(Allocation([2, 1, 1])) == []  # dropped both: fine
    assert cons.defects(Allocation([1, 2, 1]))


def test_infer_checks_hypotheses():
    with pytest.raises(HypothesisError):
        # job 2 is unchanged, not lowered
        infer(_l1(2, f1=[2], f2=[1]), G1, G1_ALLOC, G2)
    with pytest.raises(HypothesisError):
        infer(_l3(2, f1=[3]), G1, G1_ALLOC, G2)  # no dummy job


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
    spec = FuzzSpec(n=3, m=3, values=(0, 1, 2, 3, 4))
    assert fuzz(make_mechanism("minwork"), spec, trials=0, seed=1) == []


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


def fuzz_oracle(M, spec, trials, seed):
    """The fuzzer as first written: each edit moves the cell's standard
    part by a Fraction delta, negated by a coin, and clamps at zero."""
    rng = random.Random(seed)
    grid = [tv(Fraction(v)) for v in spec.values]
    violations = []
    for _ in range(trials):
        costs = [[rng.choice(grid) for _ in range(spec.m)] for _ in range(spec.n)]
        T = Instance(costs)
        i = rng.randint(1, spec.n)
        jobs = rng.sample(range(1, spec.m + 1), rng.randint(1, spec.m))
        edits = []
        for j in jobs:
            delta = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            if rng.random() < 0.5:
                delta = -delta
            moved = T.cost(i, j).standard_part() + delta
            edits.append((i, j, max(Fraction(0), moved)))
        Tp = T.with_costs(edits)
        x = checked_query(M, T)
        xp = checked_query(M, Tp)
        report = wmon_value(T, x, Tp, xp, i)
        if report > ZERO:
            violations.append(
                WmonViolation(player=i, T=T, x=x, Tp=Tp, xp=xp, value=report)
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


@pytest.mark.parametrize(
    "selector", ["minwork", "optmakespan", "stub:7", "stub:11", "activestub:5"]
)
@pytest.mark.parametrize(
    "n, m, values",
    [
        (2, 2, (0, 1, 2, 3)),
        (2, 2, (0, 0, 1)),
        (2, 2, ("1/2", 2, "1/2")),
        (2, 3, (1, 2)),
        (3, 2, (1, 2)),
        (2, 2, (2, 1, 0, 1)),
    ],
)
def test_exhaustive_pairs_matches_the_oracle(selector, n, m, values):
    # Repeated grid values give equal instances: each is queried once, and
    # a pair is skipped exactly when the rewritten row equals the old one.
    # A value repeated apart from its first place, as in (2, 1, 0, 1),
    # revisits pairs whose sums were kept in another order.
    runs = []
    for sweep in (exhaustive_pairs, exhaustive_pairs_oracle):
        log = QueryLog(make_mechanism(selector))
        found = sweep(log, n, m, values)
        runs.append(([v.to_json_dict() for v in found], log.queries))
    assert runs[0] == runs[1]
    assert len(set(runs[0][1])) == len(runs[0][1])


@pytest.mark.parametrize("n, m, values", [(2, 2, (0, 1, 2)), (2, 3, (1, 2))])
def test_exhaustive_pairs_sums_each_unordered_pair_once(monkeypatch, n, m, values):
    # On a grid without repeats, wmon_value runs once per unordered pair of
    # instances and player whose rows differ only there: the second order
    # reuses the first order's sum.
    calls = []

    def counted(T, x, Tp, xp, i):
        calls.append((i, frozenset((T.to_json_line(), Tp.to_json_line()))))
        return wmon_value(T, x, Tp, xp, i)

    monkeypatch.setattr(wmon, "wmon_value", counted)
    found = exhaustive_pairs(make_mechanism("stub:7"), n, m, values)
    d = len(values)
    rows = d**m
    assert len(set(calls)) == len(calls)
    assert len(calls) == n * d ** (m * (n - 1)) * rows * (rows - 1) // 2
    # each positive sum is reported in both orders
    assert found and len(found) % 2 == 0


@pytest.mark.parametrize("selector", ["minwork", "optmakespan", "stub:7"])
@pytest.mark.parametrize(
    "spec",
    [
        FuzzSpec(n=3, m=3, values=(0, 1, 2, 3, 4)),
        FuzzSpec(n=2, m=3, values=(0, "1/3", "5/2", 1)),
    ],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzz_matches_the_oracle(selector, spec, seed):
    # the grid with fractions and 0 moves cells below zero (clamped) and
    # onto denominators the grid does not have
    runs = []
    for search in (fuzz, fuzz_oracle):
        log = QueryLog(make_mechanism(selector))
        found = search(log, spec, 60, seed)
        runs.append(([v.to_json_dict() for v in found], log.queries))
    assert runs[0] == runs[1]


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
        (_l1(2, f1=[3], f2=[1]), "L1: job 2 outside F1/F2 changed"),
        (_l2(2, j=3, k=2), "L2: job 1 outside {j,k} changed"),
        (_l4(2, j1=3, j2=4), "L4: job 1 outside {j1,j2} changed"),
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
    v = tiered(
        {
            t: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            for t in rng.sample(range(3), rng.randint(0, 2))
        }
    )
    return ZERO - v if tv_compare(v, ZERO) < 0 else v


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


def _grid_cost(k):
    """Grid point k: k/2 for k <= 4, and 5 stands for an infinite cost."""
    return "inf" if k == 5 else Fraction(k, 2)


@st.composite
def _edited_pairs(draw):
    """Costs on a half-integer grid for n, m <= 3 that ends in an infinite
    cost, one player's row with each cost kept, lowered or raised on the
    grid (so a cost can start infinite, be raised to infinity or be lowered
    from it), and a finite dummy cost before and after."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(st.integers(0, 5)) for _ in range(m)] for _ in range(n)]
    i = draw(st.integers(1, n))
    row = []
    for k in rows[i - 1]:
        move = draw(st.sampled_from(["keep", "lower", "raise"]))
        if move == "lower" and k > 0:
            k = draw(st.integers(0, k - 1))
        elif move == "raise" and k < 5:
            k = draw(st.integers(k + 1, 5))
        row.append(_grid_cost(k))
    rows = [[_grid_cost(k) for k in r] for r in rows]
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


# -- the lemma record against the lemma checks as first written ----------------


@dataclass(frozen=True)
class LemmaExpectation:
    """A lemma application as first written: variant selects the fields
    that apply (f1/f2 for L1, L3 and the dominated decrease, j/k for L2,
    j1/j2 for L4)."""

    variant: str
    player: int
    f1: frozenset = frozenset()
    f2: frozenset = frozenset()
    j: int = 0
    k: int = 0
    j1: int = 0
    j2: int = 0


@dataclass
class Constraints:
    """Predicted restrictions on the post-edit allocation of one player,
    as infer first restated them."""

    player: int
    keep: set = field(default_factory=set)
    forbid: set = field(default_factory=set)
    one_of: list = field(default_factory=list)
    implications: list = field(default_factory=list)

    def defects(self, xp):
        out = []
        for j in sorted(self.keep):
            if not xp.assigns(self.player, j):
                out.append(f"player {self.player} was predicted to keep job {j}")
        for j in sorted(self.forbid):
            if xp.assigns(self.player, j):
                out.append(f"player {self.player} was predicted not to get job {j}")
        for group in self.one_of:
            if not any(xp.assigns(self.player, j) for j in group):
                out.append(
                    f"player {self.player} was predicted to get one of "
                    f"{sorted(group)}"
                )
        for trigger, required in self.implications:
            if xp.assigns(self.player, trigger) and not xp.assigns(
                self.player, required
            ):
                out.append(
                    f"player {self.player} kept job {trigger} but dropped "
                    f"job {required}"
                )
        return out

    def describe(self):
        bits = []
        if self.keep:
            bits.append(f"keep {sorted(self.keep)}")
        if self.forbid:
            bits.append(f"not-get {sorted(self.forbid)}")
        for group in self.one_of:
            bits.append(f"one-of {sorted(group)}")
        for trigger, required in self.implications:
            bits.append(f"if-get {trigger} then-get {required}")
        return ", ".join(bits) or "none"


def _require(cond, msg):
    if not cond:
        raise HypothesisError(msg)


def infer_oracle(exp, T, x, Tp):
    """infer as first written: five string-dispatched branches, each
    restating the expectation as Constraints."""
    i = exp.player
    _require(T.rows_equal_except(Tp, i), "instances differ outside the row")

    def lowered(jj):
        t, tp = T.cost(i, jj), Tp.cost(i, jj)
        return t.finite and tp.finite and tv_compare(t, tp) == GT

    def raised(jj):
        t, tp = T.cost(i, jj), Tp.cost(i, jj)
        if t.infinite:
            return False
        return tp.infinite or tv_compare(tp, t) == GT

    def changed_outside(declared):
        for jj in T.changed_jobs(Tp):
            if jj not in declared and T.cost(i, jj) != Tp.cost(i, jj):
                return jj
        return None

    def moves_as_declared(free=()):
        v = exp.variant
        for j in exp.f1:
            _require(x.assigns(i, j), f"{v}: job {j} in F1 is not held")
            _require(lowered(j), f"{v}: job {j} in F1 is not strictly lowered")
        for j in exp.f2:
            _require(not x.assigns(i, j), f"{v}: job {j} in F2 is held")
            _require(raised(j), f"{v}: job {j} in F2 is not strictly raised")
        jj = changed_outside(exp.f1 | exp.f2 | set(free))
        _require(jj is None, f"{v}: job {jj} outside F1/F2 changed")

    if exp.variant == "L1":
        moves_as_declared()
        return Constraints(player=i, keep=set(exp.f1), forbid=set(exp.f2))

    if exp.variant == "L2":
        j, k = exp.j, exp.k
        _require(j != k, "L2: j and k must differ")
        _require(x.assigns(i, j), "L2: job j is not held")
        _require(lowered(j), "L2: job j is not strictly lowered")
        _require(lowered(k), "L2: job k is not strictly lowered")
        jj = changed_outside({j, k})
        _require(jj is None, f"L2: job {jj} outside {{j,k}} changed")
        d_j = T.cost(i, j) - Tp.cost(i, j)
        d_k = T.cost(i, k) - Tp.cost(i, k)
        cons = Constraints(player=i, one_of=[frozenset({j, k})])
        if tv_compare(d_k, d_j) == LT:
            cons.keep.add(j)
        return cons

    if exp.variant == "L3":
        jd = T.dummy_of.get(i)
        _require(jd is not None, "L3: player has no dummy job")
        _require(x.assigns(i, jd), "L3: player does not hold the dummy")
        _require(jd not in exp.f1 and jd not in exp.f2, "L3: dummy inside F1/F2")
        moves_as_declared(free={jd})
        return Constraints(player=i, keep=set(exp.f1) | {jd}, forbid=set(exp.f2))

    if exp.variant == "L4":
        j1, j2 = exp.j1, exp.j2
        _require(j1 != j2, "L4: jobs must differ")
        _require(x.assigns(i, j1) and x.assigns(i, j2), "L4: jobs not both held")
        _require(lowered(j1), "L4: job j1 is not strictly lowered")
        _require(raised(j2), "L4: job j2 is not strictly raised")
        jj = changed_outside({j1, j2})
        _require(jj is None, f"L4: job {jj} outside {{j1,j2}} changed")
        return Constraints(player=i, implications=[(j2, j1)])

    if exp.variant == "dominated-decrease":
        other_total = ZERO
        decreases = {}
        for j in T.changed_jobs(Tp):
            t, tp = T.cost(i, j), Tp.cost(i, j)
            if t == tp:
                continue
            _require(lowered(j), f"keep-lowered: job {j} is not a finite decrease")
            if j in exp.f1:
                _require(x.assigns(i, j), f"keep-lowered: job {j} is not held")
                decreases[j] = t - tp
            else:
                other_total = other_total + (t - tp)
        for j in sorted(exp.f1):
            _require(j in decreases, f"keep-lowered: kept job {j} unchanged")
            _require(
                tv_compare(decreases[j], other_total) == GT,
                f"keep-lowered: job {j}'s decrease does not dominate the rest",
            )
        return Constraints(player=i, keep=set(exp.f1))

    raise HypothesisError(f"unknown lemma variant {exp.variant!r}")


def _lemma_pairs(i, jobs):
    """Every lemma on player i over `jobs`, each as a record and as the
    expectation first written for it."""
    for f1, f2 in _splits(jobs):
        f1s, f2s = frozenset(f1), frozenset(f2)
        yield _l1(i, f1, f2), LemmaExpectation("L1", i, f1=f1s, f2=f2s)
        yield _l3(i, f1, f2), LemmaExpectation("L3", i, f1=f1s, f2=f2s)
        if not f2:
            yield _dd(i, keep=f1), LemmaExpectation("dominated-decrease", i, f1=f1s)
    for j, k in product(jobs, repeat=2):  # j == k fails its premise
        yield _l2(i, j=j, k=k), LemmaExpectation("L2", i, j=j, k=k)
        yield _l4(i, j1=j, j2=k), LemmaExpectation("L4", i, j1=j, j2=k)


def _infer_outcome(check, lemma, T, x, Tp):
    try:
        return check(lemma, T, x, Tp), None
    except HypothesisError as exc:
        return None, str(exc)


@settings(max_examples=150, deadline=None)
@given(_edited_pairs(), st.booleans(), st.booleans())
def test_the_lemma_record_predicts_as_the_lemma_checks_first_written(
    pair, with_dummy, shared
):
    # Each lemma's premise fails with the same message, or it holds for
    # both and every second answer breaks the same predictions.
    rows, i, row, (d, dp) = pair
    edits = [(i, j, c) for j, c in enumerate(row, start=1)]
    dummy_of = {}
    if with_dummy:
        jd = len(row) + 1
        rows = [r + [d if p == i else "inf"] for p, r in enumerate(rows, start=1)]
        edits.append((i, jd, dp))
        dummy_of = {i: jd}
    T = Instance(rows, dummy_of=dummy_of)
    if shared:
        Tp = T.with_costs(edits)
    else:
        dense = [list(r) for r in rows]
        for p, j, c in edits:
            dense[p - 1][j - 1] = c
        Tp = Instance(dense, dummy_of=dummy_of)
    answers = list(map(Allocation, product(T.players(), repeat=T.m)))
    for lemma, exp in _lemma_pairs(i, list(T.jobs())):
        for x in answers:
            got, msg = _infer_outcome(infer, lemma, T, x, Tp)
            want, want_msg = _infer_outcome(infer_oracle, exp, T, x, Tp)
            assert msg == want_msg
            if want is None:
                continue
            assert got.describe() == want.describe()
            for xp in answers:
                assert got.defects(xp) == want.defects(xp)
