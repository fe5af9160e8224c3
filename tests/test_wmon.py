import re
from fractions import Fraction
from itertools import product

import pytest

from mechdock.exactnum import EPS1, EPS2, ZERO, tv
from mechdock.mechlib import make_mechanism
from mechdock.schedmodel import Allocation, Instance, MechanismHandle, checked_query
from mechdock.wmon import (
    FuzzSpec,
    HypothesisError,
    LemmaExpectation,
    WmonPreconditionError,
    WmonViolation,
    exhaustive_pairs,
    fuzz,
    infer,
    keep_lowered_constraints,
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
    assert not rep.violated
    assert rep.value == ZERO


def test_wmon_value_violation_arithmetic():
    xp = Allocation([1, 1, 1])  # player 2 gets nothing
    rep = wmon_value(G1, G1_ALLOC, G2, xp, 2)
    assert rep.violated
    assert rep.value == tv(1)  # (3-2)*(1-0)


def test_wmon_value_identity_pair():
    rep = wmon_value(G1, G1_ALLOC, G1, G1_ALLOC, 2)
    assert rep.value == ZERO and not rep.violated


def test_wmon_value_skips_double_infinite():
    T = Instance([["inf", 1], [1, 1]])
    Tp = Instance([["inf", 2], [1, 1]])
    rep = wmon_value(T, Allocation([2, 1]), Tp, Allocation([2, 2]), 1)
    assert rep.value == tv(-1)  # job 1 adds nothing; job 2 gives (1-2)*(1-0)
    assert not rep.violated


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
    cons = keep_lowered_constraints(T, Allocation([2, 1]), Tp, 2, keep={1})
    assert cons.keep == {1}
    with pytest.raises(HypothesisError):
        # job 2's decrease (~eps1) does not dominate job 1's (2*eps1)
        keep_lowered_constraints(T, Allocation([1, 2]), Tp, 2, keep={2})


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
    assert rep.violated and rep.value == v.value


def exhaustive_pairs_oracle(M, n, m, values):
    """The sweep as first written: every flat grid tuple, each rewrite made
    with with_costs, answers cached by Instance."""
    grid = [tv(Fraction(v)) for v in values]
    cache = {}

    def answer(T):
        if T not in cache:
            cache[T] = checked_query(M, T)
        return cache[T]

    violations = []
    for flat in product(grid, repeat=n * m):
        T = Instance(flat[r * m : (r + 1) * m] for r in range(n))
        for i in range(1, n + 1):
            for row in product(grid, repeat=m):
                if row == tuple(T.cost(i, j) for j in T.jobs()):
                    continue
                Tp = T.with_costs((i, j, c) for j, c in enumerate(row, start=1))
                report = wmon_value(T, answer(T), Tp, answer(Tp), i)
                if report.violated:
                    violations.append(
                        WmonViolation(
                            player=i,
                            T=T,
                            x=answer(T),
                            Tp=Tp,
                            xp=answer(Tp),
                            value=report.value,
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
        keep_lowered_constraints(M1, M1_ALLOC, M2, 2, keep={3})
