import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from mechdock import forge
from mechdock.adversary import attack
from mechdock.exactnum import EPS1, EPS2, EPS3, EPS4, INF, ParseError, format_value, tv
from mechdock.forge import (
    CONSTRUCTIONS,
    FeasibilityError,
    ForgeError,
    MainParams,
    build_main,
    build_instance,
    certified_bound,
    chain_shape,
    compute_b_closed,
    d2x2,
    e3x3,
    f3x4,
    feasibility_defect,
    resolve_params,
    solve_best_a,
    transition_second_cost,
    z_sum,
)
from mechdock.mechlib import make_mechanism, minwork_allocate
from mechdock.schedmodel import Allocation, MechanismHandle, active_players

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402


def z_sum_reference(a, r, k_c):
    """The chain weight summed term by term."""
    a = Fraction(a)
    return sum((a ** -(r + t) for t in range(1, k_c + 1)), Fraction(0))


def compute_b(a, r, k_c):
    """The recurrence's block prices and chain weight as Fractions, (b, z),
    from the integer numerators MainParams keeps."""
    num, b_num, z_num = forge._recurrence(a, r, k_c)
    return tuple(Fraction(x, num[1]) for x in b_num), Fraction(z_num, num[1])


def bound_arms(p):
    """forge.bound_arms with each (numerator, denominator) arm a Fraction."""
    v0, vks = forge.bound_arms(p)
    return Fraction(*v0), [Fraction(*vk) for vk in vks]


def bound_arms_reference(p):
    """The terminal arms with every suffix sum of b taken afresh (O(r^2))
    and the chain weight summed term by term."""
    a = Fraction(p.a)
    z = z_sum_reference(a, p.r, p.k_c)
    v0 = 1 + sum(p.b) + z
    vks = []
    for k in range(1, p.r + 1):
        ak = a**-k
        second = max(3 * ak - p.b[k - 1], ak)
        tail = sum(p.b[k:], Fraction(0))
        vks.append((a ** -(k - 1) + ak + second + tail + z) / a ** -(k - 1))
    return v0, vks


def test_compute_b_example_point():
    b, z = compute_b(Fraction(18736, 10000), 3, 3)
    for got, want in zip(b, (1.141, 0.509, 0.222)):
        assert abs(float(got) - want) < 0.005
    assert z == z_sum_reference(Fraction(18736, 10000), 3, 3)


def test_compute_b_warmup_limit():
    a = Fraction(18019, 10000)
    b, _ = compute_b(a, 1, 60)
    assert abs(float(b[0] - 2 / a)) < 1e-3


def test_compute_b_empty_chain():
    a = Fraction(3, 2)
    b, z = compute_b(a, 1, 0)
    assert z == 0 == z_sum(a, 1, 0)
    assert b[0] == 4 / a - a


def test_closed_form_matches_recurrence_exactly():
    grid_a = (Fraction(3, 2), Fraction(8, 5), Fraction(1873, 1000), Fraction(19, 10))
    for a in grid_a:
        for r in range(1, 13):
            for k_c in range(0, 13):
                b, _ = compute_b(a, r, k_c)
                for k in range(1, r + 1):
                    assert b[k - 1] == compute_b_closed(a, r, k_c, k)


def test_closed_form_at_last_block():
    a, r, k_c = Fraction(8, 5), 4, 4
    z = z_sum(a, r, k_c)
    assert compute_b_closed(a, r, k_c, r) == a**-r * (4 - a * a) + z


def test_z_closed_identity_for_matched_chain():
    for a in (Fraction(3, 2), Fraction(1873, 1000)):
        for r in range(1, 8):
            assert z_sum(a, r, r) == (a ** (-2 * r) - a**-r) / (1 - a)


def test_divergence_of_block_price_total():
    a = Fraction(18, 10)
    totals = [sum(compute_b(a, r, r)[0]) for r in range(2, 13)]
    assert all(x < y for x, y in zip(totals, totals[1:]))


# Scale factors in (sqrt 2, 2) over a small and a large denominator.
_scale_factors = st.sampled_from([10**4, 2**40]).flatmap(
    lambda den: st.integers(isqrt(2 * den * den) + 1, 2 * den - 1).map(
        lambda num: Fraction(num, den)
    )
)


@settings(deadline=None)
@given(_scale_factors, st.integers(1, 40), st.integers(0, 40))
def test_parameter_engine_matches_exact_references(a, r, k_c):
    b, z = compute_b(a, r, k_c)
    assert list(b) == [compute_b_closed(a, r, k_c, k) for k in range(1, r + 1)]
    assert z == z_sum(a, r, k_c) == z_sum_reference(a, r, k_c)
    p = MainParams(a, r, k_c)
    v0, vks = bound_arms(p)
    assert (v0, vks) == bound_arms_reference(p)
    k = feasibility_defect(p)
    if k is None:
        assert certified_bound(p) == min([1 + a, v0] + vks)
    else:
        assert p.b[k - 1] < a**-k
        assert all(p.b[i - 1] >= a**-i for i in range(1, k))
        with pytest.raises(FeasibilityError):
            certified_bound(p)


def test_main_params_validation():
    with pytest.raises(ForgeError):
        MainParams(Fraction(14, 10), 3, 3)  # below sqrt 2
    with pytest.raises(ForgeError):
        MainParams(Fraction(2), 3, 3)
    # b is derived from (a, r, k_c) alone
    p = MainParams("18/10", 2, 1)
    assert p.a == Fraction(18, 10) and isinstance(p.a, Fraction)
    assert p.b == compute_b(Fraction(18, 10), 2, 1)[0]


def test_build_main_example_row():
    p = MainParams(Fraction(18736, 10000), 3, 3)
    T = build_main(p)
    assert (T.n, T.m) == (10, 22)
    printed = [
        1.141, 1.067, 1.067, 0.509, 0.570, 0.570,
        0.222, 0.304, 0.304, 0.081, 0.043, 0.023,
    ]
    for j, want in enumerate(printed, start=1):
        got = T.cost(1, j)
        assert got.finite
        assert abs(float(got.standard_part()) - want) < 0.002
    assert T.cost(1, p.dummy_job(1)).is_zero()
    assert not T.cost(1, p.dummy_job(2)).finite


def test_build_main_structure():
    p = MainParams(Fraction(9, 5), 2, 2)
    T = build_main(p)
    assert (T.n, T.m) == (7, 15)

    def trivial(j):  # some player does j at zero or infinitesimal cost
        return any(
            T.cost(i, j).finite and T.cost(i, j).standard_part() == 0
            for i in T.players()
        )

    # block actives are player 1 plus the block pair
    for i in (1, 2):
        j1, j2, j3 = p.block_jobs(i)
        lo, hi = p.block_coplayers(i)
        assert active_players(T, j1) == {1, lo, hi}
        assert active_players(T, j2) == {1, lo}
        assert active_players(T, j3) == {1, hi}
        assert not trivial(j1)
        assert trivial(j2) and trivial(j3)
    # chain co-player cost is exactly a times player 1's
    for t in (1, 2):
        j = p.chain_job(t)
        co = p.chain_coplayer(t)
        assert active_players(T, j) == {1, co}
        assert T.cost(co, j) == p.a * T.cost(1, j)
    assert T.dummy_of == {q: p.dummy_job(q) for q in range(1, 8)}


@pytest.mark.parametrize(
    "a, r, k_c",
    [("17/10", 1, 0), ("9/5", 2, 2), ("18736/10000", 3, 3), ("9/5", 2, 7)],
)
def test_chain_shape_is_the_shape_build_main_builds(a, r, k_c):
    T = build_main(MainParams(Fraction(a), r, k_c))
    assert chain_shape(r, k_c) == (T.n, T.m)


def test_build_main_shares_one_value_per_distinct_price(monkeypatch):
    # each value object is rendered once per report, so one object prices
    # every cell of its price: 403 prices in 1,201 finite cells at r = 100
    T = build_main(MainParams(Fraction(199, 100), 100, 100))
    cells = [c for j in T.jobs() for _, c in T.finite_costs(j)]
    assert len(cells) == 1201
    assert len({id(c) for c in cells}) == len(set(cells)) == 403
    # and so does every price an attack writes: each a^-k and 2 a^-i in
    # its verdict instance is the table's object, and each in its edits is
    # that object's text. The stubs split a pair and reach a transition's
    # second step; the concessions end in the chain and at its end.
    made, cells, edits = [], [], []

    def recorded(*args):
        made.append(MainParams(*args))
        return made[-1]

    # the attacks share one chain, built here from a cleared cache
    monkeypatch.setattr(forge, "MainParams", recorded)
    forge._built_chain.cache_clear()
    mechs = [*map(make_mechanism, ["minwork", "activestub:2", "activestub:51"])]
    # job 31 is the first chain job at r = 10
    for mech in mechs + [_Concede(), _Concede(withheld=31)]:
        report = attack("main", mech, {"a": "983/500", "r": 10})
        p = made[-1]
        table = {v: v for v in p.power + p.companion}
        verdict = report.verdict
        if verdict.kind == "WmonViolation":
            instances = [verdict.T, verdict.Tp]
        else:
            instances = [verdict.instance]
        for T in instances:
            found = [c for j in T.jobs() for _, c in T.finite_costs(j) if c in table]
            cells += [c is table[c] for c in found]
        texts = {format_value(v): v for v in table}
        written = [t for step in report.transcript for _, _, t in step["edits"]]
        edits += [t is format_value(texts[t]) for t in written if t in texts]
    assert len(cells) == 282 and all(cells)
    assert len(edits) == 9 and all(edits)


class _Concede(MechanismHandle):
    """Gives player 1 every job it prices finitely but its dummy, the
    withheld job to the last player pricing it finitely, and the rest by
    min-work."""

    name = "concede"

    def __init__(self, withheld=None):
        self.withheld = withheld

    def query(self, T):
        dummies = set(T.dummy_of.values())
        owner = list(minwork_allocate(T).owner)
        for j in T.jobs():
            if j == self.withheld:
                owner[j - 1] = max(i for i, _ in T.finite_costs(j))
            elif j not in dummies and T.cost(1, j).finite:
                owner[j - 1] = 1
        return Allocation(owner)


def test_build_main_degenerate_chain():
    # an empty chain needs a <= sqrt(3) for the single block price to clear
    p = MainParams(Fraction(17, 10), 1, 0)
    T = build_main(p)
    assert (T.n, T.m) == (3, 6)
    with pytest.raises(FeasibilityError):
        build_main(MainParams(Fraction(9, 5), 1, 0))


def test_build_main_checks_feasibility():
    # without a chain the last block price falls below its floor a^-3
    p = MainParams(Fraction(9, 5), 3, 0)
    assert feasibility_defect(p) == 3
    with pytest.raises(FeasibilityError):
        build_main(p)


@pytest.mark.parametrize("a", ["1/2", "1", "7/5", "2", "3"])
def test_main_params_checks_the_scale_factor_once_before_the_recurrence(a):
    # at a = 1 the recurrence itself would divide by zero
    with pytest.raises(ForgeError, match=rf"^a={a} outside \(sqrt 2, 2\)$"):
        MainParams(Fraction(a), 3, 3)


@pytest.mark.parametrize("r, writable", [(367, True), (650, True), (651, False)])
def test_the_chain_is_refused_past_the_integer_text_limit(r, writable):
    # at a = 1999/1000 the common denominator q p^(r+k_c) has 4,295 digits
    # at r = 650 and 4,301 at r = 651; r = 367 is the chain of 3 - 10^-3
    a = Fraction(1999, 1000)
    if writable:
        forge.check_writable(a, r, r)
        return
    message = (
        f"block chain r={r} k_c={r} writes integers past 4300 digits, "
        "the interpreter's limit for integer text"
    )
    with pytest.raises(ForgeError, match=f"^{message}$"):
        forge.build_an(a, r, r)


# The smallest limit the interpreter accepts puts the boundary near r = 100.
SMALL_LIMIT = 640


def _writable(a, r, k_c):
    try:
        forge.check_writable(a, r, k_c)
    except ForgeError as exc:
        assert f"past {SMALL_LIMIT} digits" in str(exc)
        return False
    return True


@settings(max_examples=50, deadline=None)
@given(_scale_factors, st.integers(0, 160), st.integers(0, 20))
def test_every_integer_of_a_writable_chain_fits_the_limit(a, k_c, back):
    # the chains the check accepts, counted back from the longest, where
    # the numbers are largest
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(SMALL_LIMIT)
    try:
        assume(_writable(a, 1, k_c))
        lo, hi = 1, 2  # the longest writable r lies in [lo, hi)
        while _writable(a, hi, k_c):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _writable(a, mid, k_c) else (lo, mid)
        assume(lo - back >= 1)
        p = MainParams(a, lo - back, k_c)
        v0, vks = bound_arms(p)
        z = compute_b(a, lo - back, k_c)[1]
        values = [*p.b, z, v0, *vks]
        if feasibility_defect(p) is None:
            values.append(certified_bound(p))
    finally:
        sys.set_int_max_str_digits(default)
    # below 2^most, so at most SMALL_LIMIT digits
    most = (10**SMALL_LIMIT).bit_length() - 1
    for v in values:
        assert max(abs(v.numerator), v.denominator).bit_length() <= most


def test_transition_second_cost_branches():
    a = Fraction(18019, 10000)
    # b_1 = 2/a: the subtracted branch dips just below a^-1, max picks a^-1
    assert transition_second_cost(tv(1 / a), 2 / a) == tv(1 / a)
    # boundary b_1 = 1/a: cost is 2/a - eps
    assert transition_second_cost(tv(1 / a), 1 / a) == tv(2 / a) - EPS1


def test_small_builders():
    D = d2x2()
    assert (D.cost(1, 1), D.cost(1, 2)) == (tv(1), EPS2)
    assert (D.cost(2, 1), D.cost(2, 2)) == (tv(1), EPS1)

    E = e3x3(1, Fraction(22055, 10000), Fraction(26589, 10000))
    assert [E.cost(2, j) for j in E.jobs()] == [tv(Fraction(22055, 10000)), INF, INF]
    assert E.cost(1, 3) == EPS1 and E.cost(3, 3) == EPS2
    with pytest.raises(ForgeError, match="needs a < b < c"):
        e3x3(2, 1, 3)
    for a in (0, -1):
        with pytest.raises(ForgeError, match="3x3 construction needs a > 0"):
            e3x3(a, 2, 3)

    F = f3x4(Fraction(141421, 100000))
    assert F.cost(1, 4) == EPS4
    assert F.cost(2, 2) == EPS2 and F.cost(3, 2) == EPS1
    assert F.cost(3, 3) == EPS3
    assert F.dummy_of == {1: 4}
    with pytest.raises(ForgeError):
        f3x4(1)


def test_self_contained_reference_builders():
    assert build_instance("d2x2") == d2x2()
    with pytest.raises(ForgeError):
        build_instance("nope")


def test_resolve_params_names_every_missing_and_unknown_parameter():
    params = CONSTRUCTIONS["an"].params
    with pytest.raises(ForgeError, match=r"missing parameter\(s\) \['a', 'r'\]"):
        resolve_params(params, {})
    with pytest.raises(ForgeError, match=r"unknown parameter\(s\) \['k', 'x'\]"):
        resolve_params(params, {"a": "9/5", "r": 2, "x": 3, "k": 1})
    assert resolve_params(params, {"a": "9/5", "r": "2"}) == {
        "a": Fraction(9, 5),
        "r": 2,
        "kc": 2,
    }


@pytest.mark.parametrize("r", [" 3", "3 ", "1_0", "+3", "3.0", "", True, 3.0])
def test_resolve_params_reads_an_integer_only_as_str_writes_it(r):
    params = CONSTRUCTIONS["an"].params
    with pytest.raises(ParseError, match="^(malformed|expected an) integer"):
        resolve_params(params, {"a": "9/5", "r": r})


@settings(deadline=None)
@given(_scale_factors, st.integers(1, 40), st.integers(0, 40))
def test_certified_bound_matches_the_benchmark_check(a, r, k_c):
    # bench/checks.py sums the arms as Fractions with its own recurrence;
    # certified_bound compares integer numerators and reduces only the least
    p = MainParams(a, r, k_c)
    expected = checks.chain_bound(a, r, k_c)
    if feasibility_defect(p) is None:
        assert certified_bound(p) == expected
    else:
        assert expected is None


def test_certified_bound_reference_points():
    p = MainParams(Fraction(1873, 1000), 3, 3)
    assert abs(float(certified_bound(p)) - 2.873) < 0.005

    p = MainParams(Fraction(18019, 10000), 1, 60)
    assert certified_bound(p) >= Fraction(28018, 10000)

    p = MainParams(Fraction(1618, 1000), 1, 60)
    v0, vks = bound_arms(p)
    assert certified_bound(p) == 1 + Fraction(1618, 1000)  # the 1+a arm binds
    assert v0 > Fraction(38, 10)


def test_v_arms_match_one_plus_a_when_recurrence_binds():
    # wherever b_k <= 2 a^-k the recurrence equalizes the arm to exactly 1+a
    for a in (Fraction(1873, 1000), Fraction(9, 5)):
        for r in (2, 3, 5):
            p = MainParams(a, r, r)
            _, vks = bound_arms(p)
            for k in range(1, r + 1):
                if p.b[k - 1] <= 2 * a**-k:
                    assert vks[k - 1] == 1 + a
                else:
                    assert vks[k - 1] > 1 + a


def test_poly_roots():
    # Each constant is pinned by an exact sign change of its polynomial.
    def single_block(a):
        return a**3 - a**2 - 2 * a + 1

    def square3(rho):
        return rho**3 - 2 * rho**2 - 1

    def golden(a):
        return a * a - a - 1

    brackets = (
        (single_block, Fraction(180193, 100000), Fraction(180194, 100000)),
        (square3, Fraction(22055, 10000), Fraction(22056, 10000)),
        (golden, Fraction(16180339, 10**7), Fraction(16180340, 10**7)),
    )
    for poly, lo, hi in brackets:
        assert poly(lo) < 0 < poly(hi)
    # the 3x3 defaults (a, b, c) round (1, rho, rho (rho - 1))
    _, lo, hi = brackets[1]
    a, b, c = (p.default for p in CONSTRUCTIONS["e3x3"].params)
    assert a == 1 and b == lo
    assert lo * (lo - 1) < c < hi * (hi - 1)


def test_solve_best_a():
    p = solve_best_a(3, 3, Fraction(17, 10), Fraction(199, 100), Fraction(1, 10**4))
    assert p == MainParams(p.a, 3, 3)
    assert certified_bound(p) == 1 + p.a >= Fraction(2873, 1000) - Fraction(1, 1000)
    # at r=1 with a long chain the boundary is the single-block cubic root
    p = solve_best_a(1, 60, Fraction(17, 10), Fraction(199, 100), Fraction(1, 10**5))
    assert abs(float(p.a) - 1.80194) < 1e-3
    with pytest.raises(ForgeError, match="no feasible scale factor in the bracket"):
        solve_best_a(3, 3, Fraction(199, 100), Fraction(1999, 1000), Fraction(1, 100))
    for hi in (Fraction(17, 10), Fraction(16, 10)):
        with pytest.raises(ForgeError, match="empty bracket"):
            solve_best_a(3, 3, Fraction(17, 10), hi, Fraction(1, 100))


@pytest.mark.parametrize("r, calls", [(36, 1), (5, 15)])
def test_solve_best_a_certifies_each_candidate_once(r, calls, monkeypatch):
    # r = 36 certifies at the bracket top; r = 5 scans and then bisects
    counted = []

    def counting(p):
        counted.append(p.a)
        return certified_bound(p)

    monkeypatch.setattr(forge, "certified_bound", counting)
    p = solve_best_a(r, r, Fraction(17, 10), Fraction(199, 100), Fraction(1, 10**4))
    assert len(counted) == len(set(counted)) == calls
    assert p.a in counted


def test_solve_best_a_rejects_a_tolerance_that_is_not_positive():
    # checked before the bracket top, which certifies at r = 100
    for r, tol in ((5, 0), (5, Fraction(-1, 100)), (100, 0)):
        with pytest.raises(ForgeError, match="tolerance must be positive"):
            solve_best_a(r, r, Fraction(17, 10), Fraction(199, 100), tol)
