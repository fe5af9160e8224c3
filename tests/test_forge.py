from fractions import Fraction

import pytest

from mechdock.exactnum import EPS1, EPS2, EPS3, EPS4, INF, tv
from mechdock.forge import (
    CONSTRUCTIONS,
    GOLDEN_QUADRATIC,
    SINGLE_BLOCK_CUBIC,
    SQUARE3_CUBIC,
    FeasibilityError,
    ForgeError,
    MainParams,
    b_ckv,
    b_new,
    b_nr,
    bound_arms,
    build_main,
    build_instance,
    c_kv,
    certified_bound,
    compute_b,
    compute_b_closed,
    d2x2,
    e3x3,
    f3x4,
    feasibility_defect,
    poly_root,
    resolve_params,
    solve_best_a,
    transition_second_cost,
    z_sum,
)
from mechdock.schedmodel import active_players


def test_compute_b_example_point():
    b, z, s = compute_b(Fraction(18736, 10000), 3, 3)
    for got, want in zip(b, (1.141, 0.509, 0.222)):
        assert abs(float(got) - want) < 0.005
    assert s[3] == 0


def test_compute_b_warmup_limit():
    a = Fraction(18019, 10000)
    b, _, _ = compute_b(a, 1, 60)
    assert abs(float(b[0] - 2 / a)) < 1e-3


def test_compute_b_empty_chain():
    a = Fraction(3, 2)
    b, z, _ = compute_b(a, 1, 0)
    assert z == 0
    assert b[0] == 4 / a - a


def test_closed_form_matches_recurrence_exactly():
    grid_a = (Fraction(3, 2), Fraction(8, 5), Fraction(1873, 1000), Fraction(19, 10))
    for a in grid_a:
        for r in range(1, 13):
            for k_c in range(0, 13):
                b, _, _ = compute_b(a, r, k_c)
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
    totals = [compute_b(a, r, r)[2][0] for r in range(2, 13)]
    assert all(x < y for x, y in zip(totals, totals[1:]))


def test_main_params_validation():
    with pytest.raises(ForgeError):
        MainParams.from_alpha(Fraction(14, 10), 3, 3)  # below sqrt 2
    with pytest.raises(ForgeError):
        MainParams.from_alpha(Fraction(2), 3, 3)
    with pytest.raises(ForgeError):
        MainParams(a=Fraction(18, 10), r=1, k_c=1, b=(Fraction(1),), z=Fraction(0))


def test_build_main_example_row():
    p = MainParams.from_alpha(Fraction(18736, 10000), 3, 3)
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
    p = MainParams.from_alpha(Fraction(9, 5), 2, 2)
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


def test_build_main_degenerate_chain():
    # an empty chain needs a <= sqrt(3) for the single block price to clear
    p = MainParams.from_alpha(Fraction(17, 10), 1, 0)
    T = build_main(p)
    assert (T.n, T.m) == (3, 6)
    with pytest.raises(FeasibilityError):
        build_main(MainParams.from_alpha(Fraction(9, 5), 1, 0))


def test_build_main_checks_feasibility():
    # hand-built infeasible b
    a, r, k_c = Fraction(19, 10), 3, 3
    z = z_sum(a, r, k_c)
    p = MainParams(a=a, r=r, k_c=k_c, b=(a**-1, a**-2, a**-3 / 2), z=z)
    assert feasibility_defect(p) == 3
    with pytest.raises(FeasibilityError):
        build_main(p)


def test_transition_second_cost_branches():
    a = Fraction(18019, 10000)
    # b_1 = 2/a: the subtracted branch dips just below a^-1, max picks a^-1
    assert transition_second_cost(a, 1, 2 / a) == tv(1 / a)
    # boundary b_1 = 1/a: cost is 2/a - eps
    assert transition_second_cost(a, 1, 1 / a) == tv(2 / a) - EPS1


def test_small_builders():
    D = d2x2()
    assert (D.cost(1, 1), D.cost(1, 2)) == (tv(1), EPS2)
    assert (D.cost(2, 1), D.cost(2, 2)) == (tv(1), EPS1)

    E = e3x3(1, Fraction(22055, 10000), Fraction(26589, 10000))
    assert [E.cost(2, j) for j in E.jobs()] == [tv(Fraction(22055, 10000)), INF, INF]
    assert E.cost(1, 3) == EPS1 and E.cost(3, 3) == EPS2
    with pytest.raises(ForgeError):
        e3x3(2, 1, 3)

    F = f3x4(Fraction(141421, 100000))
    assert F.cost(1, 4) == EPS4
    assert F.cost(2, 2) == EPS2 and F.cost(3, 2) == EPS1
    assert F.cost(3, 3) == EPS3
    assert F.dummy_of == {1: 4}
    with pytest.raises(ForgeError):
        f3x4(1)


def test_self_contained_reference_builders():
    nr = b_nr()
    assert nr.to_json_dict()["costs"] == [["1", "0", "inf"], ["1", "inf", "0"]]
    assert nr.dummy_of == {1: 2, 2: 3}

    ckv = b_ckv()
    assert (ckv.n, ckv.m) == (3, 5)
    assert ckv.dummy_of == {1: 3, 2: 4, 3: 5}

    chain = c_kv(Fraction(8, 5), 4)
    assert (chain.n, chain.m) == (5, 9)
    a = Fraction(8, 5)
    for t in range(1, 5):
        assert chain.cost(1, t) == tv(a**-t)
        assert chain.cost(t + 1, t) == tv(a ** -(t - 1))

    blk = b_new(Fraction(18019, 10000))
    assert blk.cost(1, 1) == tv(2 / Fraction(18019, 10000))
    assert (blk.n, blk.m) == (3, 6)

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


def test_certified_bound_reference_points():
    p = MainParams.from_alpha(Fraction(1873, 1000), 3, 3)
    assert abs(float(certified_bound(p)) - 2.873) < 0.005

    p = MainParams.from_alpha(Fraction(18019, 10000), 1, 60)
    assert certified_bound(p) >= Fraction(28018, 10000)

    p = MainParams.from_alpha(Fraction(1618, 1000), 1, 60)
    v0, vks = bound_arms(p)
    assert certified_bound(p) == 1 + Fraction(1618, 1000)  # the 1+a arm binds
    assert v0 > Fraction(38, 10)


def test_v_arms_match_one_plus_a_when_recurrence_binds():
    # wherever b_k <= 2 a^-k the recurrence equalizes the arm to exactly 1+a
    for a in (Fraction(1873, 1000), Fraction(9, 5)):
        for r in (2, 3, 5):
            p = MainParams.from_alpha(a, r, r)
            _, vks = bound_arms(p)
            for k in range(1, r + 1):
                if p.b[k - 1] <= 2 * a**-k:
                    assert vks[k - 1] == 1 + a
                else:
                    assert vks[k - 1] > 1 + a


def test_poly_roots():
    root = poly_root(SINGLE_BLOCK_CUBIC, Fraction(17, 10), Fraction(19, 10), Fraction(1, 10**7))
    assert abs(float(root) - 1.80194) < 1e-5
    rho = poly_root(SQUARE3_CUBIC, 2, Fraction(23, 10), Fraction(1, 10**6))
    assert abs(float(rho) - 2.20557) < 1e-4
    assert abs(float(rho * (rho - 1)) - 2.6589) < 1e-3
    phi = poly_root(GOLDEN_QUADRATIC, 1, 2, Fraction(1, 10**7))
    assert abs(float(phi) - 1.6180339887) < 1e-6
    with pytest.raises(ForgeError):
        poly_root(SINGLE_BLOCK_CUBIC, 3, 4, Fraction(1, 100))


def test_solve_best_a():
    a_star, bound = solve_best_a(3, 3, Fraction(17, 10), Fraction(199, 100), Fraction(1, 10**4))
    assert bound >= Fraction(2873, 1000) - Fraction(1, 1000)
    assert bound == 1 + a_star
    # at r=1 with a long chain the boundary is the single-block cubic root
    a_star, _ = solve_best_a(1, 60, Fraction(17, 10), Fraction(199, 100), Fraction(1, 10**5))
    assert abs(float(a_star) - 1.80194) < 1e-3
    with pytest.raises(ForgeError):
        solve_best_a(3, 3, Fraction(199, 100), Fraction(1999, 1000), Fraction(1, 100))
