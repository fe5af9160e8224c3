import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mechdock.exactnum import (
    EPS1,
    EPS2,
    EQ,
    GT,
    INF,
    LT,
    UNBOUNDED,
    ZERO,
    ExactNumError,
    ParseError,
    TieredValue,
    format_value,
    leading_ratio,
    parse_value,
    tv,
    tv_compare,
    tv_scale,
)


def test_add_rationals():
    assert tv(1) + tv(Fraction(1, 2)) == tv(Fraction(3, 2))


def test_add_cancels_tiers():
    u = tv(1) - 2 * EPS1
    assert u + EPS1 == tv(1) - EPS1


def test_add_infinity_absorbs():
    assert INF + EPS2 == INF
    assert tv(5) + INF == INF


def test_scale_distributes_over_tiers():
    assert tv_scale(2, tv(1) + EPS2) == tv(2) + 2 * EPS2


def test_scale_by_zero_annihilates():
    assert tv_scale(0, tv(5) - EPS1) == ZERO


def test_scale_infinity():
    assert tv_scale(Fraction(3, 2), INF) == INF
    with pytest.raises(ExactNumError):
        tv_scale(0, INF)
    with pytest.raises(ExactNumError):
        tv_scale(-1, INF)


def test_compare_tier_dominance():
    assert tv_compare(EPS1, 100 * EPS2) == GT
    assert tv_compare(tv(1) - 2 * EPS1, tv(1)) == LT
    assert tv_compare(INF, tv(10**9)) == GT


def test_compare_negative_leading():
    assert tv_compare(-EPS1, ZERO) == LT
    assert tv_compare(tv(1) - EPS1, tv(1) - 2 * EPS1) == GT


def test_leading_ratio_standard():
    assert leading_ratio(tv(2) - 2 * EPS1, tv(1)) == Fraction(2)
    assert leading_ratio(tv(3), tv(2)) == Fraction(3, 2)


def test_leading_ratio_tier_gap_unbounded():
    assert leading_ratio(EPS1, EPS2) is UNBOUNDED
    assert leading_ratio(INF, tv(1)) is UNBOUNDED


def test_leading_ratio_zero_coeff_at_leading_tier():
    # numerator has no weight at the denominator's leading tier
    assert leading_ratio(EPS2, tv(1) + EPS1) == 0


def test_leading_ratio_rejects_bad_denominator():
    with pytest.raises(ExactNumError):
        leading_ratio(tv(1), ZERO)
    with pytest.raises(ExactNumError):
        leading_ratio(tv(1), INF)
    with pytest.raises(ExactNumError):
        leading_ratio(tv(1), -EPS1)


def test_subtract_infinity_rejected():
    with pytest.raises(ExactNumError):
        INF - INF
    with pytest.raises(ExactNumError):
        tv(1) - INF
    assert INF - tv(1) == INF


def test_no_tiered_multiplication():
    with pytest.raises(ExactNumError):
        EPS1 * EPS2


def test_parse_examples():
    assert parse_value("1-2e1") == tv(1) - 2 * EPS1
    assert parse_value("inf") == INF
    assert parse_value("1873/1000") == tv(Fraction(1873, 1000))
    assert parse_value("0") == ZERO
    assert parse_value("-1/2e2+1e3") == TieredValue({2: Fraction(-1, 2), 3: 1})


def test_parse_unicode_minus():
    assert parse_value("1−2e1") == parse_value("1-2e1")


def test_parse_errors():
    for bad in ["", "abc", "1//2", "1/0", "1+", "e3", "1 2", "1.5"]:
        with pytest.raises(ParseError):
            parse_value(bad)


def test_format_canonical():
    assert format_value(tv(1) - 2 * EPS1) == "1-2e1"
    assert format_value(INF) == "inf"
    assert format_value(ZERO) == "0"
    assert format_value(tv(Fraction(-3, 2))) == "-3/2"
    assert format_value(EPS2 + tv(2)) == "2+1e2"


def _random_value(rng):
    coeffs = {}
    for tier in rng.sample(range(0, 6), rng.randint(1, 4)):
        num = rng.randint(-50, 50)
        den = rng.randint(1, 30)
        coeffs[tier] = Fraction(num, den)
    return TieredValue(coeffs)


def test_parse_format_roundtrip_bulk():
    rng = random.Random(20240917)
    for _ in range(1000):
        v = _random_value(rng)
        assert parse_value(format_value(v)) == v
    assert parse_value(format_value(INF)) == INF


_fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
_finite_values = st.dictionaries(st.integers(0, 5), _fractions, max_size=4).map(
    TieredValue
)
_values = st.one_of(_finite_values, st.just(INF))


@given(_values, _values)
def test_order_antisymmetric(u, v):
    c, d = tv_compare(u, v), tv_compare(v, u)
    assert c == -d
    assert (c == EQ) == (u == v)


@given(_values, _values, _values)
def test_order_transitive(u, v, w):
    if tv_compare(u, v) != GT and tv_compare(v, w) != GT:
        assert tv_compare(u, w) != GT


@given(_finite_values, _finite_values)
def test_add_commutes(u, v):
    assert u + v == v + u


@given(_finite_values, _finite_values, _finite_values)
def test_add_associates(u, v, w):
    assert (u + v) + w == u + (v + w)


@given(_fractions, _finite_values, _finite_values)
def test_scale_distributes(q, u, v):
    assert tv_scale(q, u + v) == tv_scale(q, u) + tv_scale(q, v)


@given(_finite_values, _finite_values)
def test_standard_part_additive(u, v):
    assert (u + v).standard_part() == u.standard_part() + v.standard_part()


def test_cancelling_sum_is_canonical_zero():
    s = tv(1) + tv(-1)
    assert s.is_zero()
    assert s == ZERO
    assert hash(s) == hash(ZERO)


# Few tiers and small coefficients, so same-tier singletons, cancellation
# and empty operands come up often; a bare tier-0 value goes through tv.
_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_small_coeffs = st.dictionaries(st.integers(0, 2), _small_fractions, max_size=2)

# Coefficients of about a hundred digits, the size the r=100 chain carries,
# over a few shared denominators so equal denominators come up too.
_big_fractions = st.builds(
    Fraction,
    st.integers(-(10**100), 10**100),
    st.sampled_from([10**100, 3**210, 7**118 + 1]),
)
_coeffs = st.one_of(
    _small_coeffs,
    st.dictionaries(
        st.integers(0, 2), st.one_of(_small_fractions, _big_fractions), max_size=2
    ),
)


def _tiered(coeffs):
    return tv(coeffs[0]) if set(coeffs) == {0} else TieredValue(coeffs)


def _is_canonical(v):
    tiers = [t for t, _ in v.items()]
    return tiers == sorted(set(tiers)) and all(
        type(t) is int and type(q) is Fraction and q != 0 for t, q in v.items()
    )


@given(_coeffs, _coeffs)
def test_add_and_compare_match_per_tier_reference(p, q):
    u, v = _tiered(p), _tiered(q)
    tiers = sorted(set(p) | set(q))
    for result, sign in ((u + v, 1), (u - v, -1)):
        expected = {t: p.get(t, 0) + sign * q.get(t, 0) for t in tiers}
        expected = {t: c for t, c in expected.items() if c}
        assert dict(result.items()) == expected
        assert _is_canonical(result)
        assert result.is_zero() == (result == ZERO) == (not expected)
        if not expected:
            assert hash(result) == hash(ZERO)
    diffs = [p.get(t, 0) - q.get(t, 0) for t in tiers]
    first = next((d for d in diffs if d), 0)
    assert tv_compare(u, v) == (GT if first > 0 else LT if first < 0 else EQ)
    assert _is_canonical(u) and _is_canonical(v)
    assert tv_compare(u, _tiered(dict(p))) == EQ


def _rendered_by_fraction(v):
    """format_value as first written, on Fraction's own str() and sign."""
    if v.infinite:
        return "inf"
    if not v.items():
        return "0"
    parts = []
    for idx, (t, q) in enumerate(v.items()):
        body = str(abs(q)) + (f"e{t}" if t else "")
        if idx == 0:
            parts.append(("-" if q < 0 else "") + body)
        else:
            parts.append(("-" if q < 0 else "+") + body)
    return "".join(parts)


# Multi-tier values with negative, integral and hundred-digit coefficients.
_rendered_values = st.dictionaries(
    st.integers(0, 6),
    st.one_of(
        st.integers(-(10**100), 10**100), _small_fractions, _big_fractions, _fractions
    ),
    max_size=4,
).map(TieredValue)


@given(st.one_of(_rendered_values, st.just(INF)))
def test_format_value_matches_fraction_rendering(v):
    assert format_value(v) == _rendered_by_fraction(v)
    assert parse_value(format_value(v)) == v
