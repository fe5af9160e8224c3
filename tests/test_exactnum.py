import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

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
    parse_int,
    parse_rational,
    parse_value,
    quoted,
    quoted_rational,
    tv,
    tv_compare,
    tv_sum,
)


def tiered(coeffs):
    """A value from a {tier: rational} dict, sorted and stripped of zeros
    here rather than summed by the module under test."""
    return TieredValue(
        tuple(sorted((t, Fraction(q)) for t, q in coeffs.items() if q))
    )


def _negated(v):
    return TieredValue(tuple((t, -q) for t, q in v.items()))


def test_add_rationals():
    assert tv(1) + tv(Fraction(1, 2)) == tv(Fraction(3, 2))


def test_add_cancels_tiers():
    u = tv(1) - 2 * EPS1
    assert u + EPS1 == tv(1) - EPS1


def test_add_infinity_absorbs():
    assert INF + EPS2 == INF
    assert tv(5) + INF == INF


def test_scale_distributes_over_tiers():
    assert 2 * (tv(1) + EPS2) == tv(2) + 2 * EPS2


def test_scale_by_zero_annihilates():
    assert 0 * (tv(5) - EPS1) == ZERO


def test_scale_infinity():
    assert Fraction(3, 2) * INF == INF
    with pytest.raises(ExactNumError):
        0 * INF
    with pytest.raises(ExactNumError):
        -1 * INF


def test_compare_tier_dominance():
    assert tv_compare(EPS1, 100 * EPS2) == GT
    assert tv_compare(tv(1) - 2 * EPS1, tv(1)) == LT
    assert tv_compare(INF, tv(10**9)) == GT


def test_compare_negative_leading():
    assert tv_compare(ZERO - EPS1, ZERO) == LT
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
        leading_ratio(tv(1), ZERO - EPS1)


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
    assert parse_value("-1/2e2+1e3") == tiered({2: Fraction(-1, 2), 3: 1})


def test_parse_errors():
    malformed = ["", "abc", "1//2", "1/0", "1+", "e3", "1 2", "1.5", "1−2e1", " 1"]
    # each of these denotes a value, but format_value writes no value so
    unwritten = ["2/4", "1e1-1e1", "0+0e2", "1e2+1e0", "1e0+1/2+1e1", "3/1", "-0"]
    for bad in malformed + unwritten:
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
    return tiered(coeffs)


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
    tiered
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
    assert q * (u + v) == q * u + q * v


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
    return tv(coeffs[0]) if set(coeffs) == {0} else tiered(coeffs)


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


def _add_by_merge(u, v):
    """TieredValue.__add__ as first written: the coefficients merged in a
    dict tier by tier, with shortcuts for a zero operand and for two
    values on one shared tier."""
    v = tv(v)
    if u.infinite or v.infinite:
        return INF
    a, b = u.items(), v.items()
    if not b:
        return u
    if not a:
        return v
    if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
        q = a[0][1] + b[0][1]
        return TieredValue(((a[0][0], q),) if q else ())
    merged = dict(a)
    for t, q in b:
        merged[t] = merged.get(t, 0) + q
    return TieredValue(tuple(sorted((t, q) for t, q in merged.items() if q)))


_operands = st.one_of(_coeffs.map(_tiered), st.just(INF))


@given(_operands, _operands)
def test_addition_matches_the_dict_merge_oracle(u, v):
    total = u + v
    assert total == _add_by_merge(u, v) and _is_canonical(total)
    assert u + ZERO == _add_by_merge(u, ZERO) == u
    assert ZERO + u == _add_by_merge(ZERO, u) == u
    if v.infinite:
        with pytest.raises(ExactNumError):
            u - v
    else:
        difference = u - v
        assert difference == _add_by_merge(u, _negated(v)) and _is_canonical(difference)


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
).map(tiered)


@given(st.one_of(_rendered_values, st.just(INF)))
def test_format_value_matches_fraction_rendering(v):
    assert format_value(v) == _rendered_by_fraction(v)
    assert parse_value(format_value(v)) == v


@given(st.one_of(_rendered_values, st.just(INF), st.just(ZERO)))
def test_format_value_text_is_kept_and_equal_for_equal_values(v):
    # a value built separately renders alike, and a second call on either
    # returns the text the first call kept
    twin = TieredValue(infinite=True) if v.infinite else TieredValue(v.items())
    assert not hasattr(twin, "_text")
    text = format_value(v)
    assert format_value(v) is text
    assert format_value(twin) == text == _rendered_by_fraction(v)
    assert format_value(twin) == text
    assert twin == v and hash(twin) == hash(v)


@given(
    st.lists(st.one_of(_rendered_values, st.just(ZERO)), max_size=6),
    st.lists(st.one_of(_rendered_values, st.just(ZERO)), max_size=6),
)
def test_tv_sum_matches_repeated_addition(values, minus):
    expected = ZERO
    for v in values:
        expected = _add_by_merge(expected, v)
    for v in minus:
        expected = _add_by_merge(expected, _negated(v))
    got = tv_sum(values, minus)
    assert got == expected and _is_canonical(got)
    assert tv_sum(values) == sum(values, ZERO)


_ORACLE_TERM = re.compile(r"([+-])?([0-9]+)(?:/([0-9]+))?(?:e([0-9]+))?")


def _parse_by_tier_sums(text):
    """What a text denotes, read leniently: parse_value as first written,
    with every term added into its tier's sum from Fraction(0)."""
    if not isinstance(text, str):
        raise ParseError(f"expected string, got {type(text).__name__}")
    s = text.replace("−", "-").strip()
    if not s:
        raise ParseError("empty value")
    if s == "inf":
        return INF
    coeffs = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _ORACLE_TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"malformed value {quoted(text)} at offset {pos}")
        sign, numer, denom, tier = m.groups()
        if not first and sign is None:
            raise ParseError(f"missing sign between terms in {text!r}")
        if denom is not None and int(denom) == 0:
            raise ParseError(f"zero denominator in {quoted(text)}")
        q = Fraction(int(numer), int(denom) if denom else 1)
        if sign == "-":
            q = -q
        t = int(tier) if tier is not None else 0
        coeffs[t] = coeffs.get(t, Fraction(0)) + q
        pos = m.end()
        first = False
    return tiered(coeffs)


def _reads_exactly_the_writers_texts(reader, denote, write, text, kind):
    """reader returns exactly when denote reads text and write gives the
    text back from its value, and then it returns that value; any other
    text is one ParseError, and a message that quotes it names the kind."""
    try:
        denoted = denote(text)
    except (ValueError, ZeroDivisionError):  # a ParseError is a ValueError
        denoted = None
    if denoted is not None and write(denoted) == text:
        got = reader(text)
        assert got == denoted and type(got) is type(denoted)
        return got
    with pytest.raises(ParseError) as exc:
        reader(text)
    message = str(exc.value)
    if not message.startswith(("empty value", "expected", "zero denominator in")):
        assert message.startswith(f"malformed {kind} {quoted(text)}")
    return None


# Terms over few tiers and small integers, so duplicate and out-of-order
# tiers, zero and cancelling coefficients, explicit "e0" and leading zeros
# come up often; a zero denominator and a hundred-digit numerator now and
# then.
_term_parts = st.tuples(
    st.sampled_from(["", "+", "-", "−"]),
    st.sampled_from(["0", "1", "2", "3", "4", "007", str(3**200)]),
    st.sampled_from([None, "1", "2", "4", "6", "0", "03"]),
    st.sampled_from([None, "0", "1", "2", "3", "00", "01"]),
)


def _term_text(sign, numer, denom, tier):
    return (
        sign
        + numer
        + ("" if denom is None else "/" + denom)
        + ("" if tier is None else "e" + tier)
    )


def _tier_of(term):
    return int(term[3] or 0)


@st.composite
def _value_texts(draw):
    terms = draw(st.lists(_term_parts, min_size=1, max_size=4))
    order = draw(st.sampled_from(["as drawn", "cancelling", "ascending"]))
    if order == "cancelling":  # a term and its negation, in any order
        sign, numer, denom, tier = draw(st.sampled_from(terms))
        terms.append(("+" if sign in ("-", "−") else "-", numer, denom, tier))
        terms = draw(st.permutations(terms))
    elif order == "ascending":  # one term per tier, as format_value writes
        terms = sorted({_tier_of(term): term for term in terms}.values(), key=_tier_of)
    if draw(st.booleans()):  # a sign between every two terms
        terms[1:] = [("+" if s == "" else s, *rest) for s, *rest in terms[1:]]
    text = "".join(_term_text(*term) for term in terms)
    pad = st.sampled_from(["", " ", "\t", "\n ", "\u2003"])
    return draw(pad) + text + draw(pad)


@st.composite
def _edited(draw, texts, pieces):
    """A writer's text, as it is or with one piece put in at, or in place of
    the character at, its start, its end or anywhere. Each piece makes a
    form the writer never writes somewhere: a first "+", a leading zero, a
    space, "/1", "e0", a repeated or descending tier, an unreduced
    fraction ("1/2" to "10/2"), a foreign minus or digit."""
    text = draw(texts)
    if not draw(st.integers(0, 3)):
        return text
    at = draw(st.one_of(st.sampled_from([0, len(text)]), st.integers(0, len(text))))
    cut = draw(st.integers(0, 1))
    return text[:at] + draw(st.sampled_from(pieces)) + text[at + cut :]


_PIECES = ["+", "-", " ", "0", "1", "/", "/1", "−", "٣"]
_VALUE_PIECES = _PIECES + ["e", "e0", "e1", "+1e1", "-1", "+0e2"]
_VALUE_CHARS = "0123456789/+-−e inf.x٣"

# Texts the writer wrote and edits of them, texts over the grammar's parts,
# fixed odd ones, random texts over the grammar's characters with an
# Arabic-Indic digit (which int() reads, and the readers refuse) among them,
# and values that are not strings.
_written_values = st.one_of(_rendered_values, st.just(ZERO)).map(format_value)
_PARSE_TEXTS = st.one_of(
    _edited(_written_values, _VALUE_PIECES),
    _value_texts(),
    st.sampled_from(["inf", " inf\n", "−inf", "", "  ", "1 2", "1.5", "e3"]),
    st.text(alphabet=_VALUE_CHARS, max_size=10),
    st.one_of(st.integers(), st.none(), st.lists(st.just("1"), max_size=1)),
)


@settings(max_examples=400)
@given(_PARSE_TEXTS)
def test_parse_value_reads_exactly_what_format_value_writes(text):
    got = _reads_exactly_the_writers_texts(
        parse_value, _parse_by_tier_sums, format_value, text, "value"
    )
    assert got is None or _is_canonical(got)


# Rationals as Fraction() reads them, with signs, leading zeros, spaces,
# underscores, decimal points, "/1" and unreduced ones; no exponent comes
# from an edit, as Fraction("1e99999999") computes 10**99999999.
_RATIONAL_CHARS = "0123456789/+-. _٣"
_rational_texts = st.one_of(
    _edited(st.one_of(_fractions, _big_fractions).map(str), _PIECES + [".", "_"]),
    st.tuples(
        st.sampled_from(["", "+", "-", " "]),
        st.sampled_from(["0", "1", "2", "4", "007", str(3**200)]),
        st.sampled_from(["", "/1", "/2", "/4", "/0", "/03", ".5", "e2"]),
    ).map("".join),
    st.text(alphabet=_RATIONAL_CHARS, max_size=10),
)


@settings(max_examples=400)
@given(_rational_texts)
def test_parse_rational_reads_exactly_what_str_of_a_fraction_writes(text):
    _reads_exactly_the_writers_texts(parse_rational, Fraction, str, text, "rational")


_INTEGER_CHARS = "0123456789+- _٣/"
_integer_texts = st.one_of(
    _edited(st.integers(-(10**100), 10**100).map(str), _PIECES + ["_", "e0"]),
    st.tuples(
        st.sampled_from(["", "+", "-", " "]),
        st.sampled_from(["0", "1", "10", "007", "1_0", str(3**200)]),
        st.sampled_from(["", " ", "/1", "/2", "e0"]),
    ).map("".join),
    st.text(alphabet=_INTEGER_CHARS, max_size=10),
)


@settings(max_examples=400)
@given(_integer_texts)
def test_parse_int_reads_exactly_what_str_of_an_int_writes(text):
    _reads_exactly_the_writers_texts(parse_int, int, str, text, "integer")


@given(st.one_of(_fractions, _big_fractions, st.integers(-(10**100), 10**100)))
def test_format_value_writes_a_tierless_value_as_str_of_its_rational(q):
    assert format_value(tv(q)) == str(q)


# Decimal digits of other scripts, such as the Arabic-Indic "٣" or the
# fullwidth "３", which int() and the regex \d read like ASCII ones.
_foreign_digits = st.characters(categories=["Nd"], min_codepoint=128)


@given(st.integers(0, 10**30), st.integers(1, 10**6), st.data())
def test_the_readers_take_ascii_digits_only(numer, denom, data):
    # each reader's own form, which it reads, with one digit made foreign
    for reader, kind, text in (
        (
            parse_value,
            "value",
            format_value(tiered({0: Fraction(numer, denom), numer % 9 + 1: denom})),
        ),
        (parse_rational, "rational", str(Fraction(-numer, denom))),
        (parse_int, "integer", str(-numer)),
    ):
        reader(text)
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c.isdigit()]))
        foreign = text[:at] + data.draw(_foreign_digits) + text[at + 1 :]
        with pytest.raises(ParseError, match=f"^malformed {kind} "):
            reader(foreign)


@pytest.mark.parametrize(
    "reader, kind, form",
    [
        (parse_value, "value", "{}"),
        (parse_value, "value", "1/{}"),
        (parse_value, "value", "1-1e{}"),
        (parse_rational, "rational", "-{}"),
        (parse_rational, "rational", "1/{}"),
        (parse_int, "integer", "{}"),
    ],
)
def test_the_readers_refuse_a_digit_run_past_the_integer_text_limit(
    reader, kind, form
):
    # int() would raise its own ValueError, naming neither text nor reader
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        reader(form.format("7" * 640))
        text = form.format("7" * 641)
        with pytest.raises(ParseError, match=f"^malformed {kind} ") as info:
            reader(text)
        assert quoted(text) in str(info.value)
    finally:
        sys.set_int_max_str_digits(default)


# Denominators that are powers of one base divide one another both ways,
# as the chain's block prices do; the others divide neither way.
_dividing = st.builds(pow, st.sampled_from([2, 3, 10, 12]), st.integers(0, 6))
_other = st.sampled_from([7, 35, 99, 2 * 3**5, 10**6 + 3])
_sum_coeffs = st.builds(
    Fraction,
    st.integers(-(10**8), 10**8).filter(bool),
    st.one_of(_dividing, _other),
)
_sum_values = st.dictionaries(st.integers(0, 2), _sum_coeffs, max_size=3).map(tiered)


@given(
    st.lists(_sum_values, max_size=12),
    st.lists(_sum_values, max_size=4),
    st.booleans(),
)
def test_tv_sum_matches_per_tier_fraction_sums_on_dividing_denominators(
    values, minus, cancel
):
    if cancel:  # every tier sums to zero
        values, minus = values + minus, minus + values
    expected = {}
    for vs, sign in ((values, 1), (minus, -1)):
        for v in vs:
            for t, q in v.items():
                expected[t] = expected.get(t, Fraction(0)) + sign * q
    got = tv_sum(values, minus)
    assert dict(got.items()) == {t: q for t, q in expected.items() if q}
    if cancel:
        assert got.items() == ()
    assert _is_canonical(got)
    assert all(
        q.denominator > 0 and gcd(q.numerator, q.denominator) == 1
        for _, q in got.items()
    )


# Integers on both sides of the 4,300-digit text limit, and at powers of ten
# where the digit count changes.
_quote_ints = st.one_of(
    st.integers(0, 10**250),
    st.builds(lambda e, d: 10**e + d, st.integers(0, 9_000), st.integers(-1, 1)),
)


@given(_quote_ints, _quote_ints.filter(bool), st.booleans())
def test_quoted_rational_is_quoted_str_without_the_text_limit(num, den, negative):
    q = Fraction(-num if negative else num, den)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = quoted(str(q), str)
    finally:
        sys.set_int_max_str_digits(limit)
    assert quoted_rational(q) == expected
