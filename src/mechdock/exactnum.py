"""Exact arithmetic over rationals extended with infinitesimal tiers and infinity.

A finite value is a sum  sum_t q_t * eps_t  with rational coefficients q_t,
where eps_0 = 1 and each eps_{t+1} is infinitely smaller than eps_t (tier 1
is the coarsest infinitesimal, tier 2 is infinitely below it, and so on).
A separate symbolic +infinity sits above every finite value.

Comparison is lexicographic by ascending tier; the algebra is a module over
the rationals (values can be added and scaled by rationals, but two tiered
values are never multiplied). Coefficients are Fractions in lowest terms;
the comparison, the sign tests and the rendering read their integer
numerators and denominators directly, since Fraction's own comparisons
and str() go through the numbers.Rational machinery on every call.

The module also reads the numbers a stored report holds, each only in the
one form this program writes it, and gives the one rule by which a message
quotes outside text, and a rational of any size.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf

LT, EQ, GT = -1, 0, 1


class ExactNumError(ValueError):
    pass


class ParseError(ExactNumError):
    pass


# A ratio whose numerator lives at a coarser tier. It is only compared,
# and a Fraction compares exactly with it.
UNBOUNDED = inf


class TieredValue:
    """Immutable exact value: rational coefficients per tier, or +infinity.

    The constructor takes the coefficients in canonical form, a tuple of
    (tier, Fraction) pairs with tiers strictly ascending and every
    coefficient nonzero, and stores them as given; an infinite value
    carries none. Every value is built inside this module, by code that
    makes its coefficients canonical. The _text slot holds the value's
    rendering once format_value has made it; it is left unset here.
    """

    __slots__ = ("infinite", "_coeffs", "_text")

    def __init__(self, coeffs=(), infinite=False):
        object.__setattr__(self, "infinite", infinite)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TieredValue is immutable")

    @property
    def finite(self):
        return not self.infinite

    def items(self):
        return self._coeffs

    def standard_part(self):
        """Tier-0 coefficient (0 if absent). Only defined for finite values."""
        if self.infinite:
            raise ExactNumError("standard part of infinity")
        c = self._coeffs
        return c[0][1] if c and c[0][0] == 0 else Fraction(0)

    def is_zero(self):
        return self.finite and not self._coeffs

    def __add__(self, other):
        other = tv(other)
        if self.infinite or other.infinite:
            return INF
        return tv_sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = tv(other)
        if other.infinite:
            raise ExactNumError("cannot subtract infinity")
        if self.infinite:
            return INF
        return tv_sum((self,), (other,))

    def __mul__(self, q):
        """Scale by a rational. 0 * infinity is rejected, q < 0 needs a
        finite value."""
        if isinstance(q, TieredValue):
            raise ExactNumError("tiered values cannot be multiplied together")
        q = Fraction(q)
        if self.infinite:
            if q <= 0:
                raise ExactNumError("scaling infinity by a nonpositive rational")
            return INF
        if q == 0:
            return ZERO
        return TieredValue(tuple((t, q * c) for t, c in self._coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TieredValue):
            return NotImplemented
        return self.infinite == other.infinite and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.infinite, self._coeffs))

    def __lt__(self, other):
        return tv_compare(self, tv(other)) == LT

    def __gt__(self, other):
        return tv_compare(self, tv(other)) == GT

    def __repr__(self):
        return f"tv({format_value(self)!r})"


INF = TieredValue(infinite=True)
ZERO = TieredValue()
EPS1 = TieredValue(((1, Fraction(1)),))
EPS2 = TieredValue(((2, Fraction(1)),))
EPS3 = TieredValue(((3, Fraction(1)),))
EPS4 = TieredValue(((4, Fraction(1)),))


def tv(x):
    """Coerce an int, Fraction, grammar string, or TieredValue."""
    if isinstance(x, TieredValue):
        return x
    if isinstance(x, str):
        return parse_value(x)
    if type(x) is not Fraction:
        x = Fraction(x)
    return TieredValue(((0, x),) if x else ())


def tv_sum(values, minus=()):
    """Sum of a sequence of finite values, less the sum of those in
    `minus`. Each tier's coefficients are added as one integer numerator
    over the lcm of their denominators and reduced once at the end, so no
    Fraction is made per term; a tier only one term reaches keeps that
    term's coefficient as it is.

    A term whose denominator divides the running one, or is a multiple of
    it, merges with one divmod and a multiply; only other denominators
    take a gcd. The block chain's prices have denominators that are powers
    of one base, so a sum along a chain row takes no gcd until the end."""
    if not minus and len(values) < 2:
        return values[0] if values else ZERO
    acc = {}  # tier -> [numerator, denominator, the coefficient if single]
    for vs, sign in ((values, 1), (minus, -1)):
        for v in vs:
            for t, q in v._coeffs:
                num, den = sign * q.numerator, q.denominator
                part = acc.get(t)
                if part is None:
                    acc[t] = [num, den, q if sign == 1 else -q]
                    continue
                part[2] = None
                run = part[1]
                if run == den:
                    part[0] += num
                    continue
                if run > den:
                    k, r = divmod(run, den)
                    if not r:
                        part[0] += num * k
                        continue
                else:
                    k, r = divmod(den, run)
                    if not r:
                        part[0] = part[0] * k + num
                        part[1] = den
                        continue
                g = gcd(run, den)
                part[0] = part[0] * (den // g) + num * (run // g)
                part[1] = run // g * den
    return TieredValue(
        tuple(
            (t, Fraction(num, den) if q is None else q)
            for t, (num, den, q) in sorted(acc.items())
            if num
        )
    )


def tv_compare(u, v):
    """Total order: returns LT, EQ, or GT.

    Tiers are scanned from the coarsest: the first tier where the values
    differ decides, by the sign of the coefficient only one of them has
    there, or else by the two coefficients. Coefficients p and q compare
    as the integers p.numerator * q.denominator and q.numerator *
    p.denominator (both denominators are positive), or as the numerators
    alone when the denominators agree. Both operands are tiered values;
    the comparison operators coerce theirs before they call it.
    """
    if u.infinite or v.infinite:
        return EQ if u.infinite and v.infinite else GT if u.infinite else LT
    iu, iv = u._coeffs, v._coeffs
    for (ta, p), (tb, q) in zip(iu, iv):
        if ta != tb:
            if ta < tb:
                return GT if p.numerator > 0 else LT
            return LT if q.numerator > 0 else GT
        pd, qd = p.denominator, q.denominator
        if pd == qd:
            a, b = p.numerator, q.numerator
        else:
            a, b = p.numerator * qd, q.numerator * pd
        if a != b:
            return GT if a > b else LT
    if len(iu) > len(iv):
        return GT if iu[len(iv)][1].numerator > 0 else LT
    if len(iv) > len(iu):
        return LT if iv[len(iu)][1].numerator > 0 else GT
    return EQ


def leading_ratio(num, den):
    """Ratio of coefficients at the denominator's leading tier.

    Returns UNBOUNDED when the numerator is infinite or has weight at a
    strictly coarser tier than the denominator's leading tier; this is the
    "up to lower-order corrections" ratio used by every bound claim.
    """
    num, den = tv(num), tv(den)
    if den.infinite:
        raise ExactNumError("denominator must be finite")
    if not den._coeffs:
        raise ExactNumError("denominator must be nonzero")
    tau, d = den._coeffs[0]
    if d < 0:
        raise ExactNumError("denominator negative at its leading tier")
    if num.infinite:
        return UNBOUNDED
    # the numerator's coarsest tier decides
    if not num._coeffs or num._coeffs[0][0] > tau:
        return Fraction(0)
    t, q = num._coeffs[0]
    return UNBOUNDED if t < tau else q / d


# A term as the writers write it: a numerator or a tier has no leading zero,
# and a denominator takes any digits, so that a zero one has its own message.
# Digits are ASCII only: \d, and int(), also read every other Unicode digit,
# such as the Arabic-Indic "٣". [0-9] is also about three times as fast as \d.
_TERM = re.compile(r"([+-]?)([1-9][0-9]*)(?:/([0-9]+))?(?:e([1-9][0-9]*))?")


# The least limit sys.set_int_max_str_digits() takes, other than 0 (none):
# a text no longer than this holds no digit run int() refuses, and is read
# without asking for the limit (which costs parse_value about a sixth).
_LEAST_DIGIT_LIMIT = 640


def int_digit_limit():
    """The interpreter's limit on the digits of integer text that int() reads
    and str() writes: sys.get_int_max_str_digits(), 4,300 by default; 0, or
    an interpreter without the limit, is no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def fits_digit_limit(bits):
    """Whether every integer below 2^bits has at most int_digit_limit()
    digits, so that its text can be written and read back: with no limit,
    or when bits is below the bit length of 10^limit, as an integer below
    2^(that length - 1) <= 10^limit has at most limit digits."""
    limit = int_digit_limit()
    return not limit or bits < _power_of_ten_bits(limit)


@lru_cache(maxsize=4)
def _power_of_ten_bits(limit):
    """The bit length of 10^limit, kept: at the default limit the power
    takes about 30 us, and every attack of a construction asks for it."""
    return (10**limit).bit_length()


def height_bits(values):
    """The sum over rationals of the bit length of max(|numerator|,
    denominator); the product of those maxima is below 2 to this power."""
    return sum(max(abs(v.numerator), v.denominator).bit_length() for v in values)


def _coefficient(m, text):
    """The coefficient of a term _TERM matched in text, or None where no
    writer writes it so: a first term signed "+", a fraction over 1, over a
    leading zero or not in lowest terms (Fraction() reduces that one), or a
    numerator, a denominator or a tier of more digits than int() reads
    (check_writable refuses every chain that would write one)."""
    sign, numer, denom, _ = m.groups()
    if sign == "+" and not m.start():
        return None
    # a digit run is no longer than its text
    limit = len(text) > _LEAST_DIGIT_LIMIT and int_digit_limit()
    if limit and len(text) > limit:
        if any(len(run or "") > limit for run in m.groups()):
            return None
    num = -int(numer) if sign == "-" else int(numer)
    if denom is None:
        return Fraction(num)
    den = int(denom)
    if not den:
        raise ParseError(f"zero denominator in {quoted(text)}")
    q = Fraction(num, den)
    return None if den == 1 or q.denominator != den or denom[0] == "0" else q


def parse_value(text):
    """Parse a value in the one form format_value writes: "inf", "0", or
    terms  rational [ "e" tier ]  in strictly ascending tiers, a bare
    rational meaning tier 0; e.g. "1-2e1" is 1 - 2*eps_1. Any other text,
    such as "2/4", "1e0", "1e1+1" or " 1", is a ParseError. Read in one
    pass, the terms are the value's canonical coefficients as they stand."""
    if not isinstance(text, str):
        raise ParseError(f"expected string, got {type(text).__name__}")
    if not text:
        raise ParseError("empty value")
    if text in ("inf", "0"):
        return INF if text == "inf" else ZERO
    terms, last, pos = [], -1, 0
    # A term ends in digits that [0-9] took greedily, so a later one can
    # only begin with its sign: an unsigned "12" is one term.
    while pos < len(text) and (m := _TERM.match(text, pos)):
        q = _coefficient(m, text)  # first: it refuses a tier too long for int()
        if q is None or (t := int(m[4] or 0)) <= last:
            break
        terms.append((t, q))
        last, pos = t, m.end()
    if pos < len(text):
        raise ParseError(f"malformed value {quoted(text)} at offset {pos}")
    return TieredValue(tuple(terms))


def _tier_zero_term(text):
    """The rational of a text in the form str(Fraction) writes, which is
    format_value's form for a value with no tier; else None."""
    if text == "0":
        return Fraction(0)
    m = _TERM.fullmatch(text)
    return None if m is None or m[4] else _coefficient(m, text)


def parse_rational(x):
    """A stored rational: a Fraction or int as it is, and text only in the
    form str(Fraction) writes. Fraction(text) also reads exponents, and
    takes about a second to read "1e2000000"."""
    if type(x) in (Fraction, int):
        return Fraction(x)
    if not isinstance(x, str):
        raise ParseError(f"expected a rational, got {type(x).__name__}")
    q = _tier_zero_term(x)
    if q is None:
        raise ParseError(f"malformed rational {quoted(x)}")
    return q


def json_int(x):
    """A stored integer where the writer writes a JSON int: an int and
    nothing else. int() would also read a boolean, a float (2.7 as 2) or
    digit text of any script ("\u0663" as 3)."""
    if type(x) is not int:
        raise ParseError(f"expected an integer, got {type(x).__name__}")
    return x


def parse_int(x):
    """A stored integer, parse_rational's twin: an int as it is (json_int),
    and text only in the form str(int) writes. int(text) also reads spaces,
    a "+" and digit-group underscores, such as " 3", "+3" and "1_0"."""
    if not isinstance(x, str):
        return json_int(x)
    q = None if "/" in x else _tier_zero_term(x)
    if q is None:
        raise ParseError(f"malformed integer {quoted(x)}")
    return q.numerator


# The most characters of outside text that a message quotes.
QUOTE_LIMIT = 200


def quoted(text, show=repr):
    """Outside text as a message quotes it: show(text) when it has at most
    QUOTE_LIMIT characters; else show() of its first QUOTE_LIMIT
    characters, then "..." and its length. A stored report or a reply can
    hold text of any length, and a message quoting it stays one short
    line."""
    if len(text) <= QUOTE_LIMIT:
        return show(text)
    return f"{show(text[:QUOTE_LIMIT])}... ({len(text)} characters)"


def quoted_rational(q):
    """A rational as quoted(str(q), str) writes it, made from its size
    without writing it whole: str() of an integer past 4,300 digits raises,
    and a message shows at most the first QUOTE_LIMIT characters."""
    text, length = _leading_digits(abs(q.numerator))
    if q.numerator < 0:
        text, length = "-" + text, length + 1
    if q.denominator != 1:
        tail, digits = _leading_digits(q.denominator)
        text, length = f"{text}/{tail}", length + 1 + digits
    if length <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({length} characters)"


def _leading_digits(k):
    """The first QUOTE_LIMIT digits of an integer k >= 0, as text, and its
    digit count. The count starts from an estimate from k's bit length
    that is never below it and steps down by comparison with powers of
    ten."""
    digits = int(k.bit_length() * 0.3010299956639812) + 2
    while digits > 1 and k < 10 ** (digits - 1):
        digits -= 1
    return str(k // 10 ** max(digits - QUOTE_LIMIT, 0)), digits


def format_value(v):
    """Canonical rendering: ascending tiers, reduced fractions, no spaces.

    Each coefficient is written from its integers: the sign, then the
    numerator's magnitude, then "/denominator" unless that is 1. A value
    is rendered once: the text is kept on it, and instances that share a
    column share its values, so every later query and report reuses it.
    """
    v = tv(v)
    try:
        return v._text
    except AttributeError:
        pass
    if v.infinite:
        text = "inf"
    elif not v._coeffs:
        text = "0"
    else:
        parts = []
        for t, q in v._coeffs:
            num, den = q.numerator, q.denominator
            if num < 0:
                parts.append("-")
                num = -num
            elif parts:
                parts.append("+")
            parts.append(str(num) if den == 1 else f"{num}/{den}")
            if t:
                parts.append(f"e{t}")
        text = "".join(parts)
    object.__setattr__(v, "_text", text)
    return text
