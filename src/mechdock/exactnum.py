"""Exact arithmetic over rationals extended with infinitesimal tiers and infinity.

A finite value is a sum  sum_t q_t * eps_t  with rational coefficients q_t,
where eps_0 = 1 and each eps_{t+1} is infinitely smaller than eps_t (tier 1
is the coarsest infinitesimal, tier 2 is infinitely below it, and so on).
A separate symbolic +infinity sits above every finite value.

Comparison is lexicographic by ascending tier; the algebra is a module over
the rationals (values can be added and scaled by rationals, but two tiered
values are never multiplied).
"""

from __future__ import annotations

import re
from fractions import Fraction

LT, EQ, GT = -1, 0, 1


class ExactNumError(ValueError):
    pass


class ParseError(ExactNumError):
    pass


class _Unbounded:
    """Sentinel for a ratio whose numerator lives at a coarser tier."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = _Unbounded()


class TieredValue:
    """Immutable exact value: rational coefficients per tier, or +infinity.

    Stored coefficients are nonzero and kept sorted by tier (canonical form);
    an infinite value carries no coefficients.
    """

    __slots__ = ("infinite", "_coeffs")

    def __init__(self, coeffs=None, infinite=False):
        if infinite:
            if coeffs:
                raise ExactNumError("infinite value cannot carry coefficients")
            object.__setattr__(self, "infinite", True)
            object.__setattr__(self, "_coeffs", ())
            return
        items = []
        if coeffs:
            pairs = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for tier, q in pairs:
                tier = int(tier)
                if tier < 0:
                    raise ExactNumError(f"negative tier {tier}")
                q = Fraction(q)
                if q != 0:
                    items.append((tier, q))
        items.sort()
        for (t1, _), (t2, _) in zip(items, items[1:]):
            if t1 == t2:
                raise ExactNumError(f"duplicate tier {t1}")
        object.__setattr__(self, "infinite", False)
        object.__setattr__(self, "_coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("TieredValue is immutable")

    @classmethod
    def _canonical(cls, items):
        """A finite value from coefficients already in canonical form, so the
        normalising constructor can be skipped on the hot paths."""
        v = object.__new__(cls)
        object.__setattr__(v, "infinite", False)
        object.__setattr__(v, "_coeffs", items)
        return v

    @classmethod
    def from_rational(cls, q):
        if type(q) is not Fraction:
            q = Fraction(q)
        return cls._canonical(((0, q),) if q else ())

    @classmethod
    def eps(cls, tier, coeff=1):
        if tier < 1:
            raise ExactNumError("epsilon tiers start at 1")
        return cls({tier: Fraction(coeff)})

    @property
    def finite(self):
        return not self.infinite

    def items(self):
        return self._coeffs

    def coeff(self, tier):
        for t, q in self._coeffs:
            if t == tier:
                return q
        return Fraction(0)

    def standard_part(self):
        """Tier-0 coefficient (0 if absent). Only defined for finite values."""
        if self.infinite:
            raise ExactNumError("standard part of infinity")
        return self.coeff(0)

    def leading_tier(self):
        """Smallest tier with nonzero coefficient, or None for 0 / infinity."""
        if self.infinite or not self._coeffs:
            return None
        return self._coeffs[0][0]

    def is_zero(self):
        return self.finite and not self._coeffs

    def __add__(self, other):
        other = tv(other)
        if self.infinite or other.infinite:
            return INF
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            q = a[0][1] + b[0][1]
            return TieredValue._canonical(((a[0][0], q),) if q else ())
        merged = dict(a)
        for t, q in b:
            merged[t] = merged.get(t, 0) + q
        return TieredValue._canonical(
            tuple(sorted((t, q) for t, q in merged.items() if q))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = tv(other)
        if other.infinite:
            raise ExactNumError("cannot subtract infinity")
        return self + -other

    def __mul__(self, q):
        if isinstance(q, TieredValue):
            raise ExactNumError("tiered values cannot be multiplied together")
        return tv_scale(Fraction(q), self)

    __rmul__ = __mul__

    def __neg__(self):
        if self.infinite:
            raise ExactNumError("cannot negate infinity")
        return TieredValue._canonical(tuple((t, -q) for t, q in self._coeffs))

    def __eq__(self, other):
        if not isinstance(other, TieredValue):
            return NotImplemented
        return self.infinite == other.infinite and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.infinite, self._coeffs))

    def __lt__(self, other):
        return tv_compare(self, tv(other)) == LT

    def __le__(self, other):
        return tv_compare(self, tv(other)) != GT

    def __gt__(self, other):
        return tv_compare(self, tv(other)) == GT

    def __ge__(self, other):
        return tv_compare(self, tv(other)) != LT

    def __repr__(self):
        return f"tv({format_value(self)!r})"


INF = TieredValue(infinite=True)
ZERO = TieredValue()
EPS1 = TieredValue.eps(1)
EPS2 = TieredValue.eps(2)
EPS3 = TieredValue.eps(3)
EPS4 = TieredValue.eps(4)


def tv(x):
    """Coerce an int, Fraction, grammar string, or TieredValue."""
    if isinstance(x, TieredValue):
        return x
    if isinstance(x, str):
        return parse_value(x)
    return TieredValue.from_rational(x)


def tv_scale(q, v):
    """Scale by a rational. 0 * infinity is rejected, q < 0 needs v finite."""
    q = Fraction(q)
    v = tv(v)
    if v.infinite:
        if q <= 0:
            raise ExactNumError("scaling infinity by a nonpositive rational")
        return INF
    if q == 0:
        return ZERO
    return TieredValue._canonical(tuple((t, q * c) for t, c in v.items()))


def tv_compare(u, v):
    """Total order: returns LT, EQ, or GT."""
    u, v = tv(u), tv(v)
    if u.infinite and v.infinite:
        return EQ
    if u.infinite:
        return GT
    if v.infinite:
        return LT
    iu, iv = u.items(), v.items()
    if len(iu) == 1 and len(iv) == 1 and iu[0][0] == iv[0][0]:
        p, q = iu[0][1], iv[0][1]
        return EQ if p == q else GT if p > q else LT
    a = b = 0
    while a < len(iu) or b < len(iv):
        ta = iu[a][0] if a < len(iu) else None
        tb = iv[b][0] if b < len(iv) else None
        if tb is None or (ta is not None and ta < tb):
            return GT if iu[a][1] > 0 else LT
        if ta is None or tb < ta:
            return LT if iv[b][1] > 0 else GT
        if iu[a][1] != iv[b][1]:
            return GT if iu[a][1] > iv[b][1] else LT
        a += 1
        b += 1
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
    tau = den.leading_tier()
    if tau is None:
        raise ExactNumError("denominator must be nonzero")
    if den.coeff(tau) < 0:
        raise ExactNumError("denominator negative at its leading tier")
    if num.infinite:
        return UNBOUNDED
    for t, q in num.items():
        if t < tau and q != 0:
            return UNBOUNDED
    return num.coeff(tau) / den.coeff(tau)


_TERM = re.compile(r"([+-])?(\d+)(?:/(\d+))?(?:e(\d+))?")


def parse_value(text):
    """Parse the value grammar: "inf" | signed-term { (+|-) term }.

    A term is  rational [ "e" tier ]  with a bare rational meaning tier 0,
    e.g. "1-2e1" is 1 - 2*eps_1 and "1873/1000" is a plain rational.
    """
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
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"malformed value {text!r} at offset {pos}")
        sign, numer, denom, tier = m.groups()
        if not first and sign is None:
            raise ParseError(f"missing sign between terms in {text!r}")
        if denom is not None and int(denom) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        q = Fraction(int(numer), int(denom) if denom else 1)
        if sign == "-":
            q = -q
        t = int(tier) if tier is not None else 0
        coeffs[t] = coeffs.get(t, Fraction(0)) + q
        pos = m.end()
        first = False
    return TieredValue(coeffs)


def format_value(v):
    """Canonical rendering: ascending tiers, reduced fractions, no spaces."""
    v = tv(v)
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
