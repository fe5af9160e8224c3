"""The benchmark's own reading of mechdock's value grammar.

Kept apart from ``mechdock.exactnum`` on purpose: the output checks recompute
the program's claims with this module, so a fault in the program's arithmetic
cannot hide itself. A finite value is a dict mapping tier to a nonzero
Fraction (tier 0 is the standard part, tier t >= 1 multiplies eps_t, and each
tier is infinitely smaller than the one before); infinity is ``INF``.
"""

from __future__ import annotations

import re
from fractions import Fraction

INF = "inf"
UNBOUNDED = "unbounded"

_TERMS = re.compile(r"[+-]?[^+-]+")


def parse(text):
    """Parse ``"inf"`` or a signed sum of ``q`` and ``q e t`` terms."""
    s = text.strip()
    if s == INF:
        return INF
    if not s:
        raise ValueError("empty value")
    terms = _TERMS.findall(s)
    if "".join(terms) != s:
        raise ValueError(f"malformed value {text!r}")
    out = {}
    for term in terms:
        body, _, tier = term.partition("e")
        t = int(tier) if tier else 0
        out[t] = out.get(t, Fraction(0)) + Fraction(body)
    return {t: q for t, q in out.items() if q}


def is_inf(v):
    return v == INF


def add(u, v):
    if u == INF or v == INF:
        return INF
    out = dict(u)
    for t, q in v.items():
        out[t] = out.get(t, Fraction(0)) + q
    return {t: q for t, q in out.items() if q}


def scale(q, v):
    if v == INF:
        raise ValueError("scaling infinity")
    return {t: q * c for t, c in v.items() if q * c}


def sign(v):
    """Sign of a finite value: that of its coarsest nonzero tier."""
    if not v:
        return 0
    return 1 if v[min(v)] > 0 else -1


def compare(u, v):
    """-1, 0 or 1 in the lexicographic order by ascending tier."""
    if u == INF or v == INF:
        return (u == INF) - (v == INF)
    return sign(add(u, scale(Fraction(-1), v)))


def leading_ratio(num, den):
    """Ratio at the denominator's leading tier, or UNBOUNDED when the
    numerator is infinite or weighs something at a coarser tier."""
    tau = min(den)
    if num == INF or any(t < tau for t in num):
        return UNBOUNDED
    return num.get(tau, Fraction(0)) / den[tau]
