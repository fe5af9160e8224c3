"""Builders for the instances the adversary strategies attack, one
construction per strategy, their parameter table, and the parameter engine.

The block-chain construction consists of r three-job blocks (non-trivial
first job priced b_i for player 1, two trivial companion jobs), a chain of
k_c two-player jobs whose co-player always pays a times player 1's cost,
and one dummy job per player. From (a, r, k_c) alone the engine solves
the backward recurrence fixing the b_i; it checks feasibility, certifies
the resulting approximation ratio bound, and searches for the best a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction

from .exactnum import (
    EPS1,
    EPS2,
    EPS3,
    EPS4,
    INF,
    ZERO,
    fits_digit_limit,
    height_bits,
    int_digit_limit,
    parse_int,
    parse_rational,
    quoted,
    tv,
)
from .schedmodel import Instance


class ForgeError(ValueError):
    pass


class FeasibilityError(ForgeError):
    def __init__(self, k, b_k, floor):
        super().__init__(f"b_{k} = {b_k} is below its floor {floor}")


def z_sum(a, r, k_c):
    """Chain weight on player 1's row: sum of a^-j for j = r+1 .. r+k_c,
    in the closed geometric form a^-r (1 - a^-k_c) / (a - 1). Only the
    compute_b_closed oracle and the tests use it; _recurrence sums z
    itself."""
    a = Fraction(a)
    return a**-r * (1 - a**-k_c) / (a - 1)


def _check_shape(r, k_c):
    """At least one block and a chain of no negative length."""
    if r < 1:
        raise ForgeError("need at least one block")
    if k_c < 0:
        raise ForgeError("negative chain length")


def _recurrence(a, r, k_c):
    """Backward recurrence for the block prices, on integer numerators:
    (num, b_num, z_num).

    s(r) = 0 and s(k-1) = 2 s(k) - a^-(k-2) + 4 a^-k + z, with
    b_k = s(k-1) - s(k), so s(k) = sum(b[k:]). With a = p/q and
    R = r + k_c, each a^-e the recurrence reads (e = -1 .. r) is
    q^(e+1) p^(R-e) over the one denominator q p^R, and so is the
    geometric sum z = a^-(r+1) + ... + a^-R. num[e + 1] is a^-e's
    numerator, so num[1] is the denominator; b_num[k - 1] is b_k's and
    z_num is z's.

    Takes a rational a in (1, 2); MainParams checks the narrower
    (sqrt 2, 2).
    """
    a = Fraction(a)
    _check_shape(r, k_c)
    p, q = a.numerator, a.denominator
    # from a^1 = p^(R+1) / den down
    num = [p ** (r + k_c + 1)]
    for _ in range(r + 1):
        num.append(num[-1] // p * q)
    # z's numerator, q^(r+2) (q^0 p^(k_c-1) + ... + q^(k_c-1) p^0).
    z_num = q ** (r + 2) * (p**k_c - q**k_c) // (p - q)
    s_num = 0
    b_num = [None] * r
    for k in range(r, 0, -1):
        b_num[k - 1] = s_num - num[k - 1] + 4 * num[k + 1] + z_num
        s_num += b_num[k - 1]
    return num, b_num, z_num


def chain_shape(r, k_c):
    """The block chain's (players, jobs): player 1, two co-players per
    block and one per chain job; three jobs per block, the chain jobs and
    a dummy job per player. A closed form, so a stored shape can be
    checked against r and k_c before anything is built."""
    n = 2 * r + 1 + k_c
    return n, 3 * r + k_c + n


def compute_b_closed(a, r, k_c, k):
    """Closed form of the recurrence: b_k, which must agree exactly with
    the block prices _recurrence gives."""
    a = Fraction(a)
    z = z_sum(a, r, k_c)
    return 2 ** (r - k) * (a**-r * (a + 2) + z) - a**-k * (a * a + a - 2)


@dataclass(frozen=True)
class MainParams:
    """Parameters of the block-chain construction, built from (a, r, k_c)
    alone. The scale factor a must lie in (sqrt 2, 2).

    The backward recurrence runs once, and its integer numerators over the
    shared denominator q p^(r+k_c) (a = p/q) are kept: the feasibility
    check and the bound arms compare them as integers, and the chain
    weight z is read there only. What only a chain that is built reads is
    made once, on first use: the block prices b as Fractions, and the
    price table power and companion, whose values every cell, edit and
    certificate makespan of the chain pricing a^-k or 2 a^-i shares, so a
    report renders each price once. So bounds, which only certifies,
    normalises no Fraction per block.

    A chain that is built comes from main_chain, which keeps its
    MainParams with its instance, so every attack of that chain shares
    one table and its rendered texts; bounds and solve_best_a construct
    MainParams directly and keep nothing.
    """

    a: Fraction
    r: int
    k_c: int
    _ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = Fraction(self.a)
        if not (a * a > 2 and a < 2):
            raise ForgeError(f"a={a} outside (sqrt 2, 2)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_ints", _recurrence(a, self.r, self.k_c))

    @cached_property
    def b(self):
        """The block prices b_1 .. b_r (b[k - 1] is b_k) as Fractions from
        the recurrence's numerators, each normalised once."""
        num, b_num, _ = self._ints
        return tuple(Fraction(x, num[1]) for x in b_num)

    @cached_property
    def power(self):
        """power[k] = a^-k for k = 0 .. r + k_c, one value each. Each is
        the one before times 1/a, so every step's gcd is against p or q."""
        step, x = 1 / self.a, Fraction(1)
        power = [tv(x)]
        for _ in range(self.r + self.k_c):
            x *= step
            power.append(tv(x))
        return tuple(power)

    @cached_property
    def companion(self):
        """companion[i] = 2 a^-i for i = 0 .. r: player 1's price for the
        two trivial jobs of block i (i >= 1)."""
        return tuple(2 * x for x in self.power[: self.r + 1])

    @property
    def n(self):
        return chain_shape(self.r, self.k_c)[0]

    @property
    def m(self):
        return chain_shape(self.r, self.k_c)[1]

    def block_jobs(self, i):
        base = 3 * (i - 1)
        return base + 1, base + 2, base + 3

    def chain_job(self, t):
        return 3 * self.r + t

    def dummy_job(self, p):
        return 3 * self.r + self.k_c + p

    def block_coplayers(self, i):
        return 2 * i, 2 * i + 1

    def chain_coplayer(self, t):
        return 2 * self.r + 1 + t


def feasibility_defect(p):
    """Index k with b_k below a^-k, or None when all block prices are fine.
    Over the shared denominator, b_k < a^-k exactly when b_k's numerator
    is below a^-k's."""
    num, b_num, _ = p._ints
    for k in range(1, p.r + 1):
        if b_num[k - 1] < num[k + 1]:
            return k
    return None


def check_feasible(p):
    k = feasibility_defect(p)
    if k is not None:
        raise FeasibilityError(k, p.b[k - 1], p.a**-k)


def check_writable(a, r, k_c):
    """Refuse a chain whose integers could pass the interpreter's limit on
    integer text, exactnum.int_digit_limit() digits, so that every report,
    request line and instance file of the chain can be written and read
    back; the readers refuse a longer digit run as a form no writer writes.
    It reads only (a, r, k_c), so main_chain calls it on every call, before
    it looks in its cache or MainParams runs the recurrence.

    With a = p/q and R = r + k_c, every rational the chain writes, in a
    cell, an edit or a claimed bound, has a denominator of at most
    q p^R and a size below 2^8 (2/a)^r: the b_k, the bound arms and the
    makespans grow as (2/a)^r. So its integers are below
    2^(r+8) q^(r+1) p^k_c, whose bit length is compared with that of
    10^limit.
    """
    _check_shape(r, k_c)
    p, q = Fraction(a).numerator, Fraction(a).denominator
    # a lower bound first, so that a huge r or k_c never builds its powers
    bits = (r + 1) * (q.bit_length() - 1) + k_c * (p.bit_length() - 1) + r + 8
    if fits_digit_limit(bits):
        bits = (q ** (r + 1) * p**k_c).bit_length() + r + 8
    if not fits_digit_limit(bits):
        raise unwritable(f"block chain r={r} k_c={k_c}")


def unwritable(what):
    return ForgeError(
        f"{what} writes integers past {int_digit_limit()} digits, the "
        "interpreter's limit for integer text"
    )


def _check_small_writable(what, params):
    """Refuse a 3x3 or 3x4 construction whose strategy could write an
    integer past int_digit_limit() digits. It reads only the rational
    parameters' integers, before anything is built, as check_writable
    does for the chain.

    Let H be the product over the parameters of max(|numerator|,
    denominator), below 2^height_bits(params), and Q that of their
    denominators. A cell, edit or certificate instance of the strategy
    has a standard part of 0, 1, a parameter or one of these halved: a
    squeeze halves a held cell, and no run squeezes one player twice. Over
    the common denominator 2Q that part is an integer of at most 2H; the
    infinitesimal tiers hold coefficients of a few units. A WMON sum adds
    at most two such parts per job over four jobs, at most 16H over 2Q.
    A claimed bound (b/a, (a+b+c)/c, (b+c)/b, 1 + x or (2+x)/x) is a
    ratio of two sums of at most three parameters and 1, each at most 4H
    over Q. So every integer written, in a cell, an edit, a claim or a
    WMON value, is below 2^5 H, and the check keeps 8 bits to spare.
    """
    if not fits_digit_limit(height_bits(params) + 8):
        raise unwritable(what)


def build_main(p):
    """The full n-player block-chain instance with a dummy job per player.

    Each distinct price is one value object, shared by every cell it
    prices: a^-k and each companion price 2 a^-i come from the parameters'
    table, each b_i is made once per block, and every dummy job costs
    ZERO. format_value keeps a value's text on it, so writing the
    instance renders each distinct price once; at r = 100 that is 403
    values for 1,201 finite cells, the longest of hundreds of digits. As
    main_chain keeps the instance it builds here, that is once per process
    for every attack, report and replay of the chain. The
    sharing is by construction, not through a dict keyed by Fraction:
    hashing a Fraction takes a modular inverse of its denominator, which
    made the build slower than the copies it saved.
    """
    check_feasible(p)
    power = p.power
    cols = [{} for _ in range(p.m)]
    for i in range(1, p.r + 1):
        j1, j2, j3 = p.block_jobs(i)
        lo, hi = p.block_coplayers(i)
        first, companion = power[i - 1], p.companion[i]
        cols[j1 - 1] = {1: tv(p.b[i - 1]), lo: first, hi: first}
        cols[j2 - 1] = {1: companion, lo: EPS1}
        cols[j3 - 1] = {1: companion, hi: EPS1}
    for t in range(1, p.k_c + 1):
        cols[p.chain_job(t) - 1] = {
            1: power[p.r + t],
            p.chain_coplayer(t): power[p.r + t - 1],
        }
    dummy_of = {}
    for q in range(1, p.n + 1):
        cols[p.dummy_job(q) - 1] = {q: ZERO}
        dummy_of[q] = p.dummy_job(q)
    return Instance.from_columns(p.n, cols, dummy_of)


# How many built chains _built_chain keeps, the least recently used dropped
# first. A kept chain with every price rendered holds about 1 MB at r = 100,
# 7.6 MB at r = 367 (3 - 10^-3) and 22 MB at r = 650, the longest chain
# check_writable accepts at a = 1999/1000, so the cache holds at most about
# 90 MB.
CHAIN_CACHE_SIZE = 4


def main_chain(a, r, k_c):
    """The block chain's (MainParams, base Instance) for (a, r, k_c), the
    one chain builder of gen (build_an) and of attack main and its replay
    (block_chain).

    A chain is a pure function of (a, r, k_c), and its parameters, its
    instance and the prices in it are immutable, so the built chain is
    kept and shared: a later attack of the same chain, its report and the
    replay's check of it reuse the instance and the text each price
    keeps once rendered. check_writable runs on every call, outside the
    cache, so a chain kept under one integer text limit is still refused
    under a lower one; a chain that fails to build raises and is not
    kept. The optimizer (bounds, solve_best_a) builds MainParams itself
    and never evicts a chain.
    """
    check_writable(a, r, k_c)
    return _built_chain(a, r, k_c)


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _built_chain(a, r, k_c):
    p = MainParams(a, r, k_c)
    return p, build_main(p)


def transition_second_cost(a_i, b_i):
    """Player 1's reduced price for block i's companion job, from the
    table's value a_i = a^-i and the block price b_i: the tiered max of
    2 a^-i - (b_i - a^-i) - EPS1 and a^-i, the table's own value when
    that is the larger."""
    lowered = tv(3 * a_i.standard_part() - Fraction(b_i)) - EPS1
    return max(lowered, a_i)


def d2x2():
    return Instance([[1, EPS2], [1, EPS1]])


def e3x3(a, b, c):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0:
        raise ForgeError("3x3 construction needs a > 0")
    if not a < b < c:
        raise ForgeError("3x3 construction needs a < b < c")
    _check_small_writable("3x3 construction", (a, b, c))
    return Instance([[INF, c, EPS1], [b, INF, INF], [a, b, EPS2]])


def f3x4(x):
    x = Fraction(x)
    if x <= 1:
        raise ForgeError("3x4 construction needs x > 1")
    _check_small_writable("3x4 construction", (x,))
    return Instance(
        [
            [INF, x, INF, EPS4],
            [1, EPS2, EPS2, INF],
            [1, EPS1, EPS3, INF],
        ],
        dummy_of={1: 4},
    )


REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One named parameter: its coercion (applied to stored strings too:
    parse_int for an integer, parse_rational for a rational) and its
    default, which is REQUIRED, a value, or a function of the values
    coerced before it."""

    name: str
    coerce: object
    default: object = REQUIRED


@dataclass(frozen=True)
class Spec:
    """A builder or strategy script with its parameter table."""

    fn: object
    params: tuple = ()


def resolve_params(params, given):
    """Coerce the given values in table order and fill in the defaults;
    unknown or missing names raise one ForgeError naming them all."""
    unknown = set(given) - {p.name for p in params}
    if unknown:
        raise ForgeError(f"unknown parameter(s) {quoted(repr(sorted(unknown)), str)}")
    missing = [p.name for p in params if p.default is REQUIRED and p.name not in given]
    if missing:
        raise ForgeError(f"missing parameter(s) {quoted(repr(missing), str)}")
    values = {}
    for p in params:
        if p.name in given:
            values[p.name] = p.coerce(given[p.name])
        elif callable(p.default):
            values[p.name] = p.default(values)
        else:
            values[p.name] = p.default
    return values


def build_an(a, r, kc):
    """The block-chain instance for scale factor a, r blocks, kc chain jobs:
    the cached chain's instance, shared with any attack of the same
    chain."""
    return main_chain(a, r, kc)[1]


# Each construction is the instance of one strategy: "an" of main, "d2x2"
# of s2x2, "e3x3" of s3x3 and "f3x4" of s3x4. The 3x3 defaults are decimal
# roundings of (1, rho, rho*(rho - 1)), rho the root of rho^3 - 2 rho^2 - 1
# near 2.20557. Here the arms of the 3x3 strategy give 1 + c/b = 2.205577,
# b/a = 2.2055 and (a+b+c)/c = 2.205574; the guaranteed bound is their
# minimum, b/a = 2.2055. The 3x4 default rounds sqrt 2.
CONSTRUCTIONS = {
    "an": Spec(
        build_an,
        (
            Param("a", parse_rational),
            Param("r", parse_int),
            Param("kc", parse_int, lambda values: values["r"]),
        ),
    ),
    "d2x2": Spec(d2x2),
    "e3x3": Spec(
        e3x3,
        (
            Param("a", parse_rational, Fraction(1)),
            Param("b", parse_rational, Fraction(22055, 10000)),
            Param("c", parse_rational, Fraction(26589, 10000)),
        ),
    ),
    "f3x4": Spec(f3x4, (Param("x", parse_rational, Fraction(141421, 100000)),)),
}


def build_instance(which, given=None):
    """Build a named construction from (possibly string) parameter values."""
    try:
        spec = CONSTRUCTIONS[which]
    except KeyError:
        raise ForgeError(f"unknown construction {which!r}")
    return spec.fn(**resolve_params(spec.params, given or {}))


def bound_arms(p):
    """Standard-part bound per terminal: the all-blocks arm V_0 and each
    transitioned-at-k arm V_k (infinitesimal corrections dropped), each
    as an unreduced (numerator, denominator) pair of integers, the
    denominator positive.

    V_k = (a^-(k-1) + a^-k + max(3 a^-k - b_k, a^-k) + sum(b[k:]) + z)
    / a^-(k-1). Over the shared denominator the bracket is an integer
    numerator and a^-(k-1) is num[k], so V_k is their ratio; V_0 is
    1 + sum(b) + z. One backward pass carries the suffix sum plus z.
    """
    num, b_num, rest = p._ints
    vks = [None] * p.r
    for k in range(p.r, 0, -1):
        ak = num[k + 1]
        second = max(3 * ak - b_num[k - 1], ak)
        vks[k - 1] = (num[k] + ak + second + rest, num[k])
        rest += b_num[k - 1]
    return (num[1] + rest, num[1]), vks


def certified_bound(p):
    """min(1 + a, V_0, min_k V_k): the ratio every branch of the adversary
    is guaranteed to reach with these parameters. The arms are compared
    as integer pairs by cross-multiplying, and only the least is
    reduced."""
    check_feasible(p)
    v0, vks = bound_arms(p)
    least, over = p.a.numerator + p.a.denominator, p.a.denominator  # 1 + a
    for n, d in [v0] + vks:
        if n * over < least * d:
            least, over = n, d
    return Fraction(least, over)


def _certified_one_plus_a(a, r, k_c):
    """The parameters at a when they certify the full 1 + a, else None."""
    try:
        p = MainParams(a, r, k_c)
        return p if certified_bound(p) == 1 + p.a else None
    except ForgeError:
        return None


# solve_best_a's grid over its bracket, and the most halvings of a grid
# step it bisects: each adds a bit to a's denominator, and the powers of
# the recurrence grow with it.
GRID_STEPS = 32
MAX_HALVINGS = 256


def least_tolerance(lo, hi):
    """The least tolerance solve_best_a takes on [lo, hi]: its grid step
    halved MAX_HALVINGS times."""
    return (Fraction(hi) - Fraction(lo)) / GRID_STEPS / 2**MAX_HALVINGS


def solve_best_a(r, k_c, lo, hi, tol):
    """Parameters at the largest a in [lo, hi] certifying the full 1 + a.

    The certified bound equals 1 + a exactly while the terminal arms stay
    above it; past the crossing it degrades, so maximizing the bound means
    bisecting the boundary of the certification predicate.
    """
    _check_shape(r, k_c)
    lo, hi, tol = Fraction(lo), Fraction(hi), Fraction(tol)
    if tol <= 0:
        raise ForgeError("tolerance must be positive")
    if not lo < hi:
        raise ForgeError("empty bracket")
    if tol < least_tolerance(lo, hi):
        raise ForgeError(
            f"tolerance needs more than {MAX_HALVINGS} halvings of the grid "
            f"step (hi - lo)/{GRID_STEPS}"
        )
    step = (hi - lo) / GRID_STEPS
    for idx in range(GRID_STEPS, -1, -1):
        good = _certified_one_plus_a(lo + step * idx, r, k_c)
        if good is not None:
            break
    else:
        raise ForgeError("no feasible scale factor in the bracket")
    # Bisect up to the failed grid point above good, if there is one.
    bad = min(good.a + step, hi)
    while bad - good.a > tol:
        mid = (good.a + bad) / 2
        p = _certified_one_plus_a(mid, r, k_c)
        if p is None:
            bad = mid
        else:
            good = p
    return good
