"""Weak-monotonicity arithmetic and the inference lemmas as checkable predicates.

For two instances differing only in player i's row, a weakly monotone
allocation rule satisfies  sum_j (t_i^j - t'_i^j)(x_i^j - x'_i^j) <= 0.
Four standard consequences (L1-L4) and a row-wide dominated decrease are
each written once, as a Lemma record: the lemma, the edited player and
the predictions any weakly monotone (and, for L3, finite-ratio) mechanism
must meet on the second allocation. infer checks the lemma's premise on
the edit and returns the record, with any job the premise adds to keep,
and Lemma.defects lists the predictions an answer breaks. A seeded fuzzer
searches for violations on random instances, and exhaustive_pairs on
every small grid instance.
The sum is a value: wmon_value returns it as a TieredValue, and a pair
whose sum is positive is a violation. Callers that word a message compare
it with ZERO themselves; violation packages the positive case. The sum is
shared by the two orders of a pair: swapping (T, x) and (T', x') changes
neither it nor its preconditions, so exhaustive_pairs sums each unordered
pair once and reports a positive sum in both orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .exactnum import (
    GT,
    LT,
    ZERO,
    TieredValue,
    fits_digit_limit,
    format_value,
    height_bits,
    json_int,
    parse_value,
    tv,
    tv_compare,
    tv_sum,
)
from .schedmodel import Allocation, Instance, checked_query


class WmonPreconditionError(ValueError):
    pass


class HypothesisError(ValueError):
    """The lemma's premises do not hold for the supplied pair (caller bug)."""


def wmon_value(T, x, Tp, xp, i):
    """Exact tiered weak-monotonicity sum for player i on an instance pair.

    A job assigned to i at infinite cost is a precondition failure: the
    engine reports that upstream as an unbounded-ratio event, never as a
    WMON value. So a job infinite in both rows adds nothing. A mixed
    infinite/finite term whose assignment flips would need -infinity,
    which tiered values cannot carry; it cannot arise after the upstream
    infinite-assignment screen and is rejected here.

    Only the jobs x or x' gives to player i can add a term or fail a
    precondition, so only their cells are read, in job order. A job only
    x gives to i adds t - t', one only x' gives to i adds t' - t, and the
    sum is taken once over both sides.
    """
    if not T.rows_equal_except(Tp, i):
        raise WmonPreconditionError("instances differ outside the given row")
    plus, minus = [], []
    for j, (a, b) in enumerate(zip(x.owner, xp.owner), start=1):
        if a != i and b != i:
            continue
        t, tp = T.cost(i, j), Tp.cost(i, j)
        if a == i and t.infinite:
            raise WmonPreconditionError(
                f"job {j} assigned to player {i} at infinite cost in T"
            )
        if b == i and tp.infinite:
            raise WmonPreconditionError(
                f"job {j} assigned to player {i} at infinite cost in T'"
            )
        if a == b:
            continue
        if t.infinite or tp.infinite:
            raise WmonPreconditionError(
                f"mixed infinite/finite term with flipped assignment at job {j}"
            )
        if a == i:
            plus.append(t)
            minus.append(tp)
        else:
            plus.append(tp)
            minus.append(t)
    return tv_sum(plus, minus)


@dataclass(frozen=True)
class Lemma:
    """One lemma application: the lemma (variant), the player whose row
    the edit moves, and what the lemma predicts of that player's post-edit
    allocation: it keeps every job of keep, gets no job of forbid, gets a
    job of each one_of group, and for each (trigger, required) implication
    keeps the required job whenever it gets the trigger. The same fields
    state the premise, which infer checks:

    L1: keep (F1) held and strictly lowered, forbid (F2) unheld and
        strictly raised; every other job unchanged.
    L2: one_of = ((j, k),): j held and lowered, k lowered; every other job
        unchanged. If k's decrease is strictly smaller, j is also kept.
    L3: L1 for a player holding a dummy job, whose cost may change
        arbitrarily; the dummy is also kept.
    L4: implications = ((j2, j1),): j1 and j2 held, j1 lowered, j2 raised;
        every other job unchanged.
    dominated-decrease: every changed job lowered, the jobs of keep held,
        and each one's decrease strictly exceeds the total decrease over
        the other jobs, so dropping any of them forces a positive WMON sum.
    """

    variant: str
    player: int
    keep: frozenset = frozenset()
    forbid: frozenset = frozenset()
    one_of: tuple = ()
    implications: tuple = ()

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


def _l1(player, f1=(), f2=()):
    return Lemma("L1", player, keep=frozenset(f1), forbid=frozenset(f2))


def _l2(player, j, k):
    return Lemma("L2", player, one_of=((j, k),))


def _l3(player, f1=(), f2=()):
    return Lemma("L3", player, keep=frozenset(f1), forbid=frozenset(f2))


def _l4(player, j1, j2):
    return Lemma("L4", player, implications=((j2, j1),))


def _dd(player, keep):
    return Lemma("dominated-decrease", player, keep=frozenset(keep))


def _require(cond, msg):
    if not cond:
        raise HypothesisError(msg)


def infer(lemma, T, x, Tp):
    """Check the lemma's premise on (T, x, Tp) and return its predictions:
    the lemma itself, or a copy with the jobs the premise adds to keep (L2's
    bigger decrease, L3's dummy)."""
    i, v = lemma.player, lemma.variant
    _require(T.rows_equal_except(Tp, i), "instances differ outside the row")

    def lowered(jj):
        t, tp = T.cost(i, jj), Tp.cost(i, jj)
        return t.finite and tp.finite and tv_compare(t, tp) == GT

    def raised(jj):
        t, tp = T.cost(i, jj), Tp.cost(i, jj)
        if t.infinite:
            return False
        return tp.infinite or tv_compare(tp, t) == GT

    def unchanged_outside(declared, label):
        """Require that no job outside `declared` changed its player-i cost,
        naming the first that did; the rows agree elsewhere, so a column
        that differs differs there."""
        jj = next((jj for jj in T.changed_jobs(Tp) if jj not in declared), None)
        _require(jj is None, f"{v}: job {jj} outside {label} changed")

    def moves_as_declared(free=()):
        """L1/L3 premise: keep held and lowered, forbid unheld and raised,
        every other job but the free ones unchanged."""
        for j in lemma.keep:
            _require(x.assigns(i, j), f"{v}: job {j} in F1 is not held")
            _require(lowered(j), f"{v}: job {j} in F1 is not strictly lowered")
        for j in lemma.forbid:
            _require(not x.assigns(i, j), f"{v}: job {j} in F2 is held")
            _require(raised(j), f"{v}: job {j} in F2 is not strictly raised")
        unchanged_outside(lemma.keep | lemma.forbid | set(free), "F1/F2")

    if v == "L1":
        moves_as_declared()
        return lemma

    if v == "L2":
        ((j, k),) = lemma.one_of
        _require(j != k, "L2: j and k must differ")
        _require(x.assigns(i, j), "L2: job j is not held")
        _require(lowered(j), "L2: job j is not strictly lowered")
        _require(lowered(k), "L2: job k is not strictly lowered")
        unchanged_outside({j, k}, "{j,k}")
        d_j = T.cost(i, j) - Tp.cost(i, j)
        d_k = T.cost(i, k) - Tp.cost(i, k)
        if tv_compare(d_k, d_j) == LT:
            return replace(lemma, keep=lemma.keep | {j})
        return lemma

    if v == "L3":
        jd = T.dummy_of.get(i)
        _require(jd is not None, "L3: player has no dummy job")
        _require(x.assigns(i, jd), "L3: player does not hold the dummy")
        _require(
            jd not in lemma.keep and jd not in lemma.forbid, "L3: dummy inside F1/F2"
        )
        moves_as_declared(free={jd})
        return replace(lemma, keep=lemma.keep | {jd})

    if v == "L4":
        ((j2, j1),) = lemma.implications
        _require(j1 != j2, "L4: jobs must differ")
        _require(x.assigns(i, j1) and x.assigns(i, j2), "L4: jobs not both held")
        _require(lowered(j1), "L4: job j1 is not strictly lowered")
        _require(raised(j2), "L4: job j2 is not strictly raised")
        unchanged_outside({j1, j2}, "{j1,j2}")
        return lemma

    # the dominated decrease: with the rows agreeing elsewhere, every job
    # whose column differs is one whose player-i cost changed
    other_total = ZERO
    decreases = {}
    for j in T.changed_jobs(Tp):
        _require(lowered(j), f"keep-lowered: job {j} is not a finite decrease")
        drop = T.cost(i, j) - Tp.cost(i, j)
        if j in lemma.keep:
            _require(x.assigns(i, j), f"keep-lowered: job {j} is not held")
            decreases[j] = drop
        else:
            other_total = other_total + drop
    for j in sorted(lemma.keep):
        _require(j in decreases, f"keep-lowered: kept job {j} unchanged")
        _require(
            tv_compare(decreases[j], other_total) == GT,
            f"keep-lowered: job {j}'s decrease does not dominate the rest",
        )
    return lemma


@dataclass(frozen=True)
class FuzzSpec:
    """Random finite instances on a value grid, one perturbed row per trial."""

    n: int
    m: int
    values: tuple


@dataclass(frozen=True)
class WmonViolation:
    """An instance pair differing in one player's row, with the mechanism's
    answers, whose weak-monotonicity sum is positive."""

    player: int
    T: Instance
    x: Allocation
    Tp: Instance
    xp: Allocation
    value: TieredValue

    kind = "WmonViolation"

    def to_json_dict(self, dense=True):
        """The stored form; with dense=False the instances stay Instance
        objects, which json_text writes from their columns."""
        return {
            "kind": self.kind,
            "player": self.player,
            "T": self.T.to_json_dict() if dense else self.T,
            "x": self.x.to_json_dict(),
            "Tprime": self.Tp.to_json_dict() if dense else self.Tp,
            "xprime": self.xp.to_json_dict(),
            "value": format_value(self.value),
        }

    @classmethod
    def from_json_dict(cls, d):
        """The two instances differ in one row, so they share one memo of
        parsed cell texts."""
        parsed = {}
        return cls(
            player=json_int(d["player"]),
            T=Instance.from_json_dict(d["T"], parsed),
            x=Allocation.from_json_dict(d["x"]),
            Tp=Instance.from_json_dict(d["Tprime"], parsed),
            xp=Allocation.from_json_dict(d["xprime"]),
            value=parse_value(d["value"]),
        )


def violation(T, x, Tp, xp, i):
    """The WmonViolation the pair makes for player i, or None when its
    weak-monotonicity sum is not positive."""
    value = wmon_value(T, x, Tp, xp, i)
    if value > ZERO:
        return WmonViolation(player=i, T=T, x=x, Tp=Tp, xp=xp, value=value)
    return None


def fuzz(M, spec, trials, seed):
    """Query M on random instance pairs and collect WMON violations.

    Deterministic under a fixed seed and spec; each trial draws a grid
    instance, perturbs a random subset of one row by random rationals
    (clamped at zero), and evaluates the WMON sum on the two answers.
    A cell p/q moved by ±s/t is written as the one Fraction
    (p*t ± s*q)/(q*t), or as zero when that numerator is not positive.
    """
    rng = random.Random(seed)
    grid = [tv(Fraction(v)) for v in spec.values]
    violations = []
    for _ in range(trials):
        costs = [[rng.choice(grid) for _ in range(spec.m)] for _ in range(spec.n)]
        T = Instance(costs)
        i = rng.randint(1, spec.n)
        jobs = rng.sample(range(1, spec.m + 1), rng.randint(1, spec.m))
        row = costs[i - 1]
        edits = []
        for j in jobs:
            step, den = rng.randint(1, 8), rng.randint(1, 4)
            if rng.random() < 0.5:
                step = -step
            base = row[j - 1].standard_part()
            num = base.numerator * den + step * base.denominator
            moved = Fraction(num, base.denominator * den) if num > 0 else ZERO
            edits.append((i, j, moved))
        Tp = T.with_costs(edits)
        x = checked_query(M, T)
        xp = checked_query(M, Tp)
        found = violation(T, x, Tp, xp, i)
        if found is not None:
            violations.append(found)
    return violations


def grid_is_writable(values, m):
    """Whether fuzz and exhaustive_pairs on m jobs over the grid values
    write only integers of at most int_digit_limit() digits, decided from
    the grid values' integers alone.

    Let H be the product over the distinct grid values of max(|numerator|,
    denominator), below 2^height_bits, and L the lcm of their denominators,
    at most H. A fuzz cell p/q moved by s/t (|s| <= 8, t <= 4) is
    (p t + s q)/(q t), whose integers are at most 12H. A WMON sum adds the
    drops of at most m cells of one row: a grid value or s/t in fuzz, the
    difference of two grid values in exhaustive_pairs. Each drop is a
    multiple of 1/(12L), at most 96H over 12L, so every integer written is
    below 2^7 m H.
    """
    return fits_digit_limit(height_bits(set(values)) + 7 + m.bit_length())


def exhaustive_pairs(M, n, m, values):
    """All grid instances crossed with all single-row grid rewrites.

    This is the brute-force oracle behind the small-grid violation search.
    Equal grid values share one digit, so the distinct grid instances are
    the base-d numbers of n*m digits (d distinct values, player 1's job 1
    the most significant digit). They are built once, in product order;
    a rewrite of player i's row replaces that row's m digits, so T' is
    found by index arithmetic, and each instance is queried once, when it
    is first needed. Pairs are visited in product order over the grid as
    given, so a repeated grid value repeats the pairs it spans.

    Each unordered pair is summed once per player. The WMON sum does not
    change when (T, x) and (T', x') swap, and neither do its preconditions
    (rows equal outside row i, no infinite assigned cell, no mixed flip).
    Once every pair of instance k' has been summed, the pair (k, k', i)
    reuses the sum made at (k', k, i): only positive sums are kept, keyed
    (i, lower index, higher index), so a key that is absent means the sum
    was not positive.
    """
    grid = [tv(Fraction(v)) for v in values]
    distinct = list(dict.fromkeys(grid))
    d = len(distinct)
    instances = [
        Instance(flat[r * m : (r + 1) * m] for r in range(n))
        for flat in product(distinct, repeat=n * m)
    ]
    answers = [None] * len(instances)
    summed = [False] * len(instances)
    positive = {}

    def answer(k):
        if answers[k] is None:
            answers[k] = checked_query(M, instances[k])
        return answers[k]

    # Each row over the grid as given, in product order, as its m-digit
    # number; player i's row is worth weight[i - 1] in an instance's index.
    digit = [distinct.index(c) for c in grid]
    rows = [
        sum(c * d ** (m - p) for p, c in enumerate(row, start=1))
        for row in product(digit, repeat=m)
    ]
    weight = [d ** (m * (n - i)) for i in range(1, n + 1)]
    violations = []
    for codes in product(rows, repeat=n):
        k = sum(c * w for c, w in zip(codes, weight))
        T = instances[k]
        for i, (code, w) in enumerate(zip(codes, weight), start=1):
            for row in rows:
                if row == code:
                    continue
                kp = k + (row - code) * w
                key = (i, k, kp) if k < kp else (i, kp, k)
                if not summed[kp]:
                    value = wmon_value(T, answer(k), instances[kp], answer(kp), i)
                    if value > ZERO:
                        positive[key] = value
                value = positive.get(key)
                if value is not None:
                    violations.append(
                        WmonViolation(
                            player=i,
                            T=T,
                            x=answers[k],
                            Tp=instances[kp],
                            xp=answers[kp],
                            value=value,
                        )
                    )
        summed[k] = True
    return violations
