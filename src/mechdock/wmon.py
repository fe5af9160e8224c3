"""Weak-monotonicity arithmetic and the inference lemmas as checkable predicates.

For two instances differing only in player i's row, a weakly monotone
allocation rule satisfies  sum_j (t_i^j - t'_i^j)(x_i^j - x'_i^j) <= 0.
Four standard consequences (L1-L4) are implemented as hypothesis-checked
inferences: given the edit pattern, they predict constraints any weakly
monotone (and, for L3, finite-ratio) mechanism must satisfy on the second
allocation. A seeded fuzzer searches for violations on random instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .exactnum import GT, LT, ZERO, TieredValue, format_value, tv, tv_compare
from .schedmodel import Allocation, Instance, checked_query


class WmonPreconditionError(ValueError):
    pass


class HypothesisError(ValueError):
    """The lemma's premises do not hold for the supplied pair (caller bug)."""


@dataclass
class WmonReport:
    value: TieredValue
    violated: bool


def wmon_value(T, x, Tp, xp, i):
    """Exact tiered weak-monotonicity sum for player i on an instance pair.

    A job assigned to i at infinite cost is a precondition failure: the
    engine reports that upstream as an unbounded-ratio event, never as a
    WMON value. So a job infinite in both rows adds nothing. A mixed
    infinite/finite term whose assignment flips would need -infinity,
    which tiered values cannot carry; it cannot arise after the upstream
    infinite-assignment screen and is rejected here.
    """
    if not T.rows_equal_except(Tp, i):
        raise WmonPreconditionError("instances differ outside the given row")
    total = ZERO
    for j in T.jobs():
        t, tp = T.cost(i, j), Tp.cost(i, j)
        xi, xpi = x.assigns(i, j), xp.assigns(i, j)
        if t.infinite and xi:
            raise WmonPreconditionError(
                f"job {j} assigned to player {i} at infinite cost in T"
            )
        if tp.infinite and xpi:
            raise WmonPreconditionError(
                f"job {j} assigned to player {i} at infinite cost in T'"
            )
        d = xi - xpi
        if d == 0:
            continue
        if t.infinite or tp.infinite:
            raise WmonPreconditionError(
                f"mixed infinite/finite term with flipped assignment at job {j}"
            )
        total = total + (t - tp) * Fraction(d)
    return WmonReport(
        value=total,
        violated=tv_compare(total, ZERO) == GT,
    )


@dataclass(frozen=True)
class LemmaExpectation:
    """Parameters of one lemma application (variant selects the fields used).

    L1: f1 = held jobs strictly lowered, f2 = unheld jobs strictly raised;
        everything else unchanged. Predicts keep f1, never get f2.
    L2: job j held and lowered, job k lowered; everything else unchanged.
        Predicts at least one of {j, k}; if k's decrease is strictly
        smaller than j's, predicts keep j.
    L3: like L1 for a player with a dummy job, whose cost may change
        arbitrarily; predicts the dummy is kept as well.
    L4: jobs j1, j2 both held, j1 lowered, j2 raised; everything else
        unchanged. Predicts: if j2 is kept then j1 is kept.
    """

    variant: str
    player: int
    f1: frozenset = frozenset()
    f2: frozenset = frozenset()
    j: int = 0
    k: int = 0
    j1: int = 0
    j2: int = 0


def _l1(player, f1=(), f2=()):
    return LemmaExpectation(
        variant="L1", player=player, f1=frozenset(f1), f2=frozenset(f2)
    )


def _l2(player, j, k):
    return LemmaExpectation(variant="L2", player=player, j=j, k=k)


def _l3(player, f1=(), f2=()):
    return LemmaExpectation(
        variant="L3", player=player, f1=frozenset(f1), f2=frozenset(f2)
    )


def _l4(player, j1, j2):
    return LemmaExpectation(variant="L4", player=player, j1=j1, j2=j2)


@dataclass
class Constraints:
    """Predicted restrictions on the post-edit allocation of one player."""

    player: int
    keep: set = field(default_factory=set)
    forbid: set = field(default_factory=set)
    one_of: list = field(default_factory=list)
    implications: list = field(default_factory=list)

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


def _require(cond, msg):
    if not cond:
        raise HypothesisError(msg)


def infer(exp, T, x, Tp):
    """Check the lemma's hypotheses on (T, x, Tp) and return its predictions."""
    i = exp.player
    _require(T.rows_equal_except(Tp, i), "instances differ outside the row")

    def lowered(jj):
        t, tp = T.cost(i, jj), Tp.cost(i, jj)
        return t.finite and tp.finite and tv_compare(t, tp) == GT

    def raised(jj):
        t, tp = T.cost(i, jj), Tp.cost(i, jj)
        if t.infinite:
            return False
        return tp.infinite or tv_compare(tp, t) == GT

    def changed_outside(declared):
        """The first job outside `declared` whose player-i cost changed;
        the rows agree elsewhere, so only the differing columns are read."""
        for jj in T.changed_jobs(Tp):
            if jj not in declared and T.cost(i, jj) != Tp.cost(i, jj):
                return jj
        return None

    def moves_as_declared(free=()):
        """L1/L3 premise: F1 held and lowered, F2 unheld and raised, every
        other job but the free ones unchanged."""
        v = exp.variant
        for j in exp.f1:
            _require(x.assigns(i, j), f"{v}: job {j} in F1 is not held")
            _require(lowered(j), f"{v}: job {j} in F1 is not strictly lowered")
        for j in exp.f2:
            _require(not x.assigns(i, j), f"{v}: job {j} in F2 is held")
            _require(raised(j), f"{v}: job {j} in F2 is not strictly raised")
        jj = changed_outside(exp.f1 | exp.f2 | set(free))
        _require(jj is None, f"{v}: job {jj} outside F1/F2 changed")

    if exp.variant == "L1":
        moves_as_declared()
        return Constraints(player=i, keep=set(exp.f1), forbid=set(exp.f2))

    if exp.variant == "L2":
        j, k = exp.j, exp.k
        _require(j != k, "L2: j and k must differ")
        _require(x.assigns(i, j), "L2: job j is not held")
        _require(lowered(j), "L2: job j is not strictly lowered")
        _require(lowered(k), "L2: job k is not strictly lowered")
        jj = changed_outside({j, k})
        _require(jj is None, f"L2: job {jj} outside {{j,k}} changed")
        d_j = T.cost(i, j) - Tp.cost(i, j)
        d_k = T.cost(i, k) - Tp.cost(i, k)
        cons = Constraints(player=i, one_of=[frozenset({j, k})])
        if tv_compare(d_k, d_j) == LT:
            cons.keep.add(j)
        return cons

    if exp.variant == "L3":
        jd = T.dummy_of.get(i)
        _require(jd is not None, "L3: player has no dummy job")
        _require(x.assigns(i, jd), "L3: player does not hold the dummy")
        _require(jd not in exp.f1 and jd not in exp.f2, "L3: dummy inside F1/F2")
        moves_as_declared(free={jd})
        return Constraints(
            player=i, keep=set(exp.f1) | {jd}, forbid=set(exp.f2)
        )

    if exp.variant == "L4":
        j1, j2 = exp.j1, exp.j2
        _require(j1 != j2, "L4: jobs must differ")
        _require(x.assigns(i, j1) and x.assigns(i, j2), "L4: jobs not both held")
        _require(lowered(j1), "L4: job j1 is not strictly lowered")
        _require(raised(j2), "L4: job j2 is not strictly raised")
        jj = changed_outside({j1, j2})
        _require(jj is None, f"L4: job {jj} outside {{j1,j2}} changed")
        return Constraints(player=i, implications=[(j2, j1)])

    raise HypothesisError(f"unknown lemma variant {exp.variant!r}")


def keep_lowered_constraints(T, x, Tp, i, keep):
    """Row-wide decrease step: predict that every job in `keep` stays put.

    Hypotheses (checked): every entry of row i is lowered or unchanged,
    each kept job is held and strictly lowered, and each kept job's
    decrease strictly exceeds the total decrease over non-kept jobs, so
    dropping any kept job forces a positive WMON sum.
    """
    _require(T.rows_equal_except(Tp, i), "instances differ outside the row")
    other_total = ZERO
    decreases = {}
    for j in T.changed_jobs(Tp):
        t, tp = T.cost(i, j), Tp.cost(i, j)
        if t == tp:
            continue
        _require(
            t.finite and tp.finite and tv_compare(t, tp) == GT,
            f"keep-lowered: job {j} is not a finite decrease",
        )
        if j in keep:
            _require(x.assigns(i, j), f"keep-lowered: job {j} is not held")
            decreases[j] = t - tp
        else:
            other_total = other_total + (t - tp)
    for j in keep:
        _require(j in decreases, f"keep-lowered: kept job {j} unchanged")
        _require(
            tv_compare(decreases[j], other_total) == GT,
            f"keep-lowered: job {j}'s decrease does not dominate the rest",
        )
    return Constraints(player=i, keep=set(keep))


@dataclass(frozen=True)
class FuzzSpec:
    """Random finite instances on a value grid, one perturbed row per trial."""

    n: int = 3
    m: int = 3
    values: tuple = (0, 1, 2, 3, 4)


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

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "player": self.player,
            "T": self.T.to_json_dict(),
            "x": self.x.to_json_dict(),
            "Tprime": self.Tp.to_json_dict(),
            "xprime": self.xp.to_json_dict(),
            "value": format_value(self.value),
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            player=int(d["player"]),
            T=Instance.from_json_dict(d["T"]),
            x=Allocation.from_json_dict(d["x"]),
            Tp=Instance.from_json_dict(d["Tprime"]),
            xp=Allocation.from_json_dict(d["xprime"]),
            value=tv(d["value"]),
        )


def fuzz(M, spec, trials, seed):
    """Query M on random instance pairs and collect WMON violations.

    Deterministic under a fixed seed and spec; each trial draws a grid
    instance, perturbs a random subset of one row by random rationals
    (clamped at zero), and evaluates the WMON sum on the two answers.
    """
    rng = random.Random(seed)
    grid = [tv(Fraction(v)) for v in spec.values]
    violations = []
    for _ in range(trials):
        costs = [[rng.choice(grid) for _ in range(spec.m)] for _ in range(spec.n)]
        T = Instance(costs)
        i = rng.randint(1, spec.n)
        jobs = rng.sample(range(1, spec.m + 1), rng.randint(1, spec.m))
        edits = []
        for j in jobs:
            delta = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            if rng.random() < 0.5:
                delta = -delta
            moved = T.cost(i, j).standard_part() + delta
            edits.append((i, j, max(Fraction(0), moved)))
        Tp = T.with_costs(edits)
        x = checked_query(M, T)
        xp = checked_query(M, Tp)
        report = wmon_value(T, x, Tp, xp, i)
        if report.violated:
            violations.append(
                WmonViolation(player=i, T=T, x=x, Tp=Tp, xp=xp, value=report.value)
            )
    return violations


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
    """
    grid = [tv(Fraction(v)) for v in values]
    distinct = list(dict.fromkeys(grid))
    d = len(distinct)
    instances = [
        Instance(flat[r * m : (r + 1) * m] for r in range(n))
        for flat in product(distinct, repeat=n * m)
    ]
    answers = [None] * len(instances)

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
                report = wmon_value(T, answer(k), instances[kp], answer(kp), i)
                if report.violated:
                    violations.append(
                        WmonViolation(
                            player=i,
                            T=T,
                            x=answer(k),
                            Tp=instances[kp],
                            xp=answer(kp),
                            value=report.value,
                        )
                    )
    return violations
