"""Shared machinery driving one adaptive adversary run.

A run is a bootstrap query followed by steps. Each step edits one
player's costs, queries the mechanism, and names the weak-monotonicity
lemma the edit sets up as a wmon.Lemma, which carries its predictions.
wmon.infer checks the lemma's premise on the edit and returns the
predictions the answer is checked against, and the step stores the
lemma's name, its player and those predictions as its expectation.
The case trees are written in five Session moves, each the one
definition of its step and each reading the costs it moves from the
current instance. Session.squeeze (L1 hold/raise) zeroes or halves the
jobs a player holds and raises the ones it does not hold: L1 predicts
the player keeps the first set and gains none of the second.
Session.price_out (L1 price-out) raises a player's costs until the
player gets none of the jobs; a job it leaves to one player becomes that
player's dummy. Session.undercut (L2) lowers a held job by 2 EPS1 and
another job to EPS3: the player gets one of the two. Session.trade (L4)
raises one held job while another drops by EPS4: keeping the raised job
means keeping the other. Session.raise_dummy (L3) raises a player's
dummy while every other job the player holds drops by an infinitesimal:
the player keeps them all.
Deviations are resolved in a fixed order: an edit the instance rejects
(such as a negative cost) ends the run as StrategyIncomplete unqueried,
the allocation is validated, an assignment at infinite cost (which
covers a misallocated dummy) short-circuits to an unbounded-ratio
verdict, a lemma whose premise fails on the edit ends the run as
StrategyIncomplete, a failed prediction whose instance pair has a
positive monotonicity sum becomes a violation verdict, and anything left
is an engine defect.
Every verdict leaves through Session.finish, which re-checks it with the
same offline check `verify` runs, so a verdict that check would reject
ends the run as StrategyIncomplete instead.
The steps are kept in report form: each is the dict the report's
transcript stores, made with its note and edits and filled in as its
answer, expectation and branch become known. Run data such as timings
stays out of them, so a replay reproduces the report byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from ..exactnum import EPS1, EPS3, EPS4, INF, ZERO, format_value
from ..mechlib import minwork_allocate
from ..schedmodel import ModelError, checked_query
from ..wmon import HypothesisError, WmonPreconditionError, infer, violation
from ..wmon import _l1, _l2, _l3, _l4
from .verdicts import (
    UNBOUNDED_INFINITE,
    UNBOUNDED_TIER_GAP,
    RatioWitness,
    StrategyIncomplete,
    Unbounded,
    verify_verdict,
)


class Finished(Exception):
    """Control-flow unwind carrying the terminal verdict."""

    def __init__(self, verdict):
        super().__init__(verdict.kind)
        self.verdict = verdict


class Session:
    def __init__(self, mech):
        self.mech = mech
        self.steps = []
        self.T = None
        self.x = None

    # -- steps -------------------------------------------------------------

    def bootstrap(self, T, note):
        self._query(T, {"note": note, "edits": []})

    def apply(self, edits, note, lemma, dummy_of=None):
        """One adversary step: edit the current instance, query the
        mechanism on the result, and check the answer against what `lemma`
        predicts for the edited player. A `dummy_of` map replaces the
        instance's, and the step records it when it differs.

        An edit the instance rejects ends the run as StrategyIncomplete
        with no query. After the infinite-assignment screen, a lemma whose
        premise fails on the edit ends the run as StrategyIncomplete. A
        failed prediction ends it with the WmonViolation wmon.violation
        finds in the pair, and as StrategyIncomplete when it finds none.
        """
        T, x = self.T, self.x
        edits = list(edits)
        try:
            Tp = T.with_costs(edits, dummy_of=dummy_of)
        except ModelError as exc:
            self.fail(f"edit fails: {exc}")
        step = {
            "note": note,
            "edits": [[i, j, format_value(v)] for i, j, v in edits],
        }
        if dummy_of not in (None, T.dummy_of):
            step["dummy_of"] = {str(p): j for p, j in sorted(dummy_of.items())}
        xp = self._query(Tp, step)
        try:
            predicted = infer(lemma, T, x, Tp)
        except HypothesisError as exc:
            self.fail(f"lemma premise fails: {exc}")
        step["expectation"] = (
            f"{lemma.variant} player {lemma.player}: {predicted.describe()}"
        )
        defects = predicted.defects(xp)
        if not defects:
            return
        try:
            found = violation(T, x, Tp, xp, lemma.player)
        except WmonPreconditionError as exc:
            self.fail(f"prediction failed but the pair is unevaluable: {exc}")
        if found is None:
            self.fail("; ".join(defects) + " yet the pair is weakly monotone")
        step["branch"] = "prediction failed; weak monotonicity violated"
        self.finish(found)

    def squeeze(self, player, zero, nudge, note):
        """The L1 step on one player: set each job of `zero` to 0, then
        halve each job of `nudge` the player holds and raise each other
        one, adding EPS4 to a cost with a standard part and doubling any
        other (an infinite cost stays infinite). L1 predicts the player
        keeps the zeroed and halved jobs and gets none of the raised ones."""
        held, raised, edits = list(zero), [], [(player, j, ZERO) for j in zero]
        for j in nudge:
            t = self.T.cost(player, j)
            if self.x.assigns(player, j):
                held.append(j)
                edits.append((player, j, t * Fraction(1, 2)))
            else:
                raised.append(j)
                standard = t.finite and t.standard_part()
                edits.append((player, j, t + EPS4 if standard else 2 * t))
        self.apply(edits, note, _l1(player, f1=held, f2=raised))

    def price_out(self, player, jobs, note):
        """The L1 price-out on one player: raise each job of `jobs`, adding
        EPS4 to a cost with a standard part and making any other infinite.
        L1 predicts the player gets none of them. A job made infinite that
        exactly one other player prices finitely becomes that player's
        dummy."""
        edits, dummy_of = [], self.T.dummy_of
        for j in jobs:
            t = self.T.cost(player, j)
            standard = t.finite and t.standard_part()
            edits.append((player, j, t + EPS4 if standard else INF))
            others = [q for q, _ in self.T.finite_costs(j) if q != player]
            if not standard and len(others) == 1:
                dummy_of[others[0]] = j
        self.apply(edits, note, _l1(player, f2=jobs), dummy_of=dummy_of)

    def undercut(self, player, j, k, note):
        """The L2 step on one player: lower the held job j by two EPS1 and
        set job k to EPS3. L2 predicts the player gets j or k, and j when
        k's decrease is the smaller."""
        edits = [(player, j, self.T.cost(player, j) - 2 * EPS1), (player, k, EPS3)]
        self.apply(edits, note, _l2(player, j=j, k=k))

    def trade(self, player, raised, value, lowered, note):
        """The L4 step on one player: raise the held job `raised` to
        `value` and lower the held job `lowered` by EPS4. L4 predicts the
        player keeps `lowered` whenever it keeps `raised`."""
        edits = [
            (player, raised, value),
            (player, lowered, self.T.cost(player, lowered) - EPS4),
        ]
        self.apply(edits, note, _l4(player, j1=lowered, j2=raised))

    def raise_dummy(self, player, jobs, value, note):
        """The L3 step on one player: set the player's dummy job to `value`
        and lower each other job of `jobs` by EPS4. L3 predicts the player
        keeps the lowered jobs and the dummy."""
        dummy = self.T.dummy_of.get(player)
        lowered = [j for j in jobs if j != dummy]
        edits = [
            (player, j, value if j == dummy else self.T.cost(player, j) - EPS4)
            for j in jobs
        ]
        self.apply(edits, note, _l3(player, f1=lowered))

    def _query(self, T, step):
        """Record the step, query the mechanism on T and screen the answer
        for a job assigned at infinite cost."""
        self.steps.append(step)
        x = checked_query(self.mech, T)
        step["owner"] = list(x.owner)
        self.T, self.x = T, x
        for j in T.jobs():
            if T.cost(x.owner_of(j), j).infinite:
                step["branch"] = f"job {j} assigned at infinite cost"
                self.finish(
                    Unbounded(
                        instance=T,
                        mech_alloc=x,
                        certificate=minwork_allocate(T),
                        reason=UNBOUNDED_INFINITE,
                    )
                )
        return x

    def branch(self, label):
        self.steps[-1]["branch"] = label

    # -- terminals ---------------------------------------------------------

    def finish_ratio(self, certificate, bound):
        self.finish(
            RatioWitness(
                instance=self.T,
                mech_alloc=self.x,
                certificate=certificate,
                claimed_bound=Fraction(bound),
            )
        )

    def finish_tier_gap(self, certificate):
        self.finish(
            Unbounded(
                instance=self.T,
                mech_alloc=self.x,
                certificate=certificate,
                reason=UNBOUNDED_TIER_GAP,
            )
        )

    def finish(self, verdict):
        """End the run with a verdict that passes its offline check."""
        defects = verify_verdict(verdict)
        if defects:
            self.fail(f"{verdict.kind} fails its check: " + "; ".join(defects))
        raise Finished(verdict)

    def fail(self, diagnostic):
        raise Finished(
            StrategyIncomplete(step=len(self.steps), diagnostic=diagnostic)
        )


def run(script, mech, *args):
    """Execute a strategy script, returning (verdict, steps)."""
    session = Session(mech)
    try:
        script(session, *args)
        verdict = StrategyIncomplete(
            step=len(session.steps),
            diagnostic="strategy script ended without a verdict",
        )
    except Finished as fin:
        verdict = fin.verdict
    return verdict, session.steps
