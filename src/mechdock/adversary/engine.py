"""Shared machinery driving one adaptive adversary run.

A session edits the instance, queries the mechanism, and checks every
lemma-predicted step. Deviations are resolved in a fixed order: the
allocation is validated, an assignment at infinite cost (which covers a
misallocated dummy) short-circuits to an unbounded-ratio verdict, a
failed prediction whose instance pair has a positive monotonicity sum
becomes a violation verdict, and anything left is an engine defect.
Every verdict leaves through Session.finish, which re-checks it with the
same offline check `verify` runs, so a verdict that check would reject
ends the run as StrategyIncomplete instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..exactnum import format_value
from ..mechlib import minwork_allocate
from ..schedmodel import checked_query
from ..wmon import (
    LemmaExpectation,
    WmonPreconditionError,
    infer,
    keep_lowered_constraints,
    wmon_value,
)
from .verdicts import (
    UNBOUNDED_INFINITE,
    UNBOUNDED_TIER_GAP,
    RatioWitness,
    StrategyIncomplete,
    Unbounded,
    WmonViolation,
    verify_verdict,
)


class Finished(Exception):
    """Control-flow unwind carrying the terminal verdict."""

    def __init__(self, verdict):
        super().__init__(verdict.kind)
        self.verdict = verdict


@dataclass
class Step:
    note: str
    edits: list = field(default_factory=list)
    dummy_of: dict | None = None
    owner: list | None = None
    expectation: str | None = None
    branch: str | None = None

    def to_json_dict(self):
        d = {"note": self.note, "edits": [[i, j, v] for i, j, v in self.edits]}
        if self.dummy_of is not None:
            d["dummy_of"] = {str(p): j for p, j in sorted(self.dummy_of.items())}
        if self.owner is not None:
            d["owner"] = self.owner
        if self.expectation is not None:
            d["expectation"] = self.expectation
        if self.branch is not None:
            d["branch"] = self.branch
        return d


@dataclass
class Transcript:
    steps: list = field(default_factory=list)
    queries: int = 0

    def to_json_list(self):
        return [s.to_json_dict() for s in self.steps]


class Session:
    def __init__(self, mech):
        self.mech = mech
        self.transcript = Transcript()
        self.T = None
        self.x = None
        self.prev_T = None
        self.prev_x = None

    # -- queries ---------------------------------------------------------

    def bootstrap(self, T, note):
        self._query(T, [], note, None)

    def apply(self, edits, note, dummy_of=None):
        """Edit the current instance and query the mechanism on the result."""
        edits = list(edits)
        T2 = self.T.with_costs(edits, dummy_of=dummy_of)
        self._query(T2, edits, note, dummy_of)

    def _query(self, T2, edits, note, dummy_of):
        step = Step(
            note=note,
            edits=[(i, j, format_value(v)) for i, j, v in edits],
            dummy_of=dummy_of,
        )
        self.transcript.steps.append(step)
        x2 = checked_query(self.mech, T2)
        self.transcript.queries += 1
        step.owner = list(x2.owner)
        self.prev_T, self.prev_x = self.T, self.x
        self.T, self.x = T2, x2
        for j in T2.jobs():
            if T2.cost(x2.owner_of(j), j).infinite:
                step.branch = f"job {j} assigned at infinite cost"
                self.finish(
                    Unbounded(
                        instance=T2,
                        mech_alloc=x2,
                        certificate=minwork_allocate(T2),
                        reason=UNBOUNDED_INFINITE,
                    )
                )

    # -- expectation checks ----------------------------------------------

    def expect_lemma(self, exp: LemmaExpectation):
        cons = infer(exp, self.prev_T, self.prev_x, self.T)
        self._check(cons, f"{exp.variant} player {exp.player}")

    def expect_keep_lowered(self, player, keep):
        cons = keep_lowered_constraints(
            self.prev_T, self.prev_x, self.T, player, keep
        )
        self._check(cons, f"dominated-decrease player {player}")

    def _check(self, cons, label):
        step = self.transcript.steps[-1]
        step.expectation = f"{label}: {cons.describe()}"
        defects = cons.defects(self.x)
        if not defects:
            return
        try:
            report = wmon_value(
                self.prev_T, self.prev_x, self.T, self.x, cons.player
            )
        except WmonPreconditionError as exc:
            self.fail(f"prediction failed but the pair is unevaluable: {exc}")
        if report.violated:
            step.branch = "prediction failed; weak monotonicity violated"
            self.finish(
                WmonViolation(
                    player=cons.player,
                    T=self.prev_T,
                    x=self.prev_x,
                    Tp=self.T,
                    xp=self.x,
                    value=report.value,
                )
            )
        self.fail(
            "; ".join(defects)
            + f" yet the pair is weakly monotone (sum {format_value(report.value)})"
        )

    def branch(self, label):
        self.transcript.steps[-1].branch = label

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
            StrategyIncomplete(
                step=len(self.transcript.steps), diagnostic=diagnostic
            )
        )


def run(script, mech, *args):
    """Execute a strategy script, returning (verdict, transcript)."""
    session = Session(mech)
    try:
        script(session, *args)
        verdict = StrategyIncomplete(
            step=len(session.transcript.steps),
            diagnostic="strategy script ended without a verdict",
        )
    except Finished as fin:
        verdict = fin.verdict
    return verdict, session.transcript
