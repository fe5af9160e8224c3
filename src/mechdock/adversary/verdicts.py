"""Terminal verdicts of an adversary run, and their offline re-verification.

Every verdict carries enough stored data to re-check its claim without
querying the mechanism again: a ratio witness pins an instance, the
mechanism's allocation and a certificate allocation whose makespan bounds
the optimum; an unbounded verdict pins an infinite assignment or a tier
gap; a monotonicity violation pins the offending instance pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exactnum import (
    UNBOUNDED,
    ZERO,
    format_value,
    json_int,
    leading_ratio,
    parse_rational,
    quoted,
    quoted_rational,
)
from ..schedmodel import Allocation, Instance, makespan, validate_allocation
from ..wmon import WmonPreconditionError, WmonViolation, wmon_value

UNBOUNDED_INFINITE = "infinite-assignment"
UNBOUNDED_TIER_GAP = "tier-gap"


@dataclass(frozen=True)
class RatioWitness:
    instance: Instance
    mech_alloc: Allocation
    certificate: Allocation
    claimed_bound: Fraction

    kind = "RatioWitness"

    def to_json_dict(self, dense=True):
        """The stored form; with dense=False the instance stays an
        Instance, which json_text writes from its columns."""
        bound = str(Fraction(self.claimed_bound))
        return {**_witness_json(self, dense), "claimed_bound": bound}


@dataclass(frozen=True)
class Unbounded:
    instance: Instance
    mech_alloc: Allocation
    certificate: Allocation
    reason: str

    kind = "Unbounded"

    def to_json_dict(self, dense=True):
        """The stored form; with dense=False the instance stays an
        Instance, which json_text writes from its columns."""
        return {**_witness_json(self, dense), "reason": self.reason}


def _witness_json(v, dense):
    """The fields a RatioWitness and an Unbounded share, in stored form."""
    return {
        "kind": v.kind,
        "instance": v.instance.to_json_dict() if dense else v.instance,
        "mech_allocation": v.mech_alloc.to_json_dict(),
        "certificate": v.certificate.to_json_dict(),
    }


@dataclass(frozen=True)
class StrategyIncomplete:
    step: int
    diagnostic: str

    kind = "StrategyIncomplete"

    def to_json_dict(self, dense=True):
        """The stored form, which holds no instance."""
        return {"kind": self.kind, "step": self.step, "diagnostic": self.diagnostic}


def verdict_from_json_dict(d):
    kind = d.get("kind")
    if kind in ("RatioWitness", "Unbounded"):
        shared = {
            "instance": Instance.from_json_dict(d["instance"]),
            "mech_alloc": Allocation.from_json_dict(d["mech_allocation"]),
            "certificate": Allocation.from_json_dict(d["certificate"]),
        }
        if kind == "RatioWitness":
            bound = d["claimed_bound"]
            if type(bound) is not str:  # parse_rational passes a number through
                raise ValueError(f"expected string, got {type(bound).__name__}")
            return RatioWitness(**shared, claimed_bound=parse_rational(bound))
        return Unbounded(**shared, reason=d["reason"])
    if kind == "WmonViolation":
        return WmonViolation.from_json_dict(d)
    if kind == "StrategyIncomplete":
        return StrategyIncomplete(step=json_int(d["step"]), diagnostic=d["diagnostic"])
    raise ValueError(f"unknown verdict kind {quoted(repr(kind), str)}")


def verify_verdict(v):
    """Re-check the verdict's invariants from stored data only.

    Returns a list of defects; an empty list means the verdict is sound.
    The mechanism is never queried.
    """
    defects = []
    if isinstance(v, (RatioWitness, Unbounded)):
        T = v.instance
        for label, alloc in (("mechanism", v.mech_alloc), ("certificate", v.certificate)):
            for d in validate_allocation(T, alloc):
                defects.append(f"{label} allocation invalid: {d}")
        if defects:
            return defects
        ms_cert = makespan(T, v.certificate)
        if ms_cert.infinite:
            return defects + ["certificate has infinite makespan"]
        ms_mech = makespan(T, v.mech_alloc)
        if isinstance(v, Unbounded):
            if v.reason == UNBOUNDED_INFINITE:
                if not ms_mech.infinite:
                    defects.append(
                        "reason says infinite assignment but mechanism makespan "
                        "is finite"
                    )
            elif v.reason == UNBOUNDED_TIER_GAP:
                if ms_cert.is_zero():
                    defects.append("tier-gap certificate has zero makespan")
                elif leading_ratio(ms_mech, ms_cert) is not UNBOUNDED:
                    defects.append("no tier gap between makespans")
            else:
                reason = quoted(repr(v.reason), str)
                defects.append(f"unknown unboundedness reason {reason}")
            return defects
        if ms_cert.is_zero():
            return defects + ["certificate has zero makespan"]
        ratio = leading_ratio(ms_mech, ms_cert)
        if ratio < v.claimed_bound:
            defects.append(
                f"claimed bound {quoted_rational(v.claimed_bound)} not met: "
                f"leading ratio {quoted_rational(ratio)}"
            )
        return defects
    if isinstance(v, WmonViolation):
        for d in validate_allocation(v.T, v.x):
            defects.append(f"first allocation invalid: {d}")
        for d in validate_allocation(v.Tp, v.xp):
            defects.append(f"second allocation invalid: {d}")
        if not v.T.rows_equal_except(v.Tp, v.player):
            defects.append("instances differ outside the cited row")
        if defects:
            return defects
        try:
            value = wmon_value(v.T, v.x, v.Tp, v.xp, v.player)
        except WmonPreconditionError as exc:
            return [f"stored pair violates preconditions: {exc}"]
        if not value > ZERO:
            defects.append("recomputed monotonicity sum is not positive")
        if value != v.value:
            defects.append(
                f"stored value {format_value(v.value)} differs from recomputed "
                f"{format_value(value)}"
            )
        return defects
    return defects
