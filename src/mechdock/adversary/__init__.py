"""Adaptive adversary strategies emitting machine-checkable verdicts."""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..forge import CONSTRUCTIONS, Spec, resolve_params
from .blocks import block_chain
from .engine import Transcript, run
from .small import square2, square3, square4
from .verdicts import verdict_from_json_dict, verify_verdict

# Each strategy runs on one construction and takes its parameters.
STRATEGY_SPECS = {
    "s2x2": Spec(square2),
    "s3x3": Spec(square3, CONSTRUCTIONS["e3x3"].params),
    "s3x4": Spec(square4, CONSTRUCTIONS["f3x4"].params),
    "main": Spec(block_chain, CONSTRUCTIONS["an"].params),
}


@dataclass
class Report:
    strategy: str
    params: dict
    mechanism: str
    verdict: object
    transcript: Transcript

    def to_json_dict(self):
        return {
            "strategy": self.strategy,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "mechanism": self.mechanism,
            "verdict": self.verdict.to_json_dict(),
            "transcript": self.transcript.to_json_list(),
            "queries": self.transcript.queries,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


def attack(strategy, mech, params=None):
    """Run one strategy against a mechanism handle and package the report."""
    try:
        spec = STRATEGY_SPECS[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}")
    params = resolve_params(spec.params, params or {})
    verdict, transcript = run(spec.fn, mech, *params.values())
    return Report(
        strategy=strategy,
        params=params,
        mechanism=mech.name,
        verdict=verdict,
        transcript=transcript,
    )


def replay_report(report_dict, mechanism_factory):
    """Re-run a report's strategy against a rebuilt mechanism and compare.

    Returns a list of defects: empty when the re-run reproduces the stored
    report byte for byte (deterministic mechanisms only).
    """
    mech = mechanism_factory(report_dict["mechanism"])
    fresh = attack(report_dict["strategy"], mech, report_dict.get("params", {}))
    stored = json.dumps(report_dict, sort_keys=True)
    redone = json.dumps(fresh.to_json_dict(), sort_keys=True)
    if stored != redone:
        return ["replay produced a different report"]
    return []


def verify_report(report_dict):
    """Offline checks of a stored report: verdict invariants only."""
    try:
        verdict = verdict_from_json_dict(report_dict["verdict"])
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed report: {exc}"]
    return verify_verdict(verdict)
