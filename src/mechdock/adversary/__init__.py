"""Adaptive adversary strategies emitting machine-checkable verdicts."""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

from ..exactnum import quoted
from ..forge import CONSTRUCTIONS, Spec, chain_shape, resolve_params
from ..schedmodel import json_text
from .blocks import block_chain
from .engine import run
from .small import square2, square3, square4
from .verdicts import verdict_from_json_dict, verify_verdict

# What reading or replaying a malformed stored report can raise.
MALFORMED_REPORT = (AttributeError, LookupError, ValueError, TypeError, ArithmeticError)

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
    transcript: list

    def to_json_dict(self, dense=True):
        """The report's plain JSON tree; with dense=False its instances stay
        Instance objects, which json_text writes from their columns."""
        return {
            "strategy": self.strategy,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "mechanism": self.mechanism,
            "verdict": self.verdict.to_json_dict(dense),
            "transcript": self.transcript,
            "queries": len(self.transcript),
        }

    def to_json(self):
        """The stored report: the bytes of json.dumps(self.to_json_dict(),
        sort_keys=True, indent=1)."""
        return json_text(self.to_json_dict(dense=False))


def attack(strategy, mech, params=None):
    """Run one strategy against a mechanism handle and package the report."""
    try:
        spec = STRATEGY_SPECS[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {quoted(strategy)}")
    params = resolve_params(spec.params, params or {})
    verdict, transcript = run(spec.fn, mech, *params.values())
    return Report(
        strategy=strategy,
        params=params,
        mechanism=mech.name,
        verdict=verdict,
        transcript=transcript,
    )


# The type of each top-level field replay reads, as the writer writes it.
_STORED_TYPES = {"strategy": str, "mechanism": str, "params": dict, "transcript": list}

# Each type json.load makes, as a defect names it.
_JSON_TYPE_NAMES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def replay_report(report_dict, mechanism_factory):
    """Re-run a report's strategy against a rebuilt mechanism and compare.

    Returns a list of defects: empty when the re-run reproduces the stored
    report byte for byte (deterministic mechanisms only). A block-chain
    report whose stored r and kc do not give the shape of its stored data
    is refused before anything is built, so a report cannot make replay
    build a chain larger than the report itself; so is a report whose
    strategy, mechanism, params or transcript is not of the JSON type the
    writer writes. The stored tree passes when it has the sort_keys text
    of the fresh report's to_json_dict tree, which is decided by == on the
    two trees and then _holds_no_bool_or_float on the stored one.
    """
    for key, kind in _STORED_TYPES.items():
        if key in report_dict and not isinstance(report_dict[key], kind):
            found = _JSON_TYPE_NAMES[type(report_dict[key])]
            return [f"stored {key} is {found}, not {_JSON_TYPE_NAMES[kind]}"]
    strategy, params = report_dict["strategy"], report_dict.get("params", {})
    if strategy == "main":
        params = resolve_params(STRATEGY_SPECS[strategy].params, params)
        if not _has_shape(report_dict, chain_shape(params["r"], params["kc"])):
            return ["stored r and kc do not give the shape of the stored instance"]
    with closing(mechanism_factory(report_dict["mechanism"])) as mech:
        fresh = attack(strategy, mech, params)
    if fresh.to_json_dict() != report_dict or not _holds_no_bool_or_float(report_dict):
        return ["replay produced a different report"]
    return []


def _holds_no_bool_or_float(stored):
    """Whether a stored tree holds no bool and no float outside its "costs"
    matrices. Run on a tree that is == to a fresh report's to_json_dict
    tree, it passes exactly when the two have the same sort_keys text:
    - a fresh tree holds only str, int, list and dict, so == differs from
      equal text only where a stored bool or float equals a fresh int
      (True == 1, 1.0 == 1);
    - every fresh "costs" row holds only str, and only a str equals a str,
      so == has already matched the stored rows cell by cell, and they are
      skipped here;
    - == goes first against the shallow fresh tree, so a stored tree nested
      deeper than it fails there, and this walk never recurses into it."""
    kind = type(stored)
    if kind is dict:
        return all(
            _holds_no_bool_or_float(value)
            for key, value in stored.items()
            if key != "costs"
        )
    if kind is list:
        return all(map(_holds_no_bool_or_float, stored))
    return kind is not bool and kind is not float


def _has_shape(report_dict, shape):
    """Whether a block-chain report's stored data has the (players, jobs)
    shape: its verdict instance, or for a StrategyIncomplete, which stores
    no instance, the length of its first query's owner vector, one entry
    per job."""
    n, m = shape
    verdict = report_dict["verdict"]
    if verdict["kind"] == "StrategyIncomplete":
        transcript = report_dict["transcript"]
        return bool(transcript) and len(transcript[0]["owner"]) == m
    costs = verdict["T" if verdict["kind"] == "WmonViolation" else "instance"]["costs"]
    return (len(costs), len(costs[0])) == (n, m)


def verify_report(report_dict):
    """Offline checks of a stored report: verdict invariants only."""
    try:
        verdict = verdict_from_json_dict(report_dict["verdict"])
    except MALFORMED_REPORT as exc:
        return [f"malformed report: {exc}"]
    return verify_verdict(verdict)
