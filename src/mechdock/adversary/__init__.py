"""Adaptive adversary strategies emitting machine-checkable verdicts."""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

from ..forge import CONSTRUCTIONS, Spec, chain_shape, resolve_params
from ..schedmodel import Instance, json_text
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
    report byte for byte (deterministic mechanisms only). A block-chain
    report whose stored r and kc do not give the shape of its stored data
    is refused before anything is built, so a report cannot make replay
    build a chain larger than the report itself. The fresh report's
    instances stay Instance objects, checked against the stored dense
    matrices from their columns, so no dense tree is built.
    """
    strategy, params = report_dict["strategy"], report_dict.get("params", {})
    if strategy == "main":
        params = resolve_params(STRATEGY_SPECS[strategy].params, params)
        if not _has_shape(report_dict, chain_shape(params["r"], params["kc"])):
            return ["stored r and kc do not give the shape of the stored instance"]
    with closing(mechanism_factory(report_dict["mechanism"])) as mech:
        fresh = attack(strategy, mech, params)
    if not _same_json(fresh.to_json_dict(dense=False), report_dict):
        return ["replay produced a different report"]
    return []


def _has_shape(report_dict, shape):
    """Whether a block-chain report's stored data has the (players, jobs)
    shape: its verdict instance, or for a StrategyIncomplete, which stores
    no instance, the length of its first query's owner vector, one entry
    per job."""
    n, m = shape
    verdict = report_dict["verdict"]
    if verdict["kind"] == "StrategyIncomplete":
        return len(report_dict["transcript"][0]["owner"]) == m
    costs = verdict["T" if verdict["kind"] == "WmonViolation" else "instance"]["costs"]
    return (len(costs), len(costs[0])) == (n, m)


def _same_json(fresh, stored):
    """True when a stored JSON tree has the same sort_keys text as a fresh
    to_json_dict tree: the same type at every node (so 1, true and 1.0
    differ) and dict keys compared as sets. A list of strings is compared
    with one ==, as a string equals only a string; so is a list of plain
    ints once the stored one is checked to hold plain ints only. An
    Instance in the fresh tree (to_json_dict(dense=False)) stands for its
    dense to_json_dict, and is checked against the stored tree from its
    columns by Instance.matches_json."""
    kind = type(fresh)
    if kind is Instance:
        return fresh.matches_json(stored)
    if kind is not type(stored):
        return False
    if kind is dict:
        return fresh.keys() == stored.keys() and all(
            _same_json(value, stored[key]) for key, value in fresh.items()
        )
    if kind is list:
        if len(fresh) != len(stored):
            return False
        try:
            "".join(fresh)
        except TypeError:
            if set(map(type, fresh)) == {int}:
                return fresh == stored and set(map(type, stored)) == {int}
            return all(map(_same_json, fresh, stored))
        return fresh == stored
    return fresh == stored


def verify_report(report_dict):
    """Offline checks of a stored report: verdict invariants only."""
    try:
        verdict = verdict_from_json_dict(report_dict["verdict"])
    except MALFORMED_REPORT as exc:
        return [f"malformed report: {exc}"]
    return verify_verdict(verdict)
