"""Built-in mechanisms: test subjects and baselines for the adversary.

Selector strings: "minwork", "optmakespan", "dictator:<i>",
"extern:<command...>", plus seeded stubs ("stub:<seed>" answers with
arbitrary valid allocations, "activestub:<seed>" restricts itself to
active players and honors dummy jobs, which drives the strategies deep
into their case trees).
"""

from __future__ import annotations

import hashlib

from .exactnum import LT, tv_compare
from .optcore import SearchError, opt_makespan
from .schedmodel import (
    Allocation,
    BuiltinMechanism,
    ExternalMechanism,
    MechanismError,
    MechanismHandle,
    active_players,
)

def minwork_allocate(T):
    """Each job to its cheapest player in tiered order; ties to lowest index.

    The first finite cell is taken without a compare, and a cell that is
    the current best's own value object is skipped: equal is never LT."""
    owner = []
    for j in T.jobs():
        cells = iter(T.finite_costs(j))
        best, best_cost = next(cells, (None, None))
        if best is None:
            raise MechanismError(f"job {j} has no finite-cost player")
        for i, c in cells:
            if c is not best_cost and tv_compare(c, best_cost) == LT:
                best, best_cost = i, c
        owner.append(best)
    return Allocation(owner)


def optmakespan_allocate(T):
    """Lexicographically smallest owner vector achieving the optimal makespan.

    Exact but exponential: the product over jobs of their active-player
    counts must stay within optcore.NODE_GUARD (10**8), so a job with one
    active player costs nothing. A search that fails or exceeds that
    budget is a mechanism failure.
    """
    try:
        return opt_makespan(T).witness
    except SearchError as exc:
        raise MechanismError(f"optmakespan: {exc}")


def dictator_allocate(T, d):
    return Allocation([d] * T.m)


class SeededStub(MechanismHandle):
    """Deterministic pseudo-arbitrary allocator, valid but otherwise lawless."""

    def __init__(self, seed, active_only=False):
        self.seed = seed
        self.active_only = active_only
        self.name = f"{'activestub' if active_only else 'stub'}:{self.seed}"

    def query(self, T):
        digest = hashlib.sha256(
            f"{self.seed}|{T.to_json_line()}".encode()
        ).digest()
        owner = []
        dummy_owner = {j: p for p, j in T.dummy_of.items()}
        for j in T.jobs():
            if self.active_only and j in dummy_owner:
                owner.append(dummy_owner[j])
                continue
            pool = sorted(active_players(T, j)) if self.active_only else list(
                T.players()
            )
            if not pool:
                pool = list(T.players())
            h = hashlib.sha256(digest + j.to_bytes(4, "big")).digest()
            owner.append(pool[int.from_bytes(h[:4], "big") % len(pool)])
        return Allocation(owner)


class RecordedAnswers(MechanismHandle):
    """Answers each query with the next allocation a report's transcript
    recorded, so a replay can check an external mechanism's transcript
    without running it; a query past the last recorded answer fails."""

    def __init__(self, name, transcript):
        self.name = name
        self._steps = iter(transcript)

    def query(self, T):
        step = next(self._steps, None)
        try:
            return Allocation.from_json_dict(step)
        except (KeyError, TypeError, ValueError):
            raise MechanismError("the transcript recorded no answer for this query")


def make_mechanism(selector):
    """Build a mechanism handle from a CLI selector string."""
    if selector == "minwork":
        return BuiltinMechanism("minwork", minwork_allocate)
    if selector == "optmakespan":
        return BuiltinMechanism("optmakespan", optmakespan_allocate)
    kind, colon, arg = selector.partition(":")
    if colon and kind == "extern":
        return ExternalMechanism(arg)
    if colon and kind in ("dictator", "stub", "activestub"):
        try:
            number = int(arg)
        except ValueError:
            raise MechanismError(f"mechanism selector {selector!r} needs an integer")
        if kind == "dictator":
            return BuiltinMechanism(selector, lambda T: dictator_allocate(T, number))
        return SeededStub(number, active_only=kind == "activestub")
    raise MechanismError(f"unknown mechanism selector {selector!r}")
