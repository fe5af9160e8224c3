"""Built-in mechanisms: test subjects and baselines for the adversary.

Selector strings: "minwork", "optmakespan", "dictator:<i>",
"extern:<command...>", plus seeded stubs ("stub:<seed>" answers with
arbitrary valid allocations, "activestub:<seed>" restricts itself to
active players and honors dummy jobs, which drives the strategies deep
into their case trees).

The "minwork" handle keeps its last instance and answer, and decides
again only the jobs whose columns that instance does not share: an
adversary edits a few cells per query, and with_costs shares every column
it does not write. minwork_allocate without an earlier answer is the
plain full pass, which the engine's certificates and the extern example
use.
"""

from __future__ import annotations

import hashlib

from .exactnum import LT, quoted, tv_compare
from .optcore import SearchError, opt_makespan
from .schedmodel import (
    Allocation,
    BuiltinMechanism,
    ExternalMechanism,
    MechanismError,
    MechanismHandle,
    active_players,
)

def minwork_allocate(T, last=None):
    """Each job to its cheapest player in tiered order; ties to lowest index.

    last is an earlier answer (instance, allocation) or None. With an
    answer for an instance of T's shape, each job keeps last's owner
    unless T does not share its column with last's instance, found by
    unshared_jobs without reading a column; only those jobs are decided
    again. An owner depends on nothing but its column, and a shared column
    is never mutated, so this is the answer a full pass gives, the same
    MechanismError included: every column last kept has a finite player,
    and the others are decided in job order.

    Sharing, not equality, picks the jobs: a column rewritten to equal
    values is decided again, which costs about what comparing it would,
    and a column of an instance built apart is never compared first.
    """
    if last is None or (last[0].n, last[0].m) != (T.n, T.m):
        return Allocation([_cheapest(T, j) for j in T.jobs()])
    last_T, last_x = last
    owner = list(last_x.owner)
    for j in last_T.unshared_jobs(T):
        owner[j - 1] = _cheapest(T, j)
    return Allocation(owner)


def _cheapest(T, j):
    """Job j's owner under min-work. The first finite cell is taken without
    a compare, and a cell that is the current best's own value object is
    skipped: equal is never LT."""
    cells = iter(T.finite_costs(j))
    best, best_cost = next(cells, (None, None))
    if best is None:
        raise MechanismError(f"job {j} has no finite-cost player")
    for i, c in cells:
        if c is not best_cost and tv_compare(c, best_cost) == LT:
            best, best_cost = i, c
    return best


class MinWork(MechanismHandle):
    """The min-work mechanism, answering each query from its last answer.

    A query along an edit chain decides again only the jobs whose columns
    the edits wrote. The handle keeps one instance and its allocation; a
    query that raises leaves them as they were."""

    name = "minwork"

    def __init__(self):
        self._last = None

    def query(self, T):
        x = minwork_allocate(T, self._last)
        self._last = T, x
        return x


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
        return MinWork()
    if selector == "optmakespan":
        return BuiltinMechanism("optmakespan", optmakespan_allocate)
    kind, colon, arg = selector.partition(":")
    if colon and kind == "extern":
        return ExternalMechanism(arg)
    if colon and kind in ("dictator", "stub", "activestub"):
        try:
            number = int(arg)
        except ValueError:
            raise MechanismError(
                f"mechanism selector {quoted(selector)} needs an integer"
            )
        if kind == "dictator":
            return BuiltinMechanism(selector, lambda T: Allocation([number] * T.m))
        return SeededStub(number, active_only=kind == "activestub")
    raise MechanismError(f"unknown mechanism selector {quoted(selector)}")
