"""Instances, allocations, loads/makespan, and the mechanism query interface.

Players and jobs are 1-indexed throughout. Instances and allocations are
immutable; edits produce new instances. A mechanism is a deterministic
black box mapping an instance to an allocation, either built in or an
external subprocess speaking line-delimited JSON.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import time

from .exactnum import INF, ZERO, format_value, parse_value, tv

DEFAULT_TIMEOUT_MS = 10000
TIMEOUT_ENV_VAR = "MECHDOCK_TIMEOUT_MS"


class ModelError(ValueError):
    pass


class MechanismError(Exception):
    """Launch or protocol failure of a mechanism under test."""


class Instance:
    """An n x m matrix of processing times, with optional dummy-job metadata.

    dummy_of maps a player to the index of a job only that player can
    finitely process (the column is infinite for everyone else).
    """

    __slots__ = ("n", "m", "_rows", "_dummy_of")

    def __init__(self, costs, dummy_of=None):
        rows = tuple(tuple(tv(c) for c in row) for row in costs)
        if not rows or not rows[0]:
            raise ModelError("instance needs at least one player and one job")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ModelError("ragged cost matrix")
        # A finite cost is negative when its leading coefficient is; the
        # coefficient tuple is read directly because this runs on every cell.
        for i, row in enumerate(rows, start=1):
            for j, c in enumerate(row, start=1):
                if c._coeffs and c._coeffs[0][1] < 0:
                    raise ModelError(f"negative cost at player {i}, job {j}")
        dummy = dict(sorted((int(p), int(j)) for p, j in (dummy_of or {}).items()))
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_dummy_of", dummy)
        for p, j in dummy.items():
            if not (1 <= p <= self.n and 1 <= j <= self.m):
                raise ModelError(f"dummy_of entry out of range: {p} -> {j}")
            if not self.cost(p, j).finite:
                raise ModelError(f"player {p}'s dummy job {j} costs infinity")
            for other in self.players():
                if other != p and self.cost(other, j).finite:
                    raise ModelError(
                        f"job {j} is marked as player {p}'s dummy but player "
                        f"{other} has finite cost for it"
                    )

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    @property
    def dummy_of(self):
        return dict(self._dummy_of)

    def cost(self, i, j):
        return self._rows[i - 1][j - 1]

    def row(self, i):
        return self._rows[i - 1]

    def players(self):
        return range(1, self.n + 1)

    def jobs(self):
        return range(1, self.m + 1)

    def with_costs(self, edits, dummy_of=None):
        """New instance with (player, job, value) replacements applied."""
        rows = [list(r) for r in self._rows]
        for i, j, v in edits:
            rows[i - 1][j - 1] = tv(v)
        return Instance(rows, self._dummy_of if dummy_of is None else dummy_of)

    def rows_equal_except(self, other, i):
        """True when the two instances agree on every row but possibly i."""
        if (self.n, self.m) != (other.n, other.m):
            return False
        return all(
            self._rows[k] == other._rows[k] for k in range(self.n) if k != i - 1
        )

    def to_json_dict(self):
        d = {
            "n": self.n,
            "m": self.m,
            "costs": [[format_value(c) for c in row] for row in self._rows],
        }
        if self._dummy_of:
            d["dummy_of"] = {str(p): j for p, j in self._dummy_of.items()}
        return d

    def to_json_line(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d):
        costs = [[parse_value(c) for c in row] for row in d["costs"]]
        inst = cls(costs, {int(p): int(j) for p, j in d.get("dummy_of", {}).items()})
        if inst.n != d.get("n", inst.n) or inst.m != d.get("m", inst.m):
            raise ModelError("instance dimensions disagree with matrix")
        return inst

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self._rows == other._rows and self._dummy_of == other._dummy_of

    def __hash__(self):
        return hash((self._rows, tuple(self._dummy_of.items())))

    def __repr__(self):
        return f"Instance({self.n}x{self.m})"


class Allocation:
    """Assignment of each job to exactly one player (owner vector)."""

    __slots__ = ("owner",)

    def __init__(self, owner):
        object.__setattr__(self, "owner", tuple(int(p) for p in owner))

    def __setattr__(self, name, value):
        raise AttributeError("Allocation is immutable")

    def owner_of(self, j):
        return self.owner[j - 1]

    def assigns(self, i, j):
        return self.owner[j - 1] == i

    def to_json_dict(self):
        return {"owner": list(self.owner)}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["owner"])

    def __eq__(self, other):
        if not isinstance(other, Allocation):
            return NotImplemented
        return self.owner == other.owner

    def __hash__(self):
        return hash(self.owner)

    def __repr__(self):
        return f"Allocation({list(self.owner)})"


def makespan(T, x):
    """Largest player load under a valid allocation x; infinite if any
    job is assigned at infinite cost."""
    loads = [ZERO] * T.n
    for j, i in enumerate(x.owner, start=1):
        c = T.cost(i, j)
        if c.infinite:
            return INF
        loads[i - 1] = loads[i - 1] + c
    return max(loads)


def active_players(T, j):
    return frozenset(i for i in T.players() if T.cost(i, j).finite)


def validate_allocation(T, x):
    """Structural defects of x against T; empty list when valid."""
    defects = []
    if len(x.owner) != T.m:
        defects.append(f"owner vector has length {len(x.owner)}, expected {T.m}")
        return defects
    for j, p in enumerate(x.owner, start=1):
        if not (1 <= p <= T.n):
            defects.append(f"job {j} assigned to out-of-range player {p}")
    return defects


def checked_query(mech, T):
    """Query a mechanism, raising MechanismError on an invalid allocation."""
    x = mech.query(T)
    defects = validate_allocation(T, x)
    if defects:
        raise MechanismError("invalid allocation: " + "; ".join(defects))
    return x


class MechanismHandle:
    """Deterministic black box: same instance, same allocation."""

    name = "mechanism"

    def query(self, T):
        raise NotImplementedError

    def close(self):
        pass


class BuiltinMechanism(MechanismHandle):
    def __init__(self, name, fn):
        self.name = name
        self._fn = fn

    def query(self, T):
        return self._fn(T)


class ExternalMechanism(MechanismHandle):
    """Child process speaking one JSON object per line on stdin/stdout.

    The engine writes an instance per line and expects an allocation per
    line back; anything else, or a timeout, is a protocol error. Queries
    on one handle must not be issued concurrently.
    """

    def __init__(self, command):
        self.name = f"extern:{command}"
        self._pending = b""
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise MechanismError(f"cannot launch mechanism {command!r}: {exc}")

    @staticmethod
    def _timeout_s():
        raw = os.environ.get(TIMEOUT_ENV_VAR, "")
        try:
            ms = int(raw) if raw else DEFAULT_TIMEOUT_MS
        except ValueError:
            ms = DEFAULT_TIMEOUT_MS
        if ms < 0:
            ms = DEFAULT_TIMEOUT_MS
        return ms / 1000.0

    def _read_line(self):
        """One reply line, read from the raw pipe against a single deadline,
        so a child that stalls mid-line times out as one that never answers."""
        fd = self._proc.stdout.fileno()
        timeout = self._timeout_s()
        deadline = time.monotonic() + timeout
        buf = self._pending
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise MechanismError(f"mechanism timed out after {timeout:.3f}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise MechanismError("mechanism closed its output stream")
            buf += chunk
        line, _, self._pending = buf.partition(b"\n")
        return line.decode("utf-8", "replace")

    def query(self, T):
        proc = self._proc
        if proc.poll() is not None:
            raise MechanismError("mechanism process has exited")
        try:
            proc.stdin.write(T.to_json_line().encode() + b"\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise MechanismError(f"mechanism pipe failure: {exc}")
        line = self._read_line()
        try:
            reply = json.loads(line)
            return Allocation.from_json_dict(reply)
        except (ValueError, KeyError, TypeError) as exc:
            raise MechanismError(f"bad mechanism reply {line!r}: {exc}")

    def close(self):
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.terminate()
            proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            pass
        proc.stdout.close()

    def __del__(self):
        self.close()
