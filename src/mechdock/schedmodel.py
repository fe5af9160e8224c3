"""Instances, allocations, loads/makespan, and the mechanism query interface.

Players and jobs are 1-indexed throughout. Instances and allocations are
immutable; edits produce new instances. An instance stores only its finite
cells, column by column, with infinity implicit (the block-chain instances
are under 1% finite), and an edit shares every column it does not write.
The JSON form is still the dense matrix, and json_text writes every stored
file in one layout. A mechanism is a deterministic black box mapping an
instance to an allocation, either built in or an external subprocess
speaking line-delimited JSON.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import time
from json.encoder import encode_basestring_ascii

from .exactnum import INF, ZERO, format_value, parse_value, tv

DEFAULT_TIMEOUT_MS = 10000
TIMEOUT_ENV_VAR = "MECHDOCK_TIMEOUT_MS"


class ModelError(ValueError):
    pass


class MechanismError(Exception):
    """Launch or protocol failure of a mechanism under test."""


class Instance:
    """An n x m matrix of processing times, with optional dummy-job metadata.

    Cells are stored by job: each column keeps only its finite entries, a
    dict from player to cost in ascending player order, and a player the
    column omits costs infinity. The constructor takes dense rows;
    from_columns takes the finite entries directly. An edit copies only
    the columns it touches and shares the rest with the original.

    dummy_of maps a player to the index of a job only that player can
    finitely process (the column is infinite for everyone else).
    """

    __slots__ = ("n", "m", "_cols", "_dummy_of")

    def __init__(self, costs, dummy_of=None):
        rows = [[tv(c) for c in row] for row in costs]
        cells = map(enumerate, rows)
        self._init(len(rows), _columns(list(map(len, rows)), cells), dummy_of)

    @classmethod
    def _of_columns(cls, n, cols, dummy_of):
        inst = object.__new__(cls)
        inst._init(n, cols, dummy_of)
        return inst

    def _init(self, n, cols, dummy_of):
        """Set the fields from checked columns and check the dummy jobs."""
        dummy = dict(sorted((int(p), int(j)) for p, j in (dummy_of or {}).items()))
        for p, j in dummy.items():
            if not (1 <= p <= n and 1 <= j <= len(cols)):
                raise ModelError(f"dummy_of entry out of range: {p} -> {j}")
            if p not in cols[j - 1]:
                raise ModelError(f"player {p}'s dummy job {j} costs infinity")
            for other in cols[j - 1]:
                if other != p:
                    raise ModelError(
                        f"job {j} is marked as player {p}'s dummy but player "
                        f"{other} has finite cost for it"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(cols))
        object.__setattr__(self, "_cols", tuple(cols))
        object.__setattr__(self, "_dummy_of", dummy)

    @classmethod
    def from_columns(cls, n, columns, dummy_of=None):
        """Instance with n players from one {player: cost} mapping per job
        holding its finite costs; a player a mapping leaves out costs
        infinity. Bad cells are reported in row-major order."""
        cols = [{i: tv(c) for i, c in sorted(col.items())} for col in columns]
        if n < 1 or not cols:
            raise ModelError("instance needs at least one player and one job")
        for i, j in sorted((i, j) for j, col in enumerate(cols, start=1) for i in col):
            if not 1 <= i <= n:
                raise ModelError(f"player {i} out of range at job {j}")
            if _negative(cols[j - 1][i]):
                raise ModelError(f"negative cost at player {i}, job {j}")
        cols = [{i: c for i, c in col.items() if c.finite} for col in cols]
        return cls._of_columns(n, cols, dummy_of)

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    @property
    def dummy_of(self):
        return dict(self._dummy_of)

    def cost(self, i, j):
        if 0 < j <= self.m and 0 < i <= self.n:
            return self._cols[j - 1].get(i, INF)
        raise ModelError(
            f"cost at player {i}, job {j} is outside the {self.n}x{self.m} instance"
        )

    def finite_costs(self, j):
        """Job j's (player, cost) pairs of finite cost, by ascending player."""
        return self._cols[j - 1].items()

    def players(self):
        return range(1, self.n + 1)

    def jobs(self):
        return range(1, self.m + 1)

    def with_costs(self, edits, dummy_of=None):
        """New instance with (player, job, value) replacements applied.

        Only the written cells are checked, and only their columns copied.
        """
        written = {}
        for i, j, v in edits:
            if not (1 <= i <= self.n and 1 <= j <= self.m):
                raise ModelError(
                    f"edit at player {i}, job {j} is outside the "
                    f"{self.n}x{self.m} instance"
                )
            written[i, j] = tv(v)
        changed = {}
        for (i, j), c in sorted(written.items()):
            if _negative(c):
                raise ModelError(f"negative cost at player {i}, job {j}")
            col = changed.get(j)
            if col is None:
                col = changed[j] = dict(self._cols[j - 1])
            if c.infinite:
                col.pop(i, None)
            else:
                col[i] = c
        cols = list(self._cols)
        for j, col in changed.items():
            cols[j - 1] = dict(sorted(col.items()))
        return self._of_columns(
            self.n, cols, self._dummy_of if dummy_of is None else dummy_of
        )

    def changed_jobs(self, other):
        """The jobs, ascending, whose columns differ between two instances of
        the same shape; a column an edit shared is skipped unread."""
        for j, (a, b) in enumerate(zip(self._cols, other._cols), start=1):
            if a is not b and a != b:
                yield j

    def rows_equal_except(self, other, i):
        """True when the two instances agree on every row but possibly i."""
        if (self.n, self.m) != (other.n, other.m):
            return False
        for j in self.changed_jobs(other):
            if _without(self._cols[j - 1], i) != _without(other._cols[j - 1], i):
                return False
        return True

    def to_json_dict(self):
        costs = [["inf"] * self.m for _ in range(self.n)]
        for j, col in enumerate(self._cols):
            for i, c in col.items():
                costs[i - 1][j] = format_value(c)
        d = {"n": self.n, "m": self.m, "costs": costs}
        if self._dummy_of:
            d["dummy_of"] = {str(p): j for p, j in self._dummy_of.items()}
        return d

    def to_json_line(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d):
        """Instance from its JSON form, read sparsely: only the cells that
        are not "inf" are parsed, each distinct text once. A malformed cell
        is reported before the matrix shape, as a dense parse would."""
        widths, cells, parsed = [], [], {}
        for row in d["costs"]:
            written = []
            for j, text in enumerate(row):
                if text == "inf":
                    continue
                try:
                    c = parsed[text]
                except KeyError:
                    c = parsed[text] = parse_value(text)
                except TypeError:  # unhashable, so not a string
                    c = parse_value(text)
                written.append((j, c))
            widths.append(len(row))
            cells.append(written)
        dummy = {int(p): int(j) for p, j in d.get("dummy_of", {}).items()}
        inst = cls._of_columns(len(widths), _columns(widths, cells), dummy)
        if inst.n != d.get("n", inst.n) or inst.m != d.get("m", inst.m):
            raise ModelError("instance dimensions disagree with matrix")
        return inst

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n == other.n
            and self._cols == other._cols
            and self._dummy_of == other._dummy_of
        )

    def __hash__(self):
        cols = tuple(tuple(col.items()) for col in self._cols)
        return hash((self.n, cols, tuple(self._dummy_of.items())))

    def __repr__(self):
        return f"Instance({self.n}x{self.m})"


def _negative(c):
    """A finite cost is negative when its leading coefficient is; the
    coefficient tuple is read directly because this runs on every finite
    cell."""
    return bool(c._coeffs) and c._coeffs[0][1].numerator < 0


def _columns(widths, cells):
    """One dict per job of the finite costs, from each row's width and its
    (0-based job, cost) cells in job order; a row may leave out infinite
    cells. A negative cost is an error naming the first such cell in
    row-major order."""
    if not widths or not widths[0]:
        raise ModelError("instance needs at least one player and one job")
    m = widths[0]
    if any(w != m for w in widths):
        raise ModelError("ragged cost matrix")
    cols = [{} for _ in range(m)]
    for i, row in enumerate(cells, start=1):
        for j, c in row:
            if c.infinite:
                continue
            if _negative(c):
                raise ModelError(f"negative cost at player {i}, job {j + 1}")
            cols[j][i] = c
    return cols


def _without(col, i):
    return {p: c for p, c in col.items() if p != i}


def json_text(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=1) for a tree
    whose dict keys are strings: the layout of every stored report,
    instance and violation file. The stdlib encodes an indented document
    in Python one value at a time; here a list of plain ints, or of
    strings that need no escaping, is written with one join, and the
    parts are joined once at the end."""
    parts = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _json_parts(obj, newline, parts):
    """Append obj's text to parts; newline breaks a line and indents it to
    obj's own depth."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner, sep = newline + " ", "{"
        for key, value in sorted(obj.items()):
            parts.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _json_parts(value, inner, parts)
            sep = ","
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + " "
        flat = _flat_items(obj, "," + inner)
        if flat is not None:
            parts.append("[" + inner + flat + newline + "]")
            return
        sep = "["
        for item in obj:
            parts.append(sep + inner)
            _json_parts(item, inner, parts)
            sep = ","
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))


def _flat_items(items, sep):
    """The items' texts joined by sep when they are all plain ints, or all
    strings that need no escaping (escaping only lengthens a string);
    otherwise None."""
    try:
        joined = "".join(items)
    except TypeError:
        if set(map(type, items)) == {int}:
            return sep.join(map(str, items))
        return None
    if len(encode_basestring_ascii(joined)) != len(joined) + 2:
        return None
    return '"' + ('"' + sep + '"').join(items) + '"'


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
    return frozenset(i for i, _ in T.finite_costs(j))


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
        os.set_blocking(self._proc.stdin.fileno(), False)

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

    def _write(self, data, deadline, timeout):
        """Send the request through the raw, non-blocking stdin pipe against
        the query's deadline, so a child that never reads cannot stall it."""
        fd = self._proc.stdin.fileno()
        view = memoryview(data)
        while view:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([], [fd], [], remaining)[1]:
                raise MechanismError(f"mechanism timed out after {timeout:.3f}s")
            try:
                view = view[os.write(fd, view) :]
            except BlockingIOError:
                continue
            except OSError as exc:
                raise MechanismError(f"mechanism pipe failure: {exc}")

    def _read_line(self, deadline, timeout):
        """One reply line, read from the raw pipe against the query's
        deadline, so a child that stalls mid-line times out as one that
        never answers."""
        fd = self._proc.stdout.fileno()
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
        if self._proc.poll() is not None:
            raise MechanismError("mechanism process has exited")
        timeout = self._timeout_s()
        deadline = time.monotonic() + timeout
        self._write(T.to_json_line().encode() + b"\n", deadline, timeout)
        line = self._read_line(deadline, timeout)
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
