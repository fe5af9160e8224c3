"""Instances, allocations, loads/makespan, and the mechanism query interface.

Players and jobs are 1-indexed throughout. Instances and allocations are
immutable; edits produce new instances. An instance stores only its finite
cells, column by column, with infinity implicit (the block-chain instances
are under 1% finite), and an edit shares every column it does not write.
The JSON form of an instance is the dense matrix. to_json_dict builds it
as a plain tree, which replay compares with a stored tree; a stored tree
is read back by from_json_dict, and the text of both written layouts
comes from one row writer working on the columns, each run of infinite
cells written at once: the one-line request sent to an external mechanism
(to_json_line), and the indented layout of every stored file (json_text).
A mechanism is a deterministic black box mapping an instance to an
allocation, either built in or an external subprocess speaking
line-delimited JSON.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import time
from json.encoder import encode_basestring_ascii

from .exactnum import (
    INF,
    format_value,
    json_int,
    parse_int,
    parse_value,
    quoted,
    tv,
    tv_sum,
)

DEFAULT_TIMEOUT_MS = 10000
TIMEOUT_ENV_VAR = "MECHDOCK_TIMEOUT_MS"
# The most digits of an out-of-range number (an owner's player, a dummy_of
# entry) that a defect writes, and the most defects that the "invalid
# allocation" message names.
_PLAYER_DIGITS = 20
_DEFECT_LIMIT = 3


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

    A column dict is never mutated once an instance holds it: with_costs
    writes into copies, and every other constructor builds fresh dicts.
    So a column two instances share is equal in both: changed_jobs and
    rows_equal_except skip it unread, and min-work keeps its owner when it
    answers an edited instance from its last answer. Columns are shared
    across edits of one instance, and across attacks too: every attack of
    one block chain starts from the one instance forge.main_chain keeps, so
    a min-work handle that answered one attack answers the next from its
    last answer just as soundly.

    The dense to_json_dict tree is the form a stored instance is read in
    and replayed against; the text an instance is written as, the request
    line and the stored layout alike, is written from the columns.

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
        dummy = dict(sorted((dummy_of or {}).items()))
        for p, j in dummy.items():
            if not (1 <= p <= n and 1 <= j <= len(cols)):
                raise ModelError(
                    "dummy_of entry out of range: "
                    f"{_quoted_player(p)} -> {_quoted_player(j)}"
                )
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
        infinity. Only the players are checked here; the columns are turned
        into rows, whose cells the dense constructor's rule checks."""
        rows = [[] for _ in range(n)]
        for j, col in enumerate(columns):
            for i, c in col.items():
                if not 1 <= i <= n:
                    raise ModelError(f"player {i} out of range at job {j + 1}")
                rows[i - 1].append((j, tv(c)))
        return cls._of_columns(n, _columns([len(columns)] * n, rows), dummy_of)

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
        if 0 < j <= self.m:
            return self._cols[j - 1].items()
        raise ModelError(f"job {j} is outside the {self.n}x{self.m} instance")

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

    def unshared_jobs(self, other):
        """The jobs, ascending, whose column dicts two instances of the same
        shape do not share: each job the edits between them wrote, and every
        job of two instances built apart. No column is read."""
        for j, (a, b) in enumerate(zip(self._cols, other._cols), start=1):
            if a is not b:
                yield j

    def changed_jobs(self, other):
        """The jobs, ascending, whose columns differ between two instances of
        the same shape; a column an edit shared is skipped unread."""
        cols, others = self._cols, other._cols
        return (j for j in self.unshared_jobs(other) if cols[j - 1] != others[j - 1])

    def rows_equal_except(self, other, i):
        """True when the two instances agree on every row but possibly i.
        Columns are compared in place: a column an edit shared is skipped,
        and a cell it copied is the same value object, so it passes on
        identity."""
        if (self.n, self.m) != (other.n, other.m):
            return False
        for a, b in zip(self._cols, other._cols):
            if a is b:
                continue
            if len(a) - (i in a) != len(b) - (i in b):
                return False
            for p, c in a.items():
                if p != i:
                    d = b.get(p)
                    if d is not c and d != c:
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

    def _finite_rows(self):
        """Each row's finite cells as (0-based job, format_value text), in
        job order."""
        rows = [[] for _ in range(self.n)]
        for j, col in enumerate(self._cols):
            for i, c in col.items():
                rows[i - 1].append((j, format_value(c)))
        return rows

    def to_json_line(self):
        """The one-line request an external mechanism reads: the bytes of
        json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")),
        written by the row writer json_text uses too."""
        parts = []
        self._write_json(parts, "", "", ":")
        return "".join(parts)

    def _write_json(self, parts, newline, indent, colon):
        """Append the text of json.dumps(self.to_json_dict(), sort_keys=True)
        to parts: newline breaks a line at the instance's own depth, indent
        deepens it one level and colon follows each key, so ("", "", ":")
        writes the compact request line and ("\n" + depth, " ", ": ") the
        indent=1 layout. Each row's finite cells are collected in job order
        and the "inf" cells between them written as runs, so a row costs
        work in its finite cells, not in m; a rendered cost never needs
        escaping."""
        key = newline + indent  # before each key of the instance's dict
        row = key + indent  # before each row of costs
        cell = row + indent  # before each cell of a row
        sep, opening = "," + cell, row + "[" + cell
        inf_run = sep + '"inf"'
        parts.append("{" + key + '"costs"' + colon + "[")
        start = opening
        for cells in self._finite_rows():
            # lead goes before the next cell: the row's opening, then sep
            lead, done = start, 0
            for j, text in cells:
                if j > done:
                    parts.append(lead + '"inf"' + inf_run * (j - done - 1))
                    lead = sep
                parts.append(lead + '"' + text + '"')
                lead, done = sep, j + 1
            if self.m > done:
                parts.append(lead + '"inf"' + inf_run * (self.m - done - 1))
            parts.append(row + "]")
            start = "," + opening
        parts.append(key + "]")
        if self._dummy_of:
            keyed = sorted((str(p), j) for p, j in self._dummy_of.items())
            entries = ",".join(f'{row}"{p}"{colon}{j}' for p, j in keyed)
            parts.append("," + key + '"dummy_of"' + colon + "{" + entries + key + "}")
        parts.append(
            f',{key}"m"{colon}{self.m},{key}"n"{colon}{self.n}{newline}}}'
        )

    @classmethod
    def from_json_dict(cls, d, parsed=None):
        """Instance from its JSON form, read sparsely: only the cells that
        are not "inf" are parsed, each distinct text once. Each row must be
        a list; a row that is not, or a malformed cell, is reported in
        reading order and before the matrix shape.

        parsed maps a text to its value; a caller reading instances that
        share most of their cells (the two of a WMON pair) passes one dict
        to them all, and by default each call has a fresh one. The "inf"
        cells are skipped by the loop's own string comparison, which on
        CPython 3.11 is faster than a compress over map(operator.ne, ...)."""
        if parsed is None:
            parsed = {}
        widths, cells = [], []
        for r, row in enumerate(d["costs"], start=1):
            if type(row) is not list:
                raise ModelError(f"row {r} of the cost matrix is not a list")
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
        dummy = {parse_int(p): json_int(j) for p, j in d.get("dummy_of", {}).items()}
        inst = cls._of_columns(len(widths), _columns(widths, cells), dummy)
        for key, size in (("n", inst.n), ("m", inst.m)):
            if key in d and json_int(d[key]) != size:
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


def json_text(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=1) for a tree
    whose dict keys are strings, with each Instance in it standing for its
    dense to_json_dict: the layout of every stored report, instance and
    violation file. The stdlib encodes an indented document in Python one
    value at a time; here an instance is written from its columns by the
    row writer to_json_line uses, a list of plain ints with one join, and
    every piece is appended to one list joined once at the end."""
    parts = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _json_parts(obj, newline, parts):
    """Append obj's text to parts; newline breaks a line and indents it to
    obj's own depth."""
    if isinstance(obj, Instance):
        obj._write_json(parts, newline, " ", ": ")
    elif isinstance(obj, dict):
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
        if set(map(type, obj)) == {int}:
            items = ("," + inner).join(map(str, obj))
            parts.append("[" + inner + items + newline + "]")
            return
        sep = "["
        for item in obj:
            parts.append(sep + inner)
            _json_parts(item, inner, parts)
            sep = ","
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))


class Allocation:
    """Assignment of each job to exactly one player (owner vector)."""

    __slots__ = ("owner",)

    def __init__(self, owner):
        object.__setattr__(self, "owner", tuple(owner))

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
        """Allocation from its JSON form, whose owner must be a list of
        integers: a float, a string or a boolean there is an error, not a
        player."""
        owner = d["owner"]
        if type(owner) is not list or any(type(p) is not int for p in owner):
            got = quoted(repr(owner), str)
            raise ValueError(f"owner must be a list of integers, got {got}")
        return cls(owner)

    def __eq__(self, other):
        if not isinstance(other, Allocation):
            return NotImplemented
        return self.owner == other.owner

    def __repr__(self):
        return f"Allocation({list(self.owner)})"


def makespan(T, x):
    """Largest player load under a valid allocation x; infinite if any
    job is assigned at infinite cost. Each owner's cell is read from its
    column, and each player's costs are summed at once."""
    held = [[] for _ in range(T.n)]
    for col, i in zip(T._cols, x.owner):
        c = col.get(i)
        if c is None:
            return INF
        if c._coeffs:  # a zero cost adds nothing
            held[i - 1].append(c)
    return max(map(tv_sum, held))


def active_players(T, j):
    return frozenset(i for i, _ in T.finite_costs(j))


def _quoted_player(p):
    """A player or job number as a defect names it: whole up to
    _PLAYER_DIGITS digits, else its sign, first _PLAYER_DIGITS digits and
    digit count."""
    digits = str(abs(p))
    if len(digits) <= _PLAYER_DIGITS:
        return str(p)
    sign = "-" if p < 0 else ""
    return f"{sign}{digits[:_PLAYER_DIGITS]}... ({len(digits)} digits)"


def validate_allocation(T, x):
    """Structural defects of x against T; empty list when valid."""
    defects = []
    if len(x.owner) != T.m:
        defects.append(f"owner vector has length {len(x.owner)}, expected {T.m}")
        return defects
    for j, p in enumerate(x.owner, start=1):
        if not (1 <= p <= T.n):
            defects.append(
                f"job {j} assigned to out-of-range player {_quoted_player(p)}"
            )
    return defects


def checked_query(mech, T):
    """Query a mechanism, raising MechanismError on an invalid allocation.
    The message names the first _DEFECT_LIMIT defects and counts the rest."""
    x = mech.query(T)
    defects = validate_allocation(T, x)
    if defects:
        shown = defects[:_DEFECT_LIMIT]
        if len(defects) > _DEFECT_LIMIT:
            shown.append(f"and {len(defects) - _DEFECT_LIMIT} more")
        raise MechanismError("invalid allocation: " + "; ".join(shown))
    return x


class MechanismHandle:
    """Deterministic black box: same instance, same allocation."""

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
        try:
            argv = shlex.split(command) if isinstance(command, str) else list(command)
            if not argv:
                raise ValueError("empty command")
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except (OSError, ValueError) as exc:
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

    def _read_line(self, deadline, timeout, limit):
        """One reply line of at most limit bytes, read from the raw pipe
        against the query's deadline, so a child that stalls mid-line times
        out as one that never answers, and one that writes without end is
        cut off once its line passes the limit."""
        fd = self._proc.stdout.fileno()
        buf = self._pending
        while b"\n" not in buf and len(buf) <= limit:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise MechanismError(f"mechanism timed out after {timeout:.3f}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise MechanismError("mechanism closed its output stream")
            buf += chunk
        line, _, self._pending = buf.partition(b"\n")
        if len(line) > limit:
            raise MechanismError(f"mechanism reply exceeds {limit} bytes")
        return line.decode("utf-8", "replace")

    def query(self, T):
        if self._proc.poll() is not None:
            raise MechanismError("mechanism process has exited")
        timeout = self._timeout_s()
        deadline = time.monotonic() + timeout
        self._write(T.to_json_line().encode() + b"\n", deadline, timeout)
        # The longest reply line taken, far above an owner list of T.m
        # player numbers, so that only a runaway child reaches it.
        line = self._read_line(deadline, timeout, 65536 + 32 * T.m)
        try:
            reply = json.loads(line)
            return Allocation.from_json_dict(reply)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise MechanismError(
                f"bad mechanism reply {quoted(line)}: {quoted(str(exc), str)}"
            )

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
        except subprocess.TimeoutExpired:
            # The child outlived SIGTERM: kill it and reap it.
            proc.kill()
            proc.wait()
        except OSError:
            pass
        proc.stdout.close()

    def __del__(self):
        self.close()
