import inspect
import json
import random
import select
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from mechdock import schedmodel
from mechdock.exactnum import EPS1, EPS2, INF, ZERO, json_int, parse_int, parse_value, tv
from mechdock.forge import MainParams, build_main, d2x2
from mechdock.schedmodel import (
    Allocation,
    BuiltinMechanism,
    ExternalMechanism,
    Instance,
    MechanismError,
    ModelError,
    active_players,
    checked_query,
    json_text,
    makespan,
    validate_allocation,
)

NR = Instance([[1, 0, "inf"], [1, "inf", 0]], dummy_of={1: 2, 2: 3})


def test_load_basics():
    # makespan sums each player's load in one pass and takes the largest
    T = Instance([[1, 2], [3, 4]])
    assert makespan(T, Allocation([1, 1])) == tv(3)  # player 2 holds nothing
    assert makespan(T, Allocation([2, 2])) == tv(7)
    assert makespan(Instance([[0, 0], [1, 1]]), Allocation([1, 1])) == ZERO


def test_load_infinite_entry():
    # one job at infinite cost makes the makespan infinite
    assert makespan(Instance([[1, "inf"], [1, 1]]), Allocation([1, 1])) == INF


def test_makespan():
    assert makespan(Instance([[1, 2], [3, 4]]), Allocation([1, 2])) == tv(4)
    assert makespan(NR, Allocation([1, 1, 2])) == tv(1)
    assert makespan(NR, Allocation([1, 2, 2])) == INF


def makespan_oracle(T, x):
    """makespan as first written: each cost read through T.cost and added
    to its player's load one job at a time."""
    loads = [ZERO] * T.n
    for j, i in enumerate(x.owner, start=1):
        c = T.cost(i, j)
        if c.infinite:
            return INF
        loads[i - 1] = loads[i - 1] + c
    return max(loads)


def test_makespan_matches_the_per_job_oracle():
    rng = random.Random(36)
    # the r=36 chain: block prices over many large denominators
    instances = [build_main(MainParams(Fraction(1989, 1000), 36, 36))] * 20
    cells = ["inf", "0", "1", "1/3", "2-1e1", "1e1+1/7e2", "5/6+1e3", "1e2"]
    for _ in range(500):
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        instances.append(
            Instance([[rng.choice(cells) for _ in range(m)] for _ in range(n)])
        )
    for T in instances:
        active = [[i for i, _ in T.finite_costs(j)] or [1] for j in T.jobs()]
        for _ in range(3):
            x = Allocation(rng.choice(players) for players in active)
            assert makespan(T, x) == makespan_oracle(T, x)
        x = Allocation(rng.randint(1, T.n) for _ in T.jobs())
        assert makespan(T, x) == makespan_oracle(T, x)


def test_active_players():
    assert active_players(NR, 2) == {1}
    assert active_players(NR, 1) == {1, 2}
    assert active_players(Instance([[1, 1], [1, 1]]), 1) == {1, 2}


def test_validate_allocation():
    T = Instance([[1, 2], [3, 4]])
    assert validate_allocation(T, Allocation([1, 2])) == []
    assert validate_allocation(T, Allocation([1]))
    assert validate_allocation(T, Allocation([0, 2]))
    assert validate_allocation(T, Allocation([1, 3]))


def test_an_invalid_allocation_message_is_bounded():
    # a long player number is quoted by its first digits and digit count,
    # and a wide instance's message names three defects and counts the rest
    T = Instance([[1] * 50])
    big = int("9" * 4300)
    assert validate_allocation(T, Allocation([1] * 49 + [-big])) == [
        "job 50 assigned to out-of-range player -99999999999999999999... "
        "(4300 digits)"
    ]
    mech = BuiltinMechanism("wild", lambda T: Allocation([big] * T.m))
    with pytest.raises(MechanismError) as exc:
        checked_query(mech, T)
    quoted = "out-of-range player 99999999999999999999... (4300 digits)"
    assert str(exc.value) == (
        "invalid allocation: "
        + "; ".join(f"job {j} assigned to {quoted}" for j in (1, 2, 3))
        + "; and 47 more"
    )
    # up to the cap, every defect is named in full, as before
    mech = BuiltinMechanism("wild", lambda T: Allocation([0, 7, 10**19]))
    with pytest.raises(MechanismError) as exc:
        checked_query(mech, Instance([[1, 1, 1]]))
    assert str(exc.value) == (
        "invalid allocation: job 1 assigned to out-of-range player 0; "
        "job 2 assigned to out-of-range player 7; "
        "job 3 assigned to out-of-range player 10000000000000000000"
    )


def test_instance_rejects_negative_costs():
    with pytest.raises(ModelError):
        Instance([[tv(-1), 1], [1, 1]])
    # a purely infinitesimal cost is negative when its leading tier is
    with pytest.raises(ModelError):
        Instance([["-1e1", 1], [1, 1]])
    # negative only at lower tiers is allowed
    Instance([[tv(1) - 2 * EPS1, 1], [1, 1]])
    Instance([[EPS1 - EPS2, 1], [1, 1]])


def test_instance_dummy_structure_enforced():
    with pytest.raises(ModelError):
        Instance([[1, 1], [1, 1]], dummy_of={1: 2})
    with pytest.raises(ModelError):
        Instance([[1, "inf"], [1, 0]], dummy_of={1: 2})
    Instance([[1, 0], [1, "inf"]], dummy_of={1: 2})


def test_instance_json_roundtrip():
    d = NR.to_json_dict()
    assert d["costs"][0] == ["1", "0", "inf"]
    assert d["dummy_of"] == {"1": 2, "2": 3}
    assert Instance.from_json_dict(json.loads(NR.to_json_line())) == NR


def test_allocation_json_roundtrip():
    x = Allocation([2, 1, 2])
    assert Allocation.from_json_dict(x.to_json_dict()) == x


def test_with_costs_is_functional():
    T2 = NR.with_costs([(1, 1, tv(5))])
    assert T2.cost(1, 1) == tv(5)
    assert NR.cost(1, 1) == tv(1)
    assert T2.dummy_of == NR.dummy_of


def test_makespan_invariant_under_player_permutation():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        T = Instance([[rng.randint(0, 5) for _ in range(m)] for _ in range(n)])
        x = Allocation([rng.randint(1, n) for _ in range(m)])
        perm = list(range(1, n + 1))
        rng.shuffle(perm)  # perm[i-1] = new index of player i
        T2 = Instance(
            [[T.cost(perm.index(p) + 1, j) for j in T.jobs()] for p in range(1, n + 1)]
        )
        x2 = Allocation([perm[x.owner_of(j) - 1] for j in T.jobs()])
        assert makespan(T, x) == makespan(T2, x2)


EXTERN_SCRIPT = Path(__file__).parent / "extern_minwork.py"


def _extern():
    return ExternalMechanism([sys.executable, str(EXTERN_SCRIPT)])


def test_external_mechanism_protocol():
    mech = _extern()
    try:
        T = Instance([[1, 2], [3, 1]])
        assert mech.query(T) == Allocation([1, 2])
        # second query over the same pipe
        assert mech.query(NR) == Allocation([1, 1, 2])
    finally:
        mech.close()


def test_external_mechanism_bad_reply():
    mech = ExternalMechanism([sys.executable, "-c", "print('not json')"])
    try:
        with pytest.raises(MechanismError):
            mech.query(Instance([[1]]))
    finally:
        mech.close()


MALFORMED_OWNERS = ["[1.9, 2.2]", '"12"', "[true, 2]", '["1", "2"]', "12", "null"]
REPLY_SCRIPT = Path(__file__).parent / "extern_reply.py"


@pytest.mark.parametrize("owner", MALFORMED_OWNERS)
def test_allocation_from_json_dict_rejects_owners_that_are_not_integer_lists(owner):
    with pytest.raises(ValueError, match="owner must be a list of integers"):
        Allocation.from_json_dict({"owner": json.loads(owner)})


@pytest.mark.parametrize("owner", MALFORMED_OWNERS)
def test_external_mechanism_rejects_a_malformed_owner(owner):
    reply = '{"owner": ' + owner + "}"
    mech = ExternalMechanism([sys.executable, str(REPLY_SCRIPT), reply])
    try:
        with pytest.raises(MechanismError, match="bad mechanism reply"):
            mech.query(Instance([[1, 2], [3, 1]]))
    finally:
        mech.close()


def test_external_mechanism_timeout(monkeypatch):
    monkeypatch.setenv("MECHDOCK_TIMEOUT_MS", "200")
    mech = ExternalMechanism(
        [sys.executable, "-c", "import time; time.sleep(30)"]
    )
    try:
        with pytest.raises(MechanismError, match="timed out"):
            mech.query(Instance([[1]]))
    finally:
        mech.close()


def test_external_mechanism_negative_timeout_uses_default(monkeypatch):
    # A negative or non-integer setting falls back to the 10 s default.
    mech = _extern()
    try:
        for raw in ("-5", "abc", "1.5"):
            monkeypatch.setenv("MECHDOCK_TIMEOUT_MS", raw)
            assert mech._timeout_s() == 10.0
            assert mech.query(Instance([[1, 2], [3, 1]])) == Allocation([1, 2])
    finally:
        mech.close()


def test_external_mechanism_query_after_the_child_exited():
    mech = ExternalMechanism([sys.executable, "-c", "pass"])
    try:
        mech._proc.wait(timeout=10)
        with pytest.raises(MechanismError, match="^mechanism process has exited$"):
            mech.query(Instance([[1]]))
    finally:
        mech.close()


def test_external_mechanism_child_that_closed_its_input_is_a_pipe_failure():
    # The child closes stdin, says so, and stays alive. The test waits for
    # that line without reading it, so the query's write finds no reader.
    script = "import os, time; os.close(0); print('closed', flush=True); time.sleep(30)"
    mech = ExternalMechanism([sys.executable, "-c", script])
    try:
        assert select.select([mech._proc.stdout.fileno()], [], [], 10)[0]
        with pytest.raises(
            MechanismError, match=r"^mechanism pipe failure: \[Errno 32\] Broken pipe$"
        ):
            mech.query(Instance([[1]]))
    finally:
        mech.close()


def test_external_mechanism_partial_reply_times_out(monkeypatch):
    # The child starts a reply and stalls before its newline.
    monkeypatch.setenv("MECHDOCK_TIMEOUT_MS", "500")
    script = (
        "import sys, time; sys.stdin.readline(); "
        "sys.stdout.write('{\"owner\": [1'); sys.stdout.flush(); time.sleep(30)"
    )
    mech = ExternalMechanism([sys.executable, "-c", script])
    try:
        start = time.monotonic()
        with pytest.raises(MechanismError, match="timed out"):
            mech.query(Instance([[1]]))
        assert time.monotonic() - start < 3
    finally:
        mech.close()


# 64 KiB plus 32 bytes per job: the longest reply line a 1-job query takes.
REPLY_LIMIT = 65536 + 32


@pytest.mark.parametrize(
    "ending, message",
    [
        ("'\\n'", "bad mechanism reply 'xxx"),
        ("'x'", f"^mechanism reply exceeds {REPLY_LIMIT} bytes$"),
    ],
    ids=["at-the-cap", "past-the-cap"],
)
def test_external_mechanism_caps_a_reply_line(ending, message, monkeypatch):
    # The child writes a line of REPLY_LIMIT bytes, then either ends it or
    # adds one more byte and stalls: the read stops at the cap, long before
    # the query's deadline, and holds about one line in memory.
    monkeypatch.setenv("MECHDOCK_TIMEOUT_MS", "20000")
    script = (
        "import sys, time; sys.stdin.readline(); "
        f"sys.stdout.write('x' * {REPLY_LIMIT} + {ending}); sys.stdout.flush(); "
        "time.sleep(30)"
    )
    mech = ExternalMechanism([sys.executable, "-c", script])
    try:
        start = time.monotonic()
        with pytest.raises(MechanismError, match=message):
            mech.query(Instance([[1]]))
        assert time.monotonic() - start < 10
    finally:
        mech.close()


def test_external_mechanism_close_closes_both_pipes():
    mech = _extern()
    assert mech.query(Instance([[1, 2], [3, 1]])) == Allocation([1, 2])
    mech.close()
    assert mech._proc.stdin.closed
    assert mech._proc.stdout.closed


def test_external_mechanism_close_kills_a_child_that_ignores_sigterm():
    script = (
        "import signal, sys, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "sys.stdin.readline(); print('{\"owner\": [1]}', flush=True); time.sleep(30)"
    )
    mech = ExternalMechanism([sys.executable, "-c", script])
    proc = mech._proc
    try:
        # The child answers only once it has set SIGTERM aside.
        assert mech.query(Instance([[1]])) == Allocation([1])
        mech.close()
        assert proc.returncode is not None
    finally:
        proc.kill()
        proc.wait(timeout=5)
        mech.close()


def test_external_mechanism_unread_request_times_out(monkeypatch):
    # The request is far larger than a pipe buffer and the child never reads
    # it, so the write itself must give up at the query's deadline.
    monkeypatch.setenv("MECHDOCK_TIMEOUT_MS", "500")
    T = build_main(MainParams(Fraction(199, 100), 36, 36))
    assert len(T.to_json_line()) > 200_000
    mech = ExternalMechanism([sys.executable, "-c", "import time; time.sleep(4)"])
    try:
        start = time.monotonic()
        with pytest.raises(MechanismError, match="timed out"):
            mech.query(T)
        assert time.monotonic() - start < 1.5
    finally:
        mech.close()


@pytest.mark.parametrize("cell", [(0, 1), (1, 0), (3, 1), (1, 3), (-1, 2)])
def test_with_costs_rejects_cells_outside_the_instance(cell):
    i, j = cell
    with pytest.raises(ModelError, match=f"player {i}, job {j} is outside the 2x2"):
        d2x2().with_costs([(1, 1, 5), (i, j, 7)])


@pytest.mark.parametrize("cell", [(0, 1), (3, 1), (1, 0), (1, 3)])
def test_cost_rejects_cells_outside_the_instance(cell):
    # unchecked, job 0 would read the last column and a player outside
    # 1..n would read infinity
    i, j = cell
    with pytest.raises(ModelError, match=f"player {i}, job {j} is outside the 2x2"):
        d2x2().cost(i, j)


@pytest.mark.parametrize("j", [0, 3, -1])
def test_finite_costs_rejects_jobs_outside_the_instance(j):
    # unchecked, job 0 would read the last column and job 3 an IndexError
    with pytest.raises(ModelError, match=f"job {j} is outside the 2x2"):
        d2x2().finite_costs(j)


# Small dense matrices over a few cell values, with the infinite one common,
# and edit lists over the same values.
CELLS = ["0", "1", "2", "1e1", "1/2+1e2", "inf"]
NEGATIVE_CELLS = CELLS + ["-1", "-1e1", "1-1e1", "-1/2+1e2"]


@st.composite
def matrices_and_edits(draw, cells=CELLS, edit_cells=CELLS):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(st.sampled_from(cells)) for _ in range(m)] for _ in range(n)]
    edit = st.tuples(
        st.integers(1, n), st.integers(1, m), st.sampled_from(edit_cells)
    )
    return rows, draw(st.lists(edit, max_size=8))


def _applied(rows, edits):
    rows = [list(row) for row in rows]
    for i, j, v in edits:
        rows[i - 1][j - 1] = v
    return rows


@given(matrices_and_edits())
def test_with_costs_equals_dense_rebuild(case):
    rows, edits = case
    T = Instance(rows)
    applied = _applied(rows, edits)
    dense = Instance(applied)
    # the same cells by job, each job's players given in descending order
    players = list(enumerate(applied, start=1))[::-1]
    by_job = [{i: row[j - 1] for i, row in players} for j in T.jobs()]
    for built in (T.with_costs(edits), Instance.from_columns(T.n, by_job)):
        assert built == dense
        assert built.to_json_dict() == dense.to_json_dict()
        for i in dense.players():
            for j in dense.jobs():
                expected = tv(applied[i - 1][j - 1])
                assert built.cost(i, j) == dense.cost(i, j) == expected
    assert Instance(rows) == T  # the original is unchanged


@given(matrices_and_edits())
def test_json_dict_roundtrip(case):
    rows, edits = case
    for T in (Instance(rows), Instance(rows).with_costs(edits)):
        assert Instance.from_json_dict(T.to_json_dict()) == T


def _first_negative(rows):
    for i, row in enumerate(rows, start=1):
        for j, v in enumerate(row, start=1):
            if tv(v) < ZERO:
                return f"negative cost at player {i}, job {j}"
    return None


@given(
    matrices_and_edits(NEGATIVE_CELLS), matrices_and_edits(CELLS, NEGATIVE_CELLS)
)
def test_negative_cost_names_first_cell_in_row_major_order(dense, edited):
    rows, _ = dense
    expected = _first_negative(rows)
    # from_columns gets every cell by job, infinite ones too, each job's
    # players descending, and checks them as the dense constructor does
    players = list(enumerate(rows, start=1))[::-1]
    by_job = [{i: row[j] for i, row in players} for j in range(len(rows[0]))]
    if expected is None:
        Instance(rows)
        built = Instance.from_columns(len(rows), by_job)
        assert built == Instance(rows)
        assert built.to_json_dict() == Instance(rows).to_json_dict()
    else:
        with pytest.raises(ModelError, match=f"^{expected}$"):
            Instance(rows)
        with pytest.raises(ModelError, match=f"^{expected}$"):
            Instance.from_columns(len(rows), by_job)
    # an edit is checked as the dense rebuild of its result would be
    rows, edits = edited
    expected = _first_negative(_applied(rows, edits))
    if expected is None:
        assert Instance(rows).with_costs(edits) == Instance(_applied(rows, edits))
    else:
        with pytest.raises(ModelError, match=f"^{expected}$"):
            Instance(rows).with_costs(edits)


@pytest.mark.parametrize(
    "n, columns, rows", [(0, [], []), (0, [{}], []), (2, [], [[], []])]
)
def test_from_columns_refuses_an_empty_instance_as_the_dense_constructor_does(
    n, columns, rows
):
    message = "^instance needs at least one player and one job$"
    with pytest.raises(ModelError, match=message):
        Instance.from_columns(n, columns)
    with pytest.raises(ModelError, match=message):
        Instance(rows)


@pytest.mark.parametrize("player", [0, -1, 3])
def test_from_columns_names_a_player_out_of_range(player):
    with pytest.raises(ModelError, match=f"^player {player} out of range at job 2$"):
        Instance.from_columns(2, [{1: 1}, {2: -1, player: 1}])


def test_from_columns_drops_an_infinite_cell():
    T = Instance.from_columns(2, [{1: INF, 2: 3}, {2: "inf", 1: 0}])
    assert T == Instance([[INF, 0], [3, "inf"]])
    assert list(T.finite_costs(1)) == [(2, tv(3))]
    assert list(T.finite_costs(2)) == [(1, ZERO)]


# Cells a stored matrix may hold: repeated texts, an infinity not spelled
# "inf", negatives, and malformed cells of every JSON type.
JSON_CELLS = (
    ["inf"] * 4
    + ["0", "1", "1e1", "1/2+1e2", " inf", "-1", "1-1e1", "1/0", "x", ""]
    + [5, 1.5, True, None, ["1"], {"1": "1"}]
)


# Odd rows: strings (which iterate by character) and dicts (by key), each
# an error since a stored row must be a list, and an empty list.
ODD_ROWS = ["", "1", "10", "inf", {"inf": "1", "1": "x"}, {"1": 2, "inf": 5}, []]


@st.composite
def stored_matrices(draw):
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    width = st.sampled_from([m, m, m, m + 1, max(m - 1, 0)])  # mostly even
    rows = [
        [draw(st.sampled_from(JSON_CELLS)) for _ in range(draw(width))]
        for _ in range(n)
    ]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_ROWS))
    d = {"costs": rows}
    dummy = draw(
        st.sampled_from(
            [None, {"1": 1}, {"2": "3"}, {"x": 1}, {"\u0661": 1}, {"1": 1.0}, {"1": True}]
        )
    )
    if dummy is not None:
        d["dummy_of"] = dummy
    return d


def _dense_reference(d):
    """Every row checked to be a list and every cell parsed, in reading
    order, then the dense constructor."""
    rows = []
    for r, row in enumerate(d["costs"], start=1):
        if not isinstance(row, list):
            raise ModelError(f"row {r} of the cost matrix is not a list")
        rows.append([parse_value(text) for text in row])
    dummy = {parse_int(p): json_int(j) for p, j in d.get("dummy_of", {}).items()}
    return Instance(rows, dummy)


def _outcome(build, d):
    try:
        return build(d)
    except ValueError as exc:
        return type(exc), str(exc)


@given(stored_matrices())
def test_from_json_dict_matches_dense_parse(d):
    assert _outcome(Instance.from_json_dict, d) == _outcome(_dense_reference, d)


@pytest.mark.parametrize("row", ["10", {"1": "2"}, ("1",), None])
def test_a_stored_row_that_is_not_a_list_is_an_error(row):
    # a string row used to load as its characters: ["10"] as [["1", "0"]]
    d = {"costs": [["1", "2"], row]}
    with pytest.raises(ModelError, match="^row 2 of the cost matrix is not a list$"):
        Instance.from_json_dict(d)


def test_each_read_has_a_memo_of_its_own(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_value(text)

    monkeypatch.setattr(schedmodel, "parse_value", counted)
    d = {"costs": [["1", "inf", "1/2"], ["1/2", "1", "inf"]]}
    assert Instance.from_json_dict(d) == Instance.from_json_dict(d)
    assert sorted(calls) == ["1", "1", "1/2", "1/2"]
    memo = inspect.signature(Instance.from_json_dict).parameters["parsed"]
    assert memo.default is None


# JSON trees whose lists are often all plain strings or all plain ints, so
# the writer's one-join paths and its per-item path both run.
PLAIN_TEXT = st.text(alphabet="0123456789/+-e inf", max_size=6)
ANY_TEXT = st.text(
    alphabet=st.sampled_from('a"\\\n\t\x00\x1f\x7fé€\u2028😀') | st.characters(),
    max_size=6,
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | PLAIN_TEXT
    | ANY_TEXT
)
JSON_TREES = st.recursive(
    SCALARS | st.lists(PLAIN_TEXT) | st.lists(st.integers()),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(ANY_TEXT | PLAIN_TEXT, kids, max_size=4),
    max_leaves=20,
)


@given(JSON_TREES)
def test_json_text_is_the_indent_1_dump(tree):
    assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=1)


def _compact_dump(T):
    return json.dumps(T.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _stored_dump(tree):
    return json.dumps(tree, sort_keys=True, indent=1)


# Request-line cells: the infinite one common, and tiered values whose
# lower tiers have negative coefficients.
LINE_CELLS = ["inf"] * 6 + ["0", "7", "1/3", "2-1e1", "3/2-7/3e2+1e3", "1e1-5e4"]


@st.composite
def request_instances(draw):
    """Instances of 1-12 players, some rows all infinite, and with a dummy
    job for some players (their indices sort differently as strings once
    there are ten of them)."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    rows = [[draw(st.sampled_from(LINE_CELLS)) for _ in range(m)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[i] = ["inf"] * m
    dummies = sorted(draw(st.sets(st.integers(1, n))))
    for k, p in enumerate(dummies):
        for i, row in enumerate(rows, start=1):
            row.append("1" if i == p else "inf")
    return Instance(rows, {p: m + k + 1 for k, p in enumerate(dummies)})


@given(request_instances())
def test_to_json_line_is_the_compact_dump(T):
    assert T.to_json_line() == _compact_dump(T)


def test_to_json_line_orders_dummy_players_as_strings():
    rows = [["1" if i == j else "inf" for j in range(12)] for i in range(12)]
    T = Instance(rows, {p: p for p in range(1, 13)})
    line = T.to_json_line()
    assert line == _compact_dump(T)
    assert '"dummy_of":{"1":1,"10":10,"11":11,"12":12,"2":2,' in line
    assert json_text(T) == _stored_dump(T.to_json_dict())


@st.composite
def trees_holding_an_instance(draw):
    """A request instance at depth 0-3 of a JSON tree, each level a list or
    a dict with a sibling beside it; and the same tree with the instance's
    dense to_json_dict in its place."""
    T = draw(request_instances())
    tree, dense = T, T.to_json_dict()
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            tree, dense = [1, tree, "x"], [1, dense, "x"]
        else:
            tree, dense = {"instance": tree, "n": [2]}, {"instance": dense, "n": [2]}
    return tree, dense


# all-infinite first and last rows, a finite last column, and a dummy job
# for ten players
EXTREMES = [
    Instance([["inf", "inf"], ["1", "inf"], ["inf", "inf"]]),
    Instance([["inf", "1/3"], ["2-1e1", "0"]]),
    Instance(
        [["1" if i == j else "inf" for j in range(10)] for i in range(10)],
        {p: p for p in range(1, 11)},
    ),
]


@given(trees_holding_an_instance())
@example((EXTREMES[0], EXTREMES[0].to_json_dict()))
@example(([EXTREMES[1]], [EXTREMES[1].to_json_dict()]))
@example(({"T": EXTREMES[2]}, {"T": EXTREMES[2].to_json_dict()}))
def test_json_text_writes_an_instance_as_its_dense_dump(case):
    tree, dense = case
    assert json_text(tree) == _stored_dump(dense)


def test_to_json_line_of_the_r36_chain():
    a = Fraction(199, 100) - Fraction(3, 10**4)
    T = build_main(MainParams(a, 36, 36))
    assert (T.n, T.m) == (109, 253)
    line = T.to_json_line()
    assert line == _compact_dump(T)
    # an edit shares the columns it does not write, and their rendered costs
    edited = T.with_costs([(1, 1, "inf"), (2, 1, "5-1e2")])
    assert edited.to_json_line() == _compact_dump(edited) != line
    assert T.to_json_line() == line
    # the stored layout comes from the same row writer
    stored = json_text({"verdict": {"instance": T}})
    assert stored == _stored_dump({"verdict": {"instance": T.to_json_dict()}})
    assert json_text(edited) == _stored_dump(edited.to_json_dict())
