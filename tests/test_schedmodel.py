import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mechdock.exactnum import EPS1, EPS2, INF, ZERO, parse_value, tv
from mechdock.forge import MainParams, build_main, d2x2
from mechdock.schedmodel import (
    Allocation,
    ExternalMechanism,
    Instance,
    MechanismError,
    ModelError,
    active_players,
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
    monkeypatch.setenv("MECHDOCK_TIMEOUT_MS", "-5")
    mech = _extern()
    try:
        assert mech.query(Instance([[1, 2], [3, 1]])) == Allocation([1, 2])
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


def test_external_mechanism_close_closes_both_pipes():
    mech = _extern()
    assert mech.query(Instance([[1, 2], [3, 1]])) == Allocation([1, 2])
    mech.close()
    assert mech._proc.stdin.closed
    assert mech._proc.stdout.closed


def test_external_mechanism_unread_request_times_out(monkeypatch):
    # The request is far larger than a pipe buffer and the child never reads
    # it, so the write itself must give up at the query's deadline.
    monkeypatch.setenv("MECHDOCK_TIMEOUT_MS", "500")
    T = build_main(MainParams.from_alpha(Fraction(199, 100), 36, 36))
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
        assert hash(built) == hash(dense)
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
    if expected is None:
        Instance(rows)
    else:
        with pytest.raises(ModelError, match=f"^{expected}$"):
            Instance(rows)
    # an edit is checked as the dense rebuild of its result would be
    rows, edits = edited
    expected = _first_negative(_applied(rows, edits))
    if expected is None:
        assert Instance(rows).with_costs(edits) == Instance(_applied(rows, edits))
    else:
        with pytest.raises(ModelError, match=f"^{expected}$"):
            Instance(rows).with_costs(edits)


# Cells a stored matrix may hold: repeated texts, an infinity not spelled
# "inf", negatives, and malformed cells of every JSON type.
JSON_CELLS = (
    ["inf"] * 4
    + ["0", "1", "1e1", "1/2+1e2", " inf", "-1", "1-1e1", "1/0", "x", ""]
    + [5, 1.5, True, None, ["1"], {"1": "1"}]
)


@st.composite
def stored_matrices(draw):
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    width = st.sampled_from([m, m, m, m + 1, max(m - 1, 0)])  # mostly even
    rows = [
        [draw(st.sampled_from(JSON_CELLS)) for _ in range(draw(width))]
        for _ in range(n)
    ]
    d = {"costs": rows}
    dummy = draw(st.sampled_from([None, {"1": 1}, {"2": "3"}, {"x": 1}]))
    if dummy is not None:
        d["dummy_of"] = dummy
    return d


def _dense_reference(d):
    """Every cell parsed, then the dense constructor."""
    rows = [[parse_value(text) for text in row] for row in d["costs"]]
    return Instance(rows, {int(p): int(j) for p, j in d.get("dummy_of", {}).items()})


def _outcome(build, d):
    try:
        return build(d)
    except ValueError as exc:
        return type(exc), str(exc)


@given(stored_matrices())
def test_from_json_dict_matches_dense_parse(d):
    assert _outcome(Instance.from_json_dict, d) == _outcome(_dense_reference, d)


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
