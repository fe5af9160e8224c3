import functools
import io
import json
import os
import re
import shlex
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mechdock import cli
from mechdock.adversary import replay_report
from mechdock.cli import main
from mechdock.exactnum import quoted
from mechdock.forge import ForgeError
from mechdock.mechlib import MinWork
from mechdock.schedmodel import Instance, MechanismError, MechanismHandle

EXTERN = f"extern:{sys.executable} {Path(__file__).parent / 'extern_minwork.py'}"


def test_gen_block_chain(tmp_path, capsys):
    out = tmp_path / "an.json"
    rc = main(
        [
            "gen",
            "--construction",
            "an",
            "--r",
            "3",
            "--a",
            "1873/1000",
            "--kc",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    inst = Instance.from_json_dict(json.loads(out.read_text()))
    assert (inst.n, inst.m) == (10, 22)


def test_gen_small(tmp_path):
    out = tmp_path / "d.json"
    assert main(["gen", "--construction", "d2x2", "--out", str(out)]) == 0
    inst = Instance.from_json_dict(json.loads(out.read_text()))
    assert (inst.n, inst.m) == (2, 2)


def test_gen_bad_scale_factor(tmp_path):
    rc = main(
        [
            "gen",
            "--construction",
            "an",
            "--r",
            "3",
            "--a",
            "3",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("a", ["0", "-1"])
def test_a_nonpositive_3x3_scale_is_a_usage_error(a, tmp_path, capsys):
    # it used to escape as a ModelError traceback, end StrategyIncomplete,
    # or (gen at a = 0) write an instance
    message = "3x3 construction needs a > 0\n"
    out = tmp_path / "e.json"
    assert main(["gen", "--construction", "e3x3", "--a", a, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cannot build instance: {message}"
    assert not out.exists()
    for mechanism in ("minwork", "activestub:1"):
        argv = ["attack", "--strategy", "s3x3", "--mechanism", mechanism, "--a", a]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"bad parameters: {message}"


def test_attack_3x3_summary(tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main(
        [
            "attack",
            "--strategy",
            "s3x3",
            "--mechanism",
            "minwork",
            "--report",
            str(report),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "RatioWitness" in out
    # Minwork hands player 3 all three jobs, so the run ends in the "player 3
    # kept everything" arm of square3, which claims (a + b + c) / c at the
    # documented defaults.
    a, b, c = Fraction(1), Fraction(22055, 10000), Fraction(26589, 10000)
    expected = (a + b + c) / c
    assert expected == Fraction(19548, 8863)
    assert f"bound {float(expected):.6f} ({expected})" in out
    stored = json.loads(report.read_text())
    assert stored["strategy"] == "s3x3"
    printed = re.search(r"bound \S+ \((\d+(?:/\d+)?)\)", out)
    assert printed is not None
    claimed = Fraction(stored["verdict"]["claimed_bound"])
    assert Fraction(printed.group(1)) == claimed
    assert claimed >= Fraction(22055, 10000)


def test_attack_main_and_verify_roundtrip(tmp_path, capsys):
    report = tmp_path / "main.json"
    rc = main(
        [
            "attack",
            "--strategy",
            "main",
            "--r",
            "3",
            "--a",
            "1873/1000",
            "--kc",
            "3",
            "--mechanism",
            "minwork",
            "--report",
            str(report),
        ]
    )
    assert rc == 0
    assert main(["verify", "--report", str(report)]) == 0
    expected = "verdict checked, replay against mechanism minwork matched"
    assert expected in capsys.readouterr().out
    doc = json.loads(report.read_text())
    doc["verdict"]["claimed_bound"] = "9"
    report.write_text(json.dumps(doc))
    assert main(["verify", "--report", str(report)]) == 1


def test_attack_extern_mechanism(tmp_path):
    report = tmp_path / "e.json"
    rc = main(
        ["attack", "--strategy", "s2x2", "--mechanism", EXTERN, "--report", str(report)]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"]["kind"] == "RatioWitness"


def test_verify_replays_extern_report_against_recorded_answers(tmp_path, capsys):
    report = tmp_path / "e.json"
    argv = ["attack", "--strategy", "s2x2", "--mechanism", EXTERN]
    assert main(argv + ["--report", str(report)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 0
    expected = "verdict checked, replay against recorded answers matched"
    assert expected in capsys.readouterr().out
    doc = json.loads(report.read_text())
    # an edited answer sends the replay down another branch
    tampered = json.loads(json.dumps(doc))
    tampered["transcript"][0]["owner"] = [2, 2]
    report.write_text(json.dumps(tampered))
    assert main(["verify", "--report", str(report)]) == 1
    assert "verification failed" in capsys.readouterr().err
    # a dropped answer leaves the replay one answer short
    truncated = json.loads(json.dumps(doc))
    truncated["transcript"].pop()
    truncated["queries"] -= 1
    report.write_text(json.dumps(truncated))
    assert main(["verify", "--report", str(report)]) == 1
    assert "replay failed" in capsys.readouterr().err


def test_attack_rejects_a_malformed_extern_owner(tmp_path, capsys):
    # a float owner used to be truncated to Allocation([1, 2]) and verified
    script = Path(__file__).parent / "extern_reply.py"
    mech = f"extern:{sys.executable} {script} '{{\"owner\": [1.9, 2.2]}}'"
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s2x2", "--mechanism", mech]
    assert main(argv + ["--report", str(report)]) == 4
    assert capsys.readouterr().err == (
        "mechanism failure: bad mechanism reply '{\"owner\": [1.9, 2.2]}': "
        "owner must be a list of integers, got [1.9, 2.2]\n"
    )
    assert not report.exists()


@pytest.mark.parametrize(
    "mech, message",
    [
        (
            f"{sys.executable} {Path(__file__).parent / 'extern_reply.py'} "
            "'{\"owner\": [1]}'",
            "invalid allocation: owner vector has length 1, expected 2",
        ),
        (
            f"{sys.executable} {Path(__file__).parent / 'extern_reply.py'} "
            "'{\"owner\": [1, 7]}'",
            "invalid allocation: job 2 assigned to out-of-range player 7",
        ),
        (f"{sys.executable} -c pass", "mechanism closed its output stream"),
        (
            # one byte past the cap of a 2-job query, then no newline
            f"{sys.executable} -c \"import sys, time; sys.stdin.readline(); "
            "sys.stdout.write('x' * 65601); sys.stdout.flush(); time.sleep(30)\"",
            "mechanism reply exceeds 65600 bytes",
        ),
    ],
    ids=["short-owner", "out-of-range-owner", "silent-exit", "overlong-reply"],
)
def test_attack_a_bad_extern_answer_is_a_mechanism_failure(mech, message, capsys):
    argv = ["attack", "--strategy", "s2x2", "--mechanism", f"extern:{mech}"]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"mechanism failure: {message}\n"


@pytest.mark.parametrize("verdict", [None, {"kind": "StrategyIncomplete"}])
def test_verify_refuses_to_replay_a_chain_larger_than_the_report(
    verdict, tmp_path, capsys
):
    # replay used to build the r = 300 chain the edited params name, in
    # about half a second, before it found the report differs
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "main", "--mechanism", "minwork"]
    assert main(argv + ["--r", "3", "--a", "1873/1000", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["params"].update(r="300", kc="300")
    if verdict is not None:
        # it stores no instance, so its shape is read from the transcript
        doc["verdict"] = {**verdict, "step": 1, "diagnostic": "edited"}
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    start = time.process_time()
    assert main(["verify", "--report", str(report)]) == 1
    assert time.process_time() - start < 0.1
    assert capsys.readouterr().err == (
        "verification failed: stored r and kc do not give the shape of the "
        "stored instance\n"
    )


@pytest.mark.parametrize("text", [" 3", "1_0"])
def test_verify_reads_a_stored_integer_only_as_it_is_written(text, tmp_path, capsys):
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "main", "--mechanism", "minwork"]
    assert main(argv + ["--r", "3", "--a", "1873/1000", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["params"]["r"] = text
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"verification failed: replay failed: malformed integer {text!r}\n"
    )


@pytest.mark.parametrize(
    "where, message",
    [
        (("verdict", "instance", "costs", 0, 0), "malformed report: malformed value"),
        (("verdict", "claimed_bound"), "malformed report: malformed rational"),
        (("params", "r"), "replay failed: malformed integer"),
    ],
    ids=["cell", "bound", "param"],
)
@pytest.mark.parametrize("digit", ["٣", "۳", "३", "３"])
def test_verify_reads_stored_numbers_in_ascii_digits_only(
    where, message, digit, tmp_path, capsys
):
    # int() reads each of these digits as 3
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "main", "--mechanism", "minwork"]
    assert main(argv + ["--r", "3", "--a", "1873/1000", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    node[last] = digit
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"verification failed: {message} {digit!r}")


LONG = "x" * 100_000


@pytest.mark.parametrize(
    "mech, path, value, length",
    [
        ("minwork", ["verdict", "instance", "costs", 0, 0], "x" + "1" * 100_000, None),
        ("minwork", ["verdict", "claimed_bound"], "9" * 4_000, None),
        # a list quoted whole: 1,000,078 bytes
        ("minwork", ["verdict", "mech_allocation", "owner"], [1.5] * 200_000, 10**6),
        ("minwork", ["verdict", "kind"], LONG, 100_002),
        ("dictator:2", ["verdict", "reason"], LONG, 100_002),
        ("minwork", ["strategy"], LONG, None),
        ("minwork", ["mechanism"], LONG, None),
        ("minwork", ["mechanism"], "dictator:" + LONG, None),
        ("minwork", ["params", LONG], "1", 100_004),
    ],
    ids=[
        "bad-cell",
        "long-bound",
        "owner",
        "kind",
        "reason",
        "strategy",
        "mechanism",
        "selector-integer",
        "param-name",
    ],
)
def test_verify_quotes_a_long_stored_text_on_a_short_line(
    mech, path, value, length, tmp_path, capsys
):
    # each line used to quote the text whole, from 4,061 bytes (long-bound)
    # to 1,000,078 (owner); length is that of the text's repr where the
    # message quotes a repr, and of the text itself by default
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s2x2", "--mechanism", mech]
    assert main(argv + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    _set(path, value)(doc)
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 512
    assert f"... ({length or len(value)} characters)" in err


def test_verify_writes_a_ratio_past_the_integer_text_limit_on_a_short_line(
    tmp_path, capsys
):
    # str() of the 9,003-character leading ratio used to raise: its
    # numerator has more than 4,300 digits
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s2x2", "--mechanism", "minwork"]
    assert main(argv + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    big = 10**3000
    doc["verdict"]["instance"]["costs"][0] = [f"1/{big + 1}", f"1/{big + 3}"]
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 512
    assert err.startswith(
        "verification failed: claimed bound 2 not met: leading ratio 2000"
    )
    assert err.endswith("... (9003 characters)\n")


# Deep enough that json's decoder exceeds the interpreter's recursion limit.
DEEPLY_NESTED = "[" * 100_000


def test_attack_a_deeply_nested_extern_reply_is_a_mechanism_failure(capsys):
    # half of DEEPLY_NESTED: still too deep for the decoder, and within the
    # 65,600-byte reply line a 2-job query accepts
    script = Path(__file__).parent / "extern_reply.py"
    mech = f"extern:{sys.executable} {script} '{DEEPLY_NESTED[:50_000]}'"
    assert main(["attack", "--strategy", "s2x2", "--mechanism", mech]) == 4
    err = capsys.readouterr().err
    assert err.startswith("mechanism failure: bad mechanism reply '[[[")
    assert "'... (50000 characters): maximum recursion depth exceeded" in err
    # the reply is quoted by its first 200 characters, on one short line
    assert err.count("\n") == 1 and len(err.encode()) < 1024


def _valid_owner(data):
    """Whether reply bytes hold an allocation every s2x2 query accepts: a
    JSON object whose "owner" is two integers, each player 1 or 2."""
    try:
        reply = json.loads(data.decode("utf-8", "replace"))
    except (ValueError, RecursionError):
        return False
    owner = reply.get("owner") if type(reply) is dict else None
    return (
        type(owner) is list
        and len(owner) == 2
        and all(type(p) is int and p in (1, 2) for p in owner)
    )


_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.floats(allow_nan=False, width=16),
        st.text(max_size=3),
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=3), kids)
    ),
    max_leaves=6,
)
_owners = st.one_of(
    st.sampled_from([[1, 1], [1, 2], [2, 1], [2, 2]]),
    _json_values,
    st.builds(lambda d: f"[1, {'9' * d}]", st.sampled_from([4300, 4301, 6000])),
)


@st.composite
def _hostile_replies(draw):
    """Reply bytes on one line (argv cannot carry NUL): an object with an
    owner and extra keys, any JSON value, nesting or raw bytes, then maybe
    trailing data and a byte that is not UTF-8."""
    owner = draw(_owners)
    fields = [("owner", owner if isinstance(owner, str) else json.dumps(owner))]
    extra = draw(st.dictionaries(st.text(max_size=3), _json_values, max_size=2))
    fields += [(key, json.dumps(v)) for key, v in extra.items()]
    record = "{%s}" % ", ".join(f"{json.dumps(key)}: {v}" for key, v in fields)
    body = draw(
        st.one_of(
            st.just(record),
            _json_values.map(json.dumps),
            st.sampled_from(["[" * 100_000, '{"owner": ' + "[" * 50, "", "owner"]),
        )
    )
    data = (body + draw(st.sampled_from(["", " ", " x", "}", "{}", "\r"]))).encode()
    data += draw(st.binary(max_size=4))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\x80", b"\xc3", b"\xff"]))
        data = data[:at] + bad + data[at:]
    return data.replace(b"\n", b"").replace(b"\0", b"")


@settings(max_examples=25, deadline=None)
@given(_hostile_replies())
@example(b'{"owner": [2, 1], "note": "\xff"}')
@example(b'{"owner": [1, ' + b"9" * 5000 + b"]}")
@example(b"[" * 100_000)
@example(b'{"owner": [1, 2]} x')
@example(b'{"owner": [' + b'"a", ' * 100 + b'"a"]}')
@example(b'{"owner": [1, ' + b"9" * 4300 + b"]}")
@example(b'{"owner": [-' + b"9" * 4300 + b", " + b"9" * 4300 + b"]}")
def test_attack_ends_a_hostile_extern_reply_as_one_failure_line(data):
    # each example starts a child that answers every query with these bytes
    argv = [sys.executable, str(Path(__file__).parent / "extern_reply.py")]
    mech = "extern:" + shlex.join(argv + [os.fsdecode(data)])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["attack", "--strategy", "s2x2", "--mechanism", mech])
    if _valid_owner(data):
        assert (rc, err.getvalue()) == (0, "")
        assert out.getvalue().startswith("verdict ")
        return
    assert rc == 4 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("mechanism failure: ")
    # a bad reply is quoted whole up to 200 characters and cut beyond, and
    # an out-of-range player by its first 20 digits, so the line does not
    # grow with the reply
    assert len(err.getvalue().encode()) < 4096
    if "invalid allocation" in lines[0]:
        assert len(err.getvalue().encode()) < 512


def test_verify_a_deeply_nested_report_is_unreadable(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text(DEEPLY_NESTED)
    assert main(["verify", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot read report: maximum recursion depth exceeded")


def test_attack_mechanism_launch_failure():
    rc = main(
        ["attack", "--strategy", "s2x2", "--mechanism", "extern:/nonexistent-bin"]
    )
    assert rc == 4


def test_attack_requires_main_params(capsys):
    assert main(["attack", "--strategy", "main", "--mechanism", "minwork"]) == 2
    assert "missing parameter(s) ['a', 'r']" in capsys.readouterr().err


def test_flags_the_strategy_or_construction_does_not_take_are_usage_errors(
    tmp_path, capsys
):
    argv = ["attack", "--strategy", "s2x2", "--mechanism", "minwork"]
    assert main(argv + ["--a", "5", "--x", "3"]) == 2
    assert "unknown parameter(s) ['a', 'x']" in capsys.readouterr().err
    out = tmp_path / "d.json"
    argv = ["gen", "--construction", "d2x2", "--a", "5", "--out", str(out)]
    assert main(argv) == 2
    assert "unknown parameter(s) ['a']" in capsys.readouterr().err
    assert not out.exists()
    # parameters are checked before the mechanism is launched
    argv = ["attack", "--strategy", "s2x2", "--mechanism", "extern:/nonexistent-bin"]
    assert main(argv + ["--kc", "1"]) == 2


def test_a_rational_flag_with_a_zero_denominator_is_a_usage_error(capsys):
    argv = ["attack", "--strategy", "s3x3", "--mechanism", "minwork"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--a", "1/0"])
    assert exc.value.code == 2
    assert "bad rational '1/0'" in capsys.readouterr().err


def test_attack_infeasible_parameters_are_a_usage_error(capsys):
    # a = 199/100 at r = 3 pushes b_1 below its floor: the parameters are
    # wrong, the mechanism is never queried.
    argv = ["attack", "--strategy", "main", "--r", "3", "--a", "199/100"]
    assert main(argv + ["--mechanism", "minwork"]) == 2
    err = capsys.readouterr().err
    assert "below its floor" in err and "mechanism failure" not in err


@pytest.mark.parametrize(
    "command, r",
    [("gen", 700), ("attack", 651), ("extern", 660)],
)
def test_a_chain_past_the_integer_text_limit_is_one_usage_error_line(
    command, r, tmp_path, capsys
):
    # each used to end in a ValueError traceback, exit 1: gen while writing
    # the instance, attack after printing its verdict, extern while writing
    # the request line
    out = str(tmp_path / "x.json")
    argv = {
        "gen": ["gen", "--construction", "an", "--out", out],
        "attack": ["attack", "--strategy", "main", "--mechanism", "minwork"],
        "extern": ["attack", "--strategy", "main", "--mechanism", EXTERN],
    }[command]
    if command == "attack":
        argv += ["--report", out]
    assert main(argv + ["--a", "1999/1000", "--r", str(r)]) == 2
    captured = capsys.readouterr()
    prefix = "cannot build instance" if command == "gen" else "bad parameters"
    assert captured.out == ""
    assert captured.err == (
        f"{prefix}: block chain r={r} k_c={r} writes integers past 4300 digits, "
        "the interpreter's limit for integer text\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize("shape", [["--r", "1000000"], ["--r", "3", "--kc", "1000000"]])
def test_a_chain_far_past_the_limit_is_refused_before_it_is_computed(
    shape, tmp_path, capsys
):
    # the recurrence at r = 2,000 alone takes seconds, and the powers of
    # a = p/q at r = 10^6 take seconds more
    argv = ["gen", "--construction", "an", "--out", str(tmp_path / "x.json")]
    argv += ["--a", "1999/1000", *shape]
    start = time.process_time()
    assert main(argv) == 2
    assert time.process_time() - start < 0.1
    assert "writes integers past 4300 digits" in capsys.readouterr().err


def test_bounds_never_builds_the_chain_so_no_integer_limit_applies(capsys):
    assert main(["bounds", "--r-list", "700"]) == 0
    assert capsys.readouterr().out.startswith("r=700 n=2101 k_c=700 a=1.990000 ")


UNWRITABLE = (
    "writes integers past 4300 digits, the interpreter's limit for integer text"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["attack", "--strategy", "s3x3", "--b", "1e5000", "--c", "1e5001"],
            f"bad parameters: 3x3 construction {UNWRITABLE}",
        ),
        (
            ["gen", "--construction", "e3x3", "--b", "1e5000", "--c", "1e5001"],
            f"cannot build instance: 3x3 construction {UNWRITABLE}",
        ),
        (
            ["attack", "--strategy", "s3x4", "--x", "1e5000"],
            f"bad parameters: 3x4 construction {UNWRITABLE}",
        ),
        (
            ["gen", "--construction", "f3x4", "--x", "1e5000"],
            f"cannot build instance: 3x4 construction {UNWRITABLE}",
        ),
        # each parameter is under the limit, but the claim b/a has 4,401 digits
        (
            ["attack", "--strategy", "s3x3", "--a=1e-2200", "--b=1e2200", "--c=1e2201"],
            f"bad parameters: 3x3 construction {UNWRITABLE}",
        ),
        (
            ["wmon", "--mechanism", "stub:1", "--grid", "1e5000", "--trials", "1"],
            f"bad --grid '1e5000': {UNWRITABLE}",
        ),
    ],
)
def test_a_small_construction_or_grid_past_the_limit_is_one_usage_error_line(
    argv, message, tmp_path, capsys
):
    # each used to end in a ValueError traceback, exit 1, while writing
    out = tmp_path / "x.json"
    if argv[0] == "attack":
        argv = [*argv, "--mechanism", "minwork", "--report", str(out)]
    elif argv[0] == "gen":
        argv = [*argv, "--out", str(out)]
    start = time.process_time()
    assert main(argv) == 2
    assert time.process_time() - start < 1
    assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()


def _digit_run(n):
    return "9" * n


# Digit counts near the boundaries: small, about half the 4,300-digit limit
# (where a product of two numbers passes it), and just under it.
_DIGITS = st.one_of(
    st.integers(1, 30), st.integers(2100, 2300), st.integers(4200, 4299)
)

# Texts Fraction() reads, as a number flag takes them: plain small values,
# exponent decimals, long digit runs, and tiny and huge fractions.
_NUMBER_TEXTS = st.one_of(
    st.sampled_from(["0", "1", "2", "5/2", "-3", "1/3", "1.5"]),
    st.builds(
        "{}e{}{}".format,
        st.integers(1, 99),
        st.sampled_from(["", "-"]),
        st.one_of(_DIGITS, st.integers(4300, 6000)),
    ),
    _DIGITS.map(_digit_run),
    st.builds(
        "{}/{}".format,
        _DIGITS.map(lambda n: 10**n + 1),
        _DIGITS.map(lambda n: 10**n + 3),
    ),
)

# The number flags of the small constructions, in attack and in gen.
NUMBER_FLAGS = {
    ("attack", "s3x3"): ["--a", "--b", "--c"],
    ("attack", "s3x4"): ["--x"],
    ("gen", "e3x3"): ["--a", "--b", "--c"],
    ("gen", "f3x4"): ["--x"],
}
ATTACKED = ["minwork", "dictator:1", "dictator:3", "stub:1", "activestub:2"]


@st.composite
def _number_commands(draw):
    """An attack or gen command setting some number flags of a small
    construction, or a wmon fuzz run on a drawn --grid, which also takes
    digit runs Fraction() refuses."""
    command = draw(st.sampled_from([*NUMBER_FLAGS, "wmon"]))
    if command == "wmon":
        texts = st.one_of(_NUMBER_TEXTS, st.integers(4301, 6000).map(_digit_run))
        grid = ",".join(draw(st.lists(texts, min_size=1, max_size=3)))
        return ["wmon", "--mechanism", "stub:1", "--trials", "1", f"--grid={grid}"]
    flags = sorted(draw(st.sets(st.sampled_from(NUMBER_FLAGS[command]), min_size=1)))
    numbers = [f"{flag}={draw(_NUMBER_TEXTS)}" for flag in flags]
    kind, which = command
    if kind == "gen":
        return ["gen", "--construction", which, *numbers]
    mech = draw(st.sampled_from(ATTACKED))
    return ["attack", "--strategy", which, "--mechanism", mech, *numbers]


@settings(max_examples=100, deadline=None)
@given(_number_commands())
@example(["attack", "--strategy", "s3x4", "--mechanism", "minwork", "--x=1e5000"])
@example(["wmon", "--mechanism", "stub:1", "--trials", "1", "--grid=1e5000"])
# its claim 1 + x is past the range of a float
@example(["attack", "--strategy", "s3x4", "--mechanism", "activestub:1", "--x=1e4000"])
def test_no_number_flag_ends_in_a_traceback(tmp_path_factory, argv):
    path = str(tmp_path_factory.mktemp("numbers") / "x.json")
    if argv[0] == "gen":
        argv = [*argv, "--out", path]
    elif argv[0] == "attack":
        argv = [*argv, "--report", path]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 4)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv, where, number",
    [
        (
            ["attack", "--strategy", "s3x4", "--x=1e10000000"],
            "argument --x",
            "1e10000000",
        ),
        (
            ["attack", "--strategy", "main", "--r", "3", "--a=1e-10000000"],
            "argument --a",
            "1e-10000000",
        ),
        (
            ["bounds", "--r-list", "3", "--optimize", "--tol=1e-10000000"],
            "argument --tol",
            "1e-10000000",
        ),
        (
            ["wmon", "--trials", "1", "--grid=0,1e10000000"],
            "bad --grid '0,1e10000000'",
            "1e10000000",
        ),
    ],
    ids=["x", "a", "tol", "grid"],
)
def test_an_exponent_past_twice_the_limit_is_refused_before_it_is_expanded(
    argv, where, number, capsys
):
    # Fraction() used to build 10^10000000 first: 9 s for --x
    if argv[0] != "bounds":
        argv = [*argv, "--mechanism", "minwork"]
    start = time.process_time()
    if argv[0] == "wmon":
        assert main(argv) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert time.process_time() - start < 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"{where}: bad rational {number!r}: exponent past 8600, twice the "
        "interpreter's limit for integer text"
    )


def test_an_exponent_is_expanded_when_there_is_no_digit_limit(monkeypatch):
    monkeypatch.setattr(cli, "int_digit_limit", lambda: 0)
    assert cli._fraction("1e9000") == 10**9000


def test_gen_names_the_range_of_the_scale_factor(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = ["gen", "--construction", "an", "--a", "1/2", "--r", "3", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "cannot build instance: a=1/2 outside (sqrt 2, 2)\n"
    assert not out.exists()


class _ClosingMinWork(MechanismHandle):
    """Min-work that records its close() call and, with fail_at, fails the
    fail_at-th query with a MechanismError."""

    name = "minwork"

    def __init__(self, fail_at):
        self.inner = MinWork()
        self.fail_at = fail_at
        self.queries = 0
        self.closed = False

    def query(self, T):
        self.queries += 1
        if self.queries == self.fail_at:
            raise MechanismError("stopped mid-strategy")
        return self.inner.query(T)

    def close(self):
        self.closed = True


@pytest.mark.parametrize("fail_at", [None, 2])
@pytest.mark.parametrize("command", ["attack", "wmon", "verify", "replay"])
def test_every_mechanism_handle_is_closed(command, fail_at, tmp_path, monkeypatch):
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s3x3", "--mechanism", "minwork"]
    assert main(argv + ["--report", str(report)]) == 0
    handles = []

    def factory(selector):
        handles.append(_ClosingMinWork(fail_at))
        return handles[-1]

    monkeypatch.setattr(cli, "make_mechanism", factory)
    if command == "replay":
        stored = json.loads(report.read_text())
        if fail_at is None:
            assert replay_report(stored, factory) == []
        else:
            with pytest.raises(MechanismError):
                replay_report(stored, factory)
    else:
        argv = {
            "attack": argv,
            "wmon": ["wmon", "--mechanism", "minwork", "--trials", "3"],
            "verify": ["verify", "--report", str(report)],
        }[command]
        failed = 1 if command == "verify" else 4
        assert main(argv) == (0 if fail_at is None else failed)
    (handle,) = handles
    assert handle.closed
    assert handle.queries == (fail_at or handle.queries) > 1


def test_attack_optmakespan_budget_is_a_mechanism_failure(capsys):
    argv = ["attack", "--strategy", "main", "--r", "10", "--a", "1966/1000"]
    assert main(argv + ["--mechanism", "optmakespan"]) == 4
    assert "mechanism failure: optmakespan" in capsys.readouterr().err


def test_wmon_optmakespan_searches_only_jobs_with_a_choice(capsys):
    # 1200 jobs with one player each have a single allocation; 30 jobs with
    # two players each exceed the node budget before any search
    argv = ["wmon", "--mechanism", "optmakespan", "--trials", "1"]
    assert main(argv + ["--n", "1", "--m", "1200"]) == 0
    assert capsys.readouterr().out == "0 violation(s) over 1 seeded trials\n"
    assert main(argv + ["--n", "2", "--m", "30", "--grid", "1"]) == 4
    assert capsys.readouterr().err == (
        "mechanism failure: optmakespan: search space exceeds 100000000 nodes "
        "before pruning\n"
    )


def test_bounds_reference_rows(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "--r-list", "3,4,5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,n,k_c,a,bound,feasible"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["3", "4", "5"]
    for row, want in zip(rows, ("2.873", "2.911", "2.932")):
        assert abs(float(Fraction(row[4])) - float(want)) < 0.005
        assert row[5] == "true"


def test_bounds_optimize_adds_rows(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--r-list", "3", "--optimize", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + table row + optimizer row
    # without a reference ratio the table row is the optimizer's row
    assert main(["bounds", "--r-list", "6", "--optimize", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2


def test_bounds_says_when_the_bracket_top_certifies(tmp_path, capsys):
    note = " (bracket top certifies; the optimum may lie above)"
    out = tmp_path / "b.csv"
    argv = ["bounds", "--r-list", "5,36", "--optimize", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].startswith("r=5 ") and not printed[1].endswith(note)
    assert printed[3] == f"r=36 n=109 k_c=36 a=1.990000 bound=2.990000{note}"
    assert [line for line in printed if line.endswith(note)] == [printed[3]]
    # the CSV rows carry no note
    assert out.read_text().splitlines()[4] == "36,109,36,199/100,299/100,true"


def test_bounds_rejects_a_tolerance_that_is_not_positive(capsys):
    # a zero tolerance used to bisect forever
    for tol in ("0", "-1/100"):
        argv = ["bounds", "--r-list", "5", "--optimize", f"--tol={tol}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "bounds failed: tolerance must be positive\n"


def test_bounds_refuses_a_tolerance_past_256_halvings_of_the_grid_step(capsys):
    # the bisection used to run on: 63 s at 1e-3000, killed at 65 s at 1e-4400
    start = time.process_time()
    assert main(["bounds", "--r-list", "3", "--optimize", "--tol=1e-4400"]) == 2
    assert time.process_time() - start < 1
    assert capsys.readouterr() == (
        "",
        "bounds failed: tolerance needs more than 256 halvings of the grid step "
        "(hi - lo)/32\n",
    )
    # about 226 halvings, and the 1e-7 of the prior-work ladder
    for tol in ("1e-70", "1e-7"):
        assert main(["bounds", "--r-list", "3", "--optimize", f"--tol={tol}"]) == 0
        assert capsys.readouterr().out.count("\n") == 2


def test_a_forge_error_of_any_command_is_one_usage_error_line(monkeypatch, capsys):
    # only gen, attack and bounds raise one today; another is worded by
    # its command name, not ended in a traceback
    def refuse(*args):
        raise ForgeError("refused")

    monkeypatch.setattr(cli, "fuzz", refuse)
    assert main(["wmon", "--mechanism", "minwork", "--trials", "1"]) == 2
    assert capsys.readouterr() == ("", "wmon failed: refused\n")


def test_bounds_names_a_bracket_without_a_certifying_scale(capsys):
    # r = 1's best a, near the golden ratio 1.618, lies below 17/10
    assert main(["bounds", "--r-list", "1", "--optimize"]) == 2
    err = capsys.readouterr().err
    assert err == "bounds failed: no feasible scale factor in the bracket\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--r-list", "6", "--kc", "-1"], "negative chain length"),
        (["--r-list", "0"], "need at least one block"),
        (["--r-list", "-2"], "need at least one block"),
        (["--r-list", "3", "--kc", "-1"], "negative chain length"),
    ],
)
def test_bounds_names_a_bad_shape(flags, message, capsys):
    # the optimizer used to report a bad shape as an empty bracket
    assert main(["bounds", *flags]) == 2
    assert capsys.readouterr().err == f"bounds failed: {message}\n"


@pytest.mark.parametrize("r_list", ["", ",", " , ", "x"])
def test_bounds_bad_r_list_is_a_usage_error(r_list, tmp_path, capsys):
    # an empty list used to print nothing, exit 0 and write a bare header
    out = tmp_path / "b.csv"
    assert main(["bounds", f"--r-list={r_list}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"bad --r-list {r_list!r}\n"
    assert captured.out == ""
    assert not out.exists()


def test_wmon_fuzz_clean_and_exhaustive_violation(tmp_path, capsys):
    rc = main(
        ["wmon", "--mechanism", "minwork", "--trials", "300", "--seed", "5"]
    )
    assert rc == 0
    assert "0 violation(s)" in capsys.readouterr().out
    out = tmp_path / "v.json"
    rc = main(
        [
            "wmon",
            "--mechanism",
            "optmakespan",
            "--exhaustive",
            "--grid",
            "1,2,3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert len(json.loads(out.read_text())) >= 1


def test_wmon_exhaustive_honours_shape(capsys):
    argv = ["wmon", "--mechanism", "minwork", "--exhaustive", "--grid", "0,1"]
    assert main(argv + ["--n", "3", "--m", "1"]) == 0
    assert "over exhaustive 3x1 grid 0,1" in capsys.readouterr().out
    assert main(argv) == 0
    assert "over exhaustive 2x2 grid 0,1" in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["0,-1", ",", "", "1/0", "x"])
@pytest.mark.parametrize("exhaustive", [False, True])
def test_wmon_bad_grid_is_a_usage_error(grid, exhaustive, capsys):
    argv = ["wmon", "--mechanism", "minwork", "--trials", "5", f"--grid={grid}"]
    assert main(argv + ["--exhaustive"] * exhaustive) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"bad --grid {grid!r}")
    assert captured.out == ""


def test_wmon_zero_trials():
    assert main(["wmon", "--mechanism", "minwork", "--trials", "0"]) == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "0"], "bad --n 0: need at least 1"),
        (["--m", "0"], "bad --m 0: need at least 1"),
        (["--n", "-2"], "bad --n -2: need at least 1"),
        (["--m", "-1"], "bad --m -1: need at least 1"),
        (["--trials", "-3"], "bad --trials -3: need at least 0"),
    ],
)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_wmon_bad_shape_or_trials_is_a_usage_error(flags, message, exhaustive, capsys):
    argv = ["wmon", "--mechanism", "minwork", "--grid", "0,1"] + flags
    assert main(argv + ["--exhaustive"] * exhaustive) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def _append_the_last_step(doc):
    doc["transcript"].append(doc["transcript"][-1])


def _set_strategy(doc):
    doc["strategy"] = "s9x9"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_append_the_last_step, "replay produced a different report"),
        (_set_strategy, "replay failed: unknown strategy 's9x9'"),
    ],
    ids=["extra-step", "unknown-strategy"],
)
def test_verify_rejects_a_report_its_replay_does_not_reproduce(
    edit, message, tmp_path, capsys
):
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s2x2", "--mechanism", "minwork"]
    assert main(argv + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    edit(doc)
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"verification failed: {message}\n"


def test_verify_missing_file(tmp_path):
    assert main(["verify", "--report", str(tmp_path / "none.json")]) == 1


def test_help_names_the_exit_codes_and_the_timeout_variable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert (
        "exit codes: 0 success or a sound verdict, 1 verification failure,"
        " 2 usage error, 3 incomplete strategy, 4 mechanism failure"
    ) in out
    assert (
        "MECHDOCK_TIMEOUT_MS: per-query timeout of an extern: mechanism in ms;"
        " a negative or non-integer value means the default, 10000"
    ) in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--strategy", "bogus", "--mechanism", "minwork"])
    assert exc.value.code == 2


def test_attack_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        main(
            [
                "attack",
                "--strategy",
                "s3x4",
                "--mechanism",
                "minwork",
                "--report",
                str(path),
            ]
        )
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize(
    "selector", ["dictator:x", "stub:x", "activestub:", "extern:", "extern:'unclosed"]
)
@pytest.mark.parametrize("command", ["attack", "wmon"])
def test_malformed_mechanism_selector_is_a_mechanism_failure(selector, command, capsys):
    argv = [command, "--mechanism", selector]
    argv += ["--strategy", "s2x2"] if command == "attack" else ["--trials", "1"]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("mechanism failure: ")


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(verdict=[]),
        lambda doc: doc.update(verdict="x"),
        lambda doc: doc["verdict"]["instance"].update(dummy_of=[1]),
        lambda doc: doc.update(mechanism=5),
        # json.dumps writes float("inf") as Infinity, which json.load reads.
        lambda doc: doc["verdict"].update(claimed_bound="1/0"),
        lambda doc: doc["verdict"].update(claimed_bound=float("inf")),
        lambda doc: doc.update(
            verdict={
                "kind": "StrategyIncomplete",
                "step": float("inf"),
                "diagnostic": "",
            }
        ),
        lambda doc: doc["verdict"]["instance"].update(dummy_of={"6": float("inf")}),
        lambda doc: doc["params"].update(a="1/0"),
        lambda doc: doc["params"].update(a=float("inf")),
    ],
    ids=[
        "verdict-list",
        "verdict-string",
        "dummy-of-list",
        "mechanism-int",
        "bound-zero-denominator",
        "bound-infinite",
        "step-infinite",
        "dummy-infinite",
        "param-zero-denominator",
        "param-infinite",
    ],
)
def test_verify_rejects_a_malformed_report(edit, tmp_path, capsys):
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s3x3", "--mechanism", "minwork"]
    assert main(argv + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    edit(doc)
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 1
    assert capsys.readouterr().err.startswith("verification failed: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--construction", "d2x2", "--out"],
        ["attack", "--strategy", "s2x2", "--mechanism", "minwork", "--report"],
        ["bounds", "--r-list", "3", "--out"],
        ["wmon", "--mechanism", "minwork", "--trials", "1", "--out"],
    ],
    ids=["gen", "attack", "bounds", "wmon"],
)
def test_an_unwritable_output_path_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "x"
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {path}: ")
    assert not path.parent.exists()


def test_verify_checks_a_stored_monotonicity_violation(tmp_path, capsys):
    report = tmp_path / "v.json"
    argv = ["attack", "--strategy", "s2x2", "--mechanism", "stub:1"]
    assert main(argv + ["--report", str(report)]) == 0
    assert "verdict WmonViolation after 2 queries" in capsys.readouterr().out
    assert main(["verify", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    for field, value, defect in (
        ("value", "5", "stored value 5 differs from recomputed"),
        ("player", 1, "instances differ outside the cited row"),
    ):
        tampered = json.loads(json.dumps(doc))
        tampered["verdict"][field] = value
        report.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert main(["verify", "--report", str(report)]) == 1
        assert defect in capsys.readouterr().err


@pytest.mark.parametrize(
    "selector, kind, reason",
    [
        ("minwork", "RatioWitness", None),
        ("dictator:2", "Unbounded", "tier-gap"),
        ("stub:9", "Unbounded", "infinite-assignment"),
        ("stub:1", "WmonViolation", None),
    ],
)
def test_each_verdict_kind_round_trips_through_verify(
    selector, kind, reason, tmp_path, capsys
):
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s2x2", "--mechanism", selector]
    assert main(argv + ["--report", str(report)]) == 0
    verdict = json.loads(report.read_text())["verdict"]
    assert (verdict["kind"], verdict.get("reason")) == (kind, reason)
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 0
    assert capsys.readouterr().out.startswith("report verified")


@pytest.mark.parametrize(
    "flags",
    [
        ["--construction", "b_nr"],
        ["--construction", "c_kv", "--a", "8/5", "--k", "4"],
        ["--construction", "an", "--a", "9/5", "--r", "2", "--k", "4"],
        ["--construction", "an", "--a", "9/5", "--r", "2", "--b1", "1"],
    ],
)
def test_removed_constructions_and_flags_are_usage_errors(flags, tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def _set(path, value):
    """An edit setting the entry at `path` (keys and indices)."""

    def edit(node):
        *parents, last = path
        for key in parents:
            node = node[key]
        node[last] = value

    return edit


def _add_a_row_to_tprime(doc):
    tp = doc["verdict"]["Tprime"]
    tp["costs"].append(["1", "1"])
    tp["n"] += 1


def _incomplete(step, transcript=None):
    """An edit making the verdict a StrategyIncomplete stored at `step`,
    and with a transcript, storing that one."""

    def edit(doc):
        doc["verdict"] = {
            "kind": "StrategyIncomplete",
            "step": step,
            "diagnostic": "stopped",
        }
        if transcript is not None:
            doc["transcript"] = transcript

    return edit


MAIN_R1 = ["--strategy", "main", "--mechanism", "minwork"]
MAIN_R1 += ["--r", "1", "--a", "3313/2048"]


# One JSON edit of a genuine report per defect `verify` names: of an s2x2
# report against the selector given, or of the run the flags give. The
# minwork report is a RatioWitness on [[1-1e4, 1], [1+1e4, inf]] with
# certificate [2, 1]; dictator:2 gives a tier-gap Unbounded on
# [[1, 1e2], [0, 1/2e1]] with certificate [2, 1]; stub:9 gives an
# infinite-assignment Unbounded whose mechanism puts job 2 on player 2 at
# infinite cost; stub:1 gives a WmonViolation for player 2 with x = [2, 1].
VERIFY_DEFECTS = {
    "certificate-infinite": (
        "minwork",
        _set(["verdict", "certificate", "owner"], [1, 2]),
        "certificate has infinite makespan",
    ),
    "certificate-zero": (
        "minwork",
        _set(["verdict", "instance", "costs"], [["1-1e4", "0"], ["0", "inf"]]),
        "certificate has zero makespan",
    ),
    "infinite-reason-finite-makespan": (
        "stub:9",
        _set(["verdict", "mech_allocation", "owner"], [1, 1]),
        "reason says infinite assignment but mechanism makespan is finite",
    ),
    "tier-gap-certificate-zero": (
        "dictator:2",
        _set(["verdict", "instance", "costs", 0, 1], "0"),
        "tier-gap certificate has zero makespan",
    ),
    "no-tier-gap": (
        "dictator:2",
        _set(["verdict", "mech_allocation", "owner"], [2, 1]),
        "no tier gap between makespans",
    ),
    "unknown-reason": (
        "dictator:2",
        _set(["verdict", "reason"], "bogus"),
        "unknown unboundedness reason 'bogus'",
    ),
    "first-allocation-invalid": (
        "stub:1",
        _set(["verdict", "x", "owner"], [2, 7]),
        "first allocation invalid: job 2 assigned to out-of-range player 7",
    ),
    "second-allocation-invalid": (
        "stub:1",
        _set(["verdict", "xprime", "owner"], [1]),
        "second allocation invalid: owner vector has length 1, expected 2",
    ),
    "pair-preconditions": (
        "stub:1",
        _set(["verdict", "T", "costs", 1, 0], "inf"),
        "stored pair violates preconditions: job 1 assigned to player 2 at "
        "infinite cost in T",
    ),
    "sum-not-positive": (
        "stub:1",
        _set(["verdict", "xprime", "owner"], [2, 1]),
        "recomputed monotonicity sum is not positive",
    ),
    "unknown-kind": (
        "minwork",
        _set(["verdict", "kind"], "Bogus"),
        "malformed report: unknown verdict kind 'Bogus'",
    ),
    "instance-dimensions": (
        "minwork",
        _set(["verdict", "instance", "n"], 3),
        "malformed report: instance dimensions disagree with matrix",
    ),
    "instance-float-dimension": (
        "minwork",
        _set(["verdict", "instance", "n"], 2.0),
        "malformed report: expected an integer, got float",
    ),
    "dummy-of-out-of-range": (
        "minwork",
        _set(["verdict", "instance", "dummy_of"], {"1": 9}),
        "malformed report: dummy_of entry out of range: 1 -> 9",
    ),
    "pair-shapes-differ": (
        "stub:1",
        _add_a_row_to_tprime,
        "instances differ outside the cited row",
    ),
    # an exponent is not read: "1e99999" once overflowed str() in the "not
    # met" defect, and "1e2000000" took about a second to parse
    "bound-exponent": (
        "minwork",
        _set(["verdict", "claimed_bound"], "1e99999"),
        "malformed report: malformed rational '1e99999'",
    ),
    "bound-large-exponent": (
        "minwork",
        _set(["verdict", "claimed_bound"], "1e2000000"),
        "malformed report: malformed rational '1e2000000'",
    ),
    # a stored bound and a stored monotonicity sum are text, as written
    "bound-int": (
        "minwork",
        _set(["verdict", "claimed_bound"], 2),
        "malformed report: expected string, got int",
    ),
    "wmon-value-true": (
        "stub:1",
        _set(["verdict", "value"], True),
        "malformed report: expected string, got bool",
    ),
    "wmon-value-float": (
        "stub:1",
        _set(["verdict", "value"], 2.5),
        "malformed report: expected string, got float",
    ),
    "dummy-of-huge-job": (
        "minwork",
        _set(["verdict", "instance", "dummy_of"], {"1": 10**400}),
        "malformed report: dummy_of entry out of range: 1 -> "
        "10000000000000000000... (401 digits)",
    ),
    # A stored integer is a JSON int where the writer writes one (a step, a
    # player, a dummy job) and -?digits text in a dummy_of key. int() reads
    # the digits of any script ("\u0663" as 3), truncates a float (2.7 as
    # 2), and reads True as 1, " 2" as 2 and "1_0" as 10.
    "step-digit-of-another-script": (
        "minwork",
        _incomplete("\u0663"),
        "malformed report: expected an integer, got str",
    ),
    "step-float": (
        "minwork",
        _incomplete(2.7),
        "malformed report: expected an integer, got float",
    ),
    "player-true": (
        "stub:1",
        _set(["verdict", "player"], True),
        "malformed report: expected an integer, got bool",
    ),
    "player-float": (
        "stub:1",
        _set(["verdict", "player"], 2.0),
        "malformed report: expected an integer, got float",
    ),
    "player-spaced-text": (
        "stub:1",
        _set(["verdict", "player"], " 2"),
        "malformed report: expected an integer, got str",
    ),
    "player-grouped-text": (
        "stub:1",
        _set(["verdict", "player"], "1_0"),
        "malformed report: expected an integer, got str",
    ),
    "dummy-of-key-digit-of-another-script": (
        "minwork",
        _set(["verdict", "instance", "dummy_of"], {"\u0661": 1.9}),
        "malformed report: malformed integer '\u0661'",
    ),
    "dummy-of-float-job": (
        "minwork",
        _set(["verdict", "instance", "dummy_of"], {"1": 2.0}),
        "malformed report: expected an integer, got float",
    ),
    "dummy-of-true-job": (
        "minwork",
        _set(["verdict", "instance", "dummy_of"], {"1": True}),
        "malformed report: expected an integer, got bool",
    ),
    # each top-level field replay reads has the type the writer writes
    "mechanism-list": (
        "minwork",
        _set(["mechanism"], ["minwork"]),
        "stored mechanism is a list, not a string",
    ),
    "mechanism-int": (
        "minwork",
        _set(["mechanism"], 7),
        "stored mechanism is an integer, not a string",
    ),
    "strategy-list": (
        "minwork",
        _set(["strategy"], ["s2x2"]),
        "stored strategy is a list, not a string",
    ),
    "params-list": (
        MAIN_R1,
        _set(["params"], ["a", "r"]),
        "stored params is a list, not an object",
    ),
    "transcript-object": (
        "minwork",
        _set(["transcript"], {}),
        "stored transcript is an object, not a list",
    ),
    "chain-incomplete-without-queries": (
        MAIN_R1,
        _incomplete(1, transcript=[]),
        "stored r and kc do not give the shape of the stored instance",
    ),
    # each stored parameter is under the 4,300-digit limit, the claim b/a not
    "params-past-the-text-limit": (
        ["--strategy", "s3x3", "--mechanism", "minwork"],
        _set(
            ["params"],
            {"a": "1/1" + "0" * 2200, "b": "1" + "0" * 2200, "c": "1" + "0" * 2201},
        ),
        "replay failed: 3x3 construction writes integers past 4300 digits, the "
        "interpreter's limit for integer text",
    ),
}


@pytest.mark.parametrize("case", list(VERIFY_DEFECTS))
def test_verify_names_each_defect_of_an_edited_report(case, tmp_path, capsys):
    run, edit, message = VERIFY_DEFECTS[case]
    report = tmp_path / "r.json"
    if isinstance(run, str):
        run = ["--strategy", "s2x2", "--mechanism", run]
    assert main(["attack", *run, "--report", str(report)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(report)]) == 0
    assert capsys.readouterr().out.startswith("report verified")
    doc = json.loads(report.read_text())
    edit(doc)
    report.write_text(json.dumps(doc))
    assert main(["verify", "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"verification failed: {message}\n"


S3X3_MINWORK = ["--strategy", "s3x3", "--mechanism", "minwork"]

# Genuine reports, one run each: every verdict kind and both unbounded
# reasons on s2x2, the stored parameters of s3x3 and main, and the recorded
# answers of an extern report.
MUTATED_RUNS = [
    ["--strategy", "s2x2", "--mechanism", "minwork"],
    ["--strategy", "s2x2", "--mechanism", "dictator:2"],
    ["--strategy", "s2x2", "--mechanism", "stub:9"],
    ["--strategy", "s2x2", "--mechanism", "stub:1"],
    S3X3_MINWORK,
    MAIN_R1,
    ["--strategy", "s2x2", "--mechanism", EXTERN],
]

# What a stored value is replaced with: wrong types, empty containers, null,
# true, NaN, exponent strings and a 4,000-digit integer.
HOSTILE_VALUES = [
    0, -1, 3, 1.5, "", "x", "inf", [], {}, None, True, float("nan"),
    "1e99999", "1e2000000", "-1e400", 10**3999, [[1]], {"owner": [1]},
]


@functools.cache
def _genuine_report(run):
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "r.json"
        with redirect_stdout(io.StringIO()):
            assert main(["attack", *MUTATED_RUNS[run], "--report", str(report)]) == 0
        return report.read_text()


@settings(max_examples=150, deadline=None)
@given(
    run=st.integers(0, len(MUTATED_RUNS) - 1),
    value=st.sampled_from(HOSTILE_VALUES),
    data=st.data(),
)
def test_verify_ends_a_mutated_report_in_one_line(tmp_path_factory, run, value, data):
    doc = json.loads(_genuine_report(run))
    # walk from the root to a random entry, one step at least and then
    # three times in four one step deeper
    node, path = doc, []
    while isinstance(node, (dict, list)) and node and (
        not path or data.draw(st.integers(0, 3))
    ):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        path.append(key)
        node = node[key]
    parent[key] = value
    report = tmp_path_factory.mktemp("mutated") / "r.json"
    report.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["verify", "--report", str(report)])
    assert rc in (0, 1)
    assert len((out.getvalue() + err.getvalue()).splitlines()) == 1


@pytest.mark.parametrize("root", [[], None, "x", 1])
def test_verify_ends_a_report_that_is_not_an_object_in_one_line(root, tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text(json.dumps(root))
    assert main(["verify", "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failed: malformed report: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text", ["1e99999", "1e2000000"])
def test_verify_reads_a_stored_parameter_only_as_it_is_written(text, tmp_path, capsys):
    report = tmp_path / "r.json"
    argv = ["attack", "--strategy", "s3x3", "--mechanism", "minwork"]
    assert main(argv + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc["params"]["b"] = text
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    start = time.process_time()
    assert main(["verify", "--report", str(report)]) == 1
    assert time.process_time() - start < 0.1
    assert capsys.readouterr().err == (
        f"verification failed: replay failed: malformed rational {text!r}\n"
    )


# The s3x3 report against minwork stores the cell "1-1e4" at costs[2][0],
# the parameter a as "1" and the claimed bound as "19548/8863". Each text
# here denotes the stored number in a form the writer never writes, and
# each is refused where it is read, by a line that names it.
_CELL = ["verdict", "instance", "costs", 2, 0]
NOT_AS_WRITTEN = [
    (_CELL, cell)
    for cell in [
        "2/2-1e4", "+1-1e4", " 1-1e4", "-1e4+1", "1-1e4+0e5", "1e0-1e4",
        "01-1e4", "1−1e4", "1-2e4+1e4",
    ]
] + [(["params", "a"], "01"), (["verdict", "claimed_bound"], "39096/17726")]


@pytest.mark.parametrize(
    "path, text", NOT_AS_WRITTEN, ids=[text for _, text in NOT_AS_WRITTEN]
)
def test_verify_reads_a_stored_number_only_in_the_form_it_is_written(
    path, text, tmp_path, capsys
):
    doc = json.loads(_genuine_report(MUTATED_RUNS.index(S3X3_MINWORK)))
    written = functools.reduce(lambda node, key: node[key], path, doc)
    assert written in ("1-1e4", "1", "19548/8863")
    _set(path, text)(doc)
    report = tmp_path / "r.json"
    report.write_text(json.dumps(doc))
    assert main(["verify", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed " in err and repr(text) in err


# The same three stored numbers, each as a run of digits longer than int()
# reads; no writer writes one, as check_writable refuses the chain first.
@pytest.mark.parametrize(
    "path, message",
    [
        (_CELL, "malformed report: malformed value"),
        (["params", "a"], "replay failed: malformed rational"),
        (["verdict", "claimed_bound"], "malformed report: malformed rational"),
    ],
    ids=["cell", "param", "bound"],
)
def test_verify_refuses_a_digit_run_past_the_integer_text_limit(
    path, message, tmp_path, capsys
):
    doc = json.loads(_genuine_report(MUTATED_RUNS.index(S3X3_MINWORK)))
    text = "1" * 5000
    _set(path, text)(doc)
    report = tmp_path / "r.json"
    report.write_text(json.dumps(doc))
    assert main(["verify", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"verification failed: {message} {quoted(text)}")
    assert err.count("\n") == 1 and len(err.encode()) < 512


def _deepest_loadable_nesting():
    """Roughly the deepest list nesting json reads from here: the decoder
    counts against the recursion limit (its own C limit on 3.12 and later),
    so the depth is found by trying."""
    low, high = 1, 100_000
    while low < high:
        mid = (low + high + 1) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            low = mid
        except RecursionError:
            high = mid - 1
    return low


@pytest.mark.parametrize(
    "path", [["params", "b"], ["transcript", 0, "note"]], ids=["param", "step"]
)
def test_verify_ends_a_deeply_nested_stored_value_in_one_line(path, tmp_path, capsys):
    # nested as deep as json reads, less some frames for verify's own calls
    depth = _deepest_loadable_nesting() - 50
    doc = json.loads(_genuine_report(MUTATED_RUNS.index(S3X3_MINWORK)))
    _set(path, "@")(doc)
    report = tmp_path / "r.json"
    nested = "[" * depth + "]" * depth
    report.write_text(json.dumps(doc).replace('"@"', nested))
    assert main(["verify", "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("verification failed: ")
