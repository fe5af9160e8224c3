"""Byte-level pins on attack reports, generated instances and wmon
violation files.

`verify` replays a report against the same program, so a change that
alters both the strategy and its replay passes it. These digests were
taken from a known-good tree; any change to a report or instance byte
fails here. Regenerate them only for a deliberate change of output.
"""

import ast
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mechdock.adversary import attack, blocks, small
from mechdock.cli import main
from mechdock.mechlib import RecordedAnswers, make_mechanism

STRATEGIES = {
    "s2x2": ("s2x2", {}),
    "s3x3": ("s3x3", {}),
    "s3x4": ("s3x4", {}),
    "main-r3": ("main", {"r": 3, "a": Fraction(1873, 1000)}),
    "main-r10": ("main", {"r": 10, "a": Fraction(1966, 1000)}),
}

MAIN_R3 = STRATEGIES["main-r3"][1]
MAIN_R1 = {"r": 1, "kc": 1, "a": Fraction(3313, 2048)}

# Single runs reaching the strategy statements that no report of the
# selector sweep below reaches. A list in place of a selector is a run of
# RecordedAnswers giving those owner vectors in turn.
STEP_RUNS = {
    "s2x2-stub:38": ("s2x2", {}, "stub:38"),
    "s2x2-player1-keeps-job1": ("s2x2", {}, [[1, 2]] * 2),
    "s2x2-player1-keeps-job2": ("s2x2", {}, [[2, 1]] * 3),
    "s2x2-player2-sweeps": ("s2x2", {}, [[2, 1]] + [[2, 2]] * 3),
    "s3x3-stub:278": ("s3x3", {}, "stub:278"),
    "s3x3-player1-collects-job3": ("s3x3", {}, [[3, 1, 3]] + [[3, 1, 1]] * 3),
    "s3x3-player2-carries-job1": ("s3x3", {}, [[3, 1, 3]] * 2 + [[2, 1, 3]]),
    "s3x3-player3-carries-job1": ("s3x3", {}, [[3, 1, 3]] * 4),
    "s3x3-player1-cheap-job": ("s3x3", {}, [[3, 3, 1]] * 2),
    "s3x3-player2-takes-job1": ("s3x3", {}, [[3, 3, 3]] + [[2, 3, 3]] * 2),
    "s3x4-activestub:25": ("s3x4", {}, "activestub:25"),
    "s3x4-activestub:29": ("s3x4", {}, "activestub:29"),
    "s3x4-activestub:156": ("s3x4", {}, "activestub:156"),
    "s3x4-stub:121": ("s3x4", {}, "stub:121"),
    "s3x4-recorded": ("s3x4", {}, [[2, 2, 3, 1]] * 5),
    "s3x4-player3-priced-out": ("s3x4", {}, [[2, 2, 3, 1]] + [[2, 1, 3, 1]] * 2),
    "s3x4-player2-lets-job2-go": (
        "s3x4",
        {},
        [[2, 2, 3, 1]] * 2 + [[2, 1, 3, 1]] * 2,
    ),
    "s3x4-player2-sweeps-three": (
        "s3x4",
        {},
        [[2, 2, 3, 1]] * 2 + [[2, 2, 2, 1]] * 2,
    ),
    "s3x4-player2-reclaims-job3": (
        "s3x4",
        {},
        [[2, 2, 3, 1]] * 3 + [[2, 2, 2, 1]] + [[2, 1, 2, 1]] * 2,
    ),
    "s3x4-player2-holds-job3": ("s3x4", {}, [[2, 3, 2, 1]] * 2),
    "s3x4-player3-undercut": ("s3x4", {}, [[3, 2, 3, 1]] + [[3, 1, 3, 1]] * 2),
    "s3x4-player2-keeps-job2": ("s3x4", {}, [[3, 2, 2, 1]] * 3),
    "s3x4-player3-collects-job2": (
        "s3x4",
        {},
        [[3, 2, 2, 1]] + [[3, 3, 2, 1]] * 2,
    ),
    "s3x4-player2-priced-out": (
        "s3x4",
        {},
        [[3, 2, 3, 1], [3, 3, 3, 1]] + [[3, 1, 3, 1]] * 2,
    ),
    "s3x4-player3-holds-everything": ("s3x4", {}, [[3, 2, 3, 1]] + [[3, 3, 3, 1]] * 4),
    "s3x4-raised-job-escapes": (
        "s3x4",
        {},
        [[3, 2, 3, 1]] + [[3, 3, 3, 1]] * 2 + [[3, 1, 3, 1]] * 2,
    ),
    "s3x4-player3-holds-first-two": ("s3x4", {}, [[3, 3, 3, 1]] * 2),
    "main-r3-activestub:101": ("main", MAIN_R3, "activestub:101"),
    "main-r3-activestub:139": ("main", MAIN_R3, "activestub:139"),
    "main-r1-recorded": ("main", MAIN_R1, [[1, 2, 3, 4, 1, 2, 3, 4]] * 3),
    "main-r1-absorb-E1": (
        "main",
        MAIN_R1,
        [[2, 2, 3, 1, 1, 2, 3, 4], [2, 1, 3, 1, 1, 2, 3, 4]]
        + [[1, 1, 3, 1, 1, 2, 3, 4]] * 2,
    ),
    "main-r1-absorb-E2": (
        "main",
        MAIN_R1,
        [[3, 2, 3, 1, 1, 2, 3, 4], [3, 2, 1, 1, 1, 2, 3, 4]]
        + [[1, 2, 1, 1, 1, 2, 3, 4]] * 2,
    ),
    "main-r1-semi-dummy": ("main", MAIN_R1, [[2, 1, 3, 1, 1, 2, 3, 4]] * 3),
}

STEP_DIGESTS = {
    "main-r1-absorb-E1": "660ba527e207050f9e5037855fff86a0b9b8a281b9bf12cc59cd192d440cae31",
    "main-r1-absorb-E2": "97c4a019697f90cb5cb3fb3fb636735f1fb640f9091f830eeb26f57e5e125284",
    "main-r1-recorded": "a0e992d4623c1da41d6aa6414daf03a678517310ad7ac0f6f988a1f9f60f04f2",
    "main-r1-semi-dummy": "dbfca8b509e4e71c9bf5266bfb447bac22d78271708315572ac10f855b3fb47b",
    "main-r3-activestub:101": "e0b7717bdc90784b07218303b0ad469c2aec0d9be1513b19b1605ccfd4c25d3b",
    "main-r3-activestub:139": "6846031f3b75b7188abb1df1f182e874569c74af94e39566e96fe86f7bea9547",
    "s2x2-player1-keeps-job1": "4e810242401bd6a2c952c4b394b07a07d4abf7ed48ef4632ca320c074f02dacb",
    "s2x2-player1-keeps-job2": "eceb5e27955363f722555f3bd5e01b0490344ab4bd090506599b4ab55af1e254",
    "s2x2-player2-sweeps": "ec792861a8918b46a37ed3ad3add9d3983fe5bf72c5e42aa2587d935c53e067f",
    "s2x2-stub:38": "1fe04ca7a75b7b06702fe857ab949c0c8a9d900e3ec262907af4b51c1a88247b",
    "s3x3-player1-cheap-job": "8afd2276960a6d6445c4803ea9d2754118fea1ce75e124540f74a9c87f66fd46",
    "s3x3-player1-collects-job3": "77a9c459cb72fd3038179df06e881d3622aa3b5513664273c8ae958fa661a87a",
    "s3x3-player2-carries-job1": "41835c084667abd625cda5a52c0831f6bc0c9bd3287bd4063fd9504050a33608",
    "s3x3-player2-takes-job1": "4fef06f68767940c46804461ca01e6b931f074485ebcca734bfe43ccd6f2d33f",
    "s3x3-player3-carries-job1": "dcb14b004eae8cee1849c9667acab7c03a9196801f31765403a5fa9431624d98",
    "s3x3-stub:278": "2b23d7ac1fa95797afa46d2fc58bcf09377f8c13927d478640f09a017e07f0a5",
    "s3x4-activestub:156": "6988a47f53f2439b8e917faf21f807152c677657b317953f02c819514db34ab6",
    "s3x4-activestub:25": "460db87d51bceecc90401e7b23feb759abf0cda3d42cb277fc72e46779acba11",
    "s3x4-activestub:29": "e39caeebde0df6327e0ede98887b8649cc748ec3dbef470621d908e09584f67b",
    "s3x4-player2-holds-job3": "b4e55ac6ff9f005f2850c71751f60c99dc8e35dfb0064e1b8d0e3768c8417df2",
    "s3x4-player2-keeps-job2": "1dc5bb9c8a50616b7b3adafabc76db78f5da9543b0a91a7af5095028eb88acde",
    "s3x4-player2-lets-job2-go": "1299cf239839ae1f4f4e6349221ba9641464ed72905c57a1b2de521716700384",
    "s3x4-player2-priced-out": "bf51a4305a5d6d637097c578866901ffef03c78cf0ee5a5ce0412e0d9c4d168a",
    "s3x4-player2-reclaims-job3": "563652a47ff6c4380701a5e60c4c5e8a9a8fa282290b22e83de3392c9e2ad82f",
    "s3x4-player2-sweeps-three": "09ed1ccf625d1de4709cf789d58c3ee2c668b4bae37afd41f49f8bb0e24a4454",
    "s3x4-player3-collects-job2": "8a9058d2cdffefc1b8d4f923fab1d933c7802a58dd939fc1ccc6c024844de41a",
    "s3x4-player3-holds-everything": "2e7a9183edf5e553f7d6aac1461f1913c1b30cfa19935b9e07424bd582ccde97",
    "s3x4-player3-holds-first-two": "507c676c9d249d158196bc3b2452eb00b682fe1a1e08a84742b14ccab7c6ee2d",
    "s3x4-player3-priced-out": "db0b5e34aabf35bcddd57e17a00720d0ab9ce45069843262f2c936ae0fc112a4",
    "s3x4-player3-undercut": "9a72623f57dafc9e859519fcaea05815e97f48c7fa5a31cc6cbe450c988ead66",
    "s3x4-raised-job-escapes": "c83b0a34889902da191a3de95724e8ff9d5f257413a7315c1362e34db3e89bfd",
    "s3x4-recorded": "6c2afaa1b1f54d0c2384f2e67e7da68fab4dc8e5cbf5d9d1dbb5660711d60ece",
    "s3x4-stub:121": "41020cefae20ee97961df7129648f6bfc97bdbf4c21da824edd3a560ab087d38",
}

CONSTRUCTIONS = {
    "an": ["--a", "1873/1000", "--r", "3"],
    "d2x2": [],
    "e3x3": [],
    "f3x4": [],
}

REPORT_DIGESTS = {
    "main-r10": "baa548fe2a73fddc5ee60a156b143542cbea5c71a103ae0050e33eaee94bef01",
    "main-r3": "19efe6224af17c5284ff4624c192a4038addfea5857b6f820651694e7506da64",
    "s2x2": "ddb19577e9f009c193e59435f04bf4c215610cdd7d2fb2da471f74bfff50b119",
    "s3x3": "cc22d9d17625aeb55936e6bcc1122554dfb3d02c19fa7d73ea8a7a3d384badcd",
    "s3x4": "3da672986957d36a130ce744bd3a27b6e3320b55bc8ab8911dcdf6b8ba4f37ea",
}

INSTANCE_DIGESTS = {
    "an": "d733fc03b6116507aac454738f11d78e744ecd2db4c39f4c77a421e6cbf669b1",
    "d2x2": "d90e4e587db9e15eec5cd7320413e30776393f4d1c5dcc56a270724fa0b1d909",
    "e3x3": "4b32f07899655953f8d754a08f45dc24de602fc07d84bdeab3a1156fd4039953",
    "f3x4": "054eb28c50af9cd0856401a3c56f189975dbd0a9bb3f5735640b5bf61a2040df",
}

# wmon runs whose violation lists, written with --out, are pinned below.
WMON_RUNS = {
    "optmakespan-exhaustive": ["optmakespan", "--exhaustive", "--grid", "1,2,3"],
    "optmakespan-fuzz": ["optmakespan", "--trials", "200", "--seed", "3"],
    "stub-fuzz": ["stub:4", "--trials", "100", "--seed", "1", "--n", "2", "--m", "4"],
}

WMON_DIGESTS = {
    "optmakespan-exhaustive": "5ee6e9bc051e0b51f9256123822bb68c04d7ccbb30aa999d2f1a4dbbb38a2fce",
    "optmakespan-fuzz": "d359e4ad2ad689bdae22323f3608343c650562092e6829aec4b2b2242cf3568a",
    "stub-fuzz": "fea221968b64425daa0bb7231084f41c7e80a1e324d989b6db9f29a56ade1c54",
}


# bounds runs whose printed rows and --out CSV are pinned below. The second
# run's reference row is infeasible: its bound is "-" and its CSV row ends
# ",,false".
BOUNDS_RUNS = {
    "optimize": ["--r-list", "3,4,5,10,30,36,100", "--optimize"],
    "infeasible-reference": ["--r-list", "3", "--kc", "0", "--optimize"],
}

BOUNDS_DIGESTS = {
    "optimize": (
        "89ab942f66e46ee795387492bc1cf0e17ff886b31cf226c81c5423aba02513c0",
        "a8024dadba9c31dd2277774ae28c968199e320c3aa51f1d29fdb35425b4e5814",
    ),
    "infeasible-reference": (
        "1d68425f65c47d44df7caede28429d80586cb1caa3fe89481686beeb07abf0d9",
        "dc658a8fe2737a96cdd6a5880bed143f2d06bbac9d4955de8eff2ef8d74b48c7",
    ),
}


def _selectors(strategy):
    players = 2 if strategy == "s2x2" else 3
    return (
        ["minwork"]
        + [f"dictator:{d}" for d in range(1, players + 1)]
        + [f"stub:{s}" for s in range(10)]
        + [f"activestub:{s}" for s in range(10)]
    )


def _report_json(strategy, params, selector):
    if isinstance(selector, list):
        mech = RecordedAnswers("recorded", [{"owner": o} for o in selector])
    else:
        mech = make_mechanism(selector)
    try:
        return attack(strategy, mech, params).to_json()
    finally:
        mech.close()


@pytest.mark.parametrize("key", sorted(STRATEGIES))
def test_attack_reports_match_golden_digest(key):
    strategy, params = STRATEGIES[key]
    digest = hashlib.sha256()
    for selector in _selectors(strategy):
        digest.update(_report_json(strategy, params, selector).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == REPORT_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(STEP_RUNS))
def test_step_runs_match_golden_digest(key):
    text = _report_json(*STEP_RUNS[key])
    assert hashlib.sha256(text.encode()).hexdigest() == STEP_DIGESTS[key]


def _statement_lines(path):
    """{first line: last line} of each statement in the module's function
    bodies, up to the first statement it contains. Docstrings are skipped,
    and so is a statement marked `# pragma: no cover` with all it holds."""
    source = path.read_text()
    marked = {
        n
        for n, text in enumerate(source.splitlines(), start=1)
        if "# pragma: no cover" in text
    }
    spans = {}

    def visit(statements):
        for node in statements:
            if node.lineno in marked:
                continue
            inner = [
                getattr(node, name)
                for name in ("body", "orelse", "finalbody", "handlers")
                if getattr(node, name, None)
            ]
            first = min((block[0].lineno for block in inner), default=None)
            spans[node.lineno] = first - 1 if first else node.end_lineno
            for block in inner:
                visit(block)

    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            body = func.body
            visit(body[1:] if ast.get_docstring(func) is not None else body)
    return spans


def test_pinned_runs_reach_every_strategy_step():
    """Every statement of the strategy modules runs in a pinned run, so
    each one is byte-pinned by a report digest."""
    files = {module.__file__ for module in (small, blocks)}
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename in files:
            return trace_lines
        return None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for strategy, params in STRATEGIES.values():
            for selector in _selectors(strategy):
                _report_json(strategy, params, selector)
        for run in STEP_RUNS.values():
            _report_json(*run)
    finally:
        sys.settrace(previous)
    missed = []
    for name in sorted(files):
        spans = _statement_lines(Path(name))
        assert spans
        missed += [
            f"{Path(name).name}:{first}"
            for first, last in sorted(spans.items())
            if not any((name, n) in ran for n in range(first, last + 1))
        ]
    assert missed == []


def test_gen_instances_match_golden_digests(tmp_path):
    got = {}
    for name, flags in CONSTRUCTIONS.items():
        out = tmp_path / f"{name}.json"
        assert main(["gen", "--construction", name, *flags, "--out", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == INSTANCE_DIGESTS


def test_wmon_out_files_match_golden_digests(tmp_path):
    got = {}
    for name, (mechanism, *flags) in WMON_RUNS.items():
        out = tmp_path / f"{name}.json"
        argv = ["wmon", "--mechanism", mechanism, *flags, "--out", str(out)]
        assert main(argv) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == WMON_DIGESTS


def test_bounds_output_matches_golden_digests(tmp_path, capsys):
    """(stdout before the closing "wrote" line, CSV file) per run."""
    got = {}
    for name, flags in BOUNDS_RUNS.items():
        out = tmp_path / f"{name}.csv"
        assert main(["bounds", *flags, "--out", str(out)]) == 0
        *rows, wrote = capsys.readouterr().out.splitlines(keepends=True)
        assert wrote == f"wrote {out}\n"
        got[name] = (
            hashlib.sha256("".join(rows).encode()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest(),
        )
    assert got == BOUNDS_DIGESTS
