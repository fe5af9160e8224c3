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
from mechdock.adversary.engine import Session
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

# Single runs reaching the strategy steps that no report of the selector
# sweep below reaches. A list in place of a selector is a run of
# RecordedAnswers giving those owner vectors in turn.
STEP_RUNS = {
    "s2x2-stub:38": ("s2x2", {}, "stub:38"),
    "s3x3-stub:278": ("s3x3", {}, "stub:278"),
    "s3x4-activestub:25": ("s3x4", {}, "activestub:25"),
    "s3x4-activestub:29": ("s3x4", {}, "activestub:29"),
    "s3x4-activestub:156": ("s3x4", {}, "activestub:156"),
    "s3x4-stub:121": ("s3x4", {}, "stub:121"),
    "s3x4-recorded": ("s3x4", {}, [[2, 2, 3, 1]] * 5),
    "main-r3-activestub:101": ("main", MAIN_R3, "activestub:101"),
    "main-r3-activestub:139": ("main", MAIN_R3, "activestub:139"),
    "main-r1-recorded": (
        "main",
        {"r": 1, "kc": 1, "a": Fraction(3313, 2048)},
        [[1, 2, 3, 4, 1, 2, 3, 4]] * 3,
    ),
}

STEP_DIGESTS = {
    "main-r1-recorded": "a0e992d4623c1da41d6aa6414daf03a678517310ad7ac0f6f988a1f9f60f04f2",
    "main-r3-activestub:101": "e0b7717bdc90784b07218303b0ad469c2aec0d9be1513b19b1605ccfd4c25d3b",
    "main-r3-activestub:139": "6846031f3b75b7188abb1df1f182e874569c74af94e39566e96fe86f7bea9547",
    "s2x2-stub:38": "1fe04ca7a75b7b06702fe857ab949c0c8a9d900e3ec262907af4b51c1a88247b",
    "s3x3-stub:278": "2b23d7ac1fa95797afa46d2fc58bcf09377f8c13927d478640f09a017e07f0a5",
    "s3x4-activestub:156": "6988a47f53f2439b8e917faf21f807152c677657b317953f02c819514db34ab6",
    "s3x4-activestub:25": "460db87d51bceecc90401e7b23feb759abf0cda3d42cb277fc72e46779acba11",
    "s3x4-activestub:29": "e39caeebde0df6327e0ede98887b8649cc748ec3dbef470621d908e09584f67b",
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


def _apply_sites():
    """(file name, first line, last line) of every `s.apply(...)` call in
    the strategy modules."""
    sites = set()
    for module in (small, blocks):
        path = Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "apply"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "s"
            ):
                sites.add((path.name, node.lineno, node.end_lineno))
    return sites


def test_pinned_runs_reach_every_strategy_step(monkeypatch):
    callers = set()
    original = Session.apply

    def recording_apply(self, *args, **kwargs):
        frame = sys._getframe(1)
        callers.add((Path(frame.f_code.co_filename).name, frame.f_lineno))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Session, "apply", recording_apply)
    for strategy, params in STRATEGIES.values():
        for selector in _selectors(strategy):
            _report_json(strategy, params, selector)
    for run in STEP_RUNS.values():
        _report_json(*run)
    sites = _apply_sites()
    assert sites
    missed = sorted(
        (name, first)
        for name, first, last in sites
        if not any(n == name and first <= line <= last for n, line in callers)
    )
    assert not missed


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
