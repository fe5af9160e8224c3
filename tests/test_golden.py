"""Byte-level pins on attack reports, generated instances and wmon
violation files.

`verify` replays a report against the same program, so a change that
alters both the strategy and its replay passes it. These digests were
taken from a known-good tree; any change to a report or instance byte
fails here. Regenerate them only for a deliberate change of output.
"""

import hashlib
from fractions import Fraction

import pytest

from mechdock.adversary import attack
from mechdock.cli import main
from mechdock.mechlib import make_mechanism

STRATEGIES = {
    "s2x2": ("s2x2", {}),
    "s3x3": ("s3x3", {}),
    "s3x4": ("s3x4", {}),
    "main-r3": ("main", {"r": 3, "a": Fraction(1873, 1000)}),
    "main-r10": ("main", {"r": 10, "a": Fraction(1966, 1000)}),
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


@pytest.mark.parametrize("key", sorted(STRATEGIES))
def test_attack_reports_match_golden_digest(key):
    strategy, params = STRATEGIES[key]
    digest = hashlib.sha256()
    for selector in _selectors(strategy):
        mech = make_mechanism(selector)
        try:
            digest.update(attack(strategy, mech, params).to_json().encode())
        finally:
            mech.close()
        digest.update(b"\n")
    assert digest.hexdigest() == REPORT_DIGESTS[key]


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
