"""The pinned reports and bounds rows, and optmakespan's answers, re-checked
by the benchmark's own verifier.

`verify` re-checks a report with the program's own arithmetic, and the
golden digests pin bytes, not claims. bench/checks.py recomputes each claim
with separate arithmetic (bench/tiered.py) and never imports mechdock, so
this module runs it over every report and bounds CSV tests/test_golden.py
pins, and its brute-force optimum over the instances a WMON fuzz run asks
optmakespan about. The benchmark's traced run wraps mechdock's functions
and methods by name (bench/spans.py), so a name it can no longer find, or
one it fails to put back, is caught here rather than in that run.
"""

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mechdock import adversary, exactnum, forge, mechlib, schedmodel
from mechdock.cli import main
from mechdock.mechlib import optmakespan_allocate
from mechdock.schedmodel import BuiltinMechanism
from mechdock.wmon import FuzzSpec, fuzz
from test_golden import BOUNDS_RUNS, STEP_RUNS, STRATEGIES, _report_json, _selectors

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402
from spans import Tracer  # noqa: E402


def _pinned_reports():
    for strategy, params in STRATEGIES.values():
        for selector in _selectors(strategy):
            yield json.loads(_report_json(strategy, params, selector))
    for run in STEP_RUNS.values():
        yield json.loads(_report_json(*run))


def test_every_pinned_report_passes_the_independent_check():
    kinds = Counter()
    problems = {}
    for report in _pinned_reports():
        kinds[report["verdict"]["kind"]] += 1
        found = checks.check_report(report)
        if found:
            problems[report["strategy"], report["mechanism"]] = found
    assert problems == {}
    assert kinds == {"Unbounded": 66, "WmonViolation": 59, "RatioWitness": 27}


def test_every_pinned_bounds_row_passes_the_independent_check(tmp_path, capsys):
    checked = []
    for name, flags in BOUNDS_RUNS.items():
        out = tmp_path / f"{name}.csv"
        assert main(["bounds", *flags, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        by_r = {}
        for row in rows:
            by_r.setdefault(int(row.split(",")[0]), []).append(row)
        for r, r_rows in by_r.items():
            problems, _ = checks.check_bounds_rows("\n".join([header, *r_rows]), r)
            assert problems == [], (name, r)
            checked.append((name, r))
    capsys.readouterr()
    assert checked == [
        *(("optimize", r) for r in (3, 4, 5, 10, 30, 36, 100)),
        ("infeasible-reference", 3),
    ]


def test_optmakespan_answers_the_independent_brute_force_optimum():
    # each fuzz trial asks about an instance on the grid 0..4 and its
    # perturbed copy, whose edited cells are rationals off the grid
    seen = []

    def recorded(T):
        seen.append((T, optmakespan_allocate(T)))
        return seen[-1][1]

    mech = BuiltinMechanism("optmakespan", recorded)
    for n, m, seed in ((3, 3, 1), (4, 6, 2)):
        fuzz(mech, FuzzSpec(n, m, (0, 1, 2, 3, 4)), 200, seed)
    assert len(seen) == 800
    for T, x in seen:
        _, owner = checks.brute_force_opt(checks.Inst(T.to_json_dict()))
        assert list(x.owner) == owner, T.to_json_dict()


def _bindings():
    """Every name bound in a mechdock module or in a class the tracer
    patches, with the object it is bound to."""
    owners = [m for k, m in sys.modules.items() if k.startswith("mechdock")]
    owners += [
        exactnum.TieredValue,
        schedmodel.Instance,
        schedmodel.ExternalMechanism,
        adversary.Report,
    ]
    return {(o, key): value for o in owners for key, value in vars(o).items()}


def test_the_tracer_finds_every_traced_name_and_puts_it_back():
    # mechdock.cli has imported every module the tracer patches
    before = _bindings()
    tracer = Tracer()
    patched = {}
    patch_function = tracer.patch_function

    def counted(fn, name):
        count = len(tracer._patches)
        patch_function(fn, name)
        patched[name] = len(tracer._patches) - count

    tracer.patch_function = counted
    try:
        # a traced function or method that no longer exists raises here
        tracer.install()
        # and a traced function no mechdock module binds patches nothing
        assert patched and [name for name, n in patched.items() if not n] == []
        params = {"a": Fraction(3313, 2048), "r": 1, "kc": 1}
        mech = mechlib.make_mechanism("minwork")
        # an earlier test may have built this chain; this attack builds it
        forge._built_chain.cache_clear()
        adversary.attack("main", mech, params).to_json()
        assert {name for _, name in tracer.stats} >= {
            "adversary.attack",
            "adversary.report_json",
            "forge.build_main",
            "exactnum.format_value",
            "schedmodel.with_costs",
        }
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
