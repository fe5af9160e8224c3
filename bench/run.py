"""mechdock's benchmark: four workloads, output checks, a traced per-layer run.

    python3 bench/run.py --workload chain-large --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written to ``bench/out/``. Without
``--workload`` every workload runs in turn, each in a process of its own.
The load is one client in a closed loop: each operation starts when the one
before it, and the checks of its output, have ended. bench/README.md says
what each workload runs and which metric should move where.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import pace  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPS = 9
# The pace is probed at the first chance after this many seconds of work.
SLICE_S = 0.02
IMPORT_SNIPPET = (
    "import time; t0 = time.process_time(); import mechdock.cli; "
    "print(time.process_time() - t0)"
)
# A seed lowers a certified scale factor by one of these ten-thousandths.
# Each is odd and not a multiple of 5, so every seed's a has denominator
# 10^4 and the exact arithmetic costs the same whatever the seed.
A_OFFSETS = (1, 3, 7, 9, 11, 13, 17, 19, 21, 23, 27, 29, 31, 33, 37, 39)


def load_mechdock():
    """Import mechdock from this checkout's src/; exit with status 1 if absent."""
    if not (SRC / "mechdock" / "__init__.py").is_file():
        sys.exit(f"bench: no mechdock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mechdock
    from mechdock import adversary, cli, forge, mechlib, wmon

    if Path(mechdock.__file__).resolve().parent != SRC / "mechdock":
        sys.exit(f"bench: imported mechdock from {mechdock.__file__}, not {SRC}")
    return adversary, cli, forge, mechlib, wmon


class Meter:
    """Counts mechanism queries; in a traced run, also spans each one."""

    def __init__(self):
        self.queries = 0
        self.tracer = None
        self.clock = None

    def call(self, name, fn, *args):
        """fn(*args), in a span of its own while a traced phase runs."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def tick(self):
        """A point inside an operation where the pace may be probed. Not in
        a traced phase, where the probe would land inside open spans."""
        if self.clock is not None and self.tracer is None:
            self.clock.tick()


class Counted:
    """Proxy around a mechanism handle, seen by the program as the handle."""

    def __init__(self, mech, meter, seen=None):
        self.mech = mech
        self.name = mech.name
        self.meter = meter
        self.seen = seen

    def query(self, T):
        self.meter.tick()
        x = self.meter.call("mechlib.query", self.mech.query, T)
        self.meter.tick()
        self.meter.queries += 1
        if self.seen is not None:
            self.seen.append((T, x))
        return x

    def close(self):
        self.mech.close()


class Op:
    """One operation: ``run`` is timed and returns (output, steps);
    ``check`` is not timed and returns the problems it finds in the output.
    The label names the operation in messages."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """Set-up (timed, repeated) and one round of operations."""

    name = ""

    def __init__(self, mods, seed, meter):
        self.adversary, self.cli, self.forge, self.mechlib, self.wmon = mods
        self.seed = seed
        self.meter = meter

    def counted(self, selector, seen=None):
        return Counted(self.mechlib.make_mechanism(selector), self.meter, seen)

    def setup(self):
        """The workload's own set-up, timed."""

    def check_setup(self):
        """Problems in the last set-up's output; not timed."""
        return []

    def outside_s(self):
        """Seconds the external mechanism has spent computing its answers so
        far; the traced run takes them out of the round trip's wall time."""
        return 0.0

    def close(self):
        pass


def check_attack(out):
    """An attack report and the defects the program's own checks found."""
    stored, defects = out
    return defects + checks.check_report(stored)


class ChainLarge(Workload):
    name = "chain-large"
    R = 100

    def setup(self):
        self.csv = OUT / f"bounds-{os.getpid()}.csv"
        argv = ["bounds", "--r-list", str(self.R), "--optimize", "--out", str(self.csv)]
        with contextlib.redirect_stdout(io.StringIO()):
            self.rc = self.meter.call("cli.bounds", self.cli.main, argv)

    def check_setup(self):
        if self.rc != 0:
            return [f"bounds exited {self.rc}"]
        problems, self.a = checks.check_bounds_rows(self.csv.read_text(), self.R)
        self.csv.unlink()
        return problems

    def ops(self):
        a = seeded(self.a, self.seed)
        params = {"a": a, "r": self.R}

        def run():
            report = self.adversary.attack("main", self.counted("minwork"), params)
            self.meter.tick()
            stored = json.loads(report.to_json())
            self.meter.tick()
            defects = self.adversary.verify_report(stored)
            self.meter.tick()
            defects += self.adversary.replay_report(stored, self.counted)
            return (stored, defects), len(stored["transcript"])

        return [Op(f"main r={self.R} a={a}", run, check_attack)]


class CaseTrees(Workload):
    name = "case-trees"
    STUBS = 24
    STRATEGIES = (
        ("s2x2", {}),
        ("s3x3", {}),
        ("s3x4", {}),
        ("main", {"r": 3, "a": Fraction(1873, 1000)}),
        ("main", {"r": 10, "a": Fraction(1966, 1000)}),
    )

    def ops(self):
        seeds = range(self.seed * 1000, self.seed * 1000 + self.STUBS)
        stubs = [f"activestub:{s}" for s in seeds] + [f"stub:{s}" for s in seeds]
        out = []
        for strategy, params in self.STRATEGIES:
            players = 2 if strategy == "s2x2" else 3
            dictators = [f"dictator:{d}" for d in range(1, players + 1)]
            name = " ".join([strategy] + [f"{k}={v}" for k, v in params.items()])
            for sel in ["minwork"] + dictators + stubs:
                out.append(Op(f"{name} {sel}", self._run(strategy, params, sel), check_attack))
        return out

    def _run(self, strategy, params, selector):
        def run():
            report = self.adversary.attack(strategy, self.counted(selector), params)
            stored = report.to_json_dict()
            return (stored, self.adversary.verify_report(stored)), len(stored["transcript"])

        return run


class WmonFuzz(Workload):
    name = "wmon-fuzz"
    # Trial counts that make the four operations about equally long.
    FUZZ_TRIALS = {"minwork": 1650, "optmakespan": 205}
    FUZZ_GRID = (0, 1, 2, 3, 4)
    SWEEP_GRID = (0, 1, 2, 3)

    def __init__(self, *args):
        super().__init__(*args)
        self.sweep_queries = []

    def ops(self):
        spec = self.wmon.FuzzSpec(n=4, m=6, values=self.FUZZ_GRID)
        out = []
        for k, sel in enumerate(("minwork", "optmakespan")):
            out.append(Op(f"fuzz {sel}", self._fuzz(sel, spec, 2 * self.seed + k), self._check(sel)))
        for sel in ("minwork", "optmakespan"):
            out.append(Op(f"sweep {sel}", self._sweep(sel), self._check(sel)))
        return out

    def _fuzz(self, selector, spec, seed):
        def run():
            seen = []
            mech = self.counted(selector, seen)
            found = self.wmon.fuzz(mech, spec, self.FUZZ_TRIALS[selector], seed)
            return (found, seen), 0

        return run

    def _sweep(self, selector):
        def run():
            seen = []
            found = self.wmon.exhaustive_pairs(self.counted(selector, seen), 2, 2, self.SWEEP_GRID)
            self.sweep_queries.append(len(seen))
            return (found, seen), 0

        return run

    @staticmethod
    def _check(selector):
        def check(out):
            found, seen = out
            if selector == "minwork":
                return [f"minwork: {len(found)} WMON violation(s)"] if found else []
            problems = []
            for v in found:
                problems += checks.check_violation(v.to_json_dict())
            for T, x in seen:
                _, owner = checks.brute_force_opt(checks.Inst(T.to_json_dict()))
                if owner != list(x.owner):
                    problems.append(f"optmakespan answered {list(x.owner)}, optimum {owner}")
            return problems

        return check


class ExternChain(Workload):
    name = "extern-chain"
    R = 36
    A = Fraction(199, 100)

    def __init__(self, *args):
        super().__init__(*args)
        self.handles = []
        self.launched = 0

    def setup(self):
        self.launched += 1
        busy = OUT / f"responder-{os.getpid()}-{self.launched}.busy"
        argv = [sys.executable, str(HERE / "responder.py"), "--busy-file", str(busy)]
        mech = self.mechlib.make_mechanism("extern:" + shlex.join(argv))
        self.handles.append((mech, busy))
        self.first = (self.forge.d2x2(), mech.query(self.forge.d2x2()))

    def check_setup(self):
        # Only the newest responder is kept, so the operations run beside one
        # child. The older ones are stopped here, outside the timed set-up.
        self.close(keep=1)
        T, x = self.first
        expected = checks.minwork_owner(checks.Inst(T.to_json_dict()))
        return [] if list(x.owner) == expected else [f"first answer {x}, expected {expected}"]

    def outside_s(self):
        busy = self.handles[-1][1]
        return float(busy.read_text()) if busy.exists() else 0.0

    def ops(self):
        mech = Counted(self.handles[-1][0], self.meter)
        params = {"a": seeded(self.A, self.seed), "r": self.R}
        builtin = self.mechlib.make_mechanism("minwork")
        reference = self.adversary.attack("main", builtin, params).to_json_dict()

        def run():
            report = self.adversary.attack("main", mech, params)
            stored = report.to_json_dict()
            return stored, len(stored["transcript"])

        def check(stored):
            return checks.check_report(stored) + checks.check_same_run(stored, reference)

        return [Op(f"main r={self.R} a={params['a']} extern", run, check)]

    def close(self, keep=0):
        while len(self.handles) > keep:
            mech, busy = self.handles.pop(0)
            mech.close()
            busy.unlink(missing_ok=True)


def seeded(a, seed):
    return a - Fraction(A_OFFSETS[seed % len(A_OFFSETS)], 10**4)


WORKLOADS = {w.name: w for w in (ChainLarge, CaseTrees, WmonFuzz, ExternChain)}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def cpu_s():
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def fresh_import():
    """CPU seconds a fresh interpreter took to import mechdock.cli, timed
    inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def run_setup(wl, reps):
    """Repeat the set-up; return the median scaled seconds, the median import
    ms and the problems found."""
    fresh_import()  # compiles the bytecode a fresh checkout lacks
    totals, imports, problems = [], [], []
    for _ in range(reps):
        before = pace.pace()
        c0 = cpu_s()
        inner = fresh_import()
        wl.setup()
        dt = cpu_s() - c0
        k = pace.scale(before, pace.pace())
        totals.append(dt * k)
        imports.append(inner * 1000 * k)
        problems += wl.check_setup()
    return statistics.median(totals), statistics.median(imports), problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.times = []  # scaled seconds of each operation that returned
        self.paces = []  # seconds of each probe
        self.queries = 0
        self.steps = 0


class Clock:
    """Scaled CPU time of operations.

    The pace is probed at the start and then, once SLICE_S seconds have
    passed since the last probe, at the next end of an operation or
    `Meter.tick` inside one. Each stretch of CPU time between two probes is
    scaled by their mean; a long operation is the sum of its stretches.
    """

    def __init__(self, tally):
        self.tally = tally
        self.before = pace.pace()
        tally.paces.append(self.before)
        self.due = perf_counter() + SLICE_S
        self.ended = []  # (scaled, raw) seconds of operations since the last probe
        self.scaled = self.raw = 0.0  # the running operation's, likewise
        self.t0 = None  # CPU time the running operation's stretch began

    def start(self):
        self.scaled = self.raw = 0.0
        self.t0 = process_time()

    def stop(self, returned):
        if returned:
            self.ended.append((self.scaled, self.raw + process_time() - self.t0))
        self.t0 = None

    def tick(self, force=False):
        if not force and perf_counter() < self.due:
            return
        running = self.t0 is not None
        if running:
            self.raw += process_time() - self.t0
        after = pace.pace()
        k = pace.scale(self.before, after)
        self.tally.times += [scaled + raw * k for scaled, raw in self.ended]
        self.tally.paces.append(after)
        self.ended, self.before = [], after
        self.due = perf_counter() + SLICE_S
        if running:
            self.scaled += self.raw * k
            self.raw = 0.0
            self.t0 = process_time()


def measure(wl, ops, seconds, tally):
    """Run whole rounds of ops until `seconds` have passed since the start."""
    tracer = wl.meter.tracer
    deadline = perf_counter() + seconds
    clock = wl.meter.clock = Clock(tally)
    while perf_counter() < deadline:
        for op in ops:
            tally.attempted += 1
            q0 = wl.meter.queries
            clock.start()
            try:
                out, steps = wl.meter.call("op", op.run)
            except Exception:
                clock.stop(returned=False)
                tally.failed += 1
                print(f"{op.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            clock.stop(returned=True)
            tally.queries += wl.meter.queries - q0
            tally.steps += steps
            if tracer is None:
                problems = op.check(out)
            else:
                # The checks' own calls into mechdock are kept out of the layers.
                tracer.phase = "check"
                problems = op.check(out)
                tracer.phase = "ops"
            if problems:
                tally.failed += 1
                tally.wrong.append(f"{op.label}: {problems[0]}")
            clock.tick()
    clock.tick(force=True)
    wl.meter.clock = None
    if not tally.times:
        sys.exit(f"bench: every {wl.name} operation raised")


def end_to_end(setup_s, tally):
    busy = sum(tally.times)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(tally.times) / busy,
        "op_p50_ms": statistics.median(tally.times) * 1000,
        "queries_per_s": tally.queries / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# A time metric is the mean per call of the span its name gives without the
# unit; the others are derived in per_layer.
PER_LAYER = (
    ("schedmodel.instance_new_ms", "ms"),
    ("schedmodel.with_costs_ms", "ms"),
    ("schedmodel.makespan_ms", "ms"),
    ("schedmodel.to_json_line_ms", "ms"),
    ("schedmodel.from_json_dict_ms", "ms"),
    ("schedmodel.extern_roundtrip_ms", "ms"),
    ("exactnum.format_value_us", "us"),
    ("exactnum.parse_value_us", "us"),
    ("exactnum.tv_compare_us", "us"),
    ("exactnum.tv_add_us", "us"),
    ("mechlib.query_ms", "ms"),
    ("mechlib.queries_per_op", "count"),
    ("optcore.opt_makespan_ms", "ms"),
    ("optcore.nodes_per_call", "count"),
    ("wmon.wmon_value_us", "us"),
    ("wmon.infer_us", "us"),
    ("wmon.exhaustive_queries", "count"),
    ("forge.solve_best_a_ms", "ms"),
    ("forge.build_main_ms", "ms"),
    ("forge.certified_bound_ms", "ms"),
    ("adversary.attack_self_ms", "ms"),
    ("adversary.steps_per_op", "count"),
    ("adversary.report_json_ms", "ms"),
    ("adversary.verify_report_ms", "ms"),
    ("adversary.replay_ms", "ms"),
    ("cli.bounds_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

# Layers read from the traced set-up; every other layer from the operations.
# minwork's chain-large and extern-chain runs end in a transition arm, so
# certified_bound is reached only by the set-up's `bounds`.
SETUP_LAYERS = ("cli.bounds", "forge.solve_best_a", "forge.certified_bound")


def per_layer(tracer, ops_from, plain, traced, setup_k, import_ms, outside_s, sweeps):
    """Per-layer metrics of the traced phase. A layer the workload does not
    reach reads 0. Times are scaled to the reference pace: set-up layers by
    the probes around the traced set-up (`setup_k`), the others by the
    median probe of the traced operations."""
    ops_k = pace.REF_S / statistics.median(traced.paces)

    def stat(name):
        return tracer.stats.get(("setup" if name in SETUP_LAYERS else "ops", name))

    def mean(name, scale):
        st = stat(name)
        k = setup_k if name in SETUP_LAYERS else ops_k
        return st.total / st.count * scale * k if st and st.count else 0.0

    values = {}
    for metric, unit in PER_LAYER:
        if unit in ("ms", "us"):
            values[metric] = mean(metric.rsplit("_", 1)[0], 1000 if unit == "ms" else 1e6)
    rt = stat("schedmodel.extern_roundtrip")
    if rt and rt.count:
        values["schedmodel.extern_roundtrip_ms"] = (rt.total - outside_s) / rt.count * 1000 * ops_k
    opt, nodes = stat("optcore.opt_makespan"), stat("optcore.nodes")
    values["optcore.nodes_per_call"] = nodes.count / opt.count if opt and nodes else 0
    ops = len(traced.times)
    values["mechlib.queries_per_op"] = traced.queries / ops
    values["adversary.steps_per_op"] = traced.steps / ops
    values["wmon.exhaustive_queries"] = statistics.fmean(sweeps) if sweeps else 0
    values["cli.import_ms"] = import_ms
    attack_t, query_t, attacks = 0.0, 0.0, 0
    kept = tracer.spans
    for name, t0, t1, parent, _ in kept[ops_from:]:
        if name == "adversary.attack":
            attack_t += t1 - t0
            attacks += 1
        elif name == "mechlib.query" and parent is not None and kept[parent][0] == "adversary.attack":
            query_t += t1 - t0
    values["adversary.attack_self_ms"] = (
        (attack_t - query_t) / attacks * 1000 * ops_k if attacks else 0.0
    )
    values["trace.overhead_pct"] = (
        statistics.fmean(traced.times) / statistics.fmean(plain.times) - 1
    ) * 100
    return values


@contextlib.contextmanager
def tracing(tracer, meter):
    tracer.install()
    meter.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        meter.tracer = None


def run_untraced(wl, seconds):
    setup_s, _, problems = run_setup(wl, SETUP_REPS)
    tally = Tally()
    measure(wl, wl.ops(), seconds, tally)
    return end_to_end(setup_s, tally), dict(END_TO_END), tally, problems


def run_traced(wl, seconds):
    """Half the time untraced, half traced; the set-up is traced once."""
    tracer = Tracer()
    _, import_ms, problems = run_setup(wl, SETUP_REPS - 1)
    before = pace.pace()
    with tracing(tracer, wl.meter):
        wl.setup()
    setup_k = pace.scale(before, pace.pace())
    problems += wl.check_setup()
    ops = wl.ops()
    plain, traced = Tally(), Tally()
    measure(wl, ops, seconds / 2, plain)
    tracer.phase = "ops"
    ops_from = len(tracer.spans)
    outside0 = wl.outside_s()
    with tracing(tracer, wl.meter):
        measure(wl, ops, seconds / 2, traced)
    outside = wl.outside_s() - outside0
    metrics = per_layer(
        tracer,
        ops_from,
        plain,
        traced,
        setup_k,
        import_ms,
        outside,
        getattr(wl, "sweep_queries", []),
    )
    tracer.write(OUT / f"trace-{wl.name}-{wl.seed}.jsonl")
    plain.attempted += traced.attempted
    plain.paces += traced.paces
    plain.failed += traced.failed
    plain.wrong += traced.wrong
    return metrics, dict(PER_LAYER), plain, problems


def run_workload(name, seed, seconds, trace):
    mods = load_mechdock()
    pace.pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](mods, seed, Meter())
    try:
        run = run_traced if trace else run_untraced
        metrics, units, tally, problems = run(wl, seconds)
    finally:
        wl.close()
    wrong = problems + tally.wrong
    for line in wrong:
        print(f"check failed: {line}", file=sys.stderr)
    for m, v in metrics.items():
        print(f"{name} {m} {v:.6g} {units[m]}")
    print(f"{name} probe median {statistics.median(tally.paces) * 1000:.4g} ms")
    print(f"{name} attempted {tally.attempted} failed {tally.failed}")
    result = {
        "correct": not wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description="mechdock benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
