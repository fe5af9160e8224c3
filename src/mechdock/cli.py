"""Command-line surface: generate instances, attack mechanisms, certify
parameter bounds, fuzz for monotonicity violations, verify reports.

`verify` re-checks a report's verdict from its stored data, then replays
its strategy: against the rebuilt mechanism for a built-in selector, and
against the answers its transcript recorded for an `extern:` one.

All stored numbers are exact grammar strings; decimals are rendered for
display only. EPILOG, printed by --help, lists the exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from fractions import Fraction
from functools import partial

from .adversary import (
    MALFORMED_REPORT,
    STRATEGY_SPECS,
    attack,
    replay_report,
    verify_report,
)
from .adversary.verdicts import StrategyIncomplete
from .exactnum import int_digit_limit, parse_rational
from .forge import (
    CONSTRUCTIONS,
    ForgeError,
    MainParams,
    build_instance,
    certified_bound,
    feasibility_defect,
    resolve_params,
    solve_best_a,
)
from .mechlib import RecordedAnswers, make_mechanism
from .schedmodel import DEFAULT_TIMEOUT_MS, TIMEOUT_ENV_VAR, MechanismError, json_text
from .wmon import FuzzSpec, exhaustive_pairs, fuzz, grid_is_writable

# Certified reference points: block count -> published ratio (a = ratio - 1).
REFERENCE_RATIOS = {
    3: Fraction(2873, 1000),
    4: Fraction(2911, 1000),
    5: Fraction(2932, 1000),
    10: Fraction(2966, 1000),
    30: Fraction(2988, 1000),
    36: Fraction(2990, 1000),
}


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _decimal(x):
    """x to six decimals, for display; exactly when it is past the range of
    a float, as a 3x4 claim 1 + x can be."""
    try:
        return f"{float(x):.6f}"
    except OverflowError:
        whole, part = divmod(round(x * 10**6), 10**6)
        return f"{whole}.{part:06d}"


def _param_types(specs):
    """Each parameter named in a table of specs, with its coercion."""
    return {p.name: p.coerce for spec in specs.values() for p in spec.params}


def _add_param_flags(parser, specs):
    """One --<name> flag per parameter named in a table of specs."""
    for name, coerce in _param_types(specs).items():
        kind = _fraction if coerce is parse_rational else int
        parser.add_argument(f"--{name}", type=kind)


def _set_params(args, specs):
    """The parameter flags set on the command line, checked by the caller."""
    values = {name: getattr(args, name) for name in _param_types(specs)}
    return {name: v for name, v in values.items() if v is not None}


EPILOG = f"""exit codes:
  0 success or a sound verdict, 1 verification failure, 2 usage error,
  3 incomplete strategy, 4 mechanism failure; a construction, strategy
  parameter or --grid whose numbers could pass Python's limit for integer
  text (4300 digits by default) is a usage error (2)

environment:
  {TIMEOUT_ENV_VAR}: per-query timeout of an extern: mechanism in ms;
  a negative or non-integer value means the default, {DEFAULT_TIMEOUT_MS}
"""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mechdock",
        description="Adversarial testbed for truthful scheduling mechanisms.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag's prefix is a usage error, not that flag.
    command = partial(sub.add_parser, allow_abbrev=False)

    gen = command("gen", help="write an instance file")
    gen.add_argument("--construction", required=True, choices=list(CONSTRUCTIONS))
    _add_param_flags(gen, CONSTRUCTIONS)
    gen.add_argument("--out", required=True)

    atk = command("attack", help="run an adversary strategy")
    atk.add_argument("--strategy", required=True, choices=sorted(STRATEGY_SPECS))
    atk.add_argument("--mechanism", required=True)
    _add_param_flags(atk, STRATEGY_SPECS)
    atk.add_argument("--report")

    bounds = command("bounds", help="certify parameter bounds per r")
    bounds.add_argument("--r-list", default="3,4,5", help="comma-separated r values")
    bounds.add_argument("--kc", type=int, help="chain length (default: r)")
    bounds.add_argument("--optimize", action="store_true")
    bounds.add_argument("--tol", type=_fraction, default=Fraction(1, 10**4))
    bounds.add_argument("--out")

    wm = command("wmon", help="search for monotonicity violations")
    wm.add_argument("--mechanism", required=True)
    wm.add_argument("--trials", type=int, default=10000)
    wm.add_argument("--seed", type=int, default=0)
    wm.add_argument("--n", type=int, help="players (default: 3, or 2 exhaustive)")
    wm.add_argument("--m", type=int, help="jobs (default: 3, or 2 exhaustive)")
    wm.add_argument("--grid", default="0,1,2,3,4")
    wm.add_argument("--exhaustive", action="store_true")
    wm.add_argument("--out")

    ver = command("verify", help="re-check a stored attack report")
    ver.add_argument("--report", required=True)
    return parser


def _write(path, text, done):
    """Write text and a final newline to path and print done. Returns the
    exit code: 0, or 2 after saying why the file cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 2
    print(done)
    return 0


def cmd_gen(args):
    try:
        instance = build_instance(args.construction, _set_params(args, CONSTRUCTIONS))
    except ForgeError as exc:
        print(f"cannot build instance: {exc}", file=sys.stderr)
        return 2
    done = f"wrote {instance.n}x{instance.m} instance to {args.out}"
    return _write(args.out, json_text(instance), done)


def cmd_attack(args):
    spec = STRATEGY_SPECS[args.strategy]
    try:
        params = resolve_params(spec.params, _set_params(args, STRATEGY_SPECS))
        with closing(make_mechanism(args.mechanism)) as mech:
            report = attack(args.strategy, mech, params)
    except ForgeError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2
    except MechanismError as exc:
        print(f"mechanism failure: {exc}", file=sys.stderr)
        return 4
    verdict = report.verdict
    summary = f"verdict {verdict.kind}"
    if verdict.kind == "RatioWitness":
        summary += (
            f" bound {_decimal(verdict.claimed_bound)}"
            f" ({verdict.claimed_bound})"
        )
    elif verdict.kind == "Unbounded":
        summary += f" reason {verdict.reason}"
    summary += f" after {len(report.transcript)} queries"
    print(summary)
    done = f"wrote report to {args.report}"
    if args.report and _write(args.report, report.to_json(), done):
        return 2
    return 3 if isinstance(verdict, StrategyIncomplete) else 0


BRACKET = (Fraction(17, 10), Fraction(199, 100))
TOP_NOTE = " (bracket top certifies; the optimum may lie above)"


def _bound_rows(r_values, kc, optimize, tol):
    """A row per r at its reference ratio, then (with optimize, or for r
    without a reference ratio) a row at the optimizer's best a: (params,
    bound or "" when infeasible, note). The note says the optimizer's a is
    only a lower end of the optimum when it is the bracket top."""
    rows = []
    for r in r_values:
        k_c = kc if kc is not None else r
        if r in REFERENCE_RATIOS:
            p = MainParams(REFERENCE_RATIOS[r] - 1, r, k_c)
            bound = certified_bound(p) if feasibility_defect(p) is None else ""
            rows.append((p, bound, ""))
            if not optimize:
                continue
        p = solve_best_a(r, k_c, *BRACKET, tol)
        rows.append((p, 1 + p.a, TOP_NOTE if p.a == BRACKET[1] else ""))
    return rows


def cmd_bounds(args):
    try:
        r_values = [int(tok) for tok in args.r_list.split(",") if tok.strip()]
    except ValueError:
        r_values = []
    if not r_values:
        print(f"bad --r-list {args.r_list!r}", file=sys.stderr)
        return 2
    try:
        rows = _bound_rows(r_values, args.kc, args.optimize, args.tol)
    except ForgeError as exc:
        print(f"bounds failed: {exc}", file=sys.stderr)
        return 2
    lines = ["r,n,k_c,a,bound,feasible"]
    for p, bound, note in rows:
        feasible = str(bound != "").lower()
        lines.append(f"{p.r},{p.n},{p.k_c},{p.a},{bound},{feasible}")
        shown = _decimal(bound) if bound != "" else "-"
        print(f"r={p.r} n={p.n} k_c={p.k_c} a={_decimal(p.a)} bound={shown}{note}")
    return _write(args.out, "\n".join(lines), f"wrote {args.out}") if args.out else 0


def cmd_wmon(args):
    try:
        grid = tuple(Fraction(tok) for tok in args.grid.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError):
        grid = ()
    if not grid or min(grid) < 0:
        print(f"bad --grid {args.grid!r}: need non-negative rationals", file=sys.stderr)
        return 2
    for flag, value, least in (
        ("--n", args.n, 1),
        ("--m", args.m, 1),
        ("--trials", args.trials, 0),
    ):
        if value is not None and value < least:
            print(f"bad {flag} {value}: need at least {least}", file=sys.stderr)
            return 2
    shape = 2 if args.exhaustive else 3
    n = shape if args.n is None else args.n
    m = shape if args.m is None else args.m
    if not grid_is_writable(grid, m):
        print(
            f"bad --grid {args.grid!r}: writes integers past {int_digit_limit()} "
            "digits, the interpreter's limit for integer text",
            file=sys.stderr,
        )
        return 2
    try:
        with closing(make_mechanism(args.mechanism)) as mech:
            if args.exhaustive:
                violations = exhaustive_pairs(mech, n, m, grid)
                scope = f"exhaustive {n}x{m} grid {args.grid}"
            else:
                spec = FuzzSpec(n=n, m=m, values=grid)
                violations = fuzz(mech, spec, args.trials, args.seed)
                scope = f"{args.trials} seeded trials"
    except MechanismError as exc:
        print(f"mechanism failure: {exc}", file=sys.stderr)
        return 4
    print(f"{len(violations)} violation(s) over {scope}")
    if not args.out:
        return 0
    text = json_text([v.to_json_dict(dense=False) for v in violations])
    return _write(args.out, text, f"wrote {args.out}")


def cmd_verify(args):
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 1
    defects = verify_report(report)
    # a report that is not a JSON object has a defect, and no .get
    recorded = not defects and str(report.get("mechanism")).startswith("extern:")

    def rebuild(selector):
        if recorded:
            return RecordedAnswers(selector, report.get("transcript", []))
        return make_mechanism(selector)

    if not defects:
        try:
            defects = replay_report(report, rebuild)
        except (MechanismError, *MALFORMED_REPORT) as exc:
            defects = [f"replay failed: {exc}"]
    if defects:
        print(f"verification failed: {defects[0]}", file=sys.stderr)
        return 1
    source = "recorded answers" if recorded else f"mechanism {report['mechanism']}"
    print(f"report verified: verdict checked, replay against {source} matched")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "gen": cmd_gen,
        "attack": cmd_attack,
        "bounds": cmd_bounds,
        "wmon": cmd_wmon,
        "verify": cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
