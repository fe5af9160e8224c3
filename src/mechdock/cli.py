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
import re
import sys
from contextlib import closing
from fractions import Fraction

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
    MAX_HALVINGS,
    MainParams,
    build_instance,
    certified_bound,
    feasibility_defect,
    least_tolerance,
    resolve_params,
    solve_best_a,
    unwritable,
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


# The exponent of a number in exponent form, as in "1e5000".
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class _ExponentPastCut(argparse.ArgumentTypeError):
    """A number whose exponent _fraction refuses to expand."""


def _fraction(text):
    """A rational from the command line, as Fraction() reads it. An
    exponent past twice int_digit_limit() is refused first: Fraction()
    builds 10^|exponent| whole, seconds at 10^7, and the value has an
    integer past the limit unless it is 0. With no limit, none is refused."""
    limit = int_digit_limit()
    try:
        exponent = _EXPONENT.search(text)
        if limit and exponent and abs(int(exponent[1])) > 2 * limit:
            raise _ExponentPastCut(
                f"bad rational {text!r}: exponent past {2 * limit}, twice the "
                "interpreter's limit for integer text"
            )
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

    def command(name, run, help, specs=None, refusal=None, **required):
        """The subcommand name, which main runs as run(args): a required
        --<flag> per keyword, taking its choices (None for any text), then
        a --<param> flag per parameter of specs. main words a ForgeError
        from run as "<refusal>: <error>", "<name> failed: <error>" by
        default."""
        # A flag's prefix is a usage error, not that flag.
        cmd = sub.add_parser(name, help=help, allow_abbrev=False)
        cmd.set_defaults(run=run, refusal=refusal or f"{name} failed")
        for flag, choices in required.items():
            cmd.add_argument(f"--{flag}", required=True, choices=choices)
        for param, coerce in _param_types(specs or {}).items():
            kind = _fraction if coerce is parse_rational else int
            cmd.add_argument(f"--{param}", type=kind)
        return cmd

    gen = command(
        "gen",
        cmd_gen,
        "write an instance file",
        specs=CONSTRUCTIONS,
        refusal="cannot build instance",
        construction=list(CONSTRUCTIONS),
    )
    gen.add_argument("--out", required=True)

    atk = command(
        "attack",
        cmd_attack,
        "run an adversary strategy",
        specs=STRATEGY_SPECS,
        refusal="bad parameters",
        strategy=sorted(STRATEGY_SPECS),
        mechanism=None,
    )
    atk.add_argument("--report")

    bounds = command("bounds", cmd_bounds, "certify parameter bounds per r")
    bounds.add_argument("--r-list", default="3,4,5", help="comma-separated r values")
    bounds.add_argument("--kc", type=int, help="chain length (default: r)")
    bounds.add_argument("--optimize", action="store_true")
    bounds.add_argument(
        "--tol",
        type=_fraction,
        default=Fraction(1, 10**4),
        help="bisection tolerance of --optimize (default: 1/10000), no finer "
        f"than its grid step halved {MAX_HALVINGS} times, about "
        f"{float(least_tolerance(*BRACKET)):.1e}",
    )
    bounds.add_argument("--out")

    wm = command("wmon", cmd_wmon, "search for monotonicity violations", mechanism=None)
    wm.add_argument("--trials", type=int, default=10000)
    wm.add_argument("--seed", type=int, default=0)
    wm.add_argument("--n", type=int, help="players (default: 3, or 2 exhaustive)")
    wm.add_argument("--m", type=int, help="jobs (default: 3, or 2 exhaustive)")
    wm.add_argument("--grid", default="0,1,2,3,4")
    wm.add_argument("--exhaustive", action="store_true")
    wm.add_argument("--out")

    command("verify", cmd_verify, "re-check a stored attack report", report=None)
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
    instance = build_instance(args.construction, _set_params(args, CONSTRUCTIONS))
    done = f"wrote {instance.n}x{instance.m} instance to {args.out}"
    return _write(args.out, json_text(instance), done)


def cmd_attack(args):
    spec = STRATEGY_SPECS[args.strategy]
    params = resolve_params(spec.params, _set_params(args, STRATEGY_SPECS))
    with closing(make_mechanism(args.mechanism)) as mech:
        report = attack(args.strategy, mech, params)
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
    rows = _bound_rows(r_values, args.kc, args.optimize, args.tol)
    lines = ["r,n,k_c,a,bound,feasible"]
    for p, bound, note in rows:
        feasible = str(bound != "").lower()
        lines.append(f"{p.r},{p.n},{p.k_c},{p.a},{bound},{feasible}")
        shown = _decimal(bound) if bound != "" else "-"
        print(f"r={p.r} n={p.n} k_c={p.k_c} a={_decimal(p.a)} bound={shown}{note}")
    return _write(args.out, "\n".join(lines), f"wrote {args.out}") if args.out else 0


def cmd_wmon(args):
    try:
        grid = tuple(_fraction(tok) for tok in args.grid.split(",") if tok.strip())
    except _ExponentPastCut as exc:
        print(f"bad --grid {args.grid!r}: {exc}", file=sys.stderr)
        return 2
    except argparse.ArgumentTypeError:
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
        print(unwritable(f"bad --grid {args.grid!r}:"), file=sys.stderr)
        return 2
    with closing(make_mechanism(args.mechanism)) as mech:
        if args.exhaustive:
            violations = exhaustive_pairs(mech, n, m, grid)
            scope = f"exhaustive {n}x{m} grid {args.grid}"
        else:
            spec = FuzzSpec(n=n, m=m, values=grid)
            violations = fuzz(mech, spec, args.trials, args.seed)
            scope = f"{args.trials} seeded trials"
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
    """Run one command and return its exit code. A ForgeError, a refused
    construction, parameter or bound, is a usage error (2), and a
    MechanismError a mechanism failure (4), each said in one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ForgeError as exc:
        print(f"{args.refusal}: {exc}", file=sys.stderr)
        return 2
    except MechanismError as exc:
        print(f"mechanism failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
