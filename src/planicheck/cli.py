"""Command-line harness.

Four subcommands: ``ssa`` solves one two-sides-one-angle query and classifies
the solution pair, ``verify`` runs the seeded property suites, ``scenario``
scans one registered scenario and its forward-implication samples, ``logic``
checks the composition-calculus equivalences or a user-supplied pair.

Angles are degrees at this boundary and radians/cosines internally.  On
the exact backend ``ssa`` takes a degree angle as the exact value of its
double cosine, and an answer the exact payloads cannot represent ends in
their ``ExactValueError``, one ``error:`` line and exit 2.  Reports
are deterministic for a fixed config (wall time aside); the PRNG is the
Mersenne Twister from the standard library, recorded in the config echo as
``mt19937``.

Each ``cmd_*`` handler validates what argparse cannot, runs, prints its
result lines and returns ``(config, checks, report parts)``; it raises
``UsageError`` for an input it rejects.  ``main`` alone ends a run: it
times the handler call, turns every ``UsageError`` (the one base of each
layer's named input error) into one ``error:`` line, adds ``command`` and
``rng_algorithm`` to the config echo, writes the report and chooses the exit
code: 0 when every check passes and any scan is contained or exploratory,
1 otherwise, 2 on a usage or config error.  A ``DichotomyViolationError``
from ``ssa`` (a float ``--eps`` below binary64 resolution) is a failed check:
one ``error:`` line and exit code 1.

Each handler imports the layers it runs when it runs, so a command loads
only those: ``logic`` and ``scenario`` never load the scalar, kernel or SSA
layers, and parsing the arguments loads none.  The handlers read each
layer's functions from its module at call time.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Dict, List, Optional, Tuple

from .errors import DichotomyViolationError, UsageError
from .report import CheckResult
from . import report as rpt

RNG_ALGORITHM = "mt19937"
# (config echo, checks, build_report keyword arguments)
Outcome = Tuple[Dict, List[CheckResult], Dict]


def _add_report_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--report", metavar="PATH",
                        help="write the full report to this file")
    parser.add_argument("--format", choices=("json", "markdown"),
                        default="json", help="report format (default json)")


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive and finite")
    return value


def _positive_side(text: str):
    """A side length as a ``Fraction``, read as ``--cos`` is read (a
    decimal or a fraction like 1/10), so that the exact backend takes it
    unrounded; its double must be positive and finite, as a float side's
    must."""
    from fractions import Fraction
    try:
        value = Fraction(text)
        ok = float(value) > 0  # OverflowError past the largest double
    except (ValueError, ZeroDivisionError, OverflowError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive and finite")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planicheck",
        description="verification toolkit for the two-sides-one-angle "
                    "congruence dichotomy and its scenario family")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ssa = sub.add_parser("ssa", help="solve one SSA query")
    p_ssa.add_argument("--a", type=_positive_side, required=True,
                       help="first side length, as a decimal or a fraction "
                            "like 1/10")
    p_ssa.add_argument("--b", type=_positive_side, required=True,
                       help="second side length, as --a")
    angle_group = p_ssa.add_mutually_exclusive_group(required=True)
    angle_group.add_argument("--angle-deg", type=float,
                             help="given angle in degrees")
    angle_group.add_argument("--cos", metavar="VALUE",
                             help="cosine of the given angle, as a decimal or "
                                  "a fraction like 3/5 (how the exact backend "
                                  "takes rational angles)")
    group = p_ssa.add_mutually_exclusive_group()
    group.add_argument("--opposite", choices=("a", "b"), default="a",
                       help="side the angle is opposite to (default a)")
    group.add_argument("--included", action="store_true",
                       help="the angle is included between the two sides")
    p_ssa.add_argument("--backend", choices=("float", "exact"),
                       default="float")
    p_ssa.add_argument("--eps", type=_positive_float, default=1e-9)
    _add_report_flags(p_ssa)

    p_verify = sub.add_parser("verify", help="run the seeded property suites")
    p_verify.add_argument("--samples", type=_positive_int, default=100000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--backend", choices=("float", "exact"),
                          default="float")
    p_verify.add_argument("--eps", type=_positive_float, default=1e-9)
    _add_report_flags(p_verify)

    p_scen = sub.add_parser("scenario", help="scan one registered scenario")
    p_scen.add_argument("name", help="scenario name")
    p_scen.add_argument("--grid-step-deg", type=_positive_float, default=0.25)
    p_scen.add_argument("--refine-tol", type=_positive_float, default=1e-12)
    p_scen.add_argument("--delta", type=_positive_float, default=1e-6)
    p_scen.add_argument("--samples", type=_positive_int, default=1000,
                        help="forward-implication samples")
    p_scen.add_argument("--seed", type=int, default=42)
    p_scen.add_argument("--rect-t", type=float, default=None,
                        help="rectangle height fraction (rectangle-center only)")
    _add_report_flags(p_scen)

    p_logic = sub.add_parser("logic", help="check propositional equivalences")
    p_logic.add_argument("--formula", help="left formula text")
    p_logic.add_argument("--equiv", help="right formula text")
    p_logic.add_argument("--constraint",
                         help="restrict assignments to those satisfying this")
    _add_report_flags(p_logic)

    return parser


def _atan2_deg(y, x) -> float:
    return math.degrees(math.atan2(y.as_float(), x.as_float()))


def _print_checks(checks: List[CheckResult]):
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status}  {c.name}  samples={c.samples}  "
              f"worst_residual={rpt.round12(c.worst_residual)}")
        for w in c.witnesses:
            print(f"      witness: {w}")


def cmd_ssa(args) -> Outcome:
    from fractions import Fraction
    from .scalars import EXACT, FloatBackend
    from .kernel import squared_distance
    from .ssa import (SsaSpec, Supplementary, classify_pair, predict_case,
                      solve_ssa)

    if args.angle_deg is not None and not 0 < args.angle_deg < 180:
        raise UsageError("--angle-deg must lie strictly between 0 and 180")
    if args.cos is not None:
        try:
            cos_fraction = Fraction(args.cos)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--cos {args.cos!r} is not a number")
    else:
        cos_fraction = Fraction(math.cos(math.radians(args.angle_deg)))
    # sides are the rationals typed and a degree angle the exact dyadic
    # value of its double cosine, on every designation; the float backend
    # rounds each to the nearest double (for a decimal side, the double
    # float() reads), so the query is deterministic either way.  Whether the
    # exact backend can represent the answer is its payloads' decision
    backend = EXACT if args.backend == "exact" else FloatBackend(args.eps)
    opposite, adjacent = args.a, args.b
    if args.opposite == "b" and not args.included:
        opposite, adjacent = adjacent, opposite
    # validates the sides and the angle of either designation; the printed
    # arithmetic runs on its Scalar views
    spec = SsaSpec(backend, opposite, adjacent, cos_fraction)
    opposite, adjacent, cos_scalar = spec.side_a, spec.side_b, spec.cos_angle

    # everything that can fail is computed before the first line goes out,
    # so an invalid or overflowing query leaves stdout empty
    case = predict_case(opposite, adjacent, included=args.included)
    lines = [f"predicted case: {case.value}"]
    solutions: List[Dict] = []
    extra: Dict = {"predicted_case": case.value, "solutions": solutions}
    if args.included:
        # unique triangle by the included-angle criterion; place the first
        # side along the x axis
        apex_x = opposite * cos_scalar
        apex_y = opposite * (backend.scalar(1) - cos_scalar * cos_scalar).sqrt()
        third_sq = (opposite * opposite + adjacent * adjacent
                    - backend.scalar(2) * opposite * adjacent * cos_scalar)
        third = third_sq.sqrt().as_float()
        lines += ["1 solution (included angle):",
                  f"  solution 1: third side {rpt.round12(third)}, "
                  f"apex at ({rpt.round12(apex_x.as_float())}, "
                  f"{rpt.round12(apex_y.as_float())})"]
        solutions.append({"third_side": third})
    else:
        tris = solve_ssa(spec)
        lines.append(f"{len(tris)} solution{'s' if len(tris) != 1 else ''}")
        one = backend.scalar(1)
        sin_scalar = ((one - cos_scalar) * (one + cos_scalar)).sqrt()
        for i, tri in enumerate(tris):
            # each angle is atan2 of its sine and cosine times a, lengths of
            # degree 1 by the laws of sines and cosines: acos of a cosine
            # loses digits near 0 and 180 deg, and measure's cosines divide
            # by a degree-4 root that overflows at sides the solver accepts
            third_side = backend.scalar(squared_distance(tri.A, tri.B)).sqrt()
            apex_deg = _atan2_deg(adjacent * sin_scalar,
                                  third_side - adjacent * cos_scalar)
            base_deg = _atan2_deg(third_side * sin_scalar,
                                  adjacent - backend.scalar(tri.B._x))
            third = third_side.as_float()
            bx, by = tri.B.as_floats()
            lines.append(f"  solution {i + 1}: third side {rpt.round12(third)}, "
                         f"apex angle {rpt.round12(apex_deg)} deg, "
                         f"base angle {rpt.round12(base_deg)} deg, "
                         f"apex ({rpt.round12(bx)}, {rpt.round12(by)})")
            solutions.append({"third_side": third, "apex_angle_deg": apex_deg,
                              "base_angle_deg": base_deg})
        if len(tris) == 2:
            verdict = classify_pair(*tris)
            if isinstance(verdict, Supplementary):
                # the angles at B are the apex angles printed above
                d1, d2 = (sol["apex_angle_deg"] for sol in solutions)
                lines.append(f"verdict: Supplementary({rpt.round12(d1)} deg, "
                             f"{rpt.round12(d2)} deg)")
                extra["verdict"] = {"kind": "Supplementary",
                                    "angles_deg": [d1, d2]}
            else:
                lines.append(f"verdict: {type(verdict).__name__}")
                extra["verdict"] = {"kind": type(verdict).__name__}
    print("\n".join(lines))

    # sides echo as the exact rationals read, as the cosine does, so that
    # feeding the echo back replays the query on either backend
    config = {"a": str(args.a), "b": str(args.b),
              **({"cos": str(cos_fraction)} if args.cos is not None
                 else {"angle_deg": args.angle_deg}),
              "designation": "included" if args.included else
              f"opposite-{args.opposite}",
              "backend": args.backend, "eps": args.eps}
    return config, [], {"extra": extra}


def cmd_verify(args) -> Outcome:
    from .suites import run_verify_suites

    checks = run_verify_suites(args.samples, args.seed,
                               backend=args.backend, eps=args.eps)
    _print_checks(checks)
    config = {"samples": args.samples, "seed": args.seed,
              "backend": args.backend, "eps": args.eps}
    return config, checks, {}


def cmd_scenario(args) -> Outcome:
    from .scenarios import get_scenario, level_set_scan, run_scenario_suites

    get_scenario(args.name)  # an unknown name is reported before --rect-t
    kwargs = {}
    if args.name == "rectangle-center":
        # an out-of-range height raises from the scan's first residual
        # call, on the first grid row, before any node is evaluated
        kwargs["t"] = 0.5 if args.rect_t is None else args.rect_t
    elif args.rect_t is not None:
        raise UsageError("--rect-t only applies to rectangle-center")
    scan = level_set_scan(args.name, math.radians(args.grid_step_deg),
                          refine_tol=args.refine_tol, delta=args.delta,
                          **kwargs)
    checks = run_scenario_suites(args.name, args.samples, args.seed, **kwargs)
    print(f"scenario {args.name}: {len(scan.roots)} roots, "
          f"containment={'true' if scan.contained else 'false'}"
          f"{'' if scan.asserted else ' (exploratory, not asserted)'}")
    for v in scan.violations[:5]:
        print(f"  off-branch root: alpha={rpt.round12(math.degrees(v.alpha))} "
              f"beta={rpt.round12(math.degrees(v.beta))} deg")
    _print_checks(checks)
    config = {"scenario": args.name, "grid_step_deg": args.grid_step_deg,
              "refine_tol": args.refine_tol, "delta": args.delta,
              "samples": args.samples, "seed": args.seed,
              **({"rect_t": kwargs["t"]} if kwargs else {})}
    return config, checks, {"scan": scan}


def cmd_logic(args) -> Outcome:
    from .logic import (equivalent, format_formula, parse_formula,
                        verify_scheme_equivalences)

    if (args.formula is None) != (args.equiv is None):
        raise UsageError("--formula and --equiv must be given together")
    if args.constraint is not None and args.formula is None:
        raise UsageError("--constraint needs --formula and --equiv")
    if args.formula is None:
        checks = []
        for lc in verify_scheme_equivalences():
            status = "pass" if lc.passed else "FAIL"
            scope = (f"{lc.result.constrained_rows}/{lc.result.rows} rows"
                     if lc.constrained else f"{lc.result.rows} rows")
            print(f"{status}  {lc.name}  ({scope})")
            checks.append(CheckResult(
                lc.name, lc.passed, lc.result.rows, 0.0,
                [] if lc.passed else [dict(lc.result.witness)]))
        print(f"{sum(c.passed for c in checks)}/{len(checks)} checks pass")
        return {}, checks, {}
    f1 = parse_formula(args.formula)
    f2 = parse_formula(args.equiv)
    constraint = (parse_formula(args.constraint)
                  if args.constraint is not None else None)
    result = equivalent(f1, f2, constraint)
    if result.equivalent:
        print(f"equivalent: {format_formula(f1)}  <=>  {format_formula(f2)}"
              + (f"  under {format_formula(constraint)}" if constraint else ""))
    else:
        print(f"not equivalent; witness: {result.witness}")
    check = CheckResult("formula-equivalence", result.equivalent, 1, 0.0,
                        [] if result.equivalent else [dict(result.witness)])
    config = {"formula": args.formula, "equiv": args.equiv,
              "constraint": args.constraint}
    extra = {"rows": result.rows, "constrained_rows": result.constrained_rows}
    return config, [check], {"extra": extra}


HANDLERS = {"ssa": cmd_ssa, "verify": cmd_verify, "scenario": cmd_scenario,
            "logic": cmd_logic}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config, checks, parts = HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DichotomyViolationError as exc:
        # a failed check, not a usage error: a float eps below binary64
        # resolution makes the solver's own pair read as not supplementary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_time_s = time.perf_counter() - started
    body = rpt.build_report({"command": args.command, **config,
                             "rng_algorithm": RNG_ALGORITHM}, checks, **parts)
    if args.report:
        render = rpt.render_json if args.format == "json" else rpt.render_markdown
        with open(args.report, "w") as handle:
            handle.write(render(body, wall_time_s))
    scan = parts.get("scan")
    passed = all(c.passed for c in checks) and (
        scan is None or scan.contained or not scan.asserted)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
