"""Command-line interface: verification suites, replay, lattice tools.

Exit status: 0 when every check passes, 1 on a failed assertion (with the
first failing case serialized next to the report for `csympl replay`) or a
suite that raises, 2 on usage errors, unknown suites, malformed case files, or
output that cannot be written.
"""

import argparse
import csv
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from .lattice import (
    PeriodPoint,
    PostconditionError,
    TwistorCurve,
    find_section_class,
    standard_k3_lattice,
    twistor_parameter,
)
from .suites import ROW_FIELDS, SUITES, SuiteConfig, case_config, replay_case, run_suite


def _parse_dims(text):
    """The dims of a comma list; an empty part raises ValueError, which
    argparse reports with exit status 2."""
    return tuple(int(part) for part in text.split(","))


def _parse_complex(text):
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _parse_int_vector(text):
    """The integers of a comma list, brackets ignored; an empty part raises
    ValueError, which argparse reports with exit status 2."""
    return [int(part) for part in text.replace("[", "").replace("]", "").split(",")]


def _parse_float_vector(text):
    """The floats of a comma list, as ``_parse_int_vector``."""
    return [float(part) for part in text.replace("[", "").replace("]", "").split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csympl",
        description="Verification suites for c-symplectic linear algebra, "
        "degenerate twistorial deformations, and K3 lattice arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named verification suite")
    # let values like "-1,0" (complex --t) pass as arguments, not options
    run._negative_number_matcher = re.compile(r"^-\d+[\d.,eEjJ+-]*$")
    # an option whose dest is a SuiteConfig field is passed on only when
    # given, so SuiteConfig and the suite's SUITES entry hold the defaults
    run.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITES)}")
    run.add_argument("--dims", type=_parse_dims, help="comma list, e.g. 4,8,12")
    run.add_argument("--n", dest="samples", metavar="N", type=int, help="samples per dimension")
    run.add_argument("--seed", type=int, help="master seed (default: 0)")
    run.add_argument("--out", type=Path, default=None, help="report path (default: stdout)")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--grid", dest="grid_n", metavar="GRID", type=int, help="testbed resolution N")
    run.add_argument("--modes", type=int, help="testbed section mode cutoff")
    run.add_argument("--t", dest="t_value", metavar="T", type=_parse_complex, help="RE or RE,IM")
    run.add_argument("--control", help="testbed deformation: closed or nonclosed")
    run.add_argument(
        "--nodes-csv",
        type=Path,
        default=None,
        help="testbed only: write per-node residuals (x, y, holomorphy, Nijenhuis) as CSV",
    )

    rep = sub.add_parser("replay", help="re-run a serialized case with diagnostics")
    rep.add_argument("case_file", type=Path)

    lat = sub.add_parser("lattice", help="K3 lattice computations")
    lat_sub = lat.add_subparsers(dest="lattice_command", required=True)

    find = lat_sub.add_parser("find-section", help="section class for a fiber class e")
    find.add_argument("--e", required=True, type=_parse_int_vector, help="comma list of 22 integers")

    par = lat_sub.add_parser("twistor-param", help="deformation parameter t with (s, omega - t e) = 0")
    par.add_argument("--s", required=True, type=_parse_int_vector)
    par.add_argument("--e", required=True, type=_parse_int_vector)
    par.add_argument("--omega-re", required=True, type=_parse_float_vector)
    par.add_argument("--omega-im", required=True, type=_parse_float_vector)

    curve = lat_sub.add_parser("curve", help="sweep a degenerate twistor curve plane grid")
    curve.add_argument("--grid", type=int, default=10)
    curve.add_argument("--extent", type=float, default=2.0)
    return parser


def _report_csv(report) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=ROW_FIELDS)
    writer.writeheader()
    for row in report.checks:
        writer.writerow(row)
    return buffer.getvalue()


def _emit(report, out: Path, fmt: str):
    text = (
        json.dumps(report.to_json(), indent=2, default=str)
        if fmt == "json"
        else _report_csv(report)
    )
    if out is None:
        print(text)
    else:
        out.write_text(text + "\n")
        print(f"report written to {out}")


def _cmd_run(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from: {', '.join(SUITES)}", file=sys.stderr)
        return 2
    if args.nodes_csv is not None and args.suite != "testbed-nijenhuis":
        print("--nodes-csv only applies to the testbed-nijenhuis suite", file=sys.stderr)
        return 2
    for option, path in (("--out", args.out), ("--nodes-csv", args.nodes_csv)):
        if path is not None and not path.parent.is_dir():
            print(f"{option}: directory {path.parent} does not exist", file=sys.stderr)
            return 2
    fields = {f.name for f in dataclasses.fields(SuiteConfig)}
    given = {name: value for name, value in vars(args).items() if name in fields and value is not None}
    try:
        cfg = SuiteConfig(**given)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_suite(cfg)
    except (ValueError, PostconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _write_run(args, report)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _write_run(args, report) -> int:
    """Write the report, the node table and the failure case of a finished
    run, print its verdict lines, and return its exit status."""
    _emit(report, args.out, args.format)
    if args.nodes_csv is not None:
        from .suites import testbed_node_csv

        args.nodes_csv.write_text(testbed_node_csv(report))
        print(f"per-node residuals written to {args.nodes_csv}", file=sys.stderr)
    for row in report.checks:
        status = "PASS" if row["pass"] else "FAIL"
        print(
            f"[{status}] {args.suite}:{row['check']} dim={row['dim']} n={row['samples']} "
            f"max_residual={row['max_residual']:.3e}",
            file=sys.stderr,
        )
    if report.passed:
        return 0
    case_path = (args.out.parent if args.out else Path.cwd()) / f"{args.suite}-failure.json"
    if report.failure_case is not None:
        case_path.write_text(json.dumps(report.failure_case, indent=2) + "\n")
        print(f"first failing case serialized to {case_path}", file=sys.stderr)
    return 1


def _cmd_replay(args) -> int:
    try:
        case = json.loads(args.case_file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read case file: {exc}", file=sys.stderr)
        return 2
    try:
        case_config(case)  # a malformed file exits 2, a suite that raises exits 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed case file: {exc}", file=sys.stderr)
        return 2
    try:
        report = replay_case(case)
    except (ValueError, PostconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.passed else 1


def _cmd_lattice(args) -> int:
    lattice = standard_k3_lattice()
    if args.lattice_command == "find-section":
        e = args.e
        if len(e) != lattice.rank:
            print(f"expected {lattice.rank} integers for e, got {len(e)}", file=sys.stderr)
            return 2
        try:
            s = find_section_class(lattice, e)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            json.dumps(
                {
                    "e": e,
                    "s": s,
                    "pair_se": lattice.pair(s, e),
                    "pair_ss": lattice.pair(s, s),
                }
            )
        )
        return 0
    if args.lattice_command == "twistor-param":
        if any(len(v) != lattice.rank for v in (args.s, args.e, args.omega_re, args.omega_im)):
            print(f"all vectors must have length {lattice.rank}", file=sys.stderr)
            return 2
        for option, values in (("--omega-re", args.omega_re), ("--omega-im", args.omega_im)):
            if not np.isfinite(values).all():
                print(f"{option} entries must be finite, got {values}", file=sys.stderr)
                return 2
        omega = np.asarray(args.omega_re, dtype=float) + 1j * np.asarray(args.omega_im, dtype=float)
        try:
            PeriodPoint(lattice, omega)
            t = twistor_parameter(lattice, args.s, args.e, omega)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        residual = abs(lattice.pair(np.asarray(args.s), omega - t * np.asarray(args.e, dtype=float)))
        print(json.dumps({"t_re": t.real, "t_im": t.imag, "substitution_residual": residual}))
        return 0
    # curve sweep over the standard period point; an extent near the float
    # maximum overflows linspace's step into NaN points
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.linspace(-args.extent, args.extent, max(args.grid, 1))
    if args.grid < 1 or not np.isfinite(span).all():
        print(
            f"--grid must be at least 1 and --extent finite with finite sweep points, got {args.grid} and {args.extent}",
            file=sys.stderr,
        )
        return 2
    point = PeriodPoint.standard(lattice)
    e = [0] * lattice.rank
    e[4] = 1
    x, y = np.meshgrid(span, span, indexing="ij")
    grams, eigenvalues = TwistorCurve(point, e).sweep(x.ravel(), y.ravel())
    deviation = float(np.max(np.abs(grams - grams[0])))
    print(
        json.dumps(
            {
                "grid": args.grid,
                "gram": grams[0].tolist(),
                "max_gram_deviation": deviation,
                "positive_definite": bool(np.all(eigenvalues > 0)),
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    try:
        return _cmd_lattice(args)
    except PostconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
