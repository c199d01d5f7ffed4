"""Command-line front end.

Subcommands
    enumerate      list admissible degree types for (d, delta)
    build          write a seeded random matrix file for a degree type
    nodes          run the node-count pipeline on a matrix or surface file
    cohomology     print the (h0, h1, chi) table for a matrix file
    verify-case    run a named pinned scenario end to end
    kummer-search  search the squared-coordinate quartic family for t = 16

Exit codes
    0  success / scenario passed
    1  verification failed (scenario sub-check or requested identity)
    2  usage errors: bad flags, malformed input files, invalid types,
       unknown constraint names, cohomology --t in section mode or on
       a surface that is not a quartic, a rational input to nodes
       (node counting runs over a prime field), an output path that
       cannot be written (build, nodes and kummer-search reject an
       --out in a missing directory before any work)
    3  degenerate input (zero or non-reduced determinant)
    4  uncertified or not found (report not certified, chart mismatch,
       certificate cannot run because p <= t, search budget exhausted,
       optional scenario skipped)
    5  resource budget exhausted in the Groebner engine

The environment variable SYMMETROIDS_PAIR_BUDGET overrides the default
S-pair budget; the --pair-budget flag overrides both.  A variable that
does not hold an integer is a usage error (exit 2) for the commands that
run the Groebner engine (nodes, verify-case, kummer-search).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .cohomology import (
    check_chi_node_formula,
    cohomology_table,
    plane_section_presentation,
    surface_presentation,
    table_duality_symmetry,
    RangeTooSmallError,
)
from .enumeration import (
    CONSTRAINT_NAMES,
    PROFILES,
    ConstraintProfile,
    enumerate_degree_types,
)
from .fields import FieldError, PrimeField, QQ
from .groebner import CertificateError, PairBudgetError, ResourceBudgetError
from .kummer import search_sixteen_nodes
from .matrices import (
    DegenerateMatrixError,
    DegreeType,
    SymmetricFormMatrix,
    dump_json_bytes,
    matrix_from_json_dict,
    matrix_to_json_dict,
    surface_from_json_dict,
    surface_from_matrix,
)
from .nodes import (
    ChartMismatchError,
    DegenerateSurfaceError,
    UnsupportedFieldError,
    count_nodes,
    rank_drop_check,
)
from .polynomials import PolyParseError
from .scenarios import SCENARIO_IDS, UnknownScenarioError, run_scenario

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_UNCERTIFIED = 4
EXIT_BUDGET = 5


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _parse_field(text: str):
    label = text.strip().lower()
    if label in ("q", "qq"):
        return QQ
    if label.startswith("fp:"):
        try:
            return PrimeField(int(label[3:]))
        except (ValueError, FieldError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"unknown field {text!r}; use 'q' or 'fp:<prime>'"
    )


def _parse_type_string(text: str) -> "tuple[int, ...]":
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    try:
        degrees = tuple(int(part) for part in inner.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse degree type {text!r}")
    if not degrees:
        raise argparse.ArgumentTypeError(f"cannot parse degree type {text!r}")
    return degrees


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}")


def _check_out_dir(path: "str | None") -> None:
    """Reject an --out path in a missing directory before any work."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise _UsageError(f"cannot write {path}: no such directory {directory}")


def _write_file(path: str, payload: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


class _UsageError(Exception):
    pass


def cmd_enumerate(args) -> int:
    try:
        if args.constraints:
            names = [n.strip() for n in args.constraints.split(",") if n.strip()]
            profile = ConstraintProfile.from_names(names)
        else:
            profile = PROFILES[args.profile]
        found = enumerate_degree_types(args.d, args.delta, profile)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"enumerate: {exc}")
    if args.format == "json":
        payload = [
            {"d": dt.d, "delta": dt.delta, "degree_type": list(dt.degrees)}
            for dt in found
        ]
        print(json.dumps(payload, indent=2))
    else:
        for dt in found:
            print("(" + ",".join(str(x) for x in dt.degrees) + ")")
    return EXIT_OK


def cmd_build(args) -> int:
    _check_out_dir(args.out)
    try:
        dt = DegreeType(args.d, args.delta, args.type)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"build: invalid degree type: {exc}")
    matrix = SymmetricFormMatrix.random(dt, args.field, seed=args.seed)
    try:
        spec = surface_from_matrix(matrix)
    except DegenerateMatrixError:
        return _fail(
            EXIT_DEGENERATE,
            "build: determinant is identically zero for this seed; "
            "retry with a different --seed",
        )
    payload = dump_json_bytes(matrix_to_json_dict(matrix))
    _write_file(args.out, payload)
    digest = hashlib.sha256(payload).hexdigest()[:12]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "out": args.out,
                    "degree_type": list(dt.degrees),
                    "det_degree": spec.d,
                    "sha256": digest,
                }
            )
        )
    else:
        print(f"wrote {args.out}: det degree {spec.d}, sha256 {digest}")
    return EXIT_OK


def _read_matrix_or_surface(path: str):
    obj = _load_json_file(path)
    try:
        if "entries" in obj:
            matrix = matrix_from_json_dict(obj)
            return matrix, surface_from_matrix(matrix)
        return None, surface_from_json_dict(obj)
    except DegenerateMatrixError:
        raise
    except (KeyError, ValueError, FieldError, PolyParseError) as exc:
        raise _UsageError(f"{path}: {exc}")


def cmd_nodes(args) -> int:
    _check_out_dir(args.out)
    try:
        matrix, spec = _read_matrix_or_surface(args.input)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, f"nodes: {exc}")
    except DegenerateMatrixError:
        return _fail(EXIT_DEGENERATE, "nodes: determinant is identically zero")
    try:
        report = count_nodes(
            spec, seed=args.seed, audit=not args.no_audit, pair_budget=args.pair_budget
        )
        if matrix is not None:
            rank_drop_check(matrix, report)
    except UnsupportedFieldError as exc:
        return _fail(EXIT_USAGE, f"nodes: {exc}")
    except DegenerateSurfaceError as exc:
        return _fail(EXIT_DEGENERATE, f"nodes: {exc}")
    except (ChartMismatchError, CertificateError) as exc:
        return _fail(EXIT_UNCERTIFIED, f"nodes: {exc}")
    except ResourceBudgetError as exc:
        return _fail(EXIT_BUDGET, f"nodes: {exc}")
    payload = report.to_json_dict()
    if args.out:
        _write_file(args.out, dump_json_bytes(payload))
    if args.format == "json" or args.out is None:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"t={report.t} certified={report.reduced_certified} "
            f"rank_drop={report.rank_drop_consistent}"
        )
    if not report.reduced_certified:
        return _fail(EXIT_UNCERTIFIED, "nodes: report is not certified")
    if matrix is not None and report.rank_drop_consistent is not True:
        return _fail(EXIT_FAIL, "nodes: rank-drop consistency failed")
    return EXIT_OK


def cmd_cohomology(args) -> int:
    obj = _load_json_file(args.input)
    try:
        matrix = matrix_from_json_dict(obj)
    except (KeyError, ValueError, FieldError, PolyParseError) as exc:
        return _fail(EXIT_USAGE, f"cohomology: {args.input}: {exc}")
    lo, hi = args.m_min, args.m_max
    if hi < lo:
        return _fail(EXIT_USAGE, "cohomology: --m-max must be >= --m-min")
    if args.mode == "section":
        if args.t is not None:
            return _fail(EXIT_USAGE, "cohomology: --t applies to --mode surface only")
        pres = plane_section_presentation(matrix, seed=args.seed)
    else:
        pres = surface_presentation(matrix)
    if args.t is not None:
        try:
            chi_ok = check_chi_node_formula(pres, args.t)
        except ValueError as exc:
            return _fail(EXIT_USAGE, f"cohomology: --t: {exc}")
    table = cohomology_table(pres, range(lo, hi + 1))
    if args.format == "json":
        print(json.dumps(table.to_json_dict(), indent=2))
    else:
        print(table.format_text())
    status = EXIT_OK
    if args.mode == "section":
        try:
            symmetric = table_duality_symmetry(table)
            if args.format != "json":
                print(f"duality symmetry: {'ok' if symmetric else 'FAILED'}")
            if not symmetric:
                status = EXIT_FAIL
        except RangeTooSmallError:
            if args.format != "json":
                print("duality symmetry: range too small, skipped")
    elif args.t is not None:
        if args.format != "json":
            print(f"chi == (8 - t)/4: {'ok' if chi_ok else 'FAILED'}")
        if not chi_ok:
            status = EXIT_FAIL
    return status


def cmd_verify_case(args) -> int:
    try:
        result = run_scenario(
            args.id, workers=args.workers, pair_budget=args.pair_budget
        )
    except UnknownScenarioError as exc:
        return _fail(EXIT_USAGE, f"verify-case: {exc}")
    if args.format == "json":
        print(json.dumps(result.to_json_dict(), indent=2))
    else:
        print(result.format_text())
    if result.skipped:
        return EXIT_UNCERTIFIED
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_kummer_search(args) -> int:
    _check_out_dir(args.out)
    try:
        field = PrimeField(args.p)
    except FieldError as exc:
        return _fail(EXIT_USAGE, f"kummer-search: {exc}")
    try:
        result = search_sixteen_nodes(field, args.seed, args.budget)
    except CertificateError as exc:
        return _fail(EXIT_USAGE, f"kummer-search: {exc}")
    if result is None:
        return _fail(
            EXIT_UNCERTIFIED,
            f"kummer-search: no certified 16-node member found "
            f"within budget {args.budget}",
        )
    _write_file(args.out, dump_json_bytes(result.to_json_dict()))
    if args.format == "json":
        print(json.dumps({"out": args.out, "t": result.report.t,
                          "trial": result.trial}))
    else:
        print(
            f"wrote {args.out}: t={result.report.t} certified on trial "
            f"{result.trial} (seed {args.seed})"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmetroids",
        description="Symmetric determinantal representations of nodal surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("enumerate", help="list admissible degree types")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=int, choices=(0, 1), required=True)
    p.add_argument("--profile", choices=tuple(PROFILES), default="default")
    p.add_argument(
        "--constraints",
        help="comma-separated constraint names overriding --profile "
        f"(known: {', '.join(CONSTRAINT_NAMES)})",
    )
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("build", help="write a seeded random matrix file")
    p.add_argument("--type", type=_parse_type_string, required=True,
                   help='degree type, e.g. "(2,2)"')
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=int, choices=(0, 1), required=True)
    p.add_argument("--field", type=_parse_field, default=PrimeField(31991),
                   help="'q' or 'fp:<prime>' (default fp:31991)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    add_format(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("nodes", help="count and certify nodes")
    p.add_argument("input", help="matrix or surface JSON file")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-audit", action="store_true",
                   help="skip the second-chart audit")
    p.add_argument("--pair-budget", type=int)
    p.add_argument("--out", help="write the report JSON here")
    add_format(p)
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("cohomology", help="print the cohomology table")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--mode", choices=("surface", "section"), default="section")
    p.add_argument("--m-min", type=int, default=0)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--seed", type=int, default=1,
                   help="seed for the random plane in section mode")
    p.add_argument("--t", type=int,
                   help="surface mode: check chi == (8 - t)/4 for quartics")
    add_format(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("verify-case", help="run a named pinned scenario")
    p.add_argument("id", help=f"one of: {', '.join(SCENARIO_IDS)}")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--pair-budget", type=int)
    add_format(p)
    p.set_defaults(func=cmd_verify_case)

    p = sub.add_parser("kummer-search",
                       help="search the squared-coordinate family for t=16")
    p.add_argument("--p", type=int, default=31991)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--out", default="kummer_fixture.json")
    add_format(p)
    p.set_defaults(func=cmd_kummer_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except PairBudgetError as exc:
        return _fail(EXIT_USAGE, f"{args.command}: {exc}")
    except ResourceBudgetError as exc:
        return _fail(EXIT_BUDGET, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
