"""Command-line front end: algebra file ingestion, invariant reports,
isotope construction, and witness execution.

Exit codes: 0 when every check passes, 1 when a certificate check fails,
2 on usage, parse, or domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebras import (
    find_unit,
    ideal_search_exhaustive,
    is_commutative,
    is_jordan,
    envelope_dimension,
    isomorphism_search,
)
from .algfile import (
    parse_algebra_file,
    parse_element_coords,
    parse_matrix_file,
    serialize_matrix,
    write_algebra_file,
)
from .errors import AlgebraError, ParseError, SearchBudgetExceededError
from .fields import Field
from .isotopes import principal_isotope, r_mult_report, right_mult_fibre
from .nilpotents import nil_rank
from .witnesses import WITNESS_NAMES, run_witness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotopelab",
        description="Exact structure-constant algebras, their isotopes, "
        "and machine-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report for an algebra file")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None, help="prime for the nil-rank reduction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("rmul", help="right-multiplication operator of an element")
    p.add_argument("file")
    p.add_argument("--elem", required=True, help="coordinates, e.g. 1,-3/2,0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_rmul)

    p = sub.add_parser("isotope", help="write a principal isotope A^(f, g)")
    p.add_argument("file")
    p.add_argument("--f", required=True, dest="f_file", help="matrix file for f")
    p.add_argument("--g", dest="g_file", help="matrix file for g (default: f)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(handler=_cmd_isotope)

    p = sub.add_parser("express-rmul", help="solve R_g = M for an element g")
    p.add_argument("file")
    p.add_argument("--mat", required=True, help="matrix file for M")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_express_rmul)

    p = sub.add_parser("iso-search", help="exhaustive isomorphism search (small gf only)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_iso_search)

    p = sub.add_parser("nilrank", help="nil-rank report")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None, help="prime for the rational reduction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_nilrank)

    p = sub.add_parser("witness", help="run a certificate pipeline")
    p.add_argument("name", choices=WITNESS_NAMES)
    p.add_argument("--rho", help="a scalar (int or num/den)")
    p.add_argument("--n", type=int, help="an integer")
    p.add_argument("--abg", help="three comma-separated scalars")
    p.add_argument("--sigma", help="a nonzero scalar")
    p.add_argument("--tau", help="a nonzero scalar")
    p.add_argument("--gf", type=int, help="run over gf <p> instead of the rationals")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_witness)
    return parser


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _nil_summary(report) -> tuple[dict, str]:
    """JSON fields and the text line of a nil-rank report; a rational
    algebra reduced mod p says so in both."""
    payload = {
        "rank": report.rank,
        "method": report.method,
        "closure_caveat": report.closure_caveat,
        "witnesses": [str(w) for w in report.witnesses],
    }
    line = f"nil-rank: {report.rank}  [{report.method}]"
    if report.closure_caveat:
        line += " (closure caveat)"
    if report.reduced_mod is not None:
        payload["reduced_mod"] = report.reduced_mod
        line += f" (reduced mod {report.reduced_mod})"
    return payload, line


def _cmd_analyze(args) -> int:
    A = parse_algebra_file(args.file)
    # first, so that a bad --p exits before the other steps run
    nil_payload, nil_line = _nil_summary(nil_rank(A, p=args.p))
    commutative = is_commutative(A)
    unit = find_unit(A)
    if not commutative:
        jordan = "n/a (not commutative)"
    else:
        jordan = "yes" if is_jordan(A) else "no"
    env = envelope_dimension(A)
    # a full envelope forces a nonzero product
    simple = env == A.n * A.n
    try:
        ideals = ideal_search_exhaustive(A)
    except SearchBudgetExceededError:
        ideal_note = "skipped (needs gf with n <= 4, p <= 7)"
        ideal_list = None
    else:
        ideal_note = "none found" if not ideals else f"found {len(ideals)}"
        ideal_list = [[str(e) for e in basis] for basis in ideals]
    payload = {
        "file": args.file,
        "field": str(A.field),
        "dim": A.n,
        "names": list(A.names) if A.names else None,
        "commutative": commutative,
        "unit": str(unit) if unit else None,
        "jordan": jordan,
        "envelope_dim": env,
        "simple_closure": simple,
        "ideal_search": ideal_note,
        "ideals": ideal_list,
        "nil_rank": nil_payload,
    }
    text = "\n".join(
        [
            f"file: {args.file}",
            f"field: {A.field}",
            f"dim: {A.n}",
            f"names: {' '.join(A.names) if A.names else '-'}",
            f"commutative: {'yes' if commutative else 'no'}",
            f"unit: {unit if unit else 'none'}",
            f"jordan: {jordan}",
            f"simple (closure criterion): {'yes' if simple else 'no'}  [envelope {env}/{A.n * A.n}]",
            f"ideal search (exhaustive): {ideal_note}",
            nil_line,
            "nil witnesses: " + ", ".join(nil_payload["witnesses"]),
        ]
    )
    _emit(payload, args.json, text)
    return 0


def _cmd_rmul(args) -> int:
    A = parse_algebra_file(args.file)
    el = parse_element_coords(args.elem, A)
    rep = r_mult_report(el)
    payload = {
        "element": str(el),
        "matrix": [[str(v) for v in row] for row in rep.matrix.rows],
        "determinant": str(rep.determinant),
        "invertible": rep.invertible,
    }
    text = "\n".join(
        [
            f"element: {el}",
            "right multiplication matrix:",
            serialize_matrix(rep.matrix).rstrip(),
            f"determinant: {rep.determinant}",
            f"invertible: {'yes' if rep.invertible else 'no'}",
        ]
    )
    _emit(payload, args.json, text)
    return 0


def _cmd_isotope(args) -> int:
    A = parse_algebra_file(args.file)
    f = parse_matrix_file(args.f_file, A.field)
    g = parse_matrix_file(args.g_file, A.field) if args.g_file else f
    iso = principal_isotope(A, f, g)
    write_algebra_file(args.out, iso, comment=f"principal isotope of {args.file}")
    print(f"wrote {args.out}")
    return 0


def _cmd_express_rmul(args) -> int:
    A = parse_algebra_file(args.file)
    m = parse_matrix_file(args.mat, A.field)
    sol = right_mult_fibre(A, m)
    if sol is None:
        _emit({"element": None}, args.json, "none (no element has this right-multiplication matrix)")
        return 0
    el = A.element(sol.point)
    payload = {"element": str(el), "kernel_dim": len(sol.kernel)}
    text = f"element: {el}"
    if sol.kernel:
        text += f"  (one of an affine family, kernel dimension {len(sol.kernel)})"
    _emit(payload, args.json, text)
    return 0


def _cmd_iso_search(args) -> int:
    A = parse_algebra_file(args.file_a)
    B = parse_algebra_file(args.file_b)
    m = isomorphism_search(A, B)
    if m is None:
        _emit({"isomorphism": None}, args.json, "none (exhaustive scan found no isomorphism)")
    else:
        payload = {"isomorphism": [[str(v) for v in row] for row in m.rows]}
        _emit(payload, args.json, "isomorphism found:\n" + serialize_matrix(m).rstrip())
    return 0


def _cmd_nilrank(args) -> int:
    A = parse_algebra_file(args.file)
    payload, line = _nil_summary(nil_rank(A, p=args.p))
    text = line + "\nwitnesses: " + ", ".join(payload["witnesses"])
    _emit(payload, args.json, text)
    return 0


def _parse_scalar_arg(text: str | None, option: str) -> Fraction | None:
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad {option} value {text!r}") from None


def _cmd_witness(args) -> int:
    field = Field.gf(args.gf) if args.gf is not None else Field.rationals()
    rho = _parse_scalar_arg(args.rho, "--rho")
    abg = None
    if args.abg is not None:
        abg = tuple(_parse_scalar_arg(t, "--abg") for t in args.abg.split(","))
    sigma = _parse_scalar_arg(args.sigma, "--sigma")
    tau = _parse_scalar_arg(args.tau, "--tau")
    cert = run_witness(args.name, field, rho=rho, n=args.n, abg=abg, sigma=sigma, tau=tau)
    _emit(cert.as_dict(), args.json, cert.render())
    return 0 if cert.verdict else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SearchBudgetExceededError as exc:
        print(f"error: search budget exceeded: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
