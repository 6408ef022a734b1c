"""Command-line interface.

Subcommands:

  verify-catalog   run every check on the built-in catalog (or a subset)
  commutant        solve a*x = q*x*a (or x*a = q*a*x) for a matrix file
  admissible       decide admissibility of a q-spinor pair from two files
  centralizer      joint centralizer of the matrices in the given files
  closure          product closure of matrices, or of a catalog entry
  equiv            equivalence witness between two entries or rep files

Matrices are read from JSON files of the form
{"n": 4, "entries": [["q^2", "0", ...], ...]} with entries written in the
scalar expression syntax.  Exit status: 0 when all checked claims are
reproduced, 1 when the report contains discrepancies, 2 on any input or
computation error.  Output is deterministic: identical invocations print
identical bytes.
"""

import argparse
import json
import sys
from fractions import Fraction

from .catalog import closure_generators, get_entry, instantiate, list_entries
from .gl2 import GL2Rep, gl2_equivalent
from .matrices import MAX_EXPONENT, Mat, centralizer, subalgebra_closure
from .report import build_report, render_table, report_exit_code
from .spinors import QSpinorRep, admissibility, q_commutant, \
    spinor_equivalent

__all__ = ["main"]


def _load_matrix(path: str) -> Mat:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError(f"{path}: expected a matrix object with 'entries'")
    return Mat.from_json(obj)


def _load_rep(path: str):
    """A gl2 quadruple ({"c11": .., "c12": .., "c21": .., "c22": ..}) or a
    q-spinor pair ({"a": .., "b": ..})."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    if {"c11", "c12", "c21", "c22"} <= set(obj):
        return GL2Rep(*(Mat.from_json(obj[k])
                        for k in ("c11", "c12", "c21", "c22")))
    if {"a", "b"} <= set(obj):
        return QSpinorRep(Mat.from_json(obj["a"]), Mat.from_json(obj["b"]))
    raise ValueError(
        f"{path}: expected keys c11/c12/c21/c22 or a/b")


def _resolve_rep(ref: str):
    """A catalog entry name, or a path to a rep file."""
    try:
        get_entry(ref)
    except ValueError:
        try:
            return _load_rep(ref)
        except OSError:
            raise ValueError(
                f"{ref!r} is neither a catalog entry nor a readable "
                "rep file") from None
    return instantiate(ref)


def _emit(obj: dict, fmt: str, table: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        sys.stdout.write(table)


def _basis_table(title: str, space) -> str:
    lines = [f"{title}: dimension {space.dim}"]
    for k, m in enumerate(space.basis):
        lines.append(f"basis[{k}]:")
        lines.append(str(m))
    return "\n".join(lines) + "\n"


def _space_json(space) -> dict:
    return {"dim": space.dim, "basis": [m.to_json() for m in space.basis]}


def _cmd_verify_catalog(args) -> int:
    report = build_report(names=args.entry or None, q0=args.q0,
                          orientation=args.orientation)
    _emit(report, args.format, render_table(report))
    return report_exit_code(report)


def _cmd_commutant(args) -> int:
    a = _load_matrix(args.matrix)
    space = q_commutant(a, reverse=args.reverse)
    title = "x*a = q*a*x solutions" if args.reverse \
        else "a*x = q*x*a solutions"
    obj = {"reverse": args.reverse}
    obj.update(_space_json(space))
    _emit(obj, args.format, _basis_table(title, space))
    return 0


def _cmd_admissible(args) -> int:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    wit = admissibility(a, b, orientation=args.orientation)
    obj = {
        "admissible": wit.admissible,
        "orientation": args.orientation,
        "c_space": _space_json(wit.c_space),
        "witness": wit.witness.to_json() if wit.witness else None,
    }
    lines = [f"admissible: {'yes' if wit.admissible else 'no'} "
             f"(orientation {args.orientation})"]
    if wit.witness is not None:
        lines.append("witness c with c*b != 0:")
        lines.append(str(wit.witness))
    table = "\n".join(lines) + "\n" + _basis_table("c-space", wit.c_space)
    _emit(obj, args.format, table)
    return 0


def _cmd_centralizer(args) -> int:
    mats = [_load_matrix(p) for p in args.matrices]
    space = centralizer(mats)
    _emit(_space_json(space), args.format,
          _basis_table("centralizer", space))
    return 0


def _cmd_closure(args) -> int:
    if args.entry:
        if args.matrices:
            raise ValueError("give either --entry or matrix files, not both")
        gens = closure_generators(get_entry(args.entry), args.mode)
        title = f"closure of {args.entry} ({args.mode} mode)"
    else:
        if not args.matrices:
            raise ValueError("need matrix files or --entry")
        gens = [_load_matrix(p) for p in args.matrices]
        title = "closure"
    space = subalgebra_closure(gens)
    _emit(_space_json(space), args.format, _basis_table(title, space))
    return 0


def _cmd_equiv(args) -> int:
    r1 = _resolve_rep(args.first)
    r2 = _resolve_rep(args.second)
    if isinstance(r1, GL2Rep) != isinstance(r2, GL2Rep):
        raise ValueError("cannot compare a quadruple with a q-spinor pair")
    if isinstance(r1, GL2Rep):
        res = gl2_equivalent(r1, r2)
        keys, per = ("alpha1", "alpha2"), ", per column"
    else:
        res = spinor_equivalent(r1, r2)
        keys, per = ("alpha",), ""
    found = res is not None
    alphas = [str(a) for a in res[1:]] if found else [None] * len(keys)
    obj = {
        "equivalent": found,
        "scaling_family": f"q^k, |k| <= {MAX_EXPONENT}{per}",
        "u": res[0].to_json() if found else None,
    }
    obj.update(zip(keys, alphas))
    if found:
        line = ", ".join(f"{k} = {a}" for k, a in zip(keys, alphas))
        table = f"equivalent: yes\n{line}\nu:\n{res[0]}\n"
    else:
        table = "equivalent: none within monomial scalings\n"
    _emit(obj, args.format, table)
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format (default table)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgl2",
        description="exact verification of quantum GL(2) representations "
                    "and their inner actions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-catalog",
        help="check every catalog claim and report discrepancies")
    p.add_argument("--entry", action="append", metavar="NAME",
                   help="restrict to this entry (repeatable); known: "
                        + ", ".join(list_entries()))
    p.add_argument("--q0", type=Fraction, default=Fraction(2),
                   metavar="RATIONAL",
                   help="sample point for the numeric crosscheck "
                        "(default 2)")
    p.add_argument("--orientation", choices=("default", "flipped"),
                   default="default",
                   help="q-commutation orientation for admissibility")
    _add_format(p)
    p.set_defaults(fn=_cmd_verify_catalog)

    p = sub.add_parser("commutant",
                       help="solve a*x = q*x*a for a matrix file")
    p.add_argument("matrix", help="JSON matrix file")
    p.add_argument("--reverse", action="store_true",
                   help="solve x*a = q*a*x instead")
    _add_format(p)
    p.set_defaults(fn=_cmd_commutant)

    p = sub.add_parser("admissible",
                       help="admissibility of a q-spinor pair (a, b)")
    p.add_argument("a", help="JSON matrix file for a")
    p.add_argument("b", help="JSON matrix file for b")
    p.add_argument("--orientation", choices=("default", "flipped"),
                   default="default")
    _add_format(p)
    p.set_defaults(fn=_cmd_admissible)

    p = sub.add_parser("centralizer",
                       help="joint centralizer of the given matrices")
    p.add_argument("matrices", nargs="+", help="JSON matrix files")
    _add_format(p)
    p.set_defaults(fn=_cmd_centralizer)

    p = sub.add_parser("closure",
                       help="product closure of matrices or an entry")
    p.add_argument("matrices", nargs="*", help="JSON matrix files")
    p.add_argument("--entry", metavar="NAME",
                   help="use a catalog entry's generators instead")
    p.add_argument("--mode", choices=("single", "family"),
                   default="single",
                   help="instantiation mode for --entry (default single)")
    _add_format(p)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("equiv",
                       help="equivalence witness between two "
                            "representations")
    p.add_argument("first", help="catalog entry name or rep JSON file")
    p.add_argument("second", help="catalog entry name or rep JSON file")
    _add_format(p)
    p.set_defaults(fn=_cmd_equiv)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
