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
scalar expression syntax.  Every command takes --format table|json and
renders only the format it prints: its handler returns the exit code and
either the table text or the JSON object, and main writes it once.  Exit
status: 0 when all checked claims are reproduced, 1 when the report
contains discrepancies, 2 on any input or computation error.  Output is
deterministic: identical invocations print identical bytes.
"""

import argparse
import json
import sys
from fractions import Fraction

from .catalog import closure_generators, get_entry, instantiate, list_entries
from .gl2 import GL2Rep, gl2_equivalent
from .conjugacy import HOWS, MAX_EXPONENT
from .matrices import Mat, centralizer, subalgebra_closure
from .report import build_report, render_table, report_exit_code
from .scalars import MAX_DIGITS
from .spinors import QSpinorRep, admissibility, q_commutant, \
    spinor_equivalent

__all__ = ["main"]


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _matrix(path: str, obj, parsed: dict) -> Mat:
    """Mat.from_json(obj, parsed), its errors naming the file obj came
    from; parsed is the one text table of the calling handler."""
    try:
        return Mat.from_json(obj, parsed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_matrix(path: str, parsed: dict) -> Mat:
    return _matrix(path, _read_json(path), parsed)


def _load_rep(path: str, parsed: dict):
    """A gl2 quadruple ({"c11": .., "c12": .., "c21": .., "c22": ..}) or a
    q-spinor pair ({"a": .., "b": ..})."""
    obj = _read_json(path)
    for cls, keys in ((GL2Rep, ("c11", "c12", "c21", "c22")),
                      (QSpinorRep, ("a", "b"))):
        if isinstance(obj, dict) and all(k in obj for k in keys):
            return cls(*(_matrix(path, obj[k], parsed) for k in keys))
    raise ValueError(f"{path}: expected keys c11/c12/c21/c22 or a/b")


def _resolve_rep(ref: str, parsed: dict):
    """A catalog entry name, or a path to a rep file."""
    try:
        entry = get_entry(ref)
    except ValueError:
        try:
            return _load_rep(ref, parsed)
        except OSError:
            raise ValueError(
                f"{ref!r} is neither a catalog entry nor a readable "
                "rep file") from None
    return instantiate(entry)


def _space(args, title: str, space, **head):
    """A solution space in the requested format: the JSON object of head
    followed by its dimension and basis, or its title line and basis."""
    if args.format == "json":
        return {**head, "dim": space.dim,
                "basis": [m.to_json() for m in space.basis]}
    lines = [f"{title}: dimension {space.dim}"]
    for k, m in enumerate(space.basis):
        lines.append(f"basis[{k}]:")
        lines.append(str(m))
    return "\n".join(lines) + "\n"


def _cmd_verify_catalog(args) -> tuple:
    report = build_report(names=args.entry, q0=args.q0,
                          orientation=args.orientation)
    out = report if args.format == "json" else render_table(report)
    return report_exit_code(report), out


def _cmd_commutant(args) -> tuple:
    space = q_commutant(_load_matrix(args.matrix, {}), reverse=args.reverse)
    title = "x*a = q*a*x solutions" if args.reverse \
        else "a*x = q*x*a solutions"
    return 0, _space(args, title, space, reverse=args.reverse)


def _cmd_admissible(args) -> tuple:
    parsed = {}
    a = _load_matrix(args.a, parsed)
    b = _load_matrix(args.b, parsed)
    c_space, verdict = admissibility(a, b, orientation=args.orientation)
    c_out = _space(args, "c-space", c_space)
    if args.format == "json":
        return 0, {
            "admissible": verdict.found,
            "orientation": args.orientation,
            "c_space": c_out,
            "witness": verdict.witness.to_json() if verdict.found else None,
        }
    lines = [f"admissible: {'yes' if verdict.found else 'no'} "
             f"(orientation {args.orientation})"]
    if verdict.found:
        lines.append("witness c with c*b != 0:")
        lines.append(str(verdict.witness))
    return 0, "\n".join(lines) + "\n" + c_out


def _cmd_centralizer(args) -> tuple:
    parsed = {}
    space = centralizer([_load_matrix(p, parsed) for p in args.matrices])
    return 0, _space(args, "centralizer", space)


def _cmd_closure(args) -> tuple:
    if args.entry:
        if args.matrices:
            raise ValueError("give either --entry or matrix files, not both")
        gens = closure_generators(args.entry, args.mode)
        title = f"closure of {args.entry} ({args.mode} mode)"
    else:
        if not args.matrices:
            raise ValueError("need matrix files or --entry")
        parsed = {}
        gens = [_load_matrix(p, parsed) for p in args.matrices]
        title = "closure"
    return 0, _space(args, title, subalgebra_closure(gens))


def _cmd_equiv(args) -> tuple:
    parsed = {}
    r1 = _resolve_rep(args.first, parsed)
    r2 = _resolve_rep(args.second, parsed)
    if isinstance(r1, GL2Rep) != isinstance(r2, GL2Rep):
        raise ValueError("cannot compare a quadruple with a q-spinor pair")
    if isinstance(r1, GL2Rep):
        verdict = gl2_equivalent(r1, r2)
        keys, per, group = ("alpha1", "alpha2"), " per column", "column"
    else:
        verdict = spinor_equivalent(r1, r2)
        keys, per, group = ("alpha",), "", "pair"
    found = verdict.found
    u, *alphas = verdict.witness if found else (None,) * (1 + len(keys))
    if args.format == "json":
        obj = {
            "equivalent": found,
            "scaling_family": f"q^k{per}, k in Z; |k| <= {MAX_EXPONENT} for a "
                              f"{group} whose power traces all vanish",
            "u": u.to_json() if found else None,
        }
        obj.update((k, str(a) if found else None)
                   for k, a in zip(keys, alphas))
        return 0, obj
    if not found:
        bound = (f"searched |k| <= {MAX_EXPONENT} only, for a {group} whose "
                 "power traces all vanish\n") if verdict.how == HOWS[3] else ""
        return 0, "equivalent: none within monomial scalings\n" + bound
    line = ", ".join(f"{k} = {a}" for k, a in zip(keys, alphas))
    return 0, f"equivalent: yes\n{line}\nu:\n{u}\n"


def _rational(text: str) -> Fraction:
    """argparse type of --q0: a rational such as 3, -1/2 or 0.5, its parts
    below 10^MAX_DIGITS; length and exponent are checked before Fraction."""
    try:
        exponent = text.lower().partition("e")[2] or 0
        if len(text) <= MAX_DIGITS and abs(int(exponent)) <= MAX_DIGITS:
            value = Fraction(text)
            if max(abs(value.numerator), value.denominator) \
                    < 10 ** MAX_DIGITS:
                return value
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgl2",
        description="exact verification of quantum GL(2) representations "
                    "and their inner actions")
    # the options every command takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"),
                        default="table", help="output format (default table)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(fn=fn)
        return p

    p = command("verify-catalog", _cmd_verify_catalog,
                "check every catalog claim and report discrepancies")
    p.add_argument("--entry", action="append", metavar="NAME",
                   help="restrict to this entry (repeatable); known: "
                        + ", ".join(list_entries()))
    p.add_argument("--q0", type=_rational, default=Fraction(2),
                   metavar="RATIONAL",
                   help="sample point for the numeric crosscheck "
                        "(default 2); write a negative one as --q0=-1/2")
    p.add_argument("--orientation", choices=("default", "flipped"),
                   default="default",
                   help="q-commutation orientation for admissibility")

    p = command("commutant", _cmd_commutant,
                "solve a*x = q*x*a for a matrix file")
    p.add_argument("matrix", help="JSON matrix file")
    p.add_argument("--reverse", action="store_true",
                   help="solve x*a = q*a*x instead")

    p = command("admissible", _cmd_admissible,
                "admissibility of a q-spinor pair (a, b)")
    p.add_argument("a", help="JSON matrix file for a")
    p.add_argument("b", help="JSON matrix file for b")
    p.add_argument("--orientation", choices=("default", "flipped"),
                   default="default")

    p = command("centralizer", _cmd_centralizer,
                "joint centralizer of the given matrices")
    p.add_argument("matrices", nargs="+", help="JSON matrix files")

    p = command("closure", _cmd_closure,
                "product closure of matrices or an entry")
    p.add_argument("matrices", nargs="*", help="JSON matrix files")
    p.add_argument("--entry", metavar="NAME",
                   help="use a catalog entry's generators instead")
    p.add_argument("--mode", choices=("single", "family"),
                   default="single",
                   help="instantiation mode for --entry (default single)")

    p = command("equiv", _cmd_equiv,
                "equivalence witness between two representations")
    p.add_argument("first", help="catalog entry name or rep JSON file")
    p.add_argument("second", help="catalog entry name or rep JSON file")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, out = args.fn(args)
        if not isinstance(out, str):
            out = json.dumps(out, indent=2) + "\n"
        sys.stdout.write(out)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code
