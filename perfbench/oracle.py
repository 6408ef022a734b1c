"""Checks of qgl2 outputs that do not rely on qgl2's own arithmetic.

Equivalence witnesses are re-verified with sympy: u * r1 * alpha must
equal r2 * u entrywise as rational functions, and det(u) must be nonzero,
which is the same as r2 = u r1 u^-1 alpha without forming the inverse.
Dimensions and verdicts are compared against the conjugation invariants
listed in workloads.py, and the catalog report against the digests of
the seed report.
"""

import hashlib
import json

# sha256 of `qgl2 verify-catalog` stdout at the seed commit, per format.
# The run exits 1 with exactly one discrepancy: perturbed-b is claimed to
# lie in another equivalence class than perturbed-a, yet an exact witness
# connects them.  That finding stays visible; any other bytes fail.
CATALOG_DIGESTS = {
    "json": "0384ff5df4d3175cd68461aba7cf850c01df5f1d9f754e2ce16de9ac465f4868",
    "table": "a3b87463005388579bf874b8ff912b56d86fb13a83e17885bfa0cb2a2e495755",
}
CATALOG_EXIT_CODE = 1
KNOWN_DISCREPANCY = (
    "perturbed-b",
    "claimed to lie in a different equivalence class than perturbed-a, "
    "but an exact equivalence witness was found")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_catalog(fmt: str, code: int, stdout: str) -> list:
    """Problems with one verify-catalog run; empty when it is the seed
    report byte for byte."""
    problems = []
    if code != CATALOG_EXIT_CODE:
        problems.append(f"exit code {code}, expected {CATALOG_EXIT_CODE}")
    if fmt == "json":
        try:
            summary = json.loads(stdout)["summary"]
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable report: {exc}"]
        found = [(name, msg) for name, msgs in
                 summary.get("discrepancies", {}).items() for msg in msgs]
        if found != [KNOWN_DISCREPANCY]:
            problems.append(f"discrepancies {found}, expected only the "
                            "known perturbed-b finding")
    if sha256(stdout) != CATALOG_DIGESTS[fmt]:
        problems.append(f"{fmt} report digest {sha256(stdout)[:16]} differs "
                        "from the seed report")
    return problems


# -- exact re-verification with sympy ------------------------------------------

def _sympy():
    import sympy
    return sympy


def parse_scalar(text: str):
    """qgl2 scalar syntax (integers, i, q, + - * / ^, parentheses) as a
    sympy expression."""
    sp = _sympy()
    if not set(text) <= set("0123456789iq+-*/^() "):
        raise ValueError(f"unexpected characters in scalar {text!r}")
    return sp.sympify(text.replace("^", "**"),
                      locals={"q": sp.Symbol("q"), "i": sp.I})


def parse_matrix(obj: dict):
    sp = _sympy()
    return sp.Matrix([[parse_scalar(x) for x in row]
                      for row in obj["entries"]])


def _is_zero(expr) -> bool:
    return _sympy().cancel(expr) == 0


def conjugates(u, m1, alpha, m2) -> bool:
    """Whether u * m1 * alpha == m2 * u holds exactly."""
    diff = u * m1 * alpha - m2 * u
    return all(_is_zero(x) for x in diff)


def check_witness(r1: dict, r2: dict, out: dict) -> list:
    """Problems with an `equiv --format json` witness carrying rep r1 onto
    rep r2 (both rep-file objects).  Empty when the witness is exact."""
    try:
        u = parse_matrix(out["u"])
        if "alpha" in out:
            scalings = {"a": parse_scalar(out["alpha"]),
                        "b": parse_scalar(out["alpha"])}
        else:
            a1, a2 = parse_scalar(out["alpha1"]), parse_scalar(out["alpha2"])
            scalings = {"c11": a1, "c21": a1, "c12": a2, "c22": a2}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable witness: {exc}"]
    if set(scalings) != set(r1) or set(r1) != set(r2):
        return ["witness does not match the kind of the reps"]
    if _is_zero(u.det()):
        return ["witness u is singular"]
    bad = [key for key, alpha in scalings.items()
           if not conjugates(u, parse_matrix(r1[key]), alpha,
                             parse_matrix(r2[key]))]
    return [f"witness fails u*{k}*u^-1*alpha = {k}'" for k in bad]
