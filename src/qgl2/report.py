"""Catalog verification reports.

build_report runs every computable check for the selected catalog entries
and compares the outcomes against the published claims.  The result is a
plain dict (JSON-ready, deterministically ordered) with one record per
entry plus a summary.  A claim mismatch is recorded as a discrepancy;
external reference entries are listed but never checked and never count.

Every record, of every entry kind, is built by one path: its header,
the checks of its kind, then its crosscheck and its discrepancies.
Every dimension is computed twice by one rerun: exactly over the
rational-function field, and again with a rational sample value for q
in every input; a disagreement flags the sample point in the crosscheck
block.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .catalog import CATALOG, CatalogEntry, closure_generators, get_entry, \
    instantiate
from .clifford import build_action, counit_invariance_space
from .gl2 import gl2_equivalent, invertibility_nilpotency_check, \
    power_commutator_check, quantum_plane_split, verify_relations
from .matrices import MatSpace, centralizer, subalgebra_closure
from .scalars import GaussRational, Q
from .spinors import admissibility, check_spinor, q_commutant

__all__ = ["build_report", "render_table", "report_exit_code"]

POWER_COMMUTATOR_KMAX = 6
_MODES = ("single", "family")
_DIM_KEYS = ("operator_algebra", "invariants")


def _check(got, claimed, message: str, disc: list) -> Optional[bool]:
    """Compare got with claimed: None when nothing is claimed or got was
    not computed, else the verdict, with message recorded in disc on a
    mismatch."""
    if claimed is None or got is None:
        return None
    ok = got == claimed
    if not ok:
        disc.append(message)
    return ok


def _span(basis: Optional[tuple]) -> Optional[MatSpace]:
    return None if basis is None else MatSpace.span(list(basis))


def _twice(fn, mats: list, q0: Fraction, *args) -> tuple:
    """Run fn(mats, q, *args) exactly, then again with q and every entry
    of mats at q0.  Returns the exact results and the [exact, sampled]
    dimension of each; a result that is not a space is its own
    dimension."""
    g = GaussRational(q0)
    exact = fn(mats, Q, *args)
    sampled = fn([m.eval(g) for m in mats], g, *args)
    return exact, [[getattr(x, "dim", x), getattr(y, "dim", y)]
                   for x, y in zip(exact, sampled)]


def _algebra(gens: list, q) -> tuple:
    """(operator algebra, invariants): the closure of gens and its
    centralizer; neither needs q."""
    alg = subalgebra_closure(gens)
    return alg, centralizer(alg.basis)


def _spinor_spaces(pair: list, q, orientation: str, spinor: bool) -> tuple:
    """(B(a), B'(a), c-space, admissible) of pair = [a, b]; the last two
    need the q-spinor premise and are None without it."""
    a, b = pair
    space = found = None
    if spinor:
        space, verdict = admissibility(a, b, q=q, orientation=orientation)
        found = verdict.found
    return (q_commutant(a, q=q), q_commutant(a, q=q, reverse=True), space,
            found)


def _record(entry: CatalogEntry, q0: Fraction, orientation: str) -> dict:
    """The record of one entry: its header, the checks of its kind, then
    the crosscheck of every dimension against its rerun at q0 and the
    discrepancies.  An external entry only lists its claims."""
    rec = {
        "entry": entry.name,
        "kind": entry.kind,
        "status": "unchecked" if entry.kind == "external" else "checked",
        "description": entry.description,
    }
    disc = []
    if entry.kind == "external":
        rec["claims"] = {
            "operator_algebra": entry.claims.dim_operator_algebra,
            "invariants": entry.claims.dim_invariants,
        }
    else:
        checks = _gl2_checks if entry.kind == "gl2" else _qspinor_checks
        fields, shown, pairs = checks(entry, instantiate(entry), q0,
                                      orientation, disc)
        ok = all(x == y for x, y in pairs) if pairs else None
        _check(ok, True, f"dimension mismatch at sample point q = {q0}",
               disc)
        rec.update(fields, crosscheck={"q0": str(q0), **shown, "ok": ok})
    rec["discrepancies"] = disc
    return rec


def _gl2_checks(entry: CatalogEntry, rep, q0: Fraction, orientation: str,
                disc: list) -> tuple:
    """(fields, crosscheck pairs by mode, every pair) of a gl2 entry."""
    claims = entry.claims
    rel = verify_relations(rep)
    for label, ok in rel.relations.items():
        _check(ok, True, f"defining relation failed: {label}", disc)
    _check(rel.detq_invertible, True, "quantum determinant not invertible",
           disc)
    detq_claim = _check(rel.detq, claims.detq,
                        "quantum determinant differs from claim", disc)
    pert_claim = _check(rel.perturbation_nonzero, claims.perturbation_nonzero,
                        "perturbation zero/nonzero claim failed", disc)

    cor = invertibility_nilpotency_check(rep)
    _check(rel.ok and not cor.failures, True,
           "invertibility/nilpotency consequences failed: "
           + ", ".join(cor.failures), disc)

    pc = power_commutator_check(rep.c11, rep.c22, POWER_COMMUTATOR_KMAX)
    # a failed premise nulls what needs it: a12 and a22 need c11^-1, and
    # the closure generators detq^-1
    qp = quantum_plane_split(rep) if cor.c11_invertible else None

    spaces, shown = {}, {}
    for mode in _MODES if rel.detq_invertible else ():
        spaces[mode], pairs = _twice(_algebra,
                                     closure_generators(entry, mode), q0)
        shown[mode] = dict(zip(_DIM_KEYS, pairs))
    dims = {mode: {key: pair[0] for key, pair in shown[mode].items()}
            for mode in shown} or None

    op_space_claim = inv_space_claim = None
    if spaces:
        alg, inv = spaces["family"]
        _check(alg.dim, claims.dim_operator_algebra,
               "operator algebra dimension differs from claim "
               f"(got {alg.dim}, claimed {claims.dim_operator_algebra})",
               disc)
        _check(inv.dim, claims.dim_invariants,
               "invariant dimension differs from claim "
               f"(got {inv.dim}, claimed {claims.dim_invariants})", disc)
        op_space_claim = _check(alg, _span(claims.operator_space),
                                "operator algebra basis pattern differs "
                                "from claim", disc)
        inv_space_claim = _check(inv, _span(claims.invariant_space),
                                 "invariant space differs from claimed "
                                 "unit pattern", disc)

    action_ok = False
    counit_dim = counit_matches = None
    try:
        action = build_action(rep)
        action_ok = True
        counit = counit_invariance_space(action)
        counit_dim = counit.dim
        if spaces:
            counit_matches = counit == spaces["single"][1]
    except ValueError:
        pass
    _check(action_ok, True, "inner action undefined (block matrix singular)",
           disc)

    fields = {
        "relations": {k: bool(v) for k, v in rel.relations.items()},
        "detq_invertible": rel.detq_invertible,
        "detq_matches_claim": detq_claim,
        "perturbation_nonzero": rel.perturbation_nonzero,
        "perturbation_claim_ok": pert_claim,
        "consequences": {"applicable": rel.ok, **dataclasses.asdict(cor)},
        "power_commutator": {
            "premise_holds": pc.premise_holds,
            "checked_to": len(pc.results),
            "ok": pc.ok,
        },
        "quantum_plane": qp and {k: list(v) for k, v in qp.pairs.items()},
        "dims": dims,
        "mode_divergence": dims and dims["single"] != dims["family"],
        "operator_space_matches_claim": op_space_claim,
        "invariant_space_matches_claim": inv_space_claim,
        # M* is the exact inverse of M (Mat.inverse), so act(i,j,1) is
        # block (i,j) of M M* = I, and M* M = I gives sum_k act(i,k,v)
        # act(k,j,w) = sum_ab m_ia v (M*M)_ab w m*_bj = act(i,j,v w): a
        # defined action is unital and satisfies the module-algebra law
        "action": {"well_defined": action_ok, "unital": action_ok,
                   "module_algebra": action_ok},
        "counit_invariants_dim": counit_dim,
        "counit_matches_centralizer": counit_matches,
    }
    return fields, shown, [p for mode in shown for p in shown[mode].values()]


def _qspinor_checks(entry: CatalogEntry, rep, q0: Fraction, orientation: str,
                    disc: list) -> tuple:
    """(fields, crosscheck pairs, every pair) of a q-spinor entry; the
    admissibility verdict is compared at q0 but not shown."""
    claims = entry.claims
    spinor_ok = check_spinor(rep.a, rep.b)
    _check(spinor_ok, True, "pair does not satisfy the q-spinor relation",
           disc)

    (com, comr, _, found), pairs = _twice(_spinor_spaces, [rep.a, rep.b], q0,
                                          orientation, spinor_ok)
    com_claim = _check(com, _span(claims.commutant_basis),
                       "commutant differs from claimed basis", disc)
    comr_claim = _check(comr, _span(claims.commutant_rev_basis),
                        "reverse commutant differs from claimed basis", disc)
    # the published verdicts are for the default orientation only
    adm_claim = _check(
        found, claims.admissible if orientation == "default" else None,
        f"admissibility verdict {found} differs from "
        f"claim {claims.admissible}", disc)

    fields = {
        "is_spinor_pair": spinor_ok,
        "orientation": orientation,
        "commutant_dim": com.dim,
        "commutant_matches_claim": com_claim,
        "commutant_rev_dim": comr.dim,
        "commutant_rev_matches_claim": comr_claim,
        "admissible": found,
        "admissible_claim_ok": adm_claim,
        "c_space_dim": pairs[2][0],
    }
    shown = dict(zip(("commutant", "commutant_rev", "c_space"), pairs))
    return fields, shown, pairs


def _equivalence_classes(entries: list) -> dict:
    """Union-find over pairwise equivalence of the gl2 entries (at default
    parameters), merging on a found witness, which gl2_equivalent finds
    whenever one exists within its scalings (conjugacy.scaled_conjugacy).
    Returns entry name -> representative name, in catalog order."""
    gl2 = [e for e in entries if e.kind == "gl2"]
    reps = {e.name: instantiate(e) for e in gl2}
    parent = {e.name: e.name for e in gl2}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in combinations(parent, 2):
        if find(x) != find(y) and gl2_equivalent(reps[x], reps[y]).found:
            parent[find(y)] = find(x)
    return {n: find(n) for n in parent}


def build_report(names: Optional[list] = None, q0: Fraction = Fraction(2),
                 orientation: str = "default") -> dict:
    """Verify the selected catalog entries (all by default; a repeated
    entry once, at its first place) and collect the outcome.
    Deterministic: same inputs, same dict."""
    if orientation not in ("default", "flipped"):
        raise ValueError(f"unknown orientation: {orientation!r}")
    if q0 == 0:
        raise ValueError("evaluation pole")
    selected = list(dict.fromkeys(map(get_entry, names))) if names \
        else list(CATALOG)

    classes = _equivalence_classes(selected)

    records = []
    for entry in selected:
        rec = _record(entry, q0, orientation)
        if entry.kind == "gl2":
            rec["equivalence_class"] = classes[entry.name]
            other = entry.claims.distinct_class_from
            rec["distinct_class_claim_ok"] = None if other is None \
                else _check(
                    _same_class(entry, other, classes), False,
                    "claimed to lie in a different equivalence class than "
                    f"{other}, but an exact equivalence witness was found",
                    rec["discrepancies"])
        records.append(rec)

    checked = [r for r in records if r["status"] == "checked"]
    unchecked = [r["entry"] for r in records if r["status"] == "unchecked"]
    disc_map = {r["entry"]: r["discrepancies"] for r in records
                if r["discrepancies"]}
    total = sum(len(v) for v in disc_map.values())

    groups = {}
    for name, rep in classes.items():
        groups.setdefault(rep, []).append(name)

    return {
        "summary": {
            "q0": str(q0),
            "orientation": orientation,
            "entries": len(records),
            "checked": len(checked),
            "unchecked": unchecked,
            "equivalence_classes": [groups[r] for r in groups],
            "discrepancies": disc_map,
            "total_discrepancies": total,
            "all_claims_reproduced": total == 0,
        },
        "entries": records,
    }


def _same_class(entry: CatalogEntry, other_name: str, classes: dict) -> bool:
    if other_name in classes:
        return classes[entry.name] == classes[other_name]
    # referenced entry not selected: compare the pair directly
    return gl2_equivalent(instantiate(entry), instantiate(other_name)).found


def report_exit_code(report: dict) -> int:
    return 0 if report["summary"]["all_claims_reproduced"] else 1


def _gl2_detail(rec: dict) -> str:
    d = rec["dims"]
    parts = [] if d is None else [
        f"R {d['single']['operator_algebra']}/{d['family']['operator_algebra']}",
        f"I {d['single']['invariants']}/{d['family']['invariants']}",
    ]
    parts.append(f"class {rec['equivalence_class']}")
    if rec["mode_divergence"]:
        parts.append("(single/family modes diverge)")
    return "  ".join(parts)


def _qspinor_detail(rec: dict) -> str:
    adm = {True: "yes", False: "no", None: "-"}[rec["admissible"]]
    return (f"B(a) {rec['commutant_dim']}  B'(a) {rec['commutant_rev_dim']}"
            f"  admissible {adm}")


def render_table(report: dict) -> str:
    """Fixed-width human-readable rendering of a report dict."""
    s = report["summary"]
    lines = [
        f"catalog verification  (q0 = {s['q0']}, orientation = "
        f"{s['orientation']})",
        "",
        f"{'entry':<28} {'kind':<9} {'status':<12} detail",
    ]
    for rec in report["entries"]:
        if rec["status"] == "unchecked":
            status = "unchecked"
            detail = (f"claims R {rec['claims']['operator_algebra']}  "
                      f"I {rec['claims']['invariants']} (not recomputed)")
        else:
            status = "ok" if not rec["discrepancies"] else "DISCREPANCY"
            detail = _gl2_detail(rec) if rec["kind"] == "gl2" \
                else _qspinor_detail(rec)
        lines.append(f"{rec['entry']:<28} {rec['kind']:<9} {status:<12} "
                     f"{detail}")
    lines.append("")
    if s["equivalence_classes"]:
        cls = "; ".join("{" + ", ".join(c) + "}"
                        for c in s["equivalence_classes"])
        lines.append(f"equivalence classes: {cls}")
    if s["total_discrepancies"]:
        n = s["total_discrepancies"]
        lines.append(f"{n} discrepanc{'y' if n == 1 else 'ies'}:")
        for name, msgs in s["discrepancies"].items():
            for msg in msgs:
                lines.append(f"  {name}: {msg}")
    else:
        lines.append("no discrepancies")
    verdict = "PASS" if s["all_claims_reproduced"] else "FAIL"
    lines.append(
        f"summary: entries {s['entries']}, checked {s['checked']}, "
        f"unchecked {len(s['unchecked'])}, discrepancies "
        f"{s['total_discrepancies']} -> {verdict}")
    return "\n".join(lines) + "\n"
