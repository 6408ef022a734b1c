"""Acceptance suite.

Ten end-to-end criteria, each printing one summary line (run with
pytest -s to see them all).  Every comparison is exact field equality;
there are no numeric tolerances anywhere.

The equivalence criterion checks the refutation of the catalog's
distinct-class claim: the catalog records that perturbed-b lies in a
different class from perturbed-a, but the signed swap of basis vectors 2
and 3, u = [[1,0,0,0],[0,0,1,0],[0,-1,0,0],[0,0,0,1]], conjugates one
onto the other with trivial scalings for every mu.  The criterion asserts
that the search finds such a witness, that it keeps inequivalent
quadruples apart, and that the report flags the claim as refuted.
"""

import random

import pytest

from qgl2.catalog import (closure_generators, get_entry, instantiate,
                          list_entries)
from qgl2.clifford import (build_action, build_clifford,
                           counit_invariance_space, unitality_ok)
from qgl2.gl2 import (GL2Rep, gl2_equivalent, invertibility_nilpotency_check,
                      power_commutator_check, verify_relations)
from qgl2.matrices import (Mat, MatSpace, centralizer, span,
                           subalgebra_closure)
from qgl2.report import build_report, render_table
from qgl2.scalars import Q, scalar
from qgl2.spinors import QSpinorRep, admissibility, q_commutant, \
    spinor_equivalent
from test_clifford import antisymmetrized

GL2_ENTRIES = ("perturbed-a", "perturbed-b", "triangular-dim8",
               "diagonal-dim3")
ADMISSIBLE_ENTRIES = ("admissible-a", "admissible-b", "admissible-jordan")
DIAG_DET = Mat.diag(Q ** 2, Q, Q, 1)


@pytest.fixture(scope="module")
def report():
    return build_report()


def e(i, j, n=4):
    return Mat.unit(n, i - 1, j - 1)


def gl2_witness_ok(r1, r2, found) -> bool:
    """Exact check that found = (u, alpha1, alpha2) carries r1 onto r2."""
    u, a1, a2 = found
    ui = u.inverse()
    return (u * r1.c11 * ui * a1 == r2.c11
            and u * r1.c21 * ui * a1 == r2.c21
            and u * r1.c12 * ui * a2 == r2.c12
            and u * r1.c22 * ui * a2 == r2.c22)


def check(num: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} - {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_relation_suite():
    failures = []
    for name in ("perturbed-a", "perturbed-b"):
        for mu in (1, 2):
            rel = verify_relations(instantiate(name, mu=mu))
            for label, ok in rel.relations.items():
                if not ok:
                    failures.append(f"{name} mu={mu}: {label}")
            if rel.detq != DIAG_DET:
                failures.append(f"{name} mu={mu}: quantum determinant")
    check(1, "six relations and diagonal quantum determinant for both "
             "perturbed quadruples at mu = 1 and mu = 2", failures)


def test_criterion_02_operator_algebra_dims(report):
    failures = []
    want_family = {"perturbed-a": 9, "perturbed-b": 9,
                   "triangular-dim8": 8, "diagonal-dim3": 3}
    recs = {r["entry"]: r for r in report["entries"]}
    for name, want in want_family.items():
        got = recs[name]["dims"]["family"]["operator_algebra"]
        if got != want:
            failures.append(f"{name}: family dim {got}, expected {want}")
        if "operator_algebra" not in recs[name]["dims"]["single"]:
            failures.append(f"{name}: single-instance dim not reported")
    if not recs["triangular-dim8"]["mode_divergence"]:
        failures.append("triangular-dim8: single/family divergence "
                        "not flagged")
    if "(single/family modes diverge)" not in render_table(report):
        failures.append("divergence marker missing from rendered table")
    check(2, "family-mode operator algebra dims 9/9/8/3 with "
             "single-instance dims reported and divergence flagged",
          failures)


def test_criterion_03_invariant_dims(report):
    failures = []
    want = {"perturbed-a": 1, "perturbed-b": 1,
            "triangular-dim8": 1, "diagonal-dim3": 6}
    recs = {r["entry"]: r for r in report["entries"]}
    dims = {}
    for name, expected in want.items():
        got = recs[name]["dims"]["family"]["invariants"]
        dims[name] = got
        if got != expected:
            failures.append(f"{name}: invariant dim {got}, "
                            f"expected {expected}")
    pattern = span([e(1, 1), e(2, 2), e(2, 3), e(3, 2), e(3, 3), e(4, 4)])
    algebra = subalgebra_closure(
        closure_generators("diagonal-dim3", "family"))
    if centralizer(algebra) != pattern:
        failures.append("diagonal-dim3: invariant space is not the middle "
                        "block plus two diagonal slots")
    if max(dims.values()) != 6:
        failures.append(f"maximal invariant dim {max(dims.values())}, "
                        "expected 6")
    check(3, "invariant dims 1/1/1/6, block pattern for the diagonal "
             "entry, maximal invariant dim 6", failures)


def test_criterion_04_commutant_spot_checks():
    failures = []
    lower = instantiate("rejected-j3-lower")
    upper = instantiate("rejected-j3-upper")
    if q_commutant(lower.a) != span([e(4, 3)]):
        failures.append("lower Jordan-3 commutant is not span{e43}")
    if q_commutant(upper.a) != span([e(1, 4)]):
        failures.append("upper Jordan-3 commutant is not span{e14}")
    for name in ADMISSIBLE_ENTRIES:
        rep = instantiate(name)
        if not admissibility(rep.a, rep.b).admissible:
            failures.append(f"{name}: expected admissible")
    rejected = [n for n in list_entries() if n.startswith("rejected-")]
    if len(rejected) < 6:
        failures.append(f"only {len(rejected)} rejected entries on record")
    for name in rejected:
        rep = instantiate(name)
        if admissibility(rep.a, rep.b).admissible:
            failures.append(f"{name}: expected not admissible")
    check(4, "Jordan-3 commutants span{e43}/span{e14}; admissibility yes "
             f"on 3 entries, no on all {len(rejected)} rejected entries",
          failures)


def test_criterion_05_diagonal_commutant_law():
    failures = []
    rng = random.Random(20260816)
    for t in range(50):
        n = (3, 4, 5)[t % 3]
        alphas = [scalar(rng.choice((1, 2, 3))) * Q ** rng.randint(0, 3)
                  for _ in range(n)]
        a = Mat.diag(*alphas)
        expected = MatSpace.span(
            [Mat.unit(n, i, j) for i in range(n) for j in range(n)
             if alphas[i] == Q * alphas[j]], n=n)
        if q_commutant(a) != expected:
            failures.append(
                f"sample {t}: solver disagrees with the eigenvalue-ratio "
                f"rule for diag({', '.join(str(x) for x in alphas)})")
    check(5, "50 randomized diagonal matrices: solver output equals "
             "span{e_ij : alpha_i = q*alpha_j} exactly", failures)


def test_criterion_06_invertibility_nilpotency():
    failures = []
    for name in GL2_ENTRIES:
        r = invertibility_nilpotency_check(instantiate(name))
        for flag in ("c11_invertible", "c22_invertible",
                     "c12_nilpotent", "c21_nilpotent"):
            if not getattr(r, flag):
                failures.append(f"{name}: {flag} is false")
    tri = invertibility_nilpotency_check(instantiate("triangular-dim8"))
    if not tri.offdiag_product_diag_zero:
        failures.append("triangular-dim8: diag(c12*c21) is not zero")
    check(6, "diagonal generators invertible and off-diagonal generators "
             "nilpotent on every instantiable quadruple", failures)


def test_criterion_07_equivalence_search():
    failures = []
    u0 = Mat([[1, 0, 1, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
    ui0 = u0.inverse()
    for name in list_entries():
        if get_entry(name).builder is None:
            continue
        rep = instantiate(name)
        if isinstance(rep, GL2Rep):
            b1, b2 = Q ** -1, Q
            copy = GL2Rep(u0 * rep.c11 * ui0 * b1, u0 * rep.c12 * ui0 * b2,
                          u0 * rep.c21 * ui0 * b1, u0 * rep.c22 * ui0 * b2)
            found = gl2_equivalent(rep, copy)
            if found is None:
                failures.append(f"{name}: witness not recovered")
            elif not gl2_witness_ok(rep, copy, found):
                failures.append(f"{name}: recovered witness does not verify")
        else:
            alpha0 = Q ** 2
            copy = QSpinorRep(u0 * rep.a * ui0 * alpha0,
                              u0 * rep.b * ui0 * alpha0)
            found = spinor_equivalent(rep, copy)
            if found is None:
                failures.append(f"{name}: witness not recovered")
                continue
            u, alpha = found
            ui = u.inverse()
            if not (u * rep.a * ui * alpha == copy.a
                    and u * rep.b * ui * alpha == copy.b):
                failures.append(f"{name}: recovered witness does not verify")
    # The catalog claims perturbed-b is not equivalent to perturbed-a.
    # The signed 2<->3 swap refutes it, written out here rather than taken
    # from the search, so the search is checked against an independent
    # proof.
    swap = Mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])
    for mu in (1, 2, Q):
        pa = instantiate("perturbed-a", mu=mu)
        pb = instantiate("perturbed-b", mu=mu)
        if not gl2_witness_ok(pa, pb, (swap, 1, 1)):
            failures.append(f"mu = {mu}: the signed swap of basis vectors 2 "
                            "and 3 does not carry perturbed-a onto "
                            "perturbed-b")
    pa, pb = instantiate("perturbed-a"), instantiate("perturbed-b")
    found = gl2_equivalent(pa, pb)
    if found is None:
        failures.append("perturbed-a/perturbed-b: witness not found")
    elif not gl2_witness_ok(pa, pb, found):
        failures.append("perturbed-a/perturbed-b: witness does not verify")
    # Operator-algebra dims 9 against 8 and 3 (criterion 2), and scaled
    # conjugation preserves that dim, so these "no" answers are proved.
    for name in ("perturbed-a", "perturbed-b"):
        for other in ("triangular-dim8", "diagonal-dim3"):
            if gl2_equivalent(instantiate(name),
                              instantiate(other)) is not None:
                failures.append(f"{name}/{other}: witness found for "
                                "inequivalent quadruples")
    recs = {r["entry"]: r
            for r in build_report(["perturbed-a", "perturbed-b"])["entries"]}
    pb_rec = recs["perturbed-b"]
    if pb_rec["distinct_class_claim_ok"] is not False:
        failures.append("perturbed-b: refuted distinct-class claim not "
                        "flagged")
    if not any("exact equivalence witness was found" in d
               for d in pb_rec["discrepancies"]):
        failures.append("perturbed-b: distinct-class discrepancy missing")
    if pb_rec["equivalence_class"] != recs["perturbed-a"]["equivalence_class"]:
        failures.append("perturbed quadruples reported in different "
                        "equivalence classes")
    check(7, "self-equivalence witnesses recovered; perturbed quadruples "
             "proved equivalent and the distinct-class claim reported as "
             "refuted; inequivalent quadruples kept apart", failures)


def test_criterion_08_action_layer():
    failures = []
    try:
        cl = build_clifford()
        cl._verify_relations()
    except ArithmeticError as exc:
        failures.append(f"basis relations: {exc}")
        cl = None
    if cl is not None:
        ident = Mat.identity(4)
        for mu in range(4):
            for nu in range(4):
                want = antisymmetrized(cl.gammas, (mu, nu)) + ident.scale(
                    scalar(cl.metric[mu] if mu == nu else 0))
                if cl.gammas[mu] * cl.gammas[nu] != want:
                    failures.append(f"grade-1 relation at ({mu},{nu})")
        if span(list(cl.elements)).dim != 16:
            failures.append("basis rank is not 16")
    for name in GL2_ENTRIES:
        rep = instantiate(name)
        action = build_action(rep)
        if not unitality_ok(action):
            failures.append(f"{name}: action not unital")
        invariants = centralizer(
            subalgebra_closure(closure_generators(name, "single")))
        if counit_invariance_space(action) != invariants:
            failures.append(f"{name}: action invariants differ from the "
                            "operator algebra centralizer")
    check(8, "basis relations and rank 16; every action unital with "
             "invariants equal to the centralizer", failures)


def test_criterion_09_power_commutator():
    failures = []
    toy = power_commutator_check(Mat.diag(1, Q), Mat.unit(2, 0, 1), 6)
    if not (toy.premise_holds and toy.ok):
        failures.append("toy premise instance failed")
    for name in GL2_ENTRIES:
        rep = instantiate(name)
        pc = power_commutator_check(rep.c11, rep.c22, 6)
        if not pc.premise_holds:
            failures.append(f"{name}: premise does not hold")
        elif not pc.ok:
            bad = [k for k, ok in pc.results if not ok]
            failures.append(f"{name}: identity fails at k = {bad}")
        eps = rep.c11 * rep.c22 - rep.c22 * rep.c11
        if eps.is_invertible():
            failures.append(f"{name}: commutator defect is invertible")
    check(9, "power commutation identity verified to k = 6; no quadruple "
             "has an invertible commutator defect", failures)


def test_criterion_10_numeric_crosscheck(report):
    failures = []
    if report["summary"]["q0"] != "2":
        failures.append("sample point is not 2")
    for rec in report["entries"]:
        if rec["status"] != "checked":
            continue
        if not rec["crosscheck"]["ok"]:
            failures.append(f"{rec['entry']}: exact and numeric dimensions "
                            "disagree")
    check(10, "every exact rank/dimension reproduced after substituting "
              "q = 2", failures)
