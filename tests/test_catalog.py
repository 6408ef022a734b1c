"""Catalog integrity: every published claim is recomputed from scratch."""

from itertools import product

import pytest

from qgl2.catalog import (closure_generators, family_assignments, get_entry,
                          instantiate, list_entries)
from qgl2.clifford import build_action, counit_invariance_space, unitality_ok
from qgl2.gl2 import GL2Rep, gl2_equivalent, \
    invertibility_nilpotency_check, verify_relations
from qgl2.conjugacy import HOWS
from qgl2.matrices import MatSpace, centralizer, subalgebra_closure
from qgl2.report import build_report
from qgl2.scalars import Q, scalar
from qgl2.spinors import QSpinorRep, admissibility, check_spinor, \
    q_commutant, spinor_equivalent

EXPECTED_NAMES = (
    "perturbed-a", "perturbed-b", "triangular-dim8", "diagonal-dim3",
    "external-dim6", "external-dim7",
    "admissible-a", "admissible-b", "admissible-jordan",
    "rejected-j3-lower", "rejected-j3-upper",
    "rejected-diag-two-pairs", "rejected-diag-chain",
    "rejected-double-jordan-up", "rejected-double-jordan-down",
    "rejected-jordan-diag-generic", "rejected-shifted-diag",
    "rejected-jordan-diag-top", "rejected-jordan-diag-unit",
)

GL2_NAMES = tuple(n for n in EXPECTED_NAMES
                  if get_entry(n).kind == "gl2")
QSPINOR_NAMES = tuple(n for n in EXPECTED_NAMES
                      if get_entry(n).kind == "qspinor")

# family-mode / single-mode operator algebra and invariant dimensions,
# frozen from independent closure computations
DIMS_FAMILY = {
    "perturbed-a": (9, 1),
    "perturbed-b": (9, 1),
    "triangular-dim8": (8, 1),
    "diagonal-dim3": (3, 6),
}
DIMS_SINGLE = {
    "perturbed-a": (9, 1),
    "perturbed-b": (9, 1),
    "triangular-dim8": (6, 3),
    "diagonal-dim3": (3, 6),
}


class TestListing:
    def test_names_and_order(self):
        assert list_entries() == EXPECTED_NAMES

    def test_kinds(self):
        assert GL2_NAMES == ("perturbed-a", "perturbed-b",
                             "triangular-dim8", "diagonal-dim3")
        assert len(QSPINOR_NAMES) == 13
        assert get_entry("external-dim6").kind == "external"

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="unknown catalog entry: nope"):
            get_entry("nope")

    def test_descriptions_nonempty(self):
        for name in EXPECTED_NAMES:
            assert get_entry(name).description


class TestInstantiation:
    def test_defaults(self):
        rep = instantiate("perturbed-a")
        assert isinstance(rep, GL2Rep)
        assert verify_relations(rep).ok

    def test_override(self):
        rep = instantiate("perturbed-a", mu=5)
        assert rep.c21[1, 0] == scalar(-5)

    def test_override_accepts_strings(self):
        rep = instantiate("perturbed-a", mu="q")
        assert rep.c21[1, 0] == -Q

    def test_forbidden_zero(self):
        with pytest.raises(ValueError, match=(
                "forbidden parameter value: mu = 0 in 'perturbed-a'")):
            instantiate("perturbed-a", mu=0)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match=(
                "unknown parameter 'nu' for entry 'perturbed-a'")):
            instantiate("perturbed-a", nu=1)

    def test_external_not_instantiable(self):
        with pytest.raises(ValueError, match=(
                "entry 'external-dim6' is an external reference and "
                "cannot be instantiated")):
            instantiate("external-dim6")

    def test_qspinor_entry(self):
        rep = instantiate("admissible-a")
        assert isinstance(rep, QSpinorRep)
        assert check_spinor(rep.a, rep.b)


class TestFamilyAssignments:
    def test_single_nonzero_param(self):
        assert family_assignments("perturbed-a") == ({"mu": scalar(1)},)

    def test_plain_params_one_hot(self):
        assert family_assignments("triangular-dim8") == (
            {"alpha": scalar(1), "beta": scalar(0), "gamma": scalar(0)},
            {"alpha": scalar(0), "beta": scalar(1), "gamma": scalar(0)},
            {"alpha": scalar(0), "beta": scalar(0), "gamma": scalar(1)},
        )

    def test_nonzero_params_fall_back(self):
        assert family_assignments("diagonal-dim3") == (
            {"alpha2": scalar(1), "alpha3": scalar(2)},
            {"alpha2": scalar(2), "alpha3": scalar(1)},
        )

    def test_no_params(self):
        assert family_assignments(get_entry("rejected-j3-lower")) == ({},)


class TestClosureGenerators:
    def test_single_mode_count(self):
        gens = closure_generators("perturbed-a")
        assert len(gens) == 5          # four generators plus detq inverse

    def test_family_mode_count(self):
        assert len(closure_generators("triangular-dim8", "family")) == 15

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            closure_generators("perturbed-a", "both")

    def test_wrong_kind(self):
        with pytest.raises(ValueError, match="no operator algebra"):
            closure_generators("admissible-a")


class TestGL2Claims:
    @pytest.mark.parametrize("name", GL2_NAMES)
    def test_relations_and_detq(self, name):
        entry = get_entry(name)
        rep = instantiate(name)
        report = verify_relations(rep)
        assert report.ok
        assert report.detq == entry.claims.detq
        if entry.claims.perturbation_nonzero is not None:
            assert (report.perturbation_nonzero
                    == entry.claims.perturbation_nonzero)

    @pytest.mark.parametrize("name", GL2_NAMES)
    def test_consequences(self, name):
        rep = instantiate(name)
        assert verify_relations(rep).ok
        assert invertibility_nilpotency_check(rep).failures == ()

    @pytest.mark.parametrize("name", GL2_NAMES)
    def test_family_mode_dimensions(self, name):
        algebra = subalgebra_closure(closure_generators(name, "family"))
        invariants = centralizer(algebra.basis)
        assert (algebra.dim, invariants.dim) == DIMS_FAMILY[name]
        entry = get_entry(name)
        assert algebra.dim == entry.claims.dim_operator_algebra
        assert invariants.dim == entry.claims.dim_invariants

    @pytest.mark.parametrize("name", GL2_NAMES)
    def test_single_mode_dimensions(self, name):
        algebra = subalgebra_closure(closure_generators(name, "single"))
        invariants = centralizer(algebra.basis)
        assert (algebra.dim, invariants.dim) == DIMS_SINGLE[name]

    def test_operator_space_pattern(self):
        entry = get_entry("triangular-dim8")
        algebra = subalgebra_closure(
            closure_generators(entry, "family"))
        assert algebra == MatSpace.span(list(entry.claims.operator_space))

    def test_invariant_space_pattern(self):
        entry = get_entry("diagonal-dim3")
        algebra = subalgebra_closure(closure_generators(entry, "family"))
        assert centralizer(algebra.basis) == MatSpace.span(
            list(entry.claims.invariant_space))

    @pytest.mark.parametrize("name", GL2_NAMES)
    def test_actions_unital(self, name):
        assert unitality_ok(build_action(instantiate(name)))

    @pytest.mark.parametrize("name", GL2_NAMES)
    def test_counit_space_equals_invariants(self, name):
        rep = instantiate(name)
        counit = counit_invariance_space(build_action(rep))
        algebra = subalgebra_closure(closure_generators(name, "single"))
        assert counit == centralizer(algebra.basis)


class TestQSpinorClaims:
    @pytest.mark.parametrize("name", QSPINOR_NAMES)
    def test_spinor_relation(self, name):
        rep = instantiate(name)
        assert check_spinor(rep.a, rep.b)

    @pytest.mark.parametrize("name", QSPINOR_NAMES)
    def test_admissibility_verdict(self, name):
        entry = get_entry(name)
        rep = instantiate(name)
        _, w = admissibility(rep.a, rep.b)
        assert w.found == entry.claims.admissible
        if w.found:
            assert not (w.witness * rep.b).is_zero()

    @pytest.mark.parametrize("name", QSPINOR_NAMES)
    def test_commutant_claims(self, name):
        entry = get_entry(name)
        rep = instantiate(name)
        if entry.claims.commutant_basis is not None:
            assert q_commutant(rep.a) == MatSpace.span(
                list(entry.claims.commutant_basis), n=rep.a.n)
        if entry.claims.commutant_rev_basis is not None:
            assert q_commutant(rep.a, reverse=True) == MatSpace.span(
                list(entry.claims.commutant_rev_basis), n=rep.a.n)

    def test_rejected_count(self):
        rejected = [n for n in QSPINOR_NAMES
                    if get_entry(n).claims.admissible is False]
        assert len(rejected) == 10


# the ordered q-spinor pairs where some exponent passes the trace pins but
# no conjugator space of dimension 2 to 6 has an invertible member: each
# basis has a common kernel or cokernel vector, so each is "proved exactly"
SEARCH_MISSES = {
    ("admissible-a", "admissible-jordan"),
    ("admissible-b", "admissible-jordan"),
    ("admissible-jordan", "admissible-a"),
    ("admissible-jordan", "admissible-b"),
    ("rejected-j3-lower", "rejected-diag-chain"),
    ("rejected-j3-lower", "rejected-jordan-diag-unit"),
    ("rejected-diag-chain", "rejected-j3-lower"),
    ("rejected-diag-chain", "rejected-jordan-diag-unit"),
    ("rejected-jordan-diag-unit", "rejected-j3-lower"),
    ("rejected-jordan-diag-unit", "rejected-diag-chain"),
}


class TestVerdictLabels:
    def test_equivalence_labels(self):
        # all 185 ordered same-kind pairs of checkable entries, the pairs
        # behind test_cli.py::test_equiv_catalog_pairs_bytes
        reps = {n: instantiate(n) for n in GL2_NAMES + QSPINOR_NAMES}
        hows = dict.fromkeys(HOWS, 0)
        labels = {}
        for names, search in ((GL2_NAMES, gl2_equivalent),
                              (QSPINOR_NAMES, spinor_equivalent)):
            for first, second in product(names, repeat=2):
                verdict = search(reps[first], reps[second])
                hows[verdict.how] += 1
                labels[first, second] = verdict.how
        assert hows == {"witness found": 23, "proved exactly": 10,
                        "invariant differs": 152, "searched |k| <= 4": 0}
        assert all(labels[pair] == "proved exactly"
                   for pair in SEARCH_MISSES)

    def test_admissibility_labels(self):
        hows = dict.fromkeys(HOWS, 0)
        for name in QSPINOR_NAMES:
            rep = instantiate(name)
            hows[admissibility(rep.a, rep.b)[1].how] += 1
        assert hows == {"witness found": 3, "proved exactly": 10,
                        "invariant differs": 0, "searched |k| <= 4": 0}


class TestExternalEntries:
    @pytest.mark.parametrize("name", ["external-dim6", "external-dim7"])
    def test_unchecked_flag(self, name):
        # the report keys on the kind: an external entry has no builder
        # and is listed as unchecked
        entry = get_entry(name)
        assert entry.kind == "external"
        assert entry.builder is None
        rep = build_report(["external-dim6", "external-dim7"])
        rec = {r["entry"]: r for r in rep["entries"]}[name]
        assert rec["status"] == "unchecked"
        assert name in rep["summary"]["unchecked"]

    def test_claimed_dims_on_record(self):
        assert get_entry("external-dim6").claims.dim_operator_algebra == 6
        assert get_entry("external-dim7").claims.dim_operator_algebra == 7
