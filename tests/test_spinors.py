"""q-spinor pairs: commutant spaces, admissibility, equivalence search."""

import random

import pytest

import qgl2.conjugacy
import qgl2.matrices
import qgl2.residues
from oracles import dense_conjugator, unimodular
from qgl2.catalog import CATALOG, instantiate
from qgl2.conjugacy import Verdict
from qgl2.matrices import Mat, MatSpace
from qgl2.residues import RESIDUE_I, RESIDUE_P
from qgl2.scalars import GaussRational, Q
from qgl2.spinors import (QSpinorRep, admissibility, check_spinor,
                          q_commutant, spinor_equivalent)


def e(i, j, n=4):
    return Mat.unit(n, i - 1, j - 1)


A_CASE = Mat.diag(Q ** 2, Q, Q, 1)
B_CASE = e(1, 3).scale(Q) - e(2, 4)

J3_LOWER = Mat(((Q ** -1, 1, 0, 0), (0, Q ** -1, 1, 0),
                (0, 0, Q ** -1, 0), (0, 0, 0, 1)))
J3_UPPER = Mat(((Q, 1, 0, 0), (0, Q, 1, 0), (0, 0, Q, 0), (0, 0, 0, 1)))


class TestSpinorPredicate:
    def test_holds(self):
        assert check_spinor(A_CASE, B_CASE)

    def test_fails(self):
        assert not check_spinor(A_CASE, e(3, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            QSpinorRep(A_CASE, Mat.identity(3))


class TestQCommutant:
    def test_weighted_diagonal(self):
        assert q_commutant(A_CASE) == MatSpace.span(
            [e(1, 2), e(1, 3), e(2, 4), e(3, 4)])

    def test_weighted_diagonal_reverse(self):
        assert q_commutant(A_CASE, reverse=True) == MatSpace.span(
            [e(2, 1), e(3, 1), e(4, 2), e(4, 3)])

    def test_simple_diagonal_rule(self):
        # a = diag(q,1,1,1): solutions live exactly where the eigenvalue
        # ratio is q
        a = Mat.diag(Q, 1, 1, 1)
        assert q_commutant(a) == MatSpace.span([e(1, 2), e(1, 3), e(1, 4)])

    def test_jordan_blocks(self):
        assert q_commutant(J3_LOWER) == MatSpace.span([e(4, 3)])
        assert q_commutant(J3_LOWER, reverse=True) == MatSpace.span([e(1, 4)])
        assert q_commutant(J3_UPPER) == MatSpace.span([e(1, 4)])
        assert q_commutant(J3_UPPER, reverse=True) == MatSpace.span([e(4, 3)])

    def test_solutions_satisfy_relation(self):
        for x in q_commutant(A_CASE).basis:
            assert A_CASE * x == x.scale(Q) * A_CASE

    def test_numeric_field(self):
        g = GaussRational
        a = Mat([[g(2), g(0)], [g(0), g(1)]])
        sol = q_commutant(a, q=g(2))
        assert sol == MatSpace.span([Mat.unit(2, 0, 1)])

    def test_conjugated_entry_needs_no_euclidean_gcd(self, monkeypatch):
        # admissible-a conjugated as in the conjugated-spinors benchmark
        # workload (seed 11): the residue path reads its kernel off with
        # no gcd at all, so the exact elimination is forced; its pivots,
        # such as q^2 - 1, leave non-monomial denominators, and the first
        # step of the gcd in Scalar.__init__, residues under i ->
        # RESIDUE_I mod RESIDUE_P, decides every gcd of the solve
        monkeypatch.setattr(qgl2.matrices, "_residue_kernel",
                            lambda pairs, n: None)
        maps = []
        residues = qgl2.residues._residues

        def counted(poly, p=RESIDUE_P, r=RESIDUE_I):
            maps.append((p, r))
            return residues(poly, p, r)

        monkeypatch.setattr(qgl2.residues, "_residues", counted)
        a = Mat.from_json({"n": 4, "entries": [
            ["q", "q^2 - q", "-q^2 + 1", "0"], ["0", "q^2", "-q^2 + 1", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "q"]]})
        space = q_commutant(a)
        assert maps and set(maps) == {(RESIDUE_P, RESIDUE_I)}
        assert [m.to_json()["entries"] for m in space.basis] == [
            [["1", "-1", "0", "0"], ["1", "-1", "0", "0"],
             ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "1", "0"], ["0", "0", "0", "0"],
             ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "1"], ["0", "0", "0", "1"],
             ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"],
             ["0", "0", "0", "0"], ["0", "0", "1", "0"]]]


def transpose(m: Mat) -> Mat:
    return Mat(zip(*m.rows))


SPINOR_ENTRIES = [e.name for e in CATALOG
                  if e.kind == "qspinor" and e.builder is not None]
RNG = random.Random(11)
# a seeded unimodular u per entry, then admissible-jordan with a dense u
PLANTED = [(name, unimodular(lambda: RNG.randint(-2, 2), 4))
           for name in SPINOR_ENTRIES] \
    + [("admissible-jordan", dense_conjugator(1))]


class TestPlantedKernels:
    """Relations that the kernel must keep, with no oracle: a x = q x a
    iff a' x' = q x' a' for a' = u a u^-1 and x' = u x u^-1, and iff
    x^T a^T = q a^T x^T.  So B(u a u^-1) = u B(a) u^-1 and B'(a^T) =
    B(a)^T, compared as canonical bases, on the q-spinor entries' a, whose
    B(a) has dimension 1 to 4."""

    @pytest.mark.parametrize("name, u", PLANTED, ids=[
        *SPINOR_ENTRIES, "admissible-jordan-dense-u-with-i"])
    def test_conjugate_and_transpose(self, name, u):
        a = instantiate(name).a
        basis = q_commutant(a).basis
        assert 1 <= len(basis) <= 4
        inverse = u.inverse()
        assert q_commutant(u * a * inverse) == \
            MatSpace.span([u * x * inverse for x in basis], n=4)
        assert q_commutant(transpose(a), reverse=True) == \
            MatSpace.span([transpose(x) for x in basis], n=4)


class TestAdmissibility:
    def test_admissible_pair(self):
        c_space, w = admissibility(A_CASE, B_CASE)
        assert w.how == "witness found"
        assert c_space == MatSpace.span([e(2, 1) - e(4, 3)])
        assert w.witness == e(2, 1) - e(4, 3)
        assert w.witness * B_CASE == e(2, 3).scale(Q)

    def test_witness_satisfies_relations(self):
        _, w = admissibility(A_CASE, B_CASE)
        c = w.witness
        assert c * B_CASE == (B_CASE * c).scale(Q)
        assert c * A_CASE == (A_CASE * c).scale(Q)

    def test_rejected_jordan_pair(self):
        # c_space is zero in the default orientation; in the flipped one
        # it is nonzero but every member annihilates b
        for orientation, dim in (("default", 0), ("flipped", 1)):
            c_space, w = admissibility(J3_LOWER, e(4, 3),
                                       orientation=orientation)
            assert w.how == "proved exactly"
            assert w.witness is None
            assert c_space.dim == dim
            for c in c_space.basis:
                assert (c * e(4, 3)).is_zero()

    def test_flipped_orientation(self):
        c_space, w = admissibility(A_CASE, B_CASE, orientation="flipped")
        assert w.found
        assert c_space.dim == 3
        qq = Q.inverse()
        c = w.witness
        assert c * B_CASE == (B_CASE * c).scale(qq)
        assert c * A_CASE == (A_CASE * c).scale(qq)
        assert not (c * B_CASE).is_zero()

    def test_not_a_spinor(self):
        with pytest.raises(ValueError, match="not a q-spinor"):
            admissibility(A_CASE, e(3, 1))

    def test_unknown_orientation(self):
        with pytest.raises(ValueError, match="unknown orientation"):
            admissibility(A_CASE, B_CASE, orientation="sideways")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            admissibility(A_CASE, Mat.identity(3))


class TestEquivalenceSearch:
    def test_recovers_conjugated_scaled_copy(self):
        u0 = Mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
        ui0 = u0.inverse()
        alpha0 = Q ** 2
        r1 = QSpinorRep(A_CASE, B_CASE)
        r2 = QSpinorRep((u0 * A_CASE * ui0).scale(alpha0),
                        (u0 * B_CASE * ui0).scale(alpha0))
        found = spinor_equivalent(r1, r2)
        assert found.how == "witness found"
        u, alpha = found.witness
        assert alpha == alpha0
        ui = u.inverse()
        assert (u * r1.a * ui).scale(alpha) == r2.a
        assert (u * r1.b * ui).scale(alpha) == r2.b
        # the search order fixes which witness is found
        assert u == Mat([[1, 2, 4, 0], [0, 2, 4, 0], [0, 0, 2, 0],
                         [0, 0, 0, 6]])

    def test_first_scaling_in_search_order_wins(self):
        # both generators nilpotent: every power trace is zero, so every
        # scaling q^k passes the filter and the smallest k is tried first
        r = QSpinorRep(e(1, 2), e(3, 4))
        u, alpha = spinor_equivalent(r, r).witness
        assert alpha == Q ** -4
        ui = u.inverse()
        assert (u * r.a * ui).scale(alpha) == r.a
        assert (u * r.b * ui).scale(alpha) == r.b

    def test_identity_witness(self):
        r = QSpinorRep(A_CASE, B_CASE)
        found = spinor_equivalent(r, r)
        assert found.how == "witness found"
        u, alpha = found.witness
        assert alpha == Q ** 0
        assert u * r.a * u.inverse() == r.a

    def test_inequivalent_pairs(self):
        r1 = QSpinorRep(A_CASE, B_CASE)
        r2 = QSpinorRep(J3_LOWER, e(4, 3))
        assert not spinor_equivalent(r1, r2).found

    def test_proved_none(self, monkeypatch):
        # only alpha = 1 passes the trace pins, and its conjugator space is
        # spanned by the singular e22, so no invertible conjugator exists
        spaces = []
        solve = qgl2.conjugacy.stacked_nullspace

        def recording_solve(*args):
            spaces.append(solve(*args))
            return spaces[-1]

        monkeypatch.setattr(qgl2.conjugacy, "stacked_nullspace",
                            recording_solve)
        a = Mat.diag(Q, 1)
        r1 = QSpinorRep(a, Mat.unit(2, 0, 1))
        r2 = QSpinorRep(a, Mat.zero(2))
        assert check_spinor(r1.a, r1.b) and check_spinor(r2.a, r2.b)
        assert spinor_equivalent(r1, r2) == Verdict(None, "proved exactly")
        assert [s.basis for s in spaces] == [[Mat.unit(2, 1, 1)]]

    def test_size_mismatch(self):
        r1 = QSpinorRep(Mat.diag(Q, 1), Mat.unit(2, 0, 1))
        r2 = QSpinorRep(A_CASE, B_CASE)
        assert spinor_equivalent(r1, r2).how == "invariant differs"
        assert spinor_equivalent(r2, r1).how == "invariant differs"
