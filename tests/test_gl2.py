"""Quadruple relation checking, structural consequences, power
commutators, quantum-plane splitting, equivalence search."""

import pytest

import qgl2.conjugacy
from qgl2.catalog import instantiate
from qgl2.gl2 import (GL2Rep, RELATION_LABELS, gl2_equivalent,
                      invertibility_nilpotency_check, power_commutator_check,
                      quantum_plane_split, verify_relations)
from qgl2.matrices import Mat, centralizer, subalgebra_closure
from qgl2.scalars import ONE, Q, scalar

from oracles import classical_point, q_integer


def e(i, j, n=4):
    return Mat.unit(n, i - 1, j - 1)


def case1(mu=scalar(1)):
    qi = Q.inverse()
    return GL2Rep(
        Mat.diag(1, qi, 1, qi),
        e(1, 3).scale(Q) - e(2, 4).scale(mu),
        e(2, 1).scale(-mu) + e(4, 3),
        Mat.diag(Q ** 2, Q ** 2, Q, Q) - e(2, 3).scale(Q * mu))


def case2(mu=scalar(1)):
    qi = Q.inverse()
    return GL2Rep(
        Mat.diag(1, 1, qi, qi),
        e(1, 2).scale(Q) + e(3, 4).scale(mu),
        e(3, 1).scale(mu) + e(4, 2),
        Mat.diag(Q ** 2, Q, Q ** 2, Q) + e(3, 2).scale(Q * mu))


DIAG_DET = Mat.diag(Q ** 2, Q, Q, 1)


class TestRelations:
    @pytest.mark.parametrize("mu", [scalar(1), scalar(2), Q])
    def test_case1_all_relations(self, mu):
        rep = verify_relations(case1(mu))
        assert all(rep.relations.values())
        assert rep.ok

    @pytest.mark.parametrize("mu", [scalar(1), scalar(2)])
    def test_case2_all_relations(self, mu):
        assert verify_relations(case2(mu)).ok

    def test_relation_labels_are_keys(self):
        rep = verify_relations(case1())
        assert tuple(rep.relations) == RELATION_LABELS

    def test_detq(self):
        assert verify_relations(case1()).detq == DIAG_DET
        assert verify_relations(case2()).detq == DIAG_DET

    def test_perturbation_case1(self):
        rep = verify_relations(case1(scalar(3)))
        # c12*c21 sits in the (2,3) slot, scaled by -mu
        assert rep.perturbation == e(2, 3).scale(-(Q - ONE) * 3)
        assert rep.perturbation_nonzero

    def test_perturbation_case2(self):
        rep = verify_relations(case2())
        assert rep.perturbation == e(3, 2).scale(Q - ONE)

    def test_broken_quadruple(self):
        base = case1()
        swapped = GL2Rep(base.c11, base.c21, base.c12, base.c22)
        rep = verify_relations(swapped)
        assert not rep.ok
        assert False in rep.relations.values()

    def test_failed_sixth_relation_detected(self):
        rep = verify_relations(GL2Rep(e(1, 2), Mat.zero(4),
                                      Mat.zero(4), e(2, 1)))
        assert rep.relations["c22*c11 - c11*c22 = (q-1)*c12*c21"] is False
        assert not rep.detq_invertible

    def test_block_matrix(self):
        bm = case1().block_matrix()
        assert bm.n == 8
        assert bm[0, 0] == ONE          # c11 block
        assert bm[0, 6] == Q            # c12 block, entry (1,3)
        assert bm[7, 2] == ONE          # c21 block, entry (4,3)
        assert bm[4, 4] == Q ** 2       # c22 block


class TestStructuralConsequences:
    @pytest.mark.parametrize("rep", [case1(), case2(), classical_point()],
                             ids=["case1", "case2", "classical"])
    def test_consequences_hold(self, rep):
        assert verify_relations(rep).ok
        assert invertibility_nilpotency_check(rep).failures == ()

    def test_not_applicable_when_relations_break(self):
        rep = GL2Rep(e(1, 2), Mat.zero(4), Mat.zero(4), e(2, 1))
        assert not verify_relations(rep).ok
        assert "c11_invertible" in invertibility_nilpotency_check(rep).failures

    def test_zero_quadruple(self):
        z = Mat.zero(4)
        rep = GL2Rep(z, z, z, z)
        assert not verify_relations(rep).ok     # detq is singular
        r = invertibility_nilpotency_check(rep)
        assert r.c12_nilpotent and r.c21_nilpotent


class TestPowerCommutator:
    def test_toy_pair(self):
        # x = diag(1,q), y = e12: eps = (1-q) e12 and the premise holds
        x = Mat.diag(1, Q)
        y = Mat.unit(2, 0, 1)
        rep = power_commutator_check(x, y, 5)
        assert rep.premise_holds
        assert rep.results == tuple((k, True) for k in range(1, 6))
        assert rep.ok

    def test_toy_pair_manual_coefficients(self):
        x = Mat.diag(1, Q)
        y = Mat.unit(2, 0, 1)
        eps = x * y - y * x
        for k in range(1, 6):
            lhs = x ** k * y - y * x ** k
            assert lhs == (x ** (k - 1) * eps).scale(q_integer(k))

    def test_case1_diagonal_pair(self):
        rep = case1()
        r = power_commutator_check(rep.c11, rep.c22, 6)
        assert r.premise_holds
        assert r.ok

    def test_case2_diagonal_pair(self):
        rep = case2(scalar(3))
        assert power_commutator_check(rep.c11, rep.c22, 6).ok

    def test_premise_failure_is_reported(self):
        r = power_commutator_check(Mat.unit(2, 0, 1), Mat.unit(2, 1, 0), 4)
        assert not r.premise_holds
        assert r.results == ()
        assert not r.ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            power_commutator_check(Mat.identity(2), Mat.identity(3), 3)


class TestQuantumPlaneSplit:
    def test_case1_pair_labels(self):
        rep = quantum_plane_split(case1())
        assert rep.pairs == {
            "c21,c11": ("xy=q*yx",),
            "c21,a12": ("xy=yx",),
            "c21,a22": ("xy=yx",),
            "c11,a12": ("xy=yx",),
            "c11,a22": ("xy=yx",),
            "a12,a22": ("yx=q*xy",),
        }

    def test_split_elements(self):
        rep = case1()
        split = quantum_plane_split(rep)
        inv = rep.c11.inverse()
        assert split.elements["a12"] == inv * rep.c12
        assert split.elements["a22"] == inv * rep.detq()

    def test_singular_c11(self):
        z = Mat.zero(4)
        with pytest.raises(ValueError, match="singular"):
            quantum_plane_split(GL2Rep(z, z, z, z))


class TestClassicalPoint:
    def test_baseline(self):
        rep = classical_point()
        assert verify_relations(rep).ok
        assert rep.detq() == Mat.identity(4)
        closure = subalgebra_closure(list(rep.generators())
                                     + [rep.detq().inverse()])
        assert closure.dim == 1
        assert centralizer(closure.basis).dim == 16


class TestEquivalenceSearch:
    def test_self_equivalence(self):
        r = case1()
        found = gl2_equivalent(r, r)
        assert found.how == "witness found"
        u, a1, a2 = found.witness
        assert a1 == ONE and a2 == ONE
        ui = u.inverse()
        assert u * r.c11 * ui == r.c11
        assert u * r.c12 * ui == r.c12

    def test_column_rescaled_copy(self):
        r1 = case1()
        r2 = GL2Rep(r1.c11, r1.c12.scale(Q), r1.c21, r1.c22.scale(Q))
        assert verify_relations(r2).ok   # column scaling is harmless
        found = gl2_equivalent(r1, r2)
        assert found.how == "witness found"
        u, a1, a2 = found.witness
        assert (a1, a2) == (ONE, Q)

    def test_column_scalings_beyond_the_bounded_range(self):
        # a power trace pins each column's exponent, so scalings outside
        # |k| <= MAX_EXPONENT are found
        r1 = instantiate("perturbed-a")
        b1, b2 = Q ** 6, Q ** -5
        r2 = GL2Rep(r1.c11.scale(b1), r1.c12.scale(b2),
                    r1.c21.scale(b1), r1.c22.scale(b2))
        u, a1, a2 = gl2_equivalent(r1, r2).witness
        assert (str(a1), str(a2)) == ("q^6", "1/q^5")
        assert u == Mat.identity(4)

    def test_conjugated_and_scaled_copy(self):
        r1 = case1()
        u0 = Mat([[1, 0, 1, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
        ui0 = u0.inverse()
        b1, b2 = Q ** -1, Q
        r2 = GL2Rep((u0 * r1.c11 * ui0).scale(b1),
                    (u0 * r1.c12 * ui0).scale(b2),
                    (u0 * r1.c21 * ui0).scale(b1),
                    (u0 * r1.c22 * ui0).scale(b2))
        found = gl2_equivalent(r1, r2)
        assert found.how == "witness found"
        u, a1, a2 = found.witness
        ui = u.inverse()
        assert (u * r1.c11 * ui).scale(a1) == r2.c11
        assert (u * r1.c21 * ui).scale(a1) == r2.c21
        assert (u * r1.c12 * ui).scale(a2) == r2.c12
        assert (u * r1.c22 * ui).scale(a2) == r2.c22
        # the search order fixes which witness is found
        assert (u, a1, a2) == (u0, b1, b2)

    def test_case1_case2_witness_exists(self):
        # the two perturbed quadruples are genuinely equivalent: a
        # permutation-like conjugation carries one to the other
        found = gl2_equivalent(case1(), case2())
        assert found.how == "witness found"
        u, a1, a2 = found.witness
        assert a1 == ONE and a2 == ONE
        r1, r2 = case1(), case2()
        ui = u.inverse()
        assert u * r1.c11 * ui == r2.c11
        assert u * r1.c12 * ui == r2.c12
        assert u * r1.c21 * ui == r2.c21
        assert u * r1.c22 * ui == r2.c22

    def test_inequivalent_quadruples(self):
        tri = GL2Rep(
            Mat.identity(4),
            e(1, 2) + e(2, 3).scale(2) + e(2, 4).scale(3),
            Mat.zero(4),
            Mat.diag(Q ** 2, Q, 1, 1))
        assert not gl2_equivalent(case1(), tri).found

    def test_size_mismatch(self):
        small = GL2Rep(Mat.identity(2), Mat.zero(2),
                       Mat.zero(2), Mat.identity(2))
        assert gl2_equivalent(small, case1()).how == "invariant differs"
        assert gl2_equivalent(case1(), small).how == "invariant differs"

    def test_traces_rule_out_before_any_solve(self, monkeypatch):
        # c11, c22 and detq agree, but tr(c12^j) is 0 against 1 for every
        # j: no scaling of the second column passes, so nothing is solved
        solves = []
        solve = qgl2.conjugacy.stacked_nullspace
        monkeypatch.setattr(qgl2.conjugacy, "stacked_nullspace",
                            lambda *args: solves.append(1) or solve(*args))
        z, d = Mat.zero(4), Mat.diag(Q, Q, 1, 1)
        r1 = GL2Rep(Mat.identity(4), z, z, d)
        r2 = GL2Rep(Mat.identity(4), e(1, 1), z, d)
        assert gl2_equivalent(r1, r2).how == "invariant differs"
        assert solves == []
