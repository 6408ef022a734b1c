"""Exact matrices, canonical subspaces, operator nullspaces, closures."""

import random
import sys
from fractions import Fraction
from itertools import islice, product
from math import prod
from time import process_time

import pytest
from hypothesis import assume, given, settings, strategies as st

import qgl2.conjugacy
import qgl2.matrices
import qgl2.residues
import qgl2.scalars
from oracles import (dense_conjugator, det_vanishes, residue,
                     sandwich_kernel, unimodular)
from qgl2.catalog import CATALOG, closure_generators, instantiate
from qgl2.cli import main
from qgl2.clifford import build_action, counit_invariance_space
from qgl2.gl2 import GL2Rep, gl2_equivalent
from qgl2.conjugacy import HOWS, Verdict, _traces, scaled_conjugacy
from qgl2.matrices import (Mat, MatSpace, _operator_rows, _reduce,
                           _residue_rows, _sparse, centralizer,
                           invertible_element, rref, stacked_nullspace,
                           subalgebra_closure)
from qgl2.residues import RESIDUE_I, RESIDUE_P, RESIDUE_Q0, _residue_rref
from qgl2.scalars import GaussRational, I, ONE, Q, ZERO, Scalar, scalar
from qgl2.spinors import (QSpinorRep, admissibility, check_spinor,
                          q_commutant, spinor_equivalent)


def e(i, j, n=4):
    return Mat.unit(n, i - 1, j - 1)


def det(m: Mat):
    """Determinant by forward elimination, keeping the pivot values that
    the row-reduction kernel normalises away."""
    n = m.n
    rows = [list(row) for row in m.rows]
    one = type(rows[0][0]).one()
    sign = one
    out = one
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return type(one).zero()
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pv = rows[col][col]
        out = out * pv
        inv = pv.inverse()
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                f = f * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return out * sign


class TestMat:
    def test_construction_coercion(self):
        m = Mat([[1, "q"], [Fraction(1, 2), 0]])
        assert m[0, 1] == Q
        assert m[1, 0] == scalar(Fraction(1, 2))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Mat([[1, 2], [3]])

    def test_identity_zero_diag_unit(self):
        assert Mat.identity(3)[1, 1] == ONE
        assert Mat.zero(2) == Mat([[0, 0], [0, 0]])
        assert Mat.diag(Q, ONE) == Mat([["q", 0], [0, 1]])
        assert Mat.unit(2, 0, 1) == Mat([[0, 1], [0, 0]])

    def test_arithmetic(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[0, 1], [1, 0]])
        assert a + b == Mat([[1, 3], [4, 4]])
        assert a - a == Mat.zero(2)
        assert a * b == Mat([[2, 1], [4, 3]])
        assert a.scale(Q) == Mat([["q", "2*q"], ["3*q", "4*q"]])
        assert -b == b.scale(scalar(-1))
        # a scaled matrix is spelled a.scale(s) only
        with pytest.raises(TypeError):
            a * Q
        with pytest.raises(TypeError):
            Q * a

    @pytest.mark.parametrize("op", ["__add__", "__sub__"])
    def test_sum_of_different_sizes(self, op):
        with pytest.raises(ValueError, match="dimension mismatch"):
            getattr(Mat([[1, 2], [3, 4]]), op)(Mat.identity(3))

    def test_unit_products(self):
        assert e(1, 2) * e(2, 3) == e(1, 3)
        assert e(1, 2) * e(3, 4) == Mat.zero(4)

    def test_pow(self):
        n = e(1, 2, 3) + e(2, 3, 3)
        assert n ** 0 == Mat.identity(3)
        assert n ** 2 == e(1, 3, 3)
        assert n ** 3 == Mat.zero(3)
        m = Mat([[1, 1], [0, 1]])
        assert m ** 5 == Mat([[1, 5], [0, 1]])
        assert type((m.eval(2) ** 0)[1, 1]) is GaussRational

    def test_trace_rank_det(self):
        assert Mat([[1, 2], [2, 4]]).rank() == 1
        assert det(Mat([[1, 2], [3, 4]])) == scalar(-2)
        assert det(Mat.diag(Q, Q * Q)) == Q ** 3
        assert Mat.diag(Q, ONE).trace() == Q + ONE

    def test_inverse(self):
        m = Mat([["q", 1], [0, 1]])
        inv = m.inverse()
        assert m * inv == Mat.identity(2)
        assert inv * m == Mat.identity(2)
        assert inv == Mat([["1/q", "-1/q"], [0, 1]])

    def test_singular(self):
        sing = Mat([[1, 1], [1, 1]])
        assert not sing.is_invertible()
        with pytest.raises(ValueError, match="singular"):
            sing.inverse()

    def test_nilpotent_flag(self):
        assert (e(1, 2, 3) + e(2, 3, 3)).is_nilpotent()
        assert Mat.zero(2).is_nilpotent()
        assert not Mat.identity(2).is_nilpotent()
        assert not Mat.diag(Q, ZERO).is_nilpotent()

    def test_flatten_row_major(self):
        m = Mat([[1, 2], [3, 4]])
        assert m.flatten() == [scalar(1), scalar(2), scalar(3), scalar(4)]

    def test_eval(self):
        m = Mat([["q", "1/q"], [0, "q+1"]])
        at2 = m.eval(2)
        assert at2[0, 1] == GaussRational(Fraction(1, 2))
        assert at2[1, 1] == GaussRational(3)
        with pytest.raises(ValueError, match="evaluation pole"):
            m.eval(0)

    def test_json_round_trip(self):
        m = Mat([["q^2", "1/2 + 3*i"], [0, "-q"]])
        assert Mat.from_json(m.to_json()) == m

    def test_gauss_rational_field(self):
        # the same container works over plain Gaussian rationals
        g = GaussRational
        m = Mat([[g(2), g(0, 1)], [g(0), g(1)]])
        assert det(m) == g(2)
        assert (m * m.inverse()) == Mat.identity(2, one=g(1))


class TestMatSpace:
    def test_span_and_dim(self):
        s = MatSpace.span([e(1, 1), e(1, 2), e(1, 1) + e(1, 2)])
        assert s.dim == 2

    def test_canonical_equality(self):
        a = MatSpace.span([e(1, 1) + e(1, 2), e(1, 2)])
        b = MatSpace.span([e(1, 1), e(1, 2)])
        assert a == b
        assert MatSpace.span([e(1, 1).scale(scalar(2))]) \
            == MatSpace.span([e(1, 1)])

    def test_basis_normalized(self):
        s = MatSpace.span([e(2, 2).scale(Q)])
        assert s.basis == [e(2, 2)]

    def test_contains(self):
        s = MatSpace.span([e(1, 1), e(2, 2)])
        assert s.contains(e(1, 1) - e(2, 2).scale(Q))
        assert not s.contains(e(1, 2))

    def test_le(self):
        small = MatSpace.span([e(1, 1)])
        big = MatSpace.span([e(1, 1), e(1, 2)])
        assert all(big.contains(b) for b in small.basis)
        assert not all(small.contains(b) for b in big.basis)

    def test_empty_space(self):
        s = MatSpace.span([], n=4)
        assert s.dim == 0 and s.basis == []


class TestClosuresAndCommutants:
    def test_subalgebra_closure_sl2_units(self):
        a = Mat.unit(2, 0, 1)
        b = Mat.unit(2, 1, 0)
        c = subalgebra_closure([a, b])
        assert c.dim == 4

    def test_subalgebra_closure_nilpotent_chain(self):
        n = e(1, 2, 3) + e(2, 3, 3)
        c = subalgebra_closure([n])
        assert c.dim == 2
        assert c.contains(n ** 2)

    def test_closure_of_zero(self):
        assert subalgebra_closure([Mat.zero(3)]).dim == 0

    def test_centralizer_of_distinct_diagonal(self):
        d = Mat.diag(1, 2, 3)
        c = centralizer([d])
        assert c.dim == 3
        assert c == MatSpace.span([e(1, 1, 3), e(2, 2, 3), e(3, 3, 3)])

    def test_centralizer_of_identity(self):
        assert centralizer([Mat.identity(3)]).dim == 9

    def test_centralizer_requires_input(self):
        for solve in (centralizer, stacked_nullspace, scaled_conjugacy):
            with pytest.raises(ValueError):
                solve([])

    def test_mixed_sizes_are_rejected(self):
        small, big = Mat.identity(2), Mat.diag(1, 2, 3)
        for mats in ([small, big], [big, small]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                centralizer(mats)
            with pytest.raises(ValueError, match="dimension mismatch"):
                subalgebra_closure(mats)
            with pytest.raises(ValueError, match="dimension mismatch"):
                MatSpace.span(mats)

    def test_operator_nullspace_twist(self):
        # solutions of a*X = q*X*a for a = diag(q, 1) form span{e12}
        a = Mat.diag(Q, ONE)
        sol = stacked_nullspace([(a.scale(Q), a)])
        assert sol == MatSpace.span([Mat.unit(2, 0, 1)])

    def test_stacked_nullspace_intersection(self):
        d = Mat.diag(1, 2)
        pairs = [
            (d, d),                                  # commute with d
            (Mat.zero(2), Mat.unit(2, 0, 0)),        # killed by e11 on the left
        ]
        sol = stacked_nullspace(pairs)
        assert sol == MatSpace.span([Mat.unit(2, 1, 1)])


def q_shift(n: int) -> Mat:
    """q*I plus the cyclic shift: two nonzeros per row."""
    return Mat([[Q if j == i else ONE if j == (i + 1) % n else ZERO
                 for j in range(n)] for i in range(n)])


def reference_kernel(pairs: list) -> MatSpace:
    one = type(pairs[0][0].rows[0][0]).one()
    return sandwich_kernel(pairs[0][0].n,
                           [[(None, a, one), (b, None, -one)]
                            for a, b in pairs])


def residue_rank(pairs: list):
    """The rank of the stacked operator of pairs at the first residue
    point, or None at a pole there."""
    n = pairs[0][0].n
    _, rows = next(_residue_rows(pairs, n, RESIDUE_P, RESIDUE_I), (0, None))
    return None if rows is None \
        else len(_residue_rref(rows, range(n * n), RESIDUE_P)[0])


POLES = pytest.mark.parametrize("entry", [
    scalar(Fraction(1, RESIDUE_P)),     # p divides a coefficient's d
    ONE / (Q - RESIDUE_Q0),             # the denominator vanishes at q0
], ids=["coefficient", "denominator"])


class TestResidueProbe:
    """The residue rank proves an empty kernel; a pole at the residue
    point, or a lower rank there, proves nothing, and the exact
    elimination answers."""

    # the exact reference takes seconds at n = 4
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_rank_is_proved(self, n):
        for pairs in ([(q_shift(n).scale(Q), q_shift(n))],
                      [(q_shift(n), q_shift(n).scale(Q))]):
            assert residue_rank(pairs) == n * n
            assert stacked_nullspace(pairs) == reference_kernel(pairs) \
                == MatSpace(n)

    @POLES
    def test_pole_abstains(self, entry):
        assert residue(entry) is None
        a = Mat([[entry, ONE], [ZERO, Q]])
        pairs = [(a.scale(Q), a)]
        assert residue_rank(pairs) is None
        assert stacked_nullspace(pairs) == reference_kernel(pairs) \
            == MatSpace(2)

    @POLES
    def test_pole_of_a_singular_matrix(self, entry):
        # X a = 0 with det a = entry * (1 / entry) - 1 = 0: the kernel has
        # dimension 2, yet a with the pole read as any residue r is
        # [[r, 1], [1, 0]] mod p, which is invertible
        a = Mat([[entry, ONE], [ONE, entry.inverse()]])
        pairs = [(a, Mat.zero(2))]
        assert residue(entry.inverse()) == 0
        assert residue_rank(pairs) is None
        assert stacked_nullspace(pairs) == reference_kernel(pairs)
        assert stacked_nullspace(pairs).dim == 2

    def test_lower_rank_at_the_point_abstains(self):
        # a x = q x a with a = diag(q0, 1): the (1, 2) equation is
        # (q0 - q) x12 = 0, a unit over Q(i)(q) but 0 at q = q0
        a = Mat.diag(RESIDUE_Q0, 1)
        pairs = [(a.scale(Q), a)]
        assert residue_rank(pairs) == 3
        assert stacked_nullspace(pairs) == reference_kernel(pairs) \
            == MatSpace(2)


# a unimodular integer conjugator, so the conjugated entry keeps small
# integer coefficients and q in many of its entries
CONJUGATOR = Mat([[1, 0, 1, 0], [0, 1, 0, 2], [0, 0, 1, 0], [1, 0, 0, 1]])


def conjugated(m: Mat) -> Mat:
    return CONJUGATOR * m * CONJUGATOR.inverse()


def diagonal_conjugacy(u: Mat, d: Scalar) -> list:
    """The pair (A, u A u^-1) of A = diag(d, q): its space {X : X A =
    u A u^-1 X} is u times the diagonal matrices, so its reduced echelon
    basis carries the entries of u."""
    a = Mat.diag(d, Q)
    return [(a, u * a * u.inverse())]


def forbid_exact_elimination(monkeypatch) -> None:
    """Patch matrices.rref to raise: every solve must then be answered at
    residue points."""
    def exact(rows):
        raise AssertionError("the exact elimination ran")

    monkeypatch.setattr(qgl2.matrices, "rref", exact)


class TestResidueKernel:
    """A nonzero kernel is read off residue points and proved by one exact
    check; wherever that abstains, the exact elimination gives the same
    canonical basis."""

    def test_answered_without_the_exact_elimination(self, monkeypatch):
        rep = instantiate("rejected-double-jordan-up")
        a, b = conjugated(rep.a), conjugated(rep.b)
        solves = [[(a.scale(Q), a)], [(rep.a, a), (rep.b, b)]]
        expected = [reference_kernel(pairs) for pairs in solves]

        forbid_exact_elimination(monkeypatch)
        assert q_commutant(a) == expected[0]
        assert expected[0].dim == 2
        # the conjugator space of the pair and its conjugate holds the
        # conjugator, and entries with q, which take more than one point
        space = stacked_nullspace(solves[1])
        assert space == expected[1] and space.dim == 2
        assert any(x.den != ONE.den or len(x.num) > 1 for m in space.basis
                   for row in m.rows for x in row)

    def test_degree_twenty_needs_no_cap(self, monkeypatch):
        # the entry 1/q^20 of the basis settles as a Thiele fraction after
        # 2 * 20 + 1 terms, so the points stop by themselves at the 42nd
        pairs = diagonal_conjugacy(Mat([[1, Q ** 20], [0, 1]]), ONE)
        expected = reference_kernel(pairs)
        points = []
        residue_rows = qgl2.matrices._residue_rows

        def counted(*args):
            for item in residue_rows(*args):
                points.append(item[0])
                yield item

        monkeypatch.setattr(qgl2.matrices, "_residue_rows", counted)
        forbid_exact_elimination(monkeypatch)
        assert stacked_nullspace(pairs) == expected
        assert len(points) == 42

    @pytest.mark.parametrize("u, d", [
        # a pole at the second residue point, reached since 1/q is no
        # constant
        (Mat([[1, Q], [0, 1]]), ONE / (Q - (RESIDUE_Q0 + 1))),
        # (q + 1)/(q + 1 + p) is 1 mod p = RESIDUE_P, so its fraction
        # degrees at the next prime differ from the first modulus's
        (Mat([[1, 0], [(Q + 1) / (Q + 1 + RESIDUE_P), 1]]), ONE),
    ], ids=["second-point-pole", "degrees-differ"])
    def test_each_abstention_falls_back(self, monkeypatch, u, d):
        pairs = diagonal_conjugacy(u, d)
        calls = []
        exact = qgl2.matrices.rref
        monkeypatch.setattr(qgl2.matrices, "rref",
                            lambda rows: calls.append(1) or exact(rows))
        space = stacked_nullspace(pairs)
        assert calls, "the residue path did not abstain"
        assert space == reference_kernel(pairs) and space.dim == 2

    # u = [[1, 0], [c, 1]] puts c into the basis; each part past
    # isqrt(M/2) needs a larger M = RESIDUE_P p1 ... pk, and each prime
    # p1, p2, ... of _moduli past RESIDUE_P is above 2^62
    @pytest.mark.parametrize("u, primes", [
        (Mat([[1, I], [0, 1]]), 1),             # a non-real coefficient
        (Mat([[1, 40000], [0, 1]]), 2),         # a part over 32767
        (Mat([[1, 0], [2 ** 32 + 15, 1]]), 2),
        (Mat([[1, 0], [GaussRational(2 ** 32 + 15, -2 ** 33 - 7), 1]]), 2),
        (Mat([[1, 0], [2 ** 64 + 13, 1]]), 3),
        (Mat([[1, 0], [GaussRational(Fraction(-2 ** 64 - 13, 7),
                                     2 ** 65 + 9), 1]]), 3),
    ], ids=["non-real", "large-part", "2^32", "2^32-non-real", "2^64",
            "2^64-non-real"])
    def test_lifted_without_the_exact_elimination(self, monkeypatch, u,
                                                  primes):
        pairs = diagonal_conjugacy(u, ONE)
        expected = reference_kernel(pairs)
        moduli, maps = set(), set()
        residue_rows = qgl2.matrices._residue_rows
        residues = qgl2.residues._residues

        def counted(pairs, n, p, r):
            moduli.add(p)
            return residue_rows(pairs, n, p, r)

        def mapped(poly, p, r):
            maps.add((p, r))
            return residues(poly, p, r)

        monkeypatch.setattr(qgl2.matrices, "_residue_rows", counted)
        # the kernel's residue maps and those of the gcds in its proof
        monkeypatch.setattr(qgl2.matrices, "_residues", mapped)
        monkeypatch.setattr(qgl2.residues, "_residues", mapped)
        forbid_exact_elimination(monkeypatch)
        space = stacked_nullspace(pairs)
        assert space == expected and space.dim == 2
        assert len(moduli) == primes
        # a real input has one image at both embeddings of i, so each
        # prime is mapped at one of them only
        real = not any(c.b for x in pairs[0][1].flatten() for c in x.num)
        assert len(maps) == len(moduli) * (1 if real else 2)

    def test_conjugated_jordan_entries_lift(self, monkeypatch):
        # B(a') and B'(a') of two catalog entries conjugated by a dense u
        # with i and q among its entries: the kernels have non-real
        # entries, which the exact elimination took seconds for.  The
        # reference is exact and cheap: a x = q x a iff a' x' = q x' a'
        # for a' = u a u^-1 and x' = u x u^-1, and likewise for B', so
        # conjugating the bases of the sparse a, solved by the exact
        # elimination, spans B(a') and B'(a')
        inputs, expected = [], []
        with monkeypatch.context() as m:
            m.setattr(qgl2.matrices, "_residue_kernel", lambda pairs, n: None)
            for seed in (1, 2):
                u = dense_conjugator(seed)
                inverse = u.inverse()
                for name in ("admissible-jordan",
                             "rejected-double-jordan-up"):
                    a = instantiate(name).a
                    inputs.append(u * a * inverse)
                    expected.append(tuple(
                        MatSpace.span((u * x * inverse for x in b.basis),
                                      n=4)
                        for b in (q_commutant(a),
                                  q_commutant(a, reverse=True))))

        forbid_exact_elimination(monkeypatch)
        start = process_time()
        spaces = [(q_commutant(a), q_commutant(a, reverse=True))
                  for a in inputs]
        assert process_time() - start < 2.5
        assert spaces == expected
        assert any(x.num[-1].b for space, _ in spaces for m in space.basis
                   for row in m.rows for x in row if x)

    def test_catalog_round_solve_routes(self, monkeypatch, capsys):
        # every solve of one verify-catalog round, counted through each
        # qgl2 module that binds stacked_nullspace (as the benchmark's
        # tracer patches them), keeps its route: a solve that slips to a
        # slower one fails here, where timing noise would hide it; and
        # every gcd is decided at the first modulus of scalars._cancel, whose
        # residue maps all send i to RESIDUE_I mod RESIDUE_P (the "first
        # step" that the last count looks past)
        routes = dict.fromkeys(("solves", "residue", "abstained",
                                "centralizer", "gauss", "gcds",
                                "past first step"), 0)
        solve = qgl2.matrices.stacked_nullspace
        residue_kernel = qgl2.matrices._residue_kernel
        cancel, residues = qgl2.scalars._cancel, qgl2.residues._residues

        def counted_solve(pairs):
            routes["solves"] += 1
            if not isinstance(pairs[0][0].rows[0][0], Scalar):
                routes["gauss"] += 1
            elif all(a == b for a, b in pairs):
                routes["centralizer"] += 1
            return solve(pairs)

        def counted_residue(pairs, n):
            space = residue_kernel(pairs, n)
            routes["abstained" if space is None else "residue"] += 1
            return space

        def counted_cancel(num, den):
            routes["gcds"] += 1
            return cancel(num, den)

        def counted_residues(poly, p=RESIDUE_P, r=RESIDUE_I):
            routes["past first step"] += (p, r) != (RESIDUE_P, RESIDUE_I)
            return residues(poly, p, r)

        for name, module in list(sys.modules.items()):
            if name.startswith("qgl2.") and \
                    getattr(module, "stacked_nullspace", None) is solve:
                monkeypatch.setattr(module, "stacked_nullspace",
                                    counted_solve)
        monkeypatch.setattr(qgl2.matrices, "_residue_kernel",
                            counted_residue)
        monkeypatch.setattr(qgl2.scalars, "_cancel", counted_cancel)
        monkeypatch.setattr(qgl2.residues, "_residues", counted_residues)
        assert main(["verify-catalog", "--format", "json"]) == 1
        capsys.readouterr()
        assert routes == {"solves": 95, "residue": 40, "abstained": 0,
                          "centralizer": 8, "gauss": 47, "gcds": 73,
                          "past first step": 0}


class TestSearchHelpers:
    def test_power_traces(self):
        m = Mat.diag(Q, ONE)
        assert tuple(islice(_traces(m), 3)) == (Q + ONE, Q ** 2 + ONE,
                                                Q ** 3 + ONE)

    def test_second_trace_rules_out_before_any_solve(self, monkeypatch):
        # tr(g) is 0 on both sides; tr(g^2) is 2 against 0, which no
        # scaling q^k matches, so nothing is solved
        monkeypatch.setattr(qgl2.conjugacy, "stacked_nullspace",
                            lambda pairs: pytest.fail("solved"))
        g1, g2 = Mat.diag(1, -1), Mat.unit(2, 0, 1)
        assert scaled_conjugacy([(g1, g2, 0)]) == \
            Verdict(None, "invariant differs")

    def test_invertible_element_from_singular_basis(self):
        # every basis element is singular but a combination is not
        s = MatSpace.span([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        x = invertible_element(s)
        assert x is not None
        assert x.is_invertible()
        assert s.contains(x)

    def test_invertible_element_over_gauss_rationals(self):
        # E11 and E22 are singular, so the first invertible member is
        # E11 + 2 E22, whose coefficient 2 scales as a GaussRational
        g = GaussRational
        s = MatSpace.span([Mat.unit(2, 0, 0).eval(2),
                           Mat.unit(2, 1, 1).eval(2)])
        assert invertible_element(s) == Mat.diag(g(1), g(2))

    def test_invertible_element_none(self):
        assert invertible_element(MatSpace.span([Mat.unit(2, 0, 1)])) is None

    def test_invertible_element_stages(self):
        # the matrix each stage of the candidate stream returns
        u = Mat.unit
        basis_stage = MatSpace.span([u(2, 0, 0) + u(2, 1, 1)])
        assert invertible_element(basis_stage) == Mat.identity(2)
        geometric_stage = MatSpace.span([u(2, 0, 0), u(2, 1, 1)])
        assert invertible_element(geometric_stage) == Mat.diag(1, 2)
        # every basis element and every sum of t^j B_j is singular here,
        # and so is B_1 + B_2 + B_3, the first grid point; B_1 + 2 B_2 is not
        grid_stage = MatSpace.span([u(3, 0, 0) + u(3, 2, 2),
                                    u(3, 0, 1) + u(3, 1, 0),
                                    u(3, 1, 1) + u(3, 2, 2)])
        assert invertible_element(grid_stage) \
            == Mat([[1, 2, 0], [2, 0, 0], [0, 0, 1]])

    def test_invertible_element_deterministic(self):
        s = MatSpace.span([Mat.unit(3, 0, 1), Mat.unit(3, 1, 0),
                           Mat.unit(3, 2, 2)])
        assert invertible_element(s) == invertible_element(s)


class TestTracePins:
    """The first nonzero power trace of a group fixes its exponent k, and
    no later trace is drawn once every group is fixed; only a group whose
    power traces all vanish tries |k| <= MAX_EXPONENT."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.data())
    def test_conjugated_rescaled_catalog_rep(self, data):
        rep = instantiate(data.draw(st.sampled_from(
            [e.name for e in CATALOG if e.builder is not None])))
        # the attribute of each generator, and the index of its scaling group
        if isinstance(rep, GL2Rep):
            groups = {"c11": 0, "c21": 0, "c12": 1, "c22": 1}
            search = gl2_equivalent
        else:
            groups = {"a": 0, "b": 0}
            search = spinor_equivalent
        ks = [data.draw(st.integers(-8, 8)) for _ in set(groups.values())]
        u0 = unimodular(lambda: data.draw(st.integers(-2, 2)), 4)
        ui0 = u0.inverse()
        copy = type(rep)(**{f: (u0 * getattr(rep, f) * ui0).scale(Q ** ks[g])
                            for f, g in groups.items()})
        verdict = search(rep, copy)
        assert verdict.found
        assert list(verdict.witness[1:]) == [Q ** k for k in ks]

    @pytest.mark.parametrize("g1, g2", [
        # the trace ratio 2 is no power of q
        (Mat.diag(1, Q), Mat.diag(2, 2 * Q)),
        # tr(g) is 0 on both sides, and tr(g2^2) = 2q = q tr(g1^2): the
        # valuation gap 1 is no multiple of j = 2
        (Mat.diag(1, -1, 0), Mat([[0, "q", 0], [1, 0, 0], [0, 0, 0]]))],
        ids=["ratio-not-a-power-of-q", "gap-not-a-multiple-of-j"])
    def test_no_exponent_fits(self, monkeypatch, g1, g2):
        monkeypatch.setattr(qgl2.conjugacy, "stacked_nullspace",
                            lambda pairs: pytest.fail("solved"))
        assert scaled_conjugacy([(g1, g2, 0)]) == \
            Verdict(None, "invariant differs")

    def counted(self, monkeypatch):
        """The number of power traces drawn from each _traces generator,
        in call order, and the pairs of each solve."""
        drawn, solves = [], []
        traces = qgl2.conjugacy._traces
        solve = qgl2.conjugacy.stacked_nullspace

        def counted_traces(m):
            drawn.append(0)
            k = len(drawn) - 1
            for t in traces(m):
                drawn[k] += 1
                yield t

        def counted_solve(pairs):
            solves.append(pairs)
            return solve(pairs)

        monkeypatch.setattr(qgl2.conjugacy, "_traces", counted_traces)
        monkeypatch.setattr(qgl2.conjugacy, "stacked_nullspace",
                            counted_solve)
        return drawn, solves

    def test_pinned_groups_form_no_power(self, monkeypatch):
        # tr(g) pins both column groups of the perturbed pair, so no
        # power trace past j = 1 is drawn, and one solve finds the witness
        drawn, solves = self.counted(monkeypatch)
        verdict = gl2_equivalent(instantiate("perturbed-a"),
                                 instantiate("perturbed-b"))
        assert verdict.found
        assert drawn == [1] * 8
        assert len(solves) == 1

    def test_pinned_pair_is_decided_by_the_solve(self, monkeypatch):
        # tr(a) = 2 on both sides pins k = 0 at j = 1, and tr(b) = 0 pins
        # nothing more.  tr(a^2) = 2 against 4 is not drawn: the one solve,
        # X diag(1, 1, 0) = diag(2, 0, 0) X, leaves only matrices that
        # vanish off the last column, so there is no invertible u
        zero = Mat.zero(3)
        drawn, solves = self.counted(monkeypatch)
        verdict = spinor_equivalent(QSpinorRep(Mat.diag(1, 1, 0), zero),
                                    QSpinorRep(Mat.diag(2, 0, 0), zero))
        assert verdict == Verdict(None, "proved exactly")
        assert drawn == [1] * 4
        assert len(solves) == 1

    @pytest.mark.parametrize("k", [6, -7])
    def test_pin_at_j2_beyond_the_bounded_range(self, monkeypatch, k):
        # tr(a) = 0 on both sides pins nothing; tr(a^2) = 2 + 2q^2 and
        # q^(2k) times it pin k at j = 2, though |k| > MAX_EXPONENT.  One
        # solve then finds alpha = q^k, and no trace past j = 2 is drawn
        a = Mat.diag(1, -1, Q, -Q)
        zero = Mat.zero(4)
        drawn, solves = self.counted(monkeypatch)
        verdict = spinor_equivalent(QSpinorRep(a, zero),
                                    QSpinorRep(a.scale(Q ** k), zero))
        assert verdict.found
        assert verdict.witness[1] == Q ** k
        assert drawn == [2] * 4
        assert len(solves) == 1

    def test_nilpotent_pair_keeps_the_bounded_range(self):
        # a b = q b a holds, as both products vanish; every power trace
        # vanishes, so nothing pins k.  (q^5 a, q^5 b) is q^5 times
        # (a, b), so alpha = q^5 with u = 1 is a witness; the "no" below
        # is the documented bound MAX_EXPONENT = 4 for such a pair, not a
        # proof that none exists, and the verdict says so
        a = Mat.unit(3, 0, 1) + Mat.unit(3, 1, 2)
        b = Mat.unit(3, 0, 2)
        r = QSpinorRep(a, b)
        assert check_spinor(a, b)
        u, alpha = spinor_equivalent(
            r, QSpinorRep(a.scale(Q ** 4), b.scale(Q ** 4))).witness
        assert alpha == Q ** 4
        assert spinor_equivalent(
            r, QSpinorRep(a.scale(Q ** 5), b.scale(Q ** 5))) == \
            Verdict(None, "searched |k| <= 4")


def _seeded_space(rng, n: int) -> MatSpace:
    """The span of one to three n x n matrices whose entries are 0 with
    probability one half, else in -2..2 or (-2..2)*q."""
    def entry():
        if rng.random() < 0.5:
            return ZERO
        return scalar(rng.randint(-2, 2)) * (Q if rng.random() < 0.5 else ONE)
    return MatSpace.span([Mat([[entry() for _ in range(n)] for _ in range(n)])
                          for _ in range(rng.randint(1, 3))], n)


class TestInvertibleDecision:
    """invertible_element(s) is None exactly when det(sum t_j B_j) is the
    zero polynomial, and otherwise returns an invertible member of s."""

    def check(self, s: MatSpace) -> bool:
        x = invertible_element(s)
        assert (x is None) == det_vanishes(s)
        if x is not None:
            assert x.is_invertible()
            assert s.contains(x)
        return x is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_spaces(self, n):
        rng = random.Random(n)
        misses = [self.check(_seeded_space(rng, n)) for _ in range(30)]
        assert 0 < sum(misses) < len(misses)

    def test_skew_symmetric(self):
        # every member is singular (odd size) and no vector is in every
        # kernel, so the whole grid of C(5, 3) points runs
        u = Mat.unit
        s = MatSpace.span([u(3, i, j) - u(3, j, i)
                           for i, j in ((0, 1), (0, 2), (1, 2))])
        assert self.check(s)

    def test_compression_space(self):
        # {X : X e1, X e2 in span(e1)}, d = 10: rank at most 3 everywhere,
        # no common kernel or cokernel vector, C(13, 4) grid points
        s = MatSpace.span([e(1, 1), e(1, 2)]
                          + [e(i, j) for i in range(1, 5) for j in (3, 4)])
        assert s.dim == 10
        assert self.check(s)


class TestCommonNullVector:
    # n = 5 with E_15 on one side: every exponent passes the trace pins, and
    # each conjugator space {X : E_15 X = 0} has d = 20 and a common
    # cokernel vector, so it is decided after the 20 basis elements and the
    # four t^j sums, before any of its C(24, 5) grid points
    E15 = Mat.unit(5, 0, 4)

    def count_ranks(self, monkeypatch):
        calls = []
        rank_test = Mat.is_invertible
        monkeypatch.setattr(Mat, "is_invertible",
                            lambda m: calls.append(m) or rank_test(m))
        return calls

    def test_spinor_pairs(self, monkeypatch):
        calls = self.count_ranks(monkeypatch)
        z = Mat.zero(5)
        verdict = spinor_equivalent(QSpinorRep(z, z), QSpinorRep(z, self.E15))
        # every power trace vanishes, so the nine exponents are a bound
        assert verdict == Verdict(None, "searched |k| <= 4")
        assert len(calls) == 9 * 24

    def test_quadruples(self, monkeypatch):
        calls = self.count_ranks(monkeypatch)
        one, z = Mat.identity(5), Mat.zero(5)
        verdict = gl2_equivalent(GL2Rep(one, z, z, one),
                                 GL2Rep(one, self.E15, z, one))
        assert verdict == Verdict(None, "proved exactly")
        assert len(calls) == 24


class TestVerdict:
    def test_witness_exactly_when_found(self):
        u = Mat.identity(2)
        assert Verdict(u, "witness found").found
        for how in HOWS[1:]:
            assert not Verdict(None, how).found
            with pytest.raises(ValueError, match="inconsistent verdict"):
                Verdict(u, how)
        with pytest.raises(ValueError, match="inconsistent verdict"):
            Verdict(None, "witness found")

    def test_unknown_how(self):
        with pytest.raises(ValueError, match="inconsistent verdict"):
            Verdict(None, "degenerate sample point")

    def test_frozen(self):
        v = Verdict(None, "proved exactly")
        with pytest.raises(AttributeError):
            v.how = "witness found"


# ---------------------------------------------------------------------------
# properties of the row-reduction kernel, over Q(i)(q) and over Q(i)

SCALAR_POOL = (ZERO, ONE, -ONE, scalar(2), I, Q, ONE / Q, Q + ONE,
               ONE / (Q - ONE))
GAUSS_POOL = tuple(GaussRational(re, im) for re, im in
                   ((0, 0), (1, 0), (-1, 0), (2, 0), (0, 1),
                    (Fraction(1, 3), 0), (1, 1), (Fraction(-2, 5), 3)))
POOLS = pytest.mark.parametrize("pool", [SCALAR_POOL, GAUSS_POOL],
                                ids=["scalar", "gauss"])
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def row_lists(draw, pool, ncols=None, min_rows=1, max_rows=5):
    """min_rows to max_rows rows of length ncols (1..5 when not given)
    drawn from pool; some rows are combinations of earlier ones, so the
    rank is often deficient."""
    ncols = ncols or draw(st.integers(1, 5))
    entry = st.sampled_from(pool)
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        if len(rows) >= 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, len(rows) - 1),
                                 min_size=2, max_size=2))
            a, b = draw(entry), draw(entry)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols,
                                      max_size=ncols)))
    return rows


@st.composite
def wide_row_lists(draw, pool):
    """ncols = 9..16 columns and ncols - 2 to ncols rows, like the sparse
    rows of the operator X -> X A - B X: row r is nonzero in column
    order[r] of a drawn permutation and in up to three more, each entry
    drawn from pool, and sometimes one row is a combination of two
    others, so the rank is full or close to it."""
    ncols = draw(st.integers(9, 16))
    order = draw(st.permutations(range(ncols)))
    nonzero = st.sampled_from([x for x in pool if x])
    rows = []
    for r in range(draw(st.integers(ncols - 2, ncols))):
        row = [type(pool[0]).zero()] * ncols
        for k in {order[r]} | draw(st.sets(st.integers(0, ncols - 1),
                                           max_size=3)):
            row[k] = draw(nonzero)
        rows.append(row)
    if draw(st.booleans()):
        i, j, k = draw(st.permutations(range(len(rows))))[:3]
        a, b = draw(nonzero), draw(nonzero)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


def gauss_jordan(rows: list) -> tuple:
    """Reference reduced row echelon form: column by column, take the
    first remaining row with a nonzero entry, scale it to a leading one
    and clear the column in every other row."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def kernel_form(reduced: tuple) -> tuple:
    """A dense (rows, pivots) pair with its rows as kernel rows."""
    rows, pivots = reduced
    return [_sparse(row) for row in rows], pivots


def dense(row: dict, ncols: int, zero) -> list:
    """The dense row of a kernel row."""
    return [row.get(k, zero) for k in range(ncols)]


def dense_reduce(vectors: list, pivots: list, vec) -> list:
    """Reference _reduce: x - c * y in every column, pivots included."""
    for piv, basis_vec in zip(pivots, vectors):
        c = vec[piv]
        vec = [x - c * y for x, y in zip(vec, basis_vec)]
    return vec


def as_mats(rows: list) -> list:
    """Rows of length 4 read as 2 x 2 matrices."""
    return [Mat([row[:2], row[2:]]) for row in rows]


class TestKernelProperties:
    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_rref_matches_reference_in_any_row_order(self, pool, data):
        rows = data.draw(row_lists(pool))
        order = data.draw(st.permutations(range(len(rows))))
        shuffled = [_sparse(rows[k]) for k in order]
        before = [dict(row) for row in shuffled]
        assert rref(shuffled) == kernel_form(gauss_jordan(rows))
        assert shuffled == before

    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_rref_ignores_row_order(self, pool, data):
        # stacked_nullspace feeds its rows sparsest first on this
        rows = [_sparse(row) for row in data.draw(row_lists(pool))]
        order = data.draw(st.permutations(range(len(rows))))
        expected = rref(rows)
        assert rref([rows[k] for k in order]) == expected
        assert rref(sorted(rows, key=len)) == expected

    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_rref_is_reduced_echelon(self, pool, data):
        rows = data.draw(row_lists(pool))
        reduced, pivots = rref([_sparse(row) for row in rows])
        one, zero = type(pool[0]).one(), type(pool[0]).zero()
        reduced = [dense(row, len(rows[0]), zero) for row in reduced]
        assert len(reduced) == len(pivots)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for r, (row, pc) in enumerate(zip(reduced, pivots)):
            assert row[pc] == one
            assert all(x == zero for x in row[:pc])
            assert all(reduced[k][pc] == zero
                       for k in range(len(reduced)) if k != r)

    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_span_ignores_input_order(self, pool, data):
        mats = as_mats(data.draw(row_lists(pool, ncols=4)))
        order = data.draw(st.permutations(range(len(mats))))
        a = MatSpace.span(mats)
        b = MatSpace.span([mats[k] for k in order])
        assert a == b
        assert a._vectors == b._vectors

    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_contains_iff_dimension_unchanged(self, pool, data):
        *mats, m = as_mats(data.draw(row_lists(pool, ncols=4, min_rows=2,
                                               max_rows=6)))
        space = MatSpace.span(mats)
        vectors = [dict(v) for v in space._vectors]
        pivots = list(space._pivots)
        inside = space.contains(m)
        assert space._vectors == vectors and space._pivots == pivots
        assert inside == (MatSpace.span(mats + [m]).dim == space.dim)

    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_wide_rows_match_dense_reference(self, pool, data):
        rows = data.draw(wide_row_lists(pool))
        reduced, pivots = rref([_sparse(row) for row in rows])
        assert (reduced, pivots) == kernel_form(gauss_jordan(rows))
        ncols, zero = len(rows[0]), type(pool[0]).zero()
        vec = data.draw(st.lists(st.sampled_from(pool), min_size=ncols,
                                 max_size=ncols))
        out = _reduce(reduced, pivots, _sparse(vec))
        expected = dense_reduce([dense(row, ncols, zero) for row in reduced],
                                pivots, vec)
        assert out == _sparse(expected)
        assert all(dense(out, ncols, zero)[pc] == zero for pc in pivots)

    def test_centralizer_work_budget(self, monkeypatch):
        # the exact invariants of perturbed-a's single-mode operator
        # algebra, as report._algebra forms them: 8 products; a dense
        # update, which also forms x - c * 1 at each pivot, takes 70
        basis = subalgebra_closure(closure_generators("perturbed-a")).basis
        products = []
        mul = Scalar.__mul__

        def counted(x, y):
            products.append(1)
            return mul(x, y)
        monkeypatch.setattr(Scalar, "__mul__", counted)
        assert centralizer(basis).dim == 1
        assert len(products) <= 8

    def test_centralizer_truth_test_budget(self, monkeypatch):
        # the same solve: sparse rows test only the entries they hold,
        # 1190 truth tests; dense rows, which test every zero, take 6746
        basis = subalgebra_closure(closure_generators("perturbed-a")).basis
        tests = []
        truth = Scalar.__bool__

        def counted(x):
            tests.append(1)
            return truth(x)
        monkeypatch.setattr(Scalar, "__bool__", counted)
        assert centralizer(basis).dim == 1
        assert len(tests) <= 1190


# ---------------------------------------------------------------------------
# properties of the closure and power-trace kernels

def pairwise_closure(gens: list) -> MatSpace:
    """Reference closure: fold in x * y and y * x for every basis element
    x and every element y that entered in the previous round, until the
    dimension stabilizes."""
    space = MatSpace.span(gens)
    fresh = list(space.basis)
    while fresh:
        added = []
        for x in space.basis:
            for y in fresh:
                for p in (x * y, y * x):
                    if space._insert(p.flatten()):
                        added.append(p)
        fresh = added
    return space


def naive_power_traces(m: Mat, kmax: int) -> tuple:
    out, p = [], m
    for _ in range(kmax):
        out.append(p.trace())
        p = p * m
    return tuple(out)


@st.composite
def square_mats(draw, pool, n):
    """An n x n matrix over pool, often with some zero entries."""
    entry = st.sampled_from(pool)
    return Mat([[draw(entry) for _ in range(n)] for _ in range(n)])


@st.composite
def generator_lists(draw, pool, max_n):
    """One to three n x n generators, 2 <= n <= max_n; a drawn generator
    may repeat an earlier one or be a combination of two earlier ones."""
    n = draw(st.integers(2, max_n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if gens and draw(st.booleans()):
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            gens.append(a + b.scale(draw(st.sampled_from(pool))))
        else:
            gens.append(draw(square_mats(pool, n)))
    return gens


# Products of dense 3 x 3 matrices over Q(i)(q) swell to seconds per
# example, so the Q(i)(q) pool stays 2 x 2; the code is field-generic and
# the Q(i) pool covers 3 x 3.
SIZED_POOLS = pytest.mark.parametrize("pool, max_n", [(SCALAR_POOL, 2),
                                                      (GAUSS_POOL, 3)],
                                      ids=["scalar", "gauss"])
CLOSURE_PROPERTY = settings(derandomize=True, max_examples=12,
                            deadline=None)


class TestClosureProperties:
    @SIZED_POOLS
    @CLOSURE_PROPERTY
    @given(data=st.data())
    def test_closure_matches_pairwise_reference(self, pool, max_n, data):
        gens = data.draw(generator_lists(pool, max_n))
        before = list(gens)
        closure = subalgebra_closure(gens)
        assert gens == before
        assert closure == pairwise_closure(gens)
        basis = closure.basis
        assert all(closure.contains(x * y) for x in basis for y in basis)

    @SIZED_POOLS
    @CLOSURE_PROPERTY
    @given(data=st.data())
    def test_stored_rows_are_canonical(self, pool, max_n, data):
        # MatSpace equality compares these rows as dicts, so a stored zero
        # or a column outside range(n^2) would make equal spaces unequal
        gens = data.draw(generator_lists(pool, max_n))
        n = gens[0].n
        stored = [rref([_sparse(g.flatten()) for g in gens])[0],
                  MatSpace.span(gens)._vectors,
                  subalgebra_closure(gens)._vectors,
                  centralizer(gens)._vectors,
                  stacked_nullspace([(g, gens[0]) for g in gens])._vectors]
        for rows in stored:
            for row in rows:
                assert set(row) <= set(range(n * n))
                assert all(row.values())

    @SIZED_POOLS
    @PROPERTY
    @given(data=st.data())
    def test_power_traces_match_repeated_products(self, pool, max_n, data):
        n = data.draw(st.integers(1, max_n))
        m = data.draw(square_mats(pool, n))
        naive = naive_power_traces(m, 2 * n + 1)
        for k in range(1, 2 * n + 2):
            assert tuple(islice(_traces(m), k)) == naive[:k]

    def test_dependent_and_duplicate_generators_add_nothing(self):
        a = e(1, 2, 3) + e(2, 3, 3).scale(Q)
        b = e(3, 1, 3)
        gens = [a, a, a.scale(scalar(2)) + b, b]
        assert subalgebra_closure(gens) == subalgebra_closure([a, b])
        assert subalgebra_closure(gens) == pairwise_closure([a, b])

    def test_zero_generator(self):
        assert subalgebra_closure([Mat.zero(2)]).dim == 0
        assert subalgebra_closure([Mat.zero(2), e(1, 2, 2)]) == \
            MatSpace.span([e(1, 2, 2)])

    def test_nilpotent_unit(self):
        c = subalgebra_closure([e(1, 2, 3)])
        assert c.dim == 1
        assert c == MatSpace.span([e(1, 2, 3)])

    def test_stops_at_full_matrix_algebra(self, monkeypatch):
        products = []
        mul = Mat.__mul__

        def counting_mul(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(Mat, "__mul__", counting_mul)
        c = subalgebra_closure([e(1, 2, 2), e(2, 1, 2)])
        assert c.dim == 4
        # one round of 2 words x 2 generators reaches e11 and e22; no
        # second round runs once the dimension is n^2
        assert len(products) == 4


# ---------------------------------------------------------------------------
# every solve against the reference kernel of sandwich terms
# X -> sum(c * P X Q), the format that the pair equations X A = B X replaced

SOLVE_PROPERTY = settings(derandomize=True, max_examples=10, deadline=None)


@st.composite
def q_spinor_pairs(draw, pool, max_n):
    """(a, b, q) with a*b = q*b*a: q a nonzero pool element, a a drawn
    matrix or diag(q^k_1, ..., q^k_n), b a drawn combination of the
    reference basis of {x : a*x = q*x*a} (zero when that is 0)."""
    n = draw(st.integers(2, max_n))
    q = draw(st.sampled_from([x for x in pool if x]))
    if draw(st.booleans()):
        a = draw(square_mats(pool, n))
    else:
        a = Mat.diag(*(prod([q] * draw(st.integers(0, 2)), start=q.one())
                       for _ in range(n)))
    b = a.scale(q.zero())
    for m in sandwich_kernel(n, [[(a, None, q.one()), (None, a, -q)]]).basis:
        b = b + m.scale(draw(st.sampled_from(pool)))
    return a, b, q


class TestSolvesMatchSandwichReference:
    @SIZED_POOLS
    def test_stacked_nullspace(self, pool, max_n):
        dims, proved = [], []

        # one to three pairs, so a joint kernel of stacked systems
        @SOLVE_PROPERTY
        @given(data=st.data())
        def check(data):
            n = data.draw(st.integers(2, max_n))
            pairs = []
            for _ in range(data.draw(st.integers(1, 3))):
                a = data.draw(square_mats(pool, n))
                # b = a makes a centralizer, which is never 0
                b = a if data.draw(st.booleans()) \
                    else data.draw(square_mats(pool, n))
                pairs.append((a, b))
            space = stacked_nullspace(pairs)
            assert space == reference_kernel(pairs)
            dims.append(space.dim)
            if isinstance(pool[0], Scalar) and residue_rank(pairs) == n * n:
                assert space.dim == 0
                proved.append(n)

        check()
        # the draws reach the full-rank case, which the residue rank
        # answers for Scalar entries
        assert 0 in dims and max(dims) > 0
        assert bool(proved) == isinstance(pool[0], Scalar)

    @SIZED_POOLS
    @SOLVE_PROPERTY
    @given(data=st.data())
    def test_q_commutants_and_c_space(self, pool, max_n, data):
        a, b, q = data.draw(q_spinor_pairs(pool, max_n))
        n, one = a.n, type(q).one()
        assert q_commutant(a, q) == sandwich_kernel(
            n, [[(a, None, one), (None, a, -q)]])
        assert q_commutant(a, q, reverse=True) == sandwich_kernel(
            n, [[(None, a, one), (a, None, -q)]])
        for orientation, qq in (("default", q), ("flipped", q.inverse())):
            c_space, _ = admissibility(a, b, q, orientation)
            assert c_space == sandwich_kernel(n, [
                [(None, b, one), (b, None, -qq)],
                [(None, a, one), (a, None, -qq)]])

    @SIZED_POOLS
    @SOLVE_PROPERTY
    @given(data=st.data())
    def test_counit_invariance_space(self, pool, max_n, data):
        n = data.draw(st.integers(2, max_n))
        rep = GL2Rep(*(data.draw(square_mats(pool, n)) for _ in range(4)))
        assume(rep.block_matrix().is_invertible())
        action = build_action(rep)
        one = type(pool[0]).one()
        ops = []
        for i in range(2):
            for j in range(2):
                terms = [(action.m[i][k], action.mstar[k][j], one)
                         for k in range(2)]
                ops.append(terms + [(None, None, -one)] * (i == j))
        counit = counit_invariance_space(action)
        assert counit == sandwich_kernel(n, ops)
        # the report's route: v commutes with the four blocks of M, so with
        # every word in them, detq^-1 too where it exists
        gens = list(rep.generators())
        assert counit == centralizer(gens)
        detq = rep.detq()
        if detq.is_invertible():
            closure = subalgebra_closure(gens + [detq.inverse()])
            assert counit == centralizer(closure.basis)


# ---------------------------------------------------------------------------
# the Mat layer: computed results skip coercion, and products and operator
# rows visit only nonzero entries

def dense_product(x, y, zero) -> list:
    """x y of two square grids, every cell of every row and column."""
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), zero)
             for j in range(n)] for i in range(n)]


def operator_by_definition(n: int, a, b, zero, one) -> list:
    """The kernel rows of X -> X A - B X from its definition: column
    k*n + l is the image of the unit X = e_kl, flattened row-major."""
    cols = []
    for k, l in product(range(n), repeat=2):
        x = [[one if (r, c) == (k, l) else zero for c in range(n)]
             for r in range(n)]
        xa, bx = dense_product(x, a, zero), dense_product(b, x, zero)
        cols.append([xa[r][c] - bx[r][c] for r in range(n) for c in range(n)])
    return [_sparse(row) for row in zip(*cols)]


# residues as _residue_rows passes them: ints in [0, RESIDUE_P)
RESIDUES = (0, 1, 2, 7, RESIDUE_Q0, RESIDUE_P - 1)
GRID_POOLS = pytest.mark.parametrize("pool, zero, one", [
    (SCALAR_POOL, ZERO, ONE),
    (GAUSS_POOL, GaussRational(0), GaussRational(1)),
    (RESIDUES, 0, 1)], ids=["scalar", "gauss", "residue"])


@st.composite
def sparse_grids(draw, pool, zero, n):
    """An n x n grid over pool, mostly zero, with a drawn set of rows and
    a drawn set of columns all zero."""
    entry = st.sampled_from((zero,) * len(pool) + tuple(pool))
    rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [[zero if i in rows or j in cols else draw(entry)
             for j in range(n)] for i in range(n)]


class TestOperatorRows:
    @GRID_POOLS
    @PROPERTY
    @given(data=st.data())
    def test_sparse_grids_match_definition(self, pool, zero, one, data):
        n = data.draw(st.integers(1, 4))
        a = data.draw(sparse_grids(pool, zero, n))
        b = data.draw(sparse_grids(pool, zero, n))
        assert _operator_rows(n, a, b) == \
            operator_by_definition(n, a, b, zero, one)

    @GRID_POOLS
    @PROPERTY
    @given(data=st.data())
    def test_diagonals_that_cancel(self, pool, zero, one, data):
        # A[j][j] - B[i][i] at column i*n+j cancels wherever the two
        # diagonals share a value, and the cell is then absent
        n = data.draw(st.integers(1, 4))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=2,
                                    max_size=2))
        a, b = ([[data.draw(st.sampled_from(values)) if i == j else zero
                  for j in range(n)] for i in range(n)] for _ in range(2))
        rows = _operator_rows(n, a, b)
        assert rows == operator_by_definition(n, a, b, zero, one)
        for i, j in product(range(n), repeat=2):
            assert (i * n + j in rows[i * n + j]) == (a[j][j] != b[i][i])


def computed_mats(a: Mat, b: Mat, s) -> dict:
    """Every kind of result the Mat layer builds without coercion."""
    out = {"sum": a + b, "difference": a - b, "negation": -a,
           "product": a * b, "scale": a.scale(s),
           "basis": MatSpace.span([a, b, a * b]).basis}
    if a.is_invertible():
        out["inverse"] = a.inverse()
    if isinstance(s, Scalar):
        out["eval"] = a.eval(3)
    return out


class TestComputedMats:
    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_entries_keep_the_field(self, pool, data):
        n = data.draw(st.integers(1, 3))
        a = data.draw(square_mats(pool, n))
        b = data.draw(square_mats(pool, n))
        s = data.draw(st.sampled_from([x for x in pool if x]))
        for name, out in computed_mats(a, b, s).items():
            field = GaussRational if name == "eval" else type(pool[0])
            for m in out if name == "basis" else [out]:
                assert type(m.rows) is tuple and len(m.rows) == n
                assert all(type(row) is tuple and len(row) == n
                           and all(type(x) is field for x in row)
                           for row in m.rows), name
                coerced = Mat(m.rows)
                assert m == coerced and hash(m) == hash(coerced), name

    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_product_matches_dense_reference(self, pool, data):
        n = data.draw(st.integers(1, 3))
        zero = type(pool[0]).zero()
        a = Mat(data.draw(sparse_grids(pool, zero, n)))
        b = Mat(data.draw(sparse_grids(pool, zero, n)))
        assert a * b == Mat(dense_product(a.rows, b.rows, zero))

    def test_one_product_per_matching_pair_of_nonzeros(self, monkeypatch):
        a = Mat([[0, "q", 0, 0], [0, 0, 2, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        b = Mat([[1, 0, 0, 0], [0, 0, 0, "q"], [0, "i", 0, 3], [0, 0, 0, 0]])
        expected = dense_product(a.rows, b.rows, ZERO)
        products = []
        mul = Scalar.__mul__

        def counted(x, y):
            products.append(1)
            return mul(x, y)
        monkeypatch.setattr(Scalar, "__mul__", counted)
        out = a * b
        monkeypatch.undo()
        # a[0][1] meets one nonzero of row 1 of b, a[1][2] and a[2][2]
        # two each of row 2
        assert len(products) == 5
        assert out == Mat(expected)


# entry texts for from_json, the last three bad
TEXTS = ("0", "q", "1/q", "q+1", "2*i", "q^^2", "(q", "q/(q-q)")


class TestFromJson:
    def test_repeated_texts_are_parsed_once(self, monkeypatch):
        entries = [["q", "0", "q"], ["1/q", "q", "0"], ["0", "0", "1/q"]]
        parsed = []
        parse = qgl2.matrices.scalar

        def counted(text):
            parsed.append(text)
            return parse(text)
        monkeypatch.setattr(qgl2.matrices, "scalar", counted)
        table = {}
        m = Mat.from_json({"n": 3, "entries": entries}, table)
        # a second matrix that shares the table parses only its new texts
        second = [["1/q", "q^2"], ["q + 1", "q"]]
        m2 = Mat.from_json({"n": 2, "entries": second}, table)
        monkeypatch.undo()
        assert parsed == ["q", "0", "1/q", "q^2", "q + 1"]
        assert m == Mat([[scalar(x) for x in row] for row in entries])
        assert m2 == Mat(second)
        assert table == {x: scalar(x) for x in parsed}

    @PROPERTY
    @given(data=st.data())
    def test_same_matrix_or_error_as_entry_by_entry(self, data):
        # the reference Mat(entries) parses every entry in row-major
        # order, so its error is the first bad entry's
        n = data.draw(st.integers(1, 3))
        entries = [data.draw(st.lists(st.sampled_from(TEXTS), min_size=n,
                                      max_size=n)) for _ in range(n)]

        def outcome(build):
            try:
                return build()
            except (ValueError, ArithmeticError) as exc:
                return type(exc), str(exc)
        assert outcome(lambda: Mat.from_json({"n": n, "entries": entries})) \
            == outcome(lambda: Mat(entries))

    def test_first_bad_entry_in_row_major_order(self):
        entries = [["q", "(q"], ["q^^2", "(q"]]
        with pytest.raises(ValueError) as exc:
            Mat.from_json({"n": 2, "entries": entries})
        assert str(exc.value) == "parse error at position 2: ')' expected"
