"""Exact matrices, canonical subspaces, operator nullspaces, closures."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgl2.matrices import (Mat, MatSpace, centralizer, invertible_element,
                           power_traces, rref, span, stacked_nullspace,
                           subalgebra_closure)
from qgl2.scalars import GaussRational, I, ONE, Q, ZERO, scalar


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
        inv = one / pv
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

    def test_unit_products(self):
        assert e(1, 2) * e(2, 3) == e(1, 3)
        assert e(1, 2) * e(3, 4) == Mat.zero(4)

    def test_pow(self):
        n = e(1, 2, 3) + e(2, 3, 3)
        assert n ** 0 == Mat.identity(3)
        assert n ** 2 == e(1, 3, 3)
        assert n ** 3 == Mat.zero(3)

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

    def test_nullspace(self):
        ns = Mat([[1, 1], [1, 1]]).nullspace()
        assert len(ns) == 1
        # canonical kernel vector: free coordinate normalized to 1
        assert ns[0] == (scalar(-1), ONE)
        assert Mat.identity(2).nullspace() == []

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
        s = span([e(1, 1), e(1, 2), e(1, 1) + e(1, 2)])
        assert s.dim == 2

    def test_canonical_equality(self):
        a = span([e(1, 1) + e(1, 2), e(1, 2)])
        b = span([e(1, 1), e(1, 2)])
        assert a == b
        assert span([e(1, 1).scale(scalar(2))]) == span([e(1, 1)])

    def test_basis_normalized(self):
        s = span([e(2, 2).scale(Q)])
        assert s.basis == [e(2, 2)]

    def test_contains(self):
        s = span([e(1, 1), e(2, 2)])
        assert s.contains(e(1, 1) - e(2, 2).scale(Q))
        assert not s.contains(e(1, 2))

    def test_le(self):
        small = span([e(1, 1)])
        big = span([e(1, 1), e(1, 2)])
        assert small <= big
        assert not big <= small

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
        assert c == span([e(1, 1, 3), e(2, 2, 3), e(3, 3, 3)])

    def test_centralizer_of_identity(self):
        assert centralizer([Mat.identity(3)]).dim == 9

    def test_centralizer_requires_input(self):
        with pytest.raises(ValueError):
            centralizer([])

    def test_operator_nullspace_twist(self):
        # solutions of a*X = q*X*a for a = diag(q, 1) form span{e12}
        a = Mat.diag(Q, ONE)
        sol = stacked_nullspace(2, [[(a, None, ONE), (None, a, -Q)]])
        assert sol == span([Mat.unit(2, 0, 1)])

    def test_stacked_nullspace_intersection(self):
        d = Mat.diag(1, 2)
        ops = [
            [(d, None, ONE), (None, d, -ONE)],       # commute with d
            [(Mat.unit(2, 0, 0), None, ONE)],        # killed by e11 on the left
        ]
        sol = stacked_nullspace(2, ops)
        assert sol == span([Mat.unit(2, 1, 1)])


class TestSearchHelpers:
    def test_power_traces(self):
        m = Mat.diag(Q, ONE)
        assert power_traces(m, 3) == (Q + ONE, Q ** 2 + ONE, Q ** 3 + ONE)

    def test_invertible_element_from_singular_basis(self):
        # every basis element is singular but a combination is not
        s = span([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        x = invertible_element(s)
        assert x is not None
        assert x.is_invertible()
        assert s.contains(x)

    def test_invertible_element_none(self):
        assert invertible_element(span([Mat.unit(2, 0, 1)])) is None

    def test_invertible_element_deterministic(self):
        s = span([Mat.unit(3, 0, 1), Mat.unit(3, 1, 0), Mat.unit(3, 2, 2)])
        assert invertible_element(s) == invertible_element(s)


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
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


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
        shuffled = [rows[k] for k in order]
        before = [list(row) for row in shuffled]
        assert rref(shuffled) == gauss_jordan(rows)
        assert shuffled == before

    @POOLS
    @PROPERTY
    @given(data=st.data())
    def test_rref_is_reduced_echelon(self, pool, data):
        reduced, pivots = rref(data.draw(row_lists(pool)))
        one, zero = type(pool[0]).one(), type(pool[0]).zero()
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
        vectors = [list(v) for v in space._vectors]
        pivots = list(space._pivots)
        inside = space.contains(m)
        assert space._vectors == vectors and space._pivots == pivots
        assert inside == (MatSpace.span(mats + [m]).dim == space.dim)


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
    @PROPERTY
    @given(data=st.data())
    def test_power_traces_match_repeated_products(self, pool, max_n, data):
        n = data.draw(st.integers(1, max_n))
        m = data.draw(square_mats(pool, n))
        naive = naive_power_traces(m, 2 * n + 1)
        for k in range(1, 2 * n + 2):
            assert power_traces(m, k) == naive[:k]

    def test_dependent_and_duplicate_generators_add_nothing(self):
        a = e(1, 2, 3) + e(2, 3, 3).scale(Q)
        b = e(3, 1, 3)
        gens = [a, a, a.scale(scalar(2)) + b, b]
        assert subalgebra_closure(gens) == subalgebra_closure([a, b])
        assert subalgebra_closure(gens) == pairwise_closure([a, b])

    def test_zero_generator(self):
        assert subalgebra_closure([Mat.zero(2)]).dim == 0
        assert subalgebra_closure([Mat.zero(2), e(1, 2, 2)]) == \
            span([e(1, 2, 2)])

    def test_nilpotent_unit(self):
        c = subalgebra_closure([e(1, 2, 3)])
        assert c.dim == 1
        assert c == span([e(1, 2, 3)])

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
