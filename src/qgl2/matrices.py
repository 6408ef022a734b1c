"""Dense exact matrices over Q(i)(q) and spaces of them.

Everything here is field-generic: entries may be Scalar (the default) or
GaussRational (after numeric substitution), since both expose the same
arithmetic protocol.  Nothing is ever approximated.

One row-reduction kernel, _insert (with _reduce), makes every decision:
it adds a vector to a fully reduced echelon basis kept sorted by pivot
column.  rref feeds rows through it, so every rank, inverse and kernel
goes through it, and MatSpace keeps its basis in it under row-major
flattening, so every span, closure and membership test does too.  The
reduced echelon form is unique: equal subspaces always have identical
bases and space equality is structural.  No other code eliminates.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

from .scalars import ONE, Q, GaussRational, Scalar, parse_scalar, scalar


def _entry(value):
    if isinstance(value, (Scalar, GaussRational)):
        return value
    if isinstance(value, (int, Fraction)):
        return scalar(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"bad matrix entry of type {type(value).__name__}")


def _one_like(x):
    return type(x).one()


def _zero_like(x):
    return type(x).zero()


class Mat:
    """A square matrix with exact field entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(_entry(x) for x in row) for row in rows)
        n = len(self.rows)
        if n == 0 or any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square and nonempty")

    @property
    def n(self) -> int:
        return len(self.rows)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, one=None) -> "Mat":
        z = _zero_like(one) if one is not None else Scalar.zero()
        return cls([[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int, one=None) -> "Mat":
        one = one if one is not None else Scalar.one()
        z = _zero_like(one)
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Mat":
        """Matrix unit e_ij (0-based indices)."""
        rows = [[Scalar.zero()] * n for _ in range(n)]
        rows[i][j] = Scalar.one()
        return cls(rows)

    @classmethod
    def diag(cls, *values) -> "Mat":
        vals = [_entry(v) for v in values]
        z = _zero_like(vals[0])
        n = len(vals)
        return cls([[vals[i] if i == j else z for j in range(n)] for i in range(n)])

    # -- basic structure ----------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self) -> bool:
        return not any(any(x for x in row) for row in self.rows)

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat([[a + b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat([[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Mat):
            n = self.n
            if other.n != n:
                raise ValueError("dimension mismatch")
            z = _zero_like(self.rows[0][0])
            out = [[z] * n for _ in range(n)]
            brows = other.rows
            for i in range(n):
                arow = self.rows[i]
                orow = out[i]
                for k in range(n):
                    a = arow[k]
                    if not a:
                        continue
                    brow = brows[k]
                    for j in range(n):
                        b = brow[j]
                        if b:
                            orow[j] = orow[j] + a * b
            return Mat(out)
        s = Scalar._coerce(other) if not isinstance(other, GaussRational) else other
        if s is None:
            return NotImplemented
        return self.scale(s)

    def __rmul__(self, other):
        # scalar * Mat
        if isinstance(other, Mat):
            return NotImplemented
        s = Scalar._coerce(other) if not isinstance(other, GaussRational) else other
        if s is None:
            return NotImplemented
        return self.scale(s)

    def scale(self, s) -> "Mat":
        return Mat([[s * x for x in row] for row in self.rows])

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("nonnegative integer power expected")
        out = Mat.identity(self.n, one=_one_like(self.rows[0][0]))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def trace(self):
        t = _zero_like(self.rows[0][0])
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def flatten(self) -> list:
        return [x for row in self.rows for x in row]

    # -- elimination-backed queries ------------------------------------------

    def rank(self) -> int:
        return len(rref(self.rows)[1])

    def inverse(self) -> "Mat":
        n = self.n
        one = _one_like(self.rows[0][0])
        z = _zero_like(one)
        aug = [list(self.rows[i]) + [one if i == j else z for j in range(n)]
               for i in range(n)]
        reduced, pivots = rref(aug)
        if pivots != list(range(n)):
            raise ValueError("singular")
        return Mat([row[n:] for row in reduced])

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def is_nilpotent(self) -> bool:
        return (self ** self.n).is_zero()

    def nullspace(self) -> list:
        """Basis of {v : m v = 0}, as tuples of field elements."""
        return nullspace_rows(self.rows, self.n, _one_like(self.rows[0][0]))

    # -- substitution and I/O -------------------------------------------------

    def eval(self, q0) -> "Mat":
        """Exact numeric substitution q -> q0, entrywise."""
        return Mat([[x.eval(q0) for x in row] for row in self.rows])

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[str(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "Mat":
        if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
            raise ValueError("matrix object must have 'n' and 'entries'")
        n = obj["n"]
        entries = obj["entries"]
        if not isinstance(n, int) or len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("entries must form an n x n grid")
        if not all(isinstance(x, str) for row in entries for x in row):
            raise ValueError("matrix entries must be strings")
        return cls([[parse_scalar(x) for x in row] for row in entries])

    def __str__(self):
        cells = [[str(x) for x in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]"
                         for row in cells)

    def __repr__(self):
        return f"Mat({[[str(x) for x in row] for row in self.rows]})"


# ---------------------------------------------------------------------------
# the row-reduction kernel: a fully reduced echelon basis, kept as two
# parallel lists sorted by pivot column

def _reduce(vectors: list, pivots: list, vec) -> list:
    """vec minus its components along the basis, as a new list.  The
    basis is fully reduced, so the coefficient on each basis vector is
    the entry of vec in that vector's pivot column."""
    vec = list(vec)
    for piv, basis_vec in zip(pivots, vectors):
        c = vec[piv]
        if c:
            vec = [x - c * y if y else x for x, y in zip(vec, basis_vec)]
    return vec


def _insert(vectors: list, pivots: list, vec) -> bool:
    """Add vec to the basis if it is independent, keeping the basis fully
    reduced and sorted.  Returns True when the dimension grew."""
    vec = _reduce(vectors, pivots, vec)
    lead = next((k for k, x in enumerate(vec) if x), None)
    if lead is None:
        return False
    inv = _one_like(vec[lead]) / vec[lead]
    vec = [inv * x if x else x for x in vec]
    for i, basis_vec in enumerate(vectors):
        c = basis_vec[lead]
        if c:
            vectors[i] = [x - c * y if y else x
                          for x, y in zip(basis_vec, vec)]
    at = bisect_left(pivots, lead)
    pivots.insert(at, lead)
    vectors.insert(at, vec)
    return True


def rref(rows) -> tuple:
    """Reduced row echelon form of a rectangular row list, which is left
    unchanged.  Returns (nonzero reduced rows, pivot columns)."""
    vectors, pivots = [], []
    for row in rows:
        _insert(vectors, pivots, row)
    return vectors, pivots


def nullspace_rows(rows: list, ncols: int, one) -> list:
    """Basis of the right kernel of the row list, canonical order."""
    reduced, pivots = rref(rows)
    z = _zero_like(one)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [z] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# subspaces of n x n matrices

class MatSpace:
    """A subspace of n x n matrices with a canonical reduced echelon basis."""

    __slots__ = ("n", "_pivots", "_vectors")

    def __init__(self, n: int):
        self.n = n
        self._pivots = []
        self._vectors = []

    @classmethod
    def span(cls, mats: Iterable[Mat], n: Optional[int] = None) -> "MatSpace":
        mats = list(mats)
        if n is None:
            if not mats:
                raise ValueError("ambient dimension required for an empty span")
            n = mats[0].n
        space = cls(n)
        for m in mats:
            space._insert(m.flatten())
        return space

    def _insert(self, vec) -> bool:
        """Add vec to the space; True when the dimension grew."""
        return _insert(self._vectors, self._pivots, vec)

    @property
    def dim(self) -> int:
        return len(self._vectors)

    @property
    def basis(self) -> list:
        n = self.n
        return [Mat([vec[i * n:(i + 1) * n] for i in range(n)])
                for vec in self._vectors]

    def contains(self, m: Mat) -> bool:
        if m.n != self.n:
            return False
        return not any(_reduce(self._vectors, self._pivots, m.flatten()))

    def __le__(self, other: "MatSpace") -> bool:
        return all(other.contains(b) for b in self.basis)

    def __eq__(self, other):
        if not isinstance(other, MatSpace):
            return NotImplemented
        return (self.n == other.n and self._pivots == other._pivots
                and self._vectors == other._vectors)

    def __hash__(self):
        return hash((self.n, tuple(self._pivots)))

    def __repr__(self):
        return f"MatSpace(n={self.n}, dim={self.dim})"


def span(mats: Iterable[Mat], n: Optional[int] = None) -> MatSpace:
    return MatSpace.span(mats, n)


def subalgebra_closure(generators: Iterable[Mat]) -> MatSpace:
    """Smallest subspace containing the generators and closed under the
    matrix product (non-unital: the identity enters only if generated).

    That algebra is the span of all nonempty words in the generators,
    which is the smallest subspace containing the generators and closed
    under right multiplication by each of them.  So only words times
    generators are formed: the independent generators seed the space and
    the first round's words, and each round multiplies the words that
    raised the dimension in the previous one by every kept generator.  A
    dependent generator, or a dependent product w * g, adds nothing: it
    is a combination of kept words, and so are its products with the
    generators, by linearity.  The word matrices are multiplied, never
    the reduced basis, whose entries are dense rational functions.  The
    ambient dimension n^2 caps the iteration.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("closure of an empty generating set")
    space = MatSpace(gens[0].n)
    multipliers = [g for g in gens if space._insert(g.flatten())]
    fresh = multipliers
    while fresh and space.dim < space.n * space.n:
        added = []
        for w in fresh:
            for g in multipliers:
                p = w * g
                if space._insert(p.flatten()):
                    added.append(p)
        fresh = added
    return space


def _operator_rows(n: int, terms: list, z) -> list:
    """Vectorize X -> sum(c * P X Q) as an n^2 x n^2 row list.

    Each term is (P, Q, c) with P, Q an n x n Mat or None for the identity.
    Row-major convention: the (i, j) entry of P X Q picks up coefficient
    P[i][k] * Q[l][j] on X[k][l], so row i*n+j, column k*n+l.
    """
    size = n * n
    rows = [[z] * size for _ in range(size)]
    for p, q, c in terms:
        for i in range(n):
            for k in range(n):
                if p is None:
                    if i != k:
                        continue
                    cp = c
                else:
                    pik = p.rows[i][k]
                    if not pik:
                        continue
                    cp = c * pik
                for l in range(n):
                    if q is None:
                        rows[i * n + l][k * n + l] = rows[i * n + l][k * n + l] + cp
                    else:
                        qrow = q.rows[l]
                        col = k * n + l
                        for j in range(n):
                            if qrow[j]:
                                rows[i * n + j][col] = rows[i * n + j][col] + cp * qrow[j]
    return rows


def stacked_nullspace(n: int, operators: list) -> MatSpace:
    """Joint kernel of several vectorized X -> sum(c * P X Q) operators,
    each given as its term list; the coefficients fix the field."""
    one = _one_like(operators[0][0][2])
    z = _zero_like(one)
    rows = []
    for terms in operators:
        rows.extend(_operator_rows(n, terms, z))
    space = MatSpace(n)
    for v in nullspace_rows(rows, n * n, one):
        space._insert(v)
    return space


def centralizer(s) -> MatSpace:
    """All X with XG = GX for every G in s (a MatSpace or list of Mat)."""
    if isinstance(s, MatSpace):
        gens = s.basis
        n = s.n
    else:
        gens = list(s)
        if not gens:
            raise ValueError("centralizer of an empty set")
        n = gens[0].n
    if not gens:
        # centralizer of the zero space is everything
        return MatSpace.span([Mat.unit(n, i, j) for i in range(n) for j in range(n)])
    one = _one_like(gens[0].rows[0][0])
    return stacked_nullspace(
        n, [[(None, g, one), (g, None, -one)] for g in gens])


def power_traces(m: Mat, kmax: int) -> tuple:
    """(tr(m), tr(m^2), ..., tr(m^kmax)) computed exactly.

    Only the powers m, ..., m^h with h = ceil(kmax / 2) are formed; each
    higher trace is tr(m^h m^b) = sum_ik (m^h)_ik (m^b)_ki with b <= h,
    which reads n^2 products instead of forming the full power.
    """
    h = (kmax + 1) // 2
    powers = [m]
    while len(powers) < h:
        powers.append(powers[-1] * m)
    out = [p.trace() for p in powers[:kmax]]
    top = powers[-1].rows
    for b in powers[:kmax - h]:
        t = _zero_like(top[0][0])
        for i, row in enumerate(top):
            for k, a in enumerate(row):
                if a:
                    c = b.rows[k][i]
                    if c:
                        t = t + a * c
        out.append(t)
    return tuple(out)


# seed and length of the random stage of invertible_element
INVERTIBLE_SEED = 20260816
INVERTIBLE_TRIES = 60

# _scaled_conjugacy searches the monomial scalings q^k, |k| <= MAX_EXPONENT
MAX_EXPONENT = 4


def invertible_element(space: MatSpace) -> Optional[Mat]:
    """Search a MatSpace for an invertible member.

    Deterministic: basis elements first, then geometric combinations of
    the basis, then INVERTIBLE_TRIES random integer combinations seeded
    with INVERTIBLE_SEED.  Every candidate is verified exactly, so a
    returned matrix is guaranteed invertible; None only means the search
    failed, not that no invertible member exists (for the spaces arising
    here the basis /geometric stages already find one whenever the space
    contains any).
    """
    basis = space.basis
    if not basis:
        return None
    for m in basis:
        if m.is_invertible():
            return m
    if len(basis) > 1:
        for t in (2, 3, 5, 7):
            combo = basis[0]
            w = 1
            for m in basis[1:]:
                w *= t
                combo = combo + m.scale(w)
            if combo.is_invertible():
                return combo
        rng = random.Random(INVERTIBLE_SEED)
        for _ in range(INVERTIBLE_TRIES):
            combo = None
            for m in basis:
                c = rng.randint(-9, 9)
                if c:
                    term = m.scale(c)
                    combo = term if combo is None else combo + term
            if combo is not None and combo.is_invertible():
                return combo
    return None


def _scaled_conjugacy(equations: list, filters: list) -> Optional[tuple]:
    """Search for (u, alpha_0, alpha_1, ...) with g2 = u g1 u^-1 alpha_g
    for every (g1, g2, g) in equations, each alpha_g a monomial q^k with
    |k| <= MAX_EXPONENT.

    Each filter (m1, m2, weights) is the necessary condition
    tr(m2^j) = alpha^j tr(m1^j), j = 1..n, with alpha the product of
    alpha_g^weights[g]: conjugation preserves power traces.  It is
    checked before any linear solve, at most once per exponent sum.
    Exponent tuples run in itertools.product order (alpha_0 outermost).
    Returns an exactly verified witness, or None when no witness exists
    within those scalings.
    """
    n = equations[0][0].n
    groups = 1 + max(g for _, _, g in equations)
    traces = [(power_traces(m1, n), power_traces(m2, n))
              for m1, m2, _ in filters]
    verdicts = {}

    def survives(f: int, s: int) -> bool:
        if (f, s) not in verdicts:
            alpha = Q ** s
            p = ONE
            ok = True
            for x1, x2 in zip(*traces[f]):
                p = p * alpha
                if x2 != p * x1:
                    ok = False
                    break
            verdicts[(f, s)] = ok
        return verdicts[(f, s)]

    exponents = range(-MAX_EXPONENT, MAX_EXPONENT + 1)
    for ks in product(exponents, repeat=groups):
        if not all(survives(f, sum(w * k for w, k in zip(weights, ks)))
                   for f, (_, _, weights) in enumerate(filters)):
            continue
        alphas = tuple(Q ** k for k in ks)
        u = invertible_element(stacked_nullspace(n, [
            [(None, g1.scale(alphas[g]), ONE), (g2, None, -ONE)]
            for g1, g2, g in equations]))
        if u is None:
            continue
        ui = u.inverse()
        if all(u * g1 * ui * alphas[g] == g2 for g1, g2, g in equations):
            return (u,) + alphas
    return None
