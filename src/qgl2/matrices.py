"""Exact matrices over Q(i)(q) and spaces of them.

Everything here is field-generic: entries may be Scalar (the default) or
GaussRational (after numeric substitution), since both expose the same
arithmetic protocol.  Nothing is ever approximated.  Decisions between
tuples of matrices, conjugacy among them, live in conjugacy.py.

A Mat keeps every entry, zeros too, in dense row tuples (Mat.rows), but
its costly operations visit only the nonzero ones: a product lists the
nonzeros of each row of its right factor once and forms one product per
matching pair of nonzeros; the operator rows of X -> X A - B X read the
nonzeros of A's columns and of B's rows once; eval substitutes, and the
residue rows map, nonzero entries only; from_json parses each distinct
entry text once per text table, which a command's matrices share.
Public Mat(...) coerces ints, Fractions and strings and checks the
shape.  Every result whose entries are already field elements (sums,
products, scalings, inverses, eval, from_json, MatSpace bases) is built
by _mat, which does neither: it is for field entries only.

One row-reduction kernel, _insert (with _reduce), makes every exact
decision: it adds a row to a fully reduced echelon basis kept sorted by
pivot column.  A kernel row is a dict from a column to its nonzero
entry: a zero entry is absent, and an entry that cancels to zero is
deleted, so equal rows are equal dicts.  Each basis row is 1 at its own
pivot and absent at every other pivot and before its pivot.  The kernel
visits only the entries a row holds, and writes the ones and zeros this
fixes instead of computing them: it never forms a product at a pivot.
rref feeds rows through it, so every rank, inverse and kernel over the
entry field goes through it, exact or sampled.  MatSpace keeps its basis
in that form under row-major flattening: a kernel's is read off one
rref, every other one (span, closure) is built by _insert, and
membership is one _reduce.  The form is unique: equal subspaces always
have identical bases and space equality is structural.

The one other elimination is over F_p (residues._residue_rref):
stacked_nullspace reads a kernel off residue points, lifts it to Q(i)(q)
and accepts it only after one exact check (its docstring has the
proof); where that abstains, the exact elimination answers.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, count, product
from typing import Iterable, Optional

from .residues import (RESIDUE_Q0, _fold, _lift, _moduli, _residue_at,
                       _residue_rref, _residues, _thiele)
from .scalars import (GR_ZERO, MAX_N, ONE, ZERO, GaussRational, Scalar,
                      _power, _reduced, scalar)


def _entry(value):
    if isinstance(value, (Scalar, GaussRational)):
        return value
    return scalar(value)


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
    def zero(cls, n: int) -> "Mat":
        return cls([[ZERO] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int, one=ONE) -> "Mat":
        z = type(one).zero()
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Mat":
        """Matrix unit e_ij (0-based indices)."""
        rows = [[ZERO] * n for _ in range(n)]
        rows[i][j] = ONE
        return cls(rows)

    @classmethod
    def diag(cls, *values) -> "Mat":
        vals = [_entry(v) for v in values]
        z = type(vals[0]).zero()
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
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return _mat(tuple(tuple(a + b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return _mat(tuple(tuple(a - b for a, b in zip(ra, rb))
                          for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        return _mat(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other):
        """Each nonzero a = self[i][k] meets only the nonzeros of row k of
        other, listed once: one product per matching pair of nonzeros."""
        if not isinstance(other, Mat):
            return NotImplemented
        n = self.n
        if other.n != n:
            raise ValueError("dimension mismatch")
        z = type(self.rows[0][0]).zero()
        brows = [[(j, b) for j, b in enumerate(row) if b is not z and b]
                 for row in other.rows]
        out = []
        for arow in self.rows:
            orow = [z] * n
            for a, brow in zip(arow, brows):
                if a is not z and a:
                    for j, b in brow:
                        orow[j] = orow[j] + a * b
            out.append(tuple(orow))
        return _mat(tuple(out))

    def scale(self, s) -> "Mat":
        return _mat(tuple(tuple(s * x for x in row) for row in self.rows))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("nonnegative integer power expected")
        return _power(self, k,
                      Mat.identity(self.n, one=type(self.rows[0][0]).one()))

    def trace(self):
        t = type(self.rows[0][0]).zero()
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def flatten(self) -> list:
        return [x for row in self.rows for x in row]

    # -- elimination-backed queries ------------------------------------------

    def rank(self) -> int:
        return len(rref(list(map(_sparse, self.rows)))[1])

    def inverse(self) -> "Mat":
        n = self.n
        one = type(self.rows[0][0]).one()
        aug = [{**_sparse(row), n + i: one} for i, row in enumerate(self.rows)]
        reduced, pivots = rref(aug)
        if pivots != list(range(n)):
            raise ValueError("singular")
        zero = one.zero()
        return _mat(tuple(tuple(row.get(n + j, zero) for j in range(n))
                          for row in reduced))

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def is_nilpotent(self) -> bool:
        return (self ** self.n).is_zero()

    # -- substitution and I/O -------------------------------------------------

    def eval(self, q0) -> "Mat":
        """Exact numeric substitution q -> q0, entrywise; a zero entry
        maps to the zero of the value field without a substitution."""
        return _mat(tuple(tuple(x.eval(q0) if x else GR_ZERO for x in row)
                          for row in self.rows))

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[str(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict, parsed: Optional[dict] = None) -> "Mat":
        """The matrix of {"n": n, "entries": n x n expression strings}.  n
        is at most MAX_N: a commutant solves for n^2 unknowns from n^4
        operator cells, so a large n runs out of memory, not into an
        error.  parsed, a dict from entry text to Scalar that the matrices
        of one command share, gains each new text; a text in it is not
        parsed again."""
        if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
            raise ValueError("matrix object must have 'n' and 'entries'")
        n = obj["n"]
        entries = obj["entries"]
        # type, not isinstance: a JSON true is a bool, and so an int
        if type(n) is int and n > MAX_N:
            raise ValueError(f"matrix size n is above {MAX_N}")
        if type(n) is not int or not isinstance(entries, list) \
                or len(entries) != n \
                or not all(isinstance(r, list) and len(r) == n
                           for r in entries):
            raise ValueError("entries must form an n x n grid")
        if not entries:
            raise ValueError("matrix must be square and nonempty")
        if not all(isinstance(x, str) for row in entries for x in row):
            raise ValueError("matrix entries must be strings")
        parsed = {} if parsed is None else parsed
        # each new text is parsed once, in row-major order of first
        # appearance, so the first bad entry raises first
        parsed.update((x, scalar(x)) for x in dict.fromkeys(
            x for row in entries for x in row) if x not in parsed)
        return _mat(tuple(tuple(parsed[x] for x in row) for row in entries))

    def __str__(self):
        cells = [[str(x) for x in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]"
                         for row in cells)

    def __repr__(self):
        return f"Mat({[[str(x) for x in row] for row in self.rows]})"


_set_rows = Mat.rows.__set__


def _mat(rows: tuple) -> Mat:
    """The Mat of rows, a nonempty square tuple of row tuples whose
    entries are already field elements (all Scalar or all GaussRational):
    it writes the slot through its descriptor, with no coercion and no
    check.  Public Mat(...) coerces ints, Fractions and strings."""
    m = object.__new__(Mat)
    _set_rows(m, rows)
    return m


# ---------------------------------------------------------------------------
# the row-reduction kernel: a fully reduced echelon basis of sparse rows,
# kept as two parallel lists sorted by pivot column

def _sparse(row) -> dict:
    """The kernel row of a dense row: its nonzero entries by column."""
    return {k: x for k, x in enumerate(row) if x}


def _subtract(vec: dict, c, row: dict, skip: int) -> None:
    """vec -= c * row in place, over the columns of row other than skip.
    An entry that cancels is deleted, so vec holds no zero."""
    for k, y in row.items():
        if k != skip:
            x = vec.get(k)
            if x is None:
                vec[k] = -(c * y)
            else:
                x = x - c * y
                if x:
                    vec[k] = x
                else:
                    del vec[k]


def _reduce(vectors: list, pivots: list, vec: dict) -> dict:
    """vec minus its components along the basis, as a new row.  The basis
    is fully reduced, so the coefficient c on each basis row is the entry
    of vec at that row's pivot.  A basis row is absent at every other
    pivot, so no update changes a coefficient still to be read.  c is
    popped, since c - c * 1 is zero, and only the other entries the basis
    row holds are updated: no product is formed at a pivot."""
    vec = dict(vec)
    for piv, basis_vec in zip(pivots, vectors):
        c = vec.pop(piv, None)
        if c is not None:
            _subtract(vec, c, basis_vec, piv)
    return vec


def _insert(vectors: list, pivots: list, vec: dict) -> bool:
    """Add vec to the basis if it is independent, keeping the basis fully
    reduced and sorted.  Returns True when the dimension grew.

    The reduced vec holds no pivot column, and its lead is its least
    column.  It is normalised by writing an exact one at the lead and
    scaling its other entries.  Only basis rows with a pivot before the
    lead can hold the lead column; each of those that does has that entry
    popped and is updated in place by the new row's other entries."""
    vec = _reduce(vectors, pivots, vec)
    if not vec:
        return False
    lead = min(vec)
    inv = vec.pop(lead).inverse()
    for k, x in vec.items():
        vec[k] = inv * x
    at = bisect_left(pivots, lead)
    for basis_vec in vectors[:at]:
        c = basis_vec.pop(lead, None)
        if c is not None:
            _subtract(basis_vec, c, vec, lead)
    vec[lead] = inv.one()
    pivots.insert(at, lead)
    vectors.insert(at, vec)
    return True


def rref(rows) -> tuple:
    """Reduced row echelon form of a list of kernel rows (see _sparse),
    which is left unchanged.  Returns (nonzero reduced rows, pivot
    columns)."""
    vectors, pivots = [], []
    for row in rows:
        _insert(vectors, pivots, row)
    return vectors, pivots


# ---------------------------------------------------------------------------
# subspaces of n x n matrices

class MatSpace:
    """A subspace of n x n matrices with a canonical reduced echelon basis,
    kept as kernel rows of the row-major flattened matrices: two spaces
    are equal exactly when their rows are equal dicts."""

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
        """Add the dense flattened matrix vec to the space; True when the
        dimension grew."""
        if len(vec) != self.n * self.n:
            raise ValueError("dimension mismatch")
        return _insert(self._vectors, self._pivots, _sparse(vec))

    @property
    def dim(self) -> int:
        return len(self._vectors)

    @property
    def basis(self) -> list:
        n = self.n
        out = []
        for piv, vec in zip(self._pivots, self._vectors):
            zero = vec[piv].zero()
            out.append(_mat(tuple(tuple(vec.get(i * n + j, zero)
                                        for j in range(n))
                                  for i in range(n))))
        return out

    def contains(self, m: Mat) -> bool:
        if m.n != self.n:
            return False
        return not _reduce(self._vectors, self._pivots,
                           _sparse(m.flatten()))

    def __eq__(self, other):
        if not isinstance(other, MatSpace):
            return NotImplemented
        return (self.n == other.n and self._pivots == other._pivots
                and self._vectors == other._vectors)

    def __hash__(self):
        return hash((self.n, tuple(self._pivots)))

    def __repr__(self):
        return f"MatSpace(n={self.n}, dim={self.dim})"


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


def _operator_rows(n: int, a, b) -> list:
    """Vectorize X -> X A - B X as n^2 kernel rows over n^2 columns.  a
    and b are the row grids of A and B: Mat.rows, or their residues as
    ints.

    Row-major convention: entry (i, j) of X A is sum_k X[i][k] A[k][j]
    and entry (i, j) of B X is sum_k B[i][k] X[k][j], so row i*n+j picks
    up A[k][j] at column i*n+k and -B[i][k] at column k*n+j.  The two
    meet only at column i*n+j, where A[j][j] - B[i][i] may cancel.  The
    nonzeros of each column of A and of each row of B are listed once,
    and each row visits only those of column j and of row i.
    """
    acols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*a)]
    brows = [[(k, y) for k, y in enumerate(row) if y] for row in b]
    rows = []
    for i, j in product(range(n), repeat=2):
        row = {i * n + k: x for k, x in acols[j]}
        for k, y in brows[i]:
            c = k * n + j
            x = row[c] - y if c in row else -y
            if x:
                row[c] = x
            else:
                del row[c]
        rows.append(row)
    return rows


def _residue_rows(pairs: list, n: int, p: int, r: int):
    """Yields (t, the stacked operator rows of pairs mapped to F_p at
    i -> r and q -> t) for t = RESIDUE_Q0, RESIDUE_Q0 + 1, ..., up to the
    first pole.  The coefficient residues of each entry are read once;
    each row entry is a residue or a difference of two."""
    cells = [[[(_residues(x.num, p, r), _residues(x.den, p, r)) if x else 0
               for x in row] for row in m.rows]
             for pair in pairs for m in pair]
    for t in count(RESIDUE_Q0):
        images = [[[c and _residue_at(c, t, p) for c in row] for row in grid]
                  for grid in cells]
        if any(None in row for grid in images for row in grid):
            return
        yield t, [row for a, b in zip(images[::2], images[1::2])
                  for row in _operator_rows(n, a, b)]


def _residue_fits(pairs: list, n: int, p: int, r: int):
    """Yields (form, coefficients, settled) of the reduced kernel basis of
    pairs over F_p at i -> r: at each point of _residue_rows its entry at
    each cell (pc, f), pc a pivot column after the free column f, is fed
    to a Thiele fraction, folded into P/Q where it is yielded.  form holds
    the free columns and each (cell, len(P), len(Q)), coefficients all
    of theirs.  It yields at the first point, and once every fraction
    takes the values of one point, settled; a pole, a change of pivots
    or a fraction that degenerates ends it."""
    columns = range(n * n - 1, -1, -1)
    for used, (t, rows) in enumerate(_residue_rows(pairs, n, p, r), 1):
        if used == 1:
            basis, picked = _residue_rref(rows, columns, p)
            free = tuple(f for f in range(n * n) if f not in basis)
            fits = {(pc, f): ([], []) for f in free for pc in basis if pc > f}
        else:
            at_t = _residue_rref([rows[k] for k in picked], columns, p)[0]
            if at_t.keys() != basis.keys():
                return
            basis = at_t
        done = [_thiele(*fit, t, -basis[pc].get(f, 0) % p, p)
                for (pc, f), fit in fits.items()]
        if None in done:
            return
        if used == 1 or all(done):
            folded = [_fold(*fit, p) for fit in fits.values()]
            if None in folded:
                return
            yield ((free, tuple((cell, len(P), len(Q))
                                for cell, (P, Q) in zip(fits, folded))),
                   [c for pq in folded for part in pq for c in part],
                   all(done))
            if all(done):
                return


def _residue_kernel(pairs: list, n: int) -> Optional[MatSpace]:
    """The joint kernel of pairs read off residue points and proved, or
    None where that abstains (see stacked_nullspace): the first candidate
    of _kernel_candidates with X A = B X for each X of its basis."""
    for (free, shape), h in _kernel_candidates(pairs, n):
        values = iter([_reduced(*c) for c in h])
        entries = {cell: Scalar([next(values) for _ in range(dp)],
                                [next(values) for _ in range(dq)])
                   for cell, dp, dq in shape if dp}
        space = _kernel_space(n, list(free), entries, ONE)
        basis = space.basis
        if all(x * a == b * x for a, b in pairs for x in basis):
            return space
    return None


def _kernel_candidates(pairs: list, n: int):
    """(form, h) of each candidate of _residue_kernel, h a triple (x, y,
    d) for each coefficient (x + y*i)/d of the fractions of form: the
    first point's fits at RESIDUE_P, i -> RESIDUE_I, read as real, then
    the settled fits lifted by residues._lift over the primes of _moduli
    at i -> r and, unless the input is real (read at the first modulus,
    after its guess), i -> p - r.  It ends where the fits do not settle
    or settle to another form than the first modulus's, and on a lifted
    h equal to the one before: a wrong pivot at RESIDUE_Q0 itself gives
    the same wrong h at every prime."""
    first = tried = None
    combined, m = [], 1
    for p, r in _moduli():
        images = []
        for s in (r, p - r):
            settled = False
            for form, coefficients, settled in _residue_fits(pairs, n, p, s):
                if m == 1 and s == r and not settled:
                    h = _lift(coefficients, coefficients, p, r, [], 1)[2]
                    if h is not None:
                        yield form, h
            if not settled or first not in (None, form):
                return
            first = form
            images.append(coefficients)
            real = real if m > 1 else not any(
                c.b for pair in pairs for a in pair for row in a.rows
                for x in row for c in x.num + x.den)
            if real:
                break
        combined, m, h = _lift(images[0], images[-1], p, r, combined, m)
        if h is not None:
            if h == tried:
                return
            tried = h
            yield first, h


def _kernel_space(n: int, free: list, entries: dict, one) -> MatSpace:
    """The space whose reduced echelon basis has one vector per free
    column f, in increasing order: one at f and x at each pivot column pc
    with a nonzero x = entries[pc, f]."""
    vectors = {f: {f: one} for f in free}
    for (pc, f), x in entries.items():
        if x:
            vectors[f][pc] = x
    space = MatSpace(n)
    space._pivots = free
    space._vectors = list(vectors.values())
    return space


def stacked_nullspace(pairs: list) -> MatSpace:
    """The space of all X with X A = B X for every (A, B) in the nonempty
    list pairs, as one joint kernel.  The first pair fixes n and the
    field; every A and B must be n x n (ValueError "dimension mismatch"
    otherwise).

    Scalar entries are first solved at residue points (_residue_kernel),
    except a centralizer (A = B in every pair): its kernel always holds
    the identity, and the residue path showed no clear gain there.  The
    residue map at i -> r and q -> t (residues._residue_at) is a ring
    homomorphism on the scalars with no pole there, and each operator
    entry is a sum of entries of A and B; so with no pole, each minor of
    the operator maps to the same minor of the residue rows.  Let those
    have rank r at t = RESIDUE_Q0: a nonzero r x r minor lifts, so the
    kernel has dimension at most N - r, N = n^2, and at r = N it is {0}.
    Otherwise the r rows of that minor are reduced at t, t + 1, ...; by
    Cramer's rule each entry of their reduced kernel basis is one ratio R
    of r x r minors, of degrees at most some B, fed to a Thiele fraction.
    Two fractions of degrees at most (B, B) that agree at 2B + 1 points
    are equal, so the fraction is R after at most 2B + 1 terms and then
    takes every later value (Cabay 1971).  _kernel_candidates lifts such
    fractions over the primes of residues._moduli, at both embeddings of
    i unless the input is real.  A candidate is accepted only when
      1. it has N - r vectors, one per free column at RESIDUE_Q0;
      2. it is in reduced echelon form: the vector of free column f is 1
         at f and nonzero elsewhere only at pivot columns after f;
      3. every X in it has X A = B X for every pair, by Mat products.
    By 2 and 3 it holds N - r independent solutions, so by 1 it spans the
    kernel, and a space has one reduced echelon basis: the bytes are the
    exact path's.  Where no candidate is accepted, the one rref below
    answers, as it does for GaussRational entries.

    That rref reduces the rows once, sparsest first (a stable sort by
    their length, which for a kernel row is its nonzero count; the reduced
    echelon form does not depend on the row order, and fewer nonzeros
    mean fewer updates), with their N = n^2 columns reversed.  The vector
    of a free reversed column f' is 1 there and -R[r][f'] at each pivot
    p'_r, nonzero only for p'_r < f'.  Mapped back by c = N-1-c', it is 1
    at f = N-1-f', 0 at every other free column, nonzero elsewhere only at
    pivots after f: sorted by f, the unique reduced echelon basis."""
    if not pairs:
        raise ValueError("nullspace of an empty list")
    n = pairs[0][0].n
    if any(m.n != n for pair in pairs for m in pair):
        raise ValueError("dimension mismatch")
    one = type(pairs[0][0].rows[0][0]).one()
    if isinstance(one, Scalar) and any(a != b for a, b in pairs):
        space = _residue_kernel(pairs, n)
        if space is not None:
            return space
    last = n * n - 1
    rows = [{last - c: x for c, x in row.items()} for a, b in pairs
            for row in _operator_rows(n, a.rows, b.rows)]
    rows.sort(key=len)
    reduced, pivots = rref(rows)
    free = [f for f in range(n * n) if last - f not in pivots]
    return _kernel_space(n, free, {(last - pc, last - c): -x
                                   for row, pc in zip(reduced, pivots)
                                   for c, x in row.items() if c != pc}, one)


def centralizer(mats: list) -> MatSpace:
    """All X with XG = GX for every G in the nonempty list mats."""
    return stacked_nullspace([(g, g) for g in mats])


def _coefficients(basis: list, n: int):
    """The coefficient vectors c that invertible_element tries, lazily:
    the basis elements, then c_j = t^(j-1) for t = 2, 3, 5, 7, then (once
    no vector is in the kernel of every B_j, or of every transpose) the
    points of N^d with sum n and at least two nonzero parts, most nonzero
    parts first, supports in lexicographic order."""
    d = len(basis)
    for i in range(d):
        yield [int(j == i) for j in range(d)]
    if d < 2:
        return
    for t in (2, 3, 5, 7):
        yield [t ** j for j in range(d)]
    if len(rref([_sparse(row) for b in basis for row in b.rows])[1]) < n \
            or len(rref([_sparse(col) for b in basis
                         for col in zip(*b.rows)])[1]) < n:
        return
    for k in range(min(n, d), 1, -1):
        for support in combinations(range(d), k):
            for cuts in combinations(range(1, n), k - 1):
                c = [0] * d
                for j, lo, hi in zip(support, (0,) + cuts, cuts + (n,)):
                    c[j] = hi - lo
                yield c


def invertible_element(space: MatSpace) -> Optional[Mat]:
    """An invertible member of a MatSpace, or None when it has none.

    Candidates sum(c_j B_j) over the basis B_1..B_d come from
    _coefficients and are verified exactly, so a returned matrix is
    invertible.  None is proved: det(sum t_j B_j) is zero or a form of
    degree n in t, and the C(n+d-1, n) points of N^d with sum n (the
    basis stage gives the d points n e_j) are unisolvent for such forms,
    by the principal lattice of the simplex after dehomogenizing; so if
    all of them are singular, every member is.  A vector in the kernel of
    every B_j, or of every transpose, proves it at once.  Cost: at most
    C(n+d-1, n) + 4 ranks and two eliminations of d*n rows; the grid is
    exponential in n and d on a space without such a vector.
    """
    basis = space.basis
    gauss = basis and isinstance(basis[0][0, 0], GaussRational)
    for coeffs in _coefficients(basis, space.n):
        combo = None
        for c, m in zip(coeffs, basis):
            if c:
                term = m if c == 1 else \
                    m.scale(GaussRational(c) if gauss else scalar(c))
                combo = term if combo is None else combo + term
        if combo.is_invertible():
            return combo
    return None
