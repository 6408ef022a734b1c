"""Exact scalar arithmetic over Q(i)(q).

Every quantity in this package is a Scalar: a rational function in the
indeterminate q with Gaussian-rational coefficients, kept in a canonical
reduced form (numerator and denominator coprime, denominator monic and
nonzero, zero represented as 0/1).  Equality of canonical forms is
structural equality, so == decides mathematical equality exactly.

A polynomial is a tuple of GaussRational coefficients, index = degree.
A GaussRational is one reduced integer triple (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1, so its arithmetic is int arithmetic plus one gcd per
result; fractions.Fraction appears only where values enter and leave.
It keeps only the field protocol of Scalar, Mat and the sampled
crosscheck (+, -, * and inverse between GaussRationals); ints and
Fractions enter through its constructor.  Most scalars here are
monomials c*q^k over q^k, so a product with a monomial operand is a shift
and one scaling by c.  Other polynomial products convolve the
Gaussian-integer numerators over a common denominator per operand and
reduce each output coefficient once.

Every result takes one of two routes to the canonical form.  A sum,
difference or product of two Laurent scalars p/q^k (a power of q as
denominator) takes _laurent: a sum shifts the numerator over the smaller
power, a product adds the exponents, and the common power of q is
stripped, so no denominators are multiplied.  Every other result takes
the general pass, Scalar(num, den), with one rule for the gcd.  With
s = min(ord num, ord den), gcd(num, den) is q^s times the gcd of num/q^s
and den/q^s, and one of those has a nonzero constant term, so their gcd
is 1 when either is a monomial.  Both sides are sliced by s, and a gcd
is taken only when neither is a monomial, from coefficient residues mod
primes p = 1 (mod 4) alone (_cancel): a degree 0 mod p proves the sides
coprime, and the candidate that residues._lift reads off them is the gcd
when it divides both exactly.  That route is complete, so no Euclidean
gcd remains; its arithmetic over F_p, the lift of a candidate included,
lives in residues.py.  Division is pseudo-division on the
Gaussian-integer numerators.  So a denominator c*q^k costs the general
pass a slice and a scaling by 1/c when c != 1.  A difference subtracts
the coefficients in place; it builds no negated operand.

Scalars print to, and parse from, plain expression strings over the
tokens {integers, i, q, +, -, *, /, ^, parentheses}, e.g. "q^2",
"-(q - 1)/q", "1/2 + 3*i".  print -> parse is the identity on canonical
forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm, log10 as _log10

from .residues import _gcd_mod_p, _lift, _moduli


def _power(x, k: int, one):
    """x^k by square and multiply for any x with * (and inverse, when
    k < 0); one is returned for k = 0.  The powers of Scalar and Mat
    both come from here."""
    if k < 0:
        x, k = x.inverse(), -k
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return one if out is None else out


class GaussRational:
    """A Gaussian rational (a + b*i)/d, stored as one reduced integer
    triple: a, b and d are ints, d > 0 and gcd(a, b, d) = 1, so equal
    values have equal triples.  Arithmetic uses only int operations and
    at most one gcd per result, and each operator returns NotImplemented
    for an operand that is not a GaussRational.  The constructor takes int
    or Fraction parts, and re and im give them back as Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # lcm of reduced denominators: the triple is already reduced
        d = _lcm(re.denominator, im.denominator)
        object.__setattr__(self, "a", re.numerator * (d // re.denominator))
        object.__setattr__(self, "b", im.numerator * (d // im.denominator))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @classmethod
    def zero(cls) -> "GaussRational":
        return GR_ZERO

    @classmethod
    def one(cls) -> "GaussRational":
        return GR_ONE

    def __add__(self, o):
        if o.__class__ is not GaussRational:
            return NotImplemented
        return _reduced(self.a * o.d + o.a * self.d,
                        self.b * o.d + o.b * self.d, self.d * o.d)

    def __sub__(self, o):
        if o.__class__ is not GaussRational:
            return NotImplemented
        return _reduced(self.a * o.d - o.a * self.d,
                        self.b * o.d - o.b * self.d, self.d * o.d)

    def __mul__(self, o):
        if o.__class__ is not GaussRational:
            return NotImplemented
        return _reduced(self.a * o.a - self.b * o.b,
                        self.a * o.b + self.b * o.a, self.d * o.d)

    def inverse(self) -> "GaussRational":
        # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
        n = self.a * self.a + self.b * self.b
        if not n:
            raise ZeroDivisionError("zero divisor")
        return _reduced(self.d * self.a, -self.d * self.b, n)

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, o):
        if o.__class__ is not GaussRational:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __str__(self):
        if not self.b:
            return str(self.re)
        if not self.a:
            return _imag_str(self.im)
        if self.b < 0:
            return f"{self.re} - {_imag_str(-self.im)}"
        return f"{self.re} + {_imag_str(self.im)}"

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


# _gr makes every arithmetic result, so it writes the slots through their
# descriptors: with object.__setattr__, which looks each name up again,
# the median wall_norm_s was 7-11% higher on every workload (BENCH_9.json,
# "slot_setters")
_set_a = GaussRational.a.__set__
_set_b = GaussRational.b.__set__
_set_d = GaussRational.d.__set__


def _gr(a: int, b: int, d: int) -> GaussRational:
    """The GaussRational of a triple that is already reduced."""
    g = object.__new__(GaussRational)
    _set_a(g, a)
    _set_b(g, b)
    _set_d(g, d)
    return g


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """The GaussRational (a + b*i)/d for any d > 0."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _gr(a, b, d)


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


# ---------------------------------------------------------------------------
# dense polynomials in q: tuples of GaussRational, index = degree, no
# trailing zeros, () is the zero polynomial

def _pnorm(coeffs) -> tuple:
    """coeffs as a tuple without trailing zeros: a tuple that has none is
    returned as it is."""
    n = len(coeffs)
    if n and coeffs.__class__ is tuple and coeffs[-1]:
        return coeffs
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _pnorm(out)


def _psub(a: tuple, b: tuple) -> tuple:
    out = list(a) + [GR_ZERO] * (len(b) - len(a))
    for k, c in enumerate(b):
        if c:
            out[k] = out[k] - c
    return _pnorm(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _is_monomial(a: tuple) -> bool:
    return bool(a) and not any(a[:-1])


def _valuation(x) -> int:
    """ord num - ord den, the q-adic valuation of a nonzero Scalar x."""
    num, den = (next(k for k, c in enumerate(p) if c) for p in (x.num, x.den))
    return num - den


def _pmul(a: tuple, b: tuple) -> tuple:
    """A monomial operand c*q^k shifts the other operand by k and scales it
    by c (no coefficient work when c = 1).  Otherwise convolve the
    Gaussian-integer numerators of a and b, each taken over the lcm of its
    coefficient denominators, then reduce every output coefficient once."""
    if not a or not b:
        return ()
    if _is_monomial(b):
        a, b = b, a
    if _is_monomial(a):
        c = a[-1]
        return a[:-1] + (b if c.a == 1 and c.d == 1 and not c.b
                         else _pscale(c, b))
    da, xs = _numerators(a)
    db, ys = _numerators(b)
    n = len(a) + len(b) - 1
    re = [0] * n
    im = [0] * n
    for j, xr, xi in xs:
        for k, yr, yi in ys:
            re[j + k] += xr * yr - xi * yi
            im[j + k] += xr * yi + xi * yr
    den = da * db
    return _pnorm([_reduced(x, y, den) if x or y else GR_ZERO
                   for x, y in zip(re, im)])


def _numerators(a: tuple):
    """(d, [(k, x, y), ...]): the lcm d of the coefficient denominators of
    a, and each nonzero coefficient of a as (x + y*i)/d at its degree k."""
    d = _lcm(*[c.d for c in a])
    return d, [(k, c.a * (d // c.d), c.b * (d // c.d))
               for k, c in enumerate(a) if c]


def _pscale(c: GaussRational, a: tuple) -> tuple:
    if not c:
        return ()
    return _pnorm([c * x if x else x for x in a])


def _pdivmod(a: tuple, b: tuple):
    """Exact Euclidean division by pseudo-division on Gaussian-integer
    numerators, as _pmul convolves: a = A/d, b = B/db, 1/lc(B) = w/m with
    w in Z[i] and m > 0.  A step on the top c of A takes m*A - c*w*B
    (shifted), so d gains the factor m, and its quotient coefficient is
    c*w*db/(d*m).  Every output coefficient is reduced once."""
    if not b:
        raise ZeroDivisionError("zero divisor")
    if len(a) < len(b):
        return (), a
    d = _lcm(*[c.d for c in a])
    re = [c.a * (d // c.d) for c in a]
    im = [c.b * (d // c.d) for c in a]
    db, bs = _numerators(b)
    _, lr, li = bs.pop()
    w = _reduced(lr, -li, lr * lr + li * li)
    wr, wi, m = w.a, w.b, w.d
    n = len(b) - 1
    quo = [GR_ZERO] * (len(a) - n)
    for s in range(len(a) - 1 - n, -1, -1):
        cr, ci = re[s + n], im[s + n]
        if not (cr or ci):
            continue
        fr, fi = cr * wr - ci * wi, cr * wi + ci * wr
        quo[s] = _reduced(fr * db, fi * db, d * m)
        if m != 1:
            d *= m
            re[:s + n] = [x * m for x in re[:s + n]]
            im[:s + n] = [x * m for x in im[:s + n]]
        for k, yr, yi in bs:
            re[s + k] -= fr * yr - fi * yi
            im[s + k] -= fr * yi + fi * yr
    return _pnorm(quo), _pnorm([_reduced(x, y, d) if x or y else GR_ZERO
                                for x, y in zip(re[:n], im[:n])])


_P_ONE = (GR_ONE,)


class Scalar:
    """Element of Q(i)(q) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=_P_ONE):
        """The canonical form of num/den, for coefficient sequences num
        and den, index = degree."""
        num = _pnorm(tuple(num))
        den = _pnorm(tuple(den))
        if not den:
            raise ZeroDivisionError("zero divisor")
        if not num:
            den = _P_ONE
        else:
            # gcd(num, den) = q^s * gcd(num[s:], den[s:]), s = min(ord num,
            # ord den); one sliced side has a nonzero constant term, so the
            # second gcd is 1 when either side is a monomial c*q^k
            s = 0
            while not (num[s] or den[s]):
                s += 1
            num, den = num[s:], den[s:]
            if not (_is_monomial(den) or _is_monomial(num)):
                num, den = _cancel(num, den)
        lead = den[-1]
        if not (lead.a == 1 and lead.d == 1 and not lead.b):
            inv = lead.inverse()
            num = _pscale(inv, num)
            den = _pscale(inv, den)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return ONE

    @classmethod
    def from_gauss(cls, g: GaussRational) -> "Scalar":
        if not g:
            return ZERO
        return _scalar((g,), _P_ONE)

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_gauss(GaussRational(other))
        if isinstance(other, GaussRational):
            return Scalar.from_gauss(other)
        return None

    # -- ring operations ----------------------------------------------------

    # the operands are Scalars on almost every call, so each operation
    # tests the class before _coerce
    def __add__(self, other):
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        return _combine(self, o, _padd)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        return _difference(self, o)

    def __rsub__(self, other):
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        return _difference(o, self)

    def __neg__(self):
        if not self.num:
            return self
        return _scalar(_pneg(self.num), self.den)

    def __mul__(self, other):
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return ZERO
        if not any(self.den[:-1]) and not any(o.den[:-1]):
            return _laurent(_pmul(self.num, o.num),
                            len(self.den) + len(o.den) - 2)
        return Scalar(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("zero divisor")
        return Scalar(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return _power(self, k, ONE)

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, q0) -> GaussRational:
        """Exact substitution q -> q0.  Raises on a denominator root."""
        if isinstance(q0, (int, Fraction)):
            q0 = GaussRational(q0)
        den = _peval(self.den, q0)
        if not den:
            raise ValueError("evaluation pole")
        return _peval(self.num, q0) * den.inverse()

    # -- text ---------------------------------------------------------------

    def __str__(self):
        if self.den == _P_ONE:
            return _poly_str(self.num)
        num = _poly_str(self.num)
        if not _is_atomic(self.num):
            num = f"({num})"
        den = _poly_str(self.den)
        if not _is_atomic(self.den):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"Scalar<{self}>"


# as in _gr, every result is written through the slot descriptors
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


def _scalar(num: tuple, den: tuple) -> Scalar:
    """The Scalar of a pair that is already canonical."""
    x = object.__new__(Scalar)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _laurent(num: tuple, k: int) -> Scalar:
    """The canonical form of num/q^k, k >= 0, for num without trailing
    zeros: the power of q common to both is stripped."""
    if not num:
        return ZERO
    s = 0
    while s < k and not num[s]:
        s += 1
    return _scalar(num[s:], (GR_ZERO,) * (k - s) + _P_ONE)


def _combine(x: Scalar, y: Scalar, op) -> Scalar:
    """x + y (op = _padd) or x - y (op = _psub), x and y nonzero."""
    if not any(x.den[:-1]) and not any(y.den[:-1]):
        a, b = len(x.den), len(y.den)
        return _laurent(op((GR_ZERO,) * (b - a) + x.num,
                           (GR_ZERO,) * (a - b) + y.num), max(a, b) - 1)
    if x.den == y.den:
        return Scalar(op(x.num, y.num), x.den)
    return Scalar(op(_pmul(x.num, y.den), _pmul(y.num, x.den)),
                  _pmul(x.den, y.den))


def _difference(x: Scalar, y: Scalar) -> Scalar:
    if not y.num:
        return x
    if not x.num:
        return -y
    return _combine(x, y, _psub)


def _peval(p: tuple, q0: GaussRational) -> GaussRational:
    out = GR_ZERO
    for c in reversed(p):
        out = out * q0 + c
    return out


def _cancel(num: tuple, den: tuple) -> tuple:
    """num/g and den/g, g the monic gcd of the non-monomials num and den.
    For p = 1 (mod 4) prime and r^2 = -1, residues._residues maps
    R = Z[i] localized at P = (p, i - r) onto R/P = F_p.  With no pole
    and no leading coefficient in P, num and den are units times monic
    polynomials of R[q], so g lies in R[q] (R is integrally closed) and
    its image divides gcd_p, the gcd of theirs: deg g <= deg gcd_p.  So a
    monic h of degree deg gcd_p that divides both exactly is g."""
    for h in _candidates(num, den):
        if len(h) == 1:
            return num, den
        qn, r = _pdivmod(num, h)
        if not r:
            qd, r = _pdivmod(den, h)
            if not r:
                return qn, qd


def _candidates(num: tuple, den: tuple):
    """The h of _cancel, each of the degree of a gcd_p at a P without a
    pole or a leading coefficient in it: at each (p, r) of _moduli where
    gcd_p at i -> r and i -> p - r have one degree, the h of that degree
    that residues._lift lifts over the primes of the lowest degree met; i -> r
    alone is mapped for a real input or a gcd_p of degree 0 (g = 1).  A
    prime is unlucky (a pole, a leading coefficient in P, or deg gcd_p >
    deg g) only if it divides one of finitely many nonzero integers fixed
    by num and den, so the loop ends: past them every prime gives the
    images of g, and their product comes to bound its parts."""
    real, size = not any(c.b for c in num + den), 0
    for p, r in _moduli():
        a = _gcd_mod_p(num, den, p, r)
        if a is None:
            continue
        b = a if real or len(a) == 1 else _gcd_mod_p(num, den, p, p - r)
        if b is None or len(a) != len(b) or 0 < size < len(a):
            continue
        if len(a) != size:
            size, combined, m = len(a), [], 1
        combined, m, h = _lift(a, b, p, r, combined, m)
        if h is not None and len(h) == len(a):
            yield tuple(_reduced(*c) for c in h)


def _term_str(c: GaussRational, k: int) -> str:
    if k == 0:
        if c.re and c.im:
            return f"({c})"
        return str(c)
    qpart = "q" if k == 1 else f"q^{k}"
    if c == GR_ONE:
        return qpart
    if c == -GR_ONE:
        return f"-{qpart}"
    cs = str(c)
    if (c.re and c.im) or (not c.im and c.re.denominator != 1) \
            or (not c.re and c.im.denominator != 1):
        cs = f"({cs})"
    return f"{cs}*{qpart}"


def _poly_str(p: tuple) -> str:
    if not p:
        return "0"
    if len(p) == 1:
        return str(p[0])
    terms = []
    for k in range(len(p) - 1, -1, -1):
        if p[k]:
            terms.append(_term_str(p[k], k))
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += f" - {t[1:]}"
        else:
            out += f" + {t}"
    return out


def _is_atomic(p: tuple) -> bool:
    """True for polynomials that print as a single positive token (q^k or a
    plain nonnegative integer), safe to use unparenthesized in a quotient."""
    nonzero = [k for k, c in enumerate(p) if c]
    if len(nonzero) != 1:
        return False
    k = nonzero[0]
    c = p[k]
    if k == 0:
        return not c.im and c.re >= 0 and c.re.denominator == 1
    return c == GR_ONE


ZERO = _scalar((), _P_ONE)
ONE = _scalar((GR_ONE,), _P_ONE)
Q = _scalar((GR_ZERO, GR_ONE), _P_ONE)
I = Scalar.from_gauss(GR_I)


def scalar(value) -> Scalar:
    """Coerce an int, Fraction, GaussRational or expression string."""
    if isinstance(value, str):
        return parse_scalar(value)
    s = Scalar._coerce(value)
    if s is None:
        raise TypeError(f"cannot make a Scalar from {type(value).__name__}")
    return s


# ---------------------------------------------------------------------------
# parsing

# one token after optional whitespace: an ASCII integer, an operator or
# symbol, or any other character, which is an error
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([iq+*/^()-])|(\S))")

# a parsed power base^k must have |k| * max(1, degree of base) at most
# this, and so must the degree of every parsed sum, difference, product
# and quotient, so that an input cannot ask for a huge polynomial
MAX_POWER_DEGREE = 1000
# a parsed integer has at most this many digits, and so has each part of
# each coefficient of those results, so that every parsed value prints
MAX_DIGITS = 1000
_DIGITS_LIMIT = 10 ** MAX_DIGITS
# an input matrix is at most MAX_N x MAX_N (matrices.Mat.from_json): a
# commutant has n^4 operator cells, 1.6e9 at n = 200; the paper's matrices
# are 4 x 4 and the tests go to 5 x 5
MAX_N = 16

# the binary operators, loosest level first: each maps to its name in
# the bound errors and its function
_LEVELS = ({"+": ("sum", Scalar.__add__), "-": ("difference", Scalar.__sub__)},
           {"*": ("product", Scalar.__mul__),
            "/": ("quotient", Scalar.__truediv__)})


def _degree(value: Scalar) -> int:
    return max(len(value.num), len(value.den)) - 1


def _keep_bounds(pos: int, name: str, degree: int, long: bool) -> None:
    """Raise the error of the result called name at pos if its degree is
    over the bound or, as long says, one of its coefficients is."""
    if degree > MAX_POWER_DEGREE:
        raise ValueError(f"parse error at position {pos}: {name} of "
                         f"degree over {MAX_POWER_DEGREE}")
    if long:
        raise ValueError(f"parse error at position {pos}: {name} with a "
                         f"coefficient of over {MAX_DIGITS} digits")


def _bounded(value: Scalar, pos: int, name: str) -> Scalar:
    """value, the result called name at pos, if it keeps both bounds."""
    _keep_bounds(pos, name, _degree(value),
                 any(max(abs(c.a), abs(c.b), c.d) >= _DIGITS_LIMIT
                     for c in value.num + value.den))
    return value


def _power_digits(c: GaussRational, k: int) -> float:
    """A lower bound on log10 of the largest reduced part of c^k, c != 0.
    c^k = (A + B*i)/D with A + B*i a nonzero Gaussian integer, so
    max(|A|, |B|) >= |c|^k / sqrt(2) and D >= |c|^-k."""
    log = k * (_log10(c.a * c.a + c.b * c.b) / 2 - _log10(c.d))
    return max(log - _log10(2) / 2, -log)


def parse_scalar(text: str) -> Scalar:
    """Parse an expression over {ASCII integers, i, q, +, -, *, /, ^, ()}."""
    # (kind, position) pairs, last token first; an integer's kind is its
    # value
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, symbol, other = m.groups()
        pos = m.start(m.lastindex)
        if other or digits and len(digits) > MAX_DIGITS:
            raise ValueError(f"parse error at position {pos}: " + (
                f"unexpected {other!r}" if other
                else f"integer of over {MAX_DIGITS} digits"))
        tokens.append((int(digits) if digits else symbol, pos))
    tokens.append(("end", len(text)))
    tokens.reverse()
    try:
        value = _parse_level(tokens, 0)
    except RecursionError:
        raise ValueError("parse error: expression nested too deeply") \
            from None
    kind, pos = tokens[-1]
    if kind != "end":
        raise ValueError(f"parse error at position {pos}: trailing input")
    return value


def _parse_level(tokens: list, level: int) -> Scalar:
    """Operands of the next level joined left to right by this level's
    operators; every result is bounded in degree and digits."""
    ops = _LEVELS[level]
    inner = level + 1 < len(_LEVELS)
    value = _parse_level(tokens, level + 1) if inner else _parse_power(tokens)
    while tokens[-1][0] in ops:
        kind, pos = tokens.pop()
        name, apply = ops[kind]
        rhs = _parse_level(tokens, level + 1) if inner \
            else _parse_power(tokens)
        value = _bounded(apply(value, rhs), pos, name)
    return value


def _sign(tokens: list) -> int:
    """Consume a run of + and - signs and return their product."""
    sign = 1
    while tokens[-1][0] in ("+", "-"):
        if tokens.pop()[0] == "-":
            sign = -sign
    return sign


def _parse_power(tokens: list) -> Scalar:
    """Signs, an atom and an optional ^ with a signed integer exponent;
    the signs apply to the power, so -q^2 is -(q^2)."""
    sign = _sign(tokens)
    base = _parse_atom(tokens)
    if tokens[-1][0] == "^":
        tokens.pop()
        esign = _sign(tokens)
        k, pos = tokens.pop()
        if not isinstance(k, int):
            raise ValueError(f"parse error at position {pos}: integer "
                             "exponent expected")
        # the canonical form of (n/d)^k is (n^k, d^k), as n and d are
        # coprime and d is monic, so lc(n)^k is one of its coefficients:
        # a power refused by its degree or by that coefficient is never
        # formed (the 1e-6 covers the rounding of the logarithms; k is
        # small enough for a float once the degree fits)
        degree = k * max(1, _degree(base))
        _keep_bounds(pos, "power", degree,
                     degree <= MAX_POWER_DEGREE and bool(base.num)
                     and _power_digits(base.num[-1], esign * k)
                     >= MAX_DIGITS + 1e-6)
        base = _bounded(base ** (esign * k), pos, "power")
    return base if sign > 0 else -base


def _parse_atom(tokens: list) -> Scalar:
    kind, pos = tokens.pop()
    if isinstance(kind, int):
        return Scalar.from_gauss(_gr(kind, 0, 1))
    if kind in ("i", "q"):
        return I if kind == "i" else Q
    if kind == "(":
        value = _parse_level(tokens, 0)
        kind, pos = tokens.pop()
        if kind != ")":
            raise ValueError(f"parse error at position {pos}: ')' expected")
        return value
    raise ValueError(f"parse error at position {pos}: value expected")
