"""Exact scalar arithmetic over Q(i)(q).

Every quantity in this package is a Scalar: a rational function in the
indeterminate q with Gaussian-rational coefficients, kept in a canonical
reduced form (numerator and denominator coprime, denominator monic and
nonzero, zero represented as 0/1).  Equality of canonical forms is
structural equality, so == decides mathematical equality exactly.

Scalars print to, and parse from, plain expression strings over the
tokens {integers, i, q, +, -, *, /, ^, parentheses}, e.g. "q^2",
"-(q - 1)/q", "1/2 + 3*i".  print -> parse is the identity on canonical
forms.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


class GaussRational:
    """A Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @classmethod
    def zero(cls) -> "GaussRational":
        return GR_ZERO

    @classmethod
    def one(cls) -> "GaussRational":
        return GR_ONE

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("zero divisor")
        return GaussRational(self.re / n, -self.im / n)

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

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base, k = base.inverse(), -k
        out = GR_ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        if self.im < 0:
            return f"{self.re} - {_imag_str(-self.im)}"
        return f"{self.re} + {_imag_str(self.im)}"

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


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
    n = len(coeffs)
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


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for j, aj in enumerate(a):
        if not aj:
            continue
        for k, bk in enumerate(b):
            if bk:
                out[j + k] = out[j + k] + aj * bk
    return _pnorm(out)


def _pscale(c: GaussRational, a: tuple) -> tuple:
    if not c:
        return ()
    return _pnorm([c * x for x in a])


def _pdivmod(a: tuple, b: tuple):
    """Exact Euclidean division over the coefficient field."""
    if not b:
        raise ZeroDivisionError("zero divisor")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quo = [GR_ZERO] * (len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if not c:
            continue
        f = c * inv_lead
        quo[shift] = f
        for k, bk in enumerate(b):
            if bk:
                rem[shift + k] = rem[shift + k] - f * bk
    return _pnorm(quo), _pnorm(rem)


def _is_monomial(a: tuple) -> bool:
    return bool(a) and not any(a[:-1])


def _order(a: tuple) -> int:
    """Index of the lowest nonzero coefficient."""
    for k, c in enumerate(a):
        if c:
            return k
    return 0


def _pgcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd.  Monomial arguments get a fast path (the common case:
    denominators here are almost always powers of q)."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    if _is_monomial(a) or _is_monomial(b):
        # gcd(q^k c, p) = q^min(k, ord(p)), still a monomial
        return (GR_ZERO,) * min(_order(a), _order(b)) + (GR_ONE,)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


def _pmonic(a: tuple) -> tuple:
    if not a or a[-1] == GR_ONE:
        return a
    return _pscale(a[-1].inverse(), a)


_P_ONE = (GR_ONE,)


class Scalar:
    """Element of Q(i)(q) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=_P_ONE, _canonical=False):
        if _canonical:
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)
            return
        num = _pnorm(tuple(num))
        den = _pnorm(tuple(den))
        if not den:
            raise ZeroDivisionError("zero divisor")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", _P_ONE)
            return
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != GR_ONE:
            inv = lead.inverse()
            num = _pscale(inv, num)
            den = _pscale(inv, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
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
        return cls((g,), _P_ONE, _canonical=True)

    @classmethod
    def q_power(cls, k: int) -> "Scalar":
        if k >= 0:
            return cls((GR_ZERO,) * k + (GR_ONE,), _P_ONE, _canonical=True)
        return cls((GR_ONE,), (GR_ZERO,) * (-k) + (GR_ONE,), _canonical=True)

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        if self.den == o.den:
            return Scalar(_padd(self.num, o.num), self.den)
        return Scalar(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                      _pmul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        if not self.num:
            return self
        return Scalar(_pneg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return ZERO
        if self.den == _P_ONE and o.den == _P_ONE:
            return Scalar(_pmul(self.num, o.num), _P_ONE, _canonical=True)
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
        if k == 0:
            return ONE
        base = self
        if k < 0:
            base, k = base.inverse(), -k
        out = ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == _P_ONE

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


def _peval(p: tuple, q0: GaussRational) -> GaussRational:
    out = GR_ZERO
    for c in reversed(p):
        out = out * q0 + c
    return out


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


ZERO = Scalar((), _P_ONE, _canonical=True)
ONE = Scalar((GR_ONE,), _P_ONE, _canonical=True)
Q = Scalar((GR_ZERO, GR_ONE), _P_ONE, _canonical=True)
I = Scalar.from_gauss(GR_I)


def scalar(value) -> Scalar:
    """Coerce an int, Fraction, GaussRational or expression string."""
    if isinstance(value, str):
        return parse_scalar(value)
    s = Scalar._coerce(value)
    if s is None:
        raise TypeError(f"cannot make a Scalar from {type(value).__name__}")
    return s


def q_integer(k: int) -> Scalar:
    """The q-integer [k] = 1 + q + ... + q^(k-1) = (q^k - 1)/(q - 1)."""
    if not isinstance(k, int) or k <= 0:
        raise ValueError("undefined q-integer")
    return Scalar((GR_ONE,) * k, _P_ONE, _canonical=True)


# ---------------------------------------------------------------------------
# parsing

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        pos = 0
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch.isdigit():
                start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                self.tokens.append(("int", int(text[start:pos]), start))
                continue
            if ch in "iq":
                self.tokens.append(("sym", ch, pos))
                pos += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, pos))
                pos += 1
                continue
            raise ValueError(f"parse error at position {pos}: unexpected {ch!r}")
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


# a parsed power base^k must have |k| * max(1, degree of base) at most
# this, and so must the degree of every parsed sum, difference, product
# and quotient, so that an input cannot ask for a huge polynomial
MAX_POWER_DEGREE = 1000


def _degree(value: Scalar) -> int:
    return max(len(value.num), len(value.den)) - 1


def _bounded(value: Scalar, pos: int, what: str) -> Scalar:
    if _degree(value) > MAX_POWER_DEGREE:
        raise ValueError(f"parse error at position {pos}: {what} of degree "
                         f"over {MAX_POWER_DEGREE}")
    return value


def parse_scalar(text: str) -> Scalar:
    """Parse an expression over {integers, i, q, +, -, *, /, ^, ()}."""
    tz = _Tokenizer(text)
    value = _parse_sum(tz)
    kind, _, pos = tz.peek()
    if kind != "end":
        raise ValueError(f"parse error at position {pos}: trailing input")
    return value


def _parse_sum(tz) -> Scalar:
    value = _parse_product(tz)
    while tz.peek()[0] in "+-":
        op, _, pos = tz.next()
        rhs = _parse_product(tz)
        if op == "+":
            value = _bounded(value + rhs, pos, "sum")
        else:
            value = _bounded(value - rhs, pos, "difference")
    return value


def _parse_product(tz) -> Scalar:
    value = _parse_signed(tz)
    while tz.peek()[0] in "*/":
        op, _, pos = tz.next()
        rhs = _parse_signed(tz)
        if op == "*":
            value = _bounded(value * rhs, pos, "product")
        else:
            if not rhs:
                raise ZeroDivisionError("zero divisor")
            value = _bounded(value / rhs, pos, "quotient")
    return value


def _parse_signed(tz) -> Scalar:
    sign = 1
    while tz.peek()[0] in "+-":
        if tz.next()[0] == "-":
            sign = -sign
    value = _parse_power(tz)
    return value if sign > 0 else -value


def _parse_power(tz) -> Scalar:
    base = _parse_atom(tz)
    if tz.peek()[0] == "^":
        tz.next()
        esign = 1
        while tz.peek()[0] in "+-":
            if tz.next()[0] == "-":
                esign = -esign
        kind, val, pos = tz.next()
        if kind != "int":
            raise ValueError(f"parse error at position {pos}: integer exponent expected")
        if val * max(1, _degree(base)) > MAX_POWER_DEGREE:
            raise ValueError(f"parse error at position {pos}: power of degree "
                             f"over {MAX_POWER_DEGREE}")
        base = base ** (esign * val)
    return base


def _parse_atom(tz) -> Scalar:
    kind, val, pos = tz.next()
    if kind == "int":
        return Scalar.from_gauss(GaussRational(val))
    if kind == "sym":
        return I if val == "i" else Q
    if kind == "(":
        value = _parse_sum(tz)
        kind2, _, pos2 = tz.next()
        if kind2 != ")":
            raise ValueError(f"parse error at position {pos2}: ')' expected")
        return value
    raise ValueError(f"parse error at position {pos}: value expected")
