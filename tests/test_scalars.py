"""Exact scalar arithmetic: Gaussian rationals, rational functions in q,
and the round-tripping text encoding."""

import operator
import sys
from fractions import Fraction
from itertools import islice
from math import comb, gcd, isqrt

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import qgl2.residues
import qgl2.scalars
from qgl2.residues import RESIDUE_I, RESIDUE_P, RESIDUE_Q0, _moduli
from qgl2.scalars import (GR_I, GR_ONE, GR_ZERO, GaussRational, I, ONE, Q,
                          Scalar, ZERO, _padd, _pdivmod, _pmul, _pnorm,
                          _power, parse_scalar, scalar)

from oracles import q_integer, residue


class TestGaussRational:
    def test_construction_and_equality(self):
        a = GaussRational(Fraction(1, 2), Fraction(3))
        assert a.re == Fraction(1, 2) and a.im == 3
        assert GaussRational(2) == GaussRational(Fraction(2), Fraction(0))
        # ints and Fractions enter only through the constructor
        assert GaussRational(2) != 2
        assert GaussRational(1, 1) != GaussRational(1, -1)

    def test_arithmetic(self):
        a = GaussRational(1, 2)
        b = GaussRational(3, -1)
        # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
        assert a * b == GaussRational(5, 5)
        assert a + b == GaussRational(4, 1)
        assert a - b == GaussRational(-2, 3)
        assert -a == GaussRational(-1, -2)
        assert a * GaussRational(0) == GaussRational(0)
        for op in (operator.add, operator.sub, operator.mul):
            for x, y in ((a, 1), (1, a), (a, Fraction(1, 2))):
                with pytest.raises(TypeError):
                    op(x, y)

    def test_inverse_and_division(self):
        a = GaussRational(3, 4)
        inv = a.inverse()
        assert inv == GaussRational(Fraction(3, 25), Fraction(-4, 25))
        assert a * inv == GaussRational(1)
        assert GaussRational(0, 1).inverse() == GaussRational(0, -1)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            GaussRational(0).inverse()

    def test_pow(self):
        # the shared square-and-multiply of Scalar and Mat powers
        i = GaussRational(0, 1)
        assert _power(i, 2, GR_ONE) == i * i == GaussRational(-1)
        assert _power(i, 0, GR_ONE) == GaussRational(1)
        assert _power(i, -1, GR_ONE) == i.inverse() == i * i * i

    def test_str_forms(self):
        assert str(GaussRational(0)) == "0"
        assert str(GaussRational(3)) == "3"
        assert str(GaussRational(Fraction(-1, 2))) == "-1/2"
        assert str(GaussRational(0, 1)) == "i"
        assert str(GaussRational(0, -1)) == "-i"
        assert str(GaussRational(0, 3)) == "3*i"
        assert str(GaussRational(Fraction(1, 2), 3)) == "1/2 + 3*i"
        assert str(GaussRational(3, -1)) == "3 - i"

    def test_immutability(self):
        a = GaussRational(1, 2)
        with pytest.raises(AttributeError):
            a.re = Fraction(5)

    def test_slots_cannot_be_deleted(self):
        g, s = GaussRational(1, 2), Q + 1
        for value, names in ((g, ("a", "b", "d")), (s, ("num", "den"))):
            for name in names:
                with pytest.raises(AttributeError, match="immutable"):
                    delattr(value, name)
        assert (g.a, g.b, g.d) == (1, 2, 1)
        assert s == Q + 1 and s * s == Q ** 2 + 2 * Q + 1


class TestScalar:
    def test_canonical_reduction(self):
        # (q^2 - 1)/(q - 1) reduces to q + 1
        num = Q * Q - ONE
        den = Q - ONE
        assert num / den == Q + ONE

    def test_denominator_monic(self):
        # 1/(2q) must store a monic denominator
        s = ONE / (Q * 2)
        assert str(s) == "(1/2)/q"
        assert s * (Q * 2) == ONE

    def test_inverse(self):
        assert Q * Q.inverse() == ONE
        assert (Q + ONE).inverse() * (Q + ONE) == ONE
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            ZERO.inverse()

    def test_pow(self):
        assert Q ** 3 == Q * Q * Q
        assert Q ** 0 == ONE
        assert Q ** -2 == (Q * Q).inverse()

    def test_equality_hash(self):
        a = (Q ** 2 - ONE) / (Q - ONE)
        b = Q + ONE
        assert a == b
        assert hash(a) == hash(b)
        assert a != Q

    def test_coercion(self):
        assert scalar(3) == ONE * 3
        assert scalar(Fraction(1, 2)) * 2 == ONE
        assert scalar("q^2") == Q * Q
        assert Q + 1 == ONE + Q
        assert 2 * Q == Q * 2

    def test_eval(self):
        s = (Q ** 2 + ONE) / Q
        assert s.eval(2) == GaussRational(Fraction(5, 2))
        assert s.eval(Fraction(1, 2)) == GaussRational(Fraction(5, 2))

    def test_eval_pole(self):
        s = ONE / (Q - ONE)
        with pytest.raises(ValueError, match="evaluation pole"):
            s.eval(1)

    def test_eval_numeric(self):
        assert (Q ** 2 + Q).eval(3) == GaussRational(12)


class TestQInteger:
    def test_values(self):
        assert q_integer(1) == ONE
        assert q_integer(2) == ONE + Q
        assert q_integer(3) == ONE + Q + Q * Q
        assert str(q_integer(4)) == "q^3 + q^2 + q + 1"

    def test_recurrence(self):
        for k in range(2, 8):
            assert q_integer(k) == q_integer(k - 1) + Q ** (k - 1)

    def test_undefined(self):
        for bad in (0, -1, -5):
            with pytest.raises(ValueError, match="undefined q-integer"):
                q_integer(bad)


class TestTextEncoding:
    CANONICAL = [
        "0", "1", "-1", "q", "-q", "q^2", "2*q", "(1/2)*q",
        "q + 1", "q - 1", "q^2 + q + 1", "-q^2 - 1",
        "i", "-i", "3*i", "i*q", "1/2 + 3*i", "(1/2 + 3*i)*q",
        "1/q", "(q + 1)/q", "(-q + 1)/q", "1/(q - 1)",
        "(q^2 - 1)/(q^2 + 1)", "((1/2)*q^2 - i)/(q - 1)",
    ]

    def test_parse_print_identity_on_values(self):
        # str is a section of parse: parse(str(x)) == x always
        samples = [
            ZERO, ONE, Q, -Q, Q ** 5,
            Q * GaussRational(0, 1),
            (Q ** 2 - ONE) / (Q ** 3 + scalar(2)),
            scalar(Fraction(-7, 3)) * Q ** 2 + scalar(GaussRational(1, 1)),
            ONE / (Q ** 2 - Q),
            scalar(GaussRational(Fraction(1, 2), Fraction(3))),
        ]
        for x in samples:
            assert parse_scalar(str(x)) == x

    def test_print_parse_identity_on_strings(self):
        for s in self.CANONICAL:
            x = parse_scalar(s)
            assert str(x) == s, f"{s!r} reprinted as {str(x)!r}"

    def test_whitespace_and_exponent_forms(self):
        assert parse_scalar(" q ^ 2 ") == Q * Q
        assert parse_scalar("q^-1") == Q.inverse()
        assert parse_scalar("2*q/(q+1)") == (Q * 2) / (Q + ONE)

    def test_parse_errors(self):
        # integers are ASCII digit strings: other Unicode digits are errors
        for bad in ("", "q +", "(q", "q^", "3i", "q**2", "x",
                    "\u0663*q", "q^\u0662", "q\u00b2"):
            with pytest.raises(ValueError, match="parse error"):
                parse_scalar(bad)

    def test_exponent_bound(self):
        assert parse_scalar("q^1000") == Q ** 1000
        assert parse_scalar("q^-1000") == Q ** -1000
        assert parse_scalar("(q^500)^2") == Q ** 1000
        for bad in ("q^1001", "(q+1)^1001", "(q^2)^501", "(1/q^2)^-501",
                    "2^1001", "(10^9*q)^" + "9" * 400):
            with pytest.raises(ValueError, match="power of degree over 1000"):
                parse_scalar(bad)
        # coefficients are bounded too, so that every parsed value prints:
        # numerators and denominators stay below 10^1000
        assert parse_scalar("2^1000") == ONE * 2 ** 1000
        assert parse_scalar("(q+1)^1000") == (Q + ONE) ** 1000
        assert parse_scalar("(1/10)^999") == Scalar.from_gauss(
            GaussRational(Fraction(1, 10 ** 999)))
        # a power is refused before it is formed only when its leading
        # coefficient alone is too long; these stay just inside the bound
        assert parse_scalar("(10^9*q)^111") == Q ** 111 * 10 ** 999
        assert parse_scalar("(q/10^9)^-111") == ONE * 10 ** 999 / Q ** 111
        assert parse_scalar("((1+i)*q/2)^1000") == Q ** 1000 / 2 ** 500
        for bad, pos in (("99999^999", 6), ("(10^500)^2", 9),
                         ("(10^9*q)^112", 9),
                         ("(1/10^500)^2", 11), ("(10^500*q+1)^-2", 14)):
            with pytest.raises(ValueError, match=(
                    f"position {pos}: power with a coefficient of over "
                    "1000 digits")):
                parse_scalar(bad)
        with pytest.raises(ValueError, match=(
                "position 2: integer of over 1000 digits")):
            parse_scalar("q+" + "1" * 1001)
        assert parse_scalar("9" * 1000) == ONE * (10 ** 1000 - 1)

    def test_operator_degree_bound(self):
        # every +, -, * and / result is bounded after reduction
        assert parse_scalar("q^600*q^400") == Q ** 1000
        assert parse_scalar("q^1000*q^-1000") == ONE
        assert parse_scalar("q^1000-q^1000+1") == ONE
        for bad, what in (("q^1000*q", "product"), ("q^1000/q^-1", "quotient"),
                          ("1/(q^999+1)+1/(q^999+2)", "sum"),
                          ("1/(q^999+1)-1/(q^999+2)", "difference")):
            with pytest.raises(ValueError,
                               match=f"{what} of degree over 1000"):
                parse_scalar(bad)
        big = "9" * 1000
        assert parse_scalar(f"{big}*q/{big}") == Q
        for bad, what in ((f"{big}*10", "product"), (f"1/{big}/11", "quotient"),
                          (f"{big}+1", "sum"), (f"-{big}-1", "difference"),
                          (f"1/{big}+1/{big[1:]}", "sum")):
            with pytest.raises(ValueError, match=(
                    f"{what} with a coefficient of over 1000 digits")):
                parse_scalar(bad)

    def test_division_by_zero_literal(self):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            parse_scalar("1/0")


# ---------------------------------------------------------------------------
# properties of the coefficient type against a reference that keeps a
# Gaussian rational as a pair of Fractions, and of Scalar as a field

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

# small parts cancel often; large ones make multi-word gcds
rationals = st.builds(
    Fraction,
    st.integers(-12, 12) | st.integers(-10 ** 25, 10 ** 25),
    st.integers(1, 12) | st.integers(1, 10 ** 20))
pairs = st.tuples(rationals, rationals | st.just(Fraction(0)))


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_str(x):
    def imag(v):
        return "i" if v == 1 else "-i" if v == -1 else f"{v}*i"
    re, im = x
    if not im:
        return str(re)
    if not re:
        return imag(im)
    if im < 0:
        return f"{re} - {imag(-im)}"
    return f"{re} + {imag(im)}"


def assert_canonical(g):
    assert all(type(v) is int for v in (g.a, g.b, g.d))
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1


def assert_is(g, x):
    """g is the canonical GaussRational of the Fraction pair x."""
    assert_canonical(g)
    assert (g.re, g.im) == x
    assert str(g) == ref_str(x)


class TestGaussRationalProperties:
    @PROPERTY
    @given(x=pairs, y=pairs)
    def test_ops_match_fraction_pairs(self, x, y):
        gx, gy = GaussRational(*x), GaussRational(*y)
        assert_is(gx, x)
        assert_is(gx + gy, (x[0] + y[0], x[1] + y[1]))
        assert_is(gx - gy, (x[0] - y[0], x[1] - y[1]))
        assert_is(gx * gy, ref_mul(x, y))
        assert_is(-gx, (-x[0], -x[1]))
        if any(y):
            assert_is(gy.inverse(), ref_inverse(y))
            assert_is(gx * gy.inverse(), ref_mul(x, ref_inverse(y)))
        else:
            with pytest.raises(ZeroDivisionError, match="zero divisor"):
                gy.inverse()

    @PROPERTY
    @given(x=pairs, k=st.integers(-5, 7))
    def test_pow_matches_repeated_product(self, x, k):
        if k < 0 and not any(x):
            with pytest.raises(ZeroDivisionError):
                _power(GaussRational(*x), k, GR_ONE)
            return
        ref = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            ref = ref_mul(ref, x if k > 0 else ref_inverse(x))
        assert_is(_power(GaussRational(*x), k, GR_ONE), ref)

    @PROPERTY
    @given(x=pairs, y=pairs)
    def test_equal_values_hash_equal(self, x, y):
        gx, gy = GaussRational(*x), GaussRational(*y)
        assert (gx == gy) == (x == y)
        # the same value reached by other routes
        routes = [(gx + gy) - gy, gx * GR_ONE] \
            + ([gx * gy * gy.inverse()] if any(y) else [])
        for same in routes:
            assert same == gx and hash(same) == hash(gx)

    def test_hash_at_the_hash_modulus(self):
        # a denominator with no inverse modulo the hash modulus, and the
        # values whose Fraction hash would be -1: the same value reached
        # as a product hashes the same
        m = sys.hash_info.modulus
        for v in (Fraction(1, m), Fraction(-5, 3 * m), Fraction(-1),
                  Fraction(-1, m + 1), Fraction(-m - 1)):
            g = GaussRational(v)
            same = GaussRational(v.numerator) \
                * GaussRational(v.denominator).inverse()
            assert same == g and hash(same) == hash(g)

    @PROPERTY
    @given(x=pairs, y=pairs)
    def test_immutable(self, x, y):
        gx, gy = GaussRational(*x), GaussRational(*y)
        triple = (gx.a, gx.b, gx.d)
        for name in ("a", "b", "d", "re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(gx, name, 1)
        # no operation changes its operands
        gx + gy, gx - gy, gx * gy, -gx, gx * gx * gx, hash(gx), str(gx)
        if gx:
            gx.inverse()
        assert (gx.a, gx.b, gx.d) == triple


def pmul_reference(a, b):
    """The per-coefficient product loop _pmul replaced: every partial
    product is a reduced GaussRational added into its slot."""
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


coefficients = st.one_of(st.just(GR_ZERO), rationals.map(GaussRational),
                         pairs.map(lambda x: GaussRational(*x)))
polys = (st.lists(coefficients, max_size=6)
         | st.lists(rationals.map(GaussRational), max_size=6)).map(_pnorm)


class TestPolynomialProduct:
    @PROPERTY
    @given(a=polys, b=polys)
    def test_pmul_matches_per_coefficient_loop(self, a, b):
        out = _pmul(a, b)
        assert out == pmul_reference(a, b)
        assert not out or out[-1]
        for c in out:
            assert_canonical(c)

    def test_dense_power_coefficients(self):
        s = parse_scalar("(q/3+1/7)^60")
        assert s.den == (GR_ONE,) and len(s.num) == 61
        for k, c in enumerate(s.num):
            assert c == GaussRational(Fraction(comb(60, k),
                                               3 ** k * 7 ** (60 - k)))
        s = parse_scalar("(q+1)^1000")
        assert s.num == tuple(GaussRational(comb(1000, k))
                              for k in range(1001))


# Laurent scalars p/q^k and scalars with non-monomial denominators
SMALL = tuple(GaussRational(*x) for x in
              ((1, 0), (-1, 0), (2, 0), (Fraction(1, 3), 0), (0, 1),
               (1, -1), (Fraction(-2, 5), 3)))
small_polys = st.lists(st.sampled_from((GR_ZERO,) + SMALL), min_size=1,
                       max_size=3)
laurent = st.builds(lambda num, k: Scalar(num) / Q ** k, small_polys,
                    st.integers(0, 3))
non_monomial = st.builds(lambda num, c0, c1: Scalar(num, (c0, c1, GR_ONE)),
                         small_polys, st.sampled_from(SMALL),
                         st.sampled_from((GR_ZERO,) + SMALL))
scalars = laurent | non_monomial


def assert_canonical_scalar(x):
    assert x.den and x.den[-1] == GR_ONE
    assert not x.num or x.num[-1]
    assert canonical_reference(x.num, x.den) == (x.num, x.den)
    for c in x.num + x.den:
        assert_canonical(c)


class TestScalarProperties:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(x=scalars, y=scalars, z=scalars)
    def test_field_axioms(self, x, y, z):
        for v in (x + y, x * y, x - y, -x):
            assert_canonical_scalar(v)
        assert x + y == y + x and hash(x + y) == hash(y + x)
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x and x * ZERO == ZERO
        assert x + (-x) == ZERO and x - y == x + (-y)
        if x:
            assert_canonical_scalar(x.inverse())
            assert x * x.inverse() == ONE
            assert (y / x) * x == y
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(x=scalars)
    def test_print_parse_round_trip(self, x):
        text = str(x)
        assert parse_scalar(text) == x
        assert str(parse_scalar(text)) == text


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


class TestResidue:
    """The residue map (residues._residues, then residues._residue_at at
    q0) takes the scalars without a pole at (q0, i) to F_p as a ring
    homomorphism: matrices.stacked_nullspace proves empty kernels on
    it."""

    def test_the_point(self):
        p = RESIDUE_P
        assert is_prime(p) and p % 4 == 1 and p < 2 ** 31
        assert RESIDUE_I ** 2 % p == p - 1
        # q0 is a primitive root: p - 1 = 2^2 * 3^2 * 59652323
        assert 4 * 9 * 59652323 == p - 1 and is_prime(59652323)
        assert all(pow(RESIDUE_Q0, (p - 1) // f, p) != 1
                   for f in (2, 3, 59652323))

    def test_values_and_poles(self):
        p = RESIDUE_P
        assert residue(Q) == RESIDUE_Q0 and residue(I) == RESIDUE_I
        assert residue(ZERO) == 0 and residue(ONE) == 1
        assert residue(scalar("(q - 1)/(2*q)")) == \
            (RESIDUE_Q0 - 1) * pow(2 * RESIDUE_Q0, -1, p) % p
        # p in a numerator is a zero residue, in a denominator a pole
        assert residue(scalar(p)) == 0
        assert residue(scalar(Fraction(1, p))) is None
        assert residue(scalar(Fraction(3, 2 * p) + Q)) is None
        assert residue(Q - RESIDUE_Q0) == 0
        assert residue(ONE / (Q - RESIDUE_Q0)) is None

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(x=scalars, y=scalars)
    def test_ring_homomorphism(self, x, y):
        p = RESIDUE_P
        rx, ry = residue(x), residue(y)
        assume(rx is not None and ry is not None)
        assert residue(x + y) == (rx + ry) % p
        assert residue(x * y) == rx * ry % p
        assert residue(-x) == -rx % p
        if rx:
            assert residue(x.inverse()) == pow(rx, -1, p)
        elif x:
            assert residue(x.inverse()) is None


# monomials c*q^k, the common operand: _pmul shifts them instead of
# convolving, and _pdivmod divides by them as by any polynomial
monomials = st.builds(lambda c, k: (GR_ZERO,) * k + (c,),
                      st.sampled_from(SMALL), st.integers(0, 5))
# half the coefficients zero, so interior zeros are common
sparse_polys = st.lists(st.just(GR_ZERO) | st.sampled_from(SMALL),
                        max_size=8).map(_pnorm)


def pdivmod_reference(a, b):
    """The Euclidean loop of _pdivmod, kept apart from it as the oracle of
    the canonical form."""
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


def assert_canonical_poly(a):
    assert not a or a[-1]
    for c in a:
        assert_canonical(c)


# dense divisors: every coefficient nonzero, the leading one non-real and
# not 1, so that pseudo-division scales by the denominator of its inverse
complex_leads = (st.sampled_from(SMALL[4:])
                 | pairs.filter(lambda x: x[1]).map(
                     lambda x: GaussRational(*x)))
dense_divisors = st.builds(lambda low, lead: tuple(low) + (lead,),
                           st.lists(coefficients.filter(bool), max_size=4),
                           complex_leads)


class TestPolynomialDivision:
    @PROPERTY
    @given(a=polys | sparse_polys, b=dense_divisors)
    def test_pdivmod_matches_euclid(self, a, b):
        quo, rem = _pdivmod(a, b)
        assert (quo, rem) == pdivmod_reference(a, b)
        assert _padd(pmul_reference(quo, b), rem) == a
        assert len(rem) < len(b)
        assert_canonical_poly(quo)
        assert_canonical_poly(rem)
        # a multiple of b divides exactly
        assert _pdivmod(pmul_reference(a, b), b) == (a, ())


class TestMonomialOperands:
    @PROPERTY
    @given(m=monomials, p=sparse_polys | monomials)
    def test_pmul_shifts_and_scales(self, m, p):
        for out, ref in ((_pmul(m, p), pmul_reference(m, p)),
                         (_pmul(p, m), pmul_reference(p, m))):
            assert out == ref
            assert_canonical_poly(out)

    @PROPERTY
    @given(a=sparse_polys | monomials, m=monomials)
    def test_pdivmod_by_monomial_matches_euclid(self, a, m):
        quo, rem = _pdivmod(a, m)
        assert (quo, rem) == pdivmod_reference(a, m)
        assert _padd(pmul_reference(quo, m), rem) == a
        assert len(rem) < len(m)
        assert_canonical_poly(quo)
        assert_canonical_poly(rem)

    @PROPERTY
    @given(x=laurent, y=laurent)
    def test_laurent_products_and_sums_stay_canonical(self, x, y):
        for v, ref in ((x * y, x.eval(3) * y.eval(3)),
                       (x + y, x.eval(3) + y.eval(3)),
                       (x - y, x.eval(3) - y.eval(3))):
            assert_canonical_scalar(v)
            assert v.eval(3) == ref
            # a Laurent value keeps a q^s denominator
            assert not any(v.den[:-1])


def canonical_reference(num, den):
    """The canonical pair of num/den by the general route: the gcd from
    the Euclidean loop, exact division by it, then the scaling that makes
    the denominator monic.  Scalar.__init__ slices the q^s part of the gcd
    off both sides instead, and runs Euclid only on two non-monomials."""
    num, den = _pnorm(list(num)), _pnorm(list(den))
    if not num:
        return (), (GR_ONE,)
    g, r = num, den
    while r:
        g, r = r, pdivmod_reference(g, r)[1]
    num, den = pdivmod_reference(num, g)[0], pdivmod_reference(den, g)[0]
    inv = den[-1].inverse()
    return tuple(inv * c for c in num), tuple(inv * c for c in den)


# untrimmed coefficient lists: trailing zeros, and all zeros for a zero
# numerator
raw_polys = st.lists(st.just(GR_ZERO) | st.sampled_from(SMALL), max_size=7)
# c*q^k with c != 1 (SMALL holds complex c too) or c = 1, and trailing
# zeros
raw_monomials = st.builds(
    lambda c, k, pad: [GR_ZERO] * k + [c] + [GR_ZERO] * pad,
    st.sampled_from(SMALL), st.integers(0, 6), st.integers(0, 2))
# a monomial, k above or below the numerator's q-order; or q^j times a
# polynomial with a nonzero constant term, the non-monomial case
raw_dens = (raw_monomials
            | st.builds(lambda j, c0, rest: [GR_ZERO] * j + [c0] + rest,
                        st.integers(0, 3), st.sampled_from(SMALL),
                        raw_polys))
# non-monomials with a nonzero constant term, of degree 1 to 3
prime_to_q = st.builds(lambda c0, mid, c: [c0] + mid + [c],
                       st.sampled_from(SMALL),
                       st.lists(st.just(GR_ZERO) | st.sampled_from(SMALL),
                                max_size=2),
                       st.sampled_from(SMALL))
positive = st.integers(1, 4)


def shifted(s, *factors):
    """q^s times the product of factors, as a list."""
    out = (GR_ONE,)
    for f in factors:
        out = pmul_reference(out, _pnorm(f))
    return [GR_ZERO] * s + list(out)


def tagged(case, pairs):
    """(num, den, case): each pair tagged with the case of the gcd
    certificate in Scalar.__init__ that it draws, or None."""
    return pairs.map(lambda pair: (*pair, case))


def sharing(factors, cofactors=prime_to_q):
    """q^s f a over q^t f' b, for (f, f') drawn by factors, and cofactors
    a and b."""
    return st.builds(lambda s, t, f, a, b: (shifted(s, f[0], a),
                                            shifted(t, f[1], b)),
                     positive, positive, factors, cofactors, cofactors)


def common(factor):
    """(f, f) for each f drawn by factor."""
    return factor.map(lambda f: (f, f))


P = RESIDUE_P
REAL = tuple(c for c in SMALL if not c.b)
real_prime_to_q = st.builds(lambda c0, mid, c: [c0] + mid + [c],
                            st.sampled_from(REAL),
                            st.lists(st.sampled_from((GR_ZERO,) + REAL),
                                     max_size=2),
                            st.sampled_from(REAL))
# non-monomial factors: c0 + c*q with c a multiple of p, or with c0 past
# the reconstruction bound of 32767 or with p in its denominator
lead_vanishes = st.builds(lambda c, k: [c, GaussRational(k * P)],
                          st.sampled_from(SMALL), st.integers(1, 3))
large = st.builds(lambda c: [GaussRational(c), GR_ONE],
                  st.integers(32768, 10 ** 6) | st.integers(-10 ** 6, -32768))
pole = st.builds(lambda c, k: [c * GaussRational(Fraction(1, k * P)), GR_ONE],
                 st.sampled_from(SMALL), st.integers(1, 3))

raw_pairs = (
    tagged(None, st.tuples(raw_polys, raw_dens)
           # q^s on both sides, s > 0 and either side's order the larger,
           # and non-monomial remainders with a common factor f, or none
           | st.builds(lambda s, t, f, a, b: (shifted(s, f, a),
                                              shifted(t, f, b)),
                       positive, positive, prime_to_q | st.just([GR_ONE]),
                       prime_to_q, prime_to_q)
           # c*q^k over a non-monomial denominator of positive order
           | st.tuples(raw_monomials, st.builds(shifted, positive,
                                                prime_to_q))
           | st.tuples(raw_monomials, raw_monomials))
    # a common real factor with small parts: read off the residues
    | tagged("reconstructed", sharing(common(real_prime_to_q),
                                      cofactors=real_prime_to_q))
    # RESIDUE_P does not decide, and a further prime does
    | tagged("large", sharing(common(large)))
    | tagged("pole", sharing(common(pole)))
    | tagged("lead vanishes", sharing(common(lead_vanishes)))
    # q - c against q - c - k*p: coprime, but equal mod p, so the
    # candidate does not divide
    | tagged("common mod p", sharing(st.builds(
        lambda c, k: ([-c, GR_ONE], [-c - GaussRational(k * P), GR_ONE]),
        st.sampled_from(REAL), st.integers(-2, 2).filter(bool))))
    | tagged("non-real", sharing(common(st.sampled_from(
        ([-GR_I, GR_ONE], [GR_I, GR_ONE, GR_ONE], [GR_ONE, GR_I]))))))


def route_of(calls) -> str:
    """The route Scalar.__init__ took, from the calls it made: the (p, r)
    of each residue map i -> r mod p, and each division."""
    maps = {args for name, args in calls if name == "_residues"}
    if any(p != P for p, _ in maps):
        return "further prime"
    if (P, P - RESIDUE_I) in maps:
        return "conjugate embedding"
    if ("_pdivmod", ()) in calls:
        return "reconstructed"
    return "proved coprime" if maps else "no gcd"


class TestCanonicalForm:
    def test_init_matches_euclid_route(self, monkeypatch):
        calls, routes = [], {}
        # each routine is counted in its own module: the residue maps of
        # the gcd are taken in qgl2.residues, the divisions in qgl2.scalars
        for module, name in ((qgl2.residues, "_residues"),
                             (qgl2.scalars, "_pdivmod")):
            def counted(*args, f=getattr(module, name), name=name):
                calls.append((name, args[1:] if name == "_residues" else ()))
                return f(*args)
            monkeypatch.setattr(module, name, counted)

        # more draws than PROPERTY, so that each case is drawn
        @settings(derandomize=True, max_examples=400, deadline=None)
        @given(pair=raw_pairs)
        def check(pair):
            num, den, case = pair
            calls.clear()
            x = Scalar(num, den)
            routes.setdefault(case, set()).add(route_of(calls))
            assert (x.num, x.den) == canonical_reference(num, den)
            assert_canonical_scalar(x)
            # tuples, trimmed or not, give the same Scalar
            assert Scalar(tuple(num), tuple(den)) == x
            assert Scalar(_pnorm(num), _pnorm(den)) == x

        check()
        # mod RESIDUE_P, a degree-0 proof or a real gcd of real sides
        # with small parts takes i -> RESIDUE_I alone; a non-real gcd
        # with small parts is read off both embeddings of i there (a
        # non-real factor times a cofactor can be real, so not every such
        # draw needs them), and each other case needs a further prime:
        # RESIDUE_P is a pole, a root of the leading coefficient or a
        # common root of coprime sides, or the parts are past 32767
        assert "proved coprime" in routes[None]
        assert "reconstructed" in routes["reconstructed"]
        for case, route in (("large", "further prime"),
                            ("pole", "further prime"),
                            ("lead vanishes", "further prime"),
                            ("common mod p", "further prime"),
                            ("non-real", "conjugate embedding")):
            assert route in routes[case], case

    def test_monomial_denominators(self):
        three, two_i = GaussRational(3), GaussRational(0, 2)
        # 3q^2 / (2i q^3) = (-3/2 i) / q: the q^2 and the 2i cancel
        x = Scalar([GR_ZERO, GR_ZERO, three], [GR_ZERO] * 3 + [two_i])
        assert x.num == (GaussRational(0, Fraction(-3, 2)),)
        assert x.den == (GR_ZERO, GR_ONE)
        # 3q^2 / (2i q) = (-3/2 i) q, a polynomial
        x = Scalar([GR_ZERO, GR_ZERO, three], [GR_ZERO, two_i, GR_ZERO])
        assert x.num == (GR_ZERO, GaussRational(0, Fraction(-3, 2)))
        assert x.den == (GR_ONE,)
        assert Scalar([GR_ZERO, GR_ZERO], [GR_ZERO, two_i]) == ZERO
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            Scalar([three], [GR_ZERO])

    @PROPERTY
    @given(x=scalars, y=scalars,
           c=st.integers(-3, 3) | rationals | coefficients)
    def test_difference_is_sum_of_negation(self, x, y, c):
        """a - b and b.__rsub__(a) are a + (-b), for a Scalar b and a
        Scalar, int, Fraction or GaussRational a, and the other way."""
        for a, b in ((x, y), (x, x), (ZERO, y), (x, ZERO), (c, y), (x, c)):
            ref = a + (-b)
            assert_canonical_scalar(ref)
            assert a - b == ref and type(a - b) is Scalar
            if isinstance(b, Scalar):
                assert b.__rsub__(a) == ref
        assert x.__rsub__("1") is NotImplemented
        assert x.__sub__(None) is NotImplemented



# planted factors q + c, c real or not, with a part past 2^64: one prime
# p < 2^64 reconstructs parts up to isqrt(p/2) < 2^32, and RESIDUE_P times
# one such prime up to 2^47
huge = st.integers(2 ** 64, 2 ** 80) | st.integers(-2 ** 80, -2 ** 64)
huge_real = huge.map(lambda n: [GaussRational(n), GR_ONE])
huge_non_real = st.builds(
    lambda a, b, d: [GaussRational(Fraction(a, d), Fraction(b, d)), GR_ONE],
    huge, huge, st.integers(1, 2 ** 70))


class TestCompleteRoute:
    """Gcds past RESIDUE_P's reach, decided from residues alone and
    checked against canonical_reference."""

    @pytest.mark.parametrize("factor", [huge_real, huge_non_real],
                             ids=["real", "non-real"])
    def test_huge_parts_combine_primes(self, monkeypatch, factor):
        primes, maps, real = set(), set(), []
        residues = qgl2.residues._residues

        def counted(poly, p=P, r=RESIDUE_I):
            primes.add(p)
            maps.add((p, r))
            return residues(poly, p, r)

        monkeypatch.setattr(qgl2.residues, "_residues", counted)

        @PROPERTY
        @given(pair=sharing(common(factor)))
        def check(pair):
            num, den = pair
            primes.clear()
            maps.clear()
            x = Scalar(num, den)
            assert (x.num, x.den) == canonical_reference(num, den)
            assert len(primes - {P}) >= 2
            # real sides have one image at both embeddings of i, so each
            # prime is mapped at one of them only
            if not any(c.b for c in num + den):
                real.append(pair)
                assert len(maps) == len(primes)

        check()
        assert real or factor is huge_non_real

    def test_a_real_candidate_is_tried_once(self, monkeypatch):
        # (q - 3)(q + 2) over (q - 3 - p)(q + 5): equal mod p = RESIDUE_P,
        # so the candidate q - 3 lifted there divides the numerator and
        # not the denominator.  The sides are real, so RESIDUE_P maps them
        # at i -> RESIDUE_I alone and builds that candidate once; the next
        # prime proves the sides coprime
        divisions = []
        pdivmod = qgl2.scalars._pdivmod

        def counted(a, b):
            divisions.append(b)
            return pdivmod(a, b)

        monkeypatch.setattr(qgl2.scalars, "_pdivmod", counted)
        g = GaussRational
        num = _pmul((g(-3), GR_ONE), (g(2), GR_ONE))
        den = _pmul((g(-3 - P), GR_ONE), (g(5), GR_ONE))
        x = Scalar(num, den)
        assert divisions == [(g(-3), GR_ONE)] * 2
        assert (x.num, x.den) == canonical_reference(num, den)

    def test_moduli(self):
        moduli = list(islice(_moduli(), 30))
        assert moduli[0] == (P, RESIDUE_I)
        for p, r in moduli:
            assert sympy.isprime(p) and p % 4 == 1 and r * r % p == p - 1
        # after RESIDUE_P, every prime p = 1 (mod 4) above 2^62 in turn
        ps = [p for p, _ in moduli[1:]]
        assert ps == [p for p in range(2 ** 62 + 1, ps[-1] + 1, 4)
                      if sympy.isprime(p)]

# ---------------------------------------------------------------------------
# generated parser input: every text parses to a Scalar or fails with a
# one-line ValueError or ZeroDivisionError, which the CLI prints as one
# "error:" line with exit 2

FUZZ = settings(derandomize=True, max_examples=400, deadline=None)


def assert_parses_or_one_line_error(text):
    try:
        assert isinstance(parse_scalar(text), Scalar)
    except (ValueError, ZeroDivisionError) as exc:
        assert str(exc) and "\n" not in str(exc)


class TestParserFuzz:
    @FUZZ
    @given(text=st.text())
    def test_any_text(self, text):
        assert_parses_or_one_line_error(text)

    @FUZZ
    @given(text=st.text(alphabet="0123456789iq+-*/^() "))
    def test_grammar_alphabet(self, text):
        assert_parses_or_one_line_error(text)
