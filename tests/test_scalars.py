"""Exact scalar arithmetic: Gaussian rationals, rational functions in q,
and the round-tripping text encoding."""

from fractions import Fraction

import pytest

from qgl2.scalars import (GaussRational, I, ONE, Q, Scalar, ZERO,
                          parse_scalar, q_integer, scalar)


class TestGaussRational:
    def test_construction_and_equality(self):
        a = GaussRational(Fraction(1, 2), Fraction(3))
        assert a.re == Fraction(1, 2) and a.im == 3
        assert GaussRational(2) == GaussRational(Fraction(2), Fraction(0))
        assert GaussRational(2) == 2
        assert GaussRational(1, 1) != GaussRational(1, -1)

    def test_arithmetic(self):
        a = GaussRational(1, 2)
        b = GaussRational(3, -1)
        # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
        assert a * b == GaussRational(5, 5)
        assert a + b == GaussRational(4, 1)
        assert a - b == GaussRational(-2, 3)
        assert -a == GaussRational(-1, -2)
        assert a * 0 == GaussRational(0)

    def test_inverse_and_division(self):
        a = GaussRational(3, 4)
        inv = a.inverse()
        assert inv == GaussRational(Fraction(3, 25), Fraction(-4, 25))
        assert a * inv == GaussRational(1)
        assert (GaussRational(1) / GaussRational(0, 1)) == GaussRational(0, -1)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            GaussRational(0).inverse()

    def test_pow(self):
        i = GaussRational(0, 1)
        assert i ** 2 == GaussRational(-1)
        assert i ** 0 == GaussRational(1)

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

    def test_is_constant(self):
        assert scalar(5).is_constant()
        assert not Q.is_constant()
        assert ((Q + 1) - Q).is_constant()

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
        for bad in ("", "q +", "(q", "q^", "3i", "q**2", "x"):
            with pytest.raises(ValueError, match="parse error"):
                parse_scalar(bad)

    def test_exponent_bound(self):
        assert parse_scalar("q^1000") == Q ** 1000
        assert parse_scalar("q^-1000") == Q ** -1000
        assert parse_scalar("(q^500)^2") == Q ** 1000
        for bad in ("q^1001", "(q+1)^1001", "(q^2)^501", "(1/q^2)^-501",
                    "2^1001"):
            with pytest.raises(ValueError, match="power of degree over 1000"):
                parse_scalar(bad)

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

    def test_division_by_zero_literal(self):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            parse_scalar("1/0")
