"""Dual-backend scalar arithmetic: exact radicals and tolerant floats."""

import math
from fractions import Fraction
from random import Random

import pytest

from planicheck.scalars import (
    EXACT,
    BackendMismatchError,
    DegenerateInputError,
    ExactValueError,
    FloatBackend,
    same_backend,
)

FB = FloatBackend()


def test_exact_rational_arithmetic():
    third = EXACT.scalar(Fraction(1, 3))
    assert (third * 3).eq(1)
    assert (third + third + third).exact_value() == 1
    assert EXACT.scalar("3/7").exact_value() == Fraction(3, 7)


def test_exact_rejects_float_literals():
    with pytest.raises(TypeError):
        EXACT.scalar(0.5)


def test_perfect_square_root_collapses_to_rational():
    assert EXACT.scalar(4).sqrt().exact_value() == 2
    assert EXACT.scalar(Fraction(9, 4)).sqrt().exact_value() == Fraction(3, 2)


def test_single_radical_arithmetic():
    r2 = EXACT.scalar(2).sqrt()
    assert (r2 * r2).exact_value() == 2
    assert (r2 * EXACT.scalar(8).sqrt()).exact_value() == 4
    assert (r2 + r2).eq(EXACT.scalar(8).sqrt())
    assert (r2 - r2).exact_value() == 0
    # 1/sqrt(2) == sqrt(1/2)
    assert (EXACT.scalar(1) / r2).eq(EXACT.scalar(Fraction(1, 2)).sqrt())


def test_sum_across_distinct_radicals_raises():
    r2 = EXACT.scalar(2).sqrt()
    r3 = EXACT.scalar(3).sqrt()
    with pytest.raises(ExactValueError):
        r2 + r3
    with pytest.raises(ExactValueError):
        EXACT.scalar(1) + r2


def test_zero_plus_radical_is_fine():
    r2 = EXACT.scalar(2).sqrt()
    assert (EXACT.scalar(0) + r2).eq(r2)
    assert (r2 - 0).eq(r2)


def test_nested_radical_raises():
    with pytest.raises(ExactValueError):
        EXACT.scalar(2).sqrt().sqrt()


def test_sqrt_of_negative_raises():
    with pytest.raises(ValueError):
        EXACT.scalar(-1).sqrt()
    with pytest.raises(ValueError):
        FB.scalar(-1.0).sqrt()


def test_exact_total_order_on_radicals():
    r2 = EXACT.scalar(2).sqrt()
    r3 = EXACT.scalar(3).sqrt()
    assert r2.lt(r3)
    assert (-r2).lt(EXACT.scalar(0))
    assert r2.gt(1)
    assert r2.lt(Fraction(3, 2))
    assert EXACT.scalar(Fraction(9, 4)).sqrt().eq(Fraction(3, 2))


def test_exact_equality_agrees_with_the_total_order():
    # payloads are canonical (perfect squares collapse to rationals), so
    # equality compares them structurally; it must never disagree with lt
    rng = Random(4)
    pool = [EXACT.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(30)]
    pool += [x.sqrt() * sign for x in pool if x.sign() > 0 for sign in (1, -1)]
    # equal values built in different ways: 3/2, sqrt(1/2), sqrt(2)/4
    pool += [EXACT.scalar(Fraction(9, 4)).sqrt(), EXACT.scalar("3/2"),
             EXACT.scalar(8).sqrt() / 4, EXACT.scalar("1/2").sqrt(),
             (EXACT.scalar(1) / 8).sqrt(), EXACT.scalar(2).sqrt() / 4]
    for x in pool:
        for y in pool:
            assert x.eq(y) == (not x.lt(y) and not y.lt(x)), (x, y)


def test_exact_sign_and_zero():
    assert EXACT.scalar(0).sign() == 0
    assert EXACT.scalar(0).sign() == 0
    assert (-EXACT.scalar(3).sqrt()).sign() == -1
    assert abs(-EXACT.scalar(3).sqrt()).eq(EXACT.scalar(3).sqrt())


def test_float_relative_equality():
    big = FB.scalar(1e12)
    assert big.eq(1e12 + 1.0)          # relative slack grows with magnitude
    assert not FB.scalar(1.0).eq(1.0 + 1e-8)
    assert FB.scalar(0.0).eq(1e-10)    # floor at absolute eps
    assert FB.scalar(1e-10).sign() == 0


def test_float_strict_comparisons_respect_tolerance():
    a = FB.scalar(1.0)
    assert not a.lt(1.0 + 1e-12)
    assert a.eq(1.0 + 1e-12)
    assert a.lt(1.1)
    assert FB.scalar(2.0).gt(a)


def test_backends_do_not_mix():
    with pytest.raises(BackendMismatchError):
        EXACT.scalar(1) + FB.scalar(1.0)
    with pytest.raises(BackendMismatchError):
        FloatBackend(1e-6).scalar(1.0) + FB.scalar(1.0)



def test_equal_backends_are_one_backend():
    assert same_backend(FB, FB) and same_backend(EXACT, EXACT)
    assert same_backend(FloatBackend(1e-6), FloatBackend(1e-6))
    assert not same_backend(FloatBackend(1e-6), FB)
    assert not same_backend(EXACT, FB)
    assert (FloatBackend().scalar(1.0) + FB.scalar(2.0)).eq(3.0)


def test_radical_converts_where_its_square_overflows():
    # sqrt(2e616) fits binary64 though 2e616 does not; sqrt(2e617) does not
    assert EXACT.scalar(2 * 10 ** 616).sqrt().as_float() == pytest.approx(
        math.sqrt(2) * 1e308, rel=1e-15)
    with pytest.raises(DegenerateInputError):
        EXACT.scalar(2 * 10 ** 617).sqrt().as_float()


def test_radical_conversion_rounds_as_converting_its_square_does():
    rng = Random(5)
    for _ in range(3000):
        q = Fraction(rng.getrandbits(rng.randint(1, 1100)) + 1,
                     rng.getrandbits(rng.randint(1, 1100)) + 1)
        try:
            direct = math.sqrt(q)
        except OverflowError:
            continue
        assert EXACT.scalar(q).sqrt().as_float() == direct, q


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        EXACT.scalar(1) / EXACT.scalar(0)
    with pytest.raises(ZeroDivisionError):
        FB.scalar(1.0) / FB.scalar(0.0)


def test_division_by_radical():
    r3 = EXACT.scalar(3).sqrt()
    assert (EXACT.scalar(6) / r3).eq(EXACT.scalar(12).sqrt())
    assert (r3 / r3).exact_value() == 1


def test_exact_value_refuses_irrationals_and_floats():
    with pytest.raises(ExactValueError):
        EXACT.scalar(2).sqrt().exact_value()
    with pytest.raises(ExactValueError):
        FB.scalar(1.0).exact_value()


def test_as_float_matches_radical():
    r2 = EXACT.scalar(2).sqrt()
    assert r2.as_float() == pytest.approx(2 ** 0.5)
    assert (-r2).as_float() == pytest.approx(-(2 ** 0.5))


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        FloatBackend(0.0)
