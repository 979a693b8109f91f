"""Dual-backend scalar arithmetic.

Two backends underlie every predicate in this package:

* ``EXACT``: normalized rationals, extended by values of the form
  ``sign * sqrt(q)`` for rational ``q`` so that angle cosines and side
  lengths of rational-coordinate figures stay exactly representable.
  No nested radicals and no sums across distinct radicals; such results
  raise ``ExactValueError`` loudly instead of approximating.
* ``FloatBackend(eps)``: binary64 with a relative comparison tolerance.
  ``eq`` is reflexive and symmetric: |a-b| <= eps * max(1, |a|, |b|).

Values from different backends never mix; arithmetic between them raises
``BackendMismatchError`` rather than coercing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union


class BackendMismatchError(TypeError):
    """Two values from different backends met in one expression."""


class DegenerateInputError(ValueError):
    """Geometrically degenerate input (collinear triangle, zero segment, ...)."""


class ExactValueError(ArithmeticError):
    """An exact result would leave the representable set (rationals plus single radicals)."""


class LengthMismatchError(ValueError):
    """Two segments required to have equal length do not."""


def _fraction_isqrt(q: Fraction):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class _Sqrt(NamedTuple):
    # canonical irrational payload: sign * sqrt(square), square > 0 and not a
    # perfect square (perfect squares collapse to Fraction at construction)
    sign: int
    square: Fraction


def _mk_exact(sign: int, square: Fraction):
    if sign == 0 or square == 0:
        return Fraction(0)
    root = _fraction_isqrt(square)
    if root is not None:
        return sign * root
    return _Sqrt(sign, square)


def _exact_cmp(x, y) -> int:
    """Total order on exact payloads (Fraction or _Sqrt)."""
    xs = x.sign if isinstance(x, _Sqrt) else (x > 0) - (x < 0)
    ys = y.sign if isinstance(y, _Sqrt) else (y > 0) - (y < 0)
    if xs != ys:
        return -1 if xs < ys else 1
    if xs == 0:
        return 0
    xq = x.square if isinstance(x, _Sqrt) else x * x
    yq = y.square if isinstance(y, _Sqrt) else y * y
    if xq == yq:
        # equal squares and equal signs; distinct payload kinds cannot collide
        # because perfect squares never stay in _Sqrt form
        return 0
    lt = xq < yq if xs > 0 else xq > yq
    return -1 if lt else 1


def _exact_add(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    if isinstance(x, _Sqrt) and isinstance(y, _Sqrt):
        if x.square == y.square:
            c = x.sign + y.sign
            return _mk_exact((c > 0) - (c < 0), Fraction(c * c) * x.square)
        raise ExactValueError("sum of distinct radicals is not representable")
    frac, root = (x, y) if isinstance(x, Fraction) else (y, x)
    if frac == 0:
        return root
    raise ExactValueError("sum of a rational and a radical is not representable")


def _exact_mul(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    if isinstance(x, _Sqrt) and isinstance(y, _Sqrt):
        return _mk_exact(x.sign * y.sign, x.square * y.square)
    frac, root = (x, y) if isinstance(x, Fraction) else (y, x)
    if frac == 0:
        return Fraction(0)
    s = 1 if frac > 0 else -1
    return _mk_exact(s * root.sign, frac * frac * root.square)


def _exact_div(x, y):
    if isinstance(y, Fraction):
        if y == 0:
            raise ZeroDivisionError("division by exact zero")
        return _exact_mul(x, Fraction(1) / y)
    inv = _mk_exact(y.sign, Fraction(1) / y.square)
    return _exact_mul(x, inv)


def _exact_neg(x):
    if isinstance(x, Fraction):
        return -x
    return _Sqrt(-x.sign, x.square)


@dataclass(frozen=True)
class ExactBackend:
    """Zero-tolerance backend over the rationals plus single square roots."""

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.backend != self:
                raise BackendMismatchError("scalar belongs to a different backend")
            return value
        if isinstance(value, float):
            raise TypeError("exact backend takes int, Fraction or str, not float")
        return Scalar(self, Fraction(value))

    def __repr__(self):
        return "ExactBackend()"


@dataclass(frozen=True)
class FloatBackend:
    """binary64 backend; eps is the relative comparison tolerance."""

    eps: float = 1e-9

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.backend != self:
                raise BackendMismatchError("scalar belongs to a different backend")
            return value
        return Scalar(self, float(value))


EXACT = ExactBackend()

Backend = Union[ExactBackend, FloatBackend]


class Scalar:
    """One number tied to one backend.  Immutable."""

    __slots__ = ("backend", "_v")

    def __init__(self, backend: Backend, payload):
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_v", payload)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- plumbing ---------------------------------------------------------

    def _mate(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.backend != self.backend:
                raise BackendMismatchError(
                    f"cannot mix {self.backend!r} and {other.backend!r}")
            return other
        if isinstance(other, int) or isinstance(other, Fraction):
            if isinstance(self.backend, FloatBackend):
                return Scalar(self.backend, float(other))
            return Scalar(self.backend, Fraction(other))
        if isinstance(other, float) and isinstance(self.backend, FloatBackend):
            return Scalar(self.backend, other)
        raise TypeError(f"cannot combine Scalar with {type(other).__name__}")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.backend, ExactBackend)

    def as_float(self) -> float:
        v = self._v
        if isinstance(v, _Sqrt):
            return v.sign * math.sqrt(v.square)
        return float(v)

    def exact_value(self) -> Fraction:
        """The rational payload; raises if the value is irrational or float."""
        if not self.is_exact or not isinstance(self._v, Fraction):
            raise ExactValueError("value has no rational representation")
        return self._v

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._mate(other)
        if self.is_exact:
            return Scalar(self.backend, _exact_add(self._v, o._v))
        return Scalar(self.backend, self._v + o._v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._mate(other)
        if self.is_exact:
            return Scalar(self.backend, _exact_add(self._v, _exact_neg(o._v)))
        return Scalar(self.backend, self._v - o._v)

    def __rsub__(self, other):
        return self._mate(other) - self

    def __mul__(self, other):
        o = self._mate(other)
        if self.is_exact:
            return Scalar(self.backend, _exact_mul(self._v, o._v))
        return Scalar(self.backend, self._v * o._v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._mate(other)
        if self.is_exact:
            return Scalar(self.backend, _exact_div(self._v, o._v))
        if o._v == 0.0:
            raise ZeroDivisionError("division by float zero")
        return Scalar(self.backend, self._v / o._v)

    def __rtruediv__(self, other):
        return self._mate(other) / self

    def __neg__(self):
        if self.is_exact:
            return Scalar(self.backend, _exact_neg(self._v))
        return Scalar(self.backend, -self._v)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def sqrt(self) -> "Scalar":
        if not self.is_exact:
            if self._v < 0.0:
                raise ValueError("square root of a negative value")
            return Scalar(self.backend, math.sqrt(self._v))
        v = self._v
        if isinstance(v, _Sqrt):
            if v.sign < 0:
                raise ValueError("square root of a negative value")
            raise ExactValueError("nested radicals are not representable")
        if v < 0:
            raise ValueError("square root of a negative value")
        return Scalar(self.backend, _mk_exact(1, v))

    # -- comparisons (tolerance-aware on the float backend) ---------------

    def eq(self, other) -> bool:
        o = self._mate(other)
        if self.is_exact:
            return _exact_cmp(self._v, o._v) == 0
        a, b = self._v, o._v
        return abs(a - b) <= self.backend.eps * max(1.0, abs(a), abs(b))

    def lt(self, other) -> bool:
        o = self._mate(other)
        if self.is_exact:
            return _exact_cmp(self._v, o._v) < 0
        return self._v < o._v and not self.eq(o)

    def gt(self, other) -> bool:
        return self._mate(other).lt(self)

    def is_zero(self) -> bool:
        if self.is_exact:
            return self._v == 0
        return abs(self._v) <= self.backend.eps

    def sign(self) -> int:
        if self.is_exact:
            v = self._v
            if isinstance(v, _Sqrt):
                return v.sign
            return (v > 0) - (v < 0)
        if self.is_zero():
            return 0
        return 1 if self._v > 0.0 else -1

    # structural equality (use .eq for tolerance-aware comparison)
    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.backend == other.backend
                and self._v == other._v)

    def __hash__(self):
        return hash((self.backend, self._v))

    def __repr__(self):
        v = self._v
        if isinstance(v, _Sqrt):
            pre = "-" if v.sign < 0 else ""
            return f"Scalar({pre}sqrt({v.square}))"
        return f"Scalar({v})"
