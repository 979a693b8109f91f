"""Dual-backend scalar arithmetic.

Two backends underlie every predicate in this package:

* ``EXACT``: normalized rationals, extended by values of the form
  ``sign * sqrt(q)`` for rational ``q`` so that angle cosines and side
  lengths of rational-coordinate figures stay exactly representable.
  No nested radicals and no sums across distinct radicals; such results
  raise ``ExactValueError`` loudly instead of approximating.
* ``FloatBackend(eps)``: binary64 with a relative comparison tolerance.
  Its one tolerance rule is ``vanishes(value, scale, degree)``:
  |value| <= eps * scale^degree for a quantity of that degree in lengths.
  ``eq`` is |a-b| vanishing at scale max(1, |a|, |b|), degree 1 (reflexive
  and symmetric); ``sign`` is 0 when the value vanishes at scale 1.

A backend owns every decision that differs between the two: coercing an
operand, ``eq``/``lt``/``sign``, ``sqrt`` and ``vanishes``.  Each
``Scalar`` operator applies its payloads' own arithmetic (float, Fraction,
or the radical ``_Sqrt``) and never asks which backend it is on.  Values
from different backends never mix; arithmetic between them raises
``BackendMismatchError`` rather than coercing.

``Scalar`` is the API at the package boundary.  Inside, the kernel
predicates, ``measure``/``congruent_any`` and ``solve_ssa`` compute on the
payloads (``Scalar._v``) and wrap only the values they hand out: every
decision, zero tests included, goes to the backend object (``eq``,
``sign``, ``sqrt``, ``vanishes``) on payloads, and ``common_backend``
checks two objects before their payloads meet, so a Fraction never meets a
float silently.  Exact payloads are canonical (a radical whose square is a
perfect square collapses to a Fraction), so exact equality is structural.
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


class _Sqrt(NamedTuple):
    """Canonical irrational payload ``sign * sqrt(square)``: square > 0 and
    not a perfect square (perfect squares collapse to Fraction in
    ``_mk_exact``).  Its operators mix with Fraction and int operands and
    raise ``ExactValueError`` where a result leaves the representable set."""

    sign: int
    square: Fraction

    def __float__(self):
        # sqrt(q) = 2^k sqrt(q / 4^k): a square too large for binary64 is
        # scaled down first, so that a root which fits still converts; below
        # 2^1000 the square converts as it is, unscaled
        q = self.square
        k = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
        if k < 500:
            return self.sign * math.sqrt(q)
        return self.sign * math.ldexp(math.sqrt(q / (1 << 2 * k)), k)

    def __neg__(self):
        return _Sqrt(-self.sign, self.square)

    def __add__(self, other):
        if isinstance(other, _Sqrt):
            if other.square != self.square:
                raise ExactValueError("sum of distinct radicals is not representable")
            c = self.sign + other.sign
            return _mk_exact((c > 0) - (c < 0), Fraction(c * c) * self.square)
        if other == 0:
            return self
        raise ExactValueError("sum of a rational and a radical is not representable")

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _Sqrt):
            return _mk_exact(self.sign * other.sign, self.square * other.square)
        return _mk_exact(_exact_sign(other) * self.sign, other * other * self.square)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1 / other)

    def __rtruediv__(self, other):
        return _mk_exact(self.sign, 1 / self.square) * other


def _mk_exact(sign: int, square: Fraction):
    """sign * sqrt(square) for square >= 0; a Fraction when rational."""
    if sign == 0 or square == 0:
        return Fraction(0)
    rn, rd = math.isqrt(square.numerator), math.isqrt(square.denominator)
    if rn * rn == square.numerator and rd * rd == square.denominator:
        return sign * Fraction(rn, rd)
    return _Sqrt(sign, square)


def _exact_sign(x) -> int:
    if isinstance(x, _Sqrt):
        return x.sign
    n = x.numerator  # a Fraction's denominator is positive
    return (n > 0) - (n < 0)


def _exact_cmp(x, y) -> int:
    """Total order on exact payloads (Fraction or _Sqrt)."""
    xs, ys = _exact_sign(x), _exact_sign(y)
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


@dataclass(frozen=True)
class ExactBackend:
    """Zero-tolerance backend over the rationals plus single square roots."""

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if not same_backend(value.backend, self):
                raise BackendMismatchError("scalar belongs to a different backend")
            return value
        if isinstance(value, float):
            raise TypeError("exact backend takes int, Fraction or str, not float")
        return Scalar(self, Fraction(value))

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot combine Scalar with {type(value).__name__}")

    def vanishes(self, value, scale: float, degree: int) -> bool:
        """Exact zero; the scale of the configuration plays no part."""
        return _exact_sign(value) == 0

    def eq(self, x, y) -> bool:
        # canonical payloads: equal values are equal Fractions or equal
        # (sign, square) pairs, and a Fraction never equals a radical
        return x == y

    def lt(self, x, y) -> bool:
        return _exact_cmp(x, y) < 0

    sign = staticmethod(_exact_sign)

    def sqrt(self, v):
        if _exact_sign(v) < 0:
            raise ValueError("square root of a negative value")
        if isinstance(v, _Sqrt):
            raise ExactValueError("nested radicals are not representable")
        return _mk_exact(1, v)


@dataclass(frozen=True)
class FloatBackend:
    """binary64 backend; eps is the relative comparison tolerance."""

    eps: float = 1e-9

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if not same_backend(value.backend, self):
                raise BackendMismatchError("scalar belongs to a different backend")
            return value
        return Scalar(self, to_float(value))

    def coerce(self, value):
        if isinstance(value, (int, Fraction, float)):
            return float(value)
        raise TypeError(f"cannot combine Scalar with {type(value).__name__}")

    def vanishes(self, value, scale: float, degree: int) -> bool:
        """|value| <= eps * scale^degree: zero for a quantity homogeneous of
        ``degree`` in lengths, measured in a configuration of size ``scale``.
        A scale whose power overflows is a degenerate input."""
        try:
            bound = self.eps * scale ** degree
        except OverflowError:
            raise DegenerateInputError(
                f"a degree-{degree} quantity at size {scale:g} is too large "
                "for binary64") from None
        return abs(value) <= bound

    def eq(self, x, y) -> bool:
        return self.vanishes(x - y, max(1.0, abs(x), abs(y)), 1)

    def lt(self, x, y) -> bool:
        return x < y and not self.eq(x, y)

    def sign(self, v) -> int:
        if self.vanishes(v, 1.0, 1):
            return 0
        return 1 if v > 0.0 else -1

    def sqrt(self, v):
        if v < 0.0:
            raise ValueError("square root of a negative value")
        return math.sqrt(v)


EXACT = ExactBackend()

Backend = Union[ExactBackend, FloatBackend]


def same_backend(x: Backend, y: Backend) -> bool:
    """Whether values of backends ``x`` and ``y`` may meet: the identity
    test settles the usual case without the dataclass ``__eq__``."""
    return x is y or x == y


def common_backend(x: Backend, y: Backend) -> Backend:
    """``x``, once ``same_backend`` has allowed the payloads of ``x`` and
    ``y`` to meet; the check a function makes before it compares payloads
    read from two objects."""
    if not same_backend(x, y):
        raise BackendMismatchError(f"cannot mix {x!r} and {y!r}")
    return x


def to_float(payload) -> float:
    """A payload as binary64; one too large for it is a degenerate input."""
    try:
        return float(payload)
    except OverflowError:
        raise DegenerateInputError(
            "a value is too large for binary64") from None


_set = object.__setattr__


class Scalar:
    """One number tied to one backend.  Immutable."""

    __slots__ = ("backend", "_v")

    def __init__(self, backend: Backend, payload):
        _set(self, "backend", backend)
        _set(self, "_v", payload)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- plumbing ---------------------------------------------------------

    def _mate(self, other):
        """The payload of ``other`` on this scalar's backend."""
        if isinstance(other, Scalar):
            # same_backend's identity test, inlined: this is the hot path
            if other.backend is not self.backend:
                common_backend(self.backend, other.backend)
            return other._v
        return self.backend.coerce(other)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.backend, ExactBackend)

    def as_float(self) -> float:
        return to_float(self._v)

    def exact_value(self) -> Fraction:
        """The rational payload; raises if the value is irrational or float."""
        if not isinstance(self._v, Fraction):
            raise ExactValueError("value has no rational representation")
        return self._v

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return Scalar(self.backend, self._v + self._mate(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.backend, self._v - self._mate(other))

    def __rsub__(self, other):
        return Scalar(self.backend, self._mate(other) - self._v)

    def __mul__(self, other):
        return Scalar(self.backend, self._v * self._mate(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.backend, self._v / self._mate(other))

    def __rtruediv__(self, other):
        return Scalar(self.backend, self._mate(other) / self._v)

    def __neg__(self):
        return Scalar(self.backend, -self._v)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def sqrt(self) -> "Scalar":
        return Scalar(self.backend, self.backend.sqrt(self._v))

    # -- comparisons (tolerance-aware on the float backend) ---------------

    def eq(self, other) -> bool:
        return self.backend.eq(self._v, self._mate(other))

    def lt(self, other) -> bool:
        return self.backend.lt(self._v, self._mate(other))

    def gt(self, other) -> bool:
        return self.backend.lt(self._mate(other), self._v)

    def sign(self) -> int:
        return self.backend.sign(self._v)

    def vanishes(self, scale: float, degree: int) -> bool:
        """Zero as a quantity of ``degree`` in lengths, in a configuration
        of size ``scale``; see ``FloatBackend.vanishes``."""
        return self.backend.vanishes(self._v, scale, degree)

    # structural equality (use .eq for tolerance-aware comparison)
    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and same_backend(self.backend, other.backend)
                and self._v == other._v)

    def __hash__(self):
        return hash((self.backend, self._v))

    def __repr__(self):
        v = self._v
        if isinstance(v, _Sqrt):
            pre = "-" if v.sign < 0 else ""
            return f"Scalar({pre}sqrt({v.square}))"
        return f"Scalar({v})"
