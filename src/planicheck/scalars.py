"""Dual-backend scalar arithmetic.

Two backends underlie every predicate in this package:

* ``EXACT``: normalized rationals, extended by values of the form
  ``sign * sqrt(q)`` for rational ``q`` so that angle cosines and side
  lengths of rational-coordinate figures stay exactly representable.
  No nested radicals and no sums across distinct radicals; such results
  raise ``ExactValueError`` loudly instead of approximating.  The
  rational payload is the private ``_Rational``, a gcd-reduced integer
  pair; ``Fraction`` appears only at the boundary: ``payload`` and
  ``scalar`` take it (and a str), and ``exact_value`` returns one.
* ``FloatBackend(eps)``: binary64 with a relative comparison tolerance.
  Its one tolerance rule is ``vanishes(value, scale, degree)``:
  |value| <= eps * scale^degree for a quantity of that degree in lengths.
  ``eq`` is |a-b| vanishing at scale max(1, |a|, |b|), degree 1 (reflexive
  and symmetric); ``sign`` is 0 when the value vanishes at scale 1.  Both
  apply the degree-1 case written out, which decides alike because a first
  power cannot overflow.

A backend owns every decision that differs between the two: turning a
number into a payload (``payload``, which ``scalar`` wraps, so there is one
conversion rule; it returns a payload of the backend as it is, so the
records that hold payloads rebuild through their one constructor, and it
refuses a ``Scalar``), ``eq``/``lt``/``sign``, ``sqrt``, ``cosine`` (the
float backend takes a degree-4 root as two degree-2 ones where the product
leaves the normal binary64 range), ``vanishes`` and ``size``, the
configuration size ``vanishes`` scales by (the exact backend ignores it and
never converts a payload to binary64 for it).  The backends are
``Record``s.  Payload arithmetic is the payloads' own (float,
``_Rational``, or the radical ``_Sqrt``) and never asks which backend it is
on, and no module outside this one asks either: the exact payloads alone
decide what is representable, raising ``ExactValueError`` where a result
leaves the rationals plus single radicals.  ``is_rational`` tells a
rational exact payload from a radical.  Values from different backends
never mix; arithmetic between them raises ``BackendMismatchError`` rather
than coercing.

Every layer below the command line computes on raw payloads, as the
kernels of Hert et al. ("An adaptable and extensible geometry kernel", CGTA
38, 2007) compute on the number type their kernel names: ``kernel.Point``,
``kernel.Isometry``, ``ssa.SsaSpec``, ``congruence.TriangleElements`` and
the SSA verdicts hold one backend and payloads, the predicates, ``measure``
and ``solve_ssa`` return payloads, and every decision, zero tests included,
goes to the backend object (``eq``, ``sign``, ``sqrt``, ``vanishes``) on
payloads; ``common_backend`` checks two objects before their payloads meet,
so a rational never meets a float silently.  Exact payloads are canonical
(rationals in lowest terms, and a radical whose square is a perfect square
collapses to a rational), so exact equality is structural.

``Scalar`` is the number type of the command boundary alone: a ``Record``
of one backend and one payload, so it compares and hashes structurally and
copies and pickles, whose operators take another ``Scalar`` of the same
backend.  The ``ssa`` command computes the values it prints in it, and
``SsaSpec``'s three views wrap a payload in one on each read.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union

from .errors import DegenerateInputError, ExactValueError
from .record import Record, setters


class BackendMismatchError(TypeError):
    """Two values from different backends met in one expression."""


class LengthMismatchError(ValueError):
    """Two segments required to have equal length do not."""


_MIN_NORMAL = sys.float_info.min  # the least positive normal binary64 value


class _Rational:
    """Exact rational payload ``numerator / denominator``: coprime ints with
    a positive denominator, so equal values have equal fields.  Its
    operators take ``_Rational``, int and ``Fraction`` operands (on the
    right of ``/`` and ``<`` only), order by ``<`` alone, hash, convert and
    print as ``Fraction`` does, and leave a ``_Sqrt`` operand to the
    ``_Sqrt`` operators."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        # the caller passes coprime ints, denominator > 0
        self.numerator = numerator
        self.denominator = denominator

    def __add__(self, other):
        if other.__class__ is not _Rational:
            other = _rational(other)
        if other is None:
            return NotImplemented
        return _add(self.numerator, self.denominator,
                    other.numerator, other.denominator)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not _Rational:
            other = _rational(other)
        if other is None:
            return NotImplemented
        return _add(self.numerator, self.denominator,
                    -other.numerator, other.denominator)

    def __rsub__(self, other):
        other = _rational(other)
        if other is None:
            return NotImplemented
        return _add(other.numerator, other.denominator,
                    -self.numerator, self.denominator)

    def __mul__(self, other):
        if other.__class__ is not _Rational:
            other = _rational(other)
        if other is None:
            return NotImplemented
        return _mul(self.numerator, self.denominator,
                    other.numerator, other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not _Rational:
            other = _rational(other)
        if other is None:
            return NotImplemented
        return _div(self.numerator, self.denominator,
                    other.numerator, other.denominator)

    def __neg__(self):
        return _Rational(-self.numerator, self.denominator)

    def _cross(self, other):
        """(self.n * other.d, other.n * self.d), whose order is the order
        of the two values; None for an operand that is not rational."""
        if other.__class__ is not _Rational:
            other = _rational(other)
        if other is None:
            return None
        return (self.numerator * other.denominator,
                other.numerator * self.denominator)

    def __eq__(self, other):
        if other.__class__ is _Rational:
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] == pair[1]

    def __lt__(self, other):
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __hash__(self):
        # equal to the hash of the equal Fraction and int; hashing is rare
        return hash(Fraction(self.numerator, self.denominator))

    def __float__(self):
        # correctly rounded, as Fraction converts
        return self.numerator / self.denominator

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"_Rational({self.numerator}, {self.denominator})"


def _rational(x):
    """An int or Fraction operand as a ``_Rational``; None for any other."""
    if isinstance(x, int):
        return _Rational(int(x), 1)
    if isinstance(x, Fraction):
        return _Rational(x.numerator, x.denominator)
    return None


# Knuth's gcd-reduced rational operations (TAOCP 2, 4.5.1), on the fields
# of two operands in lowest terms with positive denominators: each result
# comes out in lowest terms with a positive denominator, zero as 0/1.

def _add(na: int, da: int, nb: int, db: int) -> _Rational:
    g = gcd(da, db)
    if g == 1:
        return _Rational(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _Rational(t, s * db)
    return _Rational(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> _Rational:
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _Rational(na * nb, da * db)


def _div(na: int, da: int, nb: int, db: int) -> _Rational:
    if nb == 0:
        raise ZeroDivisionError("division of a rational by zero")
    if nb < 0:
        nb, db = -nb, -db
    return _mul(na, da, db, nb)


_ZERO = _Rational(0, 1)


class _Sqrt(NamedTuple):
    """Canonical irrational payload ``sign * sqrt(square)``: square > 0 and
    not a perfect square (perfect squares collapse to a ``_Rational`` in
    ``_mk_exact``).  Its operators mix with ``_Rational`` and int operands
    and raise ``ExactValueError`` where a result leaves the representable
    set."""

    sign: int
    square: _Rational

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
            return _mk_exact((c > 0) - (c < 0), c * c * self.square)
        if _exact_sign(other) == 0:
            return self
        raise ExactValueError("sum of a rational and a radical is not representable")

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    # a rational r != 0 times or over a radical is a radical: were r^2 q or
    # r^2 / q a perfect square, so would q be

    def __mul__(self, other):
        if isinstance(other, _Sqrt):
            return _mk_exact(self.sign * other.sign, self.square * other.square)
        sign = _exact_sign(other) * self.sign
        return _Sqrt(sign, other * other * self.square) if sign else _ZERO

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Sqrt):
            return _mk_exact(self.sign * other.sign, self.square / other.square)
        # a zero divisor raises from the rational division
        return _Sqrt(_exact_sign(other) * self.sign,
                     self.square / (other * other))

    def __rtruediv__(self, other):
        # the dividend's square as a _Rational, an int's too, so that the
        # rational division divides it
        sign = _exact_sign(other) * self.sign
        if not sign:
            return _ZERO
        return _Sqrt(sign, _Rational(other.numerator ** 2,
                                     other.denominator ** 2) / self.square)


def _mk_exact(sign: int, square: _Rational):
    """sign * sqrt(square) for square >= 0; a ``_Rational`` when rational."""
    if sign == 0 or square.numerator == 0:
        return _ZERO
    n, d = square.numerator, square.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        # the roots of coprime squares are coprime
        return _Rational(sign * rn, rd)
    return _Sqrt(sign, square)


def _exact_sign(x) -> int:
    if isinstance(x, _Sqrt):
        return x.sign
    n = x.numerator  # a rational's denominator is positive
    return (n > 0) - (n < 0)


def _exact_cmp(x, y) -> int:
    """Total order on exact payloads (``_Rational``, int or ``_Sqrt``)."""
    xs, ys = _exact_sign(x), _exact_sign(y)
    if xs != ys:
        return -1 if xs < ys else 1
    if xs == 0:
        return 0
    # the squares as _Rationals, an int's too, so that < orders them
    xq = (x.square if isinstance(x, _Sqrt)
          else _Rational(x.numerator ** 2, x.denominator ** 2))
    yq = (y.square if isinstance(y, _Sqrt)
          else _Rational(y.numerator ** 2, y.denominator ** 2))
    if xq == yq:
        # equal squares and equal signs; distinct payload kinds cannot collide
        # because perfect squares never stay in _Sqrt form
        return 0
    lt = xq < yq if xs > 0 else yq < xq
    return -1 if lt else 1


def is_rational(payload) -> bool:
    """Whether an exact payload is rational (not a radical)."""
    return payload.__class__ is _Rational


class _Backend(Record):
    """What the two backends share: ``scalar``, which wraps the backend's
    ``payload`` of a value, the one rule that turns an input into a
    payload."""

    __slots__ = ()

    def scalar(self, value) -> "Scalar":
        """``value``, a number or a payload of this backend, as a
        ``Scalar`` of it."""
        return Scalar(self, self.payload(value))


class ExactBackend(_Backend):
    """Zero-tolerance backend over the rationals plus single square roots."""

    __slots__ = ()

    def payload(self, value):
        """``value`` as a payload: a payload as it is, an int, ``Fraction``
        or str as a ``_Rational``; a float, or a ``Scalar``, raises."""
        if isinstance(value, (_Rational, _Sqrt)):
            return value  # a payload of this backend already
        if isinstance(value, float):
            raise TypeError("exact backend takes int, Fraction or str, not float")
        q = _rational(value)
        if q is None:
            f = Fraction(value)  # a str, or raises
            q = _Rational(f.numerator, f.denominator)
        return q

    def size(self, *values) -> float:
        """The scale ``vanishes`` takes, which it ignores: 1, without
        converting a payload to binary64 (one may not fit)."""
        return 1.0

    def vanishes(self, value, scale: float, degree: int) -> bool:
        """Exact zero; the scale of the configuration plays no part."""
        return _exact_sign(value) == 0

    def eq(self, x, y) -> bool:
        # canonical payloads: equal values are equal rationals or equal
        # (sign, square) pairs, and a rational never equals a radical
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

    def cosine(self, dot, p, q):
        """dot / sqrt(p q): the cosine between two vectors from their dot
        product and squared lengths, one radical over the rationals."""
        return dot / self.sqrt(p * q)


class FloatBackend(_Backend):
    """binary64 backend; eps is the relative comparison tolerance."""

    __slots__ = ("eps",)

    def __init__(self, eps: float = 1e-9):
        if not eps > 0:
            raise ValueError("eps must be positive")
        _set_eps(self, eps)

    def payload(self, value):
        """``value`` as a binary64 payload; a ``Scalar`` raises."""
        # to_float, in this frame; a value that overflows goes through it
        # again, for its error
        try:
            return float(value)
        except OverflowError:
            return to_float(value)

    def size(self, *values) -> float:
        """Configuration size of coordinate payloads, the ``scale`` of
        ``vanishes``: the largest magnitude, floored at 1."""
        s = 1.0
        for v in values:
            m = abs(v)
            if m > s:
                s = m
        return s

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

    # eq, lt and sign apply vanishes at degree 1, written out: a first power
    # cannot overflow, so the bound is eps * scale with no check.  The scale
    # max(1, |x|, |y|) is formed by the builtin max's own two > tests, which
    # keep 1 against a NaN, without the cost of calling it

    def eq(self, x, y) -> bool:
        m, n = abs(x), abs(y)
        m = m if m > 1.0 else 1.0
        return abs(x - y) <= self.eps * (n if n > m else m)

    def lt(self, x, y) -> bool:
        if not x < y:
            return False
        m, n = abs(x), abs(y)
        m = m if m > 1.0 else 1.0
        return not abs(x - y) <= self.eps * (n if n > m else m)

    def sign(self, v) -> int:
        if abs(v) <= self.eps:
            return 0
        return 1 if v > 0.0 else -1

    def sqrt(self, v):
        if v < 0.0:
            raise ValueError("square root of a negative value")
        return math.sqrt(v)

    def cosine(self, dot, p, q):
        """dot / sqrt(p q), the cosine between two vectors from their dot
        product and squared lengths.  The product p q is of degree 4 in
        lengths, so it leaves binary64 at sides past about 1e77 (it
        overflows, and the cosine would read 0) or below about 1e-77 (it
        underflows, and the division would fail); there, and only there,
        the root is taken as sqrt(p) sqrt(q), of degree 2.  A cosine that
        even that cannot form is a degenerate input."""
        pq = p * q
        if _MIN_NORMAL <= pq < math.inf:
            return dot / math.sqrt(pq)
        root = math.sqrt(p) * math.sqrt(q)
        if not _MIN_NORMAL <= root < math.inf:
            raise DegenerateInputError(
                "an angle's cosine at these sizes is out of binary64 range")
        return dot / root


_set_eps, = setters(FloatBackend)

EXACT = ExactBackend()

Backend = Union[ExactBackend, FloatBackend]


def same_backend(x: Backend, y: Backend) -> bool:
    """Whether values of backends ``x`` and ``y`` may meet: the identity
    test settles the usual case without the record ``__eq__``."""
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


class Scalar(Record):
    """One number tied to one backend.  A ``Record``: immutable, and
    ``==``/``hash`` compare structurally, by backend and payload (use
    ``eq`` for the tolerance-aware comparison)."""

    __slots__ = ("backend", "_v")

    def __init__(self, backend: Backend, payload):
        # its own two-field __init__: Record's takes names and checks counts,
        # and this is the hot path
        _set_scalar_backend(self, backend)
        _set_v(self, payload)

    # -- plumbing ---------------------------------------------------------

    def _mate(self, other: "Scalar"):
        """The payload of the ``Scalar`` ``other``, once its backend may
        meet this one's."""
        # same_backend's identity test, inlined
        if other.backend is not self.backend:
            common_backend(self.backend, other.backend)
        return other._v

    def as_float(self) -> float:
        return to_float(self._v)

    def exact_value(self) -> Fraction:
        """The value as a Fraction; raises if it is irrational or float."""
        v = self._v
        if not is_rational(v):
            raise ExactValueError("value has no rational representation")
        return Fraction(v.numerator, v.denominator)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return Scalar(self.backend, self._v + self._mate(other))

    def __sub__(self, other):
        return Scalar(self.backend, self._v - self._mate(other))

    def __mul__(self, other):
        return Scalar(self.backend, self._v * self._mate(other))

    def __truediv__(self, other):
        return Scalar(self.backend, self._v / self._mate(other))

    def sqrt(self) -> "Scalar":
        return Scalar(self.backend, self.backend.sqrt(self._v))

    # -- comparisons (tolerance-aware on the float backend) ---------------

    def eq(self, other) -> bool:
        return self.backend.eq(self._v, self._mate(other))

    def gt(self, other) -> bool:
        return self.backend.lt(self._mate(other), self._v)

    def __repr__(self):
        v = self._v
        if isinstance(v, _Sqrt):
            pre = "-" if v.sign < 0 else ""
            return f"Scalar({pre}sqrt({v.square}))"
        return f"Scalar({v})"


_set_scalar_backend, _set_v = setters(Scalar)
