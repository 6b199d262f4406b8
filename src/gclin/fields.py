"""Exact scalars: rationals and Gaussian rationals.

Real scalars are ``fractions.Fraction``.  The acceptance suite's runtime
budgets are met with it because ``linalg`` stores matrices as rows of
plain integers and builds scalars only where a caller reads entries, one
per entry, through ``rational_from_ints``.  Complex scalars are
``GaussianRational`` pairs, closed under field operations and
conjugation.  Everything here is immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

_ratio = Fraction


def rational(x):
    """Coerce ints, strings like '3/4' and Fraction-likes to a rational."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return _ratio(x)
    if isinstance(x, str):
        try:
            return _ratio(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {x!r}") from exc
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rational_from_ints(num, den=1):
    """The reduced rational num/den (den != 0)."""
    return _ratio(num, den)


def int_row(row):
    """(ints, den) with rationals row = ints / den and gcd(den, *ints) = 1."""
    dens = [x.denominator for x in row]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // d) for x, d in zip(row, dens)], den


def gauss_int_row(row):
    """(re, im, den) with Gaussian rationals row = (re + i*im) / den."""
    re, re_den = int_row([x.re for x in row])
    im, im_den = int_row([x.im for x in row])
    if re_den == im_den:
        return re, im, re_den
    den = lcm(re_den, im_den)
    return [x * (den // re_den) for x in re], [x * (den // im_den) for x in im], den


def format_rational(x) -> str:
    """Canonical 'p/q' string, q > 0, reduced (storage keeps it reduced)."""
    return f"{x.numerator}/{x.denominator}"


class GaussianRational:
    """Element of Q(i), stored as exact real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", rational(re))
        object.__setattr__(self, "im", rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def from_rationals(re, im) -> "GaussianRational":
        """re + im*i from two rationals that are already Fractions.

        Skips the coercion of ``__init__``: for results of arithmetic on
        parts, and for kernels that build parts with ``rational_from_ints``.
        """
        z = object.__new__(GaussianRational)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    def __add__(self, other):
        other = QI.coerce(other)
        return GaussianRational.from_rationals(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational.from_rationals(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QI.coerce(other))

    def __rsub__(self, other):
        return QI.coerce(other) + (-self)

    def __mul__(self, other):
        other = QI.coerce(other)
        return GaussianRational.from_rationals(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QI.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussianRational.from_rationals(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return QI.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational.from_rationals(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (Fraction, int)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


I = GaussianRational(0, 1)


class _RationalField:
    """Field tag for Q carried by matrices and subspaces."""

    name = "Q"
    zero = rational(0)
    one = rational(1)

    @staticmethod
    def coerce(x):
        return rational(x)


class _GaussianField:
    """Field tag for Q(i); ``coerce`` also serves ``GaussianRational`` arithmetic."""

    name = "Qi"
    zero = GaussianRational(0)
    one = GaussianRational(1)

    @staticmethod
    def coerce(x) -> GaussianRational:
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(rational(x))


QQ = _RationalField()
QI = _GaussianField()
