"""Exterior algebra of the complexified dual space.

A multivector is a finite sum of terms c * f_{i1} ^ ... ^ f_{ik} with
exact Gaussian-rational coefficients.  Terms are keyed by bitmasks over
the index set {0, ..., n-1}; only nonzero coefficients are stored.  The
dense 2^n envelope keeps n small (tests stay at n <= 8).
"""

from __future__ import annotations

from .fields import QI, GaussianRational, rational
from .linalg import Matrix


def _wedge_sign(a: int, b: int) -> int:
    """Sign of merging two disjoint sorted index sets (masks a, b)."""
    sign = 1
    rest = a
    while rest:
        low = rest & -rest
        # indices in b below this index of a contribute one transposition each
        below = b & (low - 1)
        if bin(below).count("1") % 2:
            sign = -sign
        rest ^= low
    return sign


def _contract_sign(mask: int, i: int) -> int:
    below = mask & ((1 << i) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def mask_to_indices(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def indices_to_mask(indices) -> int:
    """Bitmask of 0-based indices; an index given twice is a ValueError."""
    mask = 0
    for i in indices:
        bit = 1 << i
        if mask & bit:
            raise ValueError("repeated index in term")
        mask |= bit
    return mask


class Multivector:
    """Element of the exterior algebra on n dual generators over Q(i)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        if terms:
            for mask, coeff in terms.items():
                coeff = QI.coerce(coeff)
                if coeff:
                    if mask < 0 or mask >= (1 << n):
                        raise ValueError("term outside the algebra")
                    clean[mask] = coeff
        self.terms = clean

    @staticmethod
    def zero(n: int) -> "Multivector":
        return Multivector(n)

    @staticmethod
    def scalar(n: int, c) -> "Multivector":
        return Multivector(n, {0: c})

    @staticmethod
    def covector(n: int, coords) -> "Multivector":
        """Degree-1 element with the given dual coordinates."""
        return Multivector(n, {1 << i: c for i, c in enumerate(coords)})

    @staticmethod
    def top(n: int) -> "Multivector":
        return Multivector(n, {(1 << n) - 1: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for mask, c in other.terms.items():
            s = terms.get(mask, QI.zero) + c
            if s:
                terms[mask] = s
            else:
                terms.pop(mask, None)
        return Multivector(self.n, terms)

    def __neg__(self):
        return Multivector(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Multivector":
        c = QI.coerce(c)
        if not c:
            return Multivector.zero(self.n)
        return Multivector(self.n, {m: c * v for m, v in self.terms.items()})

    def wedge(self, other: "Multivector") -> "Multivector":
        self._check(other)
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                mask = ma | mb
                c = ca * cb
                if _wedge_sign(ma, mb) < 0:
                    c = -c
                s = terms.get(mask, QI.zero) + c
                if s:
                    terms[mask] = s
                else:
                    terms.pop(mask, None)
        return Multivector(self.n, terms)

    def contract(self, coords) -> "Multivector":
        """Interior product with the vector having the given coordinates."""
        if len(coords) != self.n:
            raise ValueError("vector length mismatch")
        terms = {}
        for mask, c in self.terms.items():
            rest = mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                rest ^= low
                vi = QI.coerce(coords[i])
                if not vi:
                    continue
                new_mask = mask ^ low
                add = vi * c
                if _contract_sign(mask, i) < 0:
                    add = -add
                s = terms.get(new_mask, QI.zero) + add
                if s:
                    terms[new_mask] = s
                else:
                    terms.pop(new_mask, None)
        return Multivector(self.n, terms)

    def grades(self):
        return sorted({bin(m).count("1") for m in self.terms})

    def parity(self):
        """0 for even, 1 for odd, None for mixed or zero."""
        gs = {g % 2 for g in self.grades()}
        if len(gs) == 1:
            return gs.pop()
        return None

    def reversal(self) -> "Multivector":
        """Degree-j part scaled by (-1)^(j(j-1)/2)."""
        terms = {}
        for m, c in self.terms.items():
            j = bin(m).count("1")
            if (j * (j - 1) // 2) % 2:
                c = -c
            terms[m] = c
        return Multivector(self.n, terms)

    def conjugate(self) -> "Multivector":
        return Multivector(self.n, {m: c.conjugate() for m, c in self.terms.items()})

    def exp(self) -> "Multivector":
        """Exponential of a 2-form (nilpotent, so the sum is finite)."""
        if self.grades() not in ([], [2]):
            raise ValueError("exp is defined for homogeneous 2-forms")
        out = Multivector.scalar(self.n, 1)
        power = Multivector.scalar(self.n, 1)
        fact = 1
        for m in range(1, self.n // 2 + 1):
            power = power.wedge(self)
            if power.is_zero():
                break
            fact *= m
            out = out + power.scale(rational(1) / fact)
        return out

    def top_coefficient(self) -> GaussianRational:
        return self.terms.get((1 << self.n) - 1, QI.zero)

    def leading_term(self):
        """(mask, coeff) with the lexicographically first sorted index tuple."""
        if not self.terms:
            raise ValueError("zero multivector has no leading term")
        best = min(self.terms, key=lambda m: tuple(mask_to_indices(m)))
        return best, self.terms[best]

    def normalized(self) -> "Multivector":
        """Scale so the leading coefficient is one (line representative)."""
        _, c = self.leading_term()
        return self.scale(QI.one / c)

    def proportional_to(self, other: "Multivector") -> bool:
        if self.n != other.n:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.normalized() == other.normalized()

    def _check(self, other: "Multivector"):
        if self.n != other.n:
            raise ValueError("multivectors live on different spaces")

    def __repr__(self):
        if not self.terms:
            return "Multivector(0)"
        bits = []
        for m in sorted(self.terms, key=lambda m: tuple(mask_to_indices(m))):
            idx = "^".join(f"f{i + 1}" for i in mask_to_indices(m)) or "1"
            bits.append(f"({self.terms[m]})*{idx}")
        return " + ".join(bits)


def two_form_from_coeff(matrix: Matrix) -> Multivector:
    """2-form sum_{i<j} c[i][j] f_i ^ f_j from a coefficient matrix.

    Only the upper triangle is read; the matrix is expected skew.
    """
    n = matrix.rows
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = QI.coerce(matrix.data[i][j])
            if c:
                terms[(1 << i) | (1 << j)] = c
    return Multivector(n, terms)


def two_form_coeff(mv: Multivector) -> Matrix:
    """Full antisymmetric coefficient matrix of a 2-form."""
    if mv.grades() not in ([], [2]):
        raise ValueError("not a homogeneous 2-form")
    n = mv.n
    m = Matrix.zero(QI, n, n)
    for mask, c in mv.terms.items():
        i, j = mask_to_indices(mask)
        m.data[i][j] = c
        m.data[j][i] = -c
    return m
