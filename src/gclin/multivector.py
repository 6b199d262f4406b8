"""Exterior algebra of the complexified dual space.

A multivector is a finite sum of terms c * f_{i1} ^ ... ^ f_{ik} with
exact Gaussian-rational coefficients.  Terms are keyed by bitmasks over
the index set {0, ..., n-1}; only nonzero coefficients are stored.  A
form has up to 2^n terms, so the CLI refuses spinor work above n = 16.
``wedge`` multiplies term by term (T_a * T_b scalar products).  ``exp``
of a 2-form, and its wedge with 1-forms, instead run on integers
(``exp_wedge_ints``): each coefficient of exp(u) is a Pfaffian, at most
m products per even subset of the m coordinates u lives on, each 1-form
costs one pass over the terms, and one scalar is built per output term.
"""

from __future__ import annotations

from .fields import QI, GaussianRational, gauss_int_row, rational_from_ints
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
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
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
        """Exponential of a 2-form u: the coefficient of f_S is Pf(u_S)."""
        return from_int_terms(self.n, *exp_wedge_ints(self))

    def leading_term(self):
        """(mask, coeff) with the lexicographically first sorted index tuple."""
        if not self.terms:
            raise ValueError("zero multivector has no leading term")
        # index lists compare lexicographically, like the tuples they hold
        best = min(self.terms, key=mask_to_indices)
        return best, self.terms[best]

    def normalized(self) -> "Multivector":
        """Scale so the leading coefficient is one (line representative)."""
        _, c = self.leading_term()
        return self.scale(QI.one / c)

    def _check(self, other: "Multivector"):
        if self.n != other.n:
            raise ValueError("multivectors live on different spaces")

    def __repr__(self):
        if not self.terms:
            return "Multivector(0)"
        bits = []
        for indices, m in sorted((mask_to_indices(m), m) for m in self.terms):
            idx = "^".join(f"f{i + 1}" for i in indices) or "1"
            bits.append(f"({self.terms[m]})*{idx}")
        return " + ".join(bits)


def exp_wedge_ints(u: Multivector, factors=()):
    """exp(u) ^ f_1 ^ ... ^ f_k on integers, for a 2-form u and 1-forms f_i.

    Returns (terms, den): the coefficient of f_S is (re + i im) / den(S)
    for terms[S] = (re, im), nonzero terms only.  The coefficient of f_S
    in exp(u) is the Pfaffian Pf(u_S).  With D the common denominator of
    u's coefficients, one pass over the even subsets S of u's support, in
    increasing order, expands each Pf(D u_S) along the smallest index of
    S: at most |S| integer products per subset.  Each f_i is then wedged
    on in integer form, scaled by the common denominator d_i of its
    coefficients, so den(S) = D^m d_1 ... d_k for |S| = 2m + k.
    """
    if u.grades() not in ([], [2]):
        raise ValueError("exp is defined for homogeneous 2-forms")
    res, ims, d_u = gauss_int_row(list(u.terms.values()))
    # the term u_ij f_i ^ f_j (i < j), keyed by f_i's bit
    partners = {}
    support = 0
    for mask, a, b in zip(u.terms, res, ims):
        low = mask & -mask
        partners.setdefault(low, []).append((mask ^ low, a, b))
        support |= mask
    terms = {0: (1, 0)}
    sub = 0
    while True:
        sub = (sub - support) & support
        if not sub:
            break
        if sub.bit_count() & 1:
            continue
        low = sub & -sub
        rest = sub ^ low
        re = im = 0
        for bit, a, b in partners.get(low, ()):
            if rest & bit and rest ^ bit in terms:
                pr, pi = terms[rest ^ bit]
                tr, ti = a * pr - b * pi, a * pi + b * pr
                # sign (-1)^(indices of S strictly between i and j)
                if (rest & (bit - 1)).bit_count() & 1:
                    re, im = re - tr, im - ti
                else:
                    re, im = re + tr, im + ti
        if re or im:
            terms[sub] = (re, im)
    scale = 1
    for f in factors:
        if f.n != u.n or any(not m or m & (m - 1) for m in f.terms):
            raise ValueError("factors must be 1-forms on the space of u")
        res, ims, d = gauss_int_row(list(f.terms.values()))
        entries = list(zip(f.terms, res, ims))
        wedged = {}
        for mask, (pr, pi) in terms.items():
            for bit, a, b in entries:
                if mask & bit:
                    continue
                tr, ti = pr * a - pi * b, pr * b + pi * a
                # f_mask ^ f_x: f_x moves past the indices of mask above x
                if (mask & -(bit << 1)).bit_count() & 1:
                    tr, ti = -tr, -ti
                t = mask | bit
                if t in wedged:
                    tr, ti = tr + wedged[t][0], ti + wedged[t][1]
                wedged[t] = (tr, ti)
        terms = {m: v for m, v in wedged.items() if v[0] or v[1]}
        scale *= d
    k = len(factors)
    return terms, lambda mask: d_u ** ((mask.bit_count() - k) // 2) * scale


def from_int_terms(n: int, terms, den, c=1) -> Multivector:
    """c times the form (terms, den) of exp_wedge_ints, one scalar per term."""
    (cr,), (ci,), cd = gauss_int_row([QI.coerce(c)])
    out = {}
    for mask, (re, im) in terms.items():
        q = den(mask) * cd
        out[mask] = GaussianRational.from_rationals(
            rational_from_ints(re * cr - im * ci, q), rational_from_ints(re * ci + im * cr, q)
        )
    return Multivector(n, out)


def two_form_from_coeff(matrix: Matrix) -> Multivector:
    """2-form sum_{i<j} c[i][j] f_i ^ f_j from a coefficient matrix.

    Only the upper triangle is read; the matrix is expected skew.
    """
    terms = {(1 << i) | (1 << j): x for (i, j), x in matrix.upper_entries().items()}
    return Multivector(matrix.rows, terms)

