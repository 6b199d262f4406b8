"""Exterior algebra of the complexified dual space.

A multivector is a finite sum of terms c * f_{i1} ^ ... ^ f_{ik} with
exact Gaussian-rational coefficients.  Terms are keyed by bitmasks over
the index set {0, ..., n-1}.  A form has up to 2^n terms, so the CLI
refuses spinor work above n = 16.

Storage.  A multivector is stored the way ``linalg`` stores a row: a
dict from mask to (re, im) integers over one positive denominator, the
coefficient of the mask being (re + i*im) / den.  The storage is
canonical, ``den > 0``, ``gcd(den, *re, *im) == 1`` and no term with
re = im = 0, so equal multivectors have equal dicts and ``==`` and
``hash`` compare integers.  Scalars appear only at the edge: the
constructor takes them in, and ``terms`` builds them out on each read,
as a read-only mapping that is not kept.  ``from_ints`` and ``ints``
take the integers in and out as they are, and no other module reads
the storage.

``wedge`` multiplies term by term.  ``exp`` of a 2-form, and its wedge
with 1-forms, run on the stored integers (``exp_wedge_ints``): each
coefficient of exp(u) is a Pfaffian, at most m products per even subset
of the m coordinates u lives on, and each 1-form costs one pass over the
terms; ``from_int_terms`` brings the result to one denominator.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from types import MappingProxyType

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


def mask_to_indices(mask: int):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def lex_first(masks) -> int:
    """The mask, of a nonempty collection, whose sorted index list is
    lexicographically first: the lowest first index, then among those the
    lowest second index, a list ending first where they agree."""
    chosen, rest = 0, set(masks)
    while 0 not in rest:
        low = min(m & -m for m in rest)
        chosen |= low
        rest = {m ^ low for m in rest if m & low and not m & (low - 1)}
    return chosen


def indices_to_mask(indices) -> int:
    """Bitmask of 0-based indices; an index given twice is a ValueError."""
    mask = 0
    for i in indices:
        bit = 1 << i
        if mask & bit:
            raise ValueError("repeated index in term")
        mask |= bit
    return mask


def _reduced(n, terms, den) -> "Multivector":
    """The multivector of nonzero integer terms over den != 0, made canonical."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(terms.values()))
        if den < 0:
            g = -g
        if g != 1:
            terms = {m: (re // g, im // g) for m, (re, im) in terms.items()}
            den //= g
    return Multivector._stored(n, terms, den)


def _nonzero_in(n, pairs):
    """{mask: (re, im)} of the pairs that are not zero; their masks must lie
    in the algebra on n generators."""
    kept = {m: (re, im) for m, (re, im) in pairs if re or im}
    if kept and (min(kept) < 0 or max(kept) >> n):
        raise ValueError("term outside the algebra")
    return kept


def _accumulate(terms, mask, re, im):
    """Add (re, im) to the term at mask, dropping it when it cancels."""
    if mask in terms:
        r0, i0 = terms[mask]
        re, im = re + r0, im + i0
        if not (re or im):
            del terms[mask]
            return
    terms[mask] = (re, im)


class Multivector:
    """Element of the exterior algebra on n dual generators over Q(i),
    stored as canonical integer terms (see the module docstring)."""

    __slots__ = ("n", "_t", "_d")

    def __init__(self, n: int, terms=None):
        terms = terms or {}
        # canonical, zero terms dropped or not: den is the lcm of the
        # nonzero coefficients' reduced denominators
        re, im, den = gauss_int_row([QI.coerce(c) for c in terms.values()])
        self.n = n
        self._t = _nonzero_in(n, zip(terms, zip(re, im)))
        self._d = den

    @staticmethod
    def _stored(n, terms, den) -> "Multivector":
        """A multivector over already canonical integer terms."""
        mv = object.__new__(Multivector)
        mv.n = n
        mv._t = terms
        mv._d = den
        return mv

    @staticmethod
    def from_ints(n: int, terms, den: int = 1) -> "Multivector":
        """The multivector with coefficient (re + i*im) / den at each mask
        of terms {mask: (re, im)}, integers taken as handed over."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        return _reduced(n, _nonzero_in(n, terms.items()), den)

    def ints(self):
        """(terms, den): the stored {mask: (re, im)}, read-only, and den."""
        return MappingProxyType(self._t), self._d

    @property
    def terms(self):
        """{mask: coefficient} as exact scalars, built anew on each read
        (no second copy is kept) and read-only."""
        d = self._d
        return MappingProxyType(
            {
                m: GaussianRational.from_rationals(rational_from_ints(re, d), rational_from_ints(im, d))
                for m, (re, im) in self._t.items()
            }
        )

    @staticmethod
    def zero(n: int) -> "Multivector":
        return Multivector._stored(n, {}, 1)

    @staticmethod
    def scalar(n: int, c) -> "Multivector":
        return Multivector(n, {0: c})

    @staticmethod
    def covector(n: int, coords) -> "Multivector":
        """Degree-1 element with the given dual coordinates."""
        return Multivector(n, {1 << i: c for i, c in enumerate(coords)})

    @staticmethod
    def top(n: int) -> "Multivector":
        return Multivector._stored(n, {(1 << n) - 1: (1, 0)}, 1)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self._d == other._d and self._t == other._t

    def __hash__(self):
        return hash((self.n, self._d, frozenset(self._t.items())))

    def __add__(self, other):
        self._check(other)
        den = lcm(self._d, other._d)
        fa, fb = den // self._d, den // other._d
        terms = {m: (re * fa, im * fa) for m, (re, im) in self._t.items()}
        for m, (re, im) in other._t.items():
            _accumulate(terms, m, re * fb, im * fb)
        return _reduced(self.n, terms, den)

    def __neg__(self):
        return Multivector._stored(self.n, {m: (-re, -im) for m, (re, im) in self._t.items()}, self._d)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Multivector":
        c = QI.coerce(c)
        if not c:
            return Multivector.zero(self.n)
        (cr,), (ci,), cd = gauss_int_row([c])
        terms = {m: (re * cr - im * ci, re * ci + im * cr) for m, (re, im) in self._t.items()}
        return _reduced(self.n, terms, self._d * cd)

    def wedge(self, other: "Multivector") -> "Multivector":
        self._check(other)
        terms = {}
        for ma, (ar, ai) in self._t.items():
            for mb, (br, bi) in other._t.items():
                if ma & mb:
                    continue
                re, im = ar * br - ai * bi, ar * bi + ai * br
                if _wedge_sign(ma, mb) < 0:
                    re, im = -re, -im
                _accumulate(terms, ma | mb, re, im)
        return _reduced(self.n, terms, self._d * other._d)

    def contract(self, coords) -> "Multivector":
        """Interior product with the vector having the given coordinates."""
        if len(coords) != self.n:
            raise ValueError("vector length mismatch")
        vr, vi, vd = gauss_int_row([QI.coerce(x) for x in coords])
        terms = {}
        for mask, (re, im) in self._t.items():
            rest = mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                rest ^= low
                a, b = vr[i], vi[i]
                if not (a or b):
                    continue
                tr, ti = a * re - b * im, a * im + b * re
                # iota_v f_mask: f_i moves past the indices of mask below i
                if (mask & (low - 1)).bit_count() & 1:
                    tr, ti = -tr, -ti
                _accumulate(terms, mask ^ low, tr, ti)
        return _reduced(self.n, terms, self._d * vd)

    def grades(self):
        return sorted({m.bit_count() for m in self._t})

    def parity(self):
        """0 for even, 1 for odd, None for mixed or zero."""
        gs = {g % 2 for g in self.grades()}
        if len(gs) == 1:
            return gs.pop()
        return None

    def reversal(self) -> "Multivector":
        """Degree-j part scaled by (-1)^(j(j-1)/2): negated for j = 2, 3 mod 4."""
        terms = {m: (-re, -im) if m.bit_count() & 2 else (re, im) for m, (re, im) in self._t.items()}
        return Multivector._stored(self.n, terms, self._d)

    def conjugate(self) -> "Multivector":
        """The sign of every imaginary part flipped, which keeps the storage canonical."""
        return Multivector._stored(self.n, {m: (re, -im) for m, (re, im) in self._t.items()}, self._d)

    def exp(self) -> "Multivector":
        """Exponential of a 2-form u: the coefficient of f_S is Pf(u_S)."""
        return from_int_terms(self.n, *exp_wedge_ints(self))

    def _lead(self) -> int:
        """The mask with the lexicographically first sorted index tuple."""
        if not self._t:
            raise ValueError("zero multivector has no leading term")
        return lex_first(self._t)

    def leading_term(self):
        """(mask, coeff) with the lexicographically first sorted index tuple."""
        best = self._lead()
        (re, im), d = self._t[best], self._d
        return best, GaussianRational.from_rationals(rational_from_ints(re, d), rational_from_ints(im, d))

    def normalized(self) -> "Multivector":
        """Scale so the leading coefficient is one (line representative):
        with the leading term a / den, the terms times conj(a) over |a|^2."""
        cr, ci = self._t[self._lead()]
        terms = {m: (re * cr + im * ci, im * cr - re * ci) for m, (re, im) in self._t.items()}
        return _reduced(self.n, terms, cr * cr + ci * ci)

    def _check(self, other: "Multivector"):
        if self.n != other.n:
            raise ValueError("multivectors live on different spaces")

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "Multivector(0)"
        bits = []
        for indices, m in sorted((mask_to_indices(m), m) for m in terms):
            idx = "^".join(f"f{i + 1}" for i in indices) or "1"
            bits.append(f"({terms[m]})*{idx}")
        return " + ".join(bits)


def exp_wedge_ints(u: Multivector, factors=()):
    """exp(u) ^ f_1 ^ ... ^ f_k on integers, for a 2-form u and 1-forms f_i.

    Returns (terms, den): the coefficient of f_S is (re + i im) / den[|S|]
    for terms[S] = (re, im), nonzero terms only.  The coefficient of f_S
    in exp(u) is the Pfaffian Pf(u_S).  With D the stored denominator of
    u, one pass over the even subsets S of u's support, in increasing
    order, expands each Pf(D u_S) along the smallest index of S: at most
    |S| integer products per subset.  Each f_i is then wedged on as
    stored, over its denominator d_i, so den[2m + k] = D^m d_1 ... d_k.
    """
    if u.grades() not in ([], [2]):
        raise ValueError("exp is defined for homogeneous 2-forms")
    # the term u_ij f_i ^ f_j (i < j), keyed by f_i's bit
    partners = {}
    support = 0
    for mask, (a, b) in u._t.items():
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
        if f.n != u.n or any(not m or m & (m - 1) for m in f._t):
            raise ValueError("factors must be 1-forms on the space of u")
        wedged = {}
        for mask, (pr, pi) in terms.items():
            for bit, (a, b) in f._t.items():
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
        scale *= f._d
    k = len(factors)
    return terms, [u._d ** ((g - k) // 2) * scale if g >= k else 1 for g in range(u.n + 1)]


def from_int_terms(n: int, terms, den, c=(1, 0, 1)) -> Multivector:
    """c times the form (terms, den) of exp_wedge_ints, for c = (re + i*im) / d
    given as the integers (re, im, d) != 0: each degree's terms are scaled
    to the lcm L of the degrees' denominators, and the result is over L d."""
    cr, ci, cd = c
    degrees = {m.bit_count() for m in terms}
    common = lcm(*[den[g] for g in degrees])
    fold = {g: (cr * (common // den[g]), ci * (common // den[g])) for g in degrees}
    out = {}
    for mask, (re, im) in terms.items():
        fr, fi = fold[mask.bit_count()]
        out[mask] = (re * fr - im * fi, re * fi + im * fr)
    return _reduced(n, out, common * cd)


def two_form_from_coeff(matrix: Matrix) -> Multivector:
    """2-form sum_{i<j} c[i][j] f_i ^ f_j from a coefficient matrix.

    Only the upper triangle is read, on the matrix's integer rows
    (``Matrix.to_gaussian_ints``); the matrix is expected skew.
    """
    rows = matrix.to_gaussian_ints()
    den = lcm(*[d for _, _, d in rows])
    terms = {}
    for i, (re, im, d) in enumerate(rows):
        f = den // d
        for j in range(i + 1, matrix.cols):
            if re[j] or im[j]:
                terms[(1 << i) | (1 << j)] = (re[j] * f, im[j] * f)
    return _reduced(matrix.rows, terms, den)


def covectors_of(matrix: Matrix) -> tuple:
    """The 1-forms whose coordinates are the rows of a matrix, read on its
    integer rows (``Matrix.to_gaussian_ints``), one per row."""
    return tuple(
        _reduced(matrix.cols, {1 << i: (x, y) for i, (x, y) in enumerate(zip(re, im)) if x or y}, d)
        for re, im, d in matrix.to_gaussian_ints()
    )
