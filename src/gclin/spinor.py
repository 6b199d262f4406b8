"""Clifford action, pure spinors, and the spinor <-> isotropic bijection.

The generators of the complexified V + V* act on forms by

    (v + f) . phi = iota_v phi + f ^ phi,

so that (v+f).(v+f).phi = f(v) phi: the Clifford square of a generator is
the evaluation f(v), the negative of the quadratic form Q(v+f) = -f(v).
A nonzero form is pure when its annihilator has the maximal dimension n,
and every pure spinor factors as c exp(u) f_1 ^ ... ^ f_k.

Each step works on data that already exists.  For a form of T terms:

- ``standard_data_for_subspace`` reads (u, f_i) off the canonical RREF
  basis of E: one (n-k)-square inverse and two products.
- ``StandardForm.expand`` and ``spinor_product`` build c exp(u) ^ f_1
  ^ ... ^ f_k on integers (``multivector.exp_wedge_ints``): Pfaffians of
  u, at most m products per even subset of the m coordinates u lives on,
  then one pass per factor, and one scalar per output term.
- ``is_pure`` and ``standard_form`` read the candidate factorization off
  the lowest-degree components and test it by reproducing the form:
  O(n^2) lookups plus one expansion.
- ``mukai_pairing`` is one pass over complementary masks, O(T).
- ``structure_from_spinor`` is the conversion spinor -> structure: the
  standard form, E built from it once, and J rebuilt from E's imaginary
  block.  E meets its conjugate only in 0 exactly when (phi, conj phi)
  != 0 (Chevalley's criterion, in Gualtieri's statement), so the pairing
  is a second route to E's own check, and the spinor of a structure
  must pair to nonzero with its conjugate.
- ``annihilator_subspace`` is the route for an arbitrary form: a signed
  permutation of masks per generator gives a (<= 2^n) x 2n integer matrix
  M, O(T n).  Only r of its rows are eliminated, from n (enough for a
  pure form) up to rank M <= 2n, once per row added, and every row is
  tested once for membership in their span: 2n - r dot products of
  length 2n against the span's kept null rows, O(2^n n^2).  The result is
  exact: the kernel of some rows of M contains ker M, and is contained
  in it once every row of M lies in their span.  The library calls it
  only in cross-checks and in the CLI's ``selftest``.
"""

from __future__ import annotations

from .core import IsotropicE, Record, _aut_of, _checked_eigenspace, is_isotropic, standard_two_form
from .fields import QI, GaussianRational, gauss_int_row, rational_from_ints
from .linalg import Matrix, Subspace
from .multivector import Multivector, exp_wedge_ints, from_int_terms, mask_to_indices, two_form_from_coeff


def clifford_act(x, phi: Multivector) -> Multivector:
    """Action of x = (v, f), given by 2n coordinates, on a form."""
    n = phi.n
    if len(x) != 2 * n:
        raise ValueError("generator length must be 2n")
    v = x[:n]
    f = Multivector.covector(n, x[n:])
    return phi.contract(v) + f.wedge(phi)


def annihilator_subspace(phi: Multivector) -> Subspace:
    """All x in the complexified V + V* with x . phi = 0.

    Each unit generator moves the terms of phi by a signed permutation of
    masks: e_i sends a term containing i to mask ^ bit (contraction) and
    f_i a term without i to mask | bit (wedge), both with the sign
    (-1)^popcount(mask & (bit - 1)).  The annihilator is the kernel of
    the resulting (masks x 2n) matrix M, whose rows are built on phi's
    integer coefficients over one denominator.

    Only a few rows of M are eliminated (``Subspace.from_scan``): the
    kernel of a set of rows contains ker M, and equals it once every row
    of M lies in their span.  Rows are taken lowest output degree first,
    n of them to start (ker M is isotropic, so M has rank at least n).
    The wedge columns come first in the elimination: the n rows of
    degree 1 of c exp(u) are then c [1 | +-u], in echelon form as they
    stand.
    """
    if phi.is_zero():
        raise ValueError("zero spinor has no annihilator subspace")
    n = phi.n
    width = 2 * n
    masks = list(phi.terms)
    re, im, _ = gauss_int_row([phi.terms[m] for m in masks])
    rows = {}
    for mask, x, y in zip(masks, re, im):
        for i in range(n):
            bit = 1 << i
            # column i is the wedge with f_i, column n + i the contraction with e_i
            out, col = (mask ^ bit, n + i) if mask & bit else (mask | bit, i)
            if out not in rows:
                rows[out] = ([0] * width, [0] * width)
            row_re, row_im = rows[out]
            if (mask & (bit - 1)).bit_count() & 1:
                row_re[col], row_im[col] = -x, -y
            else:
                row_re[col], row_im[col] = x, y
    z = [rows[m] for m in sorted(rows, key=lambda m: (m.bit_count(), m))]
    # ker M, the span's annihilator in (f, e) order, read in (e, f) order
    return Subspace.from_scan(Matrix.from_gaussian_ints(z, width), n).swap_orthogonal()


def is_pure(phi: Multivector) -> bool:
    """Purity: phi is the c exp(u) ^ f_1 ^ ... ^ f_k read off its
    lowest-degree components (equivalently, its annihilator has dimension n)."""
    if phi.is_zero():
        raise ValueError("zero spinor")
    return _read_standard_form(phi) is not None


class SpinorLine(Record):
    """A spinor up to scale; the stored representative is normalized."""

    rep: Multivector

    @staticmethod
    def of(phi: Multivector) -> "SpinorLine":
        if phi.is_zero():
            raise ValueError("a spinor line needs a nonzero representative")
        return SpinorLine(phi.normalized())

    @property
    def n(self) -> int:
        return self.rep.n


class StandardForm(Record):
    """Exact factorization c exp(u) f_1 ^ ... ^ f_k of a pure spinor.

    The f_i span the intersection of the annihilator with the covector
    summand; u is a complex 2-form supported away from the pivot
    coordinates of that span, which pins the factorization.
    """

    c: GaussianRational
    u: Multivector
    factors: tuple

    @property
    def n(self) -> int:
        return self.u.n

    @property
    def k(self) -> int:
        return len(self.factors)

    def expand(self) -> Multivector:
        """c * exp(u) ^ f_1 ^ ... ^ f_k."""
        return from_int_terms(self.n, *exp_wedge_ints(self.u, self.factors), self.c)


def spinor_product(u: Multivector, factors) -> Multivector:
    """exp(u) ^ f_1 ^ ... ^ f_k for a 2-form u and 1-forms f_i."""
    return from_int_terms(u.n, *exp_wedge_ints(u, factors))


def _covector_rows(factors, n):
    return [[f.terms.get(1 << i, QI.zero) for i in range(n)] for f in factors]


def standard_data_for_subspace(e: Subspace):
    """(u, factors) with annihilator(exp(u)^factors) = e.

    Requires e maximally isotropic; purity of the result encodes exactly
    that.  u is read off the canonical RREF basis of e as a matrix
    (``core.standard_two_form``), and the rows whose pivot lies in V* are
    E intersect V* in RREF, whose covector parts are the factors.
    """
    n = e.ambient_dim // 2
    if e.dim != n:
        raise ValueError("subspace is not half-dimensional")
    if not is_isotropic(e):
        raise ValueError("subspace is not isotropic")
    u = two_form_from_coeff(standard_two_form(e))
    lifts = sum(p < n for p in e.pivots)
    factors = tuple(Multivector.covector(n, row) for row in e.basis.block(lifts, e.dim, n, 2 * n).data)
    return u, factors


def spinor_with_standard_form(e: Subspace):
    """(line, sf): the spinor line killed by e and the standard form of its
    normalized representative, from one computation of (u, factors)."""
    u, factors = standard_data_for_subspace(e)
    terms, den = exp_wedge_ints(u, factors)
    if not terms:
        raise AssertionError("representative spinor vanished")
    lead = min(terms, key=mask_to_indices)
    re, im = terms[lead]
    q = den(lead)
    c = QI.one / GaussianRational(rational_from_ints(re, q), rational_from_ints(im, q))
    return SpinorLine(from_int_terms(u.n, terms, den, c)), StandardForm(c, u, factors)


def spinor_from_subspace(e: Subspace) -> SpinorLine:
    """The unique spinor line killed by a maximally isotropic subspace."""
    return spinor_with_standard_form(e)[0]


def _read_standard_form(phi: Multivector):
    """The standard form phi has if it is pure, else None.

    With k the lowest degree of phi and P the lex-first mask of that
    degree, a pure phi = c exp(u) ^ f_1 ^ ... ^ f_k has f_i in RREF with
    pivots P and u supported off P, so c = phi_P, c f_i[x] =
    +-phi_{P - {p_i} + {x}} and c u_xy = +-phi_{P + {x, y}} for x, y off
    P.  phi is pure exactly when this candidate reproduces it.
    """
    n = phi.n
    k = min(m.bit_count() for m in phi.terms)
    lowest = min((m for m in phi.terms if m.bit_count() == k), key=mask_to_indices)
    get = phi.terms.get
    c = get(lowest)
    inv = QI.one / c
    free = [x for x in range(n) if not lowest >> x & 1]
    factors = []
    for p in mask_to_indices(lowest):
        row = [QI.zero] * n
        row[p] = QI.one
        rest = lowest ^ (1 << p)
        for x in free:
            coeff = get(rest | (1 << x))
            if coeff:
                # f_i[x] moves from column p past the pivots between p and x
                between = rest & ((1 << max(p, x)) - (1 << min(p, x)))
                row[x] = -coeff * inv if between.bit_count() & 1 else coeff * inv
        factors.append(Multivector.covector(n, row))
    u_terms = {}
    for a, x in enumerate(free):
        for y in free[a + 1 :]:
            pair = (1 << x) | (1 << y)
            coeff = get(lowest | pair)
            if coeff:
                # f_x ^ f_y ^ f_P: f_x and f_y move past the pivots below them
                below = (lowest & ((1 << x) - 1)).bit_count() + (lowest & ((1 << y) - 1)).bit_count()
                u_terms[pair] = -coeff * inv if below & 1 else coeff * inv
    sf = StandardForm(c, Multivector(n, u_terms), tuple(factors))
    if sf.expand() != phi:
        return None
    if phi.parity() is None:
        raise AssertionError("pure spinor with mixed parity")
    return sf


def standard_form(phi: Multivector) -> StandardForm:
    """Factor a pure spinor exactly; raises on non-pure input."""
    if phi.is_zero():
        raise ValueError("zero spinor")
    sf = _read_standard_form(phi)
    if sf is None:
        raise ValueError("spinor is not pure")
    _annihilator_of(sf)
    return sf


def _annihilator_of(sf: StandardForm) -> Subspace:
    """subspace_from_standard_form, checked by reading sf back off it."""
    e = subspace_from_standard_form(sf)
    if standard_data_for_subspace(e) != (sf.u, sf.factors):
        raise AssertionError("standard form differs from the one of its annihilator")
    return e


def subspace_from_standard_form(sf: StandardForm) -> Subspace:
    """{v - iota_v(u) + f : v in Ann(span f_i), f in span f_i}."""
    n = sf.n
    factor_rows = _covector_rows(sf.factors, n)
    phi_span = Subspace.from_spanning(QI, n, factor_rows)
    ann = phi_span.annihilator()
    rows = []
    for v in ann.basis.data:
        minus_iv_u = (-sf.u).contract(list(v))
        cov = [minus_iv_u.terms.get(1 << i, QI.zero) for i in range(n)]
        rows.append(list(v) + cov)
    for f in factor_rows:
        rows.append([QI.zero] * n + list(f))
    return Subspace.from_spanning(QI, 2 * n, rows)


def mukai_pairing(alpha: Multivector, beta: Multivector) -> GaussianRational:
    """Top-degree coefficient of rev(alpha) ^ beta.

    Only complementary masks meet in the top degree, and for a mask m of
    degree r the reversal sign (-1)^(r(r-1)/2) times the sign of
    f_m ^ f_(~m) is (-1)^(sum of the indices in m): one pass over alpha.
    Only the vanishing behaviour on conjugate pairs is contractual; the
    overall normalization is a fixed convention of this library.
    """
    if alpha.n != beta.n:
        raise ValueError("spinors on different spaces")
    full = (1 << alpha.n) - 1
    odd = sum(1 << i for i in range(1, alpha.n, 2))
    masks = [m for m in alpha.terms if full ^ m in beta.terms]
    ar, ai, ad = gauss_int_row([alpha.terms[m] for m in masks])
    br, bi, bd = gauss_int_row([beta.terms[full ^ m] for m in masks])
    re = im = 0
    for m, w, x, y, z in zip(masks, ar, ai, br, bi):
        tr, ti = w * y - x * z, w * z + x * y
        if (m & odd).bit_count() & 1:
            re, im = re - tr, im - ti
        else:
            re, im = re + tr, im + ti
    return GaussianRational.from_rationals(
        rational_from_ints(re, ad * bd), rational_from_ints(im, ad * bd)
    )


def structure_from_spinor(phi: Multivector):
    """The structure whose +i eigenspace annihilates phi, or the label of
    the first condition phi fails: "zero", "purity" (also for odd n,
    where no structure exists) or "conjugate-pairing".

    E is built once, from phi's standard form, and passes its round-trip
    check (``_annihilator_of``).  Whether E meets its conjugate only in 0
    is decided by two routes that must agree, by Chevalley's criterion:
    E's own check (``core._checked_eigenspace``, one inversion of its
    imaginary block B) and (phi, conj phi) != 0 (``mukai_pairing``).  J is
    rebuilt from that B^-1 (``core._aut_of``) and keeps E.
    """
    if phi.is_zero():
        return "zero"
    sf = _read_standard_form(phi) if phi.n % 2 == 0 else None
    if sf is None:
        return "purity"
    e = IsotropicE(phi.n, _annihilator_of(sf))
    check, b_inv = _checked_eigenspace(e)
    if check.ok != bool(mukai_pairing(phi, phi.conjugate())):
        raise AssertionError("Mukai pairing disagrees with E meeting its conjugate")
    return _aut_of(e, b_inv) if check else "conjugate-pairing"
