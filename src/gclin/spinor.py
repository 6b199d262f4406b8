"""Clifford action, pure spinors, and the spinor <-> isotropic bijection.

The generators of the complexified V + V* act on forms by

    (v + f) . phi = iota_v phi + f ^ phi,

so that (v+f).(v+f).phi = f(v) phi: the Clifford square of a generator is
the evaluation f(v), the negative of the quadratic form Q(v+f) = -f(v).
A nonzero form is pure when its annihilator has the maximal dimension n,
and every pure spinor factors as c exp(u) f_1 ^ ... ^ f_k.

Each step works on data that already exists, and on the integers a
multivector stores (``Multivector.ints``): no step builds a scalar per
term.  For a form of T terms:

- ``standard_data_for_subspace`` reads (u, f_i) off the canonical RREF
  basis of E, on its integer rows: one (n-k)-square inverse and two
  products, which also decide whether E is isotropic.
- ``StandardForm.expand`` and ``spinor_product`` build c exp(u) ^ f_1
  ^ ... ^ f_k on integers (``multivector.exp_wedge_ints``): Pfaffians of
  u, at most m products per even subset of the m coordinates u lives on,
  then one pass per factor, and one more to bring the terms to one
  denominator (``multivector.from_int_terms``).
- ``is_pure`` and ``standard_form`` read the candidate factorization off
  the lowest-degree components and test it by reproducing the form:
  O(n^2) lookups plus one expansion, compared with phi by integer
  equality of the canonical storage.
- ``mukai_pairing`` is one pass over complementary masks, O(T), on both
  sides' integers; conj phi is phi with its imaginary parts negated.
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

from .core import IsotropicE, Record, _aut_of, _checked_eigenspace, _standard_data
from .fields import QI, GaussianRational, gauss_int_row, rational_from_ints
from .linalg import Matrix, Subspace
from .multivector import (
    Multivector,
    covectors_of,
    exp_wedge_ints,
    from_int_terms,
    lex_first,
    mask_to_indices,
    two_form_from_coeff,
)


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
    terms, _ = phi.ints()
    rows = {}
    for mask, (x, y) in terms.items():
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
        (cr,), (ci,), cd = gauss_int_row([self.c])
        return from_int_terms(self.n, *exp_wedge_ints(self.u, self.factors), (cr, ci, cd))


def spinor_product(u: Multivector, factors) -> Multivector:
    """exp(u) ^ f_1 ^ ... ^ f_k for a 2-form u and 1-forms f_i."""
    return from_int_terms(u.n, *exp_wedge_ints(u, factors))


def _covector_rows(factors, n):
    rows = []
    for f in factors:
        terms = f.terms
        rows.append([terms.get(1 << i, QI.zero) for i in range(n)])
    return rows


def standard_data_for_subspace(e: Subspace):
    """(u, factors) with annihilator(exp(u)^factors) = e.

    Requires e maximally isotropic; purity of the result encodes exactly
    that.  u is read off the canonical RREF basis of e as a matrix, and
    the rows whose pivot lies in V* are E intersect V* in RREF, whose
    covector parts are the factors (``core._standard_data``, which also
    decides isotropy from the pairings it forms).  Both are read into
    multivectors on their integer rows.
    """
    if e.ambient_dim % 2 or e.dim != e.ambient_dim // 2:
        raise ValueError("subspace is not half-dimensional")
    data = _standard_data(e)
    if data is None:
        raise ValueError("subspace is not isotropic")
    u, factors = data
    return two_form_from_coeff(u), covectors_of(factors)


def spinor_with_standard_form(e: Subspace):
    """(line, sf): the spinor line killed by e and the standard form of its
    normalized representative, from one computation of (u, factors).

    With the leading term a / q of exp(u) ^ f_1 ^ ... ^ f_k, the
    representative is that form times c = q conj(a) / |a|^2, on integers;
    c is the one scalar built.
    """
    u, factors = standard_data_for_subspace(e)
    terms, den = exp_wedge_ints(u, factors)
    if not terms:
        raise AssertionError("representative spinor vanished")
    lead = lex_first(terms)
    re, im = terms[lead]
    q, norm = den[lead.bit_count()], re * re + im * im
    c = GaussianRational.from_rationals(rational_from_ints(q * re, norm), rational_from_ints(-q * im, norm))
    return SpinorLine(from_int_terms(u.n, terms, den, (q * re, -q * im, norm))), StandardForm(c, u, factors)


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
    terms, den = phi.ints()
    k = min(m.bit_count() for m in terms)
    lowest = lex_first([m for m in terms if m.bit_count() == k])
    get = terms.get
    cr, ci = get(lowest)
    # a coefficient x of phi over c, on integers: x conj(c) over |c|^2
    norm = cr * cr + ci * ci
    free = [x for x in range(n) if not lowest >> x & 1]
    factors = []
    for p in mask_to_indices(lowest):
        row = {1 << p: (norm, 0)}
        rest = lowest ^ (1 << p)
        for x in free:
            coeff = get(rest | (1 << x))
            if coeff is not None:
                a, b = coeff[0] * cr + coeff[1] * ci, coeff[1] * cr - coeff[0] * ci
                # f_i[x] moves from column p past the pivots between p and x
                between = rest & ((1 << max(p, x)) - (1 << min(p, x)))
                row[1 << x] = (-a, -b) if between.bit_count() & 1 else (a, b)
        factors.append(Multivector.from_ints(n, row, norm))
    u_terms = {}
    for a, x in enumerate(free):
        for y in free[a + 1 :]:
            pair = (1 << x) | (1 << y)
            coeff = get(lowest | pair)
            if coeff is not None:
                re, im = coeff[0] * cr + coeff[1] * ci, coeff[1] * cr - coeff[0] * ci
                # f_x ^ f_y ^ f_P: f_x and f_y move past the pivots below them
                below = (lowest & ((1 << x) - 1)).bit_count() + (lowest & ((1 << y) - 1)).bit_count()
                u_terms[pair] = (-re, -im) if below & 1 else (re, im)
    u, factors = Multivector.from_ints(n, u_terms, norm), tuple(factors)
    # the candidate reproduces phi exactly when their canonical integers agree
    if from_int_terms(n, *exp_wedge_ints(u, factors), (cr, ci, den)) != phi:
        return None
    if phi.parity() is None:
        raise AssertionError("pure spinor with mixed parity")
    c = GaussianRational.from_rationals(rational_from_ints(cr, den), rational_from_ints(ci, den))
    return StandardForm(c, u, factors)


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
    minus_u = -sf.u
    for v in ann.basis.data:
        minus_iv_u = minus_u.contract(list(v)).terms
        rows.append(list(v) + [minus_iv_u.get(1 << i, QI.zero) for i in range(n)])
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
    terms_a, da = alpha.ints()
    terms_b, db = beta.ints()
    get = terms_b.get
    re = im = 0
    for m, (w, x) in terms_a.items():
        other = get(full ^ m)
        if other is None:
            continue
        y, z = other
        tr, ti = w * y - x * z, w * z + x * y
        if (m & odd).bit_count() & 1:
            re, im = re - tr, im - ti
        else:
            re, im = re + tr, im + ti
    return GaussianRational.from_rationals(rational_from_ints(re, da * db), rational_from_ints(im, da * db))


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
