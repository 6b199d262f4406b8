"""Clifford action, pure spinors, and the spinor <-> isotropic bijection.

The generators of the complexified V + V* act on forms by

    (v + f) . phi = iota_v phi + f ^ phi,

so that (v+f).(v+f).phi = f(v) phi: the Clifford square of a generator is
the evaluation f(v), the negative of the quadratic form Q(v+f) = -f(v).
A nonzero form is pure when its annihilator has the maximal dimension n,
and every pure spinor factors as c exp(u) f_1 ^ ... ^ f_k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import covector_summand, is_isotropic
from .fields import QI, GaussianRational
from .linalg import Matrix, Subspace, vec_dot
from .multivector import Multivector


def clifford_act(x, phi: Multivector) -> Multivector:
    """Action of x = (v, f), given by 2n coordinates, on a form."""
    n = phi.n
    if len(x) != 2 * n:
        raise ValueError("generator length must be 2n")
    v = x[:n]
    f = Multivector.covector(n, x[n:])
    return phi.contract(v) + f.wedge(phi)


def clifford_square_scalar(x):
    """f(v) for x = (v, f): the scalar with x.x.phi = f(v) phi."""
    n = len(x) // 2
    return QI.coerce(vec_dot(x[:n], x[n:]))


def annihilator_subspace(phi: Multivector) -> Subspace:
    """All x in the complexified V + V* with x . phi = 0."""
    if phi.is_zero():
        raise ValueError("zero spinor has no annihilator subspace")
    n = phi.n
    images = [clifford_act(unit, phi) for unit in Matrix.identity(QI, 2 * n).data]
    masks = sorted({m for img in images for m in img.terms})
    rows = [[img.terms.get(m, QI.zero) for img in images] for m in masks]
    return Matrix(QI, rows, cols=2 * n).kernel()


def is_pure(phi: Multivector) -> bool:
    """Purity: the annihilator is maximally isotropic (dimension n)."""
    if phi.is_zero():
        raise ValueError("zero spinor")
    pure = annihilator_subspace(phi).dim == phi.n
    if pure and phi.parity() is None:
        raise AssertionError("pure spinor with mixed parity")
    return pure


@dataclass(frozen=True)
class SpinorLine:
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

    def __eq__(self, other):
        if not isinstance(other, SpinorLine):
            return NotImplemented
        return self.rep == other.rep


@dataclass(frozen=True)
class StandardForm:
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
        return spinor_product(self.u, self.factors).scale(self.c)


def spinor_product(u: Multivector, factors) -> Multivector:
    """exp(u) ^ f_1 ^ ... ^ f_k for a 2-form u and 1-forms f_i."""
    out = u.exp()
    for f in factors:
        out = out.wedge(f)
    return out


def _covector_rows(factors, n):
    return [[f.terms.get(1 << i, QI.zero) for i in range(n)] for f in factors]


def standard_data_for_subspace(e: Subspace):
    """(u, factors) with annihilator(exp(u)^factors) = e.

    Requires e maximally isotropic; purity of the result encodes exactly
    that.  The 2-form u is the unique one supported on the non-pivot dual
    coordinates whose restriction to the vector part of e matches the
    covector parts of lifted basis vectors.
    """
    n = e.ambient_dim // 2
    if e.dim != n:
        raise ValueError("subspace is not half-dimensional")
    if not is_isotropic(e):
        raise ValueError("subspace is not isotropic")
    rows = e.basis.data

    # covector-only part: factors f_1..f_k
    phi_part = e.intersect(covector_summand(n))
    factor_rows = [row[n:] for row in phi_part.basis.data]
    k = len(factor_rows)

    # vector part rho(E) and lifts (v_a, g_a) in E
    proj = Subspace.from_spanning(QI, n, [row[:n] for row in rows])
    if proj.dim != n - k:
        raise AssertionError("projection dimension violates maximal isotropy")
    et = e.basis.transpose()
    top = et.block(0, n, 0, e.dim)
    combos = []
    for v in proj.basis.data:
        combo = top.solve(list(v))
        if combo is None:
            raise AssertionError("vector part is not attained")
        combos.append(combo)
    lifts = (Matrix(QI, combos, cols=e.dim) @ e.basis).data

    # u lives on the free dual coordinates of span(f_i)
    phi_span = Subspace.from_spanning(QI, n, factor_rows)
    free = [c for c in range(n) if c not in phi_span.pivots]
    pairs = [(free[a], free[b]) for a in range(len(free)) for b in range(a + 1, len(free))]
    vecs = proj.basis.data
    eqs = []
    rhs = []
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            va, vb = vecs[a], vecs[b]
            eqs.append([va[x] * vb[y] - va[y] * vb[x] for x, y in pairs])
            rhs.append(-vec_dot(lifts[a][n:], vb))
    u_terms = {}
    if pairs:
        sol = Matrix(QI, eqs, cols=len(pairs)).solve(rhs)
        if sol is None:
            raise AssertionError("no compatible 2-form; subspace not isotropic?")
        for (x, y), c in zip(pairs, sol):
            if c:
                u_terms[(1 << x) | (1 << y)] = c
    u = Multivector(n, u_terms)
    factors = tuple(Multivector.covector(n, row) for row in factor_rows)
    return u, factors


def spinor_from_subspace(e: Subspace) -> SpinorLine:
    """The unique spinor line killed by a maximally isotropic subspace."""
    phi = spinor_product(*standard_data_for_subspace(e))
    if phi.is_zero():
        raise AssertionError("representative spinor vanished")
    return SpinorLine.of(phi)


def standard_form(phi: Multivector) -> StandardForm:
    """Factor a pure spinor exactly; raises on non-pure input."""
    if phi.is_zero():
        raise ValueError("zero spinor")
    e = annihilator_subspace(phi)
    if e.dim != phi.n:
        raise ValueError("spinor is not pure")
    u, factors = standard_data_for_subspace(e)
    base = spinor_product(u, factors)
    mask, lead = base.leading_term()
    c = phi.terms.get(mask, QI.zero) / lead
    if not c or base.scale(c) != phi:
        raise AssertionError("factorization failed to reproduce the spinor")
    return StandardForm(c, u, factors)


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

    Only the vanishing behaviour on conjugate pairs is contractual; the
    overall normalization is a fixed convention of this library.
    """
    if alpha.n != beta.n:
        raise ValueError("spinors on different spaces")
    return alpha.reversal().wedge(beta).top_coefficient()


def _mukai_sides(sf: StandardForm):
    """(<phi, conj phi>, top coefficient of (u - conj u)^p ^ f ^ conj f).

    p = n/2 - k; for k > n/2 the right side is None.
    """
    n = sf.n
    if n % 2:
        raise ValueError("the comparison needs an even-dimensional space")
    phi = sf.expand()
    lhs = mukai_pairing(phi, phi.conjugate())
    p = n // 2 - sf.k
    if p < 0:
        return lhs, None
    diff = sf.u - sf.u.conjugate()
    rhs = Multivector.scalar(n, 1)
    for _ in range(p):
        rhs = rhs.wedge(diff)
    for f in (*sf.factors, *(f.conjugate() for f in sf.factors)):
        rhs = rhs.wedge(f)
    return lhs, rhs.top_coefficient()


def check_mukai_formula(sf: StandardForm) -> bool:
    """Vanishing of <phi, conj phi> matches (u - conj u)^p ^ f ^ conj f.

    p = n/2 - k; for k > n/2 the right side is taken to be zero.
    """
    lhs, rhs = _mukai_sides(sf)
    return bool(lhs) == bool(rhs)


def mukai_formula_ratio(sf: StandardForm):
    """Ratio of the two sides compared above, or None when both vanish."""
    lhs, bottom = _mukai_sides(sf)
    if bottom is None:
        if lhs:
            raise AssertionError("pairing nonzero with overfull factor count")
        return None
    if not bottom:
        if lhs:
            raise AssertionError("pairing nonzero while the product form vanishes")
        return None
    return lhs / bottom
