"""Test helpers that the library itself does not need: each answers a
question the tests ask of the library's values, through public API."""

from gclin.core import covector_summand, to_eigenspace, vector_summand
from gclin.fields import QI, QQ, GaussianRational
from gclin.linalg import Subspace
from gclin.multivector import mask_to_indices
from gclin.subspaces import _finish_induced


def projection_matrix(n, which):
    """Coordinate projection of V + V* onto V ('vector') or V* ('covector');
    its rows are the basis of the matching summand."""
    return (vector_summand(n) if which == "vector" else covector_summand(n)).basis


def contains_subspace(s, other):
    """Whether the subspace s contains the subspace other."""
    return s.first_outside(other.basis) is None


def real_form(s):
    """The real subspace R with R_C = s; s must be conjugation stable."""
    if s.field is QQ:
        return s
    if not s.is_real():
        raise ValueError("subspace is not conjugation stable")
    spanning = s.basis.real_part().data + s.basis.imag_part().data
    real = Subspace.from_spanning(QQ, s.ambient_dim, spanning)
    if real.dim != s.dim:
        raise ValueError("real form has wrong dimension")
    return real


def proportional_to(phi, psi):
    """Whether two multivectors span the same line (two zeros do)."""
    if phi.n != psi.n:
        return False
    if phi.is_zero() or psi.is_zero():
        return phi.is_zero() and psi.is_zero()
    return phi.normalized() == psi.normalized()


def oracle_compose(phi, gamma, nv, nw, nz):
    """phi after gamma for plain relation subspaces (gamma in V + W, phi in
    W + Z), by the definition: gamma + Z meets V + phi inside V + W + Z,
    and the meet is projected to V + Z by one more elimination."""
    field = phi.field
    chained = gamma.direct_sum(Subspace.full(field, nz)).intersect(
        Subspace.full(field, nv).direct_sum(phi)
    )
    kept = list(range(nv)) + list(range(nv + nw, nv + nw + nz))
    return Subspace.from_spanning(field, nv + nz, chained.basis.select_columns(kept))


def oracle_induced_on_zero_target(j, quotient):
    """The structure induced on W = 0 (on V/W for W = V, when quotient)
    by the meet that ``subspaces._cut`` skips for a zero target: E met
    with the window, V_C* (V_C for the quotient), the cut rows restricted
    to the target's 0 coordinates and handed to ``_finish_induced``."""
    n = j.n
    window = vector_summand(n) if quotient else covector_summand(n)
    cut = to_eigenspace(j).e.intersect(window).basis
    return _finish_induced(0, cut.select_columns([]))


def first_nonzero_row(a, b):
    """The first row r of a @ b^T with a nonzero entry, or None, from the
    scalar entries of a and b by the definition of the product; either
    side may be over Q or Q(i)."""
    return next(
        (r for r, x in enumerate(a.data) if any(sum(p * q for p, q in zip(x, y)) != 0 for y in b.data)),
        None,
    )


class ScalarMultivector:
    """The exterior algebra with one exact scalar stored per term, as
    ``Multivector`` stored it before its integer storage; kept as an
    oracle for it.  ``exp`` sums wedge powers, and ``mukai`` wedges the
    reversal in full."""

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        for mask, coeff in (terms or {}).items():
            coeff = QI.coerce(coeff)
            if coeff:
                if mask < 0 or mask >= (1 << n):
                    raise ValueError("term outside the algebra")
                self.terms[mask] = coeff

    @staticmethod
    def of(mv):
        """The oracle's copy of a Multivector, read through its scalars."""
        return ScalarMultivector(mv.n, dict(mv.terms))

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def _accumulated(self, pairs):
        terms = {}
        for mask, c in pairs:
            terms[mask] = terms.get(mask, QI.zero) + c
        return ScalarMultivector(self.n, terms)

    def __add__(self, other):
        return self._accumulated([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return ScalarMultivector(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return ScalarMultivector(self.n, {m: c * v for m, v in self.terms.items()})

    def wedge(self, other):
        pairs = []
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if not ma & mb:
                    # each index of b below an index of a is one transposition
                    swaps = sum(bin(mb & ((1 << i) - 1)).count("1") for i in mask_to_indices(ma))
                    pairs.append((ma | mb, -(ca * cb) if swaps % 2 else ca * cb))
        return self._accumulated(pairs)

    def contract(self, coords):
        pairs = []
        for mask, c in self.terms.items():
            for i in mask_to_indices(mask):
                sign = -1 if bin(mask & ((1 << i) - 1)).count("1") % 2 else 1
                pairs.append((mask ^ (1 << i), QI.coerce(coords[i]) * c * sign))
        return self._accumulated(pairs)

    def reversal(self):
        return ScalarMultivector(
            self.n, {m: -c if (len(mask_to_indices(m)) // 2) % 2 else c for m, c in self.terms.items()}
        )

    def conjugate(self):
        return ScalarMultivector(self.n, {m: c.conjugate() for m, c in self.terms.items()})

    def exp(self):
        out = power = ScalarMultivector(self.n, {0: 1})
        fact = 1
        for m in range(1, self.n // 2 + 1):
            power = power.wedge(self)
            fact *= m
            out = out + power.scale(GaussianRational(f"1/{fact}"))
        return out

    def mukai(self, other):
        return self.reversal().wedge(other).terms.get((1 << self.n) - 1, QI.zero)

    def leading_term(self):
        best = min(self.terms, key=mask_to_indices)
        return best, self.terms[best]

    def normalized(self):
        return self.scale(QI.one / self.leading_term()[1])
