"""Linear relations between structured spaces and their composition.

A relation from V to W is any subspace of V + W; morphisms carry their
endpoint structures so that canonicity (generalized Lagrangian for the
twisted product) is a property of the relation alone.  Composition is an
exact subspace computation and is total: no transversality condition is
needed in the linear theory.  It lifts through phi's RREF.  Phi's rows
with a pivot in W are (X | Z_k), X the RREF basis of phi's projection to
W, and its other rows (0 | z') span phi meet 0 + Z.  A vector (v, w) of
gamma meet V + span X, which is gamma when X spans W, lifts to
(v, w[P] Z_k) for X's pivots P; these and the (0 | z') span phi . gamma.
Gamma is met with (0 | X's null rows), one elimination when X is proper.
When no row of phi pivots in Z and every pivot of the meet lies in V,
the lifted rows are the RREF basis as they stand, so composing two
graphs eliminates nothing; otherwise they are eliminated once.

The graph of an invertible mu: V -> W is canonical exactly when mu
conjugates a to b, that is when diag(mu, mu^-T) J_a = J_b diag(mu, mu^-T).
Block by block, with the covector rows multiplied by mu^T on the left
and the covector columns by mu^T on the right, each mu^-T cancels and
the condition is four identities in which no inverse appears:

    mu J1a = J1b mu,    mu J2a mu^T = J2b,
    mu^T J3b mu = J3a,  J4a mu^T = mu^T J4b,

so ``graph_iso_test`` checks them against the graph criterion without a
second inversion of mu.
"""

from __future__ import annotations

from functools import cached_property

from .core import GCAut, Record, twisted_product
from .fields import QQ
from .linalg import Matrix, Subspace
from .subspaces import is_generalized_coisotropic, is_generalized_isotropic


class LinearRelation(Record):
    source: GCAut
    target: GCAut
    graph: Subspace

    def __post_init__(self):
        if self.graph.ambient_dim != self.source.n + self.target.n:
            raise ValueError("relation subspace has the wrong ambient dimension")
        if self.graph.field is not QQ:
            raise ValueError("relations are rational subspaces")

    @cached_property
    def twisted(self) -> GCAut:
        """The twisted product of the endpoints, for which the class tests
        run; built on first use and kept, as the two verdicts below are,
        not a field, so equality and hashing do not see it."""
        return twisted_product(self.source, self.target)

    @cached_property
    def isotropic(self) -> bool:
        """Whether the graph is generalized isotropic for ``twisted``."""
        return is_generalized_isotropic(self.twisted, self.graph)

    @cached_property
    def coisotropic(self) -> bool:
        """Whether the graph is generalized coisotropic for ``twisted``."""
        return is_generalized_coisotropic(self.twisted, self.graph)


def identity_relation(j: GCAut) -> LinearRelation:
    """The graph of the identity map of j's carrier."""
    return map_relation(Matrix.identity(QQ, j.n), j, j)


def map_relation(mu: Matrix, a: GCAut, b: GCAut) -> LinearRelation:
    """The graph of the linear map mu as a relation from a to b."""
    if mu.cols != a.n or mu.rows != b.n:
        raise ValueError("map shape does not match the endpoint spaces")
    return LinearRelation(a, b, Subspace.graph(mu))


def compose_subspaces(phi: Subspace, gamma: Subspace, nv: int, nw: int, nz: int) -> Subspace:
    """Composition of plain relation subspaces (gamma: V to W, phi: W to Z),
    lifted through phi's RREF (module docstring): at most two eliminations."""
    if gamma.ambient_dim != nv + nw or phi.ambient_dim != nw + nz:
        raise ValueError("relation ambient dimensions do not chain")
    field, x = phi.field, phi.project_first(nw)
    k, empty = x.dim, Matrix.zero(field, 0, nv)
    cut = gamma.orthogonal_to(Matrix.block_diagonal(field, [empty, x.null_rows()]))
    lift = Matrix.block_diagonal(field, [Matrix.identity(field, nv), phi.basis.block(0, k, nw, nw + nz)])
    rows = cut.basis.select_columns([*range(nv), *(nv + p for p in x.pivots)]) @ lift
    if k == phi.dim and all(p < nv for p in cut.pivots):
        return Subspace(field, nv + nz, rows, list(cut.pivots))
    rest = Matrix.block_diagonal(field, [empty, phi.basis.block(k, phi.dim, nw, nw + nz)])
    return Subspace.from_spanning(field, nv + nz, Matrix.from_blocks(field, [[rows], [rest]]))


def compose(phi: LinearRelation, gamma: LinearRelation) -> LinearRelation:
    """phi after gamma; endpoint structures must match in the middle."""
    if gamma.target != phi.source:
        raise ValueError("middle structures do not match")
    graph = compose_subspaces(
        phi.graph, gamma.graph, gamma.source.n, gamma.target.n, phi.target.n
    )
    return LinearRelation(gamma.source, phi.target, graph)


def is_isotropic_relation(r: LinearRelation) -> bool:
    return r.isotropic


def is_coisotropic_relation(r: LinearRelation) -> bool:
    return r.coisotropic


def is_canonical(r: LinearRelation) -> bool:
    """Canonical relations are the generalized Lagrangian ones."""
    return r.isotropic and r.coisotropic


_CLASS_TESTS = {
    "isotropic": is_isotropic_relation,
    "coisotropic": is_coisotropic_relation,
    "lagrangian": is_canonical,
}


def closure_check(phi: LinearRelation, gamma: LinearRelation, cls: str) -> bool:
    """Membership of the composition in a class, with the closure theorem
    enforced: inputs in the class force the composition into it."""
    try:
        test = _CLASS_TESTS[cls]
    except KeyError:
        raise ValueError(f"unknown class {cls!r}") from None
    composed = compose(phi, gamma)
    result = test(composed)
    if test(phi) and test(gamma) and not result:
        raise AssertionError(f"composition left the {cls} class")
    return result


def annihilator_composition_identity(phi: LinearRelation, gamma: LinearRelation) -> bool:
    """Ann(phi . gamma) equals the relation composition of the annihilators.

    The right-hand side R pairs (f, h) through some middle functional g
    with (f, g) annihilating gamma and (-g, h) annihilating phi.  It is
    Ann(C), C = phi . gamma, when C R^T = 0 and dim R = dim Ann(C).
    """
    nv, nw, nz = gamma.source.n, gamma.target.n, phi.target.n
    composed = compose(phi, gamma).graph
    rhs = compose_subspaces(phi.graph.annihilator().negate_first(nw), gamma.graph.annihilator(), nv, nw, nz)
    return rhs.dim == nv + nz - composed.dim and composed.basis.mul_t_is(rhs.basis, 0)


def _conjugates(mu: Matrix, a: GCAut, b: GCAut) -> bool:
    """Whether the invertible mu conjugates a to b, by the four block
    identities of the module docstring, decided by the identity kernels
    with one product formed for each and no inverse."""
    mu_t = mu.transpose()
    return (
        mu.mul_is(a.j1, 1, b.j1 @ mu)
        and (mu @ a.j2).mul_t_is(mu, 1, b.j2)
        and (mu_t @ b.j3).mul_is(mu, 1, a.j3)
        and a.j4.mul_t_is(mu, 1, mu_t @ b.j4)
    )


def graph_iso_test(mu: Matrix, a: GCAut, b: GCAut) -> bool:
    """Graph of mu canonical iff mu conjugates one structure to the other.

    Both evaluations run and must agree: the graph is a new relation on
    each call, so no verdict kept by an earlier one answers for it, and
    the conjugation is decided by the block identities of the module
    docstring (``_conjugates``), so mu is inverted by neither criterion.
    """
    if not mu.is_invertible():
        raise ValueError("the map must be invertible")
    by_graph = is_canonical(map_relation(mu, a, b))
    by_conjugation = _conjugates(mu, a, b)
    if by_graph != by_conjugation:
        raise AssertionError("graph and conjugation criteria disagree")
    return by_graph
