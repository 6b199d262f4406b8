"""Induced structures on subspaces and quotients, and subspace classes.

Subspaces W of the carrier V are rational subspaces; the induced
eigenspace on W comes from intersecting E with W_C + V_C* and restricting
covectors, the quotient version dually from V_C + Ann(W_C).  Both always
have the expected dimension; whether they define a structure on W (resp.
V/W) is exactly the conjugate-intersection test, and a nonzero witness is
kept when it fails.

Coordinates on W are the coefficients in the reduced-echelon basis of W;
coordinates on V/W are the images of the non-pivot coordinate vectors.

The classes are identities on W's RREF rows W and its null rows N, which
span Ann(W), read off that RREF with no elimination and kept on W
(``Subspace.null_rows``): W is generalized isotropic, J(W) in W + Ann(W),
when N J1 W^T = 0 and W J3 W^T = 0, coisotropic, J(Ann W) in W + Ann(W),
when N J2 N^T = 0 and W J4 N^T = 0, and Lagrangian when all four hold.
Only a coisotropic witness, a row of Ann(W)'s basis, costs an elimination.
"""

from __future__ import annotations

from .core import (
    BiVector,
    GCAut,
    IsotropicE,
    Record,
    _aut_of,
    _checked_eigenspace,
    conjugate_by_basis,
    direct_sum,
    standard_two_form,
    to_eigenspace,
    twisted_product,
    validate_aut,
)
from .fields import QI, QQ
from .linalg import Matrix, Subspace
from .transforms import _recover, _typed, beta_transform


class InducedStructure(Record):
    """Induced eigenspace on a subspace or quotient, with its verdict."""

    ew: Subspace
    is_gc: bool
    jw: GCAut | None
    witness: tuple | None


def _finish_induced(dim_target: int, rows: Matrix) -> InducedStructure:
    """Verdict on an induced eigenspace, from the one check of an
    eigenspace (``_checked_eigenspace``).

    The dimension and isotropy hold by construction, so either failing is
    a failed cross-check; a transverse E gives the structure from the
    check's B^-1, and one that meets its conjugate a witness in the
    intersection, which must then be nonzero.
    """
    ew = Subspace.from_spanning(QI, 2 * dim_target, rows)
    e = IsotropicE(dim_target, ew)
    check, b_inv = _checked_eigenspace(e)
    if "dim" in check.violations:
        raise AssertionError("induced subspace has wrong dimension")
    if "isotropy" in check.violations:
        raise AssertionError("induced subspace is not isotropic")
    if check:
        return InducedStructure(ew, True, _aut_of(e, b_inv), None)
    bad = ew.intersect(ew.conjugate())
    if bad.is_zero():
        raise AssertionError("inversion test and intersection disagree on the conjugate")
    return InducedStructure(ew, False, None, tuple(bad.basis.data[0]))


def _cut(j: GCAut, w: Subspace, quotient: bool) -> Matrix:
    """Basis of E cut by the window W_C + V_C* (or V_C + Ann(W)_C for the
    quotient), the step shared by both induced structures.  E is met with
    the window's null rows, (N | 0) for W's null rows N, or for the
    quotient (0 | W) for W's rows, so neither the window nor Ann(W) is
    eliminated.  On a zero target, W = 0 (or W = V for the quotient), the
    cut rows would be restricted to 0 columns and spanned to 0, so E is
    solved, which checks j, but not met with the window, and no row is
    cut."""
    n = j.n
    if w.ambient_dim != n or w.field is not QQ:
        raise ValueError("W must be a rational subspace of the carrier")
    e = to_eigenspace(j).e
    if w.dim == (n if quotient else 0):
        return Matrix.zero(QI, 0, 2 * n)
    empty = Matrix.zero(QQ, 0, n)
    null = Matrix.block_diagonal(QQ, [empty, w.basis] if quotient else [w.null_rows(), empty])
    return e.orthogonal_to(null).basis


def induce_on_subspace(j: GCAut, w: Subspace) -> InducedStructure:
    """Structure induced on W: restrict covectors of E over points of W.
    On W = 0 no row is cut (``_cut``): the induced E is 0, the structure
    on the zero space, and j is still checked."""
    n = j.n
    cut = _cut(j, w, quotient=False)
    restricted = cut.block(0, cut.rows, n, 2 * n).mul_t(w.basis)
    rows = Matrix.from_blocks(QI, [[cut.select_columns(w.pivots), restricted]])
    return _finish_induced(w.dim, rows)


def induce_on_quotient(j: GCAut, w: Subspace) -> InducedStructure:
    """Structure induced on V/W: keep covectors annihilating W.  On W = V
    no row is cut (``_cut``): the induced E is 0, the structure on the
    zero space, and j is still checked."""
    n = j.n
    cut = _cut(j, w, quotient=True)
    free = [c for c in range(n) if c not in w.pivots]
    # the vector parts reduced modulo W, on the free coordinates:
    # x[free] - x[pivots] @ basis[free], the basis being in RREF
    vecs = cut.block(0, cut.rows, 0, n)
    reduced = vecs.select_columns(free) - vecs.select_columns(w.pivots) @ w.basis.select_columns(free)
    rows = Matrix.from_blocks(QI, [[reduced, cut.select_columns([n + c for c in free])]])
    return _finish_induced(n - w.dim, rows)


def restrict_spinor(j: GCAut, w: Subspace):
    """Adapted factorization of the ambient spinor and its restriction.

    Returns (sf, l, line_w): sf = exp(u) ^ f_1 ... f_k with the last k - l
    factors annihilating rho(E) + W_C, and line_w the spinor line of the
    induced structure, exp(u|_W) ^ f_1|_W ... f_l|_W.
    """
    # the spinor layer is imported by its few users only, so that code
    # which never builds a spinor (most CLI verbs) does not load it
    from .multivector import Multivector, two_form_from_coeff
    from .spinor import SpinorLine, StandardForm, annihilator_subspace, spinor_product

    n = j.n
    e = to_eigenspace(j).e
    u_mat = standard_two_form(e)
    u = two_form_from_coeff(u_mat)

    rho_e = e.project_first(n)
    phi_span = rho_e.annihilator()
    w_ci = w.to_gaussian()
    deep = rho_e.sum(w_ci).annihilator()
    ordered = deep.basis_rows()
    lead = []
    for row in phi_span.basis.data:
        trial = Subspace.from_spanning(QI, n, ordered + lead + [list(row)])
        if trial.dim > deep.dim + len(lead):
            lead.append(list(row))
    factor_rows = lead + ordered
    l = len(lead)
    if len(factor_rows) != phi_span.dim:
        raise AssertionError("adapted basis has wrong size")
    factors = tuple(Multivector.covector(n, row) for row in factor_rows)
    sf = StandardForm(QI.one, u, factors)

    wmat = w_ci.basis
    u_w = two_form_from_coeff((wmat @ u_mat).mul_t(wmat))
    pulled = Matrix(QI, factor_rows[:l], cols=n).mul_t(wmat)
    phi_w = spinor_product(u_w, [Multivector.covector(w.dim, row) for row in pulled.data])
    if phi_w.is_zero():
        raise AssertionError("restricted spinor vanished")
    line_w = SpinorLine.of(phi_w)
    if annihilator_subspace(line_w.rep) != induce_on_subspace(j, w).ew:
        raise AssertionError("restricted spinor does not represent the induced structure")
    return sf, l, line_w


def _null_rows_in(j: GCAut, w: Subspace) -> Matrix:
    """W's null rows, spanning Ann(W); W must be a rational subspace of V."""
    if w.ambient_dim != j.n or w.field is not QQ:
        raise ValueError("W must be a rational subspace of the carrier")
    return w.null_rows()


def _first_escape(j: GCAut, w: Subspace, coisotropic=False, gens=None):
    """Index of the first generator (a row of gens, by default W for the
    isotropic test and N for the coisotropic one) whose image under J
    leaves W + Ann(W), or None: gens X^T N^T = 0 and gens Y^T W^T = 0 for
    the blocks X (J1 or J2) and Y (J3 or J4) that give the vector and the
    covector part, each decided by one call of the zero-product kernel
    ``Matrix.zero_product_miss``, which forms no product."""
    null_w = _null_rows_in(j, w)
    if gens is None:
        gens = null_w if coisotropic else w.basis
    to_v, to_dual = (j.j2, j.j4) if coisotropic else (j.j1, j.j3)
    found = [gens.zero_product_miss(to_v, null_w), gens.zero_product_miss(to_dual, w.basis)]
    return min((k for k in found if k is not None), default=None)


def generalized_isotropic_witness(j: GCAut, w: Subspace):
    """None if J(W) lies inside W + Ann(W); else an escaping generator."""
    k = _first_escape(j, w)
    return None if k is None else list(w.basis.data[k]) + [QQ.zero] * j.n


def generalized_coisotropic_witness(j: GCAut, w: Subspace):
    """None if J(Ann(W)) lies inside W + Ann(W); else an escaping generator
    among the RREF rows of Ann(W), which are eliminated only then."""
    if _first_escape(j, w, True) is None:
        return None
    ann = w.annihilator().basis
    return [QQ.zero] * j.n + list(ann.data[_first_escape(j, w, True, ann)])


def is_generalized_isotropic(j: GCAut, w: Subspace) -> bool:
    """J(W) lies inside W + Ann(W)."""
    return _first_escape(j, w) is None


def is_generalized_coisotropic(j: GCAut, w: Subspace) -> bool:
    """J(Ann(W)) lies inside W + Ann(W)."""
    return _first_escape(j, w, True) is None


def is_generalized_lagrangian(j: GCAut, w: Subspace) -> bool:
    """Both tests above."""
    return is_generalized_isotropic(j, w) and is_generalized_coisotropic(j, w)


def satisfies_graph_condition(j: GCAut, w: Subspace, k: GCAut) -> bool:
    """Graph of W in V generalized isotropic for the twisted product.

    Evaluated twice: through the block equations (K1 agrees with J1 on W,
    K3 agrees with the restriction of J3) and through the explicit graph
    subspace; the two verdicts must coincide.
    """
    null_w = _null_rows_in(j, w)
    if k.n != w.dim:
        raise ValueError("structure on W has wrong dimension")
    # J1 maps W into W, and its matrix there, the coordinates of J1 W^T in
    # the RREF basis (its rows at the pivots, P J1 W^T), is K1; W J3 W^T = K3
    j1w = w.basis.mul_t(j.j1)
    by_blocks = (
        j1w.mul_t_is(null_w, 0)
        and Subspace.coordinate(QQ, j.n, w.pivots).basis.mul_t_is(j1w, 1, k.j1)
        and w.basis.mul_t_is(w.basis.mul_t(j.j3), 1, k.j3)
    )

    # the graph of the inclusion of W into V, inside W + V
    tp = twisted_product(k, j)
    by_graph = is_generalized_isotropic(tp, Subspace.graph(w.basis.transpose()))
    if by_blocks != by_graph:
        raise AssertionError("block and graph evaluations disagree")
    return by_graph


def beta_between(j: GCAut, j_alt: GCAut) -> BiVector:
    """The bivector moving j to j_alt when only the (1,2) blocks differ.

    Normalized so that j1 composed with the bivector is skew; existence
    requires beta to annihilate j3 on both sides.
    """
    if (j.j1, j.j3, j.j4) != (j_alt.j1, j_alt.j3, j_alt.j4):
        raise ValueError("structures differ outside the (1,2) block")
    half = QQ.coerce("1/2")
    beta_m = (j.j1 @ (j_alt.j2 - j.j2)).scale(half)
    if not beta_m.is_skew():
        raise ValueError("no skew bivector connects the structures")
    if not (j.j1 @ beta_m).is_skew():
        raise AssertionError("normalization lost: j1 * beta not skew")
    beta = BiVector(beta_m)
    if beta_transform(j, beta) != j_alt:
        raise ValueError("no bivector transforms the first structure into the second")
    return beta


def verify_split(j: GCAut, w: Subspace, n_comp: Subspace) -> bool:
    """V = W + N and W + Ann(N) stable under the automorphism."""
    n = j.n
    if w.ambient_dim != n or n_comp.ambient_dim != n or {w.field, n_comp.field} != {QQ}:
        raise ValueError("subspaces must be rational and live in the carrier")
    if w.dim + n_comp.dim != n or not w.intersect(n_comp).is_zero():
        return False
    # W + Ann(N) in V + V*, and what pairs to 0 with it, Ann(W) + N
    span = Matrix.block_diagonal(QQ, [w.basis, n_comp.null_rows()])
    tests = Matrix.block_diagonal(QQ, [w.null_rows(), n_comp.basis])
    return span.mul_t(j.full()).mul_t_is(tests, 0)


def _induced_on_summand(j: GCAut, w: Subspace, n_comp: Subspace) -> GCAut:
    """psi (J restricted to W + Ann(N)) psi^-1 on W + W*; the images of
    the RREF basis of W + Ann(N) have their coordinates at its pivots."""
    m = w.dim
    ann_n = n_comp.annihilator()
    span = w.direct_sum(ann_n)
    images = span.basis.mul_t(j.full())
    if span.first_outside(images) is not None:
        raise ValueError("subspace pair is not stable under the structure")
    inner = images.select_columns(span.pivots).transpose()
    gram = w.basis.mul_t(ann_n.basis)
    psi = Matrix.block_diagonal(QQ, [Matrix.identity(QQ, m), gram])
    return GCAut.from_full(psi @ inner @ psi.inverse())


def split_induced(j: GCAut, w: Subspace, n_comp: Subspace):
    """Structures induced on both summands of a verified splitting."""
    if not verify_split(j, w, n_comp):
        raise ValueError("subspace pair does not split the structure")
    jw = _induced_on_summand(j, w, n_comp)
    jn = _induced_on_summand(j, n_comp, w)
    for part in (jw, jn):
        check = validate_aut(part)
        if not check:
            raise AssertionError(f"summand structure invalid: {check.violations}")
    if jw != induce_on_subspace(j, w).jw:
        raise AssertionError("split structure disagrees with the induced one")
    p = Matrix.from_blocks(QQ, [[w.basis], [n_comp.basis]]).transpose()
    if conjugate_by_basis(direct_sum(jw, jn), p) != j:
        raise AssertionError("summand structures do not reassemble the ambient one")
    return jw, jn


def _kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product of rational matrices: block (r, c) is a[r][c] b."""
    return Matrix.from_blocks(QQ, [[b.scale(x) for x in row] for row in a.data])


def find_split_complement(j: GCAut, w: Subspace) -> Subspace | None:
    """A complement exhibiting W as split, for transformed classical types.

    Symplectic-with-B: the orthogonal complement for the recovered form
    is the only candidate.  Complex-with-B: solve the linear system for a
    J-equivariant complement correction that is B-orthogonal to W.
    """
    types, j2_inv = _typed(j)
    n = j.n
    if types.is_b_symplectic:
        data = _recover(j, types, j2_inv)
        cand = w.basis.mul_t(data.omega.m).kernel()
        return cand if verify_split(j, w, cand) else None
    if types.is_b_complex:
        data = _recover(j, types)
        jm = data.jmat
        jw = w.basis.mul_t(jm)
        if w.first_outside(jw) is not None:
            return None
        # the projection onto W along the free coordinate vectors, read off
        # W's RREF: x -> sum of x_p w_p over the pivot columns p, W^T P for
        # the rows P of the unit vectors at the pivots
        sigma0 = w.basis.transpose() @ Subspace.coordinate(QQ, n, w.pivots).basis
        # averaging J^k sigma0 J^-k over k = 0..3 gives, as J^-1 = -J,
        # (sigma0 - J sigma0 J) / 2: a J-equivariant projection onto W
        n1 = (sigma0 - jm @ sigma0 @ jm).kernel()
        if n1.dim + w.dim != n:
            raise AssertionError("equivariant projection has wrong rank")
        m, qdim = w.dim, n1.dim
        # jw lies in W, so its coordinates are its entries at W's pivots
        j_on_w = jw.select_columns(w.pivots)
        j_on_n = Matrix(QQ, [n1.coordinates(x) for x in n1.basis.mul_t(jm).data], cols=qdim)
        # B(x, y) = (b x) . y over the bases of W and N1
        bw = w.basis.mul_t(data.b.m)
        # the unknown h: N1 -> W, an m x q matrix flattened row-major, is
        # J-equivariant, J_W^T h = h J_N^T, and makes N1 + h^T W B-orthogonal
        # to W, B_WW h = -B_WN
        one_m, one_q = Matrix.identity(QQ, m), Matrix.identity(QQ, qdim)
        equivariance = _kron(j_on_w.transpose(), one_q) - _kron(one_m, j_on_n)
        system = Matrix.from_blocks(QQ, [[equivariance], [_kron(bw.mul_t(w.basis), one_q)]])
        rhs = [QQ.zero] * (m * qdim) + [-x for row in bw.mul_t(n1.basis).data for x in row]
        sol = system.solve(rhs)
        if sol is None:
            return None
        # N1 + h^T W, with h the m x q solution
        h = Matrix(QQ, [sol[x * qdim : (x + 1) * qdim] for x in range(m)], cols=qdim)
        corrected = n1.basis + h.transpose() @ w.basis
        cand = Subspace.from_spanning(QQ, n, corrected)
        if not verify_split(j, w, cand):
            raise AssertionError("solved complement failed the splitting check")
        return cand
    raise ValueError("closed-form splitting needs a transformed classical type")
