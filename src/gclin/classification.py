"""Canonical subspaces and the constructive decomposition.

Every valid structure is a B-field transform of a direct sum of a
symplectic and a complex structure.  The symplectic direction is pinned
by the canonical subspace S, the complex direction by the canonical
subspace C, and both are read off the blocks of J: J2 is the real
Poisson bivector of the structure, so S = im J2, and C = ker J3.  The
eigenspace descriptions are the second route, checked by membership and
ranks with no intersection: S_C is the meet of the vector-part images of
the eigenspace and its conjugate, and C_C is (E meet V_C) + conj, where
E meet V_C = {x - i J1 x : x in ker J3}.  ``decompose`` realizes the
factorization exactly and ``reassemble`` undoes it.
"""

from __future__ import annotations

from .core import (
    GCAut,
    Record,
    TwoForm,
    _checked_pair,
    _conjugate,
    _set,
    complex_structure,
    conjugate_by_basis,
    direct_sum,
    standard_two_form,
    symplectic_structure,
    to_eigenspace,
)
from .fields import QI, QQ, I
from .linalg import Matrix, Subspace
from .subspaces import (
    induce_on_quotient,
    induce_on_subspace,
    satisfies_graph_condition,
)
from .transforms import _recover, b_transform, b_transform_eigenspace, classify_type


def canonical_s(j: GCAut) -> Subspace:
    """The maximal subspace carrying a transformed symplectic structure.

    It is im J2; its complexification is checked to be the intersection
    of the vector-part images of the eigenspace and its conjugate, and
    it is checked to carry a valid induced structure of the expected type.
    """
    return _canonical_s(j)[0]


def _canonical_s(j: GCAut):
    """canonical_s, with the induced structure on S."""
    n = j.n
    # J2 is skew, so its rows span its image
    s = Subspace.from_spanning(QQ, n, j.j2)
    # rho is real, so the image of E-bar is the conjugate of E's image.  S
    # is real too, so S_C inside rho(E) lies in their meet, and equals it
    # when dim S = dim rho(E) - rank Im, the meet's dimension (see
    # Subspace.meets_conjugate)
    rho_e = to_eigenspace(j).e.project_first(n)
    if rho_e.first_outside(s.basis) is not None:
        raise AssertionError("image of J2 leaves the vector part of the eigenspace")
    if s.dim != rho_e.dim - rho_e.basis.imag_part().rank():
        raise AssertionError("image of J2 is smaller than the meet of rho(E) with its conjugate")
    ind = induce_on_subspace(j, s)
    if not ind.is_gc:
        raise AssertionError("canonical subspace failed to carry a structure")
    if not classify_type(ind.jw).is_b_symplectic:
        raise AssertionError("canonical subspace is not of transformed symplectic type")
    return s, ind


def canonical_c(j: GCAut):
    """The minimal subspace with a transformed-symplectic quotient.

    Returns (C, complex structure on C).  C is ker J3, checked against
    the eigenspace: each x - i J1 x, x in C's basis, lies in E (and in
    V_C), and dim C = 2 dim(E meet V_C) = 2 (n - dim rho*(E)).  With the
    checks below that J1 restricts to a complex structure on C, this
    makes {x - i J1 x} all of E meet V_C and C_C = (E meet V_C) + conj.
    The quotient by C carries a valid beta-symplectic structure, and C
    with its complex structure satisfies the graph condition.  Each fact
    is checked.
    """
    n = j.n
    e = to_eigenspace(j).e
    c = j.j3.kernel()
    images = c.basis.mul_t(j.j1)
    lifts = Matrix.from_blocks(QI, [[c.basis - images.to_gaussian().scale(I), Matrix.zero(QI, c.dim, n)]])
    if e.first_outside(lifts) is not None:
        raise AssertionError("kernel of J3 does not lift into the eigenspace")
    if c.dim != 2 * (n - e.basis.block(0, e.dim, n, 2 * n).rank()):
        raise AssertionError("kernel of J3 and (E meet V_C) + conj differ in dimension")
    if c.first_outside(images) is not None:
        raise AssertionError("canonical subspace is not stable under the (1,1) block")
    # coordinates in the RREF basis are the entries at its pivot columns
    jc = images.select_columns(c.pivots).transpose()
    if c.dim and not jc.mul_is(jc, -1):
        raise AssertionError("restricted block is not a complex structure")
    quot = induce_on_quotient(j, c)
    if not quot.is_gc:
        raise AssertionError("quotient by the canonical subspace carries no structure")
    if not classify_type(quot.jw).is_beta_symplectic:
        raise AssertionError("quotient structure is not beta-symplectic")
    if not satisfies_graph_condition(j, c, complex_structure(jc)):
        raise AssertionError("canonical subspace misses the graph condition")
    return c, jc


class Decomposition(Record):
    """Exact factorization of a structure.

    The carrier splits as s + w; omega is symplectic on s (in the
    reduced-basis coordinates of s), jw is a complex structure on w, and
    b is the two-form on the carrier with

        b_transform(transported direct sum, b) == original structure,

    where the transport is along the basis assembled from s then w.

    A decomposition that ``decompose`` returns keeps, in ``_held``, what
    it has already built and checked for the reassembly: the symplectic
    structure of omega, that basis p and p^-1.  The slot is no field, so
    equality, hash, repr and encoding do not see it.
    """

    s: Subspace
    omega: TwoForm
    w: Subspace
    jw: Matrix
    b: TwoForm
    _held = None  # (symplectic_structure(omega), p, p^-1), kept by decompose


def reassemble(d: Decomposition) -> GCAut:
    """The structure d factors: the direct sum of omega's symplectic
    structure and jw's complex one, moved by the basis p of s then w,
    diag(p, p^-T), and transformed by b.  The symplectic part, p and p^-1
    are read from ``d._held`` when ``decompose`` kept them; for a d built
    by hand, omega and p are inverted once each."""
    if d._held is None:
        ds = direct_sum(symplectic_structure(d.omega), complex_structure(d.jw))
        p = Matrix.from_blocks(QQ, [[d.s.basis], [d.w.basis]]).transpose()
        return b_transform(conjugate_by_basis(ds, p), d.b)
    j_s, p, p_inv = d._held
    return b_transform(_conjugate(direct_sum(j_s, complex_structure(d.jw)), p, p_inv), d.b)


def decompose(j: GCAut) -> Decomposition:
    """Factor a structure as a B-field transform of symplectic + complex.

    E is solved for j at most once.  The B-field b_r read off it moves j in
    blocks and E by back-substitution (``b_transform_eigenspace``), and
    the moved pair is checked by both routes (``core._checked_pair``)
    instead of E being solved again.  The closing check, ``reassemble``,
    reads the symplectic part, p and p^-1 it keeps (``_held``), so it
    inverts neither omega_s nor p again.
    """
    n = j.n
    e = to_eigenspace(j)
    # the map v -> iota_v u is the transpose of u's coefficient matrix,
    # which is skew
    u_map = -standard_two_form(e.e)
    b_r = TwoForm(u_map.real_part())
    omega_map = u_map.imag_part()

    moved = b_transform(j, b_r)
    check = _checked_pair(moved, b_transform_eigenspace(e, b_r))
    if not check:
        raise AssertionError(f"B-field transform of a valid structure is invalid: {check.violations}")
    s, ind_s = _canonical_s(moved)
    omega_s = TwoForm((s.basis @ omega_map).mul_t(s.basis))
    # ind_s.jw is symplectic_structure(omega_s), (0, -omega_s^-1, omega_s,
    # 0), exactly when these hold; J2 omega_s = -1 also proves omega_s
    # nondegenerate, with no inversion, and the reassembly reuses it
    j_s = ind_s.jw
    if not j_s.j2.mul_is(omega_s.m, -1):
        raise AssertionError("induced J2 does not invert the real 2-form on the symplectic part")
    if not (j_s.j1.is_zero() and j_s.j4.is_zero() and j_s.j3 == omega_s.m):
        raise AssertionError("induced structure on the symplectic part is off")

    w = s.basis.mul_t(omega_map).kernel()
    if s.dim + w.dim != n or not s.intersect(w).is_zero():
        raise AssertionError("orthogonal complement does not complete the carrier")

    ind_w = induce_on_subspace(moved, w)
    if not ind_w.is_gc:
        raise AssertionError("complementary subspace carries no structure")
    types = classify_type(ind_w.jw)
    if not types.is_b_complex:
        raise AssertionError("complementary structure is not of transformed complex type")
    if w.dim:
        rec = _recover(ind_w.jw, types)
        jw_mat, b_w = rec.jmat, rec.b
    else:
        jw_mat, b_w = Matrix.zero(QQ, 0, 0), TwoForm(Matrix.zero(QQ, 0, 0))

    p = Matrix.from_blocks(QQ, [[s.basis], [w.basis]]).transpose()
    p_inv = p.inverse()
    b_inner = Matrix.block_diagonal(QQ, [Matrix.zero(QQ, s.dim, s.dim), b_w.m])
    b_push = p_inv.transpose() @ b_inner @ p_inv
    total = TwoForm(b_push - b_r.m)

    result = Decomposition(s, omega_s, w, jw_mat, total)
    _set(result, "_held", (j_s, p, p_inv))
    if reassemble(result) != j:
        raise AssertionError("decomposition failed to reassemble the input")
    return result


def canonical_omega(n: int) -> TwoForm:
    """Form with value +1 on (e_i, f_i) pairs, coordinates (e..., f...)."""
    entries = {}
    for i in range(n):
        entries[n + i, i] = 1
        entries[i, n + i] = -1
    return TwoForm(Matrix.from_entries(QQ, 2 * n, 2 * n, entries))


def build_symplectic_with_t(a: Matrix, b: Matrix, c: Matrix):
    """Transform of the canonical symplectic form by the operator T.

    T has blocks [[a, b], [c, a^t]] in the canonical basis; b and c must
    be skew, which makes omega T a two-form.  Returns (structure, omega,
    T).
    """
    n = a.rows
    if not (b.is_skew() and c.is_skew()):
        raise ValueError("off-diagonal blocks of T must be skew")
    t = Matrix.from_blocks(QQ, [[a, b], [c, a.transpose()]])
    omega = canonical_omega(n)
    structure = b_transform(symplectic_structure(omega), TwoForm(omega.m @ t))
    return structure, omega, t


def build_subnotquot_example():
    """Dimension-4 fixture: a subspace carrying a structure whose quotient
    does not.

    Carrier basis (p1, q1, p2, q2); the symplectic form pairs p_i with
    q_i, the B-field pairs p1 with p2 and q2 with q1; W is the (p1, q1)
    plane.  Returns (structure, w, omega, b).
    """
    omega = TwoForm(
        Matrix(
            QQ,
            [
                [0, -1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, -1],
                [0, 0, 1, 0],
            ],
        )
    )
    b = TwoForm(
        Matrix(
            QQ,
            [
                [0, 0, -1, 0],
                [0, 0, 0, 1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
        )
    )
    structure = b_transform(symplectic_structure(omega), b)
    w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    return structure, w, omega, b


def build_notquot_example():
    """Dimension-8 fixture whose canonical complex part is degenerate.

    The T operator is block-diagonal with a 4 x 4 block A = [[J, I], [0,
    J]], so 1 + T^2 is a nonzero nilpotent and the kernel of 1 + T^2
    meets its image.  Returns (structure, omega, T).
    """
    rot = Matrix(QQ, [[0, 1], [-1, 0]])
    eye = Matrix.identity(QQ, 2)
    z = Matrix.zero(QQ, 2, 2)
    a = Matrix.from_blocks(QQ, [[rot, eye], [z, rot]])
    one_plus_a2 = Matrix.identity(QQ, 4) + a @ a
    expected = Matrix.from_blocks(QQ, [[z, rot.scale(2)], [z, z]])
    if one_plus_a2 != expected:
        raise AssertionError("fixture block 1 + A^2 is off")
    structure, omega, t = build_symplectic_with_t(
        a, Matrix.zero(QQ, 4, 4), Matrix.zero(QQ, 4, 4)
    )
    one_plus_t2 = Matrix.identity(QQ, 8) + t @ t
    ker = one_plus_t2.kernel()
    image = Subspace.from_spanning(QQ, 8, one_plus_t2.transpose())
    if ker.intersect(image).is_zero():
        raise AssertionError("fixture kernel misses the image")
    omega_on_ker = TwoForm((ker.basis @ omega.m).mul_t(ker.basis))
    if omega_on_ker.m.is_invertible():
        raise AssertionError("form is nondegenerate on the canonical part")
    return structure, omega, t


def build_graphnotsub_example():
    """Dimension-4 fixture: graph condition without a structure on W.

    W is the span of the first two coordinates; T restricts to a complex
    structure on it, but the symplectic form vanishes identically on W.
    Returns (structure, w, k) with k the complex structure on W.
    """
    rot = Matrix(QQ, [[0, 1], [-1, 0]])
    z = Matrix.zero(QQ, 2, 2)
    structure, _, t = build_symplectic_with_t(rot, z, z)
    w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    t_on_w = t.block(0, 2, 0, 2)
    return structure, w, complex_structure(t_on_w)
