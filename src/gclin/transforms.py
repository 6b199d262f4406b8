"""B-field and beta-field transforms and structure-type detection.

A two-form B acts through the unipotent block matrix [[1,0],[B,1]] and a
bivector beta through [[1,beta],[0,1]]; both are orthogonal for the
standard pairing, so conjugation by them moves one valid structure to
another.

Types are read off the blocks (j2 = 0, j2 invertible, ...) and
cross-checked against the eigenspace criteria, each a rank or a pivot
count of E's RREF basis rather than an intersection.  rho(E) is the rows
of that basis with pivots below n, cut to the first n columns
(``Subspace.project_first``), and rho*(E) one n x n elimination of its
last n columns.  rho(E) (resp. rho*(E)) meets its conjugate only in 0 when
the imaginary part of its basis has full rank (``meets_conjugate``); E
meets V*_C only in 0 when all n of its pivots lie below n, that is when
rho(E) has dimension n; and E meets V_C only in 0 when rho*(E) has
dimension n.
"""

from __future__ import annotations

from .core import (
    BiVector,
    GCAut,
    IsotropicE,
    Record,
    TwoForm,
    _validated,
    complex_structure,
    symplectic_structure,
    to_eigenspace,
)
from .fields import QI, QQ, I
from .linalg import Matrix, Subspace


def _shear(m: Matrix, lower: bool) -> Matrix:
    """[[1, 0], [m, 1]] (the action of a two-form) or [[1, m], [0, 1]] (of a
    bivector); the inverse is the shear by -m."""
    one, z = Matrix.identity(QQ, m.rows), Matrix.zero(QQ, m.rows, m.rows)
    return Matrix.from_blocks(QQ, [[one, z], [m, one]] if lower else [[one, m], [z, one]])


def b_transform(j: GCAut, b: TwoForm) -> GCAut:
    if b.n != j.n:
        raise ValueError("two-form dimension mismatch")
    return GCAut.from_full(_shear(b.m, True) @ j.full() @ _shear(-b.m, True))


def beta_transform(j: GCAut, beta: BiVector) -> GCAut:
    if beta.n != j.n:
        raise ValueError("bivector dimension mismatch")
    return GCAut.from_full(_shear(beta.m, False) @ j.full() @ _shear(-beta.m, False))


def b_transform_eigenspace(e: IsotropicE, b: TwoForm) -> IsotropicE:
    return IsotropicE(e.n, e.e.image(_shear(b.m, True).to_gaussian()))


class StructureType(Record):
    is_complex: bool
    is_b_complex: bool
    is_beta_complex: bool
    is_symplectic: bool
    is_b_symplectic: bool
    is_beta_symplectic: bool


def classify_type(j: GCAut) -> StructureType:
    """Block-level type flags, cross-checked against the eigenspace
    criteria as ranks and pivot counts (see the module docstring)."""
    n = j.n
    flags = StructureType(
        is_complex=j.j2.is_zero() and j.j3.is_zero(),
        is_b_complex=j.j2.is_zero(),
        is_beta_complex=j.j3.is_zero(),
        is_symplectic=j.j1.is_zero(),
        is_b_symplectic=j.j2.is_invertible(),
        is_beta_symplectic=j.j3.is_invertible(),
    )

    e = to_eigenspace(j).e
    # rho and rho* are real, so the image of E-bar is the conjugate of E's
    rho_e = e.project_first(n)
    rho_star_e = Subspace.from_spanning(QI, n, e.basis.block(0, e.dim, n, 2 * n))
    if (
        not rho_e.meets_conjugate(),
        not rho_star_e.meets_conjugate(),
        rho_e.dim == n,
        rho_star_e.dim == n,
    ) != (
        flags.is_b_complex,
        flags.is_beta_complex,
        flags.is_b_symplectic,
        flags.is_beta_symplectic,
    ):
        raise AssertionError("block criteria disagree with eigenspace criteria")
    if flags.is_complex != (flags.is_b_complex and flags.is_beta_complex):
        raise AssertionError("complex flag inconsistent")
    if flags.is_symplectic and not (flags.is_b_symplectic and flags.is_beta_symplectic):
        raise AssertionError("symplectic flag inconsistent")
    return flags


class RecoveredData(Record):
    """Classical data whose transform reproduces a structure.

    kind is 'complex' (fields jmat, b) or 'symplectic' (fields omega, b).
    Reassembly by b_transform is exact at the automorphism level; in the
    complex case the two-form b itself is only pinned by the fixed
    formula, since part of it is invisible to the automorphism.
    """

    kind: str
    b: TwoForm
    jmat: Matrix | None = None
    omega: TwoForm | None = None


def recover(j: GCAut) -> RecoveredData:
    """Undo a B-field transform of a complex or symplectic structure."""
    return _recover(j, classify_type(j))


def _recover(j: GCAut, types: StructureType) -> RecoveredData:
    """recover, given the flags classify_type(j) has already returned."""
    half = QQ.coerce("1/2")
    if types.is_b_symplectic:
        n = j.n
        omega = TwoForm(-j.j2.inverse())
        if not omega.m.mul_is(j.j2, -1):
            raise AssertionError("omega J2 is not -1")
        # omega = -J2^-1, so b = -J2^-1 J1 = omega J1
        b = TwoForm(omega.m @ j.j1)
        result = RecoveredData("symplectic", b, omega=omega)
        # symplectic_structure(omega), whose -omega^-1 is the J2 just checked
        z = Matrix.zero(QQ, n, n)
        if b_transform(GCAut(z, j.j2, omega.m, z), b) != j:
            raise AssertionError("symplectic recovery failed to reassemble")
        return result
    if types.is_b_complex:
        jmat = j.j1
        b = TwoForm(-(j.j3 @ j.j1).scale(half))
        result = RecoveredData("complex", b, jmat=jmat)
        if b_transform(complex_structure(jmat), b) != j:
            raise AssertionError("complex recovery failed to reassemble")
        return result
    raise ValueError("structure is neither B-complex nor B-symplectic")


def assemble_sum_transform(
    omega: TwoForm,
    jmat: Matrix,
    b1: Matrix,
    b2: Matrix,
    b3: Matrix,
    b4: Matrix,
):
    """B-field transform of (symplectic on S) + (complex on C), assembled.

    Returns the automorphism in block-explicit form together with the
    representative spinor exp(-B + i pr_S* omega) ^ f_1 ^ ... ^ f_k, and
    checks that the two describe the same structure.  Coordinates on
    V = S + C are (s, c, s*, c*).
    """
    # the spinor layer is imported by its few users only, so that code
    # which never builds a spinor (most CLI verbs) does not load it
    from .multivector import Multivector, two_form_from_coeff
    from .spinor import SpinorLine, annihilator_subspace, spinor_product

    s, c = omega.n, jmat.rows
    if not jmat.mul_is(jmat, -1):
        raise ValueError("complex factor does not square to -1")
    if not (b1.is_skew() and b4.is_skew() and b3.is_neg_transpose_of(b2)):
        raise ValueError("B blocks are not skew-compatible")
    w = omega.m
    w_inv = w.inverse()
    jt = jmat.transpose()
    zsc = Matrix.zero(QQ, s, c)
    zcs = Matrix.zero(QQ, c, s)
    zcc = Matrix.zero(QQ, c, c)
    full = Matrix.from_blocks(
        QQ,
        [
            [w_inv @ b1, w_inv @ b2, -w_inv, zsc],
            [zcs, jmat, zcs, zcc],
            [w + b1 @ w_inv @ b1, b2 @ jmat + b1 @ w_inv @ b2, -(b1 @ w_inv), zsc],
            [
                b3 @ w_inv @ b1 + jt @ b3,
                b4 @ jmat + b3 @ w_inv @ b2 + jt @ b4,
                -(b3 @ w_inv),
                -jt,
            ],
        ],
    )
    check, aut = _validated(GCAut.from_full(full))
    if not check:
        raise AssertionError(f"assembled automorphism invalid: {check.violations}")

    n = s + c
    b_map = Matrix.from_blocks(QQ, [[b1, b2], [b3, b4]]).to_gaussian()
    omega_big = Matrix.block_diagonal(QQ, [w, zcc]).to_gaussian()
    u = two_form_from_coeff((-b_map + omega_big.scale(I)).transpose())
    anti = (jt.to_gaussian() + Matrix.identity(QI, c).scale(I)).kernel()
    factors = [Multivector.covector(n, [QI.zero] * s + list(row)) for row in anti.basis.data]
    line = SpinorLine.of(spinor_product(u, factors))
    if annihilator_subspace(line.rep) != to_eigenspace(aut).e:
        raise AssertionError("matrix form and spinor describe different structures")
    return aut, line


def t_operator(omega: TwoForm, b: TwoForm) -> Matrix:
    """T = omega^-1 B for a nondegenerate form omega."""
    if omega.n != b.n:
        raise ValueError("dimension mismatch")
    return omega.m.inverse() @ b.m


def satisfies_star(omega: TwoForm, t: Matrix) -> bool:
    """omega(u, Tv) = omega(Tu, v), i.e. omega T is again skew."""
    return t.transpose() @ omega.m == omega.m @ t


def analyze_t(omega: TwoForm, t: Matrix) -> StructureType:
    """Type facts for the transform with B = omega T, via the T criteria.

    Each T-side criterion (T = 0; i not an eigenvalue of T; T^2 = -1) is
    checked directly, then asserted against classify_type of the
    assembled transform.
    """
    if not satisfies_star(omega, t):
        raise ValueError("T is not omega-symmetric")
    n = omega.n
    symplectic_t = t.is_zero()
    shifted = t.to_gaussian() - Matrix.identity(QI, n).scale(I)
    beta_symplectic_t = shifted.kernel().is_zero()
    beta_complex_t = t.mul_is(t, -1)
    assembled = b_transform(symplectic_structure(omega), TwoForm(omega.m @ t))
    types = classify_type(assembled)
    if (types.is_symplectic, types.is_beta_symplectic, types.is_beta_complex) != (
        symplectic_t,
        beta_symplectic_t,
        beta_complex_t,
    ):
        raise AssertionError("T criteria disagree with the assembled structure")
    return types
