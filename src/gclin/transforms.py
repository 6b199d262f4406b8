"""B-field and beta-field transforms and structure-type detection.

A two-form B acts through the unipotent block matrix [[1,0],[B,1]] and a
bivector beta through [[1,beta],[0,1]]; both are orthogonal for the
standard pairing, so conjugation by them moves one valid structure to
another.  The conjugation is done on the blocks, by identities of block
multiplication that hold for any blocks, and no 2n x 2n matrix is formed:

    e^B:     J1 - J2 B,  J2,  J3 + B J1 - J4' B,  J4' = J4 + B J2;
    e^beta:  J1' = J1 + beta J3,  J2 + beta J4 - J1' beta,  J3,  J4 - J3 beta.

E moves by the shear itself, a row (v | f) of its RREF basis going to
(v | f - v B) = (v | f + v B^T), B being skew.  A row whose pivot lies
among the covector columns P_f has v = 0 and stays as it is; call those
rows fixed.  The other rows [V | F] become shifted = [V | F + V B^T],
and then shifted - shifted[:, P_f] @ fixed, which clears their entries
at P_f with the rows that hold a 1 there and leaves V as it was.  The
result is again an RREF basis, with the same pivots, built by products
and sums of ``Matrix`` alone, and nothing is eliminated
(``b_transform_eigenspace``).  ``classification.decompose`` hands E
through its B-field transform this way instead of solving for it again.

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


def b_transform(j: GCAut, b: TwoForm) -> GCAut:
    if b.n != j.n:
        raise ValueError("two-form dimension mismatch")
    # B is skew, so X B = -X B^T, which mul_t forms from B's rows
    bm = b.m
    j4 = j.j4 + bm @ j.j2
    return GCAut(j.j1 + j.j2.mul_t(bm), j.j2, j.j3 + bm @ j.j1 + j4.mul_t(bm), j4)


def beta_transform(j: GCAut, beta: BiVector) -> GCAut:
    if beta.n != j.n:
        raise ValueError("bivector dimension mismatch")
    # beta is skew, so X beta = -X beta^T, which mul_t forms from beta's rows
    bm = beta.m
    j1 = j.j1 + bm @ j.j3
    return GCAut(j1, j.j2 + bm @ j.j4 + j1.mul_t(bm), j.j3, j.j4 + j.j3.mul_t(bm))


def b_transform_eigenspace(e: IsotropicE, b: TwoForm) -> IsotropicE:
    """e^B E, read off E's RREF basis by back-substitution, with no
    elimination (see the module docstring)."""
    n, s = e.n, e.e
    if b.n != n:
        raise ValueError("two-form dimension mismatch")
    # the rows with a pivot in V come first, as pivots ascend
    k = sum(p < n for p in s.pivots)
    v, f = s.basis.block(0, k, 0, n), s.basis.block(0, k, n, 2 * n)
    fixed = s.basis.block(k, s.dim, 0, 2 * n)
    shifted = Matrix.from_blocks(QI, [[v, f + v.mul_t(b.m)]])
    if fixed.rows:
        # clear the covector pivot columns with the rows that hold them
        shifted = shifted - shifted.select_columns(s.pivots[k:]) @ fixed
    basis = Matrix.from_blocks(QI, [[shifted], [fixed]])
    return IsotropicE(n, Subspace(QI, 2 * n, basis, list(s.pivots)))


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
    return _classify(j, j.j2.is_invertible())


def _typed(j: GCAut):
    """(classify_type(j), J2^-1 or None): B-symplecticity decided by the
    one inversion of J2 that recovering the symplectic form needs."""
    try:
        j2_inv = j.j2.inverse()
    except ValueError:
        j2_inv = None
    return _classify(j, j2_inv is not None), j2_inv


def _classify(j: GCAut, b_symplectic: bool) -> StructureType:
    """classify_type, given whether J2 inverts."""
    n = j.n
    flags = StructureType(
        is_complex=j.j2.is_zero() and j.j3.is_zero(),
        is_b_complex=j.j2.is_zero(),
        is_beta_complex=j.j3.is_zero(),
        is_symplectic=j.j1.is_zero(),
        is_b_symplectic=b_symplectic,
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
    return _recover(j, *_typed(j))


def _recover(j: GCAut, types: StructureType, j2_inv: Matrix | None = None) -> RecoveredData:
    """recover, given the flags and the J2^-1 that ``_typed(j)`` has
    already returned; j2_inv is needed only when j is B-symplectic."""
    half = QQ.coerce("1/2")
    if types.is_b_symplectic:
        n = j.n
        omega = TwoForm(-j2_inv)
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
    aut = GCAut.from_full(full)
    check = _validated(aut)
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
