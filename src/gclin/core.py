"""Generalized complex structures on a real vector space V.

A structure is handled in two interchangeable forms:

* ``GCAut``: the orthogonal automorphism of V + V* with square -1, stored
  as four rational n x n blocks (j1: V->V, j2: V*->V, j3: V->V*,
  j4: V*->V*).  Coordinates on V + V* are ordered (v_1..v_n, f_1..f_n),
  and elements are column vectors.
* ``IsotropicE``: the +i eigenspace, a maximally isotropic Q(i)-subspace
  E of dimension n in the complexified V + V* with E meeting its
  conjugate only in 0.

The third form, a pure spinor line, is derived on demand by the spinor
module rather than stored.

A structure keeps its checked eigenspace.  The first call that needs E
of a ``GCAut`` j, ``to_eigenspace`` or any operation that reads E through
it, solves for E and checks j against it (``_validated``); a valid j
keeps E in its ``_e`` slot, and every later question about j reads it.
An invalid j keeps nothing and is refused on every call.  A ``GCAut``
refuses assignment, so a kept E cannot go stale.  ``to_aut`` of an E
returns a ``GCAut`` that keeps E, and an E solved from J keeps J's
blocks, which ``to_aut`` returns instead of rebuilding J.  E holds the
blocks and not the ``GCAut``, so the two forms reference each other
without a cycle and are freed by reference counting.  Equality, hashing
and printing read the blocks alone.

Every eigenspace is checked by one function, ``_checked_eigenspace``.
In (pivot P, free F) column order E's RREF basis is Re E = [1 | A] and
Im E = [0 | B], rational blocks, and dim(E meet conj E) = dim E - rank B:
for dim E = n, E is transverse to its conjugate exactly when B inverts,
and ``_aut_of`` rebuilds J from that B^-1 alone.  Where J is known, B^-1
needs no elimination: with K = J^T, J acting as i on E reads Im K = Re,
whose P columns give B K[F, P] = 1, so B^-1 = K[F, P].  ``_validated``
hands that block to E's check as a candidate B^-1, and the check decides
B B^-1 = 1 (``Matrix.mul_is``) instead of inverting B; only a
caller-built E has B eliminated, once.

Each entry checks its value once, by two routes that must agree:

* ``validate_aut``: e:1 to e:7, against J^T S J = S (S the swap) on
  the full matrix, which with either half of the list gives the other;
* ``to_eigenspace``, ``_validated``: e:1 to e:7, against E = row space
  of J^T + i passing ``_checked_eigenspace`` with J acting as i on it
  (``_checked_pair``, the check of a pair (J, E)), once per valid J,
  which keeps E;
* a B-transform of a structure that keeps E: E needs no new solve, as
  e^B acts on it by the unipotent shear, and
  ``transforms.b_transform_eigenspace`` moves its RREF basis by
  back-substitution.  ``classification.decompose`` pairs e^B J with that
  E through ``_checked_pair``: e:1 to e:7 on e^B J, against the moved E
  passing ``_checked_eigenspace`` with e^B J acting as i on it, which
  is the second route and fails on a wrongly moved E;
* ``to_aut`` on a caller-built E: ``_checked_eigenspace``, against the
  rebuilt J acting as i on E and satisfying e:1 to e:7 (``_aut_of``);
  ``spinor.structure_from_spinor`` also checks the E it builds from a
  spinor against (phi, conj phi) != 0.
  An E from ``_validated`` has passed both of its routes with the J
  whose blocks it keeps, and ``to_aut`` checks nothing again.

All two-forms B (and bivectors beta) are identified with the linear maps
v -> iota_v B they induce; as matrices these are skew.  The bilinear form
pairing against the coefficient matrix is recovered via transpose.
Matrices are read and built through ``linalg``'s public operations alone.
"""

from __future__ import annotations

from .fields import QI, QQ, I, rational_from_ints
from .linalg import Matrix, Subspace, vec_dot

_MINUS_HALF = rational_from_ints(-1, 2)
_set = object.__setattr__

# Block equations characterizing a valid automorphism, used as violation
# labels in validation results and CLI errors.
EQUATION_LABELS = {
    "e:1": "J1^2 + J2*J3 = -1",
    "e:2": "J1*J2 + J2*J4 = 0",
    "e:3": "J3*J1 + J4*J3 = 0",
    "e:4": "J4^2 + J3*J2 = -1",
    "e:5": "J4 = -J1^*",
    "e:6": "skewness of J2",
    "e:7": "skewness of J3",
}


def pairing(x, y):
    """Standard pairing <v+f, w+g> = -1/2 (f(w) + g(v)) on V + V*.

    Inputs are coordinate vectors of even length 2n over Q or Q(i).
    """
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("pairing needs two vectors of equal even length")
    n = len(x) // 2
    return vec_dot(x, [*y[n:], *y[:n]]) * _MINUS_HALF


def is_isotropic(e: Subspace) -> bool:
    """Whether the pairing vanishes on a subspace of V + V*.

    With basis vectors x_a = (v_a, f_a) stacked as X and S the swap of
    V and V*, the pairing of x_a and x_b is -(X S X^T)[a][b] / 2, so the
    check is X S X^T = 0 (``Matrix.swap_form_vanishes``), which dots each
    pair of basis rows once and forms no Gram matrix.
    """
    if e.ambient_dim % 2:
        raise ValueError("isotropy needs an even ambient dimension")
    return e.basis.swap_form_vanishes()


def quadratic_form(x):
    """Q(v+f) = -f(v); equals pairing(x, x)."""
    return pairing(x, x)


def swap_matrix(field, n) -> Matrix:
    """The coordinate swap tau on V + V* (and the pairing Gram up to -1/2)."""
    z = Matrix.zero(field, n, n)
    i = Matrix.identity(field, n)
    return Matrix.from_blocks(field, [[z, i], [i, z]])


class Record:
    """Base of the library's immutable records.

    A subclass names its fields as class annotations, in order, and a
    class attribute gives a field its default.  Records are built
    positionally or by keyword, run the class's ``__post_init__`` when it
    has one, refuse assignment, and compare, hash and print field by
    field; records of different classes never compare equal.

    Each subclass gets its own straight-line ``__init__``, ``__eq__`` and
    ``__hash__``, generated from its fields as ``collections.namedtuple``
    and ``dataclasses`` generate theirs: shared methods that bind
    arguments generically or read the fields through ``operator.attrgetter``
    run two to three times slower than these.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        if any(f not in cls.__dict__ for f in fields[len(fields) - len(defaults) :]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        mine = "".join(f"self.{f}, " for f in fields)
        theirs = "".join(f"other.{f}, " for f in fields)
        source = [
            f"def __init__(self, {', '.join(fields)}):",
            *[f"    _set(self, {f!r}, {f})" for f in fields],
            "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({mine}))",
        ]
        namespace = {"_set": _set}
        exec("\n".join(source), namespace)
        namespace["__init__"].__defaults__ = defaults or None
        for name in ("__init__", "__eq__", "__hash__"):
            fn = namespace[name]
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            fn.__module__ = cls.__module__
            setattr(cls, name, fn)
        cls._fields = fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class TwoForm(Record):
    """Skew map V -> V* induced by an element of Lambda^2 V*."""

    m: Matrix

    def __post_init__(self):
        if not self.m.is_skew():
            raise ValueError("two-form matrix must be skew")

    @property
    def n(self) -> int:
        return self.m.rows

    @staticmethod
    def zero(n: int) -> "TwoForm":
        return TwoForm(Matrix.zero(QQ, n, n))

    def value(self, u, v):
        """The bilinear value B(u, v) = (iota_u B)(v)."""
        return vec_dot(self.m.apply(u), v)

    def restrict(self, basis_rows) -> "TwoForm":
        """Pullback along the inclusion of the span of the given basis."""
        w = Matrix(self.m.field, basis_rows, cols=self.m.cols)
        return TwoForm((w @ self.m).mul_t(w))

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.m + other.m)

    def __neg__(self) -> "TwoForm":
        return TwoForm(-self.m)


class BiVector(Record):
    """Skew map V* -> V induced by an element of Lambda^2 V."""

    m: Matrix

    def __post_init__(self):
        if not self.m.is_skew():
            raise ValueError("bivector matrix must be skew")

    @property
    def n(self) -> int:
        return self.m.rows

    @staticmethod
    def zero(n: int) -> "BiVector":
        return BiVector(Matrix.zero(QQ, n, n))


class GCAut:
    """Automorphism form of a generalized complex structure, whose fields
    refuse assignment, as a ``Record``'s do, so a kept E stays its E."""

    __slots__ = ("n", "j1", "j2", "j3", "j4", "_e")

    def __init__(self, j1: Matrix, j2: Matrix, j3: Matrix, j4: Matrix):
        n = j1.rows
        for blk in (j1, j2, j3, j4):
            if blk.rows != n or blk.cols != n or blk.field is not QQ:
                raise ValueError("blocks must be rational n x n matrices")
        _set(self, "n", n)
        _set(self, "j1", j1)
        _set(self, "j2", j2)
        _set(self, "j3", j3)
        _set(self, "j4", j4)
        _set(self, "_e", None)  # the checked +i eigenspace, kept by _checked_pair, to_aut, _aut_of

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    @staticmethod
    def from_full(full: Matrix) -> "GCAut":
        if full.rows != full.cols or full.rows % 2:
            raise ValueError("full matrix must be 2n x 2n")
        n = full.rows // 2
        return GCAut(
            full.block(0, n, 0, n),
            full.block(0, n, n, 2 * n),
            full.block(n, 2 * n, 0, n),
            full.block(n, 2 * n, n, 2 * n),
        )

    def full(self) -> Matrix:
        return Matrix.from_blocks(QQ, [[self.j1, self.j2], [self.j3, self.j4]])

    def blocks(self):
        return self.j1, self.j2, self.j3, self.j4

    def __eq__(self, other):
        if not isinstance(other, GCAut):
            return NotImplemented
        return self.n == other.n and self.blocks() == other.blocks()

    def __hash__(self):
        return hash(self.blocks())

    def __repr__(self):
        return f"GCAut(n={self.n})"


class IsotropicE(Record):
    """Eigenspace form: E inside the complexified V + V*.

    An E that a valid J keeps (``_checked_pair``) keeps J's blocks, which
    ``to_aut`` returns as they are; an E built any other way keeps
    nothing, and ``to_aut`` rebuilds J from it and checks both.
    """

    n: int
    e: Subspace
    _j = None  # J's blocks (j1, j2, j3, j4), kept on the E that J keeps

    def __post_init__(self):
        if self.e.field is not QI or self.e.ambient_dim != 2 * self.n:
            raise ValueError("E must be a Q(i) subspace of dimension-2n ambient")


class ValidationResult(Record):
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def _violations(j: GCAut, full: Matrix) -> tuple:
    """The labels of the block equations e:1 to e:7 that j, whose 2n x 2n
    matrix is full, breaks.  J^2 = -1 is decided on the integer rows
    (``Matrix.mul_is``); only when it fails is J^2 + 1 formed, and e:1 to
    e:4 read off its blocks.  e:5 to e:7 are transpose identities
    (``Matrix.is_neg_transpose_of``)."""
    j1, j2, j3, j4 = j.blocks()
    violations = []
    if not full.mul_is(full, -1):
        n = j.n
        square = full @ full + Matrix.identity(QQ, 2 * n)
        for label, r, c in (("e:1", 0, 0), ("e:2", 0, n), ("e:3", n, 0), ("e:4", n, n)):
            if not square.block(r, r + n, c, c + n).is_zero():
                violations.append(label)
    if not j4.is_neg_transpose_of(j1):
        violations.append("e:5")
    if not j2.is_skew():
        violations.append("e:6")
    if not j3.is_skew():
        violations.append("e:7")
    return tuple(violations)


def validate_aut(j: GCAut) -> ValidationResult:
    """Check the seven block equations; cross-check the pairing criterion.

    The second route is J^T S J = S (S the swap): J^T times S J, which is
    J with its row halves swapped, is compared with S by the identity
    kernel ``Matrix.mul_is``, which forms no product, as ``_violations``
    decides the list.  With either half of the list, e:1 to e:4 (J^2 = -1)
    or e:5 to e:7 (S J is skew), it implies the other half, as
    J^T S J = -S J^2 when S J is skew, so each half is checked against
    it.  No eigenspace is computed, so no Q(i)
    elimination runs; ``to_eigenspace`` and ``_validated``, which compute
    E anyway, use E as the second route instead.
    """
    full = j.full()
    violations = _violations(j, full)
    square_ok = not any(v in ("e:1", "e:2", "e:3", "e:4") for v in violations)
    skew_ok = not any(v in ("e:5", "e:6", "e:7") for v in violations)
    swapped = Matrix.from_blocks(QQ, [[j.j3, j.j4], [j.j1, j.j2]])
    pairing_ok = full.transpose().mul_is(swapped, 1, swap_matrix(QQ, j.n))
    if not (square_ok and skew_ok) == (square_ok and pairing_ok) == (skew_ok and pairing_ok):
        raise AssertionError("equation list disagrees with J^T S J = S")
    return ValidationResult(not violations, violations)


def validate_eigenspace(e: IsotropicE) -> ValidationResult:
    return _checked_eigenspace(e)[0]


def _checked_eigenspace(e: IsotropicE, candidate: Matrix | None = None):
    """(verdict on e, B^-1 or None): the one check of an eigenspace.

    E must have dimension n, be isotropic and meet its conjugate only in
    0.  For dim E = n the last is read off E's n x n imaginary block B:
    given a candidate B^-1 (``_validated`` reads one off J^T), E is
    transverse when B times it is 1 (``Matrix.mul_is``, which forms no
    product); without one, B is inverted, which succeeds exactly when E
    is transverse.  The B^-1 is what ``_aut_of`` rebuilds J from.  Only
    for dim E != n, where B is not square, is it the rank of Im E
    (``Subspace.meets_conjugate``).
    """
    n, s = e.n, e.e
    b_inv = None
    if s.dim == n:
        free = [c for c in range(2 * n) if c not in s.pivots]
        b = s.basis.imag_part().select_columns(free)
        if candidate is None:
            try:
                b_inv = b.inverse()
            except ValueError:
                pass
        elif b.mul_is(candidate, 1):
            b_inv = candidate
    violations = [] if s.dim == n else ["dim"]
    if not is_isotropic(s):
        violations.append("isotropy")
    if b_inv is None and (s.dim == n or s.meets_conjugate()):
        violations.append("conjugate-intersection")
    return ValidationResult(not violations, tuple(violations)), b_inv


def _validated(j: GCAut) -> ValidationResult:
    """The verdict on j, for a caller that reports the violations itself:
    E, the row space of J^T + i (one Q(i) elimination), checked with j by
    ``_checked_pair``, which keeps E on a valid j and nothing otherwise."""
    n, full = j.n, j.full()
    shifted = full.transpose().to_gaussian() + Matrix.identity(QI, 2 * n).scale(I)
    e = IsotropicE(n, Subspace.from_spanning(QI, 2 * n, shifted))
    return _checked_pair(j, e, full)


def _checked_pair(j: GCAut, e: IsotropicE, full: Matrix | None = None) -> ValidationResult:
    """The verdict on j, checked against an eigenspace e the library has
    just built for it, by two routes that must agree.  full is j's 2n x 2n
    matrix, when the caller has it.

    The first route is the equation list (``_violations``).  The second
    is "e has dimension n, is isotropic, meets its conjugate only in 0,
    and J acts as i on it": for real J this holds exactly when J^2 = -1
    and J preserves the pairing, and e is then J's +i eigenspace.  (J is
    then i on e and -i on conj e, which span; conversely E = ker(J - i)
    has dimension n, and <x, y> = <Jx, Jy> = -<x, y> on it.)  e's check
    is handed K[F, P] = J[P, F]^T, K = J^T, as its candidate B^-1 (see
    the module docstring), so nothing is inverted.  J acting as i is
    E J^T = i E on e's own Q(i) rows, and it, J^2 = -1 and the transpose
    identities are decided by the identity kernels ``Matrix.mul_t_is``,
    ``mul_is`` and ``is_neg_transpose_of``, isotropy by
    ``Matrix.swap_form_vanishes`` (``is_isotropic``).  Routes
    that disagree raise ``AssertionError``: for the E solved from J they
    are one theorem, and for a carried E (``decompose`` hands E through a
    B-transform) a wrong E fails the second route while J passes the
    first.  A valid j keeps e, and e keeps J's blocks for ``to_aut``; an
    invalid j keeps nothing.
    """
    n, full = j.n, j.full() if full is None else full
    violations = _violations(j, full)
    s = e.e
    candidate = None
    if s.dim == n:
        free = [c for c in range(2 * n) if c not in s.pivots]
        candidate = full.select_columns(free).transpose().select_columns(s.pivots)
    check = _checked_eigenspace(e, candidate)[0]
    # J acts as i on E: E J^T = i E on E's stored rows, that is
    # Re J^T = -Im and Im J^T = Re, the two parts sharing each row's denominator
    route_ok = check.ok and s.basis.mul_t_is(full, I, s.basis)
    if route_ok == bool(violations):
        raise AssertionError("equation list disagrees with the eigenspace of J")
    if not violations:
        _set(j, "_e", e)
        _set(e, "_j", j.blocks())
    return ValidationResult(not violations, violations)


def to_eigenspace(j: GCAut) -> IsotropicE:
    """The +i eigenspace of the complexified automorphism.

    The first call on j computes E and checks it against the block
    equations (``_validated``), and a valid j keeps it: later calls, and
    every operation that reads E through this one, return the kept E.  An
    invalid j keeps nothing and raises ``ValueError`` on every call.
    """
    if j._e is None:
        check = _validated(j)
        if not check:
            raise ValueError(f"invalid automorphism: {', '.join(check.violations)}")
    return j._e


def to_aut(e: IsotropicE) -> GCAut:
    """The real automorphism acting as +i on E and -i on the conjugate.

    An E that ``_validated`` solved from J gives J's blocks back, checked
    there by both routes; any other E is checked here
    (``_checked_eigenspace``), which inverts B once, and J is rebuilt from
    it (``_aut_of``).  The result keeps e.
    """
    if e._j is None:
        check, b_inv = _checked_eigenspace(e)
        if not check:
            raise ValueError(f"invalid eigenspace: {', '.join(check.violations)}")
        return _aut_of(e, b_inv)
    j = GCAut(*e._j)
    _set(j, "_e", e)
    return j


def _aut_of(e: IsotropicE, b_inv: Matrix) -> GCAut:
    """to_aut for an eigenspace its caller has already checked, given the
    B^-1 of that check (``_checked_eigenspace``).

    For x in E, J Re x = -Im x and J Im x = Re x, so with the real and
    imaginary parts of E's RREF basis stacked as R = [Re; Im] and
    T = [-Im; Re], J^T = R^-1 T.  In (pivot P, free F) column order
    Re = [1 | A] and Im = [0 | B], with B square and invertible because E
    meets its conjugate only in 0, so R^-1 = [[1, -A B^-1], [0, B^-1]]:
    the rows of J^T at F are B^-1 Re and those at P are -Im - A B^-1 Re.
    J must act as i on E, E J^T = i E decided on E's own Q(i) rows by the
    identity kernel ``Matrix.mul_t_is``, and satisfy the block equations
    (``_violations``, on the same kernels).
    """
    n, basis, pivots = e.n, e.e.basis, e.e.pivots
    free = [c for c in range(2 * n) if c not in pivots]
    re, im = basis.real_part(), basis.imag_part()
    at_free = b_inv @ re
    at_pivots = -(im + re.select_columns(free) @ at_free)
    # J with its columns in (P, F) order, put back in coordinate order
    order = pivots + free
    full = Matrix.from_blocks(QQ, [[at_pivots], [at_free]]).transpose()
    full = full.select_columns(sorted(range(2 * n), key=order.__getitem__))
    if not basis.mul_t_is(full, I, basis):
        raise AssertionError("reconstructed automorphism does not act as i on E")
    j = GCAut.from_full(full)
    violations = _violations(j, full)
    if violations:
        raise AssertionError(f"reconstructed automorphism invalid: {violations}")
    _set(j, "_e", e)
    return j


def complex_structure(jmat: Matrix) -> GCAut:
    """Structure induced by a complex structure J on V."""
    if not jmat.mul_is(jmat, -1):
        raise ValueError("J does not square to -1")
    n = jmat.rows
    z = Matrix.zero(QQ, n, n)
    return GCAut(jmat, z, z, -jmat.transpose())


def symplectic_structure(omega: TwoForm) -> GCAut:
    """Structure induced by a symplectic form (invertible skew map V -> V*)."""
    try:
        omega_inv = omega.m.inverse()
    except ValueError:
        raise ValueError("symplectic form must be nondegenerate") from None
    z = Matrix.zero(QQ, omega.n, omega.n)
    return GCAut(z, -omega_inv, omega.m, z)


def dualize(j: GCAut) -> GCAut:
    """Transport to the dual space through the summand swap tau."""
    return GCAut(j.j4, j.j3, j.j2, j.j1)


def twist(j: GCAut) -> GCAut:
    """Flip the signs of the off-diagonal blocks."""
    return GCAut(j.j1, -j.j2, -j.j3, j.j4)


def direct_sum(a: GCAut, b: GCAut) -> GCAut:
    """Structure on U + V with coordinates (u, v, u*, v*)."""
    return GCAut(*(Matrix.block_diagonal(QQ, [x, y]) for x, y in zip(a.blocks(), b.blocks())))


def twisted_product(a: GCAut, b: GCAut) -> GCAut:
    """Direct sum of the twist of the first factor with the second."""
    return direct_sum(twist(a), b)


def vector_summand(n: int) -> Subspace:
    """The copy of the complexified V inside V + V* (covector part zero)."""
    return Subspace.coordinate(QI, 2 * n, range(n))


def covector_summand(n: int) -> Subspace:
    """The copy of the complexified V* inside V + V* (vector part zero)."""
    return Subspace.coordinate(QI, 2 * n, range(n, 2 * n))


def conjugate_by_basis(j: GCAut, p: Matrix) -> GCAut:
    """Transport j through the invertible map p: source -> target.

    Covectors move by the inverse transpose, so the conjugation is by
    diag(p, p^-T), whose inverse is diag(p^-1, p^T), and in blocks it is
    p J1 p^-1, p J2 p^T, p^-T J3 p^-1 and p^-T J4 p^T: one inversion.
    """
    try:
        p_inv = p.inverse()
    except ValueError:
        raise ValueError("change of basis must be invertible") from None
    return _conjugate(j, p, p_inv)


def _conjugate(j: GCAut, p: Matrix, p_inv: Matrix) -> GCAut:
    """``conjugate_by_basis`` for a caller that holds p's inverse p_inv."""
    p_inv_t = p_inv.transpose()
    return GCAut(
        p @ j.j1 @ p_inv,
        (p @ j.j2).mul_t(p),
        p_inv_t @ j.j3 @ p_inv,
        (p_inv_t @ j.j4).mul_t(p),
    )


def standard_two_form(e: Subspace) -> Matrix:
    """The 2-form u of the standard data (u, f_i) of a maximally isotropic
    E, annihilator(exp(u) ^ f_1 ^ ... ^ f_k) = E, as its skew n x n
    coefficient matrix over Q(i): u is the sum of u[a][b] f_a ^ f_b over
    a < b.  ``classification.decompose`` reads its B-field and symplectic
    form off it; E must be checked already (``_standard_data``).
    """
    if e.dim != e.ambient_dim // 2:
        raise AssertionError("projection dimension violates maximal isotropy")
    data = _standard_data(e)
    if data is None:
        raise AssertionError("the standard data's pairings do not vanish; subspace not isotropic")
    return data[0]


def _standard_data(e: Subspace):
    """(u, F) for an n-dimensional E in V + V*, or None when E is not
    isotropic: u as in ``standard_two_form`` and F the covector parts of
    E meet V*, the f_i.  ``spinor.standard_data_for_subspace`` builds the
    multivectors from them.

    Read off the canonical RREF basis of E: rows whose pivot lies in V are
    lifts (v_a, g_a) of the RREF basis of rho(E), and the other rows are
    E meet V* in RREF, whose covector parts are the f_i.  E is isotropic
    exactly when the Gram matrix G[a][b] = g_a(v_b) of the lifts is skew
    and every f_i vanishes on every v_a; two covectors always pair to 0.
    u is then the unique 2-form supported on the non-pivot (free) dual
    coordinates of span(f_i) with u(v_a, v_b) = -g_a(v_b): with M the
    vector parts on the free coordinates, u = -M^-1 G M^-T = M^-1 G^T M^-T
    on those coordinates, spread over all n (``Matrix.spread``).
    """
    n = e.ambient_dim // 2
    # pivots ascend, so the lifts are the first rows
    lifts = sum(p < n for p in e.pivots)
    fixed = {p - n for p in e.pivots if p >= n}
    free = [c for c in range(n) if c not in fixed]
    factors = e.basis.block(lifts, e.dim, n, 2 * n)
    if not lifts:
        return Matrix.zero(QI, n, n), factors
    vecs = e.basis.block(0, lifts, 0, n)
    gram_t = vecs.mul_t(e.basis.block(0, lifts, n, 2 * n))
    if not gram_t.is_skew() or not factors.mul_t_is(vecs, 0):
        return None
    try:
        m_inv = vecs.select_columns(free).inverse()
    except ValueError:
        raise AssertionError("vector parts are not a basis on the free coordinates") from None
    return (m_inv @ gram_t).mul_t(m_inv).spread(n, free), factors
