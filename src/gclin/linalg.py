"""Exact dense linear algebra over Q and Q(i).

Matrices are small and dense (ambient dimensions stay in the low tens), so
plain row-major lists of exact scalars are used throughout.  No floating
point, no pivot tolerances: a pivot is any entry != 0.

Subspaces are stored by a reduced row-echelon basis, which makes equality
of subspaces a syntactic comparison of bases.  Coordinate subspaces
(spans of unit vectors), direct sums on complementary coordinate blocks
and graphs of maps have bases already in that form, so ``coordinate``,
``direct_sum`` and ``graph`` build them without elimination.

Elimination, products and vector operations (dot products, matrix times
vector, images, reduction modulo a subspace) all run on plain integers
through one product kernel and one elimination kernel: each row (or
column) is scaled by the common denominator of its entries, so a Q row
becomes a row of Z and a Q(i) row a pair of rows of Z (real and imaginary
parts).  Exact scalars are built only once per result entry.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .fields import QI, QQ, GaussianRational, rational_from_ints


def vec_dot(x, y):
    """x . y; over Q(i) when either side holds a Gaussian rational."""
    if len(x) != len(y):
        raise ValueError("dot product needs equal lengths")
    field = QI if _has_gaussian(x) or _has_gaussian(y) else QQ
    return _product_rows(field, _lift(field, [x]), _lift(field, [y]))[0][0]


def vec_is_zero(x):
    return all(not bool(a) for a in x)


def _has_gaussian(v):
    return any(type(x) is GaussianRational for x in v)


def _lift(field, rows):
    """Rows the integer kernel reads over field: over Q(i) every entry must
    be Gaussian, and rational or int entries get imaginary part 0."""
    if field is QQ:
        return rows
    zero = QQ.zero
    return [
        [x if type(x) is GaussianRational else GaussianRational.from_rationals(x, zero) for x in row]
        for row in rows
    ]


def _int_row(row):
    """(ints, den): the rational row equals ints / den."""
    dens = [x.denominator for x in row]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // d) for x, d in zip(row, dens)], den


def _gauss_int_row(row):
    """(re ints, im ints, den): the Q(i) row equals (re + i*im) / den."""
    re, re_den = _int_row([x.re for x in row])
    im, im_den = _int_row([x.im for x in row])
    if re_den == im_den:
        return re, im, re_den
    den = lcm(re_den, im_den)
    return [x * (den // re_den) for x in re], [x * (den // im_den) for x in im], den


def _primitive(ints):
    """The integer row divided by its content (same row space over Q)."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _rref_z(a, ncols):
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss), in place.

    With d the previous pivot and p the new one, every other row becomes
    (p*row - f*pivot_row) / d; Bareiss's theorem makes the division exact,
    since each entry stays a minor of the input.  Rows keep their pivots
    updated too, so at the end every pivot row carries the last pivot at
    its pivot column.  Returns (pivot columns, last pivot); rows past the
    rank are zero.
    """
    nrows = len(a)
    pivots = []
    d = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = a[i]
            f = row[c]
            if f:
                a[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                a[i] = [p * x // d for x in row]
        pivots.append(c)
        d = p
        r += 1
        if r == nrows:
            break
    return pivots, d


def _rref_zi(ar, ai, ncols):
    """``_rref_z`` over Z[i]; row k is ar[k] + i*ai[k], updated in place.

    Dividing by the previous pivot D = dr + di*i is done as multiplying by
    its conjugate and dividing by the norm, folded into the two row
    factors (or by dr itself when D is real).  Returns (pivot columns,
    (re, im) of the last pivot).
    """
    nrows = len(ar)
    pivots = []
    dr, di = 1, 0
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if ar[k][c] or ai[k][c]), None)
        if pr is None:
            continue
        ar[r], ar[pr] = ar[pr], ar[r]
        ai[r], ai[pr] = ai[pr], ai[r]
        pre, pim = ar[r], ai[r]
        pr_, pi_ = pre[c], pim[c]
        if di:
            cr, ci, norm = dr, -di, dr * dr + di * di
        else:
            cr, ci, norm = 1, 0, dr
        qr, qi = pr_ * cr - pi_ * ci, pr_ * ci + pi_ * cr
        for k in range(nrows):
            if k == r:
                continue
            xre, xim = ar[k], ai[k]
            fr, fi = xre[c], xim[c]
            if fr or fi:
                gr, gi = fr * cr - fi * ci, fr * ci + fi * cr
                ar[k] = [
                    (qr * x - qi * y - gr * u + gi * v) // norm
                    for x, y, u, v in zip(xre, xim, pre, pim)
                ]
                ai[k] = [
                    (qr * y + qi * x - gr * v - gi * u) // norm
                    for x, y, u, v in zip(xre, xim, pre, pim)
                ]
            elif qi or qr != norm:
                ar[k] = [(qr * x - qi * y) // norm for x, y in zip(xre, xim)]
                ai[k] = [(qr * y + qi * x) // norm for x, y in zip(xre, xim)]
        pivots.append(c)
        dr, di = pr_, pi_
        r += 1
        if r == nrows:
            break
    return pivots, (dr, di)


def _rref_rows(field, data, ncols):
    """Canonical RREF rows (all of them, zero rows last) and pivot columns."""
    zero = field.zero
    if field is QI:
        split = [_gauss_int_row(row) for row in data]
        ar = [re for re, _, _ in split]
        ai = [im for _, im, _ in split]
        pivots, (dr, di) = _rref_zi(ar, ai, ncols)
        # x + y*i over the last pivot D: (x + y*i) * conj(D) / |D|^2
        norm = dr * dr + di * di
        out = [
            [
                GaussianRational.from_rationals(
                    rational_from_ints(x * dr + y * di, norm),
                    rational_from_ints(y * dr - x * di, norm),
                )
                if x or y
                else zero
                for x, y in zip(ar[r], ai[r])
            ]
            for r in range(len(pivots))
        ]
    else:
        a = [_primitive(_int_row(row)[0]) for row in data]
        pivots, d = _rref_z(a, ncols)
        out = [
            [rational_from_ints(x, d) if x else zero for x in a[r]]
            for r in range(len(pivots))
        ]
    out += [[zero] * ncols for _ in range(len(data) - len(pivots))]
    return out, pivots


def _product_rows(field, rows, cols):
    """Entry (r, c) is rows[r] . cols[c], from integer dot products, one
    scalar per entry; left @ right is (left's rows, right's columns)."""
    zero = field.zero
    out = []
    if field is QI:
        cols = [_gauss_int_row(col) for col in cols]
        for ar, ai, ad in map(_gauss_int_row, rows):
            line = []
            for br, bi, bd in cols:
                sr = sum(map(mul, ar, br)) - sum(map(mul, ai, bi))
                si = sum(map(mul, ar, bi)) + sum(map(mul, ai, br))
                if sr or si:
                    den = ad * bd
                    line.append(
                        GaussianRational.from_rationals(
                            rational_from_ints(sr, den), rational_from_ints(si, den)
                        )
                    )
                else:
                    line.append(zero)
            out.append(line)
        return out
    cols = [_int_row(col) for col in cols]
    for a, ad in map(_int_row, rows):
        line = []
        for b, bd in cols:
            s = sum(map(mul, a, b))
            line.append(rational_from_ints(s, ad * bd) if s else zero)
        out.append(line)
    return out


class Matrix:
    """Dense matrix over a fixed field tag (QQ or QI)."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols=None):
        self.field = field
        self.data = [[field.coerce(x) for x in row] for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(r) != self.cols for r in self.data):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                cols = 0
            self.cols = cols

    @staticmethod
    def _wrap(field, data, cols) -> "Matrix":
        """A matrix over data whose entries are already scalars of field."""
        m = object.__new__(Matrix)
        m.field = field
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @staticmethod
    def zero(field, rows, cols) -> "Matrix":
        return Matrix._wrap(field, [[field.zero] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field, n) -> "Matrix":
        m = Matrix.zero(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @staticmethod
    def from_blocks(field, blocks) -> "Matrix":
        """Assemble from a 2D grid of matrices with compatible shapes."""
        data = []
        for brow in blocks:
            if not brow:
                continue
            height = brow[0].rows
            for r in range(height):
                data.append([x for blk in brow for x in blk.data[r]])
        total_cols = sum(b.cols for b in blocks[0]) if blocks and blocks[0] else 0
        if any(blk.field is not field for brow in blocks for blk in brow):
            return Matrix(field, data, cols=total_cols)
        cols = len(data[0]) if data else total_cols
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return Matrix._wrap(field, data, cols)

    def block(self, r0, r1, c0, c1) -> "Matrix":
        return Matrix._wrap(self.field, [row[c0:c1] for row in self.data[r0:r1]], c1 - c0)

    def copy(self) -> "Matrix":
        return Matrix._wrap(self.field, [row[:] for row in self.data], self.cols)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix.zero(self.field, self.cols, 0)
        return Matrix._wrap(self.field, [list(col) for col in zip(*self.data)], self.rows)

    def conjugate(self) -> "Matrix":
        conj = self.field.conj
        data = [[conj(x) for x in row] for row in self.data]
        return Matrix._wrap(self.field, data, self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        data = [[a + b for a, b in zip(x, y)] for x, y in zip(self.data, other.data)]
        if other.field is self.field:
            return Matrix._wrap(self.field, data, self.cols)
        return Matrix(self.field, data, cols=self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._wrap(self.field, [[-x for x in row] for row in self.data], self.cols)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix._wrap(self.field, [[c * x for x in row] for row in self.data], self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        field = self.field if other.field is self.field else QI
        left = self.data if self.field is field else _lift(field, self.data)
        right = list(zip(*other.data)) if other.rows else [()] * other.cols
        if other.field is not field:
            right = _lift(field, right)
        return Matrix._wrap(field, _product_rows(field, left, right), other.cols)

    def apply(self, v):
        """Matrix times column vector, returned as a plain list."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        field = QI if self.field is QI or _has_gaussian(v) else QQ
        rows = self.data if self.field is field else _lift(field, self.data)
        return [line[0] for line in _product_rows(field, rows, _lift(field, [v]))]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self.data)

    def is_skew(self) -> bool:
        return self.rows == self.cols and (self.transpose() == -self)

    def rref(self):
        """Reduced row-echelon form; returns (rref matrix, pivot column list)."""
        out, pivots = _rref_rows(self.field, self.data, self.cols)
        return Matrix._wrap(self.field, out, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right kernel {x : self @ x = 0} as a subspace of F^cols."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for c in free:
            v = [self.field.zero] * self.cols
            v[c] = self.field.one
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][c]
            basis.append(v)
        return Subspace._span(self.field, self.cols, basis)

    def solve(self, b):
        """One solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        aug = Matrix.from_blocks(
            self.field, [[self, Matrix(self.field, [[v] for v in b], cols=1)]]
        )
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [self.field.zero] * self.cols
        for r, c in enumerate(pivots):
            x[c] = red.data[r][self.cols]
        return x

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = Matrix.from_blocks(self.field, [[self, Matrix.identity(self.field, n)]])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return red.block(0, n, n, 2 * n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def to_gaussian(self) -> "Matrix":
        """Lift a rational matrix to Q(i) (identity on Q(i) matrices)."""
        if self.field is QI:
            return self
        return Matrix._wrap(QI, _lift(QI, self.data), self.cols)

    def real_part(self) -> "Matrix":
        if self.field is QQ:
            return self
        return Matrix._wrap(QQ, [[x.re for x in row] for row in self.data], self.cols)

    def imag_part(self) -> "Matrix":
        if self.field is QQ:
            return Matrix.zero(QQ, self.rows, self.cols)
        return Matrix._wrap(QQ, [[x.im for x in row] for row in self.data], self.cols)

    def is_real(self) -> bool:
        return self.field is QQ or self.imag_part().is_zero()

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field.name}, {self.rows}x{self.cols}: {body})"


class Subspace:
    """Linear subspace of F^ambient_dim with a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def from_spanning(field, ambient_dim, vectors) -> "Subspace":
        m = Matrix(field, [list(v) for v in vectors], cols=ambient_dim)
        if m.cols != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return Subspace._span(field, ambient_dim, m.data)

    @staticmethod
    def _span(field, ambient_dim, rows) -> "Subspace":
        """The span of rows whose entries are already scalars of field."""
        red, pivots = Matrix._wrap(field, rows, ambient_dim).rref()
        basis = Matrix._wrap(field, red.data[: len(pivots)], ambient_dim)
        return Subspace(field, ambient_dim, basis, pivots)

    @staticmethod
    def coordinate(field, ambient_dim, indices) -> "Subspace":
        """The span of the unit vectors e_c for c in indices (ascending)."""
        pivots = list(indices)
        if any(not 0 <= a < b for a, b in zip(pivots, pivots[1:] + [ambient_dim])):
            raise ValueError("coordinate indices must ascend within the ambient dimension")
        zero, one = field.zero, field.one
        rows = [[one if c == i else zero for c in range(ambient_dim)] for i in pivots]
        return Subspace(field, ambient_dim, Matrix._wrap(field, rows, ambient_dim), pivots)

    @staticmethod
    def zero(field, ambient_dim) -> "Subspace":
        return Subspace.coordinate(field, ambient_dim, [])

    @staticmethod
    def full(field, ambient_dim) -> "Subspace":
        return Subspace.coordinate(field, ambient_dim, range(ambient_dim))

    @staticmethod
    def graph(m: Matrix) -> "Subspace":
        """The graph {(x, m x)} of the map m, inside F^cols + F^rows."""
        rows = Matrix.from_blocks(m.field, [[Matrix.identity(m.field, m.cols), m.transpose()]])
        return Subspace(m.field, m.cols + m.rows, rows, list(range(m.cols)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self):
        return [row[:] for row in self.basis.data]

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def reduce(self, v):
        """Remainder of v after subtracting its projection onto the basis.

        The basis is in RREF, so the projection is v[pivots] @ basis and
        the remainder the one product [1, -v[pivots]] @ [v; basis].
        """
        field = self.field
        v = [field.coerce(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        lead = [field.one] + [-v[p] for p in self.pivots]
        return _product_rows(field, [lead], list(zip(v, *self.basis.data)))[0]

    def contains(self, v) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.data)

    def coordinates(self, v):
        """Coefficients of v in the RREF basis; v must lie in the subspace."""
        if not self.contains(v):
            raise ValueError("vector not in subspace")
        return [self.field.coerce(v[p]) for p in self.pivots]

    def direct_sum(self, other: "Subspace") -> "Subspace":
        """self + other inside F^(m + k), self on the first m coordinates
        and other on the last k."""
        if self.field is not other.field:
            raise ValueError("direct sum of subspaces over different fields")
        m, k, zero = self.ambient_dim, other.ambient_dim, self.field.zero
        rows = [row + [zero] * k for row in self.basis.data]
        rows += [[zero] * m + row for row in other.basis.data]
        pivots = self.pivots + [m + p for p in other.pivots]
        return Subspace(self.field, m + k, Matrix._wrap(self.field, rows, m + k), pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient_dim, self.basis.data + other.basis.data)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        # (lam, mu) with lam^T A = mu^T B <=> A^T lam - B^T mu = 0
        at = self.basis.transpose()
        bt = other.basis.transpose()
        combos = Matrix.from_blocks(self.field, [[at, -bt]]).kernel().basis
        lam = combos.block(0, combos.rows, 0, self.dim)
        return Subspace._span(self.field, self.ambient_dim, (lam @ self.basis).data)

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace (in dual coordinates)."""
        return self.basis.kernel()

    def conjugate(self) -> "Subspace":
        return Subspace._span(self.field, self.ambient_dim, self.basis.conjugate().data)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def complement(self) -> "Subspace":
        """Deterministic complement spanned by non-pivot coordinate vectors."""
        free = [c for c in range(self.ambient_dim) if c not in self.pivots]
        return Subspace.coordinate(self.field, self.ambient_dim, free)

    def image(self, m: Matrix) -> "Subspace":
        """Image of this subspace under the linear map given by m."""
        if m.cols != self.ambient_dim:
            raise ValueError("map domain mismatch")
        product = self.basis @ m.transpose()
        return Subspace._span(product.field, m.rows, product.data)

    def to_gaussian(self) -> "Subspace":
        if self.field is QI:
            return self
        return Subspace(QI, self.ambient_dim, self.basis.to_gaussian(), list(self.pivots))

    def real_form(self) -> "Subspace":
        """Real subspace R with R_C = self; requires conjugation stability."""
        if self.field is QQ:
            return self
        if not self.is_real():
            raise ValueError("subspace is not conjugation stable")
        spanning = []
        for row in self.basis.data:
            spanning.append([x.re for x in row])
            spanning.append([x.im for x in row])
        real = Subspace._span(QQ, self.ambient_dim, spanning)
        if real.dim != self.dim:
            raise ValueError("real form has wrong dimension")
        return real

    def __repr__(self):
        return f"Subspace({self.field.name}, dim {self.dim} of {self.ambient_dim})"

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field is not other.field:
            raise ValueError("ambient mismatch between subspaces")
