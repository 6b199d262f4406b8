"""Exact dense linear algebra over Q and Q(i).

Matrices are small and dense (ambient dimensions stay in the low tens).
No floating point, no pivot tolerances: a pivot is any entry != 0.

Storage.  A matrix is a list of rows of plain integers over one positive
denominator: a Q row is ``(ints, den)`` and stands for ints / den, a Q(i)
row is ``(re, im, den)`` and stands for (re + i*im) / den.  Every stored
row is canonical, ``den > 0`` and ``gcd(den, *ints) == 1`` (over Q(i) the
gcd runs over both parts), so equal matrices have equal rows and
``==``/``hash`` compare integers.  Stored rows are never changed in
place, so matrices share them freely.

Subspaces are stored by a reduced row-echelon basis, which makes equality
of subspaces a comparison of bases.  Coordinate subspaces (spans of unit
vectors), direct sums on complementary coordinate blocks, graphs of maps,
conjugates, sign flips of coordinates and projections onto leading
coordinates have bases already in that form, so ``coordinate``,
``direct_sum``, ``graph``, ``conjugate``, ``negate_first`` and
``project_first`` build them without elimination.  The null rows N, which
span the annihilator, are read off the stored RREF basis and its pivots
with no elimination and kept on the subspace (``null_rows``).  They are
the one route for membership: W is the annihilator of its annihilator,
so x lies in W exactly when x N^T = 0, which ``contains``,
``first_outside`` and ``coordinates`` decide with the zero test of
``_first_miss``.  ``annihilator`` eliminates N once and keeps the
result, ``kernel`` is the annihilator of the row space (two
eliminations), and ``intersect`` pairs one basis with the other's N and
eliminates once, at width ambient - dim(other) + dim(self)
(``orthogonal_to``, the same for any rows in place of N).

Every product of stored rows runs one loop, ``_dots``: the integer parts
of x . y for a row x against rows y, (re,) over Q and (re, im) when
either side is over Q(i); a zero test runs its twin ``_dots_vanish``,
which stops at the first product that is not zero.  ``@`` and ``mul_t``
make its results canonical (``_against``).  ``a.mul_t(b)`` is
``a @ b.transpose()``: the rows of b, brought to one denominator, are
the columns of the product as they stand, where a transpose would
rescale them into columns only for ``@`` to read them back.
``Matrix.block_diagonal(field, blocks)`` pads each stored row with
zeros, which keeps it canonical, where ``from_blocks`` with
``Matrix.zero`` blocks would rejoin every row over a common denominator;
``spread`` places rows on chosen coordinates alike.

Identity kernels decide a @ b = c without building a @ b, and one
kernel, ``_first_miss``, decides every product form:
``a.mul_is(b, s, c)`` and ``a.mul_t_is(b, s, c)`` decide a @ b = s*c and
a @ b^T = s*c for a scalar s, c the identity when omitted (so
``j.mul_is(j, -1)`` is J^2 = -1 and ``x.mul_t_is(y, 0)`` is x y^T = 0,
of any shape).  Each row's dot products are compared with c's row, both
sides brought to the same scale by cross-multiplying the denominators,
and the first row with a mismatch ends the check: no gcd, no canonical
row, no Matrix.  The zero test (s = 0 and no c) compares no scale: it
forms a row's dot products one at a time, over Q(i) as the two
equalities re(x).re(y) = im(x).im(y) and re(x).im(y) = -im(x).re(y),
and the first nonzero one ends both the row and the check
(``_dots_vanish``).
``a.zero_product_miss(x, b)`` returns the first row r with
(a @ x^T @ b^T)[r] != 0, or None: x's rows are brought to one
denominator once, and each middle row a_r @ x^T, plain integer dot
products and so a nonzero multiple of the true row, is formed only when
the kernel reaches it.  Two checks stay outside the kernel, where it
would multiply more: ``a.is_neg_transpose_of(b)`` decides a = -b^T entry
against entry (``_is_neg_transpose``), where a product with the identity
would cost a factor of n, and ``is_skew`` is the case b = a; and
``swap_form_vanishes`` (isotropy, x S y^T = 0 for S the swap of the
column halves; ``swap_orthogonal`` is the orthogonal space under S) dots
each row only with the rows after it, half of the symmetric Gram matrix
that the kernel would check whole.

Every operation reads and returns integer rows, and no other module
reads, builds or joins them.  Exact scalars (``Fraction`` and
``GaussianRational``) appear only at the edge: ``Matrix(field, rows)``
and ``Subspace.from_spanning`` convert them in (``fields.int_row``),
``Matrix.from_gaussian_ints`` takes integer rows in as they are and
``to_gaussian_ints`` hands copies of them out, and ``Matrix.data``
builds scalars out when read, as a read-only tuple that is not kept, as
do the vector-valued ``apply``, ``solve``, ``reduce`` and ``vec_dot``.
An elimination whose shape settles its answer (no rows, or no columns)
returns at once: ``rref``, ``rank``, ``inverse`` and the span.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .fields import QI, QQ, GaussianRational, gauss_int_row, int_row, rational, rational_from_ints

_EXACT = (Fraction, int)


def vec_dot(x, y):
    """x . y; over Q(i) when either side holds a Gaussian rational."""
    if len(x) != len(y):
        raise ValueError("dot product needs equal lengths")
    field = QI if _has_gaussian(x) or _has_gaussian(y) else QQ
    return Matrix(field, [x]).mul_t(Matrix(field, [y])).data[0][0]


def _has_gaussian(v):
    return any(type(x) is GaussianRational for x in v)


def _row_of(field, row):
    """The stored row of a sequence of scalars; entries that are not yet
    exact scalars of the field are coerced first."""
    if all(type(x) is int for x in row):
        # ints over 1 are canonical as they stand
        return (list(row), 1) if field is QQ else (list(row), [0] * len(row), 1)
    if field is QQ:
        if not all(type(x) in _EXACT for x in row):
            row = [rational(x) for x in row]
        return int_row(row)
    if not all(type(x) is GaussianRational for x in row):
        # exact rationals need no coercion, only an imaginary part
        row = [GaussianRational.from_rationals(x, 0) if type(x) in _EXACT else QI.coerce(x) for x in row]
    return gauss_int_row(row)


def _canon(den, *parts):
    """The canonical row of the integer lists parts over den != 0: (ints,
    den) over Q and (re, im, den) over Q(i)."""
    if den == 1:
        return (*parts, 1)
    g = gcd(den, *parts[0]) if len(parts) == 1 else gcd(den, *parts[0], *parts[1])
    if den < 0:
        g = -g
    if g == 1:
        return (*parts, den)
    return (*[[x // g for x in p] for p in parts], den // g)


def _zero_row(field, ncols):
    zeros = [0] * ncols
    return (zeros, 1) if field is QQ else (zeros, zeros, 1)


def _unit_rows(field, ncols, columns):
    """The stored rows of the unit vectors e_c of F^ncols, c in columns."""
    units = [[0] * c + [1] + [0] * (ncols - 1 - c) for c in columns]
    return [(u, 1) if field is QQ else (u, [0] * ncols, 1) for u in units]


def _is_zero_row(row):
    return not any(map(any, row[:-1]))


def _scalars(field, row):
    """The entries of a stored row as exact scalars."""
    if field is QQ:
        ints, den = row
        zero = QQ.zero
        return tuple([rational_from_ints(x, den) if x else zero for x in ints])
    re, im, den = row
    zero = QI.zero
    return tuple(
        [
            GaussianRational.from_rationals(rational_from_ints(x, den), rational_from_ints(y, den))
            if x or y
            else zero
            for x, y in zip(re, im)
        ]
    )


def _scaled(rows, den):
    """The integer parts of stored rows brought to the common denominator den."""
    out = []
    for row in rows:
        f = den // row[-1]
        out.append(row[:-1] if f == 1 else tuple([x * f for x in part] for part in row[:-1]))
    return out


def _join(pieces):
    """One stored row from pieces laid side by side; canonical because the
    pieces are and the denominator is the lcm of theirs."""
    den = lcm(*[p[-1] for p in pieces])
    if len(pieces[0]) == 2:
        ints = []
        for p, d in pieces:
            ints += p if d == den or not any(p) else [x * (den // d) for x in p]
        return ints, den
    re, im = [], []
    for pr, pi, d in pieces:
        f = den // d
        re += pr if f == 1 or not any(pr) else [x * f for x in pr]
        im += pi if f == 1 or not any(pi) else [y * f for y in pi]
    return re, im, den


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
        if r == nrows:
            break
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
        if r == nrows:
            break
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
    return pivots, (dr, di)


def _against(a, cols, den):
    """Stored rows whose entry c is row r of a, over the result's field,
    dotted with cols[c], integer parts over the common denominator den of
    that field or of Q (a real factor is not lifted to Q(i))."""
    return [_canon(row[-1] * den, *_dots(row[:-1], cols)) for row in a]


def _columns(field, rows, ncols):
    """(den, columns): the ncols columns of stored rows as integer parts
    (tuples), all over the rows' common denominator den; the rows of the
    transpose, not made canonical."""
    if not rows:
        return 1, [_zero_row(field, 0)[:-1]] * ncols
    den = lcm(*(row[-1] for row in rows))
    # per part, the columns of the scaled rows; then the parts of each column
    return den, list(zip(*[zip(*part) for part in zip(*_scaled(rows, den))]))


def _product(field, a, b, ncols):
    """Stored rows of a @ b, for stored rows a of field and b of it or Q."""
    den, cols = _columns(field, b, ncols)
    return _against(a, cols, den)


def _dots(x, ys):
    """The integer parts of x . y, y in ys, for integer parts of rows
    ((ints,) over Q, (re, im) over Q(i)): (re,) when x and the ys are over
    Q, (re, im) otherwise; every y has as many parts as ys[0].  Over Q(i),
    (xr + i*xi) . (yr + i*yi) = xr.yr - xi.yi + i*(xr.yi + xi.yr)."""
    xr = x[0]
    if ys and len(ys[0]) == 2:
        if len(x) == 1:
            return [sum(map(mul, xr, yr)) for yr, _ in ys], [sum(map(mul, xr, yi)) for _, yi in ys]
        xi = x[1]
        return (
            [sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)) for yr, yi in ys],
            [sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)) for yr, yi in ys],
        )
    re = [sum(map(mul, xr, y)) for (y,) in ys]
    return (re,) if len(x) == 1 else (re, [sum(map(mul, x[1], y)) for (y,) in ys])


def _dots_vanish(x, ys):
    """Whether x . y = 0 for every y in ys, for integer parts as in
    ``_dots``; each product is tested as it is formed, and the first that
    is not zero ends the test."""
    if len(x) == 2 and ys and len(ys[0]) == 2:
        xr, xi = x
        for yr, yi in ys:
            if sum(map(mul, xr, yr)) != sum(map(mul, xi, yi)) or sum(map(mul, xr, yi)) != -sum(map(mul, xi, yr)):
                return False
        return True
    # a side over Q: each part of x . y is a part of x dotted with a part of y
    for y in ys:
        for q in y:
            for p in x:
                if sum(map(mul, p, q)):
                    return False
    return True


def _first_miss(a, ys, dbs, scale, target):
    """Index of the first row a_r of a at which a_r . b_k = s * target[r][k]
    fails for some b_k = ys[k] / dbs[k], s = (sr + i*si) / sd given as
    scale = (sr, si, sd); None when every entry holds.

    a (any iterable, read row by row) and target are rows of integer parts
    over a nonzero denominator, (ints, den) or (re, im, den), canonical or
    not, and ys integer parts; target None is the identity, or, when s =
    0, the zero matrix of any shape, which tests the dot products alone,
    to the first that is not zero (``_dots_vanish``).
    With a_r over da, b_k over db and the target row over dt,
    the entry holds when dot(a_r, b_k) * dt * sd = (sr + i*si) * t * da * db,
    so both sides are compared as integers, row by row, and the first row
    with a mismatch stops the loop: no product is formed, reduced or kept.
    """
    sr, si, sd = scale
    if target is None and not (sr or si):
        return next((r for r, row in enumerate(a) if not _dots_vanish(row[:-1], ys)), None)
    for r, row in enumerate(a):
        da = row[-1]
        parts = _dots(row[:-1], ys)
        re, im = parts if len(parts) == 2 else (parts[0], [0] * len(ys))
        if target is None:
            # s at column r, 0 elsewhere
            right = da * dbs[r]
            if re[r] * sd != sr * right or im[r] * sd != si * right:
                return r
            re[r] = im[r] = 0
            if any(re) or any(im):
                return r
            continue
        *t, dt = target[r]
        ur = t[0]
        ui = t[1] if len(t) == 2 else [0] * len(ur)
        left = dt * sd
        for p, q, u, v, db in zip(re, im, ur, ui, dbs):
            right = da * db
            if p * left != (sr * u - si * v) * right or q * left != (sr * v + si * u) * right:
                return r
    return None


def _is_neg_transpose(a, b) -> bool:
    """Whether stored rows a are minus the transpose of stored rows b of
    the same field: a[r][c] / da = -b[c][r] / db for every r, c, decided
    as a[r][c] * db = -b[c][r] * da part by part.  When b is a, each pair
    of entries is compared once."""
    for r, row in enumerate(a):
        da = row[-1]
        for c in range(r if a is b else 0, len(b)):
            col = b[c]
            db = col[-1]
            for pa, pb in zip(row[:-1], col[:-1]):
                if pa[c] * db != -pb[r] * da:
                    return False
    return True


def _null_rows(field, n, rows, pivots):
    """Stored rows spanning the null space in F^n of reduced rows with the
    given pivot columns (each has 1 at its pivot column, where the others
    have 0, as in RREF), one per free column.

    With the rows brought to their common denominator L, the null vector
    of free column c scaled by L has L at c and minus the row's integer at
    c in each pivot row's column; no elimination is needed.
    """
    den = lcm(*(row[-1] for row in rows))
    scaled = _scaled(rows, den)
    taken = set(pivots)
    null_rows = []
    for c in range(n):
        if c in taken:
            continue
        v = [[0] * n for _ in range(1 if field is QQ else 2)]
        v[0][c] = den
        for parts, pc in zip(scaled, pivots):
            for part, p in zip(v, parts):
                part[pc] = -p[c]
        null_rows.append((*v, 1))
    return null_rows


class Matrix:
    """Dense matrix over a fixed field tag (QQ or QI), stored as canonical
    integer rows (see the module docstring)."""

    __slots__ = ("field", "rows", "cols", "_z")

    def __init__(self, field, data, cols=None):
        z = [_row_of(field, row) for row in data]
        if z:
            cols = len(z[0][0])
            if any(len(row[0]) != cols for row in z):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        self.field = field
        self._z = z
        self.rows = len(z)
        self.cols = cols

    @staticmethod
    def _of(field, z, cols) -> "Matrix":
        """A matrix over already canonical stored rows."""
        m = object.__new__(Matrix)
        m.field = field
        m._z = z
        m.rows = len(z)
        m.cols = cols
        return m

    @property
    def data(self):
        """The entries as exact scalars: a tuple of row tuples, built anew
        on each read (no second copy is kept) and read-only."""
        field = self.field
        return tuple([_scalars(field, row) for row in self._z])

    @staticmethod
    def zero(field, rows, cols) -> "Matrix":
        return Matrix._of(field, [_zero_row(field, cols)] * rows, cols)

    @staticmethod
    def from_entries(field, rows, cols, entries) -> "Matrix":
        """The rows x cols matrix with the scalars {(r, c): x} of entries
        and zeros elsewhere."""
        zero = 0 if all(type(x) is int for x in entries.values()) else field.zero
        dense = [[zero] * cols for _ in range(rows)]
        for (r, c), x in entries.items():
            dense[r][c] = x
        return Matrix(field, dense, cols=cols)

    @staticmethod
    def from_gaussian_ints(rows, cols) -> "Matrix":
        """The Q(i) matrix of rows re + i*im, integer lists kept as handed over."""
        return Matrix._of(QI, [(re, im, 1) for re, im in rows], cols)

    def to_gaussian_ints(self):
        """The rows as (re, im, den) integers, row r being (re + i*im) / den
        with den > 0 and gcd(den, *re, *im) = 1; fresh lists, so a caller
        that writes into them changes no matrix."""
        return [(list(re), list(im), d) for re, im, d in self._rows_over(QI)]

    @staticmethod
    def identity(field, n) -> "Matrix":
        return Matrix._of(field, _unit_rows(field, n, range(n)), n)

    @staticmethod
    def from_blocks(field, blocks) -> "Matrix":
        """Assemble from a 2D grid of matrices with compatible shapes."""
        z = []
        cols = None
        for brow in blocks:
            if not brow:
                continue
            width = sum(blk.cols for blk in brow)
            cols = width if cols is None else cols
            if width != cols or any(blk.rows != brow[0].rows for blk in brow):
                raise ValueError("ragged rows")
            pieces = [blk._rows_over(field) for blk in brow]
            z += pieces[0] if len(pieces) == 1 else map(_join, zip(*pieces))
        return Matrix._of(field, z, cols or 0)

    @staticmethod
    def block_diagonal(field, blocks) -> "Matrix":
        """diag(blocks): each block's stored rows padded with zeros on both
        sides, which keeps them canonical, so nothing is rescaled."""
        width = sum(blk.cols for blk in blocks)
        z = []
        left = 0
        for blk in blocks:
            pad_l, pad_r = [0] * left, [0] * (width - left - blk.cols)
            rows = blk._rows_over(field)
            if field is QQ:
                z += [(pad_l + ints + pad_r, d) for ints, d in rows]
            else:
                z += [(pad_l + re + pad_r, pad_l + im + pad_r, d) for re, im, d in rows]
            left += blk.cols
        return Matrix._of(field, z, width)

    def _rows_over(self, field):
        """The stored rows of self read over field (Q rows lift to Q(i))."""
        if self.field is field:
            return self._z
        if field is QQ:
            raise TypeError("a Q(i) matrix has no rows over Q")
        return self.to_gaussian()._z

    def block(self, r0, r1, c0, c1) -> "Matrix":
        z = [_canon(row[-1], *[p[c0:c1] for p in row[:-1]]) for row in self._z[r0:r1]]
        return Matrix._of(self.field, z, c1 - c0)

    def select_columns(self, columns) -> "Matrix":
        """The matrix of the given columns of self, in the given order."""
        columns = list(columns)
        z = [_canon(row[-1], *[[p[c] for c in columns] for p in row[:-1]]) for row in self._z]
        return Matrix._of(self.field, z, len(columns))

    def spread(self, size, at) -> "Matrix":
        """The size x size matrix with entry (a, b) of the square self at
        (at[a], at[b]) and zeros elsewhere; spread rows stay canonical."""
        z = [_zero_row(self.field, size)] * size
        for x, row in zip(at, self._z):
            parts = []
            for part in row[:-1]:
                spread = [0] * size
                for c, v in zip(at, part):
                    spread[c] = v
                parts.append(spread)
            z[x] = (*parts, row[-1])
        return Matrix._of(self.field, z, size)

    def transpose(self) -> "Matrix":
        den, cols = _columns(self.field, self._z, self.cols)
        z = [_canon(den, *map(list, col)) for col in cols]
        return Matrix._of(self.field, z, self.rows)

    def conjugate(self) -> "Matrix":
        if self.field is QQ:
            return self
        return Matrix._of(QI, [(re, [-y for y in im], d) for re, im, d in self._z], self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        field = self.field if other.field is self.field else QI
        z = []
        for x, y in zip(self._rows_over(field), other._rows_over(field)):
            den = lcm(x[-1], y[-1])
            px, py = _scaled([x, y], den)
            z.append(_canon(den, *[[u + v for u, v in zip(p, q)] for p, q in zip(px, py)]))
        return Matrix._of(field, z, self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        z = [(*[[-x for x in p] for p in row[:-1]], row[-1]) for row in self._z]
        return Matrix._of(self.field, z, self.cols)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        if self.field is QQ:
            cn, cd = c.numerator, c.denominator
            z = [_canon(d * cd, [x * cn for x in ints]) for ints, d in self._z]
        else:
            (cr,), (ci,), cd = gauss_int_row([c])
            z = [
                _canon(
                    d * cd,
                    [x * cr - y * ci for x, y in zip(re, im)],
                    [x * ci + y * cr for x, y in zip(re, im)],
                )
                for re, im, d in self._z
            ]
        return Matrix._of(self.field, z, self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        field = self.field if other.field is self.field else QI
        z = _product(field, self._rows_over(field), other._z, other.cols)
        return Matrix._of(field, z, other.cols)

    def mul_t(self, other) -> "Matrix":
        """self @ other.transpose(), taking other's stored rows as the
        columns instead of building the transpose."""
        if self.cols != other.cols:
            raise ValueError("shape mismatch in product")
        field = self.field if other.field is self.field else QI
        rows = other._z
        den = lcm(*(row[-1] for row in rows))
        z = _against(self._rows_over(field), _scaled(rows, den), den)
        return Matrix._of(field, z, other.rows)

    def apply(self, v):
        """Matrix times column vector, returned as a plain list."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        field = QI if self.field is QI or _has_gaussian(v) else QQ
        return [row[0] for row in self.mul_t(Matrix(field, [v])).data]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        if self.field is other.field:
            return self._z == other._z
        return self._rows_over(QI) == other._rows_over(QI)

    def __hash__(self):
        # the real parts and denominators: equal across fields when equal
        return hash((self.rows, self.cols, tuple((tuple(row[0]), row[-1]) for row in self._z)))

    def is_zero(self) -> bool:
        return all(map(_is_zero_row, self._z))

    def is_skew(self) -> bool:
        return self.rows == self.cols and self.is_neg_transpose_of(self)

    def is_neg_transpose_of(self, other) -> bool:
        """Whether self = -other^T, decided on the stored rows
        (``_is_neg_transpose``) without building either side."""
        if (self.rows, self.cols) != (other.cols, other.rows):
            return False
        field = self.field if other.field is self.field else QI
        return _is_neg_transpose(self._rows_over(field), other._rows_over(field))

    def swap_form_vanishes(self) -> bool:
        """Whether x S y^T = 0 for all rows x, y, S swapping the column
        halves; symmetric, so each row is dotted only with the later rows."""
        if self.cols % 2:
            raise ValueError("the swap needs an even number of columns")
        h = self.cols // 2
        rows = [row[:-1] for row in self._z]
        swapped = [[p[h:] + p[:h] for p in row] for row in rows]
        for a, row in enumerate(rows):
            if any(map(any, _dots(row, swapped[a:]))):
                return False
        return True

    def mul_is(self, other, scale, target=None) -> bool:
        """Whether self @ other = scale * target, target None being the
        identity (any zero matrix when scale is 0); decided entry by entry
        on the stored rows (``_first_miss``) against other's columns,
        without forming the product."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        den, cols = _columns(other.field, other._z, other.cols)
        return self._first_miss(cols, [den] * len(cols), scale, target) is None

    def mul_t_is(self, other, scale, target=None) -> bool:
        """Whether self @ other.transpose() = scale * target, as
        ``mul_is`` with other's stored rows as the columns."""
        if self.cols != other.cols:
            raise ValueError("shape mismatch in product")
        z = other._z
        return self._first_miss([row[:-1] for row in z], [row[-1] for row in z], scale, target) is None

    def zero_product_miss(self, x, b):
        """The first row of self @ x.transpose() @ b.transpose() that is
        not zero, or None; no product is formed (see the module docstring)."""
        if self.cols != x.cols or x.rows != b.cols:
            raise ValueError("shape mismatch in product")
        xs = _scaled(x._z, lcm(*(row[-1] for row in x._z)))
        # a_r x^T over 1: a nonzero multiple of the true row, as a zero test needs
        middle = ((*_dots(row[:-1], xs), 1) for row in self._z)
        return _first_miss(middle, [row[:-1] for row in b._z], None, (0, 0, 1), None)

    def _first_miss(self, ys, dbs, scale, target):
        """The first row of self where self @ Y = scale * target fails, for
        Y's columns ys / dbs (0 when target has another shape), or None."""
        if type(scale) is GaussianRational:
            (sr,), (si,), sd = gauss_int_row([scale])
        else:  # an int or a Fraction
            sr, si, sd = scale.numerator, 0, scale.denominator
        if target is None:
            if (sr or si) and self.rows != len(ys):
                return 0
        elif (target.rows, target.cols) != (self.rows, len(ys)):
            return 0
        return _first_miss(self._z, ys, dbs, (sr, si, sd), target if target is None else target._z)

    def rref(self):
        """Reduced row-echelon form; returns (rref matrix, pivot column list).

        The elimination runs on the rows' integers alone (scaling a row
        keeps the row space); pivot row r comes out as a[r] / d, d the
        last Bareiss pivot, and is made canonical.
        """
        field, n = self.field, self.cols
        if not self.rows or not n:
            # no rows, or rows of no entries: nothing to eliminate
            return Matrix._of(field, [_zero_row(field, 0)] * self.rows, n), []
        if field is QQ:
            a = [_primitive(ints) for ints, _ in self._z]
            pivots, d = _rref_z(a, n)
            z = [_canon(d, a[r]) for r in range(len(pivots))]
        else:
            ar, ai = [], []
            for re, im, _ in self._z:
                g = gcd(*re, *im)
                ar.append([x // g for x in re] if g > 1 else re)
                ai.append([y // g for y in im] if g > 1 else im)
            pivots, (dr, di) = _rref_zi(ar, ai, n)
            if di:
                # (x + y*i) / D = (x + y*i) * conj(D) / |D|^2
                z = [
                    _canon(
                        dr * dr + di * di,
                        [x * dr + y * di for x, y in zip(ar[r], ai[r])],
                        [y * dr - x * di for x, y in zip(ar[r], ai[r])],
                    )
                    for r in range(len(pivots))
                ]
            else:
                z = [_canon(dr, ar[r], ai[r]) for r in range(len(pivots))]
        if self.rows > len(pivots):
            z += [_zero_row(field, n)] * (self.rows - len(pivots))
        return Matrix._of(field, z, n), pivots

    def rank(self) -> int:
        return len(self.rref()[1]) if self.rows and self.cols else 0

    def kernel(self) -> "Subspace":
        """Right kernel {x : self @ x = 0} as a subspace of F^cols: the
        annihilator of the row space, two eliminations."""
        return Subspace._span(self.field, self.cols, self._z).annihilator()

    def solve(self, b):
        """One solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        field, n = self.field, self.cols
        rhs = Matrix(field, [[v] for v in b], cols=1)
        red, pivots = Matrix.from_blocks(field, [[self, rhs]]).rref()
        if n in pivots:
            return None
        x = [field.zero] * n
        column = red.select_columns([n]).data
        for r, c in enumerate(pivots):
            x[c] = column[r][0]
        return x

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        if not n:
            return self
        red, pivots = Matrix.from_blocks(self.field, [[self, Matrix.identity(self.field, n)]]).rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return red.block(0, n, n, 2 * n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def to_gaussian(self) -> "Matrix":
        """Lift a rational matrix to Q(i) (identity on Q(i) matrices)."""
        if self.field is QI:
            return self
        zeros = [0] * self.cols
        return Matrix._of(QI, [(ints, zeros, d) for ints, d in self._z], self.cols)

    def real_part(self) -> "Matrix":
        if self.field is QQ:
            return self
        return Matrix._of(QQ, [_canon(d, re) for re, _, d in self._z], self.cols)

    def imag_part(self) -> "Matrix":
        if self.field is QQ:
            return Matrix.zero(QQ, self.rows, self.cols)
        return Matrix._of(QQ, [_canon(d, im) for _, im, d in self._z], self.cols)

    def is_real(self) -> bool:
        return self.field is QQ or not any(any(im) for _, im, _ in self._z)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field.name}, {self.rows}x{self.cols}: {body})"


class Subspace:
    """Linear subspace of F^ambient_dim with a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_null", "_ann")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._null = None  # the null rows, set only by null_rows
        self._ann = None  # the annihilator, set only by annihilator

    @staticmethod
    def from_spanning(field, ambient_dim, vectors) -> "Subspace":
        """The span of vectors: rows of scalars, or the rows of a Matrix."""
        if isinstance(vectors, Matrix):
            m = vectors
        else:
            m = Matrix(field, [list(v) for v in vectors], cols=ambient_dim)
        if m.cols != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return Subspace._span(field, ambient_dim, m._rows_over(field))

    @staticmethod
    def _span(field, ambient_dim, rows) -> "Subspace":
        """The span of canonical stored rows of field."""
        red, pivots = Matrix._of(field, rows, ambient_dim).rref()
        basis = Matrix._of(field, red._z[: len(pivots)], ambient_dim)
        return Subspace(field, ambient_dim, basis, pivots)

    @staticmethod
    def from_scan(m: Matrix, start) -> "Subspace":
        """The span of m's rows, eliminating its first start rows and then
        each row that ``first_outside`` finds outside the span so far; a
        row inside a span lies inside every larger one."""
        field, n, z = m.field, m.cols, m._z
        chosen = z[:start]
        while True:
            span = Subspace._span(field, n, chosen)
            outside = span.first_outside(Matrix._of(field, z[start:], n))
            if outside is None:
                return span
            start += outside + 1
            chosen.append(z[start - 1])

    @staticmethod
    def coordinate(field, ambient_dim, indices) -> "Subspace":
        """The span of the unit vectors e_c for c in indices (ascending)."""
        pivots = list(indices)
        if any(not 0 <= a < b for a, b in zip(pivots, pivots[1:] + [ambient_dim])):
            raise ValueError("coordinate indices must ascend within the ambient dimension")
        basis = Matrix._of(field, _unit_rows(field, ambient_dim, pivots), ambient_dim)
        return Subspace(field, ambient_dim, basis, pivots)

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
        return [list(row) for row in self.basis.data]

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

    def _row(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return _row_of(self.field, v)

    def reduce(self, v):
        """Remainder of v after subtracting its projection onto the basis:
        the basis is in RREF, so that projection is v[P] @ basis for the
        pivot columns P, one product."""
        x = Matrix._of(self.field, [self._row(v)], self.ambient_dim)
        return list((x - x.select_columns(self.pivots) @ self.basis).data[0])

    def contains(self, v) -> bool:
        return self.first_outside(Matrix._of(self.field, [self._row(v)], self.ambient_dim)) is None

    def first_outside(self, m: Matrix):
        """Index of the first row of m that lies outside the subspace, or
        None when every row lies inside: the first row x with x N^T != 0
        for the kept null rows N (see the module docstring)."""
        if m.cols != self.ambient_dim:
            raise ValueError("vector length mismatch")
        null = self.null_rows()._z
        return _first_miss(m._rows_over(self.field), [row[:-1] for row in null], None, (0, 0, 1), None)

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
        m, field = self.ambient_dim, self.field
        rows = Matrix.block_diagonal(field, [self.basis, other.basis])
        pivots = self.pivots + [m + p for p in other.pivots]
        return Subspace(field, m + other.ambient_dim, rows, pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient_dim, self.basis._z + other.basis._z)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        return self.orthogonal_to(other.null_rows())

    def orthogonal_to(self, null: Matrix) -> "Subspace":
        """The vectors x of this subspace with x . r = 0 for every row r of
        null, say the null rows N of some other subspace (those of other
        in ``intersect``); only the span of N matters.

        x = y A lies in the meet when y (A N^T) = 0.  The RREF of
        [A N^T | 1] ends in rows [0 | y] that are an RREF basis of that
        left kernel, and then y A is in RREF with pivots A's at y's.
        """
        if self.dim == 0 or null.rows == 0:
            return self
        field, n, a = self.field, self.ambient_dim, self.basis._z
        width = null.rows
        paired = self.basis.mul_t(null)._z
        aug = list(map(_join, zip(paired, Matrix.identity(field, len(a))._z)))
        red, pivots = Matrix._of(field, aug, width + len(a)).rref()
        k = len([p for p in pivots if p < width])
        y = [_canon(row[-1], *[p[width:] for p in row[:-1]]) for row in red._z[k : len(pivots)]]
        basis = Matrix._of(field, _product(field, y, a, n), n)
        return Subspace(field, n, basis, [self.pivots[q - width] for q in pivots[k:]])

    def swap_orthogonal(self) -> "Subspace":
        """The y with x S y^T = 0 for all x in the subspace, S swapping the
        (even) coordinate halves: the null rows, halves swapped, eliminated once."""
        h, null = self.ambient_dim // 2, self.null_rows()._z
        if self.field is QQ:
            return Subspace._span(QQ, 2 * h, [(a[h:] + a[:h], d) for a, d in null])
        return Subspace._span(QI, 2 * h, [(a[h:] + a[:h], b[h:] + b[:h], d) for a, b, d in null])

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace (in dual coordinates): the
        span of the kept null rows, eliminated once and kept."""
        if self._ann is None:
            self._ann = Subspace._span(self.field, self.ambient_dim, self.null_rows()._z)
        return self._ann

    def null_rows(self) -> Matrix:
        """Rows spanning the annihilator, read off as ``_null_rows`` once and kept."""
        if self._null is None:
            n = self.ambient_dim
            self._null = Matrix._of(self.field, _null_rows(self.field, n, self.basis._z, self.pivots), n)
        return self._null

    def negate_first(self, k) -> "Subspace":
        """The image under the map negating the first k coordinates.

        Negating those entries of the RREF basis keeps every pivot column a
        unit column up to sign, and negating each row whose pivot lies among
        them restores the 1s, so the result is in RREF without elimination.
        """
        z = []
        for row, p in zip(self.basis._z, self.pivots):
            s = -1 if p < k else 1
            parts = [[-s * x for x in part[:k]] + [s * x for x in part[k:]] for part in row[:-1]]
            z.append((*parts, row[-1]))
        basis = Matrix._of(self.field, z, self.ambient_dim)
        return Subspace(self.field, self.ambient_dim, basis, list(self.pivots))

    def conjugate(self) -> "Subspace":
        """The conjugate subspace; conjugating an RREF basis keeps it RREF."""
        return Subspace(self.field, self.ambient_dim, self.basis.conjugate(), list(self.pivots))

    def meets_conjugate(self) -> bool:
        """Whether the subspace meets its conjugate in more than 0.

        The pivot columns of the RREF basis are real unit columns, so in
        (pivot, free) column order its real part is [1 | A] and its
        imaginary part [0 | B].  The sum with the conjugate is the row
        space of [[1, A], [0, B]], so the intersection has dimension
        dim - rank B, and rank B is the rank of the imaginary part.
        """
        return self.basis.imag_part().rank() != self.dim

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
        product = self.basis.mul_t(m)
        return Subspace._span(product.field, m.rows, product._z)

    def project_first(self, m) -> "Subspace":
        """Image under the projection onto the first m coordinates.

        The rows of the RREF basis with a pivot at m or past it vanish on
        those coordinates; the others, cut to them, keep their pivot
        columns as unit columns, so they are the image's RREF basis as they
        stand and nothing is eliminated.
        """
        k = sum(p < m for p in self.pivots)
        return Subspace(self.field, m, self.basis.block(0, k, 0, m), self.pivots[:k])

    def to_gaussian(self) -> "Subspace":
        if self.field is QI:
            return self
        return Subspace(QI, self.ambient_dim, self.basis.to_gaussian(), list(self.pivots))

    def __repr__(self):
        return f"Subspace({self.field.name}, dim {self.dim} of {self.ambient_dim})"

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field is not other.field:
            raise ValueError("ambient mismatch between subspaces")
