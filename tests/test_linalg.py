from copy import deepcopy
from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random

import pytest
from hypothesis import given, seed, settings, strategies as st

from gclin import linalg
from gclin.core import to_eigenspace
from gclin.fields import QI, QQ, GaussianRational
from gclin.linalg import Matrix, Subspace, vec_dot
from gclin.samples import random_gcs, random_subspace
from gclin.serialize import encode_subspace
from gclin.subspaces import (
    is_generalized_coisotropic,
    is_generalized_isotropic,
    is_generalized_lagrangian,
)
from helpers import first_nonzero_row, real_form


def laplace_det(rows):
    """Independent determinant oracle: cofactor expansion over exact ints."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        term = rows[0][c] * laplace_det(minor)
        total += term if c % 2 == 0 else -term
    return total


def oracle_rref(field, data, cols):
    """Per-entry Gauss-Jordan over exact scalars: the route before the
    integer kernel, kept as an independent oracle."""
    m = [[field.coerce(x) for x in row] for row in data]
    rows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def oracle_product(field, a, b, cols):
    """Row-by-column product, one exact multiply-add per term."""
    out = []
    for row in a:
        line = []
        for c in range(cols):
            s = field.zero
            for x, brow in zip(row, b):
                s = s + field.coerce(x) * field.coerce(brow[c])
            line.append(s)
        out.append(line)
    return out


def as_view(rows):
    """Rows of scalars in the read-only form of ``Matrix.data``."""
    return tuple(tuple(row) for row in rows)


def rank_by_minors(rows, cols_count):
    """Largest k with a nonzero k x k minor."""
    m = len(rows)
    for k in range(min(m, cols_count), 0, -1):
        for rsel in combinations(range(m), k):
            for csel in combinations(range(cols_count), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if laplace_det(sub) != 0:
                    return k
    return 0


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    red, pivots = m.rref()
    assert red == m
    assert pivots == [0, 1, 2]


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])
def test_identity_equals_the_construction_from_entries(field):
    for n in range(5):
        direct = Matrix.identity(field, n)
        dense = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for other in (Matrix.from_entries(field, n, n, {(i, i): 1 for i in range(n)}), Matrix(field, dense, cols=n)):
            assert direct == other
            assert (direct.field, direct.rows, direct.cols, direct._z) == (other.field, other.rows, other.cols, other._z)


def test_rref_dependent_rows():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    red, pivots = m.rref()
    assert red.data[0] == (QQ.one, QQ.coerce(2))
    assert red.data[1] == (QQ.zero, QQ.zero)
    assert len(pivots) == 1


def test_rank_matches_minor_expansion_oracle():
    rng = Random(20240)
    for _ in range(25):
        rows = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(5)]
        expected = rank_by_minors(rows, 7)
        assert Matrix(QQ, rows).rank() == expected


def test_rref_idempotent():
    rng = Random(7)
    for _ in range(20):
        m = Matrix(QQ, [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)])
        red, _ = m.rref()
        again, _ = red.rref()
        assert again == red


def test_kernel_zero_map():
    assert Matrix.zero(QQ, 2, 2).kernel() == Subspace.full(QQ, 2)


def test_kernel_identity():
    assert Matrix.identity(QQ, 2).kernel() == Subspace.zero(QQ, 2)


def test_kernel_gaussian_example():
    # [[1, i], [0, 0]] kills exactly the line through (-i, 1) = span (1, i)
    i = GaussianRational(0, 1)
    m = Matrix(QI, [[1, i], [0, 0]])
    ker = m.kernel()
    assert ker.dim == 1
    assert ker.contains([-i, QI.one])
    assert ker.basis.data[0] == (QI.one, i)


def test_kernel_dimension_rule():
    rng = Random(99)
    for _ in range(20):
        m = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(6)] for _ in range(4)])
        assert m.kernel().dim == 6 - m.rank()


def test_annihilator_coordinate_example():
    w = Subspace.from_spanning(QQ, 2, [[1, 0]])
    assert w.annihilator() == Subspace.from_spanning(QQ, 2, [[0, 1]])


def test_grassmann_dimension_identity():
    rng = Random(5)
    for _ in range(30):
        a = _random_subspace(rng, 6)
        b = _random_subspace(rng, 6)
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


def test_conjugate_example():
    i = GaussianRational(0, 1)
    s = Subspace.from_spanning(QI, 2, [[QI.one, i]])
    assert s.conjugate() == Subspace.from_spanning(QI, 2, [[QI.one, -i]])


def test_double_annihilator_is_identity():
    rng = Random(31)
    for _ in range(20):
        a = _random_subspace(rng, 5)
        assert a.annihilator().annihilator() == a


def test_real_iff_conjugation_stable():
    rng = Random(13)
    for _ in range(20):
        real = _random_subspace(rng, 5)
        lifted = real.to_gaussian()
        assert lifted.is_real()
        assert real_form(lifted) == real
    # a genuinely complex line is not conjugation stable
    i = GaussianRational(0, 1)
    line = Subspace.from_spanning(QI, 2, [[QI.one, i]])
    assert not line.is_real()
    with pytest.raises(ValueError):
        real_form(line)


def test_complement_is_deterministic_and_complementary():
    rng = Random(77)
    for _ in range(20):
        a = _random_subspace(rng, 6)
        c = a.complement()
        assert a.intersect(c).is_zero()
        assert a.sum(c) == Subspace.full(QQ, 6)
        assert c == a.complement()


def test_intersect_rejects_ambient_mismatch():
    a = Subspace.full(QQ, 2)
    b = Subspace.full(QQ, 3)
    with pytest.raises(ValueError):
        a.intersect(b)


def test_solve_consistent_and_inconsistent():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    assert m.solve([1, 2]) is not None
    assert m.solve([1, 3]) is None
    sol = m.solve([3, 6])
    assert m.apply(sol) == [QQ.coerce(3), QQ.coerce(6)]


def test_inverse_round_trip():
    rng = Random(4)
    for _ in range(10):
        while True:
            m = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
            if m.is_invertible():
                break
        assert m @ m.inverse() == Matrix.identity(QQ, 4)


def _random_subspace(rng, n):
    k = rng.randint(0, n)
    return Subspace.from_spanning(
        QQ, n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    )


small_entries = st.integers(min_value=-3, max_value=3)
rational_entries = st.one_of(
    st.just(0), small_entries, st.fractions(min_value=-4, max_value=4, max_denominator=6)
)
gaussian_entries = st.one_of(
    rational_entries.map(GaussianRational),
    st.builds(GaussianRational, rational_entries, rational_entries),
)


@st.composite
def matrix_rows(draw, field, rows=None, cols=None):
    """Rows of a random matrix, often rank-deficient, with zero rows and
    columns mixed in; either dimension may be 0."""
    entries = rational_entries if field is QQ else gaussian_entries

    def grid(height, width):
        return st.lists(
            st.lists(entries, min_size=width, max_size=width), min_size=height, max_size=height
        )

    if rows is None:
        rows = draw(st.integers(min_value=0, max_value=5))
    if cols is None:
        cols = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()):
        # a product through an inner dimension below both sides
        k = draw(st.integers(min_value=0, max_value=max(0, min(rows, cols) - 1)))
        left = draw(grid(rows, k))
        right = draw(grid(k, cols))
        data = oracle_product(field, left, right, cols)
    else:
        data = draw(grid(rows, cols))
        data = [[field.coerce(x) for x in row] for row in data]
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=max(0, rows - 1)), max_size=2))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(0, cols - 1)), max_size=2))
    return [
        [field.zero if r in zero_rows or c in zero_cols else x for c, x in enumerate(row)]
        for r, row in enumerate(data)
    ]


def _assert_scalar_types(field, m):
    rational = type(QQ.one)
    for row in m.data:
        for x in row:
            if field is QQ:
                assert type(x) is rational
            else:
                assert type(x) is GaussianRational
                assert type(x.re) is rational and type(x.im) is rational


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hyp_rref_matches_oracle(field, data):
    rows = data.draw(matrix_rows(field))
    cols = len(rows[0]) if rows else data.draw(st.integers(min_value=0, max_value=4))
    red, pivots = Matrix(field, rows, cols=cols).rref()
    expected, expected_pivots = oracle_rref(field, rows, cols)
    assert pivots == expected_pivots
    assert red.data == as_view(expected)
    assert (red.rows, red.cols) == (len(rows), cols)
    _assert_scalar_types(field, red)


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hyp_product_matches_oracle(field, data):
    rows = data.draw(st.integers(min_value=0, max_value=4))
    inner = data.draw(st.integers(min_value=0, max_value=4))
    cols = data.draw(st.integers(min_value=0, max_value=4))
    a = data.draw(matrix_rows(field, rows, inner))
    b = data.draw(matrix_rows(field, inner, cols))
    prod = Matrix(field, a, cols=inner) @ Matrix(field, b, cols=cols)
    assert prod.data == as_view(oracle_product(field, a, b, cols))
    assert (prod.rows, prod.cols) == (rows, cols)
    _assert_scalar_types(field, prod)


def test_gaussian_rref_with_non_real_pivots():
    # pivots 1+i, then a non-real Bareiss divisor; checked against the oracle
    i = GaussianRational(0, 1)
    rows = [
        [1 + i, 2, i, GaussianRational(1, 3)],
        [i, 1 - i, 3, 0],
        [2, GaussianRational("1/2", -1), 1 + 2 * i, 5],
    ]
    red, pivots = Matrix(QI, rows).rref()
    expected, expected_pivots = oracle_rref(QI, rows, 4)
    assert (red.data, pivots) == (as_view(expected), expected_pivots)
    assert pivots == [0, 1, 2]


@st.composite
def subspaces(draw, n=4):
    k = draw(st.integers(min_value=0, max_value=n))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=n, max_size=n), min_size=k, max_size=k
        )
    )
    return Subspace.from_spanning(QQ, n, rows)


@settings(max_examples=40, deadline=None)
@given(subspaces())
def test_hyp_double_annihilator(a):
    assert a.annihilator().annihilator() == a


@settings(max_examples=40, deadline=None)
@given(subspaces(), subspaces())
def test_hyp_grassmann(a, b):
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=5, max_size=5), min_size=3, max_size=3))
def test_hyp_rref_idempotent(rows):
    red, _ = Matrix(QQ, rows).rref()
    assert red.rref()[0] == red


@settings(max_examples=40, deadline=None)
@given(subspaces())
def test_hyp_sum_with_complement_full(a):
    assert a.sum(a.complement()) == Subspace.full(QQ, 4)


def oracle_dot(x, y):
    """Per-entry dot product: the route before the integer kernel."""
    s = None
    for a, b in zip(x, y):
        s = a * b if s is None else s + a * b
    return 0 if s is None else s


def oracle_reduce(s, v):
    """Per-entry reduction modulo the RREF basis, one pivot at a time."""
    v = [s.field.coerce(x) for x in v]
    for row, p in zip(s.basis.data, s.pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _field_entries(field):
    """Vector entries the vector layer accepts for field: ints, rationals
    and, over Q(i), Gaussian rationals."""
    return rational_entries if field is QQ else st.one_of(rational_entries, gaussian_entries)


@st.composite
def spanned_subspaces(draw, field, ambient=None):
    """A subspace from random, often dependent, spanning rows; it may be
    zero-dimensional and the ambient dimension may be 0."""
    if ambient is None:
        ambient = draw(st.integers(min_value=0, max_value=5))
    rows = draw(matrix_rows(field, cols=ambient))
    return Subspace.from_spanning(field, ambient, rows)


@st.composite
def probe_vectors(draw, s):
    """A vector of s's ambient space: in s (a combination of its basis) or
    random, with entries of mixed scalar types."""
    n = s.ambient_dim
    entries = _field_entries(s.field)
    if s.dim and draw(st.booleans()):
        coeffs = draw(st.lists(entries, min_size=s.dim, max_size=s.dim))
        v = combination(coeffs, s)
        # plain ints where the combination is integral
        return [
            int(x) if not isinstance(x, GaussianRational) and x.denominator == 1 else x
            for x in v
        ]
    return draw(st.lists(entries, min_size=n, max_size=n))


def combination(coeffs, s):
    """sum of coeffs[r] * basis row r, entry by entry."""
    return [oracle_dot(coeffs, [row[c] for row in s.basis.data]) for c in range(s.ambient_dim)]


FIELDS = pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])


@pytest.mark.parametrize(
    "left,right", [(QQ, QQ), (QQ, QI), (QI, QQ), (QI, QI)], ids=["Q.Q", "Q.Qi", "Qi.Q", "Qi.Qi"]
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hyp_vec_dot_matches_oracle(left, right, data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    x = data.draw(st.lists(_field_entries(left), min_size=n, max_size=n))
    y = data.draw(st.lists(_field_entries(right), min_size=n, max_size=n))
    got = vec_dot(x, y)
    assert got == oracle_dot(x, y)
    has_gaussian = any(isinstance(a, GaussianRational) for a in x + y)
    assert type(got) is (GaussianRational if has_gaussian else type(QQ.one))


def test_vec_dot_edge_cases():
    assert vec_dot([], []) == 0
    assert vec_dot([1, 2], [3, 4]) == 11
    i = GaussianRational(0, 1)
    assert vec_dot([i, 1], [i, QQ.coerce("1/2")]) == GaussianRational("-1/2")
    with pytest.raises(ValueError):
        vec_dot([1], [1, 2])


@pytest.mark.parametrize(
    "mfield,vfield", [(QQ, QQ), (QQ, QI), (QI, QQ), (QI, QI)], ids=["Q.Q", "Q.Qi", "Qi.Q", "Qi.Qi"]
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hyp_apply_matches_oracle(mfield, vfield, data):
    rows = data.draw(matrix_rows(mfield))
    cols = len(rows[0]) if rows else data.draw(st.integers(min_value=0, max_value=4))
    m = Matrix(mfield, rows, cols=cols)
    v = data.draw(st.lists(_field_entries(vfield), min_size=cols, max_size=cols))
    got = m.apply(v)
    assert got == [oracle_dot(row, v) if cols else mfield.zero for row in m.data]
    field = QI if mfield is QI or any(isinstance(x, GaussianRational) for x in v) else QQ
    _assert_scalar_types(field, Matrix(field, [got]) if got else Matrix(field, []))


def test_rational_matrix_applied_to_gaussian_vector():
    i = GaussianRational(0, 1)
    m = Matrix(QQ, [[1, 2], [0, "1/3"]])
    assert m.apply([i, 1]) == [2 + i, QQ.coerce("1/3")]
    assert all(type(x) is GaussianRational for x in m.apply([i, 1]))


@pytest.mark.parametrize(
    "sfield,mfield", [(QQ, QQ), (QQ, QI), (QI, QQ), (QI, QI)], ids=["Q.Q", "Q.Qi", "Qi.Q", "Qi.Qi"]
)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hyp_image_matches_oracle(sfield, mfield, data):
    s = data.draw(spanned_subspaces(sfield))
    height = data.draw(st.integers(min_value=0, max_value=5))
    m = Matrix(mfield, data.draw(matrix_rows(mfield, height, s.ambient_dim)), cols=s.ambient_dim)
    field = QI if QI in (sfield, mfield) else QQ
    expected = Subspace.from_spanning(
        field, m.rows, [[oracle_dot(row, v) for row in m.data] for v in s.basis.data]
    )
    assert s.image(m) == expected


@FIELDS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hyp_reduce_contains_coordinates_match_oracle(field, data):
    s = data.draw(spanned_subspaces(field))
    v = data.draw(probe_vectors(s))
    remainder = s.reduce(v)
    expected = oracle_reduce(s, v)
    assert remainder == expected
    _assert_scalar_types(field, Matrix(field, [remainder]) if remainder else Matrix(field, []))
    inside = all(not x for x in expected)
    assert s.contains(v) == inside
    if inside:
        coerced = [field.coerce(x) for x in v]
        coords = s.coordinates(v)
        assert coords == [coerced[p] for p in s.pivots]
        assert combination(coords, s) == coerced
    else:
        with pytest.raises(ValueError):
            s.coordinates(v)


@FIELDS
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hyp_intersect_matches_oracle(field, data):
    a = data.draw(spanned_subspaces(field))
    b = data.draw(spanned_subspaces(field, a.ambient_dim))
    got = a.intersect(b)
    # oracle: inside both (per-entry reduction) and of Grassmann dimension
    for row in got.basis.data:
        assert not any(oracle_reduce(a, row)) and not any(oracle_reduce(b, row))
    assert got.dim == a.dim + b.dim - a.sum(b).dim
    assert got == b.intersect(a)


@FIELDS
def test_an_elimination_of_no_rows_walks_no_column(field):
    # neither the column scan nor the zero rows it appends depend on the width
    m = Matrix(field, [], cols=10**9)
    red, pivots = m.rref()
    assert (red.rows, red.cols, red._z, pivots) == (0, 10**9, [], [])
    assert Subspace.from_spanning(field, 10**9, m).is_zero()


def test_zero_dimensional_vector_operations():
    for field in (QQ, QI):
        z = Subspace.zero(field, 3)
        assert z.reduce([1, 2, 3]) == [1, 2, 3]
        assert not z.contains([0, 1, 0]) and z.contains([0, 0, 0])
        assert z.coordinates([0, 0, 0]) == []
        empty = Subspace.zero(field, 0)
        assert empty.reduce([]) == [] and empty.contains([])
        assert z.image(Matrix.identity(field, 3)) == z
        assert Matrix.zero(field, 2, 0).apply([]) == [field.zero, field.zero]
        assert Matrix.zero(field, 0, 2).apply([1, 2]) == []


def unit_rows(field, ambient, indices):
    """The unit vectors e_c for c in indices, built entry by entry as the
    callers of the coordinate builder once did; kept as an oracle."""
    rows = []
    for c in indices:
        v = [field.zero] * ambient
        v[c] = field.one
        rows.append(v)
    return rows


def assert_same_subspace(got, want):
    """Equal as subspaces, with the same basis rows and pivots."""
    assert got == want
    assert got.field is want.field and got.ambient_dim == want.ambient_dim
    assert got.basis.data == want.basis.data and got.basis.cols == want.basis.cols
    assert got.pivots == want.pivots


@st.composite
def index_subsets(draw, ambient):
    """Any ascending subset of range(ambient), the empty one included."""
    keep = draw(st.lists(st.booleans(), min_size=ambient, max_size=ambient))
    return [c for c, k in enumerate(keep) if k]


@FIELDS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hyp_coordinate_equals_spanned_unit_rows(field, data):
    ambient = data.draw(st.integers(min_value=0, max_value=8))
    indices = data.draw(index_subsets(ambient))
    got = Subspace.coordinate(field, ambient, indices)
    assert_same_subspace(got, Subspace.from_spanning(field, ambient, unit_rows(field, ambient, indices)))
    _assert_scalar_types(field, got.basis)


@pytest.mark.parametrize("indices", [[1, 0], [0, 0], [3], [-1]])
def test_coordinate_rejects_unordered_or_outside_indices(indices):
    with pytest.raises(ValueError):
        Subspace.coordinate(QQ, 3, indices)


@FIELDS
def test_zero_and_full_equal_their_old_form(field):
    for n in range(5):
        assert_same_subspace(Subspace.zero(field, n), Subspace(field, n, Matrix(field, [], cols=n), []))
        assert_same_subspace(
            Subspace.full(field, n), Subspace(field, n, Matrix.identity(field, n), list(range(n)))
        )


@FIELDS
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hyp_complement_equals_spanned_free_units(field, data):
    s = data.draw(spanned_subspaces(field, data.draw(st.integers(min_value=0, max_value=8))))
    free = [c for c in range(s.ambient_dim) if c not in s.pivots]
    want = Subspace.from_spanning(field, s.ambient_dim, unit_rows(field, s.ambient_dim, free))
    assert_same_subspace(s.complement(), want)


@FIELDS
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hyp_direct_sum_equals_spanned_padded_rows(field, data):
    a = data.draw(spanned_subspaces(field))
    b = data.draw(spanned_subspaces(field))
    m, k = a.ambient_dim, b.ambient_dim
    rows = [list(row) + [field.zero] * k for row in a.basis.data]
    rows += [[field.zero] * m + list(row) for row in b.basis.data]
    assert_same_subspace(a.direct_sum(b), Subspace.from_spanning(field, m + k, rows))


def test_direct_sum_rejects_mixed_fields():
    with pytest.raises(ValueError):
        Subspace.full(QQ, 2).direct_sum(Subspace.full(QI, 2))


@FIELDS
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hyp_graph_equals_spanned_graph_rows(field, data):
    rows = data.draw(st.integers(min_value=0, max_value=4))
    cols = data.draw(st.integers(min_value=0, max_value=4))
    m = Matrix(field, data.draw(matrix_rows(field, rows, cols)), cols=cols)
    spanned = [
        unit + [m.data[r][c] for r in range(rows)]
        for c, unit in enumerate(unit_rows(field, cols, range(cols)))
    ]
    assert_same_subspace(Subspace.graph(m), Subspace.from_spanning(field, cols + rows, spanned))


# -- integer storage against a per-entry Gauss-Jordan oracle -------------------


def oracle_basis(field, rows, cols):
    """The nonzero rows of the oracle RREF: the canonical basis of the span."""
    red, pivots = oracle_rref(field, rows, cols)
    return as_view(red[: len(pivots)])


def oracle_kernel(field, rows, cols):
    """Null-space vectors read off the oracle RREF, one per free column."""
    red, pivots = oracle_rref(field, rows, cols)
    out = []
    for c in range(cols):
        if c in pivots:
            continue
        v = [field.zero] * cols
        v[c] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][c]
        out.append(v)
    return out


def assert_canonical(m):
    """Every stored row has a positive denominator coprime to its integers."""
    for row in m._z:
        *parts, den = row
        assert den > 0
        assert all(type(x) is int for part in parts for x in part)
        assert all(len(part) == m.cols for part in parts)
        assert gcd(den, *(x for part in parts for x in part)) == 1
    assert len(m._z) == m.rows


def as_fractions(field, m):
    """The entries of m rebuilt as plain Fractions (pairs over Q(i))."""
    if field is QQ:
        return [[Fraction(x) for x in row] for row in m.data]
    return [[(Fraction(x.re), Fraction(x.im)) for x in row] for row in m.data]


@FIELDS
@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_hyp_storage_kernel_solve_inverse_match_oracle(field, data):
    rows = data.draw(matrix_rows(field))
    cols = len(rows[0]) if rows else data.draw(st.integers(min_value=0, max_value=4))
    m = Matrix(field, rows, cols=cols)
    assert_canonical(m)
    red, _ = m.rref()
    assert_canonical(red)

    ker = m.kernel()
    assert_canonical(ker.basis)
    assert ker.basis.data == oracle_basis(field, oracle_kernel(field, rows, cols), cols)

    b = data.draw(st.lists(_field_entries(QQ), min_size=len(rows), max_size=len(rows)))
    aug = [list(row) + [x] for row, x in zip(rows, b)]
    aug_red, aug_pivots = oracle_rref(field, aug, cols + 1)
    x = m.solve(b)
    if cols in aug_pivots:
        assert x is None
    else:
        want = [field.zero] * cols
        for r, c in enumerate(aug_pivots):
            want[c] = aug_red[r][cols]
        assert x == want

    if len(rows) == cols and len(oracle_rref(field, rows, cols)[1]) == cols:
        unit = [[field.one if r == c else field.zero for c in range(cols)] for r in range(cols)]
        inv_red, _ = oracle_rref(field, [list(r) + u for r, u in zip(rows, unit)], 2 * cols)
        inv = m.inverse()
        assert_canonical(inv)
        assert inv.data == as_view([row[cols:] for row in inv_red])
    elif len(rows) == cols:
        with pytest.raises(ValueError):
            m.inverse()


@FIELDS
@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_hyp_storage_sum_intersect_product_match_oracle(field, data):
    a = data.draw(spanned_subspaces(field))
    b = data.draw(spanned_subspaces(field, a.ambient_dim))
    n = a.ambient_dim
    for s in (a, b):
        assert_canonical(s.basis)

    total = a.sum(b)
    assert_canonical(total.basis)
    assert total.basis.data == oracle_basis(field, list(a.basis.data) + list(b.basis.data), n)

    # (lam, mu) with lam A = mu B, as in the definition of the intersection
    stacked = [list(ra) + [-x for x in rb] for ra, rb in zip(transposed(a), transposed(b))]
    combos = oracle_kernel(field, stacked, a.dim + b.dim) if a.dim and b.dim else []
    meet = [
        [oracle_dot(lam[: a.dim], [row[c] for row in a.basis.data]) for c in range(n)] for lam in combos
    ]
    got = a.intersect(b)
    assert_canonical(got.basis)
    assert got.basis.data == oracle_basis(field, meet, n)

    height = data.draw(st.integers(min_value=0, max_value=4))
    left = data.draw(matrix_rows(field, height, a.dim))
    prod = Matrix(field, left, cols=a.dim) @ a.basis
    assert_canonical(prod)
    assert prod.data == as_view(oracle_product(field, left, a.basis.data, n))

    v = data.draw(probe_vectors(a))
    assert a.reduce(v) == oracle_reduce(a, v)
    assert a.contains(v) == (not any(oracle_reduce(a, v)))


def _fixed_rows(field, rows):
    return [[field.coerce(x) for x in row] for row in rows]


@FIELDS
def test_intersect_edge_cases_match_oracle(field):
    n = 4
    a_rows = _fixed_rows(field, [[1, 2, 0, 1], [0, 3, 1, -1]])
    if field is QI:
        a_rows[1][2] = GaussianRational(1, 2)
    a = Subspace.from_spanning(field, n, a_rows)
    inside_a = [[x + 2 * y for x, y in zip(*a_rows)]]
    cases = [
        # other is the full space: no free columns
        (a, Subspace.full(field, n), a_rows),
        (Subspace.full(field, n), a, a_rows),
        # self inside other
        (a, Subspace.from_spanning(field, n, a_rows + _fixed_rows(field, [[0, 0, 0, 1]])), a_rows),
        # other inside self
        (a, Subspace.from_spanning(field, n, inside_a), inside_a),
        # disjoint
        (a, Subspace.from_spanning(field, n, _fixed_rows(field, [[0, 0, 1, 0], [0, 0, 0, 1]])), []),
    ]
    for s, other, meet in cases:
        got = s.intersect(other)
        assert_canonical(got.basis)
        assert got.basis.data == oracle_basis(field, meet, n)
        assert got.pivots == oracle_rref(field, meet, n)[1]


def test_intersect_runs_one_elimination_of_the_ambient_width(eliminations):
    rng = Random(7)
    q_pairs = [(_random_subspace(rng, 6), _random_subspace(rng, 6)) for _ in range(6)]
    e = to_eigenspace(random_gcs(Random(5), 4)).e
    cut = random_subspace(Random(5), 4, dim=2).to_gaussian().direct_sum(Subspace.full(QI, 4))
    qi_pairs = [(e, cut), (e, e.conjugate()), (cut, e)]
    pairs = [(a, b) for a, b in q_pairs + qi_pairs if a.dim and 0 < b.dim < b.ambient_dim]
    assert any(a.field is QQ for a, _ in pairs) and any(a.field is QI for a, _ in pairs)
    for a, b in pairs:
        eliminations.clear()
        a.intersect(b)
        assert eliminations == [(a.dim, a.ambient_dim - b.dim + a.dim)]


def transposed(s):
    """The columns of s's basis as lists (no rows when s has none)."""
    return [list(col) for col in zip(*s.basis.data)] if s.dim else [[] for _ in range(s.ambient_dim)]


@FIELDS
@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hyp_storage_equality_and_hash_match_entries(field, data):
    rows = data.draw(matrix_rows(field))
    cols = len(rows[0]) if rows else data.draw(st.integers(min_value=0, max_value=4))
    m = Matrix(field, rows, cols=cols)
    # the same values in other scalar types, or with one entry moved
    twin_rows = [[field.coerce(x) if data.draw(st.booleans()) else x for x in row] for row in rows]
    if rows and cols and data.draw(st.booleans()):
        r, c = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, cols - 1))
        twin_rows[r][c] = field.coerce(twin_rows[r][c]) + data.draw(st.sampled_from([1, Fraction(1, 2)]))
    twin = Matrix(field, twin_rows, cols=cols)
    same = as_fractions(field, m) == as_fractions(field, twin)
    assert (m == twin) == same and (m != twin) == (not same)
    if same:
        assert hash(m) == hash(twin)
    for derived in (m.transpose(), -m, m.scale(Fraction(-2, 3)), m + twin, m.conjugate(), m.to_gaussian()):
        assert_canonical(derived)
    assert m.transpose().transpose() == m
    assert m + (-m) == Matrix.zero(field, m.rows, cols)
    if field is QI and m.is_real():
        real = m.real_part()
        assert real == m and hash(real) == hash(m) and real.to_gaussian() == m


@FIELDS
def test_data_view_is_read_only(field):
    m = Matrix(field, [[1, 2], [3, 4]])
    before = m.data
    with pytest.raises(TypeError):
        m.data[0][0] = field.coerce(7)
    with pytest.raises(TypeError):
        m.data[1] = (field.zero, field.zero)
    with pytest.raises(AttributeError):
        m.data = ((field.zero,),)
    assert m.data == before
    assert m == Matrix(field, [[1, 2], [3, 4]])
    assert m @ Matrix.identity(field, 2) == m


# -- products against a transpose, block diagonals, annihilators ------------

SIZES = pytest.mark.parametrize("n", [2, 4, 6])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def seeded_matrix(rng, field, rows, cols):
    """A rows x cols matrix of small fractions (Gaussian over Q(i)) drawn
    from rng; about a third of the rows are combinations of two earlier
    ones, so ranks fall short of full, and some entries are zero."""

    def entry():
        if rng.random() < 0.25:
            return field.zero
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if field is QQ:
            return x
        return GaussianRational(x, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    data = []
    for r in range(rows):
        if r >= 2 and rng.random() < 0.35:
            p, q = rng.sample(data, 2)
            s, t = Fraction(rng.randint(-2, 2)), Fraction(1, rng.randint(1, 3))
            data.append([s * x + t * y for x, y in zip(p, q)])
        else:
            data.append([entry() for _ in range(cols)])
    return Matrix(field, data, cols=cols)


@FIELDS
@SIZES
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_mul_t_equals_product_with_transpose(field, n, seed_value):
    rng = Random(seed_value)
    a = seeded_matrix(rng, field, rng.randint(0, n), n)
    # the right factor over either field: a Q factor lifts to Q(i)
    b = seeded_matrix(rng, rng.choice([QQ, field]), rng.randint(0, n), n)
    got = a.mul_t(b)
    assert got == a @ b.transpose()
    assert (got.rows, got.cols) == (a.rows, b.rows)
    assert_canonical(got)
    assert got.data == as_view(oracle_product(got.field, a.data, transposed_rows(b), b.rows))
    assert b.mul_t(a) == got.transpose()
    with pytest.raises(ValueError):
        a.mul_t(Matrix.zero(field, 1, n + 1))


def transposed_rows(m):
    """The columns of m's rows as lists, as oracle_product reads b."""
    return [list(col) for col in zip(*m.data)] if m.rows else [[] for _ in range(m.cols)]


@FIELDS
@SIZES
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_block_diagonal_equals_blocks_with_zeros(field, n, seed_value):
    rng = Random(seed_value)
    # shapes of one to three blocks, any of them possibly empty
    shapes = [(rng.randint(0, n), rng.randint(0, n)) for _ in range(rng.randint(1, 3))]
    blocks = [seeded_matrix(rng, rng.choice([QQ, field]), r, c) for r, c in shapes]
    got = Matrix.block_diagonal(field, blocks)
    grid = [
        [blk if i == j else Matrix.zero(field, blk.rows, o.cols) for j, o in enumerate(blocks)]
        for i, blk in enumerate(blocks)
    ]
    assert got == Matrix.from_blocks(field, grid)
    assert (got.rows, got.cols) == tuple(map(sum, zip(*shapes)))
    assert got.field is field
    assert_canonical(got)


def test_block_diagonal_rejects_q_i_blocks_over_q():
    with pytest.raises(TypeError):
        Matrix.block_diagonal(QQ, [Matrix.identity(QI, 1)])


@FIELDS
@SIZES
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_annihilator_equals_kernel_of_basis(field, n, seed_value):
    rng = Random(seed_value)
    s = Subspace.from_spanning(field, n, seeded_matrix(rng, field, rng.randint(0, n + 1), n))
    ann = s.annihilator()
    # the kernel of the basis by the per-entry oracle; kernel() itself is
    # the annihilator of the row space, so it would compare a route with itself
    kernel = oracle_kernel(field, s.basis_rows(), n)
    assert ann.basis.data == oracle_basis(field, kernel, n)
    assert ann.dim == s.ambient_dim - s.dim
    assert ann.pivots == oracle_rref(field, kernel, n)[1]
    assert_canonical(ann.basis)
    assert s.basis.mul_t(ann.basis).is_zero()
    assert ann.annihilator() == s


@FIELDS
@SIZES
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_negate_first_equals_image_under_signs(field, n, seed_value):
    rng = Random(seed_value)
    s = Subspace.from_spanning(field, n, seeded_matrix(rng, field, rng.randint(0, n + 1), n))
    k = rng.randint(0, n)
    signs = Matrix.from_entries(field, n, n, {(c, c): -1 if c < k else 1 for c in range(n)})
    got = s.negate_first(k)
    assert got == s.image(signs)
    assert got.pivots == s.pivots
    assert_canonical(got.basis)


@FIELDS
@SIZES
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_project_first_equals_image_under_projection(field, n, seed_value):
    rng = Random(seed_value)
    s = Subspace.from_spanning(field, n, seeded_matrix(rng, field, rng.randint(0, n + 1), n))
    m = rng.randint(0, n)
    projection = Matrix.from_entries(field, m, n, {(c, c): 1 for c in range(m)})
    got = s.project_first(m)
    assert got == s.image(projection)
    assert got.pivots == s.image(projection).pivots
    assert_canonical(got.basis)


# -- identity kernels: a @ b = s * c decided on the integer rows -------------

RATIONAL_SCALES = [1, -1, Fraction(1, 2), Fraction(-3, 2)]
GAUSSIAN_SCALES = [GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(Fraction(1, 3), -2)]


def mul_t_miss(a, b, scale, target=None):
    """The row the identity kernel reports for a @ b^T = scale * target:
    the first where it fails (0 for a target of another shape), or None."""
    z = b._z
    return a._first_miss([row[:-1] for row in z], [row[-1] for row in z], scale, target)


def off_in_one_entry(rng, m):
    """m with one entry, chosen by rng, raised by 1, or over Q(i) by 1 or i."""
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    bump = rng.choice([1, GaussianRational(0, 1)]) if m.field is QI else 1
    return m + Matrix.from_entries(m.field, m.rows, m.cols, {(r, c): bump})


def kernel_cases(rng, field, n):
    """(a, b, scale, c, verdict of a @ b == scale * c) for a random
    non-square a @ b, the right factor over either field, with scale * c
    its product or the product off in one entry."""
    a = seeded_matrix(rng, field, rng.randint(0, n), rng.randint(0, n))
    b = seeded_matrix(rng, rng.choice([QQ, field]), a.cols, rng.randint(0, n))
    product = a @ b
    targets = [product]
    if product.rows and product.cols:
        targets.append(off_in_one_entry(rng, product))
    for target in targets:
        scale = rng.choice(RATIONAL_SCALES + (GAUSSIAN_SCALES if product.field is QI else []))
        c = target.scale(1 / product.field.coerce(scale))
        yield a, b, scale, c, product == target


@FIELDS
@SIZES
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_product_kernel_agrees_with_formed_products(field, n, seed_value):
    rng = Random(seed_value)
    for a, b, scale, c, verdict in kernel_cases(rng, field, n):
        target = c.scale(scale)
        assert a.mul_is(b, scale, c) == verdict == (a @ b == target)
        bt = b.transpose()
        assert a.mul_t_is(bt, scale, c) == verdict == (a.mul_t(bt) == target)
        if a.rows == b.cols:
            one = Matrix.identity(target.field, a.rows).scale(scale)
            assert a.mul_is(b, scale) == (a @ b == one) == a.mul_t_is(bt, scale)
        # scale 0 without a target is the zero matrix of the product's shape
        assert a.mul_is(b, 0) == (a @ b).is_zero() == a.mul_t_is(bt, 0)
        # the index reported is the first row where product and target differ
        misses = [r for r, (x, y) in enumerate(zip((a @ b).data, target.data)) if x != y]
        assert mul_t_miss(a, bt, scale, c) == (misses[0] if misses else None)
    # an inverse, as it is and off in one entry, against the identity
    a = seeded_matrix(rng, field, n, n)
    if a.is_invertible():
        a_inv = a.inverse()
        assert a.mul_is(a_inv, 1) and a.mul_t_is(a_inv.transpose(), 1)
        off = off_in_one_entry(rng, a_inv)
        assert not a.mul_is(off, 1) and not a.mul_t_is(off.transpose(), 1)
    with pytest.raises(ValueError):
        Matrix.zero(field, 2, n).mul_is(Matrix.zero(field, n + 1, 2), 1)
    with pytest.raises(ValueError):
        Matrix.zero(field, 2, n).mul_t_is(Matrix.zero(field, 2, n + 1), 1)


@FIELDS
@SIZES
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_transpose_kernel_and_is_skew_agree_with_transpose(field, n, seed_value):
    rng = Random(seed_value)
    m = seeded_matrix(rng, field, rng.randint(0, n), rng.randint(0, n))
    square = seeded_matrix(rng, field, m.rows, m.rows)
    for other in [-m.transpose(), seeded_matrix(rng, rng.choice([QQ, field]), m.cols, m.rows)]:
        if other.rows and other.cols:
            other = rng.choice([other, off_in_one_entry(rng, other)])
        assert m.is_neg_transpose_of(other) == (m == -other.transpose())
    for s in [square, square - square.transpose(), m]:
        if s.rows and s.rows == s.cols and rng.random() < 0.5:
            s = off_in_one_entry(rng, s)
        assert s.is_skew() == (s.rows == s.cols and s.transpose() == -s)


def test_first_miss_reports_the_first_failing_row_of_any_shape():
    a = Matrix(QQ, [[1, 0], [0, 1], [1, 1]])
    # rows 1 and 2 pair nonzero with (0, 1); row 0 does not
    assert mul_t_miss(a, Matrix(QQ, [[0, 1]]), 0) == 1
    assert mul_t_miss(a, Matrix(QQ, [[0, 0], [0, 0]]), 0) is None
    assert a.mul_t_is(Matrix.zero(QQ, 0, 2), 0)
    # a nonzero scale against the identity needs a square product
    assert mul_t_miss(a, Matrix.identity(QQ, 2), 1) == 0
    assert not a.mul_t_is(Matrix.identity(QQ, 2), 1)
    assert mul_t_miss(a.block(0, 2, 0, 2), Matrix.identity(QQ, 2), 1) is None
    assert mul_t_miss(a, Matrix(QQ, [[1, 0], [0, 1]]), 1, Matrix(QQ, [[1, 0], [0, 1], [1, 2]])) == 2
    with pytest.raises(ValueError):
        a.mul_t_is(Matrix.zero(QQ, 1, 3), 0)


def rows_near_kernel(rng, count, cols, kernel, field):
    """count rows of length cols: each a random row of the kernel's basis
    (or a fresh random row, always when the kernel is zero) times a random
    fraction, so that the rows' denominators differ."""
    basis = kernel.basis_rows()
    out = []
    for _ in range(count):
        if basis and rng.random() < 0.6:
            scale = field.coerce(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)))
            out.append([scale * v for v in rng.choice(basis)])
        else:
            out.append(list(seeded_matrix(rng, field, 1, cols).data[0]))
    return Matrix(field, out, cols=cols)


def zero_product_cases(rng, field, n):
    """(a, x, b) of any shapes, empty ones included, with a @ x^T @ b^T
    zero, zero in some rows or nowhere: a's rows lie in ker x (a zero
    middle row) or not, and b's rows in the kernel of a @ x^T or not."""
    x = seeded_matrix(rng, rng.choice([QQ, field]), rng.randint(0, n), rng.randint(0, n))
    a = rows_near_kernel(rng, rng.randint(0, n), x.cols, x.kernel(), field)
    middle = a.mul_t(x)
    b = rows_near_kernel(rng, rng.randint(0, n), x.rows, middle.kernel(), middle.field)
    return a, x, b


@FIELDS
@SIZES
@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(seed_value=seeds)
def test_hyp_zero_product_kernel_finds_the_first_nonzero_row(field, n, seed_value):
    rng = Random(seed_value)
    for _ in range(3):
        a, x, b = zero_product_cases(rng, field, n)
        formed = a.mul_t(x).mul_t(b)
        nonzero = [r for r, row in enumerate(formed.data) if any(row)]
        assert a.zero_product_miss(x, b) == (nonzero[0] if nonzero else None)
        assert mul_t_miss(a.mul_t(x), b, 0) == a.zero_product_miss(x, b)
    with pytest.raises(ValueError):
        a.zero_product_miss(Matrix.zero(field, x.rows, x.cols + 1), b)
    with pytest.raises(ValueError):
        a.zero_product_miss(x, Matrix.zero(field, 1, x.rows + 1))


def test_zero_product_kernel_sees_every_outcome():
    # None, a miss at row 0 and a miss past row 0, over Q, with mixed
    # denominators; and the empty factors
    rng = Random(6)
    seen = set()
    for _ in range(60):
        a, x, b = zero_product_cases(rng, QQ, 4)
        k = a.zero_product_miss(x, b)
        seen.add("none" if k is None else "first" if k == 0 else "later")
    assert seen == {"none", "first", "later"}
    x = Matrix(QQ, [[Fraction(1, 2), 0, 1], [0, Fraction(2, 3), 1]])
    a = Matrix(QQ, [[1, 1, -1], [2, 0, 1]])
    b = Matrix(QQ, [[1, 0], [Fraction(-1, 6), 1]])
    # row 0 of a x^T is (-1/2, -1/3), which pairs nonzero with (1, 0)
    assert a.zero_product_miss(x, b) == 0
    assert a.zero_product_miss(x, Matrix(QQ, [[2, -3]])) == 1
    assert Matrix.zero(QQ, 0, 3).zero_product_miss(x, b) is None
    assert a.zero_product_miss(Matrix.zero(QQ, 0, 3), Matrix.zero(QQ, 2, 0)) is None
    assert a.zero_product_miss(x, Matrix.zero(QQ, 0, 2)) is None


def test_zero_tests_read_the_imaginary_part():
    # a @ b^T is (0, i): row 1 is zero in its real part alone
    i = GaussianRational(0, 1)
    a, b = Matrix(QI, [[1, 1], [i, 0]]), Matrix(QQ, [[1, -1]])
    assert not a.mul_t_is(b, 0) and not a.mul_is(b.transpose(), 0)
    assert mul_t_miss(a, b, 0) == 1
    assert a.zero_product_miss(Matrix.identity(QQ, 2), b) == 1
    assert a.block(0, 1, 0, 2).mul_t_is(b, 0)


def rows_in_or_near(rng, field, count, s):
    """count rows over field of s's ambient space: combinations of two
    rows of s's basis (which must lie over field) with random fractions,
    so that the rows' denominators differ, or fresh random rows."""
    basis = s.basis_rows()
    out = []
    for _ in range(count):
        if basis and rng.random() < 0.6:
            p, q = (field.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 5))) for _ in range(2))
            out.append([p * x + q * y for x, y in zip(rng.choice(basis), rng.choice(basis))])
        else:
            out.append(list(seeded_matrix(rng, field, 1, s.ambient_dim).data[0]))
    return Matrix(field, out, cols=s.ambient_dim)


@FIELDS
@SIZES
@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(seed_value=seeds)
def test_hyp_first_outside_is_the_first_row_with_a_remainder(field, n, seed_value):
    # Q rows and rows of the subspace's field, against a subspace of any
    # dimension over that field and against the zero and the full one
    rng = Random(seed_value)
    inner = Subspace.from_spanning(QQ, n, seeded_matrix(rng, QQ, rng.randint(0, n + 1), n))
    extra = Subspace.from_spanning(field, n, seeded_matrix(rng, field, rng.randint(0, 2), n))
    s = (inner if field is QQ else inner.to_gaussian()).sum(extra)
    for w in (s, Subspace.zero(field, n), Subspace.full(field, n)):
        for rows_of in (inner, s):
            m = rows_in_or_near(rng, rows_of.field, rng.randint(0, n + 1), rows_of)
            outside = [k for k, row in enumerate(m.data) if any(oracle_reduce(w, row))]
            assert w.first_outside(m) == (outside[0] if outside else None)


@pytest.mark.parametrize(
    "a_field,b_field", [(QQ, QQ), (QQ, QI), (QI, QQ), (QI, QI)], ids=["Q-Q", "Q-Qi", "Qi-Q", "Qi-Qi"]
)
@SIZES
@seed(20261022)
@settings(max_examples=40, deadline=None)
@given(seed_value=seeds)
def test_hyp_zero_test_finds_the_first_miss_of_the_full_product(a_field, b_field, n, seed_value):
    # rows of a in or near a rational K and rows of b in or near Ann(K),
    # each over its own field, so a @ b^T is zero, zero in some rows or
    # nowhere; the zero test, which stops at the first nonzero dot
    # product, must name the row the formed product names
    rng = Random(seed_value)
    for _ in range(3):
        x = seeded_matrix(rng, QQ, rng.randint(0, n), n)
        a = rows_in_or_near(rng, a_field, rng.randint(0, n + 1), x.kernel())
        b = rows_in_or_near(rng, b_field, rng.randint(0, n + 1), Subspace.from_spanning(QQ, n, x))
        want = first_nonzero_row(a, b)
        assert mul_t_miss(a, b, 0) == want
        assert a.mul_t_is(b, 0) == (want is None)
        assert a.zero_product_miss(Matrix.identity(QQ, n), b) == want
        if a_field is QQ or b_field is QI:
            s = Subspace.from_spanning(b_field, n, b).annihilator()
            assert s.first_outside(a) == first_nonzero_row(a, s.null_rows())


def test_first_outside_refuses_q_i_rows_against_a_q_subspace():
    with pytest.raises(TypeError):
        Subspace.full(QQ, 2).first_outside(Matrix.identity(QI, 2))
    with pytest.raises(ValueError):
        Subspace.full(QQ, 2).first_outside(Matrix.identity(QQ, 3))


def test_identity_kernels_see_both_verdicts():
    rng = Random(5)
    verdicts = {"mul_is": set(), "identity": set(), "neg_transpose": set(), "skew": set()}
    for field in (QQ, QI):
        for _ in range(30):
            for a, b, scale, c, _ in kernel_cases(rng, field, 4):
                verdicts["mul_is"].add(a.mul_is(b, scale, c))
            m = seeded_matrix(rng, field, 3, 3)
            verdicts["neg_transpose"].add(m.is_neg_transpose_of(rng.choice([m, -m.transpose()])))
            verdicts["skew"].add(rng.choice([m, m - m.transpose()]).is_skew())
            if m.is_invertible():
                verdicts["identity"].add(m.mul_is(m.inverse(), 1))
                verdicts["identity"].add(m.mul_is(m, -1))
    assert all(v == {True, False} for v in verdicts.values()), verdicts


# -- null rows kept on the subspace ------------------------------------------


def test_null_rows_are_read_off_once_per_subspace(monkeypatch, eliminations):
    rng = Random(41)
    j = random_gcs(rng, 4)
    w, other = random_subspace(rng, 4, 2), random_subspace(rng, 4, 3)
    calls = []
    null_rows = linalg._null_rows

    def counting_null_rows(field, n, rows, pivots):
        calls.append(n)
        return null_rows(field, n, rows, pivots)

    monkeypatch.setattr(linalg, "_null_rows", counting_null_rows)
    kept = w.null_rows()
    assert w.null_rows() is kept
    assert w.annihilator().basis.mul_t(w.basis).is_zero()
    assert other.intersect(w).dim == 1
    for test in (is_generalized_isotropic, is_generalized_coisotropic, is_generalized_lagrangian):
        test(j, w)
    # once for w; other's null rows are never read
    assert calls == [4]
    # membership reads the kept null rows: no elimination, one read for other
    eliminations.clear()
    for s in (w, other):
        inside = list(s.basis.data[-1])
        assert s.contains(inside) and s.first_outside(s.basis) is None
        assert s.coordinates(inside) == [0] * (s.dim - 1) + [1]
        assert s.first_outside(Matrix.identity(QQ, 4)) == 0
        assert not s.contains([1, 0, 0, 0])
    assert eliminations == []
    assert calls == [4, 4]


def test_kernel_runs_two_eliminations(eliminations):
    # the row space, then its annihilator
    m = Matrix(QQ, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]])
    assert m.kernel().dim == 2
    assert eliminations == [(3, 4), (2, 4)]


@FIELDS
def test_kept_null_rows_leave_equality_hash_repr_and_encoding_alone(field):
    rng = Random(42)
    for _ in range(6):
        s = Subspace.from_spanning(field, 5, seeded_matrix(rng, field, rng.randint(0, 5), 5))
        fresh = Subspace.from_spanning(field, 5, s.basis)
        s.null_rows()
        s.annihilator()
        assert s == fresh and fresh == s
        assert hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        assert encode_subspace(s) == encode_subspace(fresh)


@FIELDS
def test_kept_null_rows_are_not_changed_by_the_eliminations_that_read_them(field):
    rng = Random(43)
    for _ in range(6):
        s = Subspace.from_spanning(field, 6, seeded_matrix(rng, field, rng.randint(1, 5), 6))
        other = Subspace.from_spanning(field, 6, seeded_matrix(rng, field, rng.randint(1, 6), 6))
        kept = s.null_rows()
        before = deepcopy(kept._z)
        other.intersect(s)
        kept.rref()
        s.annihilator()
        assert kept._z == before
        assert s.null_rows() is kept


# -- the public operations that stand in for hand-built rows ------------------


def test_gaussian_int_rows_are_read_entry_by_entry():
    rng = Random(51)
    for rows, cols in ((0, 3), (1, 1), (4, 5), (6, 2)):
        pairs = [([rng.randint(-9, 9) for _ in range(cols)], [rng.randint(-9, 9) for _ in range(cols)]) for _ in range(rows)]
        m = Matrix.from_gaussian_ints(pairs, cols)
        assert (m.field, m.rows, m.cols) == (QI, rows, cols)
        assert_canonical(m)
        assert m.data == tuple(tuple(GaussianRational(x, y) for x, y in zip(re, im)) for re, im in pairs)


@FIELDS
def test_spread_places_each_entry_at_its_coordinates(field):
    rng = Random(52)
    for size in range(6):
        for k in range(size + 1):
            at = sorted(rng.sample(range(size), k)) if rng.random() < 0.5 else rng.sample(range(size), k)
            m = seeded_matrix(rng, field, k, k)
            out = m.spread(size, at)
            assert (out.field, out.rows, out.cols) == (field, size, size)
            assert_canonical(out)
            entries = {(at[a], at[b]): x for a, row in enumerate(m.data) for b, x in enumerate(row)}
            assert out.data == tuple(
                tuple(entries.get((r, c), field.zero) for c in range(size)) for r in range(size)
            )


@FIELDS
def test_upper_entries_are_the_nonzero_entries_above_the_diagonal(field):
    rng = Random(53)
    for rows, cols in ((0, 0), (1, 1), (3, 3), (4, 6), (5, 2)):
        m = seeded_matrix(rng, field, rows, cols)
        got = m.upper_entries()
        assert got == {(r, c): x for r, row in enumerate(m.data) for c, x in enumerate(row) if c > r and x}
        assert all(type(x) is GaussianRational for x in got.values())


def oracle_swap_form_vanishes(m):
    """x S y^T = 0 for every pair of rows, one exact dot product each."""
    h = m.cols // 2
    rows = m.data
    return all(vec_dot(x, [*y[h:], *y[:h]]) == 0 for x in rows for y in rows)


@FIELDS
def test_swap_form_vanishes_agrees_with_the_pairwise_oracle(field):
    rng = Random(54)
    seen = set()
    for _ in range(40):
        n = rng.choice([2, 4])
        rows = [list(row) for row in seeded_matrix(rng, field, rng.randint(0, 2 * n), 2 * n).data]
        if field is QI and rng.random() < 0.5:
            # the rows of a maximal isotropic subspace
            rows = [list(row) for row in to_eigenspace(random_gcs(rng, n)).e.basis.data]
        elif rng.random() < 0.5:
            # vectors of V alone pair to zero
            rows = [row[:n] + [field.zero] * n for row in rows]
        if rows and rng.random() < 0.3:
            rows[rng.randrange(len(rows))][rng.randrange(2 * n)] += 1
        m = Matrix(field, rows, cols=2 * n)
        verdict = m.swap_form_vanishes()
        assert verdict == oracle_swap_form_vanishes(m)
        seen.add(verdict)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="even number of columns"):
        Matrix(field, [[1, 0, 0]]).swap_form_vanishes()
    # no row, no column read: an empty basis of a huge space is answered at once
    assert Matrix(field, [], cols=10**9).swap_form_vanishes()


@FIELDS
def test_from_scan_spans_every_row_and_eliminates_only_the_rows_it_keeps(field, eliminations):
    rng = Random(55)
    for _ in range(12):
        cols = rng.randint(1, 6)
        m = seeded_matrix(rng, field, rng.randint(1, 9), cols)
        start = rng.randint(0, m.rows)
        eliminations.clear()
        got = Subspace.from_scan(m, start)
        heights = [rows for rows, _ in eliminations]
        assert got == Subspace.from_spanning(field, cols, m)
        red, pivots = oracle_rref(field, m.data, cols)
        assert got.basis.data == tuple(tuple(row) for row in red[: len(pivots)]) and got.pivots == pivots
        # the start rows, then one elimination per row found outside
        assert heights == list(range(start, start + len(heights))) and len(heights) <= got.dim + 1


@FIELDS
def test_orthogonal_to_keeps_the_vectors_that_dot_to_zero_with_every_row(field):
    rng = Random(56)
    for _ in range(12):
        cols = rng.randint(1, 6)
        s = Subspace.from_spanning(field, cols, seeded_matrix(rng, field, rng.randint(0, cols), cols))
        rows = seeded_matrix(rng, field, rng.randint(0, 3), cols)
        got = s.orthogonal_to(rows)
        assert all(s.contains(x) for x in got.basis.data)
        assert all(vec_dot(x, r) == 0 for x in got.basis.data for r in rows.data)
        # dim = dim s - rank of the pairing of s's basis with the rows
        pairing = [[vec_dot(x, r) for r in rows.data] for x in s.basis.data]
        rank = len(oracle_rref(field, pairing, rows.rows)[1]) if pairing and rows.rows else 0
        assert got.dim == s.dim - rank
        assert got == Subspace.from_spanning(field, cols, got.basis)


@FIELDS
def test_swap_orthogonal_is_the_orthogonal_space_under_the_swap(field, eliminations):
    rng = Random(57)
    for _ in range(12):
        n = rng.randint(1, 3)
        s = Subspace.from_spanning(field, 2 * n, seeded_matrix(rng, field, rng.randint(0, 2 * n), 2 * n))
        s.null_rows()
        eliminations.clear()
        got = s.swap_orthogonal()
        assert len(eliminations) == 1
        assert got.dim == 2 * n - s.dim
        assert all(vec_dot(x, [*y[n:], *y[:n]]) == 0 for x in s.basis.data for y in got.basis.data)
        assert got == Subspace.from_spanning(field, 2 * n, got.basis)
