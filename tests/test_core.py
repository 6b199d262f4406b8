from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gclin import core
from gclin.core import (
    GCAut,
    _aut_of,
    IsotropicE,
    TwoForm,
    complex_structure,
    covector_summand,
    direct_sum,
    dualize,
    is_isotropic,
    pairing,
    quadratic_form,
    swap_matrix,
    symplectic_structure,
    to_aut,
    to_eigenspace,
    twist,
    twisted_product,
    validate_aut,
    validate_eigenspace,
    vector_summand,
)
from gclin.fields import QI, QQ, GaussianRational, I
from gclin.linalg import Matrix, Subspace
from gclin.samples import (
    random_gcs,
    random_invertible,
    random_maximal_isotropic,
    random_symplectic_form,
)
from gclin.serialize import encode_aut
from gclin.spinor import annihilator_subspace, spinor_from_subspace
from helpers import projection_matrix, proportional_to

ROT = Matrix(QQ, [[0, -1], [1, 0]])
OMEGA2 = TwoForm(Matrix(QQ, [[0, -1], [1, 0]]))


def basis_vec(size, i, field=QQ):
    v = [field.zero] * size
    v[i] = field.one
    return v


class TestPairing:
    def test_vector_against_covector(self):
        # <e1, f1*> = -1/2
        x = basis_vec(4, 0)
        y = basis_vec(4, 2)
        assert pairing(x, y) == QQ.coerce("-1/2")

    def test_vectors_are_isotropic(self):
        assert pairing(basis_vec(4, 0), basis_vec(4, 1)) == 0

    def test_quadratic_form_value(self):
        x = [1, 0, 1, 0]  # e1 + f1*
        assert quadratic_form(x) == QQ.coerce(-1)

    def test_symmetry(self):
        rng = Random(2)
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(6)]
            y = [rng.randint(-3, 3) for _ in range(6)]
            assert pairing(x, y) == pairing(y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairing([1, 0], [1, 0, 0, 0])


def oracle_dot(x, y):
    """Per-entry dot product: the route before the integer kernel."""
    s = None
    for a, b in zip(x, y):
        s = a * b if s is None else s + a * b
    return 0 if s is None else s


def oracle_pairing(x, y):
    n = len(x) // 2
    return (oracle_dot(x[n:], y[:n]) + oracle_dot(y[n:], x[:n])) * QQ.coerce("-1/2")


def oracle_isotropic(s):
    """The pairwise pairing loop over the basis."""
    rows = s.basis.data
    return not any(oracle_pairing(x, y) for i, x in enumerate(rows) for y in rows[i:])


small = st.integers(min_value=-2, max_value=2)
scalars = st.one_of(
    small, st.fractions(min_value=-2, max_value=2, max_denominator=3), st.builds(GaussianRational, small, small)
)


@st.composite
def pairing_subspaces(draw, sizes=st.integers(min_value=0, max_value=3), kinds=("random", "isotropic", "perturbed")):
    """Subspaces of V + V* over Q or Q(i), n drawn from sizes: random spans
    (mostly not isotropic), spans of rows of a maximal isotropic subspace
    (isotropic), and such spans with one row perturbed."""
    n = draw(sizes)
    field = draw(st.sampled_from([QQ, QI]))
    kind = draw(st.sampled_from(kinds))
    if kind == "random" or n == 0:
        k = draw(st.integers(min_value=0, max_value=2 * n))
        rows = draw(st.lists(st.lists(scalars, min_size=2 * n, max_size=2 * n), min_size=k, max_size=k))
        if field is QQ:
            rows = [[x.re if isinstance(x, GaussianRational) else x for x in row] for row in rows]
        return Subspace.from_spanning(field, 2 * n, rows)
    rng = Random(draw(st.integers(min_value=0, max_value=10**6)))
    big = random_maximal_isotropic(rng, n)
    rows = big.basis_rows()[: draw(st.integers(min_value=0, max_value=n))]
    if kind == "perturbed" and rows:
        r = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        c = draw(st.integers(min_value=0, max_value=2 * n - 1))
        rows[r][c] = rows[r][c] + draw(scalars)
    return Subspace.from_spanning(QI, 2 * n, rows)


class TestIsotropy:
    @settings(max_examples=200, deadline=None)
    @given(pairing_subspaces())
    def test_gram_verdict_matches_pairing_loop(self, s):
        assert is_isotropic(s) == oracle_isotropic(s)

    @settings(max_examples=60, deadline=None)
    @given(pairing_subspaces(st.sampled_from([2, 4, 8]), ("isotropic", "perturbed")))
    def test_half_gram_verdict_matches_every_pairing(self, s):
        # is_isotropic checks each pair of rows once; pairing runs over all
        rows = s.basis.data
        assert is_isotropic(s) == all(pairing(x, y) == 0 for x in rows for y in rows)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=3).flatmap(
        lambda n: st.tuples(*[st.lists(scalars, min_size=2 * n, max_size=2 * n)] * 2)
    ))
    def test_pairing_matches_oracle(self, xy):
        x, y = xy
        assert pairing(x, y) == oracle_pairing(x, y)

    def test_both_verdicts_occur(self):
        e = random_maximal_isotropic(Random(3), 3)
        assert is_isotropic(e) and oracle_isotropic(e)
        # e1 + f1 pairs with itself to -1
        s = Subspace.from_spanning(QI, 6, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
        assert not is_isotropic(s) and not oracle_isotropic(s)
        assert "isotropy" in validate_eigenspace(IsotropicE(3, s)).violations

    def test_odd_ambient_dimension_is_rejected(self):
        # no half of a 3-column row is the vector part
        with pytest.raises(ValueError, match="even ambient dimension"):
            is_isotropic(Subspace.from_spanning(QQ, 3, [[0, 0, 1]]))


class TestValidation:
    def test_complex_passes(self):
        assert validate_aut(complex_structure(ROT)).ok

    def test_symplectic_passes(self):
        assert validate_aut(symplectic_structure(OMEGA2)).ok

    def test_symplectic_structure_eliminates_once(self, eliminations):
        # the inverse of omega, which also decides nondegeneracy (2 when a
        # rank test came first)
        j = symplectic_structure(OMEGA2)
        assert len(eliminations) == 1
        assert j.j2 == -OMEGA2.m.inverse()
        with pytest.raises(ValueError, match="symplectic form must be nondegenerate"):
            symplectic_structure(TwoForm.zero(2))

    def test_non_skew_j2_reports_e6(self):
        j = symplectic_structure(OMEGA2)
        bad = GCAut(j.j1, Matrix(QQ, [[0, 1], [1, 0]]), j.j3, j.j4)
        res = validate_aut(bad)
        assert not res.ok
        assert "e:6" in res.violations

    def test_equations_match_direct_criteria(self):
        # independent oracle: square and Gram preservation on the full matrix
        rng = Random(8)
        for trial in range(60):
            j = random_gcs(rng, 4)
            if trial % 2:
                blocks = list(j.blocks())
                which = rng.randrange(4)
                r, c = rng.randrange(4), rng.randrange(4)
                blocks[which] = blocks[which] + Matrix.from_entries(QQ, 4, 4, {(r, c): 1})
                j = GCAut(*blocks)
            full = j.full()
            square_ok = full @ full == -Matrix.identity(QQ, 8)
            s = swap_matrix(QQ, 4)
            orth_ok = full.transpose() @ s @ full == s
            assert validate_aut(j).ok == (square_ok and orth_ok)


class TestEigenspaceConversion:
    def test_symplectic_eigenspace_is_graph(self):
        e = to_eigenspace(symplectic_structure(OMEGA2))
        i = GaussianRational(0, 1)
        expected = Subspace.from_spanning(
            QI, 4, [[1, 0, 0, -i], [0, 1, i, 0]]
        )
        assert e.e == expected

    def test_complex_eigenspace(self):
        e = to_eigenspace(complex_structure(ROT))
        i = GaussianRational(0, 1)
        expected = Subspace.from_spanning(
            QI, 4, [[1, -i, 0, 0], [0, 0, 1, -i]]
        )
        assert e.e == expected

    def test_round_trips_random(self):
        rng = Random(3)
        for n in (2, 4, 6):
            for _ in range(6):
                j = random_gcs(rng, n)
                e = to_eigenspace(j)
                assert validate_eigenspace(e).ok
                assert to_aut(e) == j
                assert to_aut(IsotropicE(n, e.e)) == j  # rebuilt from a caller-built E

    def test_invalid_eigenspace_rejected(self):
        # V_C itself is maximally isotropic but equals its conjugate
        n = 2
        rows = [basis_vec(4, 0, QI), basis_vec(4, 1, QI)]
        e = IsotropicE(n, Subspace.from_spanning(QI, 4, rows))
        res = validate_eigenspace(e)
        assert not res.ok and "conjugate-intersection" in res.violations
        with pytest.raises(ValueError):
            to_aut(e)


structure_seeds = st.tuples(st.sampled_from([2, 4]), st.integers(min_value=0, max_value=10**6))


def kernel_route(j):
    """The eigenspace solved for on a copy that keeps nothing."""
    return to_eigenspace(GCAut(*j.blocks()))


class TestCarriedEigenspace:
    @settings(max_examples=30, deadline=None)
    @given(structure_seeds)
    def test_round_trip_carries_the_kernel_eigenspace(self, ns):
        n, seed = ns
        j = random_gcs(Random(seed), n)
        e = to_eigenspace(j)
        back = to_aut(e)
        assert back == j
        assert to_aut(IsotropicE(n, e.e)) == j  # rebuilt from a caller-built E
        assert to_eigenspace(back) == kernel_route(back) == e

    @settings(max_examples=30, deadline=None)
    @given(structure_seeds)
    def test_eigenspace_not_from_a_kernel_is_carried_exactly(self, ns):
        n, seed = ns
        e = IsotropicE(n, random_maximal_isotropic(Random(seed), n))
        if not validate_eigenspace(e):
            with pytest.raises(ValueError):
                to_aut(e)
            return
        back = to_aut(e)
        assert to_eigenspace(back) == kernel_route(back) == e

    @settings(max_examples=30, deadline=None)
    @given(structure_seeds, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=15))
    def test_invalid_structure_still_raises(self, ns, which, entry):
        n, seed = ns
        carried = to_aut(to_eigenspace(random_gcs(Random(seed), n)))
        blocks = list(carried.blocks())
        bump = Matrix.from_entries(QQ, n, n, {(entry // n % n, entry % n): 1})
        blocks[which] = blocks[which] + bump
        with pytest.raises(ValueError, match="invalid automorphism"):
            to_eigenspace(GCAut(*blocks))

    def test_to_eigenspace_keeps_e_on_its_argument(self, kernel_eigenspaces):
        j = random_gcs(Random(5), 4)
        e = to_eigenspace(j)
        assert to_eigenspace(j) is e and j._e is e and e._j == j.blocks()
        assert len(kernel_eigenspaces) == 1 and kernel_eigenspaces[0] is j

    def test_invalid_structure_keeps_nothing(self, kernel_eigenspaces):
        blocks = list(random_gcs(Random(5), 4).blocks())
        blocks[0] = blocks[0] + Matrix.identity(QQ, 4)
        j = GCAut(*blocks)
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="invalid automorphism") as raised:
                to_eigenspace(j)
            messages.append(str(raised.value))
            assert j._e is None
        assert len(set(messages)) == 1 and kernel_eigenspaces == [j, j, j]

    def test_fields_refuse_assignment(self):
        j = random_gcs(Random(8), 4)
        to_eigenspace(j)
        for name in ("n", "j1", "j2", "j3", "j4", "_e"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(j, name, getattr(j, name))
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(j, name)
        with pytest.raises(AttributeError):
            j.j5 = j.j1

    def test_kept_eigenspace_leaves_equality_hash_repr_and_encoding_alone(self):
        rng = Random(44)
        for n in (0, 2, 4, 6):
            j = random_gcs(rng, n)
            fresh = GCAut(*j.blocks())
            e = to_eigenspace(j)
            assert j._e is e and fresh._e is None
            assert j == fresh and fresh == j
            assert hash(j) == hash(fresh)
            assert repr(j) == repr(fresh)
            assert encode_aut(j) == encode_aut(fresh)
            assert to_aut(e) == fresh and to_aut(e)._e is e

    def test_to_aut_result_is_not_solved_again(self, kernel_eigenspaces):
        e = to_eigenspace(random_gcs(Random(6), 4))
        del kernel_eigenspaces[:]
        assert to_eigenspace(to_aut(e)) is e
        assert kernel_eigenspaces == []

    def test_roundtrip_eliminates_b_once(self, eliminations):
        # the row space of J^T + i alone: B^-1 is read off J^T and checked
        # by a product, and to_aut returns the J that E carries (2 when the
        # check of E inverted B)
        j = random_gcs(Random(5), 4)
        eliminations.clear()
        assert to_aut(to_eigenspace(j)) == j
        assert len(eliminations) == 1

    def test_to_aut_rebuilds_only_a_caller_built_eigenspace(self, monkeypatch):
        rebuilt = []
        aut_of = core._aut_of

        def counting(e, b_inv):
            rebuilt.append(e)
            return aut_of(e, b_inv)

        monkeypatch.setattr(core, "_aut_of", counting)
        j = random_gcs(Random(7), 4)
        e = to_eigenspace(j)
        assert to_aut(e) == j and to_eigenspace(to_aut(e)) is e
        assert rebuilt == []
        fresh = IsotropicE(4, e.e)
        assert to_aut(fresh) == j
        assert rebuilt == [fresh] and fresh._j is None  # nothing written onto the caller's E

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8]), st.integers(min_value=0, max_value=10**6))
    def test_carried_b_inverse_is_the_f_p_block_of_j_transpose(self, n, seed):
        # the candidate B^-1 that _validated hands to E's check, and the
        # B^-1 the check confirms
        seen = []
        check = core._checked_eigenspace

        def recording(e, candidate=None):
            out = check(e, candidate)
            seen.append((e, candidate, out[1]))
            return out

        j = random_gcs(Random(seed), n)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "_checked_eigenspace", recording)
            e = to_eigenspace(j)
        [(checked, candidate, confirmed)] = seen
        s = e.e
        free = [c for c in range(2 * n) if c not in s.pivots]
        k = j.full().transpose().data
        at_f_p = Matrix(QQ, [[k[f][p] for p in s.pivots] for f in free])
        assert checked is e
        assert candidate == confirmed == s.basis.imag_part().select_columns(free).inverse() == at_f_p


# -- the block routes of core against the Q(i) routes they replaced ----------


def random_conjugate_test_subspace(rng, m):
    """A Q(i) subspace of C^m of any dimension; a third of the time the
    conjugate of a spanning row is added, so that the span meets its
    conjugate whenever that row is not 0."""
    rows = [
        [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m)]
        for _ in range(rng.randint(0, m))
    ]
    if rows and rng.random() < 1 / 3:
        rows.append([x.conjugate() for x in rows[0]])
    return Subspace.from_spanning(QI, m, rows)


def check_rank_identity(s):
    """dim(S meet conj S) = dim S - rank Im(RREF basis), against the
    intersection that Subspace.intersect computes."""
    meet = s.intersect(s.conjugate())
    assert s.dim - s.basis.imag_part().rank() == meet.dim
    assert s.meets_conjugate() == (not meet.is_zero())
    if 2 * s.dim == s.ambient_dim:
        # to_aut's route: transversality read off the inversion of B
        res, b_inv = core._checked_eigenspace(IsotropicE(s.dim, s))
        assert ("conjugate-intersection" in res.violations) == (b_inv is None) == (not meet.is_zero())
    return s.meets_conjugate()


def pdp_aut(e):
    """P D P^-1 over Q(i), P the bases of E and its conjugate as columns and
    D = diag(i, -i): the reconstruction before the block formula.  Raises
    ValueError when P is singular, i.e. E meets its conjugate."""
    n = e.n
    p = Matrix.from_blocks(QI, [[e.e.basis], [e.e.conjugate().basis]]).transpose()
    d = Matrix.from_entries(QI, 2 * n, 2 * n, {(k, k): I if k < n else -I for k in range(2 * n)})
    full = p @ d @ p.inverse()
    assert full.is_real()
    return GCAut.from_full(full.real_part())


def check_aut_of(e):
    res = validate_eigenspace(e)
    if not res:
        with pytest.raises(ValueError):
            pdp_aut(e)
        with pytest.raises(ValueError) as raised:
            to_aut(e)
        assert str(raised.value) == f"invalid eigenspace: {', '.join(res.violations)}"
        return False
    j = _aut_of(e, core._checked_eigenspace(e)[1])
    assert j == pdp_aut(e)
    assert to_eigenspace(j) is e
    return True


def kernel_eigenspace(j):
    """ker(J - i): the eigenspace solved for before the column space of J + i."""
    return (j.full().to_gaussian() - Matrix.identity(QI, 2 * j.n).scale(I)).kernel()


def check_to_eigenspace(j):
    """to_eigenspace refuses j exactly when the 2n x 2n direct criteria
    fail, and otherwise solves for ker(J - i)."""
    j = GCAut(*j.blocks())
    if not direct_criteria(j):
        with pytest.raises(ValueError, match="invalid automorphism"):
            to_eigenspace(j)
        return False
    assert to_eigenspace(j).e == kernel_eigenspace(j)
    return True


def product_violations(j):
    """The violation labels read off J^2 + 1 (e:1 to e:4) and S J + (S J)^T
    (e:7, e:5, e:6), both formed as 2n x 2n products."""
    n = j.n
    full = j.full()
    square = full @ full + Matrix.identity(QQ, 2 * n)
    sj = swap_matrix(QQ, n) @ full
    skew = sj + sj.transpose()
    found = set()
    for label, m, r, c in (
        ("e:1", square, 0, 0),
        ("e:2", square, 0, n),
        ("e:3", square, n, 0),
        ("e:4", square, n, n),
        ("e:7", skew, 0, 0),
        ("e:5", skew, 0, n),
        ("e:6", skew, n, n),
    ):
        if not m.block(r, r + n, c, c + n).is_zero():
            found.add(label)
    return tuple(sorted(found))


def block_violations(j):
    """The violation labels of the equations as EQUATION_LABELS states
    them, on n x n blocks."""
    j1, j2, j3, j4 = j.blocks()
    one, zero = Matrix.identity(QQ, j.n), Matrix.zero(QQ, j.n, j.n)
    sides = {
        "e:1": (j1 @ j1 + j2 @ j3, -one),
        "e:2": (j1 @ j2 + j2 @ j4, zero),
        "e:3": (j3 @ j1 + j4 @ j3, zero),
        "e:4": (j4 @ j4 + j3 @ j2, -one),
        "e:5": (j4, -j1.transpose()),
        "e:6": (j2.transpose(), -j2),
        "e:7": (j3.transpose(), -j3),
    }
    return tuple(sorted(label for label, (lhs, rhs) in sides.items() if lhs != rhs))


def direct_criteria(j):
    """J^2 = -1 and J^T S J = S, each a product of 2n x 2n matrices."""
    full, s = j.full(), swap_matrix(QQ, j.n)
    return full @ full == -Matrix.identity(QQ, 2 * j.n) and full.transpose() @ s @ full == s


def check_validate_aut(j):
    """Violations and verdict against the product route: J^2 = -1 and
    J^T S J = S on the full matrix."""
    res = validate_aut(j)
    assert res.violations == product_violations(j) == block_violations(j)
    assert res.ok == direct_criteria(j)
    return res.ok


def perturbed_structure(rng, n, how):
    """A random structure on R^n, left as it is ("none"), with one block
    entry bumped ("bump": breaks the square or skewness), with a skew
    bump on J2 ("skew": keeps e:5 to e:7, breaks the square), or
    conjugated by a random invertible map of V + V* ("similar": keeps
    J^2 = -1, breaks orthogonality unless the map preserves the pairing)."""
    j = random_gcs(rng, n)
    blocks = list(j.blocks())
    if how == "bump":
        which, r, c = rng.randrange(4), rng.randrange(n), rng.randrange(n)
        blocks[which] = blocks[which] + Matrix.from_entries(QQ, n, n, {(r, c): 1})
    elif how == "skew":
        r, c = rng.sample(range(n), 2)
        blocks[1] = blocks[1] + Matrix.from_entries(QQ, n, n, {(r, c): 1, (c, r): -1})
    elif how == "similar":
        p = random_invertible(rng, 2 * n)
        return GCAut.from_full(p @ j.full() @ p.inverse())
    return GCAut(*blocks)


def eigenspace_candidate(rng, n, kind):
    """A candidate +i eigenspace on R^n: the eigenspace of a random structure
    ("structure", valid) or a random maximal isotropic subspace ("isotropic",
    valid or not; never valid for odd n)."""
    if kind == "structure":
        return to_eigenspace(random_gcs(rng, n))
    return IsotropicE(n, random_maximal_isotropic(rng, n))


seeds = st.integers(min_value=0, max_value=10**6)
perturbations = st.sampled_from(["none", "bump", "skew", "similar"])


class TestBlockRoutes:
    """Transversality, to_aut, to_eigenspace and validate_aut work on n x n
    rational blocks of E's RREF basis; each is checked against the 2n x 2n
    Q(i) route it replaced, kept here as the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=8), seeds)
    def test_rank_identity(self, m, seed):
        check_rank_identity(random_conjugate_test_subspace(Random(seed), m))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.sampled_from(["structure", "isotropic"]), seeds)
    def test_aut_of_matches_pdp(self, n, kind, seed):
        if kind == "structure" and n % 2:
            n += 1
        check_aut_of(eigenspace_candidate(Random(seed), n, kind))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 4]), perturbations, seeds)
    def test_to_eigenspace_matches_kernel(self, n, how, seed):
        check_to_eigenspace(perturbed_structure(Random(seed), n, how))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 4]), perturbations, seeds)
    def test_validate_aut_matches_products(self, n, how, seed):
        check_validate_aut(perturbed_structure(Random(seed), n, how))

    def test_every_check_sees_both_verdicts(self):
        rng = Random(10)
        for m in range(1, 9):
            assert {check_rank_identity(random_conjugate_test_subspace(rng, m)) for _ in range(40)} == {True, False}
        assert {check_aut_of(eigenspace_candidate(rng, n, "isotropic")) for n in (2, 3, 4) for _ in range(10)} == {
            True,
            False,
        }
        for how, verdicts in (("none", {True}), ("bump", {False}), ("skew", {False}), ("similar", {False})):
            structures = [perturbed_structure(rng, n, how) for n in (2, 4) for _ in range(4)]
            assert {check_to_eigenspace(j) for j in structures} == verdicts
            assert {check_validate_aut(j) for j in structures} == verdicts

    def test_each_broken_equation_is_labelled_as_the_products_say(self):
        # every entry bump of every block, and symmetric and skew bumps of
        # J2 and J3, at n = 2 and 4: between them they break each of e:1 to e:7
        seen = set()
        for n, seed_value in ((2, 3), (4, 7)):
            j = random_gcs(Random(seed_value), n)
            for which in range(4):
                for r in range(n):
                    for c in range(n):
                        bumps = [{(r, c): 1}]
                        if which in (1, 2) and r < c:
                            bumps += [{(r, c): 1, (c, r): 1}, {(r, c): 1, (c, r): -1}]
                        for bump in bumps:
                            blocks = list(j.blocks())
                            blocks[which] = blocks[which] + Matrix.from_entries(QQ, n, n, bump)
                            perturbed = GCAut(*blocks)
                            assert not check_validate_aut(perturbed)
                            seen.update(validate_aut(perturbed).violations)
        assert seen == set(core.EQUATION_LABELS)


def bumped(m):
    """m with its (0, 0) entry raised by 1."""
    return m + Matrix.from_entries(m.field, m.rows, m.cols, {(0, 0): 1})


def non_isotropic_candidate(n):
    """A random n-dimensional Q(i) subspace of C^2n, seeded so that it is
    transverse to its conjugate but not isotropic."""
    rng = Random(4)
    rows = [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2 * n)] for _ in range(n)]
    e = IsotropicE(n, Subspace.from_spanning(QI, 2 * n, rows))
    assert validate_eigenspace(e).violations == ("isotropy",)
    return e


@pytest.fixture
def validations(monkeypatch):
    """The structures and eigenspaces core validates, by kind: "J" for each
    check of a whole structure, "E" for each check of an eigenspace
    (validate_eigenspace, or to_aut's _checked_eigenspace)."""
    seen = {"J": [], "E": []}
    checks = (("J", "_validated"), ("J", "validate_aut"), ("E", "validate_eigenspace"), ("E", "_checked_eigenspace"))
    for kind, name in checks:

        def counting(x, *rest, validate=getattr(core, name), kind=kind):
            seen[kind].append(x)
            return validate(x, *rest)

        monkeypatch.setattr(core, name, counting)
    return seen


class TestEigenspaceRoute:
    """to_eigenspace checks the block equations against the eigenspace it
    computes, and to_aut checks the eigenspace against the rebuilt J; each
    value is validated once."""

    def test_roundtrip_cycle_validates_each_value_once(self, validations):
        j = random_gcs(Random(9), 4)
        e = to_eigenspace(j)
        checked = len(validations["E"])
        assert to_aut(e) == j
        assert len(validations["E"]) == checked  # E came out of to_eigenspace's check
        back = annihilator_subspace(spinor_from_subspace(e.e).rep)
        assert to_aut(IsotropicE(4, back)) == j
        assert validations["J"] == [j] and len(validations["E"]) <= 2

    def test_caller_built_eigenspace_is_validated(self, validations):
        e = to_eigenspace(random_gcs(Random(9), 4))
        del validations["E"][:]
        to_aut(IsotropicE(4, e.e))
        assert validations["E"] == [e]
        with pytest.raises(ValueError, match="invalid eigenspace: isotropy"):
            to_aut(non_isotropic_candidate(3))

    def test_aut_of_checks_the_block_equations(self):
        # a transverse non-isotropic E gives a J with square -1 that acts
        # as i on E but does not preserve the pairing
        e = non_isotropic_candidate(3)
        with pytest.raises(AssertionError, match="reconstructed automorphism invalid"):
            _aut_of(e, core._checked_eigenspace(e)[1])

    @pytest.mark.parametrize("fault", ["conjugate", "isotropy", "transversality", "candidate-entry", "acts-as-i"])
    def test_each_part_of_the_route_is_consulted(self, monkeypatch, fault):
        j = random_gcs(Random(1), 4)
        if fault == "conjugate":
            # dimension n, isotropic and transverse, but J acts on it as -i
            span = Subspace.from_spanning
            monkeypatch.setattr(core, "Subspace", SimpleNamespace(from_spanning=lambda *a: span(*a).conjugate()))
        elif fault == "isotropy":
            monkeypatch.setattr(core, "is_isotropic", lambda s: False)
        elif fault == "candidate-entry":
            # the candidate B^-1 handed to E's check off in one entry
            check = core._checked_eigenspace
            monkeypatch.setattr(core, "_checked_eigenspace", lambda e, candidate: check(e, bumped(candidate)))
        elif fault == "acts-as-i":
            # a valid eigenspace of another structure, checked with its own B
            # inverted, passes every check but J acting as i on it
            other = to_eigenspace(random_gcs(Random(2), 4)).e
            assert validate_eigenspace(IsotropicE(4, other)).ok
            monkeypatch.setattr(core, "Subspace", SimpleNamespace(from_spanning=lambda *a: other))
            check = core._checked_eigenspace
            monkeypatch.setattr(core, "_checked_eigenspace", lambda e, candidate: check(e))
        else:
            # transversality is read off B times the candidate B^-1 from J^T
            check = core._checked_eigenspace
            monkeypatch.setattr(core, "_checked_eigenspace", lambda e, candidate: check(e, candidate.scale(2)))
        with pytest.raises(AssertionError, match="equation list disagrees with the eigenspace of J"):
            to_eigenspace(j)

    @pytest.mark.parametrize("fault", ["rebuilt", "carried"])
    def test_aut_of_rejects_a_j_off_in_one_entry(self, monkeypatch, fault):
        # a caller-built E, which carries no J, so that J is rebuilt
        e = IsotropicE(4, to_eigenspace(random_gcs(Random(1), 4)).e)
        b_inv = core._checked_eigenspace(e)[1]
        if fault == "rebuilt":
            # the rebuilt J comes out of the one 8 x 8 column selection in _aut_of
            select = Matrix.select_columns

            def bump_rebuilt(m, columns):
                out = select(m, columns)
                return bumped(out) if out.rows == out.cols == 8 else out

            monkeypatch.setattr(Matrix, "select_columns", bump_rebuilt)
        else:
            # J is rebuilt from the B^-1 that E's check carries to _aut_of
            b_inv = bumped(b_inv)
        with pytest.raises(AssertionError, match="reconstructed automorphism does not act as i on E"):
            _aut_of(e, b_inv)

    def test_validate_aut_runs_no_complex_elimination(self, monkeypatch):
        rng = Random(2)
        structures = [perturbed_structure(rng, 4, how) for how in ("none", "bump", "similar")]
        fields = []
        rref = Matrix.rref

        def counting(m):
            fields.append(m.field)
            return rref(m)

        monkeypatch.setattr(Matrix, "rref", counting)
        assert {validate_aut(j).ok for j in structures} == {True, False}
        assert QI not in fields


def dualize_eigenspace(e: IsotropicE) -> IsotropicE:
    """E transported through the summand swap tau, as dualize moves J."""
    tau = swap_matrix(QI, e.n)
    return IsotropicE(e.n, e.e.image(tau))


class TestDuality:
    def test_involution(self):
        rng = Random(4)
        for _ in range(8):
            j = random_gcs(rng, 4)
            assert dualize(dualize(j)) == j

    def test_blocks_swap_and_validity(self):
        j = complex_structure(ROT)
        d = dualize(j)
        assert validate_aut(d).ok
        assert (d.j2, d.j3) == (j.j3, j.j2)
        assert (d.j1, d.j4) == (j.j4, j.j1)

    def test_eigenspace_version_matches(self):
        rng = Random(5)
        for _ in range(6):
            j = random_gcs(rng, 4)
            assert to_eigenspace(dualize(j)) == dualize_eigenspace(to_eigenspace(j))

    def test_dual_eigenspace_involution(self):
        rng = Random(6)
        j = random_gcs(rng, 4)
        e = to_eigenspace(j)
        assert dualize_eigenspace(dualize_eigenspace(e)) == e


class TestTwist:
    def test_twist_fixes_complex(self):
        j = complex_structure(ROT)
        assert twist(j) == j

    def test_twist_negates_symplectic(self):
        assert twist(symplectic_structure(OMEGA2)) == symplectic_structure(
            TwoForm(-OMEGA2.m)
        )

    def test_twist_involutive_and_valid(self):
        rng = Random(9)
        for _ in range(8):
            j = random_gcs(rng, 4)
            t = twist(j)
            assert validate_aut(t).ok
            assert twist(t) == j


def _interleave(n_a: int, n_b: int, field) -> Matrix:
    """Reordering (u, u*, v, v*) -> (u, v, u*, v*) as a permutation matrix."""
    size = 2 * (n_a + n_b)
    ones = {}
    # positions in the source vector
    for k in range(n_a):
        ones[k, k] = 1  # u
        ones[n_a + n_b + k, n_a + k] = 1  # u*
    for k in range(n_b):
        ones[n_a + k, 2 * n_a + k] = 1  # v
        ones[n_a + n_b + n_a + k, 2 * n_a + n_b + k] = 1  # v*
    return Matrix.from_entries(field, size, size, ones)


def direct_sum_eigenspace(a: IsotropicE, b: IsotropicE) -> IsotropicE:
    """The eigenspace of direct_sum, in its coordinates (u, v, u*, v*)."""
    nu = _interleave(a.n, b.n, QI)
    return IsotropicE(a.n + b.n, a.e.direct_sum(b.e).image(nu))


class TestDirectSum:
    def test_symplectic_sum_is_block_symplectic(self):
        w1 = random_symplectic_form(Random(1), 2)
        w2 = random_symplectic_form(Random(2), 2)
        total = Matrix.from_blocks(
            QQ,
            [
                [w1.m, Matrix.zero(QQ, 2, 2)],
                [Matrix.zero(QQ, 2, 2), w2.m],
            ],
        )
        assert direct_sum(
            symplectic_structure(w1), symplectic_structure(w2)
        ) == symplectic_structure(TwoForm(total))

    def test_eigenspace_sum_matches(self):
        rng = Random(10)
        a, b = random_gcs(rng, 2), random_gcs(rng, 4)
        lhs = to_eigenspace(direct_sum(a, b))
        rhs = direct_sum_eigenspace(to_eigenspace(a), to_eigenspace(b))
        assert lhs == rhs

    def test_spinor_of_sum_is_product(self):
        rng = Random(11)
        a, b = random_gcs(rng, 2), random_gcs(rng, 2)
        ea, eb = to_eigenspace(a), to_eigenspace(b)
        la = spinor_from_subspace(ea.e).rep
        lb = spinor_from_subspace(eb.e).rep
        # pull back along the two projections: indices shift for the second factor
        from gclin.multivector import Multivector, mask_to_indices

        shifted = Multivector(
            4,
            {
                sum(1 << (i + 2) for i in mask_to_indices(m)): c
                for m, c in lb.terms.items()
            },
        )
        lifted = Multivector(4, dict(la.terms))
        product = lifted.wedge(shifted)
        expected = spinor_from_subspace(to_eigenspace(direct_sum(a, b)).e).rep
        assert proportional_to(product, expected)

    def test_zero_dimensional_identity(self):
        rng = Random(12)
        j = random_gcs(rng, 4)
        zero = GCAut(*(Matrix.zero(QQ, 0, 0) for _ in range(4)))
        assert direct_sum(j, zero) == j

    def test_twisted_product_definition(self):
        rng = Random(13)
        a, b = random_gcs(rng, 2), random_gcs(rng, 2)
        assert twisted_product(a, b) == direct_sum(twist(a), b)
        assert validate_aut(twisted_product(a, b)).ok


class TestEvenDimension:
    def test_odd_dimension_has_no_structure(self):
        rng = Random(14)
        for n in (1, 3):
            for _ in range(50):
                iso = random_maximal_isotropic(rng, n)
                assert not iso.intersect(iso.conjugate()).is_zero()


class TestCoordinateSummands:
    """The summands and projections of V + V*, against the hand-built
    unit vectors they were once assembled from."""

    @staticmethod
    def old_summand(n, offset):
        rows = []
        for i in range(n):
            v = [QI.zero] * (2 * n)
            v[offset + i] = QI.one
            rows.append(v)
        return Subspace.from_spanning(QI, 2 * n, rows)

    @staticmethod
    def old_projection(n, which):
        off = 0 if which == "vector" else n
        rows = [[QI.one if c == off + i else QI.zero for c in range(2 * n)] for i in range(n)]
        return Matrix(QI, rows, cols=2 * n)

    @pytest.mark.parametrize("n", range(6))
    def test_summands_and_projections(self, n):
        pairs = ((vector_summand(n), self.old_summand(n, 0)), (covector_summand(n), self.old_summand(n, n)))
        for got, want in pairs:
            assert got == want and got.pivots == want.pivots
            assert got.basis.data == want.basis.data and got.basis.cols == want.basis.cols
        for which in ("vector", "covector"):
            got = projection_matrix(n, which)
            want = self.old_projection(n, which)
            assert got == want and got.field is QI and (got.rows, got.cols) == (n, 2 * n)
