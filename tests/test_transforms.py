from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gclin.core import (
    BiVector,
    GCAut,
    IsotropicE,
    TwoForm,
    _checked_pair,
    complex_structure,
    conjugate_by_basis,
    covector_summand,
    direct_sum,
    dualize,
    symplectic_structure,
    to_eigenspace,
    validate_aut,
    validate_eigenspace,
    vector_summand,
)
from gclin import classification
from gclin.classification import canonical_omega, decompose
from gclin.fields import QI, QQ
from gclin.linalg import Matrix, Subspace
from gclin.samples import (
    random_bivector,
    random_complex_matrix,
    random_gcs,
    random_invertible,
    random_matrix,
    random_skew,
    random_symplectic_form,
    random_two_form,
)
from gclin.spinor import annihilator_subspace
from gclin.transforms import (
    analyze_t,
    assemble_sum_transform,
    b_transform,
    b_transform_eigenspace,
    beta_transform,
    classify_type,
    recover,
    satisfies_star,
    t_operator,
)
from helpers import projection_matrix

ROT = Matrix(QQ, [[0, -1], [1, 0]])
OMEGA2 = TwoForm(Matrix(QQ, [[0, -1], [1, 0]]))


class TestBTransform:
    def test_zero_is_identity(self):
        rng = Random(1)
        j = random_gcs(rng, 4)
        assert b_transform(j, TwoForm.zero(4)) == j
        assert beta_transform(j, BiVector.zero(4)) == j

    def test_symplectic_block_table(self):
        rng = Random(2)
        w = random_symplectic_form(rng, 4)
        b = random_two_form(rng, 4)
        out = b_transform(symplectic_structure(w), b)
        winv = w.m.inverse()
        assert out.blocks() == (
            winv @ b.m,
            -winv,
            w.m + b.m @ winv @ b.m,
            -(b.m @ winv),
        )

    def test_complex_block_table(self):
        rng = Random(3)
        jm = random_complex_matrix(rng, 4)
        b = random_two_form(rng, 4)
        out = b_transform(complex_structure(jm), b)
        assert out.blocks() == (
            jm,
            Matrix.zero(QQ, 4, 4),
            b.m @ jm + jm.transpose() @ b.m,
            -jm.transpose(),
        )

    def test_beta_complex_block_table(self):
        rng = Random(4)
        jm = random_complex_matrix(rng, 4)
        beta = random_bivector(rng, 4)
        out = beta_transform(complex_structure(jm), beta)
        assert out.blocks() == (
            jm,
            -(jm @ beta.m) - beta.m @ jm.transpose(),
            Matrix.zero(QQ, 4, 4),
            -jm.transpose(),
        )

    def test_group_action(self):
        rng = Random(5)
        for _ in range(6):
            j = random_gcs(rng, 4)
            b1, b2 = random_two_form(rng, 4), random_two_form(rng, 4)
            assert b_transform(b_transform(j, b1), b2) == b_transform(j, b1 + b2)
            t1, t2 = random_bivector(rng, 4), random_bivector(rng, 4)
            assert beta_transform(beta_transform(j, t1), t2) == beta_transform(
                j, BiVector(t1.m + t2.m)
            )

    def test_preserves_validity(self):
        rng = Random(6)
        for _ in range(6):
            j = random_gcs(rng, 4)
            assert validate_aut(b_transform(j, random_two_form(rng, 4))).ok
            assert validate_aut(beta_transform(j, random_bivector(rng, 4))).ok

    def test_duality_interchanges_transforms(self):
        rng = Random(7)
        for _ in range(6):
            j = random_gcs(rng, 4)
            b = random_two_form(rng, 4)
            assert dualize(b_transform(j, b)) == beta_transform(
                dualize(j), BiVector(b.m)
            )

    def test_eigenspace_level_agrees(self):
        rng = Random(8)
        for _ in range(6):
            j = random_gcs(rng, 4)
            b = random_two_form(rng, 4)
            assert to_eigenspace(b_transform(j, b)) == b_transform_eigenspace(
                to_eigenspace(j), b
            )


class TestClassify:
    def test_untransformed_symplectic(self):
        t = classify_type(symplectic_structure(OMEGA2))
        assert t.is_symplectic and t.is_b_symplectic and t.is_beta_symplectic
        assert not (t.is_complex or t.is_b_complex or t.is_beta_complex)

    def test_untransformed_complex(self):
        t = classify_type(complex_structure(ROT))
        assert t.is_complex and t.is_b_complex and t.is_beta_complex
        assert not (t.is_symplectic or t.is_b_symplectic or t.is_beta_symplectic)

    def test_t_equal_one_is_also_beta_symplectic(self):
        omega = canonical_omega(2)
        j = b_transform(symplectic_structure(omega), TwoForm(omega.m))
        t = classify_type(j)
        assert t.is_b_symplectic and t.is_beta_symplectic and not t.is_symplectic

    def test_eigenspace_criteria_match_intersections(self, typed_structures):
        # each of the four eigenspace criteria as a rank or a pivot count of
        # E's RREF basis, against the intersection it stands for
        seen = set()
        for j in typed_structures:
            n, e = j.n, to_eigenspace(j).e
            rho_e = e.image(projection_matrix(n, "vector"))
            rho_star_e = e.image(projection_matrix(n, "covector"))
            by_intersections = (
                rho_e.intersect(rho_e.conjugate()).is_zero(),
                rho_star_e.intersect(rho_star_e.conjugate()).is_zero(),
                e.intersect(covector_summand(n)).is_zero(),
                e.intersect(vector_summand(n)).is_zero(),
            )
            # rho(E) is read off the rows of E's basis with pivots below n
            k = sum(p < n for p in e.pivots)
            assert rho_e == Subspace(QI, n, e.basis.block(0, k, 0, n), e.pivots[:k])
            assert rho_star_e == Subspace.from_spanning(QI, n, e.basis.block(0, n, n, 2 * n))
            by_ranks = (
                not rho_e.meets_conjugate(),
                not rho_star_e.meets_conjugate(),
                all(p < n for p in e.pivots),
                rho_star_e.dim == n,
            )
            assert by_ranks == by_intersections
            t = classify_type(j)
            flags = (t.is_b_complex, t.is_beta_complex, t.is_b_symplectic, t.is_beta_symplectic)
            assert flags == by_ranks
            seen.update(enumerate(flags))
        assert seen == {(k, v) for k in range(4) for v in (False, True)}

    def test_classify_type_on_a_carried_eigenspace_intersects_nothing(self, eliminations, monkeypatch):
        # the ranks of J2 and J3, rho*(E), one n x n elimination, then the
        # ranks of Im rho(E), rho(E) being read off E's pivots, and of Im
        # rho*(E) (8 when rho(E) and rho*(E) were images and each of the
        # four criteria an intersection)
        calls = []
        intersect = Subspace.intersect

        def counting(self, other):
            calls.append((self.dim, other.dim))
            return intersect(self, other)

        monkeypatch.setattr(Subspace, "intersect", counting)
        rng = Random(17)
        split = direct_sum(
            symplectic_structure(random_symplectic_form(rng, 2)),
            complex_structure(random_complex_matrix(rng, 2)),
        )
        j = beta_transform(b_transform(split, random_two_form(rng, 4)), random_bivector(rng, 4))
        to_eigenspace(j)
        eliminations.clear()
        t = classify_type(j)
        assert not (t.is_b_complex or t.is_b_symplectic or t.is_beta_complex or t.is_beta_symplectic)
        assert calls == []
        assert eliminations == [(4, 4), (4, 4), (4, 4), (3, 4), (3, 4)]

    def test_t_squared_minus_one_is_beta_complex(self):
        omega = canonical_omega(2)
        a = ROT
        tm = Matrix.from_blocks(
            QQ, [[a, Matrix.zero(QQ, 2, 2)], [Matrix.zero(QQ, 2, 2), a.transpose()]]
        )
        j = b_transform(symplectic_structure(omega), TwoForm(omega.m @ tm))
        assert classify_type(j).is_beta_complex


class TestRecover:
    def test_symplectic_round_trip(self):
        rng = Random(9)
        for _ in range(6):
            w = random_symplectic_form(rng, 4)
            b = random_two_form(rng, 4)
            data = recover(b_transform(symplectic_structure(w), b))
            assert data.kind == "symplectic"
            assert data.omega.m == w.m
            assert data.b.m == b.m

    def test_complex_round_trip_at_structure_level(self):
        rng = Random(10)
        for _ in range(6):
            jm = random_complex_matrix(rng, 4)
            b = random_two_form(rng, 4)
            j = b_transform(complex_structure(jm), b)
            data = recover(j)
            assert data.kind == "complex"
            assert data.jmat == jm
            # the reported two-form may differ from b, but reassembles exactly
            assert b_transform(complex_structure(data.jmat), data.b) == j

    def test_symplectic_recovery_inverts_j2_once(self, eliminations):
        # J2 inverted once, which also decides B-symplecticity, then the
        # rest of classify_type's checks (the rank of J3, E, whose B^-1 is
        # read off J^T, rho*(E), and the ranks of the imaginary parts of
        # rho(E), read off E's pivots, and of rho*(E)); the reassembly
        # builds the classical structure from J2 and omega, so omega is not
        # inverted back (7 when classify_type took J2's rank before the
        # inversion, 9 when omega was inverted back too)
        rng = Random(12)
        j = b_transform(symplectic_structure(random_symplectic_form(rng, 4)), random_two_form(rng, 4))
        eliminations.clear()
        assert recover(j).kind == "symplectic"
        assert len(eliminations) == 6
        assert eliminations[0] == (4, 8) and eliminations[1:].count((4, 4)) == 4

    def test_pure_symplectic_reports_zero_field(self):
        data = recover(symplectic_structure(OMEGA2))
        assert data.kind == "symplectic" and data.b.m.is_zero()

    def test_neither_branch_raises(self):
        # mixed sum: the (1,2) block is nonzero but singular
        j = direct_sum(symplectic_structure(OMEGA2), complex_structure(ROT))
        types = classify_type(j)
        assert not types.is_b_complex and not types.is_b_symplectic
        with pytest.raises(ValueError):
            recover(j)


class TestAssembledSum:
    def test_zero_field_zero_complex_is_symplectic(self):
        rng = Random(11)
        w = random_symplectic_form(rng, 2)
        z0 = Matrix.zero(QQ, 2, 0)
        aut, line = assemble_sum_transform(
            w,
            Matrix.zero(QQ, 0, 0),
            Matrix.zero(QQ, 2, 2),
            z0,
            Matrix.zero(QQ, 0, 2),
            Matrix.zero(QQ, 0, 0),
        )
        assert aut == symplectic_structure(w)

    def test_zero_field_zero_symplectic_is_complex(self):
        rng = Random(12)
        jm = random_complex_matrix(rng, 2)
        aut, line = assemble_sum_transform(
            canonical_omega(0),
            jm,
            Matrix.zero(QQ, 0, 0),
            Matrix.zero(QQ, 0, 2),
            Matrix.zero(QQ, 2, 0),
            Matrix.zero(QQ, 2, 2),
        )
        assert aut == complex_structure(jm)

    def test_generic_matches_independent_path(self):
        rng = Random(13)
        for _ in range(5):
            w = random_symplectic_form(rng, 2)
            jm = random_complex_matrix(rng, 2)
            b1 = random_skew(rng, 2)
            b2 = random_matrix(rng, 2, 2)
            b3 = -b2.transpose()
            b4 = random_skew(rng, 2)
            aut, line = assemble_sum_transform(w, jm, b1, b2, b3, b4)
            big_b = TwoForm(Matrix.from_blocks(QQ, [[b1, b2], [b3, b4]]))
            ds = direct_sum(symplectic_structure(w), complex_structure(jm))
            assert aut == b_transform(ds, big_b)
            assert annihilator_subspace(line.rep) == to_eigenspace(aut).e

    def test_inconsistent_blocks_rejected(self):
        rng = Random(14)
        w = random_symplectic_form(rng, 2)
        jm = random_complex_matrix(rng, 2)
        b2 = random_matrix(rng, 2, 2)
        with pytest.raises(ValueError):
            assemble_sum_transform(
                w, jm, random_skew(rng, 2), b2, b2.transpose(), random_skew(rng, 2)
            )


class TestTOperator:
    def test_t_operator_formula(self):
        rng = Random(15)
        w = random_symplectic_form(rng, 4)
        b = random_two_form(rng, 4)
        t = t_operator(w, b)
        assert t == w.m.inverse() @ b.m
        assert satisfies_star(w, t)

    def test_star_condition_blocks(self):
        # in the canonical basis the condition pins D = A^t and skew B, C
        rng = Random(16)
        omega = canonical_omega(2)
        a = random_matrix(rng, 2, 2)
        b = random_skew(rng, 2)
        c = random_skew(rng, 2)
        good = Matrix.from_blocks(QQ, [[a, b], [c, a.transpose()]])
        assert satisfies_star(omega, good)
        bad = Matrix.from_blocks(QQ, [[a, b], [c, a]])
        if a != a.transpose():
            assert not satisfies_star(omega, bad)

    def test_table_t_zero(self):
        omega = canonical_omega(2)
        types = analyze_t(omega, Matrix.zero(QQ, 4, 4))
        assert types.is_symplectic

    def test_table_t_one(self):
        omega = canonical_omega(2)
        types = analyze_t(omega, Matrix.identity(QQ, 4))
        assert types.is_beta_symplectic and not types.is_symplectic
        assert not types.is_beta_complex

    def test_table_t_square_minus_one(self):
        omega = canonical_omega(2)
        tm = Matrix.from_blocks(
            QQ, [[ROT, Matrix.zero(QQ, 2, 2)], [Matrix.zero(QQ, 2, 2), ROT.transpose()]]
        )
        types = analyze_t(omega, tm)
        assert types.is_beta_complex and not types.is_beta_symplectic

    def test_star_violation_rejected(self):
        omega = canonical_omega(2)
        bad = Matrix(QQ, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(ValueError):
            analyze_t(omega, bad)


# -- the block transforms and the carried E against full-matrix oracles ------


def shear(m, lower):
    """[[1, 0], [m, 1]] (a two-form's action) or [[1, m], [0, 1]] (a
    bivector's): the oracles conjugate the full 2n x 2n matrix by it."""
    one, z = Matrix.identity(QQ, m.rows), Matrix.zero(QQ, m.rows, m.rows)
    return Matrix.from_blocks(QQ, [[one, z], [m, one]] if lower else [[one, m], [z, one]])


def oracle_b_transform(j, b):
    return GCAut.from_full(shear(b.m, True) @ j.full() @ shear(-b.m, True))


def oracle_beta_transform(j, beta):
    return GCAut.from_full(shear(beta.m, False) @ j.full() @ shear(-beta.m, False))


def oracle_conjugate_by_basis(j, p):
    p_inv = p.inverse()
    big = Matrix.block_diagonal(QQ, [p, p_inv.transpose()])
    big_inv = Matrix.block_diagonal(QQ, [p_inv, p.transpose()])
    return GCAut.from_full(big @ j.full() @ big_inv)


def oracle_b_transform_eigenspace(e, b):
    """E's image under the shear, eliminated afresh."""
    return IsotropicE(e.n, e.e.image(shear(b.m, True).to_gaussian()))


def fraction_matrix(rng, n):
    return Matrix(QQ, [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])


def fraction_skew(rng, n):
    m = fraction_matrix(rng, n)
    return m - m.transpose()


class TestBlockForm:
    """b_transform, beta_transform and conjugate_by_basis in blocks give the
    stored rows of the 2n x 2n products, on valid structures and on
    arbitrary blocks alike."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6), st.booleans())
    def test_hyp_block_transforms_equal_the_full_products(self, n, seed, valid):
        rng = Random(seed)
        if valid and n % 2 == 0:
            j = random_gcs(rng, n)
        else:
            j = GCAut(*(fraction_matrix(rng, n) for _ in range(4)))
        b, beta = TwoForm(fraction_skew(rng, n)), BiVector(fraction_skew(rng, n))
        p = random_invertible(rng, n).scale(Fraction(1, rng.randint(1, 3)))
        for out, oracle in (
            (b_transform(j, b), oracle_b_transform(j, b)),
            (beta_transform(j, beta), oracle_beta_transform(j, beta)),
            (conjugate_by_basis(j, p), oracle_conjugate_by_basis(j, p)),
        ):
            assert out.blocks() == oracle.blocks()
            assert [m.data for m in out.blocks()] == [m.data for m in oracle.blocks()]
            assert out._e is None

    def test_block_transforms_keep_their_errors(self):
        rng = Random(3)
        j = random_gcs(rng, 4)
        with pytest.raises(ValueError, match="two-form dimension mismatch"):
            b_transform(j, random_two_form(rng, 2))
        with pytest.raises(ValueError, match="bivector dimension mismatch"):
            beta_transform(j, random_bivector(rng, 2))
        with pytest.raises(ValueError, match="change of basis must be invertible"):
            conjugate_by_basis(j, Matrix.zero(QQ, 4, 4))
        with pytest.raises(ValueError, match="two-form dimension mismatch"):
            b_transform_eigenspace(to_eigenspace(j), random_two_form(rng, 2))


class TestCarriedEigenspace:
    """b_transform_eigenspace moves E's RREF basis by back-substitution; it
    must equal E's image under the shear and the E solved from e^B J."""

    def test_back_substitution_equals_both_routes_on_every_type(self, typed_structures):
        rng = Random(22)
        for j in typed_structures:
            e = to_eigenspace(j)
            for b in (random_two_form(rng, j.n), TwoForm(fraction_skew(rng, j.n))):
                moved = b_transform_eigenspace(e, b)
                for other in (oracle_b_transform_eigenspace(e, b), to_eigenspace(b_transform(j, b))):
                    assert moved == other
                    assert moved.e.basis.data == other.e.basis.data and moved.e.pivots == other.e.pivots
                assert moved._j is None and e.e.pivots == moved.e.pivots

    def test_decompose_checks_the_carried_eigenspace(self, monkeypatch):
        # a sign error in the back-substitution, f + v B for f - v B, moves E
        # by -B: a valid eigenspace, of another structure, on which e^B J
        # does not act as i
        j = random_gcs(Random(3), 4)
        decompose(j)
        monkeypatch.setattr(
            classification, "b_transform_eigenspace", lambda e, b: b_transform_eigenspace(e, TwoForm(-b.m))
        )
        with pytest.raises(AssertionError, match="equation list disagrees with the eigenspace of J"):
            decompose(j)

    def test_pair_check_rejects_an_eigenspace_moved_by_the_wrong_field(self):
        j = random_gcs(Random(4), 4)
        to_eigenspace(j)
        b = random_two_form(Random(5), 4)
        wrong = b_transform_eigenspace(j._e, TwoForm(-b.m))
        assert validate_eigenspace(wrong).ok
        with pytest.raises(AssertionError, match="equation list disagrees with the eigenspace of J"):
            _checked_pair(b_transform(j, b), wrong)
        carrying = b_transform(j, b)
        check = _checked_pair(carrying, b_transform_eigenspace(j._e, b))
        assert check.ok and carrying == b_transform(j, b) and to_eigenspace(carrying) == to_eigenspace(b_transform(j, b))
