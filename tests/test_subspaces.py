from random import Random

import pytest
from hypothesis import given, seed, settings, strategies as st

from gclin.classification import (
    build_graphnotsub_example,
    build_subnotquot_example,
)
from gclin.core import (
    BiVector,
    GCAut,
    TwoForm,
    complex_structure,
    conjugate_by_basis,
    direct_sum,
    dualize,
    symplectic_structure,
    to_eigenspace,
    twisted_product,
)
from gclin.fields import QI, QQ, GaussianRational
from gclin.linalg import Matrix, Subspace
from gclin.relations import map_relation
from gclin.samples import (
    random_bivector,
    random_complex_matrix,
    random_gcs,
    random_invertible,
    random_subspace,
    random_symplectic_form,
    random_two_form,
)
from gclin.spinor import annihilator_subspace, spinor_from_subspace
from gclin.subspaces import (
    _finish_induced,
    beta_between,
    find_split_complement,
    generalized_coisotropic_witness,
    generalized_isotropic_witness,
    induce_on_quotient,
    induce_on_subspace,
    is_generalized_coisotropic,
    is_generalized_isotropic,
    is_generalized_lagrangian,
    restrict_spinor,
    satisfies_graph_condition,
    split_induced,
    verify_split,
)
from gclin.transforms import _recover, b_transform, beta_transform, classify_type
from helpers import contains_subspace, oracle_induced_on_zero_target, proportional_to

I = GaussianRational(0, 1)
ROT = Matrix(QQ, [[0, -1], [1, 0]])
OMEGA2 = TwoForm(Matrix(QQ, [[0, -1], [1, 0]]))


def j_invariant_plane(jm):
    """Span of (v, jm v) for the first coordinate vector."""
    n = jm.rows
    v = [QQ.one] + [QQ.zero] * (n - 1)
    return Subspace.from_spanning(QQ, n, [v, jm.apply(v)])


class TestInduceOnSubspace:
    def test_complex_invariant_subspace(self):
        rng = Random(1)
        jm = random_complex_matrix(rng, 4)
        w = j_invariant_plane(jm)
        ind = induce_on_subspace(complex_structure(jm), w)
        assert ind.is_gc
        restricted = Matrix(
            QQ, [w.coordinates(jm.apply(row)) for row in w.basis.data]
        ).transpose()
        assert ind.jw == complex_structure(restricted)

    def test_complex_non_invariant_subspace(self):
        jm = Matrix.from_blocks(
            QQ, [[ROT, Matrix.zero(QQ, 2, 2)], [Matrix.zero(QQ, 2, 2), ROT]]
        )
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        ind = induce_on_subspace(complex_structure(jm), w)
        assert not ind.is_gc
        assert ind.witness is not None

    def test_symplectic_nondegenerate_subspace(self):
        rng = Random(2)
        omega = random_symplectic_form(rng, 4)
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        restricted = TwoForm(
            Matrix(QQ, w.basis.data, cols=4)
            @ omega.m
            @ Matrix(QQ, w.basis.data, cols=4).transpose()
        )
        ind = induce_on_subspace(symplectic_structure(omega), w)
        if restricted.m.is_invertible():
            assert ind.is_gc
            assert ind.jw == symplectic_structure(restricted)

    def test_fixture_subspace_is_gc(self):
        structure, w, _, _ = build_subnotquot_example()
        assert induce_on_subspace(structure, w).is_gc

    def test_dimension_rule(self):
        rng = Random(3)
        for _ in range(25):
            n = rng.choice((2, 4))
            j = random_gcs(rng, n)
            w = random_subspace(rng, n)
            assert induce_on_subspace(j, w).ew.dim == w.dim
            assert induce_on_quotient(j, w).ew.dim == n - w.dim

    def test_non_isotropic_induced_eigenspace_is_a_failed_check(self):
        # e + i f meets its conjugate only in 0 but pairs with itself to -i
        i = GaussianRational(0, 1)
        with pytest.raises(AssertionError, match="not isotropic"):
            _finish_induced(1, [[QI.one, i]])

    def test_induced_structure_carries_the_induced_eigenspace(self, kernel_eigenspaces):
        rng = Random(4)
        for _ in range(10):
            j = random_gcs(rng, 4)
            w = random_subspace(rng, 4)
            for ind in (induce_on_subspace(j, w), induce_on_quotient(j, w)):
                if ind.is_gc:
                    del kernel_eigenspaces[:]
                    assert to_eigenspace(ind.jw).e == ind.ew
                    assert kernel_eigenspaces == []
                    assert to_eigenspace(GCAut(*ind.jw.blocks())).e == ind.ew

    def test_transverse_case_eliminates_b_once(self, eliminations):
        # E of J, whose B^-1 is read off J^T, the cut of E, the induced E
        # and its B^-1, which the check hands to _aut_of (5 when E's check
        # inverted B, 6 before that when the rank of Im and the inversion
        # of B were two eliminations)
        j, w = random_gcs(Random(5), 4), random_subspace(Random(5), 4, 2)
        eliminations.clear()
        assert induce_on_subspace(j, w).is_gc
        assert len(eliminations) == 4


class TestInduceOnQuotient:
    def test_fixture_quotient_fails_with_annihilated_witness(self):
        structure, w, omega, b = build_subnotquot_example()
        quot = induce_on_quotient(structure, w)
        assert not quot.is_gc
        # the stated witness: (B - i omega) kills p1 + i q2
        v = [QI.one, QI.zero, QI.zero, I]
        image = (b.m.to_gaussian() - omega.m.to_gaussian().scale(I)).apply(v)
        assert all(not x for x in image)
        # and its class in the quotient lies in the conjugate intersection
        witness = [QI.zero, I, QI.zero, QI.zero]
        bad = quot.ew.intersect(quot.ew.conjugate())
        assert bad.contains(witness)

    def test_cut_eliminates_no_annihilator(self, eliminations):
        # on a J that keeps its E: the cut of E, the induced E and its
        # B^-1 (4 when the window's Ann(W) was eliminated before the cut)
        j, w = random_gcs(Random(5), 4), random_subspace(Random(5), 4, 2)
        to_eigenspace(j)
        eliminations.clear()
        assert induce_on_quotient(j, w).is_gc
        assert len(eliminations) == 3

    def test_zero_subspace_gives_ambient(self):
        rng = Random(4)
        j = random_gcs(rng, 4)
        quot = induce_on_quotient(j, Subspace.zero(QQ, 4))
        assert quot.is_gc
        assert quot.jw == j

    def test_duality_lemma(self):
        # tau_W(E_{V/W}) agrees with the subspace induced on Ann(W) by the
        # dual structure, up to the base change between the two coordinate
        # systems on (V/W)* and Ann(W).
        rng = Random(5)
        for _ in range(10):
            n = 4
            j = random_gcs(rng, n)
            w = random_subspace(rng, n, rng.randint(1, 3))
            free = [c for c in range(n) if c not in w.pivots]
            ann = w.annihilator()
            q = len(free)
            m = Matrix(QQ, [[g[c] for c in free] for g in ann.basis.data], cols=q)
            quot = induce_on_quotient(j, w)
            swapped = [list(r[q:]) + list(r[:q]) for r in quot.ew.basis.data]
            tau_w = Subspace.from_spanning(QI, 2 * q, swapped)
            dual_ind = induce_on_subspace(dualize(j), ann)
            minv = m.inverse().to_gaussian()
            mt = m.transpose().to_gaussian()
            mapped = [
                mt.apply(r[:q]) + minv.apply(r[q:]) for r in dual_ind.ew.basis.data
            ]
            assert tau_w == Subspace.from_spanning(QI, 2 * q, mapped)

    def test_quotient_gc_iff_annihilator_gc_in_dual(self):
        rng = Random(6)
        for _ in range(15):
            n = 4
            j = random_gcs(rng, n)
            w = random_subspace(rng, n)
            lhs = induce_on_quotient(j, w).is_gc
            rhs = induce_on_subspace(dualize(j), w.annihilator()).is_gc
            assert lhs == rhs



class TestZeroTargets:
    """W = 0 for the induced structure and W = V for the quotient: the
    target is the zero space, so E is not met with the window."""

    @pytest.mark.parametrize("quotient", [False, True], ids=["sub", "quot"])
    def test_equals_the_window_meet_oracle(self, quotient):
        rng = Random(21)
        for n in (2, 4, 6):
            for _ in range(3):
                j = random_gcs(rng, n, rng.random() < 0.5)
                w = Subspace.full(QQ, n) if quotient else Subspace.zero(QQ, n)
                induce = induce_on_quotient if quotient else induce_on_subspace
                got = induce(GCAut(*j.blocks()), w)
                assert got == oracle_induced_on_zero_target(GCAut(*j.blocks()), quotient)
                assert got.is_gc and got.ew.ambient_dim == 0 and got.jw.n == 0

    def test_no_window_meet_and_the_structure_keeps_its_e(self, monkeypatch):
        meets = []
        meet = Subspace.orthogonal_to

        def recording(self, null):
            meets.append(null.rows)
            return meet(self, null)

        monkeypatch.setattr(Subspace, "orthogonal_to", recording)
        for n in (2, 4):
            j = random_gcs(Random(n), n)
            induce_on_subspace(j, Subspace.zero(QQ, n))
            assert j._e is not None
            induce_on_quotient(j, Subspace.full(QQ, n))
        assert meets == []
        # any other W is met with its window, once
        induce_on_subspace(j, Subspace.full(QQ, 4))
        assert len(meets) == 1

    def test_an_invalid_structure_still_raises(self):
        for j in (GCAut(*(Matrix.zero(QQ, 2, 2) for _ in range(4))), GCAut.from_full(Matrix.identity(QQ, 4))):
            with pytest.raises(ValueError, match="invalid automorphism"):
                induce_on_subspace(j, Subspace.zero(QQ, 2))
            with pytest.raises(ValueError, match="invalid automorphism"):
                induce_on_quotient(j, Subspace.full(QQ, 2))

    def test_w_must_still_be_a_rational_subspace_of_the_carrier(self):
        j = random_gcs(Random(2), 2)
        for w in (Subspace.zero(QI, 2), Subspace.full(QI, 2), Subspace.zero(QQ, 4), Subspace.full(QQ, 4)):
            for induce in (induce_on_subspace, induce_on_quotient):
                with pytest.raises(ValueError, match="rational subspace of the carrier"):
                    induce(j, w)

def classical_verdict(kind, m, w):
    """JW = W for a complex structure J, omega|_W nondegenerate for a
    symplectic form omega."""
    if kind == "complex":
        images = [m.apply(row) for row in w.basis.data]
        return Subspace.from_spanning(QQ, w.ambient_dim, w.basis_rows() + images).dim == w.dim
    return m.restrict(w.basis.data).m.is_invertible()


class TestInducedAgainstClassical:
    """For a complex or symplectic structure the induced structures on W
    and on V/W exist exactly when the classical test holds."""

    def test_seeded_structures(self):
        rng = Random(11)
        seen = set()
        for _ in range(120):
            n = rng.choice((2, 4))
            if rng.random() < 0.5:
                kind, m = "complex", random_complex_matrix(rng, n)
                j = complex_structure(m)
            else:
                kind, m = "symplectic", random_symplectic_form(rng, n)
                j = symplectic_structure(m)
            w = random_subspace(rng, n)
            if kind == "complex" and rng.random() < 0.5:
                # a J-invariant plane, so that nontrivial W pass as well
                w = j_invariant_plane(m)
            expected = classical_verdict(kind, m, w)
            assert induce_on_subspace(j, w).is_gc == expected
            assert induce_on_quotient(j, w).is_gc == expected
            seen.add((kind, expected))
        assert seen == {(kind, ok) for kind in ("complex", "symplectic") for ok in (True, False)}


class TestRestrictSpinor:
    def test_full_space_restriction_is_identity(self):
        rng = Random(7)
        j = random_gcs(rng, 4)
        sf, l, line_w = restrict_spinor(j, Subspace.full(QQ, 4))
        phi = spinor_from_subspace(to_eigenspace(j).e).rep
        assert proportional_to(line_w.rep, phi)

    def test_transform_restricts_to_restricted_transform(self):
        rng = Random(8)
        for _ in range(8):
            j = random_gcs(rng, 4, with_beta=False)
            b = random_two_form(rng, 4)
            w = random_subspace(rng, 4, 2)
            moved = b_transform(j, b)
            ew_before = induce_on_subspace(j, w).ew
            ew_after = induce_on_subspace(moved, w).ew
            wmat = Matrix(QQ, w.basis.data, cols=4)
            b_w = TwoForm(wmat @ b.m @ wmat.transpose())
            lifted = [
                list(row[:2]) + [x + y for x, y in zip(row[2:], b_w.m.to_gaussian().apply(row[:2]))]
                for row in ew_before.basis.data
            ]
            assert ew_after == Subspace.from_spanning(QI, 4, lifted)

    def test_oracle_agreement_random_pairs(self):
        # the constructor itself asserts that the restricted line represents
        # the induced subspace; this exercises it broadly
        rng = Random(9)
        for _ in range(40):
            n = rng.choice((2, 4))
            j = random_gcs(rng, n)
            w = random_subspace(rng, n, rng.randint(0, n))
            sf, l, line_w = restrict_spinor(j, w)
            assert annihilator_subspace(line_w.rep) == induce_on_subspace(j, w).ew
            assert 0 <= l <= sf.k

    def test_eliminations_on_fixed_structures(self, eliminations):
        # rho(E) is read off E's RREF basis (Subspace.project_first), and
        # Ann(rho(E) + W) is used as its one elimination left it
        rng = Random(7)
        counts = []
        for n, k in ((2, 1), (4, 2), (4, 3)):
            j, w = random_gcs(rng, n), random_subspace(rng, n, k)
            to_eigenspace(j), w.null_rows()
            eliminations.clear()
            restrict_spinor(j, w)
            counts.append(len(eliminations))
        assert counts == [10, 9, 11]


class TestGeneralizedClasses:
    def test_symplectic_matches_classical(self):
        rng = Random(10)
        omega = random_symplectic_form(rng, 4)
        j = symplectic_structure(omega)
        for _ in range(15):
            w = random_subspace(rng, 4)
            classically_isotropic = all(
                omega.value(x, y) == 0 for x in w.basis.data for y in w.basis.data
            )
            assert is_generalized_isotropic(j, w) == classically_isotropic
            # coisotropic: the omega-orthogonal complement sits inside w
            perp = Matrix(
                QQ, [omega.m.apply(x) for x in w.basis.data], cols=4
            ).kernel()
            assert is_generalized_coisotropic(j, w) == contains_subspace(w, perp)
            assert is_generalized_lagrangian(j, w) == (
                classically_isotropic and contains_subspace(w, perp)
            )

    def test_complex_all_classes_match_invariance(self):
        rng = Random(11)
        jm = random_complex_matrix(rng, 4)
        j = complex_structure(jm)
        for _ in range(15):
            w = random_subspace(rng, 4)
            invariant = all(w.contains(jm.apply(row)) for row in w.basis.data)
            assert is_generalized_isotropic(j, w) == invariant
            assert is_generalized_coisotropic(j, w) == invariant
            assert is_generalized_lagrangian(j, w) == invariant

    def test_zero_subspace(self):
        rng = Random(12)
        w0 = Subspace.zero(QQ, 4)
        for _ in range(8):
            j = random_gcs(rng, 4)
            assert is_generalized_isotropic(j, w0)
            assert is_generalized_coisotropic(j, w0) == j.j2.is_zero()


def oracle_witness(j, w, coisotropic):
    """The first escaping generator by reduction: J's images of the rows
    of W (or of the RREF basis of Ann(W)) reduced against W and against
    that annihilator (``Subspace.first_outside``); None if none escapes."""
    ann = w.annihilator()
    gens, to_v, to_dual = (ann.basis, j.j2, j.j4) if coisotropic else (w.basis, j.j1, j.j3)
    found = [w.first_outside(gens.mul_t(to_v)), ann.first_outside(gens.mul_t(to_dual))]
    k = min((k for k in found if k is not None), default=None)
    if k is None:
        return None
    zero = [QQ.zero] * j.n
    return zero + list(gens.data[k]) if coisotropic else list(gens.data[k]) + zero


def class_verdicts(j, w):
    """Both witnesses and the three class verdicts."""
    return (
        generalized_isotropic_witness(j, w),
        generalized_coisotropic_witness(j, w),
        is_generalized_isotropic(j, w),
        is_generalized_coisotropic(j, w),
        is_generalized_lagrangian(j, w),
    )


def oracle_verdicts(j, w):
    iso, coiso = oracle_witness(j, w, False), oracle_witness(j, w, True)
    return iso, coiso, iso is None, coiso is None, iso is None and coiso is None


def class_cases(rng, n):
    """(J, W): a random structure on R^n with W of every dimension from 0
    to n, and the twisted product of two structures on R^n with the
    graph of an isomorphism between them (a canonical relation) and with
    a random subspace of the same dimension."""
    j = random_gcs(rng, n)
    cases = [(j, random_subspace(rng, n, d)) for d in range(n + 1)]
    a, mu = random_gcs(rng, n), random_invertible(rng, n)
    b = conjugate_by_basis(a, mu)
    tp = twisted_product(a, b)
    cases += [(tp, map_relation(mu, a, b).graph), (tp, random_subspace(rng, 2 * n, n))]
    return cases


def wedge_with(rng, rows, n):
    """R^T M - M^T R for the rows R and a random M: a skew n x n matrix
    that vanishes on pairs of vectors annihilated by R, and that maps
    covectors annihilating R's rows into their span."""
    m = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows.rows)], cols=n)
    return rows.transpose() @ m - m.transpose() @ rows


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestClassesOnNullRows:
    """The class tests decide J(W) and J(Ann W) inside W + Ann(W) as
    identities on W's rows and its null rows; the reduction route is the
    oracle, witnesses included."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    @seed(20261019)
    @settings(max_examples=8, deadline=None)
    @given(seed_value=seeds)
    def test_hyp_classes_agree_with_the_reduction_oracle(self, n, seed_value):
        rng = Random(seed_value)
        for j, w in class_cases(rng, n):
            assert class_verdicts(j, w) == oracle_verdicts(j, w)

    def test_each_verdict_is_seen_both_ways(self):
        rng = Random(27)
        seen = set()
        for n in (2, 4, 6):
            for _ in range(4):
                for j, w in class_cases(rng, n):
                    got = class_verdicts(j, w)
                    assert got == oracle_verdicts(j, w)
                    seen.update(enumerate(got[2:]))
        assert seen == {(k, v) for k in range(3) for v in (True, False)}

    def test_fields_fixing_w_plus_ann_w_keep_the_classes(self):
        # e^B fixes Ann(W) pointwise and W + Ann(W) as a whole when B
        # vanishes on W, so it keeps coisotropy and Lagrangian-ness; e^beta
        # fixes W pointwise and W + Ann(W) when beta maps Ann(W) into W, so
        # it keeps isotropy and Lagrangian-ness
        rng = Random(28)
        seen = set()
        for n in (2, 4, 6):
            for _ in range(3):
                omega = symplectic_structure(random_symplectic_form(rng, n))
                cases = class_cases(rng, n)
                cases += [(omega, random_subspace(rng, n, 1)), (omega, random_subspace(rng, n, n - 1))]
                for j, w in cases:
                    iso, coiso, lag = class_verdicts(j, w)[2:]
                    b = b_transform(j, TwoForm(wedge_with(rng, w.null_rows(), j.n)))
                    beta = beta_transform(j, BiVector(wedge_with(rng, w.basis, j.n)))
                    assert (is_generalized_coisotropic(b, w), is_generalized_lagrangian(b, w)) == (coiso, lag)
                    assert (is_generalized_isotropic(beta, w), is_generalized_lagrangian(beta, w)) == (iso, lag)
                    seen.update(enumerate((iso, coiso, lag)))
        assert seen == {(k, v) for k in range(3) for v in (True, False)}

    def test_a_b_field_need_not_keep_isotropy(self):
        # every two-form vanishes on a line, and a line is isotropic for a
        # symplectic structure, but a B-transform moves J(W) out of
        # W + Ann(W): the classes are not invariant under all B-fields
        rng = Random(33)
        j = symplectic_structure(random_symplectic_form(rng, 4))
        line = random_subspace(rng, 4, 1)
        moved = b_transform(j, random_two_form(rng, 4))
        assert is_generalized_isotropic(j, line)
        assert not is_generalized_isotropic(moved, line)
        assert generalized_isotropic_witness(moved, line) == oracle_witness(moved, line, False)

    def test_w_must_be_a_rational_subspace_of_the_carrier(self):
        j = random_gcs(Random(29), 4)
        tests = [
            is_generalized_isotropic,
            is_generalized_coisotropic,
            is_generalized_lagrangian,
            generalized_isotropic_witness,
            generalized_coisotropic_witness,
        ]
        for w in (Subspace.from_spanning(QI, 4, [[1, 0, 0, 0]]), Subspace.from_spanning(QQ, 2, [[1, 0]])):
            for test in tests:
                with pytest.raises(ValueError, match="W must be a rational subspace of the carrier"):
                    test(j, w)
            with pytest.raises(ValueError, match="W must be a rational subspace of the carrier"):
                satisfies_graph_condition(j, w, random_gcs(Random(30), 2))

    def test_boolean_tests_run_no_elimination(self, eliminations):
        j, w = random_gcs(Random(31), 4), random_subspace(Random(31), 4, 2)
        for test in (is_generalized_isotropic, is_generalized_coisotropic, is_generalized_lagrangian):
            eliminations.clear()
            test(j, w)
            assert eliminations == []

    def test_coisotropic_witness_eliminates_only_when_it_returns_one(self, eliminations):
        # a complex structure on R^2 moves every line: Ann(W)'s RREF basis
        # is eliminated for the witness, and nothing when W is the whole space
        j = complex_structure(ROT)
        line, full = Subspace.from_spanning(QQ, 2, [[1, 1]]), Subspace.full(QQ, 2)
        eliminations.clear()
        witness = generalized_coisotropic_witness(j, line)
        assert len(eliminations) == 1
        eliminations.clear()
        assert generalized_coisotropic_witness(j, full) is None
        iso_witness = generalized_isotropic_witness(j, line)
        assert eliminations == []
        assert witness == oracle_witness(j, line, True) is not None
        assert iso_witness == oracle_witness(j, line, False)


class TestGraphCondition:
    def test_split_subspace_satisfies_with_induced(self):
        rng = Random(13)
        a = random_gcs(rng, 2)
        b = random_gcs(rng, 2)
        j = direct_sum(a, b)
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        ind = induce_on_subspace(j, w)
        assert ind.is_gc
        assert satisfies_graph_condition(j, w, ind.jw)

    def test_gc_subspace_iff_block_stability(self):
        rng = Random(14)
        hits = {True: 0, False: 0}
        cases = []
        for _ in range(30):
            cases.append((random_gcs(rng, 4), random_subspace(rng, 4, rng.randint(1, 3))))
        for _ in range(10):
            # engineered positives: summands of direct sums are stable
            a, b = random_gcs(rng, 2), random_gcs(rng, 2)
            cases.append(
                (
                    direct_sum(a, b),
                    Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
                )
            )
        for j, w in cases:
            ind = induce_on_subspace(j, w)
            if not ind.is_gc:
                continue
            stable = all(w.contains(j.j1.apply(row)) for row in w.basis.data)
            got = satisfies_graph_condition(j, w, ind.jw)
            assert got == stable
            hits[stable] += 1
        assert hits[True] and hits[False]

    def test_fixture_graph_without_subspace(self):
        structure, w, k = build_graphnotsub_example()
        assert satisfies_graph_condition(structure, w, k)
        assert not induce_on_subspace(structure, w).is_gc

    def test_wrong_structure_fails(self):
        rng = Random(15)
        a = random_gcs(rng, 2)
        b = random_gcs(rng, 2)
        j = direct_sum(a, b)
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        ind = induce_on_subspace(j, w)
        other = beta_transform(
            complex_structure(ROT), random_bivector(rng, 2)
        )
        if other != ind.jw:
            # a graph-condition structure must share the (1,1) block
            if other.j1 != ind.jw.j1:
                assert not satisfies_graph_condition(j, w, other)


class TestBetaBetween:
    def test_equal_blocks_give_zero(self):
        rng = Random(16)
        j = random_gcs(rng, 4)
        assert beta_between(j, j).m.is_zero()

    def test_graph_pair_is_beta_transform(self):
        # a structure on W satisfying the graph condition relates to the
        # induced one by a bivector transform; engineered via summands whose
        # induced structure has vanishing (2,1) block
        rng = Random(17)
        for _ in range(10):
            a = beta_transform(
                complex_structure(random_complex_matrix(rng, 2)),
                random_bivector(rng, 2),
            )
            j = direct_sum(a, random_gcs(rng, 2))
            w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
            ind = induce_on_subspace(j, w)
            assert ind.is_gc and ind.jw == a and a.j3.is_zero()
            beta = random_bivector(rng, 2)
            k = beta_transform(a, beta)
            assert (k.j1, k.j3, k.j4) == (a.j1, a.j3, a.j4)
            assert satisfies_graph_condition(j, w, k)
            recovered = beta_between(a, k)
            assert beta_transform(a, recovered) == k
            assert (a.j1 @ recovered.m).is_skew()

    def test_beta_complex_recovery(self):
        rng = Random(18)
        for _ in range(8):
            base = beta_transform(
                complex_structure(random_complex_matrix(rng, 4)),
                random_bivector(rng, 4),
            )
            assert base.j3.is_zero()
            j_alt = beta_transform(base, random_bivector(rng, 4))
            recovered = beta_between(base, j_alt)
            assert beta_transform(base, recovered) == j_alt
            assert (base.j1 @ recovered.m).is_skew()

    def test_rejects_differences_outside_block(self):
        rng = Random(19)
        j = random_gcs(rng, 4)
        other = random_gcs(rng, 4)
        if (j.j1, j.j3, j.j4) != (other.j1, other.j3, other.j4):
            with pytest.raises(ValueError):
                beta_between(j, other)


def oracle_b_complex_split(j, w):
    """``find_split_complement`` on a B-complex structure by the original
    construction: the projection averaged over four powers of J and
    their inverses, and the equations for h written out one by one."""
    data = _recover(j, classify_type(j))
    n, jm = j.n, data.jmat
    jw = w.basis.mul_t(jm)
    if w.first_outside(jw) is not None:
        return None
    q = Matrix.from_blocks(QQ, [[w.basis], [w.complement().basis]]).transpose()
    sel = Matrix.from_entries(QQ, n, n, {(i, i): 1 for i in range(w.dim)})
    sigma0 = q @ sel @ q.inverse()
    sigma = sigma0
    power = Matrix.identity(QQ, n)
    for _ in range(3):
        power = power @ jm
        sigma = sigma + power @ sigma0 @ power.inverse()
    n1 = sigma.scale(QQ.coerce("1/4")).kernel()
    assert n1.dim + w.dim == n
    m, qdim = w.dim, n1.dim
    j_on_w = jw.select_columns(w.pivots).data
    j_on_n = [n1.coordinates(x) for x in n1.basis.mul_t(jm).data]
    bw = w.basis.mul_t(data.b.m)
    b_ww = bw.mul_t(w.basis).data
    b_wn = bw.mul_t(n1.basis).data
    eqs, rhs = [], []
    for a in range(m):
        for bcol in range(qdim):
            row = [QQ.zero] * (m * qdim)
            for x in range(m):
                row[x * qdim + bcol] = row[x * qdim + bcol] + j_on_w[x][a]
            for y in range(qdim):
                row[a * qdim + y] = row[a * qdim + y] - j_on_n[bcol][y]
            eqs.append(row)
            rhs.append(QQ.zero)
    for a in range(m):
        for bcol in range(qdim):
            row = [QQ.zero] * (m * qdim)
            for x in range(m):
                row[x * qdim + bcol] = b_ww[a][x]
            eqs.append(row)
            rhs.append(-b_wn[a][bcol])
    sol = Matrix(QQ, eqs, cols=m * qdim).solve(rhs)
    if sol is None:
        return None
    h = Matrix(QQ, [sol[x * qdim : (x + 1) * qdim] for x in range(m)], cols=qdim)
    return Subspace.from_spanning(QQ, n, n1.basis + h.transpose() @ w.basis)


def b_complex_split_cases(rng, n):
    """(J, W): a B-transformed complex structure on R^n, with a J1-stable W
    of each even dimension from 2 to n - 2 and a random W of each
    dimension from 0 to n."""
    j = b_transform(complex_structure(random_complex_matrix(rng, n)), random_two_form(rng, n))
    stable = []
    for _ in range(n // 2 - 1):
        v = [rng.randint(-2, 2) for _ in range(n)]
        stable += [v, list(j.j1.apply(v))]
        w = Subspace.from_spanning(QQ, n, stable)
        if w.dim < n:
            yield j, w
    for d in range(n + 1):
        yield j, random_subspace(rng, n, d)


class TestSplit:
    @pytest.mark.parametrize("n", [2, 4, 6])
    @seed(20261020)
    @settings(max_examples=10, deadline=None)
    @given(seed_value=seeds)
    def test_hyp_b_complex_split_agrees_with_the_original_construction(self, n, seed_value):
        for j, w in b_complex_split_cases(Random(seed_value), n):
            assert find_split_complement(j, w) == oracle_b_complex_split(j, w)

    def test_b_complex_split_inverts_no_power_of_j(self, eliminations):
        # a J1-stable plane in R^6 that does not split off (12 when J, J^2
        # and J^3 were inverted to average the projection, 9 when the
        # projection came from inverting [W; complement]^T)
        j, w = next(b_complex_split_cases(Random(0), 6))
        to_eigenspace(j)
        eliminations.clear()
        assert find_split_complement(j, w) is None
        assert len(eliminations) == 8

    def test_b_complex_split_cases_see_both_outcomes(self):
        # at n = 6 a J1-stable W splits off for some B-fields and not others
        found = set()
        for s in range(3):
            for j, w in b_complex_split_cases(Random(s), 6):
                stable = w.first_outside(w.basis.mul_t(j.j1)) is None
                found.add((stable, find_split_complement(j, w) is None))
        assert found == {(True, True), (True, False), (False, True)}

    def test_direct_sum_summands_split(self):
        rng = Random(20)
        a, b = random_gcs(rng, 2), random_gcs(rng, 2)
        j = direct_sum(a, b)
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        n_comp = Subspace.from_spanning(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert verify_split(j, w, n_comp)
        jw, jn = split_induced(j, w, n_comp)
        assert jw == a and jn == b

    def test_verify_split_needs_rational_subspaces_of_the_carrier(self):
        j = random_gcs(Random(34), 4)
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        n_comp = Subspace.from_spanning(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        for bad in (w.to_gaussian(), Subspace.from_spanning(QQ, 2, [[1, 0]])):
            with pytest.raises(ValueError, match="rational and live in the carrier"):
                verify_split(j, bad, n_comp)
            with pytest.raises(ValueError, match="rational and live in the carrier"):
                verify_split(j, w, bad)

    def test_split_induced_refuses_bad_pair(self):
        rng = Random(21)
        j = random_gcs(rng, 4)
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0]])
        n_comp = Subspace.from_spanning(QQ, 4, [[0, 1, 0, 0]])
        assert not verify_split(j, w, n_comp)
        with pytest.raises(ValueError):
            split_induced(j, w, n_comp)

    def test_b_complex_split_criterion(self):
        # split iff some J-invariant complement is B-orthogonal to W
        rng = Random(22)
        jm = random_complex_matrix(rng, 4)
        w = j_invariant_plane(jm)
        # orthogonal B: block form vanishing between w and a chosen complement
        j0 = b_transform(complex_structure(jm), TwoForm.zero(4))
        n_found = find_split_complement(j0, w)
        assert n_found is not None
        assert verify_split(j0, w, n_found)

    def test_b_symplectic_split_iff_graph_condition(self):
        rng = Random(23)
        seen = {True: 0, False: 0}
        w = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        cases = []
        for _ in range(20):
            cases.append((random_symplectic_form(rng, 4), random_two_form(rng, 4)))
        for _ in range(10):
            # block-diagonal data splits W off by construction
            w1 = random_symplectic_form(rng, 2)
            w2 = random_symplectic_form(rng, 2)
            b1 = random_two_form(rng, 2)
            b2 = random_two_form(rng, 2)
            z = Matrix.zero(QQ, 2, 2)
            cases.append(
                (
                    TwoForm(Matrix.from_blocks(QQ, [[w1.m, z], [z, w2.m]])),
                    TwoForm(Matrix.from_blocks(QQ, [[b1.m, z], [z, b2.m]])),
                )
            )
        for omega, b in cases:
            j = b_transform(symplectic_structure(omega), b)
            ind = induce_on_subspace(j, w)
            if not ind.is_gc:
                continue
            n_comp = find_split_complement(j, w)
            split = n_comp is not None
            graph = satisfies_graph_condition(j, w, ind.jw)
            assert split == graph
            seen[split] += 1
        assert seen[True] and seen[False]

    def test_fixture_subspace_is_not_split(self):
        structure, w, _, b = build_subnotquot_example()
        assert find_split_complement(structure, w) is None

    def test_complex_invariant_subspace_always_splits(self):
        rng = Random(24)
        for _ in range(10):
            jm = random_complex_matrix(rng, 4)
            w = j_invariant_plane(jm)
            n_comp = find_split_complement(complex_structure(jm), w)
            assert n_comp is not None
            jw, jn = split_induced(complex_structure(jm), w, n_comp)
            assert classify_type(jw).is_complex
            assert classify_type(jn).is_complex

    def test_implication_chain(self):
        # split => carries a structure => graph condition equivalent to
        # stability of W under the (1,1) block
        rng = Random(25)
        for _ in range(30):
            j = random_gcs(rng, 4)
            w = random_subspace(rng, 4, 2)
            types = classify_type(j)
            if not (types.is_b_complex or types.is_b_symplectic):
                continue
            n_comp = find_split_complement(j, w) if w.dim else None
            if n_comp is None:
                continue
            ind = induce_on_subspace(j, w)
            assert ind.is_gc
            assert satisfies_graph_condition(j, w, ind.jw)
            assert all(w.contains(j.j1.apply(row)) for row in w.basis.data)


class TestSubspaceTransformInvariance:
    def test_gc_status_invariant_under_field_transform(self):
        rng = Random(26)
        for _ in range(20):
            j = random_gcs(rng, 4)
            w = random_subspace(rng, 4)
            b = random_two_form(rng, 4)
            before = induce_on_subspace(j, w).is_gc
            after = induce_on_subspace(b_transform(j, b), w).is_gc
            assert before == after
