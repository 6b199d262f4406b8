import time
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gclin import spinor
from gclin.core import (
    GCAut,
    TwoForm,
    covector_summand,
    to_eigenspace,
    twist,
    vector_summand,
)
from gclin.fields import QI, QQ, GaussianRational
from gclin.linalg import Matrix, Subspace, vec_dot
from gclin.multivector import Multivector, two_form_from_coeff
from gclin.samples import random_gcs, random_maximal_isotropic, random_two_form
from gclin.spinor import (
    StandardForm,
    annihilator_subspace,
    clifford_act,
    is_pure,
    mukai_pairing,
    spinor_from_subspace,
    standard_data_for_subspace,
    standard_form,
    structure_from_spinor,
    subspace_from_standard_form,
)
from gclin.transforms import b_transform, b_transform_eigenspace
from helpers import proportional_to

I = GaussianRational(0, 1)


def mv(n, *terms):
    out = Multivector.zero(n)
    for indices, coeff in terms:
        out = out + Multivector(n, {sum(1 << (i - 1) for i in indices): coeff})
    return out


def clifford_square_scalar(x):
    """f(v) for x = (v, f): the scalar with x.x.phi = f(v) phi."""
    n = len(x) // 2
    return QI.coerce(vec_dot(x[:n], x[n:]))


def omega_std(n=2):
    # f1 ^ f2 as a multivector
    return mv(n, ((1, 2), 1))


class TestCliffordAction:
    def test_contraction_example(self):
        # e1 . (f1 ^ f2) = f2
        phi = omega_std()
        out = clifford_act([1, 0, 0, 0], phi)
        assert out == mv(2, ((2,), 1))

    def test_wedge_example(self):
        # f1 . f2 = f1 ^ f2
        out = clifford_act([0, 0, 1, 0], mv(2, ((2,), 1)))
        assert out == omega_std()

    def test_square_is_evaluation_scalar(self):
        # x.x.phi = f(v) phi; the quadratic form is the negative of this
        rng = Random(1)
        for _ in range(20):
            x = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(6)]
            phi = _random_multivector(rng, 3)
            twice = clifford_act(x, clifford_act(x, phi))
            assert twice == phi.scale(clifford_square_scalar(x))


class TestAnnihilator:
    def test_scalar_is_killed_by_vectors(self):
        phi = Multivector.scalar(2, 1)
        assert annihilator_subspace(phi) == vector_summand(2)

    def test_top_form_is_killed_by_covectors(self):
        assert annihilator_subspace(Multivector.top(2)) == covector_summand(2)

    def test_exponential_gives_graph(self):
        phi = omega_std().scale(I).exp()
        expected = Subspace.from_spanning(QI, 4, [[1, 0, 0, -I], [0, 1, I, 0]])
        assert annihilator_subspace(phi) == expected

    def test_annihilator_is_isotropic(self):
        rng = Random(2)
        from gclin.core import pairing

        for _ in range(10):
            phi = _random_multivector(rng, 3)
            if phi.is_zero():
                continue
            rows = annihilator_subspace(phi).basis.data
            assert all(not pairing(x, y) for x in rows for y in rows)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^zero spinor has no annihilator subspace$"):
            annihilator_subspace(Multivector.zero(2))

    def test_zero_dimensional_space_gives_the_zero_subspace(self):
        assert annihilator_subspace(Multivector.scalar(0, 3)) == Subspace.zero(QI, 0)

    def test_rows_past_the_lowest_degree_join_when_they_fall_outside(self, monkeypatch):
        # 1 + f1^f2^f3^f4 on R^5 is a sum of two pure spinors and not pure:
        # the n lowest-degree rows (wedges of 1) leave all of V_C in their
        # kernel, and only the contractions of the 4-form cut it to e_5
        n = 5
        phi = Multivector.scalar(n, 1) + Multivector(n, {0b01111: 1})
        found = []
        first_outside = Subspace.first_outside

        def recording(span, rows):
            found.append(first_outside(span, rows))
            return found[-1]

        monkeypatch.setattr(Subspace, "first_outside", recording)
        ann = annihilator_subspace(phi)
        assert ann == Subspace.coordinate(QI, 2 * n, [4]) == oracle_annihilator(phi)
        assert len(found) == 5 and found[-1] is None and None not in found[:-1]
        assert not is_pure(phi)


class TestPurity:
    def test_exponential_pure(self):
        assert is_pure(omega_std().scale(I).exp())

    def test_mixed_parity_not_pure(self):
        phi = Multivector.scalar(3, 1) + mv(3, ((1, 2, 3), 1))
        assert not is_pure(phi)

    def test_sum_of_covectors_pure(self):
        assert is_pure(mv(2, ((1,), 1), ((2,), 1)))

    def test_purity_iff_standard_form(self):
        rng = Random(3)
        for _ in range(15):
            phi = _random_multivector(rng, 3)
            if phi.is_zero():
                continue
            if is_pure(phi):
                sf = standard_form(phi)
                assert sf.expand() == phi
            else:
                with pytest.raises(ValueError):
                    standard_form(phi)


class TestSpinorFromSubspace:
    def test_vector_summand_gives_scalars(self):
        line = spinor_from_subspace(vector_summand(2))
        assert line.rep == Multivector.scalar(2, 1)

    def test_covector_summand_gives_top(self):
        line = spinor_from_subspace(covector_summand(2))
        assert line.rep == Multivector.top(2)

    def test_transform_of_symplectic(self):
        # transformed eigenspace corresponds to exp(-B + i omega)
        from gclin.core import symplectic_structure

        omega = TwoForm(Matrix(QQ, [[0, -1], [1, 0]]))
        b = TwoForm(Matrix(QQ, [[0, 3], [-3, 0]]))
        j = b_transform(symplectic_structure(omega), b)
        line = spinor_from_subspace(to_eigenspace(j).e)
        u = two_form_from_coeff(
            (-b.m.to_gaussian() + omega.m.to_gaussian().scale(I)).transpose()
        )
        assert proportional_to(line.rep, u.exp())

    def test_bijection_with_maximal_isotropics(self):
        rng = Random(4)
        for n in (2, 3):
            for _ in range(10):
                e = random_maximal_isotropic(rng, n)
                line = spinor_from_subspace(e)
                assert annihilator_subspace(line.rep) == e

    def test_non_isotropic_rejected(self):
        bad = Subspace.from_spanning(QI, 4, [[1, 0, 1, 0], [0, 1, 0, 0]])
        with pytest.raises(ValueError):
            spinor_from_subspace(bad)


class TestStandardForm:
    def test_exponential_case(self):
        phi = omega_std().scale(I).exp()
        sf = standard_form(phi)
        assert sf.c == QI.one
        assert sf.u == omega_std().scale(I)
        assert sf.k == 0

    def test_decomposable_case(self):
        phi = mv(2, ((1, 2), 1))
        sf = standard_form(phi)
        assert sf.c == QI.one
        assert sf.u.is_zero()
        assert sf.k == 2

    def test_round_trip_on_lines(self):
        rng = Random(5)
        for n in (2, 4):
            for _ in range(8):
                j = random_gcs(rng, n)
                line = spinor_from_subspace(to_eigenspace(j).e)
                sf = standard_form(line.rep)
                assert sf.expand() == line.rep

    def test_subspace_from_standard_form_examples(self):
        n = 2
        empty = StandardForm(QI.one, Multivector.zero(n), ())
        assert subspace_from_standard_form(empty) == vector_summand(n)
        sf = StandardForm(QI.one, omega_std().scale(I), ())
        assert subspace_from_standard_form(sf) == annihilator_subspace(sf.expand())

    def test_subspace_from_standard_form_oracle_agreement(self):
        rng = Random(6)
        for trial in range(100):
            n = rng.choice((2, 3, 4))
            e = random_maximal_isotropic(rng, n)
            line = spinor_from_subspace(e)
            sf = standard_form(line.rep)
            assert subspace_from_standard_form(sf) == annihilator_subspace(line.rep)


class TestMukai:
    def test_symplectic_value(self):
        phi = omega_std().scale(I).exp()
        assert mukai_pairing(phi, phi.conjugate()) == GaussianRational(0, -2)

    def test_vanishes_when_conjugate_meets(self):
        phi = mv(2, ((1,), 1))  # real covector: annihilator meets its conjugate
        assert mukai_pairing(phi, phi.conjugate()) == QI.zero

    def test_nonzero_for_structures(self):
        rng = Random(7)
        for n in (2, 4):
            for _ in range(6):
                j = random_gcs(rng, n)
                phi = spinor_from_subspace(to_eigenspace(j).e).rep
                assert mukai_pairing(phi, phi.conjugate())

    def test_vanishing_matches_conjugate_intersection(self):
        rng = Random(8)
        for _ in range(40):
            n = rng.choice((2, 3))
            e = random_maximal_isotropic(rng, n)
            phi = spinor_from_subspace(e).rep
            disjoint = e.intersect(e.conjugate()).is_zero()
            assert bool(mukai_pairing(phi, phi.conjugate())) == disjoint


class TestTransformAndTwistOnSpinors:
    def test_b_transform_multiplies_by_exponential(self):
        rng = Random(10)
        for n in (2, 4):
            for _ in range(6):
                j = random_gcs(rng, n)
                b = random_two_form(rng, n)
                e = to_eigenspace(j)
                phi = spinor_from_subspace(e.e).rep
                moved = b_transform_eigenspace(e, b)
                exp_part = two_form_from_coeff((-b.m).transpose().to_gaussian()).exp()
                assert proportional_to(spinor_from_subspace(moved.e).rep, exp_part.wedge(phi))

    def test_twist_negates_exponent(self):
        rng = Random(11)
        for _ in range(8):
            j = random_gcs(rng, 4)
            sf = standard_form(spinor_from_subspace(to_eigenspace(j).e).rep)
            flipped = (-sf.u).exp()
            for f in sf.factors:
                flipped = flipped.wedge(f)
            expected = spinor_from_subspace(to_eigenspace(twist(j)).e).rep
            assert proportional_to(flipped, expected)


def _random_multivector(rng, n):
    terms = {}
    for mask in range(1 << n):
        if rng.random() < 0.3:
            terms[mask] = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
    return Multivector(n, terms)


# -- earlier routes of the spinor layer (solves, wedge powers, generic
# Clifford action, full wedge), kept as independent oracles --


def oracle_standard_data(e):
    """(u, factors) by one Q(i) solve per basis vector of rho(E) and a
    C(n-k, 2)-square system for u."""
    n = e.ambient_dim // 2
    rows = e.basis.data
    factor_rows = [row[n:] for row in e.intersect(covector_summand(n)).basis.data]
    proj = Subspace.from_spanning(QI, n, [row[:n] for row in rows])
    top = e.basis.transpose().block(0, n, 0, e.dim)
    combos = [top.solve(list(v)) for v in proj.basis.data]
    lifts = (Matrix(QI, combos, cols=e.dim) @ e.basis).data
    pivots = Subspace.from_spanning(QI, n, factor_rows).pivots
    free = [c for c in range(n) if c not in pivots]
    pairs = [(free[a], free[b]) for a in range(len(free)) for b in range(a + 1, len(free))]
    vecs = proj.basis.data
    eqs, rhs = [], []
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            va, vb = vecs[a], vecs[b]
            eqs.append([va[x] * vb[y] - va[y] * vb[x] for x, y in pairs])
            rhs.append(-vec_dot(lifts[a][n:], vb))
    terms = {}
    if pairs:
        sol = Matrix(QI, eqs, cols=len(pairs)).solve(rhs)
        terms = {(1 << x) | (1 << y): c for (x, y), c in zip(pairs, sol)}
    return Multivector(n, terms), tuple(Multivector.covector(n, row) for row in factor_rows)


def oracle_exp(u):
    """exp(u) by repeated dense wedge powers."""
    out = power = Multivector.scalar(u.n, 1)
    fact = 1
    for m in range(1, u.n // 2 + 1):
        power = power.wedge(u)
        fact *= m
        out = out + power.scale(GaussianRational(f"1/{fact}"))
    return out


def oracle_annihilator(phi):
    """Kernel of the matrix whose columns are clifford_act of unit vectors."""
    n = phi.n
    images = [clifford_act(unit, phi) for unit in Matrix.identity(QI, 2 * n).data]
    masks = sorted({m for img in images for m in img.terms})
    rows = [[img.terms.get(m, QI.zero) for img in images] for m in masks]
    return Matrix(QI, rows, cols=2 * n).kernel()


def oracle_mukai(alpha, beta):
    return alpha.reversal().wedge(beta).terms.get((1 << alpha.n) - 1, QI.zero)


def _gaussian(rng):
    return GaussianRational(
        f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}", f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"
    )


def _pure(rng, n):
    """A nonzero pure spinor: the spinor of a random maximally isotropic
    subspace, or c exp(u) ^ f_1 ^ ... ^ f_k for random c, u and k <= n
    covectors, built by wedge powers and wedges."""
    while True:
        if rng.random() < 0.5:
            phi = spinor_from_subspace(random_maximal_isotropic(rng, n)).rep
        else:
            u = Multivector(n, {
                (1 << i) | (1 << j): _gaussian(rng)
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
            })
            phi = oracle_exp(u)
            for _ in range(rng.randint(0, n)):
                coords = [_gaussian(rng) if rng.random() < 0.6 else 0 for _ in range(n)]
                phi = phi.wedge(Multivector.covector(n, coords))
        phi = phi.scale(_gaussian(rng))
        if phi:
            return phi


def _maximal_isotropic(rng, n):
    if rng.random() < 0.5:
        return random_maximal_isotropic(rng, n)
    return oracle_annihilator(_pure(rng, n))


even_sizes = st.sampled_from([2, 4, 6])
seeds = st.integers(min_value=0, max_value=10**6)


class TestStructureFromSpinor:
    @settings(max_examples=30, deadline=None)
    @given(even_sizes, seeds, st.integers(min_value=1, max_value=5))
    def test_spinor_of_a_structure_gives_it_back_with_e_kept(self, n, seed, scale):
        rng = Random(seed)
        j = random_gcs(rng, n)
        e = to_eigenspace(j)
        phi = spinor_from_subspace(e.e).rep
        for rep in (phi, phi.scale(GaussianRational(scale, -1))):
            back = structure_from_spinor(rep)
            assert back == j
            assert back._e.e == e.e

    @settings(max_examples=30, deadline=None)
    @given(even_sizes, seeds)
    def test_a_structure_exactly_when_e_misses_its_conjugate(self, n, seed):
        e = _maximal_isotropic(Random(seed), n)
        back = structure_from_spinor(spinor_from_subspace(e).rep)
        if e.intersect(e.conjugate()).is_zero():
            assert isinstance(back, GCAut) and back._e.e == e
        else:
            assert back == "conjugate-pairing"

    @pytest.mark.parametrize(
        "phi,label",
        [
            (Multivector.zero(2), "zero"),
            # 1 + f1^f2^f3^f4 is not exp(u) for any u
            (Multivector.scalar(4, 1) + Multivector(4, {0b1111: 1}), "purity"),
            # a pure covector on an odd-dimensional space
            (Multivector(1, {0b1: 1}), "purity"),
            # real spinors: E is real, so it is its own conjugate
            (Multivector(2, {0b1: 1}), "conjugate-pairing"),
            (Multivector.scalar(2, 1), "conjugate-pairing"),
        ],
        ids=["zero", "impure", "odd-n", "real-covector", "real-scalar"],
    )
    def test_violation_labels(self, phi, label):
        assert structure_from_spinor(phi) == label

    @pytest.mark.parametrize("pairing", [QI.zero, QI.one], ids=["pairs-to-zero", "pairs-to-one"])
    def test_a_pairing_that_disagrees_with_e_raises(self, monkeypatch, pairing):
        phi = spinor_from_subspace(to_eigenspace(random_gcs(Random(2), 4)).e).rep
        real = Multivector(2, {0b1: 1})
        monkeypatch.setattr(spinor, "mukai_pairing", lambda alpha, beta: pairing)
        with pytest.raises(AssertionError, match="^Mukai pairing disagrees with E meeting its conjugate$"):
            structure_from_spinor(phi if pairing == QI.zero else real)


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(even_sizes, seeds)
    def test_standard_data_matches_solve_route(self, n, seed):
        e = _maximal_isotropic(Random(seed), n)
        assert standard_data_for_subspace(e) == oracle_standard_data(e)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=7), seeds, st.floats(0.1, 1.0))
    def test_exp_matches_wedge_powers(self, n, seed, density):
        rng = Random(seed)
        terms = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    terms[(1 << i) | (1 << j)] = _gaussian(rng)
        u = Multivector(n, terms)
        assert u.exp() == oracle_exp(u)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), seeds, st.sampled_from(["pure", "sum of pure", "random"]))
    def test_annihilator_matches_clifford_route(self, n, seed, kind):
        rng = Random(seed)
        if kind == "random":
            phi = _random_multivector(rng, n)
        elif kind == "pure":
            phi = _pure(rng, n)
        else:
            phi = _pure(rng, n) + _pure(rng, n)
        assume(phi)
        assert annihilator_subspace(phi) == oracle_annihilator(phi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=6), seeds)
    def test_mukai_matches_full_wedge(self, n, seed):
        rng = Random(seed)
        alpha, beta = _random_multivector(rng, n), _random_multivector(rng, n)
        assert mukai_pairing(alpha, beta) == oracle_mukai(alpha, beta)
        assert mukai_pairing(alpha, alpha.conjugate()) == oracle_mukai(alpha, alpha.conjugate())

    @settings(max_examples=40, deadline=None)
    @given(even_sizes, seeds)
    def test_standard_form_of_an_expansion_is_itself(self, n, seed):
        rng = Random(seed)
        u, factors = standard_data_for_subspace(_maximal_isotropic(rng, n))
        c = _gaussian(rng)
        assume(c)
        sf = StandardForm(c, u, factors)
        assert standard_form(sf.expand()) == sf

    @settings(max_examples=60, deadline=None)
    @given(even_sizes, seeds, st.integers(min_value=1, max_value=2))
    def test_is_pure_agrees_with_annihilator_dimension(self, n, seed, summands):
        rng = Random(seed)
        phi = _pure(rng, n)
        if summands == 2:
            phi = phi + _pure(rng, n)
        assume(phi)
        assert is_pure(phi) == (oracle_annihilator(phi).dim == n)

    def test_sums_of_pure_spinors_give_both_verdicts(self):
        rng = Random(12)
        verdicts = set()
        for n in (2, 4, 6):
            for _ in range(6):
                phi = _pure(rng, n) + _pure(rng, n)
                if phi:
                    verdicts.add((is_pure(phi), oracle_annihilator(phi).dim == n))
        assert verdicts == {(True, True), (False, False)}


# Seconds annihilator_subspace may take on the pure spinor of a seeded
# structure at n = 12 with Fraction scalars.  Measured on 2 shared CPUs
# (Python 3.11.7): 0.32-0.35 s, six rows past the first n joining; the
# route that eliminates every row of the Clifford matrix took 2.46-2.54 s.
ANNIHILATOR_N12_BUDGET = 1.0


def test_annihilator_at_n12_meets_its_budget():
    e = to_eigenspace(random_gcs(Random(3), 12)).e
    phi = spinor_from_subspace(e).rep
    started = time.perf_counter()
    ann = annihilator_subspace(phi)
    elapsed = time.perf_counter() - started
    assert ann == e
    assert elapsed < ANNIHILATOR_N12_BUDGET, f"annihilator_subspace took {elapsed:.2f}s at n = 12"
