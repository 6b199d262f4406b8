import sys
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gclin import classification
from gclin.classification import (
    Decomposition,
    build_graphnotsub_example,
    build_notquot_example,
    build_subnotquot_example,
    build_symplectic_with_t,
    canonical_c,
    canonical_s,
    decompose,
    reassemble,
)
from gclin.core import (
    GCAut,
    TwoForm,
    complex_structure,
    direct_sum,
    dualize,
    symplectic_structure,
    to_eigenspace,
    twist,
    vector_summand,
)
from gclin.fields import QI, QQ, I
from gclin.linalg import Matrix, Subspace
from gclin.samples import (
    random_complex_matrix,
    random_gcs,
    random_subspace,
    random_symplectic_form,
    random_two_form,
)
from gclin.subspaces import InducedStructure, induce_on_quotient, induce_on_subspace
from gclin.transforms import b_transform, classify_type, recover
from helpers import contains_subspace, projection_matrix, real_form

ROT = Matrix(QQ, [[0, -1], [1, 0]])
OMEGA2 = TwoForm(Matrix(QQ, [[0, -1], [1, 0]]))


def seven_operations(w):
    """The operations that read a structure's eigenspace, W fixed for the
    two inductions."""
    return (
        decompose,
        canonical_s,
        canonical_c,
        classify_type,
        recover,
        lambda j: induce_on_subspace(j, w),
        lambda j: induce_on_quotient(j, w),
    )


def outcome(op, j):
    """op(j), or the type and message of the ValueError it raises."""
    try:
        return op(j)
    except ValueError as exc:
        return type(exc), str(exc)


def s_by_eigenspace(j):
    """S by the eigenspace route: S_C = rho(E) meet conj rho(E)."""
    rho_e = to_eigenspace(j).e.image(projection_matrix(j.n, "vector"))
    return real_form(rho_e.intersect(rho_e.conjugate()))


def c_by_eigenspace(j):
    """C by the eigenspace route: C_C = (E meet V_C) + conj."""
    n = j.n
    inside = to_eigenspace(j).e.intersect(vector_summand(n))
    c_c = inside.sum(inside.conjugate())
    return real_form(Subspace.from_spanning(QI, n, c_c.basis.block(0, c_c.dim, 0, n)))


# Seconds decompose may take on random_gcs(Random(3), 24), in process
DECOMPOSE_N24_BUDGET = 4

EVERY_EVEN_DIMENSION = {(n, d) for n in (2, 4, 6) for d in range(0, n + 1, 2)}


class TestBlockRoutes:
    """S = im J2 and C = ker J3, against the eigenspace routes."""

    def test_s_is_the_image_of_j2(self, typed_structures):
        dims = set()
        for j in typed_structures:
            im_j2 = Subspace.from_spanning(QQ, j.n, j.j2)
            assert im_j2 == s_by_eigenspace(j) == canonical_s(j)
            dims.add((j.n, im_j2.dim))
        assert dims == EVERY_EVEN_DIMENSION

    def test_c_is_the_kernel_of_j3(self, typed_structures):
        dims = set()
        for j in typed_structures:
            ker_j3 = j.j3.kernel()
            assert ker_j3 == c_by_eigenspace(j) == canonical_c(j)[0]
            dims.add((j.n, ker_j3.dim))
        assert dims == EVERY_EVEN_DIMENSION

    def test_e_meets_v_in_the_graph_of_j1_on_ker_j3(self, typed_structures):
        # E meet V_C = {x - i J1 x : x in ker J3}
        for j in typed_structures:
            n = j.n
            lifts = [
                [x - I * y for x, y in zip(row, j.j1.apply(row))] + [0] * n
                for row in j.j3.kernel().basis.data
            ]
            inside = to_eigenspace(j).e.intersect(vector_summand(n))
            assert Subspace.from_spanning(QI, 2 * n, lifts) == inside

    def test_intersections_only_inside_the_induced_structures(self, typed_structures, monkeypatch):
        # canonical_s and canonical_c meet E only with the window of
        # induce_on_subspace / induce_on_quotient (subspaces._cut), and
        # Subspace.intersect of two nonzero subspaces runs Subspace.orthogonal_to
        callers = []
        meet = Subspace.orthogonal_to

        def recording(self, null):
            callers.append(sys._getframe(1).f_code.co_name)
            return meet(self, null)

        monkeypatch.setattr(Subspace, "orthogonal_to", recording)
        for j in typed_structures[::5]:
            canonical_s(j)
            canonical_c(j)
        assert callers and set(callers) == {"_cut"}


class TestCanonicalS:
    def test_symplectic_gives_everything(self):
        assert canonical_s(symplectic_structure(OMEGA2)) == Subspace.full(QQ, 2)

    def test_complex_gives_nothing(self):
        assert canonical_s(complex_structure(ROT)) == Subspace.zero(QQ, 2)

    def test_sum_gives_symplectic_summand(self):
        rng = Random(1)
        j = direct_sum(
            symplectic_structure(random_symplectic_form(rng, 2)),
            complex_structure(random_complex_matrix(rng, 2)),
        )
        assert canonical_s(j) == Subspace.from_spanning(
            QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]
        )

    def test_invariant_under_field_transforms(self):
        rng = Random(2)
        for _ in range(8):
            j = random_gcs(rng, 4)
            s = canonical_s(j)
            for _ in range(4):
                assert canonical_s(b_transform(j, random_two_form(rng, 4))) == s

    def test_maximality_probes(self):
        # every sampled subspace carrying a transformed-symplectic induced
        # structure sits inside the canonical one
        rng = Random(3)
        for _ in range(6):
            j = random_gcs(rng, 4)
            s = canonical_s(j)
            for _ in range(15):
                w = random_subspace(rng, 4)
                ind = induce_on_subspace(j, w)
                if ind.is_gc and classify_type(ind.jw).is_b_symplectic:
                    assert contains_subspace(s, w)


class TestCanonicalC:
    def test_complex_gives_everything(self):
        c, jc = canonical_c(complex_structure(ROT))
        assert c == Subspace.full(QQ, 2)
        assert jc == ROT

    def test_symplectic_gives_nothing(self):
        c, jc = canonical_c(symplectic_structure(OMEGA2))
        assert c.is_zero()

    def test_restricted_block_squares_to_minus_one(self):
        rng = Random(4)
        for _ in range(8):
            j = random_gcs(rng, 4)
            c, jc = canonical_c(j)
            if c.dim:
                assert jc @ jc == -Matrix.identity(QQ, c.dim)

    def test_duality_with_canonical_s(self):
        # the complex part corresponds to the annihilator of the dual
        # structure's symplectic part
        rng = Random(5)
        for _ in range(8):
            j = random_gcs(rng, 4)
            c, _ = canonical_c(j)
            s_dual = canonical_s(dualize(j))
            assert c.annihilator() == s_dual

    def test_invariant_under_bivector_transforms(self):
        from gclin.samples import random_bivector
        from gclin.transforms import beta_transform

        rng = Random(6)
        for _ in range(6):
            j = random_gcs(rng, 4)
            c, _ = canonical_c(j)
            for _ in range(3):
                moved = beta_transform(j, random_bivector(rng, 4))
                assert canonical_c(moved)[0] == c


class TestDecompose:
    def test_pure_symplectic(self):
        d = decompose(symplectic_structure(OMEGA2))
        assert d.s == Subspace.full(QQ, 2)
        assert d.w.is_zero()
        assert d.b.m.is_zero()
        assert d.omega.m == OMEGA2.m

    def test_pure_complex(self):
        d = decompose(complex_structure(ROT))
        assert d.s.is_zero()
        assert d.w == Subspace.full(QQ, 2)
        assert reassemble(d) == complex_structure(ROT)

    def test_round_trips(self):
        rng = Random(7)
        for n in (2, 4, 6):
            for _ in range(5):
                j = random_gcs(rng, n)
                d = decompose(j)
                assert reassemble(d) == j
                assert d.s.dim + d.w.dim == n
                assert d.omega.m.is_invertible()
                assert d.s.dim % 2 == 0 and d.w.dim % 2 == 0

    def test_symplectic_form_is_inverted_only_by_the_reassembly(self, monkeypatch):
        # S's induced structure is checked against omega_s by its blocks,
        # and decompose's closing round trip reuses it, so decompose builds
        # no symplectic_structure; a decomposition built by hand holds
        # nothing, and its reassembly builds the structure exactly once
        built = []
        build = classification.symplectic_structure

        def counting(omega):
            built.append(omega)
            return build(omega)

        monkeypatch.setattr(classification, "symplectic_structure", counting)
        j = random_gcs(Random(3), 4)
        d = decompose(j)
        assert built == []
        by_hand = Decomposition(d.s, d.omega, d.w, d.jw, d.b)
        assert reassemble(by_hand) == j
        assert built == [d.omega]

    def test_kept_and_built_reassembly_agree(self):
        rng = Random(11)
        for n in (2, 4, 6):
            for _ in range(4):
                j = random_gcs(rng, n)
                d = decompose(j)
                by_hand = Decomposition(d.s, d.omega, d.w, d.jw, d.b)
                assert d._held is not None and by_hand._held is None
                assert reassemble(d) == reassemble(by_hand) == j

    def test_the_held_slot_is_no_field(self):
        # equality, hash and repr read the fields alone, as the CLI's
        # encoding does
        d = decompose(random_gcs(Random(5), 4))
        by_hand = Decomposition(d.s, d.omega, d.w, d.jw, d.b)
        assert d == by_hand and hash(d) == hash(by_hand)
        assert repr(d) == repr(by_hand) and "_held" not in repr(d)
        assert Decomposition._fields == ("s", "omega", "w", "jw", "b")
        with pytest.raises(AttributeError):
            d._held = None

    @pytest.mark.parametrize("which", [0, 2], ids=["j_s", "p_inv"])
    def test_a_corrupted_held_part_fails_the_closing_check(self, monkeypatch, which):
        # decompose's reassembly check reads what it holds, so a wrong
        # symplectic part or p^-1 there is caught, not trusted
        keep = classification._set

        def corrupting(obj, name, value):
            held = list(value)
            held[which] = twist(held[0]) if which == 0 else held[2].scale(2)
            keep(obj, name, tuple(held))

        monkeypatch.setattr(classification, "_set", corrupting)
        with pytest.raises(AssertionError, match="decomposition failed to reassemble the input"):
            decompose(random_gcs(Random(3), 4))

    @pytest.mark.parametrize(
        "fault,message",
        [
            (lambda j: GCAut(j.j1, j.j2.scale(2), j.j3, j.j4), "induced J2 does not invert the real 2-form"),
            (lambda j: GCAut(j.j1 + Matrix.identity(QQ, j.n), j.j2, j.j3, j.j4), "induced structure on the symplectic"),
        ],
        ids=["j2", "j1"],
    )
    def test_each_block_check_of_s_is_reached(self, monkeypatch, fault, message):
        canonical = classification._canonical_s

        def faulty(j):
            s, ind = canonical(j)
            return s, InducedStructure(ind.ew, ind.is_gc, fault(ind.jw), ind.witness)

        monkeypatch.setattr(classification, "_canonical_s", faulty)
        with pytest.raises(AssertionError, match=message):
            decompose(symplectic_structure(OMEGA2))

    def test_already_split_input_keeps_symplectic_part(self):
        rng = Random(8)
        for _ in range(5):
            sym = symplectic_structure(random_symplectic_form(rng, 2))
            cpx = complex_structure(random_complex_matrix(rng, 2))
            j = b_transform(direct_sum(sym, cpx), random_two_form(rng, 4))
            d = decompose(j)
            assert d.s == Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
            assert reassemble(d) == j

    def test_fixture_is_all_symplectic(self):
        structure, _, _, _ = build_subnotquot_example()
        d = decompose(structure)
        assert d.s == Subspace.full(QQ, 4)
        assert d.w.is_zero()


class TestFixtures:
    def test_notquot_kernel_facts(self):
        structure, omega, t = build_notquot_example()
        one_plus = Matrix.identity(QQ, 8) + t @ t
        ker = one_plus.kernel()
        image = Subspace.from_spanning(QQ, 8, one_plus.transpose().data)
        assert ker.dim == 4
        assert not ker.intersect(image).is_zero()
        # kernel and image are orthogonal for the symplectic form
        for x in ker.basis.data:
            for y in image.basis.data:
                assert omega.value(x, y) == 0
        assert not omega.restrict(ker.basis.data).m.is_invertible()
        c, _ = canonical_c(structure)
        assert c == ker
        assert not induce_on_subspace(structure, c).is_gc
        quot = induce_on_quotient(structure, c)
        assert quot.is_gc and classify_type(quot.jw).is_beta_symplectic

    def test_graphnotsub_consistency(self):
        structure, w, k = build_graphnotsub_example()
        assert classify_type(structure).is_b_symplectic
        assert classify_type(k).is_complex

    def test_symplectic_with_t_builder(self):
        rng = Random(9)
        from gclin.samples import random_matrix, random_skew

        a = random_matrix(rng, 2, 2)
        structure, omega, t = build_symplectic_with_t(
            a, random_skew(rng, 2), random_skew(rng, 2)
        )
        from gclin.transforms import satisfies_star

        assert satisfies_star(omega, t)
        assert classify_type(structure).is_b_symplectic


class TestEvenDimensions:
    def test_parts_have_even_dimension(self):
        rng = Random(10)
        for _ in range(6):
            j = random_gcs(rng, 4)
            assert canonical_s(j).dim % 2 == 0
            assert canonical_c(j)[0].dim % 2 == 0


class TestEigenspaceOncePerCall:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(min_value=0, max_value=10**6))
    def test_decompose_reassembles(self, n, seed):
        j = random_gcs(Random(seed), n)
        assert reassemble(decompose(j)) == j

    def test_decompose_computes_one_eigenspace(self, kernel_eigenspaces):
        rng = Random(11)
        for _ in range(4):
            j = random_gcs(rng, 4)
            del kernel_eigenspaces[:]
            decompose(j)
            # the input's; its B-moved copy takes E through the transform
            # (2 when that copy's E was solved again)
            assert kernel_eigenspaces == [j]

    def test_decompose_solves_one_eigenspace_of_the_full_width(self, eliminations):
        # the row space of J^T + i, 2n x 2n, is the only elimination of that
        # shape: e^B J takes E through the transform by back-substitution
        # (2 when E of e^B J was solved again)
        rng = Random(13)
        for j in (
            random_gcs(rng, 4),
            symplectic_structure(random_symplectic_form(rng, 4)),
            complex_structure(random_complex_matrix(rng, 4)),
            direct_sum(symplectic_structure(random_symplectic_form(rng, 2)), complex_structure(ROT)),
        ):
            eliminations.clear()
            decompose(j)
            assert eliminations[0] == (8, 8) and eliminations.count((8, 8)) == 1

    def test_decompose_at_n24_meets_its_budget(self):
        # measured at 1.6-2.5 s in process on 2 shared CPUs, where solving E
        # of e^B J again took the call to 4.8-7.7 s
        j = random_gcs(Random(3), 24)
        started = time.perf_counter()
        d = decompose(j)
        elapsed = time.perf_counter() - started
        assert d.s.dim + d.w.dim == 24
        assert elapsed < DECOMPOSE_N24_BUDGET, f"decompose at n = 24 took {elapsed:.1f}s"

    def test_one_solve_serves_every_operation(self, kernel_eigenspaces):
        # the first operation solves E and j keeps it; the other six and
        # to_eigenspace read the kept E (seven solves when each operation
        # solved its own)
        rng = Random(12)
        for _ in range(4):
            j = random_gcs(rng, 4)
            del kernel_eigenspaces[:]
            for op in seven_operations(random_subspace(rng, 4)):
                try:
                    op(j)
                except ValueError:
                    assert op is recover  # a structure of mixed type
            assert to_eigenspace(j) is j._e
            assert len(kernel_eigenspaces) == 1 and kernel_eigenspaces[0] is j

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([2, 4]),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
        st.permutations(range(7)),
    )
    def test_a_kept_eigenspace_answers_as_a_fresh_structure(self, n, seed, with_beta, order):
        rng = Random(seed)
        j = random_gcs(rng, n, with_beta)
        ops = seven_operations(random_subspace(rng, n))
        for k in order:
            mine, fresh = outcome(ops[k], j), outcome(ops[k], GCAut(*j.blocks()))
            assert mine == fresh
            assert j._e is not None
        assert j._e == to_eigenspace(GCAut(*j.blocks()))
