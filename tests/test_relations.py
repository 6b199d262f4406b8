from random import Random

import pytest
from hypothesis import given, seed, settings, strategies as st

from gclin import relations, subspaces
from gclin.core import (
    GCAut,
    TwoForm,
    complex_structure,
    conjugate_by_basis,
    symplectic_structure,
    twist,
    twisted_product,
)
from gclin.fields import QI, QQ, GaussianRational
from gclin.linalg import Matrix, Subspace
from gclin.relations import (
    LinearRelation,
    _conjugates,
    annihilator_composition_identity,
    closure_check,
    compose,
    compose_subspaces,
    graph_iso_test,
    identity_relation,
    is_canonical,
    is_coisotropic_relation,
    is_isotropic_relation,
    map_relation,
)
from gclin.samples import (
    random_bivector,
    random_complex_matrix,
    random_gcs,
    random_invertible,
    random_relation_chain,
    random_subspace,
    random_symplectic_form,
    random_two_form,
)
from gclin.serialize import encode_relation
from gclin.subspaces import is_generalized_coisotropic, is_generalized_isotropic
from gclin.transforms import b_transform, beta_transform
from helpers import oracle_compose

OMEGA2 = TwoForm(Matrix(QQ, [[0, -1], [1, 0]]))
ROT = Matrix(QQ, [[0, -1], [1, 0]])


class TestComposition:
    def test_identity_is_a_unit(self):
        rng = Random(1)
        a = random_gcs(rng, 4)
        rel, b = _iso_relation(rng, a)
        assert compose(rel, identity_relation(a)).graph == rel.graph
        assert compose(identity_relation(b), rel).graph == rel.graph

    def test_graphs_compose_like_maps(self):
        rng = Random(2)
        a = random_gcs(rng, 2)
        f = random_invertible(rng, 2)
        g = random_invertible(rng, 2)
        b = conjugate_by_basis(a, f)
        c = conjugate_by_basis(b, g)
        rf = map_relation(f, a, b)
        rg = map_relation(g, b, c)
        assert compose(rg, rf).graph == map_relation(g @ f, a, c).graph

    def test_associativity_random_chains(self):
        rng = Random(3)
        for _ in range(6):
            r1, r2, r3 = random_relation_chain(rng, 4, 3)
            left = compose(compose(r3, r2), r1)
            right = compose(r3, compose(r2, r1))
            assert left.graph == right.graph

    def test_associativity_on_non_graph_relations(self):
        rng = Random(4)
        structures = [random_gcs(rng, 2) for _ in range(4)]
        for _ in range(10):
            rels = [
                LinearRelation(
                    structures[i], structures[i + 1], random_subspace(rng, 4)
                )
                for i in range(3)
            ]
            left = compose(compose(rels[2], rels[1]), rels[0])
            right = compose(rels[2], compose(rels[1], rels[0]))
            assert left.graph == right.graph

    def test_space_mismatch_rejected(self):
        rng = Random(5)
        a, b = random_gcs(rng, 2), random_gcs(rng, 4)
        rel_a = identity_relation(a)
        rel_b = identity_relation(b)
        with pytest.raises(ValueError):
            compose(rel_b, rel_a)


class TestCanonicity:
    def test_diagonal_same_structure_is_canonical(self):
        rng = Random(6)
        for _ in range(5):
            a = random_gcs(rng, 4)
            assert is_canonical(identity_relation(a))

    def test_diagonal_mismatched_structure_is_not(self):
        # endpoints differing only in the (1,2) block keep the diagonal
        # generalized isotropic but never Lagrangian
        rng = Random(7)
        for _ in range(5):
            a = beta_transform(
                complex_structure(random_complex_matrix(rng, 4)),
                random_bivector(rng, 4),
            )
            beta = random_bivector(rng, 4)
            b = beta_transform(a, beta)
            if a == b:
                continue
            rel = map_relation(Matrix.identity(QQ, 4), a, b)
            assert is_isotropic_relation(rel)
            assert not is_canonical(rel)

    def test_symplectic_case_matches_classical_lagrangians(self):
        rng = Random(8)
        w1 = random_symplectic_form(rng, 2)
        w2 = random_symplectic_form(rng, 2)
        a, b = symplectic_structure(w1), symplectic_structure(w2)
        tp_form = TwoForm(
            Matrix.from_blocks(
                QQ,
                [
                    [-w1.m, Matrix.zero(QQ, 2, 2)],
                    [Matrix.zero(QQ, 2, 2), w2.m],
                ],
            )
        )
        for _ in range(20):
            graph = random_subspace(rng, 4, 2)
            rel = LinearRelation(a, b, graph)
            vanishes = all(
                tp_form.value(x, y) == 0
                for x in graph.basis.data
                for y in graph.basis.data
            )
            # half-dimensional and isotropic for -w1 + w2 means Lagrangian
            assert is_canonical(rel) == vanishes

    def test_zero_relation(self):
        rng = Random(9)
        for _ in range(6):
            a, b = random_gcs(rng, 2), random_gcs(rng, 2)
            rel = LinearRelation(a, b, Subspace.zero(QQ, 4))
            assert is_isotropic_relation(rel)
            tp = twisted_product(a, b)
            assert is_coisotropic_relation(rel) == tp.j2.is_zero()


class TestClosure:
    def test_canonical_closed_under_composition(self):
        rng = Random(10)
        for _ in range(8):
            r1, r2 = random_relation_chain(rng, 4, 2)
            for cls in ("isotropic", "coisotropic", "lagrangian"):
                assert closure_check(r2, r1, cls)

    def test_a_composite_outside_the_class_raises(self, monkeypatch):
        rng = Random(39)
        r1, r2 = random_relation_chain(rng, 2, 2)
        spans = (LinearRelation(r1.source, r2.target, random_subspace(rng, 4)) for _ in range(40))
        outside = next(r for r in spans if not r.isotropic)
        monkeypatch.setattr(relations, "compose", lambda phi, gamma: outside)
        for cls in ("isotropic", "lagrangian"):
            with pytest.raises(AssertionError, match=f"composition left the {cls} class"):
                closure_check(r2, r1, cls)

    def test_isotropic_only_inputs(self):
        # compositions of mismatched-endpoint identity graphs stay isotropic
        # without becoming Lagrangian
        rng = Random(11)
        for _ in range(5):
            a = beta_transform(
                complex_structure(random_complex_matrix(rng, 4)),
                random_bivector(rng, 4),
            )
            b = beta_transform(a, random_bivector(rng, 4))
            c = beta_transform(b, random_bivector(rng, 4))
            r1 = map_relation(Matrix.identity(QQ, 4), a, b)
            r2 = map_relation(Matrix.identity(QQ, 4), b, c)
            if not is_isotropic_relation(r1) or not is_isotropic_relation(r2):
                continue
            assert closure_check(r2, r1, "isotropic")

    def test_annihilator_composition_identity(self):
        rng = Random(12)
        for _ in range(8):
            r1, r2 = random_relation_chain(rng, 4, 2)
            assert annihilator_composition_identity(r2, r1)
        # also on arbitrary (non-canonical) relations: the identity is
        # a statement about plain subspaces
        structures = [random_gcs(rng, 2) for _ in range(3)]
        for _ in range(10):
            r1 = LinearRelation(structures[0], structures[1], random_subspace(rng, 4))
            r2 = LinearRelation(structures[1], structures[2], random_subspace(rng, 4))
            assert annihilator_composition_identity(r2, r1)


class TestGraphIso:
    def test_identity_on_same_structure(self):
        rng = Random(13)
        a = random_gcs(rng, 4)
        assert graph_iso_test(Matrix.identity(QQ, 4), a, a)

    def test_mismatch_negative_still_isotropic(self):
        rng = Random(14)
        for _ in range(5):
            a = beta_transform(
                complex_structure(random_complex_matrix(rng, 4)),
                random_bivector(rng, 4),
            )
            b = beta_transform(a, random_bivector(rng, 4))
            if a == b:
                continue
            assert not graph_iso_test(Matrix.identity(QQ, 4), a, b)
            rel = map_relation(Matrix.identity(QQ, 4), a, b)
            assert is_isotropic_relation(rel)

    def test_symplectomorphism_positive(self):
        rng = Random(15)
        for _ in range(5):
            w1 = random_symplectic_form(rng, 4)
            mu = random_invertible(rng, 4)
            # push the form forward so mu is a symplectomorphism by design
            mu_inv = mu.inverse()
            w2 = TwoForm(mu_inv.transpose() @ w1.m @ mu_inv)
            a, b = symplectic_structure(w1), symplectic_structure(w2)
            assert graph_iso_test(mu, a, b)

    def test_random_conjugation_positive(self):
        rng = Random(16)
        for _ in range(6):
            a = random_gcs(rng, 4)
            mu = random_invertible(rng, 4)
            assert graph_iso_test(mu, a, conjugate_by_basis(a, mu))

    def test_singular_map_rejected(self):
        rng = Random(17)
        a = random_gcs(rng, 2)
        with pytest.raises(ValueError):
            graph_iso_test(Matrix.zero(QQ, 2, 2), a, a)


class TestConjugationIdentities:
    def test_perturbed_targets_agree_with_conjugate_by_basis(self):
        # b off in one entry of each block in turn (not a structure as a
        # rule), and valid structures that differ from b in some blocks:
        # the four block identities decide what conjugate_by_basis does
        rng = Random(35)
        verdicts = set()
        for n in (2, 4):
            for _ in range(3):
                a = random_gcs(rng, n)
                mu = random_invertible(rng, n)
                b = conjugate_by_basis(a, mu)
                targets = [b, twist(b), b_transform(b, random_two_form(rng, n))]
                targets += [beta_transform(b, random_bivector(rng, n))]
                targets += [conjugate_by_basis(a, random_invertible(rng, n))]
                for k in range(4):
                    blocks = list(b.blocks())
                    r, c = rng.randrange(n), rng.randrange(n)
                    blocks[k] = blocks[k] + Matrix.from_entries(QQ, n, n, {(r, c): rng.choice([-1, 1])})
                    targets.append(GCAut(*blocks))
                for target in targets:
                    verdict = _conjugates(mu, a, target)
                    assert verdict == (conjugate_by_basis(a, mu) == target)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_class_tests_form_no_product_and_one_twisted_product(self, monkeypatch):
        # 8 Matrix.mul_t products and 3 twisted products when each class
        # test rebuilt the twisted product and formed gens X^T
        products, twisted = [], []
        mul_t = Matrix.mul_t

        def counting_mul_t(self, other):
            products.append((self.rows, other.rows))
            return mul_t(self, other)

        def counting_twisted(x, y):
            twisted.append((x.n, y.n))
            return twisted_product(x, y)

        escapes = []
        first_escape = subspaces._first_escape

        def counting_escape(*args):
            escapes.append(args[2:])
            return first_escape(*args)

        rng = Random(36)
        a = random_gcs(rng, 4)
        rel, _ = _iso_relation(rng, a)
        monkeypatch.setattr(Matrix, "mul_t", counting_mul_t)
        monkeypatch.setattr(relations, "twisted_product", counting_twisted)
        monkeypatch.setattr(subspaces, "_first_escape", counting_escape)
        assert is_isotropic_relation(rel) and is_coisotropic_relation(rel) and is_canonical(rel)
        assert products == []
        assert twisted == [(4, 4)]
        # 4 escape tests when each class test ran its own: the two verdicts
        # are kept, and asking again runs none
        assert escapes == [(), (True,)]
        assert is_canonical(rel) and is_isotropic_relation(rel) and is_coisotropic_relation(rel)
        assert len(escapes) == 2 and twisted == [(4, 4)]
        # graph_iso_test decides a fresh map relation on every call
        assert graph_iso_test(Matrix.identity(QQ, 4), a, a) and graph_iso_test(Matrix.identity(QQ, 4), a, a)
        assert len(escapes) == 6 and len(twisted) == 3
        # the kept product and verdicts are not fields
        same = LinearRelation(rel.source, rel.target, rel.graph)
        assert rel == same and hash(rel) == hash(same)

    def test_kept_state_leaves_equality_hash_repr_and_encoding_alone(self):
        rng = Random(37)
        for n in (2, 4):
            rel, _ = _iso_relation(rng, random_gcs(rng, n))
            fresh = LinearRelation(rel.source, rel.target, Subspace.from_spanning(QQ, 2 * n, rel.graph.basis))
            assert is_canonical(rel) and rel.graph.annihilator().dim == n
            assert rel == fresh and fresh == rel
            assert hash(rel) == hash(fresh)
            assert repr(rel) == repr(fresh)
            assert encode_relation(rel) == encode_relation(fresh)


def _iso_relation(rng, a):
    mu = random_invertible(rng, a.n)
    b = conjugate_by_basis(a, mu)
    return map_relation(mu, a, b), b


# -- theorem-level properties over seeded composable canonical pairs --------

seeds = st.integers(min_value=0, max_value=2**32 - 1)
SIZES = pytest.mark.parametrize("n", [2, 4])


def graph_pair(rng, n):
    """Graphs of isomorphisms a -> b -> c, with their maps mu1, mu2."""
    a = random_gcs(rng, n)
    mu1, mu2 = random_invertible(rng, n), random_invertible(rng, n)
    b = conjugate_by_basis(a, mu1)
    c = conjugate_by_basis(b, mu2)
    return map_relation(mu1, a, b), map_relation(mu2, b, c), mu1, mu2


def complex_subspace_pair(rng, n):
    """Relations a -> b -> c between complex structures, each the span of a
    few random vectors and their images under diag(J_source, J_target).

    Such a span is generalized Lagrangian for the twisted product (the
    twist fixes a complex structure), of any even dimension from 0 to
    2n, so most of these relations are not graphs.
    """
    a = complex_structure(random_complex_matrix(rng, n))
    b = conjugate_by_basis(a, random_invertible(rng, n))
    c = conjugate_by_basis(b, random_invertible(rng, n))

    def relation(x, y):
        rows = [[rng.randint(-2, 2) for _ in range(2 * n)] for _ in range(rng.randint(0, n))]
        vecs = Matrix(QQ, rows, cols=2 * n)
        moved = vecs.mul_t(Matrix.block_diagonal(QQ, [x.j1, y.j1]))
        span = Subspace.from_spanning(QQ, 2 * n, vecs).sum(Subspace.from_spanning(QQ, 2 * n, moved))
        return LinearRelation(x, y, span)

    return relation(a, b), relation(b, c)


def varied_relation(rng, a):
    """The graph of a random invertible map from a to a conjugate of a, to
    that conjugate's twist or to an unrelated structure; a quarter of the
    graphs are widened as the relations benchmark widens them (spanned
    again with the zero subspace), a quarter by a random vector, and a
    quarter cut by a random hyperplane."""
    n = a.n
    mu = random_invertible(rng, n)
    b = conjugate_by_basis(a, mu)
    target = rng.choice([b, twist(b), random_gcs(rng, n)])
    graph = Subspace.graph(mu)
    change = rng.randrange(4)
    if change == 1:
        graph = graph.sum(Subspace.zero(QQ, 2 * n))
    elif change == 2:
        graph = graph.sum(random_subspace(rng, 2 * n, 1))
    elif change == 3:
        graph = graph.intersect(random_subspace(rng, 2 * n, 2 * n - 1))
    return LinearRelation(a, target, graph)


def assert_kept_verdicts_hold(rel):
    """The kept verdicts against the class tests of a fresh twisted product
    on a copy of the graph that holds no kept null rows."""
    tp = twisted_product(rel.source, rel.target)
    copy = Subspace.from_spanning(QQ, rel.graph.ambient_dim, rel.graph.basis)
    assert is_canonical(rel) == (rel.isotropic and rel.coisotropic)
    assert is_isotropic_relation(rel) == rel.isotropic == is_generalized_isotropic(tp, copy)
    assert is_coisotropic_relation(rel) == rel.coisotropic == is_generalized_coisotropic(tp, copy)


class TestTheorems:
    @SIZES
    @settings(max_examples=12, deadline=None)
    @given(seed_value=seeds)
    def test_kept_verdicts_equal_the_class_tests(self, n, seed_value):
        rng = Random(seed_value)
        gamma = varied_relation(rng, random_gcs(rng, n))
        phi = varied_relation(rng, gamma.target)
        composed = compose(phi, gamma)
        for rel in (gamma, phi, composed):
            assert_kept_verdicts_hold(rel)
        expected = {"isotropic": composed.isotropic, "coisotropic": composed.coisotropic}
        expected["lagrangian"] = is_canonical(composed)
        for cls, verdict in expected.items():
            # raises when both inputs are in the class and the composite is not
            assert closure_check(phi, gamma, cls) == verdict

    def test_varied_relations_reach_every_verdict(self):
        rng = Random(38)
        verdicts = set()
        for n in (2, 4):
            for _ in range(12):
                rel = varied_relation(rng, random_gcs(rng, n))
                assert_kept_verdicts_hold(rel)
                verdicts.add((rel.isotropic, rel.coisotropic))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}, verdicts

    @SIZES
    @settings(max_examples=12, deadline=None)
    @given(seed_value=seeds)
    def test_composite_of_canonical_graphs_is_the_canonical_graph(self, n, seed_value):
        gamma, phi, mu1, mu2 = graph_pair(Random(seed_value), n)
        assert is_canonical(gamma) and is_canonical(phi)
        composed = compose(phi, gamma)
        assert is_canonical(composed)
        assert composed.graph == Subspace.graph(mu2 @ mu1)
        assert conjugate_by_basis(gamma.source, mu2 @ mu1) == phi.target

    @SIZES
    @settings(max_examples=12, deadline=None)
    @given(seed_value=seeds)
    def test_composite_of_canonical_non_graphs_is_canonical(self, n, seed_value):
        gamma, phi = complex_subspace_pair(Random(seed_value), n)
        assert is_canonical(gamma) and is_canonical(phi)
        assert is_canonical(compose(phi, gamma))

    @SIZES
    @settings(max_examples=12, deadline=None)
    @given(seed_value=seeds)
    def test_annihilator_composition_identity_holds(self, n, seed_value):
        rng = Random(seed_value)
        gamma, phi, _, _ = graph_pair(rng, n)
        assert annihilator_composition_identity(phi, gamma)
        gamma, phi = complex_subspace_pair(rng, n)
        assert annihilator_composition_identity(phi, gamma)

    @SIZES
    @settings(max_examples=12, deadline=None)
    @given(seed_value=seeds)
    def test_sign_flip_of_an_annihilator_equals_its_image(self, n, seed_value):
        # the identity negates the middle coordinates of Ann(phi) by
        # negate_first; the image under diag(-1, ..., -1, 1, ..., 1) re-eliminates
        rng = Random(seed_value)
        for gamma, phi in (graph_pair(rng, n)[:2], complex_subspace_pair(rng, n)):
            ann = phi.graph.annihilator()
            nw, nz = phi.source.n, phi.target.n
            signs = {(c, c): -1 if c < nw else 1 for c in range(nw + nz)}
            flipped = ann.negate_first(nw)
            assert flipped == ann.image(Matrix.from_entries(QQ, nw + nz, nw + nz, signs))
            assert flipped.pivots == ann.pivots

    @SIZES
    @settings(max_examples=12, deadline=None)
    @given(seed_value=seeds)
    def test_graph_iso_test_agrees_with_conjugation(self, n, seed_value):
        rng = Random(seed_value)
        gamma, _, mu1, _ = graph_pair(rng, n)
        a, b = gamma.source, gamma.target
        # twisting the target keeps a valid structure; it is the same one
        # exactly when b has no off-diagonal blocks
        for target in (b, twist(b)):
            assert graph_iso_test(mu1, a, target) == (conjugate_by_basis(a, mu1) == target)

    def test_graph_iso_test_gives_both_verdicts(self):
        rng = Random(31)
        verdicts = set()
        for n in (2, 4):
            for _ in range(4):
                gamma, _, mu1, _ = graph_pair(rng, n)
                a, b = gamma.source, gamma.target
                for target in (b, twist(b)):
                    verdict = graph_iso_test(mu1, a, target)
                    assert verdict == (conjugate_by_basis(a, mu1) == target)
                    verdicts.add(verdict)
        assert verdicts == {True, False}


# -- composition against the meet inside V + W + Z ---------------------------


def _relation_subspace(rng, field, n, dim, head=None, tail=None):
    """A subspace of F^n spanned by dim random rows. With head given, rows
    draw their first head entries from a random proper subspace of F^head;
    with tail given, the first row is zero on its first n - tail entries."""

    def entry():
        x = rng.randint(-3, 3)
        return x if field is QQ else GaussianRational(x, rng.randint(-2, 2))

    rows = [[entry() for _ in range(n)] for _ in range(dim)]
    if head:
        gens = [[entry() for _ in range(head)] for _ in range(rng.randint(0, head - 1))]
        for row in rows:
            coeffs = [entry() for _ in gens]
            row[:head] = [sum((c * g[i] for c, g in zip(coeffs, gens)), field.zero) for i in range(head)]
    if tail and rows:
        rows[0][: n - tail] = [field.zero] * (n - tail)
    return Subspace.from_spanning(field, n, rows)


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Qi"])
@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(
    dims=st.tuples(*[st.integers(min_value=0, max_value=4)] * 3),
    proper=st.booleans(),
    gamma_in_w=st.booleans(),
    seed_value=seeds,
)
def test_hyp_composition_equals_the_meet_in_v_w_z(field, dims, proper, gamma_in_w, seed_value):
    rng = Random(seed_value)
    nv, nw, nz = dims
    gamma_tail = nw if gamma_in_w else None
    gamma = _relation_subspace(rng, field, nv + nw, rng.randint(0, nv + nw + 1), tail=gamma_tail)
    phi_head = nw if proper else None
    phi = _relation_subspace(rng, field, nw + nz, rng.randint(0, nw + nz + 1), head=phi_head)
    if proper and nw:
        assert phi.project_first(nw).dim < nw
    composed = compose_subspaces(phi, gamma, nv, nw, nz)
    expected = oracle_compose(phi, gamma, nv, nw, nz)
    assert composed == expected
    assert composed.pivots == expected.pivots
    assert composed.field is field


def test_composition_cases_are_reached(eliminations):
    # the cases the property above is meant to reach, by the same draws:
    # zero dimensions, a proper projection of phi to W, gamma rows with a
    # pivot in W, phi rows with a pivot in Z, and compositions that run
    # no, one and two eliminations
    rng = Random(45)
    seen = set()
    for _ in range(300):
        nv, nw, nz = (rng.randint(0, 4) for _ in range(3))
        tail, head = rng.choice([nw, None]), rng.choice([nw, None])
        gamma = _relation_subspace(rng, QQ, nv + nw, rng.randint(0, nv + nw + 1), tail=tail)
        phi = _relation_subspace(rng, QQ, nw + nz, rng.randint(0, nw + nz + 1), head=head)
        x = phi.project_first(nw)
        seen.add("zero" if 0 in (nv, nw, nz) else "positive")
        if x.dim < nw:
            seen.add("proper")
        if any(p >= nv for p in gamma.pivots):
            seen.add("gamma in W")
        if phi.dim > x.dim:
            seen.add("phi in Z")
        eliminations.clear()
        composed = compose_subspaces(phi, gamma, nv, nw, nz)
        seen.add(f"{len(eliminations)} eliminations")
        assert composed == oracle_compose(phi, gamma, nv, nw, nz)
    expected = {"zero", "positive", "proper", "gamma in W", "phi in Z"}
    assert seen == expected | {f"{k} eliminations" for k in (0, 1, 2)}, seen


def test_compose_rejects_dimensions_that_do_not_chain():
    with pytest.raises(ValueError):
        compose_subspaces(Subspace.full(QQ, 3), Subspace.full(QQ, 4), 2, 2, 2)


# -- eliminations on the relation path ---------------------------------------


def test_annihilator_runs_one_elimination(eliminations):
    rng = Random(32)
    cases = [Subspace.zero(QQ, 4), Subspace.full(QQ, 4)]
    cases += [random_subspace(rng, 6, 3), random_subspace(rng, 4)]
    for s in cases:
        eliminations.clear()
        ann = s.annihilator()
        assert len(eliminations) == 1
        assert ann.dim == s.ambient_dim - s.dim
        # kept: a second call eliminates nothing
        assert s.annihilator() is ann
        assert len(eliminations) == 1


def test_twisted_product_runs_no_elimination(eliminations):
    rng = Random(33)
    a, b = random_gcs(rng, 2), random_gcs(rng, 4)
    eliminations.clear()
    tp = twisted_product(a, b)
    assert eliminations == []
    assert tp.n == 6


def test_is_canonical_eliminations_on_a_fixed_relation(eliminations):
    # the graph of an isomorphism of structures on R^2: the identities run
    # on the graph's RREF rows and its null rows, read off with no
    # elimination (one, of the annihilator, when the images were reduced)
    a = symplectic_structure(OMEGA2)
    b = conjugate_by_basis(a, ROT)
    rel = map_relation(ROT, a, b)
    eliminations.clear()
    assert is_canonical(rel)
    assert eliminations == []


def test_annihilator_identity_eliminations_on_a_fixed_pair(eliminations):
    # graphs of ROT between structures on R^2; the sign flip of Ann(phi)
    # needs no elimination (8 at the route through Subspace.image)
    a = symplectic_structure(OMEGA2)
    b = conjugate_by_basis(a, ROT)
    c = conjugate_by_basis(b, ROT)
    gamma, phi = map_relation(ROT, a, b), map_relation(ROT, b, c)
    eliminations.clear()
    assert annihilator_composition_identity(phi, gamma)
    # Ann(gamma) and Ann(phi); both compositions lift graphs through graphs,
    # and R = Ann(C) is decided by dim R and C R^T = 0, with no elimination
    assert eliminations == [(2, 4)] * 2
    # Ann(gamma) and Ann(phi) are kept
    eliminations.clear()
    assert annihilator_composition_identity(phi, gamma)
    assert eliminations == []


def test_composing_two_graphs_runs_no_elimination(eliminations):
    rng = Random(39)
    for n in (2, 4):
        gamma, phi, mu1, mu2 = graph_pair(rng, n)
        eliminations.clear()
        composed = compose(phi, gamma)
        assert eliminations == []
        assert composed.graph == Subspace.graph(mu2 @ mu1)


def test_graph_iso_test_runs_one_elimination(eliminations):
    # is_invertible's rank; 2 when conjugate_by_basis inverted mu again
    rng = Random(37)
    a = random_gcs(rng, 4)
    mu = random_invertible(rng, 4)
    b = conjugate_by_basis(a, mu)
    eliminations.clear()
    assert graph_iso_test(mu, a, b)
    assert eliminations == [(4, 4)]
