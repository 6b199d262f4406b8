"""The integer storage of ``Multivector`` against the scalar oracle.

``tests/helpers.py::ScalarMultivector`` stores one exact scalar per term,
as ``Multivector`` did before it kept integers over one denominator; every
operation here must agree with it term by term, and leave the storage
canonical.
"""

import sys
from itertools import chain
from math import gcd
from random import Random

import pytest
from hypothesis import given, seed, settings, strategies as st

import gclin.fields
from gclin.core import complex_structure, direct_sum, symplectic_structure, to_eigenspace
from gclin.fields import QI, GaussianRational
from gclin.linalg import Matrix
from gclin.multivector import (
    Multivector,
    covectors_of,
    exp_wedge_ints,
    from_int_terms,
    lex_first,
    mask_to_indices,
    two_form_from_coeff,
)
from gclin.samples import random_complex_matrix, random_maximal_isotropic, random_symplectic_form
from gclin.samples import random_two_form as random_two_form_matrix
from gclin.spinor import (
    annihilator_subspace,
    mukai_pairing,
    spinor_from_subspace,
    spinor_product,
    spinor_with_standard_form,
)
from gclin.transforms import b_transform
from helpers import ScalarMultivector

sizes = st.integers(min_value=0, max_value=8)
seeds = st.integers(min_value=0, max_value=10**6)


def assert_canonical(mv):
    terms, den = mv.ints()
    assert type(den) is int and den > 0
    assert gcd(den, *chain.from_iterable(terms.values())) == 1
    assert all(type(re) is int and type(im) is int and (re or im) for re, im in terms.values())
    assert all(0 <= m < 1 << mv.n for m in terms)


def gaussian(rng):
    re, im = (f"{rng.randint(-4, 4)}/{rng.randint(1, 6)}" for _ in range(2))
    return GaussianRational(re, im)


def random_multivector(rng, n, terms=12):
    """About `terms` terms of small Gaussian rationals, at most all 2^n."""
    density = min(1.0, terms / (1 << n))
    return Multivector(n, {m: gaussian(rng) for m in range(1 << n) if rng.random() < density})


def random_two_form(rng, n):
    return Multivector(
        n, {(1 << i) | (1 << j): gaussian(rng) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6}
    )


def random_covectors(rng, n, k):
    rows = [[gaussian(rng) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(k)]
    return [Multivector.covector(n, row) for row in rows]


def nonzero_gaussian(rng):
    while True:
        c = gaussian(rng)
        if c:
            return c


def results_and_oracles(rng, n):
    """(name, Multivector, ScalarMultivector) for every operation on
    random operands, the two sides computed independently."""
    a, b = random_multivector(rng, n), random_multivector(rng, n)
    oa, ob = ScalarMultivector.of(a), ScalarMultivector.of(b)
    c = nonzero_gaussian(rng)
    v = [gaussian(rng) for _ in range(n)]
    u = random_two_form(rng, n)
    factors = random_covectors(rng, n, rng.randint(0, min(n, 3)))
    expected_exp = ScalarMultivector.of(u).exp()
    for f in factors:
        expected_exp = expected_exp.wedge(ScalarMultivector.of(f))
    terms, den = a.ints()
    k = rng.randint(-3, 3) or 1
    out = [
        ("a", a, oa),
        ("a + b", a + b, oa + ob),
        ("a - a", a - a, ScalarMultivector(n)),
        ("a - b", a - b, oa - ob),
        ("-a", -a, -oa),
        ("scale", a.scale(c), oa.scale(c)),
        ("scale by 0", a.scale(0), ScalarMultivector(n)),
        ("wedge", a.wedge(b), oa.wedge(ob)),
        ("contract", a.contract(v), oa.contract(v)),
        ("reversal", a.reversal(), oa.reversal()),
        ("conjugate", a.conjugate(), oa.conjugate()),
        ("exp", u.exp(), ScalarMultivector.of(u).exp()),
        ("exp_wedge_ints", from_int_terms(n, *exp_wedge_ints(u, factors)), expected_exp),
        ("spinor_product", spinor_product(u, factors), expected_exp),
        ("from_ints", Multivector.from_ints(n, {m: (k * x, k * y) for m, (x, y) in terms.items()}, k * den), oa),
    ]
    if a:
        out.append(("normalized", a.normalized(), oa.normalized()))
    m = Matrix(QI, [[gaussian(rng) for _ in range(n)] for _ in range(n)])
    skew = m - m.transpose()
    upper = {(1 << i) | (1 << j): skew.data[i][j] for i in range(n) for j in range(i + 1, n)}
    out.append(("two_form_from_coeff", two_form_from_coeff(skew), ScalarMultivector(n, upper)))
    for row, f in zip(m.data, covectors_of(m)):
        out.append(("covectors_of", f, ScalarMultivector(n, {1 << i: x for i, x in enumerate(row)})))
    return out


@settings(max_examples=60, deadline=None)
@seed(20261022)
@given(sizes, seeds)
def test_hyp_every_operation_is_canonical_and_matches_the_scalar_oracle(n, s):
    for name, got, expected in results_and_oracles(Random(s), n):
        assert_canonical(got)
        assert dict(got.terms) == expected.terms, name


@settings(max_examples=60, deadline=None)
@seed(20261023)
@given(sizes, seeds)
def test_hyp_equality_and_hash_agree_with_termwise_scalar_equality(n, s):
    rng = Random(s)
    a = random_multivector(rng, n)
    c = nonzero_gaussian(rng)
    others = [
        a.scale(c).scale(QI.one / c),
        Multivector(n, dict(a.terms)),
        a + Multivector.zero(n),
        random_multivector(rng, n),
        a.scale(c),
        a.conjugate(),
        Multivector(n + 1, dict(a.terms)),
    ]
    for b in others:
        same = a.n == b.n and dict(a.terms) == dict(b.terms)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)


@settings(max_examples=40, deadline=None)
@seed(20261024)
@given(sizes, seeds)
def test_hyp_normalized_has_leading_coefficient_one(n, s):
    a = random_multivector(Random(s), n)
    if not a:
        with pytest.raises(ValueError):
            a.normalized()
        return
    got = a.normalized()
    mask, coeff = got.leading_term()
    assert coeff == QI.one and mask == min(a.terms, key=mask_to_indices)
    assert dict(got.terms) == ScalarMultivector.of(a).normalized().terms


@settings(max_examples=40, deadline=None)
@seed(20261025)
@given(st.integers(min_value=0, max_value=6), seeds)
def test_hyp_mukai_pairing_and_conjugate_match_the_oracle(n, s):
    rng = Random(s)
    alpha, beta = random_multivector(rng, n), random_multivector(rng, n)
    oa, ob = ScalarMultivector.of(alpha), ScalarMultivector.of(beta)
    assert mukai_pairing(alpha, beta) == oa.mukai(ob)
    assert mukai_pairing(alpha, alpha.conjugate()) == oa.mukai(oa.conjugate())
    assert dict(alpha.conjugate().terms) == oa.conjugate().terms


def test_terms_and_ints_are_read_only_views():
    a = Multivector(3, {0b011: GaussianRational("1/2", 3), 0b100: 2})
    before = dict(a.terms)
    for view in (a.terms, a.ints()[0]):
        with pytest.raises(TypeError):
            view[0b001] = 1
        with pytest.raises(TypeError):
            del view[0b011]
    copy = dict(a.terms)
    copy[0b001] = QI.one
    assert dict(a.terms) == before and a == Multivector(3, before)
    # the scalars are built anew on each read
    assert a.terms is not a.terms and a.terms == a.terms


def test_from_ints_canonicalizes_and_checks_its_input():
    a = Multivector.from_ints(2, {0b01: (-4, 2), 0b10: (0, 0), 0b11: (6, 0)}, -8)
    assert a.ints() == ({0b01: (2, -1), 0b11: (-3, 0)}, 4)
    assert Multivector.from_ints(2, {0b01: (0, 0)}, 5).ints() == ({}, 1) and not Multivector.from_ints(2, {}, 5)
    with pytest.raises(ValueError, match="outside the algebra"):
        Multivector.from_ints(2, {0b100: (1, 0)})
    with pytest.raises(ZeroDivisionError):
        Multivector.from_ints(2, {0b01: (1, 0)}, 0)


def test_lex_first_is_the_first_sorted_index_list():
    rng = Random(61)
    for _ in range(300):
        n = rng.randint(1, 8)
        masks = {rng.randrange(1 << n) for _ in range(rng.randint(1, 12))}
        assert lex_first(masks) == min(masks, key=mask_to_indices)


def test_spinor_route_builds_scalars_independent_of_the_term_count(monkeypatch):
    # spinor_from_subspace and annihilator_subspace run on integers: the
    # only rationals built are the standard form's c, whatever the number
    # of terms of the spinor
    calls = []
    original = gclin.fields.rational_from_ints

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("gclin.") and getattr(module, "rational_from_ints", None) is original:
            monkeypatch.setattr(module, "rational_from_ints", counting)
    rng = Random(8)
    structures = [
        complex_structure(random_complex_matrix(rng, 8)),
        direct_sum(
            symplectic_structure(random_symplectic_form(rng, 4)), complex_structure(random_complex_matrix(rng, 4))
        ),
        b_transform(symplectic_structure(random_symplectic_form(rng, 8)), random_two_form_matrix(rng, 8)),
    ]
    counts = {}
    for j in structures:
        e = to_eigenspace(j).e
        calls.clear()
        line = spinor_from_subspace(e)
        assert annihilator_subspace(line.rep) == e
        counts[len(line.rep.ints()[0])] = len(calls)
    assert len(counts) == 3 and max(counts) > 2 * min(counts)
    assert set(counts.values()) == {2}, counts


def test_spinor_representative_is_normalized_when_its_leading_term_comes_from_u():
    # E = Ann(f3 + i f1^f2^f3): the lex-first term f1^f2^f3 is u's, with a
    # complex coefficient, so the representative is scaled by its conjugate
    i = GaussianRational(0, 1)
    phi = Multivector(3, {0b100: 1, 0b111: i})
    line, sf = spinor_with_standard_form(annihilator_subspace(phi))
    assert line.rep == Multivector(3, {0b100: -i, 0b111: 1}) and sf.expand() == line.rep
    rng = Random(62)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            line, sf = spinor_with_standard_form(random_maximal_isotropic(rng, n))
            assert line.rep.leading_term()[1] == QI.one and sf.expand() == line.rep
