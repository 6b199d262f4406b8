"""Seeded random generators for structures, subspaces and relations.

Structures are sampled through the classification constructor: pick a
symplectic form and a complex structure of complementary dimensions,
take the direct sum, then apply random B-field and beta-field
transforms.  Entries stay small so that exact arithmetic stays cheap.
"""

from __future__ import annotations

from random import Random

from .core import (
    BiVector,
    GCAut,
    TwoForm,
    complex_structure,
    conjugate_by_basis,
    direct_sum,
    symplectic_structure,
)
from .fields import QI, QQ, GaussianRational
from .linalg import Matrix, Subspace
from .relations import map_relation
from .transforms import b_transform, beta_transform


def random_matrix(rng: Random, rows: int, cols: int, lo=-2, hi=2) -> Matrix:
    return Matrix(QQ, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: Random, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, n, n)
        if m.is_invertible():
            return m


def random_skew(rng: Random, n: int) -> Matrix:
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-2, 2)
            entries[i, j] = v
            entries[j, i] = -v
    return Matrix.from_entries(QQ, n, n, entries)


def random_two_form(rng: Random, n: int) -> TwoForm:
    return TwoForm(random_skew(rng, n))


def random_bivector(rng: Random, n: int) -> BiVector:
    return BiVector(random_skew(rng, n))


def _rotation_blocks(m: int) -> Matrix:
    half = m // 2
    entries = {}
    for i in range(half):
        entries[i, half + i] = -1
        entries[half + i, i] = 1
    return Matrix.from_entries(QQ, m, m, entries)


def random_symplectic_form(rng: Random, m: int) -> TwoForm:
    """Congruence transform of the standard form; always nondegenerate."""
    if m % 2:
        raise ValueError("symplectic forms need even dimension")
    p = random_invertible(rng, m)
    base = _rotation_blocks(m)  # skew and invertible
    return TwoForm(p.transpose() @ base @ p)


def random_complex_matrix(rng: Random, m: int) -> Matrix:
    if m % 2:
        raise ValueError("complex structures need even dimension")
    p = random_invertible(rng, m)
    return p @ _rotation_blocks(m) @ p.inverse()


def random_gcs(rng: Random, n: int, with_beta: bool = True) -> GCAut:
    """Random valid structure on an even-dimensional carrier."""
    if n % 2:
        raise ValueError("valid structures need even dimension")
    s = 2 * rng.randint(0, n // 2)
    c = n - s
    parts = []
    if s:
        parts.append(symplectic_structure(random_symplectic_form(rng, s)))
    if c:
        parts.append(complex_structure(random_complex_matrix(rng, c)))
    if not parts:
        base = GCAut(*(Matrix.zero(QQ, 0, 0) for _ in range(4)))
    elif len(parts) == 1:
        base = parts[0]
    else:
        base = direct_sum(parts[0], parts[1])
    out = b_transform(base, random_two_form(rng, n))
    if with_beta:
        out = beta_transform(out, random_bivector(rng, n))
    return out


def random_subspace(rng: Random, n: int, dim=None) -> Subspace:
    if dim is None:
        dim = rng.randint(0, n)
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(dim)]
    sub = Subspace.from_spanning(QQ, n, rows)
    while sub.dim < dim:
        extra = [[rng.randint(-2, 2) for _ in range(n)]]
        sub = Subspace.from_spanning(QQ, n, sub.basis_rows() + extra)
    return sub


def random_gaussian_skew(rng: Random, n: int) -> Matrix:
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            entries[i, j] = v
            entries[j, i] = -v
    return Matrix.from_entries(QI, n, n, entries)


def random_maximal_isotropic(rng: Random, n: int) -> Subspace:
    """A random maximally isotropic subspace of the complexified V + V*.

    Starts from the vector summand and moves it by pairing-preserving
    maps: coordinate swaps e_i <-> f_i, a complex B-field and a complex
    beta-field.  The start basis is made of unit vectors, so the two
    unipotent factors reduce to reading off columns of B and beta.
    """
    b = random_gaussian_skew(rng, n)
    beta = random_gaussian_skew(rng, n)
    b_rows, beta_rows = b.data, beta.data
    rows = []
    for i in range(n):
        if rng.random() < 0.5:
            # swapped: start at f_i; B fixes it, beta adds its column
            v = [row[i] for row in beta_rows]
            f = [QI.one if r == i else QI.zero for r in range(n)]
        else:
            # start at e_i; B adds its column, then beta acts on that
            bcol = [row[i] for row in b_rows]
            v = [
                (QI.one if r == i else QI.zero) + beta_r
                for r, beta_r in enumerate(beta.apply(bcol))
            ]
            f = bcol
        rows.append(v + f)
    return Subspace.from_spanning(QI, 2 * n, rows)


def random_iso_relation(rng: Random, a: GCAut):
    """Graph of a random isomorphism out of a; returns (relation, target)."""
    mu = random_invertible(rng, a.n)
    b = conjugate_by_basis(a, mu)
    return map_relation(mu, a, b), b


def random_relation_chain(rng: Random, n: int, length: int = 2, seed_structure=None):
    """Composable canonical relations built from isomorphism graphs."""
    a = seed_structure if seed_structure is not None else random_gcs(rng, n)
    out = []
    current = a
    for _ in range(length):
        rel, current = random_iso_relation(rng, current)
        out.append(rel)
    return out
