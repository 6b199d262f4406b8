from random import Random

import pytest

from gclin import core
from gclin.core import complex_structure, conjugate_by_basis, direct_sum, symplectic_structure
from gclin.linalg import Matrix
from gclin.samples import (
    random_bivector,
    random_complex_matrix,
    random_invertible,
    random_symplectic_form,
    random_two_form,
)
from gclin.transforms import b_transform, beta_transform


@pytest.fixture
def kernel_eigenspaces(monkeypatch):
    """Records each structure whose eigenspace core computes.

    to_eigenspace validates a structure that keeps no eigenspace, and
    solves for its eigenspace, in one call of core._validated, and a
    kept eigenspace skips it, so each call is one eigenspace computed.
    """
    computed = []
    validated = core._validated

    def counting(j):
        computed.append(j)
        return validated(j)

    monkeypatch.setattr(core, "_validated", counting)
    return computed


@pytest.fixture
def eliminations(monkeypatch):
    """The shapes of the matrices Matrix.rref runs on, in call order."""
    calls = []
    rref = Matrix.rref

    def counting(self):
        calls.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    return calls


@pytest.fixture(scope="session")
def typed_structures():
    """Seeded structures at n = 2, 4 and 6: symplectic on s dimensions
    plus complex on the rest, for every even s, each with a B-field, a
    beta-field, both or neither, in coordinates mixed by a random change
    of basis, so that each type flag and each dimension of S and C
    occurs."""
    rng = Random(16)
    out = []
    for n in (2, 4, 6):
        for s in range(0, n + 1, 2):
            for with_b, with_beta in ((False, False), (True, False), (False, True), (True, True)):
                parts = []
                if s:
                    parts.append(symplectic_structure(random_symplectic_form(rng, s)))
                if n - s:
                    parts.append(complex_structure(random_complex_matrix(rng, n - s)))
                j = parts[0] if len(parts) == 1 else direct_sum(*parts)
                if with_b:
                    j = b_transform(j, random_two_form(rng, n))
                if with_beta:
                    j = beta_transform(j, random_bivector(rng, n))
                out.append(conjugate_by_basis(j, random_invertible(rng, n)))
    return out
