import pytest

from gclin import core
from gclin.linalg import Matrix


@pytest.fixture
def kernel_eigenspaces(monkeypatch):
    """Records each structure whose eigenspace core computes.

    to_eigenspace validates a structure that carries no eigenspace, and
    solves for its eigenspace, in one call of core._validated, and a
    carried eigenspace skips it, so each call is one eigenspace computed.
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
