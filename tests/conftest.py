import sys

import pytest

from gclin import core


@pytest.fixture
def kernel_eigenspaces(monkeypatch):
    """Records each structure whose eigenspace to_eigenspace computes.

    The kernel route of to_eigenspace starts with validate_aut(j), and a
    carried eigenspace skips it, so a validate_aut call made directly from
    to_eigenspace is one eigenspace computed.
    """
    computed = []
    validate = core.validate_aut

    def counting(j):
        if sys._getframe(1).f_code is core.to_eigenspace.__code__:
            computed.append(j)
        return validate(j)

    monkeypatch.setattr(core, "validate_aut", counting)
    return computed
