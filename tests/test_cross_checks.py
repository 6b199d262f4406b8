"""Cross-checks may move between routines, but their number may not fall."""

from pathlib import Path

import gclin

# `raise AssertionError` sites in src/gclin: each is a second route or an
# invariant checked on every call.
MIN_CROSS_CHECKS = 64


def test_cross_check_sites_are_kept():
    sources = sorted(Path(gclin.__file__).parent.glob("*.py"))
    count = sum(path.read_text(encoding="utf-8").count("raise AssertionError") for path in sources)
    assert count >= MIN_CROSS_CHECKS, f"{count} cross-check sites, fewer than {MIN_CROSS_CHECKS}"
