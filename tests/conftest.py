"""Fault injection for the campaign tests: break one layer as ferrers.verify sees it.

Each corruption rebinds one name in ferrers.verify, so exactly the check that
reads it goes wrong; a fake that still needs the real result calls it through
the module that defines it.  A campaign over staircase graphs then reports
the category named by the key on every graph it checks.
"""

import pytest

from ferrers import trees
from ferrers.errors import IdentityViolation


def _tau_plus_one(g):
    return trees.tau_matrix_tree(g) + 1


def _never_ferrers(g):
    return False


def _failed_reduction(g, tau, den, b, det):
    raise IdentityViolation("corrupted reduction identity")


def _failed_certificate(g, scaled):
    raise IdentityViolation("corrupted majorization certificate")


def _table_plus_one(m, n, lo, hi):
    return [t + 1 for t in trees._tree_table(m, n, lo, hi)]


CORRUPTIONS = {
    "inequality": ("tau_matrix_tree", _tau_plus_one),
    "equality": ("is_ferrers", _never_ferrers),
    "reduction": ("check_reduction", _failed_reduction),
    "majorization": ("certify_majorization", _failed_certificate),
    "oracle": ("_tree_table", _table_plus_one),
}


@pytest.fixture
def corrupt(monkeypatch):
    """corrupt(category) breaks the layer behind that campaign failure category."""

    def apply(category: str) -> None:
        name, fake = CORRUPTIONS[category]
        monkeypatch.setattr(f"ferrers.verify.{name}", fake)

    return apply
