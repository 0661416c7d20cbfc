"""Tier-1 gate: every pinned cell reproduces its committed fingerprint.

On a failure the assertion lists each moved field; re-record with
``PYTHONPATH=src python -m tests.golden.matrix`` only when the change is
meant to alter results, and justify it in CHANGES.md.
"""

import pytest

from tests.golden.matrix import cells, diff, load_golden, run_cell

GOLDEN = load_golden()
CELLS = cells()


def test_golden_file_covers_the_matrix():
    assert sorted(GOLDEN) == sorted(cell.name for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=[cell.name for cell in CELLS])
def test_cell_matches_golden(cell):
    moved = diff(GOLDEN[cell.name], run_cell(cell), cell.name)
    assert not moved, "\n".join(moved)


def test_matrix_exercises_gating_bypass_and_faults():
    """The pinned cells must reach the paths they exist to guard."""
    intellinoc = GOLDEN["IntelliNoC/mesh/none"]
    assert intellinoc["bypass"] > 0
    assert intellinoc["gates"] > 0
    assert GOLDEN["CP/mesh/none"]["wakes"] > 0
    assert all(
        GOLDEN[f"IntelliNoC/{fabric}/aging-cliff"]["failed"][0] >= 1
        for fabric in ("torus", "cmesh", "ring")
    )
