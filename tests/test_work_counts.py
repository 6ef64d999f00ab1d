"""Exact work counts of `bh cell`: SuperLU factors and solved columns.

Every direct factor goes through one splu call (fem._splu), so wrapping
scipy's splu counts them all.  One in-process `bh cell` per config, after
its `bh mesh`, must make exactly the factors and solve exactly the
right-hand-side columns pinned below.  A change that adds a factor or
brings back a solve of g columns per phase fails here by name.

The counts, per config: two phase factors, each with its Schur factor
(which solves nothing), and one trace factor per interface component.
The columns are the N + 1 column solve of each phase (P and K_II^-1 w),
the extensions of chi0 (N columns, plus m lifts when m > 1) and of
chi0_tilde (N), per phase, and 2N columns per component on its trace
factor, N for the trace of chi0 and N for v.
"""
import os

import pytest

from bh import cli, fem

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")

# (factors, solved columns) of one `bh cell`
WORK = {"disk_default": (5, 18),
        "layered_kgt1": (6, 26),
        "tube_klt1": (5, 26)}


class _Counted:
    """A SuperLU factor that counts the right-hand-side columns it solves."""

    def __init__(self, lu, counts):
        self._lu, self._counts = lu, counts

    def solve(self, b, *args):
        self._counts["columns"] += 1 if b.ndim == 1 else b.shape[1]
        return self._lu.solve(b, *args)

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.mark.parametrize("name", sorted(WORK))
def test_cell_work_is_pinned(name, tmp_path, monkeypatch):
    cfg, out = os.path.join(CONFIGS, name + ".ini"), str(tmp_path / "run")
    monkeypatch.setattr(cli, "_reused", {})
    assert cli.main(["mesh", "--config", cfg, "--out", out]) == 0
    counts = {"factors": 0, "columns": 0}
    splu = fem.spla.splu

    def counted(A, **options):
        counts["factors"] += 1
        return _Counted(splu(A, **options), counts)

    monkeypatch.setattr(fem.spla, "splu", counted)
    assert cli.main(["cell", "--config", cfg, "--out", out]) == 0
    assert (counts["factors"], counts["columns"]) == WORK[name], counts
