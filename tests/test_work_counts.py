"""Exact work counts of `bh cell`, `bh micro` and `bh verify`: SuperLU
factors and solved columns.

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

One in-process `bh micro` per config, after its `bh mesh` and on one CPU
(so that no counter is shared between threads), is pinned the same way.
On a 2D tiling each substructured solver factors one interior block per
tile type and the skeleton, and solves the columns of T = A_II^-1 A_IB
per type at its build, then one column per member tile of a type at each
condensation.  The step solver condenses a type again only when its load
block changes, so the stripped tiles of disk_default, whose load is the
same at every step, are condensed once per march.  The 3D tube marches
with Jacobi-CG and factors nothing.

`bh verify` judges the stored artifacts and solves nothing: in a process
that holds no cell mesh or system it makes no factor.
"""
import os
import shutil

import pytest

from bh import cli, fem, micro

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


# (factors, solved columns) of one `bh micro` on one CPU: disk_default
# marches eps = 1/2 (all tiles stripped, no harmonic start: 2 factors),
# 1/4 and 1/8 (6 each, the start's and the steps')
MICRO_WORK = {"disk_default": (14, 1346),
              "layered_kgt1": (4, 380),
              "tube_klt1": (0, 0)}


def _count_work(monkeypatch):
    """{"factors": 0, "columns": 0}, counting from now on."""
    counts = {"factors": 0, "columns": 0}
    splu = fem.spla.splu

    def counted(A, **options):
        counts["factors"] += 1
        return _Counted(splu(A, **options), counts)

    monkeypatch.setattr(fem.spla, "splu", counted)
    return counts


def _work(command, name, tmp_path, monkeypatch):
    """(factors, solved columns) of one in-process `bh <command>` on a
    config, after its `bh mesh`, on one CPU."""
    cfg, out = os.path.join(CONFIGS, name + ".ini"), str(tmp_path / "run")
    monkeypatch.setattr(cli, "_reused", {})
    monkeypatch.setattr(micro, "cpus", lambda: 1)
    assert cli.main(["mesh", "--config", cfg, "--out", out]) == 0
    counts = _count_work(monkeypatch)
    assert cli.main([command, "--config", cfg, "--out", out]) == 0
    return counts["factors"], counts["columns"]


@pytest.mark.parametrize("name", sorted(WORK))
def test_cell_work_is_pinned(name, tmp_path, monkeypatch):
    assert _work("cell", name, tmp_path, monkeypatch) == WORK[name]


@pytest.mark.parametrize("name", sorted(MICRO_WORK))
def test_micro_work_is_pinned(name, tmp_path, monkeypatch):
    assert _work("micro", name, tmp_path, monkeypatch) == MICRO_WORK[name]


@pytest.mark.parametrize("name", sorted(WORK))
def test_verify_makes_no_factor(name, config_run, tmp_path, monkeypatch,
                                capsys):
    cfg, run = config_run(name)
    out = str(tmp_path / "run")
    shutil.copytree(run, out)
    monkeypatch.setattr(cli, "_reused", {})
    counts = _count_work(monkeypatch)
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert counts == {"factors": 0, "columns": 0}
