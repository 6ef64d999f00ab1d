"""File formats, configuration and the command pipeline.

The format tests are strict round-trips: %.17g text for meshes and tensors,
packed base64 float64 blocks for cell fields and solution levels (both
lossless for doubles); they also feed the readers malformed or outdated
files that carry a valid checksum.  The CLI tests drive main() in-process
on a small layered configuration, a coarse disk at k = 0.5 and the three
configs/ files, and check artifacts, hash guards and exit codes.
"""
import base64
import ctypes
import dataclasses
import gc
import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bh
from bh import cell, cli, fem, formats, geometry, macro, micro, tensors
from bh.config import MAX_STEPS, MAX_TILES, load_config, preset_function
from bh.errors import (BHError, ConfigInvalid, MissingArtifact,
                       SolverFailure, WrongGeometryClass)
from bh.timegrid import TimeGrid

from conftest import convergence_study, sin_product

TINY_INI = """\
[geometry]
kind = Layered2D
a = 0.25
b = 0.75
h = 0.1

[coefficients]
lambda_int = 1.0
lambda_out = 3.0
alpha = 1.0
k = 2.0

[kernel]
t_end = 0.2
dt = 0.05

[macro]
t_end = 0.2
dt = 0.05
n = 8

[data]
u0 = zero
f = sin-product

[study]
eps_list = 0.5
eta_list = 0.2

[output]
dir = out
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_loads_and_hashes_stable(tiny_cfg):
    c1 = load_config(tiny_cfg)
    c2 = load_config(tiny_cfg)
    assert c1.config_hash == c2.config_hash
    assert c1.geometry_hash == c2.geometry_hash
    assert c1.regime == "kgt1"
    assert c1.topology == "cc"
    assert c1.eps_list == (0.5,)


def test_config_output_dir_ignores_the_environment(tiny_cfg, tmp_path,
                                                   monkeypatch):
    # the output directory is [output] dir, or --out when it is given
    monkeypatch.setenv("BH_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    assert load_config(tiny_cfg).out_dir == "out"


def test_bh_reads_no_environment_variable():
    for path in sorted(glob.glob(os.path.join(os.path.dirname(bh.__file__),
                                              "*.py"))):
        with open(path) as fh:
            assert not re.search(r"\benviron\b|\bgetenv\b", fh.read()), path


@pytest.mark.parametrize("patch, message", [
    ("kind = Layered2D", "kind = Hexagon"),
    ("a = 0.25", "a = 0.9"),
    ("dt = 0.05\nn = 8", "dt = nope\nn = 8"),
    ("u0 = zero", "u0 = parabola"),
    ("eps_list = 0.5", "eps_list = 0.3"),
    ("lambda_out = 3.0", "lambda_out = -3.0"),
])
def test_config_rejections(tmp_path, patch, message):
    bad = TINY_INI.replace(patch, message)
    p = tmp_path / "bad.ini"
    p.write_text(bad)
    with pytest.raises(ConfigInvalid):
        load_config(str(p))


@pytest.mark.parametrize("patch, message", [
    ("[kernel]\nt_end = 0.2\ndt = 0.05", "[kernel]\nt_end = 0.2\ndt = nan"),
    ("[kernel]\nt_end = 0.2", "[kernel]\nt_end = inf"),
    ("lambda_int = 1.0", "lambda_int = nan"),
    ("k = 2.0", "k = -inf"),
    ("dt = 0.05\nn = 8", "dt = 0.05\nn = 0.5"),
    ("dt = 0.05\nn = 8", "dt = 0.05\nn = 8.0"),
    ("eps_list = 0.5", "eps_list = nan"),
], ids=["dt-nan", "t_end-inf", "lambda_int-nan", "k-inf", "n-fraction",
        "n-float", "eps_list-nan"])
def test_config_rejects_nonfinite_and_fractional(tmp_path, patch, message):
    bad = TINY_INI.replace(patch, message)
    assert bad != TINY_INI
    p = tmp_path / "bad.ini"
    p.write_text(bad)
    with pytest.raises(ConfigInvalid):
        load_config(str(p))


def test_config_missing_file():
    with pytest.raises(ConfigInvalid):
        load_config("/nonexistent/rc.ini")


@pytest.mark.parametrize("call, cls", [
    (lambda: TimeGrid(0.0, 0.1), ConfigInvalid),
    (lambda: macro._resample_kernel(np.zeros((3, 2, 2)), TimeGrid(0.2, 0.1),
                                    np.array([0.0, 0.5])), ConfigInvalid),
    (lambda: macro.build_macro_mesh(4, 1), WrongGeometryClass),
    (lambda: micro.eps_report("kgt1", iter(()), grid=TimeGrid(0.1, 0.05)),
     MissingArtifact),
], ids=["time-grid", "kernel-horizon", "macro-dimension", "macro-reference"])
def test_bad_inputs_raise_bh_errors(call, cls):
    # the CLI maps BHError subclasses to exit codes; a plain ValueError
    # would end in a traceback
    with pytest.raises(cls) as info:
        call()
    assert isinstance(info.value, BHError)


def test_macro_horizon_checked(tmp_path):
    bad = TINY_INI.replace("[macro]\nt_end = 0.2", "[macro]\nt_end = 0.9")
    p = tmp_path / "bad.ini"
    p.write_text(bad)
    with pytest.raises(ConfigInvalid):
        load_config(str(p))


@pytest.mark.parametrize("patch, message", [
    ("[kernel]\nt_end = 0.2\ndt = 0.05", "[kernel]\nt_end = 0.2\ndt = 1e-05"),
    ("[macro]\nt_end = 0.2\ndt = 0.05", "[macro]\nt_end = 0.2\ndt = 1e-300"),
    ("[kernel]\nt_end = 0.2\ndt = 0.05", "[kernel]\nt_end = 0.2\ndt = 1e-320"),
    ("eps_list = 0.5", "eps_list = 1e-320"),
    ("eps_list = 0.5", "eps_list = 1e300"),
], ids=["kernel-steps", "macro-steps", "kernel-steps-inf", "eps-tiny",
        "eps-huge"])
def test_config_refuses_sizes_it_cannot_run(tmp_path, patch, message):
    # load_config only: nothing is sized by the refused values
    bad = TINY_INI.replace(patch, message)
    assert bad != TINY_INI
    p = tmp_path / "bad.ini"
    p.write_text(bad)
    with pytest.raises(ConfigInvalid):
        load_config(str(p))


def test_config_step_limit_is_inclusive(tmp_path):
    dt = 0.2 / MAX_STEPS
    p = tmp_path / "limit.ini"
    p.write_text(TINY_INI.replace("dt = 0.05", f"dt = {dt!r}"))
    cfg = load_config(str(p))
    assert cfg.kernel_grid.n_steps == cfg.macro_grid.n_steps == MAX_STEPS


def test_config_tile_limit_is_inclusive(tmp_path):
    # load_config only: a refused eps is never tiled
    side = round(MAX_TILES ** 0.5)              # the layered cell is 2D
    p = tmp_path / "limit.ini"
    p.write_text(TINY_INI.replace("eps_list = 0.5", f"eps_list = {1 / side!r}"))
    assert load_config(str(p)).eps_list == (1 / side,)
    for eps in (1 / (side + 1), 1e-300):
        p.write_text(TINY_INI.replace("eps_list = 0.5", f"eps_list = {eps!r}"))
        with pytest.raises(ConfigInvalid, match="tiles the domain"):
            load_config(str(p))


def test_cli_eps_past_tile_limit_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(TINY_INI.replace("eps_list = 0.5", "eps_list = 1e-300"))
    out = tmp_path / "out"
    assert cli.main(["micro", "--config", str(p), "--out", str(out)]) == 2
    assert "tiles the domain" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("patch, message", [
    ("eps_list = 0.5", "eps_list = 0.5, 0.5"),
    ("eps_list = 0.5", "eps_list = 0.5, 0.25, 0.5000000000001"),
    ("eta_list = 0.2", "eta_list = 0.2, 0.1, 0.2"),
], ids=["eps", "eps-same-tiling", "eta"])
def test_cli_repeated_study_value_exits_2(tmp_path, capsys, patch, message):
    # a repeated eps would solve and write one tiling twice, a repeated eta
    # one band twice, and either would add a study row that breaks the
    # strict monotone verdict
    p = tmp_path / "bad.ini"
    p.write_text(TINY_INI.replace(patch, message))
    out = tmp_path / "out"
    assert cli.main(["mesh", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "repeats" in err
    assert message.split(", ")[-1] in err
    assert not out.exists()


def test_presets():
    pts = np.array([[0.5, 0.5], [0.0, 0.3]])
    assert np.all(preset_function("zero", 2)(pts) == 0.0)
    sp = preset_function("sin-product", 2)(pts)
    assert abs(sp[0] - 1.0) <= 1e-12 and abs(sp[1]) <= 1e-12
    gb = preset_function("gaussian-bump", 2)(pts)
    assert abs(gb[0] - 1.0) <= 1e-12
    with pytest.raises(ConfigInvalid):
        preset_function("spike", 2)


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------

def test_mesh_roundtrip(tmp_path, disk):
    path = str(tmp_path / "m.bhmesh")
    header = {"config": "c" * 64, "geometry": "g" * 64}
    formats.write_mesh(path, header, disk.mesh.vertices, disk.mesh.simplices,
                       disk.mesh.phase, disk.surf, disk.mesh.periodic_pairs)
    h2, data = formats.read_mesh(path)
    assert h2["config"] == header["config"]
    assert np.array_equal(data["vertices"], disk.mesh.vertices)
    assert np.array_equal(data["simplices"], disk.mesh.simplices)
    assert np.array_equal(data["phase"], disk.mesh.phase)
    assert np.array_equal(data["pairs"], disk.mesh.periodic_pairs)


def test_mesh_writer_runs_no_gc_collection(tmp_path):
    # each block is formatted with one template over its flat values, so
    # the writer makes a few GC-tracked objects, far below the 700 that
    # trigger a gen-0 collection; a list per row ran collections here
    mesh, surf = geometry.build_unit_cell(
        geometry.GeometrySpec("Disk2D", {"r0": 0.25}, h=0.014))
    path = str(tmp_path / "m.bhmesh")
    runs = []
    record = lambda phase, info: runs.append((phase, info["generation"]))
    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        formats.write_mesh(path, {"config": "c" * 64}, mesh.vertices,
                           mesh.simplices, mesh.phase, surf,
                           mesh.periodic_pairs)
    finally:
        gc.callbacks.remove(record)
    assert runs == []


def test_cell_archive_roundtrip(tmp_path):
    path = str(tmp_path / "c.bhcell")
    rng = np.random.default_rng(0)
    grid = TimeGrid(0.1, 0.05)
    arrays = [("chi0", rng.standard_normal((2, 7))),
              ("chi1", rng.standard_normal((2, 3, 5)))]
    formats.write_arrays(path, formats.CELL_ARCHIVE, {"config": "x"}, grid,
                         arrays)
    _, got_grid, got = formats.read_arrays(path, formats.CELL_ARCHIVE)
    assert got_grid == (0.1, 0.05)
    assert len(got) == len(arrays)
    for (n1, v1), (n2, v2) in zip(arrays, got):
        assert n1 == n2
        assert v1.shape == v2.shape and np.array_equal(v1, v2)


def test_cell_archive_layout_pinned(tmp_path, layered):
    """bh cell writes the grid line, then one shape line and one packed line
    for each of six arrays: the bulk chi0 and chi0_tilde, the interface
    traces v, chi1 and omega, and W = b_dir E."""
    path = str(tmp_path / "c.bhcell")
    funcs = layered.funcs
    N, nd = layered.mesh.dim, layered.system.nd
    g, levels = len(layered.system.gamma_dofs), layered.grid.n_steps + 1
    formats.write_arrays(
        path, formats.CELL_ARCHIVE, {"config": "x"}, layered.grid,
        [(name, getattr(funcs, name)) for name in cli._CELL_ARRAYS])
    lines = open(path).read().splitlines()
    assert lines[0] == "BHCELL 3"
    body = [ln for ln in lines[1:-1] if not ln.startswith("# ")]
    assert body[0] == "grid 0.20000000000000001 0.02"
    assert body[1::2] == [f"array chi0 {N} {nd}", f"array v {N} {g}",
                          f"array chi0_tilde {N} {nd}",
                          f"array chi1 {N} {levels} {g}",
                          f"array omega {N} {levels} {g}",
                          f"array W {N} {g}"]
    _, _, got = formats.read_arrays(path, formats.CELL_ARCHIVE)
    for name, vals in got:
        assert np.array_equal(vals, getattr(funcs, name))


def test_tensor_roundtrip(tmp_path, disk):
    path = str(tmp_path / "t.bhtens")
    formats.write_tensors(path, {"config": "x", "geometry": "y"},
                          disk.tens, disk.grid)
    _, data = formats.read_tensors(path)
    assert data["dim"] == 2
    assert abs(data["lambda0"] - disk.tens.lambda0) <= 1e-16
    assert np.array_equal(data["A0"], disk.tens.A0)
    assert np.array_equal(data["C0"], disk.tens.C0)
    assert np.array_equal(data["B0"], disk.tens.B0)
    assert np.array_equal(data["Phi"], disk.tens.F_coeffs)
    assert np.array_equal(data["A_hom_klt1"], disk.tens.A_hom_klt1)


def _write_solution(path, levels, grid=TimeGrid(0.2, 0.1)):
    formats.write_arrays(path, formats.SOLUTION, {"config": "x"}, grid,
                         [("macro", levels)])


def test_solution_roundtrip(tmp_path):
    path = str(tmp_path / "s.bhsol")
    rng = np.random.default_rng(1)
    levels = rng.standard_normal((3, 11))
    _write_solution(path, levels)
    assert open(path).read().splitlines()[2:4] == ["grid 0.20000000000000001 "
                                                   "0.10000000000000001",
                                                   "array macro 3 11"]
    _, grid, [(kind, got)] = formats.read_arrays(path, formats.SOLUTION)
    assert kind == "macro"
    assert grid == (0.2, 0.1)
    assert np.array_equal(got, levels)


def test_checksum_tamper_detected(tmp_path):
    path = str(tmp_path / "s.bhsol")
    _write_solution(path, np.ones((3, 3)))
    text = open(path).read()
    assert "\narray macro 3 3\n" in text
    open(path, "w").write(text.replace("\narray macro ", "\narray macrp "))
    with pytest.raises(MissingArtifact, match="failed its checksum"):
        formats.read_arrays(path, formats.SOLUTION)


def _write_small(tmp_path, kind):
    """A BHCELL file of two arrays or a BHSOL file of one; returns (path,
    magic), for formats.read_arrays."""
    rng = np.random.default_rng(2)
    if kind == "cell":
        path = str(tmp_path / "c.bhcell")
        formats.write_arrays(
            path, formats.CELL_ARCHIVE, {"config": "x"}, TimeGrid(0.1, 0.05),
            [("chi0", rng.standard_normal((1, 9))),
             ("chi1", rng.standard_normal((1, 1, 9)))])
        return path, formats.CELL_ARCHIVE
    path = str(tmp_path / "s.bhsol")
    _write_solution(path, rng.standard_normal((2, 9)), TimeGrid(0.1, 0.1))
    return path, formats.SOLUTION


def _rewrite(path, edit):
    """Apply edit to the body lines and write a valid checksum again."""
    lines = open(path).read().splitlines()[:-1]
    body = "\n".join(edit(lines)) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(body + f"checksum {digest}\n")


def _first_block(lines):
    """Index of the first packed line (the one after an array line)."""
    return next(i for i, ln in enumerate(lines)
                if ln.startswith("array ")) + 1


def _as_version_1(lines):
    """The same body in the former text layout: %.17g rows, magic 1."""
    out = [lines[0].split()[0] + " 1"]
    for prev, ln in zip(lines, lines[1:]):
        if prev.startswith("array "):
            ln = " ".join("%.17g" % v for v in np.frombuffer(
                base64.b64decode(ln), dtype="<f8"))
        out.append(ln)
    return out


def _as_bhcell_2(lines):
    """The same body under the magic of the former per-level cell archive."""
    return ["BHCELL 2"] + lines[1:]


def _as_bhsol_2(lines):
    """The same body under the magic of the former per-level solution."""
    return ["BHSOL 2"] + lines[1:]


def _truncate(lines):
    # 9 doubles are 96 base64 characters with no padding; dropping whole
    # 4-character groups leaves valid base64 that is 9 bytes short
    i = _first_block(lines)
    return lines[:i] + [lines[i][:-12]] + lines[i + 1:]


def _non_base64(lines):
    # an inserted character, which a lenient decoder would silently skip
    i = _first_block(lines)
    return lines[:i] + [lines[i][:8] + "*" + lines[i][8:]] + lines[i + 1:]


@pytest.mark.parametrize("kind, magic", [("cell", "BHCELL"),
                                         ("sol", "BHSOL")])
def test_version_1_refused_with_message(tmp_path, kind, magic):
    path, current = _write_small(tmp_path, kind)
    _rewrite(path, _as_version_1)
    with pytest.raises(MissingArtifact) as exc:
        formats.read_arrays(path, current)
    msg = str(exc.value)
    assert current == f"{magic} 3"
    assert f"{magic} 1" in msg and current in msg
    assert "re-run" in msg


@pytest.mark.parametrize("kind", ["cell", "sol"])
@pytest.mark.parametrize("edit", [_truncate, _non_base64],
                         ids=["truncated", "non-base64"])
def test_malformed_block_detected(tmp_path, kind, edit):
    path, magic = _write_small(tmp_path, kind)
    _rewrite(path, edit)
    with pytest.raises(MissingArtifact, match="packed block"):
        formats.read_arrays(path, magic)


def _array_without_block(lines):
    return lines[:-1]


def _short_array_line(lines):
    i = _first_block(lines) - 1
    return lines[:i] + ["array"] + lines[i + 1:]


def _empty_line(lines):
    i = _first_block(lines) - 1
    return lines[:i] + [""] + lines[i:]


# edits of the array lines of either archive; the ids name the level array
# of a solution, the one array it holds
SOLUTION_BODY_EDITS = [_array_without_block, _short_array_line, _empty_line]
SOLUTION_BODY_IDS = ["level-without-block", "short-level-line", "empty-line"]


@pytest.mark.parametrize("edit", SOLUTION_BODY_EDITS, ids=SOLUTION_BODY_IDS)
def test_malformed_solution_body_detected(tmp_path, edit):
    # each of these once escaped the reader as StopIteration or IndexError;
    # a cell archive, read by the same reader, is refused alike
    for kind in ("sol", "cell"):
        path, magic = _write_small(tmp_path, kind)
        _rewrite(path, edit)
        with pytest.raises(MissingArtifact, match="malformed archive body"):
            formats.read_arrays(path, magic)


@pytest.mark.parametrize("kind", ["cell", "sol"])
def test_block_tamper_fails_checksum(tmp_path, kind):
    path, magic = _write_small(tmp_path, kind)
    lines = open(path).read().splitlines(keepends=True)
    i = _first_block([ln.rstrip("\n") for ln in lines])
    flip = "B" if lines[i][10] == "A" else "A"
    lines[i] = lines[i][:10] + flip + lines[i][11:]
    open(path, "w").write("".join(lines))
    assert lines[0].rstrip("\n") == magic
    with pytest.raises(MissingArtifact, match="checksum"):
        formats.read_arrays(path, magic)


def test_wrong_magic_detected(tmp_path):
    path = str(tmp_path / "s.bhsol")
    _write_solution(path, np.ones((3, 3)))
    with pytest.raises(MissingArtifact):
        formats.read_mesh(path)


def test_vtk_export(tmp_path):
    path = str(tmp_path / "f.vtk")
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    S = np.array([[0, 1, 2]])
    formats.write_vtk(path, V, S, np.array([1.0, 2.0, 3.0]),
                      cell_values=np.array([7]))
    text = open(path).read()
    assert text.startswith("# vtk DataFile")
    assert "POINT_DATA 3" in text and "CELL_DATA 1" in text


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

def _run(args):
    return cli.main(args)


def test_cli_pipeline(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    for cmd in ("mesh", "cell", "tensors", "macro", "micro"):
        code = _run([cmd, "--config", tiny_cfg, "--out", out])
        assert code == 0, cmd
    for name in ("mesh.bhmesh", "cell.bhcell", "compat_report.csv",
                 "tensors.bhtens", "macro.bhsol", "macro_summary.csv",
                 "mesh.bhrun", "macro.bhrun"):
        assert os.path.exists(os.path.join(out, name)), name


CHAIN = ("mesh", "cell", "tensors", "macro", "micro", "converge", "verify")


def _digests(out):
    """sha256 of each file in out but the manifests."""
    found = {}
    for name in sorted(os.listdir(out)):
        if not name.endswith(".bhrun"):
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def test_cli_chain_matches_one_command_a_call(tiny_cfg, tmp_path, capsys):
    chained, single = str(tmp_path / "chained"), str(tmp_path / "single")
    assert _run(list(CHAIN) + ["--config", tiny_cfg, "--out", chained]) == 0
    for cmd in CHAIN:
        assert _run([cmd, "--config", tiny_cfg, "--out", single]) == 0, cmd
    capsys.readouterr()
    got = _digests(chained)
    assert {"study_eps.csv", "verify_report.txt"} <= set(got)
    assert got == _digests(single)
    for cmd in CHAIN:
        with open(os.path.join(chained, f"{cmd}.bhrun")) as fh:
            text = fh.read()
        for pool in ("blas_threads", "scipy_blas_threads"):
            assert re.search(rf"^{pool} (1|unpinned)$", text,
                             re.MULTILINE), (cmd, pool)
        assert re.search(r"^cpus [1-9][0-9]*$", text, re.MULTILINE), cmd


def test_cli_manifest_output_digests_are_the_files(tiny_cfg, tmp_path,
                                                   capsys):
    # the writers' digests of the artifacts, and those hashed from disk of
    # the CSV files and reports, are the sha256 of the files written
    out = str(tmp_path / "run")
    assert _run(list(CHAIN) + ["--config", tiny_cfg, "--out", out]) == 0
    capsys.readouterr()
    seen = set()
    for cmd in CHAIN:
        with open(os.path.join(out, f"{cmd}.bhrun")) as fh:
            rows = [ln.split()[1:] for ln in fh if ln.startswith("output ")]
        for name, digest in rows:
            assert digest == formats.file_sha256(os.path.join(out, name)), \
                (cmd, name)
            seen.add(name)
    assert {"mesh.bhmesh", "cell.bhcell", "compat_report.csv",
            "tensors.bhtens", "macro.bhsol", "macro_summary.csv",
            "micro_m2.bhsol", "study_eps.csv", "verify_report.txt"} <= seen


def test_cli_chain_stops_at_a_missing_artifact(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "empty")
    assert _run(["tensors", "macro", "--config", tiny_cfg, "--out", out]) == 3
    assert os.listdir(out) == []
    assert capsys.readouterr().err.startswith("artifact error:")


def test_cli_chain_stops_at_a_solver_failure(tiny_cfg, tmp_path, monkeypatch,
                                             capsys):
    def failing(cfg, out, vtk):
        raise SolverFailure("cell solve failed")

    monkeypatch.setitem(cli._COMMANDS, "cell", (failing, ["mesh"]))
    out = str(tmp_path / "run")
    assert _run(["mesh", "cell", "tensors", "--config", tiny_cfg,
                 "--out", out]) == 1
    assert sorted(os.listdir(out)) == ["mesh.bhmesh", "mesh.bhrun"]
    assert capsys.readouterr().err == "error: cell solve failed\n"


def test_cli_chain_with_bad_config_writes_nothing(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(TINY_INI.replace("kind = Layered2D", "kind = Wedge"))
    out = str(tmp_path / "run")
    assert _run(["mesh", "cell", "--config", str(p), "--out", out]) == 2
    assert os.listdir(tmp_path) == ["bad.ini"]
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_unknown_command_exits_2_before_any_runs(tiny_cfg, tmp_path,
                                                     monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(cli._COMMANDS, "mesh",
                        (lambda *args: ran.append(args), []))
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as info:
        _run(["mesh", "bogus", "--config", tiny_cfg, "--out", str(out)])
    assert info.value.code == 2
    assert ran == [] and not out.exists()
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cli_help_lists_each_command_with_its_inputs():
    rows = [ln.replace(",", "").split()
            for ln in cli.build_parser().format_help().splitlines()]
    for name, (_, deps) in cli._COMMANDS.items():
        assert [name] + deps in rows, name
    assert ["verify", "mesh", "cell", "tensors", "micro"] in rows


def _subprocess_bh(commands, cfg, out, **env_vars):
    """Run the space-separated commands as one bh process, with env_vars
    added to its environment."""
    env = dict(os.environ, **env_vars,
               PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "bh.cli", *commands.split(), "--config", cfg,
         "--out", out], capture_output=True, text=True, env=env, timeout=120)


def _bh_in_process(commands, cfg, out, capsys):
    """Run the space-separated commands with main in this process; returns
    (exit code, stderr).  An exception escaping main, which a process would
    print as a traceback, fails the calling test."""
    capsys.readouterr()
    code = cli.main([*commands.split(), "--config", cfg, "--out", out])
    return code, capsys.readouterr().err


def test_cli_chain_failing_midway_exits_without_traceback(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    proc = _subprocess_bh("mesh tensors macro", tiny_cfg, out)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("artifact error:")
    assert sorted(os.listdir(out)) == ["mesh.bhmesh", "mesh.bhrun"]


def test_cli_import_leaves_scipy_spatial_unloaded():
    # every command pays for what bh.cli imports; only the sweeps locate
    # points, so PointLocator imports the k-d tree itself
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bh.cli; print(sorted(m for m in sys.modules"
         " if m.startswith('scipy.spatial')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _fresh_python(code):
    """The standard output of code run in a new interpreter that finds bh."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bh.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_starts_no_thread():
    # bh micro makes its thread pools at first use, each for one call
    out = _fresh_python(
        "import sys, threading, bh.cli; print(threading.active_count(),"
        " 'concurrent.futures.thread' in sys.modules)")
    assert out.split() == ["1", "False"]


# a module of each package that numpy.f2py and numpy.testing run at once
_DEFERRED = ("numpy.f2py.crackfortran", "numpy.testing._private.utils")


def test_import_defers_numpy_f2py_and_numpy_testing():
    # scipy's import reads every attribute of numpy; bh enters both modules
    # unrun, and each runs in full at its first attribute access
    out = _fresh_python(
        f"import sys, bh.cli; deferred = {_DEFERRED!r}\n"
        "print([m for m in deferred if m in sys.modules])\n"
        "from numpy.testing import assert_allclose\n"
        "import numpy.f2py.crackfortran\n"
        "assert_allclose(1.0, 1.0)\n"
        "print([m for m in deferred if m in sys.modules],"
        " callable(numpy.f2py.crackfortran.crackfortran))")
    assert out.splitlines() == ["[]", f"{list(_DEFERRED)!r} True"]


def test_cli_chain_runs_neither_deferred_module(tmp_path):
    # the import's saving does not move into a stage
    cfg = os.path.join(CONFIGS, "disk_default.ini")
    argv = ["mesh", "cell", "tensors", "macro", "micro", "--config", cfg,
            "--out", str(tmp_path)]
    out = _fresh_python(
        "import sys, bh.cli\n"
        f"print(bh.cli.main({argv!r}),"
        f" [m for m in {_DEFERRED!r} if m in sys.modules])")
    assert out.split() == ["0", "[]"]


def _bundled_openblas(package, pattern):
    """The OpenBLAS that package bundles, found among the files of
    <package>.libs that this process has loaded, or None."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        package.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, pattern)):
        try:
            return ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
    return None


def test_import_pins_numpy_blas_pool_to_one_thread():
    # read back through the library's own getter, not through bh
    lib = _bundled_openblas(np, "libscipy_openblas64_*.so")
    if lib is None:
        pytest.skip("numpy bundles no scipy-openblas64 library here")
    assert lib.scipy_openblas_get_num_threads64_() == 1
    assert bh.blas_threads() == 1


def test_import_pins_scipy_blas_pool_to_one_thread():
    # scipy's own OpenBLAS runs SuperLU's multi-column solves and factors
    lib = _bundled_openblas(scipy, "libscipy_openblas-*.so")
    if lib is None:
        pytest.skip("scipy bundles no scipy-openblas library here")
    assert lib.scipy_openblas_get_num_threads() == 1
    assert bh.scipy_blas_threads() == 1


def test_tube_bytes_do_not_depend_on_blas_threads(tmp_path):
    # with numpy's pool pinned at import, OpenBLAS's own variable (bh reads
    # none) no longer changes the tube cell's dense products
    cfg = os.path.join(CONFIGS, "tube_klt1.ini")
    found = []
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        proc = _subprocess_bh("mesh cell tensors", cfg, out,
                              OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        found.append(_digests(out))
    assert {"mesh.bhmesh", "cell.bhcell", "tensors.bhtens"} <= set(found[0])
    assert found[0] == found[1]


def test_micro_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch,
                                                    capsys):
    # bh micro sizes its thread pools by the CPUs it may run on; on one CPU
    # the same calls run in call order on one thread
    cfg = os.path.join(CONFIGS, "disk_default.ini")
    found, manifests = [], []
    for name in ("as_is", "one_cpu"):
        if name == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        out = str(tmp_path / name)
        assert _run(["mesh", "micro", "--config", cfg, "--out", out,
                     "--vtk"]) == 0
        found.append(_digests(out))
        with open(os.path.join(out, "micro.bhrun")) as fh:
            manifests.append(fh.read())
    capsys.readouterr()
    assert {f"micro_m{m}.bhsol" for m in (2, 4, 8)} <= set(found[0])
    assert found[0] == found[1]
    monkeypatch.undo()
    assert f"\ncpus {len(os.sched_getaffinity(0))}\n" in manifests[0]
    assert "\ncpus 1\n" in manifests[1]


def test_cli_micro_fails_at_the_first_failing_eps(tmp_path, monkeypatch,
                                                  capsys):
    # all three eps solve at once, and eps = 1/8 fails before eps = 1/4; as
    # in a loop over eps_list, the files of eps = 1/2 are written and the
    # error of eps = 1/4 ends the command
    cfg = tmp_path / "three.ini"
    cfg.write_text(TINY_INI.replace("eps_list = 0.5",
                                    "eps_list = 0.5, 0.25, 0.125"))
    solve, called, eighth_failed = micro.solve_micro, [], threading.Event()

    def failing(run):
        eps = run.mesh.eps
        called.append(eps)
        if eps == 0.5:
            return solve(run)
        if eps == 0.25:
            assert eighth_failed.wait(timeout=60)
        else:
            eighth_failed.set()
        raise SolverFailure(f"march at eps={eps} failed")

    monkeypatch.setattr(micro, "cpus", lambda: 3)
    monkeypatch.setattr(micro, "solve_micro", failing)
    out = str(tmp_path / "run")
    code, err = _bh_in_process("mesh micro", str(cfg), out, capsys)
    assert (code, err) == (1, "error: march at eps=0.25 failed\n")
    assert sorted(called) == [0.125, 0.25, 0.5]
    assert sorted(os.listdir(out)) == ["mesh.bhmesh", "mesh.bhrun",
                                       "micro_m2.bhsol"]


_INI_LINES = TINY_INI.splitlines()
# lines holding a number or a number list
_NUMERIC_LINES = [i for i, ln in enumerate(_INI_LINES) if " = " in ln
                  and ln.split(" = ")[0] not in ("kind", "u0", "f", "dir")]
_EPS_LINE = _INI_LINES.index("eps_list = 0.5")
_BAD_VALUES = ("nope", "nan", "inf", "-inf", "-1.5", "0", "2.5", "1e-320",
               "1e300")


@settings(max_examples=60)
@example(line=_EPS_LINE, value="1e-320")
@given(line=st.sampled_from(_NUMERIC_LINES),
       value=st.one_of(st.sampled_from(_BAD_VALUES), st.floats().map(repr)))
def test_cli_mutated_config_exits_cleanly(line, value):
    # one value replaced; tensors then stops at config load (2) or at the
    # missing mesh.bhmesh (3), so nothing is built
    lines = list(_INI_LINES)
    lines[line] = lines[line].split(" = ")[0] + " = " + value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "mutated.ini")
        with open(cfg, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "empty")
        assert cli.main(["tensors", "--config", cfg, "--out", out]) in (2, 3)


def test_cli_bad_config_exits_2(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text(TINY_INI.replace("kind = Layered2D", "kind = Wedge"))
    assert _run(["mesh", "--config", str(p)]) == 2


# the exit-2 case run as its own process; the others run main in process
_DT_NAN = ("[kernel]\nt_end = 0.2\ndt = 0.05",
           "[kernel]\nt_end = 0.2\ndt = nan")
# the tiny config on a Disk2D cell, r0 given
_DISK = "kind = Layered2D\na = 0.25\nb = 0.75", "kind = Disk2D\nr0 = {}"


@pytest.mark.parametrize("edits, command", [
    ([_DT_NAN], "cell"),
    ([("lambda_int = 1.0", "lambda_int = nan")], "cell"),
    ([("dt = 0.05\nn = 8", "dt = 0.05\nn = 0.5")], "macro"),
    ([("eps_list = 0.5", "eps_list = 1e-320")], "tensors"),
    # each of these three once passed load and failed mid-chain, in micro
    # or converge: 1/eps 3e-10 off 3, a band wider than 0.2, and a band
    # (of the default eta_list) reaching past the cell
    ([("eps_list = 0.5", "eps_list = 0.5, 0.3333333333")], "mesh"),
    ([(_DISK[0], _DISK[1].format(0.25)), ("eta_list = 0.2", "eta_list = 0.3")],
     "mesh"),
    ([(_DISK[0], _DISK[1].format(0.49)), ("eta_list = 0.2\n", "")], "mesh"),
], ids=["dt-nan", "lambda_int-nan", "n-fraction", "eps-1e-320",
        "eps-not-reciprocal", "eta-wider-than-0.2", "disk-band-leaves-cell"])
def test_cli_bad_value_exits_2_without_traceback(tmp_path, capsys, edits,
                                                 command):
    text = TINY_INI
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    p, out = tmp_path / "bad.ini", tmp_path / "out"
    p.write_text(text)
    if edits == [_DT_NAN]:
        proc = _subprocess_bh(command, str(p), str(out))
        code, err = proc.returncode, proc.stderr
    else:
        code, err = _bh_in_process(command, str(p), str(out), capsys)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("edit", [_as_version_1, _as_bhcell_2, _truncate,
                                  _non_base64],
                         ids=["version-1", "version-2", "truncated",
                              "non-base64"])
def test_cli_bad_cell_archive_exits_3_without_traceback(tiny_cfg, tmp_path,
                                                        capsys, edit):
    out = str(tmp_path / "run")
    for cmd in ("mesh", "cell"):
        assert _run([cmd, "--config", tiny_cfg, "--out", out]) == 0
    _rewrite(os.path.join(out, "cell.bhcell"), edit)
    code, err = _bh_in_process("tensors", tiny_cfg, out, capsys)
    assert code == 3, err
    assert "Traceback" not in err
    assert err.startswith("artifact error:")
    if edit in (_as_version_1, _as_bhcell_2):
        old = 1 if edit is _as_version_1 else 2
        assert f"BHCELL {old} artifact" in err
        assert "reads BHCELL 3: re-run" in err


def test_cli_former_solution_exits_3_without_traceback(upstream, tmp_path,
                                                       capsys):
    cfg, out = _copy_run(upstream, 2.0, tmp_path)
    _rewrite(os.path.join(out, "micro_m2.bhsol"), _as_bhsol_2)
    code, err = _bh_in_process("converge", cfg, out, capsys)
    assert code == 3, err
    assert "Traceback" not in err
    assert err.startswith("artifact error:")
    assert "BHSOL 2 artifact" in err and "reads BHSOL 3: re-run" in err
    assert "re-run bh micro" in err


def _reshaped(name, change):
    """Store the array name, consistently with its own array line, as
    change makes it."""
    def edit(lines):
        i = next(k for k, ln in enumerate(lines)
                 if ln.startswith(f"array {name} "))
        shape = [int(n) for n in lines[i].split()[2:]]
        vals = change(np.frombuffer(base64.b64decode(lines[i + 1]),
                                    dtype="<f8").reshape(shape))
        head = " ".join(["array", name] + [str(n) for n in vals.shape])
        return lines[:i] + [head, formats._pack(vals).decode()] + lines[i + 2:]
    return edit


@pytest.mark.parametrize("edit", [
    _reshaped("omega", lambda vals: vals[:, :-1]),
    _reshaped("chi0", lambda vals: vals[:, :-1]),
    lambda lines: lines[:-2]], ids=["missing-level", "short-field",
                                    "missing-array"])
def test_cli_incomplete_cell_archive_exits_3_without_traceback(
        tiny_cfg, tmp_path, capsys, edit):
    out = str(tmp_path / "run")
    for cmd in ("mesh", "cell"):
        assert _run([cmd, "--config", tiny_cfg, "--out", out]) == 0
    path = os.path.join(out, "cell.bhcell")
    _rewrite(path, edit)
    code, err = _bh_in_process("tensors", tiny_cfg, out, capsys)
    assert code == 3, err
    assert "Traceback" not in err
    assert err.startswith("artifact error:")
    # the message lists the arrays the file holds, with their shapes
    held = ", ".join(f"{t[1]} ({', '.join(t[2:])})" for t in (
        ln.split() for ln in open(path) if ln.startswith("array ")))
    assert f"holds the arrays {held}," in err
    assert "re-run bh cell" in err


def test_cli_tensors_builds_no_dirichlet_factor(tiny_cfg, tmp_path,
                                                monkeypatch):
    # the tensor routes read the phase stiffness and loads, never a factor
    out = str(tmp_path / "run")
    for cmd in ("mesh", "cell"):
        assert _run([cmd, "--config", tiny_cfg, "--out", out]) == 0
    built = []
    original = fem.DirichletFactor

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(fem, "DirichletFactor", counting)
    assert _run(["tensors", "--config", tiny_cfg, "--out", out]) == 0
    assert built == []


def _negative_definite_A0(lines):
    return [("A0 " + formats._row(-1e3 * np.eye(2).ravel())
             if ln.startswith("A0 ") else ln) for ln in lines]


def test_cli_macro_indefinite_step_exits_1_without_traceback(upstream,
                                                             tmp_path):
    # k = 1: the step tensor C0/dt + lambda0 I + A0 + dt/2 B0(0) turns
    # negative definite, and the macro solver refuses it before factoring
    cfg, out = _copy_run(upstream, 1.0, tmp_path)
    _rewrite(os.path.join(out, "tensors.bhtens"), _negative_definite_A0)
    proc = _subprocess_bh("macro", cfg, out)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert "not positive definite" in proc.stderr


def test_cli_missing_artifact_exits_3(tiny_cfg, tmp_path):
    out = str(tmp_path / "empty")
    assert _run(["tensors", "--config", tiny_cfg, "--out", out]) == 3


def test_cli_hash_guard_rejects_other_config(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert _run(["mesh", "--config", tiny_cfg, "--out", out]) == 0
    other = tmp_path / "other.ini"
    other.write_text(TINY_INI.replace("h = 0.1", "h = 0.05"))
    assert _run(["cell", "--config", str(other), "--out", out]) == 3


def test_cli_tampered_artifact_exits_3(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert _run(["mesh", "--config", tiny_cfg, "--out", out]) == 0
    mesh_path = os.path.join(out, "mesh.bhmesh")
    text = open(mesh_path).read()
    open(mesh_path, "w").write(text.replace("0.25", "0.26", 1))
    assert _run(["cell", "--config", tiny_cfg, "--out", out]) == 3


def test_cli_manifest_checksums(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert _run(["mesh", "--config", tiny_cfg, "--out", out]) == 0
    man = open(os.path.join(out, "mesh.bhrun")).read()
    mesh_path = os.path.join(out, "mesh.bhmesh")
    assert formats.file_sha256(mesh_path) in man
    assert "command mesh" in man


def test_cli_deterministic_tensors(tiny_cfg, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        for cmd in ("mesh", "cell", "tensors"):
            assert _run([cmd, "--config", tiny_cfg, "--out", out]) == 0
        outs.append(open(os.path.join(out, "tensors.bhtens")).read())
    assert outs[0] == outs[1]


def test_cli_vtk_flag(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert _run(["mesh", "--config", tiny_cfg, "--out", out, "--vtk"]) == 0
    assert os.path.exists(os.path.join(out, "mesh.vtk"))


# ---------------------------------------------------------------------------
# converge scores the macro and micro artifacts
def test_cli_connected_regime_without_initial_data_exits_2(tmp_path, capsys):
    # the connected k = 1 limit marches from u0; with u0 = zero this config
    # once passed load, and mesh, cell and tensors wrote their files before
    # macro exited 1
    with open(os.path.join(CONFIGS, "layered_kgt1.ini")) as fh:
        text = fh.read()
    assert "k = 2.0" in text and "u0 = zero" in text
    p, out = tmp_path / "bad.ini", tmp_path / "out"
    p.write_text(text.replace("k = 2.0", "k = 1.0"))
    code, err = _bh_in_process("mesh cell tensors macro", str(p), str(out),
                               capsys)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("config error:") and "initial data" in err
    assert not out.exists()


def test_cli_coarse_layered_mesh_exits_2_at_load(tmp_path, capsys):
    # ROADMAP item 3, class 1: at h = 0.15 the layered cell has 7 facets on
    # each layer line, and bh mesh once exited 1 on building it
    with open(os.path.join(CONFIGS, "layered_kgt1.ini")) as fh:
        text = fh.read()
    assert "h = 0.05" in text
    p, out = tmp_path / "bad.ini", tmp_path / "out"
    p.write_text(text.replace("h = 0.05", "h = 0.15"))
    code, err = _bh_in_process("mesh", str(p), str(out), capsys)
    assert code == 2, err
    assert err.startswith("config error:") and "fewer than 8" in err
    assert not out.exists()


HIGH_CONTRAST_DISK_INI = """\
[geometry]
kind = Disk2D
r0 = 0.43791199427483785
h = 0.23661674416868905

[coefficients]
lambda_int = 345.70106900833775
lambda_out = 1
alpha = 416.18052271440723
k = 0

[kernel]
t_end = 0.22661095259998182
dt = 0.011330547629999091

[macro]
t_end = 0.16484546181551607
dt = 0.013737121817959672
n = 16

[data]
u0 = gaussian-bump
f = sin-product

[study]
eps_list = 0.125, 0.2, 0.25
eta_list = 0.1, 0.02, 0.05

[output]
dir = out
"""


def test_cli_high_contrast_disk_at_k_0_runs_to_the_end(tmp_path, capsys):
    # a drawn config, to its last digit: verify once solved a membrane band
    # at the smallest eta that no stage had solved (the eta study runs at
    # k = 1 only), and ended with "relative residual 1.549e-10 exceeds
    # 1e-10" and no report
    p, out = tmp_path / "disk.ini", tmp_path / "out"
    p.write_text(HIGH_CONTRAST_DISK_INI)
    code, err = _bh_in_process(" ".join(CHAIN), str(p), str(out), capsys)
    assert code == 0, err
    assert _report_lines(str(out))[-1] == "result: all checks passed"


# ---------------------------------------------------------------------------

UPSTREAM = ("mesh", "cell", "tensors", "macro", "micro")


@pytest.fixture(scope="module")
def upstream(tmp_path_factory):
    """upstream(k) -> (config path, run directory after UPSTREAM); every k
    is run once per module and callers copy the directory."""
    runs = {}

    def get(k):
        if k not in runs:
            base = tmp_path_factory.mktemp(f"k{k}")
            cfg = base / "tiny.ini"
            # two eps, listed out of order, so the report's order counts
            text = TINY_INI.replace("k = 2.0", f"k = {k}").replace(
                "eps_list = 0.5", "eps_list = 0.25, 0.5")
            if k == 1.0:  # the connected memory limit needs initial data
                text = text.replace("u0 = zero", "u0 = sin-product")
            cfg.write_text(text)
            out = str(base / "run")
            for cmd in UPSTREAM:
                assert _run([cmd, "--config", str(cfg), "--out", out]) == 0
            runs[k] = (str(cfg), out)
        return runs[k]

    return get


def _copy_run(upstream, k, tmp_path):
    cfg, out = upstream(k)
    dst = str(tmp_path / "run")
    shutil.copytree(out, dst)
    return cfg, dst


def _study_in_memory(cfg_path, out):
    """The eps study solved from the config, as converge once computed it."""
    cfg = load_config(cfg_path)
    mesh, surf, _ = cli._load_cell_mesh(cfg, cli._paths(out))
    mmesh = fld = None
    if cfg.regime == "kgt1":
        sysm = cell.CellSystem(mesh, surf, cfg.coeffs)
        A_k, _, _ = tensors.compute_Ahom_kgt1(sysm,
                                              cell.solve_chi0_tilde(sysm))
        mmesh = macro.build_macro_mesh(cfg.macro_n, cfg.dim)
        fld = macro.solve_homogenized_elliptic(macro.MacroProblem(
            mesh=mmesh, regime="kgt1", grid=cfg.macro_grid, A_elliptic=A_k,
            source=cfg.source_function(), topology=cfg.topology))
    elif cfg.regime != "klt1":
        sysm = cell.CellSystem(mesh, surf, cfg.coeffs)
        funcs = cell.solve_cell_functions(sysm, cfg.kernel_grid)
        tens = tensors.compute_all(sysm, funcs, cfg.topology)
        mmesh, prob = cli._macro_problem(cfg, {
            "lambda0": tens.lambda0, "A0": tens.A0, "C0": tens.C0,
            "B0": tens.B0, "Phi": tens.F_coeffs,
            "A_hom_kgt1": tens.A_hom_kgt1,
            "kernel": (cfg.kernel_grid.t_end, cfg.kernel_grid.step)})
        fld = macro.solve_homogenized_memory(prob)
    return convergence_study(
        cfg.regime, cfg.eps_list, cell_mesh=mesh, cell_facets=surf.facets,
        coeffs=cfg.coeffs, k=cfg.k, grid=cfg.macro_grid,
        u0_bar=cfg.u0_function(), source=cfg.source_function(),
        macro_mesh=mmesh, macro_field=fld, strip=cfg.topology == "cd").csv()


@pytest.mark.parametrize("k, regime", [(2.0, "kgt1"),
                                       (1.0, "k1_connected_connected"),
                                       (0.5, "klt1")])
def test_cli_converge_matches_in_memory_study(upstream, tmp_path, k, regime):
    cfg, out = _copy_run(upstream, k, tmp_path)
    assert load_config(cfg).regime == regime
    assert _run(["converge", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "study_eps.csv")) as fh:
        assert fh.read() == _study_in_memory(cfg, out)


@pytest.mark.parametrize("k", [2.0, 1.0])
def test_cli_converge_solves_nothing(upstream, tmp_path, monkeypatch, k):
    cfg, out = _copy_run(upstream, k, tmp_path)
    calls = []
    for module, name in ((micro, "solve_micro"),
                         (cell, "solve_cell_functions"),
                         (cell, "solve_chi0_tilde"),
                         (macro, "solve_homogenized_memory"),
                         (macro, "solve_homogenized_elliptic")):
        def counting(*args, _orig=getattr(module, name), **kw):
            calls.append(_orig.__name__)
            return _orig(*args, **kw)

        monkeypatch.setattr(module, name, counting)
    assert _run(["converge", "--config", cfg, "--out", out]) == 0
    assert calls == []


def _manifest_inputs(out, command):
    with open(os.path.join(out, f"{command}.bhrun")) as fh:
        return [ln.split()[1:] for ln in fh if ln.startswith("input ")]


@pytest.mark.parametrize("k", [1.0, 0.5])
def test_cli_manifests_list_the_files_read(upstream, tmp_path, k):
    cfg, out = _copy_run(upstream, k, tmp_path)
    assert _run(["converge", "--config", cfg, "--out", out]) == 0
    ini = os.path.basename(cfg)
    expected = {"mesh": [ini], "cell": [ini, "mesh.bhmesh"],
                "tensors": [ini, "mesh.bhmesh", "cell.bhcell"],
                "macro": [ini, "tensors.bhtens"],
                "micro": [ini, "mesh.bhmesh"],
                "converge": [ini, "mesh.bhmesh"]
                + (["macro.bhsol"] if k == 1.0 else [])
                + ["micro_m2.bhsol", "micro_m4.bhsol"]}
    for command, names in expected.items():
        inputs = _manifest_inputs(out, command)
        assert [name for name, _ in inputs] == names, command
    for name, digest in _manifest_inputs(out, "converge"):
        if name.startswith("micro_m"):
            assert digest == formats.file_sha256(os.path.join(out, name))


# each artifact and the command that reads it
_BODY_READERS = {"mesh.bhmesh": "cell", "cell.bhcell": "tensors",
                 "tensors.bhtens": "macro", "micro_m2.bhsol": "converge"}
_TOKENS = ("", "x", "nan", "-inf", "-1", "0", "1", "2", "3", "0.5", "999999",
           "1e300")


def _first_value(value):
    """A change for _edit_line: the packed line with its first double set to
    value, which a valid checksum then covers."""
    def change(line):
        vals = np.frombuffer(base64.b64decode(line), dtype="<f8").copy()
        vals[0] = value
        return [formats._pack(vals).decode()]
    return change


def _edit_line(prefix, change, offset):
    """Replace the line offset lines after the first line that starts with
    prefix by the lines change returns for it."""
    def edit(lines):
        i = offset + next(k for k, ln in enumerate(lines)
                          if ln.startswith(prefix))
        return lines[:i] + change(lines[i]) + lines[i + 1:]
    return edit


# the one case run as its own process, where an escaped exception would
# print a traceback; the others run main in this process, where it would
# fail the test
_DIM_X = _edit_line("dim ", lambda ln: ["dim x"], 0)


@pytest.mark.parametrize("name, edit", [
    ("mesh.bhmesh", _DIM_X),
    ("mesh.bhmesh", _edit_line("vertices ", lambda ln: [], 1)),
    ("mesh.bhmesh", _edit_line(
        "elements ", lambda ln: ["999999 " + ln.split(" ", 1)[1]], 1)),
    ("tensors.bhtens", _edit_line(
        "A0 ", lambda ln: [ln.rsplit(" ", 1)[0]], 0)),
    ("tensors.bhtens", _edit_line("lambda0 ", lambda ln: ["lambda0 abc"], 0)),
    ("tensors.bhtens", _edit_line(
        "t, B11", lambda ln: [ln.rsplit(", ", 1)[0]], 1)),
    ("cell.bhcell", _edit_line("grid ", lambda ln: ["grid 1"], 0)),
    # a count line of the former layout in place of an array line
    ("cell.bhcell", _edit_line("array ", lambda ln: ["fields 9999"], 0)),
    ("mesh.bhmesh", _edit_line(
        "facets ", lambda ln: [ln.rsplit(" ", 1)[0] + " inf"], 1)),
    ("tensors.bhtens", _edit_line(
        "A0 ", lambda ln: ["A0 nan " + ln.split(" ", 2)[2]], 0)),
    ("cell.bhcell", _edit_line("array chi1 ", _first_value(np.nan), 1)),
    ("micro_m2.bhsol", _edit_line("array ", _first_value(np.inf), 1)),
    ("tensors.bhtens", _edit_line("A_hom_kgt1 ", lambda ln: [], 0)),
], ids=["mesh-dim-x", "mesh-vertex-row-dropped", "mesh-vertex-id-999999",
        "tensors-short-A0", "tensors-lambda0-abc", "tensors-short-B0-row",
        "cell-grid-1", "cell-fields-9999", "mesh-normal-inf",
        "tensors-A0-nan", "cell-nan", "solution-inf", "tensors-no-kgt1"])
def test_cli_malformed_body_exits_3_without_traceback(upstream, tmp_path,
                                                      capsys, name, edit):
    # each of these once ended in a ValueError, IndexError or StopIteration,
    # or (a value that is not finite, a missing k > 1 tensor) reached the
    # solvers or the tensor routes
    cfg, out = _copy_run(upstream, 1.0, tmp_path)
    _rewrite(os.path.join(out, name), edit)
    if edit is _DIM_X:
        proc = _subprocess_bh(_BODY_READERS[name], cfg, out)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = _bh_in_process(_BODY_READERS[name], cfg, out, capsys)
    assert code == 3, err
    assert "Traceback" not in err
    assert err.startswith("artifact error:")
    assert "malformed" in err


def _edit_body_line(how, pick, token):
    """Delete, duplicate or truncate one body line (neither the magic nor a
    header comment), or replace one of its space-separated tokens."""
    def edit(lines):
        body = [i for i, ln in enumerate(lines)
                if i > 0 and not ln.startswith("# ")]
        i = body[pick % len(body)]
        line = lines[i]
        if how == "delete":
            new = []
        elif how == "duplicate":
            new = [line, line]
        elif how == "truncate":
            new = [line[:pick % max(len(line), 1)]]
        else:
            tokens = line.split(" ")
            tokens[pick % len(tokens)] = token
            new = [" ".join(tokens)]
        return lines[:i] + new + lines[i + 1:]
    return edit


@settings(max_examples=120)
@given(name=st.sampled_from(sorted(_BODY_READERS)),
       how=st.sampled_from(["delete", "duplicate", "truncate", "retoken"]),
       pick=st.integers(min_value=0, max_value=10 ** 6),
       token=st.sampled_from(_TOKENS))
def test_cli_mutated_artifact_body_exits_cleanly(upstream, name, how, pick,
                                                 token):
    # one body line edited under a valid checksum; the command reading the
    # file ends with an exit code, never an exception
    cfg, out = upstream(1.0)
    with tempfile.TemporaryDirectory() as tmp:
        run = os.path.join(tmp, "run")
        shutil.copytree(out, run)
        _rewrite(os.path.join(run, name), _edit_body_line(how, pick, token))
        code = cli.main([_BODY_READERS[name], "--config", cfg, "--out", run])
    assert code in (0, 1, 2, 3)


def test_cli_converge_without_micro_exits_3(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    for cmd in UPSTREAM[:-1]:
        assert _run([cmd, "--config", tiny_cfg, "--out", out]) == 0
    proc = _subprocess_bh("converge", tiny_cfg, out)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "micro_m2.bhsol" in proc.stderr and "re-run bh micro" in proc.stderr


@pytest.mark.parametrize("edit", SOLUTION_BODY_EDITS, ids=SOLUTION_BODY_IDS)
def test_cli_malformed_micro_solution_exits_3_without_traceback(
        upstream, tmp_path, capsys, edit):
    cfg, out = _copy_run(upstream, 2.0, tmp_path)
    _rewrite(os.path.join(out, "micro_m2.bhsol"), edit)
    code, err = _bh_in_process("converge", cfg, out, capsys)
    assert code == 3, err
    assert "Traceback" not in err
    assert err.startswith("artifact error:")
    assert "re-run bh micro" in err


def _header_line(key, value):
    def edit(lines):
        return [f"{key} {value}" if ln.startswith(key + " ") else ln
                for ln in lines]
    return edit


def _renamed(name, new):
    """The array name stored under the name new, its values kept."""
    def edit(lines):
        return [f"array {new} " + ln.removeprefix(f"array {name} ")
                if ln.startswith(f"array {name} ") else ln for ln in lines]
    return edit


def _drop_energy_surface(lines):
    return [ln for ln in lines if not ln.startswith("# energy_surface ")]


@pytest.mark.parametrize("name, edit, words", [
    ("micro_m2.bhsol", _renamed("micro", "macro"),
     "holds the arrays macro (5, 399), this mesh and config need "
     "micro (5, 399)"),
    ("micro_m2.bhsol", _header_line("grid", "0.2 0.1"), "time grid"),
    ("micro_m2.bhsol", _reshaped("micro", lambda vals: vals[:-1]),
     "holds the arrays micro (4, 399)"),
    ("micro_m2.bhsol", _reshaped("micro", lambda vals: vals[:, :-1]),
     "holds the arrays micro (5, 398)"),
    ("micro_m2.bhsol", _drop_energy_surface, "energy_surface"),
    ("micro_m2.bhsol", _header_line("# config", "0" * 64), "different config"),
    ("macro.bhsol", _reshaped("macro", lambda vals: vals[:-1]),
     "holds the arrays macro (4, 81)"),
], ids=["kind", "grid", "levels", "nv", "energy", "config", "macro-levels"])
def test_cli_converge_checks_solution_against_config(upstream, tmp_path,
                                                     capsys, name, edit,
                                                     words):
    cfg, out = _copy_run(upstream, 2.0, tmp_path)
    path = os.path.join(out, name)
    _rewrite(path, edit)
    capsys.readouterr()
    assert _run(["converge", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    command = name.split("_")[0].split(".")[0]
    assert path in err and words in err, err
    assert f"re-run bh {command}" in err, err


# ---------------------------------------------------------------------------
# verify reads the artifacts
# ---------------------------------------------------------------------------

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")

_COMMON_CHECKS = ["periodic_pairs_exact", "interface_normal_orientation",
                  "compatibility_residuals", "cell_energy_dissipation",
                  "instantaneous_tensor_coercive"]
_MICRO_CHECKS = ["micro_energy_dissipation", "micro_dirichlet_exact",
                 "tensor_serialization_deterministic"]
# each config's checks, in the order verify reports them
_CONFIG_CHECKS = {
    "disk_default": _COMMON_CHECKS + ["C0_vanishes_disconnected"]
    + _MICRO_CHECKS,
    "layered_kgt1": _COMMON_CHECKS + ["C0_class_property"] + _MICRO_CHECKS,
    "tube_klt1": _COMMON_CHECKS + ["C0_class_property"] + _MICRO_CHECKS,
}
_VERIFY_INPUTS = ["mesh.bhmesh", "cell.bhcell", "tensors.bhtens",
                  "micro_m2.bhsol", "micro_m4.bhsol"]


def _report_lines(out):
    with open(os.path.join(out, "verify_report.txt")) as fh:
        return fh.read().splitlines()


# tests/reference/<config>.json holds the numbers the configs' pipelines
# produced when it was written, in groups.  Every number must come back to
# REFERENCE_RTOL of max(|ref|, scale), with scale the magnitude of its
# group: the largest |value| in it; the tensors, B0 and Phi share one (the
# kernels are conductivities per unit time, on a unit horizon, and vanish
# on layered cells), and the compatibility residual takes the interface
# area (the report's tolerance over 1e-8), of which its flux is a part.
# The mesh digest and the study verdicts must be equal.  Earlier
# reorderings of the numerics moved these numbers by at most 5.3e-13; a
# change that moves them on purpose edits the reference file.
REFERENCE_DIR = os.path.join(os.path.dirname(__file__), "reference")
REFERENCE_RTOL = 1e-10


def _csv_columns(path):
    """The columns of a CSV artifact by header name, as strings, and its
    lines that are not rows (the study verdicts)."""
    with open(path) as fh:
        head, *lines = fh.read().splitlines()
    rows = [ln.split(", ") for ln in lines if ", " in ln]
    return ({col: [r[i] for r in rows]
             for i, col in enumerate(head.split(", "))},
            [ln for ln in lines if ", " not in ln])


def _reference_numbers(out):
    """The numbers a reference file pins, read from the run directory out:
    the tensors, B0 and Phi at the first, second, middle and last kernel
    levels, every CSV column, the micro energies, the largest
    compatibility residual and the mesh digest."""
    groups, verdicts = {}, {}

    def group(name, values, scale=None):
        values = {k: np.asarray(v, dtype=float) for k, v in values.items()}
        if scale is None:
            scale = max(float(np.abs(v).max()) for v in values.values())
        groups[name] = {"scale": scale,
                        "values": {k: v.tolist() for k, v in values.items()}}

    _, tens = formats.read_tensors(os.path.join(out, "tensors.bhtens"))
    last = len(tens["B0"]) - 1
    tensor_groups = {"tensors": {k: tens[k] for k in (
        "lambda0", "A0", "C0", "A_hom_klt1", "A_hom_kgt1") if k in tens}}
    for key in ("B0", "Phi"):
        tensor_groups[key] = {f"level {n}": tens[key][n]
                              for n in sorted({0, 1, last // 2, last})}
    scale = max(float(np.abs(v).max()) for vals in tensor_groups.values()
                for v in vals.values())
    for name, vals in tensor_groups.items():
        group(name, vals, scale)
    for name in ("macro_summary", "study_eps", "study_eta"):
        path = os.path.join(out, name + ".csv")
        if os.path.exists(path):
            cols, verdicts[name] = _csv_columns(path)
            for col, vals in cols.items():
                group(f"{name} {col}", {col: [float(v) for v in vals]})
    energies = {}
    for path in sorted(glob.glob(os.path.join(out, "micro_m*.bhsol"))):
        header, _ = formats.read_artifact(path, formats.SOLUTION)
        for key in cli._ENERGIES:
            energies.setdefault(key, {})[os.path.basename(path)] = float(
                header[key])
    for key, vals in energies.items():
        group(f"micro {key}", vals)
    cols, _ = _csv_columns(os.path.join(out, "compat_report.csv"))
    group("compat_report", {"residual_max": max(
        abs(float(r)) for r in cols["residual"])},
        scale=max(float(t) for t in cols["tolerance"]) / 1e-8)
    return {"mesh_sha256": formats.file_sha256(os.path.join(out, "mesh.bhmesh")),
            "verdicts": verdicts, "groups": groups}


def _reference_mismatches(ref, got):
    """The entries of got that miss the reference ref."""
    bad = [key for key in ("mesh_sha256", "verdicts") if got[key] != ref[key]]
    if set(got["groups"]) != set(ref["groups"]):
        bad.append("group names")
    for name, grp in ref["groups"].items():
        new = got["groups"].get(name, {"values": {}})["values"]
        for key, vals in grp["values"].items():
            r = np.asarray(vals)
            g = np.asarray(new.get(key, np.nan), dtype=float)
            tol = REFERENCE_RTOL * np.maximum(np.abs(r), grp["scale"])
            if g.shape != r.shape or not np.all(np.abs(g - r) <= tol):
                bad.append(f"{name}: {key}")
    return bad


@pytest.mark.parametrize("name", sorted(_CONFIG_CHECKS))
def test_cli_configs_run_end_to_end(name, tmp_path, monkeypatch, capsys):
    cfg, out = os.path.join(CONFIGS, name + ".ini"), str(tmp_path / "run")
    # the facet geometry is computed once per cell system and once per
    # micro tiling; tensors reuses the cell system cell built in this process
    calls, facet_geometry = [], fem.surface_gradients
    monkeypatch.setattr(fem, "surface_gradients",
                        lambda *a: calls.append(a) or facet_geometry(*a))
    counts = {}
    for cmd in UPSTREAM + ("converge", "verify"):
        before = len(calls)
        assert _run([cmd, "--config", cfg, "--out", out]) == 0, cmd
        counts[cmd] = len(calls) - before
    capsys.readouterr()
    assert counts["cell"] == 1 and counts["tensors"] == 0
    assert counts["micro"] == len(load_config(cfg).eps_list)
    lines = _report_lines(out)
    assert lines[-1] == "result: all checks passed"
    assert [ln.split(":")[0] for ln in lines[:-1]] == [
        "PASS " + check for check in _CONFIG_CHECKS[name]]
    with open(os.path.join(REFERENCE_DIR, name + ".json")) as fh:
        ref = json.load(fh)
    got = _reference_numbers(out)
    bad = _reference_mismatches(ref, got)
    assert not bad, (f"{name} misses its reference in {bad}; the new "
                     f"values:\n{json.dumps(got, indent=1)}")


def test_cli_verify_lists_the_files_read(upstream, tmp_path, capsys):
    cfg, out = _copy_run(upstream, 2.0, tmp_path)
    assert _run(["verify", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert [name for name, _ in _manifest_inputs(out, "verify")] == [
        os.path.basename(cfg)] + _VERIFY_INPUTS


def _negate_level_2(levels):
    levels = levels.copy()
    levels[2] = -levels[2]
    return levels


def _change_first_entry(line):
    t, first, rest = line.split(", ", 2)
    return [", ".join([t, formats._F % (1.5 * float(first) + 1e-3), rest])]


def _negate_normal(line):
    """A facet row (dim ids, component, dim normal entries) with its normal
    negated."""
    tokens = line.split()
    dim = (len(tokens) - 1) // 2
    return [" ".join(tokens[:dim + 1] + [formats._F % -float(v)
                                         for v in tokens[dim + 1:]])]


@pytest.mark.parametrize("name, edit, check", [
    ("micro_m2.bhsol", _reshaped("micro", _negate_level_2),
     "micro_energy_dissipation"),
    ("tensors.bhtens", _edit_line("t, B11", _change_first_entry, 2),
     "tensor_serialization_deterministic"),
    ("mesh.bhmesh", _edit_line("facets ", _negate_normal, 1),
     "interface_normal_orientation"),
], ids=["micro-level-negated", "tensors-B0-entry", "mesh-normal-negated"])
def test_cli_verify_catches_tampered_artifact(upstream, tmp_path, capsys,
                                              name, edit, check):
    # each edit carries a valid checksum, so only the check that reads the
    # edited values can notice it
    cfg, out = _copy_run(upstream, 2.0, tmp_path)
    _rewrite(os.path.join(out, name), edit)
    assert _run(["verify", "--config", cfg, "--out", out]) == 1
    capsys.readouterr()
    failed = [ln for ln in _report_lines(out) if ln.startswith("FAIL ")]
    assert [ln.split(":")[0] for ln in failed] == ["FAIL " + check]
    assert [name for name, _ in _manifest_inputs(out, "verify")] == [
        os.path.basename(cfg)] + _VERIFY_INPUTS
    if name == "mesh.bhmesh":  # the stored normals feed no solve
        assert _run(["cell", "--config", cfg, "--out", out]) == 0


def _pair_off_by_one_ulp(cfg, out):
    """mesh.bhmesh with the high vertex of the first periodic pair off the
    interface moved one ulp toward its partner, well inside the 1e-12 that
    a tiling allows."""
    _, data = formats.read_mesh(os.path.join(out, "mesh.bhmesh"))
    _, high, axis = next(p for p in data["pairs"]
                         if p[1] not in data["facets"])
    coords = data["vertices"][high].copy()
    coords[axis] = np.nextafter(coords[axis], 0.0)

    def edit(lines):
        i = lines.index(f"vertices {len(data['vertices'])}") + 1 + high
        row = " ".join(formats._F % c for c in coords)
        return lines[:i] + [row] + lines[i + 1:]
    return "mesh.bhmesh", edit


def _chi0_raised_off_the_interface(cfg, out):
    """cell.bhcell with chi0^1 raised by 1e-6 at the outer dof off the
    interface whose value moves a component's flux most.  A dof off the
    interface carries no directional load, so the tensor routes stay within
    their tolerances."""
    conf = load_config(cfg)
    mesh, surf, _ = cli._load_cell_mesh(conf, cli._paths(out))
    sub = cell.CellSystem(mesh, surf, conf.coeffs).sub[geometry.PHASE_OUT]
    flux = np.abs([sub.K[g].sum(axis=0).A1 for g in sub.gamma_sub]).max(0)
    flux[sub.fixed] = 0.0
    dof = sub.dofs[np.argmax(flux)]

    def change(chi0):
        chi0 = chi0.copy()
        chi0[0, dof] += 1e-6
        return chi0
    return "cell.bhcell", _reshaped("chi0", change)


def _chi1_level_2_raised(cfg, out):
    """cell.bhcell with level 2 of chi1^1 scaled by 1.5 and one of its trace
    values raised by 1e-3: the layered traces are constant along the
    interface, with no surface energy to scale."""
    def change(chi1):
        chi1 = chi1.copy()
        chi1[0, 2] *= 1.5
        chi1[0, 2, chi1.shape[2] // 2] += 1e-3
        return chi1
    return "cell.bhcell", _reshaped("chi1", change)


def _raise_entry_12(line):
    """A tensor line with its (1, 2) entry raised by 1."""
    name, first, second, rest = line.split(" ", 3)
    return [" ".join([name, first, formats._F % (float(second) + 1.0), rest])]


def _micro_file(cfg, out, change, pick=min):
    """The micro solution of the eps that pick chooses from eps_list (the
    smallest by default), with change applied to its levels and to its
    tiling."""
    conf = load_config(cfg)
    mesh, surf, _ = cli._load_cell_mesh(conf, cli._paths(out))
    eps = pick(conf.eps_list)
    tiled = cli._tiling(conf, mesh, surf, eps)
    return os.path.basename(cli._micro_path(out, eps)), _reshaped(
        "micro", lambda levels: change(levels.copy(), tiled))


def _negate_finest_level_2(levels, tiled):
    levels[2] = -levels[2]
    return levels


def _set_a_finest_boundary_value(levels, tiled):
    # far below what moves a step energy by 1e-10
    levels[-1, tiled.boundary_vertices[0]] = 1e-30
    return levels


def _interior_field_at_level_2(levels, tiled):
    # every level of disk_default's eps = 1/2 solution is zero (both tiles
    # stripped, so no interface, and f = zero): each step's load is zero,
    # and negating a level would flip only the signs of zeros
    assert not np.any(levels)
    levels[2] = sin_product(tiled.vertices)
    levels[2, tiled.boundary_vertices] = 0.0
    return levels


# check -> an edit (cfg path, run directory) -> (artifact, edit of its body
# lines) that fails the check: one for each line verify writes
_TAMPERS = {
    "periodic_pairs_exact": _pair_off_by_one_ulp,
    "interface_normal_orientation": lambda cfg, out: (
        "mesh.bhmesh", _edit_line("facets ", _negate_normal, 1)),
    "compatibility_residuals": _chi0_raised_off_the_interface,
    "cell_energy_dissipation": _chi1_level_2_raised,
    "instantaneous_tensor_coercive": lambda cfg, out: (
        "tensors.bhtens", _edit_line("A0 ", _raise_entry_12, 0)),
    "C0_vanishes_disconnected": lambda cfg, out: (
        "tensors.bhtens", _edit_line("C0 ", _raise_entry_12, 0)),
    "C0_class_property": lambda cfg, out: (
        "tensors.bhtens", _edit_line("C0 ", _raise_entry_12, 0)),
    "micro_energy_dissipation": lambda cfg, out: _micro_file(
        cfg, out, _negate_finest_level_2),
    "micro_dirichlet_exact": lambda cfg, out: _micro_file(
        cfg, out, _set_a_finest_boundary_value),
    "tensor_serialization_deterministic": lambda cfg, out: (
        "tensors.bhtens", _edit_line("t, B11", _change_first_entry, 2)),
}
# the edits that also fail tensor_serialization_deterministic, on the
# configs where they do: every edit of the stored tensors, of chi1, and of
# chi0 where the k < 1 tensor reads it off the interface; the moved vertex
# moves the rebuilt 2D tensors in their last bits
_ALSO_REBUILT = {
    "periodic_pairs_exact": {"disk_default", "layered_kgt1"},
    "compatibility_residuals": {"disk_default"},
    "cell_energy_dissipation": set(_CONFIG_CHECKS),
    "instantaneous_tensor_coercive": set(_CONFIG_CHECKS),
    "C0_vanishes_disconnected": set(_CONFIG_CHECKS),
    "C0_class_property": set(_CONFIG_CHECKS),
}


@pytest.mark.parametrize("name, check, tamper", [
    pytest.param(name, check, _TAMPERS[check], id=f"{name}-{check}")
    for name in sorted(_CONFIG_CHECKS) for check in _CONFIG_CHECKS[name]] + [
    # a step whose load is zero is judged too
    pytest.param("disk_default", "micro_energy_dissipation",
                 lambda cfg, out: _micro_file(cfg, out,
                                              _interior_field_at_level_2, max),
                 id="disk_default-micro_energy_dissipation-zero-load")])
def test_cli_verify_line_fails_on_a_tampered_artifact(config_run, tmp_path,
                                                      capsys, name, check,
                                                      tamper):
    # one edit of one artifact, under a valid checksum, that no reader and
    # no tensor route refuses: the check reading the edited values fails,
    # and so do exactly the checks listed with it
    cfg, run = config_run(name)
    out = str(tmp_path / "run")
    shutil.copytree(run, out)
    artifact, edit = tamper(cfg, out)
    _rewrite(os.path.join(out, artifact), edit)
    assert _run(["verify", "--config", cfg, "--out", out]) == 1
    assert "verification failed" in capsys.readouterr().err
    failed = {ln.split(":")[0] for ln in _report_lines(out)
              if ln.startswith("FAIL ")}
    want = {check} | ({"tensor_serialization_deterministic"}
                      if name in _ALSO_REBUILT.get(check, ()) else set())
    assert failed == {"FAIL " + c for c in want}


def test_cli_verify_without_micro_exits_3(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    for cmd in ("mesh", "cell", "tensors"):
        assert _run([cmd, "--config", tiny_cfg, "--out", out]) == 0
    capsys.readouterr()
    assert _run(["verify", "--config", tiny_cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "micro_m2.bhsol" in err and "re-run bh micro" in err, err


def test_cli_verify_solves_no_pipeline_stage(upstream, tmp_path,
                                             monkeypatch, capsys):
    cfg, out = _copy_run(upstream, 2.0, tmp_path)
    calls = []
    for module, name in ((micro, "solve_micro"),
                         (micro, "solve_membrane"),
                         (cell, "solve_cell_functions"),
                         (cell, "evolve_surface_coupled"),
                         (cell, "solve_chi0"),
                         (cell, "solve_chi0_tilde"),
                         (macro, "solve_homogenized_memory"),
                         (macro, "solve_homogenized_elliptic")):
        def counting(*args, _orig=getattr(module, name), **kw):
            calls.append(_orig.__name__)
            return _orig(*args, **kw)

        monkeypatch.setattr(module, name, counting)
    assert _run(["verify", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert calls == []


DISK_KLT1_INI = """\
[geometry]
kind = Disk2D
r0 = 0.25
h = 0.1

[coefficients]
lambda_int = 1.0
lambda_out = 3.0
alpha = 1.0
k = 0.5

[kernel]
t_end = 0.2
dt = 0.05

[macro]
t_end = 0.2
dt = 0.05
n = 8

[data]
u0 = zero
f = sin-product

[study]
eps_list = 0.5
eta_list = 0.2

[output]
dir = out
"""


@pytest.fixture(scope="module")
def disk_klt1(tmp_path_factory):
    """(config path, run directory) of a coarse disk cell at k = 0.5 after
    mesh, cell, tensors and micro; callers copy the directory."""
    base = tmp_path_factory.mktemp("disk_klt1")
    cfg = base / "disk.ini"
    cfg.write_text(DISK_KLT1_INI)
    out = str(base / "run")
    for cmd in ("mesh", "cell", "tensors", "micro"):
        assert _run([cmd, "--config", str(cfg), "--out", out]) == 0
    return str(cfg), out


@pytest.mark.parametrize("command", ["macro", "verify"])
def test_cli_missing_klt1_tensor_exits_3(disk_klt1, tmp_path, capsys,
                                         command):
    cfg, out = disk_klt1[0], str(tmp_path / "run")
    shutil.copytree(disk_klt1[1], out)
    path = os.path.join(out, "tensors.bhtens")
    _rewrite(path, _edit_line("A_hom_klt1 ", lambda ln: [], 0))
    capsys.readouterr()
    assert _run([command, "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("artifact error:") and "Traceback" not in err
    assert path in err and "re-run bh tensors" in err, err


# ---------------------------------------------------------------------------
# a process reuses the cell mesh and the cell system it made last
# ---------------------------------------------------------------------------

def _array_fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


@pytest.mark.parametrize("name", sorted(_CONFIG_CHECKS))
def test_cli_mesh_keeps_what_a_load_derives(name, tmp_path):
    # Disk2D, Layered2D and TubeLattice3D: the mesh and interface bh mesh
    # built equal those a load of the written file derives
    cfg, out = os.path.join(CONFIGS, name + ".ini"), str(tmp_path / "run")
    assert _run(["mesh", "--config", cfg, "--out", out]) == 0
    key, (header, mesh, surf, data) = cli._reused.pop("mesh")
    loaded = cli._load_cell_mesh(load_config(cfg), cli._paths(out))
    assert cli._reused["mesh"][0] == key
    assert cli._reused["mesh"][1][0] == header
    pairs = [(data, loaded[2]), (_array_fields(mesh), _array_fields(loaded[0])),
             (_array_fields(surf), _array_fields(loaded[1])),
             ({"volumes": mesh.vols}, {"volumes": loaded[0].vols})]
    for kept, got in pairs:
        assert kept.keys() == got.keys()
        for field, vals in kept.items():
            assert vals.dtype == got[field].dtype, field
            assert vals.shape == got[field].shape, field
            assert np.array_equal(vals, got[field]), field
            assert not vals.flags.writeable and not got[field].flags.writeable


def _move_vertex(lines):
    """The first vertex with both coordinates in (0.05, 0.2), moved by 0.02
    along x: inside the cell and off the interface of the tiny layers."""
    i = lines.index(next(ln for ln in lines if ln.startswith("vertices ")))
    for k, ln in enumerate(lines[i + 1:], start=i + 1):
        x, y = map(float, ln.split())
        if 0.05 < x < 0.2 and 0.05 < y < 0.2:
            return lines[:k] + [formats._F % (x + 0.02) + " " + formats._F % y] \
                + lines[k + 1:]
    raise AssertionError("no vertex to move")


def test_cli_rewritten_mesh_is_loaded_again(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    path, cell_path = (os.path.join(out, name)
                       for name in ("mesh.bhmesh", "cell.bhcell"))
    assert _run(["mesh", "cell", "--config", tiny_cfg, "--out", out]) == 0
    before = formats.file_sha256(cell_path)
    with open(path) as fh:
        text = fh.read()
    _rewrite(path, _edit_line("vertices ", lambda ln: [], 1))
    capsys.readouterr()
    assert _run(["cell", "--config", tiny_cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("artifact error:") and "malformed" in err, err

    with open(path, "w") as fh:
        fh.write(text)
    _rewrite(path, _move_vertex)
    assert _run(["cell", "--config", tiny_cfg, "--out", out]) == 0
    # the same file in a process that holds nothing
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(path, fresh)
    cli._reused.clear()
    assert _run(["cell", "--config", tiny_cfg, "--out", str(fresh)]) == 0
    assert formats.file_sha256(cell_path) == formats.file_sha256(
        str(fresh / "cell.bhcell")) != before


def _flip_first_element(lines):
    """The first element with its first two vertex ids swapped, which makes
    its volume negative."""
    i = lines.index(next(ln for ln in lines if ln.startswith("elements "))) + 1
    a, b, rest = lines[i].split(" ", 2)
    return lines[:i] + [f"{b} {a} {rest}"] + lines[i + 1:]


def _stretch_high_x_face(lines):
    """Every vertex on the face x = 1 moved out to x = 1 + 1e-9: the cell of
    unit height grows by 1e-9 in area."""
    i = lines.index(next(ln for ln in lines if ln.startswith("vertices ")))
    n = int(lines[i].split()[1])
    rows = [formats._F % (1.0 + 1e-9) + ln[ln.index(" "):]
            if float(ln.split()[0]) == 1.0 else ln
            for ln in lines[i + 1:i + 1 + n]]
    return lines[:i + 1] + rows + lines[i + 1 + n:]


@pytest.mark.parametrize("edit, negative, total", [
    (_flip_first_element, True, None),
    (_stretch_high_x_face, False, 1.0 + 1e-9)],
    ids=["negative-element", "volume-1e-9-over"])
def test_cli_mesh_that_does_not_tile_exits_3(tiny_cfg, tmp_path, capsys,
                                             edit, negative, total):
    # the one check of the stored cell's volumes is the refusal in
    # _load_cell_mesh: every element positive, the sum 1 to 1e-12
    out = str(tmp_path / "run")
    path = os.path.join(out, "mesh.bhmesh")
    assert _run(["mesh", "--config", tiny_cfg, "--out", out]) == 0
    _rewrite(path, edit)
    data = formats.read_mesh(path)[1]
    vols = geometry.simplex_volumes(data["vertices"], data["simplices"])
    assert (vols.min() < 0.0) == negative
    assert total is None or abs(vols.sum() - total) < 1e-13
    code, err = _bh_in_process("cell", tiny_cfg, out, capsys)
    assert code == 3, err
    assert err.startswith("artifact error:")
    assert "does not tile the unit cell" in err


def test_cli_deleted_mesh_is_missing(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert _run(["mesh", "cell", "--config", tiny_cfg, "--out", out]) == 0
    os.remove(os.path.join(out, "mesh.bhmesh"))
    capsys.readouterr()
    assert _run(["tensors", "--config", tiny_cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("artifact error: missing artifact"), err
    assert "re-run bh mesh" in err


def test_cli_reuse_is_keyed_by_file_and_coefficients(tiny_cfg, tmp_path,
                                                      monkeypatch, capsys):
    first, second = str(tmp_path / "first"), tmp_path / "second"
    assert _run(["mesh", "cell", "--config", tiny_cfg, "--out", first]) == 0
    cfg = load_config(tiny_cfg)
    mesh, surf, _ = cli._load_cell_mesh(cfg, cli._paths(first))
    kept = cli._cell_system(cfg, mesh, surf)
    assert kept is cli._cell_system(cfg, mesh, surf)
    other_ini = tmp_path / "other.ini"
    other_ini.write_text(TINY_INI.replace("lambda_int = 1.0",
                                          "lambda_int = 2.0"))
    other = load_config(str(other_ini))
    built = cli._cell_system(other, mesh, surf)
    assert built is not kept and built.coeffs == other.coeffs
    assert cli._cell_system(cfg, mesh, surf) not in (kept, built)
    # the kept mesh still carries its config in its header
    capsys.readouterr()
    assert _run(["cell", "--config", str(other_ini), "--out", first]) == 3
    assert "different config" in capsys.readouterr().err

    # the same bytes at another path are read again
    reads, systems = [], []
    read_mesh, system = formats.read_mesh, cell.CellSystem
    monkeypatch.setattr(formats, "read_mesh",
                        lambda *a: reads.append(a) or read_mesh(*a))
    monkeypatch.setattr(cell, "CellSystem",
                        lambda *a: systems.append(a) or system(*a))
    second.mkdir()
    shutil.copy(os.path.join(first, "mesh.bhmesh"), second)
    assert _run(["cell", "--config", tiny_cfg, "--out", str(second)]) == 0
    assert (len(reads), len(systems)) == (1, 1)
    assert _run(["cell", "tensors", "--config", tiny_cfg,
                 "--out", str(second)]) == 0
    assert (len(reads), len(systems)) == (1, 1)


def test_cli_chain_in_process_matches_a_process_per_command(tiny_cfg,
                                                            tmp_path, capsys):
    chained, fresh = str(tmp_path / "chained"), str(tmp_path / "fresh")
    assert _run(list(CHAIN) + ["--config", tiny_cfg, "--out", chained]) == 0
    for cmd in CHAIN:
        proc = _subprocess_bh(cmd, tiny_cfg, fresh)
        assert proc.returncode == 0, proc.stderr
    capsys.readouterr()
    got = _digests(chained)
    assert {"study_eps.csv", "verify_report.txt"} <= set(got)
    assert got == _digests(fresh)
