"""Micro and membrane solvers, local averaging, study drivers.

The tests here are structural: exact Dirichlet rows, dissipated surface
and band energies, the pinned membrane band, quasi-static collapse without
interfaces, the solver chosen by dimension, P1-exact cell averages.
The one march both solvers share is pinned to the former solve_micro and
solve_membrane in tests/test_equivalence.py.
"""
import dataclasses
import pathlib
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from bh import cell, cli, fem, geometry, micro
from bh.config import load_config
from bh.errors import (MissingArtifact, SingularSystem, SolverFailure,
                       WrongGeometryClass)
from bh.geometry import (PHASE_MEMBRANE, build_membrane_cell, build_unit_cell,
                         tile_micro_domain)
from bh.timegrid import TimeGrid

from conftest import micro_surface_energy, sin_product

DISK_INI = """[geometry]
kind = Disk2D
r0 = 0.25
h = 0.04

[coefficients]
lambda_int = 1.0
lambda_out = 3.0
alpha = 1.0
k = 1.0

[kernel]
t_end = 0.2
dt = 0.05

[macro]
t_end = 0.2
dt = 0.05
n = 8

[data]
u0 = sin-product
f = sin-product

[study]
eps_list = 0.5, 0.25
"""


@pytest.fixture(scope="module")
def disk_tiled(disk):
    return tile_micro_domain(disk.mesh, disk.surf.facets, 0.5, False)


@pytest.fixture(scope="module")
def disk_run(disk, disk_tiled):
    mesh, _ = disk_tiled
    return micro.MicroRun(mesh=mesh, coeffs=disk.coeffs, k=1.0,
                          grid=TimeGrid(0.2, 0.02), u0_bar=sin_product)


@pytest.fixture(scope="module")
def disk_field(disk_run):
    return micro.solve_micro(disk_run)


# ---------------------------------------------------------------------------
# micro marches
# ---------------------------------------------------------------------------

def test_micro_dirichlet_rows_exact(disk_field, disk_tiled):
    mesh, _ = disk_tiled
    assert np.all(disk_field.levels[:, mesh.boundary_vertices] == 0.0)


def test_micro_surface_energy_dissipates(disk, disk_run, disk_field):
    se = micro_surface_energy(disk_run, disk_field.levels)
    assert se[0] > 0.0
    assert cell.energy_nonincreasing(se)
    assert se[-1] < se[0]
    # energy_surface is the peak over all levels, without the alpha weight
    assert disk_field.diagnostics["energy_surface"] == pytest.approx(
        se.max() / disk.coeffs.alpha, rel=1e-14)


def test_micro_rejects_membrane_mesh(disk):
    bc, bs = build_membrane_cell(disk.spec, 0.2)
    bm, _ = tile_micro_domain(bc, bs.facets, 0.5, False)
    run = micro.MicroRun(mesh=bm, coeffs=disk.coeffs, k=1.0,
                         grid=TimeGrid(0.1, 0.05), u0_bar=sin_product)
    with pytest.raises(WrongGeometryClass):
        micro.solve_micro(run)


def test_interface_free_mesh_is_quasi_static(disk):
    # stripping at eps = 1/2 removes every inclusion; the initial datum
    # enters only through its interface trace, so the whole march is the
    # trivial steady state of the source-free conduction problem
    mesh, _ = tile_micro_domain(disk.mesh, disk.surf.facets, 0.5, True)
    run = micro.MicroRun(mesh=mesh, coeffs=disk.coeffs, k=0.0,
                         grid=TimeGrid(0.1, 0.05), u0_bar=sin_product)
    fld = micro.solve_micro(run)
    assert np.abs(fld.levels).max() == 0.0
    assert fld.diagnostics["energy_surface"] == 0.0


def test_micro_scaling_exponent_enters(disk_tiled, disk):
    # larger k weakens the surface term at eps < 1, so trajectories differ
    mesh, _ = disk_tiled
    grid = TimeGrid(0.1, 0.05)
    f0 = micro.solve_micro(micro.MicroRun(mesh=mesh, coeffs=disk.coeffs,
                                          k=0.0, grid=grid, u0_bar=sin_product))
    f2 = micro.solve_micro(micro.MicroRun(mesh=mesh, coeffs=disk.coeffs,
                                          k=2.0, grid=grid, u0_bar=sin_product))
    assert np.abs(f0.levels[-1] - f2.levels[-1]).max() > 1e-6


# ---------------------------------------------------------------------------
# step solver policy
# ---------------------------------------------------------------------------

@pytest.fixture
def built_solvers(monkeypatch):
    """(thread, name) of the fem solvers constructed, in order; a
    substructured factor is listed before the factors it builds."""
    built = []
    for name in ("DirichletFactor", "CGSolver", "SubstructuredFactor"):
        def counting(*args, _cls=getattr(fem, name), _name=name):
            built.append((threading.get_ident(), _name))
            return _cls(*args)
        monkeypatch.setattr(fem, name, counting)
    return built


def per_thread(built):
    """The names in built_solvers, one list for each thread that built."""
    lists = {}
    for thread, name in built:
        lists.setdefault(thread, []).append(name)
    return list(lists.values())


# one tile type at eps = 1/2 without stripping: its interior factor, then
# the skeleton factor
SUBSTRUCTURED = ["SubstructuredFactor", "DirichletFactor", "DirichletFactor"]


def test_micro_step_solver_follows_dimension(built_solvers, monkeypatch,
                                             disk, disk_tiled, tube):
    # without an initial datum the solvers built are the step solver's; with
    # one the harmonic start builds one more of the same kind, on a thread
    # of its own, so the 3D tiling (3,349 dofs) builds no factor at all
    monkeypatch.setattr(micro, "cpus", lambda: 2)
    solver = micro._solver
    tube_tiled, _ = tile_micro_domain(tube.mesh, tube.surf.facets, 0.5,
                                      False)
    cases = ((disk_tiled[0], disk.coeffs, SUBSTRUCTURED),
             (tube_tiled, tube.coeffs, ["CGSolver"]))
    for mesh, coeffs, expected in cases:
        for u0, n in ((None, 1), (sin_product, 2)):
            # the builds meet before they start, so a fast harmonic start
            # cannot hand its pool thread on to the step build
            def meeting(*args, _builds=threading.Barrier(n, timeout=30)):
                _builds.wait()
                return solver(*args)

            monkeypatch.setattr(micro, "_solver", meeting)
            built_solvers.clear()
            micro.solve_micro(micro.MicroRun(
                mesh=mesh, coeffs=coeffs, k=1.0, grid=TimeGrid(0.1, 0.05),
                u0_bar=u0))
            assert per_thread(built_solvers) == n * [expected]


def test_membrane_step_solver_follows_dimension(built_solvers, disk):
    bc, bs = build_membrane_cell(disk.spec, 0.2)
    bm, _ = tile_micro_domain(bc, bs.facets, 0.5, False)
    micro.solve_membrane(micro.MembraneRun(mesh=bm, coeffs=disk.coeffs,
                                           grid=TimeGrid(0.1, 0.05)))
    assert per_thread(built_solvers) == [SUBSTRUCTURED]


def test_march_computes_each_layout_and_phase_stiffness_once(monkeypatch,
                                                            disk):
    # the harmonic start and the steps share their tiling's substructure,
    # and both tilings of a cell share its phase stiffness matrices
    layouts, analysed, assembled = [], [], []
    original = fem.SubstructuredFactor

    def recording(K, fixed, layout, patterns):
        layouts.append(layout)
        return original(K, fixed, layout, patterns)

    def counting(fn, calls):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fem, "SubstructuredFactor", recording)
    monkeypatch.setattr(geometry, "_substructure",
                        counting(geometry._substructure, analysed))
    monkeypatch.setattr(fem, "element_gradients",
                        counting(fem.element_gradients, assembled))
    cell_mesh = dataclasses.replace(disk.mesh)   # nothing cached on it yet
    for eps in (0.5, 0.25):
        tiled, _ = tile_micro_domain(cell_mesh, disk.surf.facets, eps, False)
        micro.solve_micro(micro.MicroRun(
            mesh=tiled, coeffs=disk.coeffs, k=1.0, grid=TimeGrid(0.1, 0.05),
            u0_bar=sin_product))
        assert len(layouts) == 2 and layouts[0] is layouts[1]
        assert layouts[0] is tiled.substructure
        layouts.clear()
    assert len(analysed) == 2 and len(assembled) == 1


def test_concurrently_raises_the_first_failure_in_call_order(monkeypatch):
    # the second call fails first and the third ends last; the first call's
    # error is raised once every call has ended
    monkeypatch.setattr(micro, "cpus", lambda: 3)
    second_failed, ended = threading.Event(), []

    def first():
        assert second_failed.wait(timeout=60)
        raise SolverFailure("first")

    def second():
        second_failed.set()
        raise SolverFailure("second")

    def third():
        assert second_failed.wait(timeout=60)
        time.sleep(0.05)
        ended.append(3)

    with pytest.raises(SolverFailure, match="first"):
        micro._concurrently(first, second, third)
    assert ended == [3]
    assert micro._concurrently(lambda: 1, lambda: 2, lambda: 3) == [1, 2, 3]


def test_threads_sharing_a_fresh_tiling_solve_it_bitwise(monkeypatch, disk):
    # four threads, more than the host has cores, solve one run whose
    # tiling's layout and cell's phase stiffness are cached by the first
    # thread to read them; each gets the levels of a solve on one thread
    def fresh_run():
        cell_mesh = dataclasses.replace(disk.mesh)   # nothing cached on it yet
        tiled, _ = tile_micro_domain(cell_mesh, disk.surf.facets, 0.25, False)
        return micro.MicroRun(mesh=tiled, coeffs=disk.coeffs, k=1.0,
                              grid=TimeGrid(0.1, 0.05), u0_bar=sin_product)

    monkeypatch.setattr(micro, "cpus", lambda: 1)
    expected = micro.solve_micro(fresh_run()).levels.tobytes()
    monkeypatch.undo()
    run, found = fresh_run(), [None] * 4

    def solve(i):
        found[i] = micro.solve_micro(run).levels.tobytes()

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert found == [expected] * 4
    assert "substructure" in vars(run.mesh)
    assert "phase_stiffness" in vars(run.mesh.cell)


def test_step_solver_ignores_dof_count(built_solvers):
    # 100 tiles of 700 dofs that no tile shares (70,000 free dofs) are
    # substructured in 2D; a 10-dof system runs CG in 3D
    large = sp.identity(70001, format="csr")
    tiles = np.arange(1, 70001).reshape(100, 700)
    tiling = SimpleNamespace(dim=2, phase=np.zeros(100, dtype=np.int64),
                             local_global=tiles,
                             substructure=geometry._substructure(tiles))
    micro._solver(large, np.array([0]), tiling)
    small = sp.identity(10, format="csr")
    micro._solver(small, np.array([0]), SimpleNamespace(dim=3))
    assert per_thread(built_solvers) == [SUBSTRUCTURED + ["CGSolver"]]


@pytest.mark.parametrize("solver", ["SubstructuredFactor", "CGSolver"])
@pytest.mark.parametrize("name", ["disk", "tube"])
def test_step_solve_without_fixed_values_matches_zero_values(request, name,
                                                             solver):
    # solve(b) leaves out the product with the fixed values that
    # solve(b, zeros) forms; the two give the same bits.  Each solve gets a
    # solver of its own, so that no CG solve is warm started by the other.
    b = request.getfixturevalue(name)
    tiled, _ = tile_micro_domain(b.mesh, b.surf.facets, 0.5, False)
    K, S1, c, boundary = micro._micro_operators(micro.MicroRun(
        mesh=tiled, coeffs=b.coeffs, k=1.0, grid=TimeGrid(0.1, 0.05)))[:4]
    M = (K + c * S1).tocsr()

    def build():
        if solver == "CGSolver":
            return fem.CGSolver(M, boundary)
        return fem.SubstructuredFactor(
            M, boundary, tiled.substructure,
            tiled.phase.reshape(len(tiled.local_global), -1))

    rhs = np.random.default_rng(3).standard_normal(len(tiled.vertices))
    x = build().solve(rhs)
    x_zeros = build().solve(rhs, np.zeros(len(boundary)))
    assert np.abs(x).max() > 0.0
    assert np.array_equal(x.view(np.int64), x_zeros.view(np.int64))


def test_micro_stage_builds_no_whole_domain_factor(monkeypatch, tmp_path,
                                                   disk):
    # every factor bh micro builds on a 2D tiling is a tile interior or a
    # skeleton, never the whole domain
    free = []
    original = fem.DirichletFactor

    def recording(*args, **kwargs):
        fac = original(*args, **kwargs)
        free.append(len(fac.free))
        return fac

    monkeypatch.setattr(fem, "DirichletFactor", recording)
    cfg = tmp_path / "disk.ini"
    cfg.write_text(DISK_INI)
    out = str(tmp_path / "run")
    assert cli.main(["mesh", "--config", str(cfg), "--out", out]) == 0
    assert cli.main(["micro", "--config", str(cfg), "--out", out]) == 0

    V = disk.mesh.vertices
    interior = int(np.all((V > 0.0) & (V < 1.0), axis=1).sum())
    skeleton = whole = 0
    for eps in (0.5, 0.25):
        tiled, _ = tile_micro_domain(disk.mesh, disk.surf.facets, eps, True)
        m = round(1.0 / eps)
        W = tiled.vertices * m
        on_grid = np.any(np.abs(W - np.round(W)) < 1e-9, axis=1)
        n_boundary = len(tiled.boundary_vertices)
        skeleton = max(skeleton, int(on_grid.sum()) - n_boundary)
        whole = max(whole, len(tiled.vertices) - n_boundary)
    assert free and max(free) <= max(interior, skeleton)
    assert max(interior, skeleton) < whole / 10


def test_cli_micro_and_converge_take_element_geometry_from_the_cell(
        tmp_path, monkeypatch):
    # every element gradient and simplex volume that micro and converge
    # compute is one of a cell mesh, plain or membrane, or of the macro grid
    # (8 x 8 squares here, fewer elements than the cell), never of a tiling
    cfg = tmp_path / "disk.ini"
    cfg.write_text(DISK_INI)
    out = str(tmp_path / "run")
    for command in ("mesh", "cell", "tensors", "macro"):
        assert cli.main([command, "--config", str(cfg), "--out", out]) == 0
    rows = []

    def recording(fn):
        def wrapped(vertices, simplices, *args, **kwargs):
            rows.append(len(simplices))
            return fn(vertices, simplices, *args, **kwargs)
        return wrapped

    volumes = recording(geometry.simplex_volumes)
    monkeypatch.setattr(geometry, "simplex_volumes", volumes)
    monkeypatch.setattr(fem, "simplex_volumes", volumes)
    monkeypatch.setattr(fem, "element_gradients",
                        recording(fem.element_gradients))
    for command in ("micro", "converge"):
        assert cli.main([command, "--config", str(cfg), "--out", out]) == 0
    monkeypatch.undo()

    config = load_config(str(cfg))
    cells = [build_unit_cell(config.geometry)[0]] + [
        build_membrane_cell(config.geometry, eta)[0]
        for eta in config.eta_list]
    largest = max(len(c.simplices) for c in cells)
    assert rows and max(rows) <= largest
    assert 4 * len(cells[0].simplices) > largest     # a tiling is larger


def test_tile_off_its_type_fails_the_march(disk):
    # the last tile's interior block no longer equals that of its type's
    # representative, the first tile: the residual check of the whole
    # reduced system rejects the solve, and the march reports its step
    tiled, _ = tile_micro_domain(disk.mesh, disk.surf.facets, 0.25, False)
    n = len(tiled.vertices)
    K = fem.assemble_stiffness(
        fem.element_gradients(tiled.vertices, tiled.simplices),
        tiled.simplices, np.ones(len(tiled.simplices)),
        fem.identity_dof_map(n), n)
    tiles = tiled.local_global
    shared = np.bincount(tiles.ravel())[tiles] > 1
    dof = tiles[-1, np.flatnonzero(~shared.any(axis=0))[0]]
    bump = sp.csr_matrix(([1.0], ([dof], [dof])), shape=K.shape)
    boundary = np.unique(tiled.boundary_vertices)
    zeros = np.zeros(len(boundary))

    exact = micro._solver(K, boundary, tiled).solve(np.ones(n), zeros)
    assert np.abs(exact).max() > 0.0
    with pytest.raises(SingularSystem, match="relative residual"):
        micro._solver(K + bump, boundary, tiled).solve(np.ones(n), zeros)
    with pytest.raises(SolverFailure,
                       match="march step 1 failed: relative residual"):
        micro._march(K, bump, 1.0, boundary, np.empty(0, dtype=np.int64),
                     None, TimeGrid(0.1, 0.05), tiled, K,
                     load=np.ones(n))


def test_no_dof_count_solver_limit_left():
    root = pathlib.Path(__file__).resolve().parents[1]
    name = "_SPLU_" + "DOF_LIMIT"
    for sub in ("src", "tests"):
        for path in (root / sub).rglob("*.py"):
            assert name not in path.read_text(), path


# ---------------------------------------------------------------------------
# membrane marches
# ---------------------------------------------------------------------------

def test_membrane_march_dissipates(disk):
    bc, bs = build_membrane_cell(disk.spec, 0.2)
    bm, _ = tile_micro_domain(bc, bs.facets, 0.5, False)
    fld = micro.solve_membrane(micro.MembraneRun(mesh=bm, coeffs=disk.coeffs,
                                                 grid=TimeGrid(0.2, 0.02),
                                                 u0_bar=sin_product))
    me = fld.diagnostics["membrane_energy"]
    assert me[0] > 0.0
    assert cell.energy_nonincreasing(me)
    assert np.all(fld.levels[:, bm.boundary_vertices] == 0.0)


def test_membrane_initial_state_pins_band(disk):
    bc, bs = build_membrane_cell(disk.spec, 0.2)
    bm, _ = tile_micro_domain(bc, bs.facets, 0.5, False)
    fld = micro.solve_membrane(micro.MembraneRun(mesh=bm, coeffs=disk.coeffs,
                                                 grid=TimeGrid(0.1, 0.05),
                                                 u0_bar=sin_product))
    band = np.unique(bm.simplices[bm.phase == PHASE_MEMBRANE])
    ref = sin_product(bm.vertices[band])
    assert np.abs(fld.levels[0][band] - ref).max() <= 1e-12


# ---------------------------------------------------------------------------
# local averages and norms
# ---------------------------------------------------------------------------

def test_local_average_exact_on_constants(disk_field, disk_tiled):
    mesh, _ = disk_tiled
    ones = micro.TransientField(levels=np.ones((2, len(mesh.vertices))),
                                grid=TimeGrid(0.1, 0.05))
    avg = micro.local_average(ones, mesh)
    assert np.abs(avg.values - 1.0).max() <= 1e-12


def test_local_average_exact_on_linears(disk_tiled):
    # the average of an affine field over a cell is its centre value
    mesh, _ = disk_tiled
    u = 0.75 * mesh.vertices[:, 0] - 0.2 * mesh.vertices[:, 1]
    fld = micro.TransientField(levels=u[None, :], grid=TimeGrid(0.1, 0.1))
    avg = micro.local_average(fld, mesh)
    centers = (np.stack(np.meshgrid(*([np.arange(2)] * 2), indexing="ij"),
                        axis=-1).reshape(-1, 2) + 0.5) / 2.0
    ref = 0.75 * centers[:, 0] - 0.2 * centers[:, 1]
    assert np.abs(avg.values[0] - ref).max() <= 1e-12


def test_local_average_is_contraction(disk_field, disk_tiled):
    mesh, _ = disk_tiled
    avg = micro.local_average(disk_field, mesh)
    assert np.abs(avg.values).max() <= np.abs(disk_field.levels).max() + 1e-14


def test_cell_averages_evaluate_lookup():
    vals = np.arange(8.0).reshape(2, 4)
    ca = micro.CellAverages(values=vals, m=2, dim=2, grid=TimeGrid(1.0, 1.0))
    pts = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.9, 0.9]])
    got = ca.evaluate(pts)
    assert np.array_equal(got[0], [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(got[1], [4.0, 5.0, 6.0, 7.0])


def test_probe_points_inside_open_cell():
    pts = micro.probe_points(5, 3)
    assert pts.shape == (125, 3)
    assert pts.min() > 0.0 and pts.max() < 1.0


def test_l2_space_time_closed_forms():
    grid = TimeGrid(1.0, 0.25)
    zeros = np.zeros((grid.n_steps + 1, 9))
    assert micro.l2_space_time(zeros, grid) == 0.0
    const = 3.0 * np.ones((grid.n_steps + 1, 9))
    # right-endpoint rectangle rule: sqrt(sum dt * 9) = 3 sqrt(T)
    assert abs(micro.l2_space_time(const, grid) - 3.0) <= 1e-12


def test_l2_exact_agrees_with_probe_rule(disk_field, disk_tiled):
    mesh, _ = disk_tiled
    exact = micro.l2_space_time_exact(disk_field, mesh)
    pts = micro.probe_points(64, 2)
    sampled = micro.PointLocator(mesh.vertices, mesh.simplices).evaluate(
        disk_field.levels, pts)
    approx = micro.l2_space_time(sampled, disk_field.grid)
    assert abs(exact - approx) <= 0.02 * exact


def test_point_locator_reproduces_linear_fields(disk_tiled):
    mesh, _ = disk_tiled
    u = 1.0 + 0.4 * mesh.vertices[:, 0] - 1.3 * mesh.vertices[:, 1]
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.01, 0.99, size=(200, 2))
    got = micro.PointLocator(mesh.vertices, mesh.simplices).evaluate(
        u[None, :], pts)[0]
    ref = 1.0 + 0.4 * pts[:, 0] - 1.3 * pts[:, 1]
    assert np.abs(got - ref).max() <= 1e-10


# ---------------------------------------------------------------------------
# study drivers
# ---------------------------------------------------------------------------

def test_study_report_monotone_flag_and_csv():
    rep = micro.StudyReport("eps", [0.5, 0.25], [2.0, 1.0], [0.1, 0.1],
                            [0.0, 0.0])
    assert rep.monotone_decrease
    text = rep.csv()
    assert text.splitlines()[0] == "eps, error_L2, energy_bulk, energy_surface"
    assert text.rstrip().endswith("monotone_decrease: true")

    rep2 = micro.StudyReport("eta", [0.2, 0.1], [1.0, 1.5], [0.1, 0.1],
                             [0.0, 0.0])
    assert not rep2.monotone_decrease
    assert rep2.csv().rstrip().endswith("monotone_decrease: false")


def test_convergence_study_requires_reference():
    # refused before the runs are drawn: no micro problem is solved
    with pytest.raises(MissingArtifact, match="needs a macro reference"):
        micro.eps_report("k1_connected_disconnected", iter(()),
                         grid=TimeGrid(0.1, 0.05))
