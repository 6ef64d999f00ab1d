"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are stated inline; trend criteria recompute their
sweeps at the same parameters every run, nothing is replayed from disk.

Two measured floors shape the vanishing-type checks:
  * the discrete surface tensor of the disk cell is exact roundoff (about
    1e-29), far below any resolvable decrease, so the refinement clause
    accepts consecutive values that both sit below 1e-12 * alpha |Gamma|;
  * identically-zero corrector energies on the layered cell are judged
    through the same deadband the library uses (energy_nonincreasing).
"""
import os

import numpy as np
import pytest

from bh import cell, cli, fem, geometry, macro, micro, tensors
from bh.timegrid import TimeGrid

from conftest import (Bundle, convergence_study, micro_surface_energy,
                      sin_product)

COEFFS = cell.CellCoefficients(1.0, 3.0, 1.0)


def _report(num, ok, detail):
    line = "criterion %02d %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _build_bundle(kind, params, h, grid, topology):
    spec = geometry.GeometrySpec(kind, params, h=h)
    mesh, surf = geometry.build_unit_cell(spec)
    system = cell.CellSystem(mesh, surf, COEFFS)
    funcs = cell.solve_cell_functions(system, grid)
    tens = tensors.compute_all(system, funcs, topology)
    return Bundle(spec, mesh, surf, COEFFS, grid, system, funcs, tens)


@pytest.fixture(scope="module")
def adisk():
    return _build_bundle("Disk2D", {"r0": 0.25}, 0.04, TimeGrid(1.0, 0.02),
                         "cd")


@pytest.fixture(scope="module")
def alayered():
    return _build_bundle("Layered2D", {"a": 0.25, "b": 0.75}, 0.05,
                         TimeGrid(0.2, 0.02), "cc")


@pytest.fixture(scope="module")
def atube():
    return _build_bundle("TubeLattice3D", {"rho": 0.25}, 1.0 / 6.0,
                         TimeGrid(0.1, 0.05), "cc")


# ---------------------------------------------------------------------------
# 1-3: surface tensor classes
# ---------------------------------------------------------------------------

def test_criterion_01_surface_tensor_vanishes_on_disk():
    vals, floors = [], []
    for h in (0.04, 0.02, 0.01):
        spec = geometry.GeometrySpec("Disk2D", {"r0": 0.25}, h=h)
        mesh, surf = geometry.build_unit_cell(spec)
        sys = cell.CellSystem(mesh, surf, COEFFS)
        C0, _, _ = tensors.compute_C0(sys, cell.solve_chi0(sys))
        vals.append(float(np.abs(C0).max()))
        floors.append(1e-12 * COEFFS.alpha * surf.area())
    bound = 5e-3 * COEFFS.alpha * 2 * np.pi * 0.25
    ok = vals[0] <= bound
    for i in range(2):
        step_ok = (vals[i + 1] <= vals[i] / 3.0) or (
            vals[i] <= floors[i] and vals[i + 1] <= floors[i + 1])
        ok = ok and step_ok
    _report(1, ok, "max|C0| = %.2e / %.2e / %.2e, coarsest bound %.2e"
            % (*vals, bound))


def test_criterion_02_layered_degeneracy(alayered):
    a = COEFFS.alpha
    C = alayered.tens.C0
    ok = (abs(C[0, 1]) <= 1e-6 * a and abs(C[1, 0]) <= 1e-6 * a
          and abs(C[1, 1]) <= 1e-6 * a
          and abs(C[0, 0] - 2 * a) <= 1e-4 * 2 * a)
    _report(2, ok, "C0 = [[%.6f, %.1e], [%.1e, %.1e]]"
            % (C[0, 0], C[0, 1], C[1, 0], C[1, 1]))


def test_criterion_03_tube_positivity(atube):
    C = atube.tens.C0
    sym = np.abs(C - C.T).max() / np.abs(C).max()
    eigs = np.linalg.eigvalsh((C + C.T) / 2)
    ok = sym <= 1e-5 and eigs.min() > 0.0 and eigs.min() > 0.05 * eigs.max()
    _report(3, ok, "sym %.1e, eigs %.4f..%.4f, ratio %.3f"
            % (sym, eigs.min(), eigs.max(), eigs.min() / eigs.max()))


# ---------------------------------------------------------------------------
# 4-6: stationary tensor properties
# ---------------------------------------------------------------------------

def test_criterion_04_instantaneous_tensor(adisk, alayered, atube):
    ok, worst = True, 0.0
    for b in (adisk, alayered, atube):
        A = b.tens.lambda0 * np.eye(b.mesh.dim) + b.tens.A0
        sym = np.abs(A - A.T).max() / np.abs(A).max()
        emin = np.linalg.eigvalsh((A + A.T) / 2).min()
        ok = ok and sym <= 1e-6 and emin >= 0.95
        worst = max(worst, sym)
    _report(4, ok, "all geometries: sym <= %.1e, min eig >= 0.95" % worst)


def test_criterion_05_dual_formula_agreement(adisk, alayered, atube):
    worst = 0.0
    for b in (adisk, alayered, atube):
        gaps = [g for g in b.tens.discrepancies.values() if g is not None]
        worst = max(worst, max(gaps))
    _report(5, worst <= 1e-5, "worst relative route gap %.2e" % worst)


def test_criterion_06_compatibility_integrals(adisk, alayered, atube):
    ok, worst = True, 0.0
    for b in (adisk, alayered, atube):
        res = cell.flux_residuals(b.system, b.funcs.chi0)
        for i in range(b.surf.n_components):
            ratio = np.abs(res[i]).max() / (1e-8 * b.surf.area(i))
            worst = max(worst, ratio)
            ok = ok and ratio <= 1.0
    _report(6, ok, "worst residual / tolerance = %.2e" % worst)


# ---------------------------------------------------------------------------
# 7: energy dissipation
# ---------------------------------------------------------------------------

def test_criterion_07_energy_dissipation(adisk, alayered, atube):
    ok = True
    for b in (adisk, alayered, atube):
        scale = COEFFS.alpha * b.surf.area()
        for Y in (b.funcs.chi1, b.funcs.omega):
            series = cell.surface_energy(b.system, Y)
            for j in range(b.mesh.dim):
                ok = ok and cell.energy_nonincreasing(series[j], scale=scale)

    mmesh, _ = geometry.tile_micro_domain(adisk.mesh, adisk.surf.facets,
                                          0.5, False)
    run = micro.MicroRun(mesh=mmesh, coeffs=COEFFS, k=1.0,
                         grid=TimeGrid(0.3, 0.05), u0_bar=sin_product)
    mf = micro.solve_micro(run)
    ok = ok and cell.energy_nonincreasing(micro_surface_energy(run, mf.levels))

    bc, bs = geometry.build_membrane_cell(adisk.spec, 0.2)
    bm, _ = geometry.tile_micro_domain(bc, bs.facets, 0.5, False)
    bf = micro.solve_membrane(micro.MembraneRun(mesh=bm, coeffs=COEFFS,
                                                grid=TimeGrid(0.3, 0.05),
                                                u0_bar=sin_product))
    ok = ok and cell.energy_nonincreasing(bf.diagnostics["membrane_energy"])
    _report(7, ok, "cell, micro and membrane Lyapunov series non-increasing")


# ---------------------------------------------------------------------------
# 8-10: regime tensors
# ---------------------------------------------------------------------------

def test_criterion_08_perfect_contact_limit(adisk, alayered):
    uni_ok = True
    for b in (adisk, alayered):
        uni = cell.CellCoefficients(3.0, 3.0, 1.0)
        sysu = cell.CellSystem(b.mesh, b.surf, uni)
        A, _, _ = tensors.compute_Ahom_kgt1(sysu, cell.solve_chi0_tilde(sysu))
        uni_ok = uni_ok and np.abs(A - 3.0 * np.eye(b.mesh.dim)).max() <= 1e-10

    A = alayered.tens.A_hom_kgt1
    ref = np.diag([2.0, 1.5])
    lay_ok = np.abs(A - ref).max() <= 1e-3 * np.abs(ref).max()
    vol_ok = abs(alayered.mesh.phase_volume(geometry.PHASE_INT) - 0.5) <= 1e-12
    _report(8, uni_ok and lay_ok and vol_ok,
            "uniform -> lam I, layered A = diag(%.6f, %.6f), |E_int| = 0.5"
            % (A[0, 0], A[1, 1]))


def test_criterion_09_insulation_collapse(atube):
    rep = convergence_study("klt1", [0.5, 1.0 / 3.0], cell_mesh=atube.mesh,
                            cell_facets=atube.surf.facets, coeffs=COEFFS,
                            k=0.0, grid=TimeGrid(0.5, 0.05),
                            source=sin_product, strip=False)
    _report(9, rep.monotone_decrease,
            "||u_eps|| = %.3e -> %.3e" % tuple(rep.errors))


def test_criterion_10_slow_surface_tensor(adisk):
    A1 = adisk.tens.A_hom_klt1
    sym = np.abs(A1 - A1.T).max() / np.abs(A1).max()
    emin = np.linalg.eigvalsh((A1 + A1.T) / 2).min()
    dbl = cell.CellCoefficients(2.0, 3.0, 2.0)
    sys2 = cell.CellSystem(adisk.mesh, adisk.surf, dbl)
    A2, _, _ = tensors.compute_Ahom_klt1(sys2, cell.solve_chi0(sys2))
    rel = np.abs(A2 - A1).max() / np.abs(A1).max()
    ok = sym <= 1e-10 and emin > 0.0 and rel <= 1e-8
    _report(10, ok, "min eig %.4f, doubling changes %.1e" % (emin, rel))


# ---------------------------------------------------------------------------
# 11-12: convergence trends
# ---------------------------------------------------------------------------

def test_criterion_11_homogenization_trend(adisk):
    mm = macro.build_macro_mesh(32, 2)
    grid = TimeGrid(1.0, 0.05)
    prob = macro.MacroProblem(
        mesh=mm, regime="k1_connected_disconnected", grid=grid,
        lambda0=adisk.tens.lambda0, A0=adisk.tens.A0, C0=adisk.tens.C0,
        B0=adisk.tens.B0, kernel_grid=adisk.grid,
        F_coeffs=adisk.tens.F_coeffs, u0_bar=sin_product(mm.vertices),
        topology="cd")
    field = macro.solve_homogenized_memory(prob)
    rep = convergence_study(
        "k1_connected_disconnected", [0.5, 0.25, 0.125],
        cell_mesh=adisk.mesh, cell_facets=adisk.surf.facets, coeffs=COEFFS,
        k=1.0, grid=grid, u0_bar=sin_product, macro_mesh=mm,
        macro_field=field, strip=True)
    _report(11, rep.monotone_decrease,
            "||M_eps(u_eps) - u|| = %.4f / %.4f / %.4f" % tuple(rep.errors))


def test_criterion_12_concentration_trend(adisk):
    rep = micro.concentration_study([0.2, 0.1, 0.05], spec=adisk.spec,
                                    coeffs=COEFFS, grid=TimeGrid(0.5, 0.025),
                                    eps=0.5, u0_bar=sin_product)
    _report(12, rep.monotone_decrease,
            "||u_eta - u|| = %.4f / %.4f / %.4f" % tuple(rep.errors))


# ---------------------------------------------------------------------------
# 13: self-convergence rates
# ---------------------------------------------------------------------------

def test_criterion_13_richardson_ratios(adisk):
    ratios = {}

    # memory march in dt against the semi-discrete identity-tensor oracle
    mm = macro.build_macro_mesh(12, 2)
    w = sin_product(mm.vertices)
    kernel = TimeGrid(1.0, 0.01)
    B = np.tile(2.0 * np.eye(2), (kernel.n_steps + 1, 1, 1))
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        prob = macro.MacroProblem(mesh=mm, regime="k1_connected_connected",
                                  grid=TimeGrid(1.0, dt), lambda0=3.0,
                                  A0=np.zeros((2, 2)), C0=np.eye(2), B0=B,
                                  kernel_grid=kernel, u0_bar=w, topology="cc")
        fld = macro.solve_homogenized_memory(prob)
        g = -np.exp(-fld.grid.times) + 2.0 * np.exp(-2.0 * fld.grid.times)
        errs.append(np.abs(fld.levels - g[:, None] * fld.levels[0]).max())
    ratios["memory dt"] = errs[0] / errs[1]
    ratios["memory dt 2"] = errs[1] / errs[2]

    # elliptic macro solver in h against the manufactured sine solution
    errs = []
    for n in (8, 16, 32):
        m = macro.build_macro_mesh(n, 2)
        prob = macro.MacroProblem(
            mesh=m, regime="kgt1", grid=TimeGrid(1.0, 1.0),
            A_elliptic=np.eye(2),
            source=lambda p: 2.0 * np.pi ** 2 * sin_product(p),
            topology="cc")
        fld = macro.solve_homogenized_elliptic(prob)
        d = fld.levels[0] - sin_product(m.vertices)
        errs.append(np.sqrt(fem.mass_quadratic(
            fem.element_gradients(m.vertices, m.simplices)[1], m.simplices, d)))
    ratios["elliptic h"] = errs[0] / errs[1]
    ratios["elliptic h 2"] = errs[1] / errs[2]

    # cell solver in h through the instantaneous tensor entry
    vals = []
    for h in (0.08, 0.04, 0.02):
        spec = geometry.GeometrySpec("Disk2D", {"r0": 0.25}, h=h)
        mesh, surf = geometry.build_unit_cell(spec)
        sys = cell.CellSystem(mesh, surf, COEFFS)
        chi0 = cell.solve_chi0(sys)
        A_vol, _, _, _ = tensors.compute_A0(sys, chi0, cell.solve_v_init(sys, chi0))
        vals.append(tensors.compute_lambda0(mesh, COEFFS) + A_vol[0, 0])
    ratios["cell h"] = (vals[0] - vals[1]) / (vals[1] - vals[2])

    # micro, membrane and cell marches in dt (Richardson on the final level)
    mmesh, _ = geometry.tile_micro_domain(adisk.mesh, adisk.surf.facets,
                                          0.5, False)
    fin = [micro.solve_micro(micro.MicroRun(mesh=mmesh, coeffs=COEFFS, k=1.0,
                                            grid=TimeGrid(0.2, dt),
                                            u0_bar=sin_product)).levels[-1]
           for dt in (0.05, 0.025, 0.0125)]
    ratios["micro dt"] = (np.linalg.norm(fin[0] - fin[1])
                          / np.linalg.norm(fin[1] - fin[2]))

    bc, bs = geometry.build_membrane_cell(adisk.spec, 0.2)
    bm, _ = geometry.tile_micro_domain(bc, bs.facets, 0.5, False)
    fin = [micro.solve_membrane(micro.MembraneRun(mesh=bm, coeffs=COEFFS,
                                                  grid=TimeGrid(0.2, dt),
                                                  u0_bar=sin_product)).levels[-1]
           for dt in (0.05, 0.025, 0.0125)]
    ratios["membrane dt"] = (np.linalg.norm(fin[0] - fin[1])
                             / np.linalg.norm(fin[1] - fin[2]))

    fin = [adisk.system.extend(cell.evolve_surface_coupled(
        adisk.system, adisk.funcs.v[:1], TimeGrid(0.2, dt))[0, -1, :, None])
           for dt in (0.02, 0.01, 0.005)]
    ratios["cell dt"] = (np.linalg.norm(fin[0] - fin[1])
                         / np.linalg.norm(fin[1] - fin[2]))

    ok = all(1.5 <= r <= 4.5 for r in ratios.values())
    detail = ", ".join("%s %.2f" % (k, v) for k, v in ratios.items())
    _report(13, ok, detail)


# ---------------------------------------------------------------------------
# 14: determinism
# ---------------------------------------------------------------------------

VERIFY_INI = """\
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
t_end = 0.3
dt = 0.05

[macro]
t_end = 0.3
dt = 0.05
n = 8

[data]
u0 = sin-product
f = sin-product

[study]
eps_list = 0.5
eta_list = 0.2

[output]
dir = out
"""


def test_criterion_14_verify_determinism(tmp_path, capsys):
    cfgp = tmp_path / "v.ini"
    cfgp.write_text(VERIFY_INI)
    reports = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        # verify checks what the pipeline wrote
        for cmd in ("mesh", "cell", "tensors", "micro"):
            assert cli.main([cmd, "--config", str(cfgp), "--out", out]) == 0
        code = cli.main(["verify", "--config", str(cfgp), "--out", out])
        assert code == 0
        reports.append(open(os.path.join(out, "verify_report.txt"), "rb").read())
    capsys.readouterr()
    same = reports[0] == reports[1]
    _report(14, same and b"all checks passed" in reports[0],
            "verify reports byte-identical across runs (%d bytes)"
            % len(reports[0]))
