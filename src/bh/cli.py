"""Command-line pipeline: mesh -> cell -> tensors -> macro, plus micro and
study sweeps and an invariant verification ledger.

converge scores the solutions that macro and micro wrote and solves only
the eta sweep; verify recomputes its checks in memory on purpose.

Exit codes: 0 all good, 1 failed checks or solver errors, 2 bad config,
3 missing/tampered artifacts.  Artifacts carry config and geometry hashes;
downstream commands refuse inputs produced under a different config.
"""

import argparse
import datetime
import os
import sys
import time

import numpy as np

from . import __version__, cell, fem, formats, geometry, macro, micro, tensors
from .config import load_config
from .errors import BHError, ConfigInvalid, MissingArtifact
from .formats import _F
from .timegrid import TimeGrid


def _paths(out):
    return {
        "mesh": os.path.join(out, "mesh.bhmesh"),
        "cell": os.path.join(out, "cell.bhcell"),
        "compat": os.path.join(out, "compat_report.csv"),
        "tensors": os.path.join(out, "tensors.bhtens"),
        "macro": os.path.join(out, "macro.bhsol"),
        "macro_csv": os.path.join(out, "macro_summary.csv"),
        "study_eps": os.path.join(out, "study_eps.csv"),
        "study_eta": os.path.join(out, "study_eta.csv"),
        "verify": os.path.join(out, "verify_report.txt"),
    }


def _header(cfg):
    return {"config": cfg.config_hash, "geometry": cfg.geometry_hash}


def _check_header(header, cfg, path, command):
    if header.get("config") != cfg.config_hash:
        raise MissingArtifact(
            f"{path} was produced by a different config; re-run bh {command}")
    if header.get("geometry") != cfg.geometry_hash:
        raise MissingArtifact(f"{path} geometry hash does not match the "
                              f"config; re-run bh {command}")


def _load_cell_mesh(cfg, paths):
    header, data = formats.read_mesh(paths["mesh"])
    _check_header(header, cfg, paths["mesh"], "mesh")
    mesh = geometry.CellMesh(vertices=data["vertices"],
                             simplices=data["simplices"],
                             phase=data["phase"],
                             periodic_pairs=data["pairs"])
    vols = mesh.volumes()
    if np.any(vols <= 0.0) or abs(vols.sum() - 1.0) > 1e-12:
        raise MissingArtifact(f"{paths['mesh']} does not tile the unit cell "
                              "with positive elements; re-run bh mesh")
    surf = geometry.extract_interface(mesh.vertices, mesh.simplices,
                                      mesh.phase, mesh.periodic_pairs)
    return mesh, surf


def _manifest(out, command, cfg, started, t0, inputs, outputs):
    formats.write_manifest(
        os.path.join(out, f"{command}.bhrun"), command, cfg.config_hash,
        __version__, started, time.perf_counter() - t0,
        [p for p in inputs if os.path.exists(p)],
        [p for p in outputs if os.path.exists(p)])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_mesh(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf = geometry.build_unit_cell(cfg.geometry)
    formats.write_mesh(paths["mesh"], _header(cfg), mesh.vertices,
                       mesh.simplices, mesh.phase, surf, mesh.periodic_pairs)
    if vtk:
        formats.write_vtk(os.path.join(out, "mesh.vtk"), mesh.vertices,
                          mesh.simplices, np.zeros(len(mesh.vertices)),
                          cell_values=mesh.phase, cell_name="phase")
    return [], [paths["mesh"]]


def cmd_cell(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf = _load_cell_mesh(cfg, paths)
    sysm = cell.CellSystem(mesh, surf, cfg.coeffs)
    funcs = cell.solve_cell_functions(sysm, cfg.kernel_grid)
    N = mesh.dim
    formats.write_cell_archive(
        paths["cell"], _header(cfg), cfg.kernel_grid,
        [(name, getattr(funcs, name)) for name in _CELL_ARRAYS])

    lines = ["component, direction, residual, tolerance, status"]
    ok = True
    for i in range(surf.n_components):
        tol = 1e-8 * surf.area(i)
        for j in range(N):
            r = abs(funcs.flux_residuals[i, j])
            good = r <= tol
            ok = ok and good
            lines.append(", ".join([str(i), str(j + 1), _F % r, _F % tol,
                                    "pass" if good else "fail"]))
    with open(paths["compat"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if not ok:
        raise BHError("compatibility residuals exceed tolerance; see "
                      + paths["compat"])
    if vtk:
        for j in range(N):
            formats.write_vtk(os.path.join(out, f"chi0_{j + 1}.vtk"),
                              mesh.vertices, mesh.simplices,
                              funcs.chi0[j][sysm.vdof])
    return [paths["mesh"]], [paths["cell"], paths["compat"]]


# the arrays of a cell archive, in order: the bulk chi0 and chi0_tilde
# (N, nd), the traces v (N, g), chi1 and omega (N, M+1, g), and W (N, g)
_CELL_ARRAYS = ("chi0", "v", "chi0_tilde", "chi1", "omega", "W")


def _check_cell_arrays(arrays, N, nd, g, levels, path):
    """The archive's (name, array) pairs as a dict, after checking that they
    are the six arrays of _CELL_ARRAYS, in order, with the shapes that the
    dimension N, the nd dofs, the g interface dofs and the levels give."""
    shapes = {"chi0": (N, nd), "v": (N, g), "chi0_tilde": (N, nd),
              "chi1": (N, levels, g), "omega": (N, levels, g), "W": (N, g)}
    got = [(name, vals.shape) for name, vals in arrays]
    want = [(name, shapes[name]) for name in _CELL_ARRAYS]
    if got != want:
        def listed(pairs):
            return ", ".join(f"{name} {shape}" for name, shape in pairs)
        raise MissingArtifact(
            f"{path} holds the arrays {listed(got)}, this mesh and config "
            f"need {listed(want)}; re-run bh cell")
    return dict(arrays)


def cmd_tensors(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf = _load_cell_mesh(cfg, paths)
    header, (t_end, dt), arrays = formats.read_cell_archive(paths["cell"])
    _check_header(header, cfg, paths["cell"], "cell")
    g = cfg.kernel_grid
    if (t_end, dt) != (g.t_end, g.step):
        raise MissingArtifact(f"{paths['cell']} has the time grid "
                              f"{(t_end, dt)}, the config {(g.t_end, g.step)}"
                              "; re-run bh cell")
    grid = TimeGrid(t_end, dt)
    sysm = cell.CellSystem(mesh, surf, cfg.coeffs)
    arrays = _check_cell_arrays(arrays, mesh.dim, sysm.nd,
                                len(sysm.gamma_dofs), grid.n_steps + 1,
                                paths["cell"])
    funcs = cell.CellFunctionSet(**arrays, grid=grid,
                                 flux_residuals=np.zeros((surf.n_components,
                                                          mesh.dim)))
    tens = tensors.compute_all(sysm, funcs, cfg.topology)
    formats.write_tensors(paths["tensors"], _header(cfg), tens, grid)
    return [paths["mesh"], paths["cell"]], [paths["tensors"]]


def _macro_problem(cfg, tdata):
    mesh = macro.build_macro_mesh(cfg.macro_n, cfg.dim)
    u0f = cfg.u0_function()
    u0 = u0f(mesh.vertices) if u0f is not None else None
    src = cfg.source_function()
    kernel = TimeGrid(*tdata["kernel"])
    prob = macro.MacroProblem(
        mesh=mesh, regime=cfg.regime, grid=cfg.macro_grid,
        lambda0=tdata["lambda0"], A0=tdata["A0"], C0=tdata["C0"],
        B0=tdata["B0"], kernel_grid=kernel, F_coeffs=tdata["Phi"],
        u0_bar=u0, source=src, topology=cfg.topology,
        A_elliptic=tdata.get("A_hom_klt1") if cfg.k < 1.0
        else tdata["A_hom_kgt1"])
    return mesh, prob


def cmd_macro(cfg, out, vtk):
    paths = _paths(out)
    header, tdata = formats.read_tensors(paths["tensors"])
    _check_header(header, cfg, paths["tensors"], "tensors")
    g = cfg.kernel_grid
    if (tdata["kernel"] != (g.t_end, g.step)
            or len(tdata["B0"]) != g.n_steps + 1):
        raise MissingArtifact(f"{paths['tensors']} does not sample the "
                              f"kernel grid {(g.t_end, g.step)} of the "
                              "config; re-run bh tensors")
    mesh, prob = _macro_problem(cfg, tdata)
    if cfg.regime.startswith("k1"):
        fld = macro.solve_homogenized_memory(prob)
    else:
        if (cfg.regime == "klt1" and prob.A_elliptic is None
                and cfg.topology == "cd"):
            raise MissingArtifact("tensor file lacks the k<1 tensor")
        fld = macro.solve_homogenized_elliptic(prob)
    formats.write_solution(paths["macro"], _header(cfg), "macro",
                           cfg.macro_grid, fld.levels)

    A_inst = prob.lambda0 * np.eye(cfg.dim) + (
        prob.A0 if prob.A0 is not None else 0.0)
    if not cfg.regime.startswith("k1"):
        A_inst = prob.A_elliptic if prob.A_elliptic is not None else A_inst
    K_A = macro._tensor_stiffness(mesh.mats, A_inst)
    lines = ["t, L2_norm, energy_norm"]
    for n, t in enumerate(cfg.macro_grid.times):
        u = fld.levels[n]
        l2 = np.sqrt(fem.mass_quadratic(mesh.vols, mesh.simplices, u))
        en = np.sqrt(max(float(u @ (K_A @ u)), 0.0))
        lines.append(", ".join(_F % v for v in (t, l2, en)))
    with open(paths["macro_csv"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if vtk:
        for n in range(fld.levels.shape[0]):
            formats.write_vtk(os.path.join(out, f"macro_{n:04d}.vtk"),
                              mesh.vertices, mesh.simplices, fld.levels[n])
    return [paths["tensors"]], [paths["macro"], paths["macro_csv"]]


def _micro_path(out, eps, suffix=".bhsol"):
    return os.path.join(out, f"micro_m{int(round(1.0 / eps))}{suffix}")


_ENERGIES = ("energy_bulk", "energy_surface")


def cmd_micro(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf = _load_cell_mesh(cfg, paths)
    strip = cfg.topology == "cd"
    written = []
    for eps in cfg.eps_list:
        mmesh, _ = geometry.tile_micro_domain(mesh, surf.facets, eps, strip)
        run = micro.MicroRun(mesh=mmesh, coeffs=cfg.coeffs, k=cfg.k,
                             grid=cfg.macro_grid, u0_bar=cfg.u0_function(),
                             source=cfg.source_function())
        fld = micro.solve_micro(run)
        p = _micro_path(out, eps)
        header = dict(_header(cfg), **{key: _F % fld.diagnostics[key]
                                       for key in _ENERGIES})
        formats.write_solution(p, header, "micro", cfg.macro_grid, fld.levels)
        written.append(p)
        if vtk:
            formats.write_vtk(_micro_path(out, eps, "_final.vtk"),
                              mmesh.vertices, mmesh.simplices, fld.levels[-1])
    return [paths["mesh"]], written


def _read_field(cfg, path, kind, nv):
    """The solution that bh <kind> wrote for this config, with nv values a
    level on cfg.macro_grid (and, from micro, the two energies)."""
    try:
        header, got, grid, levels = formats.read_solution(path)
    except MissingArtifact as exc:
        raise MissingArtifact(f"{exc}; re-run bh {kind}") from None
    _check_header(header, cfg, path, kind)
    g = cfg.macro_grid
    diagnostics, problem = {}, None
    if got != kind:
        problem = f"holds a {got} solution"
    elif grid != (g.t_end, g.step):
        problem = f"has the time grid {grid}, the config {(g.t_end, g.step)}"
    elif levels.shape != (g.n_steps + 1, nv):
        problem = (f"holds {levels.shape} (levels, values), the config and "
                   f"mesh need {(g.n_steps + 1, nv)}")
    elif kind == "micro":
        try:
            diagnostics = {key: float(header[key]) for key in _ENERGIES}
        except (KeyError, ValueError):
            problem = "lacks a well-formed energy_bulk or energy_surface line"
    if problem is not None:
        raise MissingArtifact(f"{path} {problem}; re-run bh {kind}")
    return macro.TransientField(levels=levels, grid=g, diagnostics=diagnostics)


def cmd_converge(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf = _load_cell_mesh(cfg, paths)
    read = [paths["mesh"]]
    mmesh = fld = None
    if cfg.regime != "klt1":
        mmesh = macro.build_macro_mesh(cfg.macro_n, cfg.dim)
        fld = _read_field(cfg, paths["macro"], "macro", len(mmesh.vertices))
        read.append(paths["macro"])
    strip = cfg.topology == "cd"

    def runs():
        for eps in sorted(cfg.eps_list, reverse=True):
            tiled, _ = geometry.tile_micro_domain(mesh, surf.facets, eps,
                                                  strip)
            path = _micro_path(out, eps)
            field = _read_field(cfg, path, "micro", len(tiled.vertices))
            read.append(path)
            yield eps, tiled, field

    rep = micro.eps_report(cfg.regime, runs(), grid=cfg.macro_grid,
                           macro_mesh=mmesh, macro_field=fld)
    with open(paths["study_eps"], "w") as fh:
        fh.write(rep.csv())
    written = [paths["study_eps"]]

    if cfg.topology == "cd" and cfg.k == 1.0 and cfg.eta_list:
        u0f = cfg.u0_function()
        if u0f is not None:
            eta_rep = micro.concentration_study(
                cfg.eta_list, spec=cfg.geometry, coeffs=cfg.coeffs,
                grid=cfg.macro_grid, eps=max(cfg.eps_list), u0_bar=u0f)
            with open(paths["study_eta"], "w") as fh:
                fh.write(eta_rep.csv())
            written.append(paths["study_eta"])
    return read, written


# ---------------------------------------------------------------------------
# verification ledger
# ---------------------------------------------------------------------------

def _verify_checks(cfg):
    """Yield (name, ok, detail) tuples for every analytic check that applies."""
    coeffs = cfg.coeffs
    mesh, surf = geometry.build_unit_cell(cfg.geometry)
    N = mesh.dim

    vols = np.abs(mesh.volumes())
    gap = abs(vols.sum() - 1.0)
    yield "mesh_volume_partition", gap <= 1e-12, f"|sum(vol)-1|={gap:.3e}"

    pp = mesh.periodic_pairs
    d = mesh.vertices[pp[:, 1]] - mesh.vertices[pp[:, 0]]
    exact = all(np.all(np.abs(row) == np.eye(N)[ax]) for row, ax
                in zip(np.abs(d), pp[:, 2]))
    yield "periodic_pairs_exact", exact, f"{len(pp)} pairs"

    cent = mesh.vertices[mesh.simplices].mean(axis=1)
    inner, outer = surf.adjacency[:, 0], surf.adjacency[:, 1]
    dots = np.einsum("fk,fk->f", surf.normals, cent[outer] - cent[inner])
    ok_orient = bool(np.all(dots > 0.0))
    yield "interface_normal_orientation", ok_orient, f"min dot={dots.min():.3e}"

    sysm = cell.CellSystem(mesh, surf, coeffs)
    grid = cfg.kernel_grid
    funcs = cell.solve_cell_functions(sysm, grid)

    worst = 0.0
    ok_comp = True
    for i in range(surf.n_components):
        tol = 1e-8 * surf.area(i)
        r = float(np.abs(funcs.flux_residuals[i]).max())
        worst = max(worst, r / tol)
        ok_comp = ok_comp and r <= tol
    yield "compatibility_residuals", ok_comp, f"worst residual/tol={worst:.3e}"

    ok_en = True
    escale = coeffs.alpha * surf.area()
    for series in (funcs.chi1_energy, funcs.omega_energy):
        for j in range(N):
            ok_en = ok_en and cell.energy_nonincreasing(series[j], scale=escale)
    yield "cell_energy_dissipation", ok_en, "chi1 and omega Lyapunov non-increasing"

    tens = tensors.compute_all(sysm, funcs, cfg.topology)
    gaps = [v for v in tens.discrepancies.values() if v is not None]
    worst_gap = max(gaps) if gaps else 0.0
    yield "dual_formula_agreement", worst_gap <= 1e-5, \
        "max relative gap=%.3e" % worst_gap

    A_inst = tens.lambda0 * np.eye(N) + tens.A0
    sym = np.abs(A_inst - A_inst.T).max() / max(np.abs(A_inst).max(), 1e-300)
    eigs = np.linalg.eigvalsh((A_inst + A_inst.T) / 2)
    coercive = eigs.min() >= 0.95 * min(coeffs.lam_int, coeffs.lam_out)
    yield "instantaneous_tensor_coercive", bool(sym <= 1e-6 and coercive), \
        f"sym={sym:.3e} min eig={eigs.min():.6f}"

    if cfg.topology == "cd":
        bound = 5e-3 * coeffs.alpha * surf.area()
        c0max = float(np.abs(tens.C0).max())
        yield "C0_vanishes_disconnected", c0max <= bound, \
            f"max|C0|={c0max:.3e} bound={bound:.3e}"
    else:
        C0s = (tens.C0 + tens.C0.T) / 2
        sym = np.abs(tens.C0 - tens.C0.T).max() / max(np.abs(tens.C0).max(),
                                                      1e-300)
        ce = np.linalg.eigvalsh(C0s)
        if cfg.geometry.kind == "Layered2D":
            ok_c = sym <= 1e-5 and ce.min() >= -1e-8
            detail = f"layered eigs={np.round(ce, 6).tolist()}"
        else:
            ok_c = sym <= 1e-5 and ce.min() > 0.05 * ce.max()
            detail = f"eig ratio={ce.min() / ce.max():.4f}"
        yield "C0_class_property", bool(ok_c), detail

    uni = cell.CellCoefficients(coeffs.lam_out, coeffs.lam_out, coeffs.alpha)
    sys_u = cell.CellSystem(mesh, surf, uni)
    A_u, _, _ = tensors.compute_Ahom_kgt1(sys_u, cell.solve_chi0_tilde(sys_u))
    gap = np.abs(A_u - coeffs.lam_out * np.eye(N)).max()
    yield "kgt1_uniform_identity", gap <= 1e-10, f"|A-lam I|={gap:.3e}"

    if cfg.topology == "cd" and tens.A_hom_klt1 is not None:
        dbl = cell.CellCoefficients(2 * coeffs.lam_int, coeffs.lam_out,
                                    2 * coeffs.alpha)
        sys2 = cell.CellSystem(mesh, surf, dbl)
        chi0_2 = cell.solve_chi0(sys2)
        A2, _, _ = tensors.compute_Ahom_klt1(sys2, chi0_2, cfg.topology)
        rel = np.abs(A2 - tens.A_hom_klt1).max() / max(
            np.abs(tens.A_hom_klt1).max(), 1e-300)
        yield "klt1_coefficient_independence", rel <= 1e-8, f"rel change={rel:.3e}"

    mm = macro.build_macro_mesh(min(cfg.macro_n, 16), cfg.dim)
    prob = macro.MacroProblem(mesh=mm, regime=cfg.regime, grid=cfg.macro_grid,
                              lambda0=tens.lambda0, A0=tens.A0, C0=tens.C0,
                              B0=tens.B0, kernel_grid=grid,
                              F_coeffs=tens.F_coeffs,
                              u0_bar=np.zeros(len(mm.vertices)),
                              topology=cfg.topology,
                              A_elliptic=tens.A_hom_kgt1)
    if cfg.regime.startswith("k1"):
        fz = macro.solve_homogenized_memory(prob)
    else:
        fz = macro.solve_homogenized_elliptic(prob)
    yield "macro_zero_data_zero_solution", bool(np.all(fz.levels == 0.0)), \
        "trivial solution reproduced"

    eps0 = max(cfg.eps_list)
    mmesh, _ = geometry.tile_micro_domain(mesh, surf.facets, eps0, False)
    u0f = cfg.u0_function() or (lambda pts: np.sin(np.pi * pts[:, 0])
                                * np.prod([np.sin(np.pi * pts[:, i])
                                           for i in range(1, N)], axis=0))
    run = micro.MicroRun(mesh=mmesh, coeffs=coeffs, k=cfg.k,
                         grid=cfg.macro_grid, u0_bar=u0f)
    mf = micro.solve_micro(run)
    se = mf.diagnostics["surface_energy"]
    ok_m = cell.energy_nonincreasing(se)
    yield "micro_energy_dissipation", ok_m, \
        f"surface energy {se[0]:.4e} -> {se[-1]:.4e}"
    okb = bool(np.all(mf.levels[:, mmesh.boundary_vertices] == 0.0))
    yield "micro_dirichlet_exact", okb, "boundary rows exactly zero"

    if cfg.geometry.kind == "Disk2D":
        bc, band_surf = geometry.build_membrane_cell(
            cfg.geometry, min(cfg.eta_list or (0.1,)))
        bm, _ = geometry.tile_micro_domain(bc, band_surf.facets, eps0, False)
        bf = micro.solve_membrane(micro.MembraneRun(mesh=bm, coeffs=coeffs,
                                                    grid=cfg.macro_grid,
                                                    u0_bar=u0f))
        me = bf.diagnostics["membrane_energy"]
        ok_b = cell.energy_nonincreasing(me)
        yield "membrane_energy_dissipation", ok_b, \
            f"band energy {me[0]:.4e} -> {me[-1]:.4e}"

    lines_a = _tensor_body_for_determinism(sysm, funcs, cfg, grid)
    lines_b = _tensor_body_for_determinism(sysm, funcs, cfg, grid)
    yield "tensor_serialization_deterministic", lines_a == lines_b, \
        "repeated serialization byte-identical"


def _tensor_body_for_determinism(sysm, funcs, cfg, grid):
    import tempfile
    tens = tensors.compute_all(sysm, funcs, cfg.topology)
    with tempfile.NamedTemporaryFile("r", suffix=".bhtens",
                                     delete=False) as fh:
        name = fh.name
    formats.write_tensors(name, _header(cfg), tens, grid)
    with open(name) as fh:
        text = fh.read()
    os.unlink(name)
    return text


def cmd_verify(cfg, out, vtk):
    paths = _paths(out)
    lines = []
    failures = 0
    for name, ok, detail in _verify_checks(cfg):
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        lines.append(f"{status} {name}: {detail}")
    lines.append(f"result: {('all checks passed' if failures == 0 else str(failures) + ' check(s) failed')}")
    text = "\n".join(lines) + "\n"
    with open(paths["verify"], "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    if failures:
        raise _VerifyFailed(failures, [paths["verify"]])
    return [], [paths["verify"]]


class _VerifyFailed(Exception):
    def __init__(self, count, outputs):
        super().__init__(f"{count} verification check(s) failed")
        self.outputs = outputs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# command -> (function, the commands whose outputs it needs); a function
# returns (files read, files written), and both go into its manifest
_COMMANDS = {
    "mesh": (cmd_mesh, []),
    "cell": (cmd_cell, ["mesh"]),
    "tensors": (cmd_tensors, ["mesh", "cell"]),
    "macro": (cmd_macro, ["tensors"]),
    "micro": (cmd_micro, ["mesh"]),
    "converge": (cmd_converge, ["mesh", "macro", "micro"]),
    "verify": (cmd_verify, []),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="bh",
        description="Homogenization pipeline for conduction with dynamic "
                    "interface conditions")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, deps) in _COMMANDS.items():
        s = sub.add_parser(name, description="needs the outputs of "
                           + ", ".join(f"bh {d}" for d in deps)
                           if deps else None)
        s.add_argument("--config", required=True, help="INI config file")
        s.add_argument("--out", default=None, help="output directory")
        s.add_argument("--vtk", action="store_true",
                       help="also write legacy VTK snapshots")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        out = args.out or cfg.out_dir
        os.makedirs(out, exist_ok=True)
        read, outputs = _COMMANDS[args.command][0](cfg, out, args.vtk)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifact as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except _VerifyFailed as exc:
        _manifest(out, args.command, cfg, started, t0,
                  [args.config], exc.outputs)
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BHError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _manifest(out, args.command, cfg, started, t0, [args.config] + read,
              outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
