"""Command-line pipeline: mesh -> cell -> tensors -> macro, plus micro and
study sweeps and an invariant verification ledger.  One process runs a
chain of commands in order, up to the first that fails; each writes a manifest.
A process keeps the cell mesh it built or loaded last, under the real path
and sha256 of mesh.bhmesh, and the cell system on it: later commands reuse
them while the file is unchanged, with the same bytes and exit codes.

converge and verify read what the pipeline wrote: converge scores the
macro and micro solutions and solves only the eta sweep; verify checks the
stored mesh, correctors, tensors and micro solutions and solves only the
checks that need other coefficients or data.

Exit codes: 0 all good, 1 failed checks or solver errors, 2 bad config,
3 missing/tampered artifacts.  Artifacts carry config and geometry hashes;
downstream commands refuse inputs produced under a different config.
"""

import argparse
import datetime
import functools
import os
import sys
import time

import numpy as np

from . import __version__, cell, fem, formats, geometry, macro, micro, tensors
from .config import load_config, preset_function
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


def _read(reader, path, command, *args):
    """reader(path, *args), naming the command to re-run when it refuses."""
    try:
        return reader(path, *args)
    except MissingArtifact as exc:
        raise MissingArtifact(f"{exc}; re-run bh {command}") from None


def _stored_arrays(cfg, path, magic, command, grid, want):
    """The header and (name, array) pairs of the archive bh command wrote at
    path, refused unless its hashes, grid and shapes are cfg's, grid, want."""
    header, got_grid, arrays = _read(formats.read_arrays, path, command, magic)
    _check_header(header, cfg, path, command)
    want_grid = (grid.t_end, grid.step)
    if got_grid != want_grid:
        raise MissingArtifact(f"{path} has the time grid {got_grid}, the "
                              f"config {want_grid}; re-run bh {command}")
    got = [(name, vals.shape) for name, vals in arrays]
    if got != want:
        def listed(pairs):
            return ", ".join(f"{name} {shape}" for name, shape in pairs)
        raise MissingArtifact(
            f"{path} holds the arrays {listed(got)}, this mesh and config "
            f"need {listed(want)}; re-run bh {command}")
    return header, arrays


# the cell mesh and the cell system this process made last, one of each,
# for later commands to reuse: "mesh" -> (key, (header, mesh, surf, data)),
# key the real path and sha256 of the file, so that no command gets another
# file's mesh, and "system" -> the CellSystem on that mesh
_reused = {}


def _mesh_key(path):
    if os.path.exists(path):  # a missing file is refused by its reader
        return os.path.realpath(path), formats.file_sha256(path)


def _keep_mesh(key, header, mesh, surf, data):
    """Keep the mesh of the file with key, its arrays read-only."""
    for vals in (*vars(mesh).values(), *vars(surf).values(), *data.values()):
        vals.flags.writeable = False
    _reused["mesh"] = key, (header, mesh, surf, data)


def _load_cell_mesh(cfg, paths):
    """The stored cell mesh, its extracted interface and read_mesh's data:
    those kept for the file's path and bytes, when they match."""
    key, held = _mesh_key(paths["mesh"]), _reused.get("mesh", (None,))
    if key is not None and held[0] == key:
        header, mesh, surf, data = held[1]
        _check_header(header, cfg, paths["mesh"], "mesh")
        return mesh, surf, data
    header, data = _read(formats.read_mesh, paths["mesh"], "mesh")
    _check_header(header, cfg, paths["mesh"], "mesh")
    vols = geometry.simplex_volumes(data["vertices"], data["simplices"])
    mesh = geometry.CellMesh(vertices=data["vertices"],
                             simplices=data["simplices"], phase=data["phase"],
                             periodic_pairs=data["pairs"], vols=vols)
    if np.any(vols <= 0.0) or abs(vols.sum() - 1.0) > 1e-12:
        raise MissingArtifact(f"{paths['mesh']} does not tile the unit cell "
                              "with positive elements; re-run bh mesh")
    surf = geometry.extract_interface(mesh.vertices, mesh.simplices,
                                      mesh.phase, mesh.periodic_pairs)
    _keep_mesh(key, header, mesh, surf, data)
    return mesh, surf, data


def _cell_system(cfg, mesh, surf):
    """The kept CellSystem if it was built on this mesh object (so the same
    file bytes) and the config's coefficients, else a new one, kept."""
    held = _reused.get("system")
    if held is None or held.mesh is not mesh or held.coeffs != cfg.coeffs:
        held = _reused["system"] = cell.CellSystem(mesh, surf, cfg.coeffs)
    return held


def _manifest(out, command, cfg, started, t0, inputs, outputs):
    formats.write_manifest(
        os.path.join(out, f"{command}.bhrun"), command, cfg.config_hash,
        __version__, started, time.perf_counter() - t0,
        [p for p in inputs if os.path.exists(p)],
        {p: digest for p, digest in outputs.items() if os.path.exists(p)})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_mesh(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf = geometry.build_unit_cell(cfg.geometry)
    sha = formats.write_mesh(paths["mesh"], _header(cfg), mesh.vertices,
                             mesh.simplices, mesh.phase, surf,
                             mesh.periodic_pairs)
    # read_mesh returns these arrays bitwise, and a load extracts this surf
    _keep_mesh(_mesh_key(paths["mesh"]), _header(cfg), mesh, surf, dict(
        vertices=mesh.vertices, simplices=mesh.simplices, phase=mesh.phase,
        facets=surf.facets, component=surf.component, normals=surf.normals,
        pairs=mesh.periodic_pairs))
    if vtk:
        formats.write_vtk(os.path.join(out, "mesh.vtk"), mesh.vertices,
                          mesh.simplices, np.zeros(len(mesh.vertices)),
                          cell_values=mesh.phase)
    return [], {paths["mesh"]: sha}


def cmd_cell(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf, _ = _load_cell_mesh(cfg, paths)
    sysm = _cell_system(cfg, mesh, surf)
    funcs = cell.solve_cell_functions(sysm, cfg.kernel_grid)
    sha = formats.write_arrays(
        paths["cell"], formats.CELL_ARCHIVE, _header(cfg), cfg.kernel_grid,
        [(name, getattr(funcs, name)) for name in _CELL_ARRAYS])

    lines = ["component, direction, residual, tolerance, status"]
    for i, res in enumerate(np.abs(cell.flux_residuals(sysm, funcs.chi0))):
        tol = 1e-8 * surf.area(i)
        lines += [", ".join([str(i), str(j + 1), _F % r, _F % tol,
                             "pass" if r <= tol else "fail"])
                  for j, r in enumerate(res)]
    with open(paths["compat"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if any(ln.endswith("fail") for ln in lines):
        raise BHError("compatibility residuals exceed tolerance; see "
                      + paths["compat"])
    if vtk:
        for j in range(mesh.dim):
            formats.write_vtk(os.path.join(out, f"chi0_{j + 1}.vtk"),
                              mesh.vertices, mesh.simplices,
                              funcs.chi0[j][sysm.vdof])
    return [paths["mesh"]], {paths["cell"]: sha, paths["compat"]: None}


# the arrays of a cell archive, in order: the bulk chi0 and chi0_tilde
# (N, nd), the traces v (N, g), chi1 and omega (N, M+1, g), and W (N, g)
_CELL_ARRAYS = ("chi0", "v", "chi0_tilde", "chi1", "omega", "W")


def _cell_tensors(cfg, paths, mesh, surf):
    """The cell system, the correctors bh cell archived (the arrays of
    _CELL_ARRAYS, in order, shaped for this mesh and config), their tensors."""
    g, sysm = cfg.kernel_grid, _cell_system(cfg, mesh, surf)
    N, nd, ng, L = mesh.dim, sysm.nd, len(sysm.gamma_dofs), g.n_steps + 1
    shapes = {"chi0": (N, nd), "v": (N, ng), "chi0_tilde": (N, nd),
              "chi1": (N, L, ng), "omega": (N, L, ng), "W": (N, ng)}
    _, arrays = _stored_arrays(cfg, paths["cell"], formats.CELL_ARCHIVE,
                               "cell", g, [(name, shapes[name])
                                           for name in _CELL_ARRAYS])
    funcs = cell.CellFunctionSet(**dict(arrays), grid=g)
    return sysm, funcs, tensors.compute_all(sysm, funcs, cfg.topology)


def cmd_tensors(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf, _ = _load_cell_mesh(cfg, paths)
    _, funcs, tens = _cell_tensors(cfg, paths, mesh, surf)
    sha = formats.write_tensors(paths["tensors"], _header(cfg), tens,
                                funcs.grid)
    return [paths["mesh"], paths["cell"]], {paths["tensors"]: sha}


def _stored_tensors(cfg, paths):
    """The values of the tensor file, checked against the config."""
    header, tdata = _read(formats.read_tensors, paths["tensors"], "tensors")
    _check_header(header, cfg, paths["tensors"], "tensors")
    g = cfg.kernel_grid
    if (tdata["kernel"] != (g.t_end, g.step)
            or len(tdata["B0"]) != g.n_steps + 1):
        raise MissingArtifact(f"{paths['tensors']} does not sample the "
                              f"kernel grid {(g.t_end, g.step)} of the "
                              "config; re-run bh tensors")
    return tdata


def _macro_problem(cfg, tdata, path):
    """The macro problem of the config with the tensors tdata read from
    path; disconnected inclusions at k < 1 need the A_hom_klt1 tensor."""
    A_elliptic = (tdata.get("A_hom_klt1") if cfg.k < 1.0
                  else tdata["A_hom_kgt1"])
    if cfg.regime == "klt1" and cfg.topology == "cd" and A_elliptic is None:
        raise MissingArtifact(f"{path} lacks the k < 1 tensor A_hom_klt1; "
                              "re-run bh tensors")
    mesh = macro.build_macro_mesh(cfg.macro_n, cfg.dim)
    u0f = cfg.u0_function()
    prob = macro.MacroProblem(
        mesh=mesh, regime=cfg.regime, grid=cfg.macro_grid,
        lambda0=tdata["lambda0"], A0=tdata["A0"], C0=tdata["C0"],
        B0=tdata["B0"], kernel_grid=TimeGrid(*tdata["kernel"]),
        F_coeffs=tdata["Phi"], source=cfg.source_function(),
        u0_bar=u0f(mesh.vertices) if u0f is not None else None,
        topology=cfg.topology, A_elliptic=A_elliptic)
    return mesh, prob


def _solve_macro(prob):
    if prob.regime.startswith("k1"):
        return macro.solve_homogenized_memory(prob)
    return macro.solve_homogenized_elliptic(prob)


def cmd_macro(cfg, out, vtk):
    paths = _paths(out)
    tdata = _stored_tensors(cfg, paths)
    mesh, prob = _macro_problem(cfg, tdata, paths["tensors"])
    fld = _solve_macro(prob)
    sha = formats.write_arrays(paths["macro"], formats.SOLUTION, _header(cfg),
                               cfg.macro_grid, [("macro", fld.levels)])

    A_inst = prob.lambda0 * np.eye(cfg.dim) + (
        prob.A0 if prob.A0 is not None else 0.0)
    if not cfg.regime.startswith("k1"):
        A_inst = prob.A_elliptic if prob.A_elliptic is not None else A_inst
    U = fld.levels
    # 16 levels per gather, so that the element values stay a few MB
    l2 = np.sqrt(np.concatenate([fem.mass_quadratic(
        mesh.vols, mesh.simplices, U[i:i + 16]) for i in range(0, len(U), 16)]))
    # one product for all levels; each contiguous row of KU equals K_A @ U[n]
    KU = np.ascontiguousarray((macro._tensor_stiffness(mesh.mats, A_inst)
                               @ U.T).T)
    lines = ["t, L2_norm, energy_norm"]
    for n, t in enumerate(cfg.macro_grid.times):
        en = np.sqrt(max(float(U[n] @ KU[n]), 0.0))
        lines.append(", ".join(_F % v for v in (t, l2[n], en)))
    with open(paths["macro_csv"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if vtk:
        for n in range(fld.levels.shape[0]):
            formats.write_vtk(os.path.join(out, f"macro_{n:04d}.vtk"),
                              mesh.vertices, mesh.simplices, fld.levels[n])
    return [paths["tensors"]], {paths["macro"]: sha, paths["macro_csv"]: None}


def _micro_path(out, eps, suffix=".bhsol"):
    return os.path.join(out, f"micro_m{geometry.tiles_per_axis(eps)}{suffix}")


def _tiling(cfg, mesh, surf, eps):
    """The eps-tiling of the cell, stripped for disconnected inclusions."""
    return geometry.tile_micro_domain(mesh, surf.facets, eps,
                                      cfg.topology == "cd")[0]


_ENERGIES = ("energy_bulk", "energy_surface")


def _micro_run(cfg, mmesh):
    return micro.MicroRun(mesh=mmesh, coeffs=cfg.coeffs, k=cfg.k,
                          grid=cfg.macro_grid, u0_bar=cfg.u0_function(),
                          source=cfg.source_function())


def cmd_micro(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf, _ = _load_cell_mesh(cfg, paths)

    def solve(eps):
        """(tiling, solution) of eps, or the error that ended its solve."""
        try:
            mmesh = _tiling(cfg, mesh, surf, eps)
            return mmesh, micro.solve_micro(_micro_run(cfg, mmesh))
        except BHError as exc:
            return exc

    # the files of each eps before the first that failed are written, as
    # when the eps were solved one at a time
    solved = micro._concurrently(*(functools.partial(solve, eps)
                                   for eps in cfg.eps_list))
    written = {}
    for eps, got in zip(cfg.eps_list, solved):
        if isinstance(got, BHError):
            raise got
        mmesh, fld = got
        p = _micro_path(out, eps)
        header = dict(_header(cfg), **{key: _F % fld.diagnostics[key]
                                       for key in _ENERGIES})
        written[p] = formats.write_arrays(p, formats.SOLUTION, header,
                                          cfg.macro_grid,
                                          [("micro", fld.levels)])
        if vtk:
            formats.write_vtk(_micro_path(out, eps, "_final.vtk"),
                              mmesh.vertices, mmesh.simplices, fld.levels[-1])
    return [paths["mesh"]], written


def _read_field(cfg, path, kind, nv):
    """The solution that bh <kind> wrote for this config, with nv values a
    level on cfg.macro_grid (and, from micro, the two energies)."""
    g = cfg.macro_grid
    header, [(_, levels)] = _stored_arrays(cfg, path, formats.SOLUTION, kind,
                                           g, [(kind, (g.n_steps + 1, nv))])
    diagnostics = {}
    if kind == "micro":
        try:
            diagnostics = {key: float(header[key]) for key in _ENERGIES}
        except (KeyError, ValueError):
            raise MissingArtifact(
                f"{path} lacks a well-formed energy_bulk or energy_surface "
                "line; re-run bh micro") from None
    return macro.TransientField(levels=levels, grid=g, diagnostics=diagnostics)


def _micro_fields(cfg, out, mesh, surf, read):
    """Yield (eps, tiling, field) of each micro solution in out, in
    decreasing eps, appending each path to read as it is read."""
    for eps in sorted(cfg.eps_list, reverse=True):
        tiled = _tiling(cfg, mesh, surf, eps)
        path = _micro_path(out, eps)
        field = _read_field(cfg, path, "micro", len(tiled.vertices))
        read.append(path)
        yield eps, tiled, field


def cmd_converge(cfg, out, vtk):
    paths = _paths(out)
    mesh, surf, _ = _load_cell_mesh(cfg, paths)
    read = [paths["mesh"]]
    mmesh = fld = None
    if cfg.regime != "klt1":
        mmesh = macro.build_macro_mesh(cfg.macro_n, cfg.dim)
        fld = _read_field(cfg, paths["macro"], "macro", len(mmesh.vertices))
        read.append(paths["macro"])
    runs = _micro_fields(cfg, out, mesh, surf, read)
    rep = micro.eps_report(cfg.regime, runs, grid=cfg.macro_grid,
                           macro_mesh=mmesh, macro_field=fld)
    with open(paths["study_eps"], "w") as fh:
        fh.write(rep.csv())
    written = {paths["study_eps"]: None}

    if cfg.topology == "cd" and cfg.k == 1.0 and cfg.eta_list:
        u0f = cfg.u0_function()
        if u0f is not None:
            eta_rep = micro.concentration_study(
                cfg.eta_list, spec=cfg.geometry, coeffs=cfg.coeffs,
                grid=cfg.macro_grid, eps=max(cfg.eps_list), u0_bar=u0f)
            with open(paths["study_eta"], "w") as fh:
                fh.write(eta_rep.csv())
            written[paths["study_eta"]] = None
    return read, written


# ---------------------------------------------------------------------------
# verification ledger
# ---------------------------------------------------------------------------

def _verify_checks(cfg, out, read):
    """Yield (name, ok, detail) for every check that applies, from the
    artifacts in out; each file read is appended to read."""
    paths, coeffs = _paths(out), cfg.coeffs
    mesh, surf, stored = _load_cell_mesh(cfg, paths)
    sysm, funcs, tens = _cell_tensors(cfg, paths, mesh, surf)
    tdata = _stored_tensors(cfg, paths)
    read += [paths["mesh"], paths["cell"], paths["tensors"]]
    N = mesh.dim

    pp = mesh.periodic_pairs
    d = mesh.vertices[pp[:, 1]] - mesh.vertices[pp[:, 0]]
    exact = bool(np.all(np.abs(d) == np.eye(N)[pp[:, 2]]))
    yield "periodic_pairs_exact", exact, f"{len(pp)} pairs"

    cent = mesh.vertices[mesh.simplices].mean(axis=1)
    inner, outer = surf.adjacency[:, 0], surf.adjacency[:, 1]
    dots = np.einsum("fk,fk->f", surf.normals, cent[outer] - cent[inner])
    same = all(np.array_equal(stored[key], getattr(surf, key))
               for key in ("facets", "component", "normals"))
    yield "interface_normal_orientation", bool(same and np.all(dots > 0.0)), \
        f"min dot={dots.min():.3e}, stored facets " + (
            "equal the extracted ones" if same else "differ")

    res = cell.flux_residuals(sysm, funcs.chi0)
    worst = max((np.abs(r).max() / (1e-8 * surf.area(i))
                 for i, r in enumerate(res)), default=0.0)
    yield "compatibility_residuals", worst <= 1.0, \
        f"worst residual/tol={worst:.3e}"

    escale = coeffs.alpha * surf.area()
    ok_en = all(cell.energy_nonincreasing(e, scale=escale)
                for Y in (funcs.chi1, funcs.omega)
                for e in cell.surface_energy(sysm, Y))
    yield "cell_energy_dissipation", ok_en, \
        "stored chi1 and omega Lyapunov non-increasing"

    gaps = [v for v in tens.discrepancies.values() if v is not None]
    worst_gap = max(gaps) if gaps else 0.0
    yield "dual_formula_agreement", worst_gap <= 1e-5, \
        "max relative gap=%.3e" % worst_gap

    A_inst = tdata["lambda0"] * np.eye(N) + tdata["A0"]
    sym = np.abs(A_inst - A_inst.T).max() / max(np.abs(A_inst).max(), 1e-300)
    eigs = np.linalg.eigvalsh((A_inst + A_inst.T) / 2)
    coercive = eigs.min() >= 0.95 * min(coeffs.lam_int, coeffs.lam_out)
    yield "instantaneous_tensor_coercive", bool(sym <= 1e-6 and coercive), \
        f"sym={sym:.3e} min eig={eigs.min():.6f}"

    C0 = tdata["C0"]
    if cfg.topology == "cd":
        bound = 5e-3 * coeffs.alpha * surf.area()
        c0max = float(np.abs(C0).max())
        yield "C0_vanishes_disconnected", c0max <= bound, \
            f"max|C0|={c0max:.3e} bound={bound:.3e}"
    else:
        sym = np.abs(C0 - C0.T).max() / max(np.abs(C0).max(), 1e-300)
        ce = np.linalg.eigvalsh((C0 + C0.T) / 2)
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

    A_klt1 = tdata.get("A_hom_klt1")
    if cfg.topology == "cd" and A_klt1 is not None:
        dbl = cell.CellCoefficients(2 * coeffs.lam_int, coeffs.lam_out,
                                    2 * coeffs.alpha)
        sys2 = cell.CellSystem(mesh, surf, dbl)
        A2, _, _ = tensors.compute_Ahom_klt1(sys2, cell.solve_chi0(sys2))
        rel = np.abs(A2 - A_klt1).max() / max(np.abs(A_klt1).max(), 1e-300)
        yield "klt1_coefficient_independence", rel <= 1e-8, \
            f"rel change={rel:.3e}"

    _, prob = _macro_problem(cfg, tdata, paths["tensors"])
    prob.u0_bar, prob.source = np.zeros(len(prob.mesh.vertices)), None
    zero = bool(np.all(_solve_macro(prob).levels == 0.0))
    yield "macro_zero_data_zero_solution", zero, "trivial solution reproduced"

    step_gap, files, exact = 0.0, 0, True
    for _, tiled, fld in _micro_fields(cfg, out, mesh, surf, read):
        gaps = micro.step_gaps(_micro_run(cfg, tiled), fld.levels)
        step_gap = max(step_gap, float(gaps.max(initial=0.0)))
        exact = exact and bool(np.all(fld.levels[:, tiled.boundary_vertices]
                                      == 0.0))
        files += 1
    # the levels bh micro writes for the three configs give at most 1.1e-14,
    # a level negated at least 0.15
    yield "micro_energy_dissipation", step_gap <= 1e-10, \
        f"max step energy gap={step_gap:.3e} over {files} solutions"
    yield "micro_dirichlet_exact", exact, \
        f"boundary rows exactly zero in {files} solutions"

    if cfg.geometry.kind == "Disk2D":
        bc, band_surf = geometry.build_membrane_cell(
            cfg.geometry, min(cfg.eta_list))
        bm, _ = geometry.tile_micro_domain(bc, band_surf.facets,
                                           max(cfg.eps_list), False)
        u0f = cfg.u0_function() or preset_function("sin-product", N)
        bf = micro.solve_membrane(micro.MembraneRun(mesh=bm, coeffs=coeffs,
                                                    grid=cfg.macro_grid,
                                                    u0_bar=u0f))
        me = bf.diagnostics["membrane_energy"]
        yield "membrane_energy_dissipation", cell.energy_nonincreasing(me), \
            f"band energy {me[0]:.4e} -> {me[-1]:.4e}"

    same = (formats.tensor_body(tens, funcs.grid)
            == formats.read_artifact(paths["tensors"], formats.TENSORS)[1])
    yield "tensor_serialization_deterministic", same, \
        "body rebuilt from cell.bhcell " + (
            "equals tensors.bhtens" if same else "differs from tensors.bhtens")


def cmd_verify(cfg, out, vtk):
    paths, read = _paths(out), []
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
             for name, ok, detail in _verify_checks(cfg, out, read)]
    failures = sum(ln.startswith("FAIL") for ln in lines)
    lines.append("result: " + ("all checks passed" if failures == 0
                               else f"{failures} check(s) failed"))
    text = "\n".join(lines) + "\n"
    with open(paths["verify"], "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    if failures:
        raise _VerifyFailed(failures, read, {paths["verify"]: None})
    return read, {paths["verify"]: None}


class _VerifyFailed(Exception):
    def __init__(self, count, inputs, outputs):
        super().__init__(f"{count} verification check(s) failed")
        self.inputs, self.outputs = inputs, outputs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# command -> (function, the commands whose outputs it needs); a function
# returns (files read, {file written: sha256 or None}) for its manifest
_COMMANDS = {
    "mesh": (cmd_mesh, []),
    "cell": (cmd_cell, ["mesh"]),
    "tensors": (cmd_tensors, ["mesh", "cell"]),
    "macro": (cmd_macro, ["tensors"]),
    "micro": (cmd_micro, ["mesh"]),
    "converge": (cmd_converge, ["mesh", "macro", "micro"]),
    "verify": (cmd_verify, ["mesh", "cell", "tensors", "micro"]),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="bh",
        description="Homogenization pipeline for conduction with dynamic "
                    "interface conditions",
        epilog="commands, each with the commands whose outputs it needs:\n"
               + "\n".join(f"  {name:<9} {', '.join(deps)}".rstrip()
                           for name, (_, deps) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("commands", nargs="+", choices=_COMMANDS, metavar="command",
                   help="run in the order given, up to the first that fails")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--vtk", action="store_true",
                   help="also write legacy VTK snapshots")
    return p


def _run_command(command, cfg, config_path, out, vtk):
    """Run one command and write its manifest, also when verify fails."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        read, outputs = _COMMANDS[command][0](cfg, out, vtk)
    except _VerifyFailed as exc:
        _manifest(out, command, cfg, started, t0, [config_path] + exc.inputs,
                  exc.outputs)
        raise
    _manifest(out, command, cfg, started, t0, [config_path] + read, outputs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.out or cfg.out_dir
        os.makedirs(out, exist_ok=True)
        for command in args.commands:
            _run_command(command, cfg, args.config, out, args.vtk)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifact as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except _VerifyFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BHError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
