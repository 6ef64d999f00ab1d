"""Solvers on the eps-periodic microstructure.

Both solvers take the same implicit Euler step,

    (K + c Q) x_n = c Q x_(n-1) + f,   x_n = 0 on the outer boundary,

with f the load of a source of position alone, formed once per march,
and share one march (_march) that starts from the K-harmonic extension of
the initial datum from a support set and records x_n . Q x_n per level.
Every tile is a scaled, translated copy of the unit cell, so the bulk
operators are the cell's phase stiffness matrices scattered tile by tile
(_tiled_stiffness), and volumes and the vertex mass are the cell's times
eps^N: nothing computes the element geometry of a tiling.  2D tilings
solve by substructuring (see _solver), 3D tilings with Jacobi-CG.

Work runs concurrently at two sites, through _concurrently: bh micro
tiles and solves each eps of eps_list on its own thread, and _march
solves the harmonic start beside the steps.  Each result is the same bits
on any number of CPUs.

solve_micro is the dynamic-interface problem for any surface scaling
exponent k: K is the bulk diffusion stiffness, Q the Laplace-Beltrami
stiffness S1 on the interface facets the tiled MicroMesh carries, and
c = eps^k alpha / dt.  The march starts from the harmonic extension of the
scaled initial datum from the interface, the initialization the cell
evolutions use; step_gaps checks stored levels against its steps.

solve_membrane replaces the sharp interface by a thick band of relative
width eta carrying a pseudo-parabolic bulk coefficient alpha/eta: Q is the
band stiffness and c = 1/dt.  As eta shrinks the band concentrates onto
the interface condition above.

local_average is the per-cell volume average used as the computable
surrogate for two-scale convergence, and the study drivers sweep eps or
eta and report L2(0,T; Omega) error sequences with a monotone-decrease
verdict.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import cpus, fem, geometry
from .cell import CellCoefficients
from .errors import (BHError, MissingArtifact, SolverFailure,
                     WrongGeometryClass)
from .formats import _F
from .geometry import (PHASE_INT, PHASE_MEMBRANE, PHASE_OUT, MicroMesh,
                       tile_micro_domain)
from .macro import TransientField
from .timegrid import TimeGrid


# ---------------------------------------------------------------------------
# run descriptions
# ---------------------------------------------------------------------------

@dataclass
class MicroRun:
    mesh: MicroMesh
    coeffs: CellCoefficients
    k: float
    grid: TimeGrid
    u0_bar: object = None          # callable points -> values, or None
    source: object = None          # callable points -> values, or None


@dataclass
class MembraneRun:
    mesh: MicroMesh                # tiled membrane cell, mesh.eta > 0
    coeffs: CellCoefficients
    grid: TimeGrid
    u0_bar: object = None


# ---------------------------------------------------------------------------
# the pseudo-parabolic march
# ---------------------------------------------------------------------------

def _solver(M, fixed, mesh):
    """Solver of M on its free dofs, for the harmonic start and the steps.

    On a 2D tiling it is substructured on the tiling's layout, computed
    once, with the tiles' element phases as their coefficient patterns.  A
    whole-domain factor takes 3.7M fill (L+U nnz) at eps = 1/10 (Disk2D
    h = 0.04, stripped), the skeleton's 0.30M.  On a 3D tiling the skeleton
    is large (tube, eps = 1/4: 9,545 dofs against 20,231 free ones) and
    whole-domain fill grows fast (8.2M at 24,457 dofs), so warm-started
    Jacobi-CG wins.
    """
    if mesh.dim == 3:
        return fem.CGSolver(M, fixed)
    return fem.SubstructuredFactor(
        M, fixed, mesh.substructure,
        mesh.phase.reshape(len(mesh.local_global), -1))


def _tiled_stiffness(mesh, *tables):
    """Bulk stiffness of the tiling for each phase -> coefficient table.

    The unit stiffness A_p of each cell phase p (mesh.cell.phase_stiffness,
    assembled once per cell) is scaled by eps^(N-2) to a tile's.  Tile t
    adds sum_p c(t, p) A_p through local_global[t]; c(t, p) is the table's
    value of the phase p has in t, the matrix phase for every p of a
    stripped tile, so the products are formed per pattern and gathered per
    tile.  One COO matrix takes each table's values in turn and is returned
    for the last table (the unit one, which _march converts beside its
    steps), a CSR conversion for every other."""
    rows, cols, unit = mesh.cell.phase_stiffness
    unit = unit * mesh.eps ** (mesh.dim - 2)
    phases = np.arange(3)          # PHASE_INT, PHASE_OUT, PHASE_MEMBRANE
    lg = mesh.local_global
    coeff = np.array([[t.get(ph, 0.0) for ph in phases] for t in tables])
    kept_stripped = np.array([phases, np.full(3, PHASE_OUT)])
    prods = np.einsum("bsp,pk->bsk", np.take(coeff, kept_stripped, 1), unit)
    # np.take gathers C-ordered blocks, so no ravel below copies
    vals = np.take(prods, mesh.stripped.astype(np.intp), 1)
    coo = sp.coo_matrix((vals[0].ravel(), (np.take(lg, rows, 1).ravel(),
                                           np.take(lg, cols, 1).ravel())),
                        shape=(len(mesh.vertices),) * 2)
    out = []
    for v in vals[:-1]:
        coo.data = v.ravel()
        out.append(coo.tocsr())
    coo.data = vals[-1].ravel()
    return out + [coo]


def _concurrently(*calls):
    """The results of the zero-argument calls, in call order.  The last
    call runs on the calling thread, the others on a pool of one thread per
    call up to one less than the CPUs this process may run on: on one CPU
    every call runs on the calling thread, in call order.

    Every call runs to its end; then the exception of the first call, in
    call order, that failed is raised.  The heavy work of a march (SuperLU
    factors and solves, sparse products and conversions) releases the GIL,
    and each call's arithmetic is the same on any thread, so the results
    do not depend on the pool's size or scheduling.
    """
    workers = min(len(calls), cpus()) - 1
    if workers:
        from concurrent.futures import ThreadPoolExecutor  # at first use
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(_outcome, call) for call in calls[:-1]]
            last = _outcome(calls[-1])
        outcomes = [fut.result() for fut in futures] + [last]
    else:
        outcomes = [_outcome(call) for call in calls]
    for result, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]


def _outcome(call):
    """(result, None) of the call, or (None, the exception it raised)."""
    try:
        return call(), None
    except Exception as exc:
        return None, exc


def _march(K, Q, c, boundary, support, u0, grid, mesh, K_unit, load=None):
    """Implicit Euler march of (K + c Q) x_n = c Q x_(n-1) + load, the same
    load vector (or None) at every step.

    mesh is the tiling K lives on.  x_0 is the K-harmonic extension of the
    nodal values u0 from support + boundary, zero on the boundary (zero
    everywhere when u0 is None or the support is empty); every level is
    zero on the boundary.  x_0 (and K_unit, converted from COO) is computed
    beside the step solver's build and the steps, which start from its fixed
    values alone: Q's columns vanish off them, and a CSR row sum starts at
    +0.0, which a zero product leaves as it is, so Q x_0 is the same bits.
    Returns the levels, x_n . Q x_n per level and the bulk energy
    sum_n dt x_n . K_unit x_n, both taken after the march with one einsum
    each.
    """
    nd = K.shape[0]
    X = np.zeros((grid.n_steps + 1, nd))
    fixed0 = fv = None
    if u0 is not None and len(support):
        fixed0 = np.union1d(support, boundary)
        fv = u0[fixed0]
        fv[np.isin(fixed0, boundary)] = 0.0
        X[0, fixed0] = fv

    def start():
        x0 = None if fv is None else _solver(K, fixed0, mesh).solve(
            np.zeros(nd), fv)
        return x0, K_unit.tocsr()

    def steps():
        fac = _solver((K + c * Q).tocsr(), boundary, mesh)
        for n in range(1, grid.n_steps + 1):
            rhs = c * (Q @ X[n - 1])
            if load is not None:
                rhs += load
            try:
                X[n] = fac.solve(rhs)
            except BHError as exc:
                raise SolverFailure(f"march step {n} failed: {exc}") from exc

    (x0, K_unit), _ = _concurrently(start, steps)
    if x0 is not None:
        X[0] = x0
    quad = np.einsum("ni,in->n", X, Q @ X.T)
    bulk = np.einsum("ni,in->n", X[1:], K_unit @ X[1:].T)
    return X, quad, float(np.sum(grid.step * bulk))


def _micro_operators(run: MicroRun):
    """The arguments of solve_micro's _march, in order: K, Q = S1, c, the
    boundary, the interface dofs that support the scaled initial datum, the
    datum, grid, mesh, the unit-coefficient stiffness and the load vector
    mass * f(V), or None without a source."""
    mesh, coeffs, eps = run.mesh, run.coeffs, run.mesh.eps
    V, S = mesh.vertices, mesh.simplices
    if np.any(mesh.phase == PHASE_MEMBRANE):
        raise WrongGeometryClass("solve_micro expects a sharp two-phase mesh")
    nv = len(V)
    vdof = fem.identity_dof_map(nv)
    K, K_unit = _tiled_stiffness(
        mesh, {PHASE_INT: coeffs.lam_int, PHASE_OUT: coeffs.lam_out},
        {PHASE_INT: 1.0, PHASE_OUT: 1.0})
    # boundary stripping can empty the interface entirely; the march then
    # degenerates to quasi-static diffusion with no surface memory
    S1 = fem.assemble_stiffness(fem.surface_gradients(V, mesh.interface),
                                mesh.interface, 1.0, vdof, nv)
    u0 = load = None
    if run.u0_bar is not None:
        u0 = eps ** ((1.0 - run.k) / 2.0) * np.asarray(run.u0_bar(V),
                                                        dtype=float)
    if run.source is not None:
        load = fem.volume_dof_weights(mesh.volumes(), S, vdof, nv) \
            * np.asarray(run.source(V), dtype=float)
    return (K, S1, eps ** run.k * coeffs.alpha / run.grid.step,
            np.unique(mesh.boundary_vertices), np.unique(mesh.interface), u0,
            run.grid, mesh, K_unit, load)


def solve_micro(run: MicroRun) -> TransientField:
    X, surf_quad, bulk = _march(*_micro_operators(run))
    scale = run.mesh.eps ** run.k
    return TransientField(
        levels=X, grid=run.grid,
        diagnostics={
            "energy_bulk": bulk,
            "energy_surface": scale * float(np.max(surf_quad)),
        })


def step_gaps(run: MicroRun, levels) -> np.ndarray:
    """|x_n . (A x_n - b_n)| / (|x_n| |b_n|), A = K + c Q and b_n =
    c Q x_(n-1) + f, for each step n >= 1 of solve_micro's march on levels;
    where b_n = 0 the denominator is |x_n| |A x_n| instead, and a zero
    denominator gives 0.  Its vanishing is the step's energy identity
    x_n.K x_n + c x_n.Q x_n = c x_n.Q x_(n-1) + x_n.f: the surface energy
    dissipates, up to the work of the source."""
    K, Q, c, *_, load = _micro_operators(run)
    X = np.asarray(levels, dtype=float).T      # one column per level
    b = c * (Q @ X[:, :-1])
    if load is not None:
        b += load[:, None]
    x = X[:, 1:]
    Ax = (K + c * Q) @ x
    num = np.abs(np.einsum("in,in->n", x, Ax - b))
    bnorm = np.linalg.norm(b, axis=0)
    den = np.linalg.norm(x, axis=0) * np.where(
        bnorm > 0.0, bnorm, np.linalg.norm(Ax, axis=0))
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def solve_membrane(run: MembraneRun) -> TransientField:
    mesh = run.mesh
    if mesh.eta <= 0.0 or not np.any(mesh.phase == PHASE_MEMBRANE):
        raise WrongGeometryClass("solve_membrane expects a tiled membrane mesh")
    V, S, phase = mesh.vertices, mesh.simplices, mesh.phase
    coeffs = run.coeffs

    K_lam, K_til, K_unit = _tiled_stiffness(
        mesh, {PHASE_INT: coeffs.lam_int, PHASE_OUT: coeffs.lam_out},
        {PHASE_MEMBRANE: coeffs.alpha / mesh.eta},
        {PHASE_INT: 1.0, PHASE_OUT: 1.0, PHASE_MEMBRANE: 1.0})

    # the initial datum is nodal inside the band and lambda-harmonic outside,
    # so the membrane gradient matches grad u0_bar
    u0 = None if run.u0_bar is None else np.asarray(run.u0_bar(V), dtype=float)
    X, band_quad, bulk = _march(K_lam, K_til, 1.0 / run.grid.step,
                                np.unique(mesh.boundary_vertices),
                                np.unique(S[phase == PHASE_MEMBRANE]), u0,
                                run.grid, mesh, K_unit)
    return TransientField(
        levels=X, grid=run.grid,
        diagnostics={
            "energy_bulk": bulk,
            "energy_surface": float(band_quad.max()) / coeffs.alpha * mesh.eta,
        })


# ---------------------------------------------------------------------------
# local averages and norms
# ---------------------------------------------------------------------------

@dataclass
class CellAverages:
    """Piecewise-constant per-cell averages of a transient field."""

    values: np.ndarray   # (levels, m**dim)
    m: int
    dim: int
    grid: TimeGrid

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        idx = np.minimum((points * self.m).astype(int), self.m - 1)
        flat = np.ravel_multi_index(tuple(idx.T), (self.m,) * self.dim)
        return self.values[:, flat]


def local_average(fld: TransientField, mesh: MicroMesh) -> CellAverages:
    """Exact per-cell volume averages of a P1 field, one value per eps-cell.

    Each eps-cell is one tile, so an average weighs the tile's element
    means with the cell's element volumes.  With 1/eps integer every cell
    lies inside the domain, so the average is defined on the full grid.
    """
    vols = mesh.cell.vols
    elem_mean = fld.levels[:, mesh.simplices].mean(axis=2)   # (levels, ne)
    tiles = elem_mean.reshape(len(elem_mean), len(mesh.local_global), -1)
    return CellAverages(values=np.einsum("ltk,k->lt", tiles, vols) / vols.sum(),
                        m=geometry.tiles_per_axis(mesh.eps), dim=mesh.dim,
                        grid=fld.grid)


# probe lattice points per axis of the study errors, by dimension
_PROBES = {2: 48, 3: 16}


def probe_points(p: int, dim: int) -> np.ndarray:
    """Midpoints of a p^dim lattice."""
    axis = (np.arange(p) + 0.5) / p
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def l2_space_time(samples: np.ndarray, grid: TimeGrid) -> float:
    """Right-endpoint rectangle rule in time, midpoint lattice in space."""
    sq = np.mean(samples[1:] ** 2, axis=1)
    return float(np.sqrt(grid.step * np.sum(sq)))


def l2_space_time_exact(fld: TransientField, mesh) -> float:
    """Rectangle rule in time with the exact P1 mass integral in space."""
    vols, dt = mesh.volumes(), fld.grid.step
    return float(np.sqrt(sum(dt * fem.mass_quadratic(vols, mesh.simplices, u)
                             for u in fld.levels[1:])))


class PointLocator:
    """Element lookup on an unstructured simplicial mesh.

    Nearest element centroids are scanned in order until one contains the
    point up to a small barycentric slack; the least-violating candidate is
    kept as a fallback so evaluation is total on the closed domain.
    """

    def __init__(self, vertices, simplices):
        self.S = simplices
        from scipy.spatial import cKDTree  # 0.1 s; only the sweeps locate
        cent = vertices[simplices].mean(axis=1)
        self.tree = cKDTree(cent)
        v0 = vertices[simplices[:, 0]]
        edges = vertices[simplices[:, 1:]] - v0[:, None, :]
        self.inv = np.linalg.inv(np.transpose(edges, (0, 2, 1)))
        self.v0 = v0

    def locate(self, points):
        k = min(40, len(self.S))
        _, cand = self.tree.query(points, k=k)
        if cand.ndim == 1:
            cand = cand[:, None]
        npts = len(points)
        elems = np.empty(npts, dtype=np.int64)
        bary = np.empty((npts, self.S.shape[1]))
        for i, p in enumerate(points):
            best, best_viol = None, np.inf
            for e in cand[i]:
                lam = self.inv[e] @ (p - self.v0[e])
                b = np.concatenate(([1.0 - lam.sum()], lam))
                viol = -min(b.min(), 0.0)
                if viol < best_viol:
                    best, best_viol, best_b = e, viol, b
                if viol <= 1e-10:
                    break
            elems[i] = best
            bary[i] = best_b
        return elems, bary

    def evaluate(self, levels, points):
        elems, bary = self.locate(points)
        nodal = levels[:, self.S[elems]]                 # (L, P, npv)
        return np.einsum("lpk,pk->lp", nodal, bary)


# ---------------------------------------------------------------------------
# sweep drivers
# ---------------------------------------------------------------------------

@dataclass
class StudyReport:
    param_name: str
    params: list
    errors: list
    energy_bulk: list
    energy_surface: list
    monotone_decrease: bool = field(init=False)

    def __post_init__(self):
        e = self.errors
        self.monotone_decrease = all(e[i] > e[i + 1] for i in range(len(e) - 1))

    def csv(self) -> str:
        lines = [f"{self.param_name}, error_L2, energy_bulk, energy_surface"]
        for row in zip(self.params, self.errors, self.energy_bulk,
                       self.energy_surface):
            lines.append(", ".join(_F % v for v in row))
        lines.append("monotone_decrease: %s"
                     % ("true" if self.monotone_decrease else "false"))
        return "\n".join(lines) + "\n"


def eps_report(regime, runs, *, grid, macro_mesh=None,
               macro_field=None) -> StudyReport:
    """Score micro solutions, solved or read from disk, against the limit.

    runs yields (eps, tiled mesh, TransientField with energy_bulk and
    energy_surface diagnostics) in decreasing eps.  For the k < 1 regimes
    the error is the L2(Omega_T) norm of the micro solution (the limit is
    zero); otherwise the probe-grid L2(Omega_T) distance between its local
    average and the macro field.
    """
    norm_only = regime == "klt1"
    if not norm_only:
        if macro_mesh is None or macro_field is None:
            raise MissingArtifact(
                f"regime {regime} needs a macro reference field")
        dim = macro_mesh.vertices.shape[1]
        pts = probe_points(_PROBES[dim], dim)
        ref = PointLocator(macro_mesh.vertices, macro_mesh.simplices).evaluate(
            macro_field.levels, pts)

    params, errors, e_bulk, e_surf = [], [], [], []
    for eps, mmesh, fld in runs:
        if norm_only:
            err = l2_space_time_exact(fld, mmesh)
        else:
            avg = local_average(fld, mmesh)
            err = l2_space_time(avg.evaluate(pts) - ref, grid)
        params.append(eps)
        errors.append(err)
        e_bulk.append(fld.diagnostics["energy_bulk"])
        e_surf.append(fld.diagnostics["energy_surface"])
    return StudyReport("eps", params, errors, e_bulk, e_surf)


def concentration_study(eta_list, *, spec, coeffs, grid, eps,
                        u0_bar) -> StudyReport:
    """Sweep the membrane thickness at fixed eps against the sharp solver.

    Boundary inclusions are kept on both sides: the concentration limit is
    a fixed-domain statement and at eps = 1/2 stripping would empty the
    geometry entirely.
    """
    cell_mesh, surf = geometry.build_unit_cell(spec)
    sharp_mesh, _ = tile_micro_domain(cell_mesh, surf.facets, eps, False)
    sharp = solve_micro(MicroRun(mesh=sharp_mesh, coeffs=coeffs, k=1.0,
                                 grid=grid, u0_bar=u0_bar))
    pts = probe_points(_PROBES[cell_mesh.dim], cell_mesh.dim)
    ref = PointLocator(sharp_mesh.vertices, sharp_mesh.simplices).evaluate(
        sharp.levels, pts)

    etas = sorted(eta_list, reverse=True)
    errors, e_bulk, e_surf = [], [], []
    for eta in etas:
        band_cell, band_surf = geometry.build_membrane_cell(spec, eta)
        bmesh, _ = tile_micro_domain(band_cell, band_surf.facets, eps, False)
        fld = solve_membrane(MembraneRun(mesh=bmesh, coeffs=coeffs, grid=grid,
                                         u0_bar=u0_bar))
        vals = PointLocator(bmesh.vertices, bmesh.simplices).evaluate(
            fld.levels, pts)
        errors.append(l2_space_time(vals - ref, grid))
        e_bulk.append(fld.diagnostics["energy_bulk"])
        e_surf.append(fld.diagnostics["energy_surface"])
    return StudyReport("eta", etas, errors, e_bulk, e_surf)
