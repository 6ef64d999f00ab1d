"""Cell problems on the periodic unit cell.

Solves, in order:

* chi0    stationary corrector with a perfectly conducting interface:
          per-component surface trace problem, harmonic extension into the
          outer phase with an m x m constant-fixing flux system, harmonic
          extension into the inclusions, global mean zero.
* v       initial surface data: surface Poisson problem per component,
          driven by the conductive flux jump of chi0 + y_j.
* chi1    surface-coupled relaxation started from v (implicit Euler).
* omega   same evolution started from the negated chi0 trace; its flux
          history supplies the source coefficients of the macro problem.
          The bulk is quasi-static, so the 2N relaxations of chi1 and omega
          march together on the g interface dofs alone: the Steklov-Poincare
          reduction of the step matrix is a dense (g+1) x (g+1) system,
          inverted once, and one product with the harmonic extension
          operator E (nd x g, from the two phase factors chi0 builds)
          extends every level into the bulk.
* chi0t   classical periodic corrector for the high-contrast regime k > 1.

Flux functionals are residual based: the discrete normal flux of a solved
field against a surface test function is read off from the bulk stiffness
residual, which makes the compatibility identities hold to solver
precision instead of O(h).
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import (CompatibilityViolated, ComponentSingular,
                     NonpositiveCoefficient, SingularSystem, SolverFailure)
from .geometry import PHASE_INT, PHASE_OUT
from .timegrid import TimeGrid


@dataclass(frozen=True)
class CellCoefficients:
    """Bulk conductivities of the two phases and the surface diffusivity."""

    lam_int: float
    lam_out: float
    alpha: float

    def __post_init__(self):
        if self.lam_int <= 0 or self.lam_out <= 0 or self.alpha <= 0:
            raise NonpositiveCoefficient(
                "lam_int, lam_out and alpha must all be positive")

    @property
    def jump(self) -> float:
        """Coefficient jump [lambda] = lam_out - lam_int."""
        return self.lam_out - self.lam_int


@dataclass
class CellFunctionSet:
    """All correctors of one unit cell, sampled on the kernel time grid."""

    chi0: np.ndarray               # (N, nd)
    v: np.ndarray                  # (N, nd), supported on interface dofs
    chi1: np.ndarray               # (N, M+1, nd)
    omega: np.ndarray              # (N, M+1, nd)
    grid: TimeGrid
    flux_residuals: np.ndarray     # (m, N) discrete int_(Gamma_i) (grad chi0)^out . nu
    chi0_tilde: np.ndarray = None  # (N, nd), only for the k > 1 regime
    chi1_energy: np.ndarray = None   # (N, M+1) surface energies along chi1;
    omega_energy: np.ndarray = None  # (N, M+1) None when read from an archive


class CellSystem:
    """Assembled operators shared by every cell solve on one mesh."""

    def __init__(self, mesh, surf, coeffs: CellCoefficients):
        self.mesh = mesh
        self.surf = surf
        self.coeffs = coeffs
        V, S = mesh.vertices, mesh.simplices
        self.vdof = fem.periodic_dof_map(len(V), mesh.periodic_pairs)
        self.nd = fem.n_dofs(self.vdof)
        self.dim = mesh.dim

        lam = fem.phase_coefficient(mesh.phase, {PHASE_INT: coeffs.lam_int,
                                                 PHASE_OUT: coeffs.lam_out})
        self.lam_elem = lam
        self.grads, self.vols = fem.element_gradients(V, S)
        geom = (self.grads, self.vols)
        self.K = fem.assemble_stiffness(geom, S, lam, self.vdof, self.nd)
        self.S1 = fem.assemble_surface_stiffness(V, surf.facets, 1.0,
                                                 self.vdof, self.nd)
        self.vol_w = fem.volume_dof_weights(self.vols, S, self.vdof, self.nd)

        self.gamma_dofs = np.unique(self.vdof[surf.facets])
        self.surf_w = fem.surface_dof_weights(V, surf.facets, self.vdof, self.nd)

        self.m = surf.n_components
        self.comp_dofs, self.comp_w, self.comp_area, self.net_normal = [], [], [], []
        for c in range(self.m):
            fc = surf.facets[surf.component == c]
            dofs = np.unique(self.vdof[fc])
            w = fem.surface_dof_weights(V, fc, self.vdof, self.nd)
            self.comp_dofs.append(dofs)
            self.comp_w.append(w)
            area = float(surf.measures[surf.component == c].sum())
            self.comp_area.append(area)
            net = (surf.normals[surf.component == c]
                   * surf.measures[surf.component == c, None]).sum(axis=0)
            self.net_normal.append(net)
        self.wrapping = [np.linalg.norm(n) > 1e-8 * a
                         for n, a in zip(self.net_normal, self.comp_area)]

        # per-phase subsystems for Dirichlet extensions and flux readout
        self.sub = {}
        for ph, val in ((PHASE_OUT, coeffs.lam_out), (PHASE_INT, coeffs.lam_int)):
            self.sub[ph] = _PhaseSub(self, ph, val)

        # directional loads over the whole cell, one row per direction
        self.b_dir = np.stack([fem.assemble_gradient_load(
            geom, S, lam, np.tile(np.eye(self.dim)[j], (len(S), 1)),
            self.vdof, self.nd) for j in range(self.dim)])

        self._trace_factors = None
        self._extension = None

    # -- factorizations, built lazily and reused -------------------------

    def trace_factor(self, c):
        if self._trace_factors is None:
            self._trace_factors = [None] * self.m
        if self._trace_factors[c] is None:
            self._trace_factors[c] = fem.DirichletFactor(
                _restrict(self.S1, self.comp_dofs[c]),
                weights=self.comp_w[c][self.comp_dofs[c]])
        return self._trace_factors[c]

    @property
    def extension(self):
        """E (nd x g): the discrete-harmonic extensions of the unit traces on
        gamma_dofs, column i for gamma_dofs[i], so E[gamma_dofs] = I.

        Built once from the two phase factors; the interface separates the
        phases, so each phase extends its own part of every trace.
        """
        if self._extension is None:
            g = len(self.gamma_dofs)
            E = np.zeros((self.nd, g))
            for sub in self.sub.values():
                unit = np.zeros((len(sub.fixed), g))
                cols = np.searchsorted(self.gamma_dofs, sub.dofs[sub.fixed])
                unit[np.arange(len(sub.fixed)), cols] = 1.0
                E[sub.dofs] = sub.factor.solve(
                    np.zeros((len(sub.dofs), g)), unit)
            self._extension = E
        return self._extension


class _PhaseSub:
    """Stiffness of one phase on its own dof set, interface dofs fixed."""

    def __init__(self, sys: CellSystem, phase, lam_val):
        mesh = sys.mesh
        els = np.where(mesh.phase == phase)[0]
        self.elements = els
        sub = mesh.simplices[els]
        dofs = np.unique(sys.vdof[sub])
        self.dofs = dofs
        self.lam = lam_val
        glob_to_sub = -np.ones(sys.nd, dtype=np.int64)
        glob_to_sub[dofs] = np.arange(len(dofs))
        self.glob_to_sub = glob_to_sub
        sdof = glob_to_sub[sys.vdof]
        geom = (sys.grads[els], sys.vols[els])
        self.K = fem.assemble_stiffness(geom, sub, np.full(len(els), lam_val),
                                        sdof, len(dofs))
        self.b_dir = np.stack([fem.assemble_gradient_load(
            geom, sub, np.full(len(els), lam_val),
            np.tile(np.eye(sys.dim)[j], (len(els), 1)), sdof, len(dofs))
            for j in range(sys.dim)])
        self.gamma_sub = [glob_to_sub[d] for d in sys.comp_dofs]
        fixed = np.unique(np.concatenate([g[g >= 0] for g in self.gamma_sub]))
        self.fixed = fixed
        self._factor = None

    @property
    def factor(self):
        """Dirichlet factor of this phase, built on first use: the tensor
        routes read only K, b_dir, dofs and fixed."""
        if self._factor is None:
            self._factor = fem.DirichletFactor(self.K, self.fixed)
        return self._factor

    def extend(self, trace_sub, j=None):
        """Harmonic extension of the interface trace; j adds the e_j load.

        trace_sub is indexed by this phase's sub dofs.
        """
        b = np.zeros(self.K.shape[0]) if j is None else -self.b_dir[j]
        return self.factor.solve(b, trace_sub[self.fixed])

    def flux(self, x_sub, j=None):
        """Weak normal fluxes of lam grad(x + y_j) per component.

        Reads the stiffness residual against the component indicator, which
        equals the flux through Gamma_i against this phase's outward normal
        (that is -nu for the outer phase, +nu for the inclusions).
        """
        r = self.K @ x_sub
        if j is not None:
            r = r + self.b_dir[j]
        out = np.empty(len(self.gamma_sub))
        for i, g in enumerate(self.gamma_sub):
            out[i] = r[g[g >= 0]].sum()
        return out


def _restrict(M, dofs):
    return M.tocsc()[dofs][:, dofs].tocsr()


# ---------------------------------------------------------------------------
# chi0: staged stationary corrector
# ---------------------------------------------------------------------------

def solve_chi0(system: CellSystem, return_diagnostics=False):
    """Stationary correctors chi0^j, j = 1..N, and their flux residuals."""
    sys = system
    N, nd = sys.dim, sys.nd
    surf, mesh = sys.surf, sys.mesh
    chi0 = np.zeros((N, nd))
    residuals = np.zeros((sys.m, N))

    # tangential projections of the coordinate directions, per facet
    nrm = surf.normals
    for j in range(N):
        ej = np.eye(N)[j]
        trace = np.zeros(nd)
        for c in range(sys.m):
            fc = surf.component == c
            vecs = ej - nrm[fc] * nrm[fc][:, j:j + 1]
            rhs = -fem.surface_gradient_load(mesh.vertices, surf.facets[fc],
                                             1.0, vecs, sys.vdof, nd)
            rc = rhs[sys.comp_dofs[c]]
            total = abs(rc.sum())
            if total > 1e-9 * max(1.0, np.abs(rc).sum()) and total > 1e-12:
                raise ComponentSingular(
                    f"trace problem on component {c} has incompatible data "
                    f"(sum {rc.sum():.3e})")
            tc = sys.trace_factor(c).solve(rc)
            trace[sys.comp_dofs[c]] = tc

        # outer extension with the constant-fixing flux system
        out = sys.sub[PHASE_OUT]
        x_out = out.extend(trace[out.dofs], j=j)
        if sys.m > 1:
            lifts, M = [], np.zeros((sys.m, sys.m))
            for c in range(sys.m):
                tr = np.zeros(len(out.dofs))
                g = out.gamma_sub[c]
                tr[g[g >= 0]] = 1.0
                lift = out.factor.solve(np.zeros(len(out.dofs)), tr[out.fixed])
                lifts.append(lift)
                M[:, c] = -out.flux(lift) / sys.coeffs.lam_out
            r0 = _chi0_residual(sys, x_out, j)
            # rows and columns of M sum to zero; fix the constant gauge
            A = M + np.ones((sys.m, sys.m)) / sys.m
            consts = np.linalg.solve(A, -r0)
            for c in range(sys.m):
                x_out = x_out + consts[c] * lifts[c]
                trace[sys.comp_dofs[c]] += consts[c]

        chi = np.zeros(nd)
        chi[out.dofs] = x_out
        chi[sys.gamma_dofs] = trace[sys.gamma_dofs]

        # inner extension (components decouple through the fixed trace)
        inn = sys.sub[PHASE_INT]
        x_int = inn.extend(trace[inn.dofs], j=j)
        only_int = np.setdiff1d(inn.dofs, sys.gamma_dofs, assume_unique=False)
        sub_ids = inn.glob_to_sub[only_int]
        chi[only_int] = x_int[sub_ids]

        chi -= sys.vol_w @ chi  # total volume is 1
        chi0[j] = chi
        residuals[:, j] = _chi0_residual(sys, chi[out.dofs], j)

    if return_diagnostics:
        return chi0, residuals
    return chi0


def _chi0_residual(sys: CellSystem, x_out_sub, j):
    """Discrete int_(Gamma_i) (grad chi0)^out . nu per component.

    The outer-phase stiffness residual against the component indicator is
    the weak flux of lam_out grad(chi0 + y_j); peeling off the y_j part
    leaves the quantity the corrector construction must annihilate.
    """
    out = sys.sub[PHASE_OUT]
    flux = out.flux(x_out_sub, j=j)     # int lam_out grad(chi+y_j).(-nu) weakly
    res = np.empty(sys.m)
    for i in range(sys.m):
        res[i] = -flux[i] / sys.coeffs.lam_out - sys.net_normal[i][j]
    return res


# ---------------------------------------------------------------------------
# v: initial surface data from the chi0 flux jump
# ---------------------------------------------------------------------------

def solve_v_init(system: CellSystem, chi0: np.ndarray):
    """Surface Poisson solves -alpha lap_B v_j = [lam grad(y_j + chi0^j).nu].

    The right hand side is the full-stiffness residual of chi0 on the
    interface dofs.  On closed (non-wrapping) components its mean must
    vanish to 1e-8 * |Gamma_i|; wrapping components of layered cells carry
    a structural imbalance, which the weighted trace factor projects out.
    """
    sys = system
    N, nd = sys.dim, sys.nd
    v = np.zeros((N, nd))
    for j in range(N):
        L = -(sys.K @ chi0[j] + sys.b_dir[j])
        for c in range(sys.m):
            dofs = sys.comp_dofs[c]
            Lc = L[dofs]
            total = Lc.sum()
            if not sys.wrapping[c] and abs(total) > 1e-8 * sys.comp_area[c]:
                raise CompatibilityViolated(
                    f"surface data on closed component {c} has mean "
                    f"{total:.3e} > 1e-8 * |Gamma_{c}|")
            v[j, dofs] = sys.trace_factor(c).solve(Lc / sys.coeffs.alpha)
    return v


# ---------------------------------------------------------------------------
# coupled bulk-surface relaxation
# ---------------------------------------------------------------------------

def evolve_surface_coupled(system: CellSystem, surface_init: np.ndarray,
                           grid: TimeGrid):
    """Implicit Euler for the quasi-static bulk / dynamic surface problem.

    surface_init holds the initial trace on the interface dofs, either one
    trace of length nd or k traces as the rows of a (k, nd) array; all of
    them march together.  Only the surface law carries time, so the state
    at every level is E y, the discrete-harmonic extension
    (CellSystem.extension, nd x g) of its trace y on the g interface dofs,
    and the march runs on y alone.  Testing the bordered step
    (K + alpha/dt S1) x + mu w = alpha/dt S1 x_prev, w^T x = 0 against E
    gives the Steklov-Poincare system

        [[Sigma + alpha/dt S, E^T w], [w^T E, 0]] [y; mu] = [alpha/dt S y_prev; 0]

    with Sigma = (K E)[Gamma] and S = S1[Gamma, Gamma].  It is inverted
    once, in numpy, and the inverse is applied to each step's right-hand
    side; one product E Y then extends every level.  Each step checks its
    residual per column to 1e-10 of the right-hand side and each level its
    volume mean to 1e-12; a failure raises SolverFailure naming the step or
    the level.  The surface energy alpha y^T S y never increases; each step
    dissipates 2 dt X K X + alpha d S1 d exactly.  The levels agree with a
    bulk march (one bordered sparse solve per step) to 1.5e-13 relative on
    a 6,060-dof cell with g = 120.

    Returns (X, energy): X has shape (n_steps + 1, nd) and energy
    (n_steps + 1,) for one trace, (k, n_steps + 1, nd) and (k, n_steps + 1)
    for k traces.
    """
    sys = system
    n, c = grid.n_steps, sys.coeffs.alpha / grid.step
    gam = sys.gamma_dofs
    g = len(gam)
    E = sys.extension
    S = _restrict(sys.S1, gam).toarray()
    Ew = E.T @ sys.vol_w
    A = sys.K[gam] @ E + c * S
    B = np.block([[A, Ew[:, None]], [Ew[None, :], np.zeros((1, 1))]])
    # np.linalg.inv, not scipy.linalg: scipy loads its own BLAS thread pool,
    # and on small hosts the two pools contend between the numpy products
    try:
        B_inv = np.linalg.inv(B)[:, :g]     # the constraint row's rhs is 0
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"interface step system: {exc}") from exc

    traces = np.atleast_2d(surface_init)[:, gam].T
    Y = np.empty((n + 1,) + traces.shape)   # (level, interface dof, trace)
    SY = np.empty_like(Y)
    Y[0] = traces - Ew @ traces             # E 1 = 1 and the volume is 1
    SY[0] = S @ Y[0]
    for k in range(1, n + 1):
        rhs = c * SY[k - 1]
        sol = B_inv @ rhs
        Y[k] = sol[:g]
        try:
            fem.residual_check(A, Y[k], rhs - np.outer(Ew, sol[g]))
        except SingularSystem as exc:
            raise SolverFailure(f"surface evolution step {k} failed: {exc}") from exc
        SY[k] = S @ Y[k]
    energy = sys.coeffs.alpha * np.einsum("ngk,ngk->kn", Y, SY)

    X = (Y.transpose(2, 0, 1).reshape(-1, g) @ E.T).reshape(
        traces.shape[1], n + 1, sys.nd)
    mean = np.abs(X @ sys.vol_w) / max(float(np.abs(sys.vol_w).sum()), 1e-300)
    bad = np.nonzero(~(mean <= 1e-12).all(axis=0))[0]
    if len(bad):
        raise SolverFailure(f"surface evolution level {bad[0]}: mean-zero "
                            f"constraint violated by {mean[:, bad[0]].max():.3e}")
    if np.ndim(surface_init) == 1:
        return X[0], energy[0]
    return X, energy


# ---------------------------------------------------------------------------
# classical corrector for k > 1
# ---------------------------------------------------------------------------

def solve_chi0_tilde(system: CellSystem) -> np.ndarray:
    """Periodic correctors of plain two-phase diffusion (no interface law)."""
    sys = system
    fac = fem.DirichletFactor(sys.K, weights=sys.vol_w)
    out = np.zeros((sys.dim, sys.nd))
    for j in range(sys.dim):
        out[j] = fac.solve(-sys.b_dir[j])
    return out


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def solve_cell_functions(system: CellSystem, grid: TimeGrid,
                         with_chi0_tilde=False) -> CellFunctionSet:
    """Run the full corrector pipeline on one unit cell."""
    sys = system
    chi0, residuals = solve_chi0(sys, return_diagnostics=True)
    v = solve_v_init(sys, chi0)
    N = sys.dim
    # one march for all 2N correctors; chi1 and omega are views of its levels
    X, energy = evolve_surface_coupled(sys, np.concatenate([v, -chi0]), grid)
    tilde = solve_chi0_tilde(sys) if with_chi0_tilde else None
    return CellFunctionSet(chi0=chi0, v=v, chi1=X[:N], omega=X[N:], grid=grid,
                           flux_residuals=residuals, chi0_tilde=tilde,
                           chi1_energy=energy[:N], omega_energy=energy[N:])


def energy_nonincreasing(series, scale=1.0, rtol=1e-12, floor=1e-20):
    """True when a Lyapunov sequence never increases beyond roundoff.

    A series whose magnitude stays below ``floor * scale`` is accepted as
    identically zero: degenerate geometries produce pure-roundoff energies
    and a relative test against the first sample would compare noise with
    noise. ``scale`` should carry the physical magnitude of a nontrivial
    energy, e.g. alpha times the interface area for the cell correctors.
    """
    e = np.asarray(series, dtype=float)
    if float(np.abs(e).max()) <= floor * max(scale, 0.0):
        return True
    return bool(np.all(np.diff(e) <= rtol * max(float(e[0]), 0.0)))
