"""Cell problems on the periodic unit cell.

Every corrector has one form, P + E y.  P is the response of each phase
to the directional loads with a zero interface trace, and E, an operator
(CellSystem.extend) and never a matrix, the discrete-harmonic extension
of a trace y on the g interface dofs: the dynamics need only Sigma =
(K E)[Gamma], the phases' Schur complements summed (Quarteroni and Valli,
1999, ch. 1).  The bulk is quasi-static; only the trace carries the
structure.  Solves, in order:

* chi0    stationary corrector with a perfectly conducting interface: y
          from per-component surface trace problems, their constants from
          an m x m flux system, then global mean zero.
* v       initial surface data: surface Poisson problem per component,
          driven by the conductive flux jump of chi0 + y_j.
* chi1    surface-coupled relaxation started from v (implicit Euler).
* omega   same evolution started from the negated chi0 trace; its flux
          history supplies the source coefficients of the macro problem.
          The 2N relaxations of chi1 and omega march together on y alone:
          the Steklov-Poincare reduction of the step matrix is a dense
          (g+1) x (g+1) system, inverted once.
* chi0t   classical periodic corrector for the high-contrast regime k > 1:
          y from the same reduced system at zero time step weight.

chi0 and chi0_tilde are kept in the bulk, since their tensors need the
stiffness.  v, chi1 and omega are kept as their traces: every tensor read
from them needs the facet values and the directional moments W (N x g)
alone, and a level's bulk field E y is never formed.

Flux functionals are residual based: the discrete normal flux of a solved
field against a surface test function is read off from the bulk stiffness
residual, which makes the compatibility identities hold to solver
precision instead of O(h).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem
from .errors import (CompatibilityViolated, ComponentSingular,
                     NonpositiveCoefficient, SingularSystem, SolverFailure)
from .geometry import PHASE_INT, PHASE_OUT, periodic_classes
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
    """All correctors of one unit cell, sampled on the kernel time grid:
    the six arrays of a cell archive and their grid, whether solved or read
    back.  flux_residuals and surface_energy derive the diagnostics."""

    chi0: np.ndarray               # (N, nd)
    v: np.ndarray                  # (N, g), traces on gamma_dofs
    chi0_tilde: np.ndarray         # (N, nd), the corrector of the k > 1 regime
    chi1: np.ndarray               # (N, M+1, g), traces on gamma_dofs
    omega: np.ndarray              # (N, M+1, g), traces on gamma_dofs
    W: np.ndarray                  # (N, g) = b_dir E: int lam grad(E y) = W y
    grid: TimeGrid


class CellSystem:
    """Assembled operators shared by every cell solve on one mesh."""

    def __init__(self, mesh, surf, coeffs: CellCoefficients):
        self.mesh = mesh
        self.surf = surf
        self.coeffs = coeffs
        V, S = mesh.vertices, mesh.simplices
        self.vdof = periodic_classes(len(V), mesh.periodic_pairs)
        self.nd = fem.n_dofs(self.vdof)
        self.dim = mesh.dim

        lam = fem.phase_coefficient(mesh.phase, {PHASE_INT: coeffs.lam_int,
                                                 PHASE_OUT: coeffs.lam_out})
        geom = fem.element_gradients(V, S, mesh.vols)
        self.vols = geom[1]
        # the element matrices, and the element loads of the directions
        # (direction, element, vertex); each phase takes its own rows of them
        kloc = fem.stiffness_kernels(geom, lam)
        loads = np.stack([fem.gradient_load_kernels(
            geom, lam, np.tile(np.eye(self.dim)[j], (len(S), 1)))
            for j in range(self.dim)])
        self.K = fem.scatter_matrix(kloc, self.vdof[S], self.nd)
        self.b_dir = np.stack([fem.scatter_vector(c, self.vdof[S], self.nd)
                               for c in loads])
        # the facet geometry: S1, the component weights, the chi0 trace
        # loads and the surface tensor routes all read it
        self.facet_geom = fem.surface_gradients(V, surf.facets)
        self.S1 = fem.assemble_stiffness(self.facet_geom, surf.facets, 1.0,
                                         self.vdof, self.nd)
        self.vol_w = fem.volume_dof_weights(self.vols, S, self.vdof, self.nd)

        self.gamma_dofs = np.unique(self.vdof[surf.facets])

        self.m = surf.n_components
        on = [surf.component == c for c in range(self.m)]
        self.comp_dofs = [np.unique(self.vdof[surf.facets[f]]) for f in on]
        self.comp_w = [fem.volume_dof_weights(
            self.facet_geom[1][f], surf.facets[f], self.vdof, self.nd)
            for f in on]
        self.comp_area = [float(surf.measures[f].sum()) for f in on]
        self.net_normal = [(surf.normals[f] * surf.measures[f, None]).sum(0)
                           for f in on]
        self.wrapping = [np.linalg.norm(n) > 1e-8 * a
                         for n, a in zip(self.net_normal, self.comp_area)]
        # each component's positions in gamma_dofs, where traces live
        self.comp_pos = [np.searchsorted(self.gamma_dofs, d)
                         for d in self.comp_dofs]

        # per-phase subsystems for Dirichlet extensions and flux readout
        self.sub = {ph: _PhaseSub(self, ph, val, kloc, loads) for ph, val in (
            (PHASE_OUT, coeffs.lam_out), (PHASE_INT, coeffs.lam_int))}

    # -- factorizations and phase solves, built lazily and reused --------

    @cached_property
    def trace_factors(self):
        """The weighted factor of S1 on each component."""
        return [fem.DirichletFactor(_restrict(self.S1, d), weights=w[d])
                for d, w in zip(self.comp_dofs, self.comp_w)]

    @cached_property
    def interface_operators(self):
        """(Sigma, P, Ew, W), E never formed: Sigma = (K E)[Gamma] sums the
        phases' Schur complements; row j of P (N x nd) answers the -b_dir_j
        load with a zero trace, and the same solve gives z = K_II^-1 w_I.  As
        K is symmetric, Ew = E^T w = w_Gamma - (K z)[Gamma] and W = b_dir E
        = (b_dir + P K)[:, Gamma] (N x g)."""
        gam, N = self.gamma_dofs, self.dim
        Sigma, P = np.zeros((len(gam), len(gam))), np.zeros((N, self.nd))
        Ew = self.vol_w[gam].copy()
        for sub in self.sub.values():
            pos = np.ix_(sub.trace_pos, sub.trace_pos)
            Sigma[pos] += sub.factor.schur(sub.K)
            x = sub.factor.solve(np.column_stack([-sub.b_dir.T,
                                                  self.vol_w[sub.dofs]]))
            P[:, sub.dofs] = x[:, :N].T
            Ew[sub.trace_pos] -= (sub.K @ x[:, N])[sub.fixed]
        W = self.b_dir[:, gam] + (self.K[gam] @ P.T).T
        return Sigma, P, Ew, W

    def extend(self, Y):
        """E Y (nd x k) of the traces Y (g x k) on gamma_dofs: one solve per
        phase with Y as its fixed values."""
        X = np.zeros((self.nd, Y.shape[1]))
        for sub in self.sub.values():
            X[sub.dofs] = sub.factor.solve(
                np.zeros((len(sub.dofs), Y.shape[1])), Y[sub.trace_pos])
        return X


class _PhaseSub:
    """Stiffness of one phase on its own dof set, interface dofs fixed, from
    its elements' rows of the cell's element matrices and loads."""

    def __init__(self, sys: CellSystem, phase, lam_val, kloc, loads):
        mesh = sys.mesh
        self.elements = els = np.flatnonzero(mesh.phase == phase)
        sub = mesh.simplices[els]
        self.dofs = dofs = np.unique(sys.vdof[sub])
        self.lam = lam_val
        glob_to_sub = -np.ones(sys.nd, dtype=np.int64)
        glob_to_sub[dofs] = np.arange(len(dofs))
        sdof = glob_to_sub[sys.vdof[sub]]
        self.K = fem.scatter_matrix(kloc[els], sdof, len(dofs))
        self.b_dir = np.stack([fem.scatter_vector(c[els], sdof, len(dofs))
                               for c in loads])
        # each component's dofs in this phase, and all of them
        comp = [glob_to_sub[d] for d in sys.comp_dofs]
        self.gamma_sub = [g[g >= 0] for g in comp]
        self.fixed = np.unique(np.concatenate(self.gamma_sub))
        self.trace_pos = np.searchsorted(sys.gamma_dofs, dofs[self.fixed])

    @cached_property
    def factor(self):
        """Dirichlet factor of this phase, built on first use: the tensor
        routes read only K, b_dir, dofs and fixed."""
        return fem.DirichletFactor(self.K, self.fixed)

    def flux(self, x_sub, load=0.0):
        """Weak normal fluxes per component and column of x_sub: with load
        b_dir_j, the residual K x + load summed over Gamma_i is the flux of
        lam grad(x + y_j) against this phase's outward normal (that is -nu
        for the outer phase, +nu for the inclusions)."""
        r = self.K @ x_sub + load
        return np.array([r[g].sum(axis=0) for g in self.gamma_sub])


def _restrict(M, dofs):
    return M.tocsc()[dofs][:, dofs].tocsr()


# ---------------------------------------------------------------------------
# chi0: staged stationary corrector
# ---------------------------------------------------------------------------

def solve_chi0(system: CellSystem):
    """Stationary correctors chi0^j, j = 1..N, as an (N, nd) array.

    chi0^j = P_j + E y_j.  The per-component surface problems give the
    trace y_j up to one constant per component; with m > 1 components the
    m x m flux system of the lifts E 1_c fixes the constants so that no net
    flux crosses any component.  The field is then shifted to volume mean
    zero.  (K E Y)[Gamma] = Sigma Y must hold to 1e-10 of the norms of
    (K X)[Gamma], (K P)[Gamma] and Sigma Y, or SolverFailure is raised.
    """
    sys = system
    N, nd, g = sys.dim, sys.nd, len(sys.gamma_dofs)
    surf, (fgrads, fmeas) = sys.surf, sys.facet_geom
    Sigma, P, _, _ = sys.interface_operators
    Y = np.zeros((g, N))
    ind = np.zeros((g, sys.m))          # component indicators on gamma_dofs
    for c in range(sys.m):
        pos = sys.comp_pos[c]
        ind[pos, c] = 1.0
        # tangential projections of the coordinate directions, per facet
        fc = surf.component == c
        nrm, geom = surf.normals[fc], (fgrads[fc], fmeas[fc])
        rhs = np.stack([-fem.assemble_gradient_load(
            geom, surf.facets[fc], 1.0, np.eye(N)[j] - nrm * nrm[:, j:j + 1],
            sys.vdof, nd)[sys.comp_dofs[c]] for j in range(N)], axis=1)
        total = rhs.sum(axis=0)
        bad = np.abs(total) > 1e-9 * np.maximum(1.0, np.abs(rhs).sum(axis=0))
        if bad.any():
            raise ComponentSingular(
                f"trace problem on component {c} has incompatible data "
                f"(sum {total[bad][0]:.3e})")
        Y[pos] = sys.trace_factors[c].solve(rhs)

    EY = sys.extend(np.hstack([Y, ind]) if sys.m > 1 else Y)
    X = P.T + EY[:, :N]
    KP, KE = (sys.K[sys.gamma_dofs] @ Z for Z in (P.T, EY[:, :N]))
    SY = Sigma @ Y
    gap = np.linalg.norm(KE - SY)
    if not gap <= 1e-10 * sum(map(np.linalg.norm, (KP + KE, KP, SY))):
        raise SolverFailure(f"interface operator off by {gap:.3e}")
    out = sys.sub[PHASE_OUT]
    if sys.m > 1:
        M = -out.flux(EY[out.dofs, N:]) / sys.coeffs.lam_out
        # rows and columns of M sum to zero; fix the constant gauge
        consts = np.linalg.solve(M + 1.0 / sys.m,
                                 -flux_residuals(sys, X.T))
        X += EY[:, N:] @ consts
    X -= sys.vol_w @ X  # total volume is 1
    return np.ascontiguousarray(X.T)


def flux_residuals(system: CellSystem, chi0: np.ndarray):
    """Discrete int_(Gamma_i) (grad chi0^j)^out . nu, (m, N), of the (N, nd)
    fields chi0.

    The outer-phase stiffness residual against the component indicator is
    the weak flux of lam_out grad(chi0 + y_j); peeling off the y_j part
    leaves the quantity the corrector construction must annihilate.
    """
    out = system.sub[PHASE_OUT]
    X_out = np.ascontiguousarray(chi0[:, out.dofs].T)
    flux = out.flux(X_out, out.b_dir.T)  # int lam_out grad(chi+y_j).(-nu)
    return -flux / system.coeffs.lam_out - np.array(system.net_normal)


# ---------------------------------------------------------------------------
# v: initial surface data from the chi0 flux jump
# ---------------------------------------------------------------------------

def solve_v_init(system: CellSystem, chi0: np.ndarray):
    """Surface Poisson solves -alpha lap_B v_j = [lam grad(y_j + chi0^j).nu].

    The right hand side is the full-stiffness residual of chi0 on the
    interface dofs.  On closed (non-wrapping) components its mean must
    vanish to 1e-8 * |Gamma_i|; wrapping components of layered cells carry
    a structural imbalance, which the weighted trace factor projects out.
    Returns the traces on gamma_dofs, (N, g).
    """
    sys = system
    N = sys.dim
    v = np.zeros((N, len(sys.gamma_dofs)))
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
            v[j, sys.comp_pos[c]] = sys.trace_factors[c].solve(
                Lc / sys.coeffs.alpha)
    return v


# ---------------------------------------------------------------------------
# coupled bulk-surface relaxation
# ---------------------------------------------------------------------------

def evolve_surface_coupled(system: CellSystem, traces: np.ndarray,
                           grid: TimeGrid):
    """Implicit Euler for the quasi-static bulk / dynamic surface problem.

    traces holds k initial traces on the g interface dofs as the rows of a
    (k, g) array; all of them march together.  Only the surface law carries
    time, so the state at every level is E y, the discrete-harmonic
    extension (CellSystem.extend) of its trace y, and the march runs on y
    alone.  Testing the bordered step
    (K + alpha/dt S1) x + mu w = alpha/dt S1 x_prev, w^T x = 0 against E
    gives the Steklov-Poincare system

        [[Sigma + alpha/dt S, E^T w], [w^T E, 0]] [y; mu] = [alpha/dt S y_prev; 0]

    with Sigma = (K E)[Gamma] and S = S1[Gamma, Gamma].  It is inverted
    once, in numpy, and the inverse is applied to each step's right-hand
    side.  Each step checks its residual per column to 1e-10 of the
    right-hand side and each level the volume mean w^T E y = y . E^T w
    (fem.mean_zero_check); a failure raises SolverFailure naming the level.
    The surface energy alpha y^T S y (surface_energy) never increases;
    each step dissipates 2 dt X K X + alpha d S1 d exactly, with X = E y.
    The levels, extended by E, agree with a bulk march (one bordered sparse
    solve per step) to 1.5e-13 relative on a 6,060-dof cell with g = 120.

    Returns the levels Y, (k, n_steps + 1, g).
    """
    sys = system
    n, c = grid.n_steps, sys.coeffs.alpha / grid.step
    g = len(sys.gamma_dofs)
    S = _restrict(sys.S1, sys.gamma_dofs).toarray()
    A, Ew, B_inv = _interface_system(sys, c * S)
    B_inv = B_inv[:, :g]                    # the constraint row's rhs is 0

    # (interface dof, trace), C-ordered, so that the BLAS products, and
    # with them the levels' last bits, do not depend on the caller's layout
    traces = np.ascontiguousarray(np.asarray(traces).T)
    Y = np.empty((n + 1,) + traces.shape)   # (level, interface dof, trace)
    Y[0] = traces - Ew @ traces             # E 1 = 1 and the volume is 1
    for k in range(n + 1):
        try:
            if k:
                rhs = c * (S @ Y[k - 1])
                sol = B_inv @ rhs
                Y[k] = sol[:g]
                fem.residual_check(A, Y[k], rhs - np.outer(Ew, sol[g]))
            fem.mean_zero_check(Ew @ Y[k], sys.vol_w)
        except SingularSystem as exc:
            raise SolverFailure(f"surface evolution level {k}: {exc}") from exc
    return np.ascontiguousarray(Y.transpose(2, 0, 1))


def surface_energy(system: CellSystem, Y: np.ndarray):
    """alpha y^T S1 y of every trace y on gamma_dofs, the rows of Y (any
    leading shape, g last)."""
    S = _restrict(system.S1, system.gamma_dofs).toarray()
    return system.coeffs.alpha * np.einsum("...g,...g->...", Y, Y @ S)


# ---------------------------------------------------------------------------
# classical corrector for k > 1
# ---------------------------------------------------------------------------

def solve_chi0_tilde(system: CellSystem) -> np.ndarray:
    """Periodic correctors of plain two-phase diffusion (no interface law):
    K x_j = -b_dir_j with volume mean zero.

    x_j = P_j + E y_j satisfies every row off the interface by construction;
    the interface rows and the mean give the bordered system of the march
    at c = 0, [[Sigma, E^T w], [w^T E, 0]] [y_j; mu_j] = [-W_j; -w^T P_j],
    W_j = (b_dir_j + K P_j)[Gamma].  mu_j takes the roundoff of sum b_dir_j.
    Each column checks the whole-K residual of this bordered system to
    1e-10 and its volume mean (fem.mean_zero_check); a failure raises
    SingularSystem.
    """
    sys = system
    gam, g = sys.gamma_dofs, len(sys.gamma_dofs)
    _, P, _, W = sys.interface_operators
    _, Ew, B_inv = _interface_system(sys, 0.0)
    sol = B_inv @ np.vstack([-W.T, -(P @ sys.vol_w)[None, :]])
    X = P.T + sys.extend(sol[:g])
    load = -sys.b_dir.T
    load[gam] -= np.outer(Ew, sol[g])
    fem.residual_check(sys.K, X, load)
    fem.mean_zero_check(sys.vol_w @ X, sys.vol_w)
    return np.ascontiguousarray(X.T)


def _interface_system(sys: CellSystem, cS):
    """The Steklov-Poincare reduction of K + cS on the interface dofs.

    Returns A = Sigma + cS, Sigma = (K E)[Gamma] the phases' Schur
    complements summed, Ew = E^T w and the inverse of the bordered
    [[A, Ew], [Ew^T, 0]] ((g+1) x (g+1)); raises SolverFailure when it is
    singular.
    """
    Sigma, _, Ew, _ = sys.interface_operators
    A = Sigma + cS
    B = np.block([[A, Ew[:, None]], [Ew[None, :], np.zeros((1, 1))]])
    try:
        return A, Ew, np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"interface system: {exc}") from exc


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def solve_cell_functions(system: CellSystem, grid: TimeGrid) -> CellFunctionSet:
    """Run the full corrector pipeline on one unit cell."""
    sys = system
    chi0 = solve_chi0(sys)
    v = solve_v_init(sys, chi0)
    N = sys.dim
    # one march for all 2N correctors; chi1 and omega are views of its levels
    Y = evolve_surface_coupled(
        sys, np.concatenate([v, -chi0[:, sys.gamma_dofs]]), grid)
    return CellFunctionSet(chi0=chi0, v=v, chi0_tilde=solve_chi0_tilde(sys),
                           chi1=Y[:N], omega=Y[N:],
                           W=sys.interface_operators[3], grid=grid)


def energy_nonincreasing(series, scale=1.0):
    """True when each step of a Lyapunov sequence rises at most 1e-12 e[0].

    A series whose magnitude stays below ``1e-20 * scale`` is accepted as
    identically zero: degenerate geometries produce pure-roundoff energies
    and a relative test against the first sample would compare noise with
    noise. ``scale`` should carry the physical magnitude of a nontrivial
    energy, e.g. alpha times the interface area for the cell correctors.
    """
    e = np.asarray(series, dtype=float)
    if float(np.abs(e).max()) <= 1e-20 * max(scale, 0.0):
        return True
    return bool(np.all(np.diff(e) <= 1e-12 * max(float(e[0]), 0.0)))
