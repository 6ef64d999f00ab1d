"""Macroscopic limit problems on the unit domain.

The k = 1 limit is a memory equation: the flux at time t combines an
instantaneous part (lambda0 I + A0) grad u, a surface-capacity part
C0 grad u_t (only when the inclusion phase connects), and a convolution
with the kernel B0.  Implicit Euler with a trapezoidal history sum gives
the step system

    [K_C0/dt + K_A + (dt/2) K_B0(0)] u^n =
        K_C0/dt u^(n-1) - dt sum_(0<m<n) K_B0(t_n - t_m) u^m
        - (dt/2) K_B0(t_n) u^0 + F^n

where K_M is the stiffness matrix with constant tensor coefficient M.
The kernel samples are resampled onto the macro grid by linear
interpolation.  For disconnected inclusions C0 = 0, u has no initial
condition, and the march starts at n = 1 with an empty history.

The history is one dense product over a buffer of the stored levels
(level 0 weighted 1/2): sum_m B0(t_n - t_m) u^m gives N^2 nodal vectors,
one per tensor component, which meet the N^2 component stiffness matrices,
stacked side by side, in one sparse product.  The Phi loads are built
once before the march and only recombined per step: the load of entry
(j, h) is the component product -K_hj u0.  The source is a function of
position alone, so its load, the lumped vertex mass times the source, is
formed once too.  The work stays O(M^2) in the number of steps.

The k != 1 limits are elliptic problems whose one solve fills every level.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import (ConfigInvalid, SingularStep, SingularSystem,
                     WrongGeometryClass)
from .geometry import kuhn_tetrahedra
from .timegrid import TimeGrid

REGIMES = ("k1_connected_connected", "k1_connected_disconnected", "klt1", "kgt1")


# ---------------------------------------------------------------------------
# structured macroscopic meshes
# ---------------------------------------------------------------------------

@dataclass
class MacroMesh:
    vertices: np.ndarray
    simplices: np.ndarray
    boundary: np.ndarray   # vertex ids on the outer boundary
    n: int
    dim: int
    vols: np.ndarray       # signed element volumes
    mass: np.ndarray       # lumped vertex mass: a nodal f loads mass * f
    mats: dict             # component stiffness matrices K_ab, see below


def build_macro_mesh(n: int, dim: int = 2) -> MacroMesh:
    """Uniform simplicial grid on the unit square or cube.

    2D cells are split along the same diagonal everywhere.  The mesh
    carries its element volumes, vertex mass and component stiffness
    matrices, so the solvers and their callers never recompute them.
    """
    lin = np.arange(n + 1) / n
    lin[-1] = 1.0
    if dim == 2:
        # vertex (i, j) has id j (n+1) + i; cells in j, i order, each split
        # into (v00, v10, v11) and (v00, v11, v01)
        vertices = np.stack(np.meshgrid(lin, lin), axis=-1).reshape(-1, 2)
        v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).reshape(-1, 1)
        simplices = (v00 + np.array([0, 1, n + 2, 0, n + 2, n + 1])
                     ).reshape(-1, 3)
    elif dim == 3:
        vertices = np.stack(np.meshgrid(lin, lin, lin, indexing="ij"),
                            axis=-1).reshape(-1, 3)
        simplices = kuhn_tetrahedra(n)
    else:
        raise WrongGeometryClass("macro mesh dimension must be 2 or 3")

    boundary = np.where(np.any((vertices == 0.0) | (vertices == 1.0), axis=1))[0]
    grads, vols = fem.element_gradients(vertices, simplices)
    nv = len(vertices)
    return MacroMesh(vertices=vertices, simplices=simplices, boundary=boundary,
                     n=n, dim=dim, vols=vols, mass=fem.volume_dof_weights(
                         vols, simplices, fem.identity_dof_map(nv), nv),
                     mats=_component_stiffness(grads, vols, simplices, nv))


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class MacroProblem:
    mesh: MacroMesh
    regime: str
    grid: TimeGrid
    lambda0: float = 1.0
    A0: np.ndarray = None
    C0: np.ndarray = None
    B0: np.ndarray = None          # kernel samples (L+1, N, N)
    kernel_grid: TimeGrid = None
    F_coeffs: np.ndarray = None    # Phi samples (L+1, N, N)
    u0_bar: np.ndarray = None      # nodal initial macro state
    source: object = None          # callable f(points) -> nodal values
    A_elliptic: np.ndarray = None  # tensor for the k != 1 regimes
    topology: str = "cd"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise WrongGeometryClass(f"unknown regime {self.regime!r}")


@dataclass
class TransientField:
    levels: np.ndarray             # (M+1, nv), Dirichlet nodes exactly zero
    grid: TimeGrid
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------

def _component_stiffness(grads, vols, simplices, nv):
    """K_ab with entries int d_a phi_p d_b phi_q, one matrix per (a, b).

    Any constant-tensor stiffness is then K_M = sum_ab M_ab K_ab, so the
    memory sum only needs matrix-vector products with N^2 fixed matrices.
    """
    w, dim = np.abs(vols), grads.shape[2]
    return {(a, b): fem.scatter_matrix(np.einsum(
        "e,ei,ej->eij", w, grads[:, :, a], grads[:, :, b]), simplices, nv)
        for a in range(dim) for b in range(dim)}


def _tensor_stiffness(mats, M):
    dim = M.shape[0]
    K = None
    for a in range(dim):
        for b in range(dim):
            if M[a, b] == 0.0:
                continue
            term = M[a, b] * mats[(a, b)]
            K = term if K is None else K + term
    if K is None:
        n = mats[(0, 0)].shape[0]
        K = sp.csr_matrix((n, n))
    return K


def _phi_loads(mesh, u0):
    """Loads of the Phi term, the weak divergence of -Phi^T grad u0: it is
    linear in the N^2 entries of Phi, and row j N + h, the load of entry
    (j, h), is the component product -K_hj u0."""
    return np.stack([-(mesh.mats[(h, j)] @ u0)
                     for j in range(mesh.dim) for h in range(mesh.dim)])


def _tensor_factor(mesh, M, label):
    """Factor K_M on the interior dofs, insisting on an SPD tensor M.

    x^T K_M x is the integral of grad(u)^T M grad(u) for the P1 field u
    with nodal values x, so K_M is positive definite on the interior dofs
    of any mesh when M is, and an indefinite K_M implies an indefinite M:
    checking the N x N tensor suffices.
    """
    if not abs(M - M.T).max() <= 1e-10 * max(abs(M).max(), 1e-300):
        raise SingularStep(f"{label} tensor is not finite and symmetric")
    if np.linalg.eigvalsh(M).min() <= 0.0:
        raise SingularStep(f"{label} tensor is not positive definite")
    try:
        return fem.DirichletFactor(_tensor_stiffness(mesh.mats, M),
                                   mesh.boundary)
    except SingularSystem as exc:
        raise SingularStep(f"{label}: {exc}") from exc


def _resample_kernel(samples, kernel_grid: TimeGrid, lags: np.ndarray):
    """Linear interpolation of tensor samples at the requested lags."""
    tk = kernel_grid.times
    if lags.max() > tk[-1] + 1e-12:
        raise ConfigInvalid(
            f"macro horizon {lags.max():.3f} exceeds kernel horizon {tk[-1]:.3f}")
    L1, N, _ = samples.shape
    out = np.empty((len(lags), N, N))
    for a in range(N):
        for b in range(N):
            out[:, a, b] = np.interp(lags, tk, samples[:, a, b])
    return out


# ---------------------------------------------------------------------------
# memory stepper (k = 1)
# ---------------------------------------------------------------------------

def require_initial_data(regime, u0):
    """ConfigInvalid unless the connected k = 1 limit has its initial u0."""
    if regime == "k1_connected_connected" and u0 is None:
        raise ConfigInvalid("connected regime requires initial data")


def solve_homogenized_memory(problem: MacroProblem) -> TransientField:
    require_initial_data(problem.regime, problem.u0_bar)
    mesh = problem.mesh
    grid = problem.grid
    dim = mesh.dim
    dt = grid.step
    M = grid.n_steps
    nv = len(mesh.vertices)
    connected = problem.regime == "k1_connected_connected"

    mats = mesh.mats
    A_inst = problem.lambda0 * np.eye(dim) + (
        problem.A0 if problem.A0 is not None else 0.0)
    C0 = problem.C0 if (connected and problem.C0 is not None) else np.zeros((dim, dim))
    K_C = _tensor_stiffness(mats, C0)

    if problem.B0 is not None:
        lags = dt * np.arange(M + 1)
        B_res = _resample_kernel(problem.B0, problem.kernel_grid, lags)
    else:
        B_res = np.zeros((M + 1, dim, dim))
    if problem.F_coeffs is not None:
        Phi_res = _resample_kernel(problem.F_coeffs, problem.kernel_grid,
                                   dt * np.arange(M + 1))
    else:
        Phi_res = None

    fac = _tensor_factor(mesh, C0 / dt + A_inst + (dt / 2.0) * B_res[0],
                         "macro step")

    phi_loads = None
    if Phi_res is not None and problem.u0_bar is not None:
        phi_loads = _phi_loads(mesh, problem.u0_bar)

    U = np.zeros((M + 1, nv))
    if connected:
        U[0] = problem.u0_bar
        U[0, mesh.boundary] = 0.0
    # trapezoidal history weights: level 0 dt/2, the levels after it dt
    H = np.zeros((M + 1, nv))
    H[0] = 0.5 * U[0]
    # entry a N + b of B_flat[l] is B(t_l)_ab; it meets block a N + b of K_cat
    B_flat = B_res.reshape(M + 1, dim * dim)
    K_cat = sp.hstack([mats[(a, b)] for a in range(dim)
                       for b in range(dim)], format="csr")

    f_load = problem.source and mesh.mass * problem.source(mesh.vertices)
    for n in range(1, M + 1):
        # K_C is empty in the disconnected regime: skip its zero product
        rhs = (K_C @ U[n - 1]) / dt if K_C.nnz else np.zeros(nv)
        if problem.B0 is not None:
            rhs -= K_cat @ (dt * (B_flat[n:0:-1].T @ H[:n])).ravel()
        if phi_loads is not None:
            rhs += Phi_res[n].ravel() @ phi_loads
        if f_load is not None:
            rhs += f_load
        try:
            U[n] = fac.solve(rhs)
        except SingularSystem as exc:
            raise SingularStep(f"macro step {n}: {exc}") from exc
        H[n] = U[n]

    return TransientField(levels=U, grid=grid)


# ---------------------------------------------------------------------------
# elliptic regimes (k != 1)
# ---------------------------------------------------------------------------

def solve_homogenized_elliptic(problem: MacroProblem) -> TransientField:
    """Stationary limit problems: one solve, the same at every level."""
    mesh = problem.mesh
    grid = problem.grid
    nv = len(mesh.vertices)
    M = grid.n_steps

    if problem.regime == "klt1" and problem.topology == "cc":
        # slow surfaces on a connected inclusion phase freeze the limit
        return TransientField(levels=np.zeros((M + 1, nv)), grid=grid)
    if problem.regime not in ("klt1", "kgt1"):
        raise WrongGeometryClass(f"elliptic solver got regime {problem.regime}")

    fac = _tensor_factor(mesh, problem.A_elliptic, "elliptic macro")

    U = np.zeros((M + 1, nv))
    if problem.source is not None:
        try:
            U[:] = fac.solve(mesh.mass * problem.source(mesh.vertices))
        except SingularSystem as exc:
            raise SingularStep(f"elliptic solve: {exc}") from exc
    return TransientField(levels=U, grid=grid)
