"""Effective tensors of the homogenized conduction laws.

Every tensor is evaluated along two independent discrete routes, compared
by one check (_route_gap): max|M1 - M2| over the tensor's scale beyond its
tolerance, or a NaN, raises CrossCheckFailed naming the tensor.  The
surface routes trade bulk integrals for interface moments through the
per-phase gradient theorem, which P1 elements reproduce to roundoff on
fitted meshes.  Each route builds its own per-facet forms (_SurfaceForms).

The volume routes are products with operators the CellSystem already
holds.  With B the (N, nd) stack of the directional loads b_dir and K the
stiffness, the moment int lam grad X of fields X (one per row) is X B^T,
and the Gram matrix int lam (e_j + grad X_j) . (e_h + grad X_h) is

    lam_total I + X B^T + B X^T + X K X^T

with lam_total = int lam; on the outer phase alone the same holds with
that phase's K, b_dir and dofs.  Element gradients serve assembly only.

v, chi1 and omega are traces Y on the interface dofs (cell.py).  Their
volume moment is Y W^T with W = b_dir E, which equals X b_dir^T of the
bulk field X = E Y; every surface route reads the facet values, and those
are the trace.

C0 keeps its per-facet tangential Gram.  On disconnected inclusions C0
vanishes: every facet contributes the square of a roundoff-sized vector
(about 1e-16), so the sum stays near 1e-30.  Expanding the Gram through
the surface stiffness S1 would cancel O(1) terms against each other and
leave about 1e-15 where the tensor is zero.

Tensor inventory (N = cell dimension, time-sampled ones on the kernel grid):

* lambda0        plain volume average of the conductivity
* A0             stationary interface correction, with the Gram identity
                 lambda0 I + A0 = int lam grad(chi0+y) x grad(chi0+y)
* C0             surface tension tensor alpha int_Gamma tangential Gram
* B0(t)          memory kernel from the chi1 relaxation
* F_coeffs(t)    source coefficients Phi(t) from the omega relaxation
* A_hom_klt1     effective tensor of the slow-surface regime (k < 1),
                 outer-phase Dirichlet form, independent of lam_int, alpha
* A_hom_kgt1     classical two-phase tensor for the fast regime (k > 1)
"""

from dataclasses import dataclass

import numpy as np

from .cell import CellFunctionSet, CellSystem
from .errors import CrossCheckFailed
from .geometry import PHASE_INT, PHASE_OUT
from .timegrid import TimeGrid


@dataclass
class EffectiveTensors:
    lambda0: float
    A0: np.ndarray
    A0_flux_form: np.ndarray
    C0: np.ndarray
    C0_mixed_form: np.ndarray
    B0: np.ndarray                 # (n_steps+1, N, N)
    B0_flux_form: np.ndarray
    F_coeffs: np.ndarray           # (n_steps+1, N, N)
    grid: TimeGrid
    A_hom_kgt1: np.ndarray
    A_hom_klt1: np.ndarray = None
    discrepancies: dict = None


# ---------------------------------------------------------------------------
# surface integral helpers
# ---------------------------------------------------------------------------

class _SurfaceForms:
    """Per-facet data reused by every surface-route tensor."""

    def __init__(self, sys: CellSystem):
        surf = sys.surf
        self.meas = surf.measures
        self.normals = surf.normals
        # each facet's vertices as positions in gamma_dofs: every surface
        # route reads traces, (..., g)
        self.fpos = np.searchsorted(sys.gamma_dofs, sys.vdof[surf.facets])
        self.grads = sys.facet_geom[0]
        N = sys.dim
        # tangential projections of the unit directions, per facet
        self.proj_dirs = np.stack(
            [np.eye(N)[j] - self.normals * self.normals[:, j:j + 1]
             for j in range(N)], axis=0)  # (N, nf, N)

    def tangential_gradient(self, traces):
        vals = traces[..., self.fpos]
        return np.einsum("fik,...fi->...fk", self.grads, vals)

    def int_grad_components(self, traces):
        """Entries int_Gamma (grad_B field)_h dsigma, over the last axis
        of traces; leading axes are kept."""
        g = self.tangential_gradient(traces)
        return (self.meas[:, None] * g).sum(axis=-2)

    def int_field_normal(self, traces):
        """Entries int_Gamma field nu_h dsigma, leading axes kept."""
        mean = traces[..., self.fpos].mean(axis=-1)
        return ((self.meas * mean)[..., None] * self.normals).sum(axis=-2)

    def tangential_gram(self, fields_a, fields_b):
        """Matrix alpha-free Gram int_Gamma Ga_j . Gb_h with per-facet
        vector fields of shape (N, nf, dim)."""
        return np.einsum("f,jfk,hfk->jh", self.meas, fields_a, fields_b)


def _route_gap(name, M1, M2, scale, tol):
    """Relative gap max|M1 - M2| / scale of two routes to the tensor name;
    raises CrossCheckFailed above tol (or on a NaN), else returns it."""
    gap = float(np.abs(M1 - M2).max()) / max(scale, 1e-300)
    if not gap <= tol:
        raise CrossCheckFailed(f"{name} routes disagree by {gap:.2e}, "
                               f"more than {tol:.0e}")
    return gap


def _gram(K, B, lam_total, X):
    """Symmetric matrix int lam (e_j + grad X_j) . (e_h + grad X_h) from the
    stiffness K, the stacked directional loads B and int lam = lam_total."""
    XB = X @ B.T
    return lam_total * np.eye(len(X)) + XB + XB.T + X @ (K @ X.T)


# ---------------------------------------------------------------------------
# individual tensors
# ---------------------------------------------------------------------------

def compute_lambda0(mesh, coeffs) -> float:
    return (coeffs.lam_int * mesh.phase_volume(PHASE_INT)
            + coeffs.lam_out * mesh.phase_volume(PHASE_OUT))


def compute_C0(sys: CellSystem, chi0: np.ndarray):
    """Surface tensor, Gram and mixed routes.

    Gram:   C_jh = alpha int grad_B(y_j + chi0^j) . grad_B(y_h + chi0^h)
    mixed:  C_jh = alpha int grad_B(y_j + chi0^j) . grad_B y_h

    The trace problem makes grad_B(y_j + chi0^j) orthogonal to tangential
    gradients of surface test functions, so both routes coincide up to
    solver precision; the gap is relative to alpha |Gamma|.
    """
    forms = _SurfaceForms(sys)
    trace = chi0[:, sys.gamma_dofs]
    G = np.stack([forms.proj_dirs[j] + forms.tangential_gradient(trace[j])
                  for j in range(sys.dim)])
    a = sys.coeffs.alpha
    C_gram = a * forms.tangential_gram(G, G)
    C_mixed = a * forms.tangential_gram(G, forms.proj_dirs)
    gap = _route_gap("C0", C_gram, C_mixed, a * sys.surf.area(), 1e-6)
    return C_gram, C_mixed, gap


def compute_A0(sys: CellSystem, chi0: np.ndarray, v: np.ndarray):
    """Stationary correction tensor, volume and flux routes, plus the Gram
    consistency value of lambda0 I + A0; v holds traces."""
    forms = _SurfaceForms(sys)
    surf_init = sys.coeffs.alpha * forms.int_grad_components(v)
    A_vol = chi0 @ sys.b_dir.T + surf_init
    A_flux = (-sys.coeffs.jump
              * forms.int_field_normal(chi0[:, sys.gamma_dofs]) + surf_init)

    lam0 = compute_lambda0(sys.mesh, sys.coeffs)
    gram = _gram(sys.K, sys.b_dir, lam0, chi0)

    scale = max(lam0, float(np.abs(A_vol).max()))
    gap_forms = _route_gap("A0 volume and flux", A_vol, A_flux, scale, 1e-5)
    gap_gram = _route_gap("A0 Gram", lam0 * np.eye(sys.dim) + A_vol, gram,
                          scale, 1e-6)
    return A_vol, A_flux, gram, (gap_forms, gap_gram)


def _kernel_pair(sys, Y, W, grid, forms):
    """Shared evaluation for B0 and F_coeffs over the whole (N, M+1, g)
    trace history Y at once, per sample time, with X = E Y
    volume route  int lam (grad X)_h + alpha int (grad_B dX/dt)_h
    flux route    -[lam] int X nu_h  + alpha int (grad_B dX/dt)_h
    with the backward difference of the stepping; the level-0 slot reuses
    the first difference.  The volume moment of X is Y W^T.  Both return
    (M+1, N, N)."""
    diff = np.diff(Y, axis=1) / grid.step
    dY = np.concatenate([diff[:, :1], diff], axis=1)
    tsurf = sys.coeffs.alpha * forms.int_grad_components(dY)
    vol_route = Y @ W.T + tsurf
    flux_route = -sys.coeffs.jump * forms.int_field_normal(Y) + tsurf
    return vol_route.transpose(1, 0, 2), flux_route.transpose(1, 0, 2)


def compute_B0(sys: CellSystem, chi1: np.ndarray, W: np.ndarray,
               grid: TimeGrid):
    """Memory kernel samples B0(t_n) along the chi1 relaxation, from its
    traces and W = b_dir E."""
    B_vol, B_flux = _kernel_pair(sys, chi1, W, grid, _SurfaceForms(sys))
    # absolute floor in the denominator: for degenerate geometries the
    # kernel is pure roundoff and a raw ratio would compare noise to noise
    gap = _route_gap("B0", B_vol, B_flux,
                     max(float(np.abs(B_vol).max()), 1e-12), 1e-5)
    return B_vol, B_flux, gap


def compute_F_coeffs(sys: CellSystem, omega: np.ndarray, W: np.ndarray,
                     grid: TimeGrid):
    """Source coefficients Phi(t_n) along the omega relaxation, from its
    traces and W = b_dir E, with the floor of compute_B0."""
    P_vol, P_flux = _kernel_pair(sys, omega, W, grid, _SurfaceForms(sys))
    gap = _route_gap("F coefficient", P_vol, P_flux,
                     max(float(np.abs(P_vol).max()), 1e-12), 1e-5)
    return P_flux, P_vol, gap


def compute_Ahom_klt1(sys: CellSystem, chi0: np.ndarray):
    """Effective tensor of the k < 1 regime on disconnected inclusions
    (compute_all evaluates it for topology "cd" only).

    Dirichlet form of the outer phase against the locked interface traces:

        A_jh = int_{E_out} lam grad(chi0^j + y_j) . grad(chi0^h + y_h)

    evaluated as the Gram form of the outer phase's stiffness and loads.
    Split route: lam_out |E_out| I plus the outer volume moment, plus the
    residual-based interface moment against the corrector trace (the trace
    equals the centred coordinate with reversed sign, so this is the
    y_M-centred flux term).  Both routes use only lam_out and chi0, hence
    the tensor cannot depend on lam_int or alpha.
    """
    sub = sys.sub[PHASE_OUT]
    X = chi0[:, sub.dofs]
    lam_total = sub.lam * float(np.abs(sys.vols[sub.elements]).sum())
    gram = _gram(sub.K, sub.b_dir, lam_total, X)

    # interface moment against the centred coordinate (residual route):
    # the trace is chi0^h = -(y_h - c_h), so
    # int_Gamma lam grad(chi0+y_j).nu (y_h - c_h) = +sum_p r_p chi0^h_p
    R = (sub.K @ X.T).T + sub.b_dir
    split = (lam_total * np.eye(len(X)) + X @ sub.b_dir.T
             + R[:, sub.fixed] @ X[:, sub.fixed].T)

    gap = _route_gap("k < 1 tensor", gram, split, float(np.abs(gram).max()),
                     1e-6)
    return gram, split, gap


def compute_Ahom_kgt1(sys: CellSystem, chi0_tilde: np.ndarray):
    """Classical two-phase tensor int lam (I + grad chi0_tilde), with the
    symmetric Gram route as cross-check."""
    lam0 = compute_lambda0(sys.mesh, sys.coeffs)
    direct = lam0 * np.eye(sys.dim) + chi0_tilde @ sys.b_dir.T
    gram = _gram(sys.K, sys.b_dir, lam0, chi0_tilde)
    gap = _route_gap("k > 1 tensor", direct, gram, float(np.abs(gram).max()),
                     1e-6)
    return direct, gram, gap


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def compute_all(sys: CellSystem, funcs: CellFunctionSet,
                topology: str) -> EffectiveTensors:
    """Evaluate every tensor of a solved cell function set; the k < 1 tensor
    only on disconnected inclusions (topology "cd")."""
    lam0 = compute_lambda0(sys.mesh, sys.coeffs)
    C0, C0_mixed, gap_c = compute_C0(sys, funcs.chi0)
    A0, A0_flux, _, (gap_a, gap_g) = compute_A0(sys, funcs.chi0, funcs.v)
    B0, B0_flux, gap_b = compute_B0(sys, funcs.chi1, funcs.W, funcs.grid)
    Phi, Phi_vol, gap_f = compute_F_coeffs(sys, funcs.omega, funcs.W,
                                           funcs.grid)

    klt1 = gap_k = None
    if topology == "cd":
        klt1, _, gap_k = compute_Ahom_klt1(sys, funcs.chi0)
    kgt1, _, gap_kg = compute_Ahom_kgt1(sys, funcs.chi0_tilde)

    disc = {"C0": gap_c, "A0_forms": gap_a, "A0_gram": gap_g,
            "B0": gap_b, "F": gap_f, "A_klt1": gap_k, "A_kgt1": gap_kg}
    return EffectiveTensors(lambda0=lam0, A0=A0, A0_flux_form=A0_flux,
                            C0=C0, C0_mixed_form=C0_mixed,
                            B0=B0, B0_flux_form=B0_flux, F_coeffs=Phi,
                            grid=funcs.grid, A_hom_klt1=klt1,
                            A_hom_kgt1=kgt1, discrepancies=disc)
