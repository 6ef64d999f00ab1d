"""Effective tensors of the homogenized conduction laws.

Every tensor is evaluated along two independent discrete routes and the
routes are compared; a disagreement beyond tolerance raises
CrossCheckFailed.  The volume routes integrate corrector gradients over
the cell, the surface routes trade bulk integrals for interface moments
through the per-phase gradient theorem, which P1 elements reproduce to
roundoff on fitted meshes.

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

from . import fem
from .cell import CellFunctionSet, CellSystem
from .errors import CrossCheckFailed, WrongGeometryClass
from .geometry import PHASE_OUT
from .timegrid import TimeGrid


@dataclass
class EffectiveTensors:
    lambda0: float
    A0: np.ndarray
    A0_flux_form: np.ndarray
    A0_gram: np.ndarray            # value of lambda0 I + A0 by the Gram route
    C0: np.ndarray
    C0_mixed_form: np.ndarray
    B0: np.ndarray                 # (n_steps+1, N, N)
    B0_flux_form: np.ndarray
    F_coeffs: np.ndarray           # (n_steps+1, N, N)
    grid: TimeGrid
    A_hom_klt1: np.ndarray = None
    A_hom_kgt1: np.ndarray = None
    discrepancies: dict = None


# ---------------------------------------------------------------------------
# surface integral helpers
# ---------------------------------------------------------------------------

class _SurfaceForms:
    """Per-facet data reused by every surface-route tensor."""

    def __init__(self, sys: CellSystem):
        surf, mesh = sys.surf, sys.mesh
        self.sys = sys
        self.meas = surf.measures
        self.normals = surf.normals
        self.fdofs = sys.vdof[surf.facets]
        self.grads, _ = fem.surface_gradients(mesh.vertices, surf.facets)
        N = sys.dim
        # tangential projections of the unit directions, per facet
        self.proj_dirs = np.stack(
            [np.eye(N)[j] - self.normals * self.normals[:, j:j + 1]
             for j in range(N)], axis=0)  # (N, nf, N)

    def tangential_gradient(self, dof_field):
        vals = dof_field[self.fdofs]
        return np.einsum("fik,fi->fk", self.grads, vals)

    def int_grad_components(self, dof_field):
        """Vector with entries int_Gamma (grad_B field)_h dsigma."""
        g = self.tangential_gradient(dof_field)
        return (self.meas[:, None] * g).sum(axis=0)

    def int_field_normal(self, dof_field):
        """Vector with entries int_Gamma field nu_h dsigma."""
        mean = dof_field[self.fdofs].mean(axis=1)
        return ((self.meas * mean)[:, None] * self.normals).sum(axis=0)

    def tangential_gram(self, fields_a, fields_b):
        """Matrix alpha-free Gram int_Gamma Ga_j . Gb_h with per-facet
        vector fields of shape (N, nf, dim)."""
        return np.einsum("f,jfk,hfk->jh", self.meas, fields_a, fields_b)


def _rel_gap(M1, M2, scale):
    return float(np.abs(M1 - M2).max()) / max(scale, 1e-300)


def _gram(w, grads):
    """Symmetric matrix sum_K w_K (e_j + grads[j]_K) . (e_h + grads[h]_K)
    from per-element weights and per-direction element gradients."""
    N = len(grads)
    gram = np.zeros((N, N))
    for j in range(N):
        gj = np.eye(N)[j][None, :] + grads[j]
        for h in range(j, N):
            gh = np.eye(N)[h][None, :] + grads[h]
            gram[j, h] = gram[h, j] = float((w * (gj * gh).sum(axis=1)).sum())
    return gram


# ---------------------------------------------------------------------------
# individual tensors
# ---------------------------------------------------------------------------

def compute_lambda0(mesh, coeffs) -> float:
    from .geometry import PHASE_INT
    return (coeffs.lam_int * mesh.phase_volume(PHASE_INT)
            + coeffs.lam_out * mesh.phase_volume(PHASE_OUT))


def compute_C0(sys: CellSystem, chi0: np.ndarray, forms: _SurfaceForms = None):
    """Surface tensor, Gram and mixed routes.

    Gram:   C_jh = alpha int grad_B(y_j + chi0^j) . grad_B(y_h + chi0^h)
    mixed:  C_jh = alpha int grad_B(y_j + chi0^j) . grad_B y_h

    The trace problem makes grad_B(y_j + chi0^j) orthogonal to tangential
    gradients of surface test functions, so both routes coincide up to
    solver precision.
    """
    forms = forms or _SurfaceForms(sys)
    N = sys.dim
    G = np.stack([forms.proj_dirs[j] + forms.tangential_gradient(chi0[j])
                  for j in range(N)])
    a = sys.coeffs.alpha
    C_gram = a * forms.tangential_gram(G, G)
    C_mixed = a * forms.tangential_gram(G, forms.proj_dirs)
    scale = a * sys.surf.area()
    gap = _rel_gap(C_gram, C_mixed, scale)
    if gap > 1e-6:
        raise CrossCheckFailed(f"C0 routes disagree by {gap:.2e} (rel to alpha|Gamma|)")
    return C_gram, C_mixed, gap


def compute_A0(sys: CellSystem, chi0: np.ndarray, v: np.ndarray,
               forms: _SurfaceForms = None):
    """Stationary correction tensor, volume and flux routes, plus the Gram
    consistency value of lambda0 I + A0."""
    forms = forms or _SurfaceForms(sys)
    N = sys.dim
    mesh = sys.mesh
    vols = np.abs(sys.vols)
    lam = sys.lam_elem
    a = sys.coeffs.alpha

    grad_chi0 = [fem.element_field_gradients(sys.grads, mesh.simplices,
                                             chi0[j][sys.vdof]) for j in range(N)]
    surf_init = np.stack([a * forms.int_grad_components(v[j]) for j in range(N)])

    A_vol = np.stack([(lam * vols)[:, None].T @ grad_chi0[j] for j in range(N)]
                     ).reshape(N, N) + surf_init
    A_flux = np.stack([-sys.coeffs.jump * forms.int_field_normal(chi0[j])
                       for j in range(N)]) + surf_init

    lam0 = compute_lambda0(mesh, sys.coeffs)
    gram = _gram(lam * vols, grad_chi0)

    scale = max(lam0, float(np.abs(A_vol).max()), 1e-300)
    gap_forms = _rel_gap(A_vol, A_flux, scale)
    gap_gram = _rel_gap(lam0 * np.eye(N) + A_vol, gram, scale)
    if gap_forms > 1e-5:
        raise CrossCheckFailed(f"A0 volume/flux routes disagree by {gap_forms:.2e}")
    if gap_gram > 1e-6:
        raise CrossCheckFailed(f"A0 Gram identity violated by {gap_gram:.2e}")
    return A_vol, A_flux, gram, (gap_forms, gap_gram)


def _kernel_pair(sys, snapshots, grid, forms):
    """Shared evaluation for B0 and F_coeffs: per sample time,
    volume route  int lam (grad X)_h + alpha int (grad_B dX/dt)_h
    flux route    -[lam] int X nu_h  + alpha int (grad_B dX/dt)_h
    with the backward difference of the stepping; the level-0 slot reuses
    the first difference."""
    N = sys.dim
    n = grid.n_steps
    dt = grid.step
    mesh = sys.mesh
    vols = np.abs(sys.vols)
    lam = sys.lam_elem
    a = sys.coeffs.alpha
    vol_route = np.zeros((n + 1, N, N))
    flux_route = np.zeros((n + 1, N, N))
    for j in range(N):
        X = snapshots[j]
        for lev in range(n + 1):
            ref = max(lev, 1)
            dX = (X[ref] - X[ref - 1]) / dt
            tsurf = a * forms.int_grad_components(dX)
            g = fem.element_field_gradients(sys.grads, mesh.simplices,
                                            X[lev][sys.vdof])
            vol_route[lev, j] = (lam * vols) @ g + tsurf
            flux_route[lev, j] = -sys.coeffs.jump * forms.int_field_normal(X[lev]) + tsurf
    return vol_route, flux_route


def compute_B0(sys: CellSystem, chi1: np.ndarray, grid: TimeGrid,
               forms: _SurfaceForms = None):
    """Memory kernel samples B0(t_n) along the chi1 relaxation."""
    forms = forms or _SurfaceForms(sys)
    B_vol, B_flux = _kernel_pair(sys, chi1, grid, forms)
    # absolute floor in the denominator: for degenerate geometries the
    # kernel is pure roundoff and a raw ratio would compare noise to noise
    scale = max(float(np.abs(B_vol).max()), 1e-12)
    gap = _rel_gap(B_vol, B_flux, scale)
    if gap > 1e-5:
        raise CrossCheckFailed(f"B0 routes disagree by {gap:.2e}")
    return B_vol, B_flux, gap


def compute_F_coeffs(sys: CellSystem, omega: np.ndarray, grid: TimeGrid,
                     forms: _SurfaceForms = None):
    """Source coefficients Phi(t_n) along the omega relaxation."""
    forms = forms or _SurfaceForms(sys)
    P_vol, P_flux = _kernel_pair(sys, omega, grid, forms)
    scale = max(float(np.abs(P_vol).max()), 1e-12)
    gap = _rel_gap(P_vol, P_flux, scale)
    if gap > 1e-5:
        raise CrossCheckFailed(f"F coefficient routes disagree by {gap:.2e}")
    return P_flux, P_vol, gap


def compute_Ahom_klt1(sys: CellSystem, chi0: np.ndarray, topology: str):
    """Effective tensor of the k < 1 regime on disconnected inclusions.

    Dirichlet form of the outer phase against the locked interface traces:

        A_jh = int_{E_out} lam grad(chi0^j + y_j) . grad(chi0^h + y_h)

    split route: outer volume average plus the residual-based interface
    moment against the corrector trace (the trace equals the centred
    coordinate with reversed sign, so this is the y_M-centred flux term).
    Both routes use only lam_out and chi0, hence the tensor cannot depend
    on lam_int or alpha.
    """
    if topology != "cd":
        raise WrongGeometryClass(
            "k < 1 effective tensor requires disconnected inclusions")
    N = sys.dim
    mesh = sys.mesh
    out_els = mesh.phase == PHASE_OUT
    vols = np.abs(sys.vols)[out_els]
    lam = sys.lam_elem[out_els]
    sub = sys.sub[PHASE_OUT]

    grads = [fem.element_field_gradients(sys.grads[out_els],
                                         mesh.simplices[out_els],
                                         chi0[j][sys.vdof]) for j in range(N)]
    gram = _gram(lam * vols, grads)

    split = np.zeros((N, N))
    for j in range(N):
        r = sub.K @ chi0[j][sub.dofs] + sub.b_dir[j]
        # volume part: int_{E_out} lam (e_j + grad chi0^j) . e_h
        split[j] = (lam * vols) @ (np.eye(N)[j][None, :] + grads[j])
        # interface moment against the centred coordinate (residual route):
        # the trace is chi0^h = -(y_h - c_h), so
        # int_Gamma lam grad(chi0+y_j).nu (y_h - c_h) = +sum_p r_p chi0^h_p
        for h in range(N):
            split[j, h] += float(r[sub.fixed] @ chi0[h][sub.dofs][sub.fixed])

    scale = max(float(np.abs(gram).max()), 1e-300)
    gap = _rel_gap(gram, split, scale)
    if gap > 1e-6:
        raise CrossCheckFailed(f"k<1 tensor routes disagree by {gap:.2e}")
    return gram, split, gap


def compute_Ahom_kgt1(sys: CellSystem, chi0_tilde: np.ndarray):
    """Classical two-phase tensor int lam (I + grad chi0_tilde), with the
    symmetric Gram route as cross-check."""
    N = sys.dim
    mesh = sys.mesh
    vols = np.abs(sys.vols)
    lam = sys.lam_elem
    grads = [fem.element_field_gradients(sys.grads, mesh.simplices,
                                         chi0_tilde[j][sys.vdof]) for j in range(N)]
    direct = np.stack([(lam * vols) @ (np.eye(N)[j][None, :] + grads[j])
                       for j in range(N)])
    gram = _gram(lam * vols, grads)
    scale = max(float(np.abs(gram).max()), 1e-300)
    gap = _rel_gap(direct, gram, scale)
    if gap > 1e-6:
        raise CrossCheckFailed(f"k>1 tensor routes disagree by {gap:.2e}")
    return direct, gram, gap


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def compute_all(sys: CellSystem, funcs: CellFunctionSet, topology: str,
                with_klt1=None) -> EffectiveTensors:
    """Evaluate every tensor available from a solved cell function set; the
    k > 1 tensor exactly when the set carries chi0_tilde."""
    forms = _SurfaceForms(sys)
    lam0 = compute_lambda0(sys.mesh, sys.coeffs)
    C0, C0_mixed, gap_c = compute_C0(sys, funcs.chi0, forms)
    A0, A0_flux, gram, (gap_a, gap_g) = compute_A0(sys, funcs.chi0, funcs.v, forms)
    B0, B0_flux, gap_b = compute_B0(sys, funcs.chi1, funcs.grid, forms)
    Phi, Phi_vol, gap_f = compute_F_coeffs(sys, funcs.omega, funcs.grid, forms)

    klt1 = kgt1 = None
    if with_klt1 is None:
        with_klt1 = topology == "cd"
    if with_klt1:
        klt1, _, gap_k = compute_Ahom_klt1(sys, funcs.chi0, topology)
    else:
        gap_k = None
    if funcs.chi0_tilde is not None:
        kgt1, _, gap_kg = compute_Ahom_kgt1(sys, funcs.chi0_tilde)
    else:
        gap_kg = None

    disc = {"C0": gap_c, "A0_forms": gap_a, "A0_gram": gap_g,
            "B0": gap_b, "F": gap_f, "A_klt1": gap_k, "A_kgt1": gap_kg}
    return EffectiveTensors(lambda0=lam0, A0=A0, A0_flux_form=A0_flux,
                            A0_gram=gram, C0=C0, C0_mixed_form=C0_mixed,
                            B0=B0, B0_flux_form=B0_flux, F_coeffs=Phi,
                            grid=funcs.grid, A_hom_klt1=klt1,
                            A_hom_kgt1=kgt1, discrepancies=disc)
