"""Effective tensors: closed forms, frozen regression pins, invariances.

Closed-form oracles (exact):
    layered a=0.25 b=0.75, lam=(1,3), alpha=1:
        lambda0 = 2,  C0 = diag(2 alpha, 0),  lambda0 I + A0 = 2 I,
        A_kgt1 = diag(arithmetic mean, harmonic mean) = diag(2, 3/2)
    any geometry with lam_int = lam_out = lam:  A_kgt1 = lam I

Frozen pins (computed once at the fixture discretizations and locked for
regression; they are discrete values, not continuum limits):
    disk h=0.04, kernel (0.2, 0.02):
        lambda0 = 2.6089138373994225
        (lambda0 I + A0)_jj = 4.475235355852992 = A_klt1_jj
        A_kgt1_jj = 2.4676340532315826
        B0(0)_jj = -2.7195049277439924,  B0(0.2)_jj = -2.1121600575641599
        Phi(0)_jj = -1.4460694454892598, Phi(0.2)_jj = -1.1231567704542755
    tube rho=0.25 h=1/6:
        C0 eigs (1.4947340664240658, 1.4947340664240665, 1.6455046918425469)
        lambda0 I + A0 eigs (2.3797631364388385, 2.4733657659732811,
                             2.4733657659732815)
"""
import numpy as np
import pytest

from bh import cell, fem, tensors
from bh.errors import CrossCheckFailed
from bh.timegrid import TimeGrid

REL = 1e-9


def _diag_pin(M, value, rel=REL):
    N = M.shape[0]
    assert np.abs(np.diag(M) - value).max() <= rel * abs(value)
    off = M - np.diag(np.diag(M))
    assert np.abs(off).max() <= 1e-10 * abs(value)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_layered_closed_forms(layered):
    t = layered.tens
    assert abs(t.lambda0 - 2.0) <= 1e-12
    assert np.abs(t.C0 - np.diag([2.0, 0.0])).max() <= 1e-12
    assert np.abs(t.lambda0 * np.eye(2) + t.A0 - 2.0 * np.eye(2)).max() <= 1e-12
    assert np.abs(t.A_hom_kgt1 - np.diag([2.0, 1.5])).max() <= 1e-12


def test_uniform_conductivity_identity(disk, layered):
    for b in (disk, layered):
        uni = cell.CellCoefficients(3.0, 3.0, 1.0)
        sys = cell.CellSystem(b.mesh, b.surf, uni)
        A, _, _ = tensors.compute_Ahom_kgt1(sys, cell.solve_chi0_tilde(sys))
        assert np.abs(A - 3.0 * np.eye(b.mesh.dim)).max() <= 1e-10


def test_disk_lambda0_near_closed_form(disk):
    # polygonal inclusion area is below pi r0^2 at O(h^2), so the volume
    # average sits slightly above the continuum value 3 - 2 pi r0^2
    exact = 3.0 - 2.0 * np.pi * 0.25 ** 2
    assert 0.0 < disk.tens.lambda0 - exact <= 5e-3


# ---------------------------------------------------------------------------
# frozen pins
# ---------------------------------------------------------------------------

def test_disk_pins(disk):
    t = disk.tens
    assert abs(t.lambda0 - 2.6089138373994225) <= REL
    _diag_pin(t.lambda0 * np.eye(2) + t.A0, 4.475235355852992)
    _diag_pin(t.A_hom_klt1, 4.475235355852992)
    _diag_pin(t.A_hom_kgt1, 2.4676340532315826)
    _diag_pin(t.B0[0], -2.7195049277439924, rel=1e-7)
    _diag_pin(t.B0[-1], -2.1121600575641599, rel=1e-7)
    _diag_pin(t.F_coeffs[0], -1.4460694454892598, rel=1e-7)
    _diag_pin(t.F_coeffs[-1], -1.1231567704542755, rel=1e-7)
    assert np.abs(t.C0).max() <= 1e-20


def test_tube_pins(tube):
    t = tube.tens
    ce = np.linalg.eigvalsh((t.C0 + t.C0.T) / 2)
    ref = [1.4947340664240658, 1.4947340664240665, 1.6455046918425469]
    assert np.abs(ce - ref).max() <= 1e-7
    ae = np.linalg.eigvalsh(t.lambda0 * np.eye(3) + (t.A0 + t.A0.T) / 2)
    ref = [2.3797631364388385, 2.4733657659732811, 2.4733657659732815]
    assert np.abs(ae - ref).max() <= 1e-7


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_dual_route_gaps_small(disk, layered, tube):
    for b in (disk, layered, tube):
        for name, gap in b.tens.discrepancies.items():
            if gap is not None:
                assert gap <= 1e-5, (b.spec.kind, name, gap)


def test_instantaneous_tensor_spd(disk, layered, tube):
    for b in (disk, layered, tube):
        A = b.tens.lambda0 * np.eye(b.mesh.dim) + b.tens.A0
        sym = np.abs(A - A.T).max() / np.abs(A).max()
        assert sym <= 1e-6
        assert np.linalg.eigvalsh((A + A.T) / 2).min() >= 0.95


def test_memory_kernel_decays(disk):
    # scalar magnitude |B0(t)| shrinks along the relaxation
    mags = np.abs(disk.tens.B0[:, 0, 0])
    assert mags[-1] < mags[0]
    assert np.all(np.diff(mags) <= 1e-10)


def test_route_gap_checks_its_bound():
    # every tensor's two routes meet at this one check
    M1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    M2 = M1 + np.array([[0.0, 3e-6], [-1e-6, 0.0]])
    gap = tensors._route_gap("B0", M1, M2, 0.5, 1e-5)
    assert gap == float(np.abs(M1 - M2).max()) / 0.5
    with pytest.raises(CrossCheckFailed, match="B0 routes disagree"):
        tensors._route_gap("B0", M1, M2, 0.5, 1e-6)
    with pytest.raises(CrossCheckFailed, match="C0 routes disagree"):
        tensors._route_gap("C0", M1, M1 * np.nan, 1.0, 1e-6)


def test_klt1_independent_of_inner_coefficients(disk):
    A1 = disk.tens.A_hom_klt1
    dbl = cell.CellCoefficients(2.0, 3.0, 2.0)
    sys2 = cell.CellSystem(disk.mesh, disk.surf, dbl)
    A2, _, _ = tensors.compute_Ahom_klt1(sys2, cell.solve_chi0(sys2))
    assert np.abs(A2 - A1).max() <= 1e-12 * np.abs(A1).max()


def test_v_gauge_invariance(disk):
    """Shifting v by a constant per component must leave A0 and B0 alone."""
    sys = disk.system
    grid = TimeGrid(0.06, 0.02)
    v, W = disk.funcs.v, disk.funcs.W
    v_shift = v.copy()
    for c in range(sys.m):
        v_shift[:, sys.comp_pos[c]] += 0.37 * (c + 1)

    A_ref, _, _, _ = tensors.compute_A0(sys, disk.funcs.chi0, v)
    A_alt, _, _, _ = tensors.compute_A0(sys, disk.funcs.chi0, v_shift)
    assert np.abs(A_alt - A_ref).max() <= 1e-10 * np.abs(A_ref).max()

    chi_ref = cell.evolve_surface_coupled(sys, v, grid)
    chi_alt = cell.evolve_surface_coupled(sys, v_shift, grid)
    B_ref, _, _ = tensors.compute_B0(sys, chi_ref, W, grid)
    B_alt, _, _ = tensors.compute_B0(sys, chi_alt, W, grid)
    assert np.abs(B_alt - B_ref).max() <= 1e-8 * np.abs(B_ref).max()


def test_lambda0_is_volume_average(layered):
    got = tensors.compute_lambda0(layered.mesh, layered.coeffs)
    assert abs(got - 2.0) <= 1e-12


def test_one_element_geometry_pass_per_cell(disk, monkeypatch):
    """A cell solve and every tensor read one (grads, vols) of the system."""
    calls = []
    original = fem.element_gradients

    def counting(vertices, simplices, *args):
        calls.append(len(simplices))
        return original(vertices, simplices, *args)

    monkeypatch.setattr(fem, "element_gradients", counting)
    sys = cell.CellSystem(disk.mesh, disk.surf, disk.coeffs)
    funcs = cell.solve_cell_functions(sys, disk.grid)
    tens = tensors.compute_all(sys, funcs, "cd")
    assert calls == [len(disk.mesh.simplices)]
    assert tens.A_hom_klt1 is not None and tens.A_hom_kgt1 is not None
