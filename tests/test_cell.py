"""Cell correctors: stationary solves, surface data, coupled relaxation.

The strongest oracle here is structural: on closed interface components
the trace problem locks the corrector trace so that chi0 + y is constant
along the surface, which P1 elements reproduce to roundoff.  On the
layered cell every corrector vanishes identically.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bh import cell, fem
from bh.errors import NonpositiveCoefficient, SolverFailure
from bh.timegrid import TimeGrid

from conftest import facet_field_gradients

scalar = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False).filter(lambda a: abs(a) > 1e-3)


# ---------------------------------------------------------------------------
# stationary correctors
# ---------------------------------------------------------------------------

def test_chi0_locks_tangential_direction_on_disk(disk):
    V, F = disk.mesh.vertices, disk.surf.facets
    nrm = disk.surf.normals
    for j in range(2):
        g = facet_field_gradients(V, F, disk.funcs.chi0[j][disk.system.vdof])
        proj = np.eye(2)[j][None, :] - nrm * nrm[:, j:j + 1]
        assert np.abs(g + proj).max() <= 1e-10


def test_chi0_volume_mean_zero(disk, layered, tube):
    for b in (disk, layered, tube):
        for j in range(b.mesh.dim):
            assert abs(b.system.vol_w @ b.funcs.chi0[j]) <= 1e-12


def test_chi0_vanishes_on_layered(layered):
    assert np.abs(layered.funcs.chi0).max() <= 1e-14
    assert np.abs(layered.funcs.v).max() <= 1e-13


def test_flux_residuals_within_compat_tolerance(disk, layered, tube):
    for b in (disk, layered, tube):
        for i in range(b.surf.n_components):
            tol = 1e-8 * b.surf.area(i)
            res = cell.flux_residuals(b.system, b.funcs.chi0)
            assert np.abs(res[i]).max() <= tol


def test_v_mean_free_on_closed_components(disk):
    sys = disk.system
    for j in range(2):
        w = sys.comp_w[0][sys.gamma_dofs]
        assert abs(w @ disk.funcs.v[j]) <= 1e-10


def test_coefficients_validation():
    with pytest.raises(NonpositiveCoefficient):
        cell.CellCoefficients(0.0, 1.0, 1.0)
    with pytest.raises(NonpositiveCoefficient):
        cell.CellCoefficients(1.0, 1.0, -2.0)
    assert cell.CellCoefficients(1.0, 3.0, 1.0).jump == 2.0


# ---------------------------------------------------------------------------
# coupled relaxation
# ---------------------------------------------------------------------------

def test_function_set_shapes(disk):
    f = disk.funcs
    M = disk.grid.n_steps
    nd, g = disk.system.nd, len(disk.system.gamma_dofs)
    assert f.chi0.shape == (2, nd)
    assert f.v.shape == (2, g)
    assert f.chi1.shape == (2, M + 1, g)
    assert f.omega.shape == (2, M + 1, g)
    assert f.W.shape == (2, g)
    assert cell.surface_energy(disk.system, f.chi1).shape == (2, M + 1)
    assert (cell.flux_residuals(disk.system, f.chi0).shape
            == (disk.surf.n_components, 2))
    assert f.chi0_tilde.shape == (2, nd)


def test_march_builds_no_sparse_factor(disk, monkeypatch):
    """Once solve_chi0 has built the phase factors, the interface march
    reuses them and factors nothing else."""
    sysm = cell.CellSystem(disk.mesh, disk.surf, disk.coeffs)
    chi0 = cell.solve_chi0(sysm)
    built = []
    original = fem.DirichletFactor.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(fem.DirichletFactor, "__init__", counting)
    Y = cell.evolve_surface_coupled(sysm, -chi0[:, sysm.gamma_dofs],
                                    disk.grid)
    assert Y.shape == (2, disk.grid.n_steps + 1, len(sysm.gamma_dofs))
    assert built == []


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_cell_solve_factors_no_whole_cell(request, name, monkeypatch):
    """Every corrector, chi0_tilde included, is P + E y: the cell solve
    factors the m surface trace blocks and the two phases, never the
    whole-cell K."""
    b = request.getfixturevalue(name)
    sysm = cell.CellSystem(b.mesh, b.surf, b.coeffs)
    sizes = []
    original = fem.DirichletFactor.__init__

    def counting(self, K, *args, **kwargs):
        sizes.append(K.shape[0])
        original(self, K, *args, **kwargs)

    monkeypatch.setattr(fem.DirichletFactor, "__init__", counting)
    cell.solve_cell_functions(sysm, b.grid)
    assert len(sizes) == sysm.m + 2
    assert sorted(sizes) == sorted([len(d) for d in sysm.comp_dofs]
                                   + [len(s.dofs) for s in sysm.sub.values()])
    assert max(sizes) < sysm.nd


def test_evolution_preserves_initial_trace(disk):
    Y = cell.evolve_surface_coupled(disk.system, disk.funcs.v,
                                    TimeGrid(0.05, 0.025))
    d = Y[:, 0] - disk.funcs.v
    # trace kept up to the volume gauge, one constant per trace
    assert (d.max(axis=1) - d.min(axis=1)).max() <= 1e-10


def test_energy_dissipates_strictly_on_disk(disk):
    for Y in (disk.funcs.chi1, disk.funcs.omega):
        for e in cell.surface_energy(disk.system, Y):
            assert e[0] > 0.0
            assert np.all(np.diff(e) <= 1e-12 * e[0])
            assert e[-1] < 0.99 * e[0]


def test_energy_noise_floor_on_layered(layered):
    scale = layered.coeffs.alpha * layered.surf.area()
    for Y in (layered.funcs.chi1, layered.funcs.omega):
        for e in cell.surface_energy(layered.system, Y):
            assert np.abs(e).max() <= 1e-20 * scale
            assert cell.energy_nonincreasing(e, scale=scale)


def _quad(M, Y):
    """x^T M x for every row x of the trailing axis of Y."""
    flat = Y.reshape(-1, Y.shape[-1])
    return np.einsum("ij,ji->i", flat, M @ flat.T).reshape(Y.shape[:-1])


# Implicit Euler dissipates exactly: testing step n with x_n gives
# e_n - e_(n-1) = -(2 dt x_n^T K x_n + alpha d^T S1 d), d = x_n - x_(n-1),
# for the energy e = alpha x^T S1 x the march reports.  The largest
# imbalance measured, relative to max(e_0, alpha |Gamma|), was 9.1e-15 on
# Disk2D, 1.8e-16 on TubeLattice3D, 1.6e-46 on Layered2D (where the
# correctors vanish) and 2.6e-14 on the cell_pipeline benchmark cell.
BALANCE_RTOL = 1e-12


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_energy_balance_is_exact(request, name):
    b = request.getfixturevalue(name)
    sys = b.system
    # the bulk levels E y of the stored traces
    Y = np.concatenate([b.funcs.chi1, b.funcs.omega])
    X = sys.extend(Y.reshape(-1, Y.shape[-1]).T).T.reshape(
        Y.shape[:-1] + (sys.nd,))
    energy = cell.surface_energy(sys, np.concatenate([b.funcs.chi1,
                                                      b.funcs.omega]))
    d = np.diff(X, axis=1)
    dissipated = (2.0 * b.grid.step * _quad(sys.K, X[:, 1:])
                  + b.coeffs.alpha * _quad(sys.S1, d))
    scale = max(energy[:, 0].max(), b.coeffs.alpha * b.surf.area())
    assert np.abs(np.diff(energy, axis=1) + dissipated).max() <= BALANCE_RTOL * scale


class _ShiftOnCall:
    """An inverse whose product number call adds 1e-6 to every row but the
    last: the level of one step of the march, not its multiplier."""

    def __init__(self, inv, call):
        self.inv, self.call, self.calls = inv, call, 0

    def __getitem__(self, key):
        return _ShiftOnCall(self.inv[key], self.call)

    def __matmul__(self, rhs):
        self.calls += 1
        sol = self.inv @ rhs
        if self.calls == self.call:
            sol[:-1] += 1e-6
        return sol


def test_march_names_the_level_off_mean_zero(disk, monkeypatch):
    # the constants span the kernel of the reduced step matrix, so a shifted
    # level passes its step's residual check and fails only the mean check
    former = cell._interface_system

    def shifted(sys, cS):
        A, Ew, B_inv = former(sys, cS)
        return A, Ew, _ShiftOnCall(B_inv, 3)

    monkeypatch.setattr(cell, "_interface_system", shifted)
    traces = disk.funcs.v
    with pytest.raises(SolverFailure,
                       match="level 3: mean-zero constraint violated"):
        cell.evolve_surface_coupled(disk.system, traces, TimeGrid(0.1, 0.02))


def test_energy_nonincreasing_helper():
    assert cell.energy_nonincreasing([3.0, 2.0, 1.5])
    assert not cell.energy_nonincreasing([3.0, 2.0, 2.5])
    # roundoff series around an exact zero passes under the deadband
    assert cell.energy_nonincreasing([-4e-47, 2e-62, 0.0], scale=2.0)
    assert not cell.energy_nonincreasing([-4e-7, 2e-6, 0.0], scale=2.0)


@given(a=scalar)
def test_evolution_linearity(a, disk):
    sys = disk.system
    grid = TimeGrid(0.04, 0.02)
    X1 = cell.evolve_surface_coupled(sys, disk.funcs.v[:1], grid)
    Xa = cell.evolve_surface_coupled(sys, a * disk.funcs.v[:1], grid)
    assert np.abs(Xa - a * X1).max() <= 1e-9 * abs(a) * max(np.abs(X1).max(), 1.0)


def test_chi0_tilde_is_periodic_two_phase_corrector(layered):
    # layered closed form: chi0_tilde is constant in x, piecewise linear in y
    ct = layered.funcs.chi0_tilde
    assert np.abs(ct[0]).max() <= 1e-12
    assert np.abs(ct[1]).max() > 0.01
