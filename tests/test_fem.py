"""Assembly and solver kernels.

The P1 exactness properties double as oracles: stiffness annihilates
constants, interior residuals of linear fields vanish, the lumped vertex
mass integrates the domain volume, and the quadratic mass form reproduces
closed-form integrals of affine fields.
"""
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from bh import cell, fem, geometry, macro
from bh.config import load_config
from bh.errors import NonpositiveCoefficient, SingularSystem, SolverFailure

from conftest import facet_field_gradients, projected_surface_gradients

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")

coef = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                 allow_infinity=False)


@pytest.fixture(scope="module")
def square():
    return macro.build_macro_mesh(8, 2)


# ---------------------------------------------------------------------------
# dof maps
# ---------------------------------------------------------------------------

def test_identity_dof_map():
    vdof = fem.identity_dof_map(5)
    assert np.array_equal(vdof, np.arange(5))
    assert fem.n_dofs(vdof) == 5


def test_periodic_dof_map_chains():
    pairs = np.array([[0, 3, 0], [3, 4, 1]])
    vdof = geometry.periodic_classes(5, pairs)
    assert vdof[0] == vdof[3] == vdof[4]
    assert fem.n_dofs(vdof) == 3


def test_periodic_stiffness_annihilates_constants(disk):
    sys = disk.system
    ones = np.ones(sys.nd)
    assert np.abs(sys.K @ ones).max() <= 1e-10
    assert np.abs(sys.S1 @ ones).max() <= 1e-12


# ---------------------------------------------------------------------------
# volume assembly
# ---------------------------------------------------------------------------

@given(a=coef, b=coef, c=coef)
def test_interior_residual_of_affine_fields_vanishes(a, b, c):
    mesh = macro.build_macro_mesh(6, 2)
    nv = len(mesh.vertices)
    vdof = fem.identity_dof_map(nv)
    geom = fem.element_gradients(mesh.vertices, mesh.simplices)
    K = fem.assemble_stiffness(geom, mesh.simplices,
                               np.ones(len(mesh.simplices)), vdof, nv)
    u = a + b * mesh.vertices[:, 0] + c * mesh.vertices[:, 1]
    r = K @ u
    scale = max(abs(a) + abs(b) + abs(c), 1.0)
    interior = np.setdiff1d(np.arange(nv), mesh.boundary)
    assert np.abs(r[interior]).max() <= 1e-12 * scale


@given(a=coef, b=coef, c=coef)
def test_mass_quadratic_matches_closed_form(a, b, c, square):
    u = a + b * square.vertices[:, 0] + c * square.vertices[:, 1]
    _, vols = fem.element_gradients(square.vertices, square.simplices)
    got = fem.mass_quadratic(vols, square.simplices, u)
    exact = (a ** 2 + (b ** 2 + c ** 2) / 3.0 + a * b + a * c + b * c / 2.0)
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_volume_dof_weights_total_mass(square):
    nv = len(square.vertices)
    w = fem.volume_dof_weights(square.vols, square.simplices,
                               fem.identity_dof_map(nv), nv)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w.min() > 0.0


def test_volume_dof_weights_partition(disk):
    w = fem.volume_dof_weights(disk.system.vols, disk.mesh.simplices,
                               disk.system.vdof, disk.system.nd)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w.min() > 0.0


def test_phase_coefficient_guards():
    phase = np.array([0, 1, 0])
    lam = fem.phase_coefficient(phase, {0: 1.0, 1: 3.0})
    assert np.array_equal(lam, [1.0, 3.0, 1.0])
    with pytest.raises(NonpositiveCoefficient):
        fem._check_coeff(np.array([1.0, 0.0]), allow_zero=False)
    fem._check_coeff(np.array([1.0, 0.0]), allow_zero=True)


# ---------------------------------------------------------------------------
# surface assembly
# ---------------------------------------------------------------------------

def test_projected_vs_intrinsic_surface_gradients(disk, tube):
    for b in (disk, tube):
        V, F = b.mesh.vertices, b.surf.facets
        rng = np.random.default_rng(7)
        u = rng.standard_normal(len(V))
        g_int, _ = fem.surface_gradients(V, F)
        g_prj = projected_surface_gradients(V, F)
        gi = np.einsum("fik,fi->fk", g_int, u[F])
        gp = np.einsum("fik,fi->fk", g_prj, u[F])
        assert np.abs(gi - gp).max() <= 1e-12 * max(np.abs(gi).max(), 1.0)


@given(d0=coef, d1=coef)
def test_tangential_gradient_of_linear_field(d0, d1, disk):
    # restriction of an affine field to the surface has tangential gradient
    # equal to the tangential projection of its constant ambient gradient
    V, F = disk.mesh.vertices, disk.surf.facets
    u = d0 * V[:, 0] + d1 * V[:, 1]
    g = facet_field_gradients(V, F, u)
    grad = np.array([d0, d1])
    proj = grad[None, :] - disk.surf.normals * (disk.surf.normals @ grad)[:, None]
    assert np.abs(g - proj).max() <= 1e-10 * max(1.0, np.abs(grad).max())


def test_surface_stiffness_symmetric_psd(disk):
    S = disk.system.S1
    assert abs(S - S.T).max() <= 1e-14
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(S.shape[0])
        assert x @ (S @ x) >= -1e-12


# ---------------------------------------------------------------------------
# linear solvers
# ---------------------------------------------------------------------------

def _spd_system(square):
    nv = len(square.vertices)
    vdof = fem.identity_dof_map(nv)
    geom = fem.element_gradients(square.vertices, square.simplices)
    K = fem.assemble_stiffness(geom, square.simplices,
                               np.ones(len(square.simplices)), vdof, nv)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(nv)
    return K, b, square.boundary


def test_dirichlet_factor_exact_rows(square):
    K, b, fixed = _spd_system(square)
    x = fem.DirichletFactor(K, fixed).solve(b)
    assert np.all(x[fixed] == 0.0)
    free = np.setdiff1d(np.arange(len(b)), fixed)
    r = (K @ x - b)[free]
    assert np.abs(r).max() <= 1e-8 * np.abs(b).max()


def test_dirichlet_factor_inhomogeneous(square):
    K, b, fixed = _spd_system(square)
    vals = np.linspace(0.0, 1.0, len(fixed))
    x = fem.DirichletFactor(K, fixed).solve(b, fixed_values=vals)
    assert np.abs(x[fixed] - vals).max() <= 1e-14


def test_cg_matches_direct(square):
    K, b, fixed = _spd_system(square)
    xd = fem.DirichletFactor(K, fixed).solve(b)
    xc = fem.CGSolver(K, fixed).solve(b)
    assert np.abs(xd - xc).max() <= 1e-7 * max(np.abs(xd).max(), 1.0)


def test_mean_zero_factor(disk):
    sys = disk.system
    rng = np.random.default_rng(5)
    b = rng.standard_normal(sys.nd)
    b -= sys.vol_w * (b.sum() / sys.vol_w.sum())  # compatible right side
    fac = fem.DirichletFactor(sys.K, weights=sys.vol_w)
    x = fac.solve(b)
    assert abs(sys.vol_w @ x) <= 1e-10 * max(np.abs(x).max(), 1.0)


def test_weighted_factor_solves_a_load_along_the_weights(disk):
    # b = c w projects to roundoff, and the bordered system gives x = 0
    # (mu = c); the wrapping layers of the layered cell load their trace
    # problems this way
    sys = disk.system
    for K, w in ((sys.K, sys.vol_w),
                 (sys.S1[sys.comp_dofs[0]][:, sys.comp_dofs[0]],
                  sys.comp_w[0][sys.comp_dofs[0]])):
        x = fem.DirichletFactor(K, weights=w).solve(np.pi * w)
        assert np.abs(x).max() <= 1e-12


def test_weighted_factor_rejects_a_nonsingular_matrix():
    # with weights the factor pins one dof, which is exact only when the
    # constants span the kernel of K; the full-K residual check catches the
    # row the pin left unsolved (relative residual 0.62 here)
    n = 6
    K = sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    fac = fem.DirichletFactor(K, weights=np.ones(n))
    with pytest.raises(SingularSystem, match="relative residual"):
        fac.solve(np.arange(n, dtype=float))


def test_block_solves_match_column_solves(disk):
    # a (n, k) block solves column by column, each column checked on its own
    sys = disk.system
    B = np.random.default_rng(6).standard_normal((sys.nd, 3))
    mean_zero = fem.DirichletFactor(sys.K, weights=sys.vol_w)
    dirichlet = fem.DirichletFactor(sys.K, sys.gamma_dofs)
    for solve in (mean_zero.solve,
                  lambda b: dirichlet.solve(b, b[sys.gamma_dofs])):
        X = solve(B)
        assert X.shape == B.shape
        for j in range(B.shape[1]):
            x = solve(B[:, j])
            assert np.abs(X[:, j] - x).max() <= 1e-12 * np.abs(x).max()
    bad = B.copy()
    bad[:, 2] = np.nan
    with pytest.raises(SingularSystem):
        mean_zero.solve(bad)


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
def test_residual_check_rejects_a_perturbed_or_nan_solution(cols):
    # one product, subtracted in place, and column norms without a squared
    # block: the pass/fail rule is the former one, per column
    n = 40
    K = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    shape = (n,) if cols is None else (n, cols)
    x = np.random.default_rng(8).standard_normal(shape)
    b = K @ x
    fem.residual_check(K, x, b)
    fem.residual_check(K, np.zeros(shape), np.zeros(shape))
    for bad in (1e-6, np.nan):
        y = x.copy()
        y[(7,) if cols is None else (7, -1)] += bad    # one column off
        with pytest.raises(SingularSystem, match="relative residual"):
            fem.residual_check(K, y, b)
        # rows restricts the check: row 7's neighbours are rows 6 to 8
        fem.residual_check(K, y, b, rows=np.arange(10, n))
        with pytest.raises(SingularSystem, match="relative residual"):
            fem.residual_check(K, y, b, rows=np.arange(5, n))
    assert np.array_equal(b, K @ x)     # the load is left as given


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
def test_mean_zero_check_bounds_each_column(cols):
    # the one volume-mean rule of the mean-zero solves and the cell march:
    # |w^T x| at most 1e-12 of sum |w| in every column, and a NaN fails
    w = np.linspace(0.1, 0.4, 8)
    for mean, ok in ((5e-13, True), (2e-12, False), (np.nan, False)):
        x = np.zeros((8,) if cols is None else (8, cols))
        x[(2,) if cols is None else (2, -1)] = mean * w.sum() / w[2]
        if ok:
            fem.mean_zero_check(w @ x, w)
            continue
        with pytest.raises(SingularSystem, match="mean-zero constraint"):
            fem.mean_zero_check(w @ x, w)


# ---------------------------------------------------------------------------
# Schur complements on the fixed dofs
# ---------------------------------------------------------------------------

# DirichletFactor.schur reads the complement off the trailing block of a
# second SuperLU factor.  Against the dense K_cc - K_cf K_ff^-1 K_fc, the
# largest gaps measured, relative to the largest entry of the oracle, were
# 8.5e-16 to 1.4e-15 on the phases of the three config cells, 7.9e-16 on
# the two inclusions below and 1.4e-15 on the cell_pipeline benchmark cell.
# The route check of solve_chi0 measured 4.0e-16 to 5.2e-15 on the same
# cells against its 1e-10.
SCHUR_RTOL = 1e-13


def _dense_schur(K, fixed):
    K = K.toarray()
    free = np.setdiff1d(np.arange(len(K)), fixed)
    return K[np.ix_(fixed, fixed)] - K[np.ix_(fixed, free)] @ np.linalg.solve(
        K[np.ix_(free, free)], K[np.ix_(free, fixed)])


def _assert_schur(K, fixed):
    got = fem.DirichletFactor(K, fixed).schur(K)
    want = _dense_schur(K, fixed)
    assert got.shape == (len(fixed), len(fixed))
    assert np.abs(got - want).max() <= SCHUR_RTOL * np.abs(want).max()


@pytest.mark.parametrize("name", ["disk_default", "layered_kgt1",
                                  "tube_klt1"])
def test_schur_matches_the_dense_complement_on_config_cells(name):
    cfg = load_config(os.path.join(CONFIGS, name + ".ini"))
    sys = cell.CellSystem(*geometry.build_unit_cell(cfg.geometry), cfg.coeffs)
    for sub in sys.sub.values():
        # each phase stiffness is singular, the constants its kernel
        assert np.abs(sub.K @ np.ones(len(sub.dofs))).max() <= 1e-12 * abs(
            sub.K).max()
        _assert_schur(sub.K, sub.fixed)


def test_schur_of_a_phase_without_free_dofs(thin_layer):
    # one row of cells across the strip puts every inclusion dof on Gamma:
    # that phase has no free dof to factor, and its complement is K_cc
    subs = thin_layer.system.sub
    assert len(subs[geometry.PHASE_INT].fixed) == len(
        subs[geometry.PHASE_INT].dofs)
    for sub in subs.values():
        _assert_schur(sub.K, sub.fixed)


def _two_inclusions(square):
    """Two copies of the square's Neumann stiffness, their dofs interleaved
    at random: the kernel holds each copy's constants, and the fixed dofs
    are the two boundaries, one group per copy."""
    K, _, ring = _spd_system(square)
    n = K.shape[0]
    perm = np.random.default_rng(3).permutation(2 * n)
    A = sp.block_diag([K, K], format="csr")[perm][:, perm]
    place = np.argsort(perm)
    return A, np.sort(np.concatenate([place[ring], place[n + ring]])), place, n


def test_schur_with_a_two_dimensional_kernel_and_two_fixed_groups(square):
    A, fixed, place, n = _two_inclusions(square)
    ones = np.zeros((2 * n, 2))
    ones[place[:n], 0] = ones[place[n:], 1] = 1.0
    assert np.abs(A @ ones).max() <= 1e-12
    _assert_schur(A, fixed)


def test_schur_guard_rejects_a_factor_that_moves_the_fixed_dofs(
        square, monkeypatch):
    # a column order of its own (COLAMD) in place of the given one moves
    # fixed dofs out of the trailing block, which then is no complement
    A, fixed, _, _ = _two_inclusions(square)
    fac = fem.DirichletFactor(A, fixed)
    splu = fem.spla.splu

    def reordering(M, permc_spec, **options):
        if permc_spec == "NATURAL":
            permc_spec = "COLAMD"
        return splu(M, permc_spec=permc_spec, **options)

    monkeypatch.setattr(fem.spla, "splu", reordering)
    with pytest.raises(SingularSystem, match="moved a fixed dof"):
        fac.schur(A)


def test_perturbed_schur_trips_the_route_check(disk, monkeypatch):
    # Sigma 1e-8 off (K E)[Gamma]: chi0's traces, extended by phase solves,
    # no longer meet it, and the check refuses the cell
    schur = fem.DirichletFactor.schur
    monkeypatch.setattr(fem.DirichletFactor, "schur",
                        lambda self, K: schur(self, K) * (1.0 + 1e-8))
    sys = cell.CellSystem(disk.mesh, disk.surf, disk.coeffs)
    with pytest.raises(SolverFailure, match="interface operator"):
        cell.solve_chi0(sys)
