"""Assembly and solver kernels.

The P1 exactness properties double as oracles: stiffness annihilates
constants, interior residuals of linear fields vanish, the lumped vertex
mass integrates the domain volume, and the quadratic mass form reproduces
closed-form integrals of affine fields.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from bh import fem, geometry, macro
from bh.errors import NonpositiveCoefficient, SingularSystem

from conftest import facet_field_gradients, projected_surface_gradients

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
