"""Macroscopic solvers: memory march and elliptic limits.

Oracle for the memory march: when every tensor is a multiple of the
identity the semi-discrete system decouples along stiffness eigenvectors,
so an initial state u0 evolves as g(t) u0 with g solving the scalar
integro-differential equation

    c g' + a g + b int_0^t g = 0,  g(0) = 1   (C0 = cI, A = aI, B0 = bI)

independently of the mesh.  With c=1, a=3, b=2 this integrates to
g'' + 3 g' + 2 g = 0, g(0)=1, g'(0)=-3, i.e. g(t) = -e^{-t} + 2 e^{-2t}.
The discrete error is then pure time error, first order in dt.

Source path oracle (B0 = 0, Phi(t) = e^{-t} I, same initial state):
    g' + 3 g = -e^{-t},  g(0) = 1  =>  g(t) = 1.5 e^{-3t} - 0.5 e^{-t}.
"""
import numpy as np
import pytest

from bh import fem, macro
from bh.errors import ConfigInvalid, SingularStep, WrongGeometryClass
from bh.timegrid import TimeGrid

from conftest import sin_product


@pytest.fixture(scope="module")
def mesh12():
    return macro.build_macro_mesh(12, 2)


def _memory_problem(mesh, dt, B=None, Phi=None, kernel=None, source=None):
    w = sin_product(mesh.vertices)
    return macro.MacroProblem(
        mesh=mesh, regime="k1_connected_connected", grid=TimeGrid(1.0, dt),
        lambda0=3.0, A0=np.zeros((2, 2)), C0=np.eye(2), B0=B,
        kernel_grid=kernel, F_coeffs=Phi, u0_bar=w, source=source,
        topology="cc")


# ---------------------------------------------------------------------------
# mesh and evaluation
# ---------------------------------------------------------------------------

def test_macro_mesh_partitions():
    from bh.geometry import simplex_volumes
    for n, dim in ((6, 2), (4, 3)):
        m = macro.build_macro_mesh(n, dim)
        total = np.abs(simplex_volumes(m.vertices, m.simplices)).sum()
        assert abs(total - 1.0) <= 1e-12
        assert len(np.unique(m.boundary)) == len(m.boundary)
        assert len(m.boundary) == (n + 1) ** dim - (n - 1) ** dim


def test_one_element_geometry_pass_per_macro_mesh(monkeypatch):
    """Both solvers read the geometry and stiffness the mesh carries."""
    calls = []
    original = fem.element_gradients

    def counting(vertices, simplices):
        calls.append(len(simplices))
        return original(vertices, simplices)

    monkeypatch.setattr(fem, "element_gradients", counting)
    m = macro.build_macro_mesh(6, 2)
    macro.solve_homogenized_memory(_memory_problem(m, 0.1, source=src))
    macro.solve_homogenized_elliptic(macro.MacroProblem(
        mesh=m, regime="kgt1", grid=TimeGrid(0.2, 0.1), A_elliptic=np.eye(2),
        source=src, topology="cc"))
    assert calls == [len(m.simplices)]


class _CountingNumpy:
    """Stands in for numpy in a module and counts its np.add.at calls."""

    def __init__(self):
        self.add_at_calls = 0
        outer = self

        class CountingAdd:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def at(self, *args):
                outer.add_at_calls += 1
                return np.add.at(*args)

        self.add = CountingAdd()

    def __getattr__(self, name):
        return getattr(np, name)


def test_memory_march_assembles_no_load_per_step(monkeypatch):
    """Phi and f loads are assembled before the march (the vertex mass with
    the mesh), so the number of scatter-adds does not grow with the step
    count."""
    kernel = TimeGrid(1.0, 0.1)
    B = np.tile(2.0 * np.eye(2), (kernel.n_steps + 1, 1, 1))
    Phi = np.exp(-kernel.times)[:, None, None] * np.array([[1.0, 0.5],
                                                          [-0.5, 2.0]])
    counts = []
    for dt in (0.2, 0.1):
        counting = _CountingNumpy()
        for mod in (fem, macro):
            monkeypatch.setattr(mod, "np", counting)
        m = macro.build_macro_mesh(6, 2)
        macro.solve_homogenized_memory(_memory_problem(
            m, dt, B=B, Phi=Phi, kernel=kernel, source=src))
        monkeypatch.undo()
        counts.append(counting.add_at_calls)
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# memory march against the scalar oracle
# ---------------------------------------------------------------------------

def test_memory_march_matches_scalar_oracle(mesh12):
    kernel = TimeGrid(1.0, 0.01)
    B = np.tile(2.0 * np.eye(2), (kernel.n_steps + 1, 1, 1))
    errs = []
    for dt in (0.05, 0.025):
        fld = macro.solve_homogenized_memory(
            _memory_problem(mesh12, dt, B=B, kernel=kernel))
        g = -np.exp(-fld.grid.times) + 2.0 * np.exp(-2.0 * fld.grid.times)
        ref = g[:, None] * fld.levels[0][None, :]
        errs.append(np.abs(fld.levels - ref).max())
    assert errs[0] <= 0.03            # measured 0.0222 at dt = 0.05
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_source_path_matches_scalar_oracle(mesh12):
    kernel = TimeGrid(1.0, 0.01)
    Phi = np.exp(-kernel.times)[:, None, None] * np.eye(2)[None, :, :]
    errs = []
    for dt in (0.05, 0.025):
        fld = macro.solve_homogenized_memory(
            _memory_problem(mesh12, dt, Phi=Phi, kernel=kernel))
        g = 1.5 * np.exp(-3.0 * fld.grid.times) - 0.5 * np.exp(-fld.grid.times)
        ref = g[:, None] * fld.levels[0][None, :]
        errs.append(np.abs(fld.levels - ref).max())
    assert errs[0] <= 0.05            # measured 0.0369 at dt = 0.05
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_memory_causality_under_kernel_tail_edits(mesh12):
    # samples strictly beyond the macro horizon never enter the march
    kernel = TimeGrid(2.0, 0.01)
    B = np.tile(2.0 * np.eye(2), (kernel.n_steps + 1, 1, 1))
    base = macro.solve_homogenized_memory(
        _memory_problem(mesh12, 0.05, B=B, kernel=kernel))
    tail = B.copy()
    tail[102:] = 77.0                 # first touched sample is index 100
    edited = macro.solve_homogenized_memory(
        _memory_problem(mesh12, 0.05, B=tail, kernel=kernel))
    assert np.array_equal(base.levels, edited.levels)


def test_memory_zero_data_zero_solution(mesh12):
    prob = macro.MacroProblem(mesh=mesh12, regime="k1_connected_disconnected",
                              grid=TimeGrid(0.2, 0.05), lambda0=3.0,
                              A0=np.zeros((2, 2)), topology="cd")
    fld = macro.solve_homogenized_memory(prob)
    assert np.all(fld.levels == 0.0)


def test_memory_energy_decays(mesh12):
    prob = _memory_problem(mesh12, 0.05)
    fld = macro.solve_homogenized_memory(prob)
    K_A = macro._tensor_stiffness(mesh12.mats, prob.lambda0 * np.eye(2)
                                  + prob.A0)
    e = np.array([float(u @ (K_A @ u)) for u in fld.levels])
    assert e[0] > 0.0
    assert np.all(np.diff(e) <= 1e-12 * e[0])


def test_memory_boundary_rows_zero(mesh12):
    fld = macro.solve_homogenized_memory(_memory_problem(mesh12, 0.1))
    assert np.all(fld.levels[:, mesh12.boundary] == 0.0)


def test_macro_horizon_beyond_kernel_raises(mesh12):
    kernel = TimeGrid(0.5, 0.01)
    B = np.tile(2.0 * np.eye(2), (kernel.n_steps + 1, 1, 1))
    with pytest.raises(ConfigInvalid):
        macro.solve_homogenized_memory(
            _memory_problem(mesh12, 0.05, B=B, kernel=kernel))


def test_indefinite_step_matrix_rejected(mesh12):
    # the C0/dt part contributes 20 K, so the conduction part must be more
    # negative than that before the step matrix loses definiteness
    prob = macro.MacroProblem(mesh=mesh12, regime="k1_connected_connected",
                              grid=TimeGrid(0.2, 0.05), lambda0=-25.0,
                              A0=np.zeros((2, 2)), C0=np.eye(2),
                              u0_bar=sin_product(mesh12.vertices),
                              topology="cc")
    with pytest.raises(SingularStep):
        macro.solve_homogenized_memory(prob)


# x^T K_M x integrates grad(u)^T M grad(u), so both solvers check the N x N
# tensor: a nonsymmetric, indefinite or non-finite one is refused before
# anything is factored
BAD_TENSORS = {"nonsymmetric": np.array([[1.0, 1.0], [0.0, 1.0]]),
               "indefinite": np.diag([2.0, -0.5]),
               "nan": np.array([[np.nan, 0.0], [0.0, 1.0]])}


@pytest.mark.parametrize("name", list(BAD_TENSORS))
def test_memory_rejects_bad_step_tensor(mesh12, name):
    # disconnected and without B0, the step tensor is lambda0 I + A0
    prob = macro.MacroProblem(mesh=mesh12, regime="k1_connected_disconnected",
                              grid=TimeGrid(0.2, 0.05), lambda0=1.0,
                              A0=BAD_TENSORS[name] - np.eye(2), topology="cd")
    with pytest.raises(SingularStep, match="macro step tensor"):
        macro.solve_homogenized_memory(prob)


def test_bad_regime_rejected(mesh12):
    with pytest.raises(WrongGeometryClass):
        macro.MacroProblem(mesh=mesh12, regime="k9", grid=TimeGrid(1.0, 0.5))


# ---------------------------------------------------------------------------
# elliptic limits
# ---------------------------------------------------------------------------

def src(pts):
    return 2.0 * np.pi ** 2 * sin_product(pts)


def test_elliptic_second_order_in_h():
    errs = []
    for n in (8, 16, 32):
        m = macro.build_macro_mesh(n, 2)
        prob = macro.MacroProblem(mesh=m, regime="kgt1", grid=TimeGrid(1.0, 1.0),
                                  A_elliptic=np.eye(2), source=src,
                                  topology="cc")
        fld = macro.solve_homogenized_elliptic(prob)
        d = fld.levels[0] - sin_product(m.vertices)
        errs.append(np.sqrt(fem.mass_quadratic(
            fem.element_gradients(m.vertices, m.simplices)[1], m.simplices, d)))
    assert 3.0 <= errs[0] / errs[1] <= 4.5
    assert 3.0 <= errs[1] / errs[2] <= 4.5


def test_klt1_connected_degenerates_to_zero(mesh12):
    prob = macro.MacroProblem(mesh=mesh12, regime="klt1",
                              grid=TimeGrid(0.2, 0.1),
                              A_elliptic=np.eye(2), source=src,
                              topology="cc")
    fld = macro.solve_homogenized_elliptic(prob)
    assert np.all(fld.levels == 0.0)


def test_elliptic_rejects_indefinite_tensor(mesh12):
    prob = macro.MacroProblem(mesh=mesh12, regime="kgt1",
                              grid=TimeGrid(0.2, 0.1),
                              A_elliptic=np.diag([-5.0, 0.0]), source=src,
                              topology="cd")
    with pytest.raises(SingularStep):
        macro.solve_homogenized_elliptic(prob)


@pytest.mark.parametrize("name", list(BAD_TENSORS))
def test_elliptic_rejects_bad_tensor(mesh12, name):
    prob = macro.MacroProblem(mesh=mesh12, regime="kgt1",
                              grid=TimeGrid(0.2, 0.1),
                              A_elliptic=BAD_TENSORS[name], source=src,
                              topology="cd")
    with pytest.raises(SingularStep, match="elliptic macro tensor"):
        macro.solve_homogenized_elliptic(prob)
