"""One factor policy: every SuperLU factor orders by minimum degree on A + A^T.

The oracle is the former factor, scipy's default splu: a COLAMD column
ordering with partial pivoting.  Under both, the three configs run
`bh mesh cell tensors macro micro`; every cell array, tensor, macro level
and micro level must agree to POLICY_RTOL of the largest magnitude of its
array (of all tensors of the config, for the tensors).  The largest gaps
measured were 4.1e-14 for the cell arrays (layered omega), 4.3e-14 for
the tensors (disk), 5.6e-14 for the macro levels and 3.1e-13 for the
micro levels (disk, eps = 1/8), so the tolerance leaves a margin of about
30 over roundoff that the two orderings reorder.

The same module pins the pieces the policy change brought along: the
fill it saves on the largest factors of the cell_pipeline benchmark
workload, the cell operators read off the element kernels against the
former per-phase assembly, and the macro report against its former
per-level loop.
"""
import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bh import cell, cli, fem, formats, geometry, macro
from bh.config import load_config
from bh.geometry import PHASE_INT, PHASE_OUT

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")
CHAIN = ("mesh", "cell", "tensors", "macro", "micro")
POLICY_RTOL = 1e-11

_SPLU = spla.splu


def _colamd_splu(A, permc_spec, **options):
    """The former factor: scipy's default ordering, COLAMD, in place of the
    minimum degree policy; the Schur factor's explicit order and pivoting
    pass through."""
    if permc_spec == "MMD_AT_PLUS_A":
        return _SPLU(A)
    return _SPLU(A, permc_spec=permc_spec, **options)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def _run_chain(name, out, colamd):
    """The outputs of the chain on one config, in a fresh process cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_reused", {})
        if colamd:
            mp.setattr(fem.spla, "splu", _colamd_splu)
        assert cli.main(list(CHAIN) + [
            "--config", os.path.join(CONFIGS, name + ".ini"),
            "--out", out]) == 0
    return out


def _levels(path):
    """The level array of a solution file."""
    [(_, levels)] = formats.read_arrays(path, formats.SOLUTION)[2]
    return levels


def _outputs(out):
    """Cell arrays, tensors and levels of a chain, by name."""
    got = dict(formats.read_arrays(os.path.join(out, "cell.bhcell"),
                                   formats.CELL_ARCHIVE)[2])
    tens = formats.read_tensors(os.path.join(out, "tensors.bhtens"))[1]
    got["tensors"] = np.concatenate([
        np.ravel(v) for k, v in sorted(tens.items())
        if isinstance(v, (float, np.ndarray)) and k != "dim"])
    for f in sorted(os.listdir(out)):
        if f.endswith(".bhsol"):
            got[f] = _levels(os.path.join(out, f))
    return got


@pytest.fixture(scope="module", params=["disk_default", "layered_kgt1",
                                        "tube_klt1"])
def chains(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    return request.param, {
        policy: _run_chain(request.param, str(root / policy), policy == "colamd")
        for policy in ("mmd", "colamd")}


def test_policy_matches_the_colamd_factor(chains):
    name, outs = chains
    new, old = _outputs(outs["mmd"]), _outputs(outs["colamd"])
    assert sorted(new) == sorted(old)
    assert any(k.startswith("micro_m") for k in new)
    for key in new:
        scale = max(float(np.abs(old[key]).max()), 1e-300)
        gap = float(np.abs(new[key] - old[key]).max()) / scale
        assert gap <= POLICY_RTOL, (name, key, gap)


def test_macro_report_matches_the_level_loop(chains):
    """macro.csv byte for byte against the former loop over the levels:
    one mass_quadratic and one K_A product per level."""
    name, outs = chains
    out = outs["mmd"]
    cfg = load_config(os.path.join(CONFIGS, name + ".ini"))
    paths = cli._paths(out)
    mesh, prob = cli._macro_problem(cfg, cli._stored_tensors(cfg, paths))
    A_inst = prob.lambda0 * np.eye(cfg.dim) + (
        prob.A0 if prob.A0 is not None else 0.0)
    if not cfg.regime.startswith("k1"):
        A_inst = prob.A_elliptic if prob.A_elliptic is not None else A_inst
    K_A = macro._tensor_stiffness(mesh.mats, A_inst)
    levels = _levels(paths["macro"])
    lines = ["t, L2_norm, energy_norm"]
    for n, t in enumerate(cfg.macro_grid.times):
        u = levels[n]
        l2 = np.sqrt(fem.mass_quadratic(mesh.vols, mesh.simplices, u))
        en = np.sqrt(max(float(u @ (K_A @ u)), 0.0))
        lines.append(", ".join(cli._F % v for v in (t, l2, en)))
    with open(paths["macro_csv"]) as fh:
        assert fh.read() == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the cell_pipeline benchmark cell: Disk2D, r0 = 0.25, h = 0.014
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_cell():
    mesh, surf = geometry.build_unit_cell(
        geometry.GeometrySpec("Disk2D", {"r0": 0.25}, h=0.014))
    return cell.CellSystem(mesh, surf, cell.CellCoefficients(2.0, 3.0, 1.0))


def test_policy_fills_at_most_four_fifths_of_colamd(pipeline_cell):
    """Measured: 238,026 against 393,086 (outer phase), 77,175 against
    139,323 (inclusion) and 91,050 against 122,676 (macro step, n = 48)."""
    step = macro._tensor_factor(macro.build_macro_mesh(48, 2),
                                np.array([[2.0, 0.5], [0.5, 1.0]]), "step")
    factors = [sub.factor for sub in pipeline_cell.sub.values()] + [step]
    for fac in factors:
        assert _fill(fac.lu) <= 0.8 * _fill(_SPLU(fac.Kff.tocsc()))


def _former_stiffness(geom, simplices, coeff, vdof, ndof):
    """The former fem.assemble_stiffness, element kernels and scatter in one."""
    grads, vols = geom
    kloc = np.einsum("e,eik,ejk->eij", np.abs(vols) * coeff, grads, grads)
    dofs = vdof[simplices]
    npv = simplices.shape[1]
    rows = np.repeat(dofs, npv, axis=1).ravel()
    cols = np.tile(dofs, (1, npv)).ravel()
    return sp.coo_matrix((kloc.ravel(), (rows, cols)),
                         shape=(ndof, ndof)).tocsr()


def _former_loads(geom, simplices, coeff, vdof, ndof):
    """The former directional loads, one fem.assemble_gradient_load each."""
    grads, vols = geom
    out = []
    for j in range(grads.shape[2]):
        vecs = np.tile(np.eye(grads.shape[2])[j], (len(simplices), 1))
        contrib = np.einsum("e,eik,ek->ei", np.abs(vols) * coeff, grads, vecs)
        b = np.zeros(ndof)
        np.add.at(b, vdof[simplices].ravel(), contrib.ravel())
        out.append(b)
    return np.stack(out)


def _assert_same_csr(A, B):
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, attr), getattr(B, attr)), attr


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_cell_operators_match_the_per_phase_assembly(request, name):
    """K, the phase stiffnesses and the directional loads read off the
    cell's element kernels equal, bitwise, the former assembly: volumes
    from element_gradients, and each phase's own einsums on its elements."""
    sys = request.getfixturevalue(name).system
    mesh = sys.mesh
    S = mesh.simplices
    geom = fem.element_gradients(mesh.vertices, S)
    lam = fem.phase_coefficient(mesh.phase, {PHASE_INT: sys.coeffs.lam_int,
                                             PHASE_OUT: sys.coeffs.lam_out})
    assert np.array_equal(sys.vols, geom[1])
    _assert_same_csr(sys.K, _former_stiffness(geom, S, lam, sys.vdof, sys.nd))
    assert np.array_equal(sys.b_dir,
                          _former_loads(geom, S, lam, sys.vdof, sys.nd))
    for sub in sys.sub.values():
        els = sub.elements
        sdof = -np.ones(sys.nd, dtype=np.int64)
        sdof[sub.dofs] = np.arange(len(sub.dofs))
        args = ((geom[0][els], geom[1][els]), S[els],
                np.full(len(els), sub.lam), sdof[sys.vdof], len(sub.dofs))
        _assert_same_csr(sub.K, _former_stiffness(*args))
        assert np.array_equal(sub.b_dir, _former_loads(*args))
