"""Shared fixtures: one solved bundle per geometry, built once per session.

The bundles use short kernel horizons so the unit tests stay fast; the
acceptance module builds its own bundles at the parameters the criteria
prescribe.  The surface-gradient routes and the in-memory eps study at the
end are test oracles: the library computes tangential gradients only
through fem.surface_gradients, and scores eps studies only in bh converge,
from the micro solutions bh micro wrote.
"""
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bh import cell, fem, geometry, micro, tensors
from bh.timegrid import TimeGrid

settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@dataclass
class Bundle:
    spec: geometry.GeometrySpec
    mesh: geometry.CellMesh
    surf: geometry.SurfaceMesh
    coeffs: cell.CellCoefficients
    grid: TimeGrid
    system: cell.CellSystem
    funcs: cell.CellFunctionSet
    tens: tensors.EffectiveTensors


def _build(kind, params, h, grid, topology):
    spec = geometry.GeometrySpec(kind, params, h=h)
    mesh, surf = geometry.build_unit_cell(spec)
    coeffs = cell.CellCoefficients(1.0, 3.0, 1.0)
    system = cell.CellSystem(mesh, surf, coeffs)
    funcs = cell.solve_cell_functions(system, grid)
    tens = tensors.compute_all(system, funcs, topology)
    return Bundle(spec, mesh, surf, coeffs, grid, system, funcs, tens)


@pytest.fixture(scope="session")
def disk():
    return _build("Disk2D", {"r0": 0.25}, 0.04, TimeGrid(0.2, 0.02), "cd")


@pytest.fixture(scope="session")
def layered():
    return _build("Layered2D", {"a": 0.25, "b": 0.75}, 0.05,
                  TimeGrid(0.2, 0.02), "cc")


@pytest.fixture(scope="session")
def thin_layer():
    # one row of cells across the strip: no inclusion dof is off Gamma
    return _build("Layered2D", {"a": 0.25, "b": 0.35}, 0.1,
                  TimeGrid(0.2, 0.02), "cc")


@pytest.fixture(scope="session")
def tube():
    return _build("TubeLattice3D", {"rho": 0.25}, 1.0 / 6.0,
                  TimeGrid(0.1, 0.05), "cc")


def sin_product(pts):
    out = np.ones(len(pts))
    for i in range(pts.shape[1]):
        out *= np.sin(np.pi * pts[:, i])
    return out


def micro_surface_energy(run, levels):
    """eps^k alpha x_n . S1 x_n of each level of a solve_micro march, the
    per-level quadratic form taken as the march takes it."""
    S1 = micro._micro_operators(run)[1]
    quad = np.einsum("ni,in->n", levels, S1 @ levels.T)
    return run.mesh.eps ** run.k * run.coeffs.alpha * quad


def projected_surface_gradients(vertices, facets):
    """Tangential gradients through min-norm affine extensions.

    Independent route kept as a cross-check of fem.surface_gradients: for
    each basis function solve the underdetermined system
    (p_i - p_0) . g = d_i with the pseudoinverse, which lands in the
    tangent plane automatically.
    """
    pts = vertices[facets]
    nf, npf, dim = pts.shape
    A = pts[:, 1:, :] - pts[:, 0:1, :]
    pinv = np.linalg.pinv(A)
    grads = np.empty((nf, npf, dim))
    for i in range(npf):
        d = np.zeros((nf, npf - 1))
        if i == 0:
            d[:, :] = -1.0
        else:
            d[:, i - 1] = 1.0
        grads[:, i, :] = np.einsum("fkj,fj->fk", pinv, d)
    return grads


def facet_field_gradients(vertices, facets, node_values):
    """Tangential gradient of a P1 surface field, one vector per facet."""
    grads, _ = fem.surface_gradients(vertices, facets)
    return np.einsum("fik,fi->fk", grads, node_values[facets])


def convergence_study(regime, eps_list, *, cell_mesh, cell_facets, coeffs,
                      k, grid, u0_bar=None, source=None, macro_mesh=None,
                      macro_field=None, strip=True):
    """Solve the micro problem of each eps in memory, one at a time, and
    score the solutions with micro.eps_report; cell_facets are the
    interface facets of cell_mesh."""
    def runs():
        for eps in sorted(eps_list, reverse=True):
            mmesh, _ = geometry.tile_micro_domain(cell_mesh, cell_facets, eps,
                                                  strip)
            yield eps, mmesh, micro.solve_micro(micro.MicroRun(
                mesh=mmesh, coeffs=coeffs, k=k, grid=grid, u0_bar=u0_bar,
                source=source))

    return micro.eps_report(regime, runs(), grid=grid, macro_mesh=macro_mesh,
                            macro_field=macro_field)
