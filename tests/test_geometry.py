"""Unit cell construction, interface extraction and tiling.

Closed-form geometric measures used as oracles:
    disk inclusion      |E_int| = pi r0^2,  |Gamma| = 2 pi r0
    layered slab        |E_int| = b - a exactly (flat facets)
    tube lattice        union of three orthogonal cylinders radius rho,
                        |E_int| = 3 pi rho^2 - 16 rho^3 + 8 (2 - sqrt 2) rho^3
                        |Gamma| = 6 pi rho - 24 sqrt(2) rho^2
"""
import dataclasses

import numpy as np
import pytest

from bh.errors import InvalidGeometry, MeshFailure, NonIntegerTiling
from bh.geometry import (PHASE_INT, PHASE_MEMBRANE, PHASE_OUT, GeometrySpec,
                         build_membrane_cell, build_unit_cell,
                         extract_interface, simplex_volumes,
                         tile_micro_domain)

R0 = 0.25
RHO = 0.25
TUBE_VOL = 3 * np.pi * RHO ** 2 - 16 * RHO ** 3 + 8 * (2 - np.sqrt(2)) * RHO ** 3
TUBE_AREA = 6 * np.pi * RHO - 24 * np.sqrt(2) * RHO ** 2


# ---------------------------------------------------------------------------
# cell meshes
# ---------------------------------------------------------------------------

def test_volumes_partition_unit_cell(disk, layered, tube):
    for b in (disk, layered, tube):
        total = np.abs(b.mesh.vols).sum()
        assert abs(total - 1.0) <= 1e-12


@pytest.mark.parametrize("kind, params, h", [
    ("Disk2D", {"r0": R0}, 0.04),                 # disk_default and micro_2d
    ("Disk2D", {"r0": R0}, 0.014),                # cell_pipeline
    ("Layered2D", {"a": 0.25, "b": 0.75}, 0.05),  # layered_kgt1
    ("TubeLattice3D", {"rho": RHO}, 0.1667),      # tube_klt1
], ids=["disk", "pipeline", "layered", "tube"])
def test_builder_volumes_equal_a_recompute_bitwise(kind, params, h):
    # the builders hand their signed volumes to the mesh, the flipped
    # simplices' recomputed; a mesh read back from its file recomputes all
    spec = GeometrySpec(kind, params, h)
    cells = [build_unit_cell(spec)[0]]
    if kind == "Disk2D":
        cells.append(build_membrane_cell(spec, 0.05)[0])
    for mesh in cells:
        vols = mesh.vols
        assert np.array_equal(vols, simplex_volumes(mesh.vertices,
                                                    mesh.simplices))
        assert vols.min() > 0.0 and not vols.flags.writeable


def test_disk_measures_near_closed_forms(disk):
    # polygonal inscribed boundary: both measures approach from below at O(h^2)
    vol = disk.mesh.phase_volume(PHASE_INT)
    assert 0.0 < np.pi * R0 ** 2 - vol <= 2e-3
    assert 0.0 < 2 * np.pi * R0 - disk.surf.area() <= 4e-3


def test_disk_interface_vertices_on_circle(disk):
    pts = disk.mesh.vertices[np.unique(disk.surf.facets)]
    r = np.linalg.norm(pts - 0.5, axis=1)
    assert np.abs(r - R0).max() <= 1e-12


def test_layered_measures_exact(layered):
    assert abs(layered.mesh.phase_volume(PHASE_INT) - 0.5) <= 1e-12
    assert abs(layered.surf.area() - 2.0) <= 1e-12
    assert layered.surf.n_components == 2


def test_tube_measures_near_closed_forms(tube):
    vol = tube.mesh.phase_volume(PHASE_INT)
    assert abs(vol - TUBE_VOL) <= 0.02
    assert abs(tube.surf.area() - TUBE_AREA) <= 0.03
    assert tube.surf.n_components == 1


def test_component_counts(disk):
    assert disk.surf.n_components == 1


def test_interface_normals_unit_and_outward(disk, layered, tube):
    for b in (disk, layered, tube):
        n = np.linalg.norm(b.surf.normals, axis=1)
        assert np.abs(n - 1.0).max() <= 1e-12
        # adjacency rows are (inner element, outer element); the normal
        # points from the inner phase into the outer phase
        cent = b.mesh.vertices[b.mesh.simplices].mean(axis=1)
        d = cent[b.surf.adjacency[:, 1]] - cent[b.surf.adjacency[:, 0]]
        dots = np.einsum("fk,fk->f", d, b.surf.normals)
        assert dots.min() > 0.0


def test_interface_adjacency_phases(disk):
    ph = disk.mesh.phase
    assert np.all(ph[disk.surf.adjacency[:, 0]] == PHASE_INT)
    assert np.all(ph[disk.surf.adjacency[:, 1]] == PHASE_OUT)


def test_periodic_pairs_offset_by_one_axis(disk, layered, tube):
    for b in (disk, layered, tube):
        pairs = b.mesh.periodic_pairs
        assert len(pairs) > 0
        lo = b.mesh.vertices[pairs[:, 0]]
        hi = b.mesh.vertices[pairs[:, 1]]
        for row, (p, q) in enumerate(zip(lo, hi)):
            axis = pairs[row, 2]
            diff = q - p
            assert abs(diff[axis] - 1.0) <= 1e-12
            off = np.delete(diff, axis)
            assert np.abs(off).max() <= 1e-12


def test_extract_interface_matches_build(disk):
    surf2 = extract_interface(disk.mesh.vertices, disk.mesh.simplices,
                              disk.mesh.phase, disk.mesh.periodic_pairs)
    assert sorted(map(tuple, np.sort(surf2.facets, axis=1))) == \
        sorted(map(tuple, np.sort(disk.surf.facets, axis=1)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_geometry_spec_validation_errors():
    with pytest.raises(InvalidGeometry):
        GeometrySpec("Sphere9D", {}, 0.05).validate()
    with pytest.raises(InvalidGeometry):
        GeometrySpec("Disk2D", {"r0": 0.75}, 0.05).validate()
    with pytest.raises(InvalidGeometry):
        GeometrySpec("Disk2D", {"r0": 0.25}, 0.7).validate()
    with pytest.raises(InvalidGeometry):
        GeometrySpec("Layered2D", {"a": 0.75, "b": 0.25}, 0.05).validate()
    with pytest.raises(InvalidGeometry):
        GeometrySpec("TubeLattice3D", {"rho": 0.6}, 0.1).validate()


def test_topology_labels():
    assert GeometrySpec("Disk2D", {"r0": 0.2}).topology == "cd"
    assert GeometrySpec("Layered2D", {"a": 0.2, "b": 0.8}).topology == "cc"
    assert GeometrySpec("TubeLattice3D", {"rho": 0.2}).topology == "cc"


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.5, 1.0 / 3.0])
def test_tiling_partitions_domain(disk, eps):
    mmesh, _ = tile_micro_domain(disk.mesh, disk.surf.facets, eps, False)
    total = np.abs(simplex_volumes(mmesh.vertices, mmesh.simplices)).sum()
    assert abs(total - 1.0) <= 1e-10
    assert mmesh.eps == eps


@pytest.mark.parametrize("name, eps", [("disk", 0.25), ("tube", 0.5)])
def test_tiled_volumes_are_scaled_cell_volumes(request, name, eps):
    b = request.getfixturevalue(name)
    mmesh, _ = tile_micro_domain(b.mesh, b.surf.facets, eps, False)
    ref = simplex_volumes(mmesh.vertices, mmesh.simplices)
    assert np.abs(mmesh.volumes() - ref).max() <= 1e-12 * ref.max()


def test_tiles_sit_exactly_at_their_cell_copies(disk, layered, tube):
    # the tiling takes its element geometry from the cell, so tile t's
    # vertices are (cell vertices + offset of t) / m, bitwise
    for bundle, m in ((disk, 4), (layered, 3), (tube, 2)):
        V = bundle.mesh.vertices
        mmesh, _ = tile_micro_domain(bundle.mesh, bundle.surf.facets,
                                     1.0 / m, False)
        cells = np.stack(np.unravel_index(np.arange(m ** mmesh.dim),
                                          (m,) * mmesh.dim), axis=1)
        assert np.array_equal(mmesh.vertices[mmesh.local_global],
                              (V + cells[:, None]) / m)


def test_tiling_rejects_an_inexact_periodic_partner(disk):
    # a high-face vertex 1e-6 off its partner's copy: the tile across the
    # face would meet the cell at a vertex that is not the cell's
    V = disk.mesh.vertices.copy()
    high = disk.mesh.periodic_pairs[0, 1]
    V[high, 1 - disk.mesh.periodic_pairs[0, 2]] += 1e-6
    mesh = dataclasses.replace(disk.mesh, vertices=V)
    with pytest.raises(MeshFailure, match="off its cell copy"):
        tile_micro_domain(mesh, disk.surf.facets, 0.5, False)


def test_tiling_rejects_non_reciprocal(disk):
    with pytest.raises(NonIntegerTiling):
        tile_micro_domain(disk.mesh, disk.surf.facets, 0.3, True)


def test_strip_removes_boundary_inclusions(disk):
    # at eps = 1/2 every inclusion touches a boundary cell, so the stripped
    # tiling is single-phase while the unstripped one keeps all four disks
    facets = disk.surf.facets
    stripped, sfacets = tile_micro_domain(disk.mesh, facets, 0.5, True)
    kept, kfacets = tile_micro_domain(disk.mesh, facets, 0.5, False)
    assert np.all(stripped.phase == PHASE_OUT)
    assert len(sfacets) == 0
    assert (kept.phase == PHASE_INT).sum() > 0
    assert len(kfacets) == 4 * len(facets)


def test_interior_inclusions_survive_strip(disk):
    mmesh, facets = tile_micro_domain(disk.mesh, disk.surf.facets, 0.25, True)
    # 4x4 cells, the inner 2x2 block is untouched
    assert len(facets) == 4 * len(disk.surf.facets)
    assert (mmesh.phase == PHASE_INT).sum() > 0


def test_boundary_vertices_on_boundary(disk):
    mmesh, _ = tile_micro_domain(disk.mesh, disk.surf.facets, 0.5, False)
    pts = mmesh.vertices[mmesh.boundary_vertices]
    on_face = np.any((np.abs(pts) <= 1e-12) | (np.abs(pts - 1.0) <= 1e-12),
                     axis=1)
    assert np.all(on_face)
    inner = np.setdiff1d(np.arange(len(mmesh.vertices)),
                         mmesh.boundary_vertices)
    pin = mmesh.vertices[inner]
    assert np.all((pin > 1e-12).all(axis=1) & (pin < 1.0 - 1e-12).all(axis=1))


def test_tube_tiling_keeps_connected_lattice(tube):
    # callers strip disconnected inclusions only (bh micro: topology "cd"),
    # so the connected lattice is kept and its interfaces meet the boundary
    mmesh, facets = tile_micro_domain(tube.mesh, tube.surf.facets, 0.5,
                                      tube.spec.topology == "cd")
    assert (mmesh.phase == PHASE_INT).sum() > 0
    assert len(facets) == 8 * len(tube.surf.facets)


# ---------------------------------------------------------------------------
# membrane band cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [0.2, 0.1])
def test_membrane_band_volume(eta):
    spec = GeometrySpec("Disk2D", {"r0": R0}, h=0.04)
    mesh, surf = build_membrane_cell(spec, eta)
    band = mesh.phase_volume(PHASE_MEMBRANE)
    # annulus of width eta centred on the circle: exactly 2 pi r0 eta
    assert abs(band - 2 * np.pi * R0 * eta) <= 0.05 * 2 * np.pi * R0 * eta
    assert mesh.eta == eta
    total = np.abs(mesh.vols).sum()
    assert abs(total - 1.0) <= 1e-12


def test_membrane_band_separates_phases():
    spec = GeometrySpec("Disk2D", {"r0": R0}, h=0.04)
    mesh, _ = build_membrane_cell(spec, 0.1)
    r = np.linalg.norm(mesh.vertices[mesh.simplices].mean(axis=1) - 0.5, axis=1)
    assert np.all(mesh.phase[r < R0 - 0.06] == PHASE_INT)
    assert np.all(mesh.phase[r > R0 + 0.06] == PHASE_OUT)
