"""Rewritten hot paths against the implementations they replaced.

extract_interface, the canonical vertex map of tile_micro_domain and
the periodic dof map were once per-facet and per-vertex Python loops with
union-find components.  Those loops survive here, unchanged in substance,
as oracles: on small meshes of every geometry the array code must give
bitwise identical facets, normals, components, measures, adjacency, tiled
positions, connectivity and dof numbering.

The micro and membrane marches pick their solver by dimension, for the
harmonic start and the steps alike: substructured factors on 2D tilings,
warm-started Jacobi-CG in 3D.  On every geometry a whole-domain SuperLU
factor and Jacobi-CG must give the same march up to the tolerance stated
below.  solve_micro and solve_membrane once each carried their own
harmonic start (a whole-domain factor), step loop and energy bookkeeping;
both now run one shared march.  The former solvers survive as oracles and
both marches must match them within the tolerances stated below.

Cell archive fields and solution levels were once %.17g text rows parsed
back with float(); they are now packed base64 float64 blocks.  The text
row writer and reader survive as the oracle: the packed round trip must
be bitwise equal to the text round trip on extreme values and on the real
cell fields of every geometry, and a golden digest pins the byte layout.

The BHMESH reader and writer once converted one token or one numpy scalar
at a time; they now parse whole blocks with numpy and format the flat
values of each block with one template, as the VTK writer does.  Files
must stay byte-identical and arrays bitwise equal.  The cell correctors
once marched one trace at a time, with a bulk harmonic extension and one
bordered bulk solve per step; the 2N traces now march as one block on the
interface dofs and are extended once.  The march and the kernels B0 and
Phi read from it are pinned to the old march.
The macro memory history was once a Python loop over the stored levels
with the Phi and f loads scattered every step; it is now one dense
product with the stored levels and one sparse product with the stacked
component matrices per step, with the Phi loads built once.
Both are pinned to their loops within the tolerances stated below.

chi0 once extended its trace into each phase per direction, with one lift
solve per interface component, and chi0_tilde factored the whole periodic
cell.  Both are now P + E y, the phase load response plus the extension
of an interface trace.  The former solves survive as oracles: the
correctors, their flux residuals and every tensor built from them must
match within the tolerances stated below.

The mean-zero cell solves once factored the bordered system
[[K, w], [w^T, 0]]; fem.DirichletFactor now pins one dof, projects the
load and restores the mean.  The bordered factor survives as the oracle,
and also drives the former column march: on every geometry the pinned
solves must match it within the tolerance stated below.  The macro step
matrix was once factored in SuperLU's symmetric mode without pivoting; the
level loop oracle keeps that factor.

Tilings once extracted their interface again from the whole tiled mesh;
they now gather the cell's interface facets tile by tile, membrane tilings
included, and extract nothing.  extract_interface on the tiled mesh is the
oracle: the gathered facets must equal its facets bitwise on every
geometry, with stripping on and off.  solve_membrane never reads the
facets, so the membrane levels stay bitwise equal without them.

The disk cells once took their fan directions and square boundary points
from two eight-way branch tables and their periodic pairs from a dict
matcher over the outer ring; the tube cell paired its vertices through
lattice coordinates and cut edges.  One octant table and one array matcher
over all vertices now serve every cell.  The former tables and pairings
survive as oracles, and golden digests pin the 2D cell meshes, whose
triangles are now built as index arrays.

The tube cell and the 3D macro grid once each built their Kuhn tetrahedra
in a nested loop over cubes and permutations; both now take them from one
array routine.  The macro grids build their vertices and 2D triangles with
arrays too.  All must match the loops bitwise, and the tube cell, whose
edge and cut-vertex loops became array code as well, keeps the digest of
its mesh file.  The tube cell once snapped its lattice vertices one at a
time and clipped each cut tet on its own, ordering every cut polygon with
one SVD; it is now a case table over the tets' sign patterns, gathered
through array index tables.  The former builder survives as the oracle:
vertices, simplices, phases and periodic pairs must match it bitwise.

The tensor volume routes once contracted an element gradient of every
corrector, and of every stored level of chi1 and omega, with lam |K|; the
macro Phi loads scattered the element gradient of u0 into a gradient load
per entry.  Both are now products with assembled operators (the stiffness,
the directional loads, the component matrices).  The element-gradient
routes survive here as oracles for every rewritten tensor and the loads.

v, chi1 and omega were once stored as bulk fields: every level of chi1
and omega was extended as E y before the tensors read it, and the surface
routes gathered the facet values from the bulk.  They are now traces on
the interface dofs, and the volume moments of chi1 and omega are Y W^T
with W = b_dir E.  The bulk path survives as the oracle: the levels E Y,
the column march, the former vectorised kernel routes and the surface
forms that read bulk fields.  The flux routes must stay bitwise equal, the
volume routes and every tensor within the tolerances stated below.

The interface operators once had their own kernels, copies of the bulk
stiffness, gradient load and dof weights on the facets; the bulk kernels
now take the facet geometry of fem.surface_gradients.  tile_micro_domain
once chased every (tile, cell vertex) through the periodic pairs to a
canonical copy; it now keys each copy by its periodic class and lattice
corner.  The former kernels and the pair-chasing numbering survive as
oracles, and both must match bitwise on every geometry.

The micro operators were once assembled from the element geometry of
every tiled simplex; they are now the cell's phase stiffness matrices
scattered tile by tile, and the volumes, the vertex mass and the local
averages are the cell's scaled by eps.  The tiled assembly and the former
centroid averages survive as oracles, to the tolerances stated below and
on identical sparsity patterns.  The former solve_micro oracle marches
the operators that solve_micro builds, so that it pins the march alone.
The march takes its quadratic forms after the last step, one einsum per
form; they are pinned to the former per-level dots.

SubstructuredFactor once analysed its tiling for each factor, copied the
free rows of K, found its tile types with np.unique over every row and
built full-size load and solution blocks in each solve; it now reads the
tiling's one layout and gathers and scatters through index arrays.  The
cell's phase stiffness was assembled on every call and one COO matrix
built per table; it is now cached on the cell, one COO matrix taking each
table's values.  The elliptic macro limits once solved once per level.
The former factor, assembly and level loop survive as oracles, and all
three must match bitwise.

The cell system once solved g + N right-hand sides per phase into a
dense extension E (nd x g) and read Sigma = (K E)[Gamma], E^T w and
b_dir E off it.  Sigma is now the sum of the phases' Schur complements,
the other operators come from an N + 1 column solve, and E is applied by
CellSystem.extend.  The block solve survives as the oracle, with a cell
system that reads every operator off its E: the operators and the six
cell arrays must match within the tolerance stated below.
"""
import dataclasses
import functools
import sys
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bh import cell, cli, fem, formats, geometry, macro, micro, tensors
from bh.geometry import (PHASE_INT, PHASE_MEMBRANE, PHASE_OUT,
                         build_membrane_cell, extract_interface,
                         tile_micro_domain)
from bh.timegrid import TimeGrid

from conftest import membrane_band_energy, micro_surface_energy, sin_product

_RANK = {PHASE_INT: 0, PHASE_MEMBRANE: 1, PHASE_OUT: 2}


# ---------------------------------------------------------------------------
# oracles: the former loop implementations
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n):
        self.parent = np.arange(n)

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _loop_canonical_vertex_map(n_vertices, periodic_pairs):
    uf = _UnionFind(n_vertices)
    for p, q, _ in periodic_pairs:
        uf.union(int(p), int(q))
    return np.array([uf.find(i) for i in range(n_vertices)])


def loop_extract_interface(vertices, simplices, phase, periodic_pairs=None):
    ne, npv = simplices.shape
    nfv = npv - 1

    facet_elems = defaultdict(list)
    for e in range(ne):
        verts = simplices[e]
        for k in range(npv):
            facet_elems[tuple(sorted(np.delete(verts, k)))].append(e)

    facets, inner, outer = [], [], []
    for f, elems in facet_elems.items():
        if len(elems) != 2:
            continue
        e0, e1 = elems
        if phase[e0] == phase[e1]:
            continue
        if _RANK[int(phase[e0])] < _RANK[int(phase[e1])]:
            facets.append(f); inner.append(e0); outer.append(e1)
        else:
            facets.append(f); inner.append(e1); outer.append(e0)

    order = np.lexsort(np.array(facets, dtype=np.int64).T[::-1])
    facets = np.array(facets, dtype=np.int64)[order]
    inner = np.array(inner, dtype=np.int64)[order]
    outer = np.array(outer, dtype=np.int64)[order]

    measures = geometry.facet_measures(vertices, facets)
    nrm = geometry._facet_normals(vertices, facets)
    c_in = vertices[simplices[inner]].mean(axis=1)
    c_out = vertices[simplices[outer]].mean(axis=1)
    nrm *= np.sign(np.einsum("ij,ij->i", nrm, c_out - c_in))[:, None]

    nv = vertices.shape[0]
    if periodic_pairs is not None and len(periodic_pairs):
        canon = _loop_canonical_vertex_map(nv, periodic_pairs)
    else:
        canon = np.arange(nv)
    uf = _UnionFind(len(facets))
    ridge_owner = {}
    for i, f in enumerate(facets):
        cf = sorted(int(canon[v]) for v in f)
        if nfv == 2:
            ridges = [(cf[0],), (cf[1],)]
        else:
            ridges = [(cf[0], cf[1]), (cf[0], cf[2]), (cf[1], cf[2])]
        for r in ridges:
            if r in ridge_owner:
                uf.union(ridge_owner[r], i)
            else:
                ridge_owner[r] = i
    labels = {}
    comp = np.zeros(len(facets), dtype=np.int64)
    for i in range(len(facets)):
        comp[i] = labels.setdefault(uf.find(i), len(labels))
    return geometry.SurfaceMesh(facets=facets, normals=nrm, component=comp,
                                measures=measures,
                                adjacency=np.column_stack([inner, outer]))


def loop_tiling(mesh, eps, strip):
    """(vertices, simplices, phase) of the former per-vertex tiling loop."""
    m = int(round(1.0 / eps))
    dim = mesh.dim
    nv = mesh.vertices.shape[0]
    high_map = {}
    for p, q, axis in mesh.periodic_pairs:
        high_map.setdefault(int(q), []).append((int(axis), int(p)))

    def canonical(cell, v):
        cell = list(cell)
        moved = True
        while moved:
            moved = False
            for axis, low in high_map.get(v, []):
                if cell[axis] + 1 < m:
                    cell[axis] += 1
                    v = low
                    moved = True
                    break
        return tuple(cell), v

    cells = list(np.ndindex(*([m] * dim)))
    gidx, positions = {}, []
    local_global = np.empty((len(cells), nv), dtype=np.int64)
    base = np.asarray(mesh.vertices, dtype=float)
    for ci, cell in enumerate(cells):
        for v in range(nv):
            key = canonical(cell, v)
            g = gidx.get(key)
            if g is None:
                g = len(positions)
                gidx[key] = g
                positions.append((base[key[1]] + np.array(key[0], dtype=float)) / m)
            local_global[ci, v] = g

    ne = mesh.simplices.shape[0]
    simplices = np.empty((len(cells) * ne, dim + 1), dtype=np.int64)
    phase = np.empty(len(cells) * ne, dtype=np.int64)
    for ci, cell in enumerate(cells):
        sl = slice(ci * ne, (ci + 1) * ne)
        simplices[sl] = local_global[ci][mesh.simplices]
        ph = mesh.phase.copy()
        if strip and any(c == 0 or c == m - 1 for c in cell):
            ph[ph == PHASE_INT] = PHASE_OUT
            ph[ph == PHASE_MEMBRANE] = PHASE_OUT
        phase[sl] = ph
    return np.array(positions), simplices, phase


def pair_chasing_numbering(mesh, m):
    """The former numbering of tile_micro_domain: (local_global, vertices)
    from chasing every (tile, cell vertex) through the periodic pairs to its
    canonical copy, then numbering the copies by first appearance."""
    dim = mesh.dim
    nv = mesh.vertices.shape[0]

    # table of (axis, low) entries per high vertex, in periodic_pairs order
    pairs = np.asarray(mesh.periodic_pairs, dtype=np.int64).reshape(-1, 3)
    lows, highs, axes = pairs[np.argsort(pairs[:, 1], kind="stable")].T
    slot = np.arange(len(highs)) - np.searchsorted(highs, highs)
    degree = np.bincount(highs, minlength=nv)
    pair_axis = np.full((nv, max(1, degree.max(initial=0))), -1, dtype=np.int64)
    pair_low = np.zeros_like(pair_axis)
    pair_axis[highs, slot] = axes
    pair_low[highs, slot] = lows

    # canonicalization of (cell, local vertex) across cell boundaries: a
    # vertex on a high face moves to its low partner in the next cell along
    # the first axis that can still advance, until nothing moves
    n_cells = m ** dim
    cells = np.stack(np.unravel_index(np.arange(n_cells), (m,) * dim), axis=1)
    cell = np.repeat(cells, nv, axis=0)
    vert = np.tile(np.arange(nv), n_cells)
    active = np.flatnonzero(degree[vert] > 0)
    while len(active):
        v = vert[active]
        ax = pair_axis[v]
        can = (ax >= 0) & (cell[active[:, None], np.maximum(ax, 0)] + 1 < m)
        moves = can.any(axis=1)
        active, v, ax, can = active[moves], v[moves], ax[moves], can[moves]
        j = can.argmax(axis=1)
        cell[active, ax[np.arange(len(j)), j]] += 1
        vert[active] = pair_low[v, j]
        active = active[degree[vert[active]] > 0]

    # global vertices numbered by first appearance, cell by cell
    key = np.ravel_multi_index(tuple(cell.T), (m,) * dim) * nv + vert
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    local_global = rank[inverse].reshape(n_cells, nv)
    first = np.sort(first)
    vertices = (np.asarray(mesh.vertices, dtype=float)[vert[first]]
                + cell[first]) / m
    return local_global, vertices


def loop_sym_directions(n_theta):
    """The former octant-by-octant table of fan directions."""
    q = n_theta // 8
    base = [(np.cos(2.0 * np.pi * r / n_theta), np.sin(2.0 * np.pi * r / n_theta))
            for r in range(q + 1)]
    base[0] = (1.0, 0.0)
    s2 = np.sqrt(0.5)
    base[q] = (s2, s2)
    out = np.empty((n_theta, 2))
    for i in range(n_theta):
        o, r = divmod(i, q)
        if o == 0:
            x, y = base[r]
        elif o == 1:
            x, y = base[q - r][1], base[q - r][0]
        elif o == 2:
            x, y = -base[r][1], base[r][0]
        elif o == 3:
            x, y = -base[q - r][0], base[q - r][1]
        elif o == 4:
            x, y = -base[r][0], -base[r][1]
        elif o == 5:
            x, y = -base[q - r][1], -base[q - r][0]
        elif o == 6:
            x, y = base[r][1], -base[r][0]
        else:
            x, y = base[q - r][0], -base[q - r][1]
        out[i] = (x, y)
    return out


def loop_square_boundary_points(n_theta):
    """The former octant-by-octant table of ray hits on the square."""
    q = n_theta // 8
    d = np.array([0.5 * np.tan(2.0 * np.pi * r / n_theta) for r in range(q + 1)])
    d[0] = 0.0
    d[q] = 0.5
    out = np.empty((n_theta, 2))
    for i in range(n_theta):
        o, r = divmod(i, q)
        if o == 0:
            p = (1.0, 0.5 + d[r])
        elif o == 1:
            p = (0.5 + d[q - r], 1.0)
        elif o == 2:
            p = (0.5 - d[r], 1.0)
        elif o == 3:
            p = (0.0, 0.5 + d[q - r])
        elif o == 4:
            p = (0.0, 0.5 - d[r])
        elif o == 5:
            p = (0.5 - d[q - r], 0.0)
        elif o == 6:
            p = (0.5 + d[r], 0.0)
        else:
            p = (1.0, 0.5 - d[q - r])
        out[i] = p
    return out


def loop_match_boundary_pairs(vertices, first=None, count=None):
    """The former dict matcher, over all vertices or one index range."""
    dim = vertices.shape[1]
    idx = np.arange(len(vertices)) if first is None else np.arange(first,
                                                                   first + count)
    pairs = []
    for axis in range(dim):
        lows = {}
        for v in idx:
            if vertices[v, axis] == 0.0:
                lows[tuple(np.delete(vertices[v], axis))] = v
        for v in idx:
            if vertices[v, axis] == 1.0:
                pairs.append((lows[tuple(np.delete(vertices[v], axis))], v,
                              axis))
    return np.array(sorted(pairs), dtype=np.int64)


def loop_tube_periodic_pairs(vertices, remap, coord_int, n, cut_id):
    """The former tube pairing: grid vertices by lattice coordinates, cut
    vertices through the paired endpoints of their face edges."""
    n1 = n + 1
    gid = lambda i, j, k: (i * n1 + j) * n1 + k
    pairs = set()
    for axis in range(3):
        for u in range(n1):
            for w in range(n1):
                if axis == 0:
                    lo, hi = gid(0, u, w), gid(n, u, w)
                elif axis == 1:
                    lo, hi = gid(u, 0, w), gid(u, n, w)
                else:
                    lo, hi = gid(u, w, 0), gid(u, w, n)
                a, b = remap[lo], remap[hi]
                if a >= 0 and b >= 0:
                    pairs.add((a, b, axis))

    def face_partner(v, axis):
        c = list(coord_int[v])
        c[axis] = n
        return gid(*c)

    for (a, b), cid in cut_id.items():
        for axis in range(3):
            if coord_int[a, axis] == 0 and coord_int[b, axis] == 0:
                pa, pb = face_partner(a, axis), face_partner(b, axis)
                lo, hi = remap[cid], remap[cut_id[(min(pa, pb), max(pa, pb))]]
                if lo >= 0 and hi >= 0:
                    pairs.add((lo, hi, axis))
    out = np.array(sorted(pairs), dtype=np.int64)
    for p, q, axis in out:
        assert np.array_equal(vertices[q] - vertices[p], np.eye(3)[axis])
    return out


def loop_build_tube(spec):
    """The former tube builder: a snap loop over the lattice vertices
    through a dict of incident edges, then one clip per cut tet and side,
    its cut polygon ordered by one SVD.  It calls the pair matcher through
    the geometry module, with its lattice coordinates, cut edges and vertex
    compaction in the calling frame."""
    rho = spec.params["rho"]
    n = max(4, int(round(1.0 / spec.h)))
    snap_tol = 0.15

    lin = np.arange(n + 1) / n
    lin[-1] = 1.0
    coord_int = np.stack(np.meshgrid(*[np.arange(n + 1)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
    pos = lin[coord_int]
    phi = geometry._tube_level_set(pos, rho)
    phi[np.abs(phi) < 1e-14] = 0.0

    tets = geometry.kuhn_tetrahedra(n)
    tet_edges = np.sort(tets[:, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                                 [2, 3]]], axis=2)
    edges = np.unique(tet_edges.reshape(-1, 2), axis=0)
    incident = {}
    for a, b in edges.tolist():
        incident.setdefault(a, []).append(b)
        incident.setdefault(b, []).append(a)

    locked = {}  # vertex -> new position
    for v in range(pos.shape[0]):
        if phi[v] == 0.0:
            continue
        fixed_axes = [(ax, coord_int[v, ax]) for ax in range(3)
                      if coord_int[v, ax] in (0, n)]
        best = None
        for w in sorted(incident.get(v, [])):
            if phi[w] == 0.0 or phi[v] * phi[w] > 0.0:
                continue
            ok = all(coord_int[w, ax] == c for ax, c in fixed_axes)
            if not ok:
                continue
            t = phi[v] / (phi[v] - phi[w])
            if t < snap_tol and (best is None or t < best[0]):
                best = (t, w)
        if best is not None:
            t, w = best
            locked[v] = pos[v] + t * (pos[w] - pos[v])
    for v, p in locked.items():
        pos[v] = p
        phi[v] = 0.0

    cut = edges[phi[edges[:, 0]] * phi[edges[:, 1]] < 0.0]
    a, b = cut.T
    t = (phi[a] / (phi[a] - phi[b]))[:, None]
    all_pos = np.vstack([pos, pos[a] + t * (pos[b] - pos[a])])
    cut_id = {e: len(pos) + i for i, e in enumerate(map(tuple, cut.tolist()))}

    sign = np.sign(phi)
    out_tets, out_phase = [], []
    for t, t_edges in zip(tets, tet_edges.tolist()):
        s = sign[t]
        cuts = {e: cut_id[e] for e in map(tuple, t_edges) if e in cut_id}
        if not cuts:
            if np.any(s < 0):
                ph = PHASE_INT
            elif np.any(s > 0):
                ph = PHASE_OUT
            else:
                c = all_pos[t].mean(axis=0)
                ph = (PHASE_INT if geometry._tube_level_set(c[None, :], rho)[0]
                      < 0 else PHASE_OUT)
            out_tets.append(list(t)); out_phase.append(ph)
            continue
        for side, ph in ((-1, PHASE_INT), (1, PHASE_OUT)):
            for st in loop_clip_tet_to_side(t, s, cuts, all_pos, side):
                out_tets.append(st); out_phase.append(ph)

    simplices = np.array(out_tets, dtype=np.int64)
    phase = np.array(out_phase, dtype=np.int64)
    vols = geometry.simplex_volumes(all_pos, simplices)
    if np.any(np.abs(vols) < 1e-6 * (1.0 / n) ** 3 / 6.0):
        keep = np.abs(vols) > 1e-12 * (1.0 / n) ** 3
        simplices, phase = simplices[keep], phase[keep]
    simplices, vols = geometry._fix_orientation(all_pos, simplices)

    used = np.unique(simplices)
    remap = -np.ones(all_pos.shape[0], dtype=np.int64)
    remap[used] = np.arange(len(used))
    vertices = all_pos[used]
    simplices = remap[simplices]
    return geometry.CellMesh(vertices=vertices, simplices=simplices,
                             phase=phase,
                             periodic_pairs=geometry._match_boundary_pairs(
                                 vertices), vols=vols)


def loop_clip_tet_to_side(t, s, cuts, all_pos, side):
    """The former clip of tet t to one side of the cut, coned from its
    smallest vertex id, quads split through their smallest id."""
    keep = lambda sv: sv * side > 0 or sv == 0

    face_tris = []
    for drop in range(4):
        tri = [t[k] for k in range(4) if k != drop]
        tsg = [s[np.where(t == v)[0][0]] for v in tri]
        poly = []
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            if keep(tsg[i]):
                poly.append(a)
            e = (min(a, b), max(a, b))
            if e in cuts:
                poly.append(cuts[e])
        poly = ([p for i, p in enumerate(poly) if p != poly[i - 1]]
                if poly else [])
        if len(poly) < 3:
            continue
        if len(poly) == 3:
            face_tris.append(tuple(poly))
        else:
            m = poly.index(min(poly))
            q = poly[m:] + poly[:m]
            face_tris.append((q[0], q[1], q[2]))
            face_tris.append((q[0], q[2], q[3]))

    cpts = sorted(set(cuts.values()) | {t[k] for k in range(4) if s[k] == 0})
    if len(cpts) >= 3:
        cpoly = loop_order_planar(cpts, all_pos)
        m = cpoly.index(min(cpoly))
        q = cpoly[m:] + cpoly[:m]
        for i in range(1, len(q) - 1):
            face_tris.append((q[0], q[i], q[i + 1]))

    verts = sorted({v for f in face_tris for v in f})
    if len(verts) < 4:
        return []
    apex = verts[0]
    subs = [[apex, f[0], f[1], f[2]] for f in face_tris if apex not in f]
    good = []
    for st in subs:
        p = all_pos[st]
        if abs(np.linalg.det(p[1:] - p[0]) / 6.0) > 1e-16:
            good.append(st)
    return good


def loop_order_planar(ids, all_pos):
    """The former ordering of coplanar points into a convex polygon: by
    angle in the plane of the two largest singular directions."""
    pts = all_pos[ids]
    c = pts.mean(axis=0)
    u, sv, vt = np.linalg.svd(pts - c)
    ang = np.arctan2((pts - c) @ vt[1], (pts - c) @ vt[0])
    return [ids[i] for i in np.argsort(ang, kind="stable")]


def text_row(vals):
    return " ".join("%.17g" % v for v in vals)


def text_parse(line):
    return np.array([float(t) for t in line.split()])


def loop_write_mesh(path, header, vertices, simplices, phase, surf=None,
                    pairs=None):
    """The former BHMESH writer: one %.17g or str(int) per numpy scalar."""
    irow = lambda vals: " ".join(str(int(v)) for v in vals)
    nv, dim = vertices.shape
    body = [f"dim {dim}", f"vertices {nv}"]
    body += [text_row(v) for v in vertices]
    body.append(f"elements {len(simplices)}")
    body += [irow(list(s) + [p]) for s, p in zip(simplices, phase)]
    if surf is not None:
        body.append(f"facets {len(surf.facets)}")
        body += [irow(list(f) + [c]) + " " + text_row(nu)
                 for f, c, nu in zip(surf.facets, surf.component, surf.normals)]
    else:
        body.append("facets 0")
    if pairs is not None and len(pairs):
        body.append(f"pairs {len(pairs)}")
        body += [irow(p) for p in pairs]
    else:
        body.append("pairs 0")
    formats.write_artifact(path, "BHMESH 1", header, body)


def loop_write_vtk(path, vertices, simplices, values, name="u",
                   cell_values=None, cell_name="phase"):
    """The former VTK writer: one %.17g or str(int) per numpy scalar."""
    nv, dim = vertices.shape
    npv = simplices.shape[1]
    lines = ["# vtk DataFile Version 3.0", "bh snapshot", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    lines += [text_row(list(v) + [0.0] * (3 - dim)) for v in vertices]
    lines.append(f"CELLS {len(simplices)} {len(simplices) * (npv + 1)}")
    lines += [" ".join([str(npv)] + [str(int(i)) for i in s])
              for s in simplices]
    lines.append(f"CELL_TYPES {len(simplices)}")
    lines += [str({3: 5, 4: 10}[npv])] * len(simplices)
    lines += [f"POINT_DATA {nv}", f"SCALARS {name} double 1",
              "LOOKUP_TABLE default"]
    lines += ["%.17g" % v for v in values]
    if cell_values is not None:
        lines += [f"CELL_DATA {len(simplices)}", f"SCALARS {cell_name} int 1",
                  "LOOKUP_TABLE default"]
        lines += [str(int(v)) for v in cell_values]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def loop_read_mesh(path):
    """The former BHMESH reader: one float() or int() per token."""
    header, body = formats.read_artifact(path, "BHMESH 1")
    it = iter(body)
    dim = int(next(it).split()[1])
    nv = int(next(it).split()[1])
    vertices = np.array([[float(t) for t in next(it).split()] for _ in range(nv)])
    ne = int(next(it).split()[1])
    rows = [[int(t) for t in next(it).split()] for _ in range(ne)]
    simplices = np.array([r[:-1] for r in rows], dtype=np.int64)
    phase = np.array([r[-1] for r in rows], dtype=np.int64)
    nf = int(next(it).split()[1])
    facets, comp, normals = [], [], []
    for _ in range(nf):
        toks = next(it).split()
        facets.append([int(t) for t in toks[:dim]])
        comp.append(int(toks[dim]))
        normals.append([float(t) for t in toks[dim + 1:]])
    npairs = int(next(it).split()[1])
    pairs = np.array([[int(t) for t in next(it).split()] for _ in range(npairs)],
                     dtype=np.int64).reshape(npairs, 3)
    return header, {
        "vertices": vertices, "simplices": simplices, "phase": phase,
        "facets": np.array(facets, dtype=np.int64).reshape(nf, dim),
        "component": np.array(comp, dtype=np.int64),
        "normals": np.array(normals).reshape(nf, dim),
        "pairs": pairs,
    }


class BorderedFactor:
    """The former fem.MeanZeroFactor: one SuperLU factor of the bordered
    system [[K, w], [w^T, 0]]; solve returns x of [x; mu]."""

    def __init__(self, K, weights):
        w = sp.csc_matrix(weights.reshape(-1, 1))
        self.lu = spla.splu(sp.bmat([[K.tocsc(), w], [w.T, None]],
                                    format="csc"))
        self.n = K.shape[0]

    def solve(self, b):
        return self.lu.solve(
            np.concatenate([b, np.zeros((1,) + b.shape[1:])]))[:self.n]


def column_march(sys, trace, grid):
    """The former evolve_surface_coupled: one trace on the interface dofs,
    a bulk harmonic extension, then one bordered bulk solve per step; the
    levels are bulk fields."""
    dt, n = grid.step, grid.n_steps
    X = np.zeros((n + 1, sys.nd))
    x0 = fem.DirichletFactor(sys.K, sys.gamma_dofs).solve(
        np.zeros(sys.nd), trace)
    x0 -= sys.vol_w @ x0
    X[0] = x0
    c = sys.coeffs.alpha / dt
    A = BorderedFactor(sys.K + c * sys.S1, sys.vol_w)
    energy = np.empty(n + 1)
    energy[0] = sys.coeffs.alpha * float(x0 @ (sys.S1 @ x0))
    for k in range(1, n + 1):
        X[k] = A.solve(c * (sys.S1 @ X[k - 1]))
        energy[k] = sys.coeffs.alpha * float(X[k] @ (sys.S1 @ X[k]))
    return X, energy


def former_solve_chi0(sys):
    """The former cell.solve_chi0: per direction, the trace problems, one
    harmonic extension with the e_j load into each phase, one lift solve
    per component and the m x m constant-fixing flux system."""
    N, nd = sys.dim, sys.nd
    surf = sys.surf
    out, inn = sys.sub[PHASE_OUT], sys.sub[PHASE_INT]
    chi0, residuals = np.zeros((N, nd)), np.zeros((sys.m, N))

    def flux(x_sub, j=None):
        r = out.K @ x_sub + (0.0 if j is None else out.b_dir[j])
        return np.array([r[g].sum() for g in out.gamma_sub])

    def residual(x_sub, j):
        return (-flux(x_sub, j) / sys.coeffs.lam_out
                - np.array([n[j] for n in sys.net_normal]))

    for j in range(N):
        trace = np.zeros(nd)
        for c in range(sys.m):
            fc = surf.component == c
            nrm = surf.normals[fc]
            rhs = -former_surface_gradient_load(
                sys.mesh.vertices, surf.facets[fc], 1.0,
                np.eye(N)[j] - nrm * nrm[:, j:j + 1], sys.vdof, nd)
            trace[sys.comp_dofs[c]] = sys.trace_factors[c].solve(
                rhs[sys.comp_dofs[c]])
        x_out = out.factor.solve(-out.b_dir[j], trace[out.dofs][out.fixed])
        if sys.m > 1:
            lifts, M = [], np.zeros((sys.m, sys.m))
            for c in range(sys.m):
                tr = np.zeros(len(out.dofs))
                tr[out.gamma_sub[c]] = 1.0
                lifts.append(out.factor.solve(np.zeros(len(out.dofs)),
                                              tr[out.fixed]))
                M[:, c] = -flux(lifts[c]) / sys.coeffs.lam_out
            consts = np.linalg.solve(M + 1.0 / sys.m, -residual(x_out, j))
            for c in range(sys.m):
                x_out = x_out + consts[c] * lifts[c]
                trace[sys.comp_dofs[c]] += consts[c]
        chi = np.zeros(nd)
        chi[out.dofs] = x_out
        chi[sys.gamma_dofs] = trace[sys.gamma_dofs]
        x_int = inn.factor.solve(-inn.b_dir[j], trace[inn.dofs][inn.fixed])
        only_int = np.setdiff1d(inn.dofs, sys.gamma_dofs)
        chi[only_int] = x_int[np.searchsorted(inn.dofs, only_int)]
        chi -= sys.vol_w @ chi
        chi0[j] = chi
        residuals[:, j] = residual(chi[out.dofs], j)
    return chi0, residuals


def former_solve_chi0_tilde(sys):
    """The former cell.solve_chi0_tilde: one weighted factor of the whole
    periodic cell K."""
    return fem.DirichletFactor(sys.K, weights=sys.vol_w).solve(
        -sys.b_dir.T).T


def loop_memory_march(problem):
    """The former solve_homogenized_memory: a Python loop over the stored
    levels for the history, the Phi and f loads scattered every step, and
    the step matrix factored in SuperLU's symmetric mode without pivoting."""
    mesh, grid = problem.mesh, problem.grid
    dim, dt, M = mesh.dim, problem.grid.step, problem.grid.n_steps
    nv = len(mesh.vertices)
    connected = problem.regime == "k1_connected_connected"
    mats = mesh.mats
    A_inst = problem.lambda0 * np.eye(dim) + (
        problem.A0 if problem.A0 is not None else 0.0)
    K_A = macro._tensor_stiffness(mats, A_inst)
    C0 = problem.C0 if (connected and problem.C0 is not None) else np.zeros((dim, dim))
    K_C = macro._tensor_stiffness(mats, C0)
    lags = dt * np.arange(M + 1)
    if problem.B0 is not None:
        B_res = macro._resample_kernel(problem.B0, problem.kernel_grid, lags)
    else:
        B_res = np.zeros((M + 1, dim, dim))
    Phi_res = None
    if problem.F_coeffs is not None:
        Phi_res = macro._resample_kernel(problem.F_coeffs, problem.kernel_grid,
                                         lags)
    free = np.setdiff1d(np.arange(nv), mesh.boundary)
    step_mat = (K_C / dt + K_A
                + (dt / 2.0) * macro._tensor_stiffness(mats, B_res[0]))
    A_ff = step_mat.tocsc()[free][:, free]
    lu = spla.splu(A_ff, diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))

    V, S = mesh.vertices, mesh.simplices
    grads, vols = fem.element_gradients(V, S)
    load_w = lumped_weights(vols, S.shape[1])
    vdof = fem.identity_dof_map(nv)
    grad_u0 = None
    if Phi_res is not None and problem.u0_bar is not None:
        grad_u0 = np.einsum("eik,ei->ek", grads, problem.u0_bar[S])

    def weak_divergence_load(vec_el):
        contrib = np.einsum("e,eik,ek->ei", np.abs(vols), grads, vec_el)
        b = np.zeros(nv)
        np.add.at(b, S.ravel(), contrib.ravel())
        return b

    U = np.zeros((M + 1, nv))
    if connected:
        U[0] = problem.u0_bar
        U[0, mesh.boundary] = 0.0
    for n in range(1, M + 1):
        rhs = (K_C @ U[n - 1]) / dt
        if problem.B0 is not None:
            acc = np.zeros((dim, dim, nv))
            for m in range(1, n):
                acc += B_res[n - m][:, :, None] * U[m][None, None, :]
            hist = np.zeros(nv)
            for a in range(dim):
                for b in range(dim):
                    if np.any(acc[a, b]):
                        hist += mats[(a, b)] @ (dt * acc[a, b])
            if connected and np.any(U[0]):
                KB = macro._tensor_stiffness(mats, B_res[n])
                hist += (dt / 2.0) * (KB @ U[0])
            rhs -= hist
        if grad_u0 is not None:
            vec = -np.einsum("jh,ej->eh", Phi_res[n], grad_u0)
            rhs += weak_divergence_load(vec)
        if problem.source is not None:
            fvals = problem.source(V)
            rhs += lumped_load(load_w, S, fvals, vdof, nv)
        U[n, free] = lu.solve(rhs[free])
    return U


def lumped_weights(vols, npv):
    """The former fem.lumped_weights: the (ne, 1) share |K| / npv of each
    element vertex in the lumped mass."""
    return np.abs(vols)[:, None] / npv


def lumped_load(weights, simplices, node_values, vdof, ndof):
    """The former fem.lumped_load: the vertex-lumped load int f phi_p of
    nodal values f, scattered element by element."""
    contrib = weights * node_values[simplices]
    b = np.zeros(ndof)
    np.add.at(b, vdof[simplices].ravel(), contrib.ravel())
    return b


def element_field_gradients(grads, simplices, node_values):
    """The former fem.element_field_gradients: per-element P1 gradient."""
    return np.einsum("eik,ei->ek", grads, node_values[simplices])


def element_gram(w, grads):
    """The former tensors._gram: sum_K w_K (e_j + grads[j]_K) .
    (e_h + grads[h]_K) from per-element weights and gradients."""
    N = len(grads)
    gram = np.zeros((N, N))
    for j in range(N):
        gj = np.eye(N)[j][None, :] + grads[j]
        for h in range(j, N):
            gh = np.eye(N)[h][None, :] + grads[h]
            gram[j, h] = gram[h, j] = float((w * (gj * gh).sum(axis=1)).sum())
    return gram


def _lam_elem(sys):
    """The per-element conductivity of the cell."""
    return fem.phase_coefficient(sys.mesh.phase,
                                 {PHASE_INT: sys.coeffs.lam_int,
                                  PHASE_OUT: sys.coeffs.lam_out})


def _grads(sys):
    """The basis gradients of the cell's elements."""
    return fem.element_gradients(sys.mesh.vertices, sys.mesh.simplices)[0]


def _corrector_gradients(sys, fields, els=slice(None)):
    return [element_field_gradients(_grads(sys)[els], sys.mesh.simplices[els],
                                    x[sys.vdof]) for x in fields]


def element_A0(sys, chi0, v, forms):
    """The former volume, flux and Gram routes of compute_A0."""
    N, a = sys.dim, sys.coeffs.alpha
    w = _lam_elem(sys) * np.abs(sys.vols)
    grads = _corrector_gradients(sys, chi0)
    surf_init = np.stack([a * forms.int_grad_components(v[j])
                          for j in range(N)])
    A_vol = np.stack([w @ grads[j] for j in range(N)]) + surf_init
    A_flux = np.stack([-sys.coeffs.jump * forms.int_field_normal(chi0[j])
                       for j in range(N)]) + surf_init
    return A_vol, A_flux, element_gram(w, grads)


def bulk_forms(sys):
    """The former _SurfaceForms, which read facet values from bulk fields."""
    forms = tensors._SurfaceForms(sys)
    forms.fpos = sys.vdof[sys.surf.facets]
    return forms


def bulk_levels(sys, Y):
    """The former bulk levels of chi1 and omega: every trace extended by E."""
    Y = np.asarray(Y)
    X = sys.extend(Y.reshape(-1, Y.shape[-1]).T)
    return X.T.reshape(Y.shape[:-1] + (sys.nd,))


def bulk_v(sys, v):
    """The former bulk v: the traces on the interface dofs, zero elsewhere."""
    out = np.zeros(v.shape[:-1] + (sys.nd,))
    out[..., sys.gamma_dofs] = v
    return out


def bulk_kernel_pair(sys, snapshots, grid, forms):
    """The former vectorised tensors._kernel_pair on an (N, M+1, nd) bulk
    history, with bulk_forms."""
    diff = np.diff(snapshots, axis=1) / grid.step
    dX = np.concatenate([diff[:, :1], diff], axis=1)
    tsurf = sys.coeffs.alpha * forms.int_grad_components(dX)
    vol_route = snapshots @ sys.b_dir.T + tsurf
    flux_route = -sys.coeffs.jump * forms.int_field_normal(snapshots) + tsurf
    return vol_route.transpose(1, 0, 2), flux_route.transpose(1, 0, 2)


def bulk_C0(sys, chi0, forms):
    """The former Gram and mixed routes of compute_C0, with bulk_forms."""
    G = np.stack([forms.proj_dirs[j] + forms.tangential_gradient(chi0[j])
                  for j in range(sys.dim)])
    a = sys.coeffs.alpha
    return (a * forms.tangential_gram(G, G),
            a * forms.tangential_gram(G, forms.proj_dirs))


def loop_kernel_pair(sys, snapshots, grid, forms):
    """The former tensors._kernel_pair: one element gradient per level."""
    N, n, dt = sys.dim, grid.n_steps, grid.step
    w = _lam_elem(sys) * np.abs(sys.vols)
    grads = _grads(sys)
    a = sys.coeffs.alpha
    vol_route = np.zeros((n + 1, N, N))
    flux_route = np.zeros((n + 1, N, N))
    for j in range(N):
        X = snapshots[j]
        for lev in range(n + 1):
            ref = max(lev, 1)
            tsurf = a * forms.int_grad_components((X[ref] - X[ref - 1]) / dt)
            g = element_field_gradients(grads, sys.mesh.simplices,
                                        X[lev][sys.vdof])
            vol_route[lev, j] = w @ g + tsurf
            flux_route[lev, j] = (-sys.coeffs.jump
                                  * forms.int_field_normal(X[lev]) + tsurf)
    return vol_route, flux_route


def element_klt1(sys, chi0):
    """The former Gram and split routes of compute_Ahom_klt1."""
    N = sys.dim
    out_els = sys.mesh.phase == PHASE_OUT
    w = _lam_elem(sys)[out_els] * np.abs(sys.vols[out_els])
    sub = sys.sub[PHASE_OUT]
    grads = _corrector_gradients(sys, chi0, out_els)
    split = np.zeros((N, N))
    for j in range(N):
        r = sub.K @ chi0[j][sub.dofs] + sub.b_dir[j]
        split[j] = w @ (np.eye(N)[j][None, :] + grads[j])
        for h in range(N):
            split[j, h] += float(r[sub.fixed] @ chi0[h][sub.dofs][sub.fixed])
    return element_gram(w, grads), split


def element_kgt1(sys, chi0_tilde):
    """The former direct and Gram routes of compute_Ahom_kgt1."""
    N = sys.dim
    w = _lam_elem(sys) * np.abs(sys.vols)
    grads = _corrector_gradients(sys, chi0_tilde)
    direct = np.stack([w @ (np.eye(N)[j][None, :] + grads[j])
                       for j in range(N)])
    return direct, element_gram(w, grads)


def gradient_load_phi(mesh, u0):
    """The former Phi loads: per entry (j, h), the gradient load of the
    element field -(grad u0)_j e_h."""
    nv, S, dim = len(mesh.vertices), mesh.simplices, mesh.dim
    geom = fem.element_gradients(mesh.vertices, S)
    grad_u0 = element_field_gradients(geom[0], S, u0)
    loads = np.empty((dim * dim, nv))
    for j in range(dim):
        for h in range(dim):
            vec = np.zeros((len(S), dim))
            vec[:, h] = -grad_u0[:, j]
            loads[j * dim + h] = fem.assemble_gradient_load(
                geom, S, 1.0, vec,
                fem.identity_dof_map(nv), nv)
    return loads


def loop_kuhn_tetrahedra(n):
    gid = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in geometry._KUHN_PERMS:
                    vs = [base.copy()]
                    cur = base.copy()
                    for ax in perm:
                        cur = cur + np.eye(3, dtype=int)[ax]
                        vs.append(cur.copy())
                    tets.append([gid(*v) for v in vs])
    return np.array(tets, dtype=np.int64)


def loop_macro_grid(n, dim):
    lin = np.arange(n + 1) / n
    lin[-1] = 1.0
    if dim == 3:
        return np.array([[lin[i], lin[j], lin[k]] for i in range(n + 1)
                         for j in range(n + 1) for k in range(n + 1)]), \
            loop_kuhn_tetrahedra(n)
    vid = lambda i, j: j * (n + 1) + i
    vertices = np.array([[lin[i], lin[j]]
                         for j in range(n + 1) for i in range(n + 1)])
    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return vertices, np.array(tris, dtype=np.int64)


def former_assemble_surface_stiffness(vertices, facets, coeff, vdof, ndof):
    """The former fem.assemble_surface_stiffness."""
    coeff = np.asarray(coeff, dtype=float) * np.ones(len(facets))
    grads, meas = fem.surface_gradients(vertices, facets)
    w = meas * coeff
    sloc = np.einsum("f,fik,fjk->fij", w, grads, grads)
    dofs = vdof[facets]
    npf = facets.shape[1]
    rows = np.repeat(dofs, npf, axis=1).ravel()
    cols = np.tile(dofs, (1, npf)).ravel()
    S = sp.coo_matrix((sloc.ravel(), (rows, cols)), shape=(ndof, ndof))
    return S.tocsr()


def former_surface_gradient_load(vertices, facets, coeff, vecs, vdof, ndof):
    """The former fem.surface_gradient_load: L_p = sum_f coeff_f |f| vec_f .
    grad_B phi_p."""
    grads, meas = fem.surface_gradients(vertices, facets)
    w = meas * (np.asarray(coeff, dtype=float) * np.ones(len(facets)))
    contrib = np.einsum("f,fik,fk->fi", w, grads, np.asarray(vecs, dtype=float))
    L = np.zeros(ndof)
    np.add.at(L, vdof[facets].ravel(), contrib.ravel())
    return L


def former_surface_dof_weights(vertices, facets, vdof, ndof):
    """The former fem.surface_dof_weights: w_p = int_Gamma phi_p over the
    given facets."""
    meas = geometry.facet_measures(vertices, facets)
    npf = facets.shape[1]
    contrib = np.repeat(meas[:, None] / npf, npf, axis=1)
    w = np.zeros(ndof)
    np.add.at(w, vdof[facets].ravel(), contrib.ravel())
    return w


def loop_periodic_dof_map(n_vertices, periodic_pairs):
    parent = np.arange(n_vertices, dtype=np.int64)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p, q, _ in periodic_pairs:
        ra, rb = find(int(p)), find(int(q))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(i) for i in range(n_vertices)])
    return np.unique(roots, return_inverse=True)[1].astype(np.int64)


def former_step_solver(M, fixed, dim):
    """The former step solver policy: one SuperLU factor of the whole domain
    in 2D, Jacobi-CG in 3D."""
    if dim == 2:
        return fem.DirichletFactor(M, fixed)
    return fem.CGSolver(M, fixed)


def former_row_types(rows):
    """The former fem._row_types: np.unique over every row as one byte
    string."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, label = np.unique(keys.ravel(), return_index=True,
                                return_inverse=True)
    return first, label.ravel()


class FormerSubstructuredFactor:
    """The former fem.SubstructuredFactor: its own tile and skeleton
    analysis from the tile map, a copy of the free rows of K, type
    detection by np.unique over every row, and full-size load and solution
    blocks in each solve."""

    def __init__(self, K, fixed, tiles, patterns):
        K = K.tocsr()
        self.n = K.shape[0]
        self.fixed, self.free = fem._free_dofs(self.n, fixed)
        self.K_free = K[self.free]
        is_fixed = np.zeros(self.n, dtype=bool)
        is_fixed[self.fixed] = True
        shared = np.bincount(tiles.ravel(), minlength=self.n)[tiles] > 1
        loc_i = np.flatnonzero(~shared.any(axis=0))
        loc_b = np.flatnonzero(shared.any(axis=0))
        self.skeleton, bpos = np.unique(tiles[:, loc_b], return_inverse=True)
        bpos = bpos.reshape(len(tiles), len(loc_b))
        nb = len(loc_b)
        reps, label = former_row_types(np.column_stack(
            [patterns, is_fixed[tiles[:, loc_i]]]))
        self.types = []
        klocs, bps = [], []
        for ty, rep in enumerate(reps):
            members = np.flatnonzero(label == ty)
            li = loc_i[~is_fixed[tiles[rep, loc_i]]]
            gi, gb = tiles[rep, li], tiles[rep, loc_b]
            K_i = K[gi]
            fac = fem.DirichletFactor(K_i[:, gi])
            T = fac.solve(K_i[:, gb].toarray())
            A_bi = K[gb][:, gi]
            bp = bpos[members]
            bps.append(bp)
            klocs.append(np.broadcast_to(A_bi @ T, (len(members), nb, nb)))
            self.types.append((fac, T, A_bi, tiles[members][:, li], bp))
        ns = len(self.skeleton)
        schur = K[self.skeleton][:, self.skeleton] - fem.scatter_matrix(
            np.concatenate(klocs), np.concatenate(bps), ns)
        self.skeleton_factor = fem.DirichletFactor(
            schur, np.flatnonzero(is_fixed[self.skeleton]))

    def solve(self, b, fixed_values=None):
        x = np.zeros((self.n,) + b.shape[1:])
        if fixed_values is not None:
            x[self.fixed] = fixed_values
        if not len(self.free):
            return x
        rhs = b[self.free]
        if fixed_values is not None:
            rhs = rhs - self.K_free @ x
        r = np.zeros((self.n, rhs.size // len(self.free)))
        r[self.free] = rhs.reshape(len(self.free), -1)
        nc = r.shape[1]
        g = r[self.skeleton]
        condensed = []
        for fac, _, A_bi, gi, bp in self.types:
            k, ni = gi.shape
            Y = fac.solve(r[gi].transpose(1, 0, 2).reshape(ni, k * nc))
            flux = (A_bi @ Y).reshape(-1, k, nc).transpose(1, 0, 2)
            np.subtract.at(g, bp, flux)
            condensed.append(Y)
        xs = self.skeleton_factor.solve(g)
        y = np.zeros_like(r)
        y[self.skeleton] = xs
        for (_, T, _, gi, bp), Y in zip(self.types, condensed):
            k, ni = gi.shape
            xb = xs[bp].transpose(1, 0, 2).reshape(-1, k * nc)
            y[gi] = (Y - T @ xb).reshape(ni, k, nc).transpose(1, 0, 2)
        fem.residual_check(self.K_free, y, r[self.free])
        x[self.free] = y[self.free].reshape(rhs.shape)
        return x


def former_tiled_stiffness(mesh, *tables):
    """The former micro._tiled_stiffness: the cell's phase stiffness
    assembled on every call, and one COO matrix built per table."""
    V, S, phase = mesh.cell.vertices, mesh.cell.simplices, mesh.cell.phase
    geom, nv = fem.element_gradients(V, S, mesh.cell.vols), len(V)
    phases = np.arange(3)
    A = [fem.assemble_stiffness(geom, S, phase == ph, fem.identity_dof_map(nv),
                                nv, allow_zero=True) for ph in phases]
    unit = np.stack([a.data for a in A]) * mesh.eps ** (mesh.dim - 2)
    lg, A = mesh.local_global, A[0].tocoo()
    ij = (lg[:, A.row].ravel(), lg[:, A.col].ravel())
    tile_phase = np.where(mesh.stripped[:, None], PHASE_OUT, phases)
    coeff = np.array([[t.get(ph, 0.0) for ph in phases] for t in tables])
    vals = np.einsum("btp,pk->btk", coeff[:, tile_phase], unit)
    shape = (len(mesh.vertices),) * 2
    return [sp.coo_matrix((v.ravel(), ij), shape=shape).tocsr() for v in vals]


def loop_elliptic(problem):
    """The former solve_homogenized_elliptic's levels: one solve per time
    level, with the source evaluated at each."""
    mesh = problem.mesh
    fac = macro._tensor_factor(mesh, problem.A_elliptic, "elliptic macro")
    return np.stack([fac.solve(mesh.mass * problem.source(mesh.vertices))
                     for _ in problem.grid.times])


def tiled_stiffness(mesh, table):
    """The former micro assembly: the element geometry of every tiled
    simplex, then one stiffness with the coefficient table by element
    phase (zero for a phase the table leaves out)."""
    V, S, n = mesh.vertices, mesh.simplices, len(mesh.vertices)
    return fem.assemble_stiffness(
        fem.element_gradients(V, S), S,
        fem.phase_coefficient(mesh.phase, table), fem.identity_dof_map(n), n,
        allow_zero=True)


def tiled_vertex_mass(mesh):
    """The former micro vertex mass: the lumped load of the unit function,
    from the volumes of every tiled simplex."""
    V, S, n = mesh.vertices, mesh.simplices, len(mesh.vertices)
    vols = geometry.simplex_volumes(V, S)
    return lumped_load(lumped_weights(vols, S.shape[1]), S, np.ones(n),
                       fem.identity_dof_map(n), n)


def centroid_local_average(fld, mesh):
    """The former micro.local_average: the eps-cell of each tiled element
    from its centroid, weighted with the element's own volume."""
    m, dim = int(round(1.0 / mesh.eps)), mesh.dim
    V, S = mesh.vertices, mesh.simplices
    vols = np.abs(geometry.simplex_volumes(V, S))
    idx = np.minimum((V[S].mean(axis=1) * m).astype(int), m - 1)
    flat = np.ravel_multi_index(tuple(idx.T), (m,) * dim)
    cellvol = np.zeros(m ** dim)
    np.add.at(cellvol, flat, vols)
    num = np.zeros((fld.levels.shape[0], m ** dim))
    np.add.at(num, (slice(None), flat), vols * fld.levels[:, S].mean(axis=2))
    return num / cellvol


class _Captured(Exception):
    pass


def march_operators(solve, run):
    """The bulk operator K, the memory operator Q, K_unit and the load
    vector (or None) that solve hands to micro._march for run; K_unit is
    handed over in COO form, and returned converted as the march converts
    it."""
    got = []

    def capture(K, Q, c, boundary, support, u0, grid, mesh, K_unit,
                load=None):
        assert K.format == Q.format == "csr" and K_unit.format == "coo"
        got.append((K, Q, K_unit.tocsr(), load))
        raise _Captured

    original = micro._march
    micro._march = capture
    try:
        with pytest.raises(_Captured):
            solve(run)
    finally:
        micro._march = original
    return got[0]


def loop_solve_micro(run):
    """The former solve_micro (its Dirichlet path): own harmonic start, own
    step loop and per-level energy dots.  It marches the bulk operators and
    the load that solve_micro builds, which
    test_cell_built_operators_match_tiled_assembly pins to the former tiled
    assembly, so this pins the march."""
    mesh = run.mesh
    V, phase = mesh.vertices, mesh.phase
    coeffs, grid = run.coeffs, run.grid
    dt = grid.step
    eps = mesh.eps
    surf_scale = eps ** run.k * coeffs.alpha
    init_scale = eps ** ((1.0 - run.k) / 2.0)
    vdof = fem.identity_dof_map(len(V))
    nd = fem.n_dofs(vdof)

    K, _, K_unit, load = march_operators(micro.solve_micro, run)
    if np.all(phase == phase[0]):
        S1 = sp.csr_matrix((nd, nd))
        gamma = np.empty(0, dtype=np.int64)
    else:
        facets = mesh.interface
        S1 = former_assemble_surface_stiffness(V, facets,
                                               np.ones(len(facets)), vdof, nd)
        gamma = np.unique(vdof[facets])
    fixed = np.unique(vdof[mesh.boundary_vertices])

    x0 = np.zeros(nd)
    if run.u0_bar is not None and len(gamma):
        vals = np.asarray(run.u0_bar(V), dtype=float)
        trace = np.zeros(nd)
        trace[vdof] = vals
        fixed0 = np.union1d(gamma, fixed)
        fv = init_scale * trace[fixed0]
        fv[np.isin(fixed0, fixed)] = 0.0
        x0 = fem.DirichletFactor(K, fixed0).solve(np.zeros(nd), fv)

    c = surf_scale / dt
    fac = former_step_solver((K + c * S1).tocsr(), fixed, mesh.dim)
    zeros_fixed = np.zeros(len(fixed))
    n_steps = grid.n_steps
    X = np.zeros((n_steps + 1, nd))
    X[0] = x0
    surf_quad = np.empty(n_steps + 1)
    surf_quad[0] = float(x0 @ (S1 @ x0))
    bulk_l2t = 0.0
    for n in range(1, n_steps + 1):
        rhs = c * (S1 @ X[n - 1])
        if load is not None:
            rhs = rhs + load
        X[n] = fac.solve(rhs, zeros_fixed)
        surf_quad[n] = float(X[n] @ (S1 @ X[n]))
        bulk_l2t += dt * float(X[n] @ (K_unit @ X[n]))
    return X[:, vdof], {
        "surface_energy": surf_scale * surf_quad,
        "energy_bulk": bulk_l2t,
        "energy_surface": (eps ** run.k) * float(np.max(surf_quad)),
    }


def loop_solve_membrane(run):
    """The former solve_membrane: its own copy of the same march, with the
    band terms divided by dt, on the former tiled assembly."""
    mesh = run.mesh
    V, S, phase = mesh.vertices, mesh.simplices, mesh.phase
    coeffs, grid = run.coeffs, run.grid
    dt = grid.step
    nv = len(V)

    K_lam = tiled_stiffness(mesh, {PHASE_INT: coeffs.lam_int,
                                   PHASE_OUT: coeffs.lam_out})
    K_til = tiled_stiffness(mesh, {PHASE_MEMBRANE: coeffs.alpha / mesh.eta})
    boundary = np.unique(mesh.boundary_vertices)

    x0 = np.zeros(nv)
    band_verts = np.unique(S[phase == PHASE_MEMBRANE])
    if run.u0_bar is not None and len(band_verts):
        vals = np.asarray(run.u0_bar(V), dtype=float)
        fixed0 = np.union1d(band_verts, boundary)
        fv = vals[fixed0]
        fv[np.isin(fixed0, boundary)] = 0.0
        x0 = fem.DirichletFactor(K_lam, fixed0).solve(np.zeros(nv), fv)

    fac = former_step_solver((K_lam + K_til / dt).tocsr(), boundary, mesh.dim)
    zeros_fixed = np.zeros(len(boundary))
    n_steps = grid.n_steps
    X = np.zeros((n_steps + 1, nv))
    X[0] = x0
    K_unit = tiled_stiffness(mesh, {PHASE_INT: 1.0, PHASE_OUT: 1.0,
                                    PHASE_MEMBRANE: 1.0})
    band_energy = np.empty(n_steps + 1)
    band_energy[0] = float(x0 @ (K_til @ x0)) / coeffs.alpha
    bulk_l2t = 0.0
    for n in range(1, n_steps + 1):
        X[n] = fac.solve((K_til @ X[n - 1]) / dt, zeros_fixed)
        band_energy[n] = float(X[n] @ (K_til @ X[n])) / coeffs.alpha
        bulk_l2t += dt * float(X[n] @ (K_unit @ X[n]))
    return X, {
        "membrane_energy": band_energy,
        "energy_bulk": bulk_l2t,
        "energy_surface": float(band_energy.max()) * mesh.eta,
    }


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def membrane(disk):
    mesh, surf = build_membrane_cell(disk.spec, 0.2)
    return mesh, surf


def _cell(request, name):
    if name == "membrane":
        return request.getfixturevalue("membrane")
    bundle = request.getfixturevalue(name)
    return bundle.mesh, bundle.surf


def _assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def _assert_same_surface(new, old):
    for name in ("facets", "normals", "component", "measures", "adjacency"):
        _assert_same(getattr(new, name), getattr(old, name))


CELLS = ["disk", "layered", "tube", "membrane"]
NO_PAIRS = np.zeros((0, 3), dtype=np.int64)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "plain"])
@pytest.mark.parametrize("name", CELLS)
def test_extract_interface_matches_loop(request, name, periodic):
    mesh, _ = _cell(request, name)
    pairs = mesh.periodic_pairs if periodic else NO_PAIRS
    new = extract_interface(mesh.vertices, mesh.simplices, mesh.phase, pairs)
    old = loop_extract_interface(mesh.vertices, mesh.simplices, mesh.phase,
                                 pairs)
    _assert_same_surface(new, old)


def test_periodic_ridge_matching_joins_corner_pieces(layered):
    # inclusion = the square around the cell corner: four L-shaped interface
    # pieces in the cell, one closed curve modulo the periodic identification
    mesh = layered.mesh
    cent = mesh.vertices[mesh.simplices].mean(axis=1)
    outside = (np.abs(cent - 0.5) < 0.25).any(axis=1)
    phase = np.where(outside, PHASE_OUT, PHASE_INT)
    for pairs, n_components in ((mesh.periodic_pairs, 1), (NO_PAIRS, 4)):
        new = extract_interface(mesh.vertices, mesh.simplices, phase, pairs)
        old = loop_extract_interface(mesh.vertices, mesh.simplices, phase,
                                     pairs)
        _assert_same_surface(new, old)
        assert new.n_components == n_components


@pytest.mark.parametrize("name", CELLS)
def test_periodic_dof_map_matches_union_find(request, name):
    mesh, _ = _cell(request, name)
    nv = len(mesh.vertices)
    _assert_same(geometry.periodic_classes(nv, mesh.periodic_pairs),
                 loop_periodic_dof_map(nv, mesh.periodic_pairs))


def test_periodic_dof_map_matches_union_find_on_chains():
    # high-to-low chains and a pair listed against vertex order
    pairs = np.array([[4, 6, 0], [1, 4, 1], [6, 2, 0], [0, 7, 1]])
    _assert_same(geometry.periodic_classes(9, pairs),
                 loop_periodic_dof_map(9, pairs))
    empty = np.zeros((0, 3), dtype=np.int64)
    _assert_same(geometry.periodic_classes(4, empty),
                 loop_periodic_dof_map(4, empty))


@pytest.mark.parametrize("name, eps, strip", [
    ("disk", 0.5, True), ("disk", 0.5, False),
    ("disk", 0.25, True), ("disk", 0.25, False),
    ("disk", 1.0 / 3.0, True), ("layered", 0.5, True), ("tube", 0.5, False),
    ("membrane", 0.5, False), ("membrane", 1.0 / 3.0, True),
])
def test_tiling_matches_loop(request, name, eps, strip):
    mesh, surf = _cell(request, name)
    # the caller decides stripping: on the layered cell too, when asked
    micro, facets = tile_micro_domain(mesh, surf.facets, eps, strip)
    vertices, simplices, phase = loop_tiling(mesh, eps, strip)
    _assert_same(micro.vertices, vertices)
    _assert_same(micro.simplices, simplices)
    _assert_same(micro.phase, phase)
    assert facets is micro.interface
    if np.all(phase == PHASE_OUT):
        _assert_same(facets, np.zeros((0, mesh.dim), dtype=np.int64))
    else:
        _assert_same(facets,
                     loop_extract_interface(vertices, simplices, phase).facets)


@pytest.mark.parametrize("eps", [0.5, 0.25])
@pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
@pytest.mark.parametrize("name", CELLS)
def test_tiled_interface_gathers_cell_facets(request, name, strip, eps):
    # the tiles' copies of the cell facets are the facets extract_interface
    # once found on the whole tiled mesh, in the same order
    mesh, surf = _cell(request, name)
    # callers strip disconnected inclusions only: a stripped tile beside a
    # connected phase would add facets on the tile's edges
    strip = strip and name in ("disk", "membrane")
    tiled, facets = tile_micro_domain(mesh, surf.facets, eps, strip)
    if np.all(tiled.phase == PHASE_OUT):
        _assert_same(facets, np.zeros((0, mesh.dim), dtype=np.int64))
    else:
        _assert_same(facets, extract_interface(
            tiled.vertices, tiled.simplices, tiled.phase, NO_PAIRS).facets)


@pytest.mark.parametrize("name, m", [(name, m) for name in CELLS
                                     for m in (1, 2, 3, 4)]
                         + [(name, 10) for name in ("disk", "layered",
                                                    "membrane")])
def test_tile_numbering_matches_pair_chasing(request, name, m):
    # the tiler keys each tiled vertex by its periodic class and lattice
    # corner, where it once chased the periodic pairs to a canonical copy
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, 1.0 / m, False)
    local_global, vertices = pair_chasing_numbering(mesh, m)
    _assert_same(tiled.local_global, local_global)
    _assert_same(tiled.vertices, vertices)


@pytest.mark.parametrize("name", CELLS)
def test_facet_kernels_match_former_surface_kernels(request, name):
    # the bulk kernels on facet geometry are the former surface copies:
    # S1, each component's surface weights and the chi0 trace loads
    mesh, surf = _cell(request, name)
    V, F = mesh.vertices, surf.facets
    vdof = geometry.periodic_classes(len(V), mesh.periodic_pairs)
    nd = fem.n_dofs(vdof)
    grads, meas = fem.surface_gradients(V, F)
    S1 = fem.assemble_stiffness((grads, meas), F, 1.0, vdof, nd)
    ref = former_assemble_surface_stiffness(V, F, 1.0, vdof, nd)
    for attr in ("indptr", "indices", "data"):
        _assert_same(getattr(S1, attr), getattr(ref, attr))
    weights, loads = [], []
    for c in range(surf.n_components):
        fc = surf.component == c
        nrm = surf.normals[fc]
        weights.append(fem.volume_dof_weights(meas[fc], F[fc], vdof, nd))
        _assert_same(weights[-1], former_surface_dof_weights(V, F[fc], vdof,
                                                             nd))
        for j in range(mesh.dim):
            vec = np.eye(mesh.dim)[j] - nrm * nrm[:, j:j + 1]
            loads.append(fem.assemble_gradient_load(
                (grads[fc], meas[fc]), F[fc], 1.0, vec, vdof, nd))
            _assert_same(loads[-1], former_surface_gradient_load(
                V, F[fc], 1.0, vec, vdof, nd))
    if name != "membrane":   # the cell system holds the same operators
        sys = request.getfixturevalue(name).system
        for attr in ("indptr", "indices", "data"):
            _assert_same(getattr(sys.S1, attr), getattr(S1, attr))
        for got, w in zip(sys.comp_w, weights):
            _assert_same(got, w)


def test_rays_match_octant_loops():
    for n_theta in range(8, 480, 8):
        dirs, hits = geometry._rays(n_theta)
        _assert_bitwise(dirs, loop_sym_directions(n_theta))
        _assert_bitwise(hits, loop_square_boundary_points(n_theta))


@pytest.mark.parametrize("kind, params, eta", [
    ("Disk2D", {"r0": 0.1}, None), ("Disk2D", {"r0": 0.25}, None),
    ("Disk2D", {"r0": 0.45}, None), ("Disk2D", {"r0": 0.25}, 0.1),
    ("Disk2D", {"r0": 0.25}, 0.2), ("Layered2D", {"a": 0.25, "b": 0.75}, None),
    ("Layered2D", {"a": 0.1, "b": 0.5}, None),
])
@pytest.mark.parametrize("h", [0.1, 0.04])
def test_pair_matcher_matches_former_2d_matcher(kind, params, eta, h):
    # disk and membrane cells were matched on their outer ring only, the
    # layered cell on all its vertices
    spec = geometry.GeometrySpec(kind, params, h=h)
    mesh, _ = (geometry.build_unit_cell(spec) if eta is None
               else build_membrane_cell(spec, eta))
    V = mesh.vertices
    first = count = None
    if kind == "Disk2D":
        count = int(np.any((V == 0.0) | (V == 1.0), axis=1).sum())
        first = len(V) - count
    _assert_same(mesh.periodic_pairs, loop_match_boundary_pairs(V, first, count))


@pytest.mark.parametrize("rho", [0.15, 0.3, 0.45])
@pytest.mark.parametrize("h", [0.25, 1.0 / 6.0])
def test_pair_matcher_matches_former_tube_pairing(monkeypatch, rho, h):
    # the former pairing read the former builder's lattice coordinates, cut
    # edges and vertex compaction; they are taken from the oracle's frame
    # when it calls the matcher
    spec = geometry.GeometrySpec("TubeLattice3D", {"rho": rho}, h=h)
    mesh, _ = geometry.build_unit_cell(spec)
    matcher, former = geometry._match_boundary_pairs, []

    def spy(vertices):
        state = sys._getframe(1).f_locals
        former.append(loop_tube_periodic_pairs(
            vertices, state["remap"], state["coord_int"], state["n"],
            state["cut_id"]))
        return matcher(vertices)

    monkeypatch.setattr(geometry, "_match_boundary_pairs", spy)
    oracle = loop_build_tube(spec)
    assert len(former) == 1
    _assert_same(oracle.periodic_pairs, former[0])
    _assert_same(mesh.periodic_pairs, oracle.periodic_pairs)


@pytest.mark.parametrize("rho", [0.2, 0.25])
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_tube_cut_matches_former_builder(rho, n):
    spec = geometry.GeometrySpec("TubeLattice3D", {"rho": rho}, h=1.0 / n)
    mesh, _ = geometry.build_unit_cell(spec)
    oracle = loop_build_tube(spec)
    _assert_bitwise(mesh.vertices, oracle.vertices)
    for name in ("simplices", "phase", "periodic_pairs"):
        _assert_same(getattr(mesh, name), getattr(oracle, name))


# ---------------------------------------------------------------------------
# micro step solver: SuperLU factor against Jacobi-CG
# ---------------------------------------------------------------------------

# CG stops at a relative residual of 1e-12, so the two marches agree to
# roundoff times conditioning, not bitwise.  The largest gaps measured were
# 3.2e-12 (Disk2D, eps = 1/10) and 1.4e-12 (TubeLattice3D up to 24,457
# dofs) relative to max|u|; 1e-10 leaves a thirtyfold margin over both.
STEP_RTOL = 1e-10


def _march_with(monkeypatch, solver, solve, run):
    monkeypatch.setattr(micro, "_solver",
                        lambda M, fixed, mesh: solver(M, fixed))
    return solve(run)


def _assert_same_march(a, b):
    scale = np.abs(b.levels).max()
    assert scale > 0.0
    assert np.abs(a.levels - b.levels).max() <= STEP_RTOL * scale
    for key in ("energy_bulk", "energy_surface"):
        ref = b.diagnostics[key]
        assert ref > 0.0
        assert abs(a.diagnostics[key] - ref) <= STEP_RTOL * ref


def _source(pts):
    return np.exp(-pts[:, 0]) * sin_product(pts)


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_micro_march_same_with_splu_and_cg(request, monkeypatch, name):
    mesh, surf = _cell(request, name)
    coeffs = request.getfixturevalue(name).coeffs
    tiled, _ = tile_micro_domain(mesh, surf.facets, 0.5, False)
    run = micro.MicroRun(mesh=tiled, coeffs=coeffs, k=1.0,
                         grid=TimeGrid(0.2, 0.05), u0_bar=sin_product,
                         source=_source)
    splu, cg = (_march_with(monkeypatch, solver, micro.solve_micro, run)
                for solver in (fem.DirichletFactor, fem.CGSolver))
    _assert_same_march(splu, cg)


def test_membrane_march_same_with_splu_and_cg(monkeypatch, disk, membrane):
    tiled, _ = tile_micro_domain(membrane[0], membrane[1].facets, 0.5, False)
    run = micro.MembraneRun(mesh=tiled, coeffs=disk.coeffs,
                            grid=TimeGrid(0.2, 0.05), u0_bar=sin_product)
    splu, cg = (_march_with(monkeypatch, solver, micro.solve_membrane, run)
                for solver in (fem.DirichletFactor, fem.CGSolver))
    _assert_same_march(splu, cg)


# ---------------------------------------------------------------------------
# substructured factor against the whole-domain factor
# ---------------------------------------------------------------------------

# The two factors eliminate in different orders, so they agree to roundoff,
# not bitwise.  With random loads and fixed values the largest gap measured
# over these cases was 1.7e-13 of max|x|; at eps = 1 the one tile holds
# every dof and the gap is zero.
FACTOR_RTOL = 1e-12


@pytest.mark.parametrize("eps, strip", [(1.0, False), (0.5, False),
                                        (0.25, True)])
@pytest.mark.parametrize("name", ["disk", "layered", "membrane"])
def test_substructured_factor_matches_whole_domain_factor(request, name, eps,
                                                          strip):
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, eps, strip)
    V, S, n = tiled.vertices, tiled.simplices, len(tiled.vertices)
    lam = fem.phase_coefficient(tiled.phase, {PHASE_INT: 1.0, PHASE_OUT: 3.0,
                                              PHASE_MEMBRANE: 2.0})
    K = fem.assemble_stiffness(fem.element_gradients(V, S), S, lam,
                               fem.identity_dof_map(n), n)
    boundary = np.unique(tiled.boundary_vertices)
    rng = np.random.default_rng(5)
    # the step's fixed set, and the start's with the interface or band added
    for fixed in (boundary, np.union1d(boundary,
                                       S[tiled.phase != PHASE_OUT][:, 0])):
        sub = micro._solver(K, fixed, tiled)
        ref = fem.DirichletFactor(K, fixed)
        for shape in ((n,), (n, 3)):
            b = rng.standard_normal(shape)
            fv = rng.standard_normal((len(fixed),) + shape[1:])
            x_ref = ref.solve(b, fv)
            x = sub.solve(b, fv)
            assert x.shape == x_ref.shape
            assert np.array_equal(x[fixed], fv)
            assert (np.abs(x - x_ref).max()
                    <= FACTOR_RTOL * np.abs(x_ref).max())


def test_row_types_match_former_unique_over_rows():
    # types numbered in the byte-string order of their rows, each row's
    # first occurrence as its representative, on rows with negative ints
    rng = np.random.default_rng(11)
    pool = rng.integers(-300, 300, (6, 40))
    flags = rng.integers(0, 2, (6, 7)).astype(bool)
    pick = rng.integers(0, 6, 90)
    first, label = fem._row_types(pool[pick], flags[pick])
    ref_first, ref_label = former_row_types(
        np.column_stack([pool[pick], flags[pick]]))
    _assert_same(first, ref_first)
    _assert_same(label, ref_label)


# The lean factor reads the tiling's one layout, slices no copy of the free
# rows of K, gathers its loads from b and forms the fixed-value product as
# (K x)[free]; its tile types and Schur scatter keep the former order, so
# every solve is bitwise the former one.
@pytest.mark.parametrize("eps", [0.5, 0.25])
@pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
@pytest.mark.parametrize("name", ["disk", "layered"])
def test_substructured_factor_matches_former_bitwise(request, name, strip,
                                                     eps):
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, eps, strip)
    K, Q, c, boundary, support = micro._micro_operators(micro.MicroRun(
        mesh=tiled, coeffs=request.getfixturevalue(name).coeffs, k=1.0,
        grid=TimeGrid(0.2, 0.05)))[:5]
    patterns = tiled.phase.reshape(len(tiled.local_global), -1)
    n = len(tiled.vertices)
    rng = np.random.default_rng(7)
    # the harmonic start's system and fixed set, then the step's
    for M, fixed in ((K, np.union1d(support, boundary)),
                     ((K + c * Q).tocsr(), boundary)):
        new = fem.SubstructuredFactor(M, fixed, tiled.substructure, patterns)
        old = FormerSubstructuredFactor(M, fixed, tiled.local_global,
                                        patterns)
        for shape in ((n,), (n, 3)):
            b = rng.standard_normal(shape)
            fv = rng.standard_normal((len(fixed),) + shape[1:])
            _assert_bitwise(new.solve(b), old.solve(b))
            _assert_bitwise(new.solve(b, fv), old.solve(b, fv))


# The cell's phase stiffness is assembled once per cell, the coefficient
# products are formed once per tile pattern, and one COO matrix takes each
# table's values in turn, the last left unconverted; converted, the
# matrices are bitwise the former ones, built per call and per table.
@pytest.mark.parametrize("name, strip, eps", [
    ("disk", True, 0.25), ("disk", False, 0.5), ("layered", False, 0.25),
    ("tube", False, 0.5), ("membrane", False, 1.0 / 3.0)])
def test_tiled_stiffness_matches_former_bitwise(request, name, strip, eps):
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, eps, strip)
    tables = ({PHASE_INT: 2.5, PHASE_OUT: 1.5},
              {PHASE_MEMBRANE: 7.0},
              {PHASE_INT: 1.0, PHASE_OUT: 1.0, PHASE_MEMBRANE: 1.0})
    found = micro._tiled_stiffness(tiled, *tables)
    assert [m.format for m in found] == ["csr", "csr", "coo"]
    for got, ref in zip(found, former_tiled_stiffness(tiled, *tables),
                        strict=True):
        got = got.tocsr()
        _assert_same(got.indptr, ref.indptr)
        _assert_same(got.indices, ref.indices)
        _assert_bitwise(got.data, ref.data)


# ---------------------------------------------------------------------------
# one pseudo-parabolic march against the two former step loops
# ---------------------------------------------------------------------------

_MICRO_KEYS = ("surface_energy", "energy_bulk", "energy_surface")

# The 2D march now solves with fem.SubstructuredFactor, whose elimination
# order differs from the whole-domain factor of the former march, so the two
# agree to roundoff, not bitwise.  The largest gaps measured over the 2D
# cases below, with the tile solves as one block solve each, the
# back-substitution as one T @ x_B product and the position-only _source,
# were 7.4e-13 of max|u| (levels, disk at eps = 1/4) and 5.1e-13 of each
# energy (layered at eps = 1/4); at eps = 1/10 with stripping 2.2e-13 and
# 1.2e-13.  At eps = 1 the one tile holds every dof and the levels agree
# bitwise.
# The 3D march now starts with Jacobi-CG where the former one factored the
# whole domain, so its level 0 is held to STEP_RTOL, the tolerance of the
# CG/SuperLU pin (the largest gap measured on the tube was 9.1e-13 of
# max|u|).  The steps read the start only through S1, which is supported on
# the interface values that both starts fix exactly, so the later levels
# stay bitwise.  The march takes its quadratic forms after the last step,
# one einsum per form, where the former loop took a BLAS dot per level, so
# the energies agree to roundoff; they are held to SUBSTRUCTURED_RTOL in 3D
# too (the largest gap measured on the tube was 4.4e-15 of each energy).
SUBSTRUCTURED_RTOL = 1e-12


def _micro_run(request, name, strip, k, source=_source, eps=0.5):
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, eps, strip)
    run = micro.MicroRun(mesh=tiled, coeffs=request.getfixturevalue(name).coeffs,
                         k=k, grid=TimeGrid(0.2, 0.05), u0_bar=sin_product,
                         source=source)
    return tiled, run


def _assert_same_micro(run):
    fld = micro.solve_micro(run)
    levels, diagnostics = loop_solve_micro(run)
    scale = np.abs(levels).max()
    if run.mesh.dim == 3:
        assert np.abs(fld.levels[0] - levels[0]).max() <= STEP_RTOL * scale
        _assert_bitwise(fld.levels[1:], levels[1:])
    else:
        assert np.abs(fld.levels - levels).max() <= SUBSTRUCTURED_RTOL * scale
    got_diagnostics = dict(fld.diagnostics,
                           surface_energy=micro_surface_energy(run, fld.levels))
    for key in _MICRO_KEYS:
        ref = np.atleast_1d(diagnostics[key])
        got = np.atleast_1d(got_diagnostics[key])
        assert np.all(np.abs(got - ref) <= SUBSTRUCTURED_RTOL * ref), key
    return fld


@pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_micro_march_matches_former_solve_micro(request, name, strip, k):
    _, run = _micro_run(request, name, strip, k)
    fld = _assert_same_micro(run)
    assert np.abs(fld.levels).max() > 0.0


@pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
@pytest.mark.parametrize("name", ["disk", "layered"])
@pytest.mark.parametrize("eps", [1.0, 0.25])
def test_substructured_march_matches_former_across_eps(request, eps, name,
                                                       strip, k):
    tiled, run = _micro_run(request, name, strip, k, eps=eps)
    fld = _assert_same_micro(run)
    assert np.abs(fld.levels).max() > 0.0


def test_substructured_march_matches_former_at_eps_tenth(request):
    # the micro_2d benchmark tiling: 100 tiles of two types, 70,201 vertices
    tiled, run = _micro_run(request, "disk", True, 1.0, eps=0.1)
    assert len(np.unique(tiled.phase.reshape(100, -1), axis=0)) == 2
    fld = _assert_same_micro(run)
    assert np.abs(fld.levels).max() > 0.0


@pytest.mark.parametrize("source", [_source, None], ids=["f", "no-f"])
def test_interface_free_micro_march_matches_former(request, source):
    # stripping at eps = 1/2 removes every disk inclusion: no surface term,
    # and the initial datum has no interface to start from
    tiled, run = _micro_run(request, "disk", True, 1.0, source=source)
    assert np.all(tiled.phase == PHASE_OUT) and len(tiled.interface) == 0
    fld = _assert_same_micro(run)
    assert (np.abs(fld.levels).max() > 0.0) == (source is not None)


# The shared march scales the band term as (1/dt) K_til where the former
# membrane loop divided K_til and K_til x by dt, and it solves with the
# substructured factor where the former loop factored the whole domain, so
# the two agree to roundoff, not bitwise.  The largest gaps measured over
# these cases were 8.8e-14 of max|u| (levels) and 5.7e-14 of each energy.
MEMBRANE_RTOL = 1e-12


@pytest.mark.parametrize("eps, strip", [(0.5, False), (1.0 / 3.0, True)])
@pytest.mark.parametrize("eta", [0.2, 0.1])
def test_membrane_march_matches_former_solve_membrane(disk, eta, eps, strip):
    bc, bs = build_membrane_cell(disk.spec, eta)
    tiled, _ = tile_micro_domain(bc, bs.facets, eps, strip)
    run = micro.MembraneRun(mesh=tiled, coeffs=disk.coeffs,
                            grid=TimeGrid(0.2, 0.05), u0_bar=sin_product)
    fld = micro.solve_membrane(run)
    levels, diagnostics = loop_solve_membrane(run)
    scale = np.abs(levels).max()
    assert scale > 0.0
    assert np.abs(fld.levels - levels).max() <= MEMBRANE_RTOL * scale
    got_diagnostics = dict(fld.diagnostics, membrane_energy=(
        membrane_band_energy(run, fld.levels)))
    for key in ("membrane_energy", "energy_bulk", "energy_surface"):
        ref = np.asarray(diagnostics[key])
        got = np.asarray(got_diagnostics[key])
        assert np.all(ref > 0.0)
        assert np.all(np.abs(got - ref) <= MEMBRANE_RTOL * ref), key


def test_membrane_tiling_extracts_no_interface(monkeypatch, disk, membrane):
    # tiling gathers the cell facets and extracts nothing; solve_membrane
    # reads the band, never the interface, so the levels match those of the
    # same tiling without facets
    calls = []
    original = geometry.extract_interface

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "extract_interface", counting)
    for eps, strip in ((0.5, False), (1.0 / 3.0, True)):
        tiled, _ = tile_micro_domain(membrane[0], membrane[1].facets, eps,
                                     strip)
        assert calls == []
        run = micro.MembraneRun(mesh=tiled, coeffs=disk.coeffs,
                                grid=TimeGrid(0.2, 0.05), u0_bar=sin_product)
        bare = dataclasses.replace(tiled, interface=tiled.interface[:0])
        got = micro.solve_membrane(run)
        ref = micro.solve_membrane(dataclasses.replace(run, mesh=bare))
        _assert_bitwise(got.levels, ref.levels)
        for key in ("energy_bulk", "energy_surface"):
            _assert_bitwise(np.atleast_1d(got.diagnostics[key]),
                            np.atleast_1d(ref.diagnostics[key]))


# ---------------------------------------------------------------------------
# cell-built micro operators against the tiled assembly
# ---------------------------------------------------------------------------

# The stiffness matrices are sums of the cell's per-phase matrices, scaled
# by eps^(N-2), where the former assembly summed the element matrices of
# every tiled simplex, and the vertex mass takes the cell volumes times
# eps^N: the entries agree to roundoff, on identical sparsity patterns.
# The largest gap measured over these cases was 3.8e-14 of max|entry|
# (membrane at eps = 1/4).  It grows with 1/eps, to 8.3e-14 on the disk and
# 1.8e-13 on the membrane at eps = 1/10, because the tiled element edges are
# differences of coordinates of order 1.
OPERATOR_RTOL = 1e-12


def _assert_same_operator(got, ref):
    got, ref = got.tocsr(), ref.tocsr()
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    scale = np.abs(ref.data).max()
    assert scale > 0.0
    assert np.abs(got.data - ref.data).max() <= OPERATOR_RTOL * scale


# stripping the membrane tiling at eps = 1/2 leaves no band, and
# solve_membrane refuses a tiling without one
@pytest.mark.parametrize("name, strip, eps", [
    (name, strip, eps) for name in CELLS for strip in (True, False)
    for eps in (0.5, 0.25) if (name, strip, eps) != ("membrane", True, 0.5)])
def test_cell_built_operators_match_tiled_assembly(request, name, strip, eps):
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, eps, strip)
    coeffs = request.getfixturevalue("disk" if name == "membrane"
                                     else name).coeffs
    lam = {PHASE_INT: coeffs.lam_int, PHASE_OUT: coeffs.lam_out}
    unit = {PHASE_INT: 1.0, PHASE_OUT: 1.0, PHASE_MEMBRANE: 1.0}
    grid = TimeGrid(0.2, 0.05)
    if name == "membrane":
        run = micro.MembraneRun(mesh=tiled, coeffs=coeffs, grid=grid)
        K, Q, K_unit, _ = march_operators(micro.solve_membrane, run)
        _assert_same_operator(Q, tiled_stiffness(
            tiled, {PHASE_MEMBRANE: coeffs.alpha / tiled.eta}))
    else:
        run = micro.MicroRun(mesh=tiled, coeffs=coeffs, k=1.0, grid=grid,
                             source=lambda pts: np.ones(len(pts)))
        K, Q, K_unit, load = march_operators(micro.solve_micro, run)
        n = len(tiled.vertices)
        if len(tiled.interface):
            _assert_same_operator(Q, former_assemble_surface_stiffness(
                tiled.vertices, tiled.interface, 1.0,
                fem.identity_dof_map(n), n))
        mass, ref = load, tiled_vertex_mass(tiled)
        assert np.abs(mass - ref).max() <= OPERATOR_RTOL * ref.max()
    _assert_same_operator(K, tiled_stiffness(tiled, lam))
    _assert_same_operator(K_unit, tiled_stiffness(tiled, unit))


@pytest.mark.parametrize("name", ["disk", "layered", "tube", "membrane"])
def test_march_quadratic_forms_match_former_dots(request, monkeypatch, name):
    # the march takes x_n . Q x_n and sum_n dt x_n . K_unit x_n after its
    # last step, where the former march took two dots per level
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, 0.5, False)
    coeffs = request.getfixturevalue("disk" if name == "membrane"
                                     else name).coeffs
    grid = TimeGrid(0.2, 0.05)
    if name == "membrane":
        solve, run = micro.solve_membrane, micro.MembraneRun(
            mesh=tiled, coeffs=coeffs, grid=grid, u0_bar=sin_product)
    else:
        solve, run = micro.solve_micro, micro.MicroRun(
            mesh=tiled, coeffs=coeffs, k=1.0, grid=grid, u0_bar=sin_product,
            source=_source)
    seen = []
    original = micro._march

    def recording(K, Q, c, boundary, support, u0, grid, mesh, K_unit,
                  load=None):
        out = original(K, Q, c, boundary, support, u0, grid, mesh, K_unit,
                       load)
        seen.append((Q, K_unit.tocsr(), out))
        return out

    monkeypatch.setattr(micro, "_march", recording)
    solve(run)
    (Q, K_unit, (X, quad, bulk)), = seen
    dots = np.array([float(x @ (Q @ x)) for x in X])
    former_bulk = 0.0
    for x in X[1:]:
        former_bulk += grid.step * float(x @ (K_unit @ x))
    assert np.all(dots > 0.0) and former_bulk > 0.0
    assert np.all(np.abs(quad - dots) <= 1e-12 * dots)
    assert abs(bulk - former_bulk) <= 1e-12 * former_bulk


def former_march(K, Q, c, boundary, support, u0, grid, mesh, K_unit,
                 load=None):
    """The former micro._march order: the harmonic start, then the step
    solver, then the steps, condensing every tile type at every step, and
    K_unit converted after the last step."""
    nd = K.shape[0]
    x0 = np.zeros(nd)
    if u0 is not None and len(support):
        fixed0 = np.union1d(support, boundary)
        fv = u0[fixed0]
        fv[np.isin(fixed0, boundary)] = 0.0
        x0 = micro._solver(K, fixed0, mesh).solve(np.zeros(nd), fv)
    fac = micro._solver((K + c * Q).tocsr(), boundary, mesh)
    X = np.zeros((grid.n_steps + 1, nd))
    X[0] = x0
    for n in range(1, grid.n_steps + 1):
        rhs = c * (Q @ X[n - 1])
        if load is not None:
            rhs += load
        if isinstance(fac, fem.SubstructuredFactor):
            fac._last = [None] * len(fac.types)     # nothing to reuse
        X[n] = fac.solve(rhs)
    K_unit = K_unit.tocsr()
    quad = np.einsum("ni,in->n", X, Q @ X.T)
    bulk = np.einsum("ni,in->n", X[1:], K_unit @ X[1:].T)
    return X, quad, float(np.sum(grid.step * bulk))


# The steps start beside the harmonic start from its fixed values alone,
# and reuse the condensation of a tile type whose load block repeats; the
# levels and energies are bitwise those of the former order, on one thread
# and on two.
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name, strip", [
    ("disk", True), ("disk", False), ("layered", False), ("tube", False),
    ("membrane", False)])
def test_march_schedule_matches_former_order_bitwise(request, monkeypatch,
                                                     name, strip, threads):
    mesh, surf = _cell(request, name)
    eps = 0.5 if name == "tube" else 0.25
    tiled, _ = tile_micro_domain(mesh, surf.facets, eps, strip)
    coeffs = request.getfixturevalue("disk" if name == "membrane"
                                     else name).coeffs
    grid = TimeGrid(0.2, 0.05)
    if name == "membrane":
        solve, run = micro.solve_membrane, micro.MembraneRun(
            mesh=tiled, coeffs=coeffs, grid=grid, u0_bar=sin_product)
    else:
        solve, run = micro.solve_micro, micro.MicroRun(
            mesh=tiled, coeffs=coeffs, k=1.0, grid=grid, u0_bar=sin_product,
            source=_source)
    monkeypatch.setattr(micro, "cpus", lambda: threads)
    new = solve(run)
    monkeypatch.setattr(micro, "_march", former_march)
    old = solve(run)
    assert np.abs(old.levels[0]).max() > 0.0
    _assert_bitwise(new.levels, old.levels)
    for key in ("energy_bulk", "energy_surface"):
        _assert_bitwise(np.float64(new.diagnostics[key]),
                        np.float64(old.diagnostics[key]))


@pytest.mark.parametrize("name, eps", [("disk", 0.25), ("layered", 0.5),
                                       ("tube", 0.5), ("membrane", 1.0 / 3.0)])
def test_local_average_matches_centroid_average(request, name, eps):
    # each eps-cell is one tile now, weighted with the cell's volumes; the
    # largest gap measured over these cases was 2.5e-16 of max|u|
    mesh, surf = _cell(request, name)
    tiled, _ = tile_micro_domain(mesh, surf.facets, eps, True)
    levels = np.random.default_rng(3).standard_normal((3, len(tiled.vertices)))
    fld = macro.TransientField(levels=levels, grid=TimeGrid(0.1, 0.05))
    got = micro.local_average(fld, tiled).values
    ref = centroid_local_average(fld, tiled)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(levels).max()


# ---------------------------------------------------------------------------
# packed float64 blocks against the %.17g text rows
# ---------------------------------------------------------------------------

def _assert_bitwise(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_packed_block_matches_text_row_on_extreme_values():
    rng = np.random.default_rng(5)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1]
    spread = (rng.choice([-1.0, 1.0], 2000)
              * 10.0 ** rng.uniform(-320.0, 308.0, 2000))
    vals = np.concatenate([extremes, spread, rng.standard_normal(500)])
    packed = formats._unpack(formats._pack(vals), len(vals), "x")
    _assert_bitwise(packed, text_parse(text_row(vals)))
    _assert_bitwise(packed, vals)


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_cell_archive_fields_match_text_rows(request, tmp_path, name):
    b = request.getfixturevalue(name)
    arrays = [(key, getattr(b.funcs, key)) for key in cli._CELL_ARRAYS]
    path = str(tmp_path / "c.bhcell")
    formats.write_arrays(path, formats.CELL_ARCHIVE, {"config": "x"}, b.grid,
                         arrays)
    _, _, got = formats.read_arrays(path, formats.CELL_ARCHIVE)
    assert len(got) == len(arrays)
    for (name_w, vals), (name_r, back) in zip(arrays, got):
        assert name_w == name_r
        _assert_bitwise(back, text_parse(text_row(vals.ravel())).reshape(
            vals.shape))


# sha256 of the BHSOL 3 file written below; it changes only if the text
# around the block, the base64 alphabet or the byte order changes
GOLDEN_SOLUTION_SHA256 = (
    "99ebf71757e76118967fa35cb278dfe40288a47e9a73ca75770c3d0094118b02")


def test_solution_layout_pinned(tmp_path):
    # one double packs as its little-endian bytes: 1.0 is 00..00 f0 3f
    assert formats._pack([1.0]) == b"AAAAAAAA8D8="
    path = str(tmp_path / "s.bhsol")
    levels = np.array([[0.0, -0.0, 1.0, 5e-324],
                       [0.1, -2.5, 1.7976931348623157e308, 1.0 / 3.0],
                       [1e-300, -7.0, 2.0 ** 52, -1e300]])
    formats.write_arrays(path, formats.SOLUTION, {"config": "0" * 64},
                         TimeGrid(0.2, 0.1), [("macro", levels)])
    assert formats.file_sha256(path) == GOLDEN_SOLUTION_SHA256
    _, _, [(_, got)] = formats.read_arrays(path, formats.SOLUTION)
    _assert_bitwise(got, levels)


# ---------------------------------------------------------------------------
# BHMESH text I/O: block parsing and row templates against token loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CELLS)
def test_mesh_io_matches_token_loops(request, tmp_path, name):
    mesh, surf = _cell(request, name)
    header = {"config": "c" * 64, "geometry": "g" * 64}
    for tag, extra in (("full", (surf, mesh.periodic_pairs)), ("bare", ())):
        args = (header, mesh.vertices, mesh.simplices, mesh.phase) + extra
        new, old = str(tmp_path / f"{tag}.new"), str(tmp_path / f"{tag}.old")
        formats.write_mesh(new, *args)
        loop_write_mesh(old, *args)
        assert open(new, "rb").read() == open(old, "rb").read()
        _, got = formats.read_mesh(new)
        _, ref = loop_read_mesh(new)
        assert got.keys() == ref.keys()
        for key in ("vertices", "normals"):
            _assert_bitwise(got[key], ref[key])
        for key in ("simplices", "phase", "facets", "component", "pairs"):
            _assert_same(got[key], ref[key])


@pytest.mark.parametrize("name", CELLS)
def test_vtk_writer_matches_value_loop(request, tmp_path, name):
    mesh, _ = _cell(request, name)
    # negative zeros in the points and the values print as -0 on both sides
    V = np.where(mesh.vertices == 0.0, -0.0, mesh.vertices)
    rng = np.random.default_rng(7)
    values = (rng.standard_normal(len(V))
              * 10.0 ** rng.uniform(-300.0, 300.0, len(V)))
    values[::5] = -0.0
    values[1:3] = 5e-324, -1.7976931348623157e308
    for tag, extra in (("phase", {"cell_values": mesh.phase}), ("bare", {})):
        new, old = str(tmp_path / f"{tag}.new"), str(tmp_path / f"{tag}.old")
        formats.write_vtk(new, V, mesh.simplices, values, **extra)
        loop_write_vtk(old, V, mesh.simplices, values, **extra)
        assert open(new, "rb").read() == open(old, "rb").read()


# ---------------------------------------------------------------------------
# cell correctors: one block march against one march per trace
# ---------------------------------------------------------------------------

# The interface march solves the Steklov-Poincare system with a dense
# inverse where the column march solved the bulk system with SuperLU, so
# the two agree to roundoff, not bitwise.  The largest gaps measured,
# relative to max(max|X|, 1) (the correctors are O(1), and on the layered
# cell they vanish, where a relative gap would compare roundoff with
# roundoff), were 4.5e-14 on these fixtures (Disk2D) and 1.5e-13 on the
# Disk2D h = 0.014 cell of the cell_pipeline benchmark (6,060 dofs, 120
# interface dofs, 50 steps); energies agree to 2.0e-14 and 1.7e-13 of
# max(energy, alpha |Gamma|).
MARCH_RTOL = 1e-12


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_block_march_matches_column_march(request, name):
    b = request.getfixturevalue(name)
    sys = b.system
    traces = np.concatenate([b.funcs.v, -b.funcs.chi0[:, sys.gamma_dofs]])
    Y = cell.evolve_surface_coupled(sys, traces, b.grid)
    energy = cell.surface_energy(sys, Y)
    assert Y.shape == (len(traces), b.grid.n_steps + 1, len(sys.gamma_dofs))
    X = bulk_levels(sys, Y)
    # E is the identity on the interface dofs, so the bulk levels hold the
    # traces bit for bit there
    assert np.array_equal(X[..., sys.gamma_dofs], Y)
    for i, trace in enumerate(traces):
        X_ref, e_ref = column_march(sys, trace, b.grid)
        Y_one = cell.evolve_surface_coupled(sys, trace[None], b.grid)
        e_one = cell.surface_energy(sys, Y_one)
        scale = max(np.abs(X_ref).max(), 1.0)
        escale = max(e_ref.max(), b.coeffs.alpha * b.surf.area())
        for got, got_e in ((X[i], energy[i]),
                           (bulk_levels(sys, Y_one[0]), e_one[0])):
            assert np.abs(got - X_ref).max() <= MARCH_RTOL * scale
            assert np.abs(got_e - e_ref).max() <= MARCH_RTOL * escale


# B0 and Phi difference the levels in time, so they carry the march gap
# over dt.  The largest gaps measured, relative to max(max|ref|, 1e-12) (the
# floor of the library's own route cross-check; B0 and Phi are roundoff on
# the layered cell), were 1.0e-13 on these fixtures (Phi, Disk2D) and
# 1.0e-12 (B0) and 1.2e-12 (Phi) on the cell_pipeline cell.
KERNEL_RTOL = 1e-11


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_kernels_match_column_march_kernels(request, name):
    b = request.getfixturevalue(name)
    sys, N = b.system, b.system.dim
    traces = np.concatenate([b.funcs.v, -b.funcs.chi0[:, sys.gamma_dofs]])
    ref = np.stack([column_march(sys, t, b.grid)[0] for t in traces])
    forms = bulk_forms(sys)
    B0 = bulk_kernel_pair(sys, ref[:N], b.grid, forms)[0]
    Phi = bulk_kernel_pair(sys, ref[N:], b.grid, forms)[1]
    for got, want in ((b.tens.B0, B0), (b.tens.F_coeffs, Phi)):
        scale = max(np.abs(want).max(), 1e-12)
        assert np.abs(got - want).max() <= KERNEL_RTOL * scale


# ---------------------------------------------------------------------------
# chi0 and chi0_tilde: one interface form against the former solves
# ---------------------------------------------------------------------------

# The interface form extends every trace through the block solve of E and P
# and reduces chi0_tilde to the interface where the former solves extended
# per direction and factored the whole cell, so the two agree to roundoff.
# The largest gaps measured were 7.8e-16 of max|chi0| (Disk2D) and 1.3e-14
# of max|chi0_tilde| (TubeLattice3D); on the cell_pipeline benchmark cell
# they were 1.6e-15 and 1.2e-14.  chi0
# vanishes on the layered cell (its largest value is 7e-17), so the scale is
# floored at 0.01, about the size of a corrector that does not vanish.
CORRECTOR_RTOL = 1e-12

# B0 and Phi difference the levels in time, so they carry the corrector gap
# over dt.  The largest tensor gap measured, relative to max(max|T|, 1), was
# 6.3e-14 on these cells (B0, Disk2D) and 3.6e-13 on the cell_pipeline cell.
CORRECTOR_TENSOR_RTOL = 1e-11

_TOPOLOGY = {"disk": "cd", "layered": "cc", "tube": "cc"}


@pytest.fixture(scope="module", params=sorted(_TOPOLOGY))
def former(request):
    """The bundle, and the former chi0, flux residuals, chi0_tilde and the
    tensors of the function set built from them."""
    b = request.getfixturevalue(request.param)
    sys, N = b.system, b.system.dim
    chi0, residuals = former_solve_chi0(sys)
    tilde = former_solve_chi0_tilde(sys)
    v = cell.solve_v_init(sys, chi0)
    Y = cell.evolve_surface_coupled(
        sys, np.concatenate([v, -chi0[:, sys.gamma_dofs]]), b.grid)
    funcs = cell.CellFunctionSet(
        chi0=chi0, v=v, chi0_tilde=tilde, chi1=Y[:N], omega=Y[N:],
        W=b.funcs.W, grid=b.grid)
    return b, chi0, residuals, tilde, tensors.compute_all(
        sys, funcs, _TOPOLOGY[request.param])


def test_interface_form_matches_former_chi0_and_chi0_tilde(former):
    b, chi0, residuals, tilde, _ = former
    for got, ref in ((b.funcs.chi0, chi0), (b.funcs.chi0_tilde, tilde)):
        assert got.shape == ref.shape
        scale = max(np.abs(ref).max(), 0.01)
        assert np.abs(got - ref).max() <= CORRECTOR_RTOL * scale
    # both sets of flux residuals within the compatibility tolerance
    ours = cell.flux_residuals(b.system, b.funcs.chi0)
    assert ours.shape == residuals.shape
    for res in (ours, residuals):
        for i in range(b.surf.n_components):
            assert np.abs(res[i]).max() <= 1e-8 * b.surf.area(i)


def test_interface_form_tensors_match_former_fields(former):
    b, _, _, _, ref = former
    for field in dataclasses.fields(ref):
        want, got = getattr(ref, field.name), getattr(b.tens, field.name)
        if want is None:
            assert got is None, field.name
        elif field.name not in ("grid", "discrepancies"):
            scale = max(float(np.abs(want).max()), 1.0)
            assert (np.abs(np.asarray(got) - want).max()
                    <= CORRECTOR_TENSOR_RTOL * scale), field.name


# ---------------------------------------------------------------------------
# interface operators: Schur complements against the dense extension
# ---------------------------------------------------------------------------

def former_phase_solves(sys):
    """The former CellSystem.phase_solves: (E, P) from one block solve of
    g + N right-hand sides per phase factor, E (nd x g) the extensions of
    the unit traces on gamma_dofs."""
    g, N = len(sys.gamma_dofs), sys.dim
    E, P = np.zeros((sys.nd, g)), np.zeros((N, sys.nd))
    for sub in sys.sub.values():
        nf = len(sub.fixed)
        unit = np.zeros((nf, g + N))
        unit[np.arange(nf), np.searchsorted(sys.gamma_dofs,
                                            sub.dofs[sub.fixed])] = 1.0
        b = np.hstack([np.zeros((len(sub.dofs), g)), -sub.b_dir.T])
        x = sub.factor.solve(b, unit)
        E[sub.dofs], P[:, sub.dofs] = x[:, :g], x[:, g:].T
    return E, P


class FormerExtensionSystem(cell.CellSystem):
    """The cell system of the former route: Sigma = (K E)[Gamma], E^T w and
    b_dir E read off the dense E, and extend a product with it."""

    @functools.cached_property
    def interface_operators(self):
        self.E, P = former_phase_solves(self)
        return (self.K[self.gamma_dofs] @ self.E, P, self.E.T @ self.vol_w,
                self.b_dir @ self.E)

    def extend(self, Y):
        return self.E @ Y


# The block solve and the Schur factor reach Sigma by different roundoff,
# and the march and kernels carry the gap.  The largest gaps measured,
# relative to max(max|ref|, 0.01) (the correctors vanish on the layered
# cell, as for CORRECTOR_RTOL), were 1.5e-15 for the operators (Ew,
# Disk2D) and 8.0e-15 for the cell arrays (omega, Disk2D) on these
# fixtures; on the cell_pipeline benchmark cell they were 2.1e-15 and
# 3.7e-14.
EXTENSION_RTOL = 1e-12


@pytest.mark.parametrize("name", ["disk", "layered", "thin_layer", "tube"])
def test_interface_operators_match_former_extension(request, name):
    b = request.getfixturevalue(name)
    sys = b.system
    old = FormerExtensionSystem(b.mesh, b.surf, b.coeffs)
    gam = sys.gamma_dofs
    Y = np.random.default_rng(2).standard_normal((len(gam), 3))
    pairs = list(zip(sys.interface_operators, old.interface_operators))
    pairs.append((sys.extend(Y), old.extend(Y)))
    funcs = cell.solve_cell_functions(old, b.grid)
    pairs += [(getattr(b.funcs, f), getattr(funcs, f)) for f in
              ("chi0", "v", "chi0_tilde", "chi1", "omega", "W")]
    for got, ref in pairs:
        assert got.shape == ref.shape
        scale = max(float(np.abs(ref).max()), 0.01)
        assert np.abs(got - ref).max() <= EXTENSION_RTOL * scale
    assert np.array_equal(sys.extend(Y)[gam], Y)


# ---------------------------------------------------------------------------
# mean-zero solves: one pinned dof against the bordered system
# ---------------------------------------------------------------------------

# The pinned factor solves another (smaller) sparse system than the bordered
# one and restores the mean afterwards, so the two agree to roundoff, not
# bitwise.  The largest gap measured on these cases was 2.8e-14 of max|x|
# (the whole tube cell K); on the components' S1 it was at most 4.7e-15.
WEIGHTED_RTOL = 1e-12


def _weighted_systems(sys):
    yield sys.K, sys.vol_w, -sys.b_dir.T
    for dofs, w in zip(sys.comp_dofs, sys.comp_w):
        yield cell._restrict(sys.S1, dofs), w[dofs], None


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_weighted_factor_matches_bordered_system(request, name):
    sys = request.getfixturevalue(name).system
    rng = np.random.default_rng(3)
    for K, w, loads in _weighted_systems(sys):
        B = rng.standard_normal((K.shape[0], 3))
        B -= np.outer(w, B.sum(axis=0) / w.sum())   # compatible loads
        if loads is not None:
            B = np.hstack([B, loads])
        got = fem.DirichletFactor(K, weights=w).solve(B)
        ref = BorderedFactor(K, w).solve(B)
        assert np.abs(got - ref).max() <= WEIGHTED_RTOL * np.abs(ref).max()


# ---------------------------------------------------------------------------
# macro memory march: the history products against the level loop
# ---------------------------------------------------------------------------

# The history products and the recombined loads sum in another order than
# the loop and the per-step scatter, and the step matrix is K_M of the
# combined step tensor, factored with a minimum-degree ordering and partial
# pivoting, so the levels agree to roundoff.  The largest gap measured over
# the n = 10 cases was 1.3e-14 of max|U| (4.4e-16 while both sides used the
# symmetric-mode factor), and 1.4e-13 at the benchmark size; where the data
# are all zero both marches give exact zeros.
MACRO_RTOL = 1e-12


def _macro_case(regime, u0, phi, source, n=10, grid=TimeGrid(0.6, 0.02),
                kernel=TimeGrid(1.0, 0.05)):
    mesh = macro.build_macro_mesh(n, 2)
    decay = np.exp(-kernel.times)[:, None, None]
    w = sin_product(mesh.vertices)
    return macro.MacroProblem(
        mesh=mesh, regime=regime, grid=grid, lambda0=2.0,
        A0=np.array([[0.5, 0.1], [0.1, 0.4]]), C0=0.3 * np.eye(2),
        B0=decay * np.array([[2.0, 0.3], [0.3, 1.5]]), kernel_grid=kernel,
        F_coeffs=decay ** 2 * np.array([[1.0, 0.2], [-0.1, 0.7]]) if phi else None,
        u0_bar=w if u0 else None, source=_source if source else None,
        topology="cc" if regime == "k1_connected_connected" else "cd")


@pytest.mark.parametrize("regime, u0", [("k1_connected_connected", True),
                                        ("k1_connected_disconnected", True),
                                        ("k1_connected_disconnected", False)],
                         ids=["cc", "cd-u0", "cd"])
@pytest.mark.parametrize("phi", [True, False], ids=["phi", "no-phi"])
@pytest.mark.parametrize("source", [True, False], ids=["f", "no-f"])
def test_memory_history_contraction_matches_loop(regime, u0, phi, source):
    problem = _macro_case(regime, u0, phi, source)
    got = macro.solve_homogenized_memory(problem).levels
    ref = loop_memory_march(problem)
    assert np.abs(got - ref).max() <= MACRO_RTOL * np.abs(ref).max()


@pytest.mark.parametrize("regime", ["k1_connected_connected",
                                    "k1_connected_disconnected"],
                         ids=["cc", "cd"])
def test_memory_march_matches_loop_at_benchmark_size(regime):
    # the macro grid and kernel grid of the cell_pipeline benchmark: n = 48,
    # 100 steps of 0.01, a full anisotropic B0 and Phi, u0 and f
    problem = _macro_case(regime, True, True, True, n=48,
                          grid=TimeGrid(1.0, 0.01), kernel=TimeGrid(1.0, 0.02))
    got = macro.solve_homogenized_memory(problem).levels
    ref = loop_memory_march(problem)
    assert np.abs(got - ref).max() <= MACRO_RTOL * np.abs(ref).max()


@pytest.mark.parametrize("regime", ["klt1", "kgt1"])
def test_elliptic_one_solve_matches_level_loop(regime):
    # the load is the same at every level, so one solve fills them all
    m = macro.build_macro_mesh(10, 2)
    problem = macro.MacroProblem(
        mesh=m, regime=regime, grid=TimeGrid(0.6, 0.2), source=_source,
        A_elliptic=np.array([[2.0, 0.3], [0.3, 1.0]]), topology="cd")
    levels = macro.solve_homogenized_elliptic(problem).levels
    assert np.abs(levels).max() > 0.0
    _assert_bitwise(levels, loop_elliptic(problem))


# ---------------------------------------------------------------------------
# structured grids: Kuhn tetrahedra and macro meshes against the cube loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_kuhn_tetrahedra_match_loop(n):
    got = geometry.kuhn_tetrahedra(n)
    ref = loop_kuhn_tetrahedra(n)
    assert got.dtype == ref.dtype == np.int64
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", range(4, 11))
def test_kuhn_tetrahedra_ids_increase_along_each_tet(n):
    # the tube cut's case table compares ids by their local labels
    assert np.all(np.diff(geometry.kuhn_tetrahedra(n), axis=1) > 0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_macro_grid_matches_loop(n, dim):
    mesh = macro.build_macro_mesh(n, dim)
    vertices, simplices = loop_macro_grid(n, dim)
    _assert_bitwise(mesh.vertices, vertices)
    assert mesh.simplices.dtype == np.int64
    assert np.array_equal(mesh.simplices, simplices)


# sha256 of the BHMESH files of two tube cells, as the former loops over
# cubes, tet edges and cut edges built them (h = 0.1667 is tube_klt1's)
GOLDEN_TUBE_MESH_SHA256 = {
    0.25: "7aee30addd6b19b7468f28246b604cb629a9a95bcf240f9bfbf412a044f1b82e",
    0.1667: "a3cb119d8878a90db7393981e3f903eb11cbfcc4f107738b412d1a6af77f49a1",
}


# sha256 of the BHMESH files of 2D cells, as the former octant tables,
# per-triangle loops and dict matcher built them: disk_default's cell
# (h = 0.04), cell_pipeline's (h = 0.014), a membrane cell (eta = 0.1) and
# layered_kgt1's cell
GOLDEN_2D_MESH_SHA256 = {
    ("Disk2D", 0.04, None):
        "d96423a6a1b7dddd0c726e78c2606051df4cb8f3247de81d4c1b942c87519ed4",
    ("Disk2D", 0.014, None):
        "77e5e16e7a605717f141617f1f566872877db2e47614bd9ea82c8522b4720dc1",
    ("Disk2D", 0.04, 0.1):
        "deb58b7b16d769d2faf2f2fe7bc352c27e31e440efbfa7aa89a96dce45d38c39",
    ("Layered2D", 0.05, None):
        "fa78e73f400604cb819a0ef7e383571d2e4d2b56fbc5838e2dc8ce3ecc9acdda",
}
_GOLDEN_PARAMS = {"Disk2D": {"r0": 0.25}, "Layered2D": {"a": 0.25, "b": 0.75},
                  "TubeLattice3D": {"rho": 0.25}}


def _cell_mesh_sha256(tmp_path, kind, h, eta=None):
    spec = geometry.GeometrySpec(kind, _GOLDEN_PARAMS[kind], h=h)
    mesh, surf = (geometry.build_unit_cell(spec) if eta is None
                  else build_membrane_cell(spec, eta))
    path = str(tmp_path / "cell.bhmesh")
    formats.write_mesh(path, {"config": "0" * 64}, mesh.vertices,
                       mesh.simplices, mesh.phase, surf, mesh.periodic_pairs)
    return formats.file_sha256(path)


@pytest.mark.parametrize("h", sorted(GOLDEN_TUBE_MESH_SHA256))
def test_tube_cell_mesh_pinned(tmp_path, h):
    assert (_cell_mesh_sha256(tmp_path, "TubeLattice3D", h)
            == GOLDEN_TUBE_MESH_SHA256[h])


@pytest.mark.parametrize("kind, h, eta", list(GOLDEN_2D_MESH_SHA256))
def test_2d_cell_mesh_pinned(tmp_path, kind, h, eta):
    assert (_cell_mesh_sha256(tmp_path, kind, h, eta)
            == GOLDEN_2D_MESH_SHA256[kind, h, eta])


# ---------------------------------------------------------------------------
# tensor volume routes and Phi loads: assembled operators against the
# element-gradient routes
# ---------------------------------------------------------------------------

# The products with K, b_dir and the component matrices sum in another order
# than the element contractions.  Gaps are measured against
# max(max|old|, 1e-12), the floor compute_B0 uses.
TENSOR_RTOL = 1e-12


def _assert_close(got, ref, rtol=TENSOR_RTOL):
    scale = max(float(np.abs(ref).max()), 1e-12)
    assert np.abs(np.asarray(got) - ref).max() <= rtol * scale


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_kernel_pair_matches_level_loop(request, name):
    b = request.getfixturevalue(name)
    sys = b.system
    forms, bulk = tensors._SurfaceForms(sys), bulk_forms(sys)
    for history in (b.funcs.chi1, b.funcs.omega):
        got = tensors._kernel_pair(sys, history, b.funcs.W, b.grid, forms)
        ref = loop_kernel_pair(sys, bulk_levels(sys, history), b.grid, bulk)
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            _assert_close(g, r)


# The trace routes read the same facet values as the bulk routes did, so
# the flux routes are bitwise equal.  The volume route Y W^T sums in another
# order than X b_dir^T; the largest gap measured, relative to
# max(max|ref|, 1e-12), was 1.6e-16 on these fixtures and 1.9e-16 on the
# cell_pipeline benchmark cell (Disk2D h = 0.014, seed 11 coefficients).
TRACE_RTOL = 1e-12


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_kernel_routes_match_bulk_routes(request, name):
    b = request.getfixturevalue(name)
    sys = b.system
    forms, bulk = tensors._SurfaceForms(sys), bulk_forms(sys)
    for history in (b.funcs.chi1, b.funcs.omega):
        vol, flux = tensors._kernel_pair(sys, history, b.funcs.W, b.grid,
                                         forms)
        ref_vol, ref_flux = bulk_kernel_pair(sys, bulk_levels(sys, history),
                                             b.grid, bulk)
        _assert_bitwise(flux, ref_flux)
        _assert_close(vol, ref_vol, TRACE_RTOL)


def bulk_tensors(sys, funcs, grid, topology):
    """Every field of compute_all along the former bulk path: v scattered
    onto the interface dofs, chi1 and omega extended as E Y, the surface
    forms reading bulk fields and the element-gradient volume routes."""
    forms = bulk_forms(sys)
    A0, A0_flux, _ = element_A0(sys, funcs.chi0, bulk_v(sys, funcs.v), forms)
    C0, C0_mixed = bulk_C0(sys, funcs.chi0, forms)
    B0, B0_flux = bulk_kernel_pair(sys, bulk_levels(sys, funcs.chi1), grid,
                                   forms)
    Phi = bulk_kernel_pair(sys, bulk_levels(sys, funcs.omega), grid, forms)[1]
    klt1 = element_klt1(sys, funcs.chi0)[0] if topology == "cd" else None
    return {"lambda0": tensors.compute_lambda0(sys.mesh, sys.coeffs),
            "A0": A0, "A0_flux_form": A0_flux, "C0": C0,
            "C0_mixed_form": C0_mixed, "B0": B0, "B0_flux_form": B0_flux,
            "F_coeffs": Phi, "A_hom_kgt1": element_kgt1(sys, funcs.chi0_tilde)[0],
            "A_hom_klt1": klt1}


# Every tensor, relative to max(max|T|, 1): the largest gap measured was
# 3.7e-15 on these fixtures and 6.8e-15 on the cell_pipeline cell, both in
# A_hom_kgt1, whose element-gradient oracle sums in another order.
@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_trace_tensors_match_bulk_path(request, name):
    b = request.getfixturevalue(name)
    ref = bulk_tensors(b.system, b.funcs, b.grid, _TOPOLOGY[name])
    fields = {f.name for f in dataclasses.fields(b.tens)}
    assert fields - set(ref) == {"grid", "discrepancies"}
    for key, want in ref.items():
        got = getattr(b.tens, key)
        if want is None:
            assert got is None, key
            continue
        scale = max(float(np.abs(want).max()), 1.0)
        assert np.abs(np.asarray(got) - want).max() <= TRACE_RTOL * scale, key


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_tensor_volume_routes_match_element_gradients(request, name):
    b = request.getfixturevalue(name)
    sys, funcs, t = b.system, b.funcs, b.tens
    forms = tensors._SurfaceForms(sys)
    bulk = bulk_forms(sys)
    A_vol, A_flux, _ = element_A0(sys, funcs.chi0, bulk_v(sys, funcs.v), bulk)
    B_vol, B_flux = loop_kernel_pair(sys, bulk_levels(sys, funcs.chi1),
                                     b.grid, bulk)
    P_vol, P_flux = loop_kernel_pair(sys, bulk_levels(sys, funcs.omega),
                                     b.grid, bulk)
    direct, _ = element_kgt1(sys, funcs.chi0_tilde)
    pairs = [(t.A0, A_vol), (t.A0_flux_form, A_flux),
             (t.B0, B_vol), (t.B0_flux_form, B_flux), (t.F_coeffs, P_flux),
             (t.A_hom_kgt1, direct)]
    if name == "disk":
        klt1, _ = element_klt1(sys, funcs.chi0)
        pairs.append((t.A_hom_klt1, klt1))
    else:
        assert t.A_hom_klt1 is None
    for got, ref in pairs:
        _assert_close(got, ref)


@pytest.mark.parametrize("name", ["disk", "layered", "tube"])
def test_second_routes_match_element_gradients(request, name):
    b = request.getfixturevalue(name)
    sys, funcs = b.system, b.funcs
    bulk = bulk_forms(sys)
    _, _, gram, _ = tensors.compute_A0(sys, funcs.chi0, funcs.v)
    _assert_close(gram, element_A0(sys, funcs.chi0, bulk_v(sys, funcs.v),
                                   bulk)[2])
    _, P_vol, _ = tensors.compute_F_coeffs(sys, funcs.omega, funcs.W, b.grid)
    _assert_close(P_vol, loop_kernel_pair(sys, bulk_levels(sys, funcs.omega),
                                          b.grid, bulk)[0])
    direct, gram, _ = tensors.compute_Ahom_kgt1(sys, funcs.chi0_tilde)
    ref_direct, ref_gram = element_kgt1(sys, funcs.chi0_tilde)
    _assert_close(direct, ref_direct)
    _assert_close(gram, ref_gram)
    if name == "disk":
        gram, split, _ = tensors.compute_Ahom_klt1(sys, funcs.chi0)
        ref_gram, ref_split = element_klt1(sys, funcs.chi0)
        _assert_close(gram, ref_gram)
        _assert_close(split, ref_split)


@pytest.mark.parametrize("n, dim", [(10, 2), (4, 3)])
def test_phi_loads_match_gradient_loads(n, dim):
    mesh = macro.build_macro_mesh(n, dim)
    u0 = sin_product(mesh.vertices)
    got = macro._phi_loads(mesh, u0)
    ref = gradient_load_phi(mesh, u0)
    assert got.shape == ref.shape == (dim * dim, len(mesh.vertices))
    _assert_close(got, ref)
