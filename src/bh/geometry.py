"""Periodic unit cell meshes with interface-fitted simplicial grids.

Three geometry families on the unit cell (0,1)^N:

* Disk2D          circular inclusion of radius r0, disconnected inclusions
* Layered2D       horizontal strip a < y2 < b, both phases connected
* TubeLattice3D   three axis-aligned cylinders of radius rho, both connected

The inclusion phase is E_int, the matrix phase E_out, and the interface
carries unit normals oriented from E_int into E_out.  Meshes are fitted:
every element lies in exactly one phase and the interface is a union of
element facets.

Vertices on opposite faces of the cell are paired exactly: for each
periodic pair (p, q, axis) the coordinates satisfy
vertex[q] - vertex[p] == e_axis with no floating point slack.  The mesh
generators are written so that this holds bitwise (boundary coordinates
are produced once and reused, never recomputed through trigonometry on
both sides).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InvalidGeometry, MeshFailure, NonIntegerTiling

PHASE_INT = 0
PHASE_OUT = 1
PHASE_MEMBRANE = 2

# precedence used to orient interface normals, indexed by phase: inner side
# listed first (int -> membrane -> out)
_PHASE_RANK = np.empty(3, dtype=np.int64)
_PHASE_RANK[[PHASE_INT, PHASE_MEMBRANE, PHASE_OUT]] = [0, 1, 2]

# each kind with the names of its parameters
KINDS = {"Disk2D": ("r0",), "Layered2D": ("a", "b"), "TubeLattice3D": ("rho",)}


# ---------------------------------------------------------------------------
# specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometrySpec:
    """Declarative description of a unit cell geometry."""

    kind: str
    params: dict = field(default_factory=dict)
    h: float = 0.05

    @property
    def dim(self) -> int:
        return 3 if self.kind == "TubeLattice3D" else 2

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise InvalidGeometry(f"unknown geometry kind {self.kind!r}")
        if not (0.0 < self.h <= 0.25):
            raise InvalidGeometry(f"mesh size h={self.h} outside (0, 0.25]")
        if self.kind == "Disk2D":
            r0 = self.params.get("r0")
            if r0 is None or not (0.0 < r0 < 0.5):
                raise InvalidGeometry(
                    f"Disk2D needs 0 < r0 < 0.5 (inclusion strictly inside the cell), got {r0}")
        elif self.kind == "Layered2D":
            a = self.params.get("a")
            b = self.params.get("b")
            if a is None or b is None or not (0.0 < a < b < 1.0):
                raise InvalidGeometry(f"Layered2D needs 0 < a < b < 1, got a={a} b={b}")
        elif self.kind == "TubeLattice3D":
            rho = self.params.get("rho")
            if rho is None or not (0.0 < rho < 0.5):
                raise InvalidGeometry(f"TubeLattice3D needs 0 < rho < 0.5, got {rho}")

    @property
    def topology(self) -> str:
        """'cd' if inclusions are disconnected, 'cc' if both phases connect."""
        return "cd" if self.kind == "Disk2D" else "cc"

    def membrane_band(self, eta: float):
        """The radii r0 -+ eta/2 of a membrane band of width eta around the
        Disk2D interface; raises InvalidGeometry unless 0 < eta <= 0.2 and
        the band stays inside the cell."""
        if self.kind != "Disk2D":
            raise InvalidGeometry("membrane cells are only defined for Disk2D")
        if not (0.0 < eta <= 0.2):
            raise InvalidGeometry(f"membrane width eta={eta} outside (0, 0.2]")
        r0 = self.params["r0"]
        r_in, r_ex = r0 - eta / 2.0, r0 + eta / 2.0
        if r_in <= 0.0 or r_ex >= 0.5:
            raise InvalidGeometry(f"membrane band of width eta={eta} around "
                                  f"r0={r0} leaves the unit cell")
        return r_in, r_ex


# ---------------------------------------------------------------------------
# mesh containers
# ---------------------------------------------------------------------------

@dataclass
class CellMesh:
    """Fitted simplicial mesh of the periodic unit cell."""

    vertices: np.ndarray        # (nv, N) float
    simplices: np.ndarray       # (ne, N+1) int
    phase: np.ndarray           # (ne,) int
    periodic_pairs: np.ndarray  # (npair, 3) int rows (low, high, axis)
    vols: np.ndarray            # (ne,) signed, read-only: meshes never change

    def __post_init__(self):
        self.vols.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def phase_volume(self, phase: int) -> float:
        return float(self.vols[self.phase == phase].sum())

    @cached_property
    def phase_stiffness(self):
        """(rows, cols, data): data[p] is the unit stiffness of phase p (0,
        1, 2), zero off p, on the pattern that all three share."""
        from . import fem   # fem imports this module
        V, S, nv = self.vertices, self.simplices, len(self.vertices)
        geom = fem.element_gradients(V, S, self.vols)
        A = [fem.assemble_stiffness(geom, S, self.phase == ph, np.arange(nv),
                                    nv, allow_zero=True).tocoo()
             for ph in range(3)]
        out = A[0].row, A[0].col, np.stack([a.data for a in A])
        for vals in out:
            vals.flags.writeable = False
        return out


@dataclass
class MembraneMesh(CellMesh):
    """Unit cell with a thick membrane band of width eta replacing the interface."""

    eta: float = 0.0


@dataclass
class SurfaceMesh:
    """Interface triangulation with normals, component labels and adjacency."""

    facets: np.ndarray     # (nf, N) int vertex indices
    normals: np.ndarray    # (nf, N) float unit normals, inner phase -> outer
    component: np.ndarray  # (nf,) int in 0..m-1
    measures: np.ndarray   # (nf,) float facet measures
    adjacency: np.ndarray  # (nf, 2) int (element on inner side, element on outer side)

    @property
    def n_components(self) -> int:
        return int(self.component.max()) + 1 if len(self.component) else 0

    def area(self, component=None) -> float:
        if component is None:
            return float(self.measures.sum())
        return float(self.measures[self.component == component].sum())


@dataclass
class MicroMesh:
    """eps-periodic tiling of a unit cell mesh over the fixed domain (0,1)^N,
    carrying the interface between its phases.  Tile t, the eps-cell
    unravel(t), is a copy of cell scaled by eps (its element geometry is the
    cell's) with vertices local_global[t]; the simplices are listed tile by
    tile, each in cell order.  A stripped tile's inclusion is matrix."""

    vertices: np.ndarray
    simplices: np.ndarray
    phase: np.ndarray
    eps: float
    boundary_vertices: np.ndarray  # indices of vertices on the outer boundary
    interface: np.ndarray          # (nf, N) int facets between the phases
    local_global: np.ndarray       # (tiles, cell vertices) int vertex ids
    cell: CellMesh                 # the tiled unit cell
    stripped: np.ndarray           # (tiles,) bool

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def eta(self) -> float:   # nonzero for tiled membrane cells
        return getattr(self.cell, "eta", 0.0)

    def volumes(self) -> np.ndarray:
        return np.tile(self.cell.vols, len(self.local_global)) \
            * self.eps ** self.dim

    @cached_property
    def substructure(self):   # fem.SubstructuredFactor's, once per tiling
        return _substructure(self.local_global)


def _substructure(tiles):
    """(tiles, interior and ring cell vertices, skeleton, ring positions):
    an interior vertex's dof no other tile shares; the skeleton is sorted."""
    shared = np.bincount(tiles.ravel())[tiles] > 1
    ring = np.flatnonzero(shared.any(axis=0))
    skeleton, pos = np.unique(tiles[:, ring], return_inverse=True)
    return (tiles, np.flatnonzero(~shared.any(axis=0)), ring, skeleton,
            pos.reshape(len(tiles), len(ring)))


# ---------------------------------------------------------------------------
# generic simplex helpers
# ---------------------------------------------------------------------------

def simplex_volumes(vertices: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Signed volumes of simplices, det(edges) / N!: positive on the meshes
    the builders make, whose orientation _fix_orientation fixes."""
    p0 = vertices[simplices[:, 0]]
    edges = vertices[simplices[:, 1:]] - p0[:, None, :]
    n = vertices.shape[1]
    det = np.linalg.det(edges)
    fact = {1: 1.0, 2: 2.0, 3: 6.0}[n]
    return det / fact


def _fix_orientation(vertices, simplices):
    """The simplices, each positively oriented, and their volumes, a flipped
    one's recomputed: it need not be the negated determinant bit for bit."""
    vols = simplex_volumes(vertices, simplices)
    flip = vols < 0
    if np.any(flip):
        simplices = simplices.copy()
        simplices[flip, :2] = simplices[flip, 1::-1]
        vols[flip] = simplex_volumes(vertices, simplices[flip])
    return simplices, vols


def facet_measures(vertices: np.ndarray, facets: np.ndarray) -> np.ndarray:
    pts = vertices[facets]
    if facets.shape[1] == 2:
        return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)


def _components(n, a, b):
    """Connected components of the undirected graph on n nodes with edges
    (a[i], b[i]); labels are numbered in order of each component's
    smallest node."""
    graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)[1].astype(np.int64)


def periodic_classes(n_vertices: int, periodic_pairs: np.ndarray) -> np.ndarray:
    """Label of each vertex's periodic class, numbered by smallest member."""
    pairs = np.asarray(periodic_pairs, dtype=np.int64).reshape(-1, 3)
    return _components(n_vertices, pairs[:, 0], pairs[:, 1])


def extract_interface(vertices, simplices, phase, periodic_pairs):
    """Build the SurfaceMesh separating distinct phases of a fitted mesh.

    Facets are oriented from the lower-rank phase into the higher-rank one
    (int -> membrane -> out) and listed in lexicographic order of their
    sorted vertex ids.  Components are labelled by facet connectivity
    through shared ridges, in order of their first facet; ridges are
    matched modulo the periodic identification so that wrapping interfaces
    come out as single components.
    """
    simplices = np.asarray(simplices, dtype=np.int64)
    ne, npv = simplices.shape
    nfv = npv - 1  # vertices per facet

    # facet k of element e omits local vertex k; row e * npv + k
    drop = np.array([[j for j in range(npv) if j != k] for k in range(npv)])
    all_facets = np.sort(simplices[:, drop], axis=2).reshape(-1, nfv)
    order = np.lexsort(all_facets.T[::-1])
    sorted_facets = all_facets[order]
    same = np.all(sorted_facets[1:] == sorted_facets[:-1], axis=1)
    # facets shared by exactly two elements: rows equal to the next row only
    padded = np.concatenate(([False], same, [False]))
    first = np.flatnonzero(same & ~padded[:-2] & ~padded[2:])
    e0 = order[first] // npv      # stable sort: e0 < e1
    e1 = order[first + 1] // npv
    keep = phase[e0] != phase[e1]
    first, e0, e1 = first[keep], e0[keep], e1[keep]
    if not len(first):
        raise MeshFailure("no interface facets found between phases")
    facets = sorted_facets[first]
    inner_first = _PHASE_RANK[phase[e0]] < _PHASE_RANK[phase[e1]]
    inner = np.where(inner_first, e0, e1)
    outer = np.where(inner_first, e1, e0)

    measures = facet_measures(vertices, facets)
    if np.any(measures < 1e-14):
        raise MeshFailure("degenerate interface facet produced by mesh generator")

    # unit normals oriented by the centroid offset inner -> outer
    nrm = _facet_normals(vertices, facets)
    c_in = vertices[simplices[inner]].mean(axis=1)
    c_out = vertices[simplices[outer]].mean(axis=1)
    sign = np.sign(np.einsum("ij,ij->i", nrm, c_out - c_in))
    if np.any(sign == 0):
        raise MeshFailure("cannot orient an interface facet")
    nrm *= sign[:, None]

    # component labelling: facets joined through shared ridges, with ridge
    # vertices compared modulo periodicity (a facet-ridge incidence graph)
    nv = vertices.shape[0]
    cf = np.sort(periodic_classes(nv, periodic_pairs)[facets], axis=1)
    if nfv == 2:
        ridges = cf
    else:
        ridges = np.column_stack([cf[:, 0] * nv + cf[:, 1],
                                  cf[:, 0] * nv + cf[:, 2],
                                  cf[:, 1] * nv + cf[:, 2]])
    _, ridge_id = np.unique(ridges.ravel(), return_inverse=True)
    nf = len(facets)
    comp = _components(nf + int(ridge_id.max()) + 1,
                       np.repeat(np.arange(nf), ridges.shape[1]),
                       nf + ridge_id.ravel())[:nf]

    return SurfaceMesh(facets=facets, normals=nrm, component=comp,
                       measures=measures, adjacency=np.column_stack([inner, outer]))


def _facet_normals(vertices, facets):
    pts = vertices[facets]
    if facets.shape[1] == 2:
        t = pts[:, 1] - pts[:, 0]
        n = np.column_stack([t[:, 1], -t[:, 0]])
    else:
        n = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    return n / np.linalg.norm(n, axis=1)[:, None]


# ---------------------------------------------------------------------------
# Disk2D and membrane cells: polar O-grid
# ---------------------------------------------------------------------------

# the square's eight symmetries, octant by octant counterclockwise from the
# positive x axis: whether the octant walks the base table backwards,
# whether it swaps the two coordinates, and the signs of x and y
_OCTANTS = np.array([(0, 0, 1, 1), (1, 1, 1, 1), (0, 1, -1, 1), (1, 0, -1, 1),
                     (0, 0, -1, -1), (1, 1, -1, -1), (0, 1, 1, -1),
                     (1, 0, 1, -1)])


def _octant_images(base, n_theta):
    """The n_theta images of a first-octant table base, (q + 1, 2) points
    for q = n_theta / 8, under the dihedral symmetries of the square: entry
    r of octant o is base[r] (or base[q - r]) swapped and signed as
    _OCTANTS says, so every image is an exact copy of a base value."""
    q = n_theta // 8
    backwards, swap = _OCTANTS[:, :2].T == 1
    r = np.arange(q)
    pts = base[np.where(backwards[:, None], q - r, r)]      # (8, q, 2)
    pts = np.where(swap[:, None, None], pts[..., ::-1], pts)
    return (pts * _OCTANTS[:, None, 2:].astype(float)).reshape(n_theta, 2)


def _rays(n_theta):
    """Unit directions of an n_theta fan (n_theta a multiple of 8) and the
    points where the rays from the cell centre hit the unit square.  Both
    are images of one first-octant table, so they are exactly invariant
    under the square's symmetries and opposite edges carry bitwise
    identical coordinates."""
    q = n_theta // 8
    angles = 2.0 * np.pi * np.arange(q + 1) / n_theta
    fan = np.column_stack([np.cos(angles), np.sin(angles)])
    fan[0] = (1.0, 0.0)
    fan[q] = np.sqrt(0.5)
    offsets = 0.5 * np.tan(angles)
    offsets[0], offsets[q] = 0.0, 0.5
    hits = np.column_stack([np.full(q + 1, 0.5), offsets])
    return _octant_images(fan, n_theta), 0.5 + _octant_images(hits, n_theta)


def _split_quads(a, b, c, d, diagonal_ad):
    """Two triangles per quad with corners a, b, d, c in cyclic order, cut
    along a-d where diagonal_ad holds and along b-c elsewhere; rows run
    quad by quad."""
    cut = diagonal_ad[..., None]
    first = np.where(cut, np.stack([a, b, d], axis=-1),
                     np.stack([a, b, c], axis=-1))
    second = np.where(cut, np.stack([a, d, c], axis=-1),
                      np.stack([b, d, c], axis=-1))
    return np.stack([first, second], axis=-2).reshape(-1, 3)


def _polar_cell_mesh(radii, zone_phase, h):
    """O-grid mesh of the unit cell around concentric circles.

    radii: increasing interior ring radii (first zone is the centre fan),
    zone_phase: phase of each radial zone, len(radii) zones for the rings
    plus one more for everything outside radii[-1].
    """
    r_out = radii[-1]
    n_theta = 8 * max(2, int(np.ceil(2.0 * np.pi * r_out / (8.0 * h))))
    dirs, bpts = _rays(n_theta)

    ring_radii = []
    ring_phase = []   # phase of the zone between ring k-1 and ring k
    prev = 0.0
    for r, ph in zip(radii, zone_phase[:-1]):
        nseg = max(1, int(round((r - prev) / h)))
        for s in range(1, nseg + 1):
            ring_radii.append(prev + (r - prev) * s / nseg)
            ring_phase.append(ph)
        # snap the zone boundary ring to the exact radius
        ring_radii[-1] = r
        prev = r

    # outer shells: interpolate between the outermost circle and the square
    n_shell = max(2, int(np.ceil((0.5 * np.sqrt(2.0) - r_out) / h)))
    ring_phase += [zone_phase[-1]] * n_shell

    verts = [np.array([[0.5, 0.5]])]
    for r in ring_radii:
        verts.append(np.array([0.5, 0.5]) + r * dirs)
    circle = verts[-1]
    for s in range(1, n_shell):
        verts.append(circle + s / n_shell * (bpts - circle))
    verts.append(bpts)
    vertices = np.vstack(verts)

    # ring k (k >= 1) holds vertices 1 + (k - 1) n_theta + i; a centre fan,
    # then two triangles per cell between consecutive rings
    i = np.arange(n_theta)
    step = (i + 1) % n_theta
    ring = 1 + n_theta * np.arange(len(ring_phase))[:, None]
    fan_tris = np.column_stack([np.zeros(n_theta, dtype=np.int64), 1 + i,
                                1 + step])
    quad_tris = _split_quads(ring[:-1] + i, ring[:-1] + step, ring[1:] + i,
                             ring[1:] + step, i % 2 == 0)
    simplices, vols = _fix_orientation(vertices,
                                       np.vstack([fan_tris, quad_tris]))
    phase = np.concatenate([np.full(n_theta, ring_phase[0]),
                            np.repeat(ring_phase[1:], 2 * n_theta)]
                           ).astype(np.int64)
    return CellMesh(vertices=vertices, simplices=simplices, phase=phase,
                    periodic_pairs=_match_boundary_pairs(vertices), vols=vols)


def _match_boundary_pairs(vertices):
    """Periodic pairs (low, high, axis), sorted: every vertex on a high face
    x_axis = 1 pairs with the last vertex of the low face x_axis = 0 whose
    other coordinates equal its own exactly."""
    pairs = []
    for axis in range(vertices.shape[1]):
        low = np.flatnonzero(vertices[:, axis] == 0.0)
        high = np.flatnonzero(vertices[:, axis] == 1.0)
        ids = np.concatenate([low, high])
        rest = np.delete(vertices[ids], axis, axis=1)
        # stable sort on the other coordinates: equal points sit together,
        # the low face first, each face in vertex order
        order = np.lexsort(rest.T[::-1])
        rest, ids = rest[order], ids[order]
        group = np.cumsum(np.concatenate(
            ([True], np.any(rest[1:] != rest[:-1], axis=1))))
        is_low = order < len(low)
        last_low = np.maximum.accumulate(
            np.where(is_low, np.arange(len(ids)), -1))
        hi = np.flatnonzero(~is_low)
        partner = last_low[hi]
        lost = (partner < 0) | (group[np.maximum(partner, 0)] != group[hi])
        if np.any(lost):
            raise MeshFailure(f"unpaired periodic vertex {ids[hi][lost].min()} "
                              f"on axis {axis} face")
        pairs.append(np.column_stack([ids[partner], ids[hi],
                                      np.full(len(hi), axis)]))
    pairs = np.vstack(pairs)
    return pairs[np.lexsort(pairs.T[::-1])]


def build_membrane_cell(spec: GeometrySpec, eta: float):
    """Replace the Disk2D interface by a resolved band of width eta.

    The band occupies r0 - eta/2 < r < r0 + eta/2 (GeometrySpec.membrane_band)
    and is marked PHASE_MEMBRANE.
    """
    spec.validate()
    base = _polar_cell_mesh(list(spec.membrane_band(eta)),
                            [PHASE_INT, PHASE_MEMBRANE, PHASE_OUT], spec.h)
    mesh = MembraneMesh(vertices=base.vertices, simplices=base.simplices,
                        phase=base.phase, periodic_pairs=base.periodic_pairs,
                        vols=base.vols, eta=eta)
    surf = extract_interface(mesh.vertices, mesh.simplices, mesh.phase,
                             mesh.periodic_pairs)
    return mesh, surf


# ---------------------------------------------------------------------------
# Layered2D: structured grid with exact layer lines
# ---------------------------------------------------------------------------

def _build_layered(spec: GeometrySpec):
    a, b = spec.params["a"], spec.params["b"]
    h = spec.h
    nx = max(2, int(round(1.0 / h)))
    xs = np.linspace(0.0, 1.0, nx + 1)

    ys = [np.linspace(0.0, a, max(1, int(round(a / h))) + 1)]
    ys.append(np.linspace(a, b, max(1, int(round((b - a) / h))) + 1)[1:])
    ys.append(np.linspace(b, 1.0, max(1, int(round((1.0 - b) / h))) + 1)[1:])
    ys = np.concatenate(ys)
    ny = len(ys) - 1

    vertices = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])

    # two triangles per grid square, the diagonal alternating like a
    # checkerboard; vertex (i, j) has id j (nx + 1) + i
    j, i = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    v00 = j * (nx + 1) + i
    tris = _split_quads(v00, v00 + 1, v00 + nx + 1, v00 + nx + 2,
                        (i + j) % 2 == 0)
    simplices, vols = _fix_orientation(vertices, tris)
    ymid = 0.5 * (ys[:-1] + ys[1:])
    phase = np.repeat(np.where((a < ymid) & (ymid < b), PHASE_INT, PHASE_OUT),
                      2 * nx)
    return CellMesh(vertices=vertices, simplices=simplices, phase=phase,
                    periodic_pairs=_match_boundary_pairs(vertices), vols=vols)


# ---------------------------------------------------------------------------
# TubeLattice3D: Kuhn background grid cut along a level set
# ---------------------------------------------------------------------------
# The level set is sampled on the Kuhn lattice.  Lattice vertices next to a
# crossing are first snapped onto it (the warp step of isosurface stuffing,
# Labelle and Shewchuk 2007); each cut tet is then split by a case table
# over its corner signs, as in marching tetrahedra (Doi and Koide 1991).
# Kuhn tets list their corners in increasing id order and cut vertices are
# numbered in sorted edge order, so every id comparison of the cut is one
# of local labels: the corners 0-3, then the cuts of _TET_EDGES as 4-9.

_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
_TET_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
_EDGE_LABEL = {(a, b): 4 + i for i, (a, b) in enumerate(_TET_EDGES.tolist())}


def kuhn_tetrahedra(n: int) -> np.ndarray:
    """The Kuhn tetrahedra of the n^3 cubes, cube by cube in i, j, k order,
    as ids (i (n+1) + j) (n+1) + k of the lattice vertices: each walks from
    the cube's lower corner one unit step per axis of a _KUHN_PERMS entry,
    so its ids increase along the tet."""
    steps = np.eye(3, dtype=np.int64)[_KUHN_PERMS]               # (6, 3, 3)
    offsets = np.concatenate([np.zeros((6, 1, 3), dtype=np.int64),
                              np.cumsum(steps, axis=1)], axis=1)  # (6, 4, 3)
    corners = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 1, 1, 3)
    return ((corners + offsets) @ np.array([(n + 1) ** 2, n + 1, 1])
            ).reshape(-1, 4)


def _tube_level_set(pts: np.ndarray, rho: float) -> np.ndarray:
    """Signed distance-like function, negative inside the tube lattice."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    dx = np.sqrt((y - 0.5) ** 2 + (z - 0.5) ** 2)
    dy = np.sqrt((x - 0.5) ** 2 + (z - 0.5) ** 2)
    dz = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)
    return np.minimum(np.minimum(dx, dy), dz) - rho


def _build_tube(spec: GeometrySpec):
    rho = spec.params["rho"]
    n = max(4, int(round(1.0 / spec.h)))
    snap_tol = 0.15

    # grid vertices at integer lattice / n, coordinates exact at faces
    lin = np.arange(n + 1) / n
    lin[-1] = 1.0
    coord_int = np.stack(np.meshgrid(*[np.arange(n + 1)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
    pos = lin[coord_int]
    phi = _tube_level_set(pos, rho)
    phi[np.abs(phi) < 1e-14] = 0.0
    nv = len(pos)

    # the undirected edges in sorted order, and the index of each tet edge
    tets = kuhn_tetrahedra(n)
    codes, tet_edge = np.unique(
        tets[:, _TET_EDGES[:, 0]] * nv + tets[:, _TET_EDGES[:, 1]],
        return_inverse=True)
    edges = np.column_stack(np.divmod(codes, nv))

    # snap pass: a grid vertex moves onto the nearest crossing of its edges
    # within snap_tol, ties to the smallest partner id, all computed from
    # the unsnapped grid.  Face vertices only move within their faces, so decisions
    # are mirrored exactly on opposite faces (phi agrees there bitwise).
    v, w = np.vstack([edges, edges[:, ::-1]]).T
    on_face = (coord_int == 0) | (coord_int == n)
    keep = (phi[v] * phi[w] < 0.0) & np.all(
        ~on_face[v] | (coord_int[w] == coord_int[v]), axis=1)
    v, w = v[keep], w[keep]
    t = phi[v] / (phi[v] - phi[w])
    near = np.flatnonzero(t < snap_tol)
    best = near[np.lexsort((w[near], t[near], v[near]))]
    best = best[np.diff(v[best], prepend=-1) != 0]
    v, w, t = v[best], w[best], t[best, None]
    pos[v] = pos[v] + t * (pos[w] - pos[v])
    phi[v] = 0.0

    # cut vertices on edges with a strict sign change; local holds each
    # tet's corners, then the cut vertex of each of its edges (-1 if none)
    is_cut = phi[edges[:, 0]] * phi[edges[:, 1]] < 0.0
    a, b = edges[is_cut].T
    t = (phi[a] / (phi[a] - phi[b]))[:, None]
    all_pos = np.vstack([pos, pos[a] + t * (pos[b] - pos[a])])
    cut_id = np.where(is_cut, nv + np.cumsum(is_cut) - 1, -1)
    local = np.hstack([tets, cut_id[tet_edge].reshape(-1, 6)])

    # uncut tets keep their phase; those with every corner on the surface
    # take the phase of their centroid
    s = np.sign(phi).astype(np.int64)[tets]
    cut = np.any(s < 0, axis=1) & np.any(s > 0, axis=1)
    whole = np.flatnonzero(~cut)
    ph = np.where(np.any(s[whole] < 0, axis=1), PHASE_INT, PHASE_OUT)
    flat = np.flatnonzero(np.all(s[whole] == 0, axis=1))
    c = all_pos[tets[whole[flat]]].mean(axis=1)
    ph[flat] = np.where(_tube_level_set(c, rho) < 0, PHASE_INT, PHASE_OUT)
    parts = [(tets[whole], ph, whole)]

    # cut tets, one case of the table per sign pattern and cyclic order of
    # the cut polygon cpts: by angle in the plane of its two largest
    # singular directions, from its smallest id on.  The order fixes the
    # vertex order of the sub-tets and cannot be read off the pattern.
    code = (s + 1) @ np.array([27, 9, 3, 1])
    for pattern in np.unique(code[cut]):
        group = np.flatnonzero(cut & (code == pattern))
        signs = s[group[0]]
        cpts = np.flatnonzero(np.r_[signs == 0, local[group[0], 4:] >= 0])
        d = all_pos[local[group][:, cpts]]
        d -= d.mean(axis=1, keepdims=True)
        vt = np.linalg.svd(d)[2]
        ang = np.arctan2(d @ vt[:, 1, :, None], d @ vt[:, 0, :, None])[..., 0]
        order = np.argsort(ang, axis=1, kind="stable")
        for cycle in np.unique(order, axis=0):
            tets_c = group[np.all(order == cycle, axis=1)]
            cpoly = np.roll(cpts[cycle], -np.argmin(cycle)).tolist()
            sub, sub_phase = map(np.array, zip(*[
                (st, side_phase)
                for side, side_phase in ((-1, PHASE_INT), (1, PHASE_OUT))
                for st in _clip_case(signs, side, cpoly)]))
            p = all_pos[local[tets_c][:, sub]]
            # drop degenerate cones (apex coplanar with the face)
            ti, si = np.nonzero(np.abs(np.linalg.det(
                p[..., 1:, :] - p[..., :1, :]) / 6.0) > 1e-16)
            parts.append((local[tets_c[ti, None], sub[si]], sub_phase[si],
                          tets_c[ti]))

    # tet by tet; a cut tet's rows are in case order, side -1 first
    rows, phase, k = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(k, kind="stable")
    simplices, vols = _fix_orientation(all_pos, rows[order])
    # drop exact slivers created by coning through coplanar points
    keep = np.abs(vols) > 1e-12 * (1.0 / n) ** 3
    simplices, phase, vols = simplices[keep], phase[order][keep], vols[keep]

    # compact unused vertices
    used = np.unique(simplices)
    remap = -np.ones(all_pos.shape[0], dtype=np.int64)
    remap[used] = np.arange(len(used))
    vertices = all_pos[used]
    simplices = remap[simplices]

    return CellMesh(vertices=vertices, simplices=simplices, phase=phase,
                    periodic_pairs=_match_boundary_pairs(vertices), vols=vols)


def _clip_case(signs, side, cpoly):
    """Sub-tets, as local labels, of the part of a tet with corner signs on
    the given side of the cut polygon cpoly (in cyclic order from its
    smallest label).  The part is convex and holds a corner strictly on
    its side, so its clipped faces are coned from its smallest label.
    Quad faces are split by the diagonal through their smallest id, which
    neighbouring tets reproduce independently."""
    tris = []
    for drop in range(4):
        tri = [k for k in range(4) if k != drop]
        poly = []
        for a, b in zip(tri, tri[1:] + tri[:1]):
            if signs[a] * side >= 0:
                poly.append(a)
            if signs[a] * signs[b] < 0:
                poly.append(_EDGE_LABEL[min(a, b), max(a, b)])
        if len(poly) == 4:  # quad: rotate to the smallest label and split
            q = np.roll(poly, -poly.index(min(poly))).tolist()
            tris += [q[:3], [q[0], q[2], q[3]]]
        elif len(poly) == 3:
            tris.append(poly)
    tris += [[cpoly[0], a, b] for a, b in zip(cpoly[1:], cpoly[2:])]
    apex = min(v for f in tris for v in f)
    return [[apex, *f] for f in tris if apex not in f]


# ---------------------------------------------------------------------------
# public builders
# ---------------------------------------------------------------------------

def build_unit_cell(spec: GeometrySpec):
    """Fitted periodic mesh of the unit cell plus its interface."""
    spec.validate()
    if spec.kind == "Disk2D":
        mesh = _polar_cell_mesh([spec.params["r0"]], [PHASE_INT, PHASE_OUT],
                                spec.h)
    elif spec.kind == "Layered2D":
        mesh = _build_layered(spec)
    else:
        mesh = _build_tube(spec)
    surf = extract_interface(mesh.vertices, mesh.simplices, mesh.phase,
                             mesh.periodic_pairs)

    total = mesh.vols.sum()
    if abs(total - 1.0) > 1e-12:
        raise MeshFailure(f"cell volume sums to {total!r}, not 1")
    if len(surf.facets) < 8 * surf.n_components:
        raise MeshFailure("interface resolution below 8 facets per component")
    return mesh, surf


def tiles_per_axis(eps: float) -> int:
    """The tiles m = 1/eps along each axis, uncapped: the rounded finite
    1/eps, m >= 1 with |m eps - 1| <= 1e-12; else raises NonIntegerTiling."""
    recip = 1.0 / eps
    m = int(round(recip)) if np.isfinite(recip) else 0
    if m < 1 or abs(m * eps - 1.0) > 1e-12:
        raise NonIntegerTiling(f"eps={eps} is not a reciprocal integer")
    return m


def tile_micro_domain(mesh: CellMesh, facets: np.ndarray, eps: float,
                      strip_boundary_inclusions: bool):
    """Tile a unit cell mesh eps-periodically over the unit domain.

    eps must be the reciprocal of an integer m (tiles_per_axis).  With
    strip_boundary_inclusions set, the tiles touching the outer boundary
    are all matrix material (stripped), so that no inclusion meets it;
    callers set it for disconnected inclusions only (topology "cd").

    facets are the cell's interface facets.  Returns (micro,
    micro.interface): the interface of the tiling is the union of their
    copies in the tiles that kept their inclusions, each row sorted and the
    rows in lexicographic order, as extract_interface lists them.

    A tiled vertex is a periodic class of cell vertices at one lattice
    corner; the vertices are numbered by first appearance, tile by tile,
    and placed at their first copy.  The tiling's element geometry is the
    cell's, so a periodic pair more than 1e-12 off e_axis raises
    MeshFailure.
    """
    m = tiles_per_axis(eps)
    dim = mesh.dim
    nv = mesh.vertices.shape[0]

    V = np.asarray(mesh.vertices, dtype=float)
    low, high, axis = np.asarray(mesh.periodic_pairs,
                                 dtype=np.int64).reshape(-1, 3).T
    gap = np.abs(V[high] - V[low] - np.eye(dim)[axis])
    if not gap.max(initial=0.0) <= 1e-12:
        raise MeshFailure(f"a periodic partner is {gap.max():.1e} off its "
                          "cell copy")

    # key: periodic class, then the lattice corner (the tile offset plus one
    # along each axis whose high face the cell vertex is on)
    n_cells = m ** dim
    cells = np.stack(np.unravel_index(np.arange(n_cells), (m,) * dim), axis=1)
    on_high = np.zeros((nv, dim), dtype=np.int64)
    on_high[high, axis] = 1
    stride = (m + 1) ** np.arange(dim - 1, -1, -1)   # corners in (m+1)^dim
    key = ((periodic_classes(nv, mesh.periodic_pairs) * (m + 1) ** dim
            + on_high @ stride) + (cells @ stride)[:, None]).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    local_global = rank[inverse].reshape(n_cells, nv)
    first = np.sort(first)
    vertices = (V[first % nv] + cells[first // nv]) / m

    ne = mesh.simplices.shape[0]
    # np.take gathers C-ordered, so the reshape does not copy
    simplices = np.take(local_global, mesh.simplices, 1).reshape(-1, dim + 1)
    phase = np.tile(np.asarray(mesh.phase, dtype=np.int64), n_cells)
    stripped = np.zeros(n_cells, dtype=bool)
    if strip_boundary_inclusions:
        stripped = np.any((cells == 0) | (cells == m - 1), axis=1)
        phase[np.repeat(stripped, ne)] = PHASE_OUT
    tiled = np.sort(local_global[~stripped][:, facets], axis=2).reshape(-1, dim)

    boundary = np.where(np.any((vertices == 0.0) | (vertices == 1.0), axis=1))[0]
    micro = MicroMesh(vertices=vertices, simplices=simplices, phase=phase,
                      eps=eps, boundary_vertices=boundary,
                      interface=tiled[np.lexsort(tiled.T[::-1])],
                      local_global=local_global, cell=mesh, stripped=stripped)
    return micro, micro.interface
