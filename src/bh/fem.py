"""P1 finite element kernels on fitted simplicial meshes.

Operators live on periodic or plain vertex degrees of freedom; a dof map
(geometry.periodic_classes) folds paired periodic vertices onto shared
unknowns.  One kernel set serves the bulk and the interface: the
stiffness, the gradient load and the dof weights take a (grads, measures)
geometry, element_gradients for the simplices or surface_gradients for
the interface facets.  On facets the gradients are tangential, in
intrinsic facet coordinates, and agree with the projected gradient
(I - nu nu^T) grad up to roundoff, so the stiffness is the P1
Laplace-Beltrami operator (Dziuk and Elliott, Acta Numer. 22 (2013)).

Every direct solve goes through one SuperLU factor, DirichletFactor, of an
SPD system ordered by minimum degree on A + A^T (Liu, ACM TOMS 11 (1985)
141-153; README, "Solvers"), with fixed dofs or the constants as its kernel,
for the cell problems and the macro limits; DirichletFactor.schur reads the
complement on the fixed dofs off one more factor, with those dofs last.  2D
micro marches use SubstructuredFactor, of DirichletFactors of the tile
interiors and the skeleton; 3D ones diagonally preconditioned CG.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (DegenerateFacet, NonpositiveCoefficient, SingularSystem,
                     SolverFailure)
from .geometry import simplex_volumes


# ---------------------------------------------------------------------------
# dof maps
# ---------------------------------------------------------------------------

def identity_dof_map(n_vertices: int) -> np.ndarray:
    return np.arange(n_vertices, dtype=np.int64)


def n_dofs(vdof: np.ndarray) -> int:
    return int(vdof.max()) + 1 if len(vdof) else 0


# ---------------------------------------------------------------------------
# P1 kernels on simplices or facets
# ---------------------------------------------------------------------------

def element_gradients(vertices: np.ndarray, simplices: np.ndarray, vols=None):
    """Gradients of the barycentric basis and signed volumes.

    Returns (grads, vols) with grads[e, i] the constant gradient of the
    basis function of local vertex i on element e; the volumes are the
    ones given (a mesh's kept volumes) or computed.  A mesh's owner calls
    this once and passes the pair (its geometry) to the kernels below.
    """
    p0 = vertices[simplices[:, 0]]
    E = vertices[simplices[:, 1:]] - p0[:, None, :]   # (ne, dim, dim)
    vols = simplex_volumes(vertices, simplices) if vols is None else vols
    Einv = np.linalg.inv(E)                            # rows of Einv.T are grads
    g = np.transpose(Einv, (0, 2, 1))                  # (ne, dim, dim)
    g0 = -g.sum(axis=1, keepdims=True)
    return np.concatenate([g0, g], axis=1), vols


def _check_coeff(coeff: np.ndarray, allow_zero: bool):
    if np.any(coeff < 0.0) or (not allow_zero and np.any(coeff == 0.0)):
        raise NonpositiveCoefficient("conductivity must be positive on every element")


def phase_coefficient(phase: np.ndarray, values: dict) -> np.ndarray:
    """Per-element coefficient array from a phase -> value table."""
    coeff = np.zeros(len(phase))
    for ph, val in values.items():
        coeff[phase == ph] = val
    return coeff


def stiffness_kernels(geom, coeff, allow_zero=False) -> np.ndarray:
    """Element matrices coeff_K int_K grad phi_p . grad phi_q, (ne, npv, npv),
    of the (grads, measures) geom of element_gradients for simplices or of
    surface_gradients for facets (the Laplace-Beltrami stiffness)."""
    coeff = np.asarray(coeff, dtype=float)
    _check_coeff(coeff, allow_zero)
    grads, vols = geom
    return np.einsum("e,eik,ejk->eij", np.abs(vols) * coeff, grads, grads)


def scatter_matrix(kloc, dofs, ndof) -> sp.csr_matrix:
    """sum_K of the element matrices kloc on the element dofs (ne, npv)."""
    npv = dofs.shape[1]
    ij = (np.repeat(dofs, npv, axis=1).ravel(), np.tile(dofs, (1, npv)).ravel())
    return sp.coo_matrix((kloc.ravel(), ij), shape=(ndof, ndof)).tocsr()


def assemble_stiffness(geom, simplices, coeff, vdof, ndof,
                       allow_zero=False) -> sp.csr_matrix:
    """Stiffness sum_K coeff_K int_K grad phi_p . grad phi_q."""
    return scatter_matrix(stiffness_kernels(geom, coeff, allow_zero),
                          vdof[simplices], ndof)


def gradient_load_kernels(geom, coeff, vecs) -> np.ndarray:
    """Element loads coeff_K |K| vec_K . grad phi_p, (ne, npv), of a geom as
    for stiffness_kernels.  With vec_K = e_j their sum is the weak divergence
    of the coefficient field against the direction j, the right hand side of
    every corrector solve."""
    grads, vols = geom
    w = np.abs(vols) * np.asarray(coeff, dtype=float)
    return np.einsum("e,eik,ek->ei", w, grads, np.asarray(vecs, dtype=float))


def scatter_vector(contrib, dofs, ndof) -> np.ndarray:
    """sum_K of the element vectors contrib on the element dofs (ne, npv)."""
    b = np.zeros(ndof)
    np.add.at(b, dofs.ravel(), contrib.ravel())
    return b


def assemble_gradient_load(geom, simplices, coeff, vecs, vdof, ndof) -> np.ndarray:
    """Load b_p = sum_K coeff_K |K| vec_K . grad phi_p."""
    return scatter_vector(gradient_load_kernels(geom, coeff, vecs),
                          vdof[simplices], ndof)


def volume_dof_weights(vols, simplices, vdof, ndof) -> np.ndarray:
    """w_p = int phi_p over the simplices or facets of the given measures
    (exact for P1), the lumped mass."""
    npv = simplices.shape[1]
    return scatter_vector(np.repeat(np.abs(vols)[:, None] / npv, npv, axis=1),
                          vdof[simplices], ndof)


def mass_quadratic(vols, simplices, node_values):
    """Exact int u^2 for the P1 field with the given vertex values, or one
    value per row of a block (k, nv) of fields, each its own sum: a sum over
    axis 1 of the block rounds differently."""
    u = node_values[..., simplices]
    npv = simplices.shape[1]
    q = (u.sum(axis=-1) ** 2 + (u ** 2).sum(axis=-1)) / (npv * (npv + 1))
    sums = [float((np.abs(vols) * qk).sum()) for qk in np.atleast_2d(q)]
    return sums[0] if q.ndim == 1 else np.array(sums)


# ---------------------------------------------------------------------------
# facet geometry (tangential calculus on the facet triangulation)
# ---------------------------------------------------------------------------

def surface_gradients(vertices, facets):
    """Intrinsic tangential gradients of the facet basis functions.

    Returns (grads, measures): grads[f, i] is the gradient (a vector of
    R^N tangent to facet f) of the basis function of local vertex i.
    Raises DegenerateFacet for facets below measure 1e-14.
    """
    pts = vertices[facets]
    if facets.shape[1] == 2:
        t = pts[:, 1] - pts[:, 0]
        L = np.linalg.norm(t, axis=1)
        if np.any(L < 1e-14):
            raise DegenerateFacet("zero-length interface segment")
        g1 = t / (L ** 2)[:, None]
        return np.stack([-g1, g1], axis=1), L

    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    nrm = np.cross(e1, e2)
    area = 0.5 * np.linalg.norm(nrm, axis=1)
    if np.any(area < 1e-14):
        raise DegenerateFacet("zero-area interface triangle")
    # orthonormal in-plane frame
    t1 = e1 / np.linalg.norm(e1, axis=1)[:, None]
    t2 = np.cross(nrm, e1)
    t2 /= np.linalg.norm(t2, axis=1)[:, None]
    # planar coordinates and 2x2 inverse of the edge matrix
    a = np.einsum("fk,fk->f", e1, t1)
    b1 = np.einsum("fk,fk->f", e2, t1)
    b2 = np.einsum("fk,fk->f", e2, t2)
    det = a * b2
    # grads of barycentric coords 1 and 2 in planar frame
    g1p = np.stack([b2 / det, -b1 / det], axis=1)
    g2p = np.stack([np.zeros_like(a), a / det], axis=1)
    lift = lambda gp: gp[:, 0:1] * t1 + gp[:, 1:2] * t2
    g1 = lift(g1p)
    g2 = lift(g2p)
    g0 = -(g1 + g2)
    return np.stack([g0, g1, g2], axis=1), area


# ---------------------------------------------------------------------------
# constrained solvers
# ---------------------------------------------------------------------------

def residual_check(K, x, b, rows=None):
    """Relative residual of K x = b to 1e-10, per column when b is a block,
    over the given rows (all by default), with no block of squares."""
    r = K @ x
    if rows is not None:
        r, b = r[rows], b[rows]
    r -= b
    bnorm, rnorm = np.sqrt([np.einsum("i...,i...->...", v, v) for v in (b, r)])
    rel = rnorm / np.maximum(bnorm, 1e-300)
    bad = ~np.isfinite(rel) | ((rel > 1e-10) & (bnorm > 0))
    if np.any(bad):
        worst = float(np.max(np.where(np.isfinite(rel), rel, np.inf)))
        raise SingularSystem(f"relative residual {worst:.3e} exceeds 1e-10")


def mean_zero_check(sums, w):
    """The volume mean of each column x, from sums = w^T x (any shape): each
    |w^T x| must be at most 1e-12 of sum |w|, and a NaN fails."""
    mean = np.abs(sums) / max(float(np.abs(w).sum()), 1e-300)
    if not np.all(mean <= 1e-12):
        raise SingularSystem(
            f"mean-zero constraint violated by {np.max(mean):.3e}")


def _free_dofs(n, fixed):
    """The fixed dofs as an int array, and the other dofs of n."""
    fixed = np.asarray(fixed, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    mask[fixed] = False
    return fixed, np.flatnonzero(mask)


def _split(K, fixed):
    """Fixed and free dofs, and the free rows of K (CSC) split into their
    free and fixed columns."""
    fixed, free = _free_dofs(K.shape[0], fixed)
    Kr = K.tocsc()[free]
    return fixed, free, Kr[:, free], Kr[:, fixed]


def _splu(A, **options):
    """SuperLU factor of a CSC matrix, or SingularSystem."""
    try:
        return spla.splu(A, **options)
    except RuntimeError as exc:
        raise SingularSystem(f"factorization failed: {exc}") from exc


class DirichletFactor:
    """SuperLU factor of K on its free dofs, for repeated solves.

    With fixed dofs, solve eliminates their rows and columns and takes the
    fixed values given (zero by default).  With weights w, K must be
    singular with the constants as its kernel: the factor pins one dof
    (the largest weight) in place of fixed, and solve returns the x with
    w^T x = 0 that solves K x = b - (sum b / sum w) w, the solution of the
    bordered system [[K, w], [w^T, 0]] [x; mu] = [b; 0].  solve takes one
    right-hand side of length n or a block (n, k), with fixed values of
    matching shape; every check applies per column: the residual of the
    reduced system (of the whole K with weights, which rejects a K whose
    kernel is not the constants) to 1e-10 of the right-hand side, and with
    weights the mean w^T x to 1e-12 of sum |w|.
    """

    def __init__(self, K: sp.spmatrix, fixed=(), weights=None):
        self.w = weights
        self.K = None if weights is None else K.tocsr()
        if weights is not None:
            fixed = [int(np.argmax(weights))]
        self.n = K.shape[0]
        self.fixed, self.free, self.Kff, self.Kfc = _split(K, fixed)
        if len(self.free):
            self.lu = _splu(self.Kff.tocsc(), permc_spec="MMD_AT_PLUS_A")

    def schur(self, K: sp.spmatrix) -> np.ndarray:
        """Dense K_cc - K_cf K_ff^-1 K_fc on the fixed dofs of the symmetric
        K factored (K_cc if none is free): L_cc U_cc - d I of a factor of K
        with the free dofs in this factor's order, the fixed last and their
        diagonal shifted by its largest entry d, which makes a K singular on
        the constants SPD.  SingularSystem if that factor moved a fixed dof."""
        K, nf, g = K.tocsr(), len(self.free), len(self.fixed)
        if not nf:
            return K[self.fixed][:, self.fixed].toarray()
        order = np.r_[self.free[np.argsort(self.lu.perm_c)], self.fixed]
        d = float(K.diagonal()[self.fixed].max())
        A = K[order][:, order] + sp.diags(d * (np.arange(nf + g) >= nf))
        lu = _splu(A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
        if not all(np.array_equal(p[nf:], np.arange(nf, nf + g))
                   for p in (lu.perm_r, lu.perm_c)):
            raise SingularSystem("Schur factor moved a fixed dof")
        L, U = lu.L[nf:, nf:].toarray(), lu.U[nf:, nf:].toarray()
        return L @ U - d * np.eye(g)

    def solve(self, b: np.ndarray, fixed_values=None) -> np.ndarray:
        if self.w is not None:
            b = b - np.multiply.outer(self.w, b.sum(axis=0) / self.w.sum())
            # the pinned row is left out of the solve: let it take the
            # rounding of the projection, so sum b = 0 holds to roundoff of
            # the projected load even when that load is itself roundoff
            b[self.fixed] -= b.sum(axis=0)
        x = np.zeros((self.n,) + b.shape[1:])
        if fixed_values is not None:
            x[self.fixed] = fixed_values
        if not len(self.free):
            return x
        rhs = b[self.free]
        if fixed_values is not None:
            rhs = rhs - (self.Kfc @ x[self.fixed])
        x[self.free] = sol = self.lu.solve(rhs)
        if self.w is None:
            residual_check(self.Kff, sol, rhs)
            return x
        x -= (self.w @ x) / self.w.sum()
        residual_check(self.K, x, b)
        mean_zero_check(self.w @ x, self.w)
        return x


def _row_types(*blocks):
    """The first of each distinct row of the int blocks side by side, in
    np.unique's byte-string order, and each row's label: one comparison per
    type, then a sort of those rows (np.unique over all took 2-3 ms)."""
    label, first = np.full(len(blocks[0]), -1), []
    while np.any(left := label < 0):
        r = int(np.argmax(left))
        same = [left] + [(blk == blk[r]).all(axis=1) for blk in blocks]
        label[np.logical_and.reduce(same)] = len(first)
        first.append(r)
    rows = np.ascontiguousarray(np.column_stack([b[first] for b in blocks]))
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    rank = np.unique(keys.ravel(), return_inverse=True)[1].ravel()
    return np.array(first)[np.argsort(rank)], rank[label]


class SubstructuredFactor:
    """Direct solves of K x = b on an eps-periodic tiling, by substructuring
    (Przemieniecki, AIAA J. 1 (1963) 138-147).

    layout is the tiling's geometry.MicroMesh.substructure.  Tiles whose
    rows of patterns agree carry the same coefficients; with the same fixed
    interior dofs too they form a type and share their blocks: one
    representative's interior block A_II is factored and T = A_II^{-1} A_IB
    kept dense.  The skeleton Schur complement A_BB - sum_t A_BI T is
    factored with the fixed skeleton dofs as its fixed set.  solve takes the
    arguments of DirichletFactor.solve; it gathers the loads from b,
    condenses the tiles of each type with one block solve, solves on the
    skeleton and back-substitutes with one T x_B product per type.  Every
    solve checks the residual of the free rows per column to 1e-10 of their
    load, so a tile whose blocks differ from its type's fails.
    """

    def __init__(self, K: sp.spmatrix, fixed, layout, patterns: np.ndarray):
        self.K = K = K.tocsr()
        self.n = K.shape[0]
        self.fixed, self.free = _free_dofs(self.n, fixed)
        tiles, loc_i, loc_b, self.skeleton, bpos = layout
        is_fixed = np.zeros(self.n, dtype=bool)
        is_fixed[self.fixed] = True
        nb = len(loc_b)
        reps, label = _row_types(patterns, is_fixed[tiles[:, loc_i]])
        self.types = []
        klocs, bps = [], []
        for ty, rep in enumerate(reps):
            members = np.flatnonzero(label == ty)
            li = loc_i[~is_fixed[tiles[rep, loc_i]]]
            gi, gb = tiles[rep, li], tiles[rep, loc_b]
            K_i = K[gi]
            fac = DirichletFactor(K_i[:, gi])
            T = fac.solve(K_i[:, gb].toarray())
            A_bi = K[gb][:, gi]
            bp = bpos[members]
            bps.append(bp)
            klocs.append(np.broadcast_to(A_bi @ T, (len(members), nb, nb)))
            self.types.append((fac, T, A_bi, tiles[members][:, li], bp))
        schur = K[self.skeleton][:, self.skeleton] - scatter_matrix(
            np.concatenate(klocs), np.concatenate(bps), len(self.skeleton))
        self.skeleton_factor = DirichletFactor(
            schur, np.flatnonzero(is_fixed[self.skeleton]))

    def solve(self, b: np.ndarray, fixed_values=None) -> np.ndarray:
        x = np.zeros((self.n,) + b.shape[1:])
        if fixed_values is not None:
            x[self.fixed] = fixed_values
        if not len(self.free):
            return x
        if fixed_values is not None:   # the fixed rows are never read
            b = b - self.K @ x
            x[self.fixed] = 0.0
        # y is zero on the fixed dofs; the skeleton factor skips those of g
        r, y = b.reshape(self.n, -1), x.reshape(self.n, -1)
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
        y[self.skeleton] = xs
        for (_, T, _, gi, bp), Y in zip(self.types, condensed):
            k, ni = gi.shape
            xb = xs[bp].transpose(1, 0, 2).reshape(-1, k * nc)
            xi = Y - T @ xb
            y[gi] = xi.reshape(ni, k, nc).transpose(1, 0, 2)
        residual_check(self.K, y, r, rows=self.free)
        if fixed_values is not None:
            x[self.fixed] = fixed_values
        return x


class CGSolver:
    """Diagonally preconditioned CG on a fixed SPD reduced system."""

    def __init__(self, K: sp.spmatrix, fixed: np.ndarray):
        self.fixed, self.free, Kff, Kfc = _split(K, fixed)
        self.Kff, self.Kfc = Kff.tocsr(), Kfc.tocsr()
        d = self.Kff.diagonal()
        if np.any(d <= 0):
            raise SingularSystem("nonpositive diagonal in CG system")
        self.M = sp.diags(1.0 / d)
        self.n = K.shape[0]
        self._warm = None

    def solve(self, b, fixed_values=None) -> np.ndarray:
        x = np.zeros(self.n)
        if fixed_values is not None:
            x[self.fixed] = fixed_values
        rhs = b[self.free]
        if fixed_values is not None:
            rhs = rhs - (self.Kfc @ x[self.fixed])
        sol, info = spla.cg(self.Kff, rhs, x0=self._warm, rtol=1e-12, atol=0.0,
                            maxiter=50 * max(1, len(self.free)), M=self.M)
        if info != 0:
            raise SolverFailure(f"CG failed to converge (info={info})")
        residual_check(self.Kff, sol, rhs)
        self._warm = sol.copy()
        x[self.free] = sol
        return x
