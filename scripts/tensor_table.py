"""Print the effective tensors for the three reference cells.

Builds each unit cell, solves the corrector set, and tabulates the volume
fraction, the relaxation constant, the instantaneous tensor and the surface
tensor, together with the dual-route discrepancies.  Useful as a quick
health check after touching the cell or tensor code.

    python3 scripts/tensor_table.py --h 0.04 --t-end 0.5 --dt 0.02
"""
import argparse

import numpy as np

from bh import cell, geometry, tensors
from bh.timegrid import TimeGrid

CASES = [
    ("Disk2D", {"r0": 0.25}, "cd"),
    ("Layered2D", {"a": 0.25, "b": 0.75}, "cc"),
    ("TubeLattice3D", {"rho": 0.25}, "cc"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h", type=float, default=0.05, help="2d mesh size")
    ap.add_argument("--n-tube", type=int, default=6,
                    help="3d subdivisions per edge")
    ap.add_argument("--t-end", type=float, default=0.2)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--lam-int", type=float, default=1.0)
    ap.add_argument("--lam-out", type=float, default=3.0)
    ap.add_argument("--alpha", type=float, default=1.0)
    args = ap.parse_args()

    coeffs = cell.CellCoefficients(args.lam_int, args.lam_out, args.alpha)
    grid = TimeGrid(args.t_end, args.dt)

    for kind, params, topology in CASES:
        h = 1.0 / args.n_tube if kind == "TubeLattice3D" else args.h
        spec = geometry.GeometrySpec(kind, params, h=h)
        mesh, surf = geometry.build_unit_cell(spec)
        sys = cell.CellSystem(mesh, surf, coeffs)
        funcs = cell.solve_cell_functions(sys, grid)
        tens = tensors.compute_all(sys, funcs, topology)

        A_inst = tens.lambda0 * np.eye(mesh.dim) + tens.A0
        print("=" * 62)
        print(f"{kind}  params={params}  h={h:.4f}  topology={topology}")
        print(f"  |E_int| = {mesh.phase_volume(geometry.PHASE_INT):.6f}"
              f"   |Gamma| = {surf.area():.6f}"
              f"   components = {surf.n_components}")
        print(f"  lambda0 = {tens.lambda0:.6f}")
        print(f"  eig(lambda0 I + A0) = "
              + np.array2string(np.linalg.eigvalsh(A_inst), precision=6))
        print(f"  eig(C0)             = "
              + np.array2string(np.linalg.eigvalsh(tens.C0), precision=6))
        print(f"  B0(0) diag          = "
              + np.array2string(np.diag(tens.B0[0]), precision=6))
        if tens.A_hom_klt1 is not None:
            print(f"  eig(A_hom, k < 1)   = "
                  + np.array2string(np.linalg.eigvalsh(tens.A_hom_klt1),
                                    precision=6))
        print(f"  eig(A_hom, k > 1)   = "
              + np.array2string(np.linalg.eigvalsh(tens.A_hom_kgt1),
                                precision=6))
        worst = max(g for g in tens.discrepancies.values() if g is not None)
        print(f"  worst dual-route gap = {worst:.3e}")
        print(f"  worst flux residual  = "
              f"{np.abs(cell.flux_residuals(sys, funcs.chi0)).max():.3e}")


if __name__ == "__main__":
    main()
