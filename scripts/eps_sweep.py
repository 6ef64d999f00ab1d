"""Homogenization error sweep for the disk cell in the critical regime.

Solves the memory-kernel macro equation once, then marches the oscillating
micro problem for each eps in the list and reports the space-time distance
between the locally averaged micro solution and the macro field.  The
column should decrease as eps shrinks.

    python3 scripts/eps_sweep.py --eps 0.5 0.25 0.125 --out eps_sweep.csv
"""
import argparse
import sys

from bh import cell, geometry, macro, micro, tensors
from bh.config import preset_function
from bh.timegrid import TimeGrid


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[0.5, 0.25, 0.125])
    ap.add_argument("--r0", type=float, default=0.25)
    ap.add_argument("--h", type=float, default=0.04, help="cell mesh size")
    ap.add_argument("--n", type=int, default=32, help="macro grid divisions")
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--dt", type=float, default=0.05)
    ap.add_argument("--kernel-dt", type=float, default=0.02)
    ap.add_argument("--keep-boundary", action="store_true",
                    help="do not strip inclusions cut by the outer boundary")
    ap.add_argument("--out", default=None, help="write the csv here")
    args = ap.parse_args()

    coeffs = cell.CellCoefficients(1.0, 3.0, 1.0)
    spec = geometry.GeometrySpec("Disk2D", {"r0": args.r0}, h=args.h)
    mesh, surf = geometry.build_unit_cell(spec)
    kernel = TimeGrid(args.t_end, args.kernel_dt)
    sysm = cell.CellSystem(mesh, surf, coeffs)
    funcs = cell.solve_cell_functions(sysm, kernel)
    tens = tensors.compute_all(sysm, funcs, "cd")

    u0 = preset_function("sin-product", 2)
    mm = macro.build_macro_mesh(args.n, 2)
    grid = TimeGrid(args.t_end, args.dt)
    prob = macro.MacroProblem(
        mesh=mm, regime="k1_connected_disconnected", grid=grid,
        lambda0=tens.lambda0, A0=tens.A0, C0=tens.C0, B0=tens.B0,
        kernel_grid=kernel, F_coeffs=tens.F_coeffs,
        u0_bar=u0(mm.vertices), topology="cd")
    field = macro.solve_homogenized_memory(prob)

    rep = micro.convergence_study(
        "k1_connected_disconnected", args.eps, cell_mesh=mesh,
        cell_facets=surf.facets, coeffs=coeffs, k=1.0, grid=grid, u0_bar=u0,
        macro_mesh=mm, macro_field=field, strip=not args.keep_boundary)

    text = rep.csv()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    print(text, end="")
    return 0 if rep.monotone_decrease else 1


if __name__ == "__main__":
    sys.exit(main())
