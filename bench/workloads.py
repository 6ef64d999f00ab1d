"""Seeded workloads of the bh benchmark.

Each workload is a fixed `bh` command sequence on a fixed geometry; the
seed draws only the material coefficients, so mesh sizes, step counts and
every exact count in the trace depend on the workload alone. The program
sees nothing but the INI file written here.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: tuple                 # comment lines recorded in the INI
    commands: tuple
    geometry: tuple            # (key, value) pairs of the [geometry] section
    k: float
    kernel: tuple              # (t_end, dt)
    macro: tuple               # (t_end, dt, n)
    eps_list: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cell_pipeline",
        why=("Most of the work is in cell, tensors, the fem element kernels,",
             "formats (a ~27 MB cell archive written, then read back) and the",
             "O(M^2) macro history sum. No tiling and no micro solve."),
        commands=("mesh", "cell", "tensors", "macro"),
        geometry=(("kind", "Disk2D"), ("r0", 0.25), ("h", 0.014)),
        k=1.0, kernel=(1.0, 0.02), macro=(1.0, 0.01, 48), eps_list=(0.5,)),
    Workload(
        name="micro_2d",
        why=("eps=1/4 runs below micro._SPLU_DOF_LIMIT (SuperLU), eps=1/10",
             "above it (Jacobi-CG). Dominated by geometry tiling, interface",
             "extraction and the fem step solvers; no cell, tensors or macro."),
        commands=("mesh", "micro"),
        geometry=(("kind", "Disk2D"), ("r0", 0.25), ("h", 0.04)),
        k=1.0, kernel=(1.0, 0.02), macro=(0.25, 0.05, 32), eps_list=(0.25, 0.1)),
    # Run by hand only: BENCHMARK.json leaves it out so the two workloads it
    # lists fit 60-second runs into the benchmark's time limit.
    Workload(
        name="tube_3d",
        why=("3D tube lattice in the k<1 regime: the same fem solver layer",
             "with a 3D SuperLU factor of heavy fill. A solver policy that",
             "speeds up micro_2d but slows 3D shows here."),
        commands=("mesh", "cell", "tensors", "macro", "micro"),
        geometry=(("kind", "TubeLattice3D"), ("rho", 0.25), ("h", 1.0 / 6.0)),
        k=0.0, kernel=(1.0, 0.02), macro=(0.25, 0.05, 8), eps_list=(0.25,)),
)}


def coefficients(seed):
    """(lambda_int, lambda_out, alpha) drawn from the seed."""
    rng = random.Random(seed)
    return rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0)


def ini_text(workload, seed):
    """The INI run configuration of one workload and seed."""
    w = workload
    lam_int, lam_out, alpha = coefficients(seed)
    lines = [f"# bh benchmark workload {w.name}, seed {seed}"]
    lines += [f"# {line}" for line in w.why]
    lines += ["", "[geometry]"]
    lines += [f"{key} = {value!r}" if isinstance(value, float)
              else f"{key} = {value}" for key, value in w.geometry]
    lines += ["", "[coefficients]",
              f"lambda_int = {lam_int!r}",
              f"lambda_out = {lam_out!r}",
              f"alpha = {alpha!r}",
              f"k = {w.k!r}",
              "", "[kernel]",
              f"t_end = {w.kernel[0]!r}",
              f"dt = {w.kernel[1]!r}",
              "", "[macro]",
              f"t_end = {w.macro[0]!r}",
              f"dt = {w.macro[1]!r}",
              f"n = {w.macro[2]}",
              "", "[data]", "u0 = sin-product", "f = sin-product",
              "", "[study]",
              "eps_list = " + ", ".join(repr(e) for e in w.eps_list),
              ""]
    return "\n".join(lines)


def write_ini(workload, seed, path):
    with open(path, "w") as fh:
        fh.write(ini_text(workload, seed))
    return path
