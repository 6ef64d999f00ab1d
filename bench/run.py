"""bh benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cell_pipeline --seed 1 --seconds 40 --trace 0

A run writes the workload's INI from the seed, then repeats the workload's
`bh` command sequence, one repetition at a time, each in a fresh child
interpreter (a closed loop with one client). Repetitions continue while the
next one is expected to end nearer to --seconds than the last one did; at
least two always run, so the byte-stable artifacts can be compared. Every command's exit code and
outputs are checked.

--trace 0 reports the end-to-end metrics setup_s, total_s and peak_rss_mb
(medians over repetitions). setup_s also takes a set-up-only child started
after each repetition. The two times are scaled to a reference
host speed: a fixed kernel (bench/calibrate.py) is timed before the first
repetition and a few times after each one, and both medians are multiplied by
calibrate.REFERENCE_S / (median kernel time). The unscaled times and those
of the stage groups a workload runs (tensors_s, macro_s, micro_s) are
printed above the JSON line.
--trace 1 alternates one untraced repetition with two traced ones and
reports per-layer self times and exact counts from the traced ones, plus
the tracing overhead (traced minus untraced total_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed (commands) and metrics. Work files go to
.bench_work/ in the repository root.
"""

import argparse
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, Kernel  # noqa: E402
from workloads import WORKLOADS, write_ini  # noqa: E402

# a run must end within 180 s: no repetition starts that is expected to end
# after _LAST_END_S, and none may outlive _RUN_LIMIT_S, both counted from
# the start of the run
_LAST_END_S = 140.0
_RUN_LIMIT_S = 170.0
# an untraced run times the host-speed kernel once per this many seconds of
# repetition, so its samples cover about the same stretch as the repetitions
_KERNEL_EVERY_S = 4.0

END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def _git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_lines():
    out = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "bh", "*.py"))):
        with open(path) as fh:
            out[os.path.basename(path)[:-3]] = sum(1 for _ in fh)
    return out


def _metadata(first):
    return {"git_revision": _git_revision(),
            "python": sys.version.split()[0],
            "numpy": first.get("numpy"), "scipy": first.get("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "blas_threads": {k: os.environ[k] for k in _BLAS_VARS
                             if k in os.environ},
            "source_lines": _source_lines()}


def _high_percentile(values):
    """Highest percentile with at least ten samples beyond it (nearest rank),
    or None when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10                      # 1-based rank of the sample kept
    return math.floor(100.0 * rank / n), sorted(values)[rank - 1]


def _summary_line(name, unit, values):
    if not values:
        return f"  {name:<14} n/a (stage not in this workload)"
    hp = _high_percentile(values)
    tail = (f"p{hp[0]}={hp[1]:.4f}" if hp else
            "no percentile with >=10 samples beyond it")
    return (f"  {name:<14} median={statistics.median(values):.4f} {unit}  "
            f"min={min(values):.4f} max={max(values):.4f} n={len(values)}  {tail}")


def _stage_time(rep, names):
    secs = {st["command"]: st["seconds"] for st in rep["stages"]}
    if not all(n in secs for n in names):
        return None
    return sum(secs[n] for n in names)


def _producer(filename):
    """The command that writes a byte-stable artifact."""
    for prefix, cmd in (("mesh", "mesh"), ("cell", "cell"), ("compat", "cell"),
                        ("tensors", "tensors"), ("macro", "macro"),
                        ("micro", "micro")):
        if filename.startswith(prefix):
            return cmd
    return None


def _child(args, timeout):
    """Run bench/child.py; True when it exited 0. A timeout kills it."""
    env = {k: v for k, v in os.environ.items() if k != "BH_OUTPUT_DIR"}
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())],
                              env=env, stdout=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def _probe_setup(ini, work, timeout):
    """setup_s of one set-up-only child, or None."""
    result = os.path.join(work, "setup.json")
    if not _child(["--config", ini, "--result", result, "--setup-only"],
                  timeout):
        return None
    with open(result) as fh:
        return json.load(fh)["setup_s"]


def _spawn(workload, ini, work, rep, traced, timeout):
    out = os.path.join(work, f"rep{rep}")
    os.makedirs(out)
    result = os.path.join(work, f"rep{rep}.json")
    args = ["--config", ini, "--out", out, "--commands",
            ",".join(workload.commands), "--result", result,
            "--run-id", f"{workload.name}:{os.path.basename(work)}:{rep}"]
    if traced:
        args += ["--trace", "--spans", os.path.join(work, "spans.jsonl")]
    start = time.monotonic()
    ok = _child(args, timeout) and os.path.exists(result)
    wall = time.monotonic() - start
    shutil.rmtree(out, ignore_errors=True)
    if not ok:
        print(f"repetition {rep} of {workload.name} did not finish", file=sys.stderr)
        return None, wall
    with open(result) as fh:
        data = json.load(fh)
    data["traced"] = traced
    return data, wall


def run(workload, seed, seconds, trace):
    """(work dir, repetitions, set-up probe times, kernel times) of one run.

    A traced run alternates one untraced repetition with two traced ones and
    takes no set-up probes or kernel times; an untraced run takes one probe
    and kernel times after each repetition."""
    t0 = time.monotonic()
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ini = write_ini(workload, seed, os.path.join(work, "workload.ini"))
    # compile bytecode once so no repetition pays for it
    subprocess.run([sys.executable, "-c", "import bh.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                   timeout=120)

    def left():
        return max(1.0, _RUN_LIMIT_S - (time.monotonic() - t0))

    probes, kernel_s, kernel = [], [], None
    if not trace:
        kernel = Kernel()
        kernel.run()                        # warm-up, not counted
        kernel_s.append(kernel.run())
    min_reps = 3 if trace else 2
    reps, walls = [], []
    while True:
        elapsed = time.monotonic() - t0
        # the last repetition is the one expected to end nearest --seconds
        if (len(walls) >= min_reps
                and elapsed + statistics.mean(walls) / 2 > seconds):
            break
        if walls and elapsed + max(walls) > _LAST_END_S:
            break
        traced = bool(trace) and len(walls) % 3 != 0
        data, wall = _spawn(workload, ini, work, len(walls), traced, left())
        if kernel is not None:
            # host speed and set-up time are sampled all through the run
            probes.append(_probe_setup(ini, work, left()))
            for _ in range(math.ceil(wall / _KERNEL_EVERY_S)):
                kernel_s.append(kernel.run())
            wall = time.monotonic() - t0 - elapsed
        walls.append(wall)
        reps.append(data)
    return work, reps, probes, kernel_s


def _account(workload, reps):
    """(attempted, failed, problems) over every command of every repetition."""
    n_cmd = len(workload.commands)
    attempted = n_cmd * len(reps)
    failed = 0
    problems = []
    reference = next((r["hashes"] for r in reps if r is not None), {})
    for i, rep in enumerate(reps):
        if rep is None:
            failed += n_cmd
            problems.append(f"rep {i}: child failed")
            continue
        bad = {st["command"] for st in rep["stages"] if not st["ok"]}
        for name in set(reference) | set(rep["hashes"]):
            if reference.get(name) != rep["hashes"].get(name):
                bad.add(_producer(name))
                problems.append(f"rep {i}: {name} differs from rep 0")
        for cmd in sorted(bad):
            problems.append(f"rep {i}: command {cmd} failed its checks")
        failed += len(bad)
    return attempted, failed, problems


def _end_to_end(workload, reps, probes, kernel_s, out):
    series = {"setup_s": probes + [r["setup_s"] for r in reps],
              "total_s": [_stage_time(r, workload.commands) for r in reps],
              "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    # stage groups are printed for the workloads that run them, not gated
    for name, group in (("tensors_s", ("mesh", "cell", "tensors")),
                        ("macro_s", ("macro",)), ("micro_s", ("micro",))):
        series[name] = [t for t in (_stage_time(r, group) for r in reps)
                        if t is not None]
    scale = REFERENCE_S / statistics.median(kernel_s)
    print(f"{workload.name}: end-to-end over {len(reps)} repetitions "
          f"and {len(probes)} set-up probes, unscaled", file=out)
    for name in ("setup_s", "total_s", "tensors_s", "macro_s", "micro_s",
                 "peak_rss_mb"):
        print(_summary_line(name, "MB" if name == "peak_rss_mb" else "s",
                            series[name]), file=out)
    print(_summary_line("kernel_s", "s", kernel_s), file=out)
    print(f"  host scale = {REFERENCE_S} s / median kernel_s = {scale:.4f}; "
          f"setup_s and total_s below are scaled by it", file=out)
    return {name: {"value": statistics.median(series[name])
                   * (scale if unit == "s" else 1.0), "unit": unit}
            for name, unit in END_TO_END}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "B"
    if name.endswith("_max"):
        return "ratio"
    return "count"


def _per_layer(workload, reps, out):
    """(metrics, problems) from the traced repetitions."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    if not traced or not plain:
        return {}, ["too few traced or untraced repetitions finished"]
    problems = [f"tracing left wrappers behind in rep {i}"
                for i, r in enumerate(traced) if not r["unwrapped_clean"]]
    layers = [r["layers"] for r in traced]
    metrics = {}
    print(f"{workload.name}: per-layer over {len(traced)} traced repetitions",
          file=out)
    for name in layers[0]:
        vals = [lay[name] for lay in layers]
        unit = _layer_unit(name)
        if unit == "s":
            value = statistics.median(vals)
        else:
            value = vals[0]
            if any(v != value for v in vals):
                problems.append(f"{name} differs between traced runs: {vals}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value!r} {unit}", file=out)
    cmds = workload.commands
    overhead = (statistics.median(_stage_time(r, cmds) for r in traced)
                - statistics.median(_stage_time(r, cmds) for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"  tracing overhead: traced total_s - untraced total_s = "
          f"{overhead:.4f} s ({len(traced)} traced, {len(plain)} untraced)",
          file=out)
    return metrics, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bh", "cli.py")):
        print(f"bh sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # a terminated run still kills and waits for its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work, reps, probes, kernel_s = run(workload, args.seed, args.seconds,
                                       args.trace)
    attempted, failed, problems = _account(workload, reps)
    if None in probes:
        problems.append("a set-up probe did not finish")
        probes = [t for t in probes if t is not None]
    done = [r for r in reps if r is not None]
    if not done:
        print("no repetition finished", file=sys.stderr)
        return 1

    out = sys.stdout
    meta = _metadata(done[0])
    with open(os.path.join(work, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
    print("meta " + json.dumps(meta, sort_keys=True), file=out)
    if args.trace:
        metrics, trace_problems = _per_layer(workload, done, out)
        problems += trace_problems
    else:
        metrics = _end_to_end(workload, done, probes, kernel_s, out)
    print(f"{workload.name}: fail_ratio = {failed / attempted} "
          f"({failed} of {attempted} commands failed)", file=out)
    for msg in problems:
        print(f"problem: {msg}", file=out)
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
