"""One benchmark repetition in a fresh interpreter.

Usage (from bench/run.py):
    python3 bench/child.py --spawned T --config INI --out DIR
        --commands mesh,cell --result FILE [--trace --spans FILE --run-id ID]
    python3 bench/child.py --spawned T --config INI --result FILE --setup-only

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, importing bh and loading the config. The
commands run in process through bh.cli.main. Each micro solution is checked
as it is returned (a few milliseconds inside the timed micro stage); the
other outputs are checked after the timed region. The result is written as
JSON to FILE.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class MicroCheck:
    """Checks each micro solution as it is returned: finite levels and
    exact zeros on the Dirichlet boundary."""

    def __init__(self):
        self.results = []
        self._orig = None

    def install(self, micro_module):
        orig = self._orig = micro_module.solve_micro
        import numpy as np

        def checked(run):
            fld = orig(run)
            lv = fld.levels
            self.results.append(bool(np.isfinite(lv).all() and np.all(
                lv[:, run.mesh.boundary_vertices] == 0.0)))
            return fld

        micro_module.solve_micro = checked

    def uninstall(self, micro_module):
        micro_module.solve_micro = self._orig


def _compat_all_pass(path):
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return bool(rows) and all(r.rsplit(",", 1)[1].strip() == "pass" for r in rows)


def _hashes(out):
    found = {}
    for name in sorted(os.listdir(out)):
        if not name.endswith(".bhrun"):      # only manifests may differ
            with open(os.path.join(out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--commands")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--run-id", default="")
    p.add_argument("--setup-only", action="store_true",
                   help="stop once the config is loaded; record only setup_s")
    args = p.parse_args()

    import bh.cli
    import bh.config
    bh.config.load_config(args.config)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import numpy
    import scipy
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()
    check = MicroCheck()
    check.install(sys.modules["bh.micro"])

    stages = []
    for cmd in args.commands.split(","):
        t0 = time.perf_counter()
        try:
            rc = bh.cli.main([cmd, "--config", args.config, "--out", args.out])
        except Exception:  # an unhandled error is a failed command, not a crash
            traceback.print_exc()
            rc = -1
        stages.append({"command": cmd, "rc": rc,
                       "seconds": time.perf_counter() - t0})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check.uninstall(sys.modules["bh.micro"])
    result = {"setup_s": setup_s, "stages": stages, "peak_rss_mb": peak_rss_mb,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        result["unwrapped_clean"] = tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)

    for st in stages:
        ok = st["rc"] == 0
        if ok and st["command"] == "cell":
            ok = _compat_all_pass(os.path.join(args.out, "compat_report.csv"))
        if ok and st["command"] == "micro":
            ok = bool(check.results) and all(check.results)
        st["ok"] = ok
    result["hashes"] = _hashes(args.out)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
