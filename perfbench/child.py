"""One benchmark pass in a fresh process: set up, run the fixed work, check.

Started by ``run.py`` with a JSON job as its only argument; prints one JSON
line with its set-up time, the solve time of each repeat of the fixed work,
peak memory, operations and (traced) layer figures.  The work repeats as
often as fits in ``slice_s`` seconds from the process start, at least once.  Modes:
``setup`` stops after set-up, ``work`` runs untraced and ``trace`` installs
the tracer right after import, so spans cover set-up and work.
"""

import json
import resource
import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402
import warnings  # noqa: E402


def main(job):
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "perfbench"))
    import nullinf

    if root / "src" not in Path(nullinf.__file__).resolve().parents:
        raise SystemExit(f"imported nullinf from {nullinf.__file__}, not from {root / 'src'}")
    import workloads

    tracer = None
    if job["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inp, fast = job["inputs"], job["fast"]
    setup, work, check = workloads.WORKLOADS[job["workload"]]
    state = setup(inp, fast, job["workdir"])
    setup_s = time.perf_counter() - T0
    if job["mode"] == "setup":
        return {"setup_s": setup_s}

    solve_s, ops, res = [], [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # repeat the fixed work while another repeat should end within the
        # slice; every repeat is a sample
        while not solve_s or time.perf_counter() - T0 + solve_s[-1] <= job["slice_s"]:
            res = None  # free the last repeat's arrays before the next one
            t1 = time.perf_counter()
            res = work(state, inp, fast)
            solve_s.append(time.perf_counter() - t1)
            ops += check(res, inp)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
    out = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "units": res["units"],
    }
    if tracer is not None:
        layers = tracer.layers()
        layers["geodesics.tail_warnings"] = sum(
            str(w.message).startswith("tail truncation") for w in caught
        )
        out["layers"] = layers
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
