"""Benchmark entry point: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
The seed draws the workload's mesh deformation.  With --trace 0 the last
stdout line holds the end-to-end metrics, measured without spans; with
--trace 1 it holds the per-layer metrics of a spanned run.  The line before
it records the host, library versions, revision and run details.  Failure
messages and the human summary go to stderr.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def metric_registry() -> dict:
    """BENCHMARK.json: the metrics' names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import mfcg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import mfcg
    except ImportError as err:
        sys.exit(f"perfbench: cannot import mfcg from {SRC}: {err}")
    if Path(mfcg.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: mfcg imported from {mfcg.__file__}, not {SRC}")


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, deform: float) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_revision": git_revision(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "deform": deform}


def timing_summary(samples: list) -> dict:
    """Median, and the highest percentile that has at least ten samples
    beyond it (None below eleven samples), with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "samples": n}
    if n >= 11:
        summary["percentile"] = 100.0 * (n - 10) / n
        summary["percentile_value"] = ordered[n - 11]
    else:
        summary["percentile"] = summary["percentile_value"] = None
    return summary


def sum_or_none(terms):
    """The sum of `terms`, or None when there are none."""
    terms = list(terms)
    return sum(terms) if terms else None


def totals(medians: dict, iterations: dict, n_dofs: int) -> dict:
    """The end-to-end times and throughput from per-step medians.  A total
    is the sum of its operations' medians, which keeps it steady when a
    slow spell on the host hits a few rounds."""
    out = {name: t for name, t in medians.items()
           if name == "setup_s" or name.startswith("solve_s.")}
    out["solve_s"] = sum_or_none(medians[f"solve_s.{v}"] for v in iterations)
    if out["solve_s"]:
        out["throughput_mdofs"] = (n_dofs * sum(iterations.values())
                                   / out["solve_s"] / 1e6)
    out["analysis_s"] = sum_or_none(t for name, t in medians.items()
                                    if name.startswith("analysis."))
    return out


def end_to_end_run(w, deform: float, seconds: float, tally):
    """End-to-end metric values of an untraced run, and their details.

    Every operation is timed once per round and reported as its median over
    the rounds.  Each step's seconds are scaled to the reference host speed
    (workloads.HostSpeed); the details keep the same figures from the raw
    wall times."""
    from workloads import HostSpeed, closed_loop, run_round

    host = HostSpeed()
    rounds = closed_loop(seconds, lambda k: run_round(
        w, deform, tally, k, host.clock("mixed"), host.clock("interpreted")))
    samples = {"setup_s": [r["setup_s"] for r in rounds]}
    iterations = {}
    for r in rounds:
        for v, (t, res) in r["solves"].items():
            samples.setdefault(f"solve_s.{v}", []).append(t)
            iterations[v] = res.iterations
        for op_name, t in r["analysis"].items():
            samples.setdefault(f"analysis.{op_name}", []).append(t)
    n_dofs = rounds[0]["n_dofs"]
    values = totals({name: statistics.median(s) for name, s in samples.items()},
                    iterations, n_dofs)
    raw = totals({name: statistics.median(t.raw for t in s)
                  for name, s in samples.items()}, iterations, n_dofs)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ok_fraction"] = 1.0 - tally.failed / tally.attempted
    details = {"rounds": len(rounds), "n_dofs": n_dofs, "iterations": iterations,
               "host_probe_median_s": {kind: statistics.median(s)
                                       for kind, s in host.samples.items()},
               "raw": raw,
               "timings": {name: timing_summary(s)
                           for name, s in samples.items()}}
    return values, details


def parse_args(names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    import_library()
    from checks import Tally
    from workloads import WORKLOADS

    args = parse_args(sorted(WORKLOADS), argv)
    w = WORKLOADS[args.workload]
    deform = w.deformation(args.seed)
    tally = Tally()
    if args.trace:
        from layers import traced_run
        values, details = traced_run(w, deform, args.seconds, tally)
    else:
        values, details = end_to_end_run(w, deform, args.seconds, tally)
    registry = metric_registry()["per_layer" if args.trace else "end_to_end"]
    for m in registry:
        # a metric that its operations' failures left without a value
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            tally.record(f"metric {m['name']}", [f"not measured ({value!r})"])
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in registry}
    for name, metric in metrics.items():
        print(f"{w.name} {name} = {metric['value']} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"environment": environment(args, deform),
                      "details": details, "failures": tally.messages}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
