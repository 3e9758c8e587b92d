"""A/B runs of the benchmark: a parent and a change tree, alternated.

    python tools/ab.py --workload bp5-p3-solve --pairs 10 --seconds 20 \\
        --out ab.json
    python tools/ab.py --workload bp3-p2-large --parent HEAD~1 --change HEAD

Each side is a git revision, copied with `git archive` into a temporary
directory, or a directory holding a checkout (the default change side is
the working tree this script sits in; the default parent is HEAD).  Pair i
runs `perfbench/run.py` unmodified in both trees, one process each, with
seed `--seed + i`; the parent goes first in even pairs and the change in odd
ones.  The JSON written to --out (default: stdout) holds, per metric of
the run's last stdout line, every value per side, the min, median and
quartiles per side, the change of the median relative to the parent's, and
the pairs each side won in the metric's `better` direction (BENCHMARK.json
of the parent tree).  A summary table goes to stderr.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def materialize(side: str, scratch: Path) -> Path:
    """The tree of `side`: a directory as it is, or a git revision of this
    repository extracted from `git archive` into `scratch`."""
    if Path(side).is_dir():
        return Path(side).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", side],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch, filter="data")
    return scratch


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The end-to-end result line of one `perfbench/run.py` process in
    `tree`."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: list, change: list, better: dict) -> dict:
    """Per metric: the values, min, median and quartiles of each side, the
    relative change of the median and the pairs each side won.  `parent`
    and `change` are the result lines of the pairs, in pair order; `better`
    maps a metric name to "lower" or "higher"."""
    out = {}
    for name in parent[0]["metrics"]:
        sides = {}
        for side, results in (("parent", parent), ("change", change)):
            values = [r["metrics"].get(name, {}).get("value") for r in results]
            finite = [v for v in values if v is not None]
            q = _quartiles(finite) if finite else [None] * 3
            sides[side] = {"values": values,
                           "min": min(finite) if finite else None,
                           "median": q[1], "quartiles": [q[0], q[2]]}
        direction = better.get(name, "lower")
        wins = {"parent": 0, "change": 0, "tie": 0}
        for a, b in zip(sides["parent"]["values"], sides["change"]["values"]):
            if a is None or b is None or a == b:
                wins["tie"] += 1
            elif (b < a) == (direction == "lower"):
                wins["change"] += 1
            else:
                wins["parent"] += 1
        median = sides["parent"]["median"]
        relative = (sides["change"]["median"] / median - 1.0
                    if median and sides["change"]["median"] is not None else None)
        out[name] = {"unit": parent[0]["metrics"][name].get("unit"),
                     "better": direction, **sides,
                     "median_change": relative, "wins": wins}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--parent", default="HEAD",
                        help="git revision or directory (default: HEAD)")
    parser.add_argument("--change", default=str(ROOT),
                        help="git revision or directory (default: this tree)")
    parser.add_argument("--out", help="write the JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    with tempfile.TemporaryDirectory() as parent_dir, \
            tempfile.TemporaryDirectory() as change_dir:
        trees = {"parent": materialize(args.parent, Path(parent_dir)),
                 "change": materialize(args.change, Path(change_dir))}
        registry = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in registry["end_to_end"]}
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_once(trees[side], args.workload,
                                              args.seed + i, args.seconds))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    report = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
              "seeds": [args.seed + i for i in range(args.pairs)],
              "parent": args.parent, "change": args.change,
              "correct": {side: [r["correct"] for r in rs] for side, rs in results.items()},
              "metrics": summarize(results["parent"], results["change"], better)}
    for name, m in report["metrics"].items():
        a, b, change = m["parent"]["median"], m["change"]["median"], m["median_change"]
        print(f"{name:32s} median {a!s:.12} -> {b!s:.12}"
              f" ({'n/a' if change is None else f'{100 * change:+.1f} %'}),"
              f" change won {m['wins']['change']}/{args.pairs}", file=sys.stderr)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
