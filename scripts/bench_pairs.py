"""Alternating parent/change pairs of ``bench/run.py``, appended as one
record to a ``BENCH_*.json`` file at the repository root.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload tls-wide \\
        --seed 3 --seconds 30 --trace 0 --pairs 10 --out BENCH_pairs.json

The parent is exported with ``git archive`` into a temporary directory;
the change is the working tree of this checkout, or another exported
commit with ``--change``.  Both refs are resolved to commit hashes
before any run, and the record names the hashes.  Each pair runs
``bench/run.py`` once from the root of each side, the side that runs
first alternating between pairs so that drift in the host's speed falls
on both alike.  The record holds the
command, the machine, each side's ``env`` line, every run's metrics,
whether it printed ``"correct": true``, its ``artifact_sha256``, and per
workload the distinct artifact hashes of each side, the median and
quartiles of each end-to-end metric of ``BENCHMARK.json`` on each side,
the parent's spread between quartiles, the median paired gain, and the
number of pairs the change won.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def resolve(ref: str) -> str:
    """The full hash of the commit ``ref`` names, so a record still names
    it after ``HEAD`` or a branch moves."""
    return subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, path: str) -> str:
    """The tree of ``commit``, extracted into the new directory ``path``;
    returns ``path``."""
    os.makedirs(path)
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(path, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return path


def run_once(root: str, args, workload: str) -> dict:
    """One ``bench/run.py`` run from ``root``: its env line, its final JSON
    line and its wall time; the stderr tail if it printed no result."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=10 * args.seconds + 600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    sha = next((line.split()[1] for line in lines if line.startswith("artifact_sha256 ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    run = {"wall_s": round(wall, 3), "returncode": proc.returncode, "env": env,
           "artifact_sha256": sha}
    if result is None:
        run["correct"] = False
        run["stderr_tail"] = proc.stderr[-2000:]
        return run
    run["correct"] = result["correct"]
    run["attempted"], run["failed"] = result["attempted"], result["failed"]
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    problems = [line for line in proc.stderr.splitlines() if "check:" in line]
    if problems:
        run["problems"] = problems[:20]
    return run


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs, metrics) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the
    parent's spread between quartiles relative to its median, the median
    relative gain of the change over its paired parent run (positive is
    better), and the pairs the change won."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if name in p["parent"].get("metrics", {}) and name in p["change"].get("metrics", {})]
        if not both:
            continue
        parent, change = zip(*both)
        gains = [sign * (c - a) / a for a, c in both if a]
        lo, hi = quartiles(parent)
        mid = statistics.median(parent)
        out[name] = {
            "better": metric["better"],
            "parent_median": mid,
            "parent_quartiles": [lo, hi],
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "median_gain": statistics.median(gains) if gains else None,
            # the parent's spread between quartiles, relative to its median
            "parent_spread": (hi - lo) / mid if mid else None,
            "change_wins": sum(sign * (c - a) > 0 for a, c in both),
            "pairs": len(both),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", help="commit to measure (default: the working tree)")
    parser.add_argument("--workload", required=True, action="append",
                        help="a bench/run.py workload; repeat for several")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", default="BENCH_pairs.json",
                        help="file under the repository root the record is appended to")
    parser.add_argument("--note", default="", help="free text stored with the record")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    if not (os.path.basename(args.out).startswith("BENCH_") and args.out.endswith(".json")):
        parser.error("--out must name a BENCH_*.json file")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent = resolve(args.parent)
    change = resolve(args.change) if args.change else None

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        sides = {"parent": export(parent, os.path.join(tmp, "parent")),
                 "change": export(change, os.path.join(tmp, "change")) if change else ROOT}
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], args, workload)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"correct={pair[side]['correct']} {pair[side].get('metrics', {})}",
                          file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = {
                "correct_runs": {side: sum(p[side]["correct"] for p in pairs)
                                 for side in ("parent", "change")},
                "artifact_sha256": {side: sorted({p[side]["artifact_sha256"] for p in pairs
                                                  if p[side]["artifact_sha256"]})
                                    for side in ("parent", "change")},
                "summary": summarize(pairs, metrics) if args.trace == 0 else {},
                "pairs": pairs,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "command": shlex.join(["python3", "scripts/bench_pairs.py"] + list(
            argv if argv is not None else sys.argv[1:])),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "parent": parent,
        "change": change or "working tree",
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "procedure": ("parent and change alternate, the side that runs first alternating "
                      "between pairs; each run reports medians over its sweeps, and the "
                      "summary gives the median and quartiles (inclusive) of the per-run "
                      "values"),
        "note": args.note,
        "workloads": workloads,
    }
    path = os.path.join(ROOT, args.out)
    doc = {"records": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["records"].append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, data in workloads.items():
        print(f"{workload}: correct runs {data['correct_runs']}, artifact_sha256 "
              f"{data['artifact_sha256']}")
        for name, s in data["summary"].items():
            print(f"  {name}: parent {s['parent_median']:.6g} {s['parent_quartiles']}, change "
                  f"{s['change_median']:.6g}, median gain {s['median_gain']:+.3%} (parent spread "
                  f"{s['parent_spread']:.3%}), change won "
                  f"{s['change_wins']} of {s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
