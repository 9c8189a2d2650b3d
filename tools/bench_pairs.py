"""Compare a git revision with the working tree on the percop benchmark.

From the root of a checkout:

    python3 tools/bench_pairs.py --out BENCH_22.json --seeds 41-50

The base revision (default HEAD) is exported with ``git archive`` into a
temporary directory, and the working tree's files, tracked or untracked but
not ignored, are copied beside it, so that both sides run from fresh
directories with no bytecode cache: run from the checkout itself, the
working tree's ``peak_rss_mb`` read up to about 0.5 MB away from its own
fresh copy's.  For each
workload of ``BENCHMARK.json`` and each seed, ``perfbench/run.py`` runs at
the benchmark's ``run_seconds`` size once on the base and once on the
working tree, one after the other, and the
order flips from one seed to the next, so that a drift in machine speed
favours neither side.  Each such pair of runs is one pair.  The output file
holds, for every end-to-end metric of ``BENCHMARK.json``, the median and
quartiles of each side, the change of the medians, and the pairs the working
tree won; and, per workload, whether every pair answered alike
(``answers_sha256``) and how many ops failed.  Only the standard library is
used.  The exit status is 1 when a run fails or a pair answers differently.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """'41-50' -> [41, ..., 50].  A range of fewer than two seeds is an
    argparse error, since the quartiles of one run a side are undefined."""
    lo, _sep, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi) + 1))
    except ValueError:
        seeds = []
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            "expected a range of at least two seeds, such as '41-50': %r" % text)
    return seeds


def export(rev, dest):
    """Write the tree of rev into dest and return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = Path(dest) / "base.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit],
                   cwd=ROOT, check=True)
    tree = Path(dest) / "base"
    with tarfile.open(archive) as tar:
        # the "data" filter where this Python has it (3.11.4 and later)
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return commit, tree


def copy_worktree(dest):
    """Copy the working tree's tracked and untracked files, never the
    ignored ones, into a new directory under dest; return it."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    tree = Path(dest) / "change"
    for name in names:
        src = ROOT / name
        if name and src.is_file():  # a tracked file may be deleted
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, tree / name)
    return tree


def run_once(tree, workload, seed, seconds):
    """One perfbench run: (metrics by name, answers digest, failed ops, meta)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode not in (0, 1) or len(lines) != 2:
        raise RuntimeError("perfbench failed in %s (exit %d): %s"
                           % (tree, proc.returncode, proc.stderr[-2000:]))
    summary, result = lines[0]["perfbench"], lines[1]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, summary["answers_sha256"], result["failed"], summary["meta"]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(workload, seeds, seconds, base_tree, change_tree, declared):
    runs = {"base": [], "change": []}
    answers_equal, failed = True, {"base": 0, "change": 0}
    for i, seed in enumerate(seeds):
        order = [("base", base_tree), ("change", change_tree)]
        if i % 2:
            order.reverse()
        digests = {}
        for side, tree in order:
            metrics, digest, bad, meta = run_once(tree, workload, seed, seconds)
            runs[side].append(metrics)
            digests[side] = digest
            failed[side] += bad
        answers_equal &= digests["base"] == digests["change"]
        print("%s seed %d: wall_s %.3f -> %.3f" % (
            workload, seed, runs["base"][-1]["wall_s"], runs["change"][-1]["wall_s"]),
            file=sys.stderr)
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b, c = spread(base), spread(change)
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "base": b,
            "change": c,
            "median_change": c["median"] / b["median"] - 1,
            "pair_wins": wins,
            "pairs": len(seeds),
        }
    machine = {k: meta[k] for k in ("python", "nproc", "cpu_model")}
    return {"seeds": seeds, "machine": machine, "answers_equal": answers_equal,
            "failed": failed, "metrics": out}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seeds", default="41-50", type=parse_seeds,
                    help="a range of at least two seeds, such as '41-50'")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = args.seeds
    with tempfile.TemporaryDirectory() as tmp:
        commit, base_tree = export(args.base, tmp)
        change_tree = copy_worktree(tmp)
        report = {
            "base": commit,
            "change": "working tree",
            "seconds": seconds,
            "note": "times are perfbench's scaled end-to-end metrics; a pair "
                    "is one run of each side on one seed, in alternating order",
            "workloads": {},
        }
        for workload in bench["workloads"]:
            report["workloads"][workload["name"]] = compare(
                workload["name"], seeds, seconds, base_tree, change_tree,
                bench["end_to_end"])
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    ok = all(w["answers_equal"] and not any(w["failed"].values())
             for w in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
