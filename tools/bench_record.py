"""Record one point of the benchmark trajectory as BENCH_<commit12>.json.

Runs ``perfbench/run.py`` for every workload in BENCHMARK.json, at
``--trace 0`` (end-to-end metrics) and ``--trace 1`` (per-layer metrics),
for one seed at the benchmark's ``run_seconds``:

    python tools/bench_record.py --seed N

The file, written at the root of this checkout, holds each run's JSON
result line with the commit and ``src`` sha256 that run.py reported for
it. The sha256 identifies the measured source even when the file is
committed after the commit it names. A ``src`` with uncommitted changes
is refused before any run, so a file never names a commit whose source
it did not measure.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py invocation: its result line and the env it reported."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_out" / (f"result-{workload}-seed{seed}"
                                    f"-trace{trace}.json")
    env = json.loads(record.read_text(encoding="utf-8"))["env"]
    return {"workload": workload, "trace": trace, "env": env, **line}


def dirty_src() -> list[str]:
    """``git status --porcelain`` lines for changed or untracked ``src``
    paths."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    dirty = dirty_src()
    if dirty:
        print("error: src has uncommitted changes; commit them first:",
              *dirty, sep="\n  ", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            print(f"{workload} trace={trace} ...", file=sys.stderr,
                  flush=True)
            runs.append(run(workload, args.seed, seconds, trace))
    revisions = {(r["env"]["commit"], r["env"]["src_sha256"]) for r in runs}
    if len(revisions) != 1:
        print(f"error: the source changed during the runs: {revisions}",
              file=sys.stderr)
        return 1
    (commit, src_sha256), = revisions
    path = ROOT / f"BENCH_{(commit or 'nocommit')[:12]}.json"
    record = {"commit": commit, "src_sha256": src_sha256, "seed": args.seed,
              "run_seconds": seconds, "runs": runs}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
