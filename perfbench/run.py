"""eubalance benchmark: one workload, one seed, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {cli-cold,warm-sweep,scale}
        --seed N --seconds S --trace {0,1}

Workloads (why each was chosen is recorded in BENCHMARK.json):

* cli-cold: every command is its own ``python -m eubalance.cli``
  process on the bundled data; interpreter start-up and imports count.
* warm-sweep: commands run in-process through ``eubalance.cli.main`` on
  the bundled data, with both stability scopes also run at band levels
  drawn from the seed.
* scale: commands run in-process on input generated from the seed
  (scaledata.py), passed with ``--data-dir`` and ``--regions``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh set-ups), time of a full pass, p50 and p90 latency of each
command kind with sample counts, and peak memory. A run measures for
``--seconds`` and then only as long as it takes every command kind to
reach 100 samples, so that ten lie beyond the p90. Times are scaled to a
fixed machine speed (reference.py); the human-readable lines give the
raw wall times beside them. ``--trace 1`` reports
the per-layer metrics from a run that records a span around each call
into the package's public functions. Every command's outputs are checked
(checks.py); failed commands are the ``failed`` count of the result.

Human-readable lines come first, with the Python version, CPU count and
source revision; the last line of standard output is the JSON result.
The same record is written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-cold", "warm-sweep", "scale")
SETUP_REPEATS = 4  # set-up-only processes, besides the measuring one
RUN_LIMIT_S = 170


def source_revision() -> dict:
    """The git commit when there is one, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def launch(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--launched", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "eubalance" / "cli.py").is_file():
        print(f"error: no eubalance sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        setups = [launch(args, deadline, setup_only=True)
                  for _ in range(0 if args.trace else SETUP_REPEATS)]
        result = launch(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result)
        wall = statistics.median(r["setup_wall_s"] for r in setups)
        metrics = {"setup_s": (statistics.median(r["setup_s"] for r in setups),
                               "s", f"median of {len(setups)} set-ups; "
                                    f"wall {wall:.4g} s"),
                   **metrics}

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           **source_revision()}
    attempted, failed = result["attempted"], result["failed"]
    print(f"eubalance benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit']}, src sha256 {env['src_sha256'][:16]}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'failed_ratio':34s} {failed / max(attempted, 1):14.6g} "
          f"{'ratio':6s} {failed} of {attempted} commands")

    line = {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps(
        {"args": vars(args), "env": env, "notes": {
            name: note for name, (_, _, note) in metrics.items()}, **line},
        indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
