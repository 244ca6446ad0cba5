"""One benchmark workload in a fresh process: set up, measure, check.

Usage: python perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --launched EPOCH [--setup-only]

Prints one JSON object as its last line. ``run.py`` starts this script
once per run (and a few more times with ``--setup-only`` to time set-up),
so lru_cache contents and peak memory never carry over between runs.

The load is a closed loop with one caller: each command starts when the
previous one has finished. A *pass* is the command set that writes the
paper's full output set: tables 1-12, the four fits and both stability
scopes (warm-sweep adds both scopes at seeded band levels). A *round* is
a pass plus, on cli-cold and scale, repeats of the fit and stability
commands so that each command kind gets 12 samples per round, in a
seeded order.

Untraced runs time every command (end-to-end metrics), each scaled to a
fixed machine speed by a reference timed just before it (reference.py);
the raw wall times are reported beside them. Traced runs alternate
untraced and traced passes; a traced pass records a span around every
call into the package's public functions (see spans.py) and yields the
per-layer metrics, in raw wall time, and the ratio of the two pass
times is the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import reference
import scaledata
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "eubalance" / "data"
WORK = ROOT / ".bench_out"

REPORTS = tuple(("report", "--table", str(n)) for n in range(1, 13))
FITS = tuple(("fit", "--series", s)
             for s in ("eu9plus", "eu18minus", "euro7plus", "euro10minus"))
STABILITY = tuple(("stability", "--scope", s) for s in ("eu", "eurozone"))
PASS = REPORTS + FITS + STABILITY
KINDS = ("report", "fit", "stability")
EQUALIZE = 2 * FITS + 5 * STABILITY
WARM_UP = (REPORTS[0], FITS[0], STABILITY[0])
SWEPT_LEVELS = (0.5, 0.999)
COMMAND_TIMEOUT_S = 60
P90_SAMPLES = 100  # ten samples beyond the 90th percentile
MAX_MEASURE_S = 120
INTERPRETER_PROBES = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import eubalance.cli; "
                "print((time.perf_counter() - t) * 1000)")

WORKLOADS = {
    # name: (each command in a fresh interpreter, generated input,
    #        swept band levels, kind-equalizing repeats)
    "cli-cold": (True, False, False, True),
    "warm-sweep": (False, False, True, False),
    "scale": (False, True, False, True),
}

# Per-layer metric: (how it is read from a pass's fold, span names, unit).
# "ms" sums inclusive time, "self_ms" self time, "calls" call counts and
# "size" the records returned; every figure is per pass.
_LOADS = ("dataset.load_bundled", "dataset.load_files")
LAYER_METRICS = {
    "dataset.load_ms": ("ms", _LOADS, "ms"),
    "dataset.load_calls": ("calls", _LOADS, "count"),
    "dataset.parse_ms": ("ms", ("dataset.parse_table",), "ms"),
    "dataset.assemble_ms": ("ms", ("dataset.assemble",), "ms"),
    "dataset.records": ("size", _LOADS, "count"),
    "dataset.countries_calls": ("calls", ("dataset.Dataset.countries",),
                                "count"),
    "accounting.region_series_ms": ("ms", ("accounting.region_series",),
                                    "ms"),
    "accounting.region_series_calls": ("calls",
                                       ("accounting.region_series",),
                                       "count"),
    "accounting.gdp_share_ms": ("ms", ("accounting.gdp_share",), "ms"),
    "accounting.gdp_share_calls": ("calls", ("accounting.gdp_share",),
                                   "count"),
    "accounting.totals_table_ms": ("ms", ("accounting.totals_table",), "ms"),
    **{f"reports.table_{n}_ms": ("self_ms", (f"reports.table_{n}",), "ms")
       for n in range(1, 13)},
    "reports.sig6_ms": ("ms", ("reports.sig6",), "ms"),
    "reports.sig6_calls": ("calls", ("reports.sig6",), "count"),
    "reports.plot_ms": ("ms", ("reports.plot_data_table",), "ms"),
    "reports.render_ms": ("ms", ("reports.to_csv", "reports.to_text"), "ms"),
    "expfit.fit_ms": ("ms", ("expfit.fit_exponential",), "ms"),
    "expfit.fit_calls": ("calls", ("expfit.fit_exponential",), "count"),
    "expfit.predict_calls": ("calls", ("expfit.predict",), "count"),
    "expfit.se_single_calls": ("calls", ("expfit.se_single",), "count"),
    "expfit.t_quantile_calls": ("calls", ("expfit.t_quantile",), "count"),
    "stability.uncertainty_ms": ("ms", ("stability.uncertainty_interval",),
                                 "ms"),
    "stability.uncertainty_calls": ("calls",
                                    ("stability.uncertainty_interval",),
                                    "count"),
    "stability.turning_points_calls": ("calls",
                                       ("stability.turning_points",),
                                       "count"),
    "stability.band_envelope_calls": ("calls", ("stability.band_envelope",),
                                      "count"),
    "cli.main_self_ms": ("self_ms", ("cli.main",), "ms"),
}


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def end_to_end_metrics(records, rounds: int, peak_rss_mb: float):
    """Name -> (value, unit, note) for an untraced run, but set-up time.

    ``records`` are (kind, round, in pass, wall s, reference ms) per
    command; ``rounds`` counts the rounds that ran to the end."""
    factors = reference.scales([r[4] for r in records])
    scaled = {kind: [] for kind in KINDS}
    wall = {kind: [] for kind in KINDS}
    passes, wall_passes = [0.0] * rounds, [0.0] * rounds
    for (kind, rnd, in_pass, seconds, _), factor in zip(records, factors):
        scaled[kind].append(seconds * factor * 1000)
        wall[kind].append(seconds * 1000)
        if in_pass and rnd < rounds:
            passes[rnd] += seconds * factor
            wall_passes[rnd] += seconds
    out = {"pass_s": (statistics.median(passes), "s",
                      f"median of {rounds} passes; "
                      f"wall {statistics.median(wall_passes):.4g} s")}
    for kind in KINDS:
        xs, raw = scaled[kind], wall[kind]
        p90 = _p90(xs)
        out[f"{kind}_ms_p50"] = (
            statistics.median(xs), "ms",
            f"n={len(xs)}; wall {statistics.median(raw):.4g} ms")
        out[f"{kind}_ms_p90"] = (
            p90, "ms", f"n={len(xs)}, {sum(x > p90 for x in xs)} beyond; "
                       f"wall {_p90(raw):.4g} ms")
    out["peak_rss_mb"] = (peak_rss_mb, "MB", "largest process")
    return out


def layer_metrics(folds, cache, traced_s, untraced_s, probes):
    """Name -> (value, unit, note) for a traced run."""
    def read(fold, how, names):
        if how == "size":
            return max(fold.get(n, (0, 0, 0, 0))[3] for n in names)
        field = {"calls": 0, "ms": 1, "self_ms": 2}[how]
        total = sum(fold[n][field] for n in names if n in fold)
        return total if how == "calls" else total / 1e6

    note = f"per pass, median of {len(folds)} traced passes"
    out = {"import.eubalance_ms": (statistics.median(probes["import"]), "ms",
                                   f"median of {len(probes['import'])}"),
           "interp.bare_ms": (statistics.median(probes["bare"]), "ms",
                              f"median of {len(probes['bare'])}")}
    for name, (how, names, unit) in LAYER_METRICS.items():
        out[name] = (statistics.median(read(f, how, names) for f in folds),
                     unit, note)
    hits, misses = cache
    out["expfit.t_quantile_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
        f"{hits} hits of {hits + misses} cache lookups")
    out["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(untraced_s), "ratio",
        f"{len(traced_s)} traced over {len(untraced_s)} untraced passes")
    return out


class InProcess:
    """Runs commands through eubalance.cli.main in this process."""

    def __init__(self, prefix) -> None:
        sys.path.insert(0, str(SRC))
        from eubalance import cli, expfit
        self.cli, self.expfit = cli, expfit
        self.prefix = list(prefix)
        self.sink = open(os.devnull, "w", encoding="utf-8")

    def __call__(self, argv):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                code = self.cli.main([*self.prefix, *argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = "exception"
        return code, time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Subprocess:
    """Runs each command as ``python -m eubalance.cli`` in a new process;
    traced commands run through tracecli.py, which writes spans_path."""

    def __init__(self, prefix, spans_path: Path) -> None:
        self.prefix = list(prefix)
        self.spans_path = spans_path
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def __call__(self, argv, traced=False):
        if traced:
            cmd = [sys.executable, str(HERE / "tracecli.py"),
                   str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "eubalance.cli"]
        start = time.perf_counter()
        try:
            proc = subprocess.run([*cmd, *self.prefix, *argv],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, env=self.env,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        return proc.returncode, elapsed

    def take_spans(self):
        data = json.loads(self.spans_path.read_text(encoding="utf-8"))
        self.spans_path.unlink()
        return data["spans"], data["t_quantile"]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def bare_ms(self) -> float:
        """Wall milliseconds a bare fresh interpreter takes."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       env=self.env, timeout=COMMAND_TIMEOUT_S)
        return (time.perf_counter() - start) * 1000

    def import_ms(self) -> float:
        """Milliseconds a fresh interpreter spends importing eubalance.cli."""
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                             capture_output=True, text=True, env=self.env,
                             timeout=COMMAND_TIMEOUT_S)
        return float(out.stdout)


class Workload:
    def __init__(self, name: str, seed: int, work: Path) -> None:
        cold, generated, self.swept, self.equalize = WORKLOADS[name]
        self.rng = random.Random(seed)
        out = work / "out"
        out.mkdir(parents=True)
        prefix = ["--out", str(out)]
        if generated:
            data = work / "input"
            countries = scaledata.generate(BUNDLED, data, seed)
            prefix += ["--data-dir", str(data),
                       "--regions", str(data / "regions.json")]
            self.checker = checks.Checker(out, countries=countries)
        else:
            self.checker = checks.Checker(out,
                                          goldens=checks.load_goldens(ROOT))
        self.subprocess = Subprocess(prefix, work / "spans.json")
        self.run = self.subprocess if cold else InProcess(prefix)
        self.attempted = self.failed = 0
        for argv in WARM_UP:
            self.command(argv)
        self.attempted = self.failed = 0

    def round(self, extras: bool):
        """One pass, plus the kind-equalizing repeats when asked, shuffled.

        Yields (argv, belongs to the pass)."""
        cmds = [(argv, True) for argv in PASS]
        if self.swept:
            cmds += [((*argv, "--band-level",
                       repr(self.rng.uniform(*SWEPT_LEVELS))), True)
                     for argv in STABILITY]
        if extras and self.equalize:
            cmds += [(argv, False) for argv in EQUALIZE]
        self.rng.shuffle(cmds)
        return cmds

    def command(self, argv, traced=False) -> tuple[float, float]:
        """Run and check one command; return its wall time in seconds and
        the reference time (ms) taken just before it."""
        self.checker.clear(argv)
        ref = reference.reference_ms()
        code, elapsed = self.run(argv, traced=True) if traced \
            else self.run(argv)
        problems = self.checker.problems(argv, code)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}",
                  file=sys.stderr)
        return elapsed, ref

    def measure(self, seconds: float):
        """Untraced rounds for ``seconds``, then on until every command
        kind has the samples a p90 needs (at most MAX_MEASURE_S).

        Returns the records end_to_end_metrics takes and the number of
        rounds that ran to the end."""
        records = []
        counts = dict.fromkeys(KINDS, 0)
        start = time.perf_counter()
        rounds = 0
        while True:
            for argv, in_pass in self.round(extras=True):
                elapsed = time.perf_counter() - start
                if rounds and elapsed >= seconds and (
                        min(counts.values()) >= P90_SAMPLES
                        or elapsed >= MAX_MEASURE_S):
                    return records, rounds
                records.append((argv[0], rounds, in_pass,
                                *self.command(argv)))
                counts[argv[0]] += 1
            rounds += 1

    def trace(self, seconds: float, spans_out: Path):
        """Alternate untraced and traced passes until the time is up."""
        probes = {"bare": [], "import": []}
        for _ in range(INTERPRETER_PROBES):
            probes["bare"].append(self.subprocess.bare_ms())
            probes["import"].append(self.subprocess.import_ms())
        folds, traced_s, untraced_s = [], [], []
        cache = [0, 0]  # t_quantile hits and misses in traced passes
        deadline = time.perf_counter() + seconds
        while not traced_s or time.perf_counter() < deadline:
            untraced_s.append(self._scaled_sum(
                [self.command(argv) for argv, _ in self.round(extras=False)]))
            pass_s, batches = self._traced_pass(cache)
            traced_s.append(pass_s)
            fold: dict[str, list[int]] = {}
            for batch in batches:
                spans.merge(fold, spans.fold(batch))
            folds.append(fold)
        write_spans(spans_out, batches)
        return layer_metrics(folds, cache, traced_s, untraced_s, probes)

    def _traced_pass(self, cache: list[int]):
        """One pass with spans recorded: its scaled time, and its spans as
        one batch per process that ran."""
        if isinstance(self.run, InProcess):
            t_quantile = self.run.expfit.t_quantile
            before = t_quantile.cache_info()
            recorder = spans.Recorder()
            recorder.install()
            try:
                timings = [self.command(argv) for argv, _
                           in self.round(extras=False)]
            finally:
                recorder.uninstall()
            after = t_quantile.cache_info()
            cache[0] += after.hits - before.hits
            cache[1] += after.misses - before.misses
            return self._scaled_sum(timings), [recorder.take()]
        timings, batches = [], []
        for argv, _ in self.round(extras=False):
            timings.append(self.command(argv, traced=True))
            if self.subprocess.spans_path.exists():
                batch, (hits, misses) = self.subprocess.take_spans()
                cache[0] += hits
                cache[1] += misses
                batches.append(batch)
        return self._scaled_sum(timings), batches

    def _scaled_sum(self, timings) -> float:
        """Scaled seconds of (wall s, reference ms) timings."""
        walls, refs = zip(*timings)
        return sum(w * f for w, f in zip(walls, reference.scales(refs)))


def write_spans(path: Path, batches) -> None:
    """Write spans as TSV; each batch's indices are offset to stay unique.

    ``request`` is the index of the root span (the cli.main call) that
    the span belongs to."""
    lines = ["request\tindex\tparent\tname\tstart_ns\tend_ns\tsize"]
    offset = 0
    for batch in batches:
        request = []
        for i, (name, start, end, parent, size) in enumerate(batch):
            request.append(i if parent < 0 else request[parent])
            lines.append("\t".join(map(str, (
                request[i] + offset, i + offset,
                parent + offset if parent >= 0 else -1, name, start, end,
                "" if size is None else size))))
        offset += len(batch)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() when the parent started this "
                             "process, so set-up includes interpreter start")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = Workload(args.workload, args.seed, work)
        wall = time.time() - args.launched
        ref = statistics.median(reference.reference_ms() for _ in range(3))
        result = {"setup_s": wall * reference.NOMINAL_MS / ref,
                  "setup_wall_s": wall}
        if args.setup_only:
            pass
        elif args.trace:
            result["metrics"] = workload.trace(
                args.seconds,
                WORK / f"spans-{args.workload}-seed{args.seed}.tsv")
        else:
            result["metrics"] = end_to_end_metrics(
                *workload.measure(args.seconds), workload.run.peak_rss_mb())
        result["attempted"] = workload.attempted
        result["failed"] = workload.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
