"""Tests of the benchmark itself: input generator, checks, spans, output.

Run with ``python -m pytest perfbench`` from the repository root.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import scaledata
import spans
import worker

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text())


def _rows(path: Path) -> set[tuple[str, str]]:
    lines = path.read_text().splitlines()[1:]
    return {tuple(ln.split(",")[:2]) for ln in lines}


def test_generator_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        scaledata.generate(worker.BUNDLED, tmp_path / name, seed)
    for table in (*scaledata.TABLES, "regions.json"):
        a, b, c = ((tmp_path / d / table).read_bytes() for d in "abc")
        assert a == b
        if table != "regions.json":
            assert a != c


def test_generator_keeps_codes_missing_years_and_regions(tmp_path):
    k = scaledata.REPLICAS
    countries = scaledata.generate(worker.BUNDLED, tmp_path, 5)
    assert countries == 27 * k
    for table in scaledata.TABLES:
        bundled = _rows(worker.BUNDLED / table)
        generated = _rows(tmp_path / table)
        assert generated == {(scaledata.replica_code(c, r), y)
                             for c, y in bundled for r in range(k)}
    cab = _rows(tmp_path / "cab_pct.csv")
    for code in ("DE", "FR", "UK", "IT", "ES", "NL"):
        assert (code, "1995") in cab
    assert ("BG7", "1997") not in cab and ("BG7", "1998") in cab
    assert ("EL3", "1999") not in cab and ("EL3", "2000") in cab
    regions = json.loads((tmp_path / "regions.json").read_text())
    assert len(regions["EU27"]) == 27 * k
    assert "DE11" in regions["EU9+"] and "DE11" not in regions["EU18-"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_command_passes_on_generated_input(tmp_path, seed):
    data = tmp_path / "input"
    countries = scaledata.generate(worker.BUNDLED, data, seed)
    out = tmp_path / "out"
    out.mkdir()
    run = worker.InProcess(["--out", str(out), "--data-dir", str(data),
                            "--regions", str(data / "regions.json")])
    checker = checks.Checker(out, countries=countries)
    for argv in worker.PASS:
        code, _ = run(argv)
        assert checker.problems(argv, code) == [], argv


def test_checker_flags_wrong_and_changed_output(tmp_path):
    goldens = checks.load_goldens(worker.ROOT)
    run = worker.InProcess(["--out", str(tmp_path)])
    checker = checks.Checker(tmp_path, goldens=goldens)
    for argv in (worker.REPORTS[0], worker.FITS[0], worker.STABILITY[0]):
        code, _ = run(argv)
        assert checker.problems(argv, code) == []
    assert checker.problems(worker.FITS[0], 3) == ["exit code 3"]
    summary = tmp_path / "fit_eu9plus_summary.csv"
    summary.write_text(summary.read_text().replace("168.249", "170"))
    assert checker.problems(worker.FITS[0], 0) == [
        "output differs from the first run"]
    checker.digests.clear()
    assert "alpha" in checker.problems(worker.FITS[0], 0)[0]


def test_self_time_on_a_toy_call_tree():
    toy = [
        ("a", 0, 100, -1, None),
        ("b", 10, 40, 0, None),
        ("d", 15, 20, 1, None),
        ("c", 30, 60, 0, None),   # overlaps b: a's children cover 10..60
        ("x", 200, 250, -1, None),
        ("x", 210, 230, 4, 7),    # recursion: inclusive counts x once
    ]
    assert spans.fold(toy) == {
        "a": [1, 100, 50, 0],
        "b": [1, 30, 25, 0],
        "d": [1, 5, 5, 0],
        "c": [1, 30, 30, 0],
        "x": [2, 50, 50, 7],
    }


def test_recorder_wraps_where_callers_look_and_restores(tmp_path):
    run = worker.InProcess(["--out", str(tmp_path)])
    from eubalance import expfit, stability
    originals = (expfit.t_quantile, stability.t_quantile, run.cli.main)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert stability.se_single is expfit.se_single
        assert stability.se_single.__wrapped__ is not None
        code, _ = run(worker.REPORTS[6])
        code2, _ = run(worker.STABILITY[0])
    finally:
        recorder.uninstall()
    assert (code, code2) == (0, 0)
    assert (expfit.t_quantile, stability.t_quantile, run.cli.main) == originals
    fold = spans.fold(recorder.take())
    assert fold["cli.main"][0] == 2
    assert fold["reports.table_7"][0] == 1
    assert fold["dataset.load_bundled"][3] == 459
    assert fold["stability.band_envelope"][0] == 1002
    assert fold["expfit.se_single"][0] > 1002


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-sweep",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=worker.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_workloads_run_py_accepts():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        worker.WORKLOADS)
