"""tools/bench_record.py refuses to measure a src or a benchmark with
uncommitted changes."""
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs git")


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    """The tool module, rooted at a throwaway repository with a committed
    src/, perfbench/ and BENCHMARK.json, whose runs fail the test if any
    starts."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *argv], cwd=tmp_path, check=True,
                       capture_output=True)

    for name in ("src", "perfbench"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "mod.py").write_text("x = 1\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "README").write_text("notes\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "init")

    def run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "run", run)
    return module


def test_clean_src_is_not_dirty(bench_record, tmp_path):
    # a change outside src and the benchmark does not count
    (tmp_path / "README").write_text("more notes\n")
    assert bench_record.dirty() == []


@pytest.mark.parametrize("path, text, listed", (
    ("src/mod.py", "x = 2\n", " M src/mod.py"),
    ("src/new.py", "", "?? src/new.py"),
    ("perfbench/mod.py", "x = 2\n", " M perfbench/mod.py"),
    ("BENCHMARK.json", "[]\n", " M BENCHMARK.json"),
), ids=("modified", "untracked", "perfbench", "benchmark-json"))
def test_dirty_src_exits_1_before_any_run(bench_record, tmp_path, capsys,
                                          path, text, listed):
    (tmp_path / path).write_text(text)
    assert bench_record.main(["--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: uncommitted changes in src, perfbench, "
                          "BENCHMARK.json;")
    assert f"\n  {listed}\n" in err
    assert not list(tmp_path.glob("BENCH_*.json"))
