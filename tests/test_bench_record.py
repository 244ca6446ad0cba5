"""tools/bench_record.py refuses to measure a src with uncommitted changes."""
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
    src/, whose runs fail the test if any starts."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *argv], cwd=tmp_path, check=True,
                       capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
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
    # a change outside src does not count
    (tmp_path / "README").write_text("more notes\n")
    assert bench_record.dirty_src() == []


@pytest.mark.parametrize("change, listed", (
    (lambda src: (src / "mod.py").write_text("x = 2\n"), " M src/mod.py"),
    (lambda src: (src / "new.py").write_text(""), "?? src/new.py"),
), ids=("modified", "untracked"))
def test_dirty_src_exits_1_before_any_run(bench_record, tmp_path, capsys,
                                          change, listed):
    change(tmp_path / "src")
    assert bench_record.main(["--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: src has uncommitted changes")
    assert f"\n  {listed}\n" in err
    assert not list(tmp_path.glob("BENCH_*.json"))
