"""One sha256 over every output of the 40-command CLI set.

Runs each argv that ``eubalance.cli.COMMANDS`` declares, in its own
``python -m eubalance.cli`` process on this checkout's ``src``: 12 tables,
4 fit series at 3 ``--level`` values and 2 scopes at 8 ``--band-level``.
The digest covers each command's argv, exit code, stdout, stderr and
every file it writes, so two checkouts that print the same digest
produce byte-identical output.

    python tools/output_digest.py [--data-dir DIR] [--regions FILE]
    python tools/output_digest.py --generated SEED

``--generated SEED`` digests the input that
``perfbench/scaledata.generate(<bundled data>, DIR, SEED)`` writes to a
temporary DIR, run with ``--data-dir DIR --regions DIR/regions.json``.

Compare digests on one machine only: ``math.exp`` may differ in the last
bit between platforms' libm, which moves some printed digits.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from eubalance import cli  # noqa: E402


def commands() -> list[list[str]]:
    """Each command's subject values in turn, each at its digest levels."""
    argvs = []
    for name, (_, _, (flag, values, _), level) in cli.COMMANDS.items():
        level_argvs = [[level[0], lv] for lv in level[3]] if level else [[]]
        argvs += [[name, flag, str(value), *level_argv]
                  for value in values for level_argv in level_argvs]
    return argvs


def digest(data_args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    h = hashlib.sha256()
    for argv in commands():
        with tempfile.TemporaryDirectory() as out:
            proc = subprocess.run(
                [sys.executable, "-m", "eubalance.cli", *data_args,
                 "--out", out, *argv],
                capture_output=True, env=env, check=False)
            h.update(" ".join(argv).encode() + b"\0")
            h.update(f"{proc.returncode}\0".encode())
            h.update(proc.stdout + b"\0" + proc.stderr + b"\0")
            for path in sorted(Path(out).iterdir()):
                h.update(path.name.encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data-dir")
    parser.add_argument("--regions")
    parser.add_argument("--generated", type=int, metavar="SEED")
    args = parser.parse_args(argv)
    if args.generated is not None:
        if args.data_dir or args.regions:
            parser.error("--generated replaces --data-dir and --regions")
        sys.path.insert(0, str(ROOT / "perfbench"))
        import scaledata

        with tempfile.TemporaryDirectory() as tmp:
            scaledata.generate(SRC / "eubalance" / "data", Path(tmp),
                               args.generated)
            print(digest(["--data-dir", tmp,
                          "--regions", str(Path(tmp) / "regions.json")]))
        return 0
    data_args = []
    if args.data_dir:
        data_args += ["--data-dir", args.data_dir]
    if args.regions:
        data_args += ["--regions", args.regions]
    print(digest(data_args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
