"""One sha256 over every output of the 40-command CLI set.

Runs, each as its own ``python -m eubalance.cli`` process on this
checkout's ``src``: tables 1-12, each series of ``reports.FIT_SERIES``
at ``--level`` 0.95, 0.5 and 0.999, and each scope of
``reports.STABILITY_SCOPES`` at eight ``--band-level`` values.
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

from eubalance import reports  # noqa: E402

FIT_LEVELS = ("0.95", "0.5", "0.999")
BAND_LEVELS = ("0.5", "0.8", "0.9", "0.95", "0.97", "0.98", "0.99", "0.999")


def commands() -> list[list[str]]:
    return ([["report", "--table", str(n)] for n in range(1, 13)]
            + [["fit", "--series", s, "--level", lv]
               for s in reports.FIT_SERIES for lv in FIT_LEVELS]
            + [["stability", "--scope", s, "--band-level", lv]
               for s in reports.STABILITY_SCOPES for lv in BAND_LEVELS])


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
