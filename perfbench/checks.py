"""Correctness checks on the files each CLI command writes.

A command passes when it exits 0, writes every file it should, writes
the same bytes as the first run of the same command line, and, on the
bundled data, reproduces a few golden cells at the tolerances the
repository's tests use: the table 1 Germany row (exact at printed
precision), the four fits' alpha and beta (relative 5e-4) and t0 for
both stability scopes (absolute 1e-3). On generated input, table 1 must
list every generated country. The t_m/t_M cells are not checked: the
acceptance suite already records their known deviation.
"""
from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

FIT_REL_TOL = 5e-4
T0_ABS_TOL = 1e-3


def expected_files(argv) -> tuple[str, ...]:
    kind, _, target = argv[:3]
    if kind == "report":
        return (f"table_{target}.csv", f"table_{target}.txt")
    if kind == "fit":
        return tuple(f"fit_{target}_{part}.{ext}"
                     for part in ("summary", "predictions")
                     for ext in ("csv", "txt"))
    return (f"stability_{target}.csv", f"stability_{target}.txt",
            f"plot_{target}.csv")


def load_goldens(root: Path) -> dict:
    return runpy.run_path(str(root / "tests" / "golden_values.py"))


def _rows(blob: bytes) -> list[list[str]]:
    return [ln.split(",") for ln in blob.decode("utf-8").splitlines()]


def _quantity(blob: bytes, name: str) -> float:
    return float(next(r[1] for r in _rows(blob) if r[0] == name))


class Checker:
    """Checks command outputs in one output directory.

    Give ``goldens`` (the golden_values namespace) for bundled input, or
    ``countries`` (how many were generated) for generated input.
    """

    def __init__(self, out_dir: Path, goldens: dict | None = None,
                 countries: int | None = None) -> None:
        self.out_dir = out_dir
        self.goldens = goldens
        self.countries = countries
        self.digests: dict[tuple[str, ...], str] = {}

    def clear(self, argv) -> None:
        """Remove the files a command is about to write."""
        for name in expected_files(argv):
            (self.out_dir / name).unlink(missing_ok=True)

    def problems(self, argv, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        blobs = {}
        for name in expected_files(argv):
            path = self.out_dir / name
            if not path.is_file():
                return [f"{name} not written"]
            blobs[name] = path.read_bytes()
        digest = hashlib.sha256(b"\0".join(
            name.encode() + b"\0" + blob for name, blob in blobs.items())
        ).hexdigest()
        if self.digests.setdefault(tuple(argv), digest) != digest:
            return ["output differs from the first run"]
        try:
            return self._values(argv, blobs)
        except (StopIteration, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _values(self, argv, blobs) -> list[str]:
        kind, _, target = argv[:3]
        gv = self.goldens
        if kind == "report" and target == "1":
            rows = _rows(blobs["table_1.csv"])
            if gv is None:
                if len(rows) != self.countries + 2:  # header and EU27 total
                    return [f"table 1 has {len(rows) - 2} countries, "
                            f"expected {self.countries}"]
                return []
            got = next(r for r in rows if r[0] == "Germany")[1:]
            want = gv["TABLE1"]["DE"]
            if [float(g) for g in got] != [float(w) for w in want]:
                return [f"table 1 Germany row {got} != {list(want)}"]
        elif gv is None:
            return []
        elif kind == "fit":
            summary = blobs[f"fit_{target}_summary.csv"]
            golden = gv["SUMMARIES"][target]
            for name, want in (("alpha", golden[0]), ("beta", golden[3])):
                got = _quantity(summary, name)
                if abs(got - want) > FIT_REL_TOL * abs(want):
                    return [f"{target} {name} {got} != {want}"]
        elif kind == "stability":
            got = _quantity(blobs[f"stability_{target}.csv"],
                            "t0_turning_point")
            want = gv["TURNING"][target]["t0"]
            if abs(got - want) > T0_ABS_TOL:
                return [f"{target} t0 {got} != {want}"]
        return []
