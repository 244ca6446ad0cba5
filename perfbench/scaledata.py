"""Seeded input for the ``scale`` workload: the bundled countries, K times.

Replica 0 keeps the plain country codes (table 5 and the ``Germany``
region name them); replica r > 0 suffixes every code with r. Every value
is scaled by its own seeded factor in [0.95, 1.05], which keeps each sign
and each series' shape, and a (country, year) missing from the bundled
data is missing from every replica (Bulgaria before 1998, Greece before
2000). Every region in the regions file is widened to its members'
replicas, so the fits and the stability pairs see K-fold sums.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

REPLICAS = 12
NOISE = 0.05
TABLES = ("gdp.csv", "cab_pct.csv", "ggb.csv")


def replica_code(code: str, r: int) -> str:
    return code if r == 0 else f"{code}{r}"


def generate(bundled: Path, out_dir: Path, seed: int) -> int:
    """Write the three tables and regions.json into out_dir.

    Returns the number of countries written. The same seed writes the
    same bytes.
    """
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    countries: set[str] = set()
    for name in TABLES:
        lines = (bundled / name).read_text(encoding="utf-8").splitlines()
        rows = [ln.split(",") for ln in lines[1:] if ln]
        out = [lines[0]]
        for r in range(REPLICAS):
            for code, year, value in rows:
                scaled = float(value) * (1.0 + rng.uniform(-NOISE, NOISE))
                out.append(f"{replica_code(code, r)},{year},{scaled!r}")
                countries.add(replica_code(code, r))
        (out_dir / name).write_text("\n".join(out) + "\n", encoding="utf-8")
    regions = json.loads((bundled / "regions.json").read_text(encoding="utf-8"))
    widened = {name: sorted(replica_code(c, r) for c in codes
                            for r in range(REPLICAS))
               for name, codes in regions.items()}
    (out_dir / "regions.json").write_text(json.dumps(widened, indent=1) + "\n",
                                          encoding="utf-8")
    return len(countries)
