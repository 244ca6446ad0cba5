"""Call spans around eubalance's public functions, and their per-name sums.

A span is one call: its name, start and end (``perf_counter_ns``), the
index of the span that was open when it began (-1 for a root) and, for
dataset loads, the number of records returned. The recorder wraps the
functions in every eubalance module namespace where a caller looks them
up, appends spans to in-memory lists while the program runs, and hands
them over only when asked, so a call costs two clock reads and a few
appends. Nothing inside ``src/`` is edited: wrappers are installed and
removed from outside.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter

MODULES = ("cli", "dataset", "accounting", "expfit", "stability", "reports")

# Public functions wrapped, by defining module. The twelve table builders
# are left unwrapped so that a table's span (build_table) keeps their
# work as its self time.
WRAPPED = {
    "cli": ("main",),
    "dataset": ("load_bundled", "load_files", "parse_table", "assemble"),
    "accounting": ("bundled_regions", "load_regions", "region_series",
                   "region_total", "totals_table", "gdp_share"),
    "expfit": ("fit_exponential", "predict", "se_single", "t_quantile",
               "param_confidence_interval", "r_squared"),
    "stability": ("turning_points", "uncertainty_interval", "band_envelope",
                  "gap_eval", "phase_label"),
    "reports": ("build_table", "sig6", "to_csv", "to_text",
                "fit_series_points", "fit_summary_table", "prediction_table",
                "stability_table", "plot_data_table"),
}

# Spans whose size field records len(result).
SIZED = frozenset({"dataset.load_bundled", "dataset.load_files"})


def _table_name(args, kwargs) -> str:
    table_id = kwargs["table_id"] if "table_id" in kwargs else args[2]
    return f"reports.table_{table_id}"


class Recorder:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.sizes: dict[int, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, sizes, clock = self._stack, self.sizes, time.perf_counter_ns
        sized = name in SIZED
        by_table = name == "reports.build_table"

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(_table_name(args, kwargs) if by_table else name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if sized:
                sizes[i] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a eubalance module holds it."""
        if self._undo:
            raise RuntimeError("recorder already installed")
        mods = {m: importlib.import_module(f"eubalance.{m}") for m in MODULES}
        for owner, fnames in WRAPPED.items():
            for fname in fnames:
                original = getattr(mods[owner], fname)
                wrapper = self._wrap(f"{owner}.{fname}", original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        dataset_cls = mods["dataset"].Dataset
        prop = vars(dataset_cls)["countries"]
        self._undo.append((dataset_cls, "countries", prop))
        dataset_cls.countries = property(
            self._wrap("dataset.Dataset.countries", prop.fget))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def take(self) -> list[tuple[str, int, int, int, int | None]]:
        """Hand over the spans recorded so far and start afresh."""
        if len(self._stack) != 1:
            raise RuntimeError("spans taken while a call is open")
        spans = [(n, s, e, p, self.sizes.get(i)) for i, (n, s, e, p)
                 in enumerate(zip(self.names, self.starts, self.ends,
                                  self.parents))]
        for store in (self.names, self.starts, self.ends, self.parents,
                      self.sizes):
            store.clear()
        return spans


def fold(spans) -> dict[str, list[int]]:
    """Per span name: [calls, inclusive ns, self ns, largest size].

    ``spans`` are (name, start, end, parent, size) in start order, parents
    indexing the same list. Self time is a span's duration minus the part
    of it that its child spans cover. Inclusive time counts only spans with
    no open ancestor of the same name, so recursion is not counted twice.
    """
    covered = [0] * len(spans)
    reach = [s for _, s, _, _, _ in spans]  # end of the covered prefix
    for name, start, end, parent, _ in spans:
        if parent < 0:
            continue
        p_end = spans[parent][2]
        lo, hi = max(start, reach[parent]), min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi

    stats: dict[str, list[int]] = {}
    open_names: Counter[str] = Counter()
    stack: list[int] = []
    for i, (name, start, end, parent, size) in enumerate(spans):
        while stack and stack[-1] != parent:
            open_names[spans[stack.pop()][0]] -= 1
        entry = stats.setdefault(name, [0, 0, 0, 0])
        entry[0] += 1
        if not open_names[name]:
            entry[1] += end - start
        entry[2] += end - start - covered[i]
        if size is not None:
            entry[3] = max(entry[3], size)
        stack.append(i)
        open_names[name] += 1
    return stats


def merge(total: dict[str, list[int]], part: dict[str, list[int]]) -> None:
    """Add one fold into another, in place."""
    for name, (calls, incl, own, size) in part.items():
        entry = total.setdefault(name, [0, 0, 0, 0])
        entry[0] += calls
        entry[1] += incl
        entry[2] += own
        entry[3] = max(entry[3], size)
