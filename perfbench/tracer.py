"""Outside-in span tracer for the tefuse modules, and the per-layer metrics.

The tracer changes nothing under ``src/``. At install time it finds, in every
loaded ``tefuse.*`` module, the public functions defined there and the public
plain methods of the public classes defined there, and wraps each one wherever
a tefuse module namespace holds a reference to it (``transfer_entropy`` is
called through ``tefuse.clustering``, for example). Functions are found at run
time, so a function a later change removes gives zero calls, not a crash.
References held inside containers or closures built at import time are not
rewritten.

A span is (id, parent, name, layer, thread, start, end, rows, key). The layer
is the defining module (``infotheory`` for ``tefuse.infotheory``). The parent
is the innermost open span on the calling thread; a span opened on a worker
thread with nothing open on that thread gets the main thread's innermost open
span, which during pair scoring is ``clustering.cluster``. ``rows`` and
``key`` are filled by the probes below. Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

TE = "infotheory.transfer_entropy"
CLUSTER = "clustering.cluster"
FUSE = "fusion.fuse"
REPORT_WRITERS = ("estimate.report_csv", "estimate.report_json",
                  "estimate.predictions_csv")


def _digest(seq) -> str:
    arr = np.ascontiguousarray(getattr(seq, "symbols", seq))
    h = hashlib.blake2b(arr.tobytes(), digest_size=12)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    return h.hexdigest()


def _te_probe(args, result):
    source, target, k = args[:3]
    return len(target) - int(k) - 1, f"{_digest(source)}:{_digest(target)}:{int(k)}"


def _len_probe(position):
    def probe(args, result):
        return len(args[position]), None
    return probe


def _load_probe(args, result):
    return result.n, None


# Work counts for rate metrics, keyed by span name. A probe that no longer
# fits a refactored signature records nothing instead of failing the run.
PROBES = {
    TE: _te_probe,
    "estimate.train": _len_probe(0),
    "estimate.predict": _len_probe(1),
    "ingest.load_csv": _load_probe,
}
_PROBE_ERRORS = (AttributeError, IndexError, TypeError, ValueError)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            rows = key = None
            if probe is not None:
                try:
                    rows, key = probe(args, result)
                except _PROBE_ERRORS:
                    pass
            self.spans.append((span_id, parent, name, layer,
                               threading.get_ident(), start, end, rows, key))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the loaded tefuse modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "tefuse" or name.startswith("tefuse.")]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self._wrap(value, f"{layer}.{attr}", layer)
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(value, meth,
                                    self._wrap(fn, f"{layer}.{attr}.{meth}", layer))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def dump(self, path) -> None:
        spans = [list(s) for s in sorted(self.spans)]
        doc = {"spans": spans, "te_per_level": te_per_level(spans)}
        Path(path).write_text(json.dumps(doc), "utf-8")


# ---------------------------------------------------------------- analysis

ID, PARENT, NAME, LAYER, THREAD, START, END, ROWS, KEY = range(9)


def _union(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Spans of one process, with parent links and self times."""

    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        self.by_id = {s[ID]: s for s in self.spans}
        self.children: dict[int, list] = {}
        for s in self.spans:
            self.children.setdefault(s[PARENT], []).append(s)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[NAME] == name]

    def self_time(self, span) -> float:
        kids = [(max(c[START], span[START]), min(c[END], span[END]))
                for c in self.children.get(span[ID], ())]
        return (span[END] - span[START]) - _union(k for k in kids if k[0] < k[1])

    def under(self, span, ancestor_id: int) -> bool:
        parent = span[PARENT]
        while parent is not None:
            if parent == ancestor_id:
                return True
            parent = self.by_id[parent][PARENT]
        return False


def te_per_level(spans) -> list[int]:
    """TE calls per fusion level: the calls under ``clustering.cluster``,
    split at the ``fusion.fuse`` calls that close each level."""
    tree = SpanTree(spans)
    counts: list[int] = []
    for cluster in tree.named(CLUSTER):
        fuse_starts = sorted(s[START] for s in tree.children.get(cluster[ID], ())
                             if s[NAME] == FUSE)
        level = Counter(
            sum(1 for f in fuse_starts if f < te[START])
            for te in tree.named(TE) if tree.under(te, cluster[ID])
        )
        counts += [level[i] for i in range(max(level, default=-1) + 1)]
    return counts


def call_counts(trees) -> dict[str, int]:
    return dict(sorted(Counter(s[NAME] for t in trees for s in t.spans).items()))


def layer_metrics(trees: list[SpanTree], threads: int) -> dict[str, float]:
    """Per-layer metrics over the spans of one operation (one tree per
    process). Times are raw seconds."""

    def spans(name):
        return [s for t in trees for s in t.named(name)]

    def self_s(predicate):
        return sum(t.self_time(s) for t in trees for s in t.spans if predicate(s))

    def busy(name):
        return sum(s[END] - s[START] for s in spans(name))

    def rows(name):
        return sum(s[ROWS] or 0 for s in spans(name))

    def rate(name):
        seconds = self_s(lambda s: s[NAME] == name)
        return rows(name) / seconds if seconds > 0 else 0.0

    te = spans(TE)
    te_busy = busy(TE)
    seen, repeats, keyed = set(), 0, 0
    for s in sorted(te, key=lambda s: s[START]):
        if s[KEY] is not None:
            keyed += 1
            repeats += s[KEY] in seen
            seen.add(s[KEY])

    levels = scoring_wall = cluster_self = 0.0
    for t in trees:
        for c in t.named(CLUSTER):
            fuses = [k for k in t.children.get(c[ID], ()) if k[NAME] == FUSE]
            levels += len(fuses)
            scoring_wall += (c[END] - c[START]) - sum(f[END] - f[START] for f in fuses)
            cluster_self += t.self_time(c)

    def layer(name):
        return lambda s: s[LAYER] == name

    return {
        "infotheory.transfer_entropy.calls": len(te),
        "infotheory.transfer_entropy.busy_s": te_busy,
        "infotheory.transfer_entropy.us_per_call": te_busy / len(te) * 1e6 if te else 0.0,
        "infotheory.transfer_entropy.ns_per_row": te_busy / rows(TE) * 1e9 if rows(TE) else 0.0,
        "infotheory.transfer_entropy.repeat_ratio": repeats / keyed if keyed else 0.0,
        "clustering.levels": int(levels),
        "clustering.scoring_wall_s": scoring_wall,
        "clustering.self_s": cluster_self,
        "clustering.pool_efficiency":
            te_busy / (scoring_wall * threads) if scoring_wall > 0 else 0.0,
        "clustering.export_tree.self_s": self_s(lambda s: s[NAME] == "clustering.export_tree"),
        "fusion.merge_pair.calls": len(spans("fusion.merge_pair")),
        "fusion.self_s": self_s(layer("fusion")),
        "sdf.self_s": self_s(layer("sdf")),
        "sdf.repartition.calls": len(spans("sdf.repartition")),
        "embedding.embed.calls": len(spans("embedding.embed")),
        "embedding.embed.self_s": self_s(lambda s: s[NAME] == "embedding.embed"),
        "estimate.train.self_s": self_s(lambda s: s[NAME] == "estimate.train"),
        "estimate.train.rows_per_s": rate("estimate.train"),
        "estimate.predict.self_s": self_s(lambda s: s[NAME] == "estimate.predict"),
        "estimate.predict.rows_per_s": rate("estimate.predict"),
        "estimate.report.self_s": self_s(lambda s: s[NAME] in REPORT_WRITERS),
        "ingest.load_csv.calls": len(spans("ingest.load_csv")),
        "ingest.load_csv.self_s": self_s(lambda s: s[NAME] == "ingest.load_csv"),
        "ingest.load_csv.rows_per_s": rate("ingest.load_csv"),
        "cli.self_s": self_s(layer("cli")),
    }
