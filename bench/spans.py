"""Span tracing of topopeaks from outside the package.

The tracer wraps the public functions of each module (plus
``LabeledDataset.subset`` and the process pool of ``features``) while it is
installed, records one span per call in memory, and restores the originals
when it is removed. A module that imported a function by name holds its own
reference, so every module attribute bound to a wrapped function is patched.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import types

LAYERS = ("core", "persistence", "features", "simulate", "classify", "diagram", "cli")


def _count_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(c for c in (node.left, node.right) if c is not None)
    return count


# Counts per wrapped function: from its arguments, taken before the call so
# that a call that raises is counted too, or from its result.
_ARG_COUNTS = {
    "core.load_dataset_csv": lambda a: {"csv_bytes": sum(os.path.getsize(p) for p in a[:2])},
    "features.build_matrix": lambda a: {"rows": a[0].n},
    "diagram.bottleneck_distance": lambda a: {"points": len(a[0]) + len(a[1])},
}
_RESULT_COUNTS = {
    "persistence.transform": lambda r: {"maxima": len(r)},
    "classify.fit_logistic": lambda r: {"newton_iters": r.n_iter},
    "classify.fit_forest": lambda r: {"forest_nodes": sum(_count_nodes(t) for t in r.trees)},
}


class Tracer:
    """Records spans ``[label, phase, start, end, parent, counts, error]``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.phase = "setup"
        self.pool_starts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label):
        arg_counts = _ARG_COUNTS.get(label)
        result_counts = _RESULT_COUNTS.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            counts = arg_counts(args) if arg_counts else {}
            span = [label, tracer.phase, time.perf_counter(), None, parent, counts, None]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if result_counts:
                counts.update(result_counts(result))
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        pkg = self.package
        modules = {layer: getattr(pkg, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        dataset_cls = pkg.core.LabeledDataset
        self._patch(dataset_cls, "subset", self._wrap(dataset_cls.subset, "core.subset"))

        tracer = self
        base_pool = pkg.features.ProcessPoolExecutor

        class CountingPool(base_pool):
            def __init__(self, *args, **kwargs):
                tracer.pool_starts[tracer.phase] = tracer.pool_starts.get(tracer.phase, 0) + 1
                super().__init__(*args, **kwargs)

        self._patch(pkg.features, "ProcessPoolExecutor", CountingPool)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, label, phase="ops"):
        return [s[3] - s[2] for s in self.spans if s[0] == label and s[1] == phase]

    def total(self, label, phase="ops"):
        return sum(self.durations(label, phase))

    def calls(self, label, phase="ops"):
        return len(self.durations(label, phase))

    def count(self, label, key, phase="ops"):
        return sum(s[5].get(key, 0) for s in self.spans if s[0] == label and s[1] == phase)

    def self_time(self, label, phase="ops"):
        """Summed duration of the label's spans minus their direct children's."""
        child = {}
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] = child.get(s[4], 0.0) + (s[3] - s[2])
        return sum(s[3] - s[2] - child.get(i, 0.0)
                   for i, s in enumerate(self.spans) if s[0] == label and s[1] == phase)

    def p50(self, label, phase="ops"):
        d = self.durations(label, phase)
        return statistics.median(d) if d else 0.0

    def dump(self):
        return [{"name": s[0], "phase": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "counts": s[5], "error": s[6]} for s in self.spans]
