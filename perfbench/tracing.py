"""Spans around the calls into each prisomap module, for the traced run.

The tracer wraps every public function of each module, plus the few
private ones a per-layer metric needs, by replacing the attribute in every
``prisomap`` module that holds it: ``cli``, ``embed`` and ``bench`` import
names directly, so patching only the defining module would miss their calls.
``numpy.linalg.eigh`` and ``scipy.linalg.eigh`` are wrapped too, to tell
dense eigensolves apart.

Each call keeps a span in memory (name, start, end, parent, op id and a few
sizes). A span's self time is its duration minus the durations of its
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("datasets", "graph", "geodesics", "embed", "linalg", "evaluate", "bench", "cli")
PRIVATE_HOOKS = {"graph._knn_candidates"}  # one call is one k-NN candidate pass
DENSE_EIGH = (("numpy.linalg", "eigh"), ("scipy.linalg", "eigh"))
OP = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note", "child_s")

    def __init__(self, name: str, parent: "Span | None", op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.note: dict | None = None
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs.get(name)


def _n2_bytes(args, kwargs, result) -> dict:
    """Computed, not measured: 8*n*n bytes per n x n array passed in or returned."""
    total = 0
    for a in (*args, *kwargs.values(), result):
        if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]:
            total += 8 * a.shape[0] ** 2
    return {"n2_bytes": total}


def _knn_key(args, kwargs, result) -> dict:
    data = np.ascontiguousarray(_arg(args, kwargs, 0, "data"))
    digest = hashlib.sha256(data.tobytes()).hexdigest()[:16]
    return {"key": f"{digest}:{data.shape}:{_arg(args, kwargs, 1, 'k')}"}


def _file_bytes(index: int, name: str):
    def note(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return note


def _vertices(args, kwargs, result) -> dict:
    return {"vertices": int(getattr(_arg(args, kwargs, 0, "graph"), "n", 0))}


def _clamped(args, kwargs, result) -> dict:
    res = result[0] if isinstance(result, tuple) else result
    return {"clamped": int(getattr(res, "clamped_count", 0))}


NOTES = {
    "graph._knn_candidates": _knn_key,
    "geodesics.all_pairs": _vertices,
    "geodesics.load_geodesics": _file_bytes(0, "path"),
    "geodesics.save_geodesics": _file_bytes(1, "path"),
}


def _note_for(name: str):
    if name == "linalg.mds_coordinates":
        return lambda a, k, r: {**_n2_bytes(a, k, r), **_clamped(a, k, r)}
    if name.startswith("linalg."):
        return _n2_bytes
    return NOTES.get(name)


class Tracer:
    """Installs wrappers around prisomap's functions and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self._wrappers = self._build_wrappers()

    def begin(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds

    def _wrap(self, name: str, fn):
        note = _note_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        originals: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"prisomap.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE_HOOKS)):
                    originals[id(obj)] = (obj, name)
        for modname, attr in DENSE_EIGH:
            obj = getattr(importlib.import_module(modname), attr)
            originals[id(obj)] = (obj, "dense_eigh")
        return {key: (fn, self._wrap(name, fn)) for key, (fn, name) in originals.items()}

    def install(self) -> None:
        targets = [m for n, m in sys.modules.items()
                   if n == "prisomap" or n.startswith("prisomap.")]
        targets += [sys.modules[modname] for modname, _ in DENSE_EIGH]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "op": s.op, "note": s.note,
                }) + "\n")


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced op, from its spans (root span first)."""
    root = spans[0]
    assert root.name == OP

    def total(*names: str) -> float:
        return sum(s.seconds for s in _outermost(spans, set(names)))

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def notes(name: str, key: str) -> int:
        return sum(s.note.get(key, 0) for s in spans if s.name.startswith(name) and s.note)

    passes = named("graph._knn_candidates")
    keys = {s.note["key"] for s in passes if s.note}
    eigs = named("linalg.symmetric_eig")
    dense = sum(1 for e in eigs if any(_descends(s, e) for s in named("dense_eigh")))
    non_cli_self = sum(s.self_s for s in spans[1:] if s.layer != "cli")
    return {
        "datasets.load_csv.s": total("datasets.load_csv"),
        "graph.knn.s": total("graph.knn_edge_lengths", "graph.knn_graph", "graph.pr_density"),
        "graph.knn_passes": len(passes),
        "graph.knn_yield": len(keys) / len(passes) if passes else 0.0,
        "geodesics.all_pairs.s": total("geodesics.all_pairs"),
        "geodesics.all_pairs.calls": len(named("geodesics.all_pairs")),
        "geodesics.all_pairs.vertices": notes("geodesics.all_pairs", "vertices"),
        "geodesics.cache_read.s": total("geodesics.load_geodesics"),
        "geodesics.cache_read.bytes": notes("geodesics.load_geodesics", "bytes"),
        "geodesics.cache_write.s": total("geodesics.save_geodesics"),
        "geodesics.cache_write.bytes": notes("geodesics.save_geodesics", "bytes"),
        "embed.embed_geodesics.self_s": sum(s.self_s for s in named("embed.embed_geodesics")),
        "embed.save_csv.s": total("embed.save_embedding_csv"),
        "linalg.eig.s": total("linalg.symmetric_eig"),
        "linalg.eig.calls": len(eigs),
        "linalg.eig.dense_calls": dense,
        "linalg.double_center.s": total("linalg.double_center"),
        "linalg.n2_bytes": notes("linalg.", "n2_bytes"),
        "linalg.clamped_count": notes("linalg.mds_coordinates", "clamped"),
        "evaluate.tc.s": total("evaluate.trustworthiness_continuity"),
        "evaluate.knn_cv.s": total("evaluate.knn_classify_cv"),
        "evaluate.stress.s": total("evaluate.stress"),
        "evaluate.density.s": total("evaluate.uniformity_cv"),
        "bench.run_bench.self_s": sum(s.self_s for s in named("bench.run_bench")),
        "cli.self_s": root.seconds - non_cli_self,
    }


def _descends(span: Span, ancestor: Span) -> bool:
    p = span.parent
    while p is not None:
        if p is ancestor:
            return True
        p = p.parent
    return False


def spans_by_op(spans: list[Span]) -> dict[int, list[Span]]:
    """Group spans by op id; each group starts with the op's root span."""
    ops: dict[int, list[Span]] = {}
    for s in spans:
        ops.setdefault(s.op, []).append(s)
    return ops
