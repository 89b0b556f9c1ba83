"""Span recorder for the traced benchmark run, and the wrappers it installs.

A traced run wraps public functions and methods of every `hwr` layer from
outside the program.  Each call records one span, ``[name, start, end,
parent, request]``: ``parent`` is the index of the enclosing span in the same
process (-1 for none) and ``request`` groups the spans of one request.  Hooks
that run after a call add counts measured at that boundary (bytes written,
SMO pair steps, tree nodes).  Spans stay in memory until the run ends.

This module imports only the standard library, so the cold-predict launcher
can load it before it times the import of ``hwr.cli``.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("synth", "imaging", "features", "dataset", "dimred", "mlp", "svm", "forest", "cli")


class Tracer:
    """Spans and counters of one process; `install` wraps, `uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``after(tracer, result, args)`` runs once the span has ended, so the
        counting it does is not charged to the layer.
        """
        raw = owner.__dict__[attr]
        target = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._restore.append((owner, attr, raw))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        raw = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return raw(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, doc: dict, request: str) -> None:
        """Append the spans and counts a child process wrote."""
        offset = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, request])
        self.counts.update(doc["counts"])


# ---------------------------------------------------------------------------
# Hooks: counts taken where the work happens


def _file_bytes(counter: str):
    def hook(tracer: Tracer, _result, args) -> None:
        tracer.counts[counter] += os.path.getsize(args[1])
    return hook


def _synth_images(tracer: Tracer, manifest, _args) -> None:
    tracer.counts["synth.images"] += len(manifest)


def _ovo_fit(tracer: Tracer, model, _args) -> None:
    passes = [m.passes for m in model.machines.values()]
    tracer.counts["svm.ovo_fits"] += 1
    tracer.counts["svm.smo_steps"] += sum(passes)
    tracer.counts["svm.smo_steps_max"] += max(passes)
    if tracer.active("svm.grid"):
        tracer.counts["svm.grid_smo_steps"] += sum(passes)


def _grid(tracer: Tracer, result, _args) -> None:
    tracer.counts["svm.grid_cells"] += len(result.table)


def _svm_saved(tracer: Tracer, _result, args) -> None:
    import numpy as np

    rows = np.concatenate([m.support_vectors for m in args[0].machines.values()])
    tracer.counts["svm.sv_rows"] += rows.shape[0]
    tracer.counts["svm.sv_distinct"] += np.unique(rows, axis=0).shape[0]
    _file_bytes("svm.model_bytes")(tracer, None, args)


def _forest_trained(tracer: Tracer, model, _args) -> None:
    for tree in model.trees:
        todo = [(tree, 0)]
        while todo:
            node, depth = todo.pop()
            tracer.counts["forest.nodes"] += 1
            tracer.counts["forest.max_depth"] = max(tracer.counts["forest.max_depth"], depth)
            if not node.is_leaf:
                todo += [(node.left, depth + 1), (node.right, depth + 1)]


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer named in LAYERS."""
    from hwr import cli, dataset, dimred, features, forest, imaging, mlp, svm, synth

    w = tracer.wrap
    w(synth, "synth_generate", "synth.generate", _synth_images)
    w(imaging, "read_pgm", "imaging.read_pgm")
    w(imaging, "preprocess", "imaging.preprocess")
    w(features, "extract_word_features", "features.extract")
    w(features, "hog", "features.hog")
    w(dataset, "read_fmx", "dataset.read_fmx")
    w(dataset, "write_fmx", "dataset.write_fmx", _file_bytes("dataset.fmx_bytes"))
    w(dimred, "pca_fit", "dimred.fit")
    w(dimred, "rp_fit", "dimred.fit")
    w(dimred, "load_reducer", "dimred.load_reducer")
    for cls in (dimred.PcaModel, dimred.ProjectionMatrix):
        w(cls, "transform", "dimred.transform")
        w(cls, "save", "dimred.save", _file_bytes("dimred.model_bytes"))
        w(cls, "load", "dimred.load")
    w(mlp, "train", "mlp.train")
    w(mlp, "batch_gradients", "mlp.sgd_step")
    w(svm, "grid_search", "svm.grid", _grid)
    w(svm, "ovo_train", "svm.ovo_train", _ovo_fit)
    w(svm, "kernel_matrix", "svm.kernel")
    w(forest, "rf_train", "forest.train", _forest_trained)
    for layer, cls, saved in (("mlp", mlp.MlpModel, _file_bytes("mlp.model_bytes")),
                              ("svm", svm.SvmModel, _svm_saved),
                              ("forest", forest.ForestModel, _file_bytes("forest.model_bytes"))):
        w(cls, "predict_batch", f"{layer}.predict")
        w(cls, "save", f"{layer}.save", saved)
        w(cls, "load", f"{layer}.load")
    w(cli, "main", "cli.main")
    w(cli, "load_classifier", "cli.load_classifier")
    w(cli, "cmd_eval", "cli.eval")


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics


def layer_metrics(tracer: Tracer, import_s: list[float], model_parses: list[int]) -> dict:
    """Per-layer values of a traced pass, keyed by metric name.

    ``*_s`` are totals over the pass, ``*_ms`` are medians of one-row
    predictions in the warm stream, ``*.self_s`` is span time not covered by
    child spans, summed per layer.  The ``svm.grid_*`` values are 0 on a
    workload without a grid search.
    """
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    stream_ms: dict[str, list[float]] = defaultdict(list)
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, request) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_s[name.split(".")[0]] += end - start - covered[i]
        if name.endswith(".predict") and request.startswith("stream"):
            stream_ms[name].append(1e3 * (end - start))
    c = tracer.counts
    fit_s = sum(end - start for name, start, end, parent, _ in spans
                if name == "svm.ovo_train" and (parent < 0 or spans[parent][0] != "svm.grid"))
    out = {
        "synth.generate_s": total["synth.generate"],
        "synth.images": c["synth.images"],
        "imaging.read_pgm_s": total["imaging.read_pgm"],
        "imaging.preprocess_s": total["imaging.preprocess"],
        "imaging.images": calls["imaging.read_pgm"],
        "features.hog_s": total["features.hog"],
        "features.hog_calls": calls["features.hog"],
        "dataset.read_fmx_s": total["dataset.read_fmx"],
        "dataset.write_fmx_s": total["dataset.write_fmx"],
        "dataset.fmx_bytes": c["dataset.fmx_bytes"],
        "dimred.fit_s": total["dimred.fit"],
        "dimred.transform_s": total["dimred.transform"],
        "dimred.save_s": total["dimred.save"],
        "dimred.load_s": total["dimred.load"],
        "dimred.model_bytes": c["dimred.model_bytes"],
        "mlp.train_s": total["mlp.train"],
        "mlp.sgd_steps": calls["mlp.sgd_step"],
        "mlp.predict_ms": statistics.median(stream_ms["mlp.predict"]),
        "mlp.model_bytes": c["mlp.model_bytes"],
        "svm.train_s": total["svm.grid"] + fit_s,
        "svm.fit_s": fit_s,
        "svm.grid_s": total["svm.grid"],
        "svm.grid_cells": c["svm.grid_cells"],
        "svm.grid_smo_steps": c["svm.grid_smo_steps"],
        "svm.ovo_fits": c["svm.ovo_fits"],
        "svm.smo_steps": c["svm.smo_steps"],
        "svm.smo_steps_max": c["svm.smo_steps_max"],
        "svm.smo_steps_max_frac": c["svm.smo_steps_max"] / c["svm.smo_steps"],
        "svm.kernel_s": total["svm.kernel"],
        "svm.kernel_calls": calls["svm.kernel"],
        "svm.predict_ms": statistics.median(stream_ms["svm.predict"]),
        "svm.sv_rows": c["svm.sv_rows"],
        "svm.sv_distinct": c["svm.sv_distinct"],
        "svm.sv_distinct_frac": c["svm.sv_distinct"] / c["svm.sv_rows"],
        "svm.save_s": total["svm.save"],
        "svm.load_s": total["svm.load"],
        "svm.model_bytes": c["svm.model_bytes"],
        "forest.train_s": total["forest.train"],
        "forest.nodes": c["forest.nodes"],
        "forest.max_depth": c["forest.max_depth"],
        "forest.predict_ms": statistics.median(stream_ms["forest.predict"]),
        "forest.save_s": total["forest.save"],
        "forest.load_s": total["forest.load"],
        "forest.model_bytes": c["forest.model_bytes"],
        "cli.import_s": statistics.median(import_s),
        "cli.load_classifier_s": total["cli.load_classifier"],
        "cli.model_parses": statistics.median(model_parses),
        "cli.eval_s": total["cli.eval"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out

