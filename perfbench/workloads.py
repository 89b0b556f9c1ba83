"""The benchmark's workloads, driven through the real `hwr` CLI path.

pipeline-pca100  The paper's configuration and the fixed workload of the
                 roadmap: features -> PCA-100 -> MLP, SVM with the default
                 (C, gamma) grid, RF -> eval.  SMO inside the grid does most
                 of the work; model I/O and dimred barely register.
pipeline-srp733  The same layers used differently: a sparse random projection
                 to the Johnson-Lindenstrauss dimension of the corpus, SVM at
                 fixed (C, gamma), large model files written and parsed again.

After its pipeline each workload serves with the models it trained: a warm
closed-loop stream of fresh images cut into slices, with one cold
`hwr predict` process after each slice.  Spreading both over the phase keeps
their medians steady on a machine whose speed drifts over seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from hwr import cli, dataset, dimred, features, imaging
from hwr.rng import derive_seed

import spans

CLASSIFIERS = ("mlp", "svm", "rf")
# pipeline-srp733 trains its SVM at the grid's choice at seed 42
FIXED_C, FIXED_GAMMA = "0.5", "0.001953125"
JL_EPS = 0.3
SETUPS = 3  # set-ups per run; setup_s is their median

# A run lasts about a minute on a 2-core machine: set-up ~3 s, the pca100 pipeline
# ~40 s (srp733 ~21 s), then serving: `--seconds` of warm stream plus the cold
# predicts (~1.3 s each behind pca.json, ~5 s behind the 30 MB srp.json).
# name: (reduction method, SVM grid search, cold predicts while serving)
WORKLOADS = {
    "pipeline-pca100": ("pca", True, 5),
    "pipeline-srp733": ("srp", False, 3),
}


@dataclasses.dataclass(frozen=True)
class Scale:
    per_class: int = 56        # synth samples per class: 784 images
    keep: int = 736            # images left after the seeded rejection
    pca_dim: int = 100
    hidden: int = 100
    trees: int = 100
    stream_per_class: int = 5  # fresh images per class for the warm stream

    @property
    def test_size(self) -> int:
        return self.keep - int(0.8 * self.keep)


FULL = Scale()


class BenchFailure(Exception):
    """A step whose outputs later steps need has failed."""


def seeds_of(seed: int) -> dict[str, int]:
    """The workload seed and every seed derived from it."""
    return {"workload": seed, "synth": seed, "split": seed, "train": seed, "reduce": seed,
            "reject": derive_seed(seed, "reject"), "stream": derive_seed(seed, "stream")}


class Pass:
    """One execution of a workload in its own directory, traced or not."""

    def __init__(self, root: Path, work: Path, seed: int, scale: Scale,
                 tracer: spans.Tracer | None = None, repeat: bool = True, serving: bool = True):
        self.root, self.work, self.scale, self.tracer = root, work, scale, tracer
        # a traced run sets up once per pass and compares only the pipeline of its untraced pass
        self.repeat, self.serving = repeat, serving
        self.seeds = seeds_of(seed)
        self.times: dict[str, list[float]] = {}
        self.eval_accuracy: dict[str, float] = {}
        self.stream_hits: dict[str, list[int]] = {name: [0, 0] for name in CLASSIFIERS}
        self.predictions: dict[tuple[str, str], int] = {}
        self.latencies_ms: list[float] = []
        self.import_s: list[float] = []
        self.model_parses: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)

    # -- bookkeeping ------------------------------------------------------

    def record(self, metric: str, seconds: float) -> None:
        self.times.setdefault(metric, []).append(seconds)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def request(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.request = name

    def cli(self, *argv) -> float:
        """Run one `hwr` command in this process; returns its wall time."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        self.check(code == 0, f"hwr {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        if code != 0:
            raise BenchFailure(self.failures[-1])
        return elapsed

    # -- inputs -----------------------------------------------------------

    @property
    def reducer_path(self) -> Path:
        return self.work / f"{self.method}.json"

    def make_inputs(self) -> None:
        """Synthesize the corpus, reject to `keep` images, synthesize the stream."""
        imgs = self.work / "imgs"
        self.cli("synth", "--out", imgs, "--per-class", self.scale.per_class,
                 "--seed", self.seeds["synth"])
        manifest = dataset.load_manifest(imgs / "manifest.csv")
        keep = np.sort(np.random.default_rng(self.seeds["reject"]).choice(
            len(manifest), size=self.scale.keep, replace=False))
        dataset.write_manifest(dataset.Manifest(records=[manifest.records[i] for i in keep],
                                                root=manifest.root), imgs / "kept.csv")
        self.cli("synth", "--out", self.work / "stream",
                 "--per-class", self.scale.stream_per_class, "--seed", self.seeds["stream"])
        self.stream = dataset.load_manifest(self.work / "stream" / "manifest.csv")

    # -- the pipeline -----------------------------------------------------

    def build(self, method: str, grid: bool) -> None:
        """features -> reduce -> train mlp, svm, rf -> eval all three."""
        self.method = method
        w = self.work
        features_s = self.cli("features", "--manifest", w / "imgs" / "kept.csv",
                              "--out", w / "features.fmx")
        self.record("features_s", features_s)
        dim = self.scale.pca_dim if method == "pca" else dimred.jl_min_dim(self.scale.keep, JL_EPS)
        reduce_s = self.cli("reduce", "--in", w / "features.fmx", "--method", method,
                            "--dim", dim, "--seed", self.seeds["reduce"],
                            "--model", self.reducer_path, "--out", w / "reduced.fmx")
        common = ["--in", w / "reduced.fmx", "--labels", w / "features.fmx.labels",
                  "--split-seed", self.seeds["split"]]
        svm_args = ["--grid", "default"] if grid else ["--c", FIXED_C, "--gamma", FIXED_GAMMA]
        extra = {"mlp": ["--hidden", self.scale.hidden], "svm": svm_args,
                 "rf": ["--trees", self.scale.trees]}
        train_s = {name: self.cli("train", *common, "--classifier", name, *extra[name],
                                  "--seed", self.seeds["train"], "--out", w / f"{name}.json")
                   for name in CLASSIFIERS}
        eval_s = [self.cli("eval", *common, "--model", w / f"{name}.json",
                           "--out", w / f"{name}_report.txt", "--json", w / f"{name}_report.json")
                  for name in CLASSIFIERS]
        for name, seconds in train_s.items():
            self.record(f"train_{name}_s", seconds)
        # the sum of the commands' wall times, without the collections between them
        self.record("pipeline_s", features_s + reduce_s + sum(train_s.values()) + sum(eval_s))
        for name in CLASSIFIERS:
            doc = json.loads((w / f"{name}_report.json").read_text())
            self.check(sum(doc["support"]) == self.scale.test_size,
                       f"{name} eval support {sum(doc['support'])}, "
                       f"expected {self.scale.test_size}")
            self.eval_accuracy[name] = doc["accuracy"]

    # -- classification ---------------------------------------------------

    def load_models(self) -> None:
        """Open the models as `hwr predict` does and classify once with each."""
        self.reducer = dimred.load_reducer(self.reducer_path)
        self.models = {name: cli.load_classifier(self.work / f"{name}.json")
                       for name in CLASSIFIERS}
        self.request("warm-up")
        for name in CLASSIFIERS:
            self.classify(name, self.stream.records[0][0])

    def classify(self, name: str, rel: str) -> int:
        """The body of `hwr predict`: image -> HOG -> reduce -> one-row predict."""
        img = imaging.read_pgm(self.stream.root / rel)
        row = features.extract_word_features(img)[None, :]
        return int(self.models[name].predict_batch(self.reducer.transform(row))[0])

    def warm_stream(self, seconds: float) -> None:
        """One client in a closed loop; requests rotate mlp -> svm -> rf."""
        records = self.stream.records
        gc.collect()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            r = len(self.latencies_ms)
            name = CLASSIFIERS[r % len(CLASSIFIERS)]
            rel, label = records[r % len(records)]
            self.request(f"stream-{r}")
            start = time.perf_counter()
            cid = self.classify(name, rel)
            self.latencies_ms.append(1e3 * (time.perf_counter() - start))
            first = self.predictions.setdefault((name, rel), cid)
            self.check(1 <= cid <= 14 and cid == first,
                       f"warm {name} on {rel}: class {cid}, earlier {first}")
            self.stream_hits[name][0] += cid == label
            self.stream_hits[name][1] += 1

    def cold_predict(self, k: int) -> None:
        """One fresh `hwr predict --reducer R --model svm.json` process."""
        records = self.stream.records
        rel = records[(7 * k) % len(records)][0]
        argv = ["predict", "--image", str(self.stream.root / rel),
                "--reducer", str(self.reducer_path), "--model", str(self.work / "svm.json")]
        trace_out = self.work / f"cold-{k}.trace.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "hwr.cli", *argv]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "launch.py"), str(trace_out), *argv]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        gc.collect()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True,
                              timeout=170)
        self.record("predict_cold_s", time.perf_counter() - start)
        self.request(f"check-{k}")
        if ("svm", rel) not in self.predictions:
            self.predictions["svm", rel] = self.classify("svm", rel)
        warm = self.predictions["svm", rel]
        self.check(proc.returncode == 0 and proc.stdout.strip() == str(warm),
                   f"cold predict on {rel}: exit {proc.returncode}, printed "
                   f"{proc.stdout.strip()!r}, warm svm says {warm}; {proc.stderr[-300:]}")
        if self.tracer is not None and proc.returncode == 0:
            doc = json.loads(trace_out.read_text())
            trace_out.unlink()
            self.tracer.merge(doc, f"cold-{k}")
            self.import_s.append(doc["import_s"])
            self.model_parses.append(doc["counts"].get("cli.model_parses", 0))

    def serve(self, seconds: float, colds: int) -> None:
        """`seconds` of warm stream in `colds` slices, each followed by a cold predict."""
        self.load_models()
        for k in range(colds):
            self.warm_stream(seconds / colds)
            self.cold_predict(k)

    # -- the workload -----------------------------------------------------

    def execute(self, workload: str, seconds: float) -> None:
        """Set-up, then the timed pipeline, then serving."""
        method, grid, colds = WORKLOADS[workload]
        for _ in range(SETUPS if self.repeat else 1):
            self.request("setup")
            start = time.perf_counter()
            self.make_inputs()
            self.record("setup_s", time.perf_counter() - start)
        self.request("pipeline")
        self.build(method, grid)
        if self.serving:
            self.serve(seconds, colds)


# ---------------------------------------------------------------------------
# Results


STAGES = ("features_s", "train_mlp_s", "train_svm_s", "train_rf_s")


def end_to_end(p: Pass) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts."""
    values = {name: statistics.median(v) for name, v in p.times.items() if name not in STAGES}
    samples = {name: len(v) for name, v in p.times.items()}
    lat = p.latencies_ms
    values["classify_ms_p50"] = statistics.median(lat)
    values["classify_ms_p95"] = statistics.quantiles(lat, n=100, method="inclusive")[94]
    samples["classify_ms_p50"] = samples["classify_ms_p95"] = len(lat)
    for name in CLASSIFIERS:
        values[f"accuracy_{name}"] = p.eval_accuracy[name]
        samples[f"accuracy_{name}"] = p.scale.test_size
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    values["peak_rss_mb"] = rss / 1024.0
    values["ok_frac"] = 1.0 - len(p.failures) / p.attempted
    samples["ok_frac"] = p.attempted
    return values, samples


def stages(p: Pass) -> dict:
    """Wall times of single commands: too short to be steady, so reported without a bound."""
    return {f"cli.{name}": p.times[name][0] for name in STAGES}


def digest_tree(path: Path) -> dict[str, str]:
    return {str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.rglob("*")) if f.is_file()}


def code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src" / "hwr").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# Counts that must repeat exactly at the same seed, scale, code, numpy and BLAS threads.
EXACT_COUNTS = ("svm.smo_steps", "svm.sv_rows", "svm.sv_distinct", "cli.model_parses",
                "forest.nodes", "dimred.model_bytes", "mlp.model_bytes", "svm.model_bytes",
                "forest.model_bytes")


def count_drift(store: Path, key: str, counts: dict) -> list[str]:
    """Compare exact counts with the last traced run under the same key, then store them."""
    known = json.loads(store.read_text()) if store.exists() else {}
    before = known.get(key, {})
    drift = [f"{name}: {before[name]} before, {counts[name]} now"
             for name in EXACT_COUNTS if name in before and before[name] != counts[name]]
    known[key] = {name: counts[name] for name in EXACT_COUNTS}
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return drift


def environment() -> dict:
    def blas(config: dict) -> str:
        return config.get("Build Dependencies", {}).get("blas", {}).get("version", "unknown")

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | str:
    """The thread count numpy's OpenBLAS reports, or the setting if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"env {os.environ.get('OPENBLAS_NUM_THREADS')}"


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path,
        work_root: Path, scale: Scale = FULL) -> dict:
    """Run one workload.

    The traced form runs set-up and pipeline untraced, then the whole workload
    traced, and compares the two passes' artifacts and pipeline times.
    """
    tag = f"{workload}-s{seed}-{os.getpid()}"
    env = environment()
    if not traced:
        p = Pass(root, work_root / tag, seed, scale)
        passes = [p]
        try:
            p.execute(workload, seconds)
            metrics, samples = end_to_end(p)
            metrics.update(stages(p))
            detail = {"stream_accuracy": {
                name: hits / seen for name, (hits, seen) in p.stream_hits.items()}}
        finally:
            shutil.rmtree(p.work, ignore_errors=True)
    else:
        plain = Pass(root, work_root / f"{tag}-plain", seed, scale, repeat=False, serving=False)
        tracer = spans.Tracer()
        traced_pass = Pass(root, work_root / f"{tag}-traced", seed, scale, tracer, repeat=False)
        passes = [plain, traced_pass]
        try:
            plain.execute(workload, seconds)
            spans.install(tracer)
            try:
                traced_pass.execute(workload, seconds)
            finally:
                tracer.uninstall()
            _compare(plain, traced_pass)
            metrics = spans.layer_metrics(tracer, traced_pass.import_s, traced_pass.model_parses)
            metrics.update(stages(plain))
            untraced_s = plain.times["pipeline_s"][0]
            metrics["trace.overhead_s"] = traced_pass.times["pipeline_s"][0] - untraced_s
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_s
            samples = {"cli.import_s": len(traced_pass.import_s)}
            key = (f"{workload} seed={seed} scale={scale} code={code_digest(root)[:16]} "
                   f"numpy={env['numpy']} blas_threads={env['blas_threads']}")
            drift = count_drift(work_root / "counts.json", key, metrics)
            traced_pass.check(not drift, f"exact counts drifted: {drift}")
            traced_pass.check(len(set(traced_pass.model_parses)) == 1,
                              f"model parses differ between cold predicts: "
                              f"{traced_pass.model_parses}")
            detail = {"spans_per_layer": dict(Counter(s[0].split(".")[0] for s in tracer.spans))}
            (work_root / f"{tag}.spans.json").write_text(json.dumps(tracer.spans))
        finally:
            for q in passes:
                shutil.rmtree(q.work, ignore_errors=True)
    failures = [f for q in passes for f in q.failures]
    return {
        "correct": not failures,
        "attempted": sum(q.attempted for q in passes),
        "failed": len(failures),
        "metrics": metrics,
        "samples": samples,
        "failures": failures,
        "detail": detail,
        "seeds": seeds_of(seed),
        "env": env,
    }


def _compare(a: Pass, b: Pass) -> None:
    """The traced pass must leave the untraced pass's artifacts byte for byte."""
    da, db = digest_tree(a.work), digest_tree(b.work)
    for rel in sorted(set(da) | set(db)):
        b.check(da.get(rel) == db.get(rel), f"artifact {rel} differs between untraced and traced")
