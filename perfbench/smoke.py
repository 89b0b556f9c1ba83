"""Smoke test of the benchmark harness on a tiny corpus.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload untraced and traced at a tiny scale, in
`perfbench/.work/smoke/`, and checks that:
- each untraced run emits every end-to-end metric of BENCHMARK.json with its
  unit and passes its output checks;
- each traced run emits every per-layer metric, passes the byte-identity
  checks, and holds a span for every layer;
- a second traced run at the same seed repeats the exact counts, and a
  changed count is reported as drift;
- the benchmark exits nonzero, without a result, when the sources are absent.
The repository's own tests are not involved.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run

TINY_SEED = 42


def main() -> int:
    run.prepare()
    import spans
    import workloads

    tiny = workloads.Scale(per_class=12, keep=160, pca_dim=20, hidden=20, trees=5,
                           stream_per_class=1)
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = run.spec()
    problems = []

    def go(workload: str, traced: bool) -> dict:
        result = workloads.run(workload, TINY_SEED, 1.0, traced, run.ROOT, work, tiny)
        wanted = spec["per_layer" if traced else "end_to_end"]
        _, final = run.report(result, wanted)
        units = {m["name"]: m["unit"] for m in wanted}
        emitted = {name: m["unit"] for name, m in final["metrics"].items()}
        if emitted != units:
            problems.append(f"{workload} trace={traced}: emitted {emitted}, expected {units}")
        if not final["correct"] or result["failures"]:
            problems.append(f"{workload} trace={traced}: {result['failures']}")
        print(f"{workload} trace={int(traced)}: {final['attempted']} operations, "
              f"{final['failed']} failed", flush=True)
        return result

    for name in workloads.WORKLOADS:
        go(name, False)
        result = go(name, True)
        missing = set(spans.LAYERS) - set(result["detail"]["spans_per_layer"])
        if missing:
            problems.append(f"{name}: no spans for layers {sorted(missing)}")
    # the exact counts of the previous traced run are on record: a repeat compares them
    go("pipeline-srp733", True)

    store = work / "drift.json"
    workloads.count_drift(store, "key", dict.fromkeys(workloads.EXACT_COUNTS, 1))
    if not workloads.count_drift(store, "key", dict.fromkeys(workloads.EXACT_COUNTS, 2)):
        problems.append("a changed exact count was not reported as drift")

    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in (run.ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-srp733",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}")

    shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
