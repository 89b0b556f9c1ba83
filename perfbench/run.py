"""Benchmark of the `hwr` recognizer: one workload per call.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pipeline-pca100 --seed 42 --seconds 8 --trace 0

The program under test is the `hwr` package in the checkout's `src/`.  With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it runs the workload untraced and then traced, compares their
artifacts and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.  A detailed
result, with the environment and every derived seed, is written under
`perfbench/.work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
# Fixed, and set before numpy loads: the thread count changes the last bits of
# BLAS results and with them SMO step counts.  2 is the core count of the
# machine the bounds were set on.
BLAS_THREADS = "2"


def prepare() -> None:
    """Pin the BLAS threads and put the checkout's `src/` first on the path."""
    src = ROOT / "src"
    if not (src / "hwr" / "cli.py").is_file():
        raise FileNotFoundError(f"no hwr sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("HWR_SEED", None)
    sys.path.insert(0, str(src))


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result: dict, wanted: list[dict]) -> tuple[list[str], dict]:
    """Human-readable lines and the final JSON object of one run."""
    metrics = result["metrics"]
    missing = sorted({m["name"] for m in wanted} - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    lines = ["seeds " + json.dumps(result["seeds"]), "env " + json.dumps(result["env"])]
    for m in wanted:
        n = result["samples"].get(m["name"], 1)
        lines.append(f"  {m['name']:<26} {metrics[m['name']]:>16.6g} {m['unit']:<8} n={n}")
    names = {m["name"] for m in wanted}
    extra = {name: value for name, value in metrics.items() if name not in names}
    extra["failed_frac"] = result["failed"] / result["attempted"]
    lines.append("  not in BENCHMARK.json:")
    for name, value in extra.items():
        lines.append(f"  {name:<26} {value:>16.6g}")
    for key, value in result["detail"].items():
        lines.append(f"  {key:<26} {json.dumps(value)}")
    lines += [f"FAILED: {failure}" for failure in result["failures"]]
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return lines, final


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of warm stream in the serving phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               ROOT, WORK)
    except workloads.BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    lines, final = report(result, wanted)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(lines))
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
