"""Golden artifact hashes: the SHA-256 of everything a fixed CLI script writes.

`COMMANDS` runs the whole pipeline on a small synthetic corpus: synth,
features with and without ``--scalars``, pca, grp and srp reduce, mlp, svm
(grid and fixed C/gamma) and rf train and eval, an rf train and eval on
the per-class (``--stratify``) split, cold predicts, one refused model
file and an srp reduce to 65 dimensions.  `run` executes them in one directory at one
``HWR_SEED`` and hashes every file written there, plus each command's
stdout, stderr and exit code.  ``golden.json`` beside this script holds the
hashes at each seed of `SEEDS`, with the `environment` they were made in:
the bits of the features depend on numpy, the CPU targets its loops dispatch
to (``np.arctan2`` gives other bits below AVX512), OpenBLAS and the kernel
OpenBLAS picks for the CPU, so the hashes hold only where all four match.

The file also holds, under ``pinned``, the hashes of the same script run in
a subprocess pinned to the oldest targets (`pinned_environ`): OpenBLAS's
Prescott kernel and numpy's loops at its baseline (``X86_V2``), every
dispatch target enabled here turned off.  Those hold on any x86-64-v2
machine with the same numpy and OpenBLAS, whatever its own targets.

Regenerate the file after a change that alters bytes on purpose (its diff
then names the files that changed)::

    python tests/golden.py

``--out PATH`` writes the hashes elsewhere, for example to compare a run
under another ``OPENBLAS_CORETYPE``; ``--here`` leaves out the pinned run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from hwr import cli, workers  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = ("42", "7")


def _train(reduced: str, labels: str, classifier: str, out: str, *options: str) -> list[str]:
    return ["train", "--in", reduced, "--labels", labels, "--classifier", classifier,
            "--out", out, *options]


def _eval(reduced: str, labels: str, model: str, *options: str) -> list[str]:
    report = model.replace(".json", ".report.json")
    return ["eval", "--in", reduced, "--labels", labels, "--model", model, "--json", report,
            *options]


def _predict(image: str, reducer: str, model: str, *options: str) -> list[str]:
    return ["predict", "--image", f"imgs/{image}", "--reducer", reducer, "--model", model,
            *options]


_FIXED_SVM = ("--c", "0.5", "--gamma", "0.001953125")
COMMANDS = [
    ["synth", "--out", "imgs", "--per-class", "8"],
    ["features", "--manifest", "imgs/manifest.csv", "--out", "f.fmx"],
    ["features", "--manifest", "imgs/manifest.csv", "--out", "s.fmx", "--scalars"],
    ["reduce", "--in", "f.fmx", "--method", "pca", "--dim", "50", "--model", "pca.json",
     "--out", "pca.fmx"],
    ["reduce", "--in", "s.fmx", "--method", "grp", "--dim", "60", "--model", "grp.json",
     "--out", "grp.fmx"],
    ["reduce", "--in", "f.fmx", "--method", "srp", "--dim", "316", "--model", "srp.json",
     "--out", "srp.fmx"],
    _train("pca.fmx", "f.fmx.labels", "mlp", "mlp_pca.json"),
    _train("pca.fmx", "f.fmx.labels", "svm", "svm_pca.json", "--grid", "default"),
    _train("pca.fmx", "f.fmx.labels", "rf", "rf_pca.json", "--trees", "30"),
    _train("srp.fmx", "f.fmx.labels", "mlp", "mlp_srp.json"),
    _train("srp.fmx", "f.fmx.labels", "svm", "svm_srp.json", *_FIXED_SVM),
    _train("srp.fmx", "f.fmx.labels", "rf", "rf_srp.json", "--trees", "30"),
    _train("grp.fmx", "s.fmx.labels", "svm", "svm_grp.json", *_FIXED_SVM),
    _eval("pca.fmx", "f.fmx.labels", "mlp_pca.json"),
    _eval("pca.fmx", "f.fmx.labels", "svm_pca.json"),
    _eval("pca.fmx", "f.fmx.labels", "rf_pca.json"),
    _eval("srp.fmx", "f.fmx.labels", "mlp_srp.json"),
    _eval("srp.fmx", "f.fmx.labels", "svm_srp.json"),
    _eval("srp.fmx", "f.fmx.labels", "rf_srp.json"),
    _eval("grp.fmx", "s.fmx.labels", "svm_grp.json"),
    _predict("c01_s000.pgm", "pca.json", "mlp_pca.json"),
    _predict("c05_s003.pgm", "pca.json", "svm_pca.json", "--interpret"),
    _predict("c09_s007.pgm", "pca.json", "rf_pca.json"),
    _predict("c14_s001.pgm", "srp.json", "mlp_srp.json", "--interpret"),
    _predict("c02_s005.pgm", "srp.json", "svm_srp.json"),
    _predict("c12_s002.pgm", "srp.json", "rf_srp.json"),
    _predict("c07_s006.pgm", "grp.json", "svm_grp.json"),  # grp.json takes s.fmx's 3783 columns
    _predict("c03_s004.pgm", "pca.json", "pca.json"),  # a reducer is no classifier: exit 2
    _train("pca.fmx", "f.fmx.labels", "rf", "rf_strat.json", "--trees", "30", "--stratify"),
    _eval("pca.fmx", "f.fmx.labels", "rf_strat.json", "--stratify"),
    # 65 = 64 + 1: the last projection row is drawn and applied with the 64 before it
    ["reduce", "--in", "s.fmx", "--method", "srp", "--dim", "65", "--model", "srp65.json",
     "--out", "srp65.fmx"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dispatch_targets() -> list[str]:
    """The targets above its baseline that numpy's own loops dispatch to in this process."""
    umath = np._core._multiarray_umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def environment() -> dict[str, str | None]:
    """numpy's version and the targets its own loops dispatch to, and the version
    and kernel of the OpenBLAS it bundles."""
    env = {"numpy": np.__version__, "dispatch": " ".join(_dispatch_targets()), "openblas": None,
           "core": None}
    lib = workers.openblas()
    if lib is not None:
        for key, name in (("openblas", "scipy_openblas_get_config64_"),
                          ("core", "scipy_openblas_get_corename64_")):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            env[key] = fn().decode().strip()
    return env


def run(seed: str, workdir: Path) -> dict[str, str]:
    """Run COMMANDS in ``workdir`` at HWR_SEED ``seed``; the hash of each output, by name.

    A file is named ``file <path>``, relative to ``workdir``; a command's
    streams and exit code ``<NN> <stream>: <argv>``.
    """
    hashes = {}
    cwd, master = os.getcwd(), os.environ.get("HWR_SEED")
    os.chdir(workdir)
    os.environ["HWR_SEED"] = seed
    try:
        for number, argv in enumerate(COMMANDS):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            command = " ".join(argv)
            hashes[f"{number:02d} exit: {command}"] = str(code)
            hashes[f"{number:02d} stdout: {command}"] = _sha(out.getvalue().encode())
            hashes[f"{number:02d} stderr: {command}"] = _sha(err.getvalue().encode())
    finally:
        os.chdir(cwd)
        if master is None:
            os.environ.pop("HWR_SEED", None)
        else:
            os.environ["HWR_SEED"] = master
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            hashes[f"file {path.relative_to(workdir).as_posix()}"] = _sha(path.read_bytes())
    return hashes


def pinned_environ() -> dict[str, str]:
    """This process's environment variables, with OpenBLAS's kernel set to Prescott and
    every numpy dispatch target enabled here turned off, besides those already off.  Both
    are read when numpy loads, so they apply to a new process only."""
    disabled = [os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *_dispatch_targets()]
    return {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
            "NPY_DISABLE_CPU_FEATURES": " ".join(disabled).strip()}


def run_pinned(out: Path) -> subprocess.CompletedProcess:
    """This script with ``--here --out out``, in a subprocess under `pinned_environ`."""
    command = [sys.executable, str(Path(__file__).resolve()), "--here", "--out", str(out)]
    return subprocess.run(command, env=pinned_environ(), capture_output=True, text=True,
                          timeout=600)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN, help=f"default: {GOLDEN.name}")
    parser.add_argument("--here", action="store_true",
                        help="hash this process's run only, without the pinned subprocess")
    args = parser.parse_args()
    golden = {"environment": environment(), "hashes": {}}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            golden["hashes"][seed] = run(seed, Path(tmp))
    if not args.here:
        with tempfile.TemporaryDirectory() as tmp:
            pinned = Path(tmp) / "pinned.json"
            done = run_pinned(pinned)
            if done.returncode:
                sys.exit(f"the pinned run failed:\n{done.stderr}")
            golden["pinned"] = json.loads(pinned.read_text(encoding="utf-8"))
    args.out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
