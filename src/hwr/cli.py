"""Command-line front end: synth -> features -> reduce -> train -> eval -> predict.

Stages communicate only through files (PGM images, manifest CSV, FMX1
matrices, JSON models) so each is independently runnable and resumable.
Seeds default from one master seed (flag-free runs): the master comes from
the HWR_SEED environment variable (fallback 42) and expands per stage via
hwr.rng.derive_seed, so repeated invocations with identical flags produce
byte-identical artifacts.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or parameter error
(a size such as --dim, --hidden or --trees too large to allocate included)
or a malformed input file (PGM, FMX1, manifest, label or model file).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import (dataset, dimred, features, forest, imaging, labels, metrics, mlp, svm, synth,
               workers)
from .rng import derive_seed

DEFAULT_MASTER_SEED = 42


def _master_seed() -> int:
    raw = os.environ.get("HWR_SEED")
    if raw is None:
        return DEFAULT_MASTER_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HWR_SEED must be an integer, got {raw!r}") from None


def _seed(text: str) -> int:
    """A --seed or --split-seed value: a non-negative integer, as numpy's seeds are."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _stage_seed(explicit: int | None, stage: str) -> int:
    return explicit if explicit is not None else derive_seed(_master_seed(), stage)


def load_classifier(path: str | os.PathLike):
    """Open a serialized classifier, dispatching on its format tag."""
    return dataset.read_model(path, mlp.MlpModel, svm.SvmModel, forest.ForestModel)


def cmd_synth(args: argparse.Namespace) -> int:
    spec = synth.SynthSpec(per_class=args.per_class, seed=_stage_seed(args.seed, "synth"))
    manifest = synth.synth_generate(spec, args.out)
    print(f"{len(manifest)} images written to {args.out}")
    print(f"manifest: {Path(args.out) / 'manifest.csv'}")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    manifest = dataset.load_manifest(args.manifest)
    paths = manifest.paths()

    def extract(start: int, stop: int, rows: np.ndarray) -> list[tuple[int, str]]:
        failed = []
        for i in range(start, stop):
            try:
                img = imaging.read_pgm(paths[i])
                rows[i - start] = features.extract_word_features(img, include_scalars=args.scalars)
            except (ValueError, OSError) as exc:
                failed.append((i, str(exc)))
        return failed

    matrix, failed = workers.map_rows(extract, len(paths),
                                       features.word_feature_length(args.scalars))
    failures = dict(item for block in failed for item in block)  # row -> message, in order
    if len(failures) < len(paths):
        good = [i for i in range(len(paths)) if i not in failures]
        if failures:
            matrix = matrix[good]
        dataset.write_fmx(matrix, args.out)
        dataset.write_label_file(manifest.labels()[good], str(args.out) + ".labels")
        print(f"{matrix.shape[0]} x {matrix.shape[1]} features written to {args.out}")
        print(f"labels: {args.out}.labels")
    for i, message in failures.items():
        print(f"failed: {manifest.records[i][0]}: {message}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(manifest)} images failed", file=sys.stderr)
        return 1
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    X = dataset.read_fmx(args.infile)
    if args.method == "pca":
        model, reduced = dimred.pca_reduce(X, args.dim)  # centers X in place
    else:
        kind = {"grp": "gaussian", "srp": "sparse"}[args.method]
        model, reduced = dimred.rp_reduce(kind, X, args.dim, _stage_seed(args.seed, "reduce"))
    model.save(args.model)
    dataset.write_fmx(reduced, args.out)
    print(f"{reduced.shape[0]} x {reduced.shape[1]} reduced matrix written to {args.out}")
    print(f"model: {args.model}")
    return 0


def _load_split(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray, dataset.SplitResult]:
    X = dataset.read_fmx(args.infile)
    y = labels.class_ids(dataset.read_label_file(args.labels), X.shape[0])
    strata = y if args.stratify else np.zeros_like(y)
    return X, y, dataset.split(strata, args.ratio, _stage_seed(args.split_seed, "split"))


def cmd_train(args: argparse.Namespace) -> int:
    X, y, sp = _load_split(args)
    Xtr, ytr = X[sp.train_indices], y[sp.train_indices]
    if args.classifier == "mlp":
        seed = _stage_seed(args.seed, "train")
        model = mlp.mlp_init(X.shape[1], args.hidden, mlp.N_CLASSES, seed)
        cfg = mlp.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                              batch_size=args.batch_size, seed=seed)
        model = mlp.train(model, Xtr, ytr, cfg)
        print(f"mlp trained on {len(ytr)} samples (hidden={args.hidden}, "
              f"lr={args.lr}, epochs={args.epochs})")
    elif args.classifier == "svm":
        if args.grid == "default":
            result = svm.grid_search(Xtr, ytr, seed=_stage_seed(args.seed, "train"))
            c, gamma = result.c, result.gamma
            print(f"grid search: C={c:g}, gamma={gamma:g} (cv accuracy {result.accuracy:.4f})")
        else:
            if args.c is None or args.gamma is None:
                raise ValueError("svm needs either --grid default or both --c and --gamma")
            c, gamma = args.c, args.gamma
        model = svm.ovo_train(Xtr, ytr, c, gamma)
        print(f"svm trained on {len(ytr)} samples ({len(model.pairs)} machines)")
    else:
        model = forest.rf_train(Xtr, ytr, m=args.trees, seed=_stage_seed(args.seed, "train"))
        print(f"random forest trained on {len(ytr)} samples ({args.trees} trees)")
    model.save(args.out)
    print(f"model: {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    X, y, sp = _load_split(args)
    model = load_classifier(args.model)
    predictions = model.predict_batch(X[sp.test_indices])
    cm = metrics.confusion(y[sp.test_indices], predictions)
    rep = metrics.report(cm)
    text = metrics.render_report(rep)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.json:
        Path(args.json).write_text(rep.to_json() + "\n", encoding="utf-8")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    reducer = dimred.load_reducer(args.reducer) if args.reducer else None
    model = load_classifier(args.model)
    # the first model to see the features says by its input width whether they hold the scalars
    scalars = (reducer or model).d == features.word_feature_length(include_scalars=True)
    row = features.extract_word_features(imaging.read_pgm(args.image), scalars)[None, :]
    class_id = int(model.predict_batch(reducer.transform(row) if reducer else row)[0])
    print(class_id)
    if args.interpret:
        print(labels.label_to_unicode(class_id))
    return 0


def _add_split_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--split-seed", type=_seed, default=None,
                        help="seed of the train/test shuffle (default: derived)")
    parser.add_argument("--ratio", type=float, default=0.8, help="train fraction")
    parser.add_argument("--stratify", action="store_true",
                        help="stratify the split per class")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwr",
        description="Holistic handwritten-word recognizer pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic word-image dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-class", type=int, required=True, help="samples per class")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract HOG features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output FMX1 path")
    p.add_argument("--scalars", action="store_true",
                   help="append the 3 normalized scalar features")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("reduce", help="fit and apply a dimensionality reduction")
    p.add_argument("--in", dest="infile", required=True, help="input FMX1 path")
    p.add_argument("--method", choices=("pca", "grp", "srp"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--out", required=True, help="output FMX1 path")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("train", help="train a classifier on the train split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--classifier", choices=("mlp", "svm", "rf"), required=True)
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--seed", type=_seed, default=None)
    _add_split_options(p)
    p.add_argument("--hidden", type=int, default=100, help="mlp hidden neurons")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--grid", choices=("default",), default=None,
                   help="svm: run the default (C, gamma) grid search")
    p.add_argument("--c", type=float, default=None, help="svm box constraint")
    p.add_argument("--gamma", type=float, default=None, help="svm RBF width")
    p.add_argument("--trees", type=int, default=100, help="rf tree count")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on the test split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    _add_split_options(p)
    p.add_argument("--out", default=None, help="also write the text report here")
    p.add_argument("--json", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one word image")
    p.add_argument("--image", required=True, help="PGM word image")
    p.add_argument("--model", required=True, help="classifier model path")
    p.add_argument("--reducer", default=None, help="reduction model path")
    p.add_argument("--interpret", action="store_true",
                   help="print the district name for the predicted class")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, LookupError, MemoryError) as exc:  # MemoryError: a size too large
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (svm.TrainingError, mlp.TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
