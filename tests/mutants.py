"""Mutation probe: which single-site mutations of a module do the tests let through.

A mutant is one of four changes at one site of a module of ``src/hwr``:

- a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``in`` and ``not in``, ``is`` and ``is not``;
- an integer constant plus 1;
- ``and`` and ``or`` swapped;
- a ``raise`` statement replaced by ``pass``.

For each module named, a sample of its sites, seeded by ``--seed`` and the
module's name, becomes mutants.  Each mutant is written into a copy of the
repository (the module's source unparsed from its mutated syntax tree), and
the module's test file, ``tests/test_<module>.py``, runs on it; a mutant that
survives it runs against all of tier-1.  A run that fails, errs or passes its
time limit kills the mutant.  The script prints one line per mutant and a
total, and leaves the repository itself untouched.  Run it by hand, from
anywhere::

    python tests/mutants.py dimred svm --count 10 --seed 0

With no module named it samples every module of ``src/hwr``.  The copy lives
in a temporary directory that is removed when the run ends.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 900.0  # seconds per pytest run: a mutant that loops forever is killed by it

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
           ast.IsNot: "is not"}


def sites(tree: ast.Module) -> list[tuple[int, int, int, str]]:
    """(node number in `ast.walk` order, operator index, line, change) of each site."""
    found = []
    for number, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                change = f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
                found.append((number, j, node.lineno, change))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((number, 0, node.lineno, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.BoolOp):
            swap = "and -> or" if isinstance(node.op, ast.And) else "or -> and"
            found.append((number, 0, node.lineno, swap))
        elif isinstance(node, ast.Raise):
            found.append((number, 0, node.lineno, "raise -> pass"))
    return found


def mutate(source: str, number: int, j: int) -> str:
    """``source`` with site (number, j) of `sites` changed, unparsed."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[number]
    if isinstance(node, ast.Compare):
        node.ops[j] = SWAPS[type(node.ops[j])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:
        for parent in nodes:
            for _, body in ast.iter_fields(parent):
                if isinstance(body, list) and any(item is node for item in body):
                    body[[id(item) for item in body].index(id(node))] = ast.Pass()
    return ast.unparse(tree)


def pytest(work: Path, args: list[str]) -> str:
    """'passed', 'failed', 'error N' (another pytest exit code) or 'timeout'."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pyproject.toml puts its own src first
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             *args], cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and any worker it forked
        proc.wait()
        return "timeout"
    return {0: "passed", 1: "failed"}.get(code, f"error {code}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="modules of src/hwr (default: all)")
    parser.add_argument("--count", type=int, default=10, help="mutants per module")
    parser.add_argument("--seed", type=int, default=0, help="seed of the site samples")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(p.stem for p in (ROOT / "src" / "hwr").glob("*.py")
                                     if p.stem != "__init__")
    with tempfile.TemporaryDirectory(prefix="hwr-mutants-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".work"))
        totals = probe(work, modules, args.count, args.seed)
    print(f"{sum(totals.values())} mutants: {totals['test file']} killed by their test file, "
          f"{totals['tier-1']} by tier-1 only, {totals['survived']} survived")
    return 0


def probe(work: Path, modules: list[str], count: int, seed: int) -> dict[str, int]:
    """Run the sampled mutants of each module in the copy ``work``; the counts of their fates."""
    totals = {"test file": 0, "tier-1": 0, "survived": 0}
    for module in modules:
        path = work / "src" / "hwr" / f"{module}.py"
        source = path.read_text(encoding="utf-8")
        found = sites(ast.parse(source))
        picked = random.Random(f"{seed}:{module}").sample(found, min(count, len(found)))
        test_file = Path("tests") / f"test_{module}.py"
        first = [str(test_file)] if (work / test_file).exists() else []
        path.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        try:
            unparsed = pytest(work, first)
        finally:
            path.write_text(source, encoding="utf-8")
        if unparsed != "passed":
            print(f"{module}.py: the tests fail on the module unparsed ({unparsed}); skipped")
            continue
        for number, j, line, change in sorted(picked, key=lambda site: site[2]):
            path.write_text(mutate(source, number, j), encoding="utf-8")
            start = time.monotonic()
            try:
                runs = [(test_file.name, pytest(work, first))] if first else []
                if not runs or runs[-1][1] == "passed":
                    runs.append(("tier-1", pytest(work, [])))
            finally:
                path.write_text(source, encoding="utf-8")
            verdict = "survived" if runs[-1][1] == "passed" else f"killed by {runs[-1][0]}"
            totals["survived" if runs[-1][1] == "passed" else
                   "tier-1" if runs[-1][0] == "tier-1" else "test file"] += 1
            outcomes = ", ".join(f"{name} {result}" for name, result in runs)
            print(f"{module}.py:{line}  {change}  {verdict}  ({outcomes}; "
                  f"{time.monotonic() - start:.0f} s)", flush=True)
    return totals


if __name__ == "__main__":
    sys.exit(main())
