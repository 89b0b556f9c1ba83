"""Run one `hwr` command in a fresh process with the benchmark's span wrappers.

Usage: python3 perfbench/launch.py OUT.json COMMAND [ARGS...]

The traced benchmark run starts cold `hwr predict` processes through this
launcher instead of `python -m hwr.cli`.  It times the import of `hwr.cli`,
installs the same wrappers as the parent (plus a count of JSON parses), runs
`hwr.cli.main` on the remaining arguments and writes the spans, counts and
import time to OUT.json.  The command's output and exit code pass through.
"""

import json
import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from hwr import cli
    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.request = "cold"
    spans.install(tracer)
    tracer.count_calls(json, "load", "cli.model_parses")
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "import_s": import_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
