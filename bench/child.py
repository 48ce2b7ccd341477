"""One holosim CLI invocation, timed from inside its own fresh process.

    python3 bench/child.py --report FILE [--trace] [--env] [-- ARGV...]

Times ``import holosim.cli`` (``setup_s``) and ``holosim.cli.main(ARGV)``
(``compute_s``), then writes them as JSON to FILE and exits with main's
return code.  With no ARGV it only imports, which is how the benchmark
samples set-up time on its own.  ``--trace`` installs the outside-in
tracer after the import; ``--env`` adds library versions to the report.
The package is found through ``PYTHONPATH`` and must come from the
``src/`` directory next to this file's directory.
"""

import os
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    args = sys.argv[1:]
    argv = args[args.index("--") + 1:] if "--" in args else []
    opts = args[:args.index("--")] if "--" in args else args
    report_path = opts[opts.index("--report") + 1]

    t0 = time.perf_counter()
    import holosim.cli
    setup_s = time.perf_counter() - t0

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(holosim.cli.__file__).startswith(src + os.sep):
        print(f"holosim imported from {holosim.cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if "--trace" in opts:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    report = {"setup_s": setup_s}
    rc = 0
    if argv:
        t1 = time.perf_counter()
        rc = holosim.cli.main(argv)
        report["compute_s"] = time.perf_counter() - t1
    if tracer is not None:
        report["trace"] = tracer.report()
    if "--env" in opts:
        report["env"] = _environment()

    import json
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
