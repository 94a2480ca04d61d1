"""One diffgap invocation in a fresh interpreter, timed (and optionally traced).

    python3 child.py RESULT.json [--trace] [--setup-only] -- <diffgap argv>

Set-up is the import of ``diffgap.cli`` plus ``load_config`` of the config
named by ``--config`` (if any).  The report goes to this process's standard
output, exactly as ``diffgap`` writes it; the exit code is the one
``cli.main`` returned.  The set-up time, resource use and, with ``--trace``,
the span totals and counters go to RESULT.json, which is written only when
``cli.main`` returned.
"""

import json
import os
import resource
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import diffgap.cli as cli

    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    result_path = opts[0]
    if "--config" in cli_argv:
        cli.load_config(cli_argv[cli_argv.index("--config") + 1])
    doc = {"setup_s": time.perf_counter() - t0}
    code = 0
    if "--setup-only" not in opts:
        tracer = None
        if "--trace" in opts:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        code = cli.main(cli_argv)
        if tracer is not None:
            doc["stats"] = tracer.stats
            doc["counts"] = tracer.counts
    ru = resource.getrusage(resource.RUSAGE_SELF)
    doc.update(maxrss_kb=ru.ru_maxrss, cpu_s=ru.ru_utime + ru.ru_stime,
               env=_environment())
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
