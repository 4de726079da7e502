"""Traced stand-in for `python -m cl8.cli`, used by the traced cli_cold run.

Usage: python3 -X importtime launcher.py SPANS_FILE RUN_ID CLI_ARGS...

Times `import cl8.cli`, installs the same wrappers as the in-process
workloads, calls cl8.cli.main(CLI_ARGS) and writes the spans with the
import time and the time spent inside this process before the write.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    spans_file, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import cl8.cli

    import_s = time.perf_counter() - start
    from spans import Tracer, install

    tracer = Tracer(run_id)
    install(tracer)
    code = cl8.cli.main(argv)
    sys.stdout.flush()
    tracer.write(spans_file, import_s=import_s, inside_s=time.perf_counter() - T0)
    return code


if __name__ == "__main__":
    sys.exit(main())
