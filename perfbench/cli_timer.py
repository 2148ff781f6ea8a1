"""Timing wrapper for one CLI invocation in the traced run.

    python3 perfbench/cli_timer.py ARGS...

Behaves like `python -m deltaprime.cli ARGS...` and appends one line
to stderr: the marker below followed by JSON with the import time of
deltaprime.cli, the time of main(argv), and whether scipy.integrate was
loaded by the import.
"""

import json
import sys
from time import perf_counter

MARKER = "perfbench-timing "


def main() -> int:
    t0 = perf_counter()
    from deltaprime import cli

    t1 = perf_counter()
    scipy_integrate = "scipy.integrate" in sys.modules
    code = cli.main(sys.argv[1:])
    t2 = perf_counter()
    sys.stdout.flush()
    print(MARKER + json.dumps({"import_s": t1 - t0, "main_s": t2 - t1,
                               "scipy_integrate": scipy_integrate}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
