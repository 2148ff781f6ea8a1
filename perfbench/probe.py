"""Set-up probe: one fresh interpreter's import plus one warm-up call.

    python3 perfbench/probe.py WORKLOAD {import|full}

Prints one JSON object: import_s (import of deltaprime, or deltaprime.cli
for cli-readme), warm_s (one call of the workload's heavy path),
total_s, and whether scipy.integrate was loaded by the import.  The
benchmark's main process runs `warm` too, so its timed phase starts
after the same first-call costs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter


def warm(workload: str) -> None:
    """One call of the workload's heavy path."""
    from deltaprime import line, measures

    if workload == "nystrom-cantor":
        mu = measures.AtomicMeasure([1.0 / 6.0, 5.0 / 6.0], [0.5, 0.5])
        kern = measures.GreenKernel(-2.0, 3.0, mu, measures.BetaFunction.constant(-1.0))
        measures.negative_spectrum(kern, [512, 1024, 2048])
    elif workload == "points-deltaprime":
        line.find_bound_states(line.delta_prime_pair(-1.0), 8.0)
    elif workload == "general-lambda":
        line.find_bound_states(line.nonlocal_example(), 8.0)
    elif workload == "cli-readme":
        from deltaprime import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["interactions", "characteristic", "--gamma", "6"])
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, mode = argv
    t0 = perf_counter()
    if workload == "cli-readme":
        import deltaprime.cli  # noqa: F401
    else:
        import deltaprime  # noqa: F401
    t1 = perf_counter()
    scipy_integrate = "scipy.integrate" in sys.modules
    if mode == "full":
        warm(workload)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warm_s": t2 - t1, "total_s": t2 - t0,
                      "scipy_integrate": scipy_integrate}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
