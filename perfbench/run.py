"""deltaprime benchmark: exactness-checked workloads with end-to-end and per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a repository checkout; the package is imported
from its src/ tree.  Workloads (see BENCHMARK.json for why each exists):
nystrom-cantor, points-deltaprime, general-lambda, cli-readme.

A run first times set-up: PROBES fresh interpreters, each importing the
package and making one warm-up call of the workload's heavy path.  Then
one client solves the workload's fixed problem set in a closed loop,
cycling through it until S seconds have passed and every problem has
run at least once; each result is checked against an exact reference.
A problem's latency is the median of its executions.  Each visit runs
a problem once, so its executions are spread over the whole run rather
than bunched into one phase of the host.

Each latency and set-up time is scaled to a reference host speed by a
kernel timed next to it (speed.py: the host's speed drifts by up to
1.8x in phases that outlast a run).  The kernel is of the kind of work
that dominates the workload (KERNEL): LAPACK for nystrom-cantor,
interpreter work for the others.  Raw figures are printed beside the
scaled ones.

BLAS runs on one thread: on a host whose cores other tenants share, a
second thread measures their load as much as the program.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the
time untraced and half with the span recorder installed, and reports
per-layer figures per pass over the problem set, plus the tracing
overhead.  Human-readable lines come first (environment, failing
problems by name, every metric with its unit); the last line is the
JSON result.  --tiny shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "work"
PROBES = 3
KERNEL = {"nystrom-cantor": "lapack", "points-deltaprime": "interpreter",
          "general-lambda": "interpreter", "cli-readme": "interpreter"}


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and every reported metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny problem sizes (smoke test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def configure_environment() -> tuple[int, int]:
    """One BLAS thread (see the module docstring); expose src/ to children."""
    nproc = len(os.sched_getaffinity(0))
    threads = 1
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(HERE)]
    return nproc, threads


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unavailable (packed ref)"


def environment(nproc: int, threads: int, seed: int, workload: str, workloads: list,
                kernel: str) -> dict:
    import numpy
    import scipy
    import deltaprime

    src_hash = hashlib.sha256()
    for f in sorted((SRC / "deltaprime").glob("*.py")):
        src_hash.update(f.name.encode() + f.read_bytes())
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except Exception:  # the config layout differs across numpy releases
        openblas = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "deltaprime": deltaprime.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": nproc,
        "blas_threads": threads,
        "latencies": f"scaled to the reference speed of the {kernel} kernel (speed.py)",
        "seed": seed,
        "workload": workload,
        "workloads": workloads,
        "machine_settings": "unchanged: no CPU pinning, frequency or file-cache control; "
                            "imports are timed with a warm file cache",
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def probe(workload: str, mode: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, mode],
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_probes(workload: str, count: int) -> list[dict]:
    """`count` full probes, each with `scale`: the host-speed factor around it."""
    from speed import Speedometer   # numpy, so after configure_environment

    meter = Speedometer(KERNEL[workload])
    runs = []
    for _ in range(count):
        meter.tick()
        t0 = perf_counter()
        runs.append(probe(workload, "full"))
        runs[-1]["span"] = (t0, perf_counter())
    meter.tick()
    for r in runs:
        r["scale"] = meter.scale(*r.pop("span"))
    return runs


def interpreter_s() -> float:
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------

def run_loop(problems, seconds, tally, kernel, recorder=None):
    """Closed loop over the problem set until `seconds` pass and each problem ran once.

    Each visit samples the host's speed with `kernel`, then runs a
    problem once.  Returns raw and scaled latencies per problem, the
    traced layer figures and the speed samples.
    """
    from speed import Speedometer

    meter = Speedometer(kernel)
    spans = {p.name: [] for p in problems}
    layers = {p.name: [] for p in problems}
    deadline = perf_counter() + seconds
    i = 0
    while i < len(problems) or perf_counter() < deadline:
        meter.tick()
        execute(problems[i % len(problems)], tally, spans, layers, recorder)
        i += 1
    meter.tick()
    raw = {name: [dt for _, dt in v] for name, v in spans.items()}
    scaled = {name: [dt * meter.scale(t0, t0 + dt) for t0, dt in v] for name, v in spans.items()}
    return raw, scaled, layers, meter


def execute(p, tally, spans, layers, recorder) -> None:
    """Run one problem once: time the call alone, then check the result."""
    from checker import Verdict
    from spans import summarize

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            out, err = p.run(), None
        except Exception as exc:   # every library exception is a counted failure
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    spans[p.name].append((t0, dt))
    if recorder is not None:
        fig = summarize(recorder.take())
        timing = getattr(out, "timing", None)
        if timing:
            fig.update({"cli.import_s": timing["import_s"], "cli.main_s": timing["main_s"],
                        "cli.scipy_integrate_imported": float(timing["scipy_integrate"])})
        layers[p.name].append(fig)
    verdict = None
    if err is None:
        try:
            verdict = p.check(out)
        except Exception as exc:   # unparsable output fails the problem
            verdict = Verdict(False, f"check raised {type(exc).__name__}: {exc}")
    cats: dict[str, int] = {}
    for w in caught:
        cats[w.category.__name__] = cats.get(w.category.__name__, 0) + 1
    tally.record(p.name, p.layer, verdict, err, cats)


def wall_s(lat) -> float:
    return sum(statistics.median(v) for v in lat.values())


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n} problem medians (fewer than 11)"
    k = n - 11
    return xs[k], f"p{100 * (k + 1) // n} of {n} problem medians, 10 beyond it"


def per_pass(layers) -> dict[str, float]:
    """Mean over each problem's traced executions, summed over the problem set."""
    total: dict[str, float] = {}
    for figs in layers.values():
        if not figs:
            continue
        for key in figs[0]:
            total[key] = total.get(key, 0.0) + statistics.fmean(f.get(key, 0.0) for f in figs)
    return total


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def end_to_end(lat, probes, workload) -> tuple[dict, dict]:
    """The end-to-end metrics and a note on how each was taken.

    `lat` holds the latencies to report, and each probe's `scale` is
    applied to its set-up time.
    """
    medians = [statistics.median(v) for v in lat.values()]
    tail_value, tail_note = tail(medians)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-readme" else resource.RUSAGE_SELF
    values = {
        "wall_s": wall_s(lat),
        "op_p50_ms": 1e3 * statistics.median(medians),
        "op_tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(p["total_s"] * p["scale"] for p in probes),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": "sum of per-problem median latencies: one pass over the problem set",
        "op_p50_ms": "median of per-problem median latencies",
        "op_tail_ms": tail_note,
        "setup_s": f"median of {len(probes)} fresh interpreters: import + one warm-up call",
        "peak_rss_mb": "largest CLI subprocess" if workload == "cli-readme" else "this process",
    }
    return values, notes


def layer_figures(spec, layers, tally, probes, workload, overhead) -> dict:
    """Per-layer figures of the traced run, per pass over the problem set."""
    fig = {m["name"]: 0.0 for m in spec["per_layer"]}
    fig.update(per_pass(layers))
    warn = tally.warning_totals()
    ratio = tally.states_found_ratio()
    fig["line.states_found_ratio"] = 1.0 if ratio is None else ratio
    fig["line.grid_too_coarse_warnings"] = float(warn.get("GridTooCoarse", 0))
    fig["line.nonreal_warnings"] = float(warn.get("NonRealSystem", 0))
    fig["certify.failures"] = float(tally.layer_failures("certify"))
    fig["cli.interpreter_s"] = interpreter_s()
    if workload == "cli-readme":
        for key in ("cli.import_s", "cli.main_s", "cli.scipy_integrate_imported"):
            vals = [f[key] for figs in layers.values() for f in figs if key in f]
            fig[key] = statistics.median(vals) if vals else 0.0
    else:
        fig["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        fig["cli.scipy_integrate_imported"] = float(any(p["scipy_integrate"] for p in probes))
    fig["trace.overhead_s"] = overhead
    return fig


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if not (SRC / "deltaprime" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'deltaprime'} not found; run from a deltaprime checkout",
              file=sys.stderr)
        return 2
    nproc, threads = configure_environment()
    WORKDIR.mkdir(exist_ok=True)

    # set-up time: fresh interpreters, after one untimed import fills the file cache
    probe(args.workload, "import")
    kernel = KERNEL[args.workload]
    probes = setup_probes(args.workload, 1 if args.tiny else PROBES)

    import deltaprime
    import checker
    import workloads
    from probe import warm
    from spans import Recorder

    if Path(deltaprime.__file__).resolve().parent != (SRC / "deltaprime").resolve():
        print(f"perfbench: imported {deltaprime.__file__}, not the checkout's src/", file=sys.stderr)
        return 2

    problems = workloads.build(args.workload, args.seed, args.tiny, WORKDIR)
    tally = checker.Tally(args.workload)
    if args.workload == "cli-readme":
        problems[0].run()
    else:
        warm(args.workload)

    if args.trace == 0:
        raw, lat, _, meter = run_loop(problems, args.seconds, tally, kernel)
    else:
        raw, lat, _, meter = run_loop(problems, args.seconds / 2, tally, kernel)
        traced = problems
        if args.workload == "cli-readme":
            timer = [sys.executable, str(HERE / "cli_timer.py")]
            traced = workloads.build(args.workload, args.seed, args.tiny, WORKDIR, timer)
        rec = Recorder()
        try:
            rec.install()
            _, lat_traced, layers, _ = run_loop(traced, args.seconds / 2, tally, kernel, rec)
        finally:
            rec.uninstall()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values, notes = end_to_end(lat, probes, args.workload)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("environment " + json.dumps(
        environment(nproc, threads, args.seed, args.workload, names, kernel), sort_keys=True))
    print(f"inputs sha256={workloads.inputs_digest(problems)} problems={len(problems)} "
          f"executions={sum(len(v) for v in lat.values())}")
    print(f"checked {tally.attempted} problems: {tally.failed} failed "
          f"({len(tally.unexpected())} outside the known defects)")
    for ln in tally.report_lines():
        print(ln)
    warn = tally.warning_totals()
    print("library warnings per pass: "
          + (", ".join(f"{k}={v}" for k, v in sorted(warn.items())) or "none"))
    print(f"host speed: {meter.summary()}; setup scale factors "
          + " ".join(f"{p['scale']:.4f}" for p in probes))
    for name, v in lat.items():
        print(f"problem {name} median_ms={1e3 * statistics.median(v):.4f} "
              f"raw_median_ms={1e3 * statistics.median(raw[name]):.4f} runs={len(v)}")
    raw_values, _ = end_to_end(raw, [dict(p, scale=1.0) for p in probes], args.workload)
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}  ({notes[name]}; "
              f"raw {raw_values[name]:.6g})")
    print(f"metric fail_frac = {tally.fail_frac:.6g} ratio  ({tally.failed}/{tally.attempted}; "
          "carried as failed/attempted in the JSON line)")
    mre = tally.max_rel_err
    print("metric max_rel_err = " + (
        f"{mre:.3g} ratio  (worst over problems with closed-form references)" if mre is not None
        else "n/a  (no closed-form reference in this workload)"))

    if args.trace == 1:
        values = layer_figures(spec, layers, tally, probes, args.workload,
                               wall_s(lat_traced) - wall_s(lat))
        print("per-layer figures are raw (unscaled) and per pass over the problem set; cli.* are "
              "per-invocation medians (cli-readme) or the set-up probes' import (other workloads); "
              "trace.overhead_s is the difference of the scaled wall_s")
        if tally.states_found_ratio() is None:
            print("line.states_found_ratio: no problem here has an exact state count; reported as 1")
        for name, value in values.items():
            print(f"layer {name} = {value:.6g} {units[name]}")

    listed = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
