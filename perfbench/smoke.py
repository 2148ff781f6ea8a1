"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at tiny size, untraced and traced, and asserts
   that the last output line is the result object with every metric
   BENCHMARK.json names, each with its unit.
2. Asserts that the checker rejects a wrong count and an
   out-of-tolerance decay rate, and names the failing problem.
3. Asserts that the benchmark, copied without the package sources,
   exits non-zero and prints no result.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def tiny_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--tiny"]
            cmd[0] = sys.executable
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            check(out.returncode == 0, f"{w['name']} trace={trace} exits 0 ({out.stderr.strip()[-300:]})")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(isinstance(res["attempted"], int) and res["attempted"] >= 1, "attempted >= 1")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w['name']} trace={trace}: every metric present with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  "metric values are numbers")


def checker_rejects() -> None:
    import checker as ck
    from reference import tanh_root

    check(not ck.count(12, 16).ok, "wrong count rejected")
    check(not ck.states(13, 32).ok, "missing bound states rejected")
    k = tanh_root()
    check(ck.close([k], [k], 1e-10).ok, "exact kappa accepted")
    check(not ck.close([k * (1 + 1e-8)], [k], 1e-10).ok, "out-of-tolerance kappa rejected")
    check(not ck.close([], [k], 1e-10).ok, "missing kappa rejected")

    tally = ck.Tally("points-deltaprime")
    tally.record("sweep/0", "line", ck.states(1, 2), None, {})
    tally.record("pair/beta-1", "line", ck.close([k * 1.001], [k], 1e-10), None, {})
    tally.record("sweep/1", "line", None, "ValueError: boom", {})
    tally.record("sweep/2", "line", ck.states(2, 2), None, {})
    lines = "\n".join(tally.report_lines())
    check(tally.failed == 3 and tally.attempted == 4, "failures counted against attempts")
    check(all(n in lines for n in ("sweep/0", "pair/beta-1", "sweep/1")), "failing problems named")
    check(not tally.correct, "unexpected failures make the run incorrect")


def bare_directory() -> None:
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "points-deltaprime",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and '"metrics"' not in out.stdout,
          "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checker_rejects()
    bare_directory()
    tiny_runs(spec)
    print("smoke: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
