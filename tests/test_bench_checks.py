"""The benchmark's problems and README invocations pass their own checks.

perfbench/workloads.py is imported by path and used as it stands: every
problem of the three library workloads (seed 1, full size) is run and
checked, and each README invocation runs through cli.main in a scratch
directory and is checked like the benchmark's subprocess run.  A change
that would make the benchmark count failures fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from deltaprime import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    # workloads imports its siblings (checker, reference, cli_timer) by name;
    # no bytecode is written next to them
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = keep
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_workload_problems_pass_their_checks(name):
    problems = workloads.GENERATORS[name](np.random.default_rng(1), False)
    failed = []
    for p in problems:
        verdict = p.check(p.run())
        if not verdict.ok:
            failed.append(f"{p.name}: {verdict.detail}")
    assert problems and not failed, failed


@pytest.mark.parametrize("cmdline, check, outfile", workloads.README,
                         ids=[r[0].split()[0] + f"-{i:02d}" for i, r in enumerate(workloads.README)])
def test_readme_invocation_passes_its_check(cmdline, check, outfile, tmp_path, monkeypatch, capsys):
    (tmp_path / "mysystem.ini").write_text(workloads.MYSYSTEM_INI)
    monkeypatch.chdir(tmp_path)
    assert cli.main(cmdline.split()) == 0
    body = (tmp_path / outfile).read_text() if outfile else capsys.readouterr().out
    verdict = check(body)
    assert verdict.ok, verdict.detail
