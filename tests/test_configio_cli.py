"""Config parsing, CSV determinism, and the CLI contract."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltaprime.cli import main
from deltaprime.configio import parse_measure, parse_system, write_csv
from deltaprime.errors import SchemaError
from deltaprime.line import find_bound_states

PAIR_FILE = """
[system]
points = -1.0 1.0

[condition 1]
kind = delta-prime
beta = -1.0

[condition 2]
kind = delta-prime
beta = -1.0
"""

NONLOCAL_FILE = """
[system]
points = -1.0 1.0

[global]
rows =
    0 0 1 -1  0 0 0 0
    0 0 0 0   0 0 1 -1
    1 -1 1 1  1 -1 0 0
    1 -1 0 0  1 -1 1 1
"""

MIXED_FILE = """
[system]
points = 0.0 1.5

[condition 1]
kind = lambda
entries = 1 -2 0 1

[condition 2]
kind = b
alpha = 0
beta = -1.0
"""

CANTOR_FILE = """
[measure]
kind = cantor
depth = 2
interval = 0 1

[beta]
kind = constant
value = -1.0
"""

ATOMS_FILE = """
[measure]
kind = atoms
atoms =
    0.0 1.0
    0.7 0.5

[beta]
kind = per-atom
values = -1.0 2.0
"""


class TestSystemParsing:
    def test_pair_file(self):
        sys = parse_system(PAIR_FILE)
        np.testing.assert_allclose(sys.delta_prime_betas(), [-1.0, -1.0])
        states = find_bound_states(sys, 10.0)
        assert len(states) == 2

    def test_global_rows(self):
        sys = parse_system(NONLOCAL_FILE)
        states = find_bound_states(sys, 10.0)
        assert len(states) == 1
        assert abs(states[0].kappa - 1.9611797513715394) < 1e-9

    def test_lambda_and_b_entries(self):
        sys = parse_system(MIXED_FILE)
        np.testing.assert_allclose(sys.delta_prime_betas(), [-2.0, -1.0])

    def test_empty_points(self):
        sys = parse_system("[system]\npoints =\n")
        assert sys.n_points == 0

    @pytest.mark.parametrize("text", [
        "[system]\npoints = 0.0\n",                                  # no condition
        "[system]\npoints = 0.0\n[condition 1]\nkind = bogus\n",     # bad kind
        "[system]\npoints = 0.0\n[condition 1]\nkind = delta\n",     # missing param
        "[system]\npoints = 0.0\n[global]\nrows = 1 0 0 0\n",        # wrong shape
        "points = 1",                                                # not ini
    ])
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            parse_system(text)


class TestMeasureParsing:
    def test_cantor(self):
        mu, beta = parse_measure(CANTOR_FILE)
        assert len(mu) == 4
        np.testing.assert_allclose(beta.at_atoms(mu), -1.0)

    def test_atoms_per_atom_beta(self):
        mu, beta = parse_measure(ATOMS_FILE)
        np.testing.assert_allclose(mu.positions, [0.0, 0.7])
        np.testing.assert_allclose(beta.at_atoms(mu), [-1.0, 2.0])

    @pytest.mark.parametrize("text", [
        "[measure]\nkind = cantor\n[beta]\nkind = constant\nvalue = -1\n",   # no depth
        "[measure]\nkind = atoms\natoms = 0.0\n[beta]\nkind = constant\nvalue = -1\n",
        "[measure]\nkind = cantor\ndepth = 1\n[beta]\nkind = per-atom\nvalues = -1\n",
        "[measure]\nkind = cantor\ndepth = 1\n",                             # no beta
    ])
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            parse_measure(text)


class TestCsv:
    def test_metadata_and_determinism(self):
        def render():
            buf = io.StringIO()
            write_csv(buf, ["a", "b"], [[1.0, 2.5], [0.1, -3.0]],
                      {"zeta": 1, "alpha": "x"})
            return buf.getvalue()

        out1, out2 = render(), render()
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0].startswith("# deltaprime ")
        assert lines[1] == "# config: alpha = x"   # sorted keys
        assert lines[2] == "# config: zeta = 1"
        assert lines[3] == "a,b"


class TestCli:
    def test_lambda_table(self, capsys):
        assert main(["interactions", "lambda", "--kind", "delta-prime",
                     "--beta", "-1"]) == 0
        out = capsys.readouterr().out
        assert "(-1+0j)" in out and "Lambda" in out

    def test_lambda_kind_errors(self, capsys):
        assert main(["interactions", "lambda", "--kind", "delta"]) == 2
        assert "kind delta needs --alpha" in capsys.readouterr().err
        assert main(["interactions", "lambda", "--kind", "bogus", "--alpha", "1"]) == 2
        assert "unknown kind 'bogus'" in capsys.readouterr().err
        assert main(["interactions", "lambda", "--kind", "delta-prime-potential",
                     "--gamma", "6"]) == 0
        assert "Lambda[delta-prime-potential]" in capsys.readouterr().out

    def test_compose_degenerate_exits_one(self, capsys):
        rc = main(["interactions", "compose", "--gamma", "2", "--gamma", "-2"])
        assert rc == 1

    def test_compose_regular(self, capsys):
        assert main(["interactions", "compose", "--gamma", "1.5",
                     "--gamma", "-1.5"]) == 0
        assert "gamma = 0.0" in capsys.readouterr().out

    def test_characteristic(self, capsys):
        assert main(["interactions", "characteristic", "--gamma", "6"]) == 0
        out = capsys.readouterr().out
        assert "0.693147" in out and "s = -1" in out

    def test_approx_complex_coefficient_exits_one(self):
        assert main(["approx", "--family", "4d", "--gamma", "1"]) == 1

    def test_approx_3d_limit(self, tmp_path):
        out = tmp_path / "limit.csv"
        assert main(["approx", "--family", "3d", "--gamma", "0.666666666666667",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "classification,Limit" in text

    def test_approx_5d_presets(self, tmp_path):
        out = tmp_path / "free.csv"
        assert main(["approx", "--family", "5d", "--preset", "free",
                     "--out", str(out)]) == 0
        assert "classification,Limit" in out.read_text()
        out2 = tmp_path / "dir.csv"
        assert main(["approx", "--family", "5d", "--preset", "dirichlet",
                     "--out", str(out2)]) == 0
        assert "dirichlet-decoupling" in out2.read_text()

    def test_spectrum_builtin(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--builtin", "delta-prime-pair",
                     "--beta", "-1", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("kappa")]
        assert len(rows) == 2

    def test_spectrum_empty_system(self, tmp_path):
        f = tmp_path / "empty.ini"
        f.write_text("[system]\npoints =\n")
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--system", str(f), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("kappa")]
        assert rows == []

    def test_spectrum_finds_every_state_without_kappa_max(self, tmp_path):
        # close wells bind deeper than any one alone; no window guess loses one
        f = tmp_path / "found.ini"
        f.write_text("[system]\npoints = 0 0.0962 0.1486\n" + "".join(
            f"[condition {i}]\nkind = delta-prime\nbeta = {b}\n"
            for i, b in enumerate((-3.9678, -4.0866, -3.5949), 1)))
        for extra in ([], ["--kappa-max", "inf"]):
            out = tmp_path / "spectrum.csv"
            assert main(["spectrum", "--system", str(f), "--out", str(out)] + extra) == 0
            lines = out.read_text().splitlines()
            rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("kappa")]
            assert len(rows) == 3
            assert f"# config: kappa_max = {extra[-1] if extra else None}" in lines

    def test_spectrum_non_lagrangian_relation_is_a_domain_error(self, tmp_path, capsys):
        # the verbatim nonlocal conditions: not self-adjoint, so no spectrum
        f = tmp_path / "verbatim.ini"
        f.write_text("[system]\npoints = -1.0 1.0\n[global]\nrows =\n"
                     "    0 0 1 -1  0 0 0 0\n    0 0 0 0  0 0 1 -1\n"
                     "    0 0 2 0  1 -1 0 0\n    0 0 1 -1  1 -1 1 1\n")
        assert main(["spectrum", "--system", str(f), "--kappa-max", "10"]) == 1
        assert "not Lagrangian" in capsys.readouterr().err

    def test_spectrum_identical_config_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            main(["spectrum", "--builtin", "nonlocal-example", "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_measure_single_atom_trend(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["measure", "--atoms", "0.0:1.0", "--beta", "-1",
                   "--box-margin", "1", "2", "--grids", "128,256,512",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text().splitlines()
        extra = [l for l in text if ",extrapolated," in l]
        assert len(extra) == 2
        energies = [float(l.split(",")[4]) for l in extra]
        assert abs(energies[-1] + 4.0) < 1e-4
        # in the truncation-dominated regime the larger box is closer
        assert abs(energies[1] + 4.0) < abs(energies[0] + 4.0)

    def test_measure_positive_beta(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["measure", "--cantor-depth", "1", "--beta", "1.0",
                   "--box-margin", "2", "--grids", "64,128", "--out", str(out)])
        assert rc == 0
        extra = [l for l in out.read_text().splitlines() if ",extrapolated," in l]
        assert extra[0].split(",")[3] == "0"

    def test_certify_points(self, capsys):
        assert main(["certify", "--positions", "0,1,2",
                     "--betas=-1,1,-3"]) == 0
        out = capsys.readouterr().out
        assert "count = 2" in out and "secular_count = 2" in out

    def test_certify_cantor(self, capsys):
        assert main(["certify", "--cantor-depth", "2", "--beta", "-1",
                     "--blocks", "2"]) == 0
        out = capsys.readouterr().out
        assert "count = 4" in out

    def test_certify_random_sweep(self, capsys):
        assert main(["certify", "--random-trials", "5", "--seed", "1"]) == 0
        assert "agreement 5/5" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--positions", "0,1,2", "--betas=-1,1,-3"],
        ["--cantor-depth", "2", "--beta", "-1", "--blocks", "2"],
        ["--random-trials", "2", "--seed", "1"],
    ], ids=["points", "cantor", "random"])
    def test_certify_out_file(self, argv, tmp_path, capsys):
        # every mode writes --out, and the file holds what stdout shows without it
        assert main(["certify", *argv]) == 0
        shown = capsys.readouterr().out
        out = tmp_path / "f.txt"
        assert main(["certify", *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == shown

    def test_deficiency_rank(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["deficiency", "--points", "0,1", "--z", "-1",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# gram_rank = 4 (family size 4)" in text
        assert main(["deficiency", "--points", "0,1", "--z", "-1",
                     "--drop-prime-at", "1", "--out", str(out)]) == 0
        assert "# gram_rank = 3 (family size 3)" in out.read_text()

    def test_deficiency_functional_table(self, capsys):
        assert main(["deficiency", "--points", "0", "--z", "-1"]) == 0
        out = capsys.readouterr().out
        assert "(1-0j)" in out or "(1+0j)" in out  # -mass/z = 1 at z=-1
        assert "0j" in out                          # derivative family row

    def test_usage_error_exit_two(self, capsys):
        assert main(["spectrum"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["measure", "--atoms", "0.0:1.0", "--grids", "4,8"], "need n >= 8"),
        (["interactions", "lambda", "--kind", "transparent", "--lambda0", "0"], "lambda0"),
        (["measure", "--atoms", "0.0:1.0", "--grids", "512,512"], "distinct"),
        (["spectrum", "--builtin", "delta-prime-pair", "--kappa-max", "nan"], "positive"),
        (["approx", "--family", "3d"], "family 3d needs --gamma"),
        (["approx", "--family", "4d"], "family 4d needs --gamma"),
        (["approx", "--family", "5d", "--eps-ratio", "0"], "--eps-ratio"),
        (["certify", "--random-trials", "-3"], "--random-trials"),
        (["certify", "--random-trials", "0"], "--random-trials"),
    ])
    def test_library_value_error_exit_two(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_measure_bytes_independent_of_blas_threads(self):
        src = str(Path(__file__).parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "deltaprime.cli", "measure", "--cantor-depth", "3",
                "--beta", "-1", "--grids", "512,1024,2048"]
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_import_leaves_out_scipy_integrate(self):
        # quadrature serves only the test oracles; the CLI import floor skips it
        src = str(Path(__file__).parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, deltaprime.cli; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
