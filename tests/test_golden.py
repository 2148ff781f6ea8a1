"""Every README CLI invocation against its recorded output, byte for byte.

Each invocation runs through `cli.main` in a fresh working directory
that holds the README's `mysystem.ini`, so relative file names (and the
`# config:` lines that echo them) are the README's own.  The compared
bytes are stdout, or the `--out` file when the invocation writes one.

LAPACK results depend in their last bits on the BLAS thread count, so
the invocations run in one child process with BLAS on a single thread.
Regenerate the files with `PYTHONPATH=src python tests/test_golden.py`
only when an output change is intended and explained.  The script prints,
for each file whose bytes change, how many numeric fields moved and the
worst relative change against the old bytes.
"""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (golden file, README invocation, file written by --out or None for stdout)
INVOCATIONS = [
    ("interactions-lambda", "interactions lambda --kind delta-prime --beta -1", None),
    ("interactions-characteristic", "interactions characteristic --gamma 6", None),
    ("interactions-unitary", "interactions unitary --beta -1", None),
    ("approx-3d", "approx --family 3d --gamma 0.6667 --out limit.csv", "limit.csv"),
    ("approx-5d", "approx --family 5d --preset dirichlet", None),
    ("spectrum-nonlocal", "spectrum --builtin nonlocal-example", None),
    ("spectrum-pair", "spectrum --builtin delta-prime-pair --beta -1", None),
    ("spectrum-system", "spectrum --system mysystem.ini --kappa-max 20", None),
    ("measure-cantor", "measure --cantor-depth 3 --beta -1 --grids 512,1024,2048", None),
    ("measure-atoms", "measure --atoms 0.0:1.0 --beta -1 --box-margin 2 4 8", None),
    ("certify-points", "certify --positions 0,1,2 --betas=-1,1,-3", None),
    ("certify-cantor", "certify --cantor-depth 2 --beta -1 --blocks 2", None),
    ("certify-sweep", "certify --random-trials 50 --seed 7", None),
    ("deficiency", "deficiency --points 0,1 --z -1 --drop-prime-at 1", None),
]


def render(outdir: Path) -> None:
    """Run every invocation in its own scratch directory; write <name>.txt to outdir."""
    from deltaprime.cli import main

    home = os.getcwd()
    for name, cmdline, outfile in INVOCATIONS:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(GOLDEN / "mysystem.ini", tmp)
            buf = io.StringIO()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(cmdline.split())
                out = Path(outfile).read_bytes() if outfile else buf.getvalue().encode()
            finally:
                os.chdir(home)
        if code != 0:
            raise SystemExit(f"{cmdline!r} exited {code}")
        path = outdir / f"{name}.txt"
        if path.exists() and path.read_bytes() != out:
            print(f"{name}.txt: {moved(path.read_bytes(), out)}")
        path.write_bytes(out)


def moved(old: bytes, new: bytes) -> str:
    """How many numeric fields of old changed in new, and the worst relative
    change; or that the text around the numbers changed."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if len(a) != len(b) or NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return "the text around the numbers changed"
    pairs = [(x, y) for x, y in zip(map(float, a), map(float, b)) if x != y]
    worst = max((abs(y - x) / max(abs(x), abs(y)) for x, y in pairs), default=0.0)
    return f"{len(pairs)} of {len(a)} numeric fields changed, worst relative change {worst:.3g}"


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, __file__, str(outdir)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return outdir


def test_invocations_are_the_readme_ones():
    lines = [ln.split("#")[0].split() for ln in README.read_text().splitlines()
             if ln.startswith("deltaprime ")]
    assert [" ".join(ln[1:]) for ln in lines] == [cmd for _, cmd, _ in INVOCATIONS]


@pytest.mark.parametrize("name", [n for n, _, _ in INVOCATIONS])
def test_readme_invocation_matches_golden(name, rendered):
    assert (rendered / f"{name}.txt").read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    os.environ.update(SINGLE_THREAD)   # before numpy loads BLAS
    render(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
