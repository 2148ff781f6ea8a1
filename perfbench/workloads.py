"""The four workloads: seeded inputs, the library call of each problem, its check.

A problem is one checked call into deltaprime.  Inputs are generated
here from the workload seed with numpy's PCG64 generator, before any
timing starts, and the library receives only the generated arrays.
Library functions are always reached through their module attribute
(`measures.negative_spectrum`, not an imported name) so the traced run
sees every call.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from deltaprime import certify, deficiency, line, measures, transfer
from deltaprime.interactions import TransmissionMatrix, lambda_of, Delta, DeltaPrime, DeltaPrimePotential

import checker as ck
import reference as ref
from cli_timer import MARKER

NYSTROM_RTOL = 1e-4        # extrapolated Nystrom energies vs the boxed transfer-matrix roots
ROOT_RTOL = 1e-10          # bound-state decay rates vs closed forms and characteristic roots
LIMIT_ATOL = 1e-6          # Richardson-extrapolated comb limits vs diag(theta, 1/theta)
DET_RTOL = 1e-10           # |det M - 1| relative to ||M||^2 for comb transfer matrices


@dataclass
class Problem:
    name: str
    layer: str                        # the module the call exercises
    run: Callable[[], object]
    check: Callable[[object], ck.Verdict]
    inputs: tuple = field(default_factory=tuple)


def inputs_digest(problems: list[Problem]) -> str:
    """sha256 over every generated input, to compare inputs across commits."""
    h = hashlib.sha256()
    for p in problems:
        h.update(p.name.encode())
        for x in p.inputs:
            if isinstance(x, np.ndarray):
                h.update(np.ascontiguousarray(x, dtype=float).tobytes())
            else:
                h.update(repr(x).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def cantor_atoms(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of the level-`depth` middle-thirds pieces of [0, 1], mass 2^-depth each."""
    lo = np.zeros(1)
    width = 1.0
    for _ in range(depth):
        width /= 3.0
        lo = np.concatenate([lo, lo + 2.0 * width])
        lo.sort()
    return lo + 0.5 * width, np.full(lo.size, 0.5 ** depth)


def random_delta_prime(rng: np.random.Generator, n: int, n_neg: int):
    """Random pure delta' system with n points, n_neg of them attractive.

    Gaps in [0.2, 1], |beta| in [0.2, 5], random offset and random choice
    of the attractive points.
    """
    gaps = rng.uniform(0.2, 1.0, size=n - 1)
    pts = np.concatenate(([0.0], np.cumsum(gaps))) + rng.uniform(-1, 1)
    signs = np.ones(n)
    signs[rng.permutation(n)[:n_neg]] = -1.0
    return pts, rng.uniform(0.2, 5.0, size=n) * signs


def few_atoms(rng: np.random.Generator, n: int):
    """n atoms in [0, 1] at least 0.2 apart, weights in [0.5, 1.2], |beta| in [0.5, 2]."""
    pts = np.sort(rng.uniform(0.0, 1.0, size=n))
    while n > 1 and np.min(np.diff(pts)) < 0.2:
        pts = np.sort(rng.uniform(0.0, 1.0, size=n))
    ws = rng.uniform(0.5, 1.2, size=n)
    bs = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return pts, ws, bs


# ---------------------------------------------------------------------------
# nystrom-cantor
# ---------------------------------------------------------------------------

def _ladder(name, xs, ws, betas, grids, want_counts, ref_energies=None, a=-2.0, b=3.0):
    mu = measures.AtomicMeasure(xs, ws)
    kern = measures.GreenKernel(a, b, mu, measures.BetaFunction(betas))

    def check(res):
        parts = [ck.count(c, want_counts, f"n={n} count") for n, c in zip(res.grid_sizes, res.counts)]
        if ref_energies is not None:
            parts.append(ck.close(res.eigenvalues, ref_energies, NYSTROM_RTOL, "energies"))
        return ck.combine(*parts)

    return Problem(name, "measures", lambda: measures.negative_spectrum(kern, grids), check,
                   (xs, ws, betas, a, b, tuple(grids)))


def _measure_certificate(depth: int) -> Problem:
    xs, ws = cantor_atoms(depth)
    mu = measures.AtomicMeasure(xs, ws)
    beta = measures.BetaFunction.constant(-1.0)
    blocks = [np.array([k]) for k in range(2 ** depth)]     # block level = depth

    def check(cert):
        return ck.combine(
            ck.count(cert.count, 2 ** depth, "certified"),
            ck.require(bool(np.all(cert.forms <= cert.bounds + 1e-12)), "forms <= bounds"),
        )

    return Problem(f"certify/cantor-d{depth}", "certify",
                   lambda: certify.certify_count_measure(mu, beta, blocks), check, (xs, ws))


def nystrom_cantor(rng: np.random.Generator, tiny: bool) -> list[Problem]:
    depths = (1, 2) if tiny else (1, 2, 3, 4, 5, 6)
    grids = [64, 128, 256] if tiny else [512, 1024, 2048]
    big = (2, [128, 256, 512]) if tiny else (3, [1024, 2048, 4096])
    probs = []
    for d in depths:
        xs, ws = cantor_atoms(d)
        probs.append(_ladder(f"ladder/cantor-d{d}", xs, ws, np.full(xs.size, -1.0), grids, 2 ** d))
    xs, ws = cantor_atoms(big[0])
    probs.append(_ladder(f"ladder/cantor-d{big[0]}-{big[1][-1]}", xs, ws,
                         np.full(xs.size, -1.0), big[1], 2 ** big[0]))
    probs += [_measure_certificate(d) for d in depths]
    for i in range(1 if tiny else 4):
        xs, ws, bs = few_atoms(rng, 1 + i % 3)
        energies = ref.box_energies(-2.0, 3.0, xs, bs * ws)
        probs.append(_ladder(f"few-atom/{i}", xs, ws, bs, [128, 256, 512] if tiny else [256, 512, 1024],
                             int(np.sum(bs < 0)), energies))
    return probs


# ---------------------------------------------------------------------------
# points-deltaprime
# ---------------------------------------------------------------------------

def _kappas(states):
    return [s.kappa for s in states]


def points_deltaprime(rng: np.random.Generator, tiny: bool) -> list[Problem]:
    probs, certs = [], []
    # sizes and attractive counts are fixed per index, so every seed has
    # the same mix of problem sizes; only positions and intensities vary
    for i in range(5 if tiny else 50):
        n = 1 + i % 6
        pts, betas = random_delta_prime(rng, n, (i // 6) % (n + 1))
        sysd = line.delta_prime_system(pts, betas)
        want = int(np.sum(betas < 0))
        kmax = 4.0 * float(np.max(2.0 / np.abs(betas)))

        def check(st, want=want, betas=betas):
            parts = [ck.states(len(st), want)]
            if betas.size == 1 and want == 1:
                parts.append(ck.close(_kappas(st), [2.0 / abs(betas[0])], ROOT_RTOL, "kappa"))
            return ck.combine(*parts)

        def check_cert(cert, want=want):
            return ck.combine(ck.count(cert.count, want, "certified"),
                              ck.count(cert.secular_count, want, "secular"))

        probs.append(Problem(f"sweep/{i}", "line",
                             lambda s=sysd, k=kmax: line.find_bound_states(s, k), check,
                             (pts, betas)))
        certs.append(Problem(f"certify-points/{i}", "certify",
                             lambda s=sysd: certify.certify_count_points(s, verify_secular=True),
                             check_cert, (pts, betas)))
    probs += certs

    pair = line.delta_prime_pair(-1.0)
    pair_ref = [ref.coth_root(), ref.tanh_root()]   # even, odd; descending kappa
    probs.append(Problem(
        "pair/beta-1", "line", lambda: line.find_bound_states(pair, 8.0),
        lambda st: ck.combine(ck.states(len(st), 2), ck.close(_kappas(st), pair_ref, ROOT_RTOL, "kappa")),
        (-1.0,)))

    for d in ((3,) if tiny else (3, 4, 5)):
        xs, ws = cantor_atoms(d)

        def run(xs=xs, ws=ws):
            bridged = measures.atomic_to_point_system(
                measures.AtomicMeasure(xs, ws), measures.BetaFunction.constant(-1.0))
            return line.find_bound_states(bridged, 192.0)

        probs.append(Problem(f"bridge/cantor-d{d}", "line", run,
                             lambda st, d=d: ck.states(len(st), 2 ** d), (xs, ws)))
    return probs


# ---------------------------------------------------------------------------
# general-lambda
# ---------------------------------------------------------------------------

def _mixed_system(rng: np.random.Generator, n: int, n_bound: int):
    """Decoupled mixed-kind system of n points, n_bound of them binding.

    Points sit 40 apart and every bound state decays at rate >= 1, so
    the coupling between points is below e^-40 and each binding point
    keeps its one-point closed form: kappa = -alpha/2 for a delta,
    2/|beta| for a delta'.  Targets are spread at least 0.3 apart so no
    two states are nearly degenerate.
    """
    targets = 1.0 + 0.4 * rng.permutation(8)[:n] + rng.uniform(0.0, 0.1, size=n)
    binding = set(rng.permutation(n)[:n_bound].tolist())
    kinds, kappas = [], []
    for k in range(n):
        if k in binding:
            if rng.uniform() < 0.5:
                kinds.append(("delta", float(-2.0 * targets[k])))
            else:
                kinds.append(("delta-prime", float(-2.0 / targets[k])))
            kappas.append(targets[k])
            continue
        pick = int(rng.integers(0, 3))
        if pick == 0:
            kinds.append(("delta", float(rng.uniform(0.5, 3.0))))
        elif pick == 1:
            kinds.append(("delta-prime", float(rng.uniform(0.5, 3.0))))
        else:
            kinds.append(("delta-prime-potential", float(rng.uniform(-1.5, 1.5))))
    pts = 40.0 * np.arange(n, dtype=float)
    return pts, kinds, np.sort(kappas)[::-1]


_KIND = {"delta": Delta, "delta-prime": DeltaPrime, "delta-prime-potential": DeltaPrimePotential}


# delta systems (points, alphas) with a delta-magnetic intensity mu per
# point; fixed rather than seeded, so their cost is the same on every seed.
# The real systems have 1, 2 and 3 bound states.
MAGNETIC = {
    1: ([0.0], [-2.0], [1.3]),
    2: ([0.0, 1.2], [-2.5, -3.0], [1.0, -0.7]),
    4: ([0.0, 1.0, 2.1, 3.3], [-2.0, 1.5, -3.0, -2.5], [0.8, -1.2, 2.0, 0.5]),
}


def general_lambda(rng: np.random.Generator, tiny: bool) -> list[Problem]:
    probs = []
    for i in range(3 if tiny else 12):
        n = 2 + i % 7
        pts, kinds, want = _mixed_system(rng, n, i % (n + 1))
        sysm = line.PointSystem(pts, lambdas=[lambda_of(_KIND[k](v)) for k, v in kinds])
        probs.append(Problem(
            f"mixed/{i}", "line", lambda s=sysm: line.find_bound_states(s, 5.0),
            lambda st, want=want: ck.combine(ck.states(len(st), want.size),
                                             ck.close(_kappas(st), want, ROOT_RTOL, "kappa")),
            (pts, tuple(kinds))))

    for n in ((1,) if tiny else (1, 2, 4)):
        pts, alphas, mus = (np.array(v) for v in MAGNETIC[n])
        kmax = float(np.sum(np.abs(alphas[alphas < 0]))) / 2.0 + 1.0
        if n == 1:
            want = np.array([-alphas[0] / 2.0])      # closed form of a single delta
        else:
            want = ref.delta_states(pts, alphas, kmax / line.DEFAULT_GRID, kmax)
        real = [np.array([[1.0, 0.0], [a, 1.0]]) for a in alphas]
        # delta-magnetic phase e^{i eta}, eta = 2 arctan(mu/2), on each point:
        # gauge-equivalent to the real system, so the spectrum is the same
        gauged = [np.exp(2j * np.arctan(0.5 * m)) * r for m, r in zip(mus, real)]
        for tag, mats in (("real", real), ("gauged", gauged)):
            sysd = line.PointSystem(pts, lambdas=[TransmissionMatrix(m) for m in mats])
            probs.append(Problem(
                f"magnetic/n{n}-{tag}", "line", lambda s=sysd, k=kmax: line.find_bound_states(s, k),
                lambda st, want=want: ck.combine(ck.states(len(st), want.size),
                                                 ck.close(_kappas(st), want, ROOT_RTOL, "kappa")),
                (pts, alphas, mus, tag)))

    nonlocal_sys = line.nonlocal_example()
    tanh = ref.tanh_root()
    probs.append(Problem(
        "nonlocal/example", "line", lambda: line.find_bound_states(nonlocal_sys, 8.0),
        lambda st: ck.combine(
            ck.states(len(st), 1),
            ck.close(_kappas(st), [ref.ROOT_TANH], ROOT_RTOL, "kappa"),
            ck.require(abs(tanh - ref.ROOT_TANH) <= 1e-15, "tanh root reproduced"),
            ck.require(len(st) == 1 and st[0].parity == "odd", "odd parity"),
        ), ()))

    # every family converges at first order in eps to its limit; the 4d
    # intensities are fixed so the same cases run on every seed
    eps_seq = (1e-2, 1e-3, 1e-4, 1e-5)
    g3 = float(rng.uniform(0.2, 1.5)) * float(rng.choice([-1.0, 1.0]))
    families = [("3d", lambda e: transfer.family_3d(g3, e), transfer.LIMIT, ref.theta(g3), g3)]
    for g4 in (3.0, 8.0):
        for sign, tag in ((1, "+"), (-1, "-")):
            families.append((f"4d{tag}g{g4:g}", lambda e, g=g4, s=sign: transfer.family_4d(g, s, e),
                             transfer.LIMIT, ref.theta(g4), g4))
    families += [
        ("5d-free", lambda e: transfer.family_5d("free", e), transfer.LIMIT, 1.0, None),
        ("5d-dirichlet", lambda e: transfer.family_5d("dirichlet", e), transfer.DIRICHLET, None, None),
    ]
    for tag, fam, cls, th, g in (families[:1] + families[-1:] if tiny else families):
        def check(rep, cls=cls, th=th):
            parts = [ck.require(rep.classification == cls, f"classified {rep.classification}, expected {cls}")]
            if th is not None and rep.limit is not None:
                err = float(np.abs(rep.limit.entries - np.diag([th, 1.0 / th])).max())
                parts.append(ck.require(err <= LIMIT_ATOL * max(1.0, abs(th)),
                                        f"limit error {err:.2e} vs diag(theta, 1/theta)"))
            return ck.combine(*parts)

        probs.append(Problem(f"limit/{tag}", "transfer",
                             lambda fam=fam: transfer.limit_diagnose(fam, 1.0, eps_seq), check,
                             (tag, g)))

    n_combs = 2 if tiny else 8
    for i in range(n_combs):
        n = 10 + (190 * i) // (n_combs - 1)
        xs = np.cumsum(rng.uniform(0.01, 0.1, size=n))
        amps = rng.uniform(-5.0, 5.0, size=n)
        lam = float(rng.uniform(0.5, 3.0))
        comb = transfer.DeltaComb(xs, amps)

        def check(m):
            dev = abs(np.linalg.det(m) - 1.0) / np.linalg.norm(m) ** 2
            return ck.require(dev <= DET_RTOL, f"|det-1|/|M|^2 = {dev:.1e}")

        probs.append(Problem(f"comb/{i}-n{n}", "transfer",
                             lambda c=comb, lam=lam: transfer.comb_transfer(c, lam), check,
                             (xs, amps, lam)))

    for n in ((4,) if tiny else (4, 8, 16, 32)):
        pts = np.cumsum(rng.uniform(0.5, 1.5, size=n))
        for tag, drop, want in (("", [], 2 * n), ("-drop", [pts[-1]], 2 * n - 1)):
            probs.append(Problem(
                f"gram/n{n}{tag}", "deficiency",
                lambda p=pts, d=drop: deficiency.gram_rank(deficiency.point_family(p, -1.0, drop_prime_at=d)),
                lambda r, want=want: ck.count(r, want, "rank"), (pts, tag)))
    return probs


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

MYSYSTEM_INI = """[system]
points = -1.0 1.0

[condition 1]
kind = delta-prime
beta = -1.0

[condition 2]
kind = delta-prime
beta = -1.0
"""

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _complexes(text: str) -> list[complex]:
    return [complex(t.strip("()")) for t in re.findall(r"\(?[-+0-9.eEj]+\)?", text) if "j" in t]


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _check_matrix(expected):
    def check(out):
        vals = _complexes("\n".join(out.splitlines()[1:]))
        if len(vals) != 4:
            return ck.Verdict(False, f"{len(vals)} matrix entries")
        err = float(np.abs(np.array(vals) - np.ravel(expected)).max())
        return ck.require(err <= 1e-12, f"matrix error {err:.1e}")
    return check


def _check_characteristic(out):
    m = re.search(rf"xi = ({_NUM})\s+s = ([-+]\d+)", out)
    if not m:
        return ck.Verdict(False, "no xi/s line")
    th = ref.theta(6.0)
    return ck.combine(ck.close(float(m.group(1)), np.log(abs(th)), 1e-12, "xi"),
                      ck.count(int(m.group(2)), int(np.sign(th)), "s"))


def _check_limit_csv(text):
    rows = {r[0]: r for r in _csv_rows(text)}
    th = ref.theta(0.6667)
    if "limit" not in rows:
        return ck.Verdict(False, "no limit row")
    lim = np.array([complex(v) for v in rows["limit"][1:5]])
    err = float(np.abs(lim - np.array([th, 0, 0, 1.0 / th])).max())
    return ck.combine(ck.require(rows.get("classification", ["", ""])[1].startswith("Limit"), "classified Limit"),
                      ck.require(err <= LIMIT_ATOL, f"limit error {err:.1e}"))


def _check_spectrum(want, parities):
    def check(out):
        rows = _csv_rows(out)
        kap = [float(r[0]) for r in rows]
        return ck.combine(ck.states(len(rows), len(want)),
                          ck.close(kap, want, ROOT_RTOL, "kappa"),
                          ck.require([r[2] for r in rows] == parities, "parities"))
    return check


def _check_cantor_measure(out):
    rows = _csv_rows(out)
    counts = [int(r[3]) for r in rows]
    return ck.combine(ck.count(len(rows), 4, "rows"),
                      *(ck.count(c, 8, "count") for c in counts))


def _check_atom_margins(out):
    rows = [r for r in _csv_rows(out) if r[2] == "extrapolated"]
    parts = [ck.count(len(rows), 3, "extrapolated rows")]
    for r in rows:
        m = float(r[0])
        parts.append(ck.count(int(r[3]), 1, f"margin {m:g} count"))
        parts.append(ck.close(float(r[4]), ref.box_energies(-m, m, [0.0], [-1.0])[0],
                              NYSTROM_RTOL, f"margin {m:g} energy"))
    return ck.combine(*parts)


def _keyval(out, key):
    return [v for k, v in re.findall(r"^(\w+) = (.*)$", out, flags=re.M) if k == key]


def _check_point_certificate(out):
    forms = [float(v) for v in _keyval(out, "form")]
    return ck.combine(ck.count(int(_keyval(out, "count")[0]), 2, "certified"),
                      ck.count(int(_keyval(out, "secular_count")[0]), 2, "secular"),
                      ck.close(forms, [-0.5, -1.5], 1e-12, "forms beta/2"))


def _check_measure_certificate(out):
    forms = [float(v) for v in _keyval(out, "form")]
    bounds = [float(v) for v in _keyval(out, "bound")]
    return ck.combine(ck.count(int(_keyval(out, "count")[0]), 4, "certified"),
                      ck.require(len(forms) == 4 and all(f <= b for f, b in zip(forms, bounds)),
                                 "forms <= bounds"))


def _check_sweep(out):
    return ck.require(out.strip().endswith("agreement 50/50"), "agreement 50/50")


def _check_deficiency(out):
    rows = _csv_rows(out)
    e = {r[0] + "@" + r[1]: complex(r[3]) for r in rows}
    m = re.search(r"# gram_rank = (\d+) \(family size (\d+)\)", out)
    if not m:
        return ck.Verdict(False, "no gram_rank line")
    return ck.combine(ck.count(int(m.group(1)), 3, "rank"), ck.count(int(m.group(2)), 3, "family"),
                      ck.require(abs(e.get("g@0.0", 0) - 1) < 1e-12 and abs(e.get("g_prime@0.0", 1)) < 1e-12,
                                 "e-functional -mass/z and 0"))


def _cayley(b):
    return np.diag([(x + 1j) / (x - 1j) for x in b])


PAIR = [ref.coth_root(), ref.tanh_root()]

# the README's CLI invocations, each with its content check
README = [
    ("interactions lambda --kind delta-prime --beta -1", _check_matrix([[1, -1], [0, 1]]), None),
    ("interactions characteristic --gamma 6", _check_characteristic, None),
    ("interactions unitary --beta -1", _check_matrix(_cayley([0.0, 1.0])), None),
    ("approx --family 3d --gamma 0.6667 --out limit.csv", _check_limit_csv, "limit.csv"),
    ("approx --family 5d --preset dirichlet",
     lambda out: ck.require("classification,dirichlet-decoupling" in out, "dirichlet-decoupling"), None),
    ("spectrum --builtin nonlocal-example", _check_spectrum([ref.ROOT_TANH], ["odd"]), None),
    ("spectrum --builtin delta-prime-pair --beta -1", _check_spectrum(PAIR, ["even", "odd"]), None),
    ("spectrum --system mysystem.ini --kappa-max 20", _check_spectrum(PAIR, ["even", "odd"]), None),
    ("measure --cantor-depth 3 --beta -1 --grids 512,1024,2048", _check_cantor_measure, None),
    ("measure --atoms 0.0:1.0 --beta -1 --box-margin 2 4 8", _check_atom_margins, None),
    ("certify --positions 0,1,2 --betas=-1,1,-3", _check_point_certificate, None),
    ("certify --cantor-depth 2 --beta -1 --blocks 2", _check_measure_certificate, None),
    ("certify --random-trials 50 --seed 7", _check_sweep, None),
    ("deficiency --points 0,1 --z -1 --drop-prime-at 1", _check_deficiency, None),
]


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    file_text: str | None
    timing: dict | None = None          # from the timing wrapper, in the traced run


def _split_timing(err: str) -> tuple[str, dict | None]:
    lines = err.splitlines()
    if lines and lines[-1].startswith(MARKER):
        return "\n".join(lines[:-1]), json.loads(lines[-1][len(MARKER):])
    return err, None


def cli_problems(workdir: Path, tiny: bool, timer: list[str] | None = None) -> list[Problem]:
    """One problem per README invocation, run as a subprocess in `workdir`.

    With `timer`, the command runs through the benchmark's timing
    wrapper instead of `python -m deltaprime.cli`.
    """
    (workdir / "mysystem.ini").write_text(MYSYSTEM_INI)
    chosen = [README[0], README[-1]] if tiny else README
    probs = []
    for cmdline, check_out, outfile in chosen:
        argv = cmdline.split()
        name = f"cli/{README.index((cmdline, check_out, outfile)):02d}-{argv[0]}"

        def run(argv=argv, outfile=outfile):
            if outfile:
                (workdir / outfile).unlink(missing_ok=True)
            cmd = (timer or [sys.executable, "-m", "deltaprime.cli"]) + argv
            proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True, timeout=120)
            text = (workdir / outfile).read_text() if outfile and (workdir / outfile).exists() else None
            err, timing = _split_timing(proc.stderr)
            return CliResult(proc.returncode, proc.stdout, err, text, timing)

        def check(res, check_out=check_out, outfile=outfile):
            if res.code != 0:
                return ck.Verdict(False, f"exit {res.code}: {res.err.strip()[-200:]}")
            body = res.file_text if outfile else res.out
            if body is None:
                return ck.Verdict(False, f"{outfile} not written")
            return check_out(body)

        probs.append(Problem(name, "cli", run, check, (cmdline,)))
    return probs


GENERATORS = {
    "nystrom-cantor": nystrom_cantor,
    "points-deltaprime": points_deltaprime,
    "general-lambda": general_lambda,
}


def build(workload: str, seed: int, tiny: bool, workdir: Path, timer=None) -> list[Problem]:
    if workload == "cli-readme":
        return cli_problems(workdir, tiny, timer)
    return GENERATORS[workload](np.random.default_rng(seed), tiny)
