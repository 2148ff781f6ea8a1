"""Command-line front end.

Subcommands: interactions (boundary-condition algebra), approx
(approximation-family limit studies), spectrum (bound states of point
systems), measure (Nystrom spectra over atomic measures), certify
(variational certificates), deficiency (Gram ranks and the integral
functional).  Exit codes: 0 success, 1 math-domain error, 2
usage/schema error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .configio import KIND_PARAMS, fmt, parse_measure, parse_system, write_csv
from .errors import DomainError, SchemaError
from . import certify as vc
from . import deficiency as df
from .interactions import (
    SelfAdjointB,
    b_to_lambda,
    b_to_unitary,
    gamma_compose,
    gamma_to_characteristic,
    lambda_of,
)
from .line import (
    delta_prime_pair,
    delta_prime_system,
    find_bound_states,
    nonlocal_example,
)
from .measures import (
    AtomicMeasure,
    BetaFunction,
    GreenKernel,
    cantor_blocks,
    cantor_measure,
    negative_spectrum,
)
from .transfer import LIMIT, family_3d, family_4d, family_5d, limit_diagnose


def _out_stream(path: str | None):
    return open(path, "w") if path else nullcontext(sys.stdout)


def _print_matrix(m: np.ndarray, label: str) -> None:
    print(label)
    for row in np.asarray(m):
        print("   " + "  ".join(f"{fmt(v):>24s}" for v in row))


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

def cmd_interactions(args) -> int:
    # --gamma may repeat (compose); every other action reads the first value
    args.gamma = args.gamma_list[0] if args.gamma_list else None
    if args.action == "lambda":
        if args.kind not in KIND_PARAMS:
            raise SchemaError(f"unknown kind {args.kind!r}")
        pname, ctor = KIND_PARAMS[args.kind]
        val = getattr(args, pname)
        if val is None:
            raise SchemaError(f"kind {args.kind} needs --{pname}")
        _print_matrix(lambda_of(ctor(val)).entries, f"Lambda[{args.kind}]")
    elif args.action == "b-to-lambda":
        b = SelfAdjointB(args.alpha or 0.0, args.beta or 0.0, args.gamma or 0.0, args.mu or 0.0)
        _print_matrix(b_to_lambda(b).entries, "Lambda[B]")
    elif args.action == "unitary":
        b = SelfAdjointB(args.alpha or 0.0, args.beta or 0.0, args.gamma or 0.0, args.mu or 0.0)
        _print_matrix(b_to_unitary(b), "U_hat[B] = (B-i)^(-1)(B+i)")
    elif args.action == "compose":
        vals = args.gamma_list or []
        if len(vals) < 2:
            raise SchemaError("compose needs at least two --gamma values")
        total = vals[0]
        for g in vals[1:]:
            total = gamma_compose(total, g)
        print(f"gamma = {fmt(total)}")
    elif args.action == "characteristic":
        if args.gamma is None:
            raise SchemaError("characteristic needs --gamma")
        c = gamma_to_characteristic(args.gamma)
        print(f"xi = {fmt(c.xi)}  s = {c.s:+d}")
    else:
        raise SchemaError(f"unknown action {args.action!r}")
    return 0


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------

def cmd_approx(args) -> int:
    if not args.eps_ratio > 1:
        raise SchemaError("--eps-ratio must be greater than 1")
    eps_seq = [args.eps_start / args.eps_ratio**i for i in range(args.eps_count)]
    lam = complex(args.lam)
    if args.family in ("3d", "4d") and args.gamma is None:
        raise SchemaError(f"family {args.family} needs --gamma")
    if args.family == "3d":
        fam = lambda e: family_3d(args.gamma, e)
        label = f"3d gamma={args.gamma}"
    elif args.family == "4d":
        fam = lambda e: family_4d(args.gamma, args.sign, e)
        label = f"4d gamma={args.gamma} sign={args.sign:+d}"
    elif args.family == "5d":
        fam = lambda e: family_5d(args.preset, e)
        label = f"5d preset={args.preset}"
    else:
        raise SchemaError(f"unknown family {args.family!r}")

    report = limit_diagnose(fam, lam, eps_seq)
    config = {
        "family": label, "lam": lam, "eps_start": args.eps_start,
        "eps_ratio": args.eps_ratio, "eps_count": args.eps_count,
    }
    rows = [[eps, m[0, 0], m[0, 1], m[1, 0], m[1, 1]]
            for eps, m in zip(report.eps_seq, report.matrices)]
    if report.classification == LIMIT:
        lm = report.limit.entries
        rows.append(["limit", lm[0, 0], lm[0, 1], lm[1, 0], lm[1, 1]])
        rows.append([
            "classification", f"Limit (observed order {fmt(report.observed_order)})",
            "", "", "",
        ])
    else:
        rows.append(["classification", report.classification, "", "", ""])
    with _out_stream(args.out) as s:
        write_csv(s, ["eps", "m11", "m12", "m21", "m22"], rows, config)
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _build_system(args):
    if args.builtin == "nonlocal-example":
        return nonlocal_example(), {"builtin": "nonlocal-example"}
    if args.builtin == "delta-prime-pair":
        beta = args.beta if args.beta is not None else -1.0
        return delta_prime_pair(beta), {"builtin": "delta-prime-pair", "beta": beta}
    if args.system:
        text = Path(args.system).read_text()
        return parse_system(text), {"system_file": args.system}
    raise SchemaError("give --builtin or --system FILE")


def cmd_spectrum(args) -> int:
    sys_, config = _build_system(args)
    config["kappa_max"] = args.kappa_max
    states = find_bound_states(sys_, args.kappa_max)
    rows = [
        [st.kappa, st.energy, st.parity, st.residual, st.near_threshold]
        for st in states
    ]
    with _out_stream(args.out) as s:
        write_csv(s, ["kappa", "energy", "parity", "residual", "near_threshold"],
                  rows, config)
    return 0


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def _build_measure(args):
    if args.measure:
        mu, beta = parse_measure(Path(args.measure).read_text())
        return mu, beta, {"measure_file": args.measure}
    if args.cantor_depth is not None:
        mu = cantor_measure(args.cantor_depth, tuple(args.interval))
        config = {"cantor_depth": args.cantor_depth, "interval": tuple(args.interval)}
    elif args.atoms:
        pairs = [tuple(map(float, tok.split(":"))) for tok in args.atoms.split(",")]
        mu = AtomicMeasure([p for p, _ in pairs], [w for _, w in pairs])
        config = {"atoms": args.atoms}
    else:
        raise SchemaError("give --measure FILE, --cantor-depth or --atoms")
    if args.beta_values:
        beta = BetaFunction([float(t) for t in args.beta_values.split(",")])
        config["beta_values"] = args.beta_values
    else:
        beta = BetaFunction.constant(args.beta)
        config["beta"] = args.beta
    return mu, beta, config


def cmd_measure(args) -> int:
    mu, beta, config = _build_measure(args)
    grids = [int(g) for g in args.grids.split(",")]
    rows = []
    for margin in args.box_margin:
        lo, hi = mu.support
        kern = GreenKernel(lo - margin, hi + margin, mu, beta)
        res = negative_spectrum(kern, grids)
        for n, lams in zip(res.grid_sizes, res.per_grid):
            rows.append([margin, int(n), "grid", int(lams.size)] + list(lams))
        rows.append(
            [margin, int(res.grid_sizes[-1]), "extrapolated", int(res.eigenvalues.size)]
            + list(res.eigenvalues)
        )
    config.update({"grids": args.grids, "box_margin": list(args.box_margin)})
    with _out_stream(args.out) as s:
        write_csv(s, ["box_margin", "n", "stage", "count_negative", "eigenvalues..."],
                  rows, config)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    out_lines = [f"# deltaprime {__version__}"]
    if args.random_trials is not None:
        if args.random_trials < 1:
            raise SchemaError("--random-trials must be at least 1")
        rng = np.random.default_rng(args.seed)
        agree = 0
        for t in range(args.random_trials):
            n = int(rng.integers(1, args.n_max + 1))
            gaps = rng.uniform(0.2, 1.0, size=n - 1)
            pts = np.concatenate(([0.0], np.cumsum(gaps))) + rng.uniform(-1, 1)
            betas = rng.uniform(0.2, 5.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            sysd = delta_prime_system(pts, betas)
            cert = vc.certify_count_points(sysd)
            expect = int(np.sum(betas < 0))
            ok = cert.count == expect == cert.secular_count
            agree += ok
            out_lines.append(
                f"trial {t}: n={n} expected={expect} certified={cert.count} "
                f"secular={cert.secular_count} agree={ok}"
            )
        out_lines.append(f"agreement {agree}/{args.random_trials}")
    elif args.positions and args.betas:
        pts = [float(t) for t in args.positions.split(",")]
        betas = [float(t) for t in args.betas.split(",")]
        sysd = delta_prime_system(pts, betas)
        cert = vc.certify_count_points(sysd)
        out_lines += ["[certificate]", "mode = points", f"count = {cert.count}",
                      f"secular_count = {cert.secular_count}"]
        for i, (t, g) in enumerate(zip(cert.functions, np.diag(cert.gram))):
            out_lines += [f"[trial {i + 1}]", f"x0 = {fmt(t.x0)}", f"beta = {fmt(t.beta)}",
                          f"eps = {fmt(t.eps)}", f"r = {fmt(t.r)}", f"l = {fmt(t.l)}",
                          f"form = {fmt(g)}"]
    elif args.cantor_depth is not None:
        mu = cantor_measure(args.cantor_depth)
        beta = BetaFunction.constant(args.beta)
        level = args.blocks if args.blocks is not None else args.cantor_depth
        blocks = cantor_blocks(args.cantor_depth, level)
        cert = vc.certify_count_measure(mu, beta, blocks)
        out_lines += ["[certificate]", "mode = measure", f"count = {cert.count}",
                      f"epsilon = {fmt(cert.epsilon)}"]
        for i, (t, f, b) in enumerate(zip(cert.functions, cert.forms, cert.bounds)):
            out_lines += [f"[subset {i + 1}]", f"delta = {fmt(t.delta)}", f"r = {fmt(t.r)}",
                          f"l = {fmt(t.l)}", f"plateau = {fmt(t.c_k)}", f"form = {fmt(f)}",
                          f"bound = {fmt(b)}"]
    else:
        raise SchemaError("give --positions/--betas, --cantor-depth, or --random-trials")
    with _out_stream(args.out) as s:
        s.write("\n".join(out_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# deficiency
# ---------------------------------------------------------------------------

def cmd_deficiency(args) -> int:
    z = complex(args.z)
    pts = [float(t) for t in args.points.split(",")]
    drop = [float(t) for t in args.drop_prime_at.split(",")] if args.drop_prime_at else []
    fam = df.point_family(pts, z, drop_prime_at=drop)
    rank = df.gram_rank(fam)
    rows = []
    for e in fam:
        rows.append([
            e.kind, fmt(e.measure.positions[0]), fmt(e.measure.total_mass),
            fmt(df.e_functional(e)),
        ])
    config = {"points": args.points, "z": fmt(z), "drop_prime_at": args.drop_prime_at or ""}
    with _out_stream(args.out) as s:
        write_csv(s, ["kind", "point", "mass", "e_functional"], rows, config)
        s.write(f"# gram_rank = {rank} (family size {len(fam)})\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="deltaprime", description=__doc__)
    p.add_argument("--version", action="version", version=f"deltaprime {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("interactions", help="boundary-condition algebra")
    pi.add_argument("action", choices=["lambda", "compose", "characteristic",
                                       "b-to-lambda", "unitary"])
    pi.add_argument("--kind", default="delta")
    pi.add_argument("--alpha", type=float)
    pi.add_argument("--beta", type=float)
    pi.add_argument("--gamma", type=float, action="append", dest="gamma_list")
    pi.add_argument("--mu", type=float)
    pi.add_argument("--lambda0", type=float)
    pi.set_defaults(func=cmd_interactions)

    pa = sub.add_parser("approx", help="approximation-family limits")
    pa.add_argument("--family", required=True, choices=["3d", "4d", "5d"])
    pa.add_argument("--gamma", type=float)
    pa.add_argument("--sign", type=int, default=1)
    pa.add_argument("--preset", choices=["free", "dirichlet"], default="free")
    pa.add_argument("--lam", default="1.0")
    pa.add_argument("--eps-start", type=float, default=1e-2)
    pa.add_argument("--eps-ratio", type=float, default=10.0)
    pa.add_argument("--eps-count", type=int, default=4)
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_approx)

    ps = sub.add_parser("spectrum", help="bound states of a point system")
    ps.add_argument("--builtin", choices=["nonlocal-example", "delta-prime-pair"])
    ps.add_argument("--system", help="system description file")
    ps.add_argument("--beta", type=float)
    ps.add_argument("--kappa-max", type=float,
                    help="report only states with kappa <= this (default: every state)")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_spectrum)

    pm = sub.add_parser("measure", help="negative spectra over atomic measures")
    pm.add_argument("--measure", help="measure description file")
    pm.add_argument("--cantor-depth", type=int)
    pm.add_argument("--interval", type=float, nargs=2, default=[0.0, 1.0])
    pm.add_argument("--atoms", help="comma list of position:weight")
    pm.add_argument("--beta", type=float, default=-1.0)
    pm.add_argument("--beta-values", help="comma list, one per atom")
    pm.add_argument("--box-margin", type=float, nargs="+", default=[2.0])
    pm.add_argument("--grids", default="256,512,1024")
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_measure)

    pc = sub.add_parser("certify", help="variational certificates")
    pc.add_argument("--positions", help="comma list of points")
    pc.add_argument("--betas", help="comma list of delta' intensities")
    pc.add_argument("--cantor-depth", type=int)
    pc.add_argument("--beta", type=float, default=-1.0)
    pc.add_argument("--blocks", type=int, help="cantor block level (default: depth)")
    pc.add_argument("--random-trials", type=int)
    pc.add_argument("--n-max", type=int, default=6)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_certify)

    pd = sub.add_parser("deficiency", help="deficiency-family diagnostics")
    pd.add_argument("--points", required=True, help="comma list of points")
    pd.add_argument("--z", default="-1")
    pd.add_argument("--drop-prime-at", help="comma list of points")
    pd.add_argument("--out")
    pd.set_defaults(func=cmd_deficiency)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:   # invalid arguments rejected by the library
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
