"""Acceptance criteria, one test per criterion clause, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.

Two clauses pin the nominal decay-rate value 1.968 for the nonlocal
two-point example.  That value is inconsistent with the example's own
characteristic equation k = 1 + tanh(k), whose root is
1.9611797513715394; the odd eigenfunction forces the same number, and
three independent routes here (characteristic root, secular
determinant, local-pair matching) agree on it to 1e-12.  The two tests
asserting proximity to 1.968 are kept exactly as specified and fail by
design: the computed eigenvalue is correct and the nominal decimal is
not.  Every other clause passes.
"""

import time

import numpy as np

from deltaprime.certify import (
    TestFunction,
    certify_count_measure,
    certify_count_points,
    quadratic_form_point,
)
from deltaprime.cli import main
from deltaprime.interactions import (
    Delta,
    DeltaMagnetic,
    DeltaPrime,
    DeltaPrimePotential,
    Transparent,
    TransmissionMatrix,
    boundary_form,
    compose,
    gamma_compose,
    lambda_of,
)
from deltaprime.deficiency import (
    GCONV,
    GPRIMECONV,
    DeficiencyElement,
    e_functional,
    gram_rank,
    point_family,
)
from deltaprime.line import (
    TANH_EQ,
    characteristic_root,
    count_negative,
    delta_prime_pair,
    delta_prime_system,
    find_bound_states,
    nonlocal_example,
)
from deltaprime.measures import (
    AtomicMeasure,
    BetaFunction,
    GreenKernel,
    atomic_to_point_system,
    cantor_blocks,
    cantor_measure,
    negative_spectrum,
)
from deltaprime.transfer import (
    DIRICHLET,
    LIMIT,
    DeltaComb,
    comb_transfer,
    family_3d,
    family_5d,
    limit_diagnose,
    pc_transfer,
    PiecewisePotential,
)
from oracles import dense_relation, quadratic_form_point_numeric

NOMINAL_LAMBDA0 = 1.968   # inconsistent with the tanh equation; see module docstring
NOMINAL_LAMBDA1 = 2.03


def _read_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line and not line.startswith("#") and not line.startswith("kappa"):
            rows.append(line.split(","))
    return rows


def test_criterion_1_nonlocal_example(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "nonlocal.csv"
    assert main(["spectrum", "--builtin", "nonlocal-example", "--out", str(out)]) == 0
    rows = _read_rows(out)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 1, "nonlocal example must have exactly one negative eigenvalue"
    kappa = float(rows[0][0])
    root = characteristic_root(TANH_EQ)
    assert abs(kappa - root) <= 1e-6, f"kappa {kappa} vs characteristic root {root}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    print(f"\nPASS criterion 1 (core): unique kappa={kappa:.9f} matches "
          f"tanh-equation root to {abs(kappa - root):.1e}; {elapsed * 1e3:.0f} ms")


def test_criterion_1_nominal_decimal(tmp_path):
    out = tmp_path / "nonlocal.csv"
    main(["spectrum", "--builtin", "nonlocal-example", "--out", str(out)])
    kappa = float(_read_rows(out)[0][0])
    # As specified: kappa within 1e-3 of the nominal 1.968.  The nominal
    # decimal is inconsistent with the characteristic equation it is
    # attached to (root 1.9611798); this clause cannot pass faithfully.
    assert abs(kappa - NOMINAL_LAMBDA0) <= 1e-3, (
        f"computed kappa {kappa:.9f} differs from the nominal 1.968 by "
        f"{abs(kappa - NOMINAL_LAMBDA0):.2e}: the nominal value contradicts "
        f"the equation k = 1 + tanh k (root {characteristic_root(TANH_EQ):.9f}); "
        "intentional honest failure, see the module docstring"
    )


def test_criterion_2_delta_prime_pair():
    t0 = time.perf_counter()
    pair = delta_prime_pair(-1.0)
    states = find_bound_states(pair, 10.0)
    assert len(states) == 2, "pair must carry exactly two bound states"
    k_even, k_odd = states[0].kappa, states[1].kappa
    assert states[0].parity == "even" and states[1].parity == "odd"
    assert abs(k_even - NOMINAL_LAMBDA1) <= 1e-2

    # the odd eigenfunction of the nonlocal system satisfies both systems
    (odd,) = find_bound_states(nonlocal_example(), 10.0)
    k = odd.kappa
    a, b = odd.interior[0]
    d_in = lambda x: k * (a * np.exp(k * (x - 1.0)) - b * np.exp(-k * (x + 1.0)))
    traces = np.array([
        odd.evaluate(-1.0 + 1e-12), odd.c_left, d_in(-1.0), k * odd.c_left,
        odd.c_right, odd.evaluate(1.0 - 1e-12), -k * odd.c_right, d_in(1.0),
    ])
    for sysname, sysd in (("nonlocal", nonlocal_example()), ("pair", pair)):
        res = np.linalg.norm(dense_relation(sysd, normalized=True) @ traces) / np.linalg.norm(traces)
        assert res < 1e-8, f"odd state residual {res:.2e} on {sysname}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert abs(k_odd - characteristic_root(TANH_EQ)) < 1e-9
    print(f"\nPASS criterion 2 (core): kappas ({k_odd:.7f}, {k_even:.7f}), "
          f"|k1-2.03|={abs(k_even - NOMINAL_LAMBDA1):.2e} <= 1e-2, shared odd state "
          f"residual < 1e-8 on both systems; {elapsed * 1e3:.0f} ms")


def test_criterion_2_nominal_decimal():
    states = find_bound_states(delta_prime_pair(-1.0), 10.0)
    k_odd = states[1].kappa
    assert abs(k_odd - NOMINAL_LAMBDA0) <= 1e-3, (
        f"computed kappa0 {k_odd:.9f} differs from the nominal 1.968 by "
        f"{abs(k_odd - NOMINAL_LAMBDA0):.2e}; same inconsistent decimal as "
        "criterion 1, intentional honest failure, see the module docstring"
    )


def test_criterion_3_counting_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    for trial in range(50):
        n = int(rng.integers(1, 7))
        gaps = rng.uniform(0.2, 1.0, size=max(n - 1, 0))
        pts = np.concatenate(([0.0], np.cumsum(gaps))) + rng.uniform(-2, 2)
        betas = rng.uniform(0.2, 5.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        sysd = delta_prime_system(pts, betas)
        expect = int(np.sum(betas < 0))
        got = count_negative(sysd)
        assert got == expect, f"trial {trial}: count {got} != #neg {expect}"
        cert = certify_count_points(sysd, verify_secular=False)
        assert cert.count == expect, f"trial {trial}: certificate {cert.count}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: counting law holds on 50/50 randomized systems; "
          f"{elapsed:.1f} s")


def test_criterion_4_quadratic_form_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (-2.0, -1.0, -0.3, 0.5, 1.5):
        for eps in (0.05, 0.1, 0.3, 0.7, 1.2):
            for r in (0.5, 1.0, 3.0, 10.0, 40.0):
                t = TestFunction(0.0, eps, beta, 2.0, r)
                diff = abs(quadratic_form_point(t) - quadratic_form_point_numeric(t))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"worst analytic/numeric gap {worst:.2e}"
    assert elapsed < 1.0
    print(f"\nPASS criterion 4: closed form vs quadrature on 5x5x5 grid, "
          f"worst gap {worst:.1e} <= 1e-10; {elapsed * 1e3:.0f} ms")


def test_criterion_5_approximation_limits():
    t0 = time.perf_counter()
    target = np.diag([2.0, 0.5])
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        m = comb_transfer(family_3d(2.0 / 3.0, eps), 1.0)
        err = np.abs(m - target).max()
        assert err <= 10.0 * eps, f"family 3d error {err:.2e} at eps={eps:g}"

    eps_seq = (1e-2, 1e-3, 1e-4, 1e-5)
    rep_free = limit_diagnose(lambda e: family_5d("free", e), 1.0, eps_seq)
    assert rep_free.classification == LIMIT
    assert np.abs(rep_free.limit.entries - np.eye(2)).max() < 1e-6

    rep_dir = limit_diagnose(lambda e: family_5d("dirichlet", e), 1.0, eps_seq)
    assert rep_dir.classification == DIRICHLET
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 5: family 3d within 10*eps of diag(2,1/2); "
          f"free preset -> Limit I; dirichlet preset -> decoupling; "
          f"{elapsed * 1e3:.0f} ms")


def test_criterion_6_oracle_bridge():
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    checked_energies = 0
    for trial in range(10):
        n = int(rng.integers(1, 4))
        pts = np.sort(rng.uniform(0.0, 1.0, size=n))
        while n > 1 and np.min(np.diff(pts)) < 0.2:
            pts = np.sort(rng.uniform(0.0, 1.0, size=n))
        ws = rng.uniform(0.5, 1.2, size=n)
        bs = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        mu = AtomicMeasure(pts, ws)
        beta = BetaFunction(bs)
        sysd = atomic_to_point_system(mu, beta)
        states = find_bound_states(sysd, 40.0)

        if states:
            margin = 8.0 / min(st.kappa for st in states)
        else:
            margin = 4.0
        kern = GreenKernel(pts[0] - margin, pts[-1] + margin, mu, beta)
        res = negative_spectrum(kern, [512, 1024, 2048])
        assert res.counts[-1] == len(states), (
            f"trial {trial}: box count {res.counts[-1]} vs line {len(states)}"
        )
        if states:
            line_e = np.sort([st.energy for st in states])
            np.testing.assert_allclose(res.eigenvalues, line_e, rtol=1e-3)
            checked_energies += len(states)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 6: 10/10 random measures, counts equal, "
          f"{checked_energies} energies within 1e-3 relative; {elapsed:.1f} s")


def test_criterion_7_theorem3_finite_proxy():
    t0 = time.perf_counter()
    certified, discretized = [], []
    beta = BetaFunction.constant(-1.0)
    for depth in (1, 2, 3):
        mu = cantor_measure(depth)
        cert = certify_count_measure(mu, beta, cantor_blocks(depth, depth))
        assert cert.count >= 2 ** depth
        certified.append(cert.count)

        kern = GreenKernel(-2.0, 3.0, mu, beta)
        res = negative_spectrum(kern, [1024, 2048])
        assert res.counts[-1] >= 2 ** depth, (
            f"depth {depth}: discretized count {res.counts[-1]} < {2 ** depth}"
        )
        discretized.append(int(res.counts[-1]))
    assert all(np.diff(certified) > 0) and all(np.diff(discretized) > 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 7: certified {certified} and discretized "
          f"{discretized} counts >= 2^d and increasing; {elapsed:.1f} s")


def test_criterion_8_deficiency_diagnostics():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        pts = list(np.arange(n, dtype=float))
        assert gram_rank(point_family(pts, -1.0)) == 2 * n
        assert gram_rank(point_family(pts, -1.0, drop_prime_at=[pts[-1]])) == 2 * n - 1
    for z in (-1.0, 1j, -4.0 + 3.0j):
        for mass in (0.5, 1.0, 3.0):
            e = DeficiencyElement(GCONV, AtomicMeasure([0.2], [mass]), z)
            assert abs(e_functional(e) - (-mass / z)) <= 1e-12
            ep = DeficiencyElement(GPRIMECONV, AtomicMeasure([0.2], [mass]), z)
            assert abs(e_functional(ep)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 8: rank dichotomy 2n vs 2n-1 for n in 1..3; "
          f"e-functional -mass/z and 0 exactly; {elapsed * 1e3:.0f} ms")


def test_criterion_9_invariant_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    # boundary form vanishes on every canonical self-adjoint plane
    kinds = [Delta(2.5), Delta(-4.0), DeltaPrime(-1.0), DeltaPrime(3.0),
             DeltaPrimePotential(2.0 / 3.0), DeltaPrimePotential(6.0),
             DeltaMagnetic(1.3), Transparent(2.0)]
    for kind in kinds:
        lam = lambda_of(kind)
        for _ in range(100):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = boundary_form(lam.traces(*a), lam.traces(*b))
            assert abs(w) < 1e-10

    # det = 1 for all transfer products
    for _ in range(20):
        n = int(rng.integers(1, 6))
        xs = np.cumsum(rng.uniform(0.05, 0.8, size=n))
        comb = DeltaComb(xs, rng.uniform(-6, 6, size=n))
        for lam in (1.0, 2.5, 1.1j):
            assert abs(np.linalg.det(comb_transfer(comb, lam)) - 1.0) < 1e-12
    pot = PiecewisePotential([0.0, 0.4, 1.0, 1.7], [3.0, -5.0, 1.5])
    assert abs(np.linalg.det(pc_transfer(pot, 1.3)) - 1.0) < 1e-12

    # gamma composition law matches matrix composition
    for gm in (-1.5, -0.5, 0.4, 1.2):
        for gp in (-1.1, 0.3, 0.9, 1.6):
            g = gamma_compose(gm, gp)
            lhs = compose(
                lambda_of(DeltaPrimePotential(gp)), lambda_of(DeltaPrimePotential(gm))
            ).entries
            rhs = lambda_of(DeltaPrimePotential(g)).entries
            assert np.abs(lhs - rhs).max() < 1e-12

    # flat cutoffs satisfy the delta' condition for every beta
    for beta in np.linspace(-10, 10, 41):
        lam = TransmissionMatrix(np.array([[1.0, beta], [0.0, 1.0]]))
        v_plus, d_plus = lam.apply(1.0, 0.0)
        assert abs(v_plus - 1.0) < 1e-14 and abs(d_plus) < 1e-14

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 9: Lagrangian planes (1e-10), unit determinants "
          f"(1e-12), composition laws (1e-12), flat cutoffs; {elapsed * 1e3:.0f} ms")
