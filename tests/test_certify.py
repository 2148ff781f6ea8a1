"""Trial functions, quadratic forms, and variational certificates."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from deltaprime import certify
from deltaprime.certify import (
    SmoothIndicator,
    TestFunction,
    _assert_regions_disjoint,
    certify_count_measure,
    certify_count_points,
    choose_params,
    measure_form_breakdown,
    measure_test_build,
    quadratic_form_measure,
    quadratic_form_point,
)
from deltaprime.errors import NeighborhoodOverlap, SubsetNotNegative, SupportOverlap
from deltaprime.interactions import TransmissionMatrix
from deltaprime.line import delta_prime_system
from deltaprime.measures import (
    AtomicMeasure,
    BetaFunction,
    atomic_to_point_system,
    cantor_blocks,
    cantor_measure,
    mu_derivative,
)
from oracles import assert_disjoint_loop, measure_certificate_rebuilt, quadratic_form_point_numeric


class TestPointTrialFunction:
    def test_piecewise_values(self):
        t = TestFunction(0.0, 0.2, -1.0, 1.0, 3.0)
        assert t.evaluate(-0.5) == 0.0
        assert t.evaluate(0.5) == -1.0 + 0.2          # plateau beta + eps
        assert abs(t.evaluate(-0.1) - 0.2 / 8) < 1e-15  # (1/2eps)(x+eps)^2
        assert t.evaluate(1.0 + 6.0) == 0.0

    def test_jump_and_mean_derivative(self):
        t = TestFunction(0.3, 0.1, -2.0, 1.0, 5.0)
        vm, dm = t.one_sided(0.3, -1)
        vp, dp = t.one_sided(0.3, +1)
        assert abs((vp - vm) - t.beta) < 1e-15      # value jump = beta
        assert dm == dp == 1.0                      # derivative continuous, mean 1
        # so the delta' condition psi_s = beta psi'_r holds with intensity beta

    def test_support(self):
        t = TestFunction(1.0, 0.1, -1.0, 2.0, 3.0)
        lo, hi = t.support
        assert lo == 0.9 and hi == 9.0
        assert t.evaluate(lo - 1e-9) == 0.0 and t.evaluate(hi + 1e-9) == 0.0

    def test_continuity_off_center(self):
        t = TestFunction(0.0, 0.25, -1.5, 2.0, 4.0)
        for knot in (-0.25, 0.25, 2.0, 6.0, 10.0):
            left = t.evaluate(knot - 1e-10)
            right = t.evaluate(knot + 1e-10)
            assert abs(left - right) < 1e-8


class TestQuadraticFormPoint:
    def test_closed_value(self):
        t = TestFunction(0.0, 0.1, -1.0, 1.0, 10.0)
        expect = -1.0 + 2.0 / 30.0 + (2.0 / 30.0) * 0.81
        assert abs(quadratic_form_point(t) - expect) < 1e-14

    def test_analytic_vs_numeric_grid(self):
        for beta in (-2.0, -0.7, 1.4):
            for eps in (0.05, 0.3, 1.1):
                for r in (0.8, 3.0, 25.0):
                    t = TestFunction(0.0, eps, beta, 2.0, r)
                    a = quadratic_form_point(t)
                    n = quadratic_form_point_numeric(t)
                    assert abs(a - n) < 1e-10, (beta, eps, r)

    def test_vanishes_in_the_flat_limit(self):
        t = TestFunction(0.0, 1e-8, 0.0, 1.0, 1e8)
        assert abs(quadratic_form_point(t)) < 1e-7

    def test_half_intensity_calibration(self):
        for beta in (-1.0, -2.5):
            (eps, r, l), = choose_params([beta], 0.1, 0.0)
            t = TestFunction(0.0, eps, beta, l, r)
            assert abs(quadratic_form_point(t) - beta / 2) < 1e-12


class TestChooseParams:
    def test_single(self):
        (eps, r, l), = choose_params([-1.0], 0.1, 0.0)
        assert eps == 0.1 and r > 0 and l > 0

    def test_disjoint_tails_and_values(self):
        params = choose_params([-1.0, -2.0], 0.1, 2.0)
        forms = [
            quadratic_form_point(TestFunction(0.0, e, b, l, r))
            for (e, r, l), b in zip(params, [-1.0, -2.0])
        ]
        np.testing.assert_allclose(forms, [-0.5, -1.0], atol=1e-12)
        (e1, r1, l1), (e2, r2, l2) = params
        assert l1 + 2 * r1 < l2  # closing intervals disjoint
        assert all(l > 2.0 for _, _, l in params)

    def test_empty(self):
        assert choose_params([], 0.1, 1.0) == []

    def test_positive_rejected(self):
        with pytest.raises(ValueError):
            choose_params([1.0], 0.1, 0.0)

    @pytest.mark.parametrize("k", [1, 100, 150, 160, 162, 200, 300])
    def test_weak_intensity_keeps_the_calibration(self, k):
        # (beta + eps)^2 underflows from |beta| ~ 1e-154 on: r and the form
        # are taken without it, so r = (25/24)|beta| and the form is beta/2
        beta = -(10.0 ** -k)
        (eps, r, l), = choose_params([beta], 0.1, 0.0)
        assert eps == -3.0 * beta / 8.0
        assert abs(r / -beta - 25.0 / 24.0) < 1e-15
        form = quadratic_form_point(TestFunction(0.0, eps, beta, l, r))
        assert abs(form / (beta / 2) - 1.0) < 1e-12


@st.composite
def point_certificates(draw):
    """Points, intensities of either sign and (eps, r, l) per attractive
    point, all multiples of 1/4: bumps, closing intervals and points then
    overlap in every combination, or touch end to end."""
    quarters = lambda lo, hi: st.integers(lo, hi).map(lambda k: k / 4.0)
    pts = np.array(sorted(draw(st.sets(quarters(0, 24), min_size=1, max_size=6))))
    betas = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=pts.size,
                                   max_size=pts.size)))
    params = []
    for _ in range(int(np.sum(betas < 0))):
        eps = draw(quarters(1, 8))
        params.append((eps, draw(quarters(1, 8)), eps + draw(quarters(0, 24))))
    return pts, betas, params


class TestPointCertificate:
    def test_mixed_signs(self):
        sys = delta_prime_system([0.0, 1.0, 2.0], [-1.0, 1.0, -3.0])
        cert = certify_count_points(sys)
        assert cert.count == 2
        assert cert.secular_count == 2
        np.testing.assert_allclose(np.diag(cert.gram), [-0.5, -1.5], atol=1e-12)

    def test_all_positive(self):
        sys = delta_prime_system([0.0, 1.0], [0.5, 1.0])
        cert = certify_count_points(sys)
        assert cert.count == 0 and cert.gram.shape == (0, 0)

    def test_cantor_depth10_bridge(self):
        sys = atomic_to_point_system(cantor_measure(10), BetaFunction.constant(-1.0))
        cert = certify_count_points(sys)
        assert cert.count == cert.secular_count == 1024

    @settings(max_examples=300, deadline=None)
    @given(case=point_certificates())
    def test_one_sweep_matches_the_per_point_loop(self, case):
        # certify_count_points with the drawn (eps, r, l) raises SupportOverlap
        # exactly where the per-pair, per-point reference does
        pts, betas, params = case
        neg = np.flatnonzero(betas < 0)
        funcs = [TestFunction(pts[k], e, betas[k], l, r) for k, (e, r, l) in zip(neg, params)]
        try:
            assert_disjoint_loop(funcs, pts)
            overlap = False
        except SupportOverlap:
            overlap = True
        with mock.patch.object(certify, "choose_params", lambda *args: params):
            if overlap:
                with pytest.raises(SupportOverlap):
                    certify_count_points(delta_prime_system(pts, betas), verify_secular=False)
            else:
                cert = certify_count_points(delta_prime_system(pts, betas), verify_secular=False)
                assert cert.count == neg.size

    def test_close_pair(self):
        sys = delta_prime_system([0.0, 0.5], [-1.0, -1.0])
        cert = certify_count_points(sys)
        assert cert.count == 2
        np.testing.assert_allclose(np.diag(cert.gram), [-0.5, -0.5], atol=1e-12)

    def test_active_regions_disjoint_numerically(self):
        sys = delta_prime_system([0.0, 0.7, 1.5], [-1.0, -0.4, -2.0])
        cert = certify_count_points(sys)
        for i, ti in enumerate(cert.functions):
            for tj in cert.functions[i + 1:]:
                lo = min(ti.support[0], tj.support[0])
                hi = max(ti.support[1], tj.support[1])
                val, _ = quad(
                    lambda x: ti.derivative(x) * tj.derivative(x), lo, hi, limit=400
                )
                assert abs(val) < 1e-12  # cross Gram entries are exactly zero

    def test_monotone_in_negative_mass(self):
        base = certify_count_points(
            delta_prime_system([0.0, 1.0], [-1.0, 1.0])
        ).count
        more = certify_count_points(
            delta_prime_system([0.0, 1.0], [-1.0, -3.0])
        ).count
        assert more >= base

    def test_requires_delta_prime(self):
        sys = type("S", (), {"delta_prime_betas": lambda self: None})()
        with pytest.raises(ValueError):
            certify_count_points(sys)


class TestRegionsDisjoint:
    @pytest.mark.parametrize("regions, overlap", [
        ([(0.0, 2.0), (1.0, 3.0)], True),                # sorted neighbours overlap
        ([(3.0, 4.0), (0.0, 10.0), (1.0, 2.0)], True),   # one long region holds two short ones
        ([(5.0, 6.0), (0.0, 5.5), (1.0, 2.0)], True),    # long region reaches past its neighbour
        ([(1.0, 2.0), (0.0, 1.0)], False),               # touching open intervals
        ([(2.0, 3.0), (0.0, 1.0), (1.0, 2.0)], False),
        ([], False),
    ])
    def test_sorted_sweep(self, regions, overlap):
        if overlap:
            with pytest.raises(SupportOverlap):
                _assert_regions_disjoint(regions)
        else:
            _assert_regions_disjoint(regions)


class TestFlatCutoffs:
    def test_flat_traces_satisfy_all_intensities(self):
        # functions constant near a point have psi_s = 0, d± = 0; the
        # delta' condition holds for every beta
        for beta in np.linspace(-10, 10, 21):
            lam = TransmissionMatrix(np.array([[1.0, beta], [0.0, 1.0]]))
            v_plus, d_plus = lam.apply(1.0, 0.0)
            assert abs(v_plus - 1.0) < 1e-15 and abs(d_plus) < 1e-15

    def test_actual_cutoff_function(self):
        chi = SmoothIndicator([(-0.5, 2.5)], 1.0)
        for p in (0.0, 1.0, 2.0):  # interaction points inside the core
            h = 1e-6
            vals = chi(np.array([p - h, p, p + h]))
            np.testing.assert_allclose(vals, 1.0, atol=1e-15)


class TestSmoothIndicator:
    def test_profile_bounds_and_values(self):
        chi = SmoothIndicator([(0.0, 1.0)], 0.25)
        xs = np.linspace(-0.5, 1.5, 401)
        vals = chi(xs)
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert chi(0.5) == 1.0 and chi(-0.3) == 0.0

    def test_integrals_match_quadrature(self):
        chi = SmoothIndicator([(0.0, 0.4), (1.0, 1.2)], 0.15)
        lo, hi = chi.support
        num, _ = quad(chi, lo, hi, limit=400)
        assert abs(num - chi.integral()) < 1e-10
        num2, _ = quad(lambda x: chi(x) ** 2, lo, hi, limit=400)
        assert abs(num2 - chi.square_integral()) < 1e-10

    def test_cumulative(self):
        chi = SmoothIndicator([(0.0, 1.0)], 0.5)
        for x in (-1.0, 0.2, 0.9, 2.0, 5.0):
            num, _ = quad(chi, -2.0, x, limit=400)
            assert abs(num - chi.cumulative(x)) < 1e-9  # quad's own kink error

    def test_ramp_has_the_bits_of_numpy_polynomial(self):
        # the Horner forms reproduce polyval's rounding, so certificates keep their bytes
        from numpy.polynomial import Polynomial
        ramp = Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
        u = np.linspace(0.0, 1.0, 100001)
        assert certify._ramp(u).tobytes() == ramp(u).tobytes()
        assert certify._ramp_int(u).tobytes() == ramp.integ()(u).tobytes()
        assert certify._RAMP_SQ_INT == float((ramp * ramp).integ()(1.0))


class TestMeasureTrialFunction:
    def test_single_atom_plateau(self):
        mu = AtomicMeasure([0.0], [1.0])
        beta = BetaFunction.constant(-1.0)
        t = measure_test_build([0], mu, beta, delta=0.2, l=2.0, r=5.0)
        assert abs(t.c_k - (t.chi.integral() - 1.0)) < 1e-14
        assert abs(t.evaluate(1.5) - t.c_k) < 1e-12  # plateau before l

    def test_evaluate_is_the_right_limit(self):
        # as for every other trial function and bound state: at a subset atom,
        # evaluate takes the atom's jump beta w
        mu = AtomicMeasure([0.0, 0.3], [0.5, 0.7])
        t = measure_test_build([0, 1], mu, BetaFunction([-1.0, -2.0]), 0.05, 2.0, 4.0)
        for x in (0.0, 0.1, 0.3):
            assert t.evaluate(x) == t.one_sided(x, +1)[0]
        assert t.evaluate(0.3) - t.one_sided(0.3, -1)[0] == pytest.approx(-2.0 * 0.7)

    def test_zero_beta_plateau(self):
        mu = AtomicMeasure([0.0], [1.0])
        t = measure_test_build([0], mu, BetaFunction.constant(0.0), 0.2, 2.0, 5.0)
        assert abs(t.c_k - t.chi.integral()) < 1e-14

    def test_plateau_bound(self):
        # |c_k| <= (3/4 eps + ||beta||_L1) mu(Gamma_k) once the neighborhood
        # is exact and small
        mu = cantor_measure(2)
        beta = BetaFunction.constant(-1.0)
        eps = 1.0
        for block in cantor_blocks(2, 2):
            mu_k = mu.weights[block].sum()
            delta = 0.25 * eps * mu_k / 2.0
            t = measure_test_build(block, mu, beta, delta, l=2.0, r=5.0)
            norm_l1 = float(np.abs(beta.at_atoms(mu)) @ mu.weights)
            assert abs(t.c_k) <= (0.75 * eps + norm_l1) * mu_k + 1e-14

    def test_neighborhood_overlap_rejected(self):
        mu = cantor_measure(1)  # atoms at 1/6, 5/6
        with pytest.raises(NeighborhoodOverlap):
            measure_test_build([0], mu, BetaFunction.constant(-1.0), 0.8, 3.0, 5.0)

    def test_form_breakdown_limits(self):
        # tiny neighborhood, large r: form -> beta w = -1
        mu = AtomicMeasure([0.0], [1.0])
        beta = BetaFunction.constant(-1.0)
        t = measure_test_build([0], mu, beta, delta=1e-4, l=2.0, r=1e6)
        i1, i2, i3 = measure_form_breakdown(t)
        assert abs(i3 + 1.0) < 1e-14
        assert 0 < i1 < 3e-4 and 0 < i2 < 1e-5
        assert abs(quadratic_form_measure(t) + 1.0) < 5e-4

    def test_positive_when_beta_zero(self):
        mu = AtomicMeasure([0.0], [1.0])
        t = measure_test_build([0], mu, BetaFunction.constant(0.0), 0.1, 2.0, 5.0)
        assert quadratic_form_measure(t) > 0

    def test_form_numeric_agreement(self):
        # I1 via quadrature, I2 via the parabola formula, I3 atomic
        mu = AtomicMeasure([0.0, 0.3], [0.5, 0.7])
        beta = BetaFunction([-1.0, -2.0])
        t = measure_test_build([0, 1], mu, beta, 0.05, 2.0, 4.0)
        i1, i2, i3 = measure_form_breakdown(t)
        lo, hi = t.chi.support
        i1_num, _ = quad(lambda x: t.chi(x) ** 2, lo, hi, limit=400)
        assert abs(i1 - i1_num) < 1e-10
        i2_num, _ = quad(
            lambda x: t.one_sided(x, +1)[1] ** 2, t.l, t.l + 2 * t.r, limit=400
        )
        assert abs(i2 - i2_num) < 1e-9
        assert abs(i3 - (-1.0 * 0.5 - 2.0 * 0.7)) < 1e-14

    def test_satisfies_measure_boundary_conditions(self):
        mu = AtomicMeasure([0.0, 0.3], [0.5, 0.7])
        beta = BetaFunction([-1.0, -2.0])
        t = measure_test_build([0, 1], mu, beta, 0.05, 2.0, 4.0)
        data = mu_derivative(t, mu)
        np.testing.assert_allclose(data.dpsi_prime_dmu, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            data.dpsi_dmu, beta.at_atoms(mu) * data.dpsi_r, atol=1e-12
        )


@st.composite
def subset_trials(draw):
    """1-6 atoms with unequal weights and beta, a shuffled subset, delta below the gap."""
    m = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=m - 1, max_size=m - 1))
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ws = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m)))
    bs = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
    subset = draw(st.permutations(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))))
    others = np.delete(xs, subset)
    gap = np.min(np.abs(others[:, None] - xs[subset][None, :])) if others.size else 1.0
    delta = draw(st.floats(0.05, 0.95)) * gap
    return AtomicMeasure(xs, ws), BetaFunction(bs), subset, delta


class TestSubsetOnlyTrialFunction:
    @settings(max_examples=80, deadline=None)
    @given(trial=subset_trials())
    def test_built_from_the_subset_atoms(self, trial):
        mu, beta, subset, delta = trial
        t = measure_test_build(subset, mu, beta, delta, l=mu.support[1] + delta + 1.0, r=2.0)
        s = np.sort(subset)
        bw = beta.at_atoms(mu)[s] * mu.weights[s]
        np.testing.assert_array_equal(t.positions, mu.positions[s])
        assert t.jumps.size == len(subset)
        assert t.c_k == pytest.approx(t.chi.integral() + math.fsum(bw), rel=1e-14, abs=1e-14)
        assert measure_form_breakdown(t)[2] == pytest.approx(math.fsum(bw), rel=1e-14, abs=1e-14)
        # chi is 1 on the subset and 0 on every other atom
        np.testing.assert_array_equal(t.chi(mu.positions), np.isin(np.arange(len(mu)), s))
        for x, jump in zip(t.positions, bw):
            vm, _ = t.one_sided(x, -1)
            vp, _ = t.one_sided(x, +1)
            assert vp - vm == pytest.approx(jump, rel=1e-12, abs=1e-12)
        # so the delta' conditions hold on every atom of the measure
        data = mu_derivative(t, mu)
        np.testing.assert_allclose(data.dpsi_prime_dmu, 0.0, atol=1e-12)
        np.testing.assert_allclose(data.dpsi_dmu, beta.at_atoms(mu) * data.dpsi_r, atol=1e-11)

    def test_singleton_block_carries_one_atom(self):
        mu = cantor_measure(6)
        t = measure_test_build([5], mu, BetaFunction.constant(-1.0), 1e-4, l=2.0, r=1.0)
        assert t.positions.size == t.jumps.size == 1
        assert t.positions[0] == mu.positions[5]


class TestMeasureCertificate:
    def test_cantor_depth3_level2_blocks(self):
        mu = cantor_measure(3)
        beta = BetaFunction.constant(-1.0)
        cert = certify_count_measure(mu, beta, cantor_blocks(3, 2))
        assert cert.count == 4
        assert np.all(cert.forms < 0)
        assert np.all(cert.forms <= cert.bounds + 1e-12)

    def test_single_atom_matches_point_route(self):
        mu = AtomicMeasure([0.0], [1.0])
        beta = BetaFunction.constant(-1.0)
        cert = certify_count_measure(mu, beta, [[0]])
        assert cert.count == 1
        point_cert = certify_count_points(
            delta_prime_system([0.0], [-1.0]), verify_secular=False
        )
        assert cert.count == point_cert.count

    def test_cantor_depth6_singletons(self):
        # delta = gap/2 would let neighbouring supports touch
        cert = certify_count_measure(cantor_measure(6), BetaFunction.constant(-1.0),
                                     cantor_blocks(6, 6))
        assert cert.count == 64
        assert np.all(cert.forms <= cert.bounds + 1e-12)

    def test_cantor_depth10_singletons(self):
        cert = certify_count_measure(cantor_measure(10), BetaFunction.constant(-1.0),
                                     cantor_blocks(10, 10))
        assert cert.count == 1024
        assert np.all(cert.forms <= cert.bounds)

    @pytest.mark.parametrize("level", [10, 4])
    def test_depth10_fields_match_the_rebuilt_construction(self, level):
        # each trial function built once carries the bits of one rebuilt by
        # measure_test_build from beta on every atom and a second gap search
        mu, beta, blocks = cantor_measure(10), BetaFunction.constant(-1.0), cantor_blocks(10, level)
        cert = certify_count_measure(mu, beta, blocks)
        epsilon, funcs, forms, bounds = measure_certificate_rebuilt(mu, beta, blocks)
        assert cert.count == len(funcs) == 2 ** level and cert.epsilon == epsilon
        np.testing.assert_array_equal(cert.forms, forms)
        np.testing.assert_array_equal(cert.bounds, bounds)
        for t, ref in zip(cert.functions, funcs):
            assert (t.delta, t.r, t.l, t.c_k) == (ref.delta, ref.r, ref.l, ref.c_k)
            assert (t.chi.cores, t.chi.rho) == (ref.chi.cores, ref.chi.rho)
            np.testing.assert_array_equal(t.positions, ref.positions)
            np.testing.assert_array_equal(t.jumps, ref.jumps)

    def test_positive_beta_rejected(self):
        mu = AtomicMeasure([0.0], [1.0])
        with pytest.raises(SubsetNotNegative):
            certify_count_measure(mu, BetaFunction.constant(1.0), [[0]])

    def test_monotone_in_subsets(self):
        mu = cantor_measure(2)
        beta = BetaFunction.constant(-1.0)
        c2 = certify_count_measure(mu, beta, cantor_blocks(2, 1)).count
        c4 = certify_count_measure(mu, beta, cantor_blocks(2, 2)).count
        assert c4 >= c2

    def test_overlapping_subsets_rejected(self):
        mu = cantor_measure(1)
        with pytest.raises(ValueError):
            certify_count_measure(mu, BetaFunction.constant(-1.0), [[0, 1], [1]])

    def test_empty_subset_rejected(self):
        mu = cantor_measure(1)
        with pytest.raises(ValueError, match="nonempty"):
            certify_count_measure(mu, BetaFunction.constant(-1.0), [[0], []])

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(-1, 3), min_size=1, max_size=9),
           gaps=st.lists(st.floats(1e-3, 1.0), min_size=8, max_size=8))
    def test_outside_gaps_match_all_pairs(self, labels, gaps):
        # atoms labelled -1 lie in no subset
        xs = np.concatenate(([0.0], np.cumsum(gaps)))[:len(labels)]
        labels = np.array(labels)
        subsets = [np.flatnonzero(labels == k) for k in np.unique(labels[labels >= 0])]
        want = []
        for s in subsets:
            others = np.delete(xs, s)
            want.append(float(np.min(np.abs(others[:, None] - xs[s][None, :])))
                        if others.size else math.inf)
        assert certify._outside_gaps(xs, subsets) == want
