"""Atomic measures, the Green kernel, Nystrom spectra, and the line bridge."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from deltaprime.certify import TestFunction
from deltaprime.errors import (
    DepthTooLarge,
    DomainError,
    EvaluationOnAtom,
    GridTooCoarse,
    JumpOffSupport,
)
from deltaprime.line import (
    CLUSTER_RTOL,
    PointSystem,
    count_negative,
    find_bound_states,
)
from deltaprime.measures import (
    NEG_EIG_REL,
    AtomicMeasure,
    BetaFunction,
    GreenKernel,
    PiecewiseFunction,
    atomic_to_point_system,
    cantor_blocks,
    cantor_measure,
    green_kernel_value,
    mu_derivative,
    negative_spectrum,
)
from oracles import discretize


class TestCantor:
    def test_depth_zero(self):
        mu = cantor_measure(0)
        np.testing.assert_allclose(mu.positions, [0.5])
        np.testing.assert_allclose(mu.weights, [1.0])

    def test_depth_one(self):
        mu = cantor_measure(1)
        np.testing.assert_allclose(mu.positions, [1.0 / 6.0, 5.0 / 6.0])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_total_mass_is_one(self):
        for depth in range(7):
            assert abs(cantor_measure(depth).total_mass - 1.0) < 1e-12

    def test_depth_cap(self):
        with pytest.raises(DepthTooLarge):
            cantor_measure(21)

    def test_blocks(self):
        blocks = cantor_blocks(3, 2)
        assert len(blocks) == 4 and all(b.size == 2 for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), np.arange(8))


class TestMuDerivative:
    def test_continuous_function(self):
        mu = AtomicMeasure([0.0, 1.0], [1.0, 2.0])
        psi = PiecewiseFunction(
            [0.0, 1.0], [np.sin] * 3, [np.cos] * 3
        )
        data = mu_derivative(psi, mu)
        np.testing.assert_allclose(data.dpsi_dmu, 0.0, atol=1e-15)
        np.testing.assert_allclose(data.dpsi_prime_dmu, 0.0, atol=1e-15)
        np.testing.assert_allclose(data.psi_r, np.sin([0.0, 1.0]), atol=1e-15)

    def test_unit_jump_half_weight(self):
        mu = AtomicMeasure([0.0], [0.5])
        psi = PiecewiseFunction(
            [0.0],
            [lambda x: 0.0 * x, lambda x: 1.0 + 0.0 * x],
            [lambda x: 0.0 * x, lambda x: 0.0 * x],
        )
        data = mu_derivative(psi, mu)
        assert abs(data.dpsi_dmu[0] - 2.0) < 1e-15

    def test_trial_function_boundary_condition(self):
        # jump-calibrated bump at a single unit atom: dpsi/dmu = beta,
        # psi'_r = 1, dpsi'/dmu = 0, i.e. the measure delta' condition
        mu = AtomicMeasure([0.0], [1.0])
        t = TestFunction(0.0, 0.1, -1.0, 1.0, 5.0)
        data = mu_derivative(t, mu)
        assert abs(data.dpsi_dmu[0] - (-1.0)) < 1e-15
        assert abs(data.dpsi_r[0] - 1.0) < 1e-15
        assert abs(data.dpsi_prime_dmu[0]) < 1e-15

    def test_jump_off_support(self):
        mu = AtomicMeasure([0.0], [1.0])
        psi = PiecewiseFunction(
            [0.5],
            [lambda x: 0.0 * x, lambda x: 1.0 + 0.0 * x],
            [lambda x: 0.0 * x, lambda x: 0.0 * x],
        )
        with pytest.raises(JumpOffSupport):
            mu_derivative(psi, mu)


class TestGreenKernel:
    def test_beta_zero(self):
        mu = AtomicMeasure([0.5], [1.0])
        k = GreenKernel(0.0, 1.0, mu, BetaFunction.constant(0.0))
        assert abs(green_kernel_value(k, 0.3, 0.8) - 0.3) < 1e-15

    def test_single_atom(self):
        mu = AtomicMeasure([0.5], [1.0])
        k = GreenKernel(0.0, 1.0, mu, BetaFunction.constant(-3.0))
        assert abs(green_kernel_value(k, 0.9, 0.9) - (-2.1)) < 1e-15

    def test_symmetry(self):
        mu = cantor_measure(2)
        k = GreenKernel(-0.5, 1.5, mu, BetaFunction.constant(-1.0))
        rng = np.random.default_rng(4)
        for _ in range(40):
            x, s = rng.uniform(-0.45, 1.45, 2)
            assert green_kernel_value(k, x, s) == green_kernel_value(k, s, x)

    def test_on_atom_rejected(self):
        mu = AtomicMeasure([0.5], [1.0])
        k = GreenKernel(0.0, 1.0, mu, BetaFunction.constant(-1.0))
        with pytest.raises(EvaluationOnAtom):
            green_kernel_value(k, 0.5, 0.9)

    def test_box_containment(self):
        mu = AtomicMeasure([0.5], [1.0])
        with pytest.raises(ValueError):
            GreenKernel(0.6, 1.0, mu, BetaFunction.constant(0.0))


class TestDiscretize:
    def test_box_spectrum_beta_zero(self):
        # Dirichlet(a)/Neumann(b) box: eigenvalues ((m + 1/2) pi)^2
        mu = AtomicMeasure([0.5], [1.0])
        k = GreenKernel(0.0, 1.0, mu, BetaFunction.constant(0.0))
        d = discretize(k, 512)
        nu = np.linalg.eigvalsh(d.matrix)[::-1]
        expect = 1.0 / (((np.arange(4) + 0.5) * np.pi) ** 2)
        np.testing.assert_allclose(nu[:4], expect, rtol=1e-4)

    def test_matrix_symmetric(self):
        mu = cantor_measure(2)
        k = GreenKernel(-0.5, 1.5, mu, BetaFunction.constant(-1.0))
        d = discretize(k, 64)
        assert np.abs(d.matrix - d.matrix.T).max() == 0.0

    def test_single_negative_atom_gives_negative_eigenvalue(self):
        mu = AtomicMeasure([0.5], [1.0])
        k = GreenKernel(-3.0, 4.0, mu, BetaFunction.constant(-1.0))
        d = discretize(k, 256)
        nu = np.linalg.eigvalsh(d.matrix)
        assert nu[0] < 0 and nu[1] > -1e-12 * abs(nu).max()

    def test_exactly_n_cells_with_many_atoms(self):
        # 33 segments: the one-cell minimum used to add cells beyond n
        k = GreenKernel(-0.5, 1.5, cantor_measure(5), BetaFunction.constant(-1.0))
        for n in (33, 64, 65, 100):
            d = discretize(k, n)
            assert d.grid.size == n and d.matrix.shape == (n, n)
            assert np.all(np.diff(d.grid) > 0)
        with pytest.raises(DomainError):
            discretize(k, 32)

    def test_minimum_size(self):
        mu = AtomicMeasure([0.5], [1.0])
        k = GreenKernel(0.0, 1.0, mu, BetaFunction.constant(0.0))
        with pytest.raises(ValueError):
            discretize(k, 4)


class TestNegativeSpectrum:
    def test_single_atom_energy(self):
        # delta' intensity -1: full-line energy -4; box distance 6 = 12/kappa
        mu = AtomicMeasure([0.0], [1.0])
        k = GreenKernel(-6.0, 6.0, mu, BetaFunction.constant(-1.0))
        res = negative_spectrum(k, [256, 512, 1024])
        assert list(res.counts) == [1, 1, 1]
        assert abs(res.eigenvalues[0] + 4.0) < 2e-3 * 4.0

    def test_positive_beta_has_none(self):
        mu = cantor_measure(1)
        k = GreenKernel(-1.0, 2.0, mu, BetaFunction.constant(1.0))
        res = negative_spectrum(k, [128, 256])
        assert list(res.counts) == [0, 0]
        assert res.eigenvalues.size == 0

    def test_kernel_positive_when_beta_nonnegative(self):
        mu = cantor_measure(2)
        k = GreenKernel(-1.0, 2.0, mu, BetaFunction.constant(0.5))
        d = discretize(k, 200)
        nu = np.linalg.eigvalsh(d.matrix)
        assert nu[0] > -1e-12 * abs(nu).max()

    def test_count_monotone_under_refinement(self):
        mu = cantor_measure(2)
        k = GreenKernel(-0.75, 1.75, mu, BetaFunction.constant(-1.0))
        res = negative_spectrum(k, [128, 256, 512, 1024])
        assert np.all(np.diff(res.counts) >= 0)
        assert res.counts[-1] >= 4

    def test_repeated_grid_size_rejected(self):
        # rho = 1 would zero the Richardson factor and extrapolate to nan
        mu = AtomicMeasure([0.0], [1.0])
        k = GreenKernel(-4.0, 4.0, mu, BetaFunction.constant(-1.0))
        for sizes in ([512, 512], [128, 256, 256], [256, 128, 256]):
            with pytest.raises(ValueError, match="distinct"):
                negative_spectrum(k, sizes)


def dense_negatives(kern, n):
    """Oracle: negative operator eigenvalues from the dense Nystrom matrix."""
    nu = eigh(discretize(kern, n).matrix, eigvals_only=True)
    neg = nu[nu < -NEG_EIG_REL * np.abs(nu).max()]
    return np.sort(1.0 / neg)


@st.composite
def few_atom_kernels(draw):
    """1-4 atoms, mixed-sign beta, and a box margin."""
    m = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(0.1, 0.6), min_size=m - 1, max_size=m - 1))
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ws = draw(st.lists(st.floats(0.3, 1.2), min_size=m, max_size=m))
    mags = draw(st.lists(st.floats(0.2, 2.0), min_size=m, max_size=m))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    margin = draw(st.floats(0.5, 3.0))
    beta = BetaFunction(np.multiply(mags, signs))
    return GreenKernel(xs[0] - margin, xs[-1] + margin, AtomicMeasure(xs, ws), beta)


class TestTridiagonalRoute:
    @settings(max_examples=60, deadline=None)
    @given(kern=few_atom_kernels(), n=st.sampled_from([16, 32, 64, 128]))
    def test_matches_dense_oracle(self, kern, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = negative_spectrum(kern, [n, 2 * n])
        for size, lam in zip(res.grid_sizes, res.per_grid):
            oracle = dense_negatives(kern, int(size))
            grid = discretize(kern, int(size)).grid
            g = np.array([green_kernel_value(kern, x, x) for x in grid])
            assert lam.size == oracle.size == np.count_nonzero(np.diff(g, prepend=0.0) < 0)
            np.testing.assert_allclose(lam, oracle, rtol=1e-10)

    def test_cantor_depth_8_at_scale(self):
        # 16384^2 doubles are 2 GiB per dense copy; the tridiagonal route needs O(n)
        k = GreenKernel(-2.0, 3.0, cantor_measure(8), BetaFunction.constant(-1.0))
        res = negative_spectrum(k, [4096, 8192, 16384])
        assert list(res.counts) == [256, 256, 256]
        assert res.eigenvalues.size == 256

    def test_coarse_grid_warns(self):
        # n = 512 spaces nodes 0.0098 apart; the atoms need h < 2^-8
        k = GreenKernel(-2.0, 3.0, cantor_measure(8), BetaFunction.constant(-1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = negative_spectrum(k, [512, 1024, 2048])
        coarse = [str(w.message) for w in caught if w.category is GridTooCoarse]
        assert list(res.counts) == [224, 256, 256]
        assert len(coarse) == 1 and "n = 512 resolves 224 of 256" in coarse[0]

    def test_singular_kernel_matrix(self):
        # 4 cells of h = 1/8 per segment: the nodes across the atom are h apart,
        # so beta w = -1/8 makes dg vanish exactly
        mu = AtomicMeasure([0.5], [1.0])
        k = GreenKernel(0.0, 1.0, mu, BetaFunction.constant(-0.125))
        with pytest.raises(DomainError):
            negative_spectrum(k, [8, 16])


class TestBridge:
    def test_single_weighted_atom(self):
        mu = AtomicMeasure([0.0], [2.0])
        sys = atomic_to_point_system(mu, BetaFunction.constant(-1.0))
        np.testing.assert_allclose(sys.delta_prime_betas(), [-2.0])

    def test_cantor_depth_one(self):
        mu = cantor_measure(1)
        sys = atomic_to_point_system(mu, BetaFunction.constant(-1.0))
        np.testing.assert_allclose(sys.delta_prime_betas(), [-0.5, -0.5])

    def test_zero_beta_is_free(self):
        mu = cantor_measure(1)
        sys = atomic_to_point_system(mu, BetaFunction.constant(0.0))
        for lam in sys.lambdas:
            np.testing.assert_array_equal(lam.entries, np.eye(2))

    def test_oracle_agreement_two_atoms(self):
        mu = AtomicMeasure([0.0, 0.6], [1.0, 0.8])
        beta = BetaFunction([-1.2, 0.9])
        sys = atomic_to_point_system(mu, beta)
        states = find_bound_states(sys, 20.0)
        kmin = min(st.kappa for st in states)
        margin = 8.0 / kmin
        kern = GreenKernel(-margin, 0.6 + margin, mu, beta)
        res = negative_spectrum(kern, [512, 1024, 2048])
        assert res.counts[-1] == len(states)
        line_e = sorted(st.energy for st in states)
        np.testing.assert_allclose(res.eigenvalues, line_e, rtol=1e-3)

    def test_oracle_agreement_four_atoms(self):
        mu = AtomicMeasure([0.0, 0.35, 0.62, 1.0], [1.0, 0.7, 0.9, 1.1])
        beta = BetaFunction([-1.0, 0.8, -0.6, -1.4])
        sys = atomic_to_point_system(mu, beta)
        states = find_bound_states(sys, 30.0)
        margin = 8.0 / min(st.kappa for st in states)
        kern = GreenKernel(-margin, 1.0 + margin, mu, beta)
        res = negative_spectrum(kern, [512, 1024, 2048])
        assert res.counts[-1] == len(states)
        line_e = sorted(st.energy for st in states)
        np.testing.assert_allclose(res.eigenvalues, line_e, rtol=1e-3)

    def test_cantor_bridges_find_every_state(self):
        # depth d carries 2^d states in clusters split down to rounding; the
        # exact count finds them all, and the states of a cluster are
        # linearly independent
        for depth in (4, 5, 6):
            sys = atomic_to_point_system(cantor_measure(depth), BetaFunction.constant(-1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                states = find_bound_states(sys)
            assert len(states) == 2 ** depth
            assert count_negative(sys) == 2 ** depth
            dense = PointSystem(sys.points, relation=sys.relation)   # the H(kappa) route
            np.testing.assert_allclose(
                [s.kappa for s in states],
                [s.kappa for s in find_bound_states(dense)], rtol=1e-11)
            # each state keeps its own Brent kappa, so clusters are runs of
            # roots within CLUSTER_RTOL, not equal kappas
            clusters = [[states[0]]]
            for s in states[1:]:
                if clusters[-1][-1].kappa - s.kappa <= CLUSTER_RTOL * s.kappa:
                    clusters[-1].append(s)
                else:
                    clusters.append([s])
            assert max(len(c) for c in clusters) == {4: 1, 5: 2, 6: 4}[depth]
            for cluster in clusters:
                amps = np.array([
                    np.concatenate(([s.c_left], s.interior.ravel(), [s.c_right]))
                    for s in cluster
                ])
                sv = np.linalg.svd(amps, compute_uv=False)
                assert sv[-1] > 0.5 * sv[0]

    def test_cantor_depth8_bridge_in_seconds(self):
        t0 = time.perf_counter()
        sys = atomic_to_point_system(cantor_measure(8), BetaFunction.constant(-1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(sys)
        elapsed = time.perf_counter() - t0
        assert len(states) == 256
        assert max(s.residual for s in states) <= 1e-11
        amps = np.array([np.concatenate(([s.c_left], s.interior.ravel(), [s.c_right]))
                         for s in states])
        sv = np.linalg.svd(amps, compute_uv=False)
        assert sv[-1] > 0.1 * sv[0]
        # 1-2 s on a 2-core x86 VM; the dense H(kappa) route takes minutes at
        # depth 8, so a loose bound still tells the routes apart under load
        assert elapsed <= 30.0, f"{elapsed:.2f} s"

    def test_counting_su_cantor(self):
        mu = cantor_measure(2)
        sys = atomic_to_point_system(mu, BetaFunction.constant(-1.0))
        assert count_negative(sys) == 4
