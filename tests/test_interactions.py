"""Boundary-condition algebra: forms, conversions, compositions."""

import numpy as np
import pytest

from deltaprime.errors import (
    DegenerateComposition,
    GammaPole,
    PlaneNotGraph,
    SingularD,
    SplitHasNoLambda,
)
from deltaprime.interactions import (
    AdditiveCharacteristic,
    BoundaryTraces,
    Delta,
    DeltaMagnetic,
    DeltaPrime,
    DeltaPrimePotential,
    SelfAdjointB,
    Split,
    TransmissionMatrix,
    Transparent,
    _phase_defects,
    b_to_lambda,
    b_to_unitary,
    boundary_form,
    characteristic_to_gamma,
    compose,
    eta_to_mu,
    gamma_compose,
    gamma_to_characteristic,
    lambda_of,
    mu_to_eta,
    split_unitary,
    theta_of_gamma,
    u_from_u_hat,
    u_hat_from_u,
    unitary_of_lambda,
)
from deltaprime.line import from_kinds
from deltaprime.transfer import family_3d

CANONICAL = [
    Delta(2.5), Delta(-4.0), DeltaPrime(-1.0), DeltaPrime(3.0),
    DeltaPrimePotential(2.0 / 3.0), DeltaPrimePotential(6.0),
    DeltaMagnetic(2.0), DeltaMagnetic(-0.7), Transparent(1.0), Transparent(-2.5),
]


def random_traces(rng):
    z = rng.standard_normal(8)
    return BoundaryTraces(
        z[0] + 1j * z[1], z[2] + 1j * z[3], z[4] + 1j * z[5], z[6] + 1j * z[7]
    )


class TestBoundaryForm:
    def test_real_traces_vanish(self):
        p = BoundaryTraces(1.0, 2.0, -0.5, 3.0)
        assert boundary_form(p, p) == 0

    def test_exponential_traces_vanish(self):
        p = BoundaryTraces(1.0, 1.0, 1.0, 1.0)  # e^x at x0 = 0
        assert boundary_form(p, p) == 0

    def test_cross_term(self):
        # only the -psi(+0) conj(phi'(+0)) term survives
        p = BoundaryTraces(1.0, 0.0, 0.0, 0.0)
        q = BoundaryTraces(0.0, 0.0, 1.0, 0.0)
        assert boundary_form(p, q) == -1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = random_traces(rng), random_traces(rng)
            assert abs(boundary_form(p, q) + np.conj(boundary_form(q, p))) < 1e-12

    def test_derived_quantities(self):
        t = BoundaryTraces(3.0, 1.0, 2.0, -2.0)
        assert t.psi_s == 2.0 and t.dpsi_s == 4.0
        assert t.psi_r == 2.0 and t.dpsi_r == 0.0


class TestLambdaOf:
    def test_delta(self):
        np.testing.assert_array_equal(
            lambda_of(Delta(5.0)).entries, [[1, 0], [5, 1]]
        )

    def test_delta_prime_potential(self):
        m = lambda_of(DeltaPrimePotential(2.0 / 3.0)).entries
        np.testing.assert_allclose(m, np.diag([2.0, 0.5]), atol=1e-15)

    def test_transparent_passes_plane_wave(self):
        lam0 = 1.0
        m = lambda_of(Transparent(lam0))
        np.testing.assert_allclose(
            m.entries, 1j * np.array([[0, -1], [1, 0]]), atol=1e-15
        )
        v_plus, d_plus = m.apply(1.0, 1j * lam0)  # traces of e^{i lam0 x} at 0
        assert abs(v_plus - 1.0) < 1e-15
        assert abs(d_plus - 1j * lam0) < 1e-15

    def test_split_refused(self):
        with pytest.raises(SplitHasNoLambda):
            lambda_of(Split(0.3, -0.2))

    def test_gamma_poles(self):
        with pytest.raises(GammaPole):
            lambda_of(DeltaPrimePotential(2.0 + 1e-14))
        with pytest.raises(GammaPole):
            DeltaPrimePotential(2.0)
        with pytest.raises(GammaPole):
            DeltaPrimePotential(-2.0)

    @pytest.mark.parametrize("gamma", [2.0, -2.0, 2.0 - 1e-13, -2.0 + 1e-13])
    @pytest.mark.parametrize("entry", [
        DeltaPrimePotential, theta_of_gamma, gamma_to_characteristic,
        lambda g: family_3d(g, 1e-3),
    ], ids=["DeltaPrimePotential", "theta_of_gamma", "gamma_to_characteristic", "family_3d"])
    def test_every_pole_entry_raises_gamma_pole(self, entry, gamma):
        # theta_of_gamma is the one check of the pole; every other entry calls it
        with pytest.raises(GammaPole):
            entry(gamma)

    def test_b_is_a_kind(self):
        b = SelfAdjointB(alpha=0.3, beta=-1.2, gamma=0.7, mu=0.4)
        assert lambda_of(b).entries.tobytes() == b_to_lambda(b).entries.tobytes()
        # a B point enters a system like any other kind; this B is a pure delta'
        system = from_kinds([(1.0, SelfAdjointB(beta=-1.5)), (0.0, DeltaPrime(-1.0))])
        np.testing.assert_array_equal(system.delta_prime_betas(), [-1.0, -1.5])

    def test_det_modulus_one(self):
        for kind in CANONICAL:
            det = np.linalg.det(lambda_of(kind).entries)
            assert abs(abs(det) - 1.0) < 1e-12, kind

    def test_magnetic_is_pure_phase(self):
        mu = 1.3
        m = lambda_of(DeltaMagnetic(mu)).entries
        eta = mu_to_eta(mu)
        np.testing.assert_allclose(m / np.exp(1j * eta), np.eye(2), atol=1e-15)

    def test_phase_defect(self):
        for kind in CANONICAL:
            assert lambda_of(kind).phase_defect() < 1e-12

    def test_stacked_phase_defects_are_the_per_matrix_ones(self):
        # random gauged delta, delta' and B matrices, on and just off the family,
        # in one call over any leading axes
        rng = np.random.default_rng(12)
        mats = np.array([lambda_of(kind).entries * np.exp(1j * rng.uniform(-np.pi, np.pi))
                         for a, b, g, m in rng.uniform(-3.0, 3.0, (100, 4))
                         for kind in (Delta(a), DeltaPrime(b), SelfAdjointB(a, b, g, m))])
        mats = np.concatenate((mats, mats + 1e-9 * rng.standard_normal(mats.shape)))
        want = [TransmissionMatrix(m).phase_defect() for m in mats]
        assert np.array_equal(_phase_defects(mats), want)
        assert np.array_equal(_phase_defects(mats.reshape(30, 20, 2, 2)), np.reshape(want, (30, 20)))
        assert max(want[:300]) < 1e-12 < min(want[300:])

    def test_planes_annihilate_boundary_form(self):
        # traces satisfying col(v+,d+) = Lambda col(v-,d-) must be Lagrangian
        rng = np.random.default_rng(11)
        for kind in CANONICAL:
            lam = lambda_of(kind)
            for _ in range(100):
                a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                p = lam.traces(a[0], a[1])
                q = lam.traces(b[0], b[1])
                assert abs(boundary_form(p, q)) < 1e-10, kind


class TestBConversions:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(
            b_to_lambda(SelfAdjointB()).entries, np.eye(2), atol=1e-15
        )

    def test_delta_prime_row(self):
        b = -1.7
        np.testing.assert_allclose(
            b_to_lambda(SelfAdjointB(beta=b)).entries, [[1, b], [0, 1]], atol=1e-15
        )

    def test_gamma_two_thirds(self):
        # D = 8/9, th+ = 16/9, th- = 4/9 by direct arithmetic
        m = b_to_lambda(SelfAdjointB(gamma=2.0 / 3.0)).entries
        np.testing.assert_allclose(m, np.diag([2.0, 0.5]), atol=1e-14)
        np.testing.assert_allclose(
            m, lambda_of(DeltaPrimePotential(2.0 / 3.0)).entries, atol=1e-14
        )

    @pytest.mark.parametrize("param", np.linspace(-10, 10, 21))
    def test_single_parameter_grids(self, param):
        pairs = [
            (SelfAdjointB(alpha=param), Delta(param)),
            (SelfAdjointB(beta=param), DeltaPrime(param)),
            (SelfAdjointB(mu=param), DeltaMagnetic(param)),
        ]
        if abs(abs(param) - 2.0) > 1e-9:
            pairs.append((SelfAdjointB(gamma=param), DeltaPrimePotential(param)))
        for b, kind in pairs:
            np.testing.assert_allclose(
                b_to_lambda(b).entries, lambda_of(kind).entries, atol=1e-12
            )

    def test_singular_d(self):
        with pytest.raises(SingularD):
            b_to_lambda(SelfAdjointB(alpha=2.0, beta=2.0))  # D = 1 - 1 = 0

    def test_unitary_at_zero(self):
        np.testing.assert_allclose(
            b_to_unitary(SelfAdjointB()), -np.eye(2), atol=1e-15
        )

    def test_unitary_diag(self):
        u = b_to_unitary(SelfAdjointB(alpha=1.0, beta=1.0))  # B = diag(1, -1)
        np.testing.assert_allclose(u, np.diag([1j, -1j]), atol=1e-14)

    def test_unitary_random_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, g, m = rng.standard_normal(4) * 3
            u = b_to_unitary(SelfAdjointB(a, b, g, m))
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(2), atol=1e-12
            )


class TestComposition:
    def test_delta_additivity(self):
        lhs = compose(lambda_of(Delta(1.25)), lambda_of(Delta(-0.5)))
        np.testing.assert_allclose(lhs.entries, lambda_of(Delta(0.75)).entries, atol=1e-14)

    def test_delta_prime_additivity(self):
        lhs = compose(lambda_of(DeltaPrime(2.0)), lambda_of(DeltaPrime(0.5)))
        np.testing.assert_allclose(lhs.entries, lambda_of(DeltaPrime(2.5)).entries, atol=1e-14)

    def test_potential_composition_matches_gamma_rule(self):
        gm, gp = 2.0 / 3.0, 2.0 / 3.0
        g = gamma_compose(gm, gp)
        assert abs(g - 1.2) < 1e-15  # (4/3)/(1 + 1/9) = 6/5
        lhs = compose(lambda_of(DeltaPrimePotential(gp)), lambda_of(DeltaPrimePotential(gm)))
        np.testing.assert_allclose(
            lhs.entries, lambda_of(DeltaPrimePotential(g)).entries, atol=1e-12
        )

    def test_compose_is_associative(self):
        rng = np.random.default_rng(5)
        kinds = [Delta(1.2), DeltaPrime(-0.4), DeltaMagnetic(0.9)]
        a, b, c = (lambda_of(k) for k in kinds)
        left = compose(compose(a, b), c).entries
        right = compose(a, compose(b, c)).entries
        assert np.abs(left - right).max() < 1e-13

    def test_compose_preserves_invariant(self):
        m = compose(lambda_of(Delta(3.0)), lambda_of(DeltaMagnetic(1.0)))
        assert m.phase_defect() < 1e-12

    def test_gamma_identity_element(self):
        assert gamma_compose(-0.8, 0.0) == -0.8

    def test_gamma_opposites_cancel(self):
        assert gamma_compose(1.5, -1.5) == 0.0

    def test_gamma_degenerate(self):
        # (1, -4) hits 1 + gm*gp/4 = 0: theta = 3 and -1/3 multiply to -1, no gamma
        with pytest.raises(DegenerateComposition):
            gamma_compose(1.0, -4.0)
        # (2, -2) is 0/0 too, but each input is already a pole of theta
        with pytest.raises(GammaPole):
            gamma_compose(2.0, -2.0)

    @pytest.mark.parametrize("pair", [(2.0, 1.0), (1.0, -2.0), (-2.0, 0.0)])
    def test_gamma_pole_is_refused(self, pair):
        # theta_of_gamma's one pole rule: |gamma| = 2 is no delta'-potential
        with pytest.raises(GammaPole, match="requires \\|gamma\\| != 2"):
            gamma_compose(*pair)


class TestCharacteristic:
    def test_zero(self):
        c = gamma_to_characteristic(0.0)
        assert c.xi == 0.0 and c.s == 1

    def test_two_thirds(self):
        c = gamma_to_characteristic(2.0 / 3.0)
        assert abs(c.xi - np.log(2.0)) < 1e-15 and c.s == 1

    def test_six(self):
        c = gamma_to_characteristic(6.0)
        assert abs(c.xi - np.log(2.0)) < 1e-15 and c.s == -1

    def test_pole(self):
        with pytest.raises(GammaPole):
            gamma_to_characteristic(2.0)

    def test_sign_flips_exactly_at_two(self):
        assert gamma_to_characteristic(1.999999).s == 1
        assert gamma_to_characteristic(2.000001).s == -1
        assert gamma_to_characteristic(-1.999999).s == 1
        assert gamma_to_characteristic(-2.000001).s == -1

    def test_addition_matches_gamma_compose(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            g1, g2 = rng.uniform(-8, 8, size=2)
            if min(abs(abs(g1) - 2), abs(abs(g2) - 2)) < 1e-3:
                continue
            if abs(1 + g1 * g2 / 4) < 1e-3:
                continue
            via_gamma = gamma_compose(g1, g2)
            c = gamma_to_characteristic(g1) + gamma_to_characteristic(g2)
            assert abs(characteristic_to_gamma(c) - via_gamma) < 1e-10

    def test_addition_commutes(self):
        c1 = AdditiveCharacteristic(0.3, -1)
        c2 = AdditiveCharacteristic(-1.1, -1)
        assert c1 + c2 == c2 + c1 == AdditiveCharacteristic(-0.8, 1)

    def test_addition_associates(self):
        c1 = AdditiveCharacteristic(0.3, -1)
        c2 = AdditiveCharacteristic(-1.1, -1)
        c3 = AdditiveCharacteristic(2.7, 1)
        left, right = (c1 + c2) + c3, c1 + (c2 + c3)
        assert left.s == right.s and abs(left.xi - right.xi) < 1e-15


class TestMuEta:
    def test_zero(self):
        assert mu_to_eta(0.0) == 0.0

    def test_mu_two(self):
        assert abs(mu_to_eta(2.0) - np.pi / 2) < 1e-15

    def test_roundtrip(self):
        for mu in np.linspace(-20, 20, 41):
            assert abs(eta_to_mu(mu_to_eta(mu)) - mu) < 1e-10 * max(1, abs(mu))

    def test_composition_is_additive_phase(self):
        eta = np.pi / 3
        mu = eta_to_mu(eta)
        m = compose(lambda_of(DeltaMagnetic(mu)), lambda_of(DeltaMagnetic(mu)))
        np.testing.assert_allclose(
            m.entries, np.exp(2j * np.pi / 3) * np.eye(2), atol=1e-14
        )


class TestUnitaryCharts:
    def test_delta_prime_hat_equals_b_cayley(self):
        # the plane of a delta' interaction seen in the jump/mean chart
        for b in (-1.0, 0.7, 3.2):
            u = unitary_of_lambda(lambda_of(DeltaPrime(b)))
            np.testing.assert_allclose(
                u_hat_from_u(u), b_to_unitary(SelfAdjointB(beta=b)), atol=1e-12
            )

    def test_all_canonical_b_kinds_agree(self):
        cases = [
            SelfAdjointB(alpha=1.7), SelfAdjointB(beta=-2.2),
            SelfAdjointB(gamma=0.9), SelfAdjointB(mu=1.1),
            SelfAdjointB(0.4, -0.6, 0.2, 0.8),
        ]
        for b in cases:
            u = unitary_of_lambda(b_to_lambda(b))
            np.testing.assert_allclose(u_hat_from_u(u), b_to_unitary(b), atol=1e-11)

    def test_split_unitary_satisfies_split_conditions(self):
        from deltaprime.interactions import _PLAIN, _traces

        ap, am = 0.4, -0.9
        u = split_unitary(Split(ap, am))
        v_p, v_m, d_p, d_m = _traces(_PLAIN, u)
        assert np.abs(v_p * np.cos(ap) - d_p * np.sin(ap)).max() < 1e-12
        assert np.abs(v_m * np.cos(am) - d_m * np.sin(am)).max() < 1e-12

    def test_swap_plane_is_not_a_graph(self):
        # Lambda = [[0, 1], [1, 0]] swaps value and derivative: it admits no unitary parametrization
        with pytest.raises(PlaneNotGraph):
            unitary_of_lambda(TransmissionMatrix([[0, 1], [1, 0]]))

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = h + h.conj().T
            u = np.linalg.solve(h - 1j * np.eye(2), h + 1j * np.eye(2))
            np.testing.assert_allclose(u_from_u_hat(u_hat_from_u(u)), u, atol=1e-10)
            uh = u_hat_from_u(u)
            np.testing.assert_allclose(uh @ uh.conj().T, np.eye(2), atol=1e-12)
