"""Transfer matrices, approximation families, limit classification."""

import re

import numpy as np
import pytest

from deltaprime import transfer
from deltaprime.errors import AmbiguousClassification, ComplexCoefficient, DomainError, GammaPole
from deltaprime.interactions import Delta, DeltaPrimePotential, lambda_of, theta_of_gamma
from deltaprime.transfer import (
    DIRICHLET,
    LIMIT,
    DeltaComb,
    PiecewisePotential,
    comb_transfer,
    family_3d,
    family_4d,
    family_5d,
    free_propagator,
    limit_diagnose,
    pc_transfer,
)

from oracles import sequential_comb_transfer

EPS_SEQ = [1e-2, 1e-3, 1e-4, 1e-5]


class TestFreePropagator:
    def test_zero_span(self):
        np.testing.assert_array_equal(free_propagator(0.0, 1.0), np.eye(2))

    def test_quarter_period(self):
        m = free_propagator(np.pi / 2, 1.0)
        np.testing.assert_allclose(m.real, [[0, 1], [-1, 0]], atol=1e-15)

    def test_bound_channel_is_hyperbolic(self):
        kap = 1.3
        m = free_propagator(0.7, 1j * kap)
        np.testing.assert_allclose(m[0, 0], np.cosh(kap * 0.7), atol=1e-14)
        np.testing.assert_allclose(m[0, 1], np.sinh(kap * 0.7) / kap, atol=1e-14)
        assert abs(np.linalg.det(m) - 1.0) < 1e-14

    def test_series_matches_direct_at_crossover(self):
        # continuity of the (1,2) entry across the series cut
        for u in (0.99e-4, 1.01e-4):
            eps, lam = 1.0, u
            m = free_propagator(eps, lam)
            assert abs(m[0, 1] - np.sin(lam * eps) / lam) < 1e-15

    def test_lambda_zero(self):
        m = free_propagator(0.37, 0.0)
        np.testing.assert_allclose(m, [[1, 0.37], [0, 1]], atol=1e-16)

    def test_gaps_and_wavenumbers_broadcast(self):
        # one matrix per gap, per wavenumber or per pair, each the one built alone
        eps, lams = np.array([0.0, 1e-6, 0.3, 2.0]), np.array([1.3, 0.0, 2.5, 1e-5])
        assert free_propagator(eps, 1.3).shape == (4, 2, 2)
        assert free_propagator(0.3, lams).shape == (4, 2, 2)
        for e, lam, m in zip(eps, lams, free_propagator(eps, lams)):
            assert np.array_equal(m, free_propagator(e, lam))

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            free_propagator([0.5, -1e-300], 1.0)

    @pytest.mark.parametrize("call, lam, gap", [
        pytest.param(lambda: free_propagator(2.0, 1e308), "(1e+308+0j)", "2.0", id="lam-eps"),
        pytest.param(lambda: free_propagator(1.0, 1000j), "1000j", "1.0", id="cosh"),
        pytest.param(lambda: comb_transfer(DeltaComb([0.0, 2.0], [1.0, 1.0]), 1e308),
                     "(1e+308+0j)", "2.0", id="comb"),
        # the barrier's local wavenumber sqrt(0.25 - 1e6), about 1000j
        pytest.param(lambda: pc_transfer(PiecewisePotential([0.0, 1.0], [1e6]), 0.5),
                     "999.99987", "1.0", id="barrier"),
    ])
    def test_overflow_names_lam_and_gap(self, call, lam, gap):
        # a finite lam whose propagator overflows: a typed error, not NaN and numpy's warnings
        with pytest.raises(DomainError, match=rf"at lam = {re.escape(lam)}\S* over the gap {gap} overflows"):
            call()

    def test_piece_overflow_names_the_lam_passed(self):
        # the barrier's local wavenumber follows the lam pc_transfer was given
        with pytest.raises(DomainError, match=re.escape("lam = (0.5+0j): the free propagator at lam = 999.")):
            pc_transfer(PiecewisePotential([0.0, 1.0], [1e6]), 0.5)


@pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan, complex(1.0, np.nan), complex(np.inf, 1.0)])
class TestNonFiniteLambda:
    # each entry point refuses it in free_propagator alone, with limit_diagnose's message;
    # unchecked, inf gives all-NaN matrices and NaN only numpy's RuntimeWarning
    def test_free_propagator(self, lam):
        with pytest.raises(ValueError, match="lam must be finite, got"):
            free_propagator(0.5, lam)

    def test_comb_transfer(self, lam):
        for xs, a in (([0.0, 0.5], [1.0, -1.0]), ([0.3], [4.0]), ([], [])):
            with pytest.raises(ValueError, match="lam must be finite, got"):
                comb_transfer(DeltaComb(xs, a), lam)

    def test_pc_transfer(self, lam):
        with pytest.raises(ValueError, match="lam must be finite, got"):
            pc_transfer(PiecewisePotential([0.0, 1.0, 2.5], [1.0, -2.0]), lam)

    def test_limit_diagnose(self, lam):
        with pytest.raises(ValueError, match="lam must be finite, got"):
            limit_diagnose(lambda e: family_3d(0.5, e), lam, EPS_SEQ)


class TestBatchedCombBuild:
    """comb_transfer builds every propagator and jump at once and keeps the
    product order m = J_i (F_i m) of the atom-by-atom reference."""

    @pytest.mark.parametrize("eps", EPS_SEQ)
    def test_families_keep_the_sequential_bits(self, eps):
        combs = ([family_3d(g, eps) for g in (-1.2, 0.3, 2.0 / 3.0)]
                 + [family_4d(g, s, eps) for g in (3.0, 8.0) for s in (1, -1)]
                 + [family_5d(p, eps) for p in ("free", "dirichlet")])
        for comb in combs:
            for lam in (1.0, 0.0, 2.5, -0.7):
                assert np.array_equal(comb_transfer(comb, lam), sequential_comb_transfer(comb, lam))

    def test_random_combs_keep_the_sequential_bits(self):
        # up to 200 atoms; gaps from 1e-6, so lam = 1e-3 reads the series on some of them
        rng = np.random.default_rng(5)
        for n in [*range(9), 37, 120, 200]:
            comb = DeltaComb(np.cumsum(rng.uniform(1e-6, 0.3, n)), rng.uniform(-5.0, 5.0, n))
            for lam in (0.0, 1e-3, float(rng.uniform(-3.0, 3.0)), 2.9):
                assert np.array_equal(comb_transfer(comb, lam), sequential_comb_transfer(comb, lam))

    def test_families_of_any_lengths_keep_the_comb_bits(self):
        # limit_diagnose's one stacked build pads shorter combs with identities in front
        rng = np.random.default_rng(9)
        combs = [DeltaComb(np.cumsum(rng.uniform(1e-6, 0.3, n)), rng.uniform(-5.0, 5.0, n))
                 for n in (3, 0, 1, 7, 2, 7)]
        for lam in (0.0, 1e-3, 2.9, 1j, 0.3 + 0.1j):
            got = transfer._family_transfers(combs, lam)
            assert got.shape == (len(combs), 2, 2)
            for m, comb in zip(got, combs):
                assert m.tobytes() == comb_transfer(comb, lam).tobytes()

    def test_complex_lambda_within_rounding(self):
        # numpy's array complex multiply and abs round apart from the scalar ones, so the
        # bits may move; 4.1e-15 of the largest entry was the largest change seen
        rng = np.random.default_rng(6)
        for n in [*range(1, 9), 64, 200]:
            comb = DeltaComb(np.cumsum(rng.uniform(1e-6, 0.3, n)), rng.uniform(-5.0, 5.0, n))
            for lam in (1j, 0.3 + 0.1j, complex(*rng.uniform(-3.0, 3.0, 2)), 1e-3 - 2e-3j):
                want = sequential_comb_transfer(comb, lam)
                assert np.abs(comb_transfer(comb, lam) - want).max() <= 1e-13 * np.abs(want).max()


class TestCombTransfer:
    def test_single_atom(self):
        comb = DeltaComb([0.3], [4.0])
        np.testing.assert_allclose(
            comb_transfer(comb, 1.0), lambda_of(Delta(4.0)).entries, atol=1e-15
        )

    def test_empty_comb_is_identity(self):
        m = comb_transfer(DeltaComb([], []), 2.0)
        assert m.dtype == complex
        np.testing.assert_array_equal(m, np.eye(2))

    def test_family_3d_close_to_limit(self):
        eps = 1e-4
        m = comb_transfer(family_3d(2.0 / 3.0, eps), 1.0)
        assert np.abs(m - np.diag([2.0, 0.5])).max() < 2 * eps

    def test_split_and_compose(self):
        comb = DeltaComb([0.0, 0.4, 1.1, 1.7], [1.0, -2.0, 0.5, 3.0])
        lam = 1.7
        # cut at 0.75: each half spans its own atoms, the gap to the cut is free
        left = free_propagator(0.75 - 0.4, lam) @ comb_transfer(DeltaComb([0.0, 0.4], [1.0, -2.0]), lam)
        right = comb_transfer(DeltaComb([1.1, 1.7], [0.5, 3.0]), lam) @ free_propagator(1.1 - 0.75, lam)
        np.testing.assert_allclose(
            right @ left, comb_transfer(comb, lam), atol=1e-13
        )

    def test_det_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(1, 6)
            xs = np.sort(rng.uniform(-2, 2, n))
            xs += np.arange(n) * 1e-3  # enforce strict increase
            comb = DeltaComb(xs, rng.uniform(-5, 5, n))
            for lam in (1.0, 2.5, 1j * 1.2, 0.3 + 0.1j):
                det = np.linalg.det(comb_transfer(comb, lam))
                assert abs(det - 1.0) < 1e-12

    def test_real_lambda_symmetry(self):
        # real lambda: trace and det stay real for real combs
        comb = DeltaComb([0.0, 0.5], [1.0, -1.0])
        m = comb_transfer(comb, 1.4)
        assert abs(np.trace(m).imag) < 1e-14
        assert abs(np.linalg.det(m).imag) < 1e-14
        m2 = comb_transfer(comb, -1.4)
        np.testing.assert_allclose(m, m2, atol=1e-13)  # even in lambda


class TestFamilies:
    def test_3d_zero_gamma(self):
        comb = family_3d(0.0, 1e-3)
        assert np.all(comb.strengths == 0)

    def test_3d_coefficients(self):
        comb = family_3d(2.0 / 3.0, 1e-2)
        np.testing.assert_allclose(comb.positions, [0.0, 1e-2])
        np.testing.assert_allclose(comb.strengths, [1.0 / 1e-2, -0.5 / 1e-2])

    def test_3d_pole(self):
        with pytest.raises(GammaPole):
            family_3d(2.0, 1e-3)

    def test_3d_limit_matches_lambda_of(self):
        # entrywise error <= C eps over the eps grid, all sampled gammas
        for g in (-1.5, -1.0, -2.0 / 3.0, -0.5, 0.5, 2.0 / 3.0, 1.0, 1.5):
            target = lambda_of(DeltaPrimePotential(g)).entries
            for eps in EPS_SEQ:
                m = comb_transfer(family_3d(g, eps), 1.0)
                assert np.abs(m - target).max() <= 10 * eps, (g, eps)

    def test_4d_coefficients_consistent(self):
        comb = family_4d(6.0, 1, 1e-3)
        a1, a2, a3 = comb.strengths * 1e-3
        assert abs(a2 - 12.0 / np.sqrt(32.0)) < 1e-14
        assert abs(a1 + a2 + a3) < 1e-12  # zeroth moment vanishes
        m0, m1 = comb.moments()
        assert abs(m0) < 1e-9
        assert abs(m1 - (a1 - a3)) < 1e-9  # kappa = a1 - a3 (atoms at -eps, 0, eps)

    def test_4d_limit(self):
        th = theta_of_gamma(6.0)
        for sign in (1, -1):
            m = comb_transfer(family_4d(6.0, sign, 1e-5), 1.0)
            assert np.abs(m - np.diag([th, 1.0 / th])).max() < 1e-3

    def test_4d_kappa_depends_on_sign(self):
        kp = family_4d(6.0, 1, 1e-3).moments()[1]
        km = family_4d(6.0, -1, 1e-3).moments()[1]
        assert abs(kp - km) > 1.0  # same Lambda limit, different delta' constant

    def test_4d_complex_coefficient(self):
        with pytest.raises(ComplexCoefficient):
            family_4d(1.0, 1, 1e-3)
        with pytest.raises(ComplexCoefficient):
            family_4d(2.0, 1, 1e-3)

    def test_5d_free_moments(self):
        comb = family_5d("free", 1e-3)
        m0, m1 = comb.moments()
        assert abs(m0) < 1e-9
        assert abs(m1 - 6.0) < 1e-9  # v_eps -> 6 delta'

    def test_5d_free_mollifier_oracle(self):
        # sum a_j phi(x_j) -> -6 phi'(0) for smooth phi
        phi = lambda x: np.sin(2 * x) + np.cos(x)
        target = -6.0 * 2.0  # phi'(0) = 2
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            comb = family_5d("free", eps)
            errs.append(abs(np.sum(comb.strengths * phi(comb.positions)) - target))
        assert errs[-1] < 1e-2 and errs[0] > errs[-1]

    def test_5d_dirichlet_potential_vanishes(self):
        m0, m1 = family_5d("dirichlet", 1e-3).moments()
        assert abs(m0) < 1e-9 and abs(m1) < 1e-9


class TestPiecewisePotential:
    @pytest.mark.parametrize("breakpoints, values, message", [
        ([0.0, 1.0], [1.0, 2.0], "len"),
        ([0.0, 1.0, 1.0], [1.0, 2.0], "strictly increasing"),
        ([0.0, np.inf], [1.0], "must be finite, got inf"),
        ([0.0, 1.0], [np.nan], "must be finite, got nan"),
    ])
    def test_invalid_input_rejected(self, breakpoints, values, message):
        # a non-finite breakpoint or value would give an all-NaN pc_transfer
        with pytest.raises(ValueError, match=message):
            PiecewisePotential(breakpoints, values)

    @pytest.mark.parametrize("lam", [2e154, -2e154, 1e200j, complex(1e154, 1e154)])
    def test_overflowing_square_names_the_lam_passed(self, lam):
        # lam is finite but lam^2 - v is not: the error names lam, not the local wavenumber
        with pytest.raises(DomainError, match=re.escape(f"lam = {complex(lam)} is too large")):
            pc_transfer(PiecewisePotential([0.0, 1.0], [1.0]), lam)

    def test_zero_potential(self):
        pot = PiecewisePotential([0.0, 1.3], [0.0])
        np.testing.assert_allclose(
            pc_transfer(pot, 1.1), free_propagator(1.3, 1.1), atol=1e-14
        )

    def test_thin_box_is_delta(self):
        w = 1e-4
        pot = PiecewisePotential([0.0, w], [5.0 / w])
        m = pc_transfer(pot, 1.0)
        assert np.abs(m - lambda_of(Delta(5.0)).entries).max() < 1e-3

    def test_barrier_closed_form(self):
        pot = PiecewisePotential([0.0, 1.0], [4.0])
        m = pc_transfer(pot, 1.0)  # local k^2 = 1 - 4 = -3
        s3 = np.sqrt(3.0)
        expect = np.array(
            [[np.cosh(s3), np.sinh(s3) / s3], [s3 * np.sinh(s3), np.cosh(s3)]]
        )
        np.testing.assert_allclose(m, expect, atol=1e-12)

    def test_det_one(self):
        pot = PiecewisePotential([0.0, 0.5, 1.5, 2.0], [3.0, -2.0, 7.5])
        for lam in (0.5, 2.0, 1j):
            assert abs(np.linalg.det(pc_transfer(pot, lam)) - 1.0) < 1e-12

    def test_pieces_keep_the_sequential_bits(self):
        # the one batched propagator build and the shared product against one
        # free_propagator call per piece, multiplied from the identity piece by piece
        rng = np.random.default_rng(12)
        for p in [*range(6), 17, 60]:
            b = np.cumsum(np.concatenate(([rng.uniform(-2.0, 2.0)], rng.uniform(1e-6, 1.0, p))))
            pot = PiecewisePotential(b, rng.uniform(-30.0, 30.0, p))
            for lam in (0.0, 1e-3, float(rng.uniform(-4.0, 4.0)), 1j, complex(*rng.uniform(-4.0, 4.0, 2))):
                m = np.eye(2, dtype=complex)
                for g, v in zip(np.diff(b), pot.values):
                    m = free_propagator(g, np.sqrt(complex(lam) * complex(lam) - v + 0j)) @ m
                assert pc_transfer(pot, lam).tobytes() == m.tobytes()

    def test_mollified_comb_agrees(self):
        w = 1e-4
        comb = DeltaComb([0.0, 0.5], [2.0, -1.0])
        pot = PiecewisePotential(
            [0.0, w, 0.5, 0.5 + w], [2.0 / w, 0.0, -1.0 / w]
        )
        np.testing.assert_allclose(
            pc_transfer(pot, 1.0), free_propagator(w, 1.0) @ comb_transfer(comb, 1.0), atol=5e-4
        )


class TestLimitDiagnose:
    @pytest.mark.parametrize("family", [
        pytest.param(lambda e: family_3d(2.0 / 3.0, e), id="3d"),
        pytest.param(lambda e: family_4d(8.0, -1, e), id="4d"),
        pytest.param(lambda e: family_5d("free", e), id="5d-free"),
        pytest.param(lambda e: family_5d("dirichlet", e), id="5d-dirichlet"),
    ])
    @pytest.mark.parametrize("lam", [1.0, 0.0, 2.5, 1j])
    def test_stacked_fields_are_the_per_matrix_ones(self, family, lam):
        # one (E, 2, 2) array for the family's matrices; its steps and |M21| ratios
        # keep the bits of the per-matrix expressions, the scalar abs included
        rep = limit_diagnose(family, lam, EPS_SEQ)
        mats = [comb_transfer(family(e), lam) for e in EPS_SEQ]
        assert rep.matrices.shape == (len(EPS_SEQ), 2, 2) and np.array_equal(rep.matrices, mats)
        assert np.array_equal(rep.diffs, [np.abs(m2 - m1) for m1, m2 in zip(mats, mats[1:])])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = [[abs(m[0, 0]) / abs(m[1, 0]), abs(m[1, 1]) / abs(m[1, 0])] for m in mats]
        assert np.array_equal(rep.decoupling_ratios, ratios, equal_nan=True)

    def test_undecided_family_is_ambiguous(self):
        # one atom of strength 1/eps over closely spaced eps: M21's growth and the
        # off-ratios' decay disagree, so neither criterion decides
        with pytest.raises(AmbiguousClassification):
            limit_diagnose(lambda e: DeltaComb([0.0], [1.0 / e]), 1.0, [1e-2, 9e-3, 8.5e-3, 8.2e-3])

    def test_family_3d_limit(self):
        rep = limit_diagnose(lambda e: family_3d(2.0 / 3.0, e), 1.0, EPS_SEQ)
        assert rep.classification == LIMIT
        np.testing.assert_allclose(
            rep.limit.entries, lambda_of(DeltaPrimePotential(2.0 / 3.0)).entries, atol=1e-8
        )
        assert abs(rep.observed_order - 1.0) < 0.1

    def test_family_5d_free_limit(self):
        rep = limit_diagnose(lambda e: family_5d("free", e), 1.0, EPS_SEQ)
        assert rep.classification == LIMIT
        np.testing.assert_allclose(rep.limit.entries, np.eye(2), atol=1e-7)

    def test_first_order_family_is_a_limit(self):
        # steps 0.37, 0.037, 0.0037: the raw last step exceeds 1e-3 of the
        # entry scale, the geometric tail step / (rho - 1) does not
        rep = limit_diagnose(lambda e: family_4d(8.0, -1, e), 1.0, EPS_SEQ)
        assert rep.classification == LIMIT
        th = theta_of_gamma(8.0)
        np.testing.assert_allclose(rep.limit.entries, np.diag([th, 1.0 / th]), atol=1e-7)

    def test_family_5d_dirichlet(self):
        rep = limit_diagnose(lambda e: family_5d("dirichlet", e), 1.0, EPS_SEQ)
        assert rep.classification == DIRICHLET
        assert rep.limit is None

    def test_limit_is_lambda_independent(self):
        reps = [
            limit_diagnose(lambda e: family_3d(1.5, e), lam, EPS_SEQ)
            for lam in (1.0, 2.5)
        ]
        assert all(r.classification == LIMIT for r in reps)
        assert np.abs(reps[0].limit.entries - reps[1].limit.entries).max() < 1e-6
