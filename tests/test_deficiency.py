"""Deficiency elements: kernels, functionals, closed-form Gram ranks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from deltaprime.deficiency import (
    GCONV,
    GPRIMECONV,
    DeficiencyElement,
    _f_pair,
    _sqrt_upper,
    e_functional,
    element_eval,
    free_pair_check,
    g_z,
    gram_matrix,
    gram_rank,
    inner_product,
    point_family,
)
from deltaprime.errors import BranchCut, EvaluationOnAtom, IllConditioned
from deltaprime.measures import AtomicMeasure
from oracles import e_functional_numeric

ZS = (-1.0, 1j, -4.0 + 3.0j)


class TestKernel:
    def test_negative_one(self):
        xs = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(g_z(xs, -1.0), 0.5 * np.exp(-np.abs(xs)), atol=1e-15)

    def test_continuity_at_origin(self):
        for z in ZS:
            s = np.sqrt(complex(z))
            s = s if s.imag > 0 else -s
            assert abs(g_z(1e-14, z) - 0.5j / s) < 1e-12
            assert abs(g_z(-1e-14, z) - g_z(1e-14, z)) < 1e-12

    def test_derivative_jump_is_minus_one(self):
        for z in ZS:
            unit = DeficiencyElement(GCONV, AtomicMeasure([0.0], [1.0]), z)
            jump = unit.one_sided(0.0, +1)[1] - unit.one_sided(0.0, -1)[1]
            assert abs(jump + 1.0) < 1e-12

    def test_branch_cut(self):
        for z in (2.0, 0.0):
            with pytest.raises(BranchCut):
                g_z(1.0, z)

    def test_solves_the_equation_off_origin(self):
        # finite-difference residual of -g'' - z g on smooth side-grids
        h = 1e-4
        for z in ZS:
            for x0 in (0.5, -1.7, 3.1):
                vals = g_z(x0 + h * np.arange(-2, 3), z)
                second = (vals[1] - 2 * vals[2] + vals[3]) / h**2
                assert abs(-second - z * vals[2]) < 1e-6


class TestElements:
    def test_single_atom_is_shift(self):
        e = DeficiencyElement(GCONV, AtomicMeasure([0.0], [1.0]), -1.0)
        xs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(element_eval(e, xs), g_z(xs, -1.0), atol=1e-15)

    def test_two_atom_sum(self):
        mu = AtomicMeasure([0.0, 1.0], [1.0, 2.0])
        e = DeficiencyElement(GCONV, mu, -1.0)
        x = 0.3
        expect = 0.5 * (np.exp(-abs(x)) + 2.0 * np.exp(-abs(x - 1.0)))
        assert abs(element_eval(e, x) - expect) < 1e-14

    def test_prime_on_atom_rejected(self):
        e = DeficiencyElement(GPRIMECONV, AtomicMeasure([0.5], [1.0]), -1.0)
        with pytest.raises(EvaluationOnAtom):
            element_eval(e, 0.5)

    @pytest.mark.parametrize("side", [-1, +1])
    def test_prime_next_to_an_atom_is_that_side_limit(self, side):
        # only the atom's own float is on it: 1e-13 away, the one-sided limit
        e = DeficiencyElement(GPRIMECONV, AtomicMeasure([0.5], [1.0]), -1.0)
        x = 0.5 + side * 1e-13
        assert element_eval(e, x) == e.one_sided(x, side)[0]
        assert element_eval(e, x) == pytest.approx(e.one_sided(0.5, side)[0], abs=1e-12)
        with pytest.raises(EvaluationOnAtom):
            element_eval(e, np.array([0.0, 0.5]))

    def test_kernel_residual_off_atoms(self):
        mu = AtomicMeasure([0.0, 0.8], [1.0, 0.5])
        h = 1e-4
        for kind in (GCONV, GPRIMECONV):
            for z in ZS:
                e = DeficiencyElement(kind, mu, z)
                for x0 in (0.4, 1.9, -1.1):
                    vals = element_eval(e, x0 + h * np.arange(-2, 3))
                    second = (vals[1] - 2 * vals[2] + vals[3]) / h**2
                    assert abs(-second - z * vals[2]) < 1e-6, (kind, z, x0)


class TestFunctional:
    def test_unit_atom(self):
        for z in ZS:
            e = DeficiencyElement(GCONV, AtomicMeasure([0.3], [1.0]), z)
            assert abs(e_functional(e) + 1.0 / z) < 1e-15

    def test_prime_vanishes(self):
        for z in ZS:
            e = DeficiencyElement(GPRIMECONV, AtomicMeasure([0.3], [1.0]), z)
            assert e_functional(e) == 0.0

    def test_mass_two(self):
        e = DeficiencyElement(GCONV, AtomicMeasure([0.0], [2.0]), -1.0)
        assert abs(e_functional(e) - 2.0) < 1e-15

    def test_numeric_agreement(self):
        e = DeficiencyElement(GCONV, AtomicMeasure([0.0, 1.0], [1.0, 0.7]), -1.0 + 0.5j)
        num = e_functional_numeric(e)
        assert abs(num - e_functional(e)) < 1e-6

    def test_separation(self):
        # the functional separates the two families: never zero on g with
        # positive mass, always zero on derivatives
        for z in ZS:
            for mass in (0.1, 1.0, 7.0):
                e = DeficiencyElement(GCONV, AtomicMeasure([0.0], [mass]), z)
                assert abs(e_functional(e)) > 0
                ep = DeficiencyElement(GPRIMECONV, AtomicMeasure([0.0], [mass]), z)
                assert e_functional(ep) == 0


class TestInnerProducts:
    def test_norm_closed_form(self):
        for z in ZS:
            s = np.sqrt(complex(z))
            s = s if s.imag > 0 else -s
            e = DeficiencyElement(GCONV, AtomicMeasure([0.0], [1.0]), z)
            closed = inner_product(e, e)
            expect = 1.0 / (4.0 * abs(z) * s.imag)
            assert abs(closed - expect) < 1e-14
            num, _ = quad(
                lambda x: abs(g_z(x, z)) ** 2, -40 / s.imag, 40 / s.imag, limit=400
            )
            assert abs(closed - num) < 1e-8

    @pytest.mark.parametrize("k1,k2", [(GCONV, GCONV), (GPRIMECONV, GCONV),
                                       (GCONV, GPRIMECONV), (GPRIMECONV, GPRIMECONV)])
    def test_quadrature_agreement(self, k1, k2):
        z = -4.0 + 3.0j
        e1 = DeficiencyElement(k1, AtomicMeasure([0.3], [1.0]), z)
        e2 = DeficiencyElement(k2, AtomicMeasure([-0.2], [1.0]), z)
        closed = inner_product(e1, e2)
        f1 = lambda x: element_eval(e1, x)
        f2 = lambda x: element_eval(e2, x)
        integrand = lambda x: f1(x) * np.conj(f2(x))
        re, _ = quad(lambda x: integrand(x).real, -30, 30, limit=800, points=[-0.2, 0.3])
        im, _ = quad(lambda x: integrand(x).imag, -30, 30, limit=800, points=[-0.2, 0.3])
        assert abs(closed - (re + 1j * im)) < 1e-9

    def test_gram_matches_pairwise_inner_products(self):
        z = -4.0 + 3.0j
        fam = point_family([0.0, 0.7], z, drop_prime_at=[0.7]) + [
            DeficiencyElement(GCONV, AtomicMeasure([0.1, 0.4, 2.0], [1.0, 0.5, 2.0]), z),
            DeficiencyElement(GPRIMECONV, AtomicMeasure([-0.3, 1.2], [0.25, 1.5]), z),
        ]
        pairwise = [[inner_product(a, b) for b in fam] for a in fam]
        np.testing.assert_allclose(gram_matrix(fam), pairwise, rtol=1e-13, atol=0)

    def test_gram_is_hermitian_psd(self):
        fam = point_family([0.0, 0.7, 2.0], 1j)
        g = gram_matrix(fam)
        assert np.abs(g - g.conj().T).max() < 1e-13
        assert np.linalg.eigvalsh(g).min() > -1e-12


class TestSinOverSigma:
    """sin(sigma |d|) / sigma in F and F' is |d| sinc(sigma |d| / pi)."""

    D = np.concatenate([np.linspace(-3.0, 3.0, 61), [1e-300, -7.5, 40.0]])

    @pytest.mark.parametrize("z", [-1.0, -4.0])
    def test_sigma_zero_gives_the_distance(self, z):
        # every z < 0 has sigma = 0, where the quotient is |d| exactly
        tau = _sqrt_upper(z).imag
        ad = np.abs(self.D)
        damp = np.exp(-tau * ad)
        f, fp = _f_pair(self.D, z)
        assert np.array_equal(fp, -np.sign(self.D) * damp * ad / (4.0 * tau))
        assert np.array_equal(f, damp * (1.0 / tau + ad) / (4.0 * (tau * tau)))

    @pytest.mark.parametrize("z", [-1.0 + 1e-9j, -4.0 + 1e-8j, -0.25 - 3e-10j, -9.0 + 1e-300j])
    def test_tiny_sigma_agrees_with_the_series(self, z):
        # the series |d| (1 - (sigma d)^2 / 6) of the quotient, where sigma |d| < 1e-8
        s = _sqrt_upper(z)
        sig, tau = s.real, s.imag
        d = self.D[np.abs(sig * self.D) < 1e-8]
        ad = np.abs(d)
        damp = np.exp(-tau * ad)
        series = ad * (1.0 - (sig * ad) ** 2 / 6.0)
        f, fp = _f_pair(d, z)
        np.testing.assert_array_max_ulp(
            f, damp * (np.cos(sig * ad) / tau + series) / (4.0 * (sig * sig + tau * tau)), 2)
        np.testing.assert_array_max_ulp(fp, -np.sign(d) * damp * series / (4.0 * tau), 2)


class TestRanks:
    def test_single_point(self):
        assert gram_rank(point_family([0.0], -1.0)) == 2

    def test_two_points(self):
        assert gram_rank(point_family([0.0, 1.0], -1.0)) == 4

    def test_dropping_a_prime_member(self):
        fam = point_family([0.0, 1.0], -1.0, drop_prime_at=[1.0])
        assert len(fam) == 3
        assert gram_rank(fam) == 3

    @pytest.mark.parametrize("drop", [[2.0], [1.0 + 1e-15]])
    def test_drop_point_must_be_a_point(self, drop):
        # a drop point is one of the points by float equality, or refused
        with pytest.raises(ValueError, match=f"drop_prime_at entry {drop[0]!r} is not one of"):
            point_family([0.0, 1.0], -1.0, drop_prime_at=drop)

    def test_repeated_point_is_refused(self):
        # a point given twice is an input error, not a rank deficiency of the family
        with pytest.raises(ValueError, match="point 0.0 is given twice"):
            point_family([0.0, 1.0, 0.0], -1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dichotomy(self, n):
        pts = list(np.linspace(0.0, 1.0 * (n - 1) if n > 1 else 0.0, n))
        assert gram_rank(point_family(pts, -1.0)) == 2 * n
        assert gram_rank(point_family(pts, -1.0, drop_prime_at=[pts[-1]])) == 2 * n - 1

    def test_near_coincident_points_warn(self):
        # two g elements 2e-4 apart: a singular value falls within a decade of the cut
        with pytest.warns(IllConditioned, match="cluster at the rank tolerance"):
            gram_rank(point_family([0.0, 2e-4], -1.0, drop_prime_at=[0.0, 2e-4]))

    def test_rank_invariances(self):
        pts = [0.0, 0.9, 2.2]
        for z in ZS:
            assert gram_rank(point_family(pts, z)) == 6
            shifted = [p + 17.3 for p in pts]
            assert gram_rank(point_family(shifted, z)) == 6


class TestFreePair:
    def test_unit_atom(self):
        rep = free_pair_check(AtomicMeasure([0.0], [1.0]))
        assert rep.max_jump < 1e-12

    def test_random_three_atoms(self):
        rep = free_pair_check(AtomicMeasure([0.0, 0.5, 1.3], [1.0, 2.0, 0.5]))
        assert rep.max_jump < 1e-12

    def test_single_convolution_does_jump(self):
        # contrast: one convolution alone has derivative jump -w per atom
        mu = AtomicMeasure([0.0], [1.5])
        e = DeficiencyElement(GCONV, mu, -1j)
        _, dp = e.one_sided(0.0, +1)
        _, dm = e.one_sided(0.0, -1)
        assert abs((dp - dm) + 1.5) < 1e-14

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 8), data=st.data(), re=st.floats(-5.0, 5.0),
           im=st.floats(0.05, 5.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_smooth_pair_identity(self, m, data, re, im, sign):
        gaps = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m - 1, max_size=m - 1))
        ws = data.draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
        mu = AtomicMeasure(np.concatenate(([0.0], np.cumsum(gaps))), ws)
        assert free_pair_check(mu, complex(re, sign * im)).max_jump <= 1e-12 * mu.total_mass
