"""Special functions against high-precision oracle values.

The reference constants were computed offline with an arbitrary-precision
library at 40 decimal digits and are embedded verbatim. The relative-error
grids at the end compute their references with mpmath at 50 digits.
"""

import math

import numpy as np
import pytest

from factorregimes import (
    EstimationError,
    FTestDistribution,
    binomial_tail,
    digamma,
    f_sf,
    log_gamma,
    regularized_incomplete_beta,
)

LOGGAMMA_10_3 = 13.48203678613835697061507343257009251868
LOGGAMMA_0_5 = 0.5723649429247000870717136756765293558236
DIGAMMA_1 = -0.5772156649015328606065120900824024310422
DIGAMMA_0_5 = -1.963510026021423479440976332998755567193
F_SF_2_5_9_500 = 0.008380520301015955650569378387024467304679


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_is_log_sqrt_pi(self):
        assert log_gamma(0.5) == pytest.approx(LOGGAMMA_0_5, abs=1e-12)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_oracle_point(self):
        assert log_gamma(10.3) == pytest.approx(LOGGAMMA_10_3, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)

    def test_recurrence(self):
        """log_gamma(x+1) = log_gamma(x) + log(x) on sampled points."""
        rng = np.random.default_rng(1)
        for x in rng.uniform(0.5, 50.0, 25):
            assert log_gamma(x + 1.0) == pytest.approx(
                log_gamma(x) + math.log(x), rel=1e-12
            )


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(DIGAMMA_1, abs=1e-12)

    def test_half_closed_form(self):
        assert digamma(0.5) == pytest.approx(DIGAMMA_1 - 2.0 * math.log(2.0),
                                             abs=1e-12)
        assert digamma(0.5) == pytest.approx(DIGAMMA_0_5, abs=1e-12)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(0.2, 100.0, 30):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x,
                                                                  rel=1e-9)

    def test_matches_finite_difference_of_log_gamma(self):
        h = 1e-4
        for x in np.linspace(1.0, 100.0, 23):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert digamma(x) == pytest.approx(fd, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(-1.0)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 5.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 5.0, 1.0) == 1.0

    def test_uniform_case(self):
        for x in (0.0, 0.25, 0.6, 1.0):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-12
            )

    def test_oracle_point(self):
        """I_0.4(2,3) = 0.5248 exactly (polynomial closed form)."""
        assert regularized_incomplete_beta(2.0, 3.0, 0.4) == pytest.approx(
            0.5248, abs=1e-10
        )

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a, b = rng.uniform(0.2, 20.0, 2)
            x = rng.uniform(0.0, 1.0)
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestFsf:
    def test_zero_statistic(self):
        assert f_sf(0.0, FTestDistribution(3, 17)) == 1.0

    def test_oracle_point(self):
        assert f_sf(2.5, FTestDistribution(9, 500)) == pytest.approx(
            F_SF_2_5_9_500, abs=1e-10
        )

    def test_t_squared_identity(self):
        """F(1, v) upper tail at t^2 equals the two-sided t(v) tail."""
        from scipy.stats import t as t_dist

        for v in (5, 30, 200):
            for tval in (0.5, 1.3, 2.7):
                f_tail = f_sf(tval**2, FTestDistribution(1, v))
                t_tail = 2.0 * t_dist.sf(tval, v)
                assert f_tail == pytest.approx(t_tail, abs=1e-12)

    def test_monotone_nonincreasing(self):
        dist = FTestDistribution(4, 60)
        values = [f_sf(f, dist) for f in np.linspace(0.0, 12.0, 80)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_statistic_rejected(self):
        with pytest.raises(ValueError):
            f_sf(-0.1, FTestDistribution(2, 10))

    def test_dof_validation(self):
        with pytest.raises(ValueError):
            FTestDistribution(0, 10)
        with pytest.raises(ValueError):
            FTestDistribution(3, 0)


class TestRelativeOracles:
    """Relative error against 50-digit mpmath over the ranges the package
    uses: F tails for df1 1-20 and df2 11-9000 down to p of about 1e-280."""

    DF2 = (11, 17, 30, 60, 150, 400, 1000, 2500, 5000, 9000)
    LOG10_P = (-280, -200, -120, -60, -20, -8, -4, -2, -1, -0.3)

    def test_f_sf_relative_tail(self):
        mp = pytest.importorskip("mpmath")
        worst, smallest = 0.0, 1.0
        with mp.workdps(50):
            for df1 in range(1, 21):
                b = mp.mpf(df1) / 2
                for df2 in self.DF2:
                    a = mp.mpf(df2) / 2
                    log_ab = mp.log(a) + mp.log(mp.beta(a, b))
                    for log10_p in self.LOG10_P:
                        # t where the leading term t^a / (a B(a, b)) is p
                        t = mp.exp((log10_p * mp.log(10) + log_ab) / a)
                        if not 0 < t < 1:
                            continue
                        f = float(df2 * (1 - t) / (df1 * t))
                        t = mp.mpf(df2) / (df2 + df1 * mp.mpf(f))
                        ref = mp.betainc(a, b, 0, t, regularized=True)
                        if ref < mp.mpf("1e-280"):
                            continue
                        got = f_sf(f, FTestDistribution(df1, df2))
                        worst = max(worst, float(abs(got - ref) / ref))
                        smallest = min(smallest, float(ref))
        assert smallest < 1e-250
        assert worst <= 1e-10, f"F tail relative error {worst:.3e}"

    def test_f_sf_large_df2(self):
        """ln B(df2/2, df1/2) for a large df2 is a Stirling difference, not
        the difference of two log-gamma values, which cancels."""
        mp = pytest.importorskip("mpmath")
        worst = (0.0, None)
        with mp.workdps(50):
            for df1 in (1, 2, 3, 5, 9, 15, 20, 30):
                for df2 in (11, 20, 50, 200, 1000, 3000, 9000):
                    for f in (0.1, 0.5, 1, 2, 5, 20, 60, 200):
                        t = mp.mpf(df2) / (df2 + df1 * mp.mpf(f))
                        ref = mp.betainc(mp.mpf(df2) / 2, mp.mpf(df1) / 2, 0, t,
                                         regularized=True)
                        if ref < mp.mpf("1e-280"):
                            continue
                        got = f_sf(float(f), FTestDistribution(df1, df2))
                        worst = max(worst, (float(abs(got - ref) / ref),
                                            (df1, df2, f)))
        assert worst[0] <= 1e-12, f"F tail relative error {worst}"

    def test_digamma(self):
        mp = pytest.importorskip("mpmath")
        xs = np.append(np.geomspace(0.01, 1000.0, 500)[1:], [0.5, 6.0, 10.0])
        with mp.workdps(50):
            worst = max(
                float(abs(digamma(x) - ref) / max(abs(ref), 1))
                for x, ref in ((float(x), mp.digamma(float(x))) for x in xs)
            )
        assert worst <= 1e-13, f"digamma error {worst:.3e}"

    def test_log_gamma(self):
        mp = pytest.importorskip("mpmath")
        xs = np.append(np.geomspace(0.01, 1e4, 500)[1:], [0.5, 1.0, 2.0])
        with mp.workdps(50):
            worst = max(
                float(abs(log_gamma(x) - ref) / max(abs(ref), 1))
                for x, ref in ((float(x), mp.loggamma(float(x))) for x in xs)
            )
        assert worst <= 1e-13, f"log_gamma error {worst:.3e}"

    def test_unconverged_fraction_raises(self):
        """At a = b = 1e12 the continued fraction needs some 10^5 terms,
        past the cap: an error, never an unconverged value."""
        with pytest.raises(EstimationError, match="did not converge"):
            regularized_incomplete_beta(1e12, 1e12, 0.5)


class TestBinomialTail:
    def test_zero_successes(self):
        assert binomial_tail(0, 12, 0.3) == 1.0

    def test_all_successes_fair_coin(self):
        for n in (1, 4, 9):
            assert binomial_tail(n, n, 0.5) == pytest.approx(0.5**n, abs=1e-15)

    def test_exact_five_of_six(self):
        """5-of-6 at p=0.10 is exactly 5.5e-5 by direct summation."""
        assert binomial_tail(5, 6, 0.10) == pytest.approx(5.5e-5, abs=1e-12)

    def test_point_mass_difference(self):
        from math import comb

        n, p = 11, 0.27
        for k in range(n):
            point = comb(n, k) * p**k * (1 - p) ** (n - k)
            diff = binomial_tail(k, n, p) - binomial_tail(k + 1, n, p)
            assert diff == pytest.approx(point, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_tail(7, 6, 0.1)
        with pytest.raises(ValueError):
            binomial_tail(-1, 6, 0.1)
        with pytest.raises(ValueError):
            binomial_tail(1, 6, 1.5)
