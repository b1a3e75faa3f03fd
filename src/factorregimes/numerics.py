"""Special functions and distribution tails used by the likelihood and the tests.

Everything here is deterministic double-precision arithmetic in the
standard library. Tail probabilities go through the regularized
incomplete beta function rather than simulation, so p-values in the 1e-5
range are reproducible exactly.

- log_gamma is `math.lgamma`.
- digamma shifts x up by psi(x) = psi(x+1) - 1/x until x >= 10 and then
  sums the asymptotic series through the x^-10 term (Bernardo, "Algorithm
  AS 103: Psi (digamma) function", Applied Statistics 25, 1976).
- regularized_incomplete_beta evaluates the continued fraction for
  I_x(a, b) by the modified Lentz method (Thompson & Barnett, "Coulomb and
  Bessel functions of complex arguments and order", J. Comput. Phys. 64,
  1986; Numerical Recipes, 3rd ed., section 6.4), with the prefactor
  x^a (1-x)^b / (a B(a, b)) formed in log space.
- ln B(a, b) with max(a, b) >= 10 takes ln Gamma(g) - ln Gamma(g + s)
  (g the larger argument, s the smaller) from the difference of the two
  Stirling series, with log1p(s/g) for the ratio of the leading terms, as
  `algdiv` does (DiDonato & Morris, "Algorithm 708", ACM TOMS 18, 1992);
  the difference of two `math.lgamma` values would cancel for a large g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EstimationError

# the continued fraction needs the most terms at its switch point, of order
# sqrt(max(a, b)): 91 at a = b = 5000, 1063 at a = b = 1e7, and at most 69
# for F tails with df1 <= 20 and df2 <= 9000
_CF_MAX_ITERS = 10_000
_CF_EPS = 2.0 ** -52  # double-precision machine epsilon
_CF_TINY = 1e-300
_STIRLING_MIN = 10.0  # ln B takes the Stirling difference from here on
# B_2k / (2k (2k - 1)), the coefficients of ln Gamma's Stirling remainder in
# z^-(2k-1); at z >= 10 the first term left out is below 1e-16
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)


@dataclass(frozen=True)
class FTestDistribution:
    """F distribution given by its two degrees of freedom.

    df1 is the numerator dof (the number of tested lag coefficients),
    df2 the residual dof of the unrestricted regression.
    """

    df1: int
    df2: int

    def __post_init__(self):
        if self.df1 < 1 or self.df2 < 1:
            raise ValueError(
                f"degrees of freedom must be >= 1, got ({self.df1}, {self.df2})"
            )


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """Derivative of log_gamma for x > 0."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (1.0 / 12 - r * (1.0 / 120 - r * (1.0 / 252 - r * (
        1.0 / 240 - r * (1.0 / 132)))))
    return float(shift + math.log(x) - 0.5 / x - series)


def _stirling_remainder(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), for z >= 10."""
    r = 1.0 / (z * z)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * r + c
    return total / z


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    s, g = min(a, b), max(a, b)
    if g < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # ln Gamma(g) - ln Gamma(g + s), by the difference of Stirling's series
    ratio = (g + s - 0.5) * math.log1p(s / g) + s * (math.log(g) - 1.0)
    tail = _stirling_remainder(g) - _stirling_remainder(g + s)
    return math.lgamma(s) + tail - ratio


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by modified Lentz; converges fast
    for x < (a+1)/(a+b+2). Raises EstimationError if it does not converge
    within _CF_MAX_ITERS terms."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_ITERS + 1):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = c * d
            h *= step
        if abs(step - 1.0) <= _CF_EPS:
            return h
    raise EstimationError(
        f"incomplete beta continued fraction did not converge in "
        f"{_CF_MAX_ITERS} terms (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def f_sf(f: float, dist: FTestDistribution) -> float:
    """Upper tail P(F >= f) of the F distribution.

    Uses the identity P(F >= f) = I_t(df2/2, df1/2) with
    t = df2 / (df2 + df1*f), which is stable for small tail values.
    """
    if f < 0:
        raise ValueError(f"F statistic must be nonnegative, got {f}")
    t = dist.df2 / (dist.df2 + dist.df1 * f)
    return regularized_incomplete_beta(dist.df2 / 2.0, dist.df1 / 2.0, t)


def binomial_tail(k: int, n: int, p: float) -> float:
    """Exact upper tail P(X >= k) for X ~ Binomial(n, p).

    Computed by direct summation of the point masses; no normal
    approximation is involved.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if k == 0:
        return 1.0
    total = 0.0
    for j in range(k, n + 1):
        total += math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
    return min(total, 1.0)
