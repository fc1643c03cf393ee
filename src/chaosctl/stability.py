"""Stability thresholds and expected-log-contraction analysis.

Deterministic side: the trace-determinant criterion gives the local critical
control intensity in closed form; norm-based bounds give the intensity that
certifies contraction of the controlled Lipschitz matrix in a chosen norm,
in closed form for the l-inf, l1 and spectral norms.

Stochastic side: with controls d_i = alpha_i + ell_i * chi_i the per-step
contraction factor in the l-inf or l1 norm reduces to an affine expression
nu = c + p*chi_1 + q*chi_2, and convergence with arbitrarily high probability
follows from E ln nu < 0.  This module builds that affine model, evaluates
E ln nu exactly (closed forms), by adaptive Simpson quadrature, or by Monte
Carlo, and solves for the smallest stabilizing noise amplitude.  One
sampler, `log_nu_draws`, gives the ln nu draws that the Monte Carlo
estimate `mc_log_nu` and the acceptance table's law-of-large-numbers band
read.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import islice
from operator import add, mul
from typing import Callable, Iterator, NamedTuple, Optional

from .control import ControlChannel, NoiseDist, Stochastic, control_pairs, stream_for_trial
from .linalg2 import Matrix2, NormKind
from .maps import Branch, DomainError, MapKind, MapParams, fixed_point, lipschitz_matrix

#: Absolute tolerance of the noise-amplitude bisection in
#: `min_noise_for_stability`, below every quoted reference digit.
ELL_BISECTION_TOL = 1e-6
#: Absolute tolerance of the E ln nu quadrature.
QUAD_TOL = 1e-10
#: Draws of the Monte Carlo E ln nu.
MC_SAMPLES = 1_000_000


class Unstabilizable(Exception):
    """No control intensity in [0, 1) achieves the requested contraction."""


class NoWindow(Exception):
    """No admissible noise amplitude makes the expected log negative."""


def _below_one(alpha: float) -> float:
    """alpha, a threshold in [0, 1); Unstabilizable where it rounds to 1."""
    if alpha >= 1.0:
        raise Unstabilizable(
            "the threshold rounds to 1: no control intensity in [0, 1) is certified"
        )
    return alpha


class NuModel(NamedTuple):
    """Affine contraction-factor model nu(n) = c + p*chi_1 + q*chi_2.

    `regime_ok` records whether the affine expression equals the matrix norm
    for every noise realization (for the l-inf norm: the first row dominates
    the second).  The model requires c > |p| + |q| so that nu stays positive.
    """

    c: float
    p: float
    q: float
    dist1: NoiseDist
    dist2: NoiseDist
    regime_ok: bool

    @property
    def positive(self) -> bool:
        return self.c > abs(self.p) + abs(self.q)


def controlled_jacobian(
    params: MapParams, branch: Branch, alpha: float, beta: float
) -> Matrix2:
    """Jacobian of the controlled map at the equilibrium, U = diag(alpha, beta)."""
    star = fixed_point(params, branch)
    if params.kind is MapKind.HENON:
        j11 = -2.0 * params.a * star.x
    else:
        j11 = -params.a if star.x > 0.0 else params.a
    return Matrix2(
        (1.0 - alpha) * j11,
        (1.0 - alpha),
        (1.0 - beta) * params.b,
        0.0,
    )


def controlled_lipschitz(
    params: MapParams, branch: Branch, R: float, alpha: float, beta: float
) -> Matrix2:
    """(I - U) A for the local Lipschitz matrix A, U = diag(alpha, beta)."""
    a = lipschitz_matrix(params, branch, R)
    return Matrix2(
        (1.0 - alpha) * a.a11,
        (1.0 - alpha) * a.a12,
        (1.0 - beta) * a.a21,
        (1.0 - beta) * a.a22,
    )


def local_threshold(params: MapParams, branch: Branch, beta: float) -> float:
    """Critical alpha for local asymptotic stability of the controlled map.

    For alpha above the returned value, both eigenvalues of the controlled
    Jacobian at the equilibrium are inside the unit circle.  Closed forms:

        Henon: 1 - alpha* = 1 / (2 a |x*| + (1 - beta) b)
        Lozi:  1 - alpha* = 1 / (a + (1 - beta) b)

    clamped below at 0.  Raises Unstabilizable where alpha* rounds to 1,
    which happens once the denominator exceeds about 2^53.

    Below a denominator of 2, 1 - 1/denom is exact but scales the error of
    1/denom by 1/alpha*, and near 1 it loses every digit.  There alpha* is
    taken as (denom - 1) / denom, with the -1 folded into the second term
    first: (1 - beta) b - 1 is exact (Sterbenz) for (1 - beta) b in [0.5, 2].

    For Henon, 2 a |x*| = sqrt(S) +/- (b - 1) with S = 4a + (b - 1)^2, so
    denom - 1 = sqrt(S) - c.  Where that falls below half of 2 a |x*| the
    sum has cancelled, and near alpha* = 0 it keeps little but the rounding
    of x* and of the product.  There it is taken as (S - c^2) / (sqrt(S) +
    c), with S - c^2 summed exactly, and alpha* as that over 1 plus it.
    """
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    star = fixed_point(params, branch)
    if params.kind is MapKind.HENON:
        lead = 2.0 * params.a * abs(star.x)
    else:
        lead = params.a
    rest = (1.0 - beta) * params.b
    denom = lead + rest
    if params.kind is MapKind.HENON and abs(lead + (rest - 1.0)) < 0.5 * lead:
        num = _henon_excess(params, branch, beta)
        alpha = num / (1.0 + num)
    elif denom < 2.0:
        alpha = (lead + (rest - 1.0)) / denom
    else:
        alpha = 1.0 - 1.0 / denom
    return _below_one(max(0.0, alpha))


def _henon_excess(params: MapParams, branch: Branch, beta: float) -> float:
    """2 a |x*| + (1 - beta) b - 1 of the Henon map, rounded from exact sums.

    With S = 4a + (b - 1)^2, 2 a |x*| is sqrt(S) + (b - 1) on the plus
    branch and sqrt(S) - (b - 1) on the minus branch, so the excess is
    sqrt(S) - c with c = 1 - (1 - beta) b -/+ (b - 1), and it equals
    (S - c^2) / (sqrt(S) + c).  S - c^2 is summed in rationals from the
    doubles a, b and beta, so only sqrt(S) + c, where c > 0 and the two
    terms add, and the last division round.
    """
    # imported here, as it loads decimal, so that only this rare path pays
    from fractions import Fraction

    a, b = Fraction(params.a), Fraction(params.b)
    turn = b - 1 if branch is Branch.PLUS else 1 - b
    c = 1 - (1 - Fraction(beta)) * b - turn
    s = 4 * a + (b - 1) ** 2
    return float(s - c * c) / (math.sqrt(float(s)) + float(c))


def norm_threshold(
    params: MapParams, branch: Branch, R: float, beta: float, norm: NormKind
) -> float:
    """Infimum alpha* with ||(I-U) A||_norm < 1 for all alpha > alpha*.

    A is the local Lipschitz matrix on the radius-R ball and U is
    diag(alpha, beta), so (I-U) A = [[u K1, u], [r, 0]] with u = 1 - alpha
    and r = (1 - beta) b.  Each norm has a closed form:

        LINF:      alpha* = 1 - 1 / (K1 + 1)
        L1:        alpha* = max(0, 1 - (1 - r) / K1)
        spectral:  alpha* = 1 - s / h,  s^2 = 1 - r^2,  h^2 = K1^2 + s^2

    A 2x2 matrix has sigma_max < 1 iff 1 - ||M||_F^2 + det^2 > 0 and
    ||M||_F^2 < 2.  Here the first reads u^2 h^2 < s^2 and implies the
    second.  The spectral alpha* is taken as K1^2 / (h^2 + s h), where no
    term cancels.

    Raises Unstabilizable when no alpha in [0, 1) achieves the bound (the
    second row / column, which alpha cannot reduce, is already too large),
    or when alpha* rounds to 1.
    """
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    k1 = lipschitz_matrix(params, branch, R).a11
    row2 = (1.0 - beta) * params.b
    if row2 >= 1.0:
        raise Unstabilizable(f"uncontrollable part (1-beta)*b = {row2} is not below 1.0")
    if norm is NormKind.LINF:
        return _below_one(max(0.0, 1.0 - 1.0 / (k1 + 1.0)))
    if norm is NormKind.L1:
        # Column sums: k1*(1-alpha) + (1-beta)*b and (1-alpha).
        return _below_one(max(0.0, 1.0 - (1.0 - row2) / k1))
    s2 = (1.0 - row2) * (1.0 + row2)
    k2 = k1 * k1
    if k2 == math.inf:  # far past K1 > 2^54, where alpha* already rounds to 1
        return _below_one(1.0)
    return _below_one(k2 / (k2 + (s2 + math.sqrt(s2 * (k2 + s2)))))


def bounded_noise_safe(alpha: float, ell: float, alpha_star: float) -> bool:
    """Worst-case noise check: every realized intensity clears alpha_star.

    True iff alpha > alpha_star and ell < min(alpha - alpha_star, 1 - alpha),
    i.e. the perturbed control d = alpha + ell*chi stays inside
    (alpha_star, 1) for every |chi| <= 1.
    """
    return alpha > alpha_star and ell < min(alpha - alpha_star, 1.0 - alpha)


def build_nu_model(
    params: MapParams,
    branch: Branch,
    R: float,
    norm: NormKind,
    ch1: ControlChannel,
    ch2: ControlChannel,
) -> NuModel:
    """Affine model of the controlled-matrix norm under perturbed controls.

    With K1 the (1,1) Lipschitz entry (a(2|x*| + R) for Henon, a for Lozi):

        L1 model:    c = K1 (1-alpha1) + b (1-alpha2),
                     p = -K1 ell1, q = -b ell2
        LINF model:  c = (K1 + 1)(1-alpha1), p = -(K1 + 1) ell1, q = 0,
                     regime_ok when b (1-alpha2+ell2) <= (K1+1)(1-alpha1-ell1)
                     (first row dominates for every realization)

    The spectral norm has no affine representation in the noises and is
    rejected.  The L1 model keeps the signed column sum: it matches the norm
    whenever every realized intensity stays in [0, 1).
    """
    if norm is NormKind.L2SPECTRAL:
        raise DomainError("no affine noise model exists for the spectral norm")
    a = lipschitz_matrix(params, branch, R)
    k1, b = a.a11, params.b
    if norm is NormKind.L1:
        return NuModel(
            c=k1 * (1.0 - ch1.alpha) + b * (1.0 - ch2.alpha),
            p=-k1 * ch1.ell,
            q=-b * ch2.ell,
            dist1=ch1.dist,
            dist2=ch2.dist,
            regime_ok=True,
        )
    regime_ok = b * (1.0 - ch2.alpha + ch2.ell) <= (k1 + 1.0) * (
        1.0 - ch1.alpha - ch1.ell
    )
    return NuModel(
        c=(k1 + 1.0) * (1.0 - ch1.alpha),
        p=-(k1 + 1.0) * ch1.ell,
        q=0.0,
        dist1=ch1.dist,
        dist2=ch2.dist,
        regime_ok=regime_ok,
    )


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol, 48)


def _check_model(model: NuModel) -> None:
    if not model.regime_ok:
        raise DomainError(
            "affine model invalid: the first-row dominance condition fails for "
            "some noise realization, so nu is not affine in the noises"
        )
    if not model.positive:
        raise DomainError(
            f"nu can reach zero: need c > |p| + |q|, got c={model.c}, "
            f"|p|+|q|={abs(model.p) + abs(model.q)}"
        )


def _explog_single(c: float, w: float, dist: NoiseDist) -> float:
    """E ln(c + w*chi) for one noise variable."""
    if w == 0.0:
        return math.log(c)
    if dist is NoiseDist.BERNOULLI_PM1:
        return 0.5 * (math.log(c - w) + math.log(c + w))
    # With u = w/c, E ln(c + w chi) = ln c + (atanh(u)/u - 1 + ln(1 - u^2)/2).
    # The antiderivative form ((c+w) ln(c+w) - (c-w) ln(c-w))/(2w) - 1
    # cancels as w -> 0; this one does not.  ln c is added last, so the
    # bracket's rounding costs none of its low bits, and ln(1 - u^2) is
    # log1p(u) + log1p(-u), since rounding u*u loses 1 - u^2 as u -> 1.  The
    # uniform density is symmetric.
    u = abs(w) / c
    if u == 0.0:  # w underflows against c
        return math.log(c)
    return math.log(c) + (
        math.atanh(u) / u - 1.0 + 0.5 * (math.log1p(u) + math.log1p(-u))
    )


def _explog_quadrature(model: NuModel) -> float:
    c, p, q = model.c, model.p, model.q

    def inner(x1: float) -> float:
        base = c + p * x1
        if q == 0.0:
            return math.log(base)
        if model.dist2 is NoiseDist.BERNOULLI_PM1:
            return 0.5 * (math.log(base - q) + math.log(base + q))
        return 0.5 * _adaptive_simpson(
            lambda x2: math.log(base + q * x2), -1.0, 1.0, QUAD_TOL * 0.01
        )

    if p == 0.0:
        return inner(0.0)
    if model.dist1 is NoiseDist.BERNOULLI_PM1:
        return 0.5 * (inner(-1.0) + inner(1.0))
    return 0.5 * _adaptive_simpson(inner, -1.0, 1.0, QUAD_TOL)


def log_nu_draws(model: NuModel, seed: int) -> Iterator[float]:
    """Endless i.i.d. samples ln(c + p*chi_1 + q*chi_2) on trial stream 0 of `seed`.

    The (chi_1, chi_2) are the draws of `control_pairs` over unit channels,
    two per sample.  The model must be positive (c > |p| + |q|): then a chi
    whose weight is +-0.0 only adds a zero to a positive sum, so it is held
    at 0.0 and not drawn.  Under Bernoulli noise a sample is one of four
    values, read by table lookup.
    """
    c, p, q = model.c, model.p, model.q
    ch1, ch2 = (
        ControlChannel(0.0, 1.0 if w else 0.0, dist)
        for w, dist in ((p, model.dist1), (q, model.dist2))
    )
    return control_pairs(
        Stochastic(ch1, ch2),
        stream_for_trial(seed, 0).s,
        value=lambda chi1, chi2: math.log(c + p * chi1 + q * chi2),
    )


def mc_log_nu(model: NuModel, samples: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mean and standard deviation of ln nu.

    Reads `log_nu_draws`.  Both sums add left to right from 0.0, as a loop
    of `+=` does, a block of samples at a time so that memory stays flat.
    """
    _check_model(model)
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    draws = islice(log_nu_draws(model, seed), samples)
    total = total_sq = 0.0
    for block in iter(lambda: list(islice(draws, 4096)), []):
        total = reduce(add, block, total)
        total_sq = reduce(add, map(mul, block, block), total_sq)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var)


def expected_log_nu(model: NuModel, method: str = "closed-form", *, seed: int = 0) -> float:
    """E ln(c + p*chi_1 + q*chi_2) for the model's noise distributions.

    method="closed-form" uses exact expressions (four-point average for two
    Bernoulli channels, 0.5 (ln(c - p) + ln(c + p)) for a single Bernoulli
    channel, ln c + atanh(u)/u + ln(1 - u^2)/2 - 1 with u = |p|/c for a
    single uniform channel) and falls back to quadrature for mixed or
    double-uniform pairs.  method="quadrature" uses adaptive Simpson to
    absolute tolerance QUAD_TOL; method="monte-carlo" a sample mean over
    MC_SAMPLES draws of stream `seed`.
    """
    _check_model(model)
    if method == "monte-carlo":
        return mc_log_nu(model, MC_SAMPLES, seed)[0]
    if method == "quadrature":
        return _explog_quadrature(model)
    if method != "closed-form":
        raise DomainError(f"unknown method {method!r}")
    c, p, q = model.c, model.p, model.q
    if q == 0.0:
        return _explog_single(c, p, model.dist1)
    if p == 0.0:
        return _explog_single(c, q, model.dist2)
    if model.dist1 is NoiseDist.BERNOULLI_PM1 and model.dist2 is NoiseDist.BERNOULLI_PM1:
        return 0.25 * (
            math.log(c + p + q)
            + math.log(c + p - q)
            + math.log(c - p + q)
            + math.log(c - p - q)
        )
    return _explog_quadrature(model)


def min_noise_for_stability(
    params: MapParams,
    branch: Branch,
    R: float,
    norm: NormKind,
    alpha1: float,
    dist1: NoiseDist,
    ch2: ControlChannel,
) -> float:
    """Smallest ell1 making E ln nu negative, all other inputs fixed.

    Searches the admissible interval ell1 in [0, min(alpha1, 1 - alpha1)) by
    bisection to absolute tolerance ELL_BISECTION_TOL.  Returns 0 when no
    noise is needed.  Raises NoWindow when even the largest admissible (and
    model-valid) amplitude leaves the expected log non-negative.  The DomainError of
    `build_nu_model` (a bad radius, the spectral norm, no equilibrium) does
    not depend on ell1 and propagates from the first model built.
    """

    def explog(ell: float) -> Optional[float]:
        model = build_nu_model(
            params, branch, R, norm, ControlChannel(alpha1, ell, dist1), ch2
        )
        if not (model.regime_ok and model.positive):
            return None
        return expected_log_nu(model)

    e0 = explog(0.0)
    if e0 is None:
        raise NoWindow(
            f"the affine model is invalid even at zero noise for alpha1={alpha1}"
        )
    if e0 < 0.0:
        return 0.0
    hi = min(alpha1, 1.0 - alpha1) - 1e-12
    if hi <= 0.0:
        raise NoWindow(f"no admissible noise amplitude exists for alpha1={alpha1}")
    e_hi = explog(hi)
    if e_hi is None:
        # Model validity is monotone in ell; find the largest valid amplitude.
        lo_v, hi_v = 0.0, hi
        for _ in range(80):
            mid = 0.5 * (lo_v + hi_v)
            if explog(mid) is None:
                hi_v = mid
            else:
                lo_v = mid
        hi = lo_v
        e_hi = explog(hi)
    if e_hi is None or e_hi >= 0.0:
        raise NoWindow(
            f"no admissible ell1 gives a negative expected log for alpha1={alpha1}"
        )
    lo = 0.0
    while hi - lo > ELL_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        e_mid = explog(mid)
        if e_mid is not None and e_mid < 0.0:
            hi = mid
        else:
            lo = mid
    return hi
