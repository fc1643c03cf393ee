import decimal
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings, strategies as st

from chaosctl import (
    Branch,
    ControlChannel,
    DomainError,
    NoWindow,
    NoiseDist,
    NormKind,
    NuModel,
    Unstabilizable,
    bounded_noise_safe,
    build_nu_model,
    controlled_jacobian,
    controlled_lipschitz,
    expected_log_nu,
    fixed_point,
    henon,
    induced_norm,
    lln_average,
    local_threshold,
    lozi,
    min_noise_for_stability,
    norm_threshold,
    trace_det_stable,
)
from chaosctl.stability import mc_log_nu

BERN = NoiseDist.BERNOULLI_PM1
UNIF = NoiseDist.UNIFORM_M1P1
PLUS = Branch.PLUS


# --- local thresholds --------------------------------------------------------

@pytest.mark.parametrize(
    "params,beta,expected,tol",
    [
        (henon(), 0.0, 0.51639, 1e-4),
        (henon(), 0.9, 0.44376, 1e-4),
        (lozi(), 0.0, 0.411765, 1e-5),
        (lozi(), 0.9, 0.3007, 1e-3),
    ],
)
def test_local_threshold_values(params, beta, expected, tol):
    assert local_threshold(params, PLUS, beta) == pytest.approx(expected, abs=tol)


@pytest.mark.parametrize("params", [henon(), lozi()])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
def test_local_threshold_separates_stability(params, beta):
    a_star = local_threshold(params, PLUS, beta)
    assert trace_det_stable(controlled_jacobian(params, PLUS, a_star + 1e-3, beta))
    assert not trace_det_stable(controlled_jacobian(params, PLUS, a_star - 1e-3, beta))


def _ulps_from_exact(got: float, exact: decimal.Decimal) -> decimal.Decimal:
    """|got - exact| in ulps of exact rounded to a double."""
    return abs(decimal.Decimal(got) - exact) / decimal.Decimal(math.ulp(float(exact)))


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["henon", "lozi"]),
    a=st.one_of(st.floats(1e-300, 1e-6), st.floats(1e-6, 10.0)),
    b=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
)
@example(kind="lozi", a=1e-17, b=1.0)
@example(kind="henon", a=1e-17, b=1.0)
@example(kind="lozi", a=0.3, b=0.7 + 2**-52)
def test_local_threshold_at_beta_0_within_4_ulps(kind, a, b):
    # alpha* = (denom - 1) / denom against an 80-digit reference from the
    # doubles the function reads: a, b and, for Henon, x*.  Below denom = 2,
    # 1 - 1/denom would lose the digits of a small alpha*.  Henon is checked
    # where b >= 1, where 2 a |x*| and b - 1 do not cancel; a Lozi b is
    # moved to 1 where no equilibrium exists (|1 - b| >= a).
    if kind == "henon":
        params = henon(a, max(b, 2.0 - b))
    else:
        params = lozi(a, b if abs(1.0 - b) < a else 1.0)
    a, b = params.a, params.b
    try:
        star = fixed_point(params, PLUS)
    except DomainError:
        assume(False)
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        lead = 2 * D(a) * abs(D(star.x)) if kind == "henon" else D(a)
        # b - 1 is exact here, and lead + (b - 1) is rounded once to 80
        # digits, so the reference keeps every digit of a small alpha*
        exact = max(D(0), (lead + (D(b) - 1)) / (lead + D(b)))
        got = local_threshold(params, PLUS, 0.0)
        if exact == 0:
            assert got == 0.0
        else:
            assert _ulps_from_exact(got, exact) <= 4


def test_local_threshold_monotone_in_beta():
    betas = [0.0, 0.25, 0.5, 0.75, 0.9]
    for params in (henon(), lozi()):
        vals = [local_threshold(params, PLUS, b) for b in betas]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


# --- norm thresholds ---------------------------------------------------------

@pytest.mark.parametrize(
    "params,R,beta,norm,expected",
    [
        (henon(), 0.01, 0.0, NormKind.LINF, 0.641),
        (henon(), 0.36, 0.0, NormKind.LINF, 0.694),
        (henon(), 0.01, 0.0, NormKind.L1, 0.6041),
        (henon(), 0.01, 0.9, NormKind.L1, 0.4513),
        (henon(), 0.01, 0.0, NormKind.L2SPECTRAL, 0.53),
        (henon(), 0.36, 0.0, NormKind.L2SPECTRAL, 0.613),
        (henon(), 0.01, 0.9, NormKind.L2SPECTRAL, 0.51),
        (henon(), 0.36, 0.9, NormKind.L2SPECTRAL, 0.6),
        (lozi(), 0.01, 0.0, NormKind.LINF, 0.584),
        (lozi(), 0.01, 0.0, NormKind.L1, 0.5),
        (lozi(), 0.01, 0.9, NormKind.L1, 0.31),
        (lozi(), 0.01, 0.0, NormKind.L2SPECTRAL, 0.44),
        (lozi(), 0.01, 0.9, NormKind.L2SPECTRAL, 0.42),
    ],
)
def test_norm_threshold_values(params, R, beta, norm, expected):
    assert norm_threshold(params, PLUS, R, beta, norm) == pytest.approx(expected, abs=5e-3)


@pytest.mark.parametrize("norm", list(NormKind))
@pytest.mark.parametrize("params,R", [(henon(), 0.1), (lozi(), 0.05)])
@pytest.mark.parametrize("beta", [0.0, 0.9])
def test_norm_threshold_brute_force(params, R, beta, norm):
    # oracle: scan an alpha grid for the smallest contraction point
    a_star = norm_threshold(params, PLUS, R, beta, norm)
    grid = np.linspace(0.0, 0.999, 4000)
    below = [
        a
        for a in grid
        if induced_norm(controlled_lipschitz(params, PLUS, R, float(a), beta), norm) < 1.0
    ]
    assert below, "some alpha must certify contraction"
    assert min(below) == pytest.approx(a_star, abs=1.5 * (grid[1] - grid[0]))


@pytest.mark.parametrize("norm", list(NormKind))
def test_norm_threshold_separates(norm):
    for params in (henon(), lozi()):
        for beta in (0.0, 0.5, 0.9):
            a_star = norm_threshold(params, PLUS, 0.05, beta, norm)
            above = induced_norm(
                controlled_lipschitz(params, PLUS, 0.05, a_star + 1e-3, beta), norm
            )
            assert above < 1.0
            if a_star > 1e-3:
                below = induced_norm(
                    controlled_lipschitz(params, PLUS, 0.05, a_star - 1e-3, beta), norm
                )
                assert below >= 1.0 - 1e-9


def test_norm_threshold_monotone():
    for norm in NormKind:
        vals_beta = [norm_threshold(henon(), PLUS, 0.05, b, norm) for b in (0.0, 0.5, 0.9)]
        assert all(x >= y - 1e-12 for x, y in zip(vals_beta, vals_beta[1:]))
        vals_r = [norm_threshold(henon(), PLUS, r, 0.0, norm) for r in (0.01, 0.1, 0.3, 0.5)]
        assert all(x <= y + 1e-12 for x, y in zip(vals_r, vals_r[1:]))


def test_norm_threshold_with_rate_argument():
    # fixing nu* < 1 asks for a faster certified rate, hence more control
    loose = norm_threshold(lozi(), PLUS, 0.05, 0.0, NormKind.LINF)
    tight = norm_threshold(lozi(), PLUS, 0.05, 0.0, NormKind.LINF, nu_star=0.5)
    assert tight > loose
    m = controlled_lipschitz(lozi(), PLUS, 0.05, tight + 1e-6, 0.0)
    assert induced_norm(m, NormKind.LINF) < 0.5 + 1e-6


def test_unstabilizable_when_second_row_too_large():
    # b >= 1 leaves the second row at (1-beta)*b >= 1 whatever alpha does
    params = lozi(1.4, 1.2)
    with pytest.raises(Unstabilizable):
        norm_threshold(params, PLUS, 0.05, 0.0, NormKind.LINF)


@pytest.mark.parametrize("norm", [None, *NormKind], ids=["local", *(n.value for n in NormKind)])
def test_threshold_that_rounds_to_1_is_unstabilizable(norm):
    # 1 - 1/denom is exactly 1.0 once denom passes about 2^53
    with pytest.raises(Unstabilizable):
        if norm is None:
            local_threshold(henon(1e200), PLUS, 0.0)
        else:
            norm_threshold(henon(1e200), PLUS, 0.0, 0.0, norm)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_a=st.floats(-3.0, 300.0), beta=st.floats(0.0, 0.99))
def test_thresholds_stay_below_1(log_a, beta):
    params = henon(10.0 ** log_a)
    for norm in (None, *NormKind):
        try:
            if norm is None:
                v = local_threshold(params, PLUS, beta)
            else:
                v = norm_threshold(params, PLUS, 0.0, beta, norm)
        except Unstabilizable:
            continue
        assert 0.0 <= v < 1.0


# --- worst-case noise safety --------------------------------------------------

def test_bounded_noise_safe_examples():
    assert bounded_noise_safe(0.7, 0.05, 0.6)
    assert not bounded_noise_safe(0.7, 0.15, 0.6)
    assert not bounded_noise_safe(0.5, 0.0, 0.6)


@pytest.mark.parametrize("norm", list(NormKind))
@pytest.mark.parametrize("params,R", [(henon(), 0.05), (lozi(), 0.1)])
def test_contraction_bounds_controlled_step(params, R, norm):
    # whenever the controlled Lipschitz matrix contracts in a norm, one
    # controlled step contracts states in the matching ball at least as much
    from chaosctl import vmtoc_step, Point2, vec_norm

    star = fixed_point(params, PLUS)
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 10_000:
        alpha, beta = rng.uniform(0.0, 1.0, size=2)
        m = controlled_lipschitz(params, PLUS, R, alpha, beta)
        nu = induced_norm(m, norm)
        if nu >= 1.0:
            continue
        dx, dy = rng.uniform(-R, R, size=2)
        if not 0.0 < vec_norm(dx, dy, norm) < R:
            continue
        p = Point2(star.x + dx, star.y + dy)
        stepped = vmtoc_step(params, star, alpha, beta, p)
        checked += 1
        assert vec_norm(stepped.x - star.x, stepped.y - star.y, norm) <= (
            nu * vec_norm(dx, dy, norm) + 1e-12
        )


# --- affine contraction-factor models ----------------------------------------

def test_build_nu_model_henon_linf():
    k1p1 = 2.8 * fixed_point(henon(), PLUS).x + 1.0
    m = build_nu_model(
        henon(), PLUS, 0.0, NormKind.LINF,
        ControlChannel(0.44, 0.4279), ControlChannel(0.0),
    )
    assert m.c == pytest.approx(k1p1 * 0.56, rel=1e-12)
    assert m.c == pytest.approx(2.7677 * 0.56, abs=1e-3)
    assert m.p == pytest.approx(-k1p1 * 0.4279, rel=1e-12)
    assert m.q == 0.0
    assert m.regime_ok


def test_build_nu_model_lozi_regime_boundary():
    # first-row dominance holds up to equality of the two rows
    ch1 = ControlChannel(0.5, 0.1)
    slack = 8.0 * (1.0 - ch1.alpha - ch1.ell)  # = 3.2
    ch2_ok = ControlChannel(0.0, 0.0)
    assert build_nu_model(lozi(), PLUS, 0.0, NormKind.LINF, ch1, ch2_ok).regime_ok
    assert slack > 1.0  # any admissible channel 2 satisfies the dominance here


def test_build_nu_model_linf_regime_violation():
    m = build_nu_model(
        lozi(), PLUS, 0.0, NormKind.LINF,
        ControlChannel(0.5, 0.45), ControlChannel(0.0),
    )
    assert not m.regime_ok
    with pytest.raises(DomainError):
        expected_log_nu(m)


def test_build_nu_model_zero_noise_degenerate():
    m = build_nu_model(
        lozi(), PLUS, 0.0, NormKind.L1, ControlChannel(0.3), ControlChannel(0.2)
    )
    assert m.p == 0.0 and m.q == 0.0
    assert expected_log_nu(m) == pytest.approx(math.log(m.c), rel=1e-14)


def test_build_nu_model_rejects_spectral():
    with pytest.raises(DomainError):
        build_nu_model(
            henon(), PLUS, 0.0, NormKind.L2SPECTRAL,
            ControlChannel(0.5, 0.1), ControlChannel(0.0),
        )


# --- expected log of the contraction factor ----------------------------------

def _reference_models():
    return [
        build_nu_model(henon(), PLUS, 0.0, NormKind.LINF,
                       ControlChannel(0.44, 0.4279), ControlChannel(0.0)),
        build_nu_model(henon(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.4, 0.2862), ControlChannel(0.8)),
        build_nu_model(henon(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.44, 0.2862, UNIF), ControlChannel(0.9)),
        build_nu_model(henon(2.0, 0.5), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.45, 0.416), ControlChannel(0.8)),
        build_nu_model(lozi(), PLUS, 0.0, NormKind.LINF,
                       ControlChannel(0.414, 0.413), ControlChannel(0.0)),
        build_nu_model(lozi(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.3, 0.2039), ControlChannel(0.8)),
        build_nu_model(lozi(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.27, 0.2332), ControlChannel(0.9)),
        build_nu_model(lozi(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.27, 0.2), ControlChannel(0.9, 0.55)),
    ]


def test_explog_henon_l1_bernoulli():
    m = build_nu_model(henon(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.4, 0.2862), ControlChannel(0.8))
    assert expected_log_nu(m) == pytest.approx(math.log(0.9999), abs=5e-4)
    assert expected_log_nu(m) < 0.0


def test_explog_henon_l1_uniform():
    m = build_nu_model(henon(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.44, 0.2862, UNIF), ControlChannel(0.9))
    assert expected_log_nu(m) == pytest.approx(-0.0251, abs=1e-3)


def test_explog_lozi_two_bernoulli():
    m = build_nu_model(lozi(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.27, 0.2), ControlChannel(0.9, 0.55))
    assert expected_log_nu(m) == pytest.approx(0.25 * math.log(0.9936), abs=5e-4)
    assert expected_log_nu(m) < 0.0


def test_explog_closed_form_vs_quadrature():
    for model in _reference_models():
        closed = expected_log_nu(model, "closed-form")
        quad = expected_log_nu(model, "quadrature")
        assert abs(closed - quad) < 1e-9


def _explog_uniform_reference(c, w):
    """E ln(c + w chi), chi uniform on [-1, 1], from the antiderivative at 70 digits."""
    with decimal.localcontext(decimal.Context(prec=70)):
        c, w = decimal.Decimal(c), decimal.Decimal(w)
        return float(((c + w) * (c + w).ln() - (c - w) * (c - w).ln()) / (2 * w) - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_c=st.floats(-3.0, 3.0), log_u=st.floats(-15.0, math.log10(1.0 - 1e-12)))
@example(log_c=math.log10(1.3), log_u=-12.0)
def test_explog_single_uniform_is_accurate(log_c, log_u):
    # c in [1e-3, 1e3] and w/c in [1e-15, 1), against a 70-digit reference
    c = 10.0 ** log_c
    w = c * 10.0 ** log_u
    model = NuModel(c=c, p=w, q=0.0, dist1=UNIF, dist2=BERN, regime_ok=True)
    assert abs(expected_log_nu(model) - _explog_uniform_reference(c, w)) <= 1e-13


def test_explog_single_uniform_noise_below_the_underflow():
    # w/c rounds to 0: the antiderivative form gave 0/(2w) - 1 = -1 here
    model = NuModel(c=2.0, p=5e-324, q=0.0, dist1=UNIF, dist2=BERN, regime_ok=True)
    assert expected_log_nu(model) == math.log(2.0)


def test_lln_average_is_exported_from_stability():
    # it reads log_nu_draws, as mc_log_nu does
    assert lln_average.__module__ == "chaosctl.stability"


def test_explog_quadrature_vs_scipy():
    # independent quadrature route for the single-uniform closed form
    m = build_nu_model(henon(), PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.44, 0.2862, UNIF), ControlChannel(0.9))
    want, err = scipy.integrate.quad(lambda z: 0.5 * math.log(m.c + m.p * z), -1.0, 1.0)
    assert err < 1e-10
    assert expected_log_nu(m) == pytest.approx(want, abs=1e-10)


def test_explog_double_uniform_matches_scipy():
    m = NuModel(c=1.2, p=-0.3, q=-0.25, dist1=UNIF, dist2=UNIF, regime_ok=True)
    want, err = scipy.integrate.dblquad(
        lambda z2, z1: 0.25 * math.log(m.c + m.p * z1 + m.q * z2),
        -1.0, 1.0, -1.0, 1.0,
    )
    assert err < 1e-9
    assert expected_log_nu(m) == pytest.approx(want, abs=1e-8)
    assert expected_log_nu(m, "quadrature") == pytest.approx(want, abs=1e-8)


def test_explog_monte_carlo_three_way():
    for model in _reference_models()[:3]:
        closed = expected_log_nu(model)
        mean, sd = mc_log_nu(model, 1_000_000, seed=5)
        assert abs(mean - closed) <= 4.0 * sd / math.sqrt(1_000_000)


def test_explog_jensen_ordering():
    for model in _reference_models():
        e = expected_log_nu(model)
        assert e <= math.log(model.c) + 1e-15
        if model.p != 0.0 or model.q != 0.0:
            assert e < math.log(model.c)


def test_explog_rejects_vanishing_nu():
    m = NuModel(c=0.5, p=-0.4, q=-0.2, dist1=BERN, dist2=BERN, regime_ok=True)
    with pytest.raises(DomainError):
        expected_log_nu(m)


def test_explog_unknown_method():
    m = _reference_models()[0]
    with pytest.raises(DomainError):
        expected_log_nu(m, "romberg")


# --- smallest stabilizing noise amplitude ------------------------------------

def test_min_noise_henon_linf():
    got = min_noise_for_stability(
        henon(), PLUS, 0.0, NormKind.LINF, 0.44, BERN, ControlChannel(0.0)
    )
    assert got == pytest.approx(0.4279, abs=1e-3)


def test_min_noise_brute_force_oracle():
    # oracle: dense scan of the admissible amplitude interval
    alpha1 = 0.44
    ch2 = ControlChannel(0.0)
    hi = min(alpha1, 1.0 - alpha1)
    first = None
    for i in range(1, 44_000):
        ell = i * 1e-5
        if ell >= hi:
            break
        m = build_nu_model(henon(), PLUS, 0.0, NormKind.LINF,
                           ControlChannel(alpha1, ell), ch2)
        if m.regime_ok and m.positive and expected_log_nu(m) < 0.0:
            first = ell
            break
    got = min_noise_for_stability(henon(), PLUS, 0.0, NormKind.LINF, alpha1, BERN, ch2)
    assert first is not None
    assert got == pytest.approx(first, abs=2e-5)


def test_min_noise_no_window():
    # below the critical mean intensity no admissible amplitude helps;
    # confirmed by scanning the whole admissible interval
    alpha1 = 0.43
    with pytest.raises(NoWindow):
        min_noise_for_stability(henon(), PLUS, 0.0, NormKind.LINF, alpha1, BERN,
                                ControlChannel(0.0))
    hi = min(alpha1, 1.0 - alpha1)
    for i in range(0, 430):
        ell = i * 1e-3
        if ell >= hi:
            break
        m = build_nu_model(henon(), PLUS, 0.0, NormKind.LINF,
                           ControlChannel(alpha1, ell), ControlChannel(0.0))
        if m.regime_ok and m.positive:
            assert expected_log_nu(m) >= 0.0


def test_min_noise_alt_parameters():
    got = min_noise_for_stability(
        henon(2.0, 0.5), PLUS, 0.0, NormKind.L1, 0.45, BERN, ControlChannel(0.8)
    )
    assert got == pytest.approx(0.416, abs=2e-3)


def test_min_noise_zero_when_already_stable():
    got = min_noise_for_stability(
        henon(), PLUS, 0.0, NormKind.LINF, 0.7, BERN, ControlChannel(0.0)
    )
    assert got == 0.0
