import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chaosctl import (
    Branch,
    DomainError,
    MapKind,
    MapParams,
    Point2,
    fixed_point,
    henon,
    lipschitz_matrix,
    lozi,
    map_step,
)


def test_henon_step_at_origin(henon_std):
    p = map_step(henon_std, Point2(0.0, 0.0))
    assert p == Point2(1.0, 0.0)


def test_lozi_step_direct(lozi_std):
    p = map_step(lozi_std, Point2(1.0, 0.0))
    assert p.x == pytest.approx(-0.4, abs=1e-15)
    assert p.y == pytest.approx(0.3, abs=1e-15)


def test_henon_equilibrium_is_fixed(henon_std, plus):
    star = fixed_point(henon_std, plus)
    assert star.x == pytest.approx(0.6314, abs=1e-4)
    assert star.y == pytest.approx(0.1894, abs=1e-4)
    nxt = map_step(henon_std, star)
    assert max(abs(nxt.x - star.x), abs(nxt.y - star.y)) < 1e-9


def test_lozi_equilibrium(lozi_std, plus):
    star = fixed_point(lozi_std, plus)
    assert star.x == pytest.approx(0.4762, abs=1e-4)
    assert star.y == pytest.approx(0.1429, abs=1e-4)


def test_henon_alt_parameters_equilibrium(plus):
    star = fixed_point(henon(2.0, 0.5), plus)
    assert star.x == pytest.approx(0.593, abs=1e-3)


def test_minus_branch_fixed_points():
    for params in (henon(), lozi()):
        star = fixed_point(params, Branch.MINUS)
        assert star.x < 0.0
        nxt = map_step(params, star)
        assert max(abs(nxt.x - star.x), abs(nxt.y - star.y)) < 1e-12


def test_lozi_fixed_point_existence_condition():
    # 1 - b outside (-a, a): no equilibria.
    with pytest.raises(DomainError):
        fixed_point(lozi(0.2, 0.5), Branch.PLUS)


@pytest.mark.parametrize("params,branch", [
    (henon(1e308), Branch.PLUS),  # (nan, nan)
    (henon(5e307), Branch.PLUS),  # (inf, inf)
    (henon(1.4, 1e308), Branch.PLUS),  # (inf, inf)
    # the existence test passes, but 1 + a - b rounds to 0
    (lozi(0.5 + 2**-53, 1.5), Branch.PLUS),
    (lozi(1e-310, 1.0), Branch.MINUS),  # (-inf, -inf)
])
def test_fixed_point_overflow_is_domain_error(params, branch):
    with pytest.raises(DomainError):
        fixed_point(params, branch)


def test_param_validation():
    with pytest.raises(DomainError):
        MapParams(MapKind.HENON, -1.0, 0.3)
    with pytest.raises(DomainError):
        MapParams(MapKind.LOZI, 1.4, 0.0)


def test_lozi_lipschitz_matrix(lozi_std, plus):
    m = lipschitz_matrix(lozi_std, plus, 0.1)
    assert (m.a11, m.a12, m.a21, m.a22) == (1.4, 1.0, 0.3, 0.0)


def test_henon_lipschitz_matrix(henon_std, plus):
    star = fixed_point(henon_std, plus)
    m0 = lipschitz_matrix(henon_std, plus, 0.0)
    assert m0.a11 == pytest.approx(2.8 * star.x, rel=1e-12)
    assert m0.a11 == pytest.approx(1.76779, abs=1e-4)
    m = lipschitz_matrix(henon_std, plus, 0.36)
    assert m.a11 == pytest.approx(1.4 * (2.0 * star.x + 0.36), rel=1e-12)
    assert m.a11 == pytest.approx(2.2718, abs=1e-3)
    assert m.a11 + m.a12 == pytest.approx(3.2718, abs=1e-3)


def test_lipschitz_radius_must_stay_below_equilibrium(henon_std, plus):
    star = fixed_point(henon_std, plus)
    with pytest.raises(DomainError):
        lipschitz_matrix(henon_std, plus, abs(star.x))


def test_lozi_lipschitz_independent_of_radius(lozi_std, plus):
    star = fixed_point(lozi_std, plus)
    mats = {lipschitz_matrix(lozi_std, plus, r) for r in (0.01, 0.2, 0.4 * abs(star.x))}
    assert len(mats) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    a=st.floats(0.05, 3.0),
    b=st.floats(0.01, 0.99),
    kind=st.sampled_from([MapKind.HENON, MapKind.LOZI]),
    branch=st.sampled_from([Branch.PLUS, Branch.MINUS]),
)
def test_fixed_point_property(a, b, kind, branch):
    params = MapParams(kind, a, b)
    if kind is MapKind.LOZI and not (-a < 1.0 - b < a):
        with pytest.raises(DomainError):
            fixed_point(params, branch)
        return
    star = fixed_point(params, branch)
    nxt = map_step(params, star)
    assert max(abs(nxt.x - star.x), abs(nxt.y - star.y)) < 1e-12


def _henon_root_reference(a, b, branch):
    """x* of the Henon map to 80 digits, correctly rounded.  It uses the product
    form: at 80 digits the textbook form itself cancels below about a = 1e-75."""
    with decimal.localcontext(decimal.Context(prec=80)):
        a, bm1 = decimal.Decimal(a), decimal.Decimal(b) - 1
        root = (4 * a + bm1 * bm1).sqrt()
        q = bm1 + root if bm1 >= 0 else bm1 - root
        roots = (q / (2 * a), -2 / q)
        return float(max(roots) if branch is Branch.PLUS else min(roots))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    log_a=st.floats(-300.0, 300.0),
    b=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    branch=st.sampled_from([Branch.PLUS, Branch.MINUS]),
)
@example(log_a=-17.0, b=0.3, branch=Branch.PLUS)
@example(log_a=-17.0, b=1.5, branch=Branch.MINUS)
@example(log_a=-2.0, b=1.0, branch=Branch.MINUS)
def test_henon_fixed_point_within_4_ulps(log_a, b, branch):
    # over log-uniform a in [1e-300, 1e300], both branches
    a = 10.0 ** log_a
    star = fixed_point(henon(a, b), branch)
    ref = _henon_root_reference(a, b, branch)
    if abs(star.x) >= sys.float_info.min:
        assert abs(star.x - ref) <= 4 * math.ulp(ref), (star.x, ref)
    assert star.y == b * star.x


def test_henon_small_a_equilibria():
    # the textbook form cancels to (0.0, 0.0) here
    assert fixed_point(henon(1e-17), Branch.PLUS).x == pytest.approx(1 / 0.7, rel=1e-15)
    assert fixed_point(henon(1e-17, 1.5), Branch.MINUS).x == pytest.approx(-2.0, rel=1e-15)


def _lozi_root_reference(a, b, branch):
    """x* of the Lozi map to 80 digits, correctly rounded.  It sums the exact
    1 - b first: at 80 digits 1 +/- a - b itself cancels below about a = 1e-75."""
    sign = 1 if branch is Branch.PLUS else -1
    with decimal.localcontext(decimal.Context(prec=80)):
        den = (1 - decimal.Decimal(b)) + sign * decimal.Decimal(a)
        return float(1 / den)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    log_a=st.floats(-300.0, math.log10(0.5), exclude_max=True),
    t=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    branch=st.sampled_from([Branch.PLUS, Branch.MINUS]),
)
# summed as 1 + a - b, these cancel to 6666666115.06 (6666666482.80 is right)
# and to a zero denominator
@example(log_a=-10.0, t=-0.5, branch=Branch.PLUS)
@example(log_a=-17.0, t=0.0, branch=Branch.PLUS)
@example(log_a=-17.0, t=0.0, branch=Branch.MINUS)
def test_lozi_small_a_fixed_point_within_4_ulps(log_a, t, branch):
    # over log-uniform a in [1e-300, 0.5) and b = 1 + t a inside the
    # existence interval, both branches
    a = 10.0 ** log_a
    b = 1.0 + t * a
    assume(a < 0.5 and -a < 1.0 - b < a)
    star = fixed_point(lozi(a, b), branch)
    ref = _lozi_root_reference(a, b, branch)
    assert abs(star.x - ref) <= 4 * math.ulp(ref), (star.x, ref)
    assert star.y == b * star.x


def test_lozi_preset_equilibrium_keeps_its_bits(plus):
    # a >= 0.5 keeps the order 1 + a - b: (1 - 0.3) + 1.4 is 2.0999999999999996
    assert fixed_point(lozi(), plus).x == 1 / 2.1


def test_preset_equilibria_keep_their_bits(plus):
    # every preset, golden digest and printed --x0 reads these
    assert fixed_point(henon(), plus).x == 0.6313544770895047
    assert fixed_point(henon(2.0, 0.5), plus).x == 0.5930703308172536


@pytest.mark.parametrize("params,R", [(henon(), 0.36), (lozi(), 0.2)])
def test_lipschitz_domination(params, R, plus):
    star = fixed_point(params, plus)
    m = lipschitz_matrix(params, plus, R)
    rng = np.random.default_rng(42)
    dx = rng.uniform(-R, R, size=10_000)
    dy = rng.uniform(-R, R, size=10_000)
    x = star.x + dx
    y = star.y + dy
    if params.kind is MapKind.HENON:
        fx = y + 1.0 - params.a * x * x
    else:
        fx = y + 1.0 - params.a * np.abs(x)
    fy = params.b * x
    assert np.all(np.abs(fx - star.x) <= m.a11 * np.abs(dx) + m.a12 * np.abs(dy) + 1e-12)
    assert np.all(np.abs(fy - star.y) <= m.a21 * np.abs(dx) + m.a22 * np.abs(dy) + 1e-12)


def test_point_finite():
    assert Point2(1.0, 2.0).is_finite()
    assert not Point2(math.inf, 0.0).is_finite()
    assert not Point2(0.0, math.nan).is_finite()
