import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavywalk import specialfn as sf
from heavywalk.errors import ConvergenceError, DomainError, PoleError


@pytest.fixture(autouse=True, scope="module")
def _mp_precision():
    # the mpmath oracles of this module work at 30 digits; no other module sees it
    with mp.workdps(30):
        yield


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_at_one():
    assert sf.gamma_real(1.0) == pytest.approx(1.0, abs=1e-14)


def test_gamma_half_against_high_precision_oracle():
    # independent oracle: mpmath's arbitrary-precision gamma
    assert sf.gamma_real(0.5) == pytest.approx(float(mp.gamma(0.5)), rel=1e-13)
    assert sf.gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_reflection_value():
    # Gamma(-1/2) = -2 sqrt(pi) via reflection
    assert sf.gamma_real(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


def test_gamma_accuracy_on_range():
    # design target: 1e-12 relative on [0.5, 30]
    for k in range(0, 296):
        z = 0.5 + 0.1 * k
        want = float(mp.gamma(z))
        assert abs(sf.gamma_real(z) - want) <= 1e-12 * abs(want)


def test_gamma_pole_errors():
    for z in (0.0, -1.0, -2.0, -7.0, 1e-13, -3.0 + 1e-13):
        with pytest.raises(PoleError):
            sf.gamma_real(z)


def _outcome(fn, *args):
    """repr of the value (it tells -0.0 and every last bit), or the error."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, PoleError, DomainError) as ex:
        return type(ex).__name__


def test_gamma_matches_mpmath():
    # 2e-15 relative against 40-digit mpmath, on both sides of 0.5 and next to
    # the poles; math.gamma measured at most 8.5e-16 here (median 1.4e-16),
    # where the Lanczos sum gamma_real used before reached 7.4e-15
    rng = np.random.default_rng(7)
    zs = [float(z) for z in rng.uniform(0.5, 30.0, 3000)]
    zs += [float(z) for z in rng.uniform(-12.0, 0.5, 3000)]
    # Gamma(171.5) = 9.48e307 is finite, and GAMMA_MAX is the last finite argument
    zs += [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0, 2.0, 30.0, 171.5,
           sf.GAMMA_MAX]
    poles = [-0.0, 1e-300, -1e-300]
    for n in range(0, -8, -1):
        for d in (1e-13, 5e-13):
            poles += [n + d, n - d]
        for d in (2e-12, 1e-9, 1e-6):
            zs += [n + d, n - d]
    bad = []
    with mp.workdps(40):
        for z in zs:
            want = mp.gamma(z)
            if abs(mp.mpf(sf.gamma_real(z)) - want) > 2e-15 * abs(want):
                bad.append(z)
    assert bad == []
    assert [_outcome(sf.gamma_real, z) for z in poles] == ["PoleError"] * len(poles)
    # past it math.gamma overflows, and gamma_real refuses
    beyond = [math.nextafter(sf.GAMMA_MAX, math.inf), 172.0, 1e300, math.inf]
    assert [_outcome(sf.gamma_real, z) for z in beyond] == ["DomainError"] * len(beyond)
    assert _outcome(math.gamma, beyond[0]) == "OverflowError"
    assert math.isnan(sf.gamma_real(math.nan))


def test_rgamma_zero_at_poles():
    assert sf.rgamma(0.0) == 0.0
    assert sf.rgamma(-3.0) == 0.0
    assert sf.rgamma(2.0) == pytest.approx(1.0)


@pytest.mark.parametrize("z", [-171.5, -176.5, -178.5, -200.5, -1000.5])
def test_rgamma_beyond_the_float_range_is_a_signed_inf(z):
    # Gamma is a subnormal from about -171 on and a signed zero from about
    # -178 on; 1/Gamma is then beyond the float range, with Gamma's sign
    assert sf.rgamma(z) == math.copysign(math.inf, float(mp.sign(mp.gamma(z))))


@given(st.floats(-4.99, 4.99))
@settings(max_examples=200, deadline=None)
def test_gamma_reflection_property(z):
    if abs(z - round(z)) < 1e-3:
        return
    val = sf.gamma_real(z) * sf.gamma_real(1.0 - z) * sf.sinpi(z) / math.pi
    assert val == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# kappa functions
# ---------------------------------------------------------------------------

def test_kappa0_at_zero_is_pi_cosec():
    # sin(1.5 pi) = -1 forces exactly -pi
    assert sf.kappa0(1.5, 0.0) == pytest.approx(-math.pi, abs=1e-12)


def test_kappa0_vanishes_at_nu_one():
    assert sf.kappa0(1.5, 1.0) == 0.0


# Quadrature oracles for the kappa functions, independent of gamma_real: each
# kappa's defining integral, with its endpoint powers taken out by
# integrate_power_weighted.

def kappa0_quad(alpha, nu, abs_tol=1e-8):
    """kappa0 via its defining integral integral_0^inf ((1+u)^(nu-1)-1) u^(-alpha) du."""
    return sf.closed_form_integral_quad("positive_part", 1.0 - alpha, nu, abs_tol=abs_tol)


def _q_integral(beta, nu, tol):
    """integral_0^1 [ (1-u)^(nu-1) (u^(-beta) - 1) - u^(-beta) ] du for
    0 < nu < beta (regularized inward-jump integrand).

    Split at 1/2 and regroup so each piece carries one known endpoint power:
      [0, 1/2]: u^(1-beta) * ((1-u)^(nu-1)-1)/u  minus exact int of (1-u)^(nu-1)
      [1/2, 1]: s^(nu-1) * ((1-s)^(-beta)-1) for s = 1-u, minus exact int of u^(-beta).
    """
    left_sing = sf.integrate_power_weighted(
        lambda u: sf._pow_m1(-u, nu - 1.0) / u, 1.0 - beta, 0.0, 0.5, tol)
    left_exact = -(1.0 - math.pow(0.5, nu)) / nu
    right_sing = sf.integrate_power_weighted(
        lambda s: sf._pow_m1(-s, -beta), nu - 1.0, 0.0, 0.5, tol)
    right_exact = -(math.pow(0.5, 1.0 - beta) - 1.0) / (beta - 1.0)
    return left_sing + left_exact + right_sing + right_exact


def kappa1_quad(beta, nu, abs_tol=1e-8):
    """kappa1 via the inward-jump integral decomposition (0 < nu < beta)."""
    q = _q_integral(beta, nu, abs_tol / 8.0)
    return -nu * q - 1.0 + nu / (beta - 1.0)


def kappa2_quad(beta, nu, abs_tol=1e-8):
    """kappa2 via the two-sided inward-jump integrals (0 < nu < beta)."""
    tol = abs_tol / 8.0
    q = _q_integral(beta, nu, tol)
    m1 = sf.integrate_power_weighted(
        lambda s: sf._pow_m1(s, -beta), nu - 1.0, 0.0, 1.0, tol)
    m2 = sf.integrate_power_weighted(
        lambda v: math.pow(1.0 + v, -beta), beta - nu - 1.0, 0.0, 1.0, tol)
    return -q + 1.0 / (beta - 1.0) + m1 + m2


def test_kappa0_quadrature_matched():
    val = sf.kappa0(1.3, 0.7)
    quad = kappa0_quad(1.3, 0.7, abs_tol=1e-9)
    assert val == pytest.approx(quad, abs=1e-7)


def test_kappa0_accepts_plane_half_exponents():
    v = sf.kappa0(0.75, 0.2)
    assert v == pytest.approx(float((1 - 0.2) * mp.gamma(0.55) * mp.gamma(0.25) / mp.gamma(1.8)),
                              rel=1e-12)


def test_kappa0_two_forms_agree():
    for a in (1.1, 1.5, 1.9):
        for v in (-0.7, 0.0, 0.4, 0.99, 1.3):
            if v >= a or abs(v - 1.0) < 1e-6:
                continue
            assert sf.kappa0(a, v) == pytest.approx(sf.kappa0_alt(a, v), rel=1e-12)


def test_kappa0_monotone_in_nu():
    for ai in range(1, 10):
        a = 1.0 + ai / 10.0
        grid = [k * (a - 1e-3) / 60.0 for k in range(61)]
        vals = [sf.kappa0(a, v) for v in grid]
        assert all(x < y for x, y in zip(vals[:-1], vals[1:]))


def test_kappa1_at_zero_is_minus_one():
    assert sf.kappa1(1.6, 0.0) == pytest.approx(-1.0, abs=1e-14)


def test_kappa1_vanishing_factor():
    assert sf.kappa1(1.5, 0.5) == 0.0


def test_kappa1_quadrature_matched():
    assert sf.kappa1(1.7, 0.4) == pytest.approx(kappa1_quad(1.7, 0.4, abs_tol=1e-9), abs=1e-7)


def test_kappa2_root_at_two_beta_minus_three():
    assert sf.kappa2(1.8, 0.6) == pytest.approx(0.0, abs=1e-12)


def test_kappa2_continuity_value():
    assert sf.kappa2(1.25, 0.0) == pytest.approx(math.pi, abs=1e-12)
    assert sf.kappa2(1.25, 1e-9) == pytest.approx(math.pi, abs=1e-7)


def test_kappa2_quadrature_matched():
    assert sf.kappa2(1.5, 0.4) == pytest.approx(kappa2_quad(1.5, 0.4, abs_tol=1e-9), abs=1e-7)


def test_kappa2_nondecreasing():
    for bi in range(1, 10):
        b = 1.0 + bi / 10.0
        grid = [0.005 + k * (b - 0.01) / 50.0 for k in range(51)]
        vals = [sf.kappa2(b, v) for v in grid]
        assert all(y >= x - 1e-12 for x, y in zip(vals[:-1], vals[1:]))


def test_balanced_cotangent_identity():
    for ai in range(1, 10):
        a = 1.0 + ai / 10.0
        lhs = sf.kappa0(a, 0.0) + sf.kappa2(a, 0.0)
        assert lhs == pytest.approx(math.pi * sf.cotpi(a / 2.0), abs=1e-8)


def kappa0_plain(a, nu):
    return (1.0 - nu) * sf.gamma_real(a - nu) * sf.gamma_real(1.0 - a) / sf.gamma_real(2.0 - nu)


def kappa2_plain(b, nu):
    half = sf.sinpi(0.5 * nu) / nu if nu else 0.5 * math.pi
    return (2.0 / (sf.gamma_real(b) * sf.sinpi(b)) * sf.gamma_real(1.0 + nu) * half
            * sf.gamma_real(b - nu) * sf.sinpi((b - 1.5) - 0.5 * nu))


def test_kappa_matches_plain_formula_bitwise():
    # kappa0 and kappa2 keep the operand order of their displayed formulas
    rng = np.random.default_rng(11)
    exps = [float(e) for e in rng.uniform(1.01, 1.99, 150)]
    mismatches = []
    for e in exps:
        for nu in (-0.5, -1e-5, 1e-5, 0.3, 0.5 * e, e - 1e-3):
            if repr(sf.kappa0(e, nu)) != repr(kappa0_plain(e, nu)):
                mismatches.append(("kappa0", e, nu))
            if repr(sf.kappa2(e, nu)) != repr(kappa2_plain(e, nu)):
                mismatches.append(("kappa2", e, nu))
        # the plane's half exponent lies in (0, 1)
        if repr(sf.kappa0(e / 2.0, 0.2)) != repr(kappa0_plain(e / 2.0, 0.2)):
            mismatches.append(("kappa0 half", e, 0.2))
    assert mismatches == []


def _kappa_points():
    """(function, mpmath reference, exponent, nu): 250 seeded points each for
    kappa0 on (1, 2), kappa0 on the plane's half exponents (1/2, 1), kappa1 and
    kappa2, nu across each domain."""
    g = mp.gamma
    k0 = lambda a, v: (1 - v) * g(a - v) * g(1 - a) / g(2 - v)
    k1 = lambda b, v: -(1 - b + v) * g(v + 1) * g(1 - b) / g(2 - b + v)
    k2 = lambda b, v: g(v) * (g(b - v) / g(b) - (1 - b + v) * g(1 - b) / g(2 - b + v))
    rng = np.random.default_rng(17)
    pts = {"kappa0": [], "kappa0 half": [], "kappa1": [], "kappa2": []}
    for _ in range(250):
        e = float(rng.uniform(1.01, 1.99))
        pts["kappa0"].append((sf.kappa0, k0, e, float(rng.uniform(-1.0, e))))
        pts["kappa0 half"].append((sf.kappa0, k0, e / 2.0, float(rng.uniform(-0.5, e / 2.0))))
        pts["kappa1"].append((sf.kappa1, k1, e, float(rng.uniform(-0.99, e))))
        pts["kappa2"].append((sf.kappa2, k2, e, float(rng.uniform(-0.99, e))))
    return pts


def test_kappa_matches_mpmath():
    # relative error against 40-digit mpmath at the same (exact) inputs,
    # skipping |kappa| < 1e-3 near the zeros.  Measured maxima: kappa0 9.6e-16,
    # kappa0 half 1.1e-15, kappa1 9.5e-16 and kappa2 1.2e-15
    bounds = {"kappa0": 3e-15, "kappa0 half": 3e-15, "kappa1": 3e-15, "kappa2": 3e-15}
    worst = {}
    with mp.workdps(40):
        for name, pts in _kappa_points().items():
            errs = []
            for f, ref, e, v in pts:
                want = ref(mp.mpf(e), mp.mpf(v))
                if abs(want) >= 1e-3:
                    errs.append(float(abs((mp.mpf(f(e, v)) - want) / want)))
            assert len(errs) > 200
            worst[name] = max(errs)
    assert {k: v for k, v in worst.items() if v > bounds[k]} == {}



@pytest.mark.parametrize("b", [1.2, 1.3, 1.5, 1.6, 1.8])
def test_kappa2_near_zero_matches_mpmath(b):
    # |nu| from 1e-15 to 1e-3 on both signs, and nu within 1e-12 to 1e-3 of
    # the root 2b - 3 (b = 1.5 puts the root at 0): within 2e-15 relative of
    # 80-digit mpmath, as 40 digits cancel at nu = 1e-15 (measured 8.6e-16
    # near 0 and near the root).  The root itself is an exact zero, and where
    # the root is not 0 a subnormal nu gives kappa2(b, 0)'s bits.
    g = mp.gamma
    root = 2.0 * b - 3.0
    mags = [float(v) for v in np.geomspace(1e-15, 1e-3, 49)]
    nus = [s * m for m in mags for s in (1.0, -1.0)]
    nus += [root + s * m for m in mags if m >= 1e-12 for s in (1.0, -1.0)]
    worst = 0.0
    with mp.workdps(80):
        for v in nus:
            bm, vm = mp.mpf(b), mp.mpf(v)
            want = g(vm) * (g(bm - vm) / g(bm) - (1 - bm + vm) * g(1 - bm) / g(2 - bm + vm))
            worst = max(worst, float(abs((mp.mpf(sf.kappa2(b, v)) - want) / want)))
    assert worst < 2e-15
    assert sf.kappa2(b, root) == 0.0
    if root != 0.0:
        assert sf.kappa2(b, 5e-324) == sf.kappa2(b, -1e-310) == sf.kappa2(b, 0.0)


def test_kappa_domain_errors():
    with pytest.raises(DomainError):
        sf.kappa0(2.5, 0.5)
    with pytest.raises(PoleError):
        sf.kappa0(1.0, 0.5)
    with pytest.raises(DomainError):
        sf.kappa0(1.5, 1.6)
    with pytest.raises(DomainError):
        sf.kappa1(1.5, -1.5)
    with pytest.raises(DomainError):
        sf.kappa2(1.5, 1.7)
    for b in (1.0, 2.0, 0.5, 2.5):
        for kappa in (sf.kappa1, sf.kappa2):
            with pytest.raises(DomainError, match=r"exponent must be in \(1,2\)"):
                kappa(b, 0.3)


@pytest.mark.parametrize("kappa, nu", [(sf.kappa0, math.nan), (sf.kappa0, -math.inf),
                                       (sf.kappa0, math.inf), (sf.kappa1, math.nan),
                                       (sf.kappa1, math.inf), (sf.kappa1, -math.inf),
                                       (sf.kappa2, math.nan), (sf.kappa2, math.inf)])
def test_kappa_refuses_non_finite_nu(kappa, nu):
    with pytest.raises(DomainError):
        kappa(1.5, nu)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

def test_gk15_kronrod_only_inf_makes_the_error_estimate_nan():
    # the Gauss sum keeps the zero weight of the Kronrod-only pair at
    # +-0.991, so 0 * inf turns its estimate, and so |K - G|, into nan
    f = lambda u: math.inf if u > 0.99 else 1.0
    value, err = sf._gk15(f, -1.0, 1.0)
    assert value == math.inf and math.isnan(err)


def test_integrate_constant():
    assert sf.integrate_adaptive(lambda u: 1.0, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.inf, 1.0),
                                  (0.0, math.nan)])
def test_integrate_refuses_non_finite_bounds(a, b):
    with pytest.raises(DomainError):
        sf.integrate_adaptive(lambda u: 1.0, a, b, 1e-10)


def test_integrate_reversed_and_empty():
    assert sf.integrate_adaptive(lambda u: u, 2.0, 2.0, 1e-10) == 0.0
    v = sf.integrate_adaptive(lambda u: u, 1.0, 0.0, 1e-10)
    assert v == pytest.approx(-0.5, abs=1e-10)


def test_integrate_depth_limit_raises():
    # a non-integrable endpoint blows the subdivision budget
    with pytest.raises(ConvergenceError):
        sf.integrate_adaptive(lambda u: 1.0 / u, 0.0, 1.0, 1e-10)


def test_integrate_accepts_endpoint_slivers(monkeypatch):
    # at abs_tol 1e-2 a panel beside an end whose whole contribution is below
    # abs_tol / 4 is kept as it is, while interior panels of its width still split
    panels = []
    real = sf._gk15

    def recorder(f, lo, hi):
        panels.append((lo, hi))
        return real(f, lo, hi)

    monkeypatch.setattr(sf, "_gk15", recorder)
    v = sf.integrate_adaptive(lambda u: math.sin(3000.0 * u), 0.0, 1.0, abs_tol=1e-2)
    assert abs(v - (1.0 - math.cos(3000.0)) / 3000.0) <= 1e-2
    at_ends = [hi - lo for lo, hi in panels if lo == 0.0 or hi == 1.0]
    assert min(at_ends) > min(hi - lo for lo, hi in panels)


def test_integrate_keeps_an_unsplittable_interval():
    # (1, 1 + ulp) has no float midpoint: its panel is kept, not split to the
    # depth limit, though its jump at 1 keeps the estimate above 1e-300
    v = sf.integrate_adaptive(lambda u: 0.0 if u == 1.0 else 1.0,
                              1.0, math.nextafter(1.0, 2.0), abs_tol=1e-300)
    assert math.isfinite(v)


def test_integrate_power_weighted_edges():
    # power -1 integrates phi(s) / s directly: the integral of 1/s over (1, e) is 1
    assert sf.integrate_power_weighted(lambda s: 1.0, -1.0, 1.0, math.e) == pytest.approx(
        1.0, abs=1e-10)
    for power in (-1.0, -1.5, -3.0):
        with pytest.raises(DomainError, match="not integrable at 0"):
            sf.integrate_power_weighted(lambda s: 1.0, power, 0.0, 1.0)


def test_quad_stats_panels_and_depth(monkeypatch):
    widths = []
    real = sf._gk15

    def recorder(f, lo, hi):
        widths.append(hi - lo)
        return real(f, lo, hi)

    monkeypatch.setattr(sf, "_gk15", recorder)
    # an endpoint singularity forces bisection toward 0: one panel on the
    # whole range, then two per split, each split halving the width, so the
    # deepest panel is 2^-depth wide
    v = sf.integrate_adaptive(lambda u: u ** -0.5, 0.0, 1.0, 1e-10)
    assert v == pytest.approx(2.0, abs=1e-9)
    assert len(widths) % 2 == 1 and widths[0] == 1.0
    depths = [-math.log2(w) for w in widths]
    assert all(d == round(d) for d in depths) and max(depths) > 5


# ---------------------------------------------------------------------------
# extended incomplete beta
# ---------------------------------------------------------------------------

def test_incomplete_beta_unit_integrand():
    assert sf.incomplete_beta_ext(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_incomplete_beta_full_limit():
    # B(1/2, 1/2) = pi
    assert sf.incomplete_beta_ext(1.0, 0.5, 0.5) == pytest.approx(math.pi, abs=1e-8)


def test_incomplete_beta_recurrence_spec_point():
    x, p, q = 0.7, 0.5, -0.3
    lhs = q * sf.incomplete_beta_ext(x, p, q)
    rhs = (p + q) * sf.incomplete_beta_ext(x, p, q + 1.0) - x ** p * (1.0 - x) ** q
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(st.floats(0.05, 0.95), st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_incomplete_beta_recurrence_property(x, p, q):
    lhs = q * sf.incomplete_beta_ext(x, p, q)
    rhs = (p + q) * sf.incomplete_beta_ext(x, p, q + 1.0) - x ** p * (1.0 - x) ** q
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_pareto_tail_integral_against_mpmath_betainc():
    # the closed form against x^-a B_z(a, b) from 30-digit mpmath betainc,
    # on both sides of each branch switch (z = 1/2)
    upper, e = 12.5, 1.5
    for nu in (-0.6, 0.3, 1.2, 1.49):
        a = e - nu
        for x in (-10.0, -6.25, -3.0, 0.5, 12.5, 40.0, 1e4):
            b, num, den = (1.0 - e, x, x + upper) if x > 0 else (nu, -x, upper)
            want = float(mp.mpf(num) ** -a * mp.betainc(a, b, 0, mp.mpf(num) / den))
            got = sf.pareto_tail_integral(x, upper, nu, e)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-9), (nu, x)


def _finite_piece_reference(c, lo, hi, nu, e):
    """integral_lo^hi (c - y)^(nu-1) y^-e dy by mpmath's tanh-sinh at 30 digits."""
    with mp.workdps(30):
        c, lo, hi, nu, e = (mp.mpf(v) for v in (c, lo, hi, nu, e))
        return float(mp.quad(lambda y: (c - y) ** (nu - 1) * y ** -e, [lo, (lo + hi) / 2, hi]))


def _finite_piece_cases():
    """(c, lo, hi, nu, e) as the drift takes them (hi = c - 1): c large
    (lo/c < 1/2 < hi/c, the reflection), c in (lo + 1, 2 lo) (lo/c > 1/2),
    c < 2 (hi/c < 1/2), with nu = e - 1 and e - 2 (1/Gamma(a + nu) = 0),
    |nu| <= 1e-3, nu in (-1, 0), nu <= -1 and nu at and above e (a falling
    side has no divergence)."""
    cases = []
    for e in (1.05, 1.5, 1.95):
        nus = (-2.5, -1.0, -0.9, -1e-3, -1e-6, 1e-6, 1e-3, 0.3, e - 1.0, e - 2.0, e - 1e-3,
               e, 2.7)
        for c, lo in ((1e5, 7.3), (120.0, 2.9), (4.5, 2.9), (1.9, 0.5), (1e3, 600.0)):
            cases += [(c, lo, c - 1.0, nu, e) for nu in nus]
    return cases


def test_pareto_finite_integral_against_mpmath():
    # 1e-13 relative for |nu| >= 1e-3; below that the reflection's
    # B(1-e, nu) - B_s(nu, 1-e) cancels, and the bound is 1e-14 / |nu|
    # (measured: at most 1.6e-14, and 8e-16 / |nu|)
    bad = []
    for c, lo, hi, nu, e in _finite_piece_cases():
        want = _finite_piece_reference(c, lo, hi, nu, e)
        r = abs(sf.pareto_finite_integral(c, lo, hi, nu, e) - want) / abs(want)
        if not r <= (1e-13 if abs(nu) >= 1e-3 else 1e-14 / abs(nu)):
            bad.append((c, lo, nu, e, r))
    assert bad == []


def test_pareto_finite_integral_domain():
    # lo <= 0, hi <= lo, c <= hi, e outside (1, 2)
    for args in ((10.0, 0.0, 9.0, 0.5, 1.5), (10.0, 5.0, 5.0, 0.5, 1.5),
                 (10.0, 2.0, 10.0, 0.5, 1.5), (10.0, 2.0, 9.0, 0.5, 2.0)):
        with pytest.raises(DomainError):
            sf.pareto_finite_integral(*args)


def _incomplete_beta_points():
    """Seeded (x, p, q) over selftest's domain, x = 1/2, x = 0.999 with q < -1,
    and x = 1 (where q > 0)."""
    rng = np.random.default_rng(20)
    pts = [(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(-2.0, 2.0))) for _ in range(300)]
    pts += [(0.5, float(rng.uniform(0.1, 3.0)), float(rng.uniform(-2.0, 2.0))) for _ in range(20)]
    pts += [(0.999, float(rng.uniform(0.1, 3.0)), float(rng.uniform(-2.0, -1.0))) for _ in range(20)]
    pts += [(1.0, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 2.0))) for _ in range(20)]
    return pts


def test_incomplete_beta_matches_mpmath():
    # 1e-14 relative from 40-digit mpmath betainc, and beta at x = 1
    # (measured at most 1.1e-15; the earlier quadrature was off by up to 7.7e-9)
    bad = []
    with mp.workdps(40):
        for x, p, q in _incomplete_beta_points():
            want = mp.beta(p, q) if x == 1.0 else mp.betainc(p, q, 0, x)
            r = abs((sf.incomplete_beta_ext(x, p, q) - want) / want)
            if not r <= 1e-14:
                bad.append((x, p, q, float(r)))
    assert bad == []


def test_incomplete_beta_domain_errors():
    with pytest.raises(DomainError):
        sf.incomplete_beta_ext(1.0, 0.5, -0.5)
    with pytest.raises(DomainError):
        sf.incomplete_beta_ext(0.5, -0.1, 0.5)
    with pytest.raises(DomainError):
        sf.incomplete_beta_ext(1.2, 0.5, 0.5)
    for args in ((math.nan, 1.0, 1.0), (0.5, math.nan, 1.0), (0.5, 1.0, math.nan),
                 (-math.inf, 1.0, 1.0), (0.5, math.inf, 1.0), (0.5, 1.0, -math.inf),
                 (0.5, 1.0, math.inf)):
        with pytest.raises(DomainError, match="incomplete_beta_ext"):
            sf.incomplete_beta_ext(*args)


# ---------------------------------------------------------------------------
# closed-form integrals
# ---------------------------------------------------------------------------

def test_positive_part_example():
    cf = sf.closed_form_integrals("positive_part", -0.5, 0.7)
    quad = sf.closed_form_integral_quad("positive_part", -0.5, 0.7, abs_tol=1e-8)
    assert cf == pytest.approx(quad, abs=1e-6)


def test_beta_const_q_one_is_zero():
    assert sf.closed_form_integrals("beta_const", 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_negative_from_example_with_slack():
    cf = sf.closed_form_integrals("negative_from", 0.3, 0.5, 1e4)
    quad = sf.closed_form_integral_quad("negative_from", 0.3, 0.5, 1e4, abs_tol=1e-8)
    assert cf == pytest.approx(quad, abs=1e-3)


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        sf.closed_form_integrals("positive_part", 0.5, 0.2)
    with pytest.raises(DomainError):
        sf.closed_form_integrals("negative_to", 0.5, 0.2)   # missing x
    with pytest.raises(DomainError):
        sf.closed_form_integrals("beta_const", 0.5, -0.2)
    with pytest.raises(DomainError):
        sf.closed_form_integrals("nonsense", 0.5, 0.2)
    refusals = [("negative_to", 0.0, 0.5, 3.0, "negative_to requires p>-1"),
                ("negative_to", 0.5, -1.0, 3.0, "negative_to requires p>-1"),
                ("negative_to", 0.5, 0.5, 1.0, "negative_to requires x > 1"),
                ("negative_from", 0.3, 0.0, 3.0, "negative_from requires q>-1"),
                ("negative_from", 0.6, 0.5, 3.0, "negative_from requires q>-1"),
                ("negative_from", 0.3, 0.5, 0.0, "negative_from requires x > 0"),
                ("negative_from", 0.3, 0.5, None, "negative_from requires x > 0"),
                ("beta_linear", 1.0, 0.5, None, "beta_linear requires p>-1"),
                ("beta_linear", 0.5, -1.0, None, "beta_linear requires p>-1")]
    for name, p, q, x, msg in refusals:
        for integral in (sf.closed_form_integrals, sf.closed_form_integral_quad):
            with pytest.raises(DomainError, match=msg):
                integral(name, p, q, x)


@pytest.mark.parametrize("x", [1.05, 1.5, 2.0])
def test_negative_to_near_one(x):
    # 1 < x <= 2: the quadrature integrates up to 1 - 1/x <= 1/2 in one piece.
    # At p = 1 the o(1) terms closed_form_integrals drops are exactly 1/x;
    # for any p > 0 the integral is B(1 - 1/x; p, q) - (1 - 1/x)^p / p.
    u = 1.0 - 1.0 / x
    for p, q in ((1.0, 0.5), (1.0, 1.7), (0.5, 0.3), (2.2, 0.8)):
        quad = sf.closed_form_integral_quad("negative_to", p, q, x, abs_tol=1e-8)
        assert quad == pytest.approx(sf.incomplete_beta_ext(u, p, q) - u ** p / p, abs=1e-6)
        if p == 1.0:
            assert quad == pytest.approx(sf.closed_form_integrals("negative_to", p, q, x) + 1.0 / x,
                                         abs=1e-6)


def test_sinpi_cospi_exact_values():
    assert sf.sinpi(1.0) == 0.0
    assert sf.sinpi(1.5) == -1.0
    assert sf.cospi(0.5) == 0.0
    assert sf.cospi(1.0) == -1.0
    assert sf.cotpi(1.25) == pytest.approx(1.0, abs=1e-15)
    for z in (-1.0, 0.0, 2.0):
        with pytest.raises(PoleError):
            sf.cotpi(z)
