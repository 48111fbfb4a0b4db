import math

import mpmath as mp
import numpy as np
import pytest

from heavywalk import build_law
from heavywalk.errors import DivergentError, DomainError
from heavywalk.classify import classify
from heavywalk.lyapunov import (_light_term, drift_numeric, drift_numeric_law, drift_predicted,
                                expansion_coefficient, lyapunov_f, verify_expansion)
from heavywalk import specialfn as sf

from conftest import balanced, half_line, line_in, line_out, plane
from oracles import mc_drift


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_f_examples():
    assert lyapunov_f(2, -0.5, -4.0) == 0.5
    assert lyapunov_f(1, 3.0, -7.0) == 1.0
    assert lyapunov_f(0, 0.5, 0.3) == 1.0
    assert lyapunov_f(0, 2.0, 3.0) == 9.0


def test_f0_rejects_negative():
    with pytest.raises(DomainError):
        lyapunov_f(0, 0.5, -1.0)
    with pytest.raises(DomainError):
        lyapunov_f(3, 0.5, 1.0)


# ---------------------------------------------------------------------------
# drift_numeric
# ---------------------------------------------------------------------------

def test_drift_zero_at_nu_zero():
    assert drift_numeric(half_line(), 0, 0.0, 123.0) == 0.0


def test_half_line_martingale_nu_one_nonnegative():
    # D0 - mu = E[(theta_- - (x-1)) 1{theta_- > x-1}] >= 0; zero here because
    # the light side is bounded
    spec = half_line()
    for x in (20.0, 500.0):
        d = drift_numeric(spec, 0, 1.0, x)
        assert d >= -1e-13
        assert d == pytest.approx(float(spec.drift_target(x)), abs=1e-12)


def test_drift_against_monte_carlo():
    spec = half_line()
    d = drift_numeric(spec, 0, 0.5, 50.0)
    m, se = mc_drift(spec, 0, 0.5, 50.0, 2_000_000, seed=3)
    assert abs(d - m) < 4.0 * se


def test_drift_against_monte_carlo_line_in():
    spec = line_in(beta=1.4, gamma=0.4, b=0.3)
    d = drift_numeric(spec, 2, 0.6, 80.0)
    m, se = mc_drift(spec, 2, 0.6, 80.0, 2_000_000, seed=4)
    assert abs(d - m) < 4.0 * se


def test_drift_against_monte_carlo_randomized_tuples():
    # 20 random (spec, i, nu, x) tuples, closed form within 4 standard errors
    rng = np.random.default_rng(2024)
    makers = [
        lambda: (half_line(alpha=rng.uniform(1.2, 1.8)), 0),
        lambda: (line_out(alpha=rng.uniform(1.2, 1.8), gamma=0.8,
                          b=rng.uniform(-0.5, 0.5)), int(rng.integers(1, 3))),
        lambda: (line_in(beta=rng.uniform(1.2, 1.8), gamma=0.9,
                         b=rng.uniform(-0.3, 0.3), alpha=2.9), int(rng.integers(1, 3))),
        lambda: (balanced(alpha=rng.uniform(1.2, 1.8), gamma=0.9,
                          b=rng.uniform(-0.3, 0.3)), int(rng.integers(1, 3))),
    ]
    for k in range(20):
        spec, i = makers[k % 4]()
        nu = float(rng.uniform(0.15, 0.9))
        x = float(rng.uniform(30.0, 200.0))
        if i == 2 and rng.random() < 0.5:
            x = -x
        d = drift_numeric(spec, i, nu, x)
        m, se = mc_drift(spec, i, nu, x, 400_000, seed=5000 + k)
        assert abs(d - m) < 4.0 * se, (spec.regime, i, nu, x)


def _oracle_integrand(law, side, i, nu, x):
    """The light share's integrand for a quadrature oracle: the test
    function's derivative (0 on the flat part) times the light uniform's tail
    term, written as `IncrementLaw.tail_pos`/`tail_neg` write it."""
    def fprime(z):
        if i in (0, 1):
            return nu * z ** (nu - 1.0) if z > 1.0 else 0.0
        az = abs(z)
        if az <= 1.0:
            return 0.0
        return nu * math.copysign(az ** (nu - 1.0), z)
    width = abs(law.light)

    def light_tail(y):
        acc = 0.0
        if y < width:
            acc += law.light_weight * (1.0 - y / width)
        return acc
    return lambda y: fprime(x + side * y) * light_tail(y)


ORACLE_SPECS = {
    "half_line": (half_line(alpha=1.5, gamma=0.5, b=-1.0), (0,), (0.5, 3.0, 120.0)),
    "line_out": (line_out(alpha=1.5, gamma=0.5, b=-0.5), (1, 2), (-120.0, -3.0, 0.5, 3.0, 120.0)),
    "line_in": (line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0), (1, 2),
                (-120.0, -3.0, 0.5, 3.0, 120.0)),
    # light tuner on the positive side (b > 0) and on the negative side (b < 0)
    "line_balanced_pos": (balanced(alpha=1.5, gamma=0.5, b=0.5, x0=4.0), (1, 2),
                          (-120.0, -3.0, 0.5, 3.0, 120.0)),
    "line_balanced_neg": (balanced(alpha=1.5, gamma=0.5, b=-0.5, x0=4.0), (1, 2),
                          (-120.0, -3.0, 0.5, 3.0, 120.0)),
}


def _light_pieces(law, side, i, x):
    """The ends of the light uniform's support on side `side` and the kinks
    of f_i(x + side*y) between them: the pieces a quadrature of the light
    share needs."""
    w = abs(law.light)
    kinks = [side * (k - x) for k in ((1.0,) if i in (0, 1) else (-1.0, 1.0))]
    return sorted({0.0, w, *(y for y in kinks if 0.0 < y < w)})


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_light_share_matches_integrate_adaptive(name):
    # the closed form against `integrate_adaptive` of f_i' times the uniform's
    # tail term, piece by piece between the kinks, to 1e-14 of the x scale
    # |x|^(nu - e); for every law, orientation and side with a light uniform.
    # Measured: at most 2.4e-15 of that scale
    spec, i_values, xs = ORACLE_SPECS[name]
    bad = []
    checked = 0
    for x in xs:
        base = build_law(spec, x)
        for law in (base, base.mirrored()):
            for i in i_values:
                for nu in (0.5, -0.3):
                    scale = abs(x) ** (nu - law.exponent)
                    for side in (+1, -1):
                        if not law.on_side(side)[1] or law.light == 0.0:
                            continue
                        checked += 1
                        f = _oracle_integrand(law, side, i, nu, x)
                        pts = _light_pieces(law, side, i, x)
                        want = side * sum(sf.integrate_adaptive(f, lo, hi, 1e-14 * scale)
                                          for lo, hi in zip(pts[:-1], pts[1:]))
                        err = abs(_light_term(law, side, i, nu, x) - want) / scale
                        if not err <= 1e-13:
                            bad.append((x, i, nu, side, err))
    assert checked == 2 * len(xs) * len(i_values) * 2
    assert bad == []


def _light_share_mp(law, side, i, nu, x):
    """side * integral_0^w f_i'(x + side*y) q (1 - y/w) dy at 40 digits, by
    tanh-sinh quadrature between the kinks of f_i."""
    with mp.workdps(40):
        w, q = mp.mpf(abs(law.light)), mp.mpf(law.light_weight)
        nu, x = mp.mpf(nu), mp.mpf(x)

        def integrand(y):
            z = x + side * y
            if (z if i in (0, 1) else abs(z)) <= 1:
                return mp.mpf(0)
            return nu * mp.sign(z) * abs(z) ** (nu - 1) * q * (1 - y / w)

        pts = [mp.mpf(y) for y in _light_pieces(law, side, i, float(x))]
        return side * sum(mp.quad(integrand, [lo, hi]) for lo, hi in zip(pts[:-1], pts[1:]))


LIGHT_SPECS = {
    # beta = 2.5 puts the half line's lower end of nu at alpha - beta = -1
    0: half_line(alpha=1.5, beta=2.5, gamma=0.5, b=-1.0),
    1: line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0),
    2: line_out(alpha=1.5, gamma=0.5, b=-0.5),
}


def test_light_share_matches_mpmath():
    # for i = 0, 1, 2: x on the kinks, within w of +-1 on either side, and out
    # to +-1e5; nu from the lower end of its range (-1 itself on the half line,
    # where the antiderivative is a log) up to exponent - 1e-3.  Measured: at
    # most 8e-14 of |x|^(nu - e), at |x| = 1e5 and nu near e, where the share
    # is ~1e3 times that scale and the rounding of |x|^nu sets the error
    bad = []
    checked = 0
    for i, spec in LIGHT_SPECS.items():
        e = spec.heavy_exponent
        lower = {0: -1.0, 1: 1e-3, 2: -1.0 + 1e-3}[i]
        nus = [nu for nu in (lower, -0.5, -1e-3, 1e-3, 0.5, 1.0) if nu >= lower] + [e - 1e-3]
        w = abs(build_law(spec, 1.0).light)
        near = [1.0, 1.0 - 0.5 * w, 1.0 + 0.5 * w, 1.0 - 0.999 * w, 1.0 + 0.999 * w, 0.5]
        far = [3.0, 40.0, 1e3, 1e5]
        xs = sorted({x for x in near + far if x >= 0.0} if i == 0 else
                    {s * x for x in near + far for s in (1.0, -1.0)})
        for x in xs:
            base = build_law(spec, x)
            for law in (base, base.mirrored()):
                for nu in nus:
                    scale = abs(x) ** (nu - e)
                    for side in (+1, -1):
                        if not law.on_side(side)[1]:
                            continue
                        checked += 1
                        want = _light_share_mp(law, side, i, nu, x)
                        err = float(abs(_light_term(law, side, i, nu, x) - want)) / scale
                        if not err <= 2e-13:
                            bad.append((i, x, nu, side, err))
    assert checked > 500
    assert bad == []


def test_verify_expansion_takes_k_once_and_predicts_as_drift_predicted(monkeypatch):
    import heavywalk.lyapunov as ly
    spec = line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0)
    grid = [-1e3, -1e2, 1e2, 1e4]
    want = [repr(drift_predicted(spec, 2, 0.6, x)) for x in grid]
    calls = []
    real = ly.expansion_coefficient

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ly, "expansion_coefficient", counted)
    rep = verify_expansion(spec, 2, 0.6, grid)
    assert len(calls) == 1
    assert [repr(p) for p in rep.predicted] == want
    # a grid point the one-sided expansion does not cover is still refused
    with pytest.raises(DomainError):
        verify_expansion(spec, 1, 0.6, [0.5, 1e2])


def _far_tail_mp(x, upper, nu, e):
    """integral_upper^inf (x + y)^(nu-1) y^-e dy from mpmath's 2F1 at the working
    precision: |x|^-a B_z(a, b) with a = e - nu, B_z(a, b) = z^a / a *
    2F1(a, 1-b; a+1; z) (DLMF 8.17.7), and (b, z) = (1-e, x/(x+upper)) or
    (nu, |x|/upper)."""
    x, upper, nu, e = (mp.mpf(v) for v in (x, upper, nu, e))
    a = e - nu
    if x == 0:
        return upper ** -a / a
    b, num, den = (1 - e, x, x + upper) if x > 0 else (nu, -x, upper)
    z = num / den
    return num ** -a * z ** a / a * mp.hyp2f1(a, 1 - b, a + 1, z)


def _far_tail_reference(x, upper, nu, e):
    """`_far_tail_mp` at 50 digits, as a float."""
    with mp.workdps(50):
        return float(_far_tail_mp(x, upper, nu, e))


def _far_tail_errors(cases):
    """(nu, relative error) of sf.pareto_tail_integral on each (x, upper, nu, e)."""
    out = []
    for x, upper, nu, e in cases:
        want = _far_tail_reference(x, upper, nu, e)
        out.append((nu, abs(sf.pareto_tail_integral(x, upper, nu, e) - want) / abs(want)))
    return out


def _check_far_tail_errors(errors):
    # 1e-11 relative for |nu| >= 1e-3; below that B(a, nu) - B_{1-z}(nu, a)
    # cancels, and the bound is 1e-14 / |nu| (measured: at most 6e-16 / |nu|)
    bad = [(nu, r) for nu, r in errors if r > (1e-11 if abs(nu) >= 1e-3 else 1e-14 / abs(nu))]
    assert bad == []


def _nu_grid(e):
    """nu from -0.9 to e - 1e-4, with points near 0 on both sides."""
    return [nu for nu in (-0.9, -0.5, -1e-3, -1e-4, 1e-6, 1e-4, 1e-3, 0.3, 0.7, 1.0, 1.2)
            if nu < e - 1e-2] + [e - 1e-2, e - 1e-3, e - 1e-4]


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_far_tail_closed_form_against_mpmath_per_regime(monkeypatch, name):
    # every far tail that drift_numeric_law takes, per regime, test function
    # and orientation of the law
    import heavywalk.lyapunov as ly
    spec, i_values, xs = ORACLE_SPECS[name]
    calls = []
    real = ly.pareto_tail_integral

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ly, "pareto_tail_integral", record)
    for x in (0.0,) + xs:
        base = build_law(spec, x)
        for law in (base, base.mirrored()):
            for i in i_values:
                for nu in _nu_grid(spec.heavy_exponent):
                    drift_numeric_law(law, i, nu, x)
    assert any(args[0] == 0.0 for args in calls)
    _check_far_tail_errors(_far_tail_errors(calls))


def test_far_tail_closed_form_against_mpmath_grid():
    # upper from 1.01 to 1e4, x on both sides of 0 and of either branch switch
    # (x = upper, and x = -upper/2), down to x + upper = 1e-3 * upper and up to
    # x = 1e8 * upper, where 1 - z = upper/(x+upper) must not be formed as a difference
    cases = []
    for e in (1.2, 1.5, 1.8):
        for upper in (1.01, 3.0, 40.0, 1e4):
            xs = (-0.999 * upper, -0.7 * upper, -0.5 * upper, -0.3 * upper, -1.0, 0.0,
                  1e-9, 1.0, 3.0, upper, 1.5 * upper, 1e3 * upper, 1e8 * upper)
            cases += [(x, upper, nu, e) for x in xs for nu in _nu_grid(e)]
    _check_far_tail_errors(_far_tail_errors(cases))


def test_far_tail_domain():
    # nu >= e, x + upper = 0, upper = 0, e outside (1, 2), nu = 0, nu = -1 with x < 0
    for args in ((10.0, 5.0, 1.5, 1.5), (-5.0, 5.0, 0.5, 1.5), (1.0, 0.0, 0.5, 1.5),
                 (1.0, 5.0, 0.5, 2.5), (1.0, 5.0, 0.0, 1.5), (-4.0, 5.0, -1.0, 1.5)):
        with pytest.raises(DomainError):
            sf.pareto_tail_integral(*args)


def _drift_reference(law, i, nu, x, dps=30):
    """D_i(x) from mpmath at `dps` digits, with no closed form of the finite
    pieces: sum over sides of side * integral_0^inf f_i'(x + side y)
    P[side theta > y] dy, by tanh-sinh quadrature between every kink of the
    tail and of f_i, and `_far_tail_mp` beyond the last kink."""
    with mp.workdps(dps):
        p, e, y0, w = (mp.mpf(v) for v in (law.p, law.exponent, abs(law.scale),
                                            abs(law.light)))
        q, nu, x = mp.mpf(law.light_weight), mp.mpf(nu), mp.mpf(x)

        def fprime(z):
            if (z if i in (0, 1) else abs(z)) <= 1:
                return mp.mpf(0)
            return nu * mp.sign(z) * abs(z) ** (nu - 1)

        total = mp.mpf(0)
        for side in (+1, -1):
            heavy, light = law.on_side(side)

            def tail(y):
                acc = mp.mpf(0)
                if heavy:
                    acc += p * (1 if y < y0 else (y0 / y) ** e)
                if light and y < w:
                    acc += q * (1 - y / w)
                return acc

            kinks = [mp.mpf(0)] + ([y0] if heavy else []) + ([w] if light and w > 0 else [])
            kinks += [side * (k - x) for k in ((1,) if i in (0, 1) else (-1, 1))
                      if side * (k - x) > 0]
            kinks = sorted(set(kinks))
            val = mp.mpf(0)
            for lo, hi in zip(kinks[:-1], kinks[1:]):
                val += mp.quad(lambda y: fprime(x + side * y) * tail(y), [lo, hi])
            if heavy and (i == 2 or side == +1):
                val += side * nu * p * y0 ** e * _far_tail_mp(side * x, kinks[-1], nu, e)
            total += side * val
        return total


def _drift_cases():
    """(name, law, i, nu, x) over every regime and orientation, with the edge
    cases of the closed-form Pareto term: x - 1 <= y0 (no finite piece),
    x in (y0 + 1, 2 y0) (the finite piece starts past 1/2), |nu| <= 1e-3,
    nu = e - 1 exactly, nu in (-1, 0), negative x for i = 2, i = 1 at x < 1,
    and x = 1e5, where the steps of f_i need `_pow_m1`."""
    cases = []
    for k, name in enumerate(sorted(ORACLE_SPECS)):
        spec, i_values, _ = ORACLE_SPECS[name]
        e = spec.heavy_exponent
        nus = (0.5, -0.3, 1e-4, e - 1.0, -0.9, 0.95 * e)
        xs = (0.5, 3.0, 4.5, 120.0, 1e5) + ((-4.5, -120.0, -1e5) if 2 in i_values else ())
        for j, x in enumerate(xs):
            base = build_law(spec, x)
            for m, law in enumerate((base, base.mirrored())):
                i = i_values[(j + m) % len(i_values)]
                if 2 in i_values and x < 0.0:
                    i = 2
                cases.append((name, law, i, nus[(j + 2 * m + k) % len(nus)], x))
    return cases


def test_drift_matches_mpmath_reference():
    # every drift the closed forms give (Pareto terms and light share),
    # against 30-digit mpmath, in units of the x scale |x|^(nu-e).
    # Measured: at most 3.5e-13 of it, except at nu = -0.9 and |x| = 1e5 for
    # i = 2 (up to 2e-12), where the pieces next to z = -1 and z = +1 are each
    # ~3e4 times the x scale and cancel, with each within 1.3e-15 of mpmath
    bad = []
    for name, law, i, nu, x in _drift_cases():
        scale = abs(x) ** (nu - law.exponent)
        got = drift_numeric_law(law, i, nu, x)
        err = abs(got - float(_drift_reference(law, i, nu, x))) / scale
        if not err <= 5e-12:
            bad.append((name, i, nu, x, err))
    assert bad == []


def test_finite_piece_only_toward_the_origin(monkeypatch):
    # the finite piece runs from y0 to c - 1, c = |x| toward the origin:
    # none when x - 1 <= y0, one starting past c/2 when x is in (y0 + 1, 2 y0)
    import heavywalk.lyapunov as ly
    calls = []
    real = ly.pareto_finite_integral

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ly, "pareto_finite_integral", record)
    spec = balanced(alpha=1.5, gamma=0.5, b=0.5, x0=4.0)
    y0 = abs(build_law(spec, 3.0).scale)
    for x in (y0 + 1.0, y0 + 0.5, 0.5):
        for i in (1, 2):
            drift_numeric(spec, i, 0.5, x)
    assert calls == []
    x = 1.6 * y0
    drift_numeric(spec, 1, 0.5, x)
    drift_numeric(spec, 2, 0.5, -x)
    assert [c[:3] for c in calls] == [(x, y0, x - 1.0)] * 2
    assert y0 / x > 0.5


@pytest.mark.parametrize("spec, i", [
    (half_line(alpha=1.5, gamma=0.5, b=-1.0), 0),
    (line_out(alpha=1.5, gamma=0.5, b=-0.5), 2),
    (line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0), 2),
])
def test_verify_expansion_reaches_nu_near_tail_exponent(spec, i):
    # nu just below the tail exponent: the far tail decays like y^-(1 + 1e-3),
    # which the closed form beyond the last kink takes with no quadrature
    rep = verify_expansion(spec, i, spec.heavy_exponent - 1e-3, [1e2, 1e3])
    assert all(math.isfinite(v) for v in rep.numeric + rep.normalized_error)


def test_drift_refused_from_two_to_the_53():
    # x and x +- 1, the test functions' kinks, round together from 2^53 on:
    # before the refusal these read a pareto_tail_integral DomainError on
    # line_in i = 2 at 1e16, 1.2e-91 on the half line at 1e150 and nan at 2e300
    li = line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0)
    hl = half_line(gamma=0.5, b=-1.0)
    assert math.isfinite(drift_numeric(li, 2, 0.6, 2.0 ** 53 - 1.0))
    for spec, i, nu, x in ((li, 2, 0.6, 2.0 ** 53), (li, 2, 0.6, -1e16), (li, 2, 0.6, 1e16),
                           (hl, 0, 0.5, 1e150), (hl, 0, 0.5, 2e300)):
        with pytest.raises(DomainError, match="2\\^53"):
            drift_numeric(spec, i, nu, x)
    with pytest.raises(DomainError, match="2\\^53"):
        verify_expansion(hl, 0, 0.5, [1e2, 1e20])


def test_mirror_symmetry_f2():
    spec = line_out(alpha=1.5, gamma=0.5, b=0.2)
    for x in (50.0, 400.0):
        assert drift_numeric(spec, 2, 0.5, x) \
            == pytest.approx(drift_numeric(spec, 2, 0.5, -x), abs=1e-11)


def test_divergent_error_when_nu_exceeds_tail():
    with pytest.raises(DivergentError):
        drift_numeric(half_line(alpha=1.5), 0, 1.7, 50.0)


def test_regime_i_compatibility():
    with pytest.raises(DomainError):
        drift_numeric(half_line(), 1, 0.5, 50.0)
    with pytest.raises(DomainError):
        drift_numeric(line_in(), 0, 0.5, 50.0)
    with pytest.raises(DomainError, match="scalar regimes only"):
        drift_numeric(plane(), 2, 0.5, 10.0)


# ---------------------------------------------------------------------------
# drift_predicted
# ---------------------------------------------------------------------------

def test_predicted_half_line_nu_one_is_mu():
    spec = half_line(alpha=1.5, gamma=0.5, b=-2.0)
    x = 100.0
    assert drift_predicted(spec, 0, 1.0, x) == pytest.approx(float(spec.drift_target(x)),
                                                             rel=1e-12)


def test_predicted_line_in_kappa1_vanishes():
    spec = line_in(beta=1.5, gamma=0.5, b=0.3, alpha=2.5)
    x = 64.0
    want = 0.5 * x ** -0.5 * float(spec.drift_target(x))
    assert drift_predicted(spec, 1, 0.5, x) == pytest.approx(want, rel=1e-12)


def test_predicted_even_in_x_for_f2():
    # sign(x) and mu(x) flip together for the symmetric line specs, so the
    # two-sided prediction is even; numeric drift matches on both sides
    spec = line_out(alpha=1.5, gamma=0.3, b=0.2)
    x = 1000.0
    p_pos = drift_predicted(spec, 2, 0.3, x)
    p_neg = drift_predicted(spec, 2, 0.3, -x)
    assert p_pos == pytest.approx(p_neg, rel=1e-14)


def test_predicted_range_validation():
    with pytest.raises(DomainError):
        drift_predicted(half_line(alpha=1.5, beta=2.5), 0, -1.5, 100.0)  # below alpha-beta
    with pytest.raises(DomainError):
        drift_predicted(line_in(), 1, -0.2, 100.0)   # i=1 needs nu > 0
    with pytest.raises(DomainError):
        drift_predicted(half_line(), 0, 0.5, 0.5)    # x below truncation
    # K itself is refused outside the lemma's range, where kappa1 has a value
    with pytest.raises(DomainError, match="requires 0.0 < nu"):
        expansion_coefficient(line_in(), 1, -0.2)
    for x in (0.5, -0.5):    # i = 2 covers both sides, from |x| = 1 out
        with pytest.raises(DomainError, match=r"\|x\| >= 1"):
            drift_predicted(line_in(), 2, 0.4, x)
    # nu = 0: a positive zero, where K |x|^(nu - e) and mu < 0 would give -0.0
    assert repr(drift_predicted(half_line(gamma=0.5, b=-1.0), 0, 0.0, 50.0)) == "0.0"


# ---------------------------------------------------------------------------
# verify_expansion
# ---------------------------------------------------------------------------

def test_expansion_half_line_converges():
    rep = verify_expansion(half_line(), 0, 0.5, [1e2, 1e3, 1e4, 1e5])
    assert rep.converged
    errs = [abs(e) for e in rep.normalized_error]
    assert all(b < a for a, b in zip(errs[:-1], errs[1:]))
    assert rep.coefficient == pytest.approx(0.5 * sf.kappa0(1.5, 0.5), rel=1e-12)


def test_expansion_nu_zero_trivial():
    rep = verify_expansion(half_line(), 0, 0.0, [1e2, 1e3])
    assert rep.converged
    assert rep.normalized_error == [0.0, 0.0]


def test_expansion_line_in_i1_limit_sign():
    # kappa1 < 0 near nu = 0 (kappa1(0) = -1), so the coefficient is negative
    # for small nu; the normalized error shrinks along the grid even though
    # the x^(-nu) remainder makes it slow at this nu
    spec = line_in(beta=1.3, gamma=1.0)
    rep = verify_expansion(spec, 1, 0.2, [1e2, 1e3, 1e4])
    assert rep.coefficient < 0.0
    errs = [abs(e) for e in rep.normalized_error]
    assert all(b < a for a, b in zip(errs[:-1], errs[1:]))
    # past the kappa1 sign change at nu = beta - 1 the coefficient is positive
    assert expansion_coefficient(spec, 1, 0.6) > 0.0


def test_expansion_grid_validation():
    with pytest.raises(DomainError):
        verify_expansion(half_line(), 0, 0.5, [1e3, 1e2])
    for bad in ([math.nan], [1e2, math.inf], [-math.inf, 1e2]):
        with pytest.raises(DomainError, match="finite"):
            verify_expansion(half_line(), 0, 0.5, bad)
    with pytest.raises(DomainError, match="must not be empty"):
        verify_expansion(half_line(), 0, 0.5, [])
    # a point below 1 is refused before |x|^(nu - e), which divides by zero
    # at 0 and overflows at a subnormal
    for spec, i in ((half_line(), 0), (line_in(), 2)):
        for point in (0.0, -0.0, 1e-320):
            with pytest.raises(DomainError, match="expansions hold"):
                verify_expansion(spec, i, 0.4, [point, 100.0])


def test_big_drift_ratio_tends_to_one():
    # gamma < alpha - 1, b != 0: D ~ nu b x^(nu-1-gamma)
    spec = half_line(alpha=1.5, gamma=0.2, b=-1.0)
    nu = 0.5
    ratios = []
    for x in (1e3, 1e5, 1e7):
        d = drift_numeric(spec, 0, nu, x)
        ratios.append(d / (nu * -1.0 * x ** (nu - 1.0 - 0.2)))
    # subleading term is (c/b) kappa0 x^(gamma+1-alpha) = 2 x^(-0.3) here
    assert abs(ratios[-1] - 1.0) < 0.05
    devs = [abs(r - 1.0) for r in ratios]
    assert devs[2] < devs[1] < devs[0]


# ---------------------------------------------------------------------------
# drift signs at probe points: the finite-x shadow of the phase criteria
# ---------------------------------------------------------------------------

PROBES = [1e3, 1e4]


def test_criteria_recurrent_half_line():
    spec = half_line()
    assert classify(spec).phase == "NullRecurrent"
    assert all(drift_numeric(spec, 0, 0.5, x) <= 0.0 for x in PROBES)


def test_criteria_transient_half_line_negative_nu():
    spec = half_line(alpha=1.5, gamma=0.5, b=4.0, p_heavy=0.4, x0=25.0)
    assert classify(spec).phase == "Transient"
    assert all(drift_numeric(spec, 0, -0.3, x) <= 0.0 for x in PROBES)


def test_criteria_oscillatory_pattern():
    spec = line_in(beta=1.3, gamma=1.0)
    assert classify(spec).phase == "TransientOscillatory"
    # the one-sided drift is negative in both orientations (Lyapunov pattern
    # behind oscillation), while the two-sided one is not; the mirrored
    # orientation is f1 applied to -chain, i.e. the law at -x reflected
    assert all(drift_numeric(spec, 1, 0.2, x) <= 0.0 for x in PROBES)
    assert all(drift_numeric_law(build_law(spec, -x).mirrored(), 1, 0.2, x) <= 0.0
               for x in PROBES)
    assert not all(drift_numeric(spec, 2, 0.2, x) <= 0.0 for x in PROBES)


@pytest.mark.parametrize("n", [0, -3, 2.0, True, None],
                         ids=["zero", "negative", "float", "bool", "none"])
def test_mc_drift_rejects_bad_counts(n):
    # n = 0 divided by zero, and n = -3 returned (-0.0, 0.0) from no samples
    with pytest.raises(DomainError, match="sample count n"):
        mc_drift(half_line(), 0, 0.5, 50.0, n)


@pytest.mark.parametrize("seed", [-1, 1.5, True, 2 ** 64],
                         ids=["negative", "float", "bool", "past_2_64"])
def test_mc_drift_follows_the_seed_rule(seed):
    # -1 and 1.5 raised numpy's own errors, and True and 2^64 ran
    with pytest.raises(DomainError, match="seed must be an integer in"):
        mc_drift(half_line(), 0, 0.5, 50.0, 10, seed=seed)


@pytest.mark.parametrize("seed, mean", [(0, -0.005640688268741884), (np.int64(3), 0.05780149644274406),
                                        (2 ** 64 - 1, -0.04775550391447245)],
                         ids=["zero", "numpy_int", "top"])
def test_mc_drift_runs_at_the_seed_edges(seed, mean):
    # numpy's generator is kept, so each seed draws the samples it drew before
    assert mc_drift(half_line(), 0, 0.5, 50.0, 100, seed=seed)[0] == pytest.approx(mean, rel=1e-12)


def test_drift_numeric_law_matches_spec_path():
    spec = line_out(alpha=1.5, gamma=0.4, b=0.1)
    x = 120.0
    law = build_law(spec, x)
    assert drift_numeric_law(law, 2, 0.5, x) \
        == pytest.approx(drift_numeric(spec, 2, 0.5, x), abs=1e-13)


@pytest.mark.parametrize("call", [
    lambda s: verify_expansion(s, 0, -200.0, [100.0]),
    lambda s: drift_numeric(s, 0, -200.0, 100.0),
    lambda s: sf.kappa0(1.5, -200.0),
    lambda s: sf.kappa1(1.5, 500.0)],
    ids=["verify_expansion", "drift_numeric", "kappa0", "kappa1"])
def test_gamma_past_the_float_range_is_a_domain_error(call):
    # with no beta the lemma's nu-range has no lower end; Gamma(201.5) and
    # Gamma(501) raised a bare OverflowError from math.gamma
    with pytest.raises(DomainError, match="beyond the float range"):
        call(half_line(beta=None))
