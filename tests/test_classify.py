import math

import mpmath as mp
import numpy as np
import pytest

from heavywalk.classify import (CRITICAL, NULL_RECURRENT, POSITIVE_RECURRENT,
                                TRANSIENT, TRANSIENT_DIRECTIONAL, TRANSIENT_OSCILLATORY)
from heavywalk.classify import TIE_TOL, _gap_function, classify, nu_star, plane_equation_forms
from heavywalk import specialfn as sf
from heavywalk.errors import DomainError, HeavywalkError, NoRootError, PoleError
from heavywalk.specialfn import kappa0, kappa2

from conftest import balanced, half_line, line_in, line_out, plane
from oracles import closed_form_threshold, plane_quantity


# ---------------------------------------------------------------------------
# brute-force oracle (built first, used to freeze the nu* anchors):
# plain bisection on the displayed Gamma equations with mpmath gammas.
# ---------------------------------------------------------------------------

@mp.workdps(40)
def oracle_nu_star(kind, exponent, b=0.0, c=1.0, p_radial=None, c_radial=None,
                   c_transverse=None, lo="1e-7", below_top="1e-7"):
    G = mp.gamma

    if kind == "half_line":
        gap = lambda v: b + c * (1 - v) * G(exponent - v) * G(1 - exponent) / G(2 - v)
        hi = exponent
    elif kind == "line_in":
        gap = lambda v: b + c * G(v) * (G(exponent - v) / G(exponent)
                                        - (1 - exponent + v) * G(1 - exponent) / G(2 - exponent + v))
        hi = exponent
    elif kind == "balanced":
        def gap(v):
            k0 = (1 - v) * G(exponent - v) * G(1 - exponent) / G(2 - v)
            k2 = G(v) * (G(exponent - v) / G(exponent)
                         - (1 - exponent + v) * G(1 - exponent) / G(2 - exponent + v))
            return b + c * (k0 + k2)
        hi = exponent
    else:  # plane, displayed Gamma-ratio form
        p_t = 1 - p_radial
        gap = lambda v: (p_radial * c_radial * G(exponent - v) * G(1 - exponent) / G(1 - v)
                         + p_t * c_transverse * G((exponent - v) / 2) * G(1 - exponent / 2)
                         / G(1 - v / 2))
        hi = 1.0
    lo, hi = mp.mpf(lo), mp.mpf(hi) - mp.mpf(below_top)
    assert gap(lo) < 0 < gap(hi)
    for _ in range(120):
        mid = (lo + hi) / 2
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# classification examples
# ---------------------------------------------------------------------------

def test_half_line_critical_transient_example():
    spec = half_line(alpha=1.5, gamma=0.5, b=4.0, p_heavy=0.4, x0=25.0)
    assert closed_form_threshold(spec) == pytest.approx(math.pi, abs=1e-14)
    assert classify(spec).phase == TRANSIENT


def test_half_line_critical_recurrent():
    spec = half_line(alpha=1.5, gamma=0.5, b=-2.0)
    c = classify(spec)
    assert c.phase == NULL_RECURRENT
    assert c.moment_exponent == pytest.approx(c.nu_star / 1.5)


def test_line_in_oscillatory_example():
    spec = line_in(beta=1.3, gamma=1.0, b=0.0)
    c = classify(spec)
    assert c.phase == TRANSIENT_OSCILLATORY
    assert "rate_condition" in c.theorem_tag


def test_line_in_null_recurrent_example():
    c = classify(line_in(beta=1.8, gamma=1.0, b=0.0, alpha=2.8))
    assert c.phase == NULL_RECURRENT
    assert c.moment_exponent == pytest.approx(1.0 / 3.0)


def test_plane_transient_example():
    spec = plane(alpha=1.5, p_radial=0.5, c_radial=1.0, c_transverse=1.0)
    assert plane_quantity(spec) == pytest.approx(0.5 - math.sqrt(2.0) / 2.0, abs=1e-14)
    assert classify(spec).phase == TRANSIENT


def test_plane_recurrent_side():
    c = classify(plane(alpha=1.5, p_radial=0.9))
    assert c.phase == NULL_RECURRENT
    assert 0.0 < c.nu_star < 1.0
    assert c.moment_exponent == pytest.approx(c.nu_star / 1.5)


def test_positive_recurrent_clauses():
    for spec, exp in ((half_line(alpha=1.5, gamma=0.2, b=-1.0), 1.5),
                      (line_out(alpha=1.5, gamma=0.2, b=-1.0), 1.5),
                      (line_in(beta=1.3, gamma=0.1, b=-0.5), 1.3),
                      (balanced(alpha=1.5, gamma=0.2, b=-0.5), 1.5)):
        c = classify(spec)
        assert c.phase == POSITIVE_RECURRENT
        assert c.moment_exponent == pytest.approx(exp / (spec.drift.gamma + 1.0))
        assert c.boundary_inclusive == "infinite"


def test_directional_transient_clauses():
    assert classify(line_out(alpha=1.5, gamma=0.2, b=0.5, x0=40.0)).phase == TRANSIENT_DIRECTIONAL
    assert classify(line_in(beta=1.3, gamma=0.1, b=0.5, x0=10.0)).phase == TRANSIENT_DIRECTIONAL
    assert classify(balanced(alpha=1.5, gamma=0.2, b=0.3, x0=30.0)).phase == TRANSIENT_DIRECTIONAL


def test_line_out_critical_clauses():
    thr = closed_form_threshold(line_out(alpha=1.5))
    assert classify(line_out(alpha=1.5, gamma=0.5, b=thr - 0.5, x0=10.0)).phase == NULL_RECURRENT
    assert classify(line_out(alpha=1.5, gamma=0.5, b=thr + 0.5, x0=200.0)).phase \
        == TRANSIENT_DIRECTIONAL


def test_balanced_critical_clauses():
    # threshold is -pi cot(pi alpha / 2) = +pi at alpha = 1.5
    thr = closed_form_threshold(balanced(alpha=1.5))
    assert thr == pytest.approx(math.pi, abs=1e-14)
    assert classify(balanced(alpha=1.5, gamma=0.5, b=1.0, x0=4.0)).phase == NULL_RECURRENT
    assert classify(balanced(alpha=1.5, gamma=0.5, b=3.5, x0=500.0)).phase \
        == TRANSIENT_OSCILLATORY


def test_line_in_critical_clauses():
    spec = line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0)
    c = classify(spec)
    assert c.phase == NULL_RECURRENT
    assert c.moment_exponent == pytest.approx(c.nu_star / 1.3)
    spec_t = line_in(beta=1.3, gamma=0.3, b=-1.0, x0=1.0)
    assert classify(spec_t).phase == TRANSIENT_OSCILLATORY


def test_uncovered_corners_return_critical():
    # beta = 3/2 exactly with drift-free scale
    c = classify(line_in(beta=1.5, gamma=1.0, b=0.0, alpha=2.5))
    assert c.phase == CRITICAL
    assert "uncovered" in c.theorem_tag
    # b exactly at the critical threshold
    thr = closed_form_threshold(half_line(alpha=1.5))
    c2 = classify(half_line(alpha=1.5, gamma=0.5, b=thr, x0=30.0))
    assert c2.phase == CRITICAL
    # a plane quantity of exactly zero: sqrt(2)/2 + 2 (1/2) cos(3 pi / 4)
    pl = plane(alpha=1.5, p_radial=0.5, c_radial=math.sqrt(2.0), c_transverse=1.0)
    assert plane_quantity(pl) == 0.0
    c3 = classify(pl)
    assert (c3.phase, c3.theorem_tag) == (CRITICAL, "uncovered: plane threshold quantity is zero")
    # b within TIE_TOL of 0 where the drift scale dominates (gamma < alpha - 1)
    c4 = classify(half_line(alpha=1.5, gamma=0.1, b=1e-12))
    assert (c4.phase, c4.theorem_tag) == (CRITICAL, "uncovered: b at zero with dominant drift scale")


def test_rogozin_foss_split():
    assert classify(line_in(beta=1.49, gamma=1.0, alpha=2.5)).phase == TRANSIENT_OSCILLATORY
    assert classify(line_in(beta=1.51, gamma=1.0, alpha=2.5)).phase == NULL_RECURRENT


# ---------------------------------------------------------------------------
# the phase from the nu* gap: g(0) = b + c kappa(0) against the closed forms
# ---------------------------------------------------------------------------

LINE_MAKERS = {"half_line": half_line, "line_out": line_out, "line_in": line_in,
               "line_balanced": balanced}
EPS = 2.0 ** -52


def _line_spec(regime, e, c, b, x0_max=1e7):
    """The regime's spec on the critical drift scale at exponent e, tail constant
    c and drift b, at the smallest feasible x0 of 1, 10, ..., x0_max (None if none)."""
    for k in range(round(math.log10(x0_max)) + 1):
        try:
            if regime == "line_in":
                return line_in(beta=e, gamma=e - 1.0, b=b, c=c, x0=10.0 ** k)
            return LINE_MAKERS[regime](alpha=e, gamma=e - 1.0, b=b, c=c, x0=10.0 ** k)
        except HeavywalkError:
            continue
    return None


@pytest.mark.parametrize("regime", sorted(LINE_MAKERS))
def test_gap_at_zero_is_b_minus_the_closed_form_threshold(regime):
    for e in np.linspace(1.05, 1.95, 19):
        for c in (1.0, 1e3, 1e6, 1e9, 1e12):
            # at c = 1e12, b = thr is feasible from x0 = 1e8 to 1e12
            thr = closed_form_threshold(_line_spec(regime, float(e), c, 0.0))
            spec = _line_spec(regime, float(e), c, thr, x0_max=1e12)
            g0 = _gap_function(spec)[0](0.0)
            assert abs(g0 - (spec.drift.b - thr)) <= 32.0 * EPS * max(abs(thr), c), (e, c)


def test_plane_gap_at_zero_is_the_plane_quantity():
    # g(0) = p_R c_R pi cosec(pi alpha) + p_T c_T pi cosec(pi alpha / 2), which is
    # pi cosec(pi alpha) times the plane quantity
    for e in np.linspace(1.05, 1.95, 19):
        for p_radial in (0.05, 0.3, 0.5, 0.7, 0.95):
            spec = plane(alpha=float(e), p_radial=p_radial)
            g0 = _gap_function(spec)[0](0.0)
            assert abs(g0 * sf.sinpi(e) / math.pi - plane_quantity(spec)) <= 32.0 * EPS, (e, p_radial)


def test_pinned_near_threshold_spec_decides_from_the_gap():
    # g(0) = 2.79e-9 puts b just above the threshold (2.28e-9 in 50-digit
    # mpmath); the closed form puts it 1.86e-9 below, and a nu* solve there
    # raises NoRootError
    spec = balanced(alpha=1.1, gamma=0.1, b=4975793.941664949, c=1e7, x0=1e3)
    assert _gap_function(spec)[0](0.0) > TIE_TOL
    assert spec.drift.b < closed_form_threshold(spec)
    c = classify(spec)
    assert (c.phase, c.theorem_tag) == (TRANSIENT_OSCILLATORY,
                                        "line_balanced.transient.critical_drift+rate_condition")
    with pytest.raises(NoRootError):
        nu_star(spec)
    # the float sum kappa0 + kappa2 put this b 1.16e-9 above the threshold; its
    # gap is -8.21e-10 in 50-digit mpmath, inside the tie band, and the product
    # reads it within 4 ulp of c kappa (4.7e-10; measured 1.05 ulp)
    spec = balanced(alpha=1.2, gamma=0.2, b=1020765.3306919247, c=1e6, x0=1e5)
    assert abs(_gap_function(spec)[0](0.0) - -8.2076737758767608e-10) <= 4.0 * math.ulp(spec.drift.b)
    assert classify(spec).phase == CRITICAL


def _near_threshold_specs(n, seed):
    """n seeded specs within 1e-12 relative of the phase boundary: the four lines
    on the critical drift scale with c = 10^U(0, 9) and b = thr (1 +- 10^U(-16, -12)),
    each at its smallest feasible x0, and planes with c_T = 10^U(0, 9) and c_R
    placed the same way about the plane quantity's zero."""
    rng = np.random.default_rng(seed)
    regimes = (*LINE_MAKERS, "plane")
    out = []
    while len(out) < n:
        regime = regimes[len(out) % 5]
        e, c = float(rng.uniform(1.05, 1.95)), float(10.0 ** rng.uniform(0.0, 9.0))
        rel = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -12.0))
        if regime == "plane":
            p_r = float(rng.uniform(0.05, 0.95))
            c_r = -2.0 * (1.0 - p_r) * c * sf.cospi(e / 2.0) / p_r * (1.0 + rel)
            try:
                out.append(plane(alpha=e, p_radial=p_r, c_radial=c_r, c_transverse=c))
            except HeavywalkError:
                pass
            continue
        proto = _line_spec(regime, e, c, 0.0)
        spec = None if proto is None else _line_spec(regime, e, c,
                                                     closed_form_threshold(proto) * (1.0 + rel))
        if spec is not None:
            out.append(spec)
    return out


def test_near_threshold_phase_agrees_with_the_nu_star_solve():
    """classify raises no NoRootError at the boundary, and off the tie band it
    calls a spec NullRecurrent exactly when nu_star finds a root."""
    phases = []
    for spec in _near_threshold_specs(400, seed=32):
        cl = classify(spec)
        try:
            nu_star(spec)
            solved = True
        except NoRootError:
            solved = False
        if cl.phase == CRITICAL:
            assert abs(_gap_function(spec)[0](0.0)) <= TIE_TOL, spec
        else:
            assert (cl.phase == NULL_RECURRENT) == solved, spec
        phases.append(cl.phase)
    assert min(phases.count(p) for p in (CRITICAL, NULL_RECURRENT)) >= 50
    assert len(phases) - phases.count(CRITICAL) - phases.count(NULL_RECURRENT) >= 50


def test_pole_corners_raise_on_both_sides():
    # the plane's g(0) takes Gamma(1 - alpha) and kappa0(alpha, .), as the nu* solve
    # does: within 1e-12 of alpha = 2 classify raises PoleError on the transient side too
    for spec in (plane(alpha=2.0 - 5e-13, p_radial=0.1), plane(alpha=2.0 - 5e-13, p_radial=0.9)):
        with pytest.raises(PoleError):
            classify(spec)


def test_balanced_gap_has_no_pole_at_alpha_one():
    # the line_balanced kappa is one product, finite at alpha = 1 (kappa0 and kappa2
    # each have a pole there): within 1e-12 of alpha = 1 g(0) = b + c pi cot(pi alpha/2)
    # decides the phase, and nu* is the root of the 50-digit mpmath sum within 1e-12
    a = 1.0 + 5e-13
    assert classify(balanced(alpha=a, gamma=5e-13, b=1.0)).phase == TRANSIENT_OSCILLATORY
    cl = classify(balanced(alpha=a, gamma=5e-13, b=-1.0))
    assert cl.phase == NULL_RECURRENT
    g = mp.gamma
    with mp.workdps(50):
        am = mp.mpf(a)
        kappa = lambda v: ((1 - v) * g(am - v) * g(1 - am) / g(2 - v)
                           + g(v) * (g(am - v) / g(am) - (1 - am + v) * g(1 - am) / g(2 - am + v)))
        root = mp.findroot(lambda v: kappa(v) - 1, 0.2)
    assert abs(cl.nu_star - float(root)) < 1e-12


# ---------------------------------------------------------------------------
# nu* solver
# ---------------------------------------------------------------------------

def test_nu_star_half_line_martingale_anchor():
    for ai in range(1, 10):
        a = 1.0 + ai / 10.0
        ns = nu_star(half_line(alpha=a))
        assert ns.nu_star == pytest.approx(1.0, abs=1e-8)
        assert ns.residual <= 1e-10
        assert 0.0 < ns.nu_star < a


def test_nu_star_line_in_anchor():
    for b in (1.6, 1.7, 1.8, 1.9):
        ns = nu_star(line_in(beta=b, gamma=b - 1.0, alpha=2.95))
        assert ns.nu_star == pytest.approx(2.0 * b - 3.0, abs=1e-8)


def test_nu_star_balanced_anchor_and_oracle():
    for a in (1.3, 1.5, 1.7):
        ns = nu_star(balanced(alpha=a, gamma=a - 1.0))
        assert ns.nu_star == pytest.approx(a - 1.0, abs=1e-8)
        assert ns.nu_star == pytest.approx(oracle_nu_star("balanced", a), abs=1e-8)


def test_nu_star_matches_oracle_with_drift():
    ns = nu_star(half_line(alpha=1.5, gamma=0.5, b=-2.0))
    assert ns.nu_star == pytest.approx(oracle_nu_star("half_line", 1.5, b=-2.0), abs=1e-8)
    ns2 = nu_star(line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0))
    assert ns2.nu_star == pytest.approx(oracle_nu_star("line_in", 1.3, b=-3.0), abs=1e-8)


def test_nu_star_plane_matches_oracle():
    spec = plane(alpha=1.5, p_radial=0.9)
    ns = nu_star(spec)
    want = oracle_nu_star("plane", 1.5, p_radial=0.9, c_radial=1.0, c_transverse=1.0)
    assert ns.nu_star == pytest.approx(want, abs=1e-8)
    assert 0.0 < ns.nu_star < 1.0


@pytest.mark.parametrize("b", [-60.24745223723917, -53.55496441788585, -50.2087205082092])
def test_nu_star_residual_is_taken_at_nu_star(b):
    # near alpha = 1 the solver runs down to its stop on the bracket's
    # half-width, 4 eps |nu|
    spec = half_line(alpha=1.05, gamma=1.05 - 1.0, b=b)
    ns = nu_star(spec)
    g, _ = _gap_function(spec)
    assert ns.bracket[1] - ns.bracket[0] < 2e-15
    assert ns.residual == abs(g(ns.nu_star))


def test_nu_star_bracket_at_an_exact_zero():
    # the solve stops at g = 0.0 at the root alpha - 1 = 0.5, an exact zero of
    # the line_balanced product; the bracket was the stale far end
    # (nu*, 0.9788844597982629), 0.48 wide
    ns = nu_star(balanced(alpha=1.5, b=0.0))
    assert (ns.nu_star, ns.residual, ns.iterations) == (0.5, 0.0, 8)
    assert ns.bracket[0] < 0.5 < ns.bracket[1]
    assert ns.bracket[1] - ns.bracket[0] <= 8.0 * 2.0 ** -52
    # g(0) == 0.0 at b on the threshold: the early return, with nu* = 0
    ns = nu_star(line_in(gamma=0.3, b=closed_form_threshold(line_in(gamma=0.3))))
    assert (ns.nu_star, ns.bracket, ns.iterations) == (0.0, (0.0, 0.0), 0)


MPMATH_ROOT_CASES = {
    "half_line": (half_line(alpha=1.5, gamma=0.5, b=-2.0), "half_line", 1.5, {"b": -2.0}),
    "half_line_b_pos": (half_line(alpha=1.3, gamma=0.3, b=0.5, x0=10.0), "half_line", 1.3,
                        {"b": 0.5}),
    "line_out": (line_out(alpha=1.5, gamma=0.5, b=-0.5), "half_line", 1.5, {"b": -0.5}),
    "line_in": (line_in(beta=1.3, gamma=0.3, b=-3.0, x0=2.0), "line_in", 1.3, {"b": -3.0}),
    "line_balanced": (balanced(alpha=1.5, gamma=0.5, b=0.5, x0=4.0), "balanced", 1.5,
                      {"b": 0.5}),
    "plane": (plane(alpha=1.5, p_radial=0.9), "plane", 1.5,
              {"p_radial": 0.9, "c_radial": 1.0, "c_transverse": 1.0}),
    "plane_alpha_1.3": (plane(alpha=1.3, p_radial=0.85, c_transverse=0.7), "plane", 1.3,
                        {"p_radial": 0.85, "c_radial": 1.0, "c_transverse": 0.7}),
    # the three anchor families: nu* = 1, 2 beta - 3 and alpha - 1
    "half_line_anchor": (half_line(alpha=1.4), "half_line", 1.4, {}),
    "line_in_anchor": (line_in(beta=1.7, gamma=0.7, alpha=2.95), "line_in", 1.7, {}),
    "line_balanced_anchor": (balanced(alpha=1.6, gamma=0.6), "balanced", 1.6, {}),
    # b strongly negative: the root sits near the top of the bracket
    "half_line_near_top": (half_line(alpha=1.5, gamma=0.5, b=-100.0, x0=40.0), "half_line",
                           1.5, {"b": -100.0}),
}


@pytest.mark.parametrize("name", sorted(MPMATH_ROOT_CASES))
@mp.workdps(40)
def test_nu_star_matches_mpmath_root(name):
    spec, kind, exponent, kw = MPMATH_ROOT_CASES[name]
    ns = nu_star(spec)
    assert abs(ns.nu_star - oracle_nu_star(kind, exponent, **kw)) <= 1e-14
    assert ns.iterations <= 20
    assert ns.bracket[0] <= ns.nu_star <= ns.bracket[1]


@pytest.mark.parametrize("gap", [1e-7, 1e-8])
def test_nu_star_just_below_threshold(gap):
    # g(0) is the threshold gap itself, so the bracket's lower end at nu = 0
    # keeps its sign change however close to the threshold b sits
    hl = half_line(alpha=1.5, gamma=0.5, b=closed_form_threshold(half_line(alpha=1.5)) - gap, x0=40.0)
    li = line_in(beta=1.3, gamma=0.3, b=closed_form_threshold(line_in(beta=1.3)) - gap, x0=2.0)
    # at alpha = 1.5 the plane quantity is p_R c_R - sqrt(2) p_T c_T
    pl = plane(alpha=1.5, p_radial=0.5, c_radial=2.0 * gap + math.sqrt(2.0))
    assert plane_quantity(pl) == pytest.approx(gap, rel=1e-6)
    for spec in (hl, li, pl):
        c = classify(spec)
        assert c.phase == NULL_RECURRENT
        assert 0.0 < c.nu_star < 1e-6
    want = oracle_nu_star("half_line", 1.5, b=hl.drift.b, lo="1e-30")
    assert abs(classify(hl).nu_star - want) <= 1e-14
    want = oracle_nu_star("line_in", 1.3, b=li.drift.b, lo="1e-30")
    assert abs(classify(li).nu_star - want) <= 1e-14


@pytest.mark.parametrize("b", [-1e6, -1e8])
def test_nu_star_root_within_1e6_of_the_top(b):
    # g(top - 1e-6) <= 0 here (ν* is above it): the upper end moves to
    # top - 1e-8 and then to top - 1e-10, below the gap's pole at the top
    spec = half_line(alpha=1.5, gamma=0.5, b=b, x0=40.0)
    g, top = _gap_function(spec)
    assert g(top - 1e-6) <= 0.0
    c = classify(spec)
    assert c.phase == NULL_RECURRENT
    assert top - 1e-6 < c.nu_star < top
    want = oracle_nu_star("half_line", 1.5, b=b, below_top="1e-12")
    assert abs(c.nu_star - want) <= 1e-14
    ns = nu_star(spec)
    assert ns.bracket[0] <= ns.nu_star <= ns.bracket[1]



def test_root_above_the_bracket_is_a_domain_error():
    # recurrent (b far below the threshold), but g(top - 1e-10) is still
    # negative: the root lies above the bracket, which is not the transient side
    spec = half_line(alpha=1.5, gamma=0.5, b=-1e10, x0=40.0)
    g, top = _gap_function(spec)
    assert g(0.0) < 0.0 and g(top - 1e-10) <= 0.0
    with pytest.raises(DomainError, match="root lies above the bracket"):
        nu_star(spec)
    with pytest.raises(DomainError, match="root lies above the bracket"):
        classify(spec)


@pytest.mark.parametrize("alpha, p_radial", [(1.0 + 1e-7, 0.5), (1.0 + 1e-7, 0.9),
                                             (1.0 + 1e-6, 0.9), (1.0 + 1e-9, 0.5)])
@mp.workdps(40)
def test_plane_root_above_1_minus_1e6_is_bracketed_at_1(alpha, p_radial):
    # with alpha this close to 1, g(1 - 1e-6) <= 0: the upper end moves to
    # nu = 1, where kappa0(alpha, 1) = 0 and the transverse term is positive
    spec = plane(alpha=alpha, p_radial=p_radial)
    g, top = _gap_function(spec)
    assert g(0.0) < 0.0 and g(top - 1e-6) <= 0.0 < g(top)
    c = classify(spec)
    assert c.phase == NULL_RECURRENT
    want = oracle_nu_star("plane", alpha, p_radial=p_radial, c_radial=1.0, c_transverse=1.0,
                          below_top="1e-30")
    assert abs(c.nu_star - want) <= 1e-16
    ns = nu_star(spec)
    assert ns.bracket[0] <= ns.nu_star <= ns.bracket[1] <= top


def _pole_distance(z):
    """Distance from z to the nearest non-positive integer, a pole of Gamma."""
    return z if z > 0.0 else abs(z - round(z))


def _edge_specs(n, seed):
    """n seeded specs with exponents near 1 and 2 half of the time: critical
    drift b from 1e8 below the threshold to just below it, and planes."""
    rng = np.random.default_rng(seed)
    edges = (1.0 + 1e-9, 1.0 + 1e-6, 2.0 - 1e-6, 2.0 - 1e-9)
    out = []
    while len(out) < n:
        regime = ("half_line", "line_out", "line_in", "line_balanced", "plane")[len(out) % 5]
        e = float(edges[rng.integers(4)] if rng.random() < 0.5 else rng.uniform(1.0, 2.0))
        c = float(10.0 ** rng.uniform(-2.0, 0.3))
        try:
            if regime == "plane":
                out.append(plane(alpha=e, p_radial=float(rng.uniform(0.05, 0.95)), c_radial=c,
                                 c_transverse=float(rng.uniform(0.5, 2.0))))
                continue
            make = {"half_line": half_line, "line_out": line_out,
                    "line_balanced": balanced}.get(regime)
            proto = line_in(beta=e, c=c) if make is None else make(alpha=e, c=c)
            b = closed_form_threshold(proto) - float(10.0 ** rng.uniform(-8.0, 8.0))
            out.append(line_in(beta=e, gamma=e - 1.0, b=b, c=c, x0=4.0) if make is None
                       else make(alpha=e, gamma=e - 1.0, b=b, c=c, x0=4.0))
        except HeavywalkError:
            continue
    return out


def test_nu_star_gamma_arguments_stay_off_the_poles(monkeypatch):
    """nu_star calls its gap with no pole sidestep: every Gamma argument of a
    solve stays at least 1e-10 (the top's nearest bracket end, up to its
    rounding) from a pole, 100 times gamma_real's 1e-12 guard."""
    args = []
    real = sf.gamma_real

    def recorder(z):
        args.append(z)
        return real(z)

    monkeypatch.setattr(sf, "gamma_real", recorder)
    solved = 0
    for spec in _edge_specs(1000, seed=19):
        try:
            nu_star(spec)
            solved += 1
        except (NoRootError, DomainError):   # the transient side, a root above the bracket
            pass
    assert solved >= 800
    assert min(map(_pole_distance, args)) >= 1e-10 - 2.0 ** -52


def _seeded_specs(regime, n, seed):
    """n feasible seeded specs of one regime, most on the critical drift scale."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        e, b = float(rng.uniform(1.1, 1.9)), float(rng.uniform(-3.0, 1.0))
        try:
            if regime == "plane":
                out.append(plane(alpha=e, p_radial=float(rng.uniform(0.05, 0.95)),
                                 c_radial=float(rng.uniform(0.5, 2.0)),
                                 c_transverse=float(rng.uniform(0.5, 2.0))))
            else:
                make = {"half_line": half_line, "line_out": line_out,
                        "line_balanced": balanced}.get(regime)
                out.append(line_in(beta=e, gamma=e - 1.0, b=b, x0=4.0) if make is None
                           else make(alpha=e, gamma=e - 1.0, b=b, x0=4.0))
        except HeavywalkError:
            continue
    return out


def _kappa02_plain(a, nu):
    """kappa0 + kappa2 as the displayed reflection product, per call."""
    half = sf.sinpi(0.5 * nu) / nu if nu else 0.5 * math.pi
    return (2.0 / (sf.gamma_real(a) * sf.sinpi(0.5 * a)) * sf.gamma_real(1.0 + nu) * half
            * sf.gamma_real(a - nu) * sf.sinpi(0.5 * ((1.0 - a) + nu)))


# nu = 0, where kappa2 takes sin(pi nu/2)/nu as pi/2, and small nu on both signs
BAND_NUS = (0.0, 1e-7, -1e-7, 6e-6, -6e-6, 5.994e-6, 6.006e-6, 9.99e-5, -9.99e-5, 1e-4,
            1.0001e-4)


@pytest.mark.parametrize("regime", ["half_line", "line_out", "line_in", "line_balanced", "plane"])
def test_prepared_gap_matches_per_call_form_bitwise(regime):
    """_gap_function takes the nu-free Gamma factors once per solve; every value
    is the per-call b + c kappa(., nu) form's, bit for bit."""
    rng = np.random.default_rng(18)
    for spec in _seeded_specs(regime, 12, seed=len(regime)):
        g, top = _gap_function(spec)
        t, b, c = spec.tail, spec.drift.b, spec.tail.c
        if regime in ("half_line", "line_out"):
            want = lambda v: b + c * kappa0(t.alpha, v)
        elif regime == "line_in":
            want = lambda v: b + c * kappa2(t.beta, v)
        elif regime == "line_balanced":
            want = lambda v: b + c * _kappa02_plain(t.alpha, v)
        else:
            pl = spec.plane
            want = lambda v: (pl.p_radial * pl.c_radial * kappa0(t.alpha, v)
                              + (1.0 - pl.p_radial) * pl.c_transverse
                              * kappa0(t.alpha / 2.0, v / 2.0))
        for v in BAND_NUS + tuple(float(u) for u in rng.uniform(0.0, 0.999 * top, 20)):
            assert repr(g(v)) == repr(want(v)), (spec, v)


def test_nu_star_monotone_decreasing_in_b():
    prev = None
    for b in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
        ns = nu_star(half_line(alpha=1.5, gamma=0.5, b=b, x0=40.0))
        if prev is not None:
            assert ns.nu_star < prev
        prev = ns.nu_star


def test_nu_star_no_root_iff_transient_at_critical_gamma():
    for b in (3.5, 4.0, 6.0):
        spec = half_line(alpha=1.5, gamma=0.5, b=b, p_heavy=0.4, x0=200.0)
        assert classify(spec).phase == TRANSIENT
        with pytest.raises(NoRootError):
            nu_star(spec)
    for b in (-1.0, 0.5, 3.0):
        spec = half_line(alpha=1.5, gamma=0.5, b=b, p_heavy=0.4, x0=200.0)
        assert classify(spec).phase == NULL_RECURRENT
        nu_star(spec)   # must not raise


def test_plane_equation_forms_agree():
    spec = plane(alpha=1.5, p_radial=0.9)
    for v in (0.1, 0.4, 0.7, 0.95):
        direct, combo = plane_equation_forms(spec, v)
        assert direct == pytest.approx(combo, abs=1e-10)


# ---------------------------------------------------------------------------
# moment exponents
# ---------------------------------------------------------------------------

def _moment(spec):
    cl = classify(spec)
    return cl.moment_exponent, cl.boundary_inclusive


def test_moment_exponent_examples():
    q, inc = _moment(half_line(alpha=1.6, gamma=1.0))
    assert q == pytest.approx(0.625) and inc == "unknown"
    q, inc = _moment(line_in(beta=1.8, gamma=1.0, alpha=2.8))
    assert q == pytest.approx(1.0 / 3.0)
    q, inc = _moment(half_line(alpha=1.5, gamma=0.2, b=-1.0))
    assert q == pytest.approx(1.25) and inc == "infinite"
    q, inc = _moment(balanced(alpha=1.5, gamma=1.0))
    assert q == pytest.approx(1.0 - 1.0 / 1.5)


def test_moment_exponent_requires_recurrence():
    # off the recurrent phases there is no moment exponent and no inclusivity
    for spec in (line_in(beta=1.3, gamma=1.0), plane(alpha=1.5, p_radial=0.1),
                 line_in(beta=1.5, gamma=1.0)):
        cl = classify(spec)
        assert cl.phase in (TRANSIENT, TRANSIENT_OSCILLATORY, CRITICAL)
        assert _moment(spec) == (None, None) and "q_crit" not in cl.to_json()


def test_classification_json_shape():
    j = classify(line_in(beta=1.8, gamma=1.0, alpha=2.8)).to_json()
    assert j["phase"] == "NullRecurrent"
    assert j["q_crit"] == pytest.approx(1.0 / 3.0)
    assert "theorem_tag" in j
