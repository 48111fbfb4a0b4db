"""Numerical Lyapunov drift: exact-tail drift vs the expansion predictions.

The one-step drift E[f(x + theta) - f(x)] is evaluated from the law's exact
tail functions via the integration-by-parts representation
E[g(X)] = g(0) + int g'(y) P[X > y] dy.  Each side's Pareto term is in closed
form: the step of f over the tail's flat part [0, y0], and beyond y0
incomplete beta functions (`specialfn.pareto_tail_integral` outward,
`specialfn.pareto_finite_integral` toward the origin), so every nu below the
tail exponent is reached.  The light uniform's share is the mean of f over
its support less f(x), from the antiderivative of f piece by piece between
the kinks of f(x +- y).  No quadrature is left: the result is exact up to
rounding, not sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DivergentError, DomainError
from .increments import ChainSpec, IncrementLaw, build_law
from .specialfn import (_pow_m1, _two_product, kappa0, kappa1, pareto_finite_integral,
                        pareto_tail_integral)
from .classify import _regime_kappa

CONVERGED_REL_TOL = 0.05   # verify_expansion: converged iff |last error| < this * |K|


def lyapunov_f(i: int, nu: float, x: float) -> float:
    """The Lyapunov test functions: power |x|^nu truncated to 1 near the origin.

    i=0 lives on the half line (x >= 0); i=1 is flat left of 1; i=2 is even.
    """
    if i not in (0, 1, 2):
        raise DomainError(f"i must be 0, 1 or 2, got {i}")
    if i == 0 and x < 0.0:
        raise DomainError("f0 is defined on the half line only")
    ax = abs(x) if i == 2 else x
    return ax ** nu if ax >= 1.0 else 1.0


def _f_step(i: int, nu: float, x: float, dz: float) -> float:
    """f_i(x + dz) - f_i(x); by `_pow_m1` when both points are off the flat
    part, where the plain difference of the two powers loses about
    1e-16 |x|^nu."""
    z = x + dz
    fx, fz = (abs(x), abs(z)) if i == 2 else (x, z)
    if fx > 1.0 and fz > 1.0:
        # |z|/|x| - 1: dz/x on the same side of 0, -2 - dz/x across it
        return fx ** nu * _pow_m1(dz / x if z * x > 0.0 else -2.0 - dz / x, nu)
    return (fz ** nu if fz > 1.0 else 1.0) - (fx ** nu if fx > 1.0 else 1.0)


def _pareto_term(law: IncrementLaw, side: int, i: int, nu: float, x: float) -> float:
    """The Pareto tail's share of the drift on one jump side, in closed form:
    p [f_i(x + side y0) - f_i(x) + nu y0^e (T - F)].

    Along the jump, |z| = |X + y| with X = side*x.  The constant part of the
    tail on [0, y0] gives the step of f_i.  Beyond y0, f_i' is nonzero where
    X + y > 1 (the outward tail T = integral_{max(y0, 1-X)}^inf
    (X + y)^(nu-1) y^(-e) dy, on a side where f_i grows) and where
    X + y < -1 (the finite piece F = integral_{y0}^{c-1} (c - y)^(nu-1) y^(-e) dy,
    c = -X, toward the origin, where f_i falls with the jump); f_i' has the
    sign of side*z, which the signs of T and F carry.
    """
    p, y0, e = law.p, abs(law.scale), law.exponent
    big_x = side * x
    part = 0.0
    if i == 2 or side == +1:
        if nu >= e:
            raise DivergentError(
                f"E[f_{i}] diverges: nu={nu} >= tail exponent {e} on side {side:+d}")
        part += pareto_tail_integral(big_x, max(y0, 1.0 - big_x), nu, e)
    if (i == 2 or side == -1) and -big_x - 1.0 > y0:
        part -= pareto_finite_integral(-big_x, y0, -big_x - 1.0, nu, e)
    return p * (_f_step(i, nu, x, side * y0) + nu * y0 ** e * part)


def _mean_pow_m1(length: float, a: float, nu: float) -> tuple[float, float]:
    """S(t) = ((1+t)^(nu+1) - 1 - (nu+1) t) / ((nu+1) t), the mean of (1+y)^nu - 1
    over (0, t), t = length/a > -1, as hi + lo: for |t| < 1/2 its series
    sum_{j>=1} nu (nu-1) ... (nu-j+1) t^j / (j+1)!, the head nu t/2 in double-double;
    else by expm1/log1p (log1p alone at nu = -1), lo = 0."""
    t = length / a
    if abs(t) >= 0.5:
        m, lp = nu + 1.0, math.log1p(t)
        return ((math.expm1(m * lp) / m if m != 0.0 else lp) - t) / t, 0.0
    p, e = _two_product(t, a)
    head, head_lo = _two_product(0.5 * nu, t)
    head_lo += 0.5 * nu * ((length - p - e) / a)
    term, rest, j = head, 0.0, 1
    while abs(term) > 1e-17 * abs(head):
        term *= (nu - j) * t / (j + 2)
        rest += term
        j += 1
    hi = head + rest
    return hi, (rest - (hi - head)) + head_lo


def _light_term(law: IncrementLaw, side: int, i: int, nu: float, x: float) -> float:
    """The light uniform's share of the drift on side `side` (weight q, width
    w > 0): q (E[f_i(x + side U w)] - f_i(x)), U uniform on (0, 1), which is
    side * integral_0^w f_i'(x + side y) q (1 - y/w) dy integrated by parts.
    Cut at the kinks of f_i, a stretch of length L from a adds (L/w) |a|^nu
    S(side L/a) where f_i is a power, and (L/w) (1 - f_i(x)) if a is a kink; so
    with no kink in the way it is q |x|^nu S(side w/x), products in double-double."""
    w, even = abs(law.light), i == 2
    cuts = sorted((side * (k - x), k) for k in ((-1.0, 1.0) if even else (1.0,))
                  if 0.0 < side * (k - x) < w)
    ax = abs(x) if even else x
    f_x = ax ** nu if ax > 1.0 else 1.0
    hi = lo = 0.0
    a, y = x, 0.0
    for end, kink in cuts + [(w, None)]:
        frac, mid = (end - y) / w, a + side * (0.5 * (end - y))
        if (abs(mid) if even else mid) > 1.0:
            s_hi, s_lo = _mean_pow_m1(side * (end - y), a, nu)
            pa = abs(a) ** nu
            p, e = _two_product(pa, s_hi)
            hi += frac * p
            lo += frac * (e + pa * s_lo)
        if y > 0.0:   # from a kink, where f_i = 1
            hi += frac * (1.0 - f_x)
        a, y = kink, end
    p, e = _two_product(law.light_weight, hi)
    return p + (e + law.light_weight * lo)


# States at or beyond 2^53 round together with x +- 1, the test functions' kinks.
X_LIMIT = 2.0 ** 53


def drift_numeric_law(law: IncrementLaw, i: int, nu: float, x: float) -> float:
    """E[f_i(x + theta) - f_i(x)] for theta ~ law, in closed form: each Pareto
    side by `_pareto_term`, the light uniform by `_light_term`.  Raises
    DomainError for |x| >= X_LIMIT = 2^53."""
    if not abs(x) < X_LIMIT:
        raise DomainError(f"drift needs |x| < 2^53, where x and x +- 1 are distinct; "
                          f"got x={x!r}")
    if nu == 0.0:
        return 0.0
    total = 0.0
    for side in (+1, -1):
        heavy, light = law.on_side(side)
        if heavy:
            total += _pareto_term(law, side, i, nu, x)
        if light and law.light != 0.0:
            total += _light_term(law, side, i, nu, x)
    return total


def drift_numeric(spec: ChainSpec, i: int, nu: float, x: float) -> float:
    """One-step drift D_i(x) of the chain at state x, in closed form."""
    _check_regime_i(spec, i)
    return drift_numeric_law(build_law(spec, x), i, nu, x)


def _check_regime_i(spec: ChainSpec, i: int) -> None:
    if spec.regime == "half_line":
        if i != 0:
            raise DomainError("half_line uses the i=0 test function")
    elif spec.regime == "plane":
        raise DomainError("drift verification covers the scalar regimes only")
    elif i not in (1, 2):
        raise DomainError("line regimes use the i=1 or i=2 test functions")


def expansion_coefficient(spec: ChainSpec, i: int, nu: float) -> float:
    """Coefficient K of the |x|^(nu - exponent) fluctuation term of D_i, for nu
    in the lemma's range: c nu kappa(nu) with the regime's kappa, but c kappa1
    for i = 1 on line_in and c (nu kappa0 + kappa1) on line_balanced."""
    _check_lemma_range(spec, i, nu)
    c = spec.tail.c
    if i == 1 and spec.regime == "line_in":
        return c * kappa1(spec.tail.beta, nu)
    if i == 1 and spec.regime == "line_balanced":
        a = spec.tail.alpha
        return c * (nu * kappa0(a, nu) + kappa1(a, nu))
    return c * nu * _regime_kappa(spec)(nu)


def _check_lemma_range(spec: ChainSpec, i: int, nu: float) -> None:
    _check_regime_i(spec, i)
    t = spec.tail
    if spec.regime in ("half_line", "line_out"):
        lo = t.alpha - t.beta if t.beta is not None else -math.inf
        if not (lo < nu < t.alpha):
            raise DomainError(f"expansion requires {lo:.3g} < nu < alpha, got nu={nu}")
    else:
        # i=2 extends to (-1, 0) since the pure-Pareto tails satisfy the rate
        # condition with error exactly zero
        lo = 0.0 if i == 1 else -1.0
        e = spec.heavy_exponent
        if not (lo < nu < e):
            raise DomainError(f"expansion (i={i}) requires {lo} < nu < {e} (tail exponent), "
                              f"got nu={nu}")


def drift_predicted(spec: ChainSpec, i: int, nu: float, x: float) -> float:
    """Leading terms of the drift expansion (remainder dropped):
    the drift part nu sign(x) |x|^(nu-1) mu(x) plus K |x|^(nu - exponent)."""
    k_coef = expansion_coefficient(spec, i, nu)
    return _predicted(spec, i, nu, x, k_coef, float(spec.drift_target(x)))[0]


def _predicted(spec: ChainSpec, i: int, nu: float, x: float, k_coef: float,
               mu: float) -> tuple[float, float]:
    """drift_predicted at x for a checked (i, nu), given K = k_coef and the
    drift target mu = mu(x), the mean of the law at x, and the scale
    |x|^(nu - exponent) of its K term; x is checked before any power is taken."""
    if i in (0, 1) and not x >= 1.0:
        raise DomainError("one-sided expansions hold as x -> +inf (need x >= 1)")
    if not abs(x) >= 1.0:
        raise DomainError("expansions hold for |x| >= 1")
    ax = abs(x)
    scale = ax ** (nu - spec.heavy_exponent)
    if nu == 0.0:
        return 0.0, scale
    drift_part = nu * (math.copysign(1.0, x) if i == 2 else 1.0) * ax ** (nu - 1.0) * mu
    return drift_part + k_coef * scale, scale


@dataclass
class DriftReport:
    """Closed-form drift vs the expansion along a geometric grid."""

    i: int
    nu: float
    x_grid: list[float]
    numeric: list[float]
    predicted: list[float]
    normalized_error: list[float]
    coefficient: float
    converged: bool


def verify_expansion(spec: ChainSpec, i: int, nu: float, x_grid: Sequence[float]) -> DriftReport:
    """Check that (D_i(x) - drift term) / x^(nu-exponent) converges to the
    predicted coefficient K; converged iff the last grid point is within
    CONVERGED_REL_TOL * |K|."""
    k_coef = expansion_coefficient(spec, i, nu)
    xs = [float(x) for x in x_grid]
    if not xs:
        raise DomainError("x_grid must not be empty")
    if not all(math.isfinite(x) for x in xs):
        raise DomainError(f"x_grid must be finite, got {xs!r}")
    if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
        raise DomainError("x_grid must be increasing")
    if nu == 0.0:
        zeros = [0.0] * len(xs)
        return DriftReport(i, nu, xs, zeros, zeros, zeros, 0.0, True)
    numeric, predicted, nerr = [], [], []
    for x in xs:
        law = build_law(spec, x)
        p, scale = _predicted(spec, i, nu, x, k_coef, law.mean)
        d = drift_numeric_law(law, i, nu, x)
        drift_term = p - k_coef * scale
        numeric.append(d)
        predicted.append(p)
        nerr.append((d - drift_term) / scale - k_coef)
    bound = CONVERGED_REL_TOL * abs(k_coef) if k_coef != 0.0 else 1e-12
    converged = abs(nerr[-1]) < bound
    return DriftReport(i, nu, xs, numeric, predicted, nerr, k_coef, converged)
