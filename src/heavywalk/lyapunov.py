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
rounding, not sampling noise; a Monte Carlo oracle is provided for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DivergentError, DomainError
from .increments import ChainSpec, IncrementLaw, build_law
from .specialfn import (_pow_m1, kappa0, kappa1, kappa2, pareto_finite_integral,
                        pareto_tail_integral)
from .classify import classify as _classify_phase

CONVERGED_REL_TOL = 0.05   # verify_expansion: converged iff |last error| < this * |K|
MC_CHUNK = 1_000_000       # mc_drift: increments sampled per vectorized batch


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


def _f_vec(i: int, nu: float, z: np.ndarray) -> np.ndarray:
    if i in (0, 1):
        return np.where(z >= 1.0, np.maximum(z, 1.0) ** nu, 1.0)
    az = np.abs(z)
    return np.where(az >= 1.0, np.maximum(az, 1.0) ** nu, 1.0)


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


_SPLIT = 134217729.0   # 2^27 + 1: Veltkamp's split of a double into halves


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mean_pow_m1(length: float, a: float, nu: float) -> tuple[float, float]:
    """S(t) = ((1+t)^(nu+1) - 1 - (nu+1) t) / ((nu+1) t), the mean of (1+y)^nu - 1
    over (0, t), t = length/a > -1, as hi + lo: for |t| < 1/2 its series
    sum_{j>=1} nu (nu-1) ... (nu-j+1) t^j / (j+1)!, the head nu t/2 in double-double;
    else by expm1/log1p (log1p alone at nu = -1), lo = 0."""
    t = length / a
    if abs(t) >= 0.5:
        m, lp = nu + 1.0, math.log1p(t)
        return ((math.expm1(m * lp) / m if m != 0.0 else lp) - t) / t, 0.0
    p, e = _two_prod(t, a)
    head, head_lo = _two_prod(0.5 * nu, t)
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
            p, e = _two_prod(pa, s_hi)
            hi += frac * p
            lo += frac * (e + pa * s_lo)
        if y > 0.0:   # from a kink, where f_i = 1
            hi += frac * (1.0 - f_x)
        a, y = kink, end
    p, e = _two_prod(law.light_weight, hi)
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
    """Coefficient K of the |x|^(nu - exponent) fluctuation term of D_i."""
    _check_regime_i(spec, i)
    c = spec.tail.c
    a = spec.tail.alpha
    if spec.regime in ("half_line", "line_out"):
        return c * nu * kappa0(a, nu)
    if spec.regime == "line_in":
        b = spec.tail.beta
        return c * kappa1(b, nu) if i == 1 else c * nu * kappa2(b, nu)
    # balanced
    if i == 1:
        return c * (nu * kappa0(a, nu) + kappa1(a, nu))
    return c * nu * (kappa0(a, nu) + kappa2(a, nu))


def _check_lemma_range(spec: ChainSpec, i: int, nu: float) -> None:
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
    _check_regime_i(spec, i)
    _check_lemma_range(spec, i, nu)
    k_coef = expansion_coefficient(spec, i, nu) if nu != 0.0 else 0.0
    return _predicted(spec, i, nu, x, k_coef, float(spec.drift_target(x)))


def _predicted(spec: ChainSpec, i: int, nu: float, x: float, k_coef: float,
               mu: float) -> float:
    """drift_predicted at x for a checked (i, nu), given K = k_coef and the
    drift target mu = mu(x), the mean of the law at x."""
    if i in (0, 1) and x < 1.0:
        raise DomainError("one-sided expansions hold as x -> +inf (need x >= 1)")
    if abs(x) < 1.0:
        raise DomainError("expansions hold for |x| >= 1")
    if nu == 0.0:
        return 0.0
    ax = abs(x)
    sgn = math.copysign(1.0, x)
    drift_part = nu * (sgn if i == 2 else 1.0) * ax ** (nu - 1.0) * mu
    return drift_part + k_coef * ax ** (nu - spec.heavy_exponent)


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
    _check_regime_i(spec, i)
    _check_lemma_range(spec, i, nu)
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
    k_coef = expansion_coefficient(spec, i, nu)
    e = spec.heavy_exponent
    numeric, predicted, nerr = [], [], []
    for x in xs:
        scale = abs(x) ** (nu - e)
        law = build_law(spec, x)
        d = drift_numeric_law(law, i, nu, x)
        p = _predicted(spec, i, nu, x, k_coef, law.mean)
        drift_term = p - k_coef * scale
        numeric.append(d)
        predicted.append(p)
        nerr.append((d - drift_term) / scale - k_coef)
    bound = CONVERGED_REL_TOL * abs(k_coef) if k_coef != 0.0 else 1e-12
    converged = abs(nerr[-1]) < bound
    return DriftReport(i, nu, xs, numeric, predicted, nerr, k_coef, converged)


def mc_drift(spec: ChainSpec, i: int, nu: float, x: float, n: int,
             seed: int = 0) -> tuple[float, float]:
    """Monte Carlo oracle for drift_numeric: (mean, standard error) of
    f_i(x + theta) - f_i(x) over n sampled increments."""
    _check_regime_i(spec, i)
    law = build_law(spec, x)
    fx = lyapunov_f(i, nu, x if spec.regime != "half_line" else max(x, 0.0))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(MC_CHUNK, n - done)
        th = law.quantile(rng.random(m), rng.random(m))
        z = x + th
        if spec.regime == "half_line":
            z = np.maximum(z, 0.0)
        vals = _f_vec(i, nu, z) - fx
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


@dataclass
class CriteriaReport:
    """Finite-x shadow of the semimartingale drift-sign hypotheses."""

    nu: float
    probes: list[float]
    phase: str
    drifts: dict = field(default_factory=dict)          # name -> list of drift values
    all_nonpositive: dict = field(default_factory=dict)  # name -> bool


def criteria_check(spec: ChainSpec, nu: float, x_probe: Sequence[float]) -> CriteriaReport:
    """Evaluate the relevant drift signs at the probe points.

    half_line reports D0; line regimes report D2 on both sides and the
    one-sided D1 in both orientations (the mirrored orientation drives the
    directional/oscillatory criteria).  Purely diagnostic: the caller
    compares the sign pattern against the classified phase.
    """
    probes = [float(x) for x in x_probe]
    if any(x <= 0.0 for x in probes):
        raise DomainError("probe points are magnitudes; use positive values")
    phase = _classify_phase(spec).phase
    rep = CriteriaReport(nu=nu, probes=probes, phase=phase)

    def record(name, values):
        rep.drifts[name] = values
        rep.all_nonpositive[name] = all(v <= 0.0 for v in values)

    if spec.regime == "half_line":
        record("d0", [drift_numeric(spec, 0, nu, x) for x in probes])
        return rep
    record("d2_pos", [drift_numeric(spec, 2, nu, x) for x in probes])
    record("d2_neg", [drift_numeric(spec, 2, nu, -x) for x in probes])
    record("d1_pos", [drift_numeric(spec, 1, nu, x) for x in probes])
    # mirrored orientation: f1 applied to -chain, i.e. the law at -x reflected
    record("d1_neg", [drift_numeric_law(build_law(spec, -x).mirrored(), 1, nu, x)
                      for x in probes])
    return rep
