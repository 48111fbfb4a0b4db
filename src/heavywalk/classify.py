"""Phase classification and critical passage-time exponents.

The classifier is exact arithmetic over the Gamma/trig threshold quantities;
the only numerics is the root nu* of the gap function, solved by Brent's
zeroin on a sign-change bracket until its half-width is at most 4 eps |nu|.
The gap is monotone by construction (kappa0 is strictly increasing on
[0, exponent), kappa2 non-decreasing on (0, exponent), and the plane
combination inherits monotonicity from kappa0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, NoRootError, NotRecurrentError
from .increments import ChainSpec
# kappa2 is unused here, but perfbench/spans.py counts classify.kappa0/kappa2 calls
from .specialfn import (cospi, cotpi, kappa0, kappa0_alt, kappa0_prepared, kappa2,  # noqa: F401
                        kappa2_prepared, sinpi)

TIE_TOL = 1e-9
NU_MAX_ITER = 200         # guard on nu_star's gap evaluations
_EPS = 2.0 ** -52        # double-precision epsilon

# phases
POSITIVE_RECURRENT = "PositiveRecurrent"
NULL_RECURRENT = "NullRecurrent"
TRANSIENT = "Transient"
TRANSIENT_DIRECTIONAL = "TransientDirectional"
TRANSIENT_OSCILLATORY = "TransientOscillatory"
CRITICAL = "Critical"

RECURRENT_PHASES = (POSITIVE_RECURRENT, NULL_RECURRENT)

# boundary inclusivity of the critical moment: is E[tau^q_crit] itself
# finite, infinite, or left open
INCLUSIVE_INFINITE = "infinite"
INCLUSIVE_UNKNOWN = "unknown"

# oscillatory-transient conclusions additionally need the O(y^-delta) rate
# strengthening; the pure-Pareto laws satisfy it with error exactly 0
_RATE_NOTE = "+rate_condition"


@dataclass(frozen=True)
class NuStarResult:
    nu_star: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


@dataclass(frozen=True)
class Classification:
    phase: str
    theorem_tag: str
    moment_exponent: Optional[float] = None
    boundary_inclusive: Optional[str] = None
    nu_star: Optional[float] = None

    @property
    def is_recurrent(self) -> bool:
        return self.phase in RECURRENT_PHASES

    def to_json(self) -> dict:
        out = {"phase": self.phase, "theorem_tag": self.theorem_tag}
        if self.moment_exponent is not None:
            out["q_crit"] = self.moment_exponent
            out["q_crit_inclusive"] = self.boundary_inclusive
        if self.nu_star is not None:
            out["nu_star"] = self.nu_star
        return out


def drift_threshold(spec: ChainSpec) -> float:
    """Critical-drift b threshold: recurrent strictly below, transient above."""
    t = spec.tail
    if spec.regime in ("half_line", "line_out"):
        return t.c * math.pi * abs(1.0 / sinpi(t.alpha))
    if spec.regime == "line_in":
        return -t.c * math.pi * cotpi(t.beta)
    if spec.regime == "line_balanced":
        return -t.c * math.pi * cotpi(t.alpha / 2.0)
    raise NotRecurrentError("plane regime has no drift threshold (zero drift)")


def plane_quantity(spec: ChainSpec) -> float:
    """Sign decides the plane phase: p_R c_R + 2 p_T c_T cos(pi alpha / 2)."""
    pl = spec.plane
    p_t = 1.0 - pl.p_radial
    return pl.p_radial * pl.c_radial + 2.0 * p_t * pl.c_transverse * cospi(spec.tail.alpha / 2.0)


def _gap_function(spec: ChainSpec) -> tuple[Callable[[float], float], float]:
    """Monotone increasing g(nu) whose root is nu*, and the upper bracket end."""
    t, b, c = spec.tail, spec.drift.b, spec.tail.c
    if spec.regime in ("half_line", "line_out"):
        k0 = kappa0_prepared(t.alpha)
        return (lambda v: b + c * k0(v)), t.alpha
    if spec.regime == "line_in":
        k2 = kappa2_prepared(t.beta)
        return (lambda v: b + c * k2(v)), t.beta
    if spec.regime == "line_balanced":
        k0, k2 = kappa0_prepared(t.alpha), kappa2_prepared(t.alpha)
        return (lambda v: b + c * (k0(v) + k2(v))), t.alpha
    # plane: zero drift, two radial/transverse kappa0 contributions
    pl = spec.plane
    p_t = 1.0 - pl.p_radial
    k0, k0_half = kappa0_prepared(t.alpha), kappa0_prepared(t.alpha / 2.0)
    return (lambda v: pl.p_radial * pl.c_radial * k0(v)
            + p_t * pl.c_transverse * k0_half(v / 2.0)), 1.0


def plane_equation_forms(spec: ChainSpec, nu: float) -> tuple[float, float]:
    """The plane nu* equation evaluated two ways: the displayed Gamma-ratio
    form and the kappa0 combination (they agree identically)."""
    pl = spec.plane
    a = spec.tail.alpha
    p_t = 1.0 - pl.p_radial
    direct = (pl.p_radial * pl.c_radial * kappa0_alt(a, nu)
              + p_t * pl.c_transverse * kappa0_alt(a / 2.0, nu / 2.0))
    combo = (pl.p_radial * pl.c_radial * kappa0(a, nu)
             + p_t * pl.c_transverse * kappa0(a / 2.0, nu / 2.0))
    return direct, combo


def nu_star(spec: ChainSpec) -> NuStarResult:
    """Solve the critical-exponent equation for the spec's regime by Brent's
    zeroin (Brent 1973, Algorithms for Minimization without Derivatives, ch. 4).

    The bracket starts at [0, top - 1e-6]; at nu = 0 the gap is exactly the
    threshold gap (b - thr on the lines, pi/sin(pi alpha) times the plane
    quantity).  On the lines g has its pole at the top, so where g(top - 1e-6)
    <= 0 < -g(0) the upper end moves to top - 1e-8, then to top - 1e-10.
    Each step is an inverse-quadratic or secant step kept strictly inside the
    current sign-change bracket, or a bisection where that would stall.  It
    stops at an exact zero of g or when the bracket's half-width is at most
    4 eps |nu|, the rounding limit of g.  `nu_star` is the best point found,
    `bracket` the final sign-change pair, `residual` |g(nu_star)| and
    `iterations` the gap evaluations after the two bracket ends.

    Raises NoRootError when g(0) > 0 (the transient side of the phase
    boundary), and DomainError when g < 0 at both ends: the root lies above
    the bracket's upper end, within 1e-10 of the top on the lines.
    """
    g, top = _gap_function(spec)
    lo, hi = 0.0, top - 1e-6
    g_lo, g_hi = g(lo), g(hi)
    if spec.regime != "plane":   # the pole at the top: move the end toward it
        for gap in (1e-8, 1e-10):
            if g_lo >= 0.0 or g_hi > 0.0:
                break
            hi, g_hi = top - gap, g(top - gap)
    if g_lo >= 0.0 or g_hi <= 0.0:
        if g_lo == 0.0 or g_hi == 0.0:
            v = lo if g_lo == 0.0 else hi
            return NuStarResult(v, (lo, hi), 0.0, 0)
        if g_lo > 0.0:
            raise NoRootError(
                f"no sign change on [{lo:.2g}, {hi:.2g}] (g={g_lo:.4g}, {g_hi:.4g}); "
                "spec sits on the transient side")
        raise DomainError(
            f"g < 0 on all of [{lo:.2g}, {top} - {top - hi:.0e}] (g={g_lo:.4g}, {g_hi:.4g}): "
            "the root lies above the bracket's upper end")
    # b is the best point, a the previous one, c the other end of the bracket
    a, fa, b, fb, c, fc = lo, g_lo, hi, g_hi, hi, g_hi
    iters = 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 4.0 * _EPS * abs(b)
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol or iters == NU_MAX_ITER:
            break
        if abs(e) > tol and abs(fb) < abs(fa):
            s = fb / fa
            if a == c:   # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:        # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q = -q if p > 0.0 else q
            p = abs(p)
            # accepted only toward c, within 3/4 of the bracket and shrinking
            e, d = (d, p / q) if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)) else (m, m)
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)
        iters += 1
    return NuStarResult(b, (min(b, c), max(b, c)), abs(fb), iters)


def _tagged(phase, tag, q=None, inclusive=None, nu=None) -> Classification:
    return Classification(phase=phase, theorem_tag=tag, moment_exponent=q,
                          boundary_inclusive=inclusive, nu_star=nu)


def classify(spec: ChainSpec) -> Classification:
    """Phase of the chain, with the critical moment exponent where recurrent.

    Deciding quantities within TIE_TOL of their thresholds give Critical with
    theorem_tag "uncovered...": boundary parameters the theory leaves open.
    """
    if spec.regime == "plane":
        q = plane_quantity(spec)
        if abs(q) <= TIE_TOL:
            return _tagged(CRITICAL, "uncovered: plane threshold quantity is zero")
        if q < 0.0:
            return _tagged(TRANSIENT, "plane.transient")
        ns = nu_star(spec)
        return _tagged(NULL_RECURRENT, "plane.null_recurrent",
                       q=ns.nu_star / spec.tail.alpha, inclusive=INCLUSIVE_UNKNOWN,
                       nu=ns.nu_star)

    t, d = spec.tail, spec.drift
    exp = spec.heavy_exponent
    crit_gamma = exp - 1.0
    directional = TRANSIENT if spec.regime == "half_line" else TRANSIENT_DIRECTIONAL
    oscillatory = TRANSIENT if spec.regime == "half_line" else TRANSIENT_OSCILLATORY
    tagbase = spec.regime

    drift_free = (d.b == 0.0)
    if not drift_free and abs(d.gamma - crit_gamma) <= TIE_TOL:
        # critical drift scale: compare b against the regime threshold
        thr = drift_threshold(spec)
        gap = d.b - thr
        if abs(gap) <= TIE_TOL:
            return _tagged(CRITICAL, "uncovered: b exactly at the critical-drift threshold")
        if gap > 0.0:
            tag = f"{tagbase}.transient.critical_drift"
            if spec.regime in ("line_in", "line_balanced"):
                tag += _RATE_NOTE
            return _tagged(oscillatory if spec.regime in ("line_in", "line_balanced") else directional, tag)
        ns = nu_star(spec)
        return _tagged(NULL_RECURRENT, f"{tagbase}.null_recurrent.critical_drift",
                       q=ns.nu_star / exp, inclusive=INCLUSIVE_UNKNOWN, nu=ns.nu_star)

    if drift_free or d.gamma > crit_gamma + TIE_TOL:
        # drift asymptotically negligible against the fluctuation term
        if spec.regime in ("half_line", "line_out"):
            return _tagged(NULL_RECURRENT, f"{tagbase}.null_recurrent.drift_negligible",
                           q=1.0 / exp, inclusive=INCLUSIVE_UNKNOWN)
        if spec.regime == "line_balanced":
            return _tagged(NULL_RECURRENT, f"{tagbase}.null_recurrent.drift_negligible",
                           q=1.0 - 1.0 / exp, inclusive=INCLUSIVE_UNKNOWN)
        # line_in: Rogozin-Foss split at beta = 3/2
        if abs(t.beta - 1.5) <= TIE_TOL:
            return _tagged(CRITICAL, "uncovered: line_in with beta = 3/2 exactly")
        if t.beta > 1.5:
            return _tagged(NULL_RECURRENT, "line_in.null_recurrent.inward_heavy",
                           q=(2.0 * t.beta - 3.0) / t.beta, inclusive=INCLUSIVE_UNKNOWN,
                           nu=2.0 * t.beta - 3.0)
        return _tagged(TRANSIENT_OSCILLATORY, "line_in.oscillatory.inward_heavy" + _RATE_NOTE)

    # gamma < exponent - 1: the drift term dominates
    if abs(d.b) <= TIE_TOL:
        return _tagged(CRITICAL, "uncovered: b at zero with dominant drift scale")
    if d.b < 0.0:
        return _tagged(POSITIVE_RECURRENT, f"{tagbase}.positive_recurrent",
                       q=exp / (d.gamma + 1.0), inclusive=INCLUSIVE_INFINITE)
    return _tagged(directional, f"{tagbase}.transient.supercritical_drift")


def moment_exponent(spec: ChainSpec) -> tuple[float, str]:
    """Critical q for E[tau_a^q] plus the inclusivity flag at q itself."""
    cl = classify(spec)
    if not cl.is_recurrent:
        raise NotRecurrentError(f"phase {cl.phase} has no passage-time moment exponent")
    return cl.moment_exponent, cl.boundary_inclusive
