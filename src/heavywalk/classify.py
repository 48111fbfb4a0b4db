"""Phase classification and critical passage-time exponents.

On the plane and on the critical drift line (b != 0) one gap function
decides the phase and gives nu*: g(nu) = b + c kappa(nu) on the lines and the
weighted kappa0 sum on the plane.  The sign of g(0) (b minus the critical-drift
threshold, or -pi |cosec pi alpha| times the plane quantity) is the phase,
and nu*, the root of g, is solved by Brent's zeroin on a sign-change bracket
until its half-width is at most 4 eps |nu|; the solve's first evaluation is
the same g(0), so the two steps cannot disagree.  The other clauses compare
b, gamma and beta with their thresholds exactly.  The gap is monotone by
construction (kappa0 is strictly increasing on [0, exponent), kappa2
non-decreasing on (0, exponent), and the plane combination inherits
monotonicity from kappa0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, NoRootError
from .increments import ChainSpec
# kappa2 is unused here, but perfbench/spans.py counts classify.kappa0/kappa2 calls
from .specialfn import (kappa0, kappa0_alt, kappa0_prepared, kappa02_prepared,  # noqa: F401
                        kappa2, kappa2_prepared)

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

    def to_json(self) -> dict:
        out = {"phase": self.phase, "theorem_tag": self.theorem_tag}
        if self.moment_exponent is not None:
            out["q_crit"] = self.moment_exponent
            out["q_crit_inclusive"] = self.boundary_inclusive
        if self.nu_star is not None:
            out["nu_star"] = self.nu_star
        return out


def _plane_weights(spec: ChainSpec) -> tuple[float, float]:
    """The plane's radial and transverse weights (p_R c_R, p_T c_T)."""
    pl = spec.plane
    return pl.p_radial * pl.c_radial, (1.0 - pl.p_radial) * pl.c_transverse


def _regime_kappa(spec: ChainSpec) -> Callable[[float], float]:
    """The regime's kappa, prepared (nu unchecked): nu* solves b + c kappa = 0
    on the lines and kappa = 0 on the plane, and K = c nu kappa(nu)."""
    t = spec.tail
    if spec.regime in ("half_line", "line_out"):
        return kappa0_prepared(t.alpha)
    if spec.regime == "line_in":
        return kappa2_prepared(t.beta)
    if spec.regime == "line_balanced":
        return kappa02_prepared(t.alpha)
    w_r, w_t = _plane_weights(spec)
    k0, k0_half = kappa0_prepared(t.alpha), kappa0_prepared(t.alpha / 2.0)
    return lambda v: w_r * k0(v) + w_t * k0_half(v / 2.0)


def _gap_function(spec: ChainSpec) -> tuple[Callable[[float], float], float]:
    """Monotone increasing g(nu) whose root is nu*, and the upper bracket end."""
    kappa = _regime_kappa(spec)
    if spec.regime == "plane":
        return kappa, 1.0
    b, c = spec.drift.b, spec.tail.c
    return (lambda v: b + c * kappa(v)), spec.heavy_exponent


def plane_equation_forms(spec: ChainSpec, nu: float) -> tuple[float, float]:
    """The plane nu* equation evaluated two ways: the displayed Gamma-ratio
    form and the kappa0 combination (they agree identically)."""
    a = spec.tail.alpha
    w_r, w_t = _plane_weights(spec)
    direct = w_r * kappa0_alt(a, nu) + w_t * kappa0_alt(a / 2.0, nu / 2.0)
    combo = w_r * kappa0(a, nu) + w_t * kappa0(a / 2.0, nu / 2.0)
    return direct, combo


def nu_star(spec: ChainSpec) -> NuStarResult:
    """Solve the critical-exponent equation for the spec's regime by Brent's
    zeroin (Brent 1973, Algorithms for Minimization without Derivatives, ch. 4).

    The bracket starts at [0, top - 1e-6]; g(0) is the gap `classify` reads
    the phase from.  Where g(top - 1e-6) <= 0 < -g(0) the upper end moves up: on
    the lines, where g has its pole at the top, to top - 1e-8, then to
    top - 1e-10; on the plane to top = 1 itself, where g = p_T c_T
    kappa0(alpha/2, 1/2) > 0 (kappa0(alpha, 1) = 0).
    Each step is an inverse-quadratic or secant step kept strictly inside the
    current sign-change bracket, or a bisection where that would stall.  It
    stops at an exact zero of g or when the bracket's half-width is at most
    4 eps |nu|, the rounding limit of g.  `nu_star` is the best point found,
    `bracket` the final sign-change pair, `residual` |g(nu_star)| and
    `iterations` the gap evaluations after the two bracket ends.  At an
    exact zero of g, `bracket` is nu_star +- 4 eps |nu_star|, the half-width
    at which the solve stops otherwise, and not a sign-change pair.

    Raises NoRootError when g(0) > 0 (the transient side of the phase
    boundary), and DomainError when g < 0 at both ends on a line: the root
    lies above the bracket's upper end, within 1e-10 of the top.
    """
    g, top = _gap_function(spec)
    lo, hi = 0.0, top - 1e-6
    g_lo, g_hi = g(lo), g(hi)
    for gap in (0.0,) if spec.regime == "plane" else (1e-8, 1e-10):
        if g_lo >= 0.0 or g_hi > 0.0:
            break
        hi, g_hi = top - gap, g(top - gap)
    if g_lo >= 0.0 or g_hi <= 0.0:
        if g_lo == 0.0 or g_hi == 0.0:
            v = lo if g_lo == 0.0 else hi
            tol = 4.0 * _EPS * abs(v)
            return NuStarResult(v, (v - tol, v + tol), 0.0, 0)
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
    bracket = (b - tol, b + tol) if fb == 0.0 else (min(b, c), max(b, c))
    return NuStarResult(b, bracket, abs(fb), iters)


def _tagged(phase, tag, q=None, inclusive=None, nu=None) -> Classification:
    return Classification(phase=phase, theorem_tag=tag, moment_exponent=q,
                          boundary_inclusive=inclusive, nu_star=nu)


def classify(spec: ChainSpec) -> Classification:
    """Phase of the chain, with the critical moment exponent where recurrent.

    Deciding quantities within TIE_TOL of their thresholds give Critical with
    theorem_tag "uncovered...": boundary parameters the theory leaves open.
    On the plane and the critical drift line the deciding quantity is g(0),
    the nu* gap at nu = 0.
    """
    t, d = spec.tail, spec.drift
    exp = spec.heavy_exponent
    crit_gamma = exp - 1.0
    on_plane = spec.regime == "plane"
    directional = TRANSIENT if spec.regime in ("half_line", "plane") else TRANSIENT_DIRECTIONAL
    tagbase = spec.regime

    drift_free = (d.b == 0.0)
    if on_plane or (not drift_free and abs(d.gamma - crit_gamma) <= TIE_TOL):
        # the nu* equation decides: g(0) > 0 is transient, g(0) < 0 has the root nu*
        g0 = _gap_function(spec)[0](0.0)
        if abs(g0) <= TIE_TOL:
            return _tagged(CRITICAL, "uncovered: plane threshold quantity is zero" if on_plane
                           else "uncovered: b exactly at the critical-drift threshold")
        scale = "" if on_plane else ".critical_drift"
        if g0 > 0.0:
            if spec.regime in ("line_in", "line_balanced"):
                return _tagged(TRANSIENT_OSCILLATORY, f"{tagbase}.transient{scale}{_RATE_NOTE}")
            return _tagged(directional, f"{tagbase}.transient{scale}")
        ns = nu_star(spec)
        return _tagged(NULL_RECURRENT, f"{tagbase}.null_recurrent{scale}",
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

