"""Identity suite behind the `selftest` CLI subcommand.

Each identity pits the library's own function against an independent route
(a closed form, quadrature, reflection, recurrence); the runner reports the
max error per identity and an overall pass flag.  A test patches
`specialfn.gamma_real` to see failures attributed to the right identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specialfn as sf
from .increments import ChainSpec, DriftParams, TailParams
from .classify import nu_star
from .rng import CounterStream

QUAD_TOL = 1e-8
BETA_GRID = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9)


@dataclass
class IdentityResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def _falls(kappa, lo: float, trim: float) -> list[tuple[float, float]]:
    """(fall, 0) pairs: each fall of kappa(e, nu) from one point to the next of
    nu = lo + k (e - trim) / 40, k = 0..40, over the exponents e of BETA_GRID."""
    pairs = []
    for e in BETA_GRID:
        vals = [kappa(e, lo + k * (e - trim) / 40.0) for k in range(41)]
        pairs += [(max(x - y, 0.0), 0.0) for x, y in zip(vals[:-1], vals[1:])]
    return pairs


def run_selftest() -> list[IdentityResult]:
    """Run every identity; returns per-identity worst errors."""
    results = []

    def check(name, pairs, tol):
        worst = max(abs(a - b) for a, b in pairs)
        results.append(IdentityResult(name, worst, tol))

    check("kappa0_at_zero",  # (1-0) G(a)G(1-a)/G(2) vs pi cosec(pi a)
          [(sf.kappa0(a, 0.0), math.pi / sf.sinpi(a)) for a in BETA_GRID], 1e-8)
    check("kappa1_at_zero", [(sf.kappa1(b, 0.0), -1.0) for b in BETA_GRID], 1e-8)
    check("kappa2_at_zero",
          [(sf.kappa2(b, 0.0), math.pi * sf.cotpi(b)) for b in BETA_GRID], 1e-8)
    check("kappa2_root",
          [(sf.kappa2(b, 2.0 * b - 3.0), 0.0) for b in BETA_GRID], 1e-8)
    check("balanced_cotangent_sum",
          [(sf.kappa0(a, 0.0) + sf.kappa2(a, 0.0), math.pi * sf.cotpi(a / 2.0))
           for a in BETA_GRID], 1e-8)
    check("kappa0_two_forms",
          [(sf.kappa0(a, v), sf.kappa0_alt(a, v))
           for a in BETA_GRID for v in (-0.5, 0.3, 0.9, a - 0.05) if abs(v - 1.0) > 1e-3], 1e-12)

    # reflection over pseudo-random points away from the poles
    stream = CounterStream(1234, 0)
    pts = []
    while len(pts) < 200:
        z = -5.0 + 10.0 * stream.random()
        if abs(z - round(z)) > 1e-3:
            pts.append(z)
    check("gamma_reflection",
          [(sf.gamma_real(z) * sf.gamma_real(1.0 - z) * sf.sinpi(z) / math.pi, 1.0)
           for z in pts], 1e-10)

    # monotonicity of the kappa coefficient functions
    check("kappa0_monotone", _falls(sf.kappa0, 0.0, 1e-3), 0.0)
    check("kappa2_nondecreasing", _falls(sf.kappa2, 0.01, 0.02), 1e-12)

    # incomplete-beta recurrence over random in-range draws of (x, p, q)
    stream = CounterStream(99, 0)
    draws = [(0.05 + 0.9 * stream.random(), 0.1 + 2.9 * stream.random(),
              -2.0 + 4.0 * stream.random()) for _ in range(100)]
    check("beta_recurrence",
          [(q * sf.incomplete_beta_ext(x, p, q),
            (p + q) * sf.incomplete_beta_ext(x, p, q + 1.0) - x ** p * (1.0 - x) ** q)
           for x, p, q in draws], 1e-8)

    # closed forms vs adaptive quadrature (fixed representative points; the
    # randomized sweep lives in the acceptance suite)
    cf_cases = {
        "positive_part": [(-0.5, 0.7, None), (-0.9, 1.5, None), (-0.2, -0.4, None)],
        "beta_const": [(0.5, 1.0, None), (-0.5, 0.3, None), (2.3, 0.1, None)],
        "beta_linear": [(-0.5, -0.5, None), (0.5, 2.3, None), (2.5, -0.9, None)],
        "negative_to": [(0.3, 0.5, 1e4), (-0.5, 1.3, 1e4), (1.7, 2.3, 1e4)],
        "negative_from": [(0.3, 0.5, 1e4), (-1.5, 0.9, 1e4), (0.05, 0.9, 1e4)],
    }
    for name, cases in cf_cases.items():
        tol = 1e-3 if name in ("negative_to", "negative_from") else 1e-6
        pairs = [(sf.closed_form_integrals(name, p, q, x),
                  sf.closed_form_integral_quad(name, p, q, x, abs_tol=QUAD_TOL))
                 for p, q, x in cases]
        check(name, pairs, tol)

    # classifier anchors: nu*(b=0) hits the known closed-form roots
    anchors = []
    for a in (1.3, 1.5, 1.7):
        spec = ChainSpec("half_line", TailParams(alpha=a, c=1.0, x0=1.0), DriftParams(a - 1.0, 0.0), 0.25)
        anchors.append((nu_star(spec).nu_star, 1.0))
    for b in (1.7, 1.9):
        spec = ChainSpec("line_in", TailParams(alpha=2.9, beta=b, c=1.0, x0=1.0),
                         DriftParams(b - 1.0, 0.0), 0.25)
        anchors.append((nu_star(spec).nu_star, 2.0 * b - 3.0))
    check("nu_star_anchors", anchors, 1e-8)
    return results
