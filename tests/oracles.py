"""Oracles for the tests: the library's numbers are checked against them.
Import them as the tests import conftest: `from oracles import mc_drift`.

`mc_drift` estimates the one-step drift E[f_i(x + theta) - f_i(x)] that
`heavywalk.lyapunov.drift_numeric` gives in closed form; it draws from numpy's
generator, not the counter streams.  `closed_form_threshold` and
`plane_quantity` are the paper's phase boundaries in closed form, which
`classify` reads as g(0), the nu* gap at nu = 0.
"""

import math

import numpy as np

from heavywalk.classify import _plane_weights
from heavywalk.increments import ChainSpec, build_law
from heavywalk.lyapunov import _check_regime_i, lyapunov_f
from heavywalk.rng import checked_seed, integer_in
from heavywalk.specialfn import cospi, cotpi, sinpi

MC_CHUNK = 1_000_000       # mc_drift: increments sampled per vectorized batch


def _f_vec(i: int, nu: float, z: np.ndarray) -> np.ndarray:
    if i in (0, 1):
        return np.where(z >= 1.0, np.maximum(z, 1.0) ** nu, 1.0)
    az = np.abs(z)
    return np.where(az >= 1.0, np.maximum(az, 1.0) ** nu, 1.0)


def mc_drift(spec: ChainSpec, i: int, nu: float, x: float, n: int,
             seed: int = 0) -> tuple[float, float]:
    """Monte Carlo oracle for drift_numeric: (mean, standard error) of
    f_i(x + theta) - f_i(x) over n sampled increments."""
    _check_regime_i(spec, i)
    n = integer_in("sample count n", n, 1, math.inf)
    # numpy's generator keeps its samples; the seed follows every stream's rule
    rng = np.random.default_rng(checked_seed(seed))
    law = build_law(spec, x)
    fx = lyapunov_f(i, nu, x if spec.regime != "half_line" else max(x, 0.0))
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


def closed_form_threshold(spec: ChainSpec) -> float:
    """The critical-drift b threshold on a line, recurrent below and transient
    above: c pi |cosec pi alpha|, -c pi cot(pi beta) or -c pi cot(pi alpha / 2)."""
    t = spec.tail
    if spec.regime in ("half_line", "line_out"):
        return t.c * math.pi * abs(1.0 / sinpi(t.alpha))
    if spec.regime == "line_in":
        return -t.c * math.pi * cotpi(t.beta)
    if spec.regime == "line_balanced":
        return -t.c * math.pi * cotpi(t.alpha / 2.0)
    raise ValueError("the plane has no drift threshold (zero drift)")


def plane_quantity(spec: ChainSpec) -> float:
    """The plane's phase quantity p_R c_R + 2 p_T c_T cos(pi alpha / 2):
    recurrent where positive, transient where negative."""
    w_r, w_t = _plane_weights(spec)
    return w_r + 2.0 * w_t * cospi(spec.tail.alpha / 2.0)
