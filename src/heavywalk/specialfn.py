"""Real-line special functions and deterministic adaptive quadrature.

Everything here is pure, with no cache: gamma and its reciprocal, the three
kappa coefficient functions that drive the drift expansions and the critical
exponent equations, the closed-form tail integrals (the drift's whole Pareto
term among them), and the Gauss-Kronrod integrator over finite intervals that
serves as their independent oracle in the selftest and the tests (classify,
nu* and the drift never run it).  The extended incomplete beta
`incomplete_beta_ext` is the drift's own hypergeometric series (DLMF 8.17.7),
at most 1.1e-15 relative from 40-digit mpmath over x in [0.05, 0.95], 0.999
and 1, p in [0.1, 3] and q in [-2, 2].  No scipy: gamma is CPython's
`math.gamma` behind a pole and range guard (at most 8.5e-16 relative from 40-digit
mpmath on [-12, 30]), and quadrature is deterministic so failures reproduce.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .errors import ConvergenceError, DomainError, PoleError

_POLE_TOL = 1e-12


def sinpi(z: float) -> float:
    """sin(pi*z) with exact range reduction (exact zeros at integers)."""
    n = round(z)
    r = z - n
    s = math.sin(math.pi * r)
    return s if n % 2 == 0 else -s


def cospi(z: float) -> float:
    """cos(pi*z); exact zeros at half-integers."""
    n = round(z)
    r = z - n
    if abs(r) == 0.5:
        return 0.0
    c = math.cos(math.pi * r)
    return c if n % 2 == 0 else -c


def cotpi(z: float) -> float:
    s = sinpi(z)
    if s == 0.0:
        raise PoleError(f"cot(pi*z) pole at z={z}")
    return cospi(z) / s


# the last argument with a finite Gamma: Gamma(GAMMA_MAX) = 1.7976931348622e308
GAMMA_MAX = 171.6243769563027


def gamma_real(z: float) -> float:
    """Euler gamma for real z: `math.gamma`, CPython's C implementation.

    Raises PoleError within 1e-12 of a non-positive integer, and DomainError
    past GAMMA_MAX, where Gamma is beyond the float range.
    """
    if z <= 0.5 and abs(z - round(z)) < _POLE_TOL and round(z) <= 0:
        raise PoleError(f"gamma pole at z={z}")
    if z > GAMMA_MAX:
        raise DomainError(f"Gamma({z!r}) is beyond the float range (z > {GAMMA_MAX})")
    return math.gamma(z)


def rgamma(z: float) -> float:
    """1 / Gamma(z): 0.0 at the non-positive integers, and copysign(inf, Gamma)
    where Gamma is a subnormal or a signed zero (z below about -171), as
    |1/Gamma| is then beyond the float range."""
    try:
        g = gamma_real(z)
    except PoleError:
        return 0.0
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


# ---------------------------------------------------------------------------
# kappa coefficient functions
# ---------------------------------------------------------------------------

def kappa0_prepared(a: float) -> Callable[[float], float]:
    """nu -> kappa0(a, nu) = (1 - nu) Gamma(a - nu) Gamma(1 - a) / Gamma(2 - nu), finite
    (zero) at nu = 1 where the reduced form kappa0_alt is 0 * inf; a is checked and
    Gamma(1 - a) taken once, and nu < a is the caller's to check."""
    if not (0.0 < a < 2.0):
        raise DomainError(f"kappa0 exponent must be in (0,2), got {a}")
    if abs(a - 1.0) < _POLE_TOL:
        raise PoleError("kappa0 pole at exponent = 1")
    g1a = gamma_real(1.0 - a)
    return lambda nu: (1.0 - nu) * gamma_real(a - nu) * g1a / gamma_real(2.0 - nu)


def kappa0(a: float, nu: float) -> float:
    """kappa0 at exponent a and finite nu < a (see kappa0_prepared)."""
    k0 = kappa0_prepared(a)
    if not (-math.inf < nu < a):
        raise DomainError(f"kappa0 requires finite nu < exponent, got nu={nu}, exponent={a}")
    return k0(nu)


def kappa0_alt(a: float, nu: float) -> float:
    """Gamma(a - nu) Gamma(1 - a) / Gamma(1 - nu): the reduced form of kappa0
    (agrees with kappa0 away from nu = 1, where this form has a 0 * inf)."""
    return gamma_real(a - nu) * gamma_real(1.0 - a) / gamma_real(1.0 - nu)


def kappa1(b: float, nu: float) -> float:
    """-(1 - b + nu) Gamma(nu + 1) Gamma(1 - b) / Gamma(2 - b + nu) for
    b = exponent; equals -1 at nu = 0."""
    if not (1.0 < b < 2.0):
        raise DomainError(f"kappa1 exponent must be in (1,2), got {b}")
    if not (-1.0 < nu < math.inf):
        raise DomainError(f"kappa1 requires finite nu > -1, got {nu}")
    return -(1.0 - b + nu) * gamma_real(nu + 1.0) * gamma_real(1.0 - b) * rgamma(2.0 - b + nu)


def kappa2_prepared(b: float) -> Callable[[float], float]:
    """nu -> kappa2(b, nu) = Gamma(nu) (Gamma(b-nu)/Gamma(b) - (1-b+nu) Gamma(1-b)/Gamma(2-b+nu))
    as the product Gamma's reflection formula (DLMF 5.5.3) gives, which does not cancel,
    2/(Gamma(b) sin(pi b)) Gamma(1+nu) [sin(pi nu/2)/nu] Gamma(b-nu) sin(pi((b-3/2) - nu/2)):
    b - 3/2 is exact, so nu = 2b - 3 is an exact zero, and sin(pi nu/2)/nu is pi/2 below
    2^-1021, where nu/2 is no normal float.  b is checked and 2/(Gamma(b) sin(pi b)) taken
    once, nu left unchecked."""
    if not (1.0 < b < 2.0):
        raise DomainError(f"kappa2 exponent must be in (1,2), got {b}")
    scale, shift = 2.0 / (gamma_real(b) * sinpi(b)), b - 1.5

    def k2(nu: float) -> float:
        half = sinpi(0.5 * nu) / nu if abs(nu) >= 2.0 ** -1021 else 0.5 * math.pi
        return scale * gamma_real(1.0 + nu) * half * gamma_real(b - nu) * sinpi(shift - 0.5 * nu)
    return k2


def kappa2(b: float, nu: float) -> float:
    """kappa2 at exponent b and -1 < nu < b (see kappa2_prepared)."""
    k2 = kappa2_prepared(b)
    if not (-1.0 < nu < b):
        raise DomainError(f"kappa2 requires -1 < nu < exponent, got nu={nu}")
    return k2(nu)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

_MAX_DEPTH = 60
_MAX_INTERVALS = 200_000


# Kronrod nodes of the GK 7-15 rule on [-1, 1] (positive half, centre last),
# their Kronrod weights, and the Gauss weights (0 at the Kronrod-only nodes)
_GK_NODES = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993944,
             0.5860872354676911, 0.4058451513773972, 0.2077849550078985, 0.0)
_GK_WK = (0.022935322010529224, 0.06309209262997855, 0.10479001032225018, 0.14065325971552592,
          0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_GK_WG = (0.0, 0.12948496616886969, 0.0, 0.2797053914892767, 0.0, 0.3818300505051189, 0.0,
          0.41795918367346935)


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7-15 panel: returns (K15 value, |K15-G7| estimate).

    The sums run from 0.0 over the pairs f(mid - half x_j) + f(mid + half x_j),
    outermost first, then the centre.  The Gauss sum keeps the zero weight of
    each Kronrod-only pair, so an inf or nan there makes the estimate nan.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    k = g = 0.0
    for node, wk, wg in zip(_GK_NODES[:-1], _GK_WK[:-1], _GK_WG[:-1]):
        pair = f(mid - half * node) + f(mid + half * node)
        k += wk * pair
        g += wg * pair
    fc = f(mid)
    k += _GK_WK[-1] * fc
    g += _GK_WG[-1] * fc
    return k * half, abs(k - g) * half


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       abs_tol: float = 1e-10) -> float:
    """Integrate f over the finite interval (a, b) to absolute tolerance abs_tol.

    Raises DomainError on a non-finite bound: slow power tails take a closed
    form (`pareto_tail_integral`).  Endpoint algebraic singularities are
    handled by bisecting toward the endpoint; an endpoint-adjacent interval
    whose whole contribution is below abs_tol/4 is accepted as is.  Raises
    ConvergenceError at subdivision depth 60.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integrate_adaptive needs finite bounds, got ({a!r}, {b!r})")
    if a == b:
        return 0.0
    if a > b:
        return -integrate_adaptive(f, b, a, abs_tol)

    # Global adaptive refinement: always split the interval with the largest
    # error estimate; stop once the summed estimate is below abs_tol.
    value, err = _gk15(f, a, b)
    active = [(-err, 0, a, b, value, 0)]   # (-err, tiebreak, lo, hi, value, depth)
    finalized_value = 0.0
    total_err = err
    counter = 1
    n_intervals = 1
    while total_err > abs_tol and active:
        neg_e, _, lo, hi, v, depth = heapq.heappop(active)
        e = -neg_e
        touches_end = (lo == a) or (hi == b)
        if touches_end and abs(v) + e <= 0.25 * abs_tol:
            # endpoint-adjacent sliver: contribution itself is negligible
            finalized_value += v
            total_err -= e
            continue
        if depth >= _MAX_DEPTH:
            raise ConvergenceError(
                f"quadrature depth limit on [{lo}, {hi}] (err={e:.3g}, total={total_err:.3g})")
        if n_intervals > _MAX_INTERVALS:
            raise ConvergenceError("quadrature interval budget exhausted")
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval no longer splittable in floating point; keep as is
            finalized_value += v
            total_err -= e
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_err += e1 + e2 - e
        heapq.heappush(active, (-e1, counter, lo, mid, v1, depth + 1))
        heapq.heappush(active, (-e2, counter + 1, mid, hi, v2, depth + 1))
        counter += 2
        n_intervals += 1
    return finalized_value + sum(item[4] for item in active)


def integrate_power_weighted(phi: Callable[[float], float], power: float,
                             lo: float, hi: float, abs_tol: float = 1e-10) -> float:
    """Integrate s^power * phi(s) over (lo, hi) with 0 <= lo < hi.

    The substitution w = s^(1+power) removes the algebraic endpoint weight, so
    phi only ever needs to be smooth.  Requires power > -1 when lo == 0.
    """
    aexp = 1.0 + power
    if lo == 0.0 and aexp <= 0.0:
        raise DomainError(f"power weight s^{power} not integrable at 0")
    if aexp == 0.0:
        return integrate_adaptive(lambda s: phi(s) / s, lo, hi, abs_tol)
    w_lo = 0.0 if lo == 0.0 else math.pow(lo, aexp)
    w_hi = math.pow(hi, aexp)
    inv = 1.0 / aexp
    g = lambda w: phi(math.pow(w, inv))
    return (1.0 / abs(aexp)) * integrate_adaptive(g, min(w_lo, w_hi), max(w_lo, w_hi), abs_tol * abs(aexp))


def _beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b off the poles of Gamma,
    by `math.gamma` without gamma_real's pole guard: 0.0 where a + b is a pole, as
    1/Gamma is 0 there, and DomainError where a, b or a + b is past GAMMA_MAX."""
    s = a + b
    if s <= 0.0 and s == round(s):
        return 0.0
    if a > GAMMA_MAX or b > GAMMA_MAX or s > GAMMA_MAX:
        raise DomainError(f"B({a!r}, {b!r}) takes Gamma beyond the float range (> {GAMMA_MAX})")
    return math.gamma(a) * math.gamma(b) / math.gamma(s)


# series term counts as floats: float-float arithmetic is faster, with the same values
_COUNTS = tuple(float(n) for n in range(1, 4096))


def _beta_series(z: float, p: float, q: float) -> float:
    """B_z(p, q) / z^p = sum_n (1-q)_n z^n / (n! (p+n)) for 0 <= z <= 1/2
    (DLMF 8.17.7), summed until a term is below 1e-17 of the sum."""
    acc, t = 1.0 / p, 1.0
    for n in _COUNTS:
        t *= (n - q) * z / n
        term = t / (p + n)
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            break
    return acc


def pareto_tail_integral(x: float, upper: float, nu: float, e: float) -> float:
    """integral_upper^inf (x + y)^(nu-1) y^(-e) dy in closed form (DLMF 8.17), for
    upper > 0, x + upper > 0, 1 < e < 2 and 0 != nu < e (nu > -1 if x < 0).

    With a = e - nu it is x^-a B_z(a, 1-e), z = x/(x+upper), for x >= 0, and
    |x|^-a B_z(a, nu), z = |x|/upper, for x < 0: for z <= 1/2, (x+upper)^-a or
    upper^-a times `_beta_series`; otherwise |x|^-a (B(a, b) - B_{1-z}(b, a)) with
    1 - z = upper/(x+upper) or (upper+x)/upper, which cancels to about
    1e-15/|nu| relative as b = nu -> 0.
    """
    if not (upper > 0.0 and x + upper > 0.0 and 1.0 < e < 2.0 and 0.0 != nu < e
            and (x >= 0.0 or nu > -1.0)):
        raise DomainError(f"pareto_tail_integral: x={x!r}, upper={upper!r}, nu={nu!r}, e={e!r}")
    a = e - nu
    if x >= 0.0:
        b, num, den, rest = 1.0 - e, x, x + upper, upper
    else:
        b, num, den, rest = nu, -x, upper, upper + x
    z = num / den
    if z <= 0.5:
        return den ** -a * _beta_series(z, a, b)
    w = rest / den
    # a + b is a pole of Gamma only at 0, which only nu = 1 gives
    return num ** -a * (_beta(a, b) - w ** b * _beta_series(w, b, a))


def _pow_diff(z1: float, z2: float, k: float) -> float:
    """(z2^k - z1^k) / k for 0 < z1 <= z2 (log(z2/z1) at k = 0), as the larger
    power times expm1 of -|k| log(z2/z1), which stays exact as k -> 0."""
    lr = math.log(z2 / z1)
    if k > 0.0:
        return -z2 ** k * math.expm1(-k * lr) / k
    if k < 0.0:
        return z1 ** k * math.expm1(k * lr) / k
    return lr


def _beta_between(z1: float, z2: float, p: float, q: float) -> float:
    """integral_z1^z2 u^(p-1) (1-u)^(q-1) du for 0 < z1 <= z2 <= 1/2 and any real
    p, q: the series of `_beta_series` integrated term by term,
    sum_n (1-q)_n / n! (z2^(p+n) - z1^(p+n)) / (p+n), summed until a term is below
    1e-17 of the sum.  A term with |p+n| < 1 takes `_pow_diff`; the others take
    the plain difference, whose rounding is below 1e-16 of z2^(p+n)."""
    acc = _pow_diff(z1, z2, p)
    c, u1, u2 = 1.0, z1 ** p, z2 ** p
    for n in _COUNTS:
        c *= (n - q) / n
        u1 *= z1
        u2 *= z2
        k = p + n
        term = c * ((u2 - u1) / k if abs(k) >= 1.0 else _pow_diff(z1, z2, k))
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            break
    return acc


def pareto_finite_integral(c: float, lo: float, hi: float, nu: float, e: float) -> float:
    """integral_lo^hi (c - y)^(nu-1) y^(-e) dy in closed form (DLMF 8.17), for
    0 < lo < hi < c, 1 < e < 2 and any real nu.

    With y = c t and a = 1 - e it is c^(nu-e) [B_{hi/c}(a, nu) - B_{lo/c}(a, nu)].
    When lo/c < 1/2 < hi/c, B_{hi/c}(a, nu) is the reflection
    B(a, nu) - B_s(nu, a), s = (c - hi)/c, and both small-argument betas are
    `_beta_series` sums; 1/Gamma(a + nu) is 0 where a + nu is a pole
    (nu = e - 1 or e - 2).  This cancels to about 1e-16/|nu| of B(a, nu) as
    nu -> 0, and is taken for nu > -1 only.  Otherwise the integral is
    summed piecewise by `_beta_between`, in t up to 1/2 and in s = 1 - t
    beyond, to about 1e-15 relative for every nu.
    """
    if not (0.0 < lo < hi < c and 1.0 < e < 2.0):
        raise DomainError(f"pareto_finite_integral: c={c!r}, lo={lo!r}, hi={hi!r}, e={e!r}")
    a = 1.0 - e
    t_lo, t_hi = lo / c, hi / c
    if t_lo < 0.5 < t_hi and -1.0 < nu != 0.0:
        s = (c - hi) / c
        acc = (_beta(a, nu) - s ** nu * _beta_series(s, nu, a)
               - t_lo ** a * _beta_series(t_lo, a, nu))
    else:
        acc = 0.0
        if t_lo < 0.5:
            acc += _beta_between(t_lo, min(t_hi, 0.5), a, nu)
        if t_hi > 0.5:
            acc += _beta_between((c - hi) / c, min((c - lo) / c, 0.5), nu, a)
    return c ** (nu - e) * acc


# ---------------------------------------------------------------------------
# Extended incomplete beta
# ---------------------------------------------------------------------------


def incomplete_beta_ext(x: float, p: float, q: float) -> float:
    """B_x(p, q) = integral_0^x u^(p-1) (1-u)^(q-1) du for 0 <= x < 1, p > 0 and
    any real q, and B(p, q) at x = 1 when q > 0: x^p `_beta_series`(x, p, q) up
    to x = 1/2, and B_{1/2}(p, q) + `_beta_between`(1 - x, 1/2, q, p) beyond."""
    if not (math.isfinite(x) and math.isfinite(p) and math.isfinite(q)):
        raise DomainError(f"incomplete_beta_ext needs finite arguments, got x={x}, p={p}, q={q}")
    if p <= 0.0:
        raise DomainError(f"incomplete_beta_ext requires p > 0, got {p}")
    if x < 0.0 or x > 1.0 or (x == 1.0 and q <= 0.0):
        raise DomainError(f"incomplete_beta_ext domain violation: x={x}, q={q}")
    if x <= 0.5:
        return x ** p * _beta_series(x, p, q)
    if x == 1.0:
        return _beta(p, q)
    return 0.5 ** p * _beta_series(0.5, p, q) + _beta_between(1.0 - x, 0.5, q, p)


_SPLIT = 134217729.0   # 2^27 + 1: Veltkamp's split of a double into halves


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971), for floats
    or arrays whose products neither overflow nor underflow."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _pow_m1(u: float, e: float) -> float:
    """(1+u)^e - 1 without cancellation (u > -1)."""
    return math.expm1(e * math.log1p(u))


# ---------------------------------------------------------------------------
# Closed-form appendix integrals and their quadrature counterparts
# ---------------------------------------------------------------------------

_CF_NAMES = ("positive_part", "negative_to", "negative_from", "beta_const", "beta_linear")


def _validate_cf(name: str, p: float, q: float, x: float | None) -> None:
    if name == "positive_part":
        if not (-1.0 < p < 0.0 and p + q < 1.0):
            raise DomainError(f"positive_part requires -1<p<0 and p+q<1, got p={p}, q={q}")
    elif name == "negative_to":
        if not (p > -1.0 and p != 0.0 and q > -1.0 and q != 0.0):
            raise DomainError(f"negative_to requires p>-1, p!=0, q>-1, q!=0, got p={p}, q={q}")
        if x is None or x <= 1.0:
            raise DomainError("negative_to requires x > 1")
    elif name == "negative_from":
        if not (q > -1.0 and q != 0.0 and p + q < 1.0):
            raise DomainError(f"negative_from requires q>-1, q!=0, p+q<1, got p={p}, q={q}")
        if x is None or x <= 0.0:
            raise DomainError("negative_from requires x > 0")
    elif name == "beta_const":
        if not (p > -1.0 and p != 0.0 and q > 0.0):
            raise DomainError(f"beta_const requires p>-1, p!=0, q>0, got p={p}, q={q}")
    elif name == "beta_linear":
        if not (p > -1.0 and p not in (0.0, 1.0) and q > -1.0):
            raise DomainError(f"beta_linear requires p>-1, p not in {{0,1}}, q>-1, got p={p}, q={q}")
    else:
        raise DomainError(f"unknown closed-form integral {name!r}; expected one of {_CF_NAMES}")


def closed_form_integrals(name: str, p: float, q: float, x: float | None = None) -> float:
    """Closed-form value of the named tail integral (o(1) terms dropped for
    the x-dependent forms).

    positive_part : integral_0^inf u^(p-1) ((1+u)^(q-1) - 1) du
    negative_to   : integral_0^(1-1/x) u^(p-1) ((1-u)^(q-1) - 1) du
    negative_from : integral_(1+1/x)^inf u^(p-1) (u-1)^(q-1) du
    beta_const    : lim_(x->1) integral_0^x u^(p-1) ((1-u)^(q-1) - 1) du
    beta_linear   : lim_(x->1) integral_0^x u^(p-2) ((1-u)^q + q u - 1) du

    gamma_real is read at each call, so a test injects a fault by patching it.
    """
    _validate_cf(name, p, q, x)
    gamma = gamma_real
    if name == "positive_part":
        return (1.0 - q) * gamma(1.0 - p - q) * gamma(p) / gamma(2.0 - q)
    if name == "negative_to":
        return (-math.pow(x, -q) / q
                + (p + q) * (p + q + 1.0) * gamma(p) * gamma(q) / gamma(p + q + 2.0)
                - 1.0 / p)
    if name == "negative_from":
        return (-math.pow(x, -q) / q
                + (1.0 - p) * gamma(1.0 - p - q) * gamma(q) / gamma(2.0 - p))
    if name == "beta_const":
        return (p + q) * gamma(p) * gamma(q) / gamma(p + q + 1.0) - 1.0 / p
    # beta_linear
    return ((p + q) * (p + q + 1.0) * gamma(p - 1.0) * gamma(q + 1.0) / gamma(p + q + 2.0)
            + q / p - 1.0 / (p - 1.0))


def _phi_one_plus(q: float) -> Callable[[float], float]:
    # ((1+u)^(q-1) - 1) / u, smooth at 0 with value q-1
    def phi(u: float) -> float:
        return _pow_m1(u, q - 1.0) / u
    return phi


def _phi_one_minus(q: float) -> Callable[[float], float]:
    # ((1-u)^(q-1) - 1) / u, smooth at 0 with value 1-q
    def phi(u: float) -> float:
        return _pow_m1(-u, q - 1.0) / u
    return phi


def _chi_linear(q: float) -> Callable[[float], float]:
    # ((1-u)^q + q u - 1) / u^2; series branch for small u where the direct
    # form loses the O(u^2) remainder to cancellation
    def chi(u: float) -> float:
        if u < 0.05:
            # sum_{k>=2} C(q,k) (-u)^k / u^2, coefficients by recurrence
            c = q * (q - 1.0) / 2.0          # C(q,2) (-1)^2
            acc = 0.0
            upow = 1.0
            for k in range(2, 40):
                acc += c * upow
                c *= -(q - k) / (k + 1.0)
                upow *= u
                if abs(c * upow) < 1e-18 * max(1.0, abs(acc)):
                    break
            return acc
        return (_pow_m1(-u, q) + q * u) / (u * u)
    return chi


def closed_form_integral_quad(name: str, p: float, q: float, x: float | None = None,
                              abs_tol: float = 1e-8) -> float:
    """Adaptive-quadrature evaluation of the defining integral behind
    closed_form_integrals(name, ...); the independent oracle side.

    Endpoint power singularities are removed by explicit substitutions before
    the integrator sees them, so this stays accurate across the whole stated
    parameter ranges.
    """
    _validate_cf(name, p, q, x)
    tol = abs_tol / 4.0
    if name == "positive_part":
        left = integrate_power_weighted(_phi_one_plus(q), p, 0.0, 1.0, tol)
        # tail after u -> 1/v: integral_0^1 (1+v)^(q-1) v^(-p-q) dv - (-1/p)
        tail_main = integrate_power_weighted(
            lambda v: math.pow(1.0 + v, q - 1.0), -p - q, 0.0, 1.0, tol)
        return left + tail_main + 1.0 / p
    if name == "negative_to" and 1.0 - 1.0 / x <= 0.5:
        return integrate_power_weighted(_phi_one_minus(q), p, 0.0, 1.0 - 1.0 / x, tol)
    if name in ("beta_const", "negative_to"):
        # up to u = 1 - s_lo, split at u = 1/2 and taken in s = 1 - u beyond
        s_lo = 0.0 if name == "beta_const" else 1.0 / x
        left = integrate_power_weighted(_phi_one_minus(q), p, 0.0, 0.5, tol)
        right_sing = integrate_power_weighted(
            lambda s: math.pow(1.0 - s, p - 1.0), q - 1.0, s_lo, 0.5, tol)
        right_smooth = integrate_adaptive(
            lambda s: math.pow(1.0 - s, p - 1.0), s_lo, 0.5, tol)
        return left + right_sing - right_smooth
    if name == "beta_linear":
        left = integrate_power_weighted(_chi_linear(q), p, 0.0, 0.5, tol)
        right_sing = integrate_power_weighted(
            lambda s: math.pow(1.0 - s, p - 2.0), q, 0.0, 0.5, tol)
        right_plain = integrate_adaptive(
            lambda s: math.pow(1.0 - s, p - 2.0) * (q * (1.0 - s) - 1.0), 0.0, 0.5, tol)
        return left + right_sing + right_plain
    # negative_from: u = 1 + s, split at s = 1, invert the far piece
    s_lo = 1.0 / x
    near = integrate_power_weighted(
        lambda s: math.pow(1.0 + s, p - 1.0), q - 1.0, s_lo, 1.0, tol)
    far = integrate_power_weighted(
        lambda v: math.pow(1.0 + v, p - 1.0), -p - q, 0.0, 1.0, tol)
    return near + far
