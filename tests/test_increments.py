import json
import math
from dataclasses import replace

import numpy as np
import pytest

from heavywalk import (ChainSpec, DriftParams, IncrementLaw, PlaneParams, TailParams,
                       build_law, plane_radial_law, plane_transverse_law, sample, step)
from heavywalk import specialfn as sf
from heavywalk.errors import DomainError, InfeasibleDrift, InfeasibleWeight
from heavywalk.rng import CounterStream

from conftest import balanced, half_line, line_in, line_out, plane


def quad_mean(law, tol=1e-10):
    """Quadrature oracle for the law mean: E[theta] = int T+ - int T-."""
    total = 0.0
    for sign, tail in ((1, law.tail_pos), (-1, law.tail_neg)):
        heavy, light = law.on_side(sign)
        kinks = [abs(law.scale)] if heavy else []
        if light:
            kinks.append(abs(law.light))
        if not kinks:
            continue
        top = max(kinks)
        val = sf.integrate_adaptive(tail, 0.0, top, tol) if top > 0 else 0.0
        if heavy:
            # y = top / t: the Pareto tail gives the integrable weight t^(e-2) at t = 0
            e = law.exponent
            val += sf.integrate_power_weighted(lambda t: tail(top / t) * top * t ** -e,
                                               e - 2.0, 0.0, 1.0, tol)
        total += sign * val
    return total


class CountingStream:
    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_half_line_exact_tail_and_support_point():
    spec = half_line()
    law = build_law(spec, 50.0)
    y0 = (1.0 / 0.25) ** (1.0 / 1.5)
    assert isinstance(law, IncrementLaw) and not law.two_sided
    assert law.scale == pytest.approx(y0, rel=1e-15)
    for y in (y0, 2.0 * y0, 10.0 * y0, 4000.0):
        assert law.tail_pos(y) == pytest.approx(y ** -1.5, rel=1e-14)


def test_half_line_martingale_mean_is_zero():
    law = build_law(half_line(), 123.0)
    assert law.mean == 0.0
    assert quad_mean(law) == pytest.approx(0.0, abs=1e-9)


def test_line_in_signed_mean_and_tail():
    spec = line_in(beta=1.3, gamma=0.3, b=0.2)
    law = build_law(spec, 100.0)
    assert law.tail_neg(10.0) == pytest.approx(10.0 ** -1.3, rel=1e-14)
    # drift target at x > 0 follows lim x^gamma mu(x) = b
    assert law.mean == pytest.approx(0.2 * 100.0 ** -0.3, rel=1e-14)
    assert quad_mean(law) == pytest.approx(law.mean, abs=1e-9)
    # zero drift variant
    law0 = build_law(line_in(beta=1.3), 100.0)
    assert quad_mean(law0) == pytest.approx(0.0, abs=1e-9)


def test_line_out_negative_side_target():
    spec = line_out(alpha=1.5, gamma=0.3, b=0.2)
    law = build_law(spec, -50.0)
    assert law.mean == pytest.approx(-0.2 * 50.0 ** -0.3, rel=1e-14)
    assert law.tail_neg(20.0) == pytest.approx(20.0 ** -1.5, rel=1e-14)
    assert quad_mean(law) == pytest.approx(law.mean, abs=1e-9)


def test_balanced_two_sided_exact_tails():
    spec = balanced(alpha=1.5, gamma=0.5, b=0.1)
    law = build_law(spec, 64.0)
    for y in (8.0, 30.0):
        assert law.tail_pos(y) == pytest.approx(y ** -1.5, rel=1e-13)
        assert law.tail_neg(y) == pytest.approx(y ** -1.5, rel=1e-13)
    assert quad_mean(law) == pytest.approx(0.1 * 64.0 ** -0.5, abs=1e-9)


def test_weights_sum_to_one():
    for spec, x in ((half_line(), 30.0), (line_in(), -40.0), (balanced(), 25.0)):
        law = build_law(spec, x)
        weights = [law.p, law.p, law.light_weight] if law.two_sided else [law.p, law.light_weight]
        assert sum(weights) == pytest.approx(1.0, abs=1e-15)


def test_light_side_is_bounded():
    law = build_law(half_line(), 77.0)
    # the light uniform sits on the negative side, opposite the heavy one
    assert law.light < 0.0 < law.scale
    assert law.tail_neg(-law.light + 1e-12) == 0.0


def test_clamp_region_is_tail_consistent():
    # for x beyond the light width, P[x + theta < 0] = tail_neg(x) = 0
    spec = half_line()
    law = build_law(spec, 50.0)
    width = -law.light
    assert 50.0 > width
    assert law.tail_neg(50.0) == 0.0


def test_infeasible_drift_reports_x():
    # the binding state is x_floor = max(x0, 1), for the one-sided light mean
    # and for the balanced tuner width alike
    # (the b = -1e308 light widths overflow to inf, and numpy warns of it)
    for make, kw in ((half_line, dict(gamma=0.0, b=10.0)),
                     (line_in, dict(gamma=0.5, b=-20.0, x0=5.0)),
                     (balanced, dict(gamma=0.5, b=2.5)),
                     (half_line, dict(gamma=0.5, b=-1e308)),
                     (line_out, dict(gamma=0.5, b=-1e308))):
        with np.errstate(over="ignore"), pytest.raises(InfeasibleDrift) as exc:
            make(**kw)
        assert exc.value.x == max(kw.get("x0", 1.0), 1.0)


def test_infeasible_weight():
    with pytest.raises(InfeasibleWeight):
        half_line(c=0.1, p_heavy=0.5)   # y0 < 1
    with pytest.raises(InfeasibleWeight):
        balanced(p_heavy=0.6)
    with pytest.raises(InfeasibleWeight):
        ChainSpec("half_line", TailParams(alpha=1.5), DriftParams(), 1.2)


def test_balanced_tuner_width_guard():
    with pytest.raises(InfeasibleDrift):
        balanced(gamma=0.5, b=2.5, x0=1.0)


# The earlier feasibility formulation, kept as an oracle: the light mean from
# heavy_sign / light_mean, its magnitude along the legal direction, and a scan
# of the grid [xf, 2xf, 10xf, 1e6, (1e300 if gamma > 0)].

def _oracle_sign(x):
    return np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)


def _oracle_drift_target(spec, x):
    b, g = spec.drift.b, spec.drift.gamma
    ax = np.maximum(np.abs(x), spec.x_floor())
    mag = b * ax ** (-g)
    if spec.regime == "half_line":
        return mag
    return _oracle_sign(x) * mag


def _oracle_heavy_sign(spec, x):
    sgn = _oracle_sign(x)
    return {"half_line": np.abs(sgn), "line_out": sgn, "line_in": -sgn}[spec.regime]


def _oracle_light_mean(spec, x):
    p = spec.p_heavy
    mu = _oracle_drift_target(spec, x)
    if spec.regime == "line_balanced":
        return mu / (1.0 - 2.0 * p)
    y0 = spec.heavy_scale(spec.tail.c)
    e = spec.heavy_exponent
    m_h = y0 * e / (e - 1.0)
    return (mu - _oracle_heavy_sign(spec, x) * p * m_h) / (1.0 - p)


def _oracle_check_feasible(spec):
    y0 = spec.heavy_scale(spec.tail.c)
    xf = spec.x_floor()
    grid = [xf, 2.0 * xf, 10.0 * xf, 1e6]
    if spec.drift.gamma > 0:
        grid.append(1e300)
    for x in grid:
        if spec.regime == "line_balanced":
            m = float(np.abs(_oracle_light_mean(spec, x)))
            if 2.0 * m > y0:
                raise InfeasibleDrift(
                    f"drift tuner width {2*m:.6g} exceeds y0={y0:.6g} at x={x:.6g}; "
                    "it would perturb the exact tail", x=x)
        else:
            m = float(-_oracle_heavy_sign(spec, x) * _oracle_light_mean(spec, x))
            if m <= 0.0:
                raise InfeasibleDrift(
                    f"required light-component mean {m:.6g} <= 0 at x={x:.6g}", x=x)


def _unchecked_spec(regime, tail, drift, p_heavy):
    """A ChainSpec built without __post_init__, so the oracle can judge it."""
    spec = object.__new__(ChainSpec)
    for name, value in (("regime", regime), ("tail", tail), ("drift", drift),
                        ("p_heavy", p_heavy), ("plane", None)):
        object.__setattr__(spec, name, value)
    return spec


def _outcome(fn):
    try:
        fn()
    except (InfeasibleDrift, InfeasibleWeight) as ex:
        return type(ex), str(ex), getattr(ex, "x", None)
    return None


ORACLE_STATES = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 3.7, -3.7,
                 5.0, -5.0, 1e6, -1e6, 1e300, -1e300]


def test_feasibility_matches_grid_scan_oracle():
    tails = {"half_line": dict(alpha=1.5), "line_out": dict(alpha=1.7),
             "line_in": dict(alpha=2.5, beta=1.3), "line_balanced": dict(alpha=1.5)}
    states = np.array(ORACLE_STATES)
    accepted = rejected = 0
    for regime, tail_kw in tails.items():
        for gamma in (0.0, 1e-12, 0.5, 2.0):
            for p in ((0.1, 0.25, 0.45) if regime != "line_balanced" else (0.05, 0.2, 0.45)):
                for c, x0 in ((0.3, 0.0), (1.0, 1.0), (3.0, 5.0)):
                    tail = TailParams(c=c, x0=x0, **tail_kw)
                    probe = _unchecked_spec(regime, tail, DriftParams(gamma, 0.0), p)
                    xf = probe.x_floor()
                    if _outcome(lambda: probe.heavy_scale(c)) is not None:
                        thr = 1.0   # y0 < 1: rejected before any drift is tried
                    elif regime == "line_balanced":
                        thr = probe.heavy_scale(c) * (1.0 - 2.0 * p) / 2.0 * xf ** gamma
                    else:
                        e = probe.heavy_exponent
                        hs = {"line_in": -1.0}.get(regime, 1.0)
                        thr = hs * p * probe.heavy_scale(c) * e / (e - 1.0) * xf ** gamma
                    for k in (-2.0, -1.0001, -1.0, -0.9999, 0.0, 0.5, 0.9999, 1.0,
                              1.0001, 2.0):
                        drift = DriftParams(gamma, k * thr)
                        want = _outcome(lambda: _oracle_check_feasible(
                            _unchecked_spec(regime, tail, drift, p)))
                        got = _outcome(lambda: ChainSpec(regime, tail, drift, p))
                        assert got == want, (regime, tail, drift, p)
                        if want is not None:
                            rejected += 1
                            continue
                        accepted += 1
                        spec = ChainSpec(regime, tail, drift, p)
                        lw, mu = spec.light_width(states), spec.drift_target(states)
                        assert lw.tobytes() == (2.0 * _oracle_light_mean(spec, states)).tobytes()
                        assert mu.tobytes() == _oracle_drift_target(spec, states).tobytes()
                        if k == 1.0 and c == 1.0:
                            # a float state gives a Python float with the oracle's bits
                            for x in ORACLE_STATES:
                                for got, want in (
                                        (spec.light_width(x), 2.0 * _oracle_light_mean(spec, x)),
                                        (spec.drift_target(x), _oracle_drift_target(spec, x))):
                                    assert type(got) is float and got.hex() == want.hex()
    # the sweep reaches both sides of every threshold
    assert accepted > 300 and rejected > 300


# ChainSpec's sign terms as np.where forms, the formulation before the plain
# +-1.0 arithmetic of _sign, kept as the oracle of its bits.

def _plain_y0(spec):
    """The support point from the spec's fields, not from its cached value."""
    return (spec.tail.c / spec.p_heavy) ** (1.0 / spec.heavy_exponent)


def _where_sign(spec, x):
    if spec.regime == "half_line":
        return 1.0
    return np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)


def _where_drift_magnitude(spec, x):
    b, g = spec.drift.b, spec.drift.gamma
    return b * np.maximum(np.abs(x), spec.x_floor()) ** (-g)


def _where_drift_target(spec, x):
    return _where_sign(spec, x) * _where_drift_magnitude(spec, x)


def _where_light_width(spec, x):
    p = spec.p_heavy
    mu = _where_drift_magnitude(spec, x)
    if spec.regime == "line_balanced":
        return 2.0 * (np.where(x < 0.0, -mu, mu) / (1.0 - 2.0 * p))
    e = spec.heavy_exponent
    k = {"half_line": 1.0, "line_out": 1.0, "line_in": -1.0}[spec.regime] \
        * p * (_plain_y0(spec) * e / (e - 1.0))
    if spec.regime != "half_line":
        neg = x < 0.0
        mu, k = np.where(neg, -mu, mu), np.where(neg, -k, k)
    return 2.0 * ((mu - k) / (1.0 - p))


@pytest.mark.parametrize("b", [1.0, 0.0], ids=["b", "b0"])
def test_sign_arithmetic_matches_where_oracle_bitwise(b):
    # every scalar regime, at +-0.0, +-x_floor and +-1e5, as Python floats and
    # as one array: the same bits, signed zeros included (the old _sign gave a
    # 0-d array for a float, the new one a float)
    specs = [half_line(gamma=0.5, b=-b, x0=4.0), line_out(gamma=0.5, b=-0.5 * b, x0=4.0),
             line_in(beta=1.3, gamma=0.3, b=-3.0 * b, x0=2.0),
             balanced(gamma=0.5, b=0.5 * b, x0=4.0)]
    for spec in specs:
        xf = spec.x_floor()
        xs = [0.0, -0.0, xf, -xf, 1e5, -1e5]
        if spec.regime == "half_line":
            xs = [x for x in xs if math.copysign(1.0, x) > 0.0]
        pairs = [(spec._sign, _where_sign), (spec.drift_target, _where_drift_target),
                 (spec.light_width, _where_light_width)]
        for new, old in pairs:
            for x in [*xs, np.array(xs)]:
                got, want = np.asarray(new(x)), np.asarray(old(spec, x))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (spec.regime, new.__name__, x)


def _seeded_scalar_specs(n, seed):
    """n feasible seeded specs over the four scalar regimes, drifted and not."""
    rng = np.random.default_rng(seed)
    makers = (half_line, line_out, line_in, balanced)
    out = []
    while len(out) < n:
        make = makers[len(out) % 4]
        e, c = float(rng.uniform(1.1, 1.9)), float(rng.uniform(0.5, 3.0))
        gamma, b = float(rng.choice([0.0, e - 1.0, 2.0])), float(rng.uniform(-2.0, 1.0))
        x0 = float(rng.choice([0.0, 2.0, 10.0]))
        kw = dict(beta=e) if make is line_in else dict(alpha=e)
        try:
            out.append(make(gamma=gamma, b=b, c=c, x0=x0, **kw))
        except (InfeasibleDrift, InfeasibleWeight):
            continue
    return out


def test_cached_constants_keep_the_per_call_bits():
    # y0 and k are taken once per spec, and a float state takes Python max and
    # float power: build_law's fields and the array light width keep the bits
    # of the per-call formulas (y0 recomputed, numpy max and power)
    rng = np.random.default_rng(18)
    for spec in _seeded_scalar_specs(40, seed=18):
        xf = spec.x_floor()
        xs = [0.0, -0.0, xf, -xf, 0.5 * xf, -0.5 * xf,
              *(float(v) for v in rng.choice([-1.0, 1.0], 12) * 10.0 ** rng.uniform(-1, 6, 12))]
        if spec.regime == "half_line":
            xs = [x for x in xs if math.copysign(1.0, x) > 0.0]
        states = np.array(xs)
        assert spec.light_width(states).tobytes() == _where_light_width(spec, states).tobytes()
        y0 = _plain_y0(spec)
        for x in xs:
            lw, mu = float(_where_light_width(spec, x)), float(_where_drift_target(spec, x))
            if spec.regime == "line_balanced":
                want = (spec.p_heavy, spec.tail.alpha, y0, True, lw if lw < 0.0 else abs(lw), mu)
            else:
                hs = int(_where_sign(spec, x) * {"line_in": -1.0}.get(spec.regime, 1.0))
                want = (spec.p_heavy, spec.heavy_exponent, hs * y0, False, lw, mu)
            law = build_law(spec, x)
            got = (law.p, law.exponent, law.scale, law.two_sided, law.light, law.mean)
            assert repr(got) == repr(want), (spec, x)


def test_replaced_spec_gets_its_own_constants():
    spec = line_in(beta=1.3, gamma=0.3, b=-1.0, x0=2.0)
    y0, k = spec._y0, spec._heavy_mean
    others = [replace(spec, p_heavy=0.1), replace(spec, tail=replace(spec.tail, c=3.0)),
              replace(spec, regime="line_out", tail=TailParams(alpha=1.5, x0=2.0))]
    for other in others:
        e = other.heavy_exponent
        side = -1.0 if other.regime == "line_in" else 1.0
        assert other._y0 == _plain_y0(other) != y0
        assert other._heavy_mean == side * other.p_heavy * (_plain_y0(other) * e / (e - 1.0)) != k
    assert (spec._y0, spec._heavy_mean) == (y0, k)
    # the cached y0 still refuses a support point below 1 as the spec is built
    with pytest.raises(InfeasibleWeight):
        replace(spec, tail=replace(spec.tail, c=0.05))
    with pytest.raises(InfeasibleWeight):
        replace(spec, p_heavy=0.5, tail=replace(spec.tail, c=0.4))

def test_regime_parameter_validation():
    with pytest.raises(DomainError):
        ChainSpec("half_line", TailParams(alpha=2.5), DriftParams(), 0.25)
    with pytest.raises(DomainError):
        ChainSpec("line_in", TailParams(alpha=1.2, beta=1.5), DriftParams(), 0.25)
    with pytest.raises(DomainError):
        ChainSpec("plane", TailParams(alpha=1.5), DriftParams(0.0, 0.5), 0.2,
                  PlaneParams(0.5, 1.0, 1.0))
    with pytest.raises(DomainError):
        ChainSpec("plane", TailParams(alpha=1.5), DriftParams(), 0.2)
    with pytest.raises(DomainError):
        ChainSpec("no_such", TailParams(alpha=1.5), DriftParams(), 0.2)


REFUSALS = [
    (lambda: half_line(c=0.0), DomainError, "tail constant c must be positive"),
    (lambda: half_line(x0=-1.0), DomainError, "x0 must be >= 0"),
    (lambda: half_line(gamma=-0.5), DomainError, "gamma must be >= 0"),
    (lambda: half_line(beta=1.5), DomainError, "half_line requires beta > alpha"),
    (lambda: line_out(beta=1.4), DomainError, "line_out requires beta > alpha"),
    (lambda: line_in(beta=2.2), DomainError, "line_in requires 1 < beta < 2"),
    (lambda: balanced(alpha=2.5), DomainError, "line_balanced requires 1 < alpha < 2"),
    (lambda: plane(alpha=2.5), DomainError, "plane requires 1 < alpha < 2"),
    (lambda: plane(p_radial=1.0), DomainError, "p_radial must be in"),
    (lambda: plane(c_radial=0.0), DomainError, "plane tail constants must be positive"),
    (lambda: plane(c_transverse=-1.0), DomainError, "plane tail constants must be positive"),
    (lambda: plane(p_heavy=0.5), InfeasibleWeight, "plane transverse law needs p_heavy < 1/2"),
    (lambda: build_law(half_line(), 5.0).tail_pos(-1.0), DomainError, "defined for y >= 0"),
    (lambda: plane_radial_law(half_line()), DomainError, "requires the plane regime"),
    (lambda: plane_transverse_law(balanced()), DomainError, "requires the plane regime"),
]


@pytest.mark.parametrize("make, error, message", REFUSALS,
                         ids=["c_zero", "x0_negative", "gamma_negative", "half_line_beta",
                              "line_out_beta", "line_in_beta", "balanced_alpha", "plane_alpha",
                              "p_radial_one", "c_radial_zero", "c_transverse_negative",
                              "plane_p_heavy", "tail_negative_y", "radial_law_on_line",
                              "transverse_law_on_line"])
def test_each_guard_refuses_its_case(make, error, message):
    # each message belongs to one guard, so the case fails when that guard goes
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("bad", [True, "1.5", 10 ** 400], ids=["bool", "string", "int_past_float"])
@pytest.mark.parametrize("record, name", [("tail", "c"), ("drift", "gamma"), ("plane", "c_radial"),
                                          (None, "p_heavy")])
def test_spec_fields_must_be_real_numbers(record, name, bad):
    # True was kept (to_json wrote true), a string leaked TypeError and an int
    # past the float range OverflowError; each is refused naming its field
    spec = plane()
    new = {name: bad} if record is None else {record: replace(getattr(spec, record), **{name: bad})}
    with pytest.raises(DomainError, match=rf"^{name} must be"):
        replace(spec, **new)


NON_FINITE_CASES = [(regime, field) for regime in ("half_line", "line_in")
                    for field in ("alpha", "beta", "c", "x0", "gamma", "b")] + [
    ("plane", field) for field in ("p_radial", "c_radial", "c_transverse")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("regime,field", NON_FINITE_CASES)
def test_non_finite_spec_fields_rejected(regime, field, value):
    spec = {"half_line": half_line, "line_in": line_in, "plane": plane}[regime]()
    obj = spec.to_json()
    (obj["plane"] if field in obj.get("plane", {}) else obj)[field] = value
    with pytest.raises(DomainError, match=field):
        ChainSpec.from_json(obj)


def test_config_defaults_are_the_records_defaults():
    # an entry a config leaves out takes the parameter record's default
    assert ChainSpec.from_json({"regime": "half_line"}) == ChainSpec("half_line", TailParams())
    assert TailParams().alpha == 1.5
    # null stands for a field's default only where that default is None
    assert ChainSpec.from_json({"regime": "half_line", "beta": None}).tail.beta is None
    with pytest.raises(ValueError, match="expected a number"):
        ChainSpec.from_json({"regime": "half_line", "c": None})


def test_spec_json_roundtrip():
    for spec in (half_line(gamma=0.5, b=-2.0), line_in(beta=1.7, b=0.1, gamma=0.7),
                 plane(p_radial=0.7)):
        assert ChainSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_uses_exactly_two_uniforms():
    law = build_law(half_line(), 40.0)
    stream = CountingStream([0.1, 0.5, 0.9, 0.2])
    sample(law, stream)
    assert stream.calls == 2


def test_pareto_inverse_cdf_boundary():
    law = build_law(half_line(), 40.0)
    y0 = law.scale
    # u1 in the heavy band, u2 = 1 at the inverse-CDF endpoint
    assert float(law.quantile(0.0, 1.0)) == y0


def test_empirical_tail_three_sigma():
    law = build_law(half_line(), 40.0)
    rng = np.random.default_rng(11)
    n = 10 ** 6
    th = law.quantile(rng.random(n), rng.random(n))
    y0 = law.scale
    yq = 4.0 * y0
    exact = yq ** -1.5
    emp = float((th > yq).mean())
    se = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(emp - exact) < 3.0 * se


def test_empirical_mean_three_sigma():
    law = build_law(half_line(), 40.0)
    rng = np.random.default_rng(12)
    n = 10 ** 6
    th = law.quantile(rng.random(n), rng.random(n))
    se = float(th.std() / math.sqrt(n))
    assert abs(float(th.mean()) - law.mean) < 3.0 * se


def test_mirrored_law():
    law = build_law(line_in(beta=1.4, gamma=0.4, b=0.3), 60.0)
    mir = law.mirrored()
    assert mir.mean == -law.mean
    assert mir.tail_pos(5.0) == law.tail_neg(5.0)
    assert mir.tail_neg(5.0) == law.tail_pos(5.0)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_half_line_clamps_at_zero():
    spec = half_line()
    stream = CountingStream([0.9, 1.0])   # light (negative) component, max width
    assert step(spec, 0.5, stream) == 0.0


def test_plane_step_geometry():
    spec = plane()
    st1 = step(spec, np.array([5.0, 0.0]), CountingStream([0.0, 0.0, 0.5]))
    assert st1[1] == 0.0 and st1[0] != 5.0          # radial moves along (1, 0)
    st2 = step(spec, np.array([5.0, 0.0]), CountingStream([0.99, 0.0, 0.5]))
    assert st2[0] == 5.0 and st2[1] != 0.0          # transverse along (0, 1)


def test_plane_step_uses_three_uniforms():
    spec = plane()
    stream = CountingStream([0.3, 0.3, 0.3, 0.3])
    step(spec, np.array([5.0, 0.0]), stream)
    assert stream.calls == 3


def test_plane_laws_mean_zero_and_symmetric():
    spec = plane(p_radial=0.7, c_radial=2.0, c_transverse=0.5)
    rl = plane_radial_law(spec)
    tl = plane_transverse_law(spec)
    assert quad_mean(rl) == pytest.approx(0.0, abs=1e-9)
    assert quad_mean(tl) == pytest.approx(0.0, abs=1e-12)
    for y in (3.0, 10.0):
        assert tl.tail_pos(y) == tl.tail_neg(y)
    # exact transverse tail constant
    y0t = spec.heavy_scale(0.5)
    assert tl.tail_pos(2 * y0t) == pytest.approx(0.5 * (2 * y0t) ** -1.5, rel=1e-13)


def test_plane_step_from_the_origin():
    # at r = 0 the radial direction is (1, 0) and the transverse one (0, 1)
    spec = plane()
    origin = np.array([0.0, 0.0])
    theta_r = float(plane_radial_law(spec).quantile(0.0, 0.5))
    theta_t = float(plane_transverse_law(spec).quantile(0.0, 0.5))
    assert step(spec, origin, CountingStream([0.0, 0.0, 0.5])).tolist() == [theta_r, 0.0]
    assert step(spec, origin, CountingStream([0.99, 0.0, 0.5])).tolist() == [0.0, theta_t]


def test_build_law_rejects_plane():
    with pytest.raises(DomainError):
        build_law(plane(), 5.0)


def test_step_with_counter_stream_reproducible():
    spec = half_line()
    s1 = CounterStream(99, 3)
    s2 = CounterStream(99, 3)
    xs1 = [20.0]
    xs2 = [20.0]
    for _ in range(20):
        xs1.append(step(spec, xs1[-1], s1))
        xs2.append(step(spec, xs2[-1], s2))
    assert xs1 == xs2
