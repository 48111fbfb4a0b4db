"""State-dependent increment laws with exact power tails and drift targets.

Every law has one shape, held by the flat record IncrementLaw: a Pareto
side, on the two-sided laws its mirror image, and a light uniform.  A Pareto
side is an exact tail beyond a support point y0 chosen so that
p * P[jump > y] = c * y^(-exponent) holds identically for y >= y0, and the
light uniform's mean is solved in closed form so the total mean hits the
drift target exactly.  Closed-form tails and means make the drift and the
property tests exact rather than asymptotic.  IncrementLaw.quantile draws
through _quantile, the one sampler, which the simulation engine shares.

A spec is feasible when its laws can be built: build_law alone rejects an
illegal light side, and a ChainSpec builds its law at x_floor, the binding state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, InfeasibleDrift, InfeasibleWeight

REGIMES = ("half_line", "line_out", "line_in", "line_balanced", "plane")

# Uniform draws of exactly 0 would map to an infinite Pareto jump; clip at
# the resolution of the 53-bit stream instead.
_U_MIN = 2.0 ** -53

# Direction of the heavy Pareto side at x > 0 on the one-heavy-side regimes.
_HEAVY_SIDE = {"half_line": 1.0, "line_out": 1.0, "line_in": -1.0}


def _is_real(value) -> bool:
    """The one real-number test: an int, a float or a numpy real scalar, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """The one finiteness test for a real number (`_is_real`): nan, inf and an int
    past the float range fail (`math.isfinite` raises OverflowError on such an int;
    comparing with the largest float would pass a numpy float32 inf)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _real(value) -> float:
    """A number from a JSON config as a float; booleans and strings raise ValueError."""
    if not _is_real(value):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _record(cls, obj: dict):
    """A parameter record from the config entries named by its fields, each a
    JSON number, or null where the field's default is None; absent fields
    take the record's defaults, and a field with none raises KeyError."""
    return cls(**{f.name: None if obj[f.name] is None and f.default is None else _real(obj[f.name])
                  for f in fields(cls) if f.name in obj or f.default is MISSING})


@dataclass(frozen=True)
class TailParams:
    """Tail exponents and constant: alpha / beta roles depend on the regime."""

    alpha: float = 1.5
    beta: Optional[float] = None
    c: float = 1.0
    x0: float = 1.0


@dataclass(frozen=True)
class DriftParams:
    gamma: float = 0.0
    b: float = 0.0


@dataclass(frozen=True)
class PlaneParams:
    p_radial: float
    c_radial: float
    c_transverse: float


@dataclass(frozen=True)
class ChainSpec:
    """Full model description; validated and feasibility-checked on creation."""

    regime: str
    tail: TailParams
    drift: DriftParams = field(default_factory=DriftParams)
    p_heavy: float = 0.25
    plane: Optional[PlaneParams] = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}")
        t, d = self.tail, self.drift
        values = {**vars(t), **vars(d), "p_heavy": self.p_heavy,
                  **(vars(self.plane) if self.plane is not None else {})}
        for k, v in values.items():
            if v is not None and not _is_real(v):
                raise DomainError(f"{k} must be a real number, got {v!r}")
        bad = [k for k, v in values.items() if v is not None and not _is_finite(v)]
        if bad:
            raise DomainError(f"{', '.join(bad)} must be finite")
        if t.c <= 0.0:
            raise DomainError("tail constant c must be positive")
        if t.x0 < 0.0:
            raise DomainError("x0 must be >= 0")
        if d.gamma < 0.0:
            raise DomainError("gamma must be >= 0")
        if not (0.0 < self.p_heavy < 1.0):
            raise InfeasibleWeight(f"p_heavy must be in (0,1), got {self.p_heavy}")
        e = self.heavy_exponent
        if e is None or not 1.0 < e < 2.0:
            name = "beta" if self.regime == "line_in" else "alpha"
            raise DomainError(f"{self.regime} requires 1 < {name} < 2")
        if self.regime in ("half_line", "line_out"):
            if t.beta is not None and t.beta <= t.alpha:
                raise DomainError(f"{self.regime} requires beta > alpha")
        elif self.regime == "line_in":
            if t.alpha <= t.beta:
                raise DomainError("line_in requires alpha > beta")
        elif self.regime == "line_balanced":
            if self.p_heavy >= 0.5:
                raise InfeasibleWeight("line_balanced needs p_heavy < 1/2 (one heavy component per side)")
        elif self.regime == "plane":
            if self.plane is None:
                raise DomainError("plane regime requires plane parameters")
            pl = self.plane
            if not (0.0 < pl.p_radial < 1.0):
                raise DomainError("p_radial must be in (0,1)")
            if pl.c_radial <= 0.0 or pl.c_transverse <= 0.0:
                raise DomainError("plane tail constants must be positive")
            if d.b != 0.0:
                raise DomainError("plane regime is zero-drift (b must be 0)")
            if self.p_heavy >= 0.5:
                raise InfeasibleWeight("plane transverse law needs p_heavy < 1/2")
        self._check_feasible()

    # -- derived quantities ------------------------------------------------

    @property
    def heavy_exponent(self) -> float:
        """Exponent of the exactly-Pareto (heavy) side for this regime."""
        return self.tail.beta if self.regime == "line_in" else self.tail.alpha

    def heavy_scale(self, c: float) -> float:
        """Support point y0 = (c / p_heavy)^(1/heavy_exponent) of a tail of constant c."""
        y0 = (c / self.p_heavy) ** (1.0 / self.heavy_exponent)
        if y0 < 1.0:
            raise InfeasibleWeight(
                f"heavy support point y0={y0:.6g} < 1 (c={c}, p_heavy={self.p_heavy})")
        return y0

    @cached_property
    def _y0(self) -> float:
        return self.heavy_scale(self.tail.c)

    @cached_property
    def _heavy_mean(self) -> float:
        """k, the heavy side's share of the mean at x >= 0: side p y0 e / (e - 1)."""
        e = self.heavy_exponent
        return _HEAVY_SIDE[self.regime] * self.p_heavy * (self._y0 * e / (e - 1.0))

    def x_floor(self) -> float:
        return max(self.tail.x0, 1.0)

    def _sign(self, x):
        """-1.0 where x < 0, else +1.0 (sign(0) := +1); always +1.0 on the half
        line.  Plain arithmetic, exact on Python floats and arrays alike."""
        if self.regime == "half_line":
            return 1.0
        return 1.0 - 2.0 * (x < 0.0)

    def _drift_magnitude(self, x):
        """b max(|x|, x_floor)^(-gamma): mu(x) where x >= 0, -mu(x) where x < 0."""
        b, g, xf = self.drift.b, self.drift.gamma, self.x_floor()
        ax = max(abs(x), xf) if isinstance(x, float) else np.maximum(abs(x), xf)
        return b * ax ** (-g)

    def drift_target(self, x):
        """mu(x): +-b |x|^(-gamma) with the magnitude clamped below x_floor.

        Works on scalars and numpy arrays.
        """
        return self._sign(x) * self._drift_magnitude(x)

    def light_width(self, x):
        """Signed width of the light uniform at state x (vectorizable): twice the
        mean that makes the mixture mean drift_target(x) exactly.  A feasible law
        points it opposite the heavy side, _sign(x) * _HEAVY_SIDE[regime].

        Taken per sign: the drift magnitude and k, the heavy side's share of the
        mean, are multiplied by _sign(x) = +-1.0.  That is an exact negation
        where x < 0, so the widths are bit for bit the per-sign formulas."""
        return self._light_width(self._sign(x), self._drift_magnitude(x))

    def _light_width(self, sgn, mu):
        """light_width(x) given sgn = _sign(x) and mu = _drift_magnitude(x)."""
        p = self.p_heavy
        if self.regime == "line_balanced":
            # the two heavy sides cancel; tuner carries the whole drift
            return 2.0 * (sgn * mu / (1.0 - 2.0 * p))
        k = self._heavy_mean
        if self.regime != "half_line":
            mu, k = sgn * mu, sgn * k
        return 2.0 * ((mu - k) / (1.0 - p))

    def _check_feasible(self) -> None:
        """Feasible means the laws can be built, and the law at x_floor binds:
        the light width is affine in t = max(|x|, x_floor)^(-gamma), equal in
        magnitude at +-x, and legal in the drift-free limit t -> 0, so its legal
        magnitude is smallest, and the balanced tuner widest, at x_floor."""
        if self.regime == "plane":
            plane_radial_law(self)
            plane_transverse_law(self)
        else:
            build_law(self, self.x_floor())

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out = {"regime": self.regime, **asdict(self.tail), **asdict(self.drift),
               "p_heavy": self.p_heavy}
        if out["beta"] is None:
            del out["beta"]
        if self.plane is not None:
            out["plane"] = asdict(self.plane)
        return out

    @staticmethod
    def from_json(obj: dict) -> "ChainSpec":
        """The spec a config object describes, read from its own entries alone
        (see _record); a null or absent plane is no plane."""
        plane = obj.get("plane")
        return ChainSpec(obj["regime"], _record(TailParams, obj), _record(DriftParams, obj),
                         _real(obj.get("p_heavy", ChainSpec.p_heavy)),
                         None if plane is None else _record(PlaneParams, plane))


def _quantile(u1, u2, pw, p, scale, light, p_mirror):
    """The one increment sampler, elementwise over arrays: a Pareto side of
    weight p with signed support point `scale`, then (p_mirror, the cumulative
    weight p + p, not None) its mirror image with weight p, then a uniform on
    (0, light), `light` a signed width, with the remaining weight.  u1 picks
    the piece and u2 (already clipped away from 0) inverts its CDF; pw is
    u2 ** (-1 / exponent), the Pareto quantile at support point 1."""
    pareto = scale * pw
    if p_mirror is not None:
        return np.where(u1 < p, pareto, np.where(u1 < p_mirror, -pareto, light * u2))
    return np.where(u1 < p, pareto, light * u2)


class IncrementLaw(NamedTuple):
    """Concrete increment law at one state, with exact tails and mean.

    A Pareto side of weight p, P[side * theta > y] = p * (|scale| / y)^exponent
    for y >= |scale| on the side of scale's sign; when two_sided, its mirror
    image with the same weight; then a uniform on (0, light) with the
    remaining weight.  `light` is a signed width whose sign bit picks its side,
    so a 0.0 width (a point mass at 0) still has one.  An immutable tuple
    record: a law equals the tuple of its fields and unpacks like one.
    """

    p: float
    exponent: float
    scale: float
    two_sided: bool
    light: float
    mean: float

    @property
    def light_weight(self) -> float:
        """The light uniform's weight: 1 - p, or 1 - 2p when two-sided."""
        return 1.0 - 2.0 * self.p if self.two_sided else 1.0 - self.p

    def on_side(self, side: int) -> tuple[bool, bool]:
        """Whether the Pareto tail and the light uniform sit on side +1 or -1."""
        return (self.two_sided or (self.scale > 0.0) == (side > 0),
                math.copysign(1.0, self.light) == side)

    def tail_pos(self, y: float) -> float:
        """P[theta > y] for y >= 0."""
        return self._tail(y, +1)

    def tail_neg(self, y: float) -> float:
        """P[-theta > y] for y >= 0."""
        return self._tail(y, -1)

    def _tail(self, y: float, sign: int) -> float:
        if y < 0.0:
            raise DomainError("tail functions are defined for y >= 0")
        heavy, light = self.on_side(sign)
        acc = 0.0
        if heavy:
            y0 = abs(self.scale)
            acc += self.p * (1.0 if y < y0 else (y0 / y) ** self.exponent)
        width = abs(self.light)
        if light and y < width:
            acc += self.light_weight * (1.0 - y / width)
        return acc

    def mirrored(self) -> "IncrementLaw":
        """The law of -theta (both sides flipped, mean negated)."""
        return self._replace(scale=-self.scale, light=-self.light, mean=-self.mean)

    def quantile(self, u1, u2):
        """Increment from two uniforms: u1 selects the piece, u2 inverts its
        CDF.  Accepts scalars or numpy arrays (elementwise)."""
        u1 = np.asarray(u1, dtype=float)
        u2 = np.maximum(np.asarray(u2, dtype=float), _U_MIN)
        out = _quantile(u1, u2, u2 ** (-1.0 / self.exponent), self.p, self.scale, self.light,
                        self.p + self.p if self.two_sided else None)
        return out if out.ndim else float(out)


def build_law(spec: ChainSpec, x: float) -> IncrementLaw:
    """The increment law of the chain at state x (scalar regimes); the
    vectorized simulation engine takes its constants from these laws."""
    if spec.regime == "plane":
        raise DomainError("plane regime has separate radial/transverse laws; "
                          "use plane_radial_law / plane_transverse_law")
    p, e, y0 = spec.p_heavy, spec.heavy_exponent, spec._y0
    sgn, mu = spec._sign(x), spec._drift_magnitude(x)
    lw = float(spec._light_width(sgn, mu))
    mean = float(sgn * mu)
    if spec.regime == "line_balanced":
        if abs(lw) > y0:
            raise InfeasibleDrift(
                f"drift tuner width {abs(lw):.6g} exceeds y0={y0:.6g} at x={x:.6g}; "
                "it would perturb the exact tail", x=x)
        # a zero tuner (-0.0 at x < 0) sits on the positive side
        light = lw if lw < 0.0 else abs(lw)
        return IncrementLaw(p, e, y0, two_sided=True, light=light, mean=mean)
    hs = int(sgn * _HEAVY_SIDE[spec.regime])
    width = -hs * lw
    if not 0.0 < width < math.inf:
        bad = "<= 0" if width <= 0.0 else "is not finite"
        raise InfeasibleDrift(
            f"required light-component mean {width / 2.0:.6g} {bad} at x={x:.6g}", x=x)
    return IncrementLaw(p, e, hs * y0, two_sided=False, light=lw, mean=mean)


def plane_radial_law(spec: ChainSpec) -> IncrementLaw:
    """Radial jump law: heavy outward Pareto plus a light inward tuner with
    total mean zero (state-independent)."""
    if spec.regime != "plane":
        raise DomainError("plane_radial_law requires the plane regime")
    p = spec.p_heavy
    a = spec.tail.alpha
    y0 = spec.heavy_scale(spec.plane.c_radial)
    m = p * y0 * a / (a - 1.0) / (1.0 - p)
    return IncrementLaw(p, a, y0, two_sided=False, light=-(2.0 * m), mean=0.0)


def plane_transverse_law(spec: ChainSpec) -> IncrementLaw:
    """Transverse jump law: symmetric two-sided Pareto, remainder at zero."""
    if spec.regime != "plane":
        raise DomainError("plane_transverse_law requires the plane regime")
    p = spec.p_heavy
    a = spec.tail.alpha
    y0 = spec.heavy_scale(spec.plane.c_transverse)
    return IncrementLaw(p, a, y0, two_sided=True, light=0.0, mean=0.0)


def sample(law: IncrementLaw, u_stream) -> float:
    """One increment; consumes exactly two uniforms from u_stream.random()."""
    u1 = u_stream.random()
    u2 = u_stream.random()
    return float(law.quantile(u1, u2))


def step(spec: ChainSpec, state, u_stream):
    """One Markov step from state.

    Scalar regimes consume two uniforms (half_line clamps at 0); the plane
    consumes three: jump-type selection, then the scalar law's two.
    """
    if spec.regime == "plane":
        pos = np.asarray(state, dtype=float)
        chi = u_stream.random() < spec.plane.p_radial
        law = plane_radial_law(spec) if chi else plane_transverse_law(spec)
        theta = sample(law, u_stream)
        r = math.hypot(pos[0], pos[1])
        if r == 0.0:
            ux = np.array([1.0, 0.0])
        else:
            ux = pos / r
        direction = ux if chi else np.array([-ux[1], ux[0]])
        return pos + direction * theta
    x = float(state)
    law = build_law(spec, x)
    theta = sample(law, u_stream)
    nxt = x + theta
    if spec.regime == "half_line":
        return max(0.0, nxt)
    return nxt
