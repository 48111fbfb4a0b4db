"""State-dependent increment laws with exact power tails and drift targets.

Each regime's law is a mixture: heavy side(s) are exact Pareto tails beyond a
support point y0 chosen so that weight * P[comp > y] = c * y^(-exponent)
holds identically for y >= y0, and the light side is a bounded uniform whose
mean is solved in closed form so the total mean hits the drift target
exactly.  Closed-form tails and means make the quadrature and property tests
exact rather than asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DomainError, InfeasibleDrift, InfeasibleWeight

REGIMES = ("half_line", "line_out", "line_in", "line_balanced", "plane")

# Uniform draws of exactly 0 would map to an infinite Pareto jump; clip at
# the resolution of the 53-bit stream instead.
_U_MIN = 2.0 ** -53


@dataclass(frozen=True)
class TailParams:
    """Tail exponents and constant: alpha / beta roles depend on the regime."""

    alpha: float
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
class HeavyPareto:
    """P[jump > y] = (scale / y)^exponent for y >= scale, support [scale, inf)."""

    sign: int
    exponent: float
    scale: float


@dataclass(frozen=True)
class BoundedUniform:
    """Uniform on (0, width), signed; width 0 degenerates to a point mass at 0."""

    sign: int
    width: float


Component = Union[HeavyPareto, BoundedUniform]


@dataclass(frozen=True)
class LawComponent:
    kind: Component
    weight: float


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
        values = dict(alpha=t.alpha, beta=t.beta, c=t.c, x0=t.x0, gamma=d.gamma, b=d.b,
                      **(vars(self.plane) if self.plane is not None else {}))
        bad = [k for k, v in values.items() if v is not None and not math.isfinite(v)]
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
        if self.regime in ("half_line", "line_out"):
            if not (1.0 < t.alpha < 2.0):
                raise DomainError(f"{self.regime} requires 1 < alpha < 2")
            if t.beta is not None and t.beta <= t.alpha:
                raise DomainError(f"{self.regime} requires beta > alpha")
        elif self.regime == "line_in":
            if t.beta is None or not (1.0 < t.beta < 2.0):
                raise DomainError("line_in requires 1 < beta < 2")
            if t.alpha <= t.beta:
                raise DomainError("line_in requires alpha > beta")
        elif self.regime == "line_balanced":
            if not (1.0 < t.alpha < 2.0):
                raise DomainError("line_balanced requires 1 < alpha < 2")
            if self.p_heavy >= 0.5:
                raise InfeasibleWeight("line_balanced needs p_heavy < 1/2 (one heavy component per side)")
        elif self.regime == "plane":
            if not (1.0 < t.alpha < 2.0):
                raise DomainError("plane requires 1 < alpha < 2")
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

    def heavy_scale(self, c: Optional[float] = None) -> float:
        """Support point y0 = (c / p_heavy)^(1/heavy_exponent) of a heavy component."""
        c = self.tail.c if c is None else c
        y0 = (c / self.p_heavy) ** (1.0 / self.heavy_exponent)
        if y0 < 1.0:
            raise InfeasibleWeight(
                f"heavy support point y0={y0:.6g} < 1 (c={c}, p_heavy={self.p_heavy})")
        return y0

    def x_floor(self) -> float:
        return max(self.tail.x0, 1.0)

    def drift_target(self, x):
        """mu(x): +-b |x|^(-gamma) with the magnitude clamped below x_floor.

        Works on scalars and numpy arrays.
        """
        b, g = self.drift.b, self.drift.gamma
        ax = np.maximum(np.abs(x), self.x_floor())
        mag = b * ax ** (-g)
        if self.regime == "half_line":
            return mag
        sgn = np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)
        return sgn * mag

    def heavy_sign(self, x):
        """Direction of the heavy Pareto side at state x (sign(0) := +1)."""
        sgn = np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)
        if self.regime == "half_line":
            return np.abs(sgn)
        if self.regime == "line_out":
            return sgn
        if self.regime == "line_in":
            return -sgn
        raise DomainError(f"heavy_sign undefined for regime {self.regime}")

    def light_mean(self, x):
        """Signed mean of the bounded light component at state x (vectorizable).

        Solved so that the mixture mean equals drift_target(x) exactly.  For
        the one-heavy-side regimes a feasible law has this pointing opposite
        the heavy side.
        """
        p = self.p_heavy
        mu = self.drift_target(x)
        if self.regime == "line_balanced":
            # the two heavy sides cancel; tuner carries the whole drift
            return mu / (1.0 - 2.0 * p)
        y0 = self.heavy_scale()
        e = self.heavy_exponent
        m_h = y0 * e / (e - 1.0)
        return (mu - self.heavy_sign(x) * p * m_h) / (1.0 - p)

    def light_width(self, x):
        """Signed width of the light uniform at state x: twice its mean."""
        return 2.0 * self.light_mean(x)

    def light_magnitude(self, x):
        """Mean of the light component measured along its legal direction
        (opposite the heavy side); must be positive for a feasible law."""
        if self.regime == "line_balanced":
            return np.abs(self.light_mean(x))
        return -self.heavy_sign(x) * self.light_mean(x)

    def _check_feasible(self) -> None:
        if self.regime == "plane":
            # radial and transverse support points must exist
            self.heavy_scale(self.plane.c_radial)
            self.heavy_scale(self.plane.c_transverse)
            return
        y0 = self.heavy_scale()
        xf = self.x_floor()
        # light_magnitude is monotone in x^(-gamma), so the grid ends plus the
        # x -> inf limit bound it; both signs of x give the same magnitude
        grid = [xf, 2.0 * xf, 10.0 * xf, 1e6]
        if self.drift.gamma > 0:
            grid.append(1e300)
        for x in grid:
            m = float(self.light_magnitude(x))
            if self.regime == "line_balanced":
                if 2.0 * m > y0:
                    raise InfeasibleDrift(
                        f"drift tuner width {2*m:.6g} exceeds y0={y0:.6g} at x={x:.6g}; "
                        "it would perturb the exact tail", x=x)
            elif m <= 0.0:
                raise InfeasibleDrift(
                    f"required light-component mean {m:.6g} <= 0 at x={x:.6g}", x=x)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "regime": self.regime,
            "alpha": self.tail.alpha,
            "c": self.tail.c,
            "x0": self.tail.x0,
            "gamma": self.drift.gamma,
            "b": self.drift.b,
            "p_heavy": self.p_heavy,
        }
        if self.tail.beta is not None:
            out["beta"] = self.tail.beta
        if self.plane is not None:
            out["plane"] = {
                "p_radial": self.plane.p_radial,
                "c_radial": self.plane.c_radial,
                "c_transverse": self.plane.c_transverse,
            }
        return out

    @staticmethod
    def from_json(obj: dict) -> "ChainSpec":
        plane = None
        if obj.get("plane") is not None:
            p = obj["plane"]
            plane = PlaneParams(
                p_radial=float(p["p_radial"]),
                c_radial=float(p["c_radial"]),
                c_transverse=float(p["c_transverse"]),
            )
        return ChainSpec(
            regime=obj["regime"],
            tail=TailParams(
                alpha=float(obj.get("alpha", 1.5)),
                beta=float(obj["beta"]) if obj.get("beta") is not None else None,
                c=float(obj.get("c", 1.0)),
                x0=float(obj.get("x0", 1.0)),
            ),
            drift=DriftParams(gamma=float(obj.get("gamma", 0.0)), b=float(obj.get("b", 0.0))),
            p_heavy=float(obj.get("p_heavy", 0.25)),
            plane=plane,
        )


@dataclass(frozen=True)
class IncrementLaw:
    """Concrete increment mixture at one state, with exact tails and mean."""

    components: tuple[LawComponent, ...]
    mean: float

    def tail_pos(self, y: float) -> float:
        """P[theta > y] for y >= 0."""
        return self._tail(y, +1)

    def tail_neg(self, y: float) -> float:
        """P[-theta > y] for y >= 0."""
        return self._tail(y, -1)

    def _tail(self, y: float, sign: int) -> float:
        if y < 0.0:
            raise DomainError("tail functions are defined for y >= 0")
        acc = 0.0
        for comp in self.components:
            k = comp.kind
            if k.sign != sign:
                continue
            if isinstance(k, HeavyPareto):
                acc += comp.weight * (1.0 if y < k.scale else (k.scale / y) ** k.exponent)
            elif k.width > 0.0 and y < k.width:
                acc += comp.weight * (1.0 - y / k.width)
        return acc

    def mirrored(self) -> "IncrementLaw":
        """The law of -theta (component signs flipped, mean negated)."""
        comps = tuple(
            LawComponent(
                HeavyPareto(-c.kind.sign, c.kind.exponent, c.kind.scale)
                if isinstance(c.kind, HeavyPareto)
                else BoundedUniform(-c.kind.sign, c.kind.width),
                c.weight,
            )
            for c in self.components
        )
        return IncrementLaw(comps, -self.mean)

    def quantile(self, u1, u2):
        """Increment from two uniforms: u1 selects the component, u2 inverts
        its CDF.  Accepts scalars or numpy arrays (elementwise)."""
        u1 = np.asarray(u1, dtype=float)
        u2 = np.maximum(np.asarray(u2, dtype=float), _U_MIN)
        out = np.zeros(np.broadcast(u1, u2).shape)
        lo = 0.0
        for comp in self.components:
            hi = lo + comp.weight
            pick = (u1 >= lo) & (u1 < hi) if hi < 1.0 else (u1 >= lo)
            k = comp.kind
            if isinstance(k, HeavyPareto):
                vals = k.sign * k.scale * u2 ** (-1.0 / k.exponent)
            else:
                vals = k.sign * k.width * u2
            out = np.where(pick, vals, out)
            lo = hi
        return out if out.ndim else float(out)


def build_law(spec: ChainSpec, x: float) -> IncrementLaw:
    """The increment law of the chain at state x (scalar regimes).

    Component order is canonical (heavy components first, light tuner last);
    the vectorized simulation engine takes its constants from these laws.
    """
    if spec.regime == "plane":
        raise DomainError("plane regime has separate radial/transverse laws; "
                          "use plane_radial_law / plane_transverse_law")
    p = spec.p_heavy
    e = spec.heavy_exponent
    y0 = spec.heavy_scale()
    lw = float(spec.light_width(x))
    mean = float(spec.drift_target(x))
    if spec.regime == "line_balanced":
        comps = (
            LawComponent(HeavyPareto(+1, e, y0), p),
            LawComponent(HeavyPareto(-1, e, y0), p),
            LawComponent(BoundedUniform(-1 if lw < 0 else +1, abs(lw)), 1.0 - 2.0 * p),
        )
        return IncrementLaw(comps, mean)
    hs = int(spec.heavy_sign(x))
    width = -hs * lw
    if width <= 0.0:
        raise InfeasibleDrift(f"required light-component mean {width / 2.0:.6g} <= 0 at x={x!r}", x=x)
    comps = (
        LawComponent(HeavyPareto(hs, e, y0), p),
        LawComponent(BoundedUniform(-hs, width), 1.0 - p),
    )
    return IncrementLaw(comps, mean)


def plane_radial_law(spec: ChainSpec) -> IncrementLaw:
    """Radial jump law: heavy outward Pareto plus a light inward tuner with
    total mean zero (state-independent)."""
    if spec.regime != "plane":
        raise DomainError("plane_radial_law requires the plane regime")
    p = spec.p_heavy
    a = spec.tail.alpha
    y0 = spec.heavy_scale(spec.plane.c_radial)
    m = p * y0 * a / (a - 1.0) / (1.0 - p)
    comps = (
        LawComponent(HeavyPareto(+1, a, y0), p),
        LawComponent(BoundedUniform(-1, 2.0 * m), 1.0 - p),
    )
    return IncrementLaw(comps, 0.0)


def plane_transverse_law(spec: ChainSpec) -> IncrementLaw:
    """Transverse jump law: symmetric two-sided Pareto, remainder at zero."""
    if spec.regime != "plane":
        raise DomainError("plane_transverse_law requires the plane regime")
    p = spec.p_heavy
    a = spec.tail.alpha
    y0 = spec.heavy_scale(spec.plane.c_transverse)
    comps = (
        LawComponent(HeavyPareto(+1, a, y0), p),
        LawComponent(HeavyPareto(-1, a, y0), p),
        LawComponent(BoundedUniform(+1, 0.0), 1.0 - 2.0 * p),
    )
    return IncrementLaw(comps, 0.0)


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
