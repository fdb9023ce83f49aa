"""Structural hypotheses for the coupled singular-convective reaction system.

A configuration collects the exponents of the two reactions,

    f ~ a1(x) * s1^alpha1 s2^beta1  (+ gradient terms |t1|^gamma1, |t2|^delta1),
    g ~ a2(x) * s1^alpha2 s2^beta2  (+ gradient terms |t1|^gamma2, |t2|^delta2),

with alpha1, beta2 in (-1, 0] (the singular directions) and the remaining
exponents inside the subcritical boxes [0, p-1) / [0, q-1).  From these the
module derives the Sobolev conjugates, the criticality aggregates

    theta1 = max{beta1/q*, gamma1/p, delta1/q},
    theta2 = max{alpha2/p*, gamma2/p, delta2/q},
    eta1   = max{beta1, delta1},      eta2 = max{alpha2, gamma2},

and the admissible summability windows for the auxiliary exponents r and s:
1/zeta1 + theta1 < 1/r' < 1 - p/p*, mirrored in (zeta2, theta2, q) for s.
The coupling smallness condition reads eta1*eta2 < (p-1-gamma1)(q-1-delta2).

All comparisons are strict floating-point comparisons; no tolerance is
applied anywhere.  Infinite summability (bounded weights) is expressed by
zeta = inf, and p >= N makes p* = inf with p/p* = 0, so both sentinels flow
through the window arithmetic without special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from .jsonio import _check, _float_or_inf, _required

INF = float("inf")


def sobolev_conjugate(p: float, N: int) -> float:
    """N p/(N - p) for p < N, +inf otherwise; p <= 1 is rejected."""
    if not p > 1.0:
        raise ValueError(f"Sobolev conjugate needs p > 1, got {p}")
    if p < N:
        return N * p / (N - p)
    return INF


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); empty when lo >= hi."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return not self.lo < self.hi

    def midpoint(self) -> float:
        if self.is_empty:
            raise ValueError("empty interval has no midpoint")
        if math.isinf(self.hi):
            return 2.0 * self.lo if self.lo > 0 else 1.0
        return 0.5 * (self.lo + self.hi)

    def to_json_dict(self) -> dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi, "empty": self.is_empty}


@dataclass(frozen=True)
class ExponentConfig:
    N: int
    p: float
    q: float
    alpha1: float
    beta1: float
    gamma1: float
    delta1: float
    m1: float
    mhat1: float
    alpha2: float
    beta2: float
    gamma2: float
    delta2: float
    m2: float
    mhat2: float
    zeta1: float
    zeta2: float

    def range_violations(self) -> list[str]:
        """Structural range checks; empty list means the ranges hold.

        Violations are reported rather than raised so that deliberately
        out-of-range configurations can still be probed with the individual
        hypothesis checks.
        """
        v: list[str] = []
        c = self
        if c.N < 2:
            v.append("N >= 2 required")
        if not c.p > 1.0:
            v.append("p > 1 required")
        elif not c.p < c.N:
            v.append("p < N required")
        if not c.q > 1.0:
            v.append("q > 1 required")
        elif not c.q < c.N:
            v.append("q < N required")
        if not (-1.0 < c.alpha1 <= 0.0):
            v.append("alpha1 in (-1, 0] required")
        if not (-1.0 < c.beta2 <= 0.0):
            v.append("beta2 in (-1, 0] required")
        if c.q > 1.0:
            if not (0.0 <= c.beta1 < c.q - 1.0):
                v.append("beta1 in [0, q-1) required")
            if not (0.0 <= c.delta1 < c.q - 1.0):
                v.append("delta1 in [0, q-1) required")
            if not (0.0 <= c.delta2 < c.q - 1.0):
                v.append("delta2 in [0, q-1) required")
        if c.p > 1.0:
            if not (0.0 <= c.gamma1 < c.p - 1.0):
                v.append("gamma1 in [0, p-1) required")
            if not (0.0 <= c.alpha2 < c.p - 1.0):
                v.append("alpha2 in [0, p-1) required")
            if not (0.0 <= c.gamma2 < c.p - 1.0):
                v.append("gamma2 in [0, p-1) required")
        for name in ("m1", "mhat1", "m2", "mhat2"):
            if not getattr(c, name) > 0.0:
                v.append(f"{name} > 0 required")
        for name in ("zeta1", "zeta2"):
            if not getattr(c, name) > 0.0:
                v.append(f"{name} > 0 required")
        return v


# every exponent a number, N an integer, the zetas a number or inf; all required
_EXPONENTS = _required(
    **{f.name: float for f in fields(ExponentConfig)} | {"N": int, "zeta1": _float_or_inf, "zeta2": _float_or_inf}
)


def config_from_dict(d: Any) -> ExponentConfig:
    """Build a config from a JSON object whose keys exactly match the fields; a mismatch is a ConfigError."""
    return ExponentConfig(**_check(d, _EXPONENTS, "exponents"))


@dataclass(frozen=True)
class DerivedExponents:
    pstar: float
    qstar: float
    pprime: float
    qprime: float
    theta1: float
    theta2: float
    eta1: float
    eta2: float
    r_window: Interval
    s_window: Interval


def _over(a: float, b: float) -> float:
    """a/b, or 0 when b is infinite: p/p* (p* = inf for p >= N) and 1/zeta."""
    return 0.0 if math.isinf(b) else a / b


def _window(zeta: float, theta: float, sobolev_ratio: float) -> Interval:
    """Solve 1/zeta + theta < 1/r' < 1 - sobolev_ratio for r = r'/(r'-1).

    The map x = 1/r' -> r = 1/(1-x) is increasing on (0, 1), so the open
    x-interval maps to an open r-interval endpoint by endpoint; x = 1 maps
    to r = +inf.
    """
    lo_x = _over(1.0, zeta) + theta
    hi_x = 1.0 - sobolev_ratio
    lo_r = 1.0 / (1.0 - lo_x) if lo_x < 1.0 else INF
    hi_r = 1.0 / (1.0 - hi_x) if hi_x < 1.0 else INF
    return Interval(lo_r, hi_r)


def derive(config: ExponentConfig) -> DerivedExponents:
    c = config
    if not (c.p > 1.0 and c.q > 1.0):
        raise ValueError("derive needs p > 1 and q > 1")
    pstar = sobolev_conjugate(c.p, c.N)
    qstar = sobolev_conjugate(c.q, c.N)
    theta1 = max(c.beta1 / qstar, c.gamma1 / c.p, c.delta1 / c.q)
    theta2 = max(c.alpha2 / pstar, c.gamma2 / c.p, c.delta2 / c.q)
    return DerivedExponents(
        pstar=pstar,
        qstar=qstar,
        pprime=c.p / (c.p - 1.0),
        qprime=c.q / (c.q - 1.0),
        theta1=theta1,
        theta2=theta2,
        eta1=max(c.beta1, c.delta1),
        eta2=max(c.alpha2, c.gamma2),
        r_window=_window(c.zeta1, theta1, _over(c.p, pstar)),
        s_window=_window(c.zeta2, theta2, _over(c.q, qstar)),
    )


@dataclass(frozen=True)
class HypothesisCheck:
    passed: bool
    failures: tuple[str, ...]


def check_H1a(config: ExponentConfig) -> HypothesisCheck:
    """Weight summability: zeta_i > N plus the strict window inequalities."""
    c = config
    d = derive(c)
    p_ratio = _over(c.p, d.pstar)
    q_ratio = _over(c.q, d.qstar)
    inv_z1 = _over(1.0, c.zeta1)
    inv_z2 = _over(1.0, c.zeta2)
    failures: list[str] = []
    if not c.zeta1 > c.N:
        failures.append("zeta1 <= N")
    if not c.zeta2 > c.N:
        failures.append("zeta2 <= N")
    if not d.theta1 < 1.0 - p_ratio:
        failures.append("theta1 >= 1 - p/p*")
    if not d.theta2 < 1.0 - q_ratio:
        failures.append("theta2 >= 1 - q/q*")
    if not inv_z1 < 1.0 - p_ratio - d.theta1:
        failures.append("1/zeta1 >= 1 - p/p* - theta1")
    if not inv_z2 < 1.0 - q_ratio - d.theta2:
        failures.append("1/zeta2 >= 1 - q/q* - theta2")
    return HypothesisCheck(not failures, tuple(failures))


def check_H2(config: ExponentConfig) -> HypothesisCheck:
    """Coupling smallness: eta1 * eta2 < (p - 1 - gamma1)(q - 1 - delta2)."""
    c = config
    d = derive(c)
    rhs = (c.p - 1.0 - c.gamma1) * (c.q - 1.0 - c.delta2)
    if d.eta1 * d.eta2 < rhs:
        return HypothesisCheck(True, ())
    return HypothesisCheck(False, ("eta1*eta2 >= (p-1-gamma1)(q-1-delta2)",))


@dataclass(frozen=True)
class AdmissibilityReport:
    config: ExponentConfig
    range_violations: tuple[str, ...]
    derived: DerivedExponents | None
    h1a: HypothesisCheck | None
    h2: HypothesisCheck | None
    admissible: bool


def admissibility_report(config: ExponentConfig) -> AdmissibilityReport:
    """Aggregate verdict: ranges, H1(a), H2, and the derived windows."""
    ranges = tuple(config.range_violations())
    if config.p > 1.0 and config.q > 1.0:
        derived = derive(config)
        h1a = check_H1a(config)
        h2 = check_H2(config)
        ok = not ranges and h1a.passed and h2.passed
        return AdmissibilityReport(config, ranges, derived, h1a, h2, ok)
    return AdmissibilityReport(config, ranges, None, None, None, False)
