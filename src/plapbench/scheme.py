"""Regularized approximating system solved by Picard iteration.

The coupled singular system is approximated at level n by shifting the
singular arguments with eps = 1/n:

    -Delta_p u = f(x, u + eps, v, grad u, grad v),
    -Delta_q v = g(x, u, v + eps, grad u, grad v),

with the model reactions (structural upper bounds taken as equalities)

    f = mhat1 a1(x) [ (u + eps)^{alpha1} max(v, 0)^{beta1}
                      + c1 |grad u|^{gamma1} + c2 |grad v|^{delta1} ],
    g = mhat2 a2(x) [ max(u, 0)^{alpha2} (v + eps)^{beta2}
                      + d1 |grad u|^{gamma2} + d2 |grad v|^{delta2} ],

alpha1, beta2 <= 0 being the singular directions (made finite by the
eps-shift) and all other exponents nonnegative.  Power conventions:
0^0 = 1 (a zero exponent means the term does not depend on that state)
and 0^b = 0 for b > 0.

Each Picard step freezes the reactions at the current iterate, solves the
two decoupled Dirichlet problems on the box (Jacobi-style: both use the
same frozen state, so the step is order-independent), steps by tau
(1 at the start: undamped), and truncates negative parts to zero.  tau is
halved when a step inflates the Sobolev increment, down to 1/64, and doubled
back towards 1 on the next step.  One tolerance policy ties the inner solves
to the Picard state: a step solves only as tightly as its increment needs,
1e-2 times the previous increment but no looser than 1e-4, and solver_tol
is the floor; a level converges only on a step solved at that floor.  The
solves of a level share one solver context, whose work count is the level's,
and form no weak residual.  The per-level states are warm starts for the next
level, and the report collects the discrete shadows of the uniform bounds: sup
norms, interior infima on a ball, gradient norms, and Cauchy increments between
consecutive levels.

eps enters only the reaction; the solver's own gradient regularization is
an independent knob (see plap_solver).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .discretization import _side_squares
from .field import (
    Grid,
    ScalarField,
    ball_mask,
    gradient,
    linf_norm,
    lp_norm,
    w1p_norm,
)
from .hypotheses import ExponentConfig, check_H1a, check_H2
from .plap_solver import AnalyticFailure, DirichletProblem, SolverWork, _SolveContext

_TAU_MIN = 1.0 / 64.0
# the Picard forcing: a step's inner solves run to _FORCING times the previous
# step's combined increment, never looser than _LOOSE_TOL nor tighter than
# solver_tol (cf. Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996))
_FORCING = 1e-2
_LOOSE_TOL = 1e-4


@dataclass(frozen=True)
class ReactionSpec:
    """Model reactions: exponents, weight fields, and gradient coefficients."""

    exponents: ExponentConfig
    weight_a1: ScalarField
    weight_a2: ScalarField
    coeff_grad1_own: float = 1.0  # multiplies |grad u|^{gamma1} in f
    coeff_grad1_other: float = 1.0  # multiplies |grad v|^{delta1} in f
    coeff_grad2_own: float = 1.0  # multiplies |grad v|^{delta2} in g
    coeff_grad2_other: float = 1.0  # multiplies |grad u|^{gamma2} in g

    def __post_init__(self) -> None:
        if self.weight_a1.grid != self.weight_a2.grid:
            raise ValueError("weight fields live on different grids")
        for name in ("weight_a1", "weight_a2"):
            if not np.all(getattr(self, name).values > 0.0):
                raise ValueError(f"{name} must be strictly positive everywhere")
        for name in ("coeff_grad1_own", "coeff_grad1_other", "coeff_grad2_own", "coeff_grad2_other"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        c = self.exponents
        if not (c.p > 1.0 and c.q > 1.0):
            raise ValueError("exponents need p > 1 and q > 1")
        if not (-1.0 < c.alpha1 <= 0.0 and -1.0 < c.beta2 <= 0.0):
            raise ValueError("singular exponents alpha1, beta2 must lie in (-1, 0]")
        for name in ("beta1", "gamma1", "delta1", "alpha2", "gamma2", "delta2"):
            if getattr(c, name) < 0.0:
                raise ValueError(f"exponent {name} must be nonnegative")
        if not (c.mhat1 > 0.0 and c.mhat2 > 0.0):
            raise ValueError("mhat1 and mhat2 must be positive")
        if c.N != self.grid.N:  # p* and the summability windows depend on N
            raise ValueError(f"exponents are for N = {c.N}, the grid has N = {self.grid.N}")

    @property
    def grid(self) -> Grid:
        return self.weight_a1.grid


@dataclass(frozen=True)
class SystemState:
    """One resolved level of the approximating system."""

    n: int
    eps: float
    u: ScalarField
    v: ScalarField
    picard_iters: int
    increment_p: float
    increment_q: float
    converged: bool
    hypotheses_ok: bool
    work: SolverWork = field(default_factory=SolverWork)  # of the level's solves, the positivity seed's included

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("level index n must be >= 1")
        if self.eps != 1.0 / self.n:
            raise ValueError("eps must equal 1/n exactly")
        if np.any(self.u.values < 0.0) or np.any(self.v.values < 0.0):
            raise ValueError("iterates must be nonnegative cellwise")

    def summary(self) -> dict:
        return {
            "n": self.n,
            "eps": self.eps,
            "picard_iters": self.picard_iters,
            "increment_p": self.increment_p,
            "increment_q": self.increment_q,
            "converged": self.converged,
            "hypotheses_ok": self.hypotheses_ok,
            **asdict(self.work),
            "sup_u": linf_norm(self.u),
            "sup_v": linf_norm(self.v),
        }


@dataclass(frozen=True)
class SchemeReport:
    """Discrete shadows of the uniform level bounds."""

    n_list: tuple[int, ...]
    rho: float
    M_observed: float
    sigma_rho: float
    sigma_rho_levels: tuple[float, ...]
    gradient_p_norms: tuple[float, ...]
    gradient_q_norms: tuple[float, ...]
    cauchy_p: tuple[float, ...]
    cauchy_q: tuple[float, ...]
    converged_n: tuple[bool, ...]
    hypotheses_ok: bool

    def __post_init__(self) -> None:
        if not self.M_observed >= self.sigma_rho >= 0.0:
            raise ValueError("report invariant M_observed >= sigma_rho >= 0 violated")


def _reaction(mhat: float, weight: ScalarField, eps: float, shifted: tuple[ScalarField, float],
              other: tuple[ScalarField, float], conv_u: tuple[float, list[np.ndarray], float],
              conv_v: tuple[float, list[np.ndarray], float]) -> ScalarField:
    """mhat a [s^e_s max(o, 0)^e_o + c_u |grad u|^a + c_v |grad v|^b] for the shifted argument
    (s, e_s), the other one (o, e_o) and the convection terms (c_u, |grad u|^2, a), (c_v, |grad v|^2, b), the
    squared magnitudes per side; each gradient power is the mean over the two sides."""
    (sh, e_s), (o, e_o), (c_u, sq_u, a), (c_v, sq_v, b) = shifted, other, conv_u, conv_v
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if float(np.min(sh.values)) < 0.5 * eps:
        raise AnalyticFailure("shifted iterate fell below eps/2: positivity invariant broken upstream")
    sing = np.power(sh.values, e_s) * np.power(np.maximum(o.values, 0.0), e_o)
    conv = c_u * sum(np.power(m, 0.5 * a) for m in sq_u) + c_v * sum(np.power(m, 0.5 * b) for m in sq_v)
    return ScalarField(weight.grid, mhat * weight.values * (sing + 0.5 * conv))


def eval_f(spec: ReactionSpec, u_shifted: ScalarField, v: ScalarField, sq_u: list, sq_v: list,
           eps: float) -> ScalarField:
    """Model reaction f at a frozen state, from each side's |grad u|^2 and |grad v|^2; u_shifted must already
    carry +eps."""
    c = spec.exponents
    return _reaction(c.mhat1, spec.weight_a1, eps, (u_shifted, c.alpha1), (v, c.beta1),
                     (spec.coeff_grad1_own, sq_u, c.gamma1), (spec.coeff_grad1_other, sq_v, c.delta1))


def eval_g(spec: ReactionSpec, u: ScalarField, v_shifted: ScalarField, sq_u: list, sq_v: list,
           eps: float) -> ScalarField:
    """Model reaction g at a frozen state, from each side's |grad u|^2 and |grad v|^2; v_shifted must already
    carry +eps."""
    c = spec.exponents
    return _reaction(c.mhat2, spec.weight_a2, eps, (v_shifted, c.beta2), (u, c.alpha2),
                     (spec.coeff_grad2_other, sq_u, c.gamma2), (spec.coeff_grad2_own, sq_v, c.delta2))


def frozen_reactions(spec: ReactionSpec, u: ScalarField, v: ScalarField, eps: float) -> tuple[ScalarField, ScalarField]:
    """The reactions f and g frozen at the pair (u, v) of level eps, from each side's |grad|^2 without forming
    the gradients (``discretization._side_squares``)."""
    sq_u, sq_v = (_side_squares(w.values, spec.grid.spacing) for w in (u, v))
    return (eval_f(spec, ScalarField(spec.grid, u.values + eps), v, sq_u, sq_v, eps),
            eval_g(spec, u, ScalarField(spec.grid, v.values + eps), sq_u, sq_v, eps))


def _hypotheses_ok(config: ExponentConfig) -> bool:
    return check_H1a(config).passed and check_H2(config).passed


def _positivity_seed(
    spec: ReactionSpec,
    eps: float,
    solver_tol: float,
    solver_max_iter: int,
    ctx: _SolveContext,
) -> tuple[ScalarField, ScalarField]:
    """Strictly positive starting pair for a cold Picard start.

    The zero pair is a spurious fixed point of the model reactions whenever
    beta1 > 0 or alpha2 > 0 (the unshifted coupling argument vanishes at
    zero), while the underlying existence theory produces strictly positive
    solutions.  Solving the constant-reaction problems with the model
    product term evaluated at the eps-level state keeps the iteration on
    the positive branch.
    """
    grid = spec.grid
    c = spec.exponents
    rf = ScalarField(grid, c.mhat1 * spec.weight_a1.values * eps ** (c.alpha1 + c.beta1))
    rg = ScalarField(grid, c.mhat2 * spec.weight_a2.values * eps ** (c.alpha2 + c.beta2))
    out = []
    for pw, rhs in ((c.p, rf), (c.q, rg)):
        w = ctx.minimize(DirichletProblem(grid, pw, rhs, tol=solver_tol, max_iter=solver_max_iter))
        out.append(ScalarField(grid, np.maximum(ctx.values(w), 0.0)))
    return out[0], out[1]


def picard_solve_level(
    spec: ReactionSpec,
    n: int,
    warm_start: SystemState | None = None,
    tol: float = 1e-5,
    max_picard: int = 60,
    solver_tol: float = 1e-9,
    solver_max_iter: int = 200,
) -> SystemState:
    """Resolve level n of the approximating system by Picard iteration.

    Each outer step freezes the reactions at the current pair, solves the two
    Dirichlet problems (warm-started, each until its residual certificate
    ||A(w) w - f||_{L2} <= step_tol (1 + ||f||_{L2}) holds), forms the
    update with step tau (1 to start with: undamped), truncates negatives, and
    measures the increments in W^{1,p} x W^{1,q}.  A step that inflates the
    combined increment beyond the previous one halves tau (reusing the solved
    pair) down to 1/64; the next step doubles it back towards 1.

    step_tol is max(solver_tol, min(_LOOSE_TOL, _FORCING * previous combined
    increment)), and the positivity seed solves at max(solver_tol, _LOOSE_TOL):
    early steps, which the next step moves by far more than solver_tol, are
    solved loose.  Convergence requires both increments below tol with both
    inner solves converged on a step solved at solver_tol.  A looser step that
    meets the test tightens the policy: every later step solves at solver_tol,
    and the damping forgets the loose increment.  A level that never converges
    is returned flagged.  The state carries the level's solver work counts, the
    ``SolverWork`` that its solver context kept.
    """
    if n < 1:
        raise ValueError("level index n must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_picard < 1:
        raise ValueError("max_picard must be >= 1")
    grid = spec.grid
    c = spec.exponents
    eps = 1.0 / n
    hyp_ok = _hypotheses_ok(c)
    ctx = _SolveContext(grid, np.ones(grid.shape, dtype=bool))
    if warm_start is not None:
        if warm_start.u.grid != grid:
            raise ValueError("warm start lives on a different grid")
        u, v = warm_start.u, warm_start.v
    else:
        u, v = _positivity_seed(spec, eps, max(solver_tol, _LOOSE_TOL), solver_max_iter, ctx)

    tau = 1.0
    prev_inc = np.inf
    inc_p = inc_q = np.inf
    tight = False
    converged = False
    iters = 0
    for k in range(1, max_picard + 1):
        iters = k
        step_tol = solver_tol if tight else max(solver_tol, min(_LOOSE_TOL, _FORCING * prev_inc))
        rhs_f, rhs_g = frozen_reactions(spec, u, v, eps)
        prob_u = DirichletProblem(grid, c.p, rhs_f, tol=step_tol, max_iter=solver_max_iter)
        prob_v = DirichletProblem(grid, c.q, rhs_g, tol=step_tol, max_iter=solver_max_iter)
        res_u = ctx.minimize(prob_u, initial=u)
        res_v = ctx.minimize(prob_v, initial=v)
        inner_ok = res_u.converged and res_v.converged
        u_t, v_t = ctx.values(res_u), ctx.values(res_v)

        while True:
            u_new = ScalarField(grid, np.maximum((1.0 - tau) * u.values + tau * u_t, 0.0))
            v_new = ScalarField(grid, np.maximum((1.0 - tau) * v.values + tau * v_t, 0.0))
            inc_p = w1p_norm(u_new - u, c.p)
            inc_q = w1p_norm(v_new - v, c.q)
            if inc_p + inc_q <= prev_inc or tau <= _TAU_MIN:
                break
            tau = max(0.5 * tau, _TAU_MIN)
        u, v = u_new, v_new
        prev_inc = max(inc_p + inc_q, 1e-300)
        tau = min(2.0 * tau, 1.0)
        if inc_p < tol and inc_q < tol and inner_ok:
            if step_tol <= solver_tol:
                converged = True
                break
            # a loose increment is no yardstick for the first tight one
            tight, prev_inc = True, np.inf
    return SystemState(
        n=n,
        eps=eps,
        u=u,
        v=v,
        picard_iters=iters,
        increment_p=inc_p,
        increment_q=inc_q,
        converged=converged,
        hypotheses_ok=hyp_ok,
        work=ctx.work,
    )


def run_scheme(
    spec: ReactionSpec,
    n_list: Sequence[int],
    rho: float,
    **picard_kwargs,
) -> tuple[list[SystemState], SchemeReport]:
    """Run the levels of n_list sequentially (warm-started) and report the
    uniform-bound shadows: sup norms, infima over B_{2 rho}, gradient norms,
    and Cauchy increments between consecutive levels on B_{2 rho}."""
    levels = [int(n) for n in n_list]
    if not levels:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("n_list must be strictly increasing")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    grid = spec.grid
    ball = ball_mask(grid, (0.0,) * grid.N, 2.0 * rho)
    if ball.count == 0:
        raise ValueError("B_{2 rho} contains no cell centers")
    c = spec.exponents

    states: list[SystemState] = []
    warm: SystemState | None = None
    for n in levels:
        state = picard_solve_level(spec, n, warm_start=warm, **picard_kwargs)
        states.append(state)
        warm = state

    sup_levels = [max(linf_norm(s.u), linf_norm(s.v)) for s in states]
    sigma_levels = [
        min(float(np.min(s.u.values[ball.mask])), float(np.min(s.v.values[ball.mask])))
        for s in states
    ]
    grad_p = [lp_norm(gradient(s.u), c.p) for s in states]
    grad_q = [lp_norm(gradient(s.v), c.q) for s in states]
    cauchy_p = [
        w1p_norm(b.u - a.u, c.p, region=ball) for a, b in zip(states, states[1:])
    ]
    cauchy_q = [
        w1p_norm(b.v - a.v, c.q, region=ball) for a, b in zip(states, states[1:])
    ]
    report = SchemeReport(
        n_list=tuple(levels),
        rho=rho,
        M_observed=max(sup_levels),
        sigma_rho=min(sigma_levels),
        sigma_rho_levels=tuple(sigma_levels),
        gradient_p_norms=tuple(grad_p),
        gradient_q_norms=tuple(grad_q),
        cauchy_p=tuple(cauchy_p),
        cauchy_q=tuple(cauchy_q),
        converged_n=tuple(s.converged for s in states),
        hypotheses_ok=states[0].hypotheses_ok,
    )
    return states, report


def make_weight(kind: str, amplitude: float, grid: Grid) -> ScalarField:
    """Weight field a(x); the gaussian A exp(-|x|^2) is strictly positive,
    integrable, and r-integrable for every finite r, with positive infimum
    on every ball."""
    if kind != "gaussian":
        raise ValueError(f"unknown weight kind {kind!r}")
    if not amplitude > 0.0:
        raise ValueError("amplitude must be positive")
    return ScalarField(grid, amplitude * np.exp(-grid.squared_distance((0.0,) * grid.N)))
