"""State-space cross-checks, independent of the component-form engine.

Transition probability matrices P(s, t) solve the forward equation
dP/dt = P A(t) with P(s, s) = I. For intensities that are constant between
breakpoints this is a product of matrix exponentials (exact); otherwise a
high-order Runge-Kutta solve, restarted at every rate discontinuity.

On top of P(s, t) sit closed-form likelihoods for the classical record
patterns of a three-state progressive model (healthy -> ill -> dead, with
direct death): panel visits plus an exactly observed death. These follow a
completely different route than the quadrature engine, which is what makes
the agreement test between the two meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Constant, PiecewiseConstant
from .errors import InconsistentObservationError, InvalidInputError, StiffnessError
from .markov import MarkovSpec

_ODE_RTOL = 1e-10
_ODE_ATOL = 1e-13


@dataclass(frozen=True)
class TransitionMatrix:
    s: float
    t: float
    matrix: np.ndarray

    def __getitem__(self, hj) -> float:
        return float(self.matrix[hj])


def _segment_edges(spec: MarkovSpec, s: float, t: float) -> list[float]:
    inner = [b for b in spec.breakpoints() if s < b < t]
    return [s] + sorted(inner) + [t]


def _piecewise_exponential(spec: MarkovSpec) -> bool:
    return all(isinstance(b, (Constant, PiecewiseConstant)) or getattr(b, "time_constant", False)
               for b in spec.transitions.values())


def _ode_segment(spec: MarkovSpec, P: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Advance P across one smooth segment of dP/dt = P A(t).

    If A blows up at the left edge (a Weibull baseline with shape < 1 has
    infinite rate at time 0), integrate in the substituted clock
    t = lo + w * tau**4, whose Jacobian 4 w tau**3 flattens integrable
    singularities up to t**(-3/4); the solver then never needs A at the
    edge itself.
    """
    K = spec.K
    w = hi - lo
    if np.all(np.isfinite(spec.rate_matrix(lo))):
        def rhs(u, y):
            return (y.reshape(K, K) @ spec.rate_matrix(u)).ravel()

        span = (lo, hi)
    else:
        def rhs(tau, y):
            if tau <= 0.0:
                return np.zeros(K * K)
            jac = 4.0 * w * tau ** 3
            return (y.reshape(K, K) @ spec.rate_matrix(lo + w * tau ** 4)).ravel() * jac

        span = (0.0, 1.0)
    # only the cross-checks need scipy; importing it at module level slows start-up
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, span, P.ravel(), method="DOP853",
                    rtol=_ODE_RTOL, atol=_ODE_ATOL)
    if not sol.success:
        raise StiffnessError(f"transition solve failed on ({lo}, {hi}): {sol.message}")
    return sol.y[:, -1].reshape(K, K)


def transition_matrix(spec: MarkovSpec, s: float, t: float) -> TransitionMatrix:
    """Transition probabilities P_hj(s, t) for all state pairs."""
    if not (0 <= s <= t) or not np.isfinite(t):
        raise InvalidInputError(f"need 0 <= s <= t finite, got ({s}, {t})")
    K = spec.K
    P = np.eye(K)
    if t > s:
        edges = _segment_edges(spec, s, t)
        if _piecewise_exponential(spec):
            # only the cross-checks need scipy; importing it at module level slows start-up
            from scipy.linalg import expm

            for lo, hi in zip(edges[:-1], edges[1:]):
                A = spec.rate_matrix(0.5 * (lo + hi))
                P = P @ expm(A * (hi - lo))
        else:
            for lo, hi in zip(edges[:-1], edges[1:]):
                P = _ode_segment(spec, P, lo, hi)
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-9 or P.min() < -1e-9 or P.max() > 1 + 1e-9:
        raise StiffnessError(f"transition matrix left the probability simplex (rows {rows})")
    P = np.clip(P, 0.0, 1.0)
    return TransitionMatrix(s, t, P)


def _stay_prob(spec: MarkovSpec, h: int, s: float, t: float) -> float:
    """P_hh(s, t) = exp(-total outflow), exact for any baseline."""
    out = 0.0
    for (a, b), base in spec.transitions.items():
        if a == h:
            out += base.cum(s, t)
    return float(np.exp(-out))


def loglik_continuous_markov(spec: MarkovSpec, x0: int, transitions, C: float) -> float:
    """Log-likelihood of a fully observed state path.

    transitions is the ordered list of (time, new_state); the path is
    right-censored at C in whatever state it then occupies.
    """
    state, t_prev = x0, 0.0
    ll = 0.0
    for t_r, x_r in transitions:
        if not (t_prev < t_r <= C):
            raise InvalidInputError(f"transition times must increase within (0, {C}]")
        if (state, x_r) not in spec.transitions:
            raise InconsistentObservationError(f"path uses undeclared transition {state} -> {x_r}")
        ll += np.log(_stay_prob(spec, state, t_prev, t_r))
        ll += np.log(spec.transitions[(state, x_r)].rate(t_r))
        state, t_prev = x_r, t_r
    ll += np.log(_stay_prob(spec, state, t_prev, C))
    return float(ll)


def loglik_discrete_markov(spec: MarkovSpec, visits, states) -> float:
    """Log-likelihood of states read at panel visits (first visit conditioned on)."""
    visits = [float(v) for v in visits]
    states = [int(x) for x in states]
    if len(visits) != len(states) or len(visits) < 2:
        raise InvalidInputError("need matching visit/state lists with at least two entries")
    ll = 0.0
    for k in range(len(visits) - 1):
        P = transition_matrix(spec, visits[k], visits[k + 1])
        p = P[states[k], states[k + 1]]
        with np.errstate(divide="ignore"):
            ll += np.log(p)
    return float(ll)


def illness_death_mixed_loglik(spec: MarkovSpec, visits, first_ill_visit: int | None,
                               death_time: float, death_observed: bool) -> float:
    """Closed-form record likelihood for the progressive three-state model.

    Illness status is read only at `visits` (the first visit is conditioned
    on, state healthy); death is timed exactly, at `death_time` with
    death_observed=False meaning alive at the horizon = death_time.
    `first_ill_visit` is the index of the first visit showing illness, or
    None if never seen ill. Works for any baseline family in the spec.
    """
    if spec.K != 3 or spec.compact is not True or spec.p != 2:
        raise InvalidInputError("expects the two-component progressive layout (3 states)")
    visits = [float(v) for v in visits]
    if len(visits) < 1 or any(b <= a for a, b in zip(visits, visits[1:])):
        raise InvalidInputError("visits must be strictly increasing")
    if visits[-1] > death_time:
        raise InvalidInputError("visits must not extend past the end of follow-up")
    T, delta = float(death_time), bool(death_observed)

    def alpha(h: int, t: float) -> float:
        base = spec.transitions.get((h, 2))
        return float(base.rate(t)) if base is not None else 0.0

    if first_ill_visit is None:
        vm = visits[-1]
        P0 = transition_matrix(spec, visits[0], vm)
        Pm = transition_matrix(spec, vm, T)
        healthy = Pm[0, 0] * (alpha(0, T) if delta else 1.0)
        ill = Pm[0, 1] * (alpha(1, T) if delta else 1.0)
        val = P0[0, 0] * (healthy + ill)
    else:
        l = int(first_ill_visit)
        if not (1 <= l < len(visits)):
            raise InvalidInputError(f"first positive visit index {l} out of range")
        P0 = transition_matrix(spec, visits[0], visits[l - 1])
        Pl = transition_matrix(spec, visits[l - 1], visits[l])
        Pm = transition_matrix(spec, visits[l], T)
        val = P0[0, 0] * Pl[0, 1] * Pm[1, 1] * (alpha(1, T) if delta else 1.0)
    with np.errstate(divide="ignore"):
        return float(np.log(val))
