"""Control problems, their derivatives, and the Hamiltonian.

A :class:`ControlProblem` bundles the dynamics f(x, u, t), the payoff rate
g(x, u, t), the admissible control set, and the open state domain.  This
module holds only the generic model; the built-in problems are defined in
``reference_examples``.

The problem functions take arrays.  ``dynamics(x, u, t)`` takes states
``x[..., n]`` and controls ``u[..., d]`` with equal leading shapes, and ``t``
a float or an array of that leading shape; it returns ``[..., n]``, and
``payoff(x, u, t)`` returns ``[...]``, one value per point.  The leading
shape ``()`` is one point.  Both return new arrays, never a view of an
input.  So a batch costs one call of each: all (time, control) cells of
:func:`hamiltonian_jumps`, all times of :func:`hamiltonian`, and all 2n
probe points of a finite-difference :func:`jacobians`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ode_engine import Box

__all__ = [
    "ControlProblem",
    "ControlSet",
    "hamiltonian",
    "hamiltonian_jumps",
    "jacobians",
]

Array = np.ndarray
# f(x[..., n], u[..., d], t) -> [..., n] and g(x, u, t) -> [...]: x and u
# have equal leading shapes, t is a float or an array of that leading shape,
# and the result is a new array, not a view of an input
DynamicsFn = Callable[[Array, Array, "float | Array"], Array]
PayoffFn = Callable[[Array, Array, "float | Array"], "float | Array"]

FD_STEP_DEFAULT = 1e-6  # central-difference sweet spot at double precision
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class ControlSet:
    """Admissible control values: an axis-aligned box, closed except for the
    lower faces marked ``lower_open``.

    Open faces are sampled with a small inward offset so grid maximization
    never evaluates at an excluded endpoint.  Membership allows a relative
    slack of 1e-9 at closed faces.
    """

    lower: Array
    upper: Array
    lower_open: Array

    @staticmethod
    def box(lower, upper, lower_open=False) -> "ControlSet":
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have equal shape")
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        lo_open = np.broadcast_to(np.asarray(lower_open, dtype=bool), lo.shape).copy()
        return ControlSet(lo, hi, lo_open)

    def contains(self, u) -> bool:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        slack = 1e-9 * np.maximum(1.0, np.abs(u))
        lo_ok = np.where(self.lower_open, u > self.lower, u >= self.lower - slack)
        return bool(np.all(lo_ok) and np.all(u <= self.upper + slack))

    def sample_grid(self, resolution: int) -> Array:
        """Grid of control vectors; always contains the (effective) box
        vertices."""
        if resolution < 2:
            resolution = 2
        axes = []
        for lo, hi, lo_open in zip(self.lower, self.upper, self.lower_open):
            width = hi - lo
            if not np.isfinite(width):
                raise ValueError("cannot sample an unbounded control box")
            nudge = 1e-6 * max(width, 1.0)
            lo_eff = lo + nudge if lo_open else lo
            axes.append(np.linspace(lo_eff, hi, resolution))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class ControlProblem:
    """Immutable problem definition; all operations are pure functions.

    ``dynamics`` and ``payoff`` follow the array contract of
    :data:`DynamicsFn` and :data:`PayoffFn`: they broadcast over the leading
    axes of x[..., n] and u[..., d] (t a float or an array of that leading
    shape), return [..., n] and [...], and never a view of an input.  The
    optional derivatives take one point: x of shape (n,), u of shape (d,).
    """

    state_dim: int
    control_dim: int
    dynamics: DynamicsFn
    payoff: PayoffFn
    control_set: ControlSet
    state_domain: Box
    initial_state: Array
    initial_time: float = 0.0
    dynamics_jac_x: Optional[Callable[[Array, Array, float], Array]] = None
    payoff_grad_x: Optional[Callable[[Array, Array, float], Array]] = None
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "initial_state",
                           np.atleast_1d(np.asarray(self.initial_state, dtype=float)))
        if self.state_dim <= 0 or self.control_dim <= 0:
            raise ValueError("state and control dimensions must be positive")
        if self.initial_state.size != self.state_dim:
            raise ValueError("initial state has wrong dimension")
        if not self.state_domain.contains(self.initial_state):
            raise ValueError("initial state outside the open state domain")


def hamiltonian(problem: ControlProblem, x, u, t, psi, lam):
    """lam * g(x, u, t) + <psi, f(x, u, t)> at every point of the leading
    axes, from one f call and one g call.

    x[..., n], u[..., d] and t follow the array contract, with leading shape
    L.  ``psi`` is one vector per point, shape L + (n,), giving shape L (a
    float for L = ()), or a stack of m rows per point, shape L + (m, n),
    with one lam per row, giving L + (m,).  Raises ValueError, naming the
    first non-finite value's x, u and t, when a value is non-finite, which
    signals payoff or dynamics blow-up at that point (e.g. CRRA utility as
    c -> 0 with theta > 1).
    """
    x, u, psi = (np.asarray(a, dtype=float) for a in (x, u, psi))
    with np.errstate(all="ignore"):
        f, g = problem.dynamics(x, u, t), problem.payoff(x, u, t)
        if psi.ndim > x.ndim:  # a stack of rows per point
            value = lam * np.expand_dims(g, -1) + (psi @ f[..., None])[..., 0]
        else:
            value = lam * g + (psi[..., None, :] @ f[..., None])[..., 0, 0]
    bad = ~np.isfinite(value)
    if bad.any():
        point = tuple(np.argwhere(bad)[0][:x.ndim - 1])
        raise ValueError(f"non-finite Hamiltonian at x={x[point]}, u={u[point]}, "
                         f"t={_time_at(t, x, point):g}")
    return float(value) if np.ndim(value) == 0 else value


def hamiltonian_jumps(problem: ControlProblem, x, u_hat, t, controls, psi,
                      lam) -> Array:
    """H(x, u, t, psi, lam) - H(x, u_hat, t, psi, lam) for every control u in
    ``controls`` at every point of the leading axes, as
    lam * (g(u) - g(u_hat)) + <psi, f(u) - f(u_hat)>.

    x[..., n], u_hat[..., d] and t follow the array contract, with leading
    shape L; ``controls`` is (n_u, d), shared by every point.  ``psi`` is one
    vector per point, shape L + (n,), giving shape L + (n_u,), or a stack of
    m rows per point, shape L + (m, n), giving L + (m, n_u).  ``lam`` is a
    scalar, or one multiplier per row of the stack.  All (point, control)
    cells take one f call and one g call, and the candidate's own values one
    more each.  The jump is exactly zero where u equals u_hat.  Raises
    ValueError when a jump is non-finite, as :func:`hamiltonian` does.
    """
    x, u_hat, psi = (np.asarray(a, dtype=float) for a in (x, u_hat, psi))
    controls = np.asarray(controls, dtype=float).reshape(-1, problem.control_dim)
    cells = (*x.shape[:-1], len(controls))
    xs = np.broadcast_to(x[..., None, :], (*cells, x.shape[-1]))
    us = np.broadcast_to(controls, (*cells, controls.shape[-1]))
    ts = t if np.ndim(t) == 0 else np.broadcast_to(np.asarray(t, dtype=float)[..., None], cells)
    with np.errstate(all="ignore"):
        df = problem.dynamics(xs, us, ts) - problem.dynamics(x, u_hat, t)[..., None, :]
        dg = problem.payoff(xs, us, ts) - np.expand_dims(problem.payoff(x, u_hat, t), -1)
        if psi.ndim > x.ndim:  # a stack of rows per point
            jumps = psi @ np.swapaxes(df, -1, -2)
            dg = dg[..., None, :]
        else:
            jumps = (psi[..., None, :] @ np.swapaxes(df, -1, -2))[..., 0, :]
        jumps += np.expand_dims(lam, -1) * dg  # in place: no second array of jumps
    bad = ~np.isfinite(jumps)
    if bad.any():
        cell = np.argwhere(bad)[0]
        point = tuple(cell[:x.ndim - 1])
        raise ValueError(f"non-finite Hamiltonian jump at x={x[point]}, u={controls[cell[-1]]}, "
                         f"u_hat={u_hat[point]}, t={_time_at(t, x, point):g}")
    return jumps


def _time_at(t, x: Array, point: tuple) -> float:
    """The time of the point at leading index ``point`` of x[..., n]."""
    return float(np.broadcast_to(t, x.shape[:-1])[point])


def jacobians(problem: ControlProblem, x, u, t: float):
    """State Jacobian of f and state gradient of g at (x, u, t).

    Analytic derivatives are used when the problem supplies them; otherwise
    central differences with a per-component step max(h, h*|x_i|) for
    h = ``FD_STEP_DEFAULT``, shrinking the step when a probe point would
    leave the state domain.  All 2n probe points go to f, and to g, in one
    call.
    """
    # the variational fields hand over 1-D float arrays, which pass as they are
    if not (type(x) is type(u) is np.ndarray and x.ndim == u.ndim == 1
            and x.dtype is u.dtype is _FLOAT):
        x, u = _vector(x), _vector(u)
    jac_x, grad_x = problem.dynamics_jac_x, problem.payoff_grad_x
    if jac_x is None or grad_x is None:
        points, widths = _probes(problem, x)
        us = np.broadcast_to(u, (len(points), u.size))
    if jac_x is not None:
        fx = np.asarray(jac_x(x, u, t), dtype=float)
        if fx.ndim < 2:
            fx = np.atleast_2d(fx)
    else:
        values = problem.dynamics(points, us, t)
        fx = ((values[0::2] - values[1::2]) / widths[:, None]).T
    if grad_x is not None:
        gx = grad_x(x, u, t)
        if not (type(gx) is np.ndarray and gx.ndim == 1 and gx.dtype is _FLOAT):
            gx = _vector(gx)
    else:
        values = problem.payoff(points, us, t)
        gx = (values[0::2] - values[1::2]) / widths
    return fx, gx


def _vector(v) -> Array:
    """``np.atleast_1d(np.asarray(v, dtype=float))`` without its call overhead
    (these conversions run at every stage of the variational solves)."""
    v = np.asarray(v, dtype=float)
    return v if v.ndim else v.reshape(1)


def _probes(problem: ControlProblem, x: Array):
    """The central-difference probe points of x, (2n, n) with x +- h_i e_i in
    rows 2i and 2i + 1, and the widths 2 h_i, (n,)."""
    pairs = [_probe_pair(problem, x, i) for i in range(x.size)]
    points = np.array([p for plus, minus, _ in pairs for p in (plus, minus)])
    return points, np.array([2 * hi for *_, hi in pairs])


def _probe_pair(problem: ControlProblem, x, i: int):
    hi = max(FD_STEP_DEFAULT, FD_STEP_DEFAULT * abs(x[i]))
    while hi >= 1e-12:
        plus, minus = x.copy(), x.copy()
        plus[i] += hi
        minus[i] -= hi
        if problem.state_domain.contains(plus) and problem.state_domain.contains(minus):
            return plus, minus, hi
        hi *= 0.5
    raise ValueError(f"cannot probe component {i}: domain too thin around x={x}")

