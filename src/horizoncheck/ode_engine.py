"""Explicit Runge-Kutta integration with dense output and domain-exit detection.

One engine serves every ODE in the package, one state vector per call: state
equations under a control signal, variational (transition-matrix) systems,
backward adjoint equations, the Ramsey phase-plane orbits and the
time-eliminated stable manifold, and payoff/gradient quadratures folded into
the state vector.  Trajectories carry the quartic continuous extension of
Dormand-Prince 5(4): the cubic Hermite of node states and node derivatives
plus one stored vector per step, formed from the step's stages without an
extra field evaluation.  Dense values are exact at the nodes and between
them as accurate as the nodes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Box",
    "ControlSignal",
    "ExitEvent",
    "IntegrationError",
    "IntegratorSettings",
    "NonExtendibleError",
    "Trajectory",
    "integrate",
    "integrate_controlled",
    "solve_state",
]


class IntegrationError(RuntimeError):
    """Step-size underflow, field blow-up, or other numerical failure."""


class NonExtendibleError(RuntimeError):
    """A trajectory left the state domain before the requested horizon.

    Distinct from :class:`IntegrationError`: the integration itself succeeded
    but terminated at the domain boundary.  Carries the exit event.
    """

    def __init__(self, event: "ExitEvent"):
        super().__init__(f"trajectory not extendible past t={event.time:.6g}: {event.description}")
        self.event = event


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box; +-inf bounds mean unbounded in that direction."""

    lower: np.ndarray
    upper: np.ndarray

    @staticmethod
    def unbounded(dim: int) -> "Box":
        return Box(np.full(dim, -np.inf), np.full(dim, np.inf))

    @staticmethod
    def from_bounds(lower, upper) -> "Box":
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        return Box(lo, hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, y: np.ndarray):
        """Whether ``y`` lies inside the open box, over leading axes: a bool
        for one state y[n], bool[m] for rows Y[m, n].  Strict comparisons are
        False for NaN and at infinite bounds, so a non-finite component is
        never inside."""
        return ((y > self.lower) & (y < self.upper)).all(axis=-1)

    def margins(self, y: np.ndarray) -> np.ndarray:
        """Per-component distance to the nearest face (negative once outside)."""
        return np.minimum(y - self.lower, self.upper - y)

    def describe_exit(self, y: np.ndarray) -> str:
        parts = []
        for i in range(self.dim):
            if y[i] <= self.lower[i]:
                parts.append(f"y[{i}] reached lower bound {self.lower[i]:g}")
            elif y[i] >= self.upper[i]:
                parts.append(f"y[{i}] reached upper bound {self.upper[i]:g}")
            elif not np.isfinite(y[i]):
                parts.append(f"y[{i}] non-finite")
        return "; ".join(parts) if parts else "left domain"

    def extended(self, extra_dims: int) -> "Box":
        """Same box with unbounded trailing components appended."""
        lo = np.concatenate([self.lower, np.full(extra_dims, -np.inf)])
        hi = np.concatenate([self.upper, np.full(extra_dims, np.inf)])
        return Box(lo, hi)


@dataclass(frozen=True)
class ExitEvent:
    time: float
    state: np.ndarray
    description: str


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float
    abs_tol: float
    max_step: float = math.inf

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_step <= 0:
            raise ValueError("tolerances and max_step must be positive")


# accepted steps after which an integration gives up
_MAX_STEPS = 4_000_000
# relative slack of the span tests of a trajectory
_SPAN_SLACK = 1e-9

# Dormand-Prince 5(4) tableau; row 7 equals the 5th-order weights (FSAL).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# weights of the quartic term of the continuous extension (DOPRI5 of Hairer,
# Norsett & Wanner, Solving ODEs I, II.6): d = h * (_DP_D @ K)
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])


class Trajectory:
    """Dense solution of an ODE on an increasing time grid.

    ``time_grid`` is nondecreasing; a repeated node marks a derivative jump
    (control switching time).  Row i of ``quartic`` is the vector d of the
    step from node i; at fraction theta the step evaluates to the cubic
    Hermite of its end states and slopes plus theta^2 (1 - theta)^2 d, the
    continuous extension of Dormand-Prince 5(4).  It is exact at the nodes
    and between them about as accurate (4.3e-8 inside a step against 1.7e-9
    at the nodes for a linear 2-D system at rel_tol 1e-10; the cubic alone
    errs by 7.0e-6).  d is zero on the last node, on a step cut short by an
    exit event and on a zero-length step, where the cubic holds.
    """

    def __init__(self, time_grid, states, derivs, quartic,
                 exit_event: Optional[ExitEvent] = None):
        self.time_grid = np.asarray(time_grid, dtype=float)
        self.states = np.atleast_2d(np.asarray(states, dtype=float))
        self.derivs = np.atleast_2d(np.asarray(derivs, dtype=float))
        self.quartic = np.atleast_2d(np.asarray(quartic, dtype=float))
        self.exit_event = exit_event
        if np.any(np.diff(self.time_grid) < 0):
            raise ValueError("time grid must be nondecreasing")
        # rows of another shape would broadcast in the vector path
        if not (self.time_grid.size == len(self.states)
                and self.states.shape == self.derivs.shape == self.quartic.shape):
            raise ValueError("states, derivs and quartic need one row per node, all of one width")

    @property
    def t0(self) -> float:
        return float(self.time_grid[0])

    @property
    def t_end(self) -> float:
        return float(self.time_grid[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def covers(self, t: float) -> bool:
        pad = _SPAN_SLACK * max(1.0, abs(self.t_end - self.t0))
        return self.t0 - pad <= t <= self.t_end + pad

    def reflected(self) -> "Trajectory":
        """The same solution in reflected time s = -t, on the increasing grid
        -t: states in reverse order, slopes negated, the exit event at -t."""
        ev = self.exit_event
        if ev is not None:
            ev = ExitEvent(-ev.time, ev.state, ev.description)
        # the quartic term is symmetric under theta -> 1 - theta, so each step
        # keeps its d; it moves to the step's new first node, and the zero
        # row of the last node to the end
        return Trajectory(-self.time_grid[::-1], self.states[::-1], -self.derivs[::-1],
                          np.roll(self.quartic[::-1], -1, axis=0), exit_event=ev)

    def _segments(self, tq):
        """Index of the grid interval holding each (clipped) query time."""
        return np.clip(np.searchsorted(self.time_grid, tq, side="right") - 1,
                       0, len(self.time_grid) - 2)

    @cached_property
    def _lookup(self) -> tuple:
        """For scalar reads: the grid as floats, the span padded by
        ``_SPAN_SLACK``, the width n and the node rows [state | slope | quartic]."""
        grid = self.time_grid.tolist()
        pad = _SPAN_SLACK * max(abs(grid[-1] - grid[0]), 1.0)
        return (grid, grid[0] - pad, grid[-1] + pad, self.dim,
                np.hstack([self.states, self.derivs, self.quartic]))

    def __call__(self, t):
        if isinstance(t, float):
            return self._at(float(t))
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return self._at(float(t_arr))
        tq = np.atleast_1d(t_arr)
        if tq.size:
            _check_span(tq.min(), tq.max(), self.t0, self.t_end)
        tq = np.clip(tq, self.t0, self.t_end)
        idx = self._segments(tq)
        ta = self.time_grid[idx]
        h = self.time_grid[idx + 1] - ta
        s = np.where(h > 0, (tq - ta) / np.where(h > 0, h, 1.0), 0.0)[:, None]
        q = s * (1 - s)
        return (_hermite_on_step(self.states[idx], self.derivs[idx], h[:, None],
                                 self.states[idx + 1], self.derivs[idx + 1], s)
                + q * q * self.quartic[idx])

    def _at(self, t: float) -> np.ndarray:
        """Scalar evaluation by :func:`_dense_floats`, which agrees with the
        vector path bit for bit, on the step's two rows of the packed block."""
        grid, lo, hi, n, rows = self._lookup
        if not lo <= t <= hi:
            _check_span(t, t, grid[0], grid[-1])
        t = min(max(t, grid[0]), grid[-1])
        i = min(max(bisect.bisect_right(grid, t) - 1, 0), len(grid) - 2)
        ta = grid[i]
        h = grid[i + 1] - ta
        s = (t - ta) / h if h > 0 else 0.0
        # i is -1 on a one-node grid, whose only step joins the node to itself
        a, b = rows[i:i + 2].tolist() if i >= 0 else 2 * rows.tolist()
        return np.array(_dense_floats(s, h, a, b, n))

    def derivative(self, t):
        """Time derivative of the dense output (used for residual checks)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        if t_arr.size:
            _check_span(t_arr.min(), t_arr.max(), self.t0, self.t_end)
        tq = np.atleast_1d(np.clip(t_arr, self.t0, self.t_end))
        idx = self._segments(tq)
        ta, tb = self.time_grid[idx], self.time_grid[idx + 1]
        h = tb - ta
        safe_h = np.where(h > 0, h, 1.0)
        s = np.where(h > 0, (tq - ta) / safe_h, 0.0)[:, None]
        out = (_hermite_slope_on_step(self.states[idx], self.derivs[idx], safe_h[:, None],
                                      self.states[idx + 1], self.derivs[idx + 1], s)
               + 2 * s * (1 - s) * (1 - 2 * s) / safe_h[:, None] * self.quartic[idx])
        return out[0] if scalar else out


def _check_span(lo, hi, t0, t_end):
    """Raise unless [lo, hi] lies in the span [t0, t_end] up to the relative
    ``_SPAN_SLACK``; a NaN bound fails the test."""
    pad = _SPAN_SLACK * max(abs(t_end - t0), 1.0)
    if not (t0 - pad <= lo and hi <= t_end + pad):
        raise ValueError(f"evaluation time outside trajectory span [{t0:.6g}, {t_end:.6g}]")


def _hermite_on_step(y, f0, h, y_new, f_new, theta):
    """Cubic Hermite at fraction ``theta`` of a step of width ``h`` from y to
    y_new with end slopes f0, f_new.  Scalar or column-vector theta and h.
    :class:`Trajectory` adds its quartic term to it; event localisation
    (:func:`_sweep_exit`) uses the cubic alone, as the cut step stores d = 0."""
    s = theta
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y_new + (s3 - s2) * h * f_new)


def _dense_floats(s, h, a, b, n) -> list:
    """:class:`Trajectory`'s dense value on Python floats, from the float
    rows a = [y | f0 | d] and b = [y_new | f_new | ...] of the step's end
    nodes, n components each: it rounds as the array expression does, bit
    for bit."""
    s2 = s * s
    s3 = s2 * s
    c0, c1 = 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h
    c2, c3 = -2 * s3 + 3 * s2, (s3 - s2) * h
    q = s * (1 - s)
    # zip stops after the n components of the shortest slice, a[2n:]
    return [c0 * y + c1 * f + c2 * z + c3 * g + q * q * d
            for y, f, z, g, d in zip(a, a[n:], b, b[n:], a[2 * n:])]


def _hermite_slope_on_step(y, f0, h, y_new, f_new, theta):
    """Time derivative of :func:`_hermite_on_step`, in closed form."""
    s = theta
    s2 = s * s
    inv_h = 1.0 / h
    return ((6 * s2 - 6 * s) * y * inv_h + (3 * s2 - 4 * s + 1) * f0
            + (-6 * s2 + 6 * s) * y_new * inv_h + (3 * s2 - 2 * s) * f_new)


def _initial_step(y0, f0, settings, span) -> float:
    """First step size from the initial state y0 and its slope f0."""
    scale = settings.abs_tol + settings.rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h = 1e-6 * max(span, 1.0) if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(h, span, settings.max_step)


def _error_norm(err, y, y_new, settings):
    """RMS of the error estimate relative to the mixed tolerance scale, for float
    sequences err and finite y, y_new.  The scaled squares are formed on floats,
    which round as numpy's elementwise operations do, and summed in numpy's order
    (a plain ``sum`` below 8 components, ``np.add.reduce`` from 8 on, where its
    pairwise order departs), so the result is that of the array expression."""
    atol, rtol = settings.abs_tol, settings.rel_tol
    squares = [(r := e / (atol + rtol * max(abs(a), abs(b)))) * r
               for e, a, b in zip(err, y, y_new)]
    total = sum(squares) if len(squares) < 8 else np.add.reduce(squares)
    return math.sqrt(total / len(squares))


def _with_faces(domain: Optional[Box]) -> Optional[Box]:
    """``domain``, or None for a box without a finite face: such a box holds
    every finite state, and only finite states are accepted."""
    if domain is None or np.isfinite(domain.lower).any() or np.isfinite(domain.upper).any():
        return domain
    return None


def _inside(v: list, faces: list) -> bool:
    """:meth:`Box.contains` of one state on floats: each component strictly
    between its (lower, upper) pair of ``faces``, so NaN is never inside."""
    return all(lo < x < hi for x, (lo, hi) in zip(v, faces))


def integrate(field: Callable[[float, np.ndarray], np.ndarray], t0: float, y0,
              t_end: float, settings: IntegratorSettings,
              domain: Optional[Box] = None,
              stops: Sequence[tuple] = ()) -> Trajectory:
    """Integrate ``dy/dt = field(t, y)`` from t0 to t_end (either direction)
    under the tolerances and step cap of ``settings``; ``field`` returns a
    float array of the state's shape.

    ``stops`` is a priority-ordered sequence of ``(label, predicate)`` pairs.
    A predicate is written over leading axes: it maps (t, y[n]) to a bool
    after each accepted step and (t[m], Y[m, n]) to bool[m] on the rows of
    interior points that localise an event, so it reads components as
    ``Y.T`` or ``Y[..., i]``.  The run stops early with an ``exit_event``
    when the solution reaches the boundary of the open ``domain`` box or
    when a predicate holds; a domain exit takes precedence, then the first
    label that holds.  The event is localized on the accepted step's cubic Hermite
    interpolant to within h_floor = 1e-9 of the span (see
    :func:`_sweep_exit`).  A stop that holds at t0 ends the run there.
    Backward integration is performed by time reversal of the field, with
    each predicate called as ``p(-s, y)``; the returned grid is always
    increasing.  A zero-length span makes the same initial checks as any
    other: a finite initial slope, an initial state inside the domain, and
    the stops at t0.

    Raises ``ValueError`` for a non-finite t0 or t_end, and
    ``IntegrationError`` on step-size underflow away from the domain
    boundary or on a non-finite field value that cannot be attributed to a
    boundary crossing.
    """
    _check_finite_span(t0, t_end)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    if t_end < t0:
        rev = lambda s, y: -field(-s, y)
        rstops = [(label, lambda s, y, p=pred: p(-s, y)) for label, pred in stops]
        return integrate(rev, -t0, y0, -t_end, settings, domain, rstops).reflected()

    span = t_end - t0
    h_floor = 1e-9 * span
    with np.errstate(all="ignore"):
        return _forward_loop(field, t0, y0, t_end, settings, domain, stops, span, h_floor)


def _check_finite_span(t0, t_end):
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"integration span [{t0:g}, {t_end:g}] must be finite")


def _forward_loop(field, t0, y0, t_end, settings, domain, stops, span, h_floor):
    f0 = np.atleast_1d(np.asarray(field(t0, y0), dtype=float))
    if not np.isfinite(f0).all():
        raise IntegrationError(f"field non-finite at initial point t={t0:g}")
    if domain is not None and not domain.contains(y0):
        raise ValueError("initial state outside the open domain")
    flat = np.zeros_like(y0)  # the quartic row of a last node or a cut step
    if (label := _first_label(stops, t0, y0)) is not None:
        return Trajectory([t0], [y0], [f0], [flat], exit_event=ExitEvent(t0, y0.copy(), label))
    domain = _with_faces(domain)
    faces = None if domain is None else list(zip(domain.lower.tolist(), domain.upper.tolist()))
    h = _initial_step(y0, f0, settings, span)
    t_last = t_end - 1e-14 * max(1.0, abs(t_end))

    ts, ys, fs, ds = [t0], [y0.copy()], [f0.copy()], []
    t, y, fy = t0, y0.copy(), f0
    y_floats = y.tolist()
    exit_event = None
    n_taken = 0
    K = np.empty((7, y.size))  # the stages of every attempt; K[0] is the FSAL slope
    # per stage i: its tableau row and node, the view K[:i] and the row view K[i]
    stages = list(zip(_DP_A[1:], _DP_C[1:], [K[:i] for i in range(1, 7)], K[1:]))
    k0, f_new = K[0], K[6]
    h_arr = np.empty(())  # h as a 0-d array, by which numpy scales faster than by a float

    while t < t_last:
        n_taken += 1
        if n_taken > _MAX_STEPS:
            raise IntegrationError("maximum number of steps exceeded")
        h = min(h, t_end - t, settings.max_step)
        k0[...] = fy

        # ---- take one step, with retries ----
        while True:
            h_arr[...] = h
            for a, c, head, k in stages:
                # y + h * np.dot(a, head) bit for bit, as IEEE sums and products commute
                yi = a.dot(head)
                yi *= h_arr
                yi += y
                k[...] = field(t + c * h, yi)
                # a finite sum implies finite entries; else the elementwise test decides
                finite = math.isfinite(sum(k.tolist())) or bool(np.isfinite(k).all())
                if not finite:
                    break
            # the last stage point is the 5th-order solution (FSAL); one that
            # overflowed fails the step like a non-finite stage does
            new_floats = yi.tolist()
            if not (finite and (math.isfinite(sum(new_floats)) or np.isfinite(yi).all())):
                h *= 0.5
                if h < h_floor:
                    ev = _boundary_stall(t, y, fy, domain, h_floor)
                    if ev is None:
                        raise IntegrationError(
                            f"step size underflow near t={t:g} (field or solution blow-up)")
                    exit_event = ev
                    break
                continue
            y_new = yi
            # h * (_DP_E @ K) bit for bit; a product fused with _DP_D's rounds differently
            err = _DP_E.dot(K)
            err *= h_arr
            err_norm = _error_norm(err.tolist(), y_floats, new_floats, settings)
            if not math.isfinite(err_norm):
                h *= 0.5
                if h < h_floor:
                    raise IntegrationError(f"step size underflow near t={t:g} (error estimate failed)")
                continue
            if err_norm > 1.0:
                h *= min(1.0, max(0.2, 0.9 * err_norm ** -0.2))
                if h < h_floor:
                    ev = _boundary_stall(t, y, fy, domain, h_floor)
                    if ev is None:
                        raise IntegrationError(f"step size underflow near t={t:g} (stiffness or blow-up)")
                    exit_event = ev
                    break
                continue
            break

        if exit_event is not None:
            ts.append(exit_event.time)
            ys.append(exit_event.state.copy())
            fs.append(fs[-1].copy())
            ds.append(flat)
            break

        t_new = t + h
        outside = faces is not None and not _inside(new_floats, faces)
        if outside or (stops and any(pred(t_new, y_new) for _, pred in stops)):
            exit_event, theta = _sweep_exit(t, y, fy, h, y_new, f_new,
                                            domain if outside else None, stops, h_floor)
            ts.append(exit_event.time)
            ys.append(exit_event.state)
            fs.append(_hermite_slope_on_step(y, fy, h, y_new, f_new, theta))
            ds.append(flat)
            break

        d = _DP_D.dot(K)
        d *= h_arr
        ds.append(d)
        # K is overwritten by the next step's stages, so the slope is copied out
        t, y, fy, y_floats = t_new, y_new, f_new.copy(), new_floats
        ts.append(t)
        ys.append(y)
        fs.append(fy)
        grow = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        h = max(h * grow, h_floor)

    ds.append(flat)
    return Trajectory(np.array(ts), np.array(ys), np.array(fs), np.array(ds),
                      exit_event=exit_event)


def _sweep_exit(t, y, fy, h, y_new, f_new, domain, stops, h_floor):
    """Exit event on the accepted step from (t, y) to (t + h, y_new) and its
    step fraction theta; the event localiser of :func:`integrate`.

    ``domain`` is given only when y_new has left it, and a domain exit takes
    precedence; otherwise some predicate of ``stops`` holds at y_new.  The
    event is localized by :func:`_sweep_predicate` on the step's Hermite
    interpolant (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6), which
    calls the domain test and each predicate on rows of interior points, as
    the contract of :func:`integrate` allows.  The event's label is the first
    of ``stops`` that holds there, else the first that holds at y_new.
    """
    def rows(theta):
        return _hermite_on_step(y, fy, h, y_new, f_new, theta)

    if domain is not None:
        theta = _sweep_predicate(lambda th: ~domain.contains(rows(th)), h, h_floor)
        y_ev = _snap_to_faces(rows(theta), domain)
        return ExitEvent(t + theta * h, y_ev, domain.describe_exit(y_ev)), theta

    def any_stop(th):
        t_rows, y_rows = t + th[:, 0] * h, rows(th)
        hit = np.zeros(th.shape[0], dtype=bool)
        for _, pred in stops:
            hit |= pred(t_rows, y_rows)
        return hit

    theta = _sweep_predicate(any_stop, h, h_floor)
    t_ev = t + theta * h
    y_ev = rows(theta)
    label = _first_label(stops, t_ev, y_ev) or _first_label(stops, t + h, y_new)
    return ExitEvent(t_ev, y_ev, str(label)), theta


def _first_label(stops, t, y):
    """Label of the first predicate of ``stops`` that holds at (t, y[n]), or None."""
    return next((label for label, pred in stops if pred(t, y)), None)


def _sweep_predicate(outside, h, h_floor):
    """Smallest theta in (0, 1] with outside(theta) true, to within
    h_floor/h (at most 80 bisection levels), found by dyadic sweeps.

    ``outside`` maps a column of thetas [p, 1] to bool[p].  Each round
    evaluates it once on the 2**j - 1 interior points of the bracket
    (j <= 6) and keeps the first sampled point where it holds, which settles
    j bisection levels at once; the level count is bisection's.  Every point
    is a dyadic rational, computed exactly, so for a predicate that holds
    from some theta on the result equals that of bisection bit for bit; for
    one that holds and fails again within the step the sweep keeps the first
    sampled crossing, where bisection may land on a later one.
    """
    tol = max(h_floor / h, 1e-15)
    levels, width = 0, 1.0
    while levels < 80 and width > tol:  # bisection halves until width <= tol
        levels += 1
        width *= 0.5
    lo, hi = 0.0, 1.0
    while levels:
        j = min(levels, 6)
        levels -= j
        points = lo + (hi - lo) / (1 << j) * np.arange(1.0, 1 << j)
        first = np.flatnonzero(outside(points[:, None]))
        if first.size:
            k = first[0]
            lo, hi = (float(points[k - 1]) if k else lo), float(points[k])
        else:
            lo = float(points[-1])
    return hi


def _boundary_stall(t, y, fy, domain, h_floor):
    """Resolve a step-size stall against a domain face as an exit event.

    Returns None when the stall is not attributable to a nearby face, in
    which case the caller reports a genuine integration failure.
    """
    if domain is None:
        return None
    margins = domain.margins(y)
    best = None
    for i in range(y.size):
        speed = abs(fy[i])
        if speed <= 0 or not math.isfinite(margins[i]):
            continue
        outward = (fy[i] < 0 and np.isfinite(domain.lower[i]) and
                   abs(y[i] - domain.lower[i]) == margins[i]) or \
                  (fy[i] > 0 and np.isfinite(domain.upper[i]) and
                   abs(domain.upper[i] - y[i]) == margins[i])
        if not outward:
            continue
        t_hit = margins[i] / speed
        if best is None or t_hit < best[0]:
            best = (t_hit, i)
    if best is None or best[0] > 1e4 * h_floor:
        return None
    t_hit, i = best
    y_ev = y + t_hit * fy
    y_ev = _snap_to_faces(y_ev, domain)
    return ExitEvent(t + t_hit, y_ev, domain.describe_exit(y_ev))


def _snap_to_faces(y, domain):
    slack_frac = 1e-7  # relative distance from a finite face snapped onto it
    y = y.copy()
    scale = np.maximum(1.0, np.abs(y))
    for i in range(y.size):
        if np.isfinite(domain.lower[i]) and y[i] - domain.lower[i] <= slack_frac * scale[i]:
            y[i] = domain.lower[i]
        if np.isfinite(domain.upper[i]) and domain.upper[i] - y[i] <= slack_frac * scale[i]:
            y[i] = domain.upper[i]
    return y


# ---------------------------------------------------------------------------
# control signals


class ControlSignal:
    """A control as a function of time: switching times t_1 < ... < t_m and
    one piece per interval (t_{i-1}, t_i], with t_0 = -inf and t_{m+1} = +inf.

    A piece is a constant control vector, or None for the closed form
    ``fn(t)``.  A switching time belongs to the interval it ends, the (a, b]
    convention of needle pulses.  ``with_needle`` splices a pulse into the
    lists the same way for every signal, so where pulses overlap the newest
    one holds.  Integration never evaluates a signal across a switch:
    ``integrate_controlled`` cuts the time span at every switching time and
    integrates each segment under the piece that covers it.
    """

    def __init__(self, times, pieces, dim, fn=None):
        self._times = [float(t) for t in times]
        self._pieces = list(pieces)
        self.dim = int(dim)
        self._fn = fn

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(u) -> "ControlSignal":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return ControlSignal([], [u], u.size)

    @staticmethod
    def piecewise_constant(times, values) -> "ControlSignal":
        times = np.asarray(times, dtype=float)
        vals = np.atleast_2d(np.asarray(values, dtype=float))
        if vals.shape[0] == 1 and vals.shape[1] == times.size + 1:
            vals = vals.T  # accept 1-d control given as a flat list
        if vals.shape[0] != times.size + 1:
            raise ValueError("need len(times) + 1 control values")
        if np.any(np.diff(times) <= 0):
            raise ValueError("switching times must be strictly increasing")
        return ControlSignal(times, vals, vals.shape[1])

    @staticmethod
    def closed_form(fn: Callable[[float], np.ndarray], dim: int) -> "ControlSignal":
        return ControlSignal([], [None], dim, fn)

    # -- evaluation ----------------------------------------------------
    def evaluate(self, t: float) -> np.ndarray:
        piece = self._pieces[bisect.bisect_left(self._times, t)]
        return self._closed(t) if piece is None else piece

    def _closed(self, t: float) -> np.ndarray:
        return np.atleast_1d(np.asarray(self._fn(t), dtype=float))

    def breakpoints(self) -> np.ndarray:
        return np.array(self._times)

    def segment_piece(self, a: float, b: float):
        """The piece that covers (a, b]: its constant vector, or the closed
        form as a function of t; None when no one piece covers it."""
        i = bisect.bisect_left(self._times, b)
        if i and self._times[i - 1] > a:
            return None
        piece = self._pieces[i]
        return self._closed if piece is None else piece

    def with_needle(self, tau: float, alpha: float, u) -> "ControlSignal":
        """The signal with the constant ``u`` spliced in on the pulse interval
        (tau - alpha, tau]; the signal itself when every piece that meets the
        interval already equals ``u``."""
        if not 0 < alpha < math.inf:  # also rejects NaN
            raise ValueError(f"needle width must be finite and positive, got {alpha!r}")
        u = np.atleast_1d(np.asarray(u, dtype=float))
        a, b = tau - alpha, tau
        # pieces i..j meet (a, b]: piece i holds on until a, piece j on from b
        i = bisect.bisect_right(self._times, a)
        j = bisect.bisect_left(self._times, b)
        if all(p is not None and np.array_equal(p, u) for p in self._pieces[i:j + 1]):
            return self
        times = self._times[:i] + [a, b] + self._times[j:]
        pieces = self._pieces[:i + 1] + [u] + self._pieces[j:]
        # a switching time already at a or b leaves an empty piece: drop both
        empty = {k for k in range(1, len(times)) if times[k] == times[k - 1]}
        return ControlSignal([t for k, t in enumerate(times) if k not in empty],
                             [p for k, p in enumerate(pieces) if k not in empty],
                             self.dim, self._fn)


def integrate_controlled(rhs: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
                         control: ControlSignal, t0: float, y0, t_end: float,
                         settings: IntegratorSettings,
                         domain: Optional[Box]) -> Trajectory:
    """Integrate ``dy/dt = rhs(y, u(t), t)`` forward from t0 to t_end, one
    :func:`integrate` call per segment between the control's switching times,
    so a discontinuous control is handled exactly: a node is placed at every
    switch, and each segment runs under the piece that covers it, a constant
    piece frozen and a closed-form piece called as its own function, also at
    the segment's first node, where the signal takes the piece that ends
    there.  ``settings`` and ``domain`` are those of :func:`integrate`; there
    are no stops.  A backward span raises ``ValueError``."""
    if t_end < t0:
        raise ValueError("integrate_controlled integrates forward: need t_end >= t0")
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    nodes = [t0] + [c for c in control.breakpoints() if t0 < c < t_end] + [t_end]

    pieces = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        piece = control.segment_piece(a, b)
        if callable(piece):
            fld = lambda t, yy, fn=piece: rhs(yy, fn(t), t)
        else:
            fld = lambda t, yy, u=piece: rhs(yy, u, t)
        pieces.append(integrate(fld, a, y, b, settings, domain))
        if pieces[-1].exit_event is not None:
            break
        y = pieces[-1].states[-1]

    return Trajectory(np.concatenate([p.time_grid for p in pieces]),
                      np.vstack([p.states for p in pieces]),
                      np.vstack([p.derivs for p in pieces]),
                      np.vstack([p.quartic for p in pieces]), exit_event=pieces[-1].exit_event)


def solve_state(problem, control: ControlSignal, t_end: float,
                settings: IntegratorSettings) -> Trajectory:
    """State response of a control problem under a control signal.

    Integrates dx/dt = f(x, u(t), t) forward from the problem's initial
    point to t_end under ``settings``, with the problem's open state domain;
    a domain exit marks the trajectory non-extendible and is recorded as
    ``exit_event`` rather than raised.  A t_end before the initial time
    raises ``ValueError``, as :func:`integrate_controlled` does.
    """
    return integrate_controlled(problem.dynamics, control, problem.initial_time,
                                problem.initial_state, t_end, settings, problem.state_domain)
