"""Explicit Runge-Kutta integration with dense output and domain-exit detection.

One engine serves every ODE in the package, one state vector per call and
always forward in time: state equations under a control signal, variational
(transition-matrix) systems, the Ramsey phase-plane orbits and the
time-eliminated stable manifold, and payoff/gradient quadratures folded into
the state vector, the payoffs of several controls side by side under one
stacked signal.  Every step is one of the eighth-order Dormand-Prince pair
DOP853 (Prince & Dormand 1981; Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5-II.6), and trajectories carry its seventh-order dense output: the cubic
Hermite of node states and node slopes plus four coefficient vectors per step,
formed from the step's stages and three extra ones.  Dense values are exact at
the nodes and between them close to the nodes' accuracy (see
``_MEASURE_LIMIT``), and exit events are localised on them.
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

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


# accepted steps after which an integration gives up
_MAX_STEPS = 4_000_000
# Hairer's measure (:func:`_error_norm`) bounds the error of the eighth-order
# solution, but the seventh-order dense output errs more between the nodes,
# most where the measure dips by cancellation.  A step is accepted when the
# measure is at most this limit rather than 1: on dx/dt = -x + u a costate
# read between the nodes of the (x, Y, S) pass then errs 4.2e-9 instead of
# 1.2e-8, for 20 % more field evaluations
_MEASURE_LIMIT = 0.2
# relative slack of the span tests of a trajectory
_SPAN_SLACK = 1e-9

# DOP853 of Hairer, Norsett & Wanner (Solving ODEs I, II.5-II.6; Prince &
# Dormand 1981).  Stages 0-11 form the step, and row 12 of _A holds the
# eighth-order weights: stage 12 is the slope at the new state (FSAL).
# Stages 13-15 serve only the dense output.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])
_A = np.zeros((16, 16))
# each row from column 0 to its last nonzero entry
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
             1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
             1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
             8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
             -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
             2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
             -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
             1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
             -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
               1.09143734899672957818500254654, -8.14978701074692612513997267357,
               -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
               2.49360555267965238987089396762, -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
               -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
               2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
               -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
               6.43392746015763530355970484046e-1]
_A[12, :12] = [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
               4.45031289275240888144113950566, 1.89151789931450038304281599044,
               -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2]
_A[13, :13] = [5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
               2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
               -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
               8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
               -8.298e-3]
_A[14, :14] = [3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
               2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
               -5.49237485713909884646569340306e-2, 0.0, 0.0,
               -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
               -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
_A[15, :15] = [-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
               -4.69762141536116384314449447206, 7.68342119606259904184240953878,
               4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
               0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
               2.9475147891527723389556272149, -9.15095847217987001081870187138]
_B = _A[12, :12]
# error weights of the fifth-order and the third-order estimate; Hairer's
# combined measure (:func:`_error_norm`) is of order five with the exponent
# of order eight in the step controller
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1])
_E3 = _B - np.array([0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.733846688281611857341361741547, 0.0, 0.0,
                     0.220588235294117647058823529412e-1])
_ERR = np.array([_E5, _E3])
# dense output: on a step of width h the value at fraction theta is the cubic
# Hermite of the step's ends plus theta^2 (1 - theta)^2 (d0 + theta (d1 +
# (1 - theta) (d2 + theta d3))), with rows d = h * (_D @ K) over all 16 stages
_D = np.zeros((4, 16))
_D[0] = [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
         0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
         0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
         -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
         0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
         0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
         -0.44360363875948939664310572000e+1]
_D[1] = [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
         0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
         -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
         0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
         -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
         -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
         0.35816841486394083752465898540e+2]
_D[2] = [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
         -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
         0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
         0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
         0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
         -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
         0.11992291136182789328035130030e+2]
_D[3] = [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
         -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
         0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
         -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
         0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
         0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
         -0.14972683625798562581422125276e+3]
# A trajectory stores that cubic factor in powers of u = 2 theta - 1 instead,
# e0 + u (e1 + u (e2 + u e3)); row k of this map gives e_k from d0..d3.
_U_BASIS = np.array([[1.0, 0.5, 0.25, 0.125], [0.0, 0.5, 0.0, 0.125],
                     [0.0, 0.0, -0.25, -0.125], [0.0, 0.0, 0.0, -0.125]])
_DENSE = _U_BASIS @ _D
# a step cut at fraction theta is refitted on four interior fractions sigma of
# the cut step: its cubic factor there, interpolated in powers of u
_CUT_SIGMA = np.array([0.2, 0.4, 0.6, 0.8])[:, None]
_CUT_FIT = np.linalg.inv(np.vander(2 * _CUT_SIGMA[:, 0] - 1, 4, increasing=True))


class Trajectory:
    """Dense solution of an ODE on an increasing time grid.

    ``time_grid`` is nondecreasing; a repeated node marks a derivative jump
    (control switching time).  ``coeffs[i]`` holds the four rows e0..e3 of
    the step from node i: at fraction theta the step evaluates to the cubic
    Hermite of its end states and slopes plus theta^2 (1 - theta)^2 (e0 +
    u (e1 + u (e2 + u e3))) with u = 2 theta - 1, the seventh-order dense
    output of DOP853.  It is exact at the nodes and between them close to
    their accuracy.  The rows are zero on the last node, on a zero-length
    step and on a step ended by a step-size stall, where the cubic holds; a
    step cut short by an exit event keeps its polynomial, restricted to the
    part before the event.
    """

    def __init__(self, time_grid, states, derivs, coeffs,
                 exit_event: Optional[ExitEvent] = None):
        self.time_grid = np.asarray(time_grid, dtype=float)
        self.states = np.atleast_2d(np.asarray(states, dtype=float))
        self.derivs = np.atleast_2d(np.asarray(derivs, dtype=float))
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.exit_event = exit_event
        if np.any(np.diff(self.time_grid) < 0):
            raise ValueError("time grid must be nondecreasing")
        # rows of another shape would broadcast in the vector path
        n_nodes, dim = self.states.shape
        if not (self.time_grid.size == n_nodes and self.derivs.shape == self.states.shape
                and self.coeffs.shape == (n_nodes, 4, dim)):
            raise ValueError("states, derivs and coeffs need one row per node, all of one width")

    @property
    def t0(self) -> float:
        return float(self.time_grid[0])

    @property
    def t_end(self) -> float:
        return float(self.time_grid[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def _span(self) -> tuple:
        """[t0, t_end], each end moved out by ``_SPAN_SLACK`` max(1, t_end - t0)."""
        pad = _SPAN_SLACK * max(abs(self.t_end - self.t0), 1.0)
        return self.t0 - pad, self.t_end + pad

    def covers(self, t: float) -> bool:
        return self._span[0] <= t <= self._span[1]

    def columns(self, start: int, stop: int) -> "Trajectory":
        """The solution's components start..stop - 1, on views of this
        trajectory's rows; the exit event, a state of every component, is
        not carried."""
        return Trajectory(self.time_grid, self.states[:, start:stop],
                          self.derivs[:, start:stop], self.coeffs[:, :, start:stop])

    def crossings(self, i: int, value: float):
        """Times, in increasing order, at which component i reaches ``value``:
        on each step of positive width whose end nodes do not lie strictly on
        one side of it, the first fraction where the dense output lies at it
        or past it, by :func:`_bisect` to within 1e-15 of the step; a node
        at it belongs to the step that ends there.  A generator, so a caller
        that takes the first few localises no more."""
        grid, _, _, n, rows = self._lookup
        vals = self.states[:, i] - value
        hits = (vals[:-1] * vals[1:] <= 0) & np.r_[True, vals[1:-1] != 0]
        for k in np.flatnonzero(hits).tolist():
            h = grid[k + 1] - grid[k]
            if h > 0:
                # component i's entries [y | f | e0..e3] of the step's end nodes
                a, b = rows[k:k + 2, i::n].tolist()
                first = a[0] - value
                yield grid[k] + h * _bisect(
                    lambda s: first * (_dense_floats(s, h, a, b, 1)[0] - value) <= 0, 0.0)

    def _segments(self, tq):
        """Index of the grid interval holding each (clipped) query time."""
        return np.clip(np.searchsorted(self.time_grid, tq, side="right") - 1,
                       0, len(self.time_grid) - 2)

    def _steps(self, t):
        """Span-checked query times as the step index, fraction s and width
        h of each (s = 0 where h = 0), s and h as columns; a one-node grid's
        only step joins the node to itself."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.size:
            self._check_span(t_arr.min(), t_arr.max())
        tq = np.clip(t_arr, self.t0, self.t_end)
        idx = self._segments(tq)
        ta = self.time_grid[idx]
        h = self.time_grid[idx + 1] - ta
        safe_h = np.where(h > 0, h, 1.0)
        s = np.where(h > 0, (tq - ta) / safe_h, 0.0)[:, None]
        return idx, s, h[:, None]

    @cached_property
    def _lookup(self) -> tuple:
        """For scalar reads and crossings: the grid as floats, the padded span
        ``_span``, the width n and the node rows [state | slope | e0..e3]."""
        grid = self.time_grid.tolist()
        return (grid, *self._span, self.dim,
                np.hstack([self.states, self.derivs, self.coeffs.reshape(len(grid), -1)]))

    def __call__(self, t):
        if isinstance(t, float) or np.ndim(t) == 0:
            return self._at(float(t))
        i, s, h = self._steps(t)
        return _dense_on_step(self.states[i], self.derivs[i], h, self.states[i + 1],
                              self.derivs[i + 1], self.coeffs[i], s)

    def _at(self, t: float) -> np.ndarray:
        """Scalar evaluation by :func:`_dense_floats`, which agrees with the
        vector path bit for bit, on the step's two rows of the packed block."""
        grid, lo, hi, n, rows = self._lookup
        if not lo <= t <= hi:
            self._check_span(t, t)
        t = min(max(t, grid[0]), grid[-1])
        i = min(max(bisect.bisect_right(grid, t) - 1, 0), len(grid) - 2)
        ta = grid[i]
        h = grid[i + 1] - ta
        s = (t - ta) / h if h > 0 else 0.0
        # i is -1 on a one-node grid, whose only step joins the node to itself
        a, b = rows[i:i + 2].tolist() if i >= 0 else 2 * rows.tolist()
        return np.array(_dense_floats(s, h, a, b, n))

    def _check_span(self, lo, hi):
        """Raise unless the span covers lo <= hi; a NaN bound fails the test."""
        if not (self.covers(lo) and self.covers(hi)):
            raise ValueError("evaluation time outside trajectory span "
                             f"[{self.t0:.6g}, {self.t_end:.6g}]")


def _hermite_on_step(y, f0, h, y_new, f_new, theta):
    """Cubic Hermite at fraction ``theta`` of a step of width ``h`` from y to
    y_new with end slopes f0, f_new.  Scalar or column-vector theta and h."""
    s = theta
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y_new + (s3 - s2) * h * f_new)


def _dense_on_step(y, f0, h, y_new, f_new, c, theta):
    """DOP853 dense value at fraction ``theta`` of a step: the cubic Hermite
    plus theta^2 (1 - theta)^2 times the cubic in u = 2 theta - 1 of the
    coefficient rows ``c[..., k, :]`` (one step's rows, or one per row of
    theta)."""
    q = theta * (1 - theta)
    u = 2 * theta - 1
    e0, e1, e2, e3 = c[..., 0, :], c[..., 1, :], c[..., 2, :], c[..., 3, :]
    return (_hermite_on_step(y, f0, h, y_new, f_new, theta)
            + q * q * (e0 + u * (e1 + u * (e2 + u * e3))))


def _dense_floats(s, h, a, b, n) -> list:
    """:class:`Trajectory`'s dense value on Python floats, from the float
    rows a = [y | f0 | e0 | e1 | e2 | e3] and b = [y_new | f_new | ...] of the
    step's end nodes, n components each: it rounds as the array expression
    does, bit for bit."""
    s2 = s * s
    s3 = s2 * s
    c0, c1 = 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h
    c2, c3 = -2 * s3 + 3 * s2, (s3 - s2) * h
    q = s * (1 - s)
    qq, u = q * q, 2 * s - 1
    # zip stops after the n components of the shortest slice, a[5n:]
    return [c0 * y + c1 * f + c2 * z + c3 * g + qq * (e0 + u * (e1 + u * (e2 + u * e3)))
            for y, f, z, g, e0, e1, e2, e3
            in zip(a, a[n:], b, b[n:], a[2 * n:], a[3 * n:], a[4 * n:], a[5 * n:])]


def _dense_slope_on_step(y, f0, h, y_new, f_new, c, theta):
    """Time derivative of :func:`_dense_on_step`, in closed form."""
    s = theta
    s2 = s * s
    inv_h = 1.0 / h
    q = s * (1 - s)
    u = 2 * s - 1
    e0, e1, e2, e3 = c[..., 0, :], c[..., 1, :], c[..., 2, :], c[..., 3, :]
    r = e0 + u * (e1 + u * (e2 + u * e3))
    dr = 2 * (e1 + u * (2 * e2 + 3 * u * e3))  # dr / dtheta
    return ((6 * s2 - 6 * s) * y * inv_h + (3 * s2 - 4 * s + 1) * f0
            + (-6 * s2 + 6 * s) * y_new * inv_h + (3 * s2 - 2 * s) * f_new
            + q * (q * dr - 2 * u * r) * inv_h)


def _initial_step(y0, f0, settings, span) -> float:
    """First step size from the initial state y0 and its slope f0."""
    scale = settings.abs_tol + settings.rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h = 1e-6 * max(span, 1.0) if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(h, span)


def _error_norm(err5, err3, y, y_new, settings):
    """Hairer's error measure of DOP853: e5 / sqrt((e5 + 0.01 e3) n), where e5
    and e3 sum the squares of the fifth- and third-order estimates err5, err3
    (each already times the step) over the mixed tolerance scale, and 0
    where e5 is; for float sequences and finite y, y_new.  The squares are
    formed on floats, which round as numpy's elementwise operations do, and
    summed in numpy's order (a plain ``sum`` below 8 components,
    ``np.add.reduce`` from 8 on, where its pairwise order departs), so the
    result is that of the array expression."""
    atol, rtol = settings.abs_tol, settings.rel_tol
    scales = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
    n = len(scales)
    sums = []
    for err in (err5, err3):
        squares = [(r := e / sc) * r for e, sc in zip(err, scales)]
        sums.append(sum(squares) if n < 8 else np.add.reduce(squares))
    e5, e3 = sums
    if e5 == 0.0:
        return 0.0
    return e5 / math.sqrt((e5 + 0.01 * e3) * n)


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
    """Integrate ``dy/dt = field(t, y)`` forward from t0 to t_end >= t0
    under the tolerances of ``settings``, by DOP853 steps; ``field`` returns a
    float array of the state's shape.

    ``stops`` is a priority-ordered sequence of ``(label, predicate)`` pairs.
    A predicate maps a float time t and one state y[n] to a bool; it is
    called at each accepted step's end and at the interior points that
    localise an event.  The run stops early with an ``exit_event`` when the
    solution reaches the boundary of the open ``domain`` box or when a
    predicate holds; a domain exit takes precedence, then the first label
    that holds.  The event is localized on the accepted step's seventh-order
    dense output to within h_floor = 1e-9 of the span (see
    :func:`_locate_exit`).  A stop that holds at t0 ends the run there.  A
    zero-length span makes the same initial checks as any other: a finite
    initial slope, an initial state inside the domain, and the stops at t0.

    Raises ``ValueError`` for a non-finite t0 or t_end or for t_end < t0, and
    ``IntegrationError`` on step-size underflow away from the domain
    boundary or on a non-finite field value that cannot be attributed to a
    boundary crossing.
    """
    _check_finite_span(t0, t_end)
    if t_end < t0:
        raise ValueError(f"integrate runs forward: need t_end >= t0, got [{t0:g}, {t_end:g}]")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")

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
    flat = np.zeros((4, y0.size))  # the coefficient rows of a last node or a stalled step
    if (label := _first_label(stops, t0, y0)) is not None:
        return Trajectory([t0], [y0], [f0], [flat], exit_event=ExitEvent(t0, y0.copy(), label))
    domain = _with_faces(domain)
    faces = None if domain is None else list(zip(domain.lower.tolist(), domain.upper.tolist()))
    h = _initial_step(y0, f0, settings, span)
    t_last = t_end - 1e-14 * max(1.0, abs(t_end))

    ts, ys, fs, cs = [t0], [y0.copy()], [f0.copy()], []
    t, y, fy = t0, y0.copy(), f0
    y_floats = y.tolist()
    exit_event = None
    n_taken = 0
    # the stages of every attempt, each times h: the tableau's weights reach
    # 44 in size, and scaled stages keep its sums finite for a field of any
    # finite size on a short enough step; hK[0] is h times the FSAL slope
    hK = np.empty((16, y.size))
    # per stage i: its tableau row and node, the view hK[:i] and the row view
    # hK[i]; stages 1-12 make the step, 13-15 its dense output
    stages = [(_A[i, :i], _C[i], hK[:i], hK[i]) for i in range(1, 16)]
    step_stages, dense_stages = stages[:12], stages[12:]
    hk0, hK12 = hK[0], hK[:12]
    h_arr = np.empty(())  # h as a 0-d array, by which numpy scales faster than by a float

    while t < t_last:
        n_taken += 1
        if n_taken > _MAX_STEPS:
            raise IntegrationError("maximum number of steps exceeded")
        h = min(h, t_end - t)

        # ---- take one step, with retries ----
        while True:
            h_arr[...] = h
            np.multiply(fy, h_arr, out=hk0)
            # a failed attempt halves h, unless it failed only on the error
            # measure; stage 12's point is the eighth-order solution (FSAL),
            # and one that overflowed fails the step like a non-finite stage
            shrink, cause = 0.5, "field or solution blow-up"
            y_new, f_last = _run_stages(field, t, y, h, h_arr, step_stages)
            if y_new is not None:
                new_floats = y_new.tolist()
                if math.isfinite(sum(new_floats)) or np.isfinite(y_new).all():
                    err5, err3 = _ERR.dot(hK12).tolist()
                    err_norm = (_error_norm(err5, err3, y_floats, new_floats, settings)
                                / _MEASURE_LIMIT)
                    if err_norm > 1.0:
                        shrink, cause = max(0.2, 0.9 * err_norm ** -0.125), "stiffness or blow-up"
                    else:
                        # the slope is copied out before the dense stages call the field
                        f_new = np.array(f_last, dtype=float)
                        if (math.isfinite(err_norm) and _run_stages(
                                field, t, y, h, h_arr, dense_stages)[0] is not None):
                            break
            h *= shrink
            if h < h_floor:
                exit_event = _boundary_stall(t, y, fy, domain, h_floor)
                if exit_event is None:
                    raise IntegrationError(f"step size underflow near t={t:g} ({cause})")
                break

        if exit_event is not None:
            ts.append(exit_event.time)
            ys.append(exit_event.state.copy())
            fs.append(fs[-1].copy())
            cs.append(flat)
            break

        coeffs = _DENSE.dot(hK)
        t_new = t + h
        outside = faces is not None and not _inside(new_floats, faces)
        if outside or (stops and any(pred(t_new, y_new) for _, pred in stops)):
            exit_event, theta = _locate_exit(t, y, fy, h, y_new, f_new, coeffs,
                                             domain if outside else None, stops, h_floor)
            f_ev = _dense_slope_on_step(y, fy, h, y_new, f_new, coeffs, theta)
            ts.append(exit_event.time)
            ys.append(exit_event.state)
            fs.append(f_ev)
            cs.append(_cut_coeffs(y, fy, h, y_new, f_new, coeffs, theta, exit_event.state, f_ev))
            break

        cs.append(coeffs)
        t, y, fy, y_floats = t_new, y_new, f_new, new_floats
        ts.append(t)
        ys.append(y)
        fs.append(fy)
        grow = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.125)
        h = max(h * grow, h_floor)

    cs.append(flat)
    return Trajectory(np.array(ts), np.array(ys), np.array(fs), np.array(cs),
                      exit_event=exit_event)


def _run_stages(field, t, y, h, h_arr, stages):
    """Evaluate ``stages`` of the step of width h (also as the 0-d ``h_arr``)
    from (t, y) into their rows of hK, each slope times h.  Returns the last
    stage's point and its field value, or (None, None) from the first stage
    whose slope times h is not finite."""
    for a, c, head, hk in stages:
        yi = a.dot(head)
        yi += y
        f = field(t + c * h, yi)
        np.multiply(f, h_arr, out=hk)
        # a finite sum implies finite entries; else the elementwise test decides
        if not (math.isfinite(sum(hk.tolist())) or np.isfinite(hk).all()):
            return None, None
    return yi, f


def _cut_coeffs(y, fy, h, y_new, f_new, c, theta, y_ev, f_ev):
    """Coefficient rows of the step's polynomial restricted to [0, theta],
    the step to the event state y_ev with slope f_ev: the polynomial less the
    cubic Hermite of the cut step, divided by sigma^2 (1 - sigma)^2 at the
    fractions sigma of ``_CUT_SIGMA``, and interpolated there in powers of u."""
    sig = _CUT_SIGMA
    rest = (_dense_on_step(y, fy, h, y_new, f_new, c, theta * sig)
            - _hermite_on_step(y, fy, theta * h, y_ev, f_ev, sig))
    q = sig * (1 - sig)
    return _CUT_FIT @ (rest / (q * q))


def _locate_exit(t, y, fy, h, y_new, f_new, c, domain, stops, h_floor):
    """Exit event on the accepted step from (t, y) to (t + h, y_new), with
    dense coefficient rows c, and its step fraction theta; the event
    localiser of :func:`integrate`.

    ``domain`` is given only when y_new has left it, and a domain exit takes
    precedence; otherwise some predicate of ``stops`` holds at y_new.  The
    event is localized by :func:`_bisect` to within h_floor on the step's
    dense output, read by :func:`_dense_floats`, with the domain test and
    each predicate called on one interior state at a time; its label is the
    first of ``stops`` that holds there (at y_new when none holds before).
    """
    n = y.size
    a, b = [*y.tolist(), *fy.tolist(), *c.ravel().tolist()], [*y_new.tolist(), *f_new.tolist()]

    def state(theta):
        return np.array(_dense_floats(theta, h, a, b, n))

    if domain is not None:
        faces = list(zip(domain.lower.tolist(), domain.upper.tolist()))
        theta = _bisect(lambda th: not _inside(_dense_floats(th, h, a, b, n), faces), h_floor / h)
        y_ev = _snap_to_faces(state(theta), domain)
        return ExitEvent(t + theta * h, y_ev, domain.describe_exit(y_ev)), theta

    theta = _bisect(lambda th: _first_label(stops, t + th * h, state(th)) is not None,
                    h_floor / h)
    y_ev = state(theta)
    return ExitEvent(t + theta * h, y_ev, str(_first_label(stops, t + theta * h, y_ev))), theta


def _first_label(stops, t, y):
    """Label of the first predicate of ``stops`` that holds at (t, y[n]), or None."""
    return next((label for label, pred in stops if pred(t, y)), None)


def _bisect(holds, tol):
    """Smallest theta in (0, 1] at which ``holds(theta)``, by bisection on one
    float theta per level: [0, 1] is halved until its width is at most
    max(tol, 1e-15), in at most 80 levels, and its upper end is returned.
    For a predicate that holds from some theta on, that is the theta to
    within the width; for one that holds and fails again within the step, it
    is one of the crossings."""
    tol = max(tol, 1e-15)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
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

    A piece is a constant control vector, or a callable that maps t to the
    control vector, its own closed form.  A switching time belongs to the
    interval it ends, the (a, b] convention of needle pulses.  ``with_needle``
    splices a pulse into the lists the same way for every signal, so where
    pulses overlap the newest one holds.  Integration never evaluates a signal across a switch:
    ``integrate_controlled`` cuts the time span at every switching time and
    integrates each segment under the piece that covers it.
    """

    def __init__(self, times, pieces, dim):
        self._times = [float(t) for t in times]
        self._pieces = list(pieces)
        self.dim = int(dim)

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(u) -> "ControlSignal":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return ControlSignal([], [u], u.size)

    @staticmethod
    def piecewise_constant(times, values) -> "ControlSignal":
        times = np.asarray(times, dtype=float)
        vals = np.atleast_2d(np.asarray(values, dtype=float))
        if vals.shape[0] != times.size + 1:
            raise ValueError("need len(times) + 1 control values")
        if np.any(np.diff(times) <= 0):
            raise ValueError("switching times must be strictly increasing")
        return ControlSignal(times, vals, vals.shape[1])

    @staticmethod
    def stacked(signals: Sequence["ControlSignal"]) -> "ControlSignal":
        """The signals side by side, one control vector the concatenation of
        theirs: its switching times are the union of the members', and its
        piece on each interval between them joins the members' pieces there.
        Only signals whose pieces are all constant stack; a single signal is
        returned as it is."""
        if len(signals) == 1:
            return signals[0]
        if any(s.has_closed_form for s in signals):
            raise ValueError("only signals with constant pieces stack")
        times = sorted(set().union(*(s._times for s in signals)))
        # each interval read at its right end, which belongs to it
        pieces = [np.concatenate([s.evaluate(t) for s in signals]) for t in [*times, math.inf]]
        return ControlSignal(times, pieces, sum(s.dim for s in signals))

    # -- evaluation ----------------------------------------------------
    @property
    def has_closed_form(self) -> bool:
        """Whether some piece is a callable rather than a constant vector."""
        return any(callable(p) for p in self._pieces)

    def evaluate(self, t: float) -> np.ndarray:
        piece = self._pieces[bisect.bisect_left(self._times, t)]
        return piece(t) if callable(piece) else piece

    def breakpoints(self) -> np.ndarray:
        return np.array(self._times)

    def segment_piece(self, a: float, b: float):
        """The piece that covers (a, b], a constant vector or a callable;
        None when no one piece covers it."""
        i = bisect.bisect_left(self._times, b)
        if i and self._times[i - 1] > a:
            return None
        return self._pieces[i]

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
        if all(not callable(p) and np.array_equal(p, u) for p in self._pieces[i:j + 1]):
            return self
        times = self._times[:i] + [a, b] + self._times[j:]
        pieces = self._pieces[:i + 1] + [u] + self._pieces[j:]
        # a switching time already at a or b leaves an empty piece: drop both
        empty = {k for k in range(1, len(times)) if times[k] == times[k - 1]}
        return ControlSignal([t for k, t in enumerate(times) if k not in empty],
                             [p for k, p in enumerate(pieces) if k not in empty], self.dim)


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
    are no stops.  A backward span raises the ``ValueError`` of
    :func:`integrate`."""
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
                      np.concatenate([p.coeffs for p in pieces]), exit_event=pieces[-1].exit_event)

