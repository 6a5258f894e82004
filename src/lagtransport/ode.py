"""Adaptive Dormand-Prince 5(4) integration in numpy.

`solve_ivp` integrates dy/dt = fun(t, y) with the explicit Runge-Kutta
pair of Dormand and Prince (J. Comput. Appl. Math. 6, 1980), taking
fifth-order steps under a fourth-order error estimate, and interpolates
with Shampine's quartic dense output (Math. Comp. 46, 1986).  It follows
scipy.integrate.solve_ivp(method="RK45") operation for operation: the
tableau, the initial step heuristic, the RMS error norm, the step
controller, the output-node lookup and the dense polynomial are the same
floating-point expressions in the same order, so for the same `fun` both
give bit-identical states and the same evaluation count.  Only the
options the flow solver needs exist: output nodes, a dense solution and
scalar tolerances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["DenseSolution", "OdeResult", "solve_ivp"]

_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
# dense output coefficients for Shampine's optimal c_6
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_ERROR_EXPONENT = -1 / 5   # -1 / (error estimator order + 1)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = np.finfo(float).eps
_DONE = "The solver successfully reached the end of the integration interval."
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_NOT_FINITE = "The right-hand side is not finite at the initial state."


def _rms(x: np.ndarray):
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """First step size (Hairer, Norsett and Wanner, Sec. II.4); makes one
    call of `fun`."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince step; fills the stages K and returns
    (y_new, f_new)."""
    K[0] = f
    for s in range(1, 6):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = fun(t + _C[s] * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = np.asarray(fun(t + h, y_new), dtype=float)
    K[-1] = f_new
    return y_new, f_new


class _Quartic:
    """Dense output over one step, y(t_old + x h) = y_old + h Q [x .. x^4]."""

    __slots__ = ("t_old", "h", "y_old", "Q")

    def __init__(self, t_old, t, y_old, Q):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.Q = Q

    def __call__(self, t: np.ndarray) -> np.ndarray:
        x = (t - self.t_old) / self.h
        # the powers in np.cumprod's order: x, x*x, (x*x)*x, ...
        if t.ndim == 0:
            x2 = x * x
            x3 = x2 * x
            p = np.array([x, x2, x3, x3 * x])
            return self.h * np.dot(self.Q, p) + self.y_old
        p = np.empty((4, x.size))
        p[0] = x
        for i in range(1, 4):
            np.multiply(p[i - 1], x, out=p[i])
        y = self.h * np.dot(self.Q, p)
        y += self.y_old[:, None]
        return y


class DenseSolution:
    """Continuous solution: the quartic of the step holding each t.

    At a step boundary the earlier step's quartic is used, in either
    direction of integration.
    """

    def __init__(self, ts: list, segments: list[_Quartic]):
        ts = np.asarray(ts)
        self._ascending = bool(ts[-1] >= ts[0])
        self._side = "left" if self._ascending else "right"
        self._ts_sorted = ts if self._ascending else ts[::-1]
        self._segments = segments
        self._last = len(segments) - 1

    def __call__(self, t) -> np.ndarray:
        """y at a scalar t, shape (n,)."""
        t = np.asarray(t)
        if t.ndim != 0:
            raise ValueError("t must be a scalar")
        ind = np.searchsorted(self._ts_sorted, t, side=self._side)
        seg = min(max(ind - 1, 0), self._last)
        return self._segments[seg if self._ascending else self._last - seg](t)


@dataclass
class OdeResult:
    """Outcome of `solve_ivp`.  `y` has one column per output node that
    was reached; `sol` is set when a dense solution was requested."""

    y: np.ndarray
    sol: DenseSolution | None
    nfev: int
    nsteps: int
    nrejected: int
    success: bool
    message: str


def solve_ivp(fun, t_span, y0, *, t_eval, dense_output: bool = False,
              rtol: float = 1e-3, atol: float = 1e-6) -> OdeResult:
    """Integrate dy/dt = fun(t, y) over t_span and sample y at `t_eval`.

    `t_span` may run backward; `t_eval` lies inside it and runs in its
    direction.  The step is accepted when the RMS over components of
    error / (atol + rtol max(|y_old|, |y_new|)) is below 1.  With
    `dense_output` the result's `sol` evaluates the solution anywhere in
    t_span.  A right-hand side that is not finite at (t0, y0) gives no
    step size, so the result then reports failure without stepping.
    """
    t0, tf = map(float, t_span)
    if t0 == tf:
        raise ValueError("t_span must have a nonzero length")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y0 must be a non-empty 1-d array")
    if not np.isfinite(y).all():
        raise ValueError("y0 must be finite")
    if not atol >= 0:
        raise ValueError("atol must be non-negative")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol is too small, using rtol = {100 * _EPS}",
                      stacklevel=2)
        rtol = np.maximum(rtol, 100 * _EPS)
    t_eval = np.asarray(t_eval)
    if t_eval.ndim != 1:
        raise ValueError("t_eval must be 1-d")
    if np.any(t_eval < min(t0, tf)) or np.any(t_eval > max(t0, tf)):
        raise ValueError("t_eval must lie within t_span")
    d = np.diff(t_eval)
    if tf > t0 and np.any(d <= 0) or tf < t0 and np.any(d >= 0):
        raise ValueError("t_eval must run strictly in the direction of t_span")

    direction = np.sign(tf - t0)
    if direction > 0:
        t_eval_i = 0
    else:
        t_eval = t_eval[::-1]  # increasing, for np.searchsorted
        t_eval_i = t_eval.size
    f = np.asarray(fun(t0, y), dtype=float)
    if not np.isfinite(f).all():
        return OdeResult(y=np.empty((y.size, 0)), sol=None, nfev=1, nsteps=0,
                         nrejected=0, success=False, message=_NOT_FINITE)
    h_abs = _initial_step(fun, t0, y, f, tf, direction, rtol, atol)
    K = np.empty((7, y.size))
    t = t0
    ys = []
    ts_dense = [t0]
    segments = []
    nsteps = nrejected = 0
    message = _DONE
    finished = False
    while not finished:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                message = _TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            nrejected += 1
        if message is _TOO_SMALL_STEP:
            break
        nsteps += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        finished = direction * (t - tf) >= 0

        seg = None
        if dense_output:
            seg = _Quartic(t_old, t, y_old, K.T.dot(_P))
            segments.append(seg)
            ts_dense.append(t)
        # an output node equal to t is taken from this step
        if direction > 0:
            t_eval_i_new = np.searchsorted(t_eval, t, side="right")
            t_eval_step = t_eval[t_eval_i:t_eval_i_new]
        else:
            t_eval_i_new = np.searchsorted(t_eval, t, side="left")
            t_eval_step = t_eval[t_eval_i_new:t_eval_i][::-1]
        if t_eval_step.size > 0:
            if seg is None:
                seg = _Quartic(t_old, t, y_old, K.T.dot(_P))
            ys.append(seg(t_eval_step))
            t_eval_i = t_eval_i_new

    return OdeResult(
        y=np.hstack(ys) if ys else np.empty((y.size, 0)),
        sol=DenseSolution(ts_dense, segments) if dense_output and segments else None,
        nfev=2 + 6 * (nsteps + nrejected),
        nsteps=nsteps,
        nrejected=nrejected,
        success=finished,
        message=message,
    )
