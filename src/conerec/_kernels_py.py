"""Batched RK4 endpoint shoot on a conformally flat chart.

For g = omega^2 eta the geodesic acceleration is
-2 (w.v) v + eta(v, v) eta^{-1} w with w = grad ln omega, so a shoot needs
nothing of the chart but the log-gradient, which transport builds from
its profile and which takes (..., 4) arrays.  Every row is one geodesic;
all rows step together.
"""

import numpy as np

_ETA_SIGN = np.array([1.0, -1.0, -1.0, -1.0])
_ONES = np.ones(4)


def _accel(grad_ln_omega, x, v):
    # row-wise w.v and eta(v, v), each as one matrix-vector product
    w = grad_ln_omega(x)
    wv = (w * v) @ _ONES
    nv = (v * v) @ _ETA_SIGN
    return (-2.0 * wv)[:, None] * v + nv[:, None] * _ETA_SIGN * w


def shoot_endpoint(grad_ln_omega, lo, hi, p, v, s_end, steps):
    """Endpoints (x, u, status) of the RK4 geodesics from the rows of (p, v).

    p and v are (B, 4); x and u are (B, 4) and status (B,).  status is 0
    for a row that stayed in the box [lo, hi] and i when its step i
    (1-based) left the box; that row stops there and x holds the
    offending point.
    """
    h = s_end / steps
    x = np.array(p, dtype=float)
    u = np.array(v, dtype=float)
    status = np.zeros(len(x), dtype=int)
    x_out, u_out = np.empty_like(x), np.empty_like(u)
    live = np.arange(len(x))
    for i in range(steps):
        k1v = _accel(grad_ln_omega, x, u)
        k2x = u + 0.5 * h * k1v
        k2v = _accel(grad_ln_omega, x + 0.5 * h * u, k2x)
        k3x = u + 0.5 * h * k2v
        k3v = _accel(grad_ln_omega, x + 0.5 * h * k2x, k3x)
        k4x = u + h * k3v
        k4v = _accel(grad_ln_omega, x + h * k3x, k4x)
        x = x + (h / 6.0) * (u + 2.0 * k2x + 2.0 * k3x + k4x)
        u = u + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if (x < lo).any() or (x > hi).any():
            out = np.any((x < lo) | (x > hi), axis=1)
            gone = live[out]
            x_out[gone], u_out[gone], status[gone] = x[out], u[out], i + 1
            x, u, live = x[~out], u[~out], live[~out]
            if not live.size:
                break
    x_out[live], u_out[live] = x, u
    return x_out, u_out, status
