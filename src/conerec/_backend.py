"""The RK4 step and the transport kernel, a batched endpoint shoot.

rk4_step is the one classical RK4 step; transport's integrators and the
kernel all advance through it.

For g = omega^2 eta the geodesic acceleration is
-2 (w.v) v + eta(v, v) eta^{-1} w with w = grad ln omega, so a shoot needs
nothing of the chart but the log-gradient, which transport builds from
its profile and which takes (..., 4) arrays.  Every row is one geodesic;
all rows step together.  transport imports this module as `kernels`;
BACKEND names it in run reports.
"""

import numpy as np

BACKEND = "python"

_ETA_SIGN = np.array([1.0, -1.0, -1.0, -1.0])
_ONES = np.ones(4)


def rk4_step(f, y, h):
    """One classical RK4 step of dy/ds = f(stage, y) for y a sequence of arrays.

    f is called once per stage, in order: 0 at the start of the step, 1
    and 2 at its midpoint, 3 at its end, so a caller can look up values
    it sampled in advance at the same stage points.  Returns the advanced
    state as a list.  List comprehensions, not tuple(generator), keep the
    step's own Python overhead near 4 us, against ~100 us of kernel work
    a step at 1 row.
    """
    hh, h6 = 0.5 * h, h / 6.0
    k1 = f(0, y)
    k2 = f(1, [a + hh * k for a, k in zip(y, k1)])
    k3 = f(2, [a + hh * k for a, k in zip(y, k2)])
    k4 = f(3, [a + h * k for a, k in zip(y, k3)])
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


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

    def rhs(stage, y):
        return y[1], _accel(grad_ln_omega, *y)

    x = np.array(p, dtype=float)
    u = np.array(v, dtype=float)
    status = np.zeros(len(x), dtype=int)
    x_out, u_out = np.empty_like(x), np.empty_like(u)
    live = np.arange(len(x))
    for i in range(steps):
        x, u = rk4_step(rhs, (x, u), h)
        if (x < lo).any() or (x > hi).any():
            out = np.any((x < lo) | (x > hi), axis=1)
            gone = live[out]
            x_out[gone], u_out[gone], status[gone] = x[out], u[out], i + 1
            x, u, live = x[~out], u[~out], live[~out]
            if not live.size:
                break
    x_out[live], u_out[live] = x, u
    return x_out, u_out, status
