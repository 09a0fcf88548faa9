"""The RK4 step and the one RK4 loop that every geodesic shoot runs through.

rk4_step is the one classical RK4 step; shoot_endpoint is the one
fixed-step loop over it.  transport's geodesic_shoot (one point or (B, 4)
rows, the Jacobi propagator) and transport_spin_frame both integrate
through shoot_endpoint; transport imports this module as `kernels` and
calls the loop through that module attribute, and BACKEND names it in
run reports.
"""

import numpy as np

from .errors import GeometryError

BACKEND = "python"


def rk4_step(f, y, h):
    """One classical RK4 step of dy/ds = f(y) for y a sequence of arrays.

    Returns the advanced state as a list.  List comprehensions, not
    tuple(generator), keep the step's own Python overhead near 4 us,
    against ~100 us of kernel work a step at 1 row.
    """
    hh, h6 = 0.5 * h, h / 6.0
    k1 = f(y)
    k2 = f([a + hh * k for a, k in zip(y, k1)])
    k3 = f([a + hh * k for a, k in zip(y, k2)])
    k4 = f([a + h * k for a, k in zip(y, k3)])
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def shoot_endpoint(rhs, contains, y, s_end, steps):
    """Fixed-step RK4 samples of dy/ds = rhs(y) over [0, s_end].

    y is a list of arrays whose first entry is the position, one point
    (4,) or (B, 4) rows; contains(position) says which of them are in the
    chart box.  The first step that leaves the box, or makes a position
    non-finite, raises GeometryError naming the first such point.  Returns
    one (steps + 1, ...) array per entry of y, starting with y itself.

    It keeps the name it had as the batched endpoint kernel because the
    benchmark's tracer wraps transport.kernels.shoot_endpoint and counts
    its last positional argument as steps; so callers pass steps last and
    call it through the module attribute.
    """
    h = s_end / steps
    samples = [y]
    for i in range(steps):
        y = rk4_step(rhs, y, h)
        inside = contains(y[0])
        if not np.all(inside):
            x = np.reshape(y[0], (-1, 4))[np.argmin(inside)]
            if not np.all(np.isfinite(x)):
                raise GeometryError(f"geodesic reached a non-finite state at "
                                    f"s = {(i + 1) * h:.6g}, x = {x}; the chart's "
                                    "metric or connection is not finite along it")
            raise GeometryError(f"geodesic left the chart domain at "
                                f"s = {(i + 1) * h:.6g}, x = {x}")
        samples.append(y)
    return [np.array(entry) for entry in zip(*samples)]
