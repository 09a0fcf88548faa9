"""The one geodesic kernel: segmented Chebyshev-Picard iteration.

shoot_endpoint solves dy/ds = rhs(y) over [0, s_end] by Picard iteration
y <- y(a) + Q f(y) on the Chebyshev-Lobatto nodes of each segment [a, b]
(Clenshaw & Norton, Comput. J. 6, 1963; Bai & Junkins, J. Astronaut.
Sci. 58, 2011), every segment on NODES + 1 nodes.  The state is one
float array (nodes, rows, width), the position in its first four
columns; rhs reads its columns as views and returns the slopes in the
same shape, so an iteration is one right-hand-side call, one integral
product and one update reduction.  A segment is accepted once the
iteration has converged and the tail of its Chebyshev coefficients is
at roundoff (Aurentz & Trefethen, ACM TOMS 43, 2017); one that is not,
or whose updates stop contracting, is halved.  Rows shot together each
stop iterating once converged, so a row stops at the iterate it would
stop at shot alone on the same segments.  interpolate evaluates a
shoot's samples between the nodes by barycentric interpolation within
their segment.

transport's geodesic_shoot (one point or (B, 4) rows, the Jacobi
propagator) and transport_spin_frame both integrate through
shoot_endpoint; transport imports this module as `kernels` and calls the
kernel through that module attribute, and BACKEND names it in run reports.
"""

import functools
from typing import NamedTuple

import numpy as np

from .errors import GeometryError

BACKEND = "python"
# Chebyshev nodes a segment
NODES = 16
# a row of a segment converges once a Picard update is within _TOL of the
# scale of its entry (1 or larger), and is resolved once its last two
# Chebyshev coefficients are within _TAIL of it
_TOL = 1e-15
_TAIL = 1e-14
# from the third iteration on each row's update must shrink by _RATIO,
# within _MAX_ITER iterations
_RATIO = 0.5
_MAX_ITER = 40
# segments of one shoot, accepted and pending, past which a failing
# segment raises instead of halving
_MAX_SEGMENTS = 256


class _Table(NamedTuple):
    tau: np.ndarray            # Lobatto nodes on [-1, 1], increasing
    coef: np.ndarray           # node values -> Chebyshev coefficients
    integral: np.ndarray       # node values -> integral from -1 of their interpolant
    bary: np.ndarray           # barycentric weights of the nodes


@functools.cache
def _table():
    """The Chebyshev tables of NODES + 1 Lobatto nodes, built on first use."""
    n = NODES
    j = np.arange(n + 1)
    tau = np.sin(np.pi * (2 * j - n) / (2 * n))
    # a_k = (2 / n) sum'' f_j T_k(tau_j), halved at k = 0 and k = n, with
    # T_k(tau_j) = cos(pi k (n - j) / n) reduced to one period exactly
    half = np.ones(n + 1)
    half[[0, -1]] = 0.5
    turns = np.outer(j, n - j) % (2 * n)
    coef = (2.0 / n) * half[:, None] * np.cos(np.pi * turns / n) * half
    cheb = np.polynomial.chebyshev
    integral = cheb.chebvander(tau, n + 1) @ cheb.chebint(np.eye(n + 1), lbnd=-1.0) @ coef
    integral[0] = 0.0
    return _Table(tau, coef, integral, half * (-1.0) ** j)


def _finite(a, by=None):
    """a with zero where by (default a) is not finite."""
    return np.where(np.isfinite(a if by is None else by), a, 0.0)


class Shoot(NamedTuple):
    """shoot_endpoint's samples: s (M,) and the packed state y (M, rows,
    width), segment k at samples k NODES .. (k + 1) NODES; the Picard
    iterations of all segments and the largest last update."""

    s: np.ndarray
    y: np.ndarray
    iterations: int
    update: float

    @property
    def segments(self) -> int:
        return (len(self.s) - 1) // NODES


def _update(change, scale):
    """Each row's largest change (nodes, rows, width), relative to its scale."""
    return (np.abs(change).max(axis=0) / scale).max(axis=1)


def _picard(rhs, ya, scale, a, b, guess):
    """Picard iterates on [a, b] from the start state ya (rows, width) and
    the node values guess (NODES + 1, rows, width), or ya at every node.
    The state iterates as one array: one rhs call, one integral product
    and one update reduction an iteration, against scale (rows, width).
    Each row iterates on its own: it stops, its values kept, once it has
    converged and resolved, at the iterate it would stop at shot alone,
    and it leaves the array the right-hand side sees.  Returns (values,
    iterations, last update, None) once every row has, else (None,
    iterations, last update, the name of the check that failed)."""
    table = _table()
    n1 = NODES + 1
    integral = (0.5 * (b - a)) * table.integral
    count = len(ya)
    cur = np.broadcast_to(ya, (n1,) + ya.shape) if guess is None else guess
    live, limit, worst, out = np.arange(count), np.full(count, np.inf), 0.0, None
    for it in range(1, _MAX_ITER + 1):
        slopes = rhs(cur)
        new = ya + (integral @ slopes.reshape(n1, -1)).reshape(slopes.shape)
        update = _update(new - cur, scale)
        top = update.max()
        if not top < np.inf:
            if not np.isfinite(new[..., :4]).all():
                return None, it, np.inf, "non-finite"
            if np.isnan(top):
                # only the values that were finite count: NaN, so not converged,
                # while a value turns non-finite, as it may reach the position next
                update = _update(_finite(new - cur, cur), scale)
                top = update.max()
        going = None
        if np.fmin.reduce(update) <= _TOL:
            done = update <= _TOL
            ends = new
            if not done.all():
                going = ~done
                ends = new[:, done]
            tail = (_finite(np.abs(table.coef[-2:] @ ends.reshape(n1, -1)))
                    .reshape(2, len(ends[0]), -1) / scale[done]).max()
            if tail > _TAIL:
                return None, it, float(top), f"Chebyshev tail {tail:.1e} above {_TAIL:.0e}"
            worst = max(worst, float(update[done].max()))
            if going is None:
                if out is None:
                    return new, it, worst, None
                out[:, live] = new
                return out, it, worst, None
            update, limit = update[going], limit[going]
        # from the third iteration on, every row still iterating must shrink
        # its update by _RATIO (the converged ones have left update and limit)
        if it >= 3 and (update > limit).any():
            break
        if going is not None:
            if out is None:
                out = np.empty((n1,) + ya.shape)
            out[:, live[done]] = ends
            live, new, ya, scale = live[going], new[:, going], ya[going], scale[going]
        limit = _RATIO * update
        cur = new
    update = float(top)
    return None, it, update, f"Picard update {update:.1e} not contracting"


def shoot_endpoint(rhs, contains, y, s_end, nodes, guess=None):
    """Chebyshev-Picard samples of dy/ds = rhs(y) over [0, s_end].

    y is the start state as a list of float entries, each (rows, columns),
    the first the position (rows, 4).  The kernel joins them once into
    one (rows, width) array and iterates that: rhs takes the state at
    the nodes, one float array (NODES + 1, rows still iterating, width)
    whose columns are the entries in order, and returns the slopes in the
    same shape; contains(position) says which points of a (..., 4) array
    are in the chart box.  Each segment carries NODES + 1
    Chebyshev-Lobatto samples, its ends shared with its neighbours; it
    starts as the whole interval, or as guess's segments with guess's
    samples (a Shoot of the same rows and width) as the first iterate,
    and a segment that does not converge, resolve or keep its position
    finite is halved.  Convergence and the tail are measured against
    each entry's scale, max(1, |y(a)|) over the entry's finite columns
    in its row.  Past _MAX_SEGMENTS segments the failing check raises
    GeometryError, as does the first sample of an accepted segment
    outside the box, naming it.  Non-finite values off the position pass
    to the caller.  Returns a Shoot.

    nodes must be NODES, the one node count the kernel has tables for.
    It is an argument because the benchmark's tracer wraps
    transport.kernels.shoot_endpoint and counts its last positional
    argument as its work, so callers pass it last and call the kernel
    through that module attribute.
    """
    if nodes != NODES:
        raise ValueError(f"the kernel shoots segments of {NODES} Chebyshev nodes, got {nodes}")
    tau = _table().tau
    widths = [e.shape[1] for e in y]
    firsts = np.cumsum([0] + widths[:-1])
    if guess is None:
        pending = [(s_end, None)]
    else:
        pending = [(b, guess.y[k * NODES:(k + 1) * NODES + 1])
                   for k, b in enumerate(guess.s[NODES::NODES])][::-1]
        pending[0] = (s_end, pending[0][1])
    s, samples, a = [np.zeros(1)], [np.concatenate(y, axis=1)[None]], 0.0
    iterations, worst = 0, 0.0
    with np.errstate(all="ignore"):
        while pending:
            b, first = pending.pop()
            ya = samples[-1][-1]
            scale = np.repeat(np.maximum(1.0, np.maximum.reduceat(np.abs(_finite(ya)), firsts,
                                                                  axis=1)), widths, axis=1)
            ys, it, update, failed = _picard(rhs, ya, scale, a, b, first)
            iterations += it
            if failed:
                if len(s) + len(pending) + 1 > _MAX_SEGMENTS:
                    if failed == "non-finite":
                        x = ya[:, :4] if len(ya) > 1 else ya[0, :4]
                        raise GeometryError(f"geodesic reached a non-finite state past "
                                            f"s = {a:.6g}, x = {x}; the chart's metric "
                                            "or connection is not finite along it")
                    raise GeometryError(f"geodesic not resolved on s in [{a:.6g}, {b:.6g}] "
                                        f"after {_MAX_SEGMENTS} segments of {NODES} "
                                        f"Chebyshev nodes: {failed}")
                pending += [(b, None), (0.5 * (a + b), None)]
                continue
            s_seg = a + (0.5 * (b - a)) * (tau + 1.0)
            s_seg[-1] = b
            position = np.ascontiguousarray(ys[..., :4])
            inside = np.reshape(contains(position), (NODES + 1, -1))
            if not np.all(inside):
                j = int(np.argmin(np.all(inside, axis=1)))
                x = position[j, np.argmin(inside[j])]
                raise GeometryError(f"geodesic left the chart domain at "
                                    f"s = {s_seg[j]:.6g}, x = {x}")
            s.append(s_seg[1:])
            samples.append(ys[1:])
            worst = max(worst, update)
            a = b
    return Shoot(np.concatenate(s), np.concatenate(samples), iterations, worst)


def interpolate(s, values, at):
    """values (M, ...) at the samples s of a Shoot, at the parameters `at`:
    barycentric Chebyshev interpolation within the segment holding each,
    a sample's own value where `at` hits it."""
    if s[-1] < s[0]:
        s, at = -s, -np.asarray(at)
    edges = s[::NODES]
    seg = np.clip(np.searchsorted(edges, at, side="right") - 1, 0, len(edges) - 2)
    idx = seg[:, None] * NODES + np.arange(NODES + 1)
    diff = np.asarray(at)[:, None] - s[idx]
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        w = np.where(np.any(hit, axis=1, keepdims=True), hit, _table().bary / diff)
    w = w / np.sum(w, axis=1, keepdims=True)
    return np.einsum("kj,kj...->k...", w, values[idx])
