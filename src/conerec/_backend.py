"""The one geodesic kernel: segmented Chebyshev-Picard iteration.

shoot_endpoint solves dy/ds = rhs(y) over [0, s_end] by Picard iteration
y <- y(a) + Q f(y) on the Chebyshev-Lobatto nodes of each segment [a, b]
(Clenshaw & Norton, Comput. J. 6, 1963; Bai & Junkins, J. Astronaut.
Sci. 58, 2011), one right-hand-side call over all nodes and rows an
iteration, every segment on NODES + 1 nodes.  A segment is accepted once
the iteration has converged and the tail of its Chebyshev coefficients
is at roundoff (Aurentz & Trefethen, ACM TOMS 43, 2017); one that is
not, or whose updates stop contracting, is halved.  Rows shot together
each stop iterating once converged, so a row stops at the iterate it
would stop at shot alone on the same segments.  interpolate
evaluates a shoot's samples between the nodes by barycentric
interpolation within their segment.

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


def _row_max(a):
    """max |a| per row of a (nodes, rows, k), NaN where a row holds one."""
    return np.abs(a).max(axis=0).max(axis=1)


def _finite(a, by=None):
    """a with zero where by (default a) is not finite."""
    return np.where(np.isfinite(a if by is None else by), a, 0.0)


class Shoot(NamedTuple):
    """shoot_endpoint's samples: s (M,) and one (M, ...) array per entry
    of the start state, segment k at samples k NODES .. (k + 1) NODES;
    the Picard iterations of all segments and the largest last update."""

    s: np.ndarray
    y: list
    iterations: int
    update: float

    @property
    def segments(self) -> int:
        return (len(self.s) - 1) // NODES


def _picard(rhs, ya, a, b, guess):
    """Picard iterates on [a, b] from the start state ya and the node
    values guess (or ya at every node).  Rows of a (B, 4) position iterate
    on their own: a row stops, its values kept, once it has converged and
    resolved, at the iterate it would stop at shot alone.  Returns
    (values, iterations, last update, None) once every row has, else
    (None, iterations, last update, the name of the check that failed)."""
    table = _table()
    n1 = NODES + 1
    half = 0.5 * (b - a)
    rows = np.ndim(ya[0]) == 2
    count = len(ya[0]) if rows else 1
    # shapes past the row axis; every entry also as (rows, k) and
    # (nodes, rows, k), a single point one row
    shapes = [np.shape(e)[rows:] for e in ya]
    start = [np.reshape(e, (count, -1)) for e in ya]
    cur = guess or [np.broadcast_to(e, (n1,) + np.shape(e)) for e in ya]
    scale = [np.maximum(1.0, _row_max(_finite(e[None]))) for e in start]
    live, prev, worst, out = np.arange(count), np.full(count, np.inf), 0.0, None
    for it in range(1, _MAX_ITER + 1):
        width = len(live)
        new = [e + half * (table.integral @ np.reshape(d, (n1, -1))).reshape(n1, width, -1)
               for e, d in zip(start, rhs(cur))]
        if not np.all(np.isfinite(new[0])):
            return None, it, np.inf, "non-finite"
        old = [np.reshape(e, u.shape) for e, u in zip(cur, new)]
        update = np.max([_row_max(u - e) / c for u, e, c in zip(new, old, scale)], axis=0)
        if np.isnan(update).any():
            # only the values that were finite count: NaN, so not converged,
            # while a value turns non-finite, as it may reach the position next
            update = np.max([_row_max(_finite(u - e, e)) / c
                             for u, e, c in zip(new, old, scale)], axis=0)
        cur = [u.reshape((n1,) + (width,) * rows + s) for u, s in zip(new, shapes)]
        done = update <= _TOL
        finished = np.count_nonzero(done)
        if finished:
            tail = np.max([_row_max(_finite((table.coef[-2:] @ np.reshape(
                u[:, done], (n1, -1))).reshape(2, -1, u.shape[2]))) / c[done]
                for u, c in zip(new, scale)])
            if tail > _TAIL:
                return None, it, float(np.max(update)), \
                    f"Chebyshev tail {tail:.1e} above {_TAIL:.0e}"
            worst = max(worst, float(np.max(update[done])))
            if not rows:
                return cur, it, worst, None
            if out is None:
                out = [np.empty((n1, count) + s, e.dtype) for e, s in zip(cur, shapes)]
            for o, e in zip(out, cur):
                o[:, live[done]] = e[:, done]
        # a converged row's update is within _TOL, so never fails this
        if it >= 3 and np.any(update > np.maximum(_RATIO * prev, _TOL)):
            break
        prev = update
        if finished:
            if finished == width:
                return out, it, worst, None
            going = ~done
            live, prev = live[going], prev[going]
            cur = [e[:, going] for e in cur]
            start = [e[going] for e in start]
            scale = [c[going] for c in scale]
    update = float(np.max(update))
    return None, it, update, f"Picard update {update:.1e} not contracting"


def shoot_endpoint(rhs, contains, y, s_end, nodes, guess=None):
    """Chebyshev-Picard samples of dy/ds = rhs(y) over [0, s_end].

    y is a list of arrays whose first entry is the position, one point
    (4,) or (B, 4) rows; rhs takes and returns such a list with a leading
    node axis (over the rows still iterating), and contains(position) says
    which of its points are in the chart box.  Each segment carries
    NODES + 1 Chebyshev-Lobatto samples, its ends shared with its
    neighbours; it starts as the whole interval, or as guess's segments
    with guess's samples (a Shoot of the same rows) as the first iterate,
    and a segment that does not converge, resolve or stay finite is
    halved.  Past _MAX_SEGMENTS segments the failing check raises
    GeometryError, as does the first sample of an accepted segment outside
    the box, naming it.  Non-finite values off the position pass to the
    caller.  Returns a Shoot.

    nodes must be NODES, the one node count the kernel has tables for.
    It is an argument because the benchmark's tracer wraps
    transport.kernels.shoot_endpoint and counts its last positional
    argument as its work, so callers pass it last and call the kernel
    through that module attribute.
    """
    if nodes != NODES:
        raise ValueError(f"the kernel shoots segments of {NODES} Chebyshev nodes, got {nodes}")
    tau = _table().tau
    if guess is None:
        pending = [(s_end, None)]
    else:
        edges = guess.s[NODES::NODES]
        pending = [(b, [e[k * NODES:(k + 1) * NODES + 1] for e in guess.y])
                   for k, b in enumerate(edges)][::-1]
        pending[0] = (s_end, pending[0][1])
    s, samples, a = [np.zeros(1)], [[np.asarray(e)[None]] for e in y], 0.0
    iterations, worst = 0, 0.0
    with np.errstate(all="ignore"):
        while pending:
            b, first = pending.pop()
            ya = [e[-1][-1] for e in samples]
            ys, it, update, failed = _picard(rhs, ya, a, b, first)
            iterations += it
            if failed:
                if len(s) + len(pending) + 1 > _MAX_SEGMENTS:
                    if failed == "non-finite":
                        raise GeometryError(f"geodesic reached a non-finite state past "
                                            f"s = {a:.6g}, x = {ya[0]}; the chart's metric "
                                            "or connection is not finite along it")
                    raise GeometryError(f"geodesic not resolved on s in [{a:.6g}, {b:.6g}] "
                                        f"after {_MAX_SEGMENTS} segments of {NODES} "
                                        f"Chebyshev nodes: {failed}")
                pending += [(b, None), (0.5 * (a + b), None)]
                continue
            s_seg = a + (0.5 * (b - a)) * (tau + 1.0)
            s_seg[-1] = b
            inside = np.reshape(contains(ys[0]), (NODES + 1, -1))
            if not np.all(inside):
                j = int(np.argmin(np.all(inside, axis=1)))
                x = np.reshape(ys[0], (NODES + 1, -1, 4))[j, np.argmin(inside[j])]
                raise GeometryError(f"geodesic left the chart domain at "
                                    f"s = {s_seg[j]:.6g}, x = {x}")
            s.append(s_seg[1:])
            for out, e in zip(samples, ys):
                out.append(e[1:])
            worst = max(worst, update)
            a = b
    return Shoot(np.concatenate(s), [np.concatenate(e) for e in samples], iterations, worst)


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
