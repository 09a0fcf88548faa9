"""Reference implementations the tests check the package against.

No command runs these.  Dense symmetric-spinor tensors cross-check the
component scalars, the NP frame check audits section frames, the spin
basis factored out of a tetrad (unique up to a sign fixed by a
tie-break) audits the bases frames carry, the area
element from the embedding's numerical Jacobian audits the exact section
weights, the Christoffel symbols audit the one geodesic acceleration,
the null-norm drift and the eikonal identity audit geodesics and the
world function, the classical RK4 integrator the Chebyshev-Picard
kernel replaced integrates the tensor forms of the propagator and the
frame those are checked against, and two-level Richardson differences
audit exact and spline derivatives.
"""

import itertools
import math

import numpy as np

from conerec import cone, transport
from conerec.spinor import ETA, SymSpinorValue, lower_comps, minkowski, to_matrix

# Largest valence of the dense (2,)*n tensor helpers.
MAX_VALENCE = 6

_ETA_SIGN = np.diag(ETA)


def _sym_tensor_check(t: np.ndarray, n: int):
    scale = np.max(np.abs(t))
    if scale == 0.0:
        return
    worst = 0.0
    for perm in itertools.permutations(range(n)):
        worst = max(worst, np.max(np.abs(t - np.transpose(t, perm))))
        if worst > 1e-12 * scale:
            raise ValueError(
                f"tensor asymmetry {worst / scale:.3e} exceeds tolerance 1e-12")


def sym_components(tensor: np.ndarray, o_up: np.ndarray,
                   iota_up: np.ndarray) -> SymSpinorValue:
    """Scalars phi_j of a symmetric lower-index valence-n spinor.

    phi_j contracts the tensor with (n-j) copies of o^A and j copies of
    iota^A.  The input must be symmetric to within 1e-12 (relative).
    """
    tensor = np.asarray(tensor, dtype=complex)
    n = tensor.ndim
    if tensor.shape != (2,) * n:
        raise ValueError("expected a (2,)*n tensor")
    if n > MAX_VALENCE:
        raise ValueError(f"dense symmetric tensors supported only for n <= {MAX_VALENCE}")
    _sym_tensor_check(tensor, n)
    comps = np.empty(n + 1, dtype=complex)
    for j in range(n + 1):
        t = tensor
        for _ in range(n - j):
            t = np.tensordot(o_up, t, axes=(0, 0))
        for _ in range(j):
            t = np.tensordot(iota_up, t, axes=(0, 0))
        comps[j] = t
    return SymSpinorValue(n, comps)


def sym_assemble(value: SymSpinorValue, o_up: np.ndarray, iota_up: np.ndarray) -> np.ndarray:
    """Rebuild the symmetric lower-index tensor from its scalars.

    phi_{A..F} = sum_j (-1)^(n-j) C(n,j) phi_j sym(iota^(n-j) (x) o^j)
    with all factors index-lowered; inverse of sym_components.
    """
    n = value.valence
    if n > MAX_VALENCE:
        raise ValueError(f"dense symmetric tensors supported only for n <= {MAX_VALENCE}")
    o_low = lower_comps(o_up)
    iota_low = lower_comps(iota_up)
    out = np.zeros((2,) * n, dtype=complex) if n else np.zeros((), dtype=complex)
    if n == 0:
        return out + value.components[0]
    perms = list(itertools.permutations(range(n)))
    for j in range(n + 1):
        factors = [iota_low] * (n - j) + [o_low] * j
        prod = factors[0]
        for f in factors[1:]:
            prod = np.multiply.outer(prod, f)
        sym = sum(np.transpose(prod, p) for p in perms) / len(perms)
        out = out + ((-1) ** (n - j)) * math.comb(n, j) * value.components[j] * sym
    return out


def check_np_frame(frame, tol: float = 1e-12):
    """Raise ValueError unless the NPFrame has the NP products
    g(l, n) = 1, g(m, mbar) = -1 and the others 0, the outer-product
    relations l = o obar, n = iota iotabar, m = o iotabar, and
    o_A iota^A = 1."""
    l, n, m = frame.l, frame.n, frame.m
    expect = {"ll": (l, l, 0), "nn": (n, n, 0), "mm": (m, m, 0), "ln": (l, n, 1),
              "mmbar": (m, np.conj(m), -1), "lm": (l, m, 0), "nm": (n, m, 0)}
    for key, (u, v, want) in expect.items():
        got = minkowski(u, v)
        if abs(got - want) > tol:
            raise ValueError(f"NP product {key} = {got}, expected {want}")
    for name, vec, left, right in (("l", l, frame.o, frame.o),
                                   ("n", n, frame.iota, frame.iota),
                                   ("m", m, frame.o, frame.iota)):
        outer = np.outer(left, right.conj())
        dev = np.max(np.abs(to_matrix(vec) - outer))
        if dev > tol * max(1.0, np.max(np.abs(outer))):
            raise ValueError(f"outer-product relation for {name} off by {dev:.2e}")
    s = lower_comps(frame.o) @ frame.iota
    if abs(s - 1.0) > tol:
        raise ValueError(f"o_A iota^A = {s}, expected 1")


def _rank1_factor(mat):
    """o with o obar^T = mat for Hermitian PSD rank-1 mat."""
    scale = np.max(np.abs(mat))
    if abs(np.linalg.det(mat)) > 1e-10 * max(scale, 1.0) ** 2:
        raise ValueError("matrix is not rank one: the vector is not null")
    if mat[0, 0].real >= mat[1, 1].real:
        o0 = np.sqrt(mat[0, 0].real)
        if o0 == 0.0:
            raise ValueError("degenerate null vector")
        return np.array([o0, mat[1, 0] / o0], dtype=complex)
    o1 = np.sqrt(mat[1, 1].real)
    return np.array([mat[0, 1] / o1, o1], dtype=complex)


def spin_basis_from_tetrad(l, n, m):
    """Spin basis (o, iota) of a normalized NP tetrad.

    Unique up to overall sign; fixed by requiring the largest-magnitude
    component of o to have positive real part (if that real part is
    zero, positive imaginary part).
    """
    lmat = to_matrix(np.asarray(l, dtype=complex))
    o = _rank1_factor(lmat)
    # m = o iotabar fixes iotabar given o
    mmat = to_matrix(np.asarray(m, dtype=complex))
    iotabar = o.conj() @ mmat / (o @ o.conj()).real
    iota = iotabar.conj()
    # rescale by a unit phase so that o_A iota^A = 1 exactly
    s = lower_comps(o) @ iota
    if abs(abs(s) - 1.0) > 1e-10:
        raise ValueError(f"tetrad not normalized: |o_A iota^A| = {abs(s)}")
    lam = 1.0 / np.sqrt(s)
    o = lam * o
    iota = lam * iota
    nmat = to_matrix(np.asarray(n, dtype=complex))
    dev = np.max(np.abs(nmat - np.outer(iota, iota.conj())))
    if dev > 1e-10 * max(1.0, np.max(np.abs(nmat))):
        raise ValueError(f"n is not the outer square of iota (off by {dev:.2e}): "
                         "degenerate or inconsistent tetrad")
    idx = int(np.argmax(np.abs(o)))
    c = o[idx]
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        o = -o
        iota = -iota
    return o, iota


def area_element(section: cone.ConeSection) -> np.ndarray:
    """Area weights from the numerical Jacobian of the embedding.

    Differentiates the embedding (theta, phi) -> p on the grid, forms the
    induced metric, and converts sqrt(det) dtheta dphi into weights on the
    Gauss-Legendre x trapezoid nodes.  Cross-validates the exact weights
    mu_sigma = r0^2 dOmega.
    """
    det = cone.section_tangents(section, cone.TangentialDerivatives(section.grid))[-1]
    if np.any(det <= 0):
        raise ValueError("degenerate embedding Jacobian")
    return section.quad_w * np.sqrt(det) / np.sin(section.theta)


def christoffel(chart: transport.CurvedChart, x) -> np.ndarray:
    """Gamma^a_{bc} of g = omega^2 eta at one point or (..., 4) points, [..., a, b, c]:
    delta^a_b w_c + delta^a_c w_b - eta_{bc} eta^{ad} w_d, w = grad ln omega."""
    w = chart.grad_ln_omega(x)
    eye = np.eye(4)
    return (eye[:, :, None] * w[..., None, None, :] + eye[:, None, :] * w[..., None, :, None]
            - ETA * (_ETA_SIGN * w)[..., :, None, None])


def norm_drift(path: transport.GeodesicPath) -> float:
    """Max drift of g(v, v) along a one-point path relative to its start value."""
    norms = path.chart.omega(path.x) ** 2 * ((path.v * path.v) @ _ETA_SIGN)
    return float(np.max(np.abs(norms - norms[0])))


def world_function_gradient_check(chart: transport.CurvedChart, p, q, h: float) -> float:
    """Residual of the eikonal identity g^{ab} W_{,a} W_{,b} = 4 W.

    The gradient is taken in the second slot by central differences with
    step h; the residual is O(h^2) for smooth charts.
    """
    q = np.asarray(q, dtype=float).reshape(4)
    step = h * np.eye(4)
    w = transport.world_function(chart, p, np.vstack([q, q + step, q - step]))[0]
    grad = (w[1:5] - w[5:]) / (2.0 * h)
    return float((grad * grad) @ _ETA_SIGN / chart.omega(q) ** 2 - 4.0 * w[0])


def rk4_step(f, y, h):
    """One classical RK4 step of dy/ds = f(y) for y a sequence of arrays."""
    hh, h6 = 0.5 * h, h / 6.0
    k1 = f(y)
    k2 = f([a + hh * k for a, k in zip(y, k1)])
    k3 = f([a + hh * k for a, k in zip(y, k2)])
    k4 = f([a + h * k for a, k in zip(y, k3)])
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4_shoot(f, y, s_end, steps):
    """Fixed-step RK4 samples of dy/ds = f(y) over [0, s_end]: one
    (steps + 1, ...) array per entry of y, starting with y itself."""
    samples = [y]
    for _ in range(steps):
        samples.append(rk4_step(f, samples[-1], s_end / steps))
    return [np.array(entry) for entry in zip(*samples)]


def richardson(difference, h):
    """(4 D(h/2) - D(h)) / 3: the two-level Richardson extrapolation of a
    central difference D(step), O(h^4); h is a scalar or an array of steps."""
    return (4.0 * difference(0.5 * h) - difference(h)) / 3.0


def richardson_dr0(values_at, r0, h):
    """d/dr0 by a two-level Richardson central difference, (4 D(h/2) - D(h)) / 3.

    values_at maps per-node radii (N,) to (N, ncomp) values; D(s) is the
    central difference with step s.  h is a scalar or a per-node (N,) step.
    """
    h = np.asarray(h, dtype=float)

    def central(step):
        return (values_at(r0 + step) - values_at(r0 - step)) / (2.0 * step[..., None])

    return richardson(central, h)
