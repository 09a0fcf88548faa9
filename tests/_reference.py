"""Reference implementations the tests check the package against.

No command runs these.  Dense symmetric-spinor tensors cross-check the
component scalars, the NP frame check audits section frames, the
companion iota = n^{AA'} obar_{A'} built from each node's own null leg
audits the section frame and a chart's iota scale, the spin
basis factored out of a tetrad (unique up to a sign fixed by a
tie-break) audits the bases frames carry, the area
element from the embedding's numerical Jacobian audits the exact section
weights, the Christoffel symbols audit the one geodesic acceleration,
the null-norm drift and the eikonal identity audit geodesics and the
world function, the classical RK4 integrator the Chebyshev-Picard
kernel replaced integrates the tensor forms of the propagator and the
frame those are checked against, two-level Richardson differences
audit exact and spline derivatives, data whose derivative carries one
rho phi more are criterion 4's single-rho control, the spline formula
written out term by term audits the grid-data lookup, Lagrange stencil weights
built ring by ring audit the closed-form theta-derivative matrix, and
criterion 9's finite-difference identity checks (the field equation,
the second-derivative contraction, and the Dirac operator's symmetry
under the symplectic pairing on bump-modulated plane waves) audit the
spinor conventions.
"""

import itertools
import math

import numpy as np

from conerec import cone, transport
from conerec.nulldata import ConeData
from conerec.oracles import PlaneWaveSpec
from conerec.spinor import (ETA, SIG_UP, SQRT2, SymSpinorValue, central_partials,
                            dirac_assemble, lower_comps, lower_matrix, raise_comps,
                            symplectic_pairing, to_matrix)

# Largest valence of the dense (2,)*n tensor helpers.
MAX_VALENCE = 6

_ETA_SIGN = np.diag(ETA)


def minkowski(u, v):
    """eta_{ab} u^a v^b over a trailing component axis."""
    return np.einsum("...a,ab,...b->...", np.asarray(u), ETA, np.asarray(v))


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


def transversal_iota(o, n_vec):
    """iota^A = n^{AA'} obar_{A'} for a null n with g(l, n) = 1.

    Closed form of the companion spinor: automatically satisfies
    o_A iota^A = 1 and iota iotabar = n when n is null and normalized
    against l = o obar.  o is (..., 2) and n_vec (..., 4), one spinor
    per row.  Written out on the components: n^{AA'} = (n^0 + n^1, n^2 -
    i n^3; n^2 + i n^3, n^0 - n^1) / sqrt2 and obar_{A'} = (-obar^1,
    obar^0).
    """
    n = np.asarray(n_vec)
    ob = np.conj(np.asarray(o, dtype=complex))
    ob0, ob1 = ob[..., 0], ob[..., 1]
    n0, n1, n2, n3 = n[..., 0], n[..., 1], n[..., 2], n[..., 3]
    cross = 1j * n3
    iota0 = (n2 - cross) * ob0 - (n0 + n1) * ob1
    iota1 = (n0 - n1) * ob0 - (n2 + cross) * ob1
    return np.stack([iota0, iota1], axis=-1) / SQRT2


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


def single_rho(data):
    """Analytic data whose d/dr0 carries rho phi = -phi/r0 more, so the
    evaluators' (d/dr0 - (n+1) rho) integrand becomes d/dr0 - n rho: the
    Penrose formula with one rho fewer (a single rho at n = 1), the
    normalization audit's negative control."""
    def fn_dr0(r0, omega, o_up, iota_up, values):
        return data.fn_dr0(r0, omega, o_up, iota_up, values) - values / r0[:, None]

    return ConeData(data.valence, kind=data.kind, fn=data.fn, fn_dr0=fn_dr0)


def spline_eval(data, r0):
    """(values, d/dr0) of grid data at per-node radii r0 by per-node fancy
    indexing, the cubic piece written out term by term, with dx (m1 - m0)
    formed apart in the value and in the derivative."""
    x = data.r0_nodes
    idx = np.clip(np.searchsorted(x, r0) - 1, 0, x.size - 2)
    h = (x[idx + 1] - x[idx])[:, None]
    dx = (r0 - x[idx])[:, None]
    nodes = np.arange(r0.size)
    y0, y1 = data.values[idx, nodes], data.values[idx + 1, nodes]
    m0, m1 = data._moments[idx, nodes], data._moments[idx + 1, nodes]
    slope = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0
    return (y0 + dx * (slope + dx * (0.5 * m0 + dx * (m1 - m0) / (6.0 * h))),
            slope + dx * (m0 + dx * (m1 - m0) / (2.0 * h)))


def _lagrange_deriv_weights(nodes, x0):
    """Derivative-at-x0 weights of the Lagrange interpolant through nodes."""
    k = len(nodes)
    w = np.zeros(k)
    for j in range(k):
        others = [nodes[i] for i in range(k) if i != j]
        denom = np.prod([nodes[j] - xi for xi in others])
        s = 0.0
        for skip in range(k - 1):
            term = 1.0
            for idx, xi in enumerate(others):
                if idx != skip:
                    term *= x0 - xi
            s += term
        w[j] = s / denom
    return w


def theta_derivative_matrix(grid: cone.SphereGrid, stencil: int = 9) -> np.ndarray:
    """cone.theta_derivative_matrix ring by ring: the Lagrange weights of
    each ring's centered stencil on the doubled meridian, added into the
    (n_theta, 2 n_theta) columns entry by entry."""
    th = grid.theta
    nt = th.size
    idx = np.arange(nt)
    ext = np.concatenate([-th[::-1], th, 2.0 * math.pi - th[::-1]])
    col = np.concatenate([idx[::-1] + nt, idx, idx[::-1] + nt])
    half = stencil // 2
    D = np.zeros((nt, 2 * nt))
    for i in range(nt):
        lo = nt + i - half
        w = _lagrange_deriv_weights(ext[lo:lo + stencil], ext[nt + i])
        for off, wj in enumerate(w):
            D[i, col[lo + off]] += wj
    return D


# -- criterion 9: differential identities by finite differences ----------

def plane_wave_tensor(spec: PlaneWaveSpec, x) -> np.ndarray:
    """Lower-index symmetric tensor phi_{A..F}(x); shape (2,)*n."""
    ph = spec.amplitude * np.exp(1j * spec.phase(x))
    out = np.asarray(ph, dtype=complex)
    for _ in range(spec.n):
        out = np.multiply.outer(out, spec.alpha)
    return out


def plane_wave_components(spec: PlaneWaveSpec, x, o_up, iota_up) -> np.ndarray:
    """phi_0..phi_n at x contracted with a given spin basis, batched.

    x: (..., 4); o_up, iota_up: (..., 2) upper-index basis spinors.
    Returns (..., n+1).
    """
    co = np.einsum("a,...a->...", spec.alpha, np.asarray(o_up))
    ci = np.einsum("a,...a->...", spec.alpha, np.asarray(iota_up))
    ph = spec.amplitude * np.exp(1j * spec.phase(x))
    j = np.arange(spec.n + 1)
    return (co[..., None] ** (spec.n - j) * ci[..., None] ** j) * ph[..., None]



def weyl_residual_fd(field_fn, n: int, x, h: float) -> float:
    """Max |grad^{AA'} phi_{AB..F}| by central differences at x.

    field_fn(x) must return the lower-index (2,)*n tensor.  O(h^2).
    """
    d1 = central_partials(field_fn, np.asarray(x, dtype=float), h)
    res = np.einsum("aij,ai...->j...", SIG_UP, d1)
    return float(np.max(np.abs(res)))



def sl_identity_check(field_fn, n: int, point, h: float) -> float:
    """Residual of the flat second-derivative contraction identity.

    For any smooth lower-index valence-n field, grad_{BA'} grad^{AA'}
    phi_{A C..} equals half the wave operator acting on phi_{B C..} when
    the curvature vanishes.  The two sides are discretized independently
    (nested first differences against a direct second-difference wave
    operator) so the residual honestly measures the O(h^2) truncation,
    not just the epsilon algebra.
    """
    if n < 1:
        raise ValueError("need at least one spinor index")
    point = np.asarray(point, dtype=float)
    rest = "".join(chr(ord("c") + i) for i in range(n - 1))

    def contracted_grad(y):
        # chi^{A'}_{C..} = grad^{AA'} phi_{A C..} by central differences
        d1 = central_partials(field_fn, y, h)
        return np.einsum(f"ajp,aj{rest}->p{rest}", SIG_UP, d1)

    sig_low = lower_matrix(SIG_UP)
    dchi = central_partials(contracted_grad, point, h)
    lhs = np.einsum(f"bip,bp{rest}->i{rest}", sig_low, dchi)

    f0 = field_fn(point)
    box = np.zeros((2,) * n, dtype=complex)
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        box += ETA[a, a] * (field_fn(point + e) - 2.0 * f0 + field_fn(point - e)) / h ** 2
    rhs = 0.5 * box
    return float(np.max(np.abs(lhs - rhs)))



def c2_bump(y):
    """(1 - y^2)^3 inside |y| < 1, zero outside; twice differentiable."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = np.abs(y) < 1.0
    out[m] = (1.0 - y[m] ** 2) ** 3
    return out



def box_bump(x, center, half):
    """Product of c2_bump over the four axes; support is the open box."""
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    y = (x - center) / half
    out = np.ones(x.shape[:-1])
    for a in range(4):
        out = out * c2_bump(y[..., a])
    return out



def bump_dirac_grids(spec: PlaneWaveSpec, center, half, n_pts: int,
                     psi_amplitude=1.0):
    """Bump-modulated Dirac plane wave sampled on a uniform 4D grid.

    The box [center - half, center + half] carries the support; the grid
    spans 1.3 times that so the outer layers are exactly zero.
    Returns (phi, psi, h) with phi, psi of shape (N, N, N, N, 2).
    """
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float) * np.ones(4)
    axes = [np.linspace(center[a] - 1.3 * half[a], center[a] + 1.3 * half[a], n_pts)
            for a in range(4)]
    h = axes[0][1] - axes[0][0]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    cut = box_bump(mesh, center, half)
    ph = np.exp(1j * spec.phase(mesh)) * cut
    phi = spec.amplitude * ph[..., None] * spec.alpha
    psi = psi_amplitude * ph[..., None] * np.conj(raise_comps(spec.alpha))
    return phi, psi, float(h)



def dirac_symmetry_check(phi1, psi1, phi2, psi2, h: float) -> float:
    """|sum (D u1, u2) - sum (u1, D u2)| h^4 over a 4D grid.

    The symplectic pairing makes the Dirac operator symmetric up to a
    divergence, so the defect of two compactly supported fields converges
    to zero at O(h^2).  Raises if either support touches the outer two
    grid layers (the divergence theorem needs room to close).
    """
    fields = [np.asarray(f, dtype=complex) for f in (phi1, psi1, phi2, psi2)]
    for f in fields:
        if f.ndim != 5 or f.shape[-1] != 2:
            raise ValueError("grids must have shape (N0,N1,N2,N3,2)")
        edge = np.zeros(f.shape[:4], dtype=bool)
        for ax in range(4):
            sl = [slice(None)] * 4
            sl[ax] = [0, 1, -2, -1]
            edge[tuple(sl)] = True
        if np.any(f[edge] != 0):
            raise ValueError("support touches the grid boundary")
    phi1, psi1, phi2, psi2 = fields
    dphi1, dpsi1, interior = dirac_apply_fd(phi1, psi1, h)
    dphi2, dpsi2, _ = dirac_apply_fd(phi2, psi2, h)

    lhs = np.sum(symplectic_pairing(dphi1, dpsi1, phi2, psi2)[interior])
    rhs = np.sum(symplectic_pairing(phi1, psi1, dphi2, dpsi2)[interior])
    return float(abs(lhs - rhs)) * h ** 4



def dirac_apply_fd(phi: np.ndarray, psi: np.ndarray, h: float):
    """Apply the massless Dirac operator on a 4D grid by central differences.

    phi, psi: arrays of shape (N0, N1, N2, N3, 2) holding phi_A and
    psi^{A'} on a uniform grid with spacing h along every axis.  Returns
    (Dphi, Dpsi, interior) where Dphi/Dpsi are valid on the boolean
    `interior` mask (one layer trimmed per face) and the scheme is O(h^2).
    """
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.shape != psi.shape or phi.ndim != 5 or phi.shape[-1] != 2:
        raise ValueError("phi, psi must both have shape (N0,N1,N2,N3,2)")

    def central(f, axis):
        out = np.zeros_like(f)
        sl_p = [slice(None)] * 5
        sl_m = [slice(None)] * 5
        sl_c = [slice(None)] * 5
        sl_p[axis] = slice(2, None)
        sl_m[axis] = slice(0, -2)
        sl_c[axis] = slice(1, -1)
        out[tuple(sl_c)] = (f[tuple(sl_p)] - f[tuple(sl_m)]) / (2.0 * h)
        return out

    dphi = np.stack([central(phi, a) for a in range(4)])   # (4, ..., 2)
    dpsi = np.stack([central(psi, a) for a in range(4)])
    new_phi, new_psi = dirac_assemble(dphi, dpsi)

    interior = np.zeros(phi.shape[:4], dtype=bool)
    interior[1:-1, 1:-1, 1:-1, 1:-1] = True
    return new_phi, new_psi, interior

