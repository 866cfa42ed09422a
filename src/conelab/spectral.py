"""Heat kernels, Green's functions and Poincare constants.  The indicial
roots of a cone need no linear algebra and live in
:mod:`conelab.hypersurface`.

Poincare constants act on the conductance data of any network exposing
``measures``, ``edges`` and ``conductances``: the quadratic form
sum c_e |f(i)-f(j)|^2 against the vertex measure matrix.  The energy form is
put in reverse Cuthill-McKee order and factored once as a band (LAPACK
``dpbtrf``, with a pivot guard against forms that are singular to working
precision); the pencil's largest eigenpair then comes from a standard
symmetric operator applied by Lanczos, one ``dpbtrs`` solve per step, and
it is checked by its residual on the pencil (:func:`poincare_constant`).
This is conelab's only sparse eigen-solver: the spectral gap of a large
graph is 1 / Lambda(V, V) (:func:`conelab.graphs.spectral_gap`).

Heat kernels and Green's functions need a
:class:`~conelab.cones.DiscretizedCone`: they use
its product structure (separation of variables in the link eigenmodes), in
which the operator is one symmetric tridiagonal matrix, built only on the
link modes that the source reaches (:func:`_reached_modes`).  The heat flow
is an exact function of it (:func:`_modal_apply`), the Green's function one
``dpttrf``/``dpttrs`` solve, the backward-Euler time integral one
tridiagonal recursion.  Each result is checked against the vertex-basis
operator, applied from the cone's product factors, so no edge array of the
whole cone is built (:func:`_robin_products`).
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .errors import (CapacityError, DomainError, InternalFault,
                     PreconditionError, _count)
from .graphs import _dense_laplacian, _vertex_ids, dirichlet_laplacian

__all__ = [
    "heat_kernel", "HeatKernelSample",
    "gaussian_fit", "GaussianFit", "greens_function", "GreensFunction",
    "green_by_time_integration", "poincare_constant",
    "scale_invariant_poincare_scan", "covering_cell_constant",
]

#: Largest accepted residual of the Green's function, relative to the scale
#: of the products summed in it (see :func:`greens_function`).
GREEN_RESIDUAL_TOL = 1e-10

#: Largest accepted residual of the eigenpair behind a Poincare constant,
#: relative to the scale of the products summed in it (see
#: :func:`poincare_constant`).
POINCARE_RESIDUAL_TOL = 1e-10

#: Largest accepted deviation of a heat-kernel sample's total mass from 1.
HEAT_MASS_TOL = 1e-9

#: Factor by which the fitted Gaussian amplitudes are widened, and the
#: largest accepted ratio of a sample to the fitted curve (either way).
FIT_SLACK = 3.0

#: Admissible distances of a Gaussian fit, in units of sqrt(t).
FIT_BAND = (1.0, 4.0)

#: Least distance of an admissible sample to the truncation boundary, in
#: units of sqrt(t).
FIT_BOUNDARY_FACTOR = 2.0

#: The Poincare scan's inner balls B(x, delta r) and its range of radii r.
SCAN_DELTA, SCAN_RADII = 0.5, (0.5, 1.5)


def _outflow(cone) -> float:
    """Robin coefficient of the outer ring per unit link measure: an outflow
    matching the decay rate r^(2-n) of a decaying harmonic function,

        normal flux = (n-2)/r_max * value * (outer face area),

    with outer face area r_max^(n-1) * (link measure)."""
    n = cone.dimension
    return (n - 2) / cone.r_max * cone.r_max ** (n - 1)


#: (mu, Phi) of :func:`_link_modes` for each live cone.
_LINK_MODES = weakref.WeakKeyDictionary()


def _link_modes(cone):
    """The link eigenpairs L_S Phi = M_S Phi diag(mu), Phi^T M_S Phi = I,
    from one dense generalized eigen-solve per cone, kept while the cone
    lives (read-only): the Green's function and its time-integration
    cross-check share them."""
    modes = _LINK_MODES.get(cone)
    if modes is None:
        f = cone.factors
        lm = f.link_measures
        L_S = _dense_laplacian(len(lm), f.link_edges, f.link_conductances)
        modes = scipy.linalg.eigh(L_S, np.diag(lm))
        for x in modes:
            x.setflags(write=False)
        _LINK_MODES[cone] = modes
    return modes


def _reached_modes(cone, robin, source):
    """The cone's Laplacian and measure in the basis of link eigenmodes, on
    the modes that ``source`` reaches: the one builder of the modal
    operator, and the one rule by which the heat kernel, the Green's
    function and its time integration skip modes.

    The link eigenpairs of :func:`_link_modes`, L_S Phi = M_S Phi diag(mu)
    with Phi^T M_S Phi = I, give V = 1 (+) (I_K (x) Phi) (the apex, when
    present, keeps its own coordinate).  Since L = L_r (x) M_S + diag(T) (x)
    L_S, V^T L V is the radial tridiagonal matrix L_r + mu_j diag(T) in each
    mode j, and V^T M V is diag(shell) in each mode (Cheeger's separation of
    variables on cones, in discrete form).  Coordinates are ordered apex
    first, then mode 0's rings, mode 1's rings, ..., so the operator is one
    symmetric tridiagonal matrix: the apex edges add the constant c_apex to
    ring 0 of every mode and couple the apex only to mode 0, with weight
    -c_apex Phi_0^T M_S 1, since the other modes are M_S-orthogonal to the
    constants.  With ``robin`` the outflow term of :func:`_outflow` on the
    outer ring, a multiple of M_S, adds the same constant to the outer ring
    of every mode.

    The operator is block diagonal, with no coupling between blocks: the
    apex (when present) with mode 0's K rings, then the K rings of each
    further mode.  b = V^T e_source is Phi's row at the source's link node,
    on the source's ring in each mode (the apex coordinate alone for a
    source at the apex), and every solution is exactly zero on a block
    where b is zero.  So only mode 0 and the modes where that row is
    nonzero are built: a source at the apex reaches only mode 0, a sphere's
    polar cap node not the modes that vanish there.  Where two kept blocks
    meet, the off-diagonal entry is a zero.

    Returns the kept rows' diagonal, off-diagonal, mass and b, the kept
    block sizes, and the map from the kept rows to the vertex basis."""
    f = cone.factors
    lm = f.link_measures
    A, K = len(lm), cone.radial_steps
    off = 0 if cone.apex is None else 1
    mu, Phi = _link_modes(cone)
    at_apex = source == cone.apex
    ring, node = divmod(source - off, A)
    kept = np.r_[True, (Phi[node, 1:] != 0) & (not at_apex)]
    b = np.zeros((np.count_nonzero(kept), K))
    if not at_apex:
        b[:, ring] = Phi[node, kept]
    w = f.radial_weights
    diag = np.r_[w, 0.0] + np.r_[0.0, w] + np.outer(mu[kept], f.ring_factors)
    coupling = np.zeros(b.shape)
    coupling[:, :-1] = -w
    coupling = coupling.ravel()[:-1]
    mass = np.tile(f.shell, len(b))
    b = b.ravel()
    if robin:
        diag[:, -1] += _outflow(cone)
    if off:
        c_apex = f.apex_conductance
        diag[:, 0] += c_apex
        diag = np.r_[c_apex * lm.sum(), diag.ravel()]
        coupling = np.r_[-c_apex * np.dot(Phi[:, 0], lm), coupling]
        mass = np.r_[cone.measures[0], mass]
        b = np.r_[float(at_apex), b]
    sizes = np.r_[off + K, np.full(A - 1, K)]
    rows = np.flatnonzero(np.repeat(kept, sizes))

    def to_vertices(x):
        y = np.zeros(off + A * K)
        y[rows] = x
        return np.r_[y[:off], (y[off:].reshape(A, K).T @ Phi.T).ravel()]

    return diag.ravel(), coupling, mass, b, sizes[kept], to_vertices


def _modal_apply(cone, source, f):
    """The columns of V M^-1/2 Q f(Lambda) Q^T M^-1/2 V^T e_source, for
    Q Lambda Q^T the eigen-decomposition of the mass-scaled operator
    M^-1/2 L M^-1/2 of :func:`_reached_modes` (natural boundary, no Robin
    term), built on the blocks that the source reaches: a source at the apex
    takes one eigen-solve instead of A.  Each block takes one symmetric
    tridiagonal eigen-solve, and f maps its eigenvalues to a (block size,
    columns) array, so any function of the operator is exact up to rounding
    at O(A K^2) cost.

    Also returns the Gershgorin bound of the first block's largest
    eigenvalue, found in O(K).  The mass lives in that block, and the
    eigen-solver finds its null eigenvalue to about eps times the bound."""
    diag, coupling, mass, b, sizes, to_vertices = _reached_modes(
        cone, False, source)
    scale = 1.0 / np.sqrt(mass)
    diag = diag * scale ** 2
    coupling = coupling * scale[:-1] * scale[1:]
    c0 = np.abs(coupling[:sizes[0] - 1])
    bound = float(np.max(diag[:sizes[0]] + np.r_[c0, 0.0] + np.r_[0.0, c0]))
    b, ends, y = b * scale, np.cumsum(sizes), []
    for lo, hi in zip(ends - sizes, ends):
        lam, Q = scipy.linalg.eigh_tridiagonal(diag[lo:hi],
                                               coupling[lo:hi - 1])
        y.append(Q @ (f(lam) * (Q.T @ b[lo:hi])[:, None])
                 * scale[lo:hi, None])
    return [to_vertices(col) for col in np.concatenate(y).T], bound


def _edge_products(n, edges, c, x):
    """L x and a bound of |L| |x| for L the energy form of ``edges`` with
    conductances c, summed edge by edge: (L x)_i = sum_ij c_ij (x_i - x_j),
    and (|L| |x|)_i <= sum_ij |c_ij| (|x_i| + |x_j|), an equality if c >= 0."""
    a, b = edges.T
    flow = c * (x[a] - x[b])
    ax = np.abs(x)
    size = np.abs(c) * (ax[a] + ax[b])
    return (np.bincount(a, flow, n) - np.bincount(b, flow, n),
            np.bincount(a, size, n) + np.bincount(b, size, n))


def _robin_products(cone, x):
    """L x and |L| |x| for L the vertex-basis Laplacian plus r, the outflow of
    :func:`_outflow` times the link measure, on the outer ring, applied from
    the cone's :class:`~conelab.cones.ProductFactors` with no edge array:
    on x as the (rings x link nodes) grid X, L = L_r (x) M_S + diag(T) (x)
    L_S is T_k (X L_S)_ka plus the difference of consecutive rings weighted
    by w_k lm_a, and |L| |x| the same on |X| and |L_S| (taken in place).
    The cone has no apex: the callers refuse dimension <= 2, and only
    circle links (dimension 2) have one."""
    f = cone.factors
    lm = f.link_measures
    L_S = _dense_laplacian(len(lm), f.link_edges, f.link_conductances)

    def product(X, op):
        """The sums over the edges ij at each vertex i of c_ij op(x_i, x_j),
        with op np.subtract or np.add, and the outflow term."""
        Y = X @ L_S
        Y *= f.ring_factors[:, None]
        flow = op(X[:-1], X[1:])
        flow *= f.radial_weights[:, None]
        flow *= lm
        Y[:-1] += flow
        op(Y[1:], flow, out=Y[1:])
        Y[-1] += _outflow(cone) * lm * X[-1]
        return Y.ravel()

    X = x.reshape(-1, len(lm))
    Lx = product(X, np.subtract)
    np.abs(L_S, out=L_S)
    return Lx, product(np.abs(X), np.add)


def _check_residual(cone, x, source, sink, what):
    """InternalFault unless ||L x - rhs||_inf <= GREEN_RESIDUAL_TOL *
    || |L| |x| ||_inf, the scale of the products summed in L x (both from
    :func:`_robin_products`), for rhs = delta_source - ``sink``."""
    rhs = np.zeros(cone.n_vertices) - sink
    rhs[source] += 1.0
    Lx, absLx = _robin_products(cone, x)
    residual = float(np.max(np.abs(Lx - rhs)))
    scale = float(np.max(absLx))
    if not residual <= GREEN_RESIDUAL_TOL * scale:
        raise InternalFault(f"{what} residual {residual:.3g} "
                            f"exceeds {GREEN_RESIDUAL_TOL:g} * {scale:.3g}")


# ---------------------------------------------------------------------------
# heat kernel


@dataclass
class HeatKernelSample:
    t: float
    source: int
    values: np.ndarray   # density with respect to the vertex measure

    def mass(self, cone) -> float:
        return float(np.dot(self.values, cone.measures))


def heat_kernel(cone, source: int, times: Sequence[float]):
    """Heat kernel h(t, source, .) on a DiscretizedCone, exact in time:
    h(t) = exp(-t M^-1 L) delta_source / m_source, evaluated through the
    eigen-decomposition of the link-eigenmode operator on the modes that
    the source reaches (:func:`_modal_apply`).

    Natural (Neumann) boundary on the truncation rings; total mass is
    conserved, and InternalFault is raised if a sample's mass is off 1 by
    more than HEAT_MASS_TOL.  Times must lie in (0, r_max^2]: later the
    flow is flat up to rounding, and e^(-t lam_0) of the rounded null
    eigenvalue lam_0 leaves 1 (mass 0, or overflow).  A mass off 1 is a
    PreconditionError instead when rounding explains it: the eigen-solver
    finds lam_0 to about eps * lambda_max, which moves the mass by t times
    that, and t * eps * (the Gershgorin bound of lambda_max) exceeds
    HEAT_MASS_TOL (a thin shell, where the radial gaps are tiny).
    """
    times = sorted(float(t) for t in times)
    if not times or not all(0 < t <= cone.r_max ** 2 for t in times):
        raise DomainError(f"times must lie in (0, r_max^2 = "
                          f"{cone.r_max ** 2:g}]")
    source = int(_vertex_ids([source], cone.n_vertices, "source")[0])
    values, lam_bound = _modal_apply(
        cone, source, lambda lam: np.exp(-np.outer(lam, times)))
    samples = [HeatKernelSample(t, source, v) for t, v in zip(times, values)]
    for s in samples:
        mass = s.mass(cone)
        if abs(mass - 1.0) <= HEAT_MASS_TOL:
            continue
        drift = s.t * np.finfo(float).eps * lam_bound
        if drift > HEAT_MASS_TOL:
            raise PreconditionError(
                f"heat kernel mass {mass!r} at t = {s.t:g} is not 1: the "
                f"eigen-solver's rounding, t * eps * lambda_max = "
                f"{drift:.2g}, exceeds the mass tolerance {HEAT_MASS_TOL:g} "
                f"(lambda_max <= {lam_bound:.3g})")
        raise InternalFault(f"heat kernel mass {mass!r} at t = {s.t:g} "
                            f"is not 1")
    return samples


# ---------------------------------------------------------------------------
# Gaussian two-sided fit


@dataclass
class GaussianFit:
    c1: float
    C1: float
    c2: float
    C2: float
    passed: bool
    n_points: int
    witness: Optional[tuple] = None   # (t, vertex, measured, bound) worst case
    max_rel_residual: float = 0.0


def gaussian_fit(samples, cone) -> GaussianFit:
    """Fit two-sided Gaussian bounds

        c1 e^(-C1 d^2/t) / V(x, sqrt t) <= h <= C2 e^(-c2 d^2/t) / V(x, sqrt t)

    over the admissible region FIT_BAND[0] sqrt(t) <= d <= FIT_BAND[1] sqrt(t)
    with distance to the truncation boundary >= FIT_BOUNDARY_FACTOR sqrt(t).

    The exponents come from a log-linear regression of h*V against d^2/t; the
    amplitudes are the regression intercept widened by ``FIT_SLACK``.
    ``passed`` records the pointwise verification (every admissible sample
    within a factor FIT_SLACK of the regression), so a single corrupted node
    fails it.
    """
    xs, ys, ts, vs = [], [], [], []
    nonpos = None
    bd = cone.boundary_distance()
    for s in samples:
        rt = math.sqrt(s.t)
        d = cone.distances_from(s.source)
        V = cone.ball_volume(s.source, rt).volume
        admissible = ((FIT_BAND[0] * rt <= d) & (d <= FIT_BAND[1] * rt)
                      & (bd >= FIT_BOUNDARY_FACTOR * rt))
        bad = admissible & (s.values <= 0)
        if bad.any():
            v = int(np.flatnonzero(bad)[-1])
            nonpos = (s.t, v, float(s.values[v]), 0.0)
        keep = np.flatnonzero(admissible & ~bad)
        xs.append(d[keep] ** 2 / s.t)
        ys.append(np.log(s.values[keep] * V))
        ts.append(np.full(len(keep), s.t))
        vs.append(keep)
    xs, ys, ts, vs = (np.concatenate(a) for a in (xs, ys, ts, vs))
    if len(xs) < 4 or xs.min() == xs.max():
        raise DomainError("too few admissible samples for a Gaussian fit "
                          "(at least 4, at two or more values of d^2/t)")
    slope, intercept = np.polyfit(xs, ys, 1)
    c2 = -float(slope)
    amp = math.exp(float(intercept))
    C2, c1, C1 = amp * FIT_SLACK, amp / FIT_SLACK, c2
    resid = ys - (intercept + slope * xs)
    worst = int(np.argmax(np.abs(resid)))
    max_rel = float(np.exp(np.max(np.abs(resid))) - 1.0)
    passed = bool(c2 > 0 and nonpos is None
                  and np.all(np.abs(resid) <= math.log(FIT_SLACK)))
    witness = nonpos if nonpos is not None else (
        float(ts[worst]), int(vs[worst]), math.exp(ys[worst]),
        amp * math.exp(slope * xs[worst]))
    return GaussianFit(c1, C1, c2, C2, passed, len(xs), witness, max_rel)


# ---------------------------------------------------------------------------
# Green's function


@dataclass
class GreensFunction:
    values: np.ndarray
    source: int
    bound_constant: float    # max over interior vertices of G * d^(n-2)
    positive: bool


def greens_function(cone, source: int) -> GreensFunction:
    """Solve L G = delta_source on a DiscretizedCone of dimension n > 2.

    The outer truncation ring carries a Robin condition matching the decay
    r^(2-n), so G approximates the Green's function of the infinite cone.
    The solve is one LAPACK ``dpttrf``/``dpttrs`` pass, O(n), in the link-
    eigenmode basis, on the rows of the modes that the source reaches
    (:func:`_reached_modes`; G is exactly zero in the others), with
    InternalFault if ``dpttrf`` fails; the residual of G is then checked in
    the vertex basis, and InternalFault is raised if
    ||L G - delta||_inf exceeds GREEN_RESIDUAL_TOL * || |L| |G| ||_inf.
    """
    if cone.dimension <= 2:
        raise DomainError("Green's function requires dimension n > 2")
    source = int(_vertex_ids([source], cone.n_vertices, "source")[0])
    diag, coupling, _, b, _, to_vertices = _reached_modes(cone, True, source)
    d, e, info = dpttrf(diag, coupling)
    if info != 0:
        raise InternalFault(f"the modal Robin operator is not positive "
                            f"definite (dpttrf info {info})")
    G = to_vertices(dpttrs(d, e, b)[0])
    _check_residual(cone, G, source, 0.0, "Green's function")
    d = cone.distances_from(source)
    interior = (d > 0) & ~cone.is_outer
    C = float(np.max(G[interior] * d[interior] ** (cone.dimension - 2)))
    return GreensFunction(G, source, C, bool(np.all(G > 0)))


def green_by_time_integration(cone, source: int, dt: float | None = None,
                              n_steps: int = 400) -> np.ndarray:
    """int_0^infty h(t, source, .) dt by backward-Euler quadrature.

    Uses the same Robin boundary as :func:`greens_function` (so the integral
    converges) but a different computation: the N = ``n_steps`` steps
    h_k = (M + dt L)^-1 M h_(k-1) from h_0 = delta_source / m_source, summed
    to T_N = dt (h_1 + ... + h_N).  The steps run in the link-eigenmode
    basis, where M + dt L is one symmetric positive-definite tridiagonal
    matrix: it is factored once (LAPACK ``dpttrf``, InternalFault if that
    fails), and each step is one ``dpttrs`` solve, in place.  Only the rows
    of the modes that the source reaches are factored and stepped
    (:func:`_reached_modes`); h_k is exactly zero in the others.  The
    vertex-basis network checks T_N through the identity L T_N = M (h_0 -
    h_N) that the steps sum to; InternalFault is raised if its residual
    exceeds GREEN_RESIDUAL_TOL * || |L| |T_N| ||_inf.

    The rest of the integral is estimated as h_N m(h_N) / F(h_N), with m
    the mass and F = sum r_i h_i the outflow through the outer ring (the r
    of :func:`_robin_products`).  Mass leaves only there, m(h_(k-1)) -
    m(h_k) = dt F(h_k), so for the slowest mode, L v = lam_0 M v, the
    estimate is h_N / lam_0, the exact sum of the remaining steps.  A flow
    that has not reached the outer ring (F(h_N) = 0 in floating point) has
    no such estimate: PreconditionError.

    ``n_steps`` must be an integer >= 2 and ``dt`` a finite positive step
    (by default 0.08 r_max^2 / N), else DomainError.
    """
    if cone.dimension <= 2:
        raise DomainError("requires dimension n > 2")
    source = int(_vertex_ids([source], cone.n_vertices, "source")[0])
    n_steps = _count(n_steps, 2, "n_steps")
    if dt is None:
        dt = 0.02 * cone.r_max ** 2 / n_steps * 4
    elif not 0 < dt < math.inf:
        raise DomainError(f"dt must be finite and positive, not {dt!r}")
    # the first right-hand side: b = V^T M h_0
    diag, coupling, mass, rhs, _, to_vertices = _reached_modes(cone, True,
                                                               source)
    d, e, info = dpttrf(mass + dt * diag, dt * coupling)
    if info != 0:
        raise InternalFault(f"M + dt L is not positive definite "
                            f"(dpttrf info {info})")
    h, total = np.empty(len(d)), np.zeros(len(d))
    for _ in range(n_steps):
        c = dpttrs(d, e, rhs, overwrite_b=1)[0]
        total += c
        # two buffers: h_(k-1)'s takes the next right-hand side
        rhs, h = np.multiply(mass, c, out=h), c
    total, h = to_vertices(dt * total), to_vertices(h)
    # L T_N = M (h_0 - h_N)
    _check_residual(cone, total, source, cone.measures * h,
                    "time integration")
    r = _outflow(cone) * cone.factors.link_measures
    flux = float(np.dot(r, h[-cone.link_nodes:]))
    if not flux > 0:
        raise PreconditionError(
            f"h_N has not reached the outer ring after {n_steps} steps of "
            f"dt = {dt:g}: no tail estimate")
    return total + h * (float(np.dot(h, cone.measures)) / flux)


# ---------------------------------------------------------------------------
# Poincare constants


def _band_factor(pos, edges, c, n):
    """Lower band Cholesky factor (LAPACK ``dpbtrf``) of the energy form of
    ``edges`` with conductances ``c``, its vertices renumbered by ``pos``,
    grounded at positions n and above: those rows and columns are dropped,
    and an edge to them adds to its other end's diagonal only.  The
    diagonal is one ``np.bincount``; each other entry lies at its band
    offset |i - j|.

    The band is built in LAPACK's layout, (kd + 1, n) in Fortran order,
    and factored in place: the factor returned is that array.

    Raises PreconditionError if ``dpbtrf`` fails (the form is not positive
    definite), or if it succeeds with a pivot c_ii^2 <= n eps a_ii: then
    the form is singular to working precision, whatever the numbering."""
    p = np.sort(pos[edges], axis=1)   # (lo, hi) of each edge
    diag = np.bincount(p.ravel(), np.repeat(c, 2), n + 1)[:n]
    inner = p[:, 1] < n
    lo, hi = p[inner].T
    kd = int(np.max(hi - lo, initial=0))
    # entry (hi, lo) sits at row hi - lo of column lo: flat lo * kd + hi
    flat = lo * kd + hi
    del p, lo, hi
    ab = np.bincount(flat, -c[inner], n * (kd + 1))
    del flat, inner   # only the band and its diagonal stay through dpbtrf
    # without inner edges (a star about the grounded vertex) bincount
    # returns integers, which would truncate the diagonal
    ab = ab.astype(float, copy=False).reshape(n, kd + 1).T
    ab[0] = diag
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise PreconditionError(f"energy form on {n + 1} vertices is not "
                                f"positive definite (dpbtrf info {info})")
    pivot = float(np.min(factor[0] ** 2 / diag))
    if pivot <= n * np.finfo(float).eps:
        raise PreconditionError(f"energy form on {n + 1} vertices is "
                                f"singular (pivot ratio {pivot:.3g})")
    return factor


def poincare_constant(net, U, Uprime, mean_set=None) -> float:
    """Best constant in  int_U |f - a|^2 dm <= C int_U' |grad f|^2
    where a is the mean of f over ``mean_set`` (default U, must lie in U).

    This is the largest eigenvalue of the pencil (Q, L) where Q is the
    centered mass form supported on U and L the energy form on U'.  Both
    forms are shift invariant, so one U vertex is grounded.  The vertices
    are put in reverse Cuthill-McKee order, and the grounded L is factored
    once as a band (LAPACK ``dpbtrf``, see :func:`_band_factor`).  With
    Q = P^T D P, D = diag(m on U) and P f = f - a(f), the nonzero spectrum
    of the pencil is that of the symmetric operator B = D^1/2 P L^+ P^T D^1/2
    on U: P^T maps into the sum-zero vectors, where L^+ is one ``dpbtrs``
    solve of the grounded system, and P removes the constant.  B's largest
    eigenpair (lambda, y) comes from ARPACK's Lanczos (mode 1, to machine
    precision), one band solve per step; CapacityError if it does not
    converge.  The pair is then checked on the pencil itself: with
    f = L^+ P^T D^1/2 y, InternalFault is raised unless
    ||Q f - lambda L f||_inf <= POINCARE_RESIDUAL_TOL * (||D f||_inf +
    lambda || |L| |f| ||_inf), L f and |L| |f| summed edge by edge.

    Edges of zero conductance and loops link nothing: if U meets several
    components of U' without them, the constant is +inf.  Otherwise the
    vertices off U's component are grounded with the U vertex: both forms
    vanish there.  Raises DomainError unless U, U' and ``mean_set`` are
    nonempty sets of vertices of ``net``, and PreconditionError if the
    grounded energy form is not positive definite or is singular to working
    precision.
    """
    from scipy.sparse.csgraph import (connected_components,
                                      reverse_cuthill_mckee)
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh)

    n_vertices = len(net.measures)
    U = _vertex_ids(U, n_vertices, "U")
    Up = _vertex_ids(Uprime, n_vertices, "U'")
    if not np.isin(U, Up).all():
        raise DomainError("U must be contained in U'")
    mean_set = U if mean_set is None else _vertex_ids(mean_set, n_vertices,
                                                      "mean_set")
    if not np.isin(mean_set, U).all():
        raise DomainError("mean_set must be contained in U")
    if len(U) == 1:
        return 0.0
    nloc = len(Up)
    loc = np.full(n_vertices, -1, dtype=int)
    loc[Up] = np.arange(nloc)
    e = loc[np.asarray(net.edges, dtype=int).reshape(-1, 2)]
    c = np.asarray(net.conductances, dtype=float)
    keep = (e >= 0).all(axis=1) & (c != 0) & (e[:, 0] != e[:, 1])
    e, c = e[keep], c[keep]
    L = dirichlet_laplacian(nloc, e, c)
    labels = connected_components(L, directed=False)[1]
    u_loc = loc[U]
    if np.any(labels[u_loc] != labels[u_loc[0]]):
        return math.inf
    order = reverse_cuthill_mckee(L, symmetric_mode=True)
    del L   # only its components and its order are needed
    # mass form on U with the mean over mean_set removed:
    #   Q(f) = sum_U m_i (f_i - a)^2,  a = (mm . f) / mu_mean
    m = np.asarray(net.measures, dtype=float)
    mU_full = np.zeros(nloc)
    mU_full[u_loc] = m[U]
    mm_full = np.zeros(nloc)
    in_mean = u_loc[np.isin(U, mean_set)]
    mm_full[in_mean] = mU_full[in_mean]
    mu_mean = mm_full.sum()

    # ground the first U vertex (both forms are shift invariant) and the
    # vertices off its component (both forms vanish there); band positions:
    # reverse Cuthill-McKee order, the grounded vertices last
    g = int(u_loc[0])
    off = labels != labels[g]
    n = nloc - 1 - int(np.count_nonzero(off))
    last = off[order] | (order == g)
    pos = np.empty(nloc, dtype=int)
    pos[order[np.argsort(last, kind="stable")]] = np.arange(nloc)
    factor = _band_factor(pos, e, c, n)
    sq = np.sqrt(mU_full[u_loc])
    mm = mm_full[u_loc]
    pos_U = pos[u_loc]

    def solve(y):
        """L^+ P^T D^1/2 y in band positions, 0 at the grounded vertices."""
        z = sq * y
        r = np.zeros(nloc)
        r[pos_U] = z - mm * (z.sum() / mu_mean)
        r[:n] = dpbtrs(factor, r[:n], lower=1)[0]
        r[n:] = 0.0
        return r

    def bmul(y):
        x = solve(y)[pos_U]
        return sq * (x - np.dot(mm, x) / mu_mean)

    nU = len(u_loc)
    # a fixed start vector keeps repeated runs bit-identical
    v0 = np.random.default_rng(12345).standard_normal(nU)
    try:
        w, y = eigsh(LinearOperator((nU, nU), matvec=bmul, dtype=float),
                     k=1, which="LA", v0=v0)
    except ArpackNoConvergence as exc:
        raise CapacityError(
            f"Lanczos solve for the Poincare constant on {nloc} "
            f"vertices did not converge") from exc
    lam = float(w[0])
    f = solve(y[:, 0])[pos]
    del factor   # the residual check runs on the edges
    a = np.dot(mm_full, f) / mu_mean
    Qf = mU_full * (f - a) - mm_full * (np.dot(mU_full, f - a) / mu_mean)
    Lf, absLf = _edge_products(nloc, e, c, f)
    residual = float(np.max(np.abs(Qf - lam * Lf)))
    scale = float(np.max(np.abs(mU_full * f)) + lam * np.max(absLf))
    if not residual <= POINCARE_RESIDUAL_TOL * scale:
        raise InternalFault(f"Poincare eigenpair residual {residual:.3g} "
                            f"exceeds {POINCARE_RESIDUAL_TOL:g} * "
                            f"{scale:.3g}")
    return max(lam, 0.0)


@dataclass
class PoincareRecord:
    vertex: int
    radius: float
    value: float   # Lambda(B(x, delta r), B(x, r)) / r^2
    case: str


@dataclass
class PoincareScan:
    records: list
    c_max: float
    worst: Optional[PoincareRecord]


def scale_invariant_poincare_scan(cone, n_samples: int = 20,
                                  seed: int = 0) -> PoincareScan:
    """Sample unclipped balls and record Lambda(B(x, delta r), B(x, r))/r^2
    and the case (``SCAN_DELTA``, ``SCAN_RADII``, ``cones.EPSILON``)."""
    from .cones import EPSILON, _ball_case
    if _count(n_samples, None, "n_samples") < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    base = cone.base_point()
    d_base = cone.distances_from(base)
    lo, hi = SCAN_RADII
    records = []
    tries = 0
    while len(records) < n_samples and tries < 50 * n_samples:
        tries += 1
        r = float(rng.uniform(lo, hi))
        v = int(rng.integers(0, cone.n_vertices))
        if r > cone.boundary_distance(v):
            continue
        d = cone.distances_from(v)
        inner = np.flatnonzero(d <= SCAN_DELTA * r)
        outer = np.flatnonzero(d <= r)
        if len(inner) < 2:
            continue
        val = poincare_constant(cone, inner, outer) / r ** 2
        case = _ball_case(d_base, base, v, r, EPSILON)
        records.append(PoincareRecord(v, r, val, case))
    worst = max(records, key=lambda rec: rec.value) if records else None
    return PoincareScan(records, worst.value if worst else math.nan, worst)


def _cell_key(net, cell):
    """Canonical key of a cell (U, U*, U#) of network vertices, sorted index
    arrays (:class:`~conelab.covering.Cell`): equal keys mean congruent
    cells, whose Poincare constants agree.

    The key starts with a flag for U* = U# (every cell that
    :mod:`conelab.cones` builds), and then U# is left out.  Without a
    ``link_automorphism`` on ``net`` the rest is the sets' bytes.  On a
    cone with the link rotation sigma it is the least image of the sets
    under the powers sigma^-p, p a node of U's lowest ring (every node if
    U holds no ring vertex): vertex (ring k, node a) maps to
    k A + (a - p) mod A, the apex to -1, and each set's images are sorted.
    Two cells get the same key only when one is the image of the other
    under a power of sigma, and rotating the cell rotates these candidates
    with it, so congruent cells get the same key.  A cone over a circle
    link carries sigma (:class:`~conelab.cones.DiscretizedCone`), and
    :func:`_check_rotation` checks it before any key is used.
    """
    same = np.array_equal(cell.Ustar, cell.Usharp)
    sets = (cell.U, cell.Ustar) + (() if same else (cell.Usharp,))
    if getattr(net, "link_automorphism", None) is None:
        return (same, *(s.tobytes() for s in sets))
    A, k_U = net.link_nodes, net.ring_of[cell.U]
    ring = k_U >= 0   # ring -1: the apex
    start = (net.link_index[cell.U][k_U == k_U[ring].min()] if ring.any()
             else np.arange(A))
    images = [np.sort(np.where(net.ring_of[s] < 0, -1, net.ring_of[s] * A
                               + (net.link_index[s] - start[:, None]) % A))
              for s in sets]
    return same, min(zip(*([row.tobytes() for row in im] for im in images)))


def _edge_table(edges, conductances):
    """The weighted edge set as bytes: each edge as a sorted pair, in
    lexicographic order with its conductance, so that two edge lists
    give equal tables exactly when they hold the same weighted edges,
    whatever their order and orientation."""
    e = np.sort(edges, axis=1)
    order = np.lexsort((conductances, e[:, 1], e[:, 0]))
    return e[order].tobytes() + conductances[order].tobytes()


def _check_rotation(net):
    """InternalFault unless the rotation that :func:`_cell_key` assumes is
    an automorphism of the weighted network ``net``, bit for bit.

    ``net.link_automorphism`` must be the link rotation a -> (a+1) mod A,
    and sigma, vertex (ring k, node a) -> (k, sigma(a)) with the apex
    fixed, must map the vertex measures and the table of edges with their
    conductances (:func:`_edge_table`) onto themselves.  The rotation's
    only check: a cone takes it from its link's type."""
    sigma, A = np.asarray(net.link_automorphism), net.link_nodes
    ring, node = net.ring_of, net.link_index
    image = np.arange(len(ring)) + np.where(ring < 0, 0, sigma[node] - node)
    m = np.asarray(net.measures, dtype=float)
    edges = np.asarray(net.edges, dtype=int).reshape(-1, 2)
    c = np.asarray(net.conductances, dtype=float)
    if not (np.array_equal(sigma, (np.arange(A) + 1) % A)
            and m[image].tobytes() == m.tobytes()
            and _edge_table(image[edges], c) == _edge_table(edges, c)):
        raise InternalFault("the link rotation is not an automorphism of "
                            "the cone's measures and conductances")


def covering_cell_constant(cov, net) -> float:
    """Measured per-cell constant S_c of a covering whose atoms are network
    vertices: the largest of Lambda(U_i, U*_i) and of the variant on U*_i
    with the mean taken over U_i, tested against the energy on U#_i.

    When U* = U#, as in every covering that :mod:`conelab.cones` builds,
    only the second pencil is solved, because it bounds the first: U lies
    in U*, so sum_U m (f - a_U)^2 <= sum_U* m (f - a_U)^2 for every f, and
    both pencils divide by the same energy on U* = U#.  The order holds for
    infinite values too: if U meets two components of U*, so does U*.

    Congruent cells have equal constants, so the pencils are solved once
    per congruence class (cells with equal :func:`_cell_key`), on its first
    member: on a cone over a circle, once per cell shape up to the link
    rotation.  On such a cone the rotation is first checked to be an
    automorphism of the whole network (:func:`_check_rotation`, on every
    call): two cells of one class then give the same pencil with its
    vertices renumbered.  InternalFault is raised if the check fails.
    """
    if getattr(net, "link_automorphism", None) is not None:
        _check_rotation(net)
    worst, solved = 0.0, set()
    for c in cov.cells:
        key = _cell_key(net, c)
        if key in solved:
            continue
        solved.add(key)
        worst = max(worst, poincare_constant(net, c.Ustar, c.Usharp,
                                             mean_set=c.U))
        if not np.array_equal(c.Ustar, c.Usharp):
            worst = max(worst, poincare_constant(net, c.U, c.Ustar))
    return worst
