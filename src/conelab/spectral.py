"""Heat kernels, Green's functions, Poincare constants and indicial roots.

All solvers act on the conductance data of a :class:`~conelab.cones.DiscretizedCone`
(or any object exposing ``measures``, ``edges``, ``conductances``): the
quadratic form sum c_e |f(i)-f(j)|^2 against the vertex measure matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                  splu)

from .errors import CapacityError, DomainError
from .graphs import dirichlet_laplacian

__all__ = [
    "heat_kernel", "HeatKernelSample",
    "gaussian_fit", "GaussianFit", "greens_function", "GreensFunction",
    "green_by_time_integration", "poincare_constant",
    "scale_invariant_poincare_scan", "covering_cell_constant",
    "indicial_spectrum", "IndicialSpectrum",
]


def _robin_laplacian(cone) -> sp.csr_matrix:
    """Laplacian with an outflow (Robin) term on the outer truncation ring
    matching the decay rate r^(2-n) of a decaying harmonic function:

        normal flux = (n-2)/r_max * value * (outer face area).

    This removes the constant nullspace and mimics the infinite cone."""
    n = cone.dimension
    face = cone.r_max ** (n - 1) * cone._link_measures
    robin = np.where(cone.is_outer,
                     (n - 2) / cone.r_max * face[cone.link_index], 0.0)
    L = dirichlet_laplacian(cone.n_vertices, cone.edges, cone.conductances)
    return L + sp.diags(robin)


# ---------------------------------------------------------------------------
# heat kernel


@dataclass
class HeatKernelSample:
    t: float
    source: int
    values: np.ndarray   # density with respect to the vertex measure

    def mass(self, cone) -> float:
        return float(np.dot(self.values, cone.measures))


def _march(L, M, h0, times, n_steps):
    """Crank-Nicolson march recording the solution at each target time.

    The first segment opens with two backward-Euler half steps to damp the
    roughness of the point-mass initial datum."""
    out = []
    h = h0.copy()
    t_prev = 0.0
    first = True
    for t in times:
        seg = t - t_prev
        n = max(2, int(math.ceil(n_steps * seg / times[-1])))
        dt = seg / n
        # backward Euler over dt/2 and Crank-Nicolson over dt share the
        # matrix M + dt/2 L
        lu = splu((M + 0.5 * dt * L).tocsc())
        B = (M - 0.5 * dt * L).tocsr()
        if first:
            for _ in range(2):
                h = lu.solve(M @ h)
            first = False
            remaining = n - 1
        else:
            remaining = n
        for _ in range(remaining):
            h = lu.solve(B @ h)
        out.append(h.copy())
        t_prev = t
    return out


def heat_kernel(cone, source: int, times: Sequence[float],
                rel_tol: float = 0.005, n_steps: int = 64,
                max_refine: int = 8, probes=None):
    """Heat kernel h(t, source, .) by implicit (Crank-Nicolson) stepping.

    The number of time steps is doubled until the solutions at the probe
    vertices change by less than ``rel_tol`` relatively.  Natural (Neumann)
    boundary on the truncation rings; total mass is conserved.
    """
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0:
        raise DomainError("times must be positive")
    if not 0 <= source < cone.n_vertices:
        raise DomainError("source vertex out of range")
    L = dirichlet_laplacian(cone.n_vertices, cone.edges, cone.conductances)
    M = sp.diags(cone.measures)
    h0 = np.zeros(cone.n_vertices)
    h0[source] = 1.0 / cone.measures[source]
    if probes is None:
        order = np.argsort(cone.distances_from(source))
        probes = order[np.linspace(1, cone.n_vertices - 1, 6).astype(int)]
    prev = None
    for _ in range(max_refine):
        sols = _march(L, M, h0, times, n_steps)
        if prev is not None:
            num = max(np.max(np.abs(s[probes] - p[probes]))
                      for s, p in zip(sols, prev))
            den = max(np.max(np.abs(s[probes])) for s in sols)
            if den == 0 or num <= rel_tol * den:
                break
        prev = sols
        n_steps *= 2
    return [HeatKernelSample(t, source, s) for t, s in zip(times, sols)]


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


def gaussian_fit(samples, cone, slack: float = 3.0, band=(1.0, 4.0),
                 boundary_factor: float = 2.0) -> GaussianFit:
    """Fit two-sided Gaussian bounds

        c1 e^(-C1 d^2/t) / V(x, sqrt t) <= h <= C2 e^(-c2 d^2/t) / V(x, sqrt t)

    over the admissible region band[0]*sqrt(t) <= d <= band[1]*sqrt(t) with
    distance to the truncation boundary >= boundary_factor*sqrt(t).

    The exponents come from a log-linear regression of h*V against d^2/t; the
    amplitudes are the regression intercept widened by ``slack``.  ``passed``
    records the pointwise verification, so a single corrupted node fails it.
    """
    xs, ys, tags = [], [], []
    nonpos = None
    for s in samples:
        rt = math.sqrt(s.t)
        d = cone.distances_from(s.source)
        V = cone.ball_volume(s.source, rt).volume
        lo, hi = band[0] * rt, band[1] * rt
        margin = boundary_factor * rt
        for v in range(cone.n_vertices):
            if not (lo <= d[v] <= hi):
                continue
            if cone.boundary_distance(v) < margin:
                continue
            val = s.values[v]
            if val <= 0:
                nonpos = (s.t, v, float(val), 0.0)
                continue
            xs.append(d[v] ** 2 / s.t)
            ys.append(math.log(val * V))
            tags.append((s.t, v))
    if len(xs) < 4:
        raise DomainError("too few admissible samples for a Gaussian fit")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    c2 = -float(slope)
    amp = math.exp(float(intercept))
    C2, c1, C1 = amp * slack, amp / slack, c2
    resid = ys - (intercept + slope * xs)
    worst = int(np.argmax(np.abs(resid)))
    max_rel = float(np.exp(np.max(np.abs(resid))) - 1.0)
    passed = bool(c2 > 0 and nonpos is None
                  and np.all(resid <= math.log(slack))
                  and np.all(resid >= -math.log(slack)))
    witness = nonpos if nonpos is not None else (
        tags[worst][0], tags[worst][1], math.exp(ys[worst]),
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
    """Solve L G = delta_source on a cone of dimension n > 2.

    The outer truncation ring carries a Robin condition matching the decay
    r^(2-n), so G approximates the Green's function of the infinite cone.
    """
    if cone.dimension <= 2:
        raise DomainError("Green's function requires dimension n > 2")
    L = _robin_laplacian(cone)
    rhs = np.zeros(cone.n_vertices)
    rhs[source] = 1.0
    G = splu(L.tocsc()).solve(rhs)
    d = cone.distances_from(source)
    interior = (d > 0) & ~cone.is_outer
    C = float(np.max(G[interior] * d[interior] ** (cone.dimension - 2)))
    return GreensFunction(G, source, C, bool(np.all(G > 0)))


def green_by_time_integration(cone, source: int, dt: float | None = None,
                              n_steps: int = 400) -> np.ndarray:
    """int_0^infty h(t, source, .) dt by backward-Euler quadrature.

    Uses the same Robin boundary as :func:`greens_function` (so the integral
    converges) but a genuinely different computation: time stepping plus a
    spectral tail estimate from the final decay rate.
    """
    if cone.dimension <= 2:
        raise DomainError("requires dimension n > 2")
    L = _robin_laplacian(cone)
    M = sp.diags(cone.measures)
    if dt is None:
        dt = 0.02 * cone.r_max ** 2 / n_steps * 4
    lu = splu((M + dt * L).tocsc())
    h = np.zeros(cone.n_vertices)
    h[source] = 1.0 / cone.measures[source]
    total = np.zeros_like(h)
    prev_norm = None
    lam = None
    for _ in range(n_steps):
        h = lu.solve(M @ h)
        total += dt * h
        norm = float(np.dot(h, cone.measures))
        if prev_norm and norm > 0:
            lam = -math.log(norm / prev_norm) / dt
        prev_norm = norm
    if lam and lam > 0:
        total += h / lam
    return total


# ---------------------------------------------------------------------------
# Poincare constants


def poincare_constant(net, U, Uprime, mean_set=None) -> float:
    """Best constant in  int_U |f - a|^2 dm <= C int_U' |grad f|^2
    where a is the mean of f over ``mean_set`` (default U, must lie in U).

    This is the largest eigenvalue of the pencil (Q, L') where Q is the
    centered mass form supported on U and L' the energy form on U'.  Both
    forms are shift invariant, so one vertex is grounded.  Up to 400
    vertices in U' the pencil is solved densely; above, by ARPACK's
    generalized Lanczos (mode 2) to machine precision, with one sparse
    factorization of L' (symmetric ordering) for the L'^-1 solves.  Raises
    CapacityError if Lanczos does not converge.  If U meets several
    components of U' the constant is +inf.
    """
    U = sorted(set(int(v) for v in U))
    Up = sorted(set(int(v) for v in Uprime))
    if not set(U) <= set(Up):
        raise DomainError("U must be contained in U'")
    if mean_set is None:
        mean_set = U
    mean_set = sorted(set(int(v) for v in mean_set))
    if not set(mean_set) <= set(U):
        raise DomainError("mean_set must be contained in U")
    if len(U) == 1:
        return 0.0
    nloc = len(Up)
    loc = np.full(len(net.measures), -1, dtype=int)
    loc[Up] = np.arange(nloc)
    e = loc[np.asarray(net.edges, dtype=int).reshape(-1, 2)]
    keep = (e >= 0).all(axis=1)
    L = dirichlet_laplacian(nloc, e[keep],
                            np.asarray(net.conductances, dtype=float)[keep])
    ncomp, labels = connected_components(L, directed=False)
    u_loc = loc[U]
    if ncomp > 1:
        comps = set(labels[u_loc])
        if len(comps) > 1:
            return math.inf
        comp = comps.pop()
        keep_v = np.flatnonzero(labels == comp)
        remap = -np.ones(nloc, dtype=int)
        remap[keep_v] = np.arange(len(keep_v))
        L = L[keep_v][:, keep_v]
        u_loc = remap[u_loc]
        nloc = len(keep_v)
    # mass form on U with the mean over mean_set removed:
    #   Q(f) = sum_U m_i (f_i - a)^2,  a = (mm . f) / mu_mean
    m = np.asarray(net.measures, dtype=float)
    mU_full = np.zeros(nloc)
    mU_full[u_loc] = m[np.array(U)]
    mm_full = np.zeros(nloc)
    in_mean = u_loc[np.isin(U, mean_set)]
    mm_full[in_mean] = mU_full[in_mean]
    mu_mean = mm_full.sum()
    mu_U = mU_full.sum()

    def qmul(v):
        a = np.dot(mm_full, v) / mu_mean
        b = np.dot(mU_full, v)
        return (mU_full * v - a * mU_full - (b / mu_mean) * mm_full
                + (mu_U * a / mu_mean) * mm_full)

    # ground the first U vertex (both forms are shift invariant)
    g = int(u_loc[0])
    keep = np.r_[np.arange(g), np.arange(g + 1, nloc)]
    Lg = L[keep][:, keep].tocsc()
    if nloc - 1 == 0:
        return 0.0
    if nloc <= 400:
        Qd = (np.diag(mU_full)
              - (np.outer(mU_full, mm_full) + np.outer(mm_full, mU_full))
              / mu_mean
              + np.outer(mm_full, mm_full) * (mu_U / mu_mean ** 2))
        w = scipy.linalg.eigh(Qd[np.ix_(keep, keep)], Lg.toarray(),
                              eigvals_only=True,
                              subset_by_index=[nloc - 2, nloc - 2])
        return float(max(w[0], 0.0))
    lu = splu(Lg, permc_spec="MMD_AT_PLUS_A",
              options={"SymmetricMode": True})

    def q_grounded(vg):
        v = np.zeros(nloc)
        v[keep] = vg
        return qmul(v)[keep]

    n = nloc - 1
    # a fixed start vector keeps repeated runs bit-identical
    v0 = np.random.default_rng(12345).standard_normal(n)
    try:
        w = eigsh(LinearOperator((n, n), matvec=q_grounded), k=1, M=Lg,
                  Minv=LinearOperator((n, n), matvec=lu.solve), which="LA",
                  v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise CapacityError(f"Lanczos solve for the Poincare constant on "
                            f"{n + 1} vertices did not converge") from exc
    return float(max(w[0], 0.0))


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


def scale_invariant_poincare_scan(cone, delta: float = 0.5,
                                  n_samples: int = 20, r_bounds=(0.5, 1.5),
                                  seed: int = 0,
                                  epsilon: float = 0.5) -> PoincareScan:
    """Sample unclipped balls and record Lambda(B(x, delta r), B(x, r))/r^2."""
    from .cones import classify_ball
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    lo, hi = r_bounds
    records = []
    tries = 0
    while len(records) < n_samples and tries < 50 * n_samples:
        tries += 1
        r = float(rng.uniform(lo, hi))
        v = int(rng.integers(0, cone.n_vertices))
        if r > cone.boundary_distance(v):
            continue
        d = cone.distances_from(v)
        inner = np.flatnonzero(d <= delta * r)
        outer = np.flatnonzero(d <= r)
        if len(inner) < 2:
            continue
        val = poincare_constant(cone, inner, outer) / r ** 2
        records.append(PoincareRecord(v, r, val,
                                      classify_ball(cone, v, r,
                                                    epsilon=epsilon)))
    worst = max(records, key=lambda rec: rec.value) if records else None
    return PoincareScan(records, worst.value if worst else math.nan, worst)


def covering_cell_constant(cov, net) -> float:
    """Measured per-cell constant S_c of a covering whose atoms are network
    vertices: the largest of Lambda(U_i, U*_i) and of the variant on U*_i
    with the mean taken over U_i, tested against the energy on U#_i."""
    worst = 0.0
    for c in cov.cells:
        worst = max(worst, poincare_constant(net, c.U, c.Ustar))
        worst = max(worst, poincare_constant(net, c.Ustar, c.Usharp,
                                             mean_set=c.U))
    return worst


# ---------------------------------------------------------------------------
# indicial roots


@dataclass(frozen=True)
class IndicialSpectrum:
    m: int
    link_eigenvalues: tuple
    mu_pairs: tuple          # (mu_minus, mu_plus) per eigenvalue
    exceptional_weights: tuple
    negated_weights: tuple   # the same set in the opposite sign convention
    fredholm_interval: Optional[tuple]


def indicial_spectrum(m: int, link_eigenvalues) -> IndicialSpectrum:
    """Exceptional weights of the Laplacian on a Calabi-Yau cone of complex
    dimension m: {0, 2m-2} together with the roots mu of

        mu^2 - (2m-2) mu - lambda_j = 0

    for each link eigenvalue lambda_j >= 0.  The roots satisfy
    mu+ + mu- = 2m-2 and mu+ mu- = -lambda_j exactly.  When the first nonzero
    eigenvalue satisfies lambda_1 >= 2m-1 (Lichnerowicz), the interval
    (-mu_1^+, 2-2m) is free of exceptional weights of decaying type and is
    reported; mu_1^+ = 2m-1 iff lambda_1 = 2m-1.
    """
    if m < 2:
        raise DomainError("complex dimension m must be >= 2")
    evs = sorted(float(x) for x in link_eigenvalues)
    if any(x < 0 for x in evs):
        raise DomainError("link eigenvalues must be nonnegative")
    pairs = []
    weights = {0.0, 2.0 * m - 2.0}
    for lam in evs:
        disc = math.sqrt((2 * m - 2) ** 2 + 4 * lam)
        mu_plus = ((2 * m - 2) + disc) / 2.0
        mu_minus = ((2 * m - 2) - disc) / 2.0
        pairs.append((mu_minus, mu_plus))
        weights.update((mu_minus, mu_plus))
    fredholm = None
    positive = [lam for lam in evs if lam > 1e-12]
    if positive and positive[0] >= 2 * m - 1 - 1e-12:
        disc = math.sqrt((2 * m - 2) ** 2 + 4 * positive[0])
        mu1p = ((2 * m - 2) + disc) / 2.0
        fredholm = (-mu1p, 2.0 - 2.0 * m)
    sw = tuple(sorted(weights))
    return IndicialSpectrum(m, tuple(evs), tuple(pairs), sw,
                            tuple(sorted(-w for w in sw)), fredholm)
