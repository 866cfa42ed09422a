"""Weighted homogeneous hypersurface singularities and the Brieskorn-Pham
family  z_0^m + ... + z_{m-1}^m + z_m^k = 0, and the indicial roots of a
Calabi-Yau cone.

Arithmetic criteria only: weighted degrees, the Calabi-Yau link condition
d < |w|, the crepant step-by-step resolution bookkeeping for the
Brieskorn-Pham chain (each blow-up drops the degree of the strict transform
by m; the discrepancy contributed at degree d is m - d), and the exceptional
weights of the cone's Laplacian from its link eigenvalues.  No numpy or
scipy is imported.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError, _count


@dataclass(frozen=True)
class WeightedPolynomial:
    """Polynomial given by its exponent vectors, with positive integer
    weights on the variables and nonnegative integer exponents (DomainError
    for floats and booleans; the checked ints are stored)."""
    weights: tuple
    monomials: tuple   # tuples of exponents, one per monomial

    def __post_init__(self):
        if not self.weights:
            raise DomainError("weights must be positive integers")
        if not self.monomials:
            raise DomainError("polynomial must have at least one monomial")
        # frozen: the checked ints replace the given values
        object.__setattr__(self, "weights", tuple(
            _count(w, 1, "a weight") for w in self.weights))
        object.__setattr__(self, "monomials", tuple(
            tuple(_count(e, 0, "an exponent") for e in mono)
            for mono in self.monomials))
        for mono in self.monomials:
            if len(mono) != len(self.weights):
                raise DomainError(f"monomial {mono} has wrong arity")


def weighted_degree(poly: WeightedPolynomial) -> int:
    """Common weighted degree; raises if the polynomial is not homogeneous."""
    degs = {sum(w * e for w, e in zip(poly.weights, mono))
            for mono in poly.monomials}
    if len(degs) != 1:
        raise DomainError(f"not weighted homogeneous: degrees {sorted(degs)}")
    return int(degs.pop())


def cy_link_condition(poly: WeightedPolynomial) -> bool:
    """d < w_0 + ... + w_n: the link of the singularity carries a
    Sasaki-Einstein-compatible Calabi-Yau cone structure candidate."""
    return weighted_degree(poly) < sum(poly.weights)


def blowup_discrepancy(m: int, degree: int) -> int:
    """Discrepancy m - degree contributed by one blow-up of C^m at a point
    through which the strict transform has the given degree."""
    return _count(m, 2, "m") - _count(degree, 0, "degree")


@dataclass(frozen=True)
class BPRecord:
    m: int
    k: int
    se_ok: bool         # k > m (m - 1): obstruction to a Sasaki-Einstein cone
    resolvable: bool    # k mod m in {0, 1}: crepant chain terminates cleanly
    blowup_count: int   # floor(k / m)
    degrees: tuple      # degree of the strict transform before each blow-up


def bp_crepant_chain(m: int, k: int) -> BPRecord:
    """Resolution bookkeeping for z_0^m + ... + z_{m-1}^m + z_m^k.

    Each blow-up at the singular point is crepant on the pair exactly when
    the passing degree is m, dropping k by m; the chain closes crepantly when
    the leftover degree k mod m is 0 (smooth point) or 1 (smooth divisor).
    """
    m, k = _count(m, 2, "m"), _count(k, 1, "k")
    count = k // m
    degrees = []
    d = k
    while d >= m:
        degrees.append(m)  # the singular point always has local degree m
        d -= m
    return BPRecord(m, k, k > m * (m - 1), (k % m) in (0, 1), count,
                    tuple(degrees))


def bp_table_csv(m: int, k_values: Sequence[int]) -> str:
    """Deterministic CSV table of the chain data, one row per k."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "k", "se_ok", "resolvable", "blowup_count"])
    for k in k_values:
        rec = bp_crepant_chain(m, k)
        writer.writerow([rec.m, rec.k, str(rec.se_ok).lower(),
                         str(rec.resolvable).lower(), rec.blowup_count])
    return buf.getvalue()


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
