"""Weighted homogeneous hypersurface singularities and the Brieskorn-Pham
family  z_0^m + ... + z_{m-1}^m + z_m^k = 0.

Arithmetic criteria only: weighted degrees, the Calabi-Yau link condition
d < |w|, and the crepant step-by-step resolution bookkeeping for the
Brieskorn-Pham chain (each blow-up drops the degree of the strict transform
by m; the discrepancy contributed at degree d is m - d).
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

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
