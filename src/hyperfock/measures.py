"""Scalar nonclassicality quantifiers built on photon statistics.

The single-photon-source quality mu compares the single-photon weight to
the multiphoton weight of a pulse; anticlassicality is the largest
occupation probability, excluding or including the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import entanglement, wigner
from .errors import InvalidParams
from .fockspace import FockState, mean_photon_number, photon_number_distribution

# below this, a probability is treated as exactly zero when classifying
# the mu = P1 / (1 - P0 - P1) pole
_MU_EPS = 1e-14

MU_UNDEFINED = float("nan")  # vacuum input: 0/0


def sps_quality_mu(state: FockState) -> float:
    """Single-photon-source quality P1 / (1 - (P0 + P1)).

    Returns inf when the pulse has no multiphoton weight but nonzero
    single-photon weight (ideal source), and NaN (MU_UNDEFINED) for the
    vacuum, where both numerator and denominator vanish.
    """
    p = photon_number_distribution(state)
    p0 = float(p[0])
    p1 = float(p[1]) if state.dim > 1 else 0.0
    denom = 1.0 - (p0 + p1)
    if denom <= _MU_EPS:
        if p1 > _MU_EPS:
            return math.inf
        return MU_UNDEFINED
    return p1 / denom


def anticlassicality(state: FockState, include_vacuum: bool = False) -> float:
    """Largest photon-number probability.

    With include_vacuum=False the maximum runs over m >= 1 only, so the
    vacuum scores 0; with include_vacuum=True the vacuum term competes too.
    """
    p = photon_number_distribution(state)
    if include_vacuum:
        return float(p.max())
    if state.dim < 2:
        return 0.0
    return float(p[1:].max())


@dataclass(frozen=True)
class MeasureReport:
    """Named scalar results for one state. Entries stay None when not
    requested; wln_detail carries the quadrature diagnostics of the wln
    value."""

    mu: float | None = None
    anticlassicality: float | None = None
    anticlassicality_with_vacuum: float | None = None
    mean_n: float | None = None
    concurrence: float | None = None
    wln: float | None = None
    wln_detail: wigner.WlnResult | None = None


ALL_MEASURES = ("anticlassicality", "concurrence", "mean_n", "mu", "wln")


def measure_report(
    state: FockState,
    include=ALL_MEASURES,
    quad=None,
) -> MeasureReport:
    """Evaluate the requested quantifiers on one state.

    `include` is an iterable of measure names from ALL_MEASURES;
    "anticlassicality" yields both the m > 0 and the m >= 0 variants.
    `quad` is a wigner.QuadratureSpec used when "wln" is requested.
    """
    include = set(include)
    unknown = include - set(ALL_MEASURES)
    if unknown:
        raise InvalidParams(f"unknown measures: {sorted(unknown)}")
    fields: dict = {}
    if "mu" in include:
        fields["mu"] = sps_quality_mu(state)
    if "anticlassicality" in include:
        fields["anticlassicality"] = anticlassicality(state, include_vacuum=False)
        fields["anticlassicality_with_vacuum"] = anticlassicality(
            state, include_vacuum=True
        )
    if "mean_n" in include:
        fields["mean_n"] = mean_photon_number(state)
    if "concurrence" in include:
        fields["concurrence"] = entanglement.concurrence_potential(state)
    if "wln" in include:
        detail = wigner.wigner_log_negativity_detailed(state, quad)
        fields["wln"] = detail.value
        fields["wln_detail"] = detail
    return MeasureReport(**fields)
