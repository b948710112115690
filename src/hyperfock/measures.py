"""Scalar nonclassicality quantifiers, and the report of every measure.

The single-photon-source quality mu compares the single-photon weight to
the multiphoton weight of a pulse; anticlassicality is the largest
occupation probability, excluding or including the vacuum.

This module owns the report's schema: measure_columns maps measure names
to their output columns, and measure_report returns a dict keyed by
exactly those columns, so callers (the CLI's tables and JSON) take their
headers from measure_columns and add no column rules of their own.
"""

from __future__ import annotations

import math

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


# the output columns of each measure, by name: anticlassicality yields the
# m > 0 and the m >= 0 variant
_COLUMNS = {"anticlassicality": ("anticlassicality", "anticlassicality_with_vacuum"),
            "concurrence": ("concurrence",), "mean_n": ("mean_n",), "mu": ("mu",),
            "wln": ("wln",)}
ALL_MEASURES = tuple(_COLUMNS)
# the WlnResult fields that wln also yields, as wln_<field> diagnostics
_WLN_DIAGNOSTICS = ("nodes", "angular_nodes", "refinement_delta")


def measure_columns(names) -> tuple[list[str], list[str]]:
    """The output columns of the measures `names`: the sorted value
    columns, and the wln_<field> quadrature diagnostics when wln is among
    them (else none). InvalidParams for a name not in ALL_MEASURES."""
    names = tuple(names)
    bad = [n for n in names if n not in _COLUMNS]
    if bad:
        raise InvalidParams(f"unknown measures {bad}; choose from {', '.join(ALL_MEASURES)}")
    values = sorted({c for n in names for c in _COLUMNS[n]})
    diagnostics = [f"wln_{f}" for f in _WLN_DIAGNOSTICS] if "wln" in names else []
    return values, diagnostics


def measure_report(state: FockState, include=ALL_MEASURES, quad=None) -> dict:
    """Evaluate the requested quantifiers on one state.

    `include` is an iterable of measure names from ALL_MEASURES; the result
    maps exactly the columns that measure_columns(include) gives, value
    columns then diagnostics, to their values. `quad` is a
    wigner.QuadratureSpec used when "wln" is requested.
    """
    include = tuple(include)
    _, diagnostics = measure_columns(include)
    # filled in column order: the names are sorted as their columns are
    report = {}
    if "anticlassicality" in include:
        report["anticlassicality"] = anticlassicality(state, include_vacuum=False)
        report["anticlassicality_with_vacuum"] = anticlassicality(state, include_vacuum=True)
    if "concurrence" in include:
        report["concurrence"] = entanglement.concurrence_potential(state)
    if "mean_n" in include:
        report["mean_n"] = mean_photon_number(state)
    if "mu" in include:
        report["mu"] = sps_quality_mu(state)
    if "wln" in include:
        detail = wigner.wigner_log_negativity_detailed(state, quad)
        report["wln"] = detail.value
        report.update(zip(diagnostics, (getattr(detail, f) for f in _WLN_DIAGNOSTICS)))
    return report
