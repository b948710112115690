"""Finite Fock-basis pure states and elementary photon-number operations.

Everything here is a pure function of immutable inputs: states carry a
read-only complex amplitude vector and every operation returns a new
:class:`FockState`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ZeroState
from .special import log_factorials

_NORM_TOL = 1e-12
_ZERO_NORM = 1e-300


@dataclass(frozen=True, eq=False)
class FockState:
    """Pure state over the truncated number basis |0>, ..., |D-1>.

    amplitudes -- complex vector c_0..c_{D-1} with sum |c_n|^2 = 1.
    Construct unnormalized vectors through :func:`normalize`.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-d vector")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # a NaN norm fails too
            raise ValueError(
                f"amplitudes are not unit-norm (|c|^2 = {norm_sq!r}); "
                "use normalize() to construct a state from raw amplitudes"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def normalize(amplitudes) -> FockState:
    """Scale raw amplitudes to unit norm.

    Raises InvalidParams when an amplitude is NaN or infinite, and ZeroState
    when the vector is numerically zero (norm < 1e-300).
    """
    arr = np.asarray(amplitudes, dtype=complex)
    if not np.isfinite(arr).all():
        raise InvalidParams("cannot normalize non-finite amplitudes")
    norm = np.linalg.norm(arr)
    if not norm > _ZERO_NORM:
        raise ZeroState("cannot normalize a numerically zero amplitude vector")
    return FockState(arr / norm)


def add_photons(state: FockState, k: int) -> FockState:
    """Apply the creation operator k times and renormalize.

    The amplitude at n is sent to index n+k with weight sqrt((n+k)!/n!);
    the weights are evaluated as log-factorial differences so large n+k do not
    overflow. Indices below k come out exactly zero.
    """
    if k < 0 or int(k) != k:
        raise InvalidParams(f"photons added must be a nonnegative integer, got {k}")
    k = int(k)
    if k == 0:
        return state
    d = state.dim
    lf = log_factorials(d + k)
    log_w = 0.5 * (lf[k : d + k] - lf[:d])
    weights = np.exp(log_w - log_w.max())
    out = np.zeros(d + k, dtype=complex)
    out[k:] = state.amplitudes * weights
    return normalize(out)


def photon_number_distribution(state: FockState) -> np.ndarray:
    """p_m = |c_m|^2 for m = 0..D-1."""
    return np.abs(state.amplitudes) ** 2


def mean_photon_number(state: FockState) -> float:
    """<n> = sum_m m p_m."""
    return float(np.dot(np.arange(state.dim), photon_number_distribution(state)))


def overlap(a: FockState, b: FockState) -> complex:
    """Inner product <a|b>; the shorter vector is zero-padded."""
    d = max(a.dim, b.dim)
    av = np.zeros(d, dtype=complex)
    bv = np.zeros(d, dtype=complex)
    av[: a.dim] = a.amplitudes
    bv[: b.dim] = b.amplitudes
    return complex(np.vdot(av, bv))
