"""Finite Fock-basis pure states and elementary photon-number operations.

Everything here is a pure function of immutable inputs: states carry a
read-only complex amplitude vector and every operation returns a new
:class:`FockState`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParams, ZeroState

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
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(
                f"amplitudes are not unit-norm (|c|^2 = {norm_sq!r}); "
                "use normalize() to construct a state from raw amplitudes"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def probabilities(self) -> np.ndarray:
        """Photon number distribution p_n = |c_n|^2."""
        return np.abs(self.amplitudes) ** 2


def normalize(amplitudes) -> FockState:
    """Scale raw amplitudes to unit norm.

    Raises ZeroState when the vector is numerically zero (norm < 1e-300).
    """
    arr = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(arr)
    if not norm > _ZERO_NORM:
        raise ZeroState("cannot normalize a numerically zero amplitude vector")
    return FockState(arr / norm)


def add_photons(state: FockState, k: int) -> FockState:
    """Apply the creation operator k times and renormalize.

    The amplitude at n is sent to index n+k with weight sqrt((n+k)!/n!);
    the weights are evaluated as log-gamma differences so large n+k do not
    overflow. Indices below k come out exactly zero.
    """
    if k < 0 or int(k) != k:
        raise InvalidParams(f"photons added must be a nonnegative integer, got {k}")
    k = int(k)
    if k == 0:
        return state
    n = np.arange(state.dim)
    log_w = 0.5 * (gammaln(n + k + 1) - gammaln(n + 1))
    weights = np.exp(log_w - log_w.max())
    out = np.zeros(state.dim + k, dtype=complex)
    out[k:] = state.amplitudes * weights
    return normalize(out)


def photon_number_distribution(state: FockState) -> np.ndarray:
    """p_m = |c_m|^2 for m = 0..D-1."""
    return state.probabilities


def mean_photon_number(state: FockState) -> float:
    """<n> = sum_m m p_m."""
    p = state.probabilities
    return float(np.dot(np.arange(state.dim), p))


def overlap(a: FockState, b: FockState) -> complex:
    """Inner product <a|b>; the shorter vector is zero-padded."""
    d = max(a.dim, b.dim)
    av = np.zeros(d, dtype=complex)
    bv = np.zeros(d, dtype=complex)
    av[: a.dim] = a.amplitudes
    bv[: b.dim] = b.amplitudes
    return complex(np.vdot(av, bv))
