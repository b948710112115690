"""Entanglement potential via a balanced beamsplitter with a vacuum ancilla.

A classical input splits into a product state and yields zero concurrence;
any nonclassical input entangles the output modes. The reduced-state
purity is computed both from the dense two-mode vector and from a
closed-form multiple sum specific to photon-added hypergeometric inputs,
so each path can certify the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import FockState
from .special import log_factorials, logsumexp
from .states import HypergeometricParams, _log_pnd_hypergeometric, _pahs_norm

_LN2 = math.log(2.0)
_I_POW = np.array([1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j])


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Pure two-mode state; amplitudes[j, l] multiplies |j, l>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
            raise ValueError("two-mode amplitudes must be a square matrix")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"two-mode amplitudes not unit-norm: |c|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def beamsplitter_with_vacuum(state: FockState) -> TwoModeState:
    """Mix the state with vacuum on a balanced splitter.

    Convention: |n, 0> maps to 2^(-n/2) sum_j sqrt(C(n, j)) i^(n-j) |j, n-j>,
    i.e. transmission 1/sqrt(2) and reflection i/sqrt(2). The i-phases are
    local and drop out of purity, but are kept so the output matches the
    stated convention amplitude for amplitude.
    """
    d = state.dim
    j, l = np.indices((d, d))
    keep = j + l < d  # the pairs (j, l = n - j) of every level n
    j, l = j[keep], l[keep]
    n = j + l
    log_fact = log_factorials(d)
    log_coeff = 0.5 * (log_fact[n] - log_fact[j] - log_fact[l] - n * _LN2)
    out = np.zeros((d, d), dtype=complex)
    out[j, l] += state.amplitudes[n] * _I_POW[l % 4] * np.exp(log_coeff)
    return TwoModeState(out)


def reduced_purity(t: TwoModeState) -> float:
    """Tr(rho^2) of the single-mode state left after tracing out the first
    (transmitted) mode. For the balanced splitter tracing out either mode
    gives the same value."""
    a = t.amplitudes
    gram = a.conj().T @ a
    return float(np.sum(np.abs(gram) ** 2))


def concurrence_potential(state: FockState) -> float:
    """C = sqrt(2 (1 - Tr(rho_B^2))) of the splitter output.

    Zero for classical inputs (vacuum, coherent); positive otherwise.
    Tiny negative round-off under the square root is clipped.
    """
    purity = reduced_purity(beamsplitter_with_vacuum(state))
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


def purity_closed_form_pahs(p: HypergeometricParams) -> float:
    """Reduced-state purity of the splitter output for a photon-added
    hypergeometric input, from the closed-form multiple sum

        N^4 sum_{n,m,r} sum_{k1} 2^-(n+2k+r) a_n a_m a_r a_s
            / (k1! (n+k-k1)! (m+k-k1)! (r-m+k1)!),

    with s = n - m + r, a_i = (i+k)! sqrt(p_i / i!) over the bare
    distribution p_i, and N the photon-added normalization. With t = r - m,
    so that s = n + t, the sums over n and m factorise:

        N^4 4^-k sum_{k1=0}^{M+k} sum_{t=-M}^{M} 2^-t F[k1,t]^2 / (k1! (k1+t)!),
        F[k1,t] = sum_n a_n a_{n+t} 2^-n / (n+k-k1)!.

    Every factor is combined in log space, where -inf marks an exactly zero
    term: a vanishing p_i, n + t outside [0, M], or a factorial of a
    negative integer (the log-factorial table reads +inf there). F is one
    reduction over n of a (M+k+1) x (2M+1) x (M+1) block of log terms, so
    the cost is O(M^3) time and memory: the block and one temporary of the
    same size, about 17 MB each at M = 100 and 16 GB at M = 1000. This
    oracle therefore serves far smaller M than the CLI's 1001 Fock levels;
    the CLI's concurrence takes the dense path. The sum shares p_i and N
    with the state constructors, which tests certify on their own, and
    nothing with the dense splitter path it checks.
    """
    M, k = p.M, p.k
    lf = log_factorials(2 * M + k)
    n = np.arange(M + 1)
    log_pnd = _log_pnd_hypergeometric(p)
    log_a = 0.5 * (log_pnd - lf[: M + 1]) + lf[k : M + k + 1]
    t = np.arange(-M, M + 1)
    s = n + t[:, None]
    log_as = np.where((s >= 0) & (s <= M), log_a[np.clip(s, 0, M)], -math.inf)
    log_pair = log_a + log_as - n * _LN2  # [t, n]
    k1 = np.arange(M + k + 1)[:, None]
    log_inv = -lf[np.maximum(n + k - k1, -1)]  # [k1, n]
    log_f = logsumexp(log_pair + log_inv[:, None, :], axis=-1)  # [k1, t]
    log_terms = 2.0 * log_f - t * _LN2 - lf[k1] - lf[np.maximum(k1 + t, -1)]
    return float(np.exp(logsumexp(log_terms) - 2 * k * _LN2) * _pahs_norm(log_pnd, k) ** 4)
