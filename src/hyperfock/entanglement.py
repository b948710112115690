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
from scipy.special import gammaln, logsumexp

from .fockspace import FockState
from .states import HypergeometricParams, _log_pnd_hypergeometric, pahs_norm_constant

_LN2 = math.log(2.0)
_I_POW = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Pure two-mode state; amplitudes[j, l] multiplies |j, l>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
            raise ValueError("two-mode amplitudes must be a square matrix")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-12:
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
    out = np.zeros((d, d), dtype=complex)
    log_fact = gammaln(np.arange(d) + 1.0)
    for n in range(d):
        c = state.amplitudes[n]
        if c == 0:
            continue
        j = np.arange(n + 1)
        log_coeff = 0.5 * (log_fact[n] - log_fact[j] - log_fact[n - j] - n * _LN2)
        phases = np.array([_I_POW[(n - jj) % 4] for jj in j])
        out[j, n - j] += c * phases * np.exp(log_coeff)
    return TwoModeState(out)


def reduced_purity(t: TwoModeState, trace_out: str = "A") -> float:
    """Tr(rho^2) of the single-mode state left after tracing out one mode.

    For the balanced splitter both choices agree; the default traces out
    the first (transmitted) mode.
    """
    a = t.amplitudes
    if trace_out == "A":
        gram = a.conj().T @ a
    elif trace_out == "B":
        gram = a @ a.conj().T
    else:
        raise ValueError(f"trace_out must be 'A' or 'B', got {trace_out!r}")
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
    distribution p_i, and N the photon-added normalization. Every factor
    is combined in log space, where -inf marks an exactly zero term: a
    vanishing p_i, s outside [0, M], or a factorial of a negative integer
    (log-gamma is +inf at its poles). One pass per n covers the whole
    (m, r, k1) block, so the cost is O(M^4) time and O(M^3) memory. The
    sum shares p_i and N with the state constructors, which tests certify
    on their own, and nothing with the dense splitter path it checks.
    """
    M, k = p.M, p.k
    i = np.arange(M + 1)
    log_a = 0.5 * (_log_pnd_hypergeometric(p) - gammaln(i + 1)) + gammaln(i + k + 1)
    m, r = i[:, None, None], i[None, :, None]
    k1 = np.arange(M + k + 1)
    log_block = (
        log_a[m]
        + log_a[r]
        - r * _LN2
        - gammaln(k1 + 1)
        - gammaln(m + k - k1 + 1)
        - gammaln(r - m + k1 + 1)
    )
    log_sums = []
    for n in range(M + 1):
        s = n - m + r
        log_s = np.where((s >= 0) & (s <= M), log_a[np.clip(s, 0, M)], -math.inf)
        log_n = log_a[n] - (n + 2 * k) * _LN2 - gammaln(n + k - k1 + 1)
        log_sums.append(logsumexp(log_n + log_block + log_s))
    return float(np.exp(logsumexp(log_sums)) * pahs_norm_constant(p) ** 4)
