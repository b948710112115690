"""Constructors for the hypergeometric state family and its limiting states.

The family is parametrized by a population parameter L (real), a dimension
parameter M (the base state lives on M+1 levels), a probability eta, and a
photon-addition count k. Limits of the family recover the binomial state
(L -> infinity), the truncated coherent state (M -> infinity at fixed
M*eta), the Fock state |M> (eta = 1) and the vacuum (eta = 0).

All combinatorial weights are evaluated in log space and combined before a
single exponentiation per amplitude, which keeps the constructors stable
for L up to ~1e8 and M in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidParams,
    NegativeCoefficient,
    TruncationTooSmall,
)
from .fockspace import FockState, add_photons, normalize
from .special import log_factorials, logsumexp

NEGATIVE_INFINITY = float("-inf")

# factors within this band of zero make the coefficient exactly zero;
# anything more negative means the caller left the validity region
_ZERO_BAND = 1e-12


def log_binomial_real(x: float, n: int) -> float:
    """log of the generalized binomial coefficient C(x, n) for real x.

    C(x, n) = x (x-1) ... (x-n+1) / n!, evaluated as a sum of logs.
    Returns -inf when a factor of the falling factorial vanishes (the
    coefficient is exactly zero). Raises NegativeCoefficient when a factor
    is negative without an earlier zero factor, since the coefficient is
    then nonzero with indeterminate sign and no caller in this library
    should ever request it.
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"lower index must be a nonnegative integer, got {n}")
    return float(_log_binomial_prefix(x, int(n))[int(n)])


def _log_binomial_prefix(x: float, n_max: int) -> np.ndarray:
    """log C(x, n) for every n = 0..n_max, via a cumulative sum of factor logs.

    Same zero/negative-factor rules as :func:`log_binomial_real`.
    """
    out = np.full(n_max + 1, NEGATIVE_INFINITY)
    out[0] = 0.0
    if n_max == 0:
        return out
    factors = x - np.arange(n_max, dtype=float)
    zeroish = np.abs(factors) <= _ZERO_BAND
    first_zero = int(np.argmax(zeroish)) if zeroish.any() else n_max
    if (factors[:first_zero] < 0.0).any():
        j = int(np.argmax(factors[:first_zero] < 0.0))
        raise NegativeCoefficient(
            f"C({x}, n<={n_max}) has negative factor {factors[j]} at offset {j}"
        )
    logs = np.cumsum(np.log(factors[:first_zero]))
    out[1 : first_zero + 1] = logs - log_factorials(first_zero)[1 : first_zero + 1]
    # entries past a zero factor stay -inf: the falling factorial contains 0
    return out


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameters (L, M, eta, k) of a photon-added hypergeometric state.

    Validity: L finite, 0 <= eta <= 1, M >= 0, k >= 0, and
    L >= max(M/eta, M/(1-eta)) for eta strictly inside (0, 1). At the
    endpoints eta in {0, 1} that bound degenerates, and only L >= M is
    required; the vanishing coefficients are handled through -inf
    log-binomials.
    """

    L: float
    M: int
    eta: float
    k: int = 0

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 0:
            raise InvalidParams(f"M must be a nonnegative integer, got {self.M}")
        if int(self.k) != self.k or self.k < 0:
            raise InvalidParams(f"k must be a nonnegative integer, got {self.k}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "eta", float(self.eta))
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidParams(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 < self.L < math.inf:
            raise InvalidParams(f"L must be a positive finite real, got {self.L}")
        bound = min_valid_L(self.M, self.eta)
        # tiny relative slack so L = exactly the bound is accepted
        if self.L < bound * (1.0 - 1e-12):
            raise InvalidParams(
                f"L = {self.L} violates L >= max(M/eta, M/(1-eta)) = {bound} "
                f"for M = {self.M}, eta = {self.eta}"
            )


def min_valid_L(M: int, eta: float) -> float:
    """Smallest admissible L for given M and eta."""
    if M == 0:
        return 0.0
    if eta <= 0.0 or eta >= 1.0:
        return float(M)
    return M / min(eta, 1.0 - eta)


def pinned_L(M: int, eta: float, coeff: float = 2.0) -> float:
    """Default rule tying L to the smallest valid value, scaled by coeff.

    Where the lower bound degenerates to zero (M = 0) the rule falls back
    to L = coeff so that L stays positive.
    """
    if coeff < 1.0:
        raise InvalidParams(f"L coefficient must be >= 1, got {coeff}")
    return coeff * max(min_valid_L(M, eta), 1.0)


def _log_pnd_hypergeometric(p: HypergeometricParams) -> np.ndarray:
    """log p_n of the bare (k = 0) state: C(L eta, n) C(L(1-eta), M-n) / C(L, M)."""
    lb_e = _log_binomial_prefix(p.L * p.eta, p.M)
    lb_o = _log_binomial_prefix(p.L * (1.0 - p.eta), p.M)
    lb_lm = log_binomial_real(p.L, p.M)
    return lb_e + lb_o[::-1] - lb_lm


def hypergeometric(p: HypergeometricParams) -> FockState:
    """Bare hypergeometric state on M+1 levels; requires p.k == 0."""
    if p.k != 0:
        raise InvalidParams("hypergeometric() requires k = 0; use pahs() for k > 0")
    log_pnd = _log_pnd_hypergeometric(p)
    amps = np.exp(0.5 * log_pnd)
    return normalize(amps)


def pahs(p: HypergeometricParams) -> FockState:
    """Photon-added hypergeometric state: k creation operators applied to
    the bare state, then renormalized. Lives on M+k+1 levels."""
    base = hypergeometric(HypergeometricParams(p.L, p.M, p.eta, 0))
    return add_photons(base, p.k)


def pahs_norm_constant(p: HypergeometricParams) -> float:
    """Normalization constant of the photon-added state from the closed-form
    sum over the bare distribution, independent of the vector construction:

        N = [ sum_n p_n^{bare} (n+k)!/n! ]^{-1/2}
    """
    return _pahs_norm(_log_pnd_hypergeometric(p), p.k)


def _pahs_norm(log_pnd: np.ndarray, k: int) -> float:
    """N of pahs_norm_constant from the bare log p_n, n = 0..M."""
    M = len(log_pnd) - 1
    lf = log_factorials(M + k)
    log_terms = log_pnd + lf[k : M + k + 1] - lf[: M + 1]
    return float(np.exp(-0.5 * logsumexp(log_terms)))


def binomial(M: int, eta: float) -> FockState:
    """Binomial state: c_n = sqrt(C(M, n) eta^n (1-eta)^(M-n)) on M+1 levels."""
    if int(M) != M or M < 0:
        raise InvalidParams(f"M must be a nonnegative integer, got {M}")
    if not 0.0 <= eta <= 1.0:
        raise InvalidParams(f"eta must lie in [0, 1], got {eta}")
    M = int(M)
    if eta == 0.0:
        return fock(0, M + 1)
    if eta == 1.0:
        return fock(M, M + 1)
    n = np.arange(M + 1)
    lf = log_factorials(M)
    log_pnd = (
        lf[M]
        - lf[: M + 1]
        - lf[M::-1]
        + n * math.log(eta)
        + (M - n) * math.log1p(-eta)
    )
    amps = np.exp(0.5 * (log_pnd - log_pnd.max()))
    return normalize(amps)


def coherent_tail_mass(alpha: float, dim: int) -> float:
    """Probability mass of the exact coherent state beyond the truncation,
    i.e. P(N >= dim) for N ~ Poisson(alpha^2).

    A direct sum of the Poisson terms from n = dim in log space. More than
    12 alpha + 60 levels past max(dim, alpha^2), the terms have fallen by a
    factor below e^-70, so the sum stops there; by the same bound, a dim
    that many levels below alpha^2 leaves the mass 1 to double precision,
    as does any dim once alpha^2 overflows.
    """
    lam = alpha * alpha
    if math.isnan(lam):
        return math.nan
    if lam == 0.0:
        return float(dim <= 0)
    if math.isinf(lam) or dim < lam - 12.0 * alpha - 60.0:
        return 1.0
    lo, hi = max(dim, 0), int(max(dim, lam) + 12.0 * alpha + 60.0)
    log_terms = np.arange(lo, hi) * math.log(lam) - lam - log_factorials(hi)[lo:hi]
    return float(np.exp(logsumexp(log_terms)))


def coherent_truncated(alpha: float, dim: int) -> FockState:
    """Coherent state with real amplitude alpha truncated to dim levels.

    c_n is proportional to alpha^n / sqrt(n!), renormalized over the kept
    levels. Raises TruncationTooSmall when the dropped mass exceeds 1e-8;
    callers wanting tighter control should consult coherent_tail_mass().
    """
    if dim < 1 or int(dim) != dim:
        raise InvalidParams(f"dim must be a positive integer, got {dim}")
    if alpha < 0.0:
        raise InvalidParams(f"alpha must be a nonnegative real, got {alpha}")
    dim = int(dim)
    if alpha == 0.0:
        return fock(0, dim)
    tail = coherent_tail_mass(alpha, dim)
    if tail > 1e-8:
        raise TruncationTooSmall(
            f"dim = {dim} drops mass {tail:.3e} for alpha = {alpha}; increase dim"
        )
    log_amp = np.arange(dim) * math.log(alpha) - 0.5 * log_factorials(dim)[:dim]
    amps = np.exp(log_amp - log_amp.max())
    return normalize(amps)


def fock(n: int, dim: int) -> FockState:
    """Number state |n> in a dim-dimensional basis."""
    if dim < 1 or int(dim) != dim:
        raise InvalidParams(f"dim must be a positive integer, got {dim}")
    if not 0 <= n < dim:
        raise IndexOutOfRange(f"n = {n} outside [0, {dim})")
    amps = np.zeros(int(dim), dtype=complex)
    amps[int(n)] = 1.0
    return FockState(amps)
