"""Phase-space engine: Wigner functions of finite Fock-basis states.

Two independent evaluation paths are provided on purpose. The closed form
expands W(x, p) over Fock-index pairs (n, n') with generalized-Laguerre
kernels; the oracle integrates the defining transform of the position
wavefunction numerically. They share no code beyond the state itself, so
their pointwise agreement is a meaningful correctness check.

One kernel, _laguerre_sum, evaluates every Laguerre sum of the closed form:
grid and point values, and the radial modes g_a of the separable polar form
W(r, t) = exp(-r^2)/pi * Re sum_a g_a(r) e^{-iat} that the log-negativity
quadrature uses.

Units are dimensionless oscillator quadratures (hbar = 1), in which the
vacuum Wigner function peaks at 1/pi.

All evaluation is node-parallel in principle: inputs are immutable, node
results are independent, and sums are accumulated in a fixed index order so
results do not depend on evaluation scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy import linspace
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from .errors import InvalidParams, QuadratureNotConverged
from .fockspace import FockState, mean_photon_number

_LN2 = math.log(2.0)

# direct-integral (oracle) refinement schedule
_ORACLE_START_NODES = 250
_ORACLE_MAX_NODES = 4000
_ORACLE_ACCEPT = 1e-9
_ORACLE_FAIL = 1e-7

# log-negativity refinement: node doublings allowed before giving up
_WLN_MAX_DOUBLINGS = 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls phase-space truncation and quadrature resolution.

    cutoff -- radius R of the integration disk (and half-width of the
      oracle's position window); None derives it from the highest occupied
      Fock level n_top as sqrt(2 n_top + 1) + 5, beyond which the Gaussian
      envelope makes the tail contribution negligible. An explicit cutoff
      must still satisfy cutoff >= sqrt(2 <n>) + 5.
    nodes -- radial Gauss-Legendre nodes; angular_nodes -- uniform nodes
      around the circle. The negativity integral is evaluated at this
      resolution and again with both counts doubled, up to
      _WLN_MAX_DOUBLINGS times, until two successive values agree.
    wln_tolerance -- maximum allowed change of the log-negativity under
      one node doubling; a result that still moves more after the last
      doubling is rejected as unconverged.
    """

    cutoff: float | None = None
    nodes: int = 512
    angular_nodes: int = 256
    wln_tolerance: float = 1e-4

    def __post_init__(self):
        if self.nodes < 32 or self.angular_nodes < 32:
            raise InvalidParams(
                f"node counts must be >= 32, got {self.nodes} x {self.angular_nodes}"
            )
        if not self.wln_tolerance > 0.0:
            raise InvalidParams("wln_tolerance must be positive")

    def radius(self, state: FockState) -> float:
        if self.cutoff is None:
            occupied = np.flatnonzero(state.amplitudes != 0)
            n_top = int(occupied[-1]) if occupied.size else 0
            return math.sqrt(2.0 * n_top + 1.0) + 5.0
        floor = math.sqrt(2.0 * mean_photon_number(state)) + 5.0
        if not self.cutoff >= floor - 1e-9:  # also rejects a NaN cutoff
            raise InvalidParams(
                f"cutoff {self.cutoff} below required sqrt(2<n>)+5 = {floor:.3f}"
            )
        return float(self.cutoff)


def _pair_weights(amps: np.ndarray):
    """Yield (a, w) per Fock offset a, with the weights
    w_n = conj(c_n) c_{n+a} (-1)^(n+a) sqrt(2^a n!/(n+a)!) of the pairs
    (n, n + a) in the Wigner double sum, assembled in log space."""
    d = len(amps)
    log_fact = gammaln(np.arange(d) + 1.0)
    for a in range(d):
        n = np.arange(d - a)
        log_coeff = 0.5 * (a * _LN2 + log_fact[n] - log_fact[n + a])
        signs = 1.0 - 2.0 * ((n + a) % 2)
        yield a, np.conj(amps[: d - a]) * amps[a:] * signs * np.exp(log_coeff)


def _laguerre_sum(w: np.ndarray, a: int, z: np.ndarray) -> np.ndarray:
    """sum_n w_n L_n^a(z) over an array z, generating the generalized
    Laguerre values by the three-term upward recurrence in n."""
    acc = w[0] * np.ones(z.shape, dtype=np.result_type(w, z))  # L_0^a = 1
    l_prev, l_curr = 0.0, np.ones(z.shape)  # L_{-1}^a = 0, L_0^a = 1
    for n in range(1, len(w)):
        l_prev, l_curr = (
            l_curr,
            ((2.0 * n - 1.0 + a - z) * l_curr - (n - 1.0 + a) * l_prev) / n,
        )
        acc += w[n] * l_curr
    return acc


def _wigner_array(amps: np.ndarray, x, p) -> np.ndarray:
    """W(x, p) for an amplitude vector, broadcasting over arrays x and p.

    The double Fock sum is folded onto ordered pairs n <= n' = n + a: the
    kernel is Hermitian under index swap, so each off-diagonal pair
    contributes twice the real part of one term, carrying (ip - x)^a.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = x * x + p * p
    z = 2.0 * r2
    out = np.zeros(z.shape)
    zstep = 1j * p - x
    zpow = np.ones(z.shape, dtype=complex)
    for a, w in _pair_weights(amps):
        acc = _laguerre_sum(w, a, z)
        out += acc.real if a == 0 else 2.0 * (acc * zpow).real
        zpow = zpow * zstep
    return out * (np.exp(-r2) / math.pi)


def _wigner_polar(amps: np.ndarray, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """W(r_i cos t_j, r_i sin t_j) as values[i, j]. With ip - x = -r e^{-it}
    the expansion separates, W = exp(-r^2)/pi * Re sum_a g_a(r) e^{-iat}:
    the radial modes g_a need the radial nodes only, and the angle enters
    through one matrix product."""
    z = 2.0 * r * r
    modes = np.empty((len(r), len(amps)), dtype=complex)
    for a, w in _pair_weights(amps):
        modes[:, a] = _laguerre_sum(w, a, z) * (2.0 * (-r) ** a if a else 1.0)
    phases = np.exp(-1j * np.outer(np.arange(len(amps)), theta))
    return (modes @ phases).real * (np.exp(-r * r) / math.pi)[:, None]


def wigner_point(state: FockState, x: float, p: float) -> float:
    """Closed-form W(x, p) at a single phase-space point."""
    return float(_wigner_array(state.amplitudes, np.float64(x), np.float64(p)))


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """W sampled on a rectangular grid; values[i, j] = W(x_i, p_j)."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int
    values: np.ndarray

    @property
    def x_nodes(self) -> np.ndarray:
        return linspace(self.x_min, self.x_max, self.nx)

    @property
    def p_nodes(self) -> np.ndarray:
        return linspace(self.p_min, self.p_max, self.np)

    def integral(self) -> float:
        """Trapezoid estimate of the grid integral (should be ~1 when the
        grid covers the state's support)."""
        inner = np.trapezoid(self.values, self.p_nodes, axis=1)
        return float(np.trapezoid(inner, self.x_nodes))

    def to_csv_text(self) -> str:
        xs = self.x_nodes
        ps = self.p_nodes
        lines = ["x,p,W"]
        for i in range(self.nx):
            for j in range(self.np):
                lines.append(f"{xs[i]:.17g},{ps[j]:.17g},{self.values[i, j]:.17g}")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        import json

        header = {
            "x_min": self.x_min,
            "x_max": self.x_max,
            "p_min": self.p_min,
            "p_max": self.p_max,
            "nx": self.nx,
            "np": self.np,
            "order": "x-major",
            "values": [float(v) for v in self.values.ravel()],
        }
        return json.dumps(header)


def wigner_grid(
    state: FockState,
    x_min: float = -4.0,
    x_max: float = 4.0,
    p_min: float = -4.0,
    p_max: float = 4.0,
    nx: int = 101,
    np: int = 101,
) -> WignerGrid:
    """Evaluate the closed-form Wigner function on a rectangular grid."""
    if nx < 2 or np < 2:
        raise InvalidParams("grid needs at least 2 nodes per axis")
    xs = linspace(x_min, x_max, nx)
    ps = linspace(p_min, p_max, np)
    values = _wigner_array(state.amplitudes, xs[:, None], ps[None, :])
    values.setflags(write=False)
    return WignerGrid(
        x_min=float(x_min),
        x_max=float(x_max),
        p_min=float(p_min),
        p_max=float(p_max),
        nx=int(nx),
        np=int(np),
        values=values,
    )


@lru_cache(maxsize=32)
def _leggauss_cached(n: int):
    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _leggauss_scaled(n: int, lo: float, hi: float):
    nodes, weights = _leggauss_cached(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * nodes, half * weights


def _position_wavefunction(amps: np.ndarray, u) -> np.ndarray:
    """psi(u) = sum_n c_n phi_n(u), with phi_n the normalized oscillator
    eigenfunctions generated by the stable normalized recurrence
    phi_n = u sqrt(2/n) phi_{n-1} - sqrt((n-1)/n) phi_{n-2}."""
    u = np.asarray(u, dtype=float)
    phi_prev = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    acc = amps[0] * phi_prev
    if len(amps) == 1:
        return acc
    phi = math.sqrt(2.0) * u * phi_prev
    acc = acc + amps[1] * phi
    for n in range(2, len(amps)):
        phi, phi_prev = (
            math.sqrt(2.0 / n) * u * phi - math.sqrt((n - 1.0) / n) * phi_prev,
            phi,
        )
        acc = acc + amps[n] * phi
    return acc


def _oracle_integral(
    amps: np.ndarray, x: float, p: float, y_cutoff: float, nodes: int
) -> complex:
    """One fixed-resolution evaluation of the defining Wigner transform
    (1/pi) * integral over y of conj(psi(x+y)) psi(x-y) exp(2ipy)."""
    y, w = _leggauss_scaled(nodes, -y_cutoff, y_cutoff)
    vals = (
        np.conj(_position_wavefunction(amps, x + y))
        * _position_wavefunction(amps, x - y)
        * np.exp(2j * p * y)
    )
    return complex(np.dot(w, vals)) / math.pi


def wigner_oracle_point(
    state: FockState, x: float, p: float, quad: QuadratureSpec | None = None
) -> float:
    """W(x, p) by direct numerical integration of the position-space
    transform. Independent of the closed form; intended for validation at
    desk scale (dim up to a few tens).

    Node counts are doubled until successive values agree to 1e-9;
    QuadratureNotConverged is raised if they still differ by more than
    1e-7 at the largest resolution.
    """
    quad = quad if quad is not None else QuadratureSpec()
    y_cutoff = quad.radius(state) + abs(x)
    amps = state.amplitudes
    nodes = _ORACLE_START_NODES
    prev = _oracle_integral(amps, x, p, y_cutoff, nodes)
    while True:
        nodes *= 2
        curr = _oracle_integral(amps, x, p, y_cutoff, nodes)
        delta = abs(curr - prev)
        if delta <= _ORACLE_ACCEPT:
            return float(curr.real)
        if nodes >= _ORACLE_MAX_NODES:
            if delta > _ORACLE_FAIL:
                raise QuadratureNotConverged(
                    f"direct Wigner integral at ({x}, {p}) moved by {delta:.3e} "
                    f"between {nodes // 2} and {nodes} nodes"
                )
            return float(curr.real)
        prev = curr


class WlnResult(NamedTuple):
    value: float
    nodes: int
    angular_nodes: int
    refinement_delta: float
    abs_integral: float
    wigner_integral: float


def _radial_panel_edges(amps: np.ndarray, radius: float) -> np.ndarray:
    """Radial panel boundaries for the disk quadrature: the zeros of the
    angular-mean Wigner profile, bisected to high precision.

    Up to the positive factor exp(-r^2)/pi that profile is the a = 0 mode,
    sum_n p_n (-1)^n L_n(2 r^2): the off-diagonal modes integrate to zero
    around the circle. For radially symmetric states its zeros are exactly
    the kink circles of |W|, so panelized quadrature sees only smooth
    integrands; for other states they still track the near-circular ring
    structure. All sign changes on a fine probe are bisected together.
    """
    w = np.abs(amps) ** 2 * (1.0 - 2.0 * (np.arange(len(amps)) % 2))
    probe = np.linspace(0.0, radius, 4097)
    g = _laguerre_sum(w, 0, 2.0 * probe * probe)
    idx = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    lo, hi, glo = probe[idx], probe[idx + 1], g[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        gmid = _laguerre_sum(w, 0, 2.0 * mid * mid)
        same, zero = (glo < 0) == (gmid < 0), gmid == 0.0  # a zero stops there
        lo, glo = np.where(same | zero, mid, lo), np.where(same, gmid, glo)
        hi = np.where(same & ~zero, hi, mid)
    roots = 0.5 * (lo + hi)
    roots = roots[(roots > 1e-6) & (roots < radius - 1e-6)]
    return np.concatenate([[0.0], roots, [radius]])


def _phase_space_integrals(
    amps: np.ndarray, edges: np.ndarray, nodes: int, angular: int
):
    """Integrals of |W| and W over the disk of radius edges[-1].

    Tensor-product rule in polar coordinates: composite Gauss-Legendre in
    r against the r dr measure, with panels split at the given edges, the
    zero rings of the angular-mean profile; uniform midpoint around the
    circle, which integrates the finite angular Fourier content of W
    exactly. Keeping the kinks of |W| on (or near) panel boundaries
    restores fast radial convergence that a Cartesian grid, whose every
    row and column crosses the rings, cannot achieve.
    """
    widths = np.diff(edges)
    r_parts, w_parts = [], []
    for lo, width in zip(edges[:-1], widths):
        q = max(12, int(round(nodes * width / edges[-1])))
        rp, wp = _leggauss_scaled(q, lo, lo + width)
        r_parts.append(rp)
        w_parts.append(wp)
    r = np.concatenate(r_parts)
    wr = np.concatenate(w_parts)
    theta = 2.0 * math.pi * (np.arange(angular) + 0.5) / angular
    values = _wigner_polar(amps, r, theta)
    wt = (wr * r)[:, None] * (2.0 * math.pi / angular)
    return float((wt * np.abs(values)).sum()), float((wt * values).sum())


def wigner_log_negativity_detailed(
    state: FockState, quad: QuadratureSpec | None = None
) -> WlnResult:
    """log of the integrated absolute Wigner function, with convergence
    metadata.

    Natural logarithm throughout. The integral is evaluated at the
    requested resolution, then with both node counts doubled, up to
    _WLN_MAX_DOUBLINGS times, until two successive values differ by at
    most quad.wln_tolerance. The reported value, node counts and
    refinement_delta are those of the last pass. A NaN or infinite value
    never passes: it is rejected at once, since it comes from overflow that
    finer nodes cannot repair. wigner_integral carries the signed integral
    of W on the same grid, a ~1 sanity diagnostic.
    """
    quad = quad if quad is not None else QuadratureSpec()
    amps = state.amplitudes
    edges = _radial_panel_edges(amps, quad.radius(state))
    nodes, angular = quad.nodes, quad.angular_nodes
    value = math.log(_phase_space_integrals(amps, edges, nodes, angular)[0])
    for _ in range(_WLN_MAX_DOUBLINGS):
        if not math.isfinite(value):  # overflow; more nodes cannot repair it
            raise QuadratureNotConverged(
                f"log-negativity is {value} at {nodes} x {angular} nodes"
            )
        nodes, angular, coarse = 2 * nodes, 2 * angular, value
        abs_int, total = _phase_space_integrals(amps, edges, nodes, angular)
        value = math.log(abs_int)
        delta = abs(value - coarse)
        if delta <= quad.wln_tolerance:
            return WlnResult(
                value=value,
                nodes=nodes,
                angular_nodes=angular,
                refinement_delta=delta,
                abs_integral=abs_int,
                wigner_integral=total,
            )
    raise QuadratureNotConverged(
        f"log-negativity moved by {delta:.3e} (> {quad.wln_tolerance}) when "
        f"doubling {nodes // 2} x {angular // 2} nodes"
    )


def wigner_log_negativity(state: FockState, quad: QuadratureSpec | None = None) -> float:
    """Convenience wrapper returning only the converged value."""
    return wigner_log_negativity_detailed(state, quad).value
