"""Phase-space engine: Wigner functions of finite Fock-basis states.

Two independent evaluation paths are provided on purpose. The closed form
expands W(x, p) over Fock-index pairs (n, n') with generalized-Laguerre
kernels; the oracle integrates the defining transform of the position
wavefunction numerically. They share no code beyond the state itself, so
their pointwise agreement is a meaningful correctness check.

One kernel, _laguerre_sums, evaluates every Laguerre sum of the closed form.
Its single upward recurrence in n yields sum_n w[a, n] L_n^a(z) for a block
of Fock offsets a at once, from the offset-major pair weights of
_pair_weights. It gives grid and point values, the radial profile that
places the panel edges, and the radial modes g_a of the separable polar form
W(r, t) = exp(-r^2)/pi * Re sum_a g_a(r) e^{-iat} that the log-negativity
quadrature uses. There the angle enters through real products with cos(at)
and sin(at) on half the circle, since W at t and -t share them; for the
real amplitudes of every state family the sin part vanishes.

Units are dimensionless oscillator quadratures (hbar = 1), in which the
vacuum Wigner function peaks at 1/pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import InvalidParams, QuadratureNotConverged
from .fockspace import FockState, mean_photon_number

_LN2 = math.log(2.0)


# Every quadrature is a composite of one order-16 Gauss-Legendre rule,
# tabulated here as numpy's leggauss(16) gives it: the positive nodes of
# [-1, 1] with their weights (the rule is symmetric). Building rules at run
# time costs more than the Wigner sums they serve (order q takes O(q^3)
# time and O(q^2) memory), and building even this one at import would add
# resident memory to every process that imports the module, through its
# first LAPACK call.
_GL_ORDER = 16
_GL_POSITIVE = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
_GL_NODES = np.array([-x for x, _ in _GL_POSITIVE[::-1]] + [x for x, _ in _GL_POSITIVE])
_GL_WEIGHTS = np.array([w for _, w in _GL_POSITIVE[::-1] + _GL_POSITIVE])

# direct-integral (oracle) refinement schedule: 16 to 256 sub-panels
_ORACLE_START_NODES = 16 * _GL_ORDER
_ORACLE_MAX_NODES = 256 * _GL_ORDER
_ORACLE_ACCEPT = 1e-9
_ORACLE_FAIL = 1e-7

# log-negativity refinement: node doublings allowed before giving up
_WLN_MAX_DOUBLINGS = 2

# Fock offsets and radial nodes per Laguerre recurrence of the polar modes:
# its buffers then hold at most 16 x 4096 values (512 kB) each at any d,
# and a state of up to 16 levels takes all its offsets in one recurrence
_OFFSET_BLOCK = 16
_NODE_BLOCK = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls phase-space truncation and quadrature resolution.

    cutoff -- radius R of the integration disk (and half-width of the
      oracle's position window); None derives it from the highest occupied
      Fock level n_top as sqrt(2 n_top + 1) + 5, beyond which the Gaussian
      envelope makes the tail contribution negligible. An explicit cutoff
      must still satisfy cutoff >= sqrt(2 <n>) + 5.
    nodes -- radial nodes: each radial panel gets a share proportional to
      its width (at least 12), rounded up to whole sub-panels of the
      composite order-16 Gauss-Legendre rule; angular_nodes -- uniform
      nodes around the circle. Results report these requested counts. The
      negativity integral is evaluated at this resolution and again with
      both counts doubled, up to _WLN_MAX_DOUBLINGS times, until two
      successive values agree.
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


def _pair_weights(amps: np.ndarray, lo: int = 0, hi: int | None = None):
    """Weights of the Fock-index pairs (n, n + a) in the Wigner double sum,
    w_n = conj(c_n) c_{n+a} (-1)^(n+a) sqrt(2^a n!/(n+a)!), assembled in log
    space for the offsets lo <= a < hi, where hi is at most (and by
    default) d.

    Real amplitudes (every state family) give real weights, so the Laguerre
    sums run in real arithmetic.

    Offset-major and zero-padded: row a - lo holds the d - a weights of
    offset a and zeros past them, in d - lo columns, so rows shrink as a
    grows (the layout _laguerre_sums steps through). They are assembled
    _OFFSET_BLOCK rows at a time, which bounds the temporaries to that many
    rows at any d.
    """
    if not np.count_nonzero(amps.imag):  # a few times cheaper than np.any
        amps = amps.real
    d = len(amps)
    hi = d if hi is None else min(hi, d)
    w = np.zeros((hi - lo, d - lo), dtype=amps.dtype)
    log_fact = gammaln(np.arange(d) + 1.0)
    for a0 in range(lo, hi, _OFFSET_BLOCK):
        rows, cols = min(_OFFSET_BLOCK, hi - a0), d - a0
        # flat index arrays: numpy takes complex products of 1-d arrays
        # through one loop whatever their length, so each weight comes out
        # bit for bit as a row at a time gives it (2-d operands with a unit
        # axis may not)
        a, n = np.divmod(np.arange(rows * cols), cols)
        a += a0
        partner = np.minimum(n + a, d - 1)  # clamped on the padding
        log_coeff = 0.5 * (a * _LN2 + log_fact[n] - log_fact[partner])
        signs = 1.0 - 2.0 * ((n + a) % 2)
        block = np.conj(amps[n]) * amps[partner] * signs * np.exp(log_coeff)
        block[n + a >= d] = 0.0
        w[a0 - lo : a0 - lo + rows, :cols] = block.reshape(rows, cols)
    return w


def _laguerre_sums(w: np.ndarray, a: int, z: np.ndarray) -> np.ndarray:
    """Row i: sum_n w[i, n] L_n^{a+i}(z) over a 1-d array z, for the block
    of consecutive Fock offsets a, a + 1, ... that the rows of w hold.

    One three-term upward recurrence in n serves the whole block. The rows
    shrink as in _pair_weights: row i ends at column N - i (N = w.shape[1]),
    so step n updates the first N - n rows only. Every element goes through
    the operations of the one-offset step
    L_n = ((2n - 1 + a - z) L_{n-1} - (n - 1 + a) L_{n-2}) / n, in that
    order, in place in rotating buffers.
    """
    rows, cols = w.shape
    # one offset runs on 1-d buffers and 0-d coefficients: numpy's loops
    # over operands of one shape cost half its broadcasting ones on few z
    col = (rows, 1) if rows > 1 else ()
    shape = col[:1] + z.shape
    sums = w[:, 0].reshape(col) * np.ones(shape, dtype=np.result_type(w, z))
    # the exact integer coefficients 2n - 1 + a and n - 1 + a, per step n
    level = np.arange(cols, dtype=float).reshape((cols,) + len(col) * (1,))
    offsets = (a + np.arange(rows, dtype=float)).reshape(col)
    rise, fall = 2.0 * level - 1.0 + offsets, level - 1.0 + offsets
    w_at = w.T.reshape((cols,) + col)
    acc, s = sums, np.empty(shape)
    term = np.empty_like(sums) if np.iscomplexobj(sums) else s  # s is free by then
    l_prev, l_curr = np.zeros(shape), np.ones(shape)  # L_{-1}^a = 0, L_0^a = 1
    live = rows
    for n in range(1, cols):
        k = cols - n
        if k < live:  # offset a + k has no pair at level n
            live = k
            acc, s, term, l_prev, l_curr = acc[:k], s[:k], term[:k], l_prev[:k], l_curr[:k]
            rise, fall, w_at = rise[:, :k], fall[:, :k], w_at[:, :k]
        np.subtract(rise[n], z, out=s)
        s *= l_curr
        l_prev *= fall[n]
        np.subtract(s, l_prev, out=l_prev)
        l_prev /= n
        l_prev, l_curr = l_curr, l_prev
        np.multiply(w_at[n], l_curr, out=term)
        acc += term
    return sums.reshape(rows, len(z))


def _wigner_array(amps: np.ndarray, x, p) -> np.ndarray:
    """W(x, p) for an amplitude vector, broadcasting over arrays x and p.

    The double Fock sum is folded onto ordered pairs n <= n' = n + a: the
    kernel is Hermitian under index swap, so each off-diagonal pair
    contributes twice the real part of one term, carrying (ip - x)^a.
    A point takes _OFFSET_BLOCK offsets per recurrence. Array input takes
    one offset per recurrence, which holds its buffers to the size of z,
    and each Laguerre sum once per distinct z = 2 r^2, scattered back. All
    of these give the same values bit for bit.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = x * x + p * p
    z = 2.0 * r2
    if z.ndim:
        zu, inv = np.unique(z, return_inverse=True)
        inv = inv.reshape(z.shape)  # its shape differs across numpy 2.x releases
        rows = 1
    else:  # np.unique would triple the cost of a point
        zu, inv, rows = z[None], 0, _OFFSET_BLOCK
    out = np.zeros(z.shape)
    zstep = 1j * p - x
    zpow = np.ones(z.shape, dtype=complex)
    for a0 in range(0, len(amps), rows):
        sums = _laguerre_sums(_pair_weights(amps, a0, a0 + rows), a0, zu)
        for a, acc in enumerate(sums, a0):
            acc = acc[inv]
            out += acc.real if a == 0 else 2.0 * (acc * zpow).real
            zpow = zpow * zstep
    return out * (np.exp(-r2) / math.pi)


def _wigner_polar(weights: np.ndarray, r: np.ndarray, theta: np.ndarray):
    """W on polar nodes in mirror pairs: W(r_i, +-t_j) = C[i, j] +- S[i, j],
    returned as (C, S), for the state with these _pair_weights.

    With ip - x = -r e^{-it} the expansion separates,
    W = Re sum_a g_a(r) e^{-iat}, where the radial modes g_a (the envelope
    exp(-r^2)/pi included) need the radial nodes only. Each recurrence
    covers up to _OFFSET_BLOCK offsets on up to _NODE_BLOCK nodes; the
    factors (-r)^a exp(-r^2)/pi are running products over a, carried from
    one block of offsets to the next. The angle enters through two real
    matrix products, C = Re g . cos(at) and S = Im g . sin(at). Real
    weights make every g_a real; then the Laguerre sums run in real
    arithmetic and S is None.
    """
    d = len(weights)
    modes = np.empty((len(r), d), dtype=weights.dtype)
    for lo in range(0, len(r), _NODE_BLOCK):
        rb = r[lo : lo + _NODE_BLOCK]
        z = 2.0 * rb * rb
        rpow = np.exp(-rb * rb) / math.pi  # (-r)^a0 exp(-r^2)/pi
        for a0 in range(0, d, _OFFSET_BLOCK):
            rows = min(_OFFSET_BLOCK, d - a0)
            envelope = np.empty((rows + 1, len(rb)))
            envelope[0], envelope[1:] = rpow, -rb
            np.multiply.accumulate(envelope, axis=0, out=envelope)
            rpow = envelope[rows]
            envelope[int(a0 == 0) : rows] *= 2.0  # the folded pairs a > 0
            block = _laguerre_sums(weights[a0 : a0 + rows, : d - a0], a0, z)
            block *= envelope[:rows]
            modes[lo : lo + len(rb), a0 : a0 + rows] = block.T
    at = np.outer(np.arange(d), theta)
    c = modes.real @ np.cos(at)
    return c, (modes.imag @ np.sin(at) if np.iscomplexobj(modes) else None)


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
    n_p: int
    values: np.ndarray

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def p_nodes(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    def integral(self) -> float:
        """Trapezoid estimate of the grid integral (should be ~1 when the
        grid covers the state's support)."""
        inner = np.trapezoid(self.values, self.p_nodes, axis=1)
        return float(np.trapezoid(inner, self.x_nodes))

    def csv_rows(self):
        """The CSV text in pieces: the "x,p,W" header, then the lines of one
        x node at a time, one line per node with every number as %.17g.
        Each x row is formatted through one template that holds its
        labels."""
        ps = ["%.17g" % p for p in self.p_nodes.tolist()]
        yield "x,p,W\n"
        for x, row in zip(self.x_nodes.tolist(), self.values.tolist()):
            pre = "%.17g," % x
            yield "".join(pre + p + ",%.17g\n" for p in ps) % tuple(row)

    def to_csv_text(self) -> str:
        """The whole CSV text of csv_rows as one string."""
        return "".join(self.csv_rows())


def wigner_grid(
    state: FockState,
    x_min: float = -4.0,
    x_max: float = 4.0,
    p_min: float = -4.0,
    p_max: float = 4.0,
    nx: int = 101,
    n_p: int = 101,
) -> WignerGrid:
    """Evaluate the closed-form Wigner function on a rectangular grid."""
    if nx < 2 or n_p < 2:
        raise InvalidParams("grid needs at least 2 nodes per axis")
    xs = np.linspace(x_min, x_max, nx)
    ps = np.linspace(p_min, p_max, n_p)
    values = _wigner_array(state.amplitudes, xs[:, None], ps[None, :])
    values.setflags(write=False)
    return WignerGrid(
        x_min=float(x_min),
        x_max=float(x_max),
        p_min=float(p_min),
        p_max=float(p_max),
        nx=int(nx),
        n_p=int(n_p),
        values=values,
    )


# 256 entries hold every sub-panel count the default WLN passes (at most
# 128) and the oracle (16 to 256 by doubling) ask for, about 2 MB in all
@lru_cache(maxsize=256)
def _unit_composite_rule(panels: int):
    """Composite rule on [0, 1]: `panels` equal sub-panels, each carrying
    the order-_GL_ORDER Gauss-Legendre rule."""
    nodes = (np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1.0)) / panels
    nodes = nodes.ravel()
    weights = np.tile(_GL_WEIGHTS * (0.5 / panels), panels)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _leggauss_scaled(panels: int, lo: float, hi: float):
    """Nodes and weights on [lo, hi] of the composite rule with `panels`
    sub-panels: exact for polynomials of degree < 2 * _GL_ORDER."""
    nodes, weights = _unit_composite_rule(panels)
    width = hi - lo
    return lo + width * nodes, width * weights


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
    (1/pi) * integral over y of conj(psi(x+y)) psi(x-y) exp(2ipy), with
    `nodes` rounded up to an even number of sub-panels of the composite
    rule. The rule on [0, y_cutoff] is mirrored onto [-y_cutoff, 0], so the
    nodes are exactly antisymmetric and psi(x - y) is psi(x + y) reversed."""
    y, w = _leggauss_scaled(-(-nodes // (2 * _GL_ORDER)), 0.0, y_cutoff)
    y = np.concatenate([-y[::-1], y])
    w = np.concatenate([w[::-1], w])
    psi = _position_wavefunction(amps, x + y)
    vals = np.conj(psi) * psi[::-1] * np.exp(2j * p * y)
    return complex(np.dot(w, vals)) / math.pi


def wigner_oracle_point(
    state: FockState, x: float, p: float, quad: QuadratureSpec | None = None
) -> float:
    """W(x, p) by direct numerical integration of the position-space
    transform. Independent of the closed form; intended for validation at
    desk scale (dim up to a few tens).

    The sub-panel count of the composite rule is doubled, from 16 up to
    256, until successive values agree to 1e-9; QuadratureNotConverged is
    raised if they still differ by more than 1e-7 at the largest
    resolution.
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
    angular-mean Wigner profile, each narrowed to a bracket of at most
    4 eps * radius.

    Up to the positive factor exp(-r^2)/pi that profile is the a = 0 mode,
    g(r) = sum_n p_n (-1)^n L_n(2 r^2): the off-diagonal modes integrate to
    zero around the circle. For radially symmetric states its zeros are
    exactly the kink circles of |W|, so panelized quadrature sees only
    smooth integrands; for other states they still track the near-circular
    ring structure.

    Each sign change on a fine probe is a bracket, unless g lies below its
    round-off floor at both ends: each of the d terms is at most
    |w_n| e^{r^2} (as |L_n(z)| <= e^{z/2}), so sign changes within
    d * eps * sum |w_n| * e^{r^2} of zero are noise, and |W| has no kink
    there worth a panel. The brackets are narrowed together by regula falsi
    with the Illinois step (Dowell & Jarratt, BIT 11, 168 (1971)): an end
    kept twice in a row has its value halved, so both ends close in
    superlinearly.
    """
    w = np.abs(amps) ** 2 * (1.0 - 2.0 * (np.arange(len(amps)) % 2))
    probe = np.linspace(0.0, radius, 4097)
    g = _laguerre_sums(w[None], 0, 2.0 * probe * probe)[0]
    floor = len(w) * np.finfo(float).eps * np.abs(w).sum()
    loud = np.abs(g) * np.exp(-probe * probe) > floor
    idx = np.flatnonzero((np.sign(g[:-1]) * np.sign(g[1:]) < 0) & (loud[:-1] | loud[1:]))
    lo, hi, glo, ghi = probe[idx], probe[idx + 1], g[idx], g[idx + 1]
    kept = np.zeros(len(idx))  # +1: the last step kept hi, -1: it kept lo
    tol = 4.0 * np.finfo(float).eps * radius
    for _ in range(60):
        if np.all(hi - lo <= tol):
            break
        x = lo - glo * (hi - lo) / (ghi - glo)
        gx = _laguerre_sums(w[None], 0, 2.0 * x * x)[0]
        right = (gx < 0) == (glo < 0)  # the zero lies in [x, hi]
        zero = gx == 0.0  # collapses its bracket onto x, which then stays
        ghi = np.where(right & (kept > 0), 0.5 * ghi, ghi)
        glo = np.where(~right & (kept < 0), 0.5 * glo, glo)
        lo, glo = np.where(right | zero, x, lo), np.where(right, gx, glo)
        hi, ghi = np.where(right & ~zero, hi, x), np.where(right, ghi, gx)
        kept = np.where(right, 1.0, -1.0)
    roots = 0.5 * (lo + hi)
    roots = roots[(roots > 1e-6) & (roots < radius - 1e-6)]
    return np.concatenate([[0.0], roots, [radius]])


def _angular_integrals(weights: np.ndarray, r: np.ndarray, angular: int):
    """Per radius r_i, the integrals of |W| and W around the circle, by the
    uniform midpoint rule with `angular` nodes.

    The nodes come in mirror pairs t and 2 pi - t, so W is evaluated on the
    first ceil(angular / 2) of them only, as C +- S (see _wigner_polar). A
    pair adds |C + S| + |C - S| = 2 max(|C|, |S|) to the integral of |W|
    and 2 C to that of W. For odd counts the node at pi is its own mirror
    and carries half weight.
    """
    half = -(-angular // 2)
    c, s = _wigner_polar(weights, r, 2.0 * math.pi * (np.arange(half) + 0.5) / angular)
    pair_weights = np.full(half, 4.0 * math.pi / angular)
    if angular % 2:
        pair_weights[-1] *= 0.5
    signed = c @ pair_weights
    pair = np.abs(c, out=c)
    if s is not None:
        np.maximum(pair, np.abs(s, out=s), out=pair)
    return pair @ pair_weights, signed


def _phase_space_integrals(
    weights: np.ndarray, edges: np.ndarray, nodes: int, angular: int
):
    """Integrals of |W| and W over the disk of radius edges[-1], for the
    state with these _pair_weights.

    Tensor-product rule in polar coordinates. In r, against the r dr
    measure, the disk is split into panels at the given edges, the zero
    rings of the angular-mean profile; a panel of width h gets
    q = max(12, round(nodes h / R)) nodes, rounded up to ceil(q/16) equal
    sub-panels of the order-16 Gauss-Legendre rule. Around the circle the
    rule is the uniform midpoint one (_angular_integrals), which integrates
    the finite angular Fourier content of W exactly and, by the mirror
    symmetry of its nodes, needs W on half of them. Keeping the kinks of
    |W| on (or near) panel boundaries restores fast radial convergence that
    a Cartesian grid, whose every row and column crosses the rings, cannot
    achieve.
    """
    widths = np.diff(edges)
    r_parts, w_parts = [], []
    for lo, width in zip(edges[:-1], widths):
        q = max(12, int(round(nodes * width / edges[-1])))
        rp, wp = _leggauss_scaled(-(-q // _GL_ORDER), lo, lo + width)
        r_parts.append(rp)
        w_parts.append(wp)
    r = np.concatenate(r_parts)
    wt = np.concatenate(w_parts) * r
    abs_sums, sums = _angular_integrals(weights, r, angular)
    return float(wt @ abs_sums), float(wt @ sums)


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
    weights = _pair_weights(amps)
    nodes, angular = quad.nodes, quad.angular_nodes
    value = math.log(_phase_space_integrals(weights, edges, nodes, angular)[0])
    for _ in range(_WLN_MAX_DOUBLINGS):
        if not math.isfinite(value):  # overflow; more nodes cannot repair it
            raise QuadratureNotConverged(
                f"log-negativity is {value} at {nodes} x {angular} nodes"
            )
        nodes, angular, coarse = 2 * nodes, 2 * angular, value
        abs_int, total = _phase_space_integrals(weights, edges, nodes, angular)
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
