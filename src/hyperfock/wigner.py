"""Phase-space engine: Wigner functions of finite Fock-basis states.

Two independent evaluation paths are provided on purpose. The closed form
expands W(x, p) over Fock-index pairs (n, n') with generalized-Laguerre
kernels; the oracle integrates the defining transform of the position
wavefunction numerically. They share no code beyond the state itself, so
their pointwise agreement is a meaningful correctness check.

One kernel, _laguerre_sums, evaluates every Laguerre sum of the closed form
on the normalised Laguerre functions
L~_n^a(z) = sqrt(n!/(n+a)!) e^{-z/2} z^{a/2} L_n^a(z), |L~| <= 1 (Gil,
Segura & Temme, Numerical Methods for Special Functions, SIAM 2007, ch. 4),
which stay finite at every Fock level. One upward recurrence in n yields
sum_n w[a, n] L~_n^a(z) for a block of Fock offsets a at once. With
z = 2 r^2 these carry the whole envelope of W, so one evaluator,
_radial_modes, gives the radial modes g_a of W(r, t) = Re sum_a g_a(r)
e^{-iat} on any set of radii. Grids and points take a Horner sum in e^{-it}
per point; the log-negativity quadrature takes real products with cos(at)
and sin(at) on half the circle, since W at t and -t share them (for the
real amplitudes of every state family the sin part vanishes). The a = 0
mode alone is the radial profile whose zeros are the quadrature's panel
edges; one two-row block of the same kernel gives its slope.

Units are dimensionless oscillator quadratures (hbar = 1), in which the
vacuum Wigner function peaks at 1/pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, QuadratureNotConverged
from .fockspace import FockState

_LN2 = math.log(2.0)


# The oracle's quadrature (the log-negativity takes the G7/K15 pair below)
# is a composite of one order-16 Gauss-Legendre rule, tabulated here as
# numpy's leggauss(16) gives it: the positive nodes of [-1, 1] with their
# weights (the rule is symmetric). Building rules at run time costs more
# than the Wigner sums they serve (order q takes O(q^3) time and O(q^2)
# memory), and building even this one at import would add resident memory
# to every process that imports the module, through its first LAPACK call.
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

# The radial rule of the log-negativity: the 15-point Gauss-Kronrod rule and
# its embedded 7-point Gauss rule (QUADPACK's qk15; Piessens et al. 1983,
# Laurie, Math. Comp. 66, 1133 (1997)), tabulated as (node, Kronrod weight,
# Gauss weight) on [0, 1] of [-1, 1]; the Gauss weight is 0.0 at the nodes
# that Kronrod's extension adds. One evaluation serves both rules, so
# |Kronrod - Gauss| estimates the error of each sub-panel for free.
_GK_POSITIVE = (
    (0.0, 0.20948214108472782, 0.4179591836734694),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.9914553711208126, 0.022935322010529224, 0.0),
)
_GK_NODES = np.array([-x for x, _, _ in _GK_POSITIVE[:0:-1]] + [x for x, _, _ in _GK_POSITIVE])
_GK_ORDER = len(_GK_NODES)
# columns: the Kronrod and the Gauss weights of each node
_GK_WEIGHTS = np.array([w for _, *w in _GK_POSITIVE[:0:-1] + _GK_POSITIVE])

# log-negativity refinement: the radial node density of the first
# evaluation (nodes per disk radius), the least angular node count, and
# the caps on radial nodes evaluated in all and on the angular count
_WLN_NODES = 512
_WLN_ANGULAR_NODES = 256
_WLN_MAX_NODES = 1 << 15
_WLN_MAX_ANGULAR_NODES = 1 << 14

# Fock offsets and radial nodes per Laguerre recurrence of the radial modes.
# A block of up to half _NODE_BLOCK nodes (a WLN pass, a point) takes
# _OFFSET_BLOCK offsets per recurrence, so that a state of up to 16 levels
# needs one; a larger block (a grid) takes one offset at a time, whose 1-d
# buffers stay in cache and run about twice as fast per value. Either way
# the buffers hold at most 16 x 4096 values (512 kB) each.
_OFFSET_BLOCK = 16
_NODE_BLOCK = 4096

# Past |x| or |p| = _FAR_FIELD, W underflows to 0 for any state that fits in
# memory: z = 2 r^2 >= 2e18 there, and as |L_n^a(z)| <= 2^(n+a) z^n for
# z >= 1, each normalised Laguerre function of a d-level state is below
# e^{-z/2} (2 z)^d, under 2^-1074 while d < 2e16. Farther points are taken on
# their ray at that distance, where the kernel gives exactly 0 too: x^2 + p^2
# overflows from 1.34e154 on, and the start values' int64 shift from r = 2.5e9.
_FAR_FIELD = 1e9


@dataclass(frozen=True)
class QuadratureSpec:
    """The one setting of the log-negativity quadrature, validated when the
    spec is built. Neither the disk nor the nodes are settings: the disk's
    radius comes from the state alone (_disk_radius), and the nodes are
    refined adaptively from error estimates (wigner_log_negativity_detailed).

    wln_tolerance -- bound on the summed radial and angular error estimate
      of the integral of |W|, relative to that integral, and so on the
      error of the log-negativity; a result that cannot meet it within
      the node caps is rejected as unconverged.
    """

    wln_tolerance: float = 1e-4

    def __post_init__(self):
        if not self.wln_tolerance > 0.0:
            raise InvalidParams("wln_tolerance must be positive")


def _disk_radius(state: FockState) -> float:
    """Radius R = sqrt(2 n_top + 1) + 5 of the log-negativity's integration
    disk and half-width of the oracle's position window, with n_top the
    highest occupied Fock level: beyond it the Gaussian envelope makes the
    tail contribution negligible. Levels padded with zeros do not widen it.
    """
    occupied = np.flatnonzero(state.amplitudes != 0)
    n_top = int(occupied[-1]) if occupied.size else 0
    return math.sqrt(2.0 * n_top + 1.0) + 5.0


def _pair_weights(amps: np.ndarray) -> np.ndarray:
    """Weights of the Fock-index pairs (n, n + a) in the Wigner double sum,
    w[a, n] = (2 - delta_a0)/pi conj(c_n) c_{n+a} (-1)^n, zero where
    n + a >= d.

    The kernel is Hermitian under index swap, so each off-diagonal pair
    carries twice the real part of one term: the factor 2 and the 1/pi of W
    are folded in here. Real amplitudes (every state family) give real
    weights, so the Laguerre sums run in real arithmetic.
    """
    if not np.count_nonzero(amps.imag):  # a few times cheaper than np.any
        amps = amps.real
    d = len(amps)
    signed = np.conj(amps) * ((1.0 - 2.0 * (np.arange(d) % 2)) / math.pi)
    padded = np.concatenate([amps, np.zeros(d, dtype=amps.dtype)])
    # flat operands: numpy takes complex products of 1-d arrays through one
    # loop whatever their length, so each weight comes out bit for bit as a
    # row at a time gives it (2-d operands may not)
    a, n = np.divmod(np.arange(d * d), d)
    w = (padded[n + a] * signed[n]).reshape(d, d)
    w[1:] *= 2.0
    return w


def _start(z: np.ndarray):
    """e^{-z/2} = L~_0^0(z) as (values, shift): the values are scaled up by
    2^shift where e^{-z/2} would fall below 2^-1000, and shift is None when
    no value needs it."""
    half = 0.5 * z
    if not half.max(initial=0.0) > 1000.0 * _LN2:
        return np.exp(-half), None
    shift = np.maximum(np.ceil(half / _LN2) - 1000.0, 0.0).astype(np.int64)
    return np.exp(shift * _LN2 - half), shift


def _rescale(shift: np.ndarray, lead: np.ndarray, *rest: np.ndarray) -> None:
    """Bring values scaled up by 2^shift back towards 1, in place: divide
    lead and rest by 2^k and lower shift by k, where k is the binary
    exponent of lead clipped to [0, shift]. Powers of two keep it exact."""
    k = np.clip(np.frexp(lead)[1], 0, shift)
    factor = np.ldexp(1.0, -k)
    for values in (lead,) + rest:
        values *= factor
    shift -= k


@lru_cache(maxsize=256)
def _recurrence_coefficients(a: int, rows: int, cols: int):
    """Per step n (axis 0) and offset a + i (axis 1 when rows > 1): the
    coefficients 2n - 1 + a, sqrt((n - 1)(n - 1 + a)) and 1/sqrt(n (n + a))
    of the normalised Laguerre recurrence (a product costs a third of a
    quotient)."""
    col = (rows, 1) if rows > 1 else ()
    n = np.arange(cols, dtype=float).reshape((cols,) + len(col) * (1,))
    offsets = (a + np.arange(rows, dtype=float)).reshape(col)
    coefficients = np.stack([
        2.0 * n - 1.0 + offsets,
        np.sqrt(np.maximum(n - 1.0, 0.0) * (n - 1.0 + offsets)),
        1.0 / np.sqrt(np.maximum(n * (n + offsets), 1.0)),
    ])
    coefficients.setflags(write=False)
    return coefficients


def _laguerre_sums(w: np.ndarray, a: int, z: np.ndarray, start, shift) -> np.ndarray:
    """Row i: sum_n w[i, n] L~_n^{a+i}(z) over a 1-d array z, for the block
    of consecutive Fock offsets a, a + 1, ... that the rows of w hold, from
    their start values L~_0^{a+i}(z) scaled up by 2^shift (see _start).

    One three-term upward recurrence in n serves the whole block. Row i ends
    at column N - i (N = w.shape[1]), so step n updates the first N - n rows
    only. Each step is L~_n = ((2n - 1 + a - z) L~_{n-1}
    - sqrt((n - 1)(n - 1 + a)) L~_{n-2}) * (1/sqrt(n (n + a))), in that
    order, in place in rotating buffers. Where a scale is carried, every eighth
    step moves it out of the values (_rescale), which keeps them finite.
    """
    rows, cols = w.shape
    # one offset runs on 1-d buffers and 0-d coefficients: numpy's loops
    # over operands of one shape cost half its broadcasting ones on few z
    col = (rows, 1) if rows > 1 else ()
    shape = col[:1] + z.shape
    rise, fall, scale_at = _recurrence_coefficients(a, rows, cols)
    w_at = w.T.reshape((cols,) + col)
    l_prev, l_curr = np.zeros(shape), start.reshape(shape)
    sums = w_at[0] * l_curr
    acc, s = sums, np.empty(shape)
    term = np.empty_like(sums) if np.iscomplexobj(sums) else s  # s is free by then
    scale = sc = None if shift is None else np.broadcast_to(shift, shape).copy()
    live = rows
    for n in range(1, cols):
        k = cols - n
        if k < live:  # offset a + k has no pair at level n
            live = k
            acc, s, term, l_prev, l_curr = acc[:k], s[:k], term[:k], l_prev[:k], l_curr[:k]
            rise, fall, scale_at, w_at = rise[:, :k], fall[:, :k], scale_at[:, :k], w_at[:, :k]
            sc = None if sc is None else sc[:k]
        np.subtract(rise[n], z, out=s)
        s *= l_curr
        l_prev *= fall[n]
        np.subtract(s, l_prev, out=l_prev)
        l_prev *= scale_at[n]
        l_prev, l_curr = l_curr, l_prev
        np.multiply(w_at[n], l_curr, out=term)
        acc += term
        if sc is not None and n % 8 == 0:
            _rescale(sc, l_curr, l_prev, acc)
    if scale is not None:
        sums *= np.ldexp(1.0, -scale)
    return sums.reshape(rows, len(z))


def _radial_modes(weights: np.ndarray, z: np.ndarray):
    """The one evaluator of the closed form: with these _pair_weights,
    W(r, t) = Re sum_a g_a(r) e^{-iat}, g_a = sum_n w[a, n] L~_n^a(2 r^2).

    Yields (lo, g) for each block of up to _NODE_BLOCK values z = 2 r^2
    from z[lo] on, g[a] the mode g_a there. The start values
    L~_0^a = L~_0^{a-1} sqrt(z/a) are running products over the offsets.
    Offset blocks whose weights are all zero (all but the first of a Fock
    state) run no recurrence.
    """
    d = len(weights)
    inv_root = 1.0 / np.sqrt(np.arange(1.0, d + 1.0))
    for lo in range(0, len(z), _NODE_BLOCK):
        zb = z[lo : lo + _NODE_BLOCK]
        start, shift = _start(zb)
        root = np.sqrt(zb)
        g = np.empty((d, len(zb)), dtype=weights.dtype)
        block = _OFFSET_BLOCK if 2 * len(zb) <= _NODE_BLOCK else 1
        for a0 in range(0, d, block):
            rows = min(block, d - a0)
            starts = np.empty((rows + 1, len(zb)))
            starts[0] = start
            np.multiply.outer(inv_root[a0 : a0 + rows], root, out=starts[1:])
            if len(zb) > 64:  # multiply.accumulate loops once per node
                for i in range(rows):
                    starts[i + 1] *= starts[i]
            else:
                np.multiply.accumulate(starts, axis=0, out=starts)
            start = starts[rows]
            w = weights[a0 : a0 + rows, : d - a0]
            if np.count_nonzero(w):
                g[a0 : a0 + rows] = _laguerre_sums(w, a0, zb, starts[:rows], shift)
            else:
                g[a0 : a0 + rows] = 0.0
            if shift is not None:
                _rescale(shift, start)
        yield lo, g


def _horner(g: np.ndarray, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Re sum_a g[a, idx] u^a by Horner's rule."""
    total, product = np.zeros(len(u), dtype=complex), np.empty(len(u), dtype=complex)
    real = not np.iscomplexobj(g)
    for mode in g[::-1]:
        # never in place: numpy rounds a lone in-place complex product
        # differently from the same product in a longer array
        total, product = np.multiply(total, u, out=product), total
        part = total.real if real else total
        part += mode[idx]
    return total.real


def _wigner_array(amps: np.ndarray, x, p) -> np.ndarray:
    """W(x, p) for an amplitude vector, broadcasting over arrays x and p.

    The radial modes are evaluated once per distinct z = 2 r^2, and each
    point takes one Horner sum W = Re sum_a g_a(r) u^a in
    u = (x - ip)/r = e^{-it}; any finite u serves at the origin, where every
    g_{a>0} vanishes. A point is the case of one radius, so a grid value
    equals the point value at its node bit for bit.
    """
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    far = np.fmax(np.abs(x), np.abs(p))
    if np.any(far > _FAR_FIELD):  # on the ray at _FAR_FIELD, W is 0 as well
        x, p = (v * (_FAR_FIELD / np.fmax(far, _FAR_FIELD)) for v in (x, p))
    r2 = x * x + p * p
    r = np.maximum(np.sqrt(r2), np.finfo(float).tiny)  # u = 0 at the origin
    u = np.empty(r2.shape, dtype=complex)
    np.divide(x, r, out=u.real)
    np.divide(-p, r, out=u.imag)
    # the points sorted by z, and the rank of each among the distinct z
    order = np.argsort(r2, axis=None)
    z = 2.0 * r2.ravel()[order]
    new = np.empty(len(z), dtype=bool)
    new[:1] = True
    np.not_equal(z[1:], z[:-1], out=new[1:])
    rank, z = np.cumsum(new) - 1, z[new]
    u, out = u.ravel(), np.empty(len(order))
    for lo, g in _radial_modes(_pair_weights(amps), z):
        sel = slice(*np.searchsorted(rank, (lo, lo + g.shape[1])))
        pts = order[sel]
        out[pts] = _horner(g, rank[sel] - lo, u[pts])
    return out.reshape(r2.shape)


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


def wigner_grid(
    state: FockState,
    x_min: float = -4.0,
    x_max: float = 4.0,
    p_min: float = -4.0,
    p_max: float = 4.0,
    nx: int = 101,
    n_p: int = 101,
) -> WignerGrid:
    """Evaluate the closed-form Wigner function on a rectangular grid;
    QuadratureNotConverged if any value is not finite."""
    if nx < 2 or n_p < 2:
        raise InvalidParams("grid needs at least 2 nodes per axis")
    if not (x_min < x_max and p_min < p_max):
        raise InvalidParams(f"grid window must be non-empty, got x in "
                            f"[{x_min}, {x_max}] and p in [{p_min}, {p_max}]")
    xs = np.linspace(x_min, x_max, nx)
    ps = np.linspace(p_min, p_max, n_p)
    values = _wigner_array(state.amplitudes, xs[:, None], ps[None, :])
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise QuadratureNotConverged(f"{bad} of {values.size} grid values of W are not finite")
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


# 8 entries hold every sub-panel count the oracle asks for (8 to 128 by
# doubling), about 64 kB in all
@lru_cache(maxsize=8)
def _unit_composite_rule(panels: int):
    """Composite rule on [0, 1]: `panels` equal sub-panels, each carrying
    the order-_GL_ORDER Gauss-Legendre rule."""
    nodes = (np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1.0)) / panels
    nodes = nodes.ravel()
    weights = np.tile(_GL_WEIGHTS * (0.5 / panels), panels)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    unit_y, unit_w = _unit_composite_rule(-(-nodes // (2 * _GL_ORDER)))
    y, w = y_cutoff * unit_y, y_cutoff * unit_w
    y = np.concatenate([-y[::-1], y])
    w = np.concatenate([w[::-1], w])
    psi = _position_wavefunction(amps, x + y)
    vals = np.conj(psi) * psi[::-1] * np.exp(2j * p * y)
    return complex(np.dot(w, vals)) / math.pi


def wigner_oracle_point(state: FockState, x: float, p: float) -> float:
    """W(x, p) by direct numerical integration of the position-space
    transform. Independent of the closed form; intended for validation.
    It holds up to |400>, which agrees with wigner_point to 1e-14 at (0.3,
    -0.2) and at (10, 5); from about 500 levels on its largest resolution
    no longer settles and it raises (|1000> moves by 4.5e-3 between 2048
    and 4096 nodes).

    The sub-panel count of the composite rule is doubled, from 16 up to
    256, until successive values agree to 1e-9; QuadratureNotConverged is
    raised if they still differ by more than 1e-7 at the largest
    resolution.
    """
    y_cutoff = _disk_radius(state) + abs(x)
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


# radii of the probe whose sign changes bracket the panel edges
_PROBE_POINTS = 4097


def _radial_panel_edges(amps: np.ndarray, radius: float) -> np.ndarray:
    """Radial panel boundaries for the disk quadrature: the zeros of the
    angular-mean Wigner profile inside the disk, to round-off.

    Up to the factor 1/pi that profile is the a = 0 mode,
    g(r) = sum_n w_n L~_n(2 r^2), w_n = p_n (-1)^n: the off-diagonal modes
    integrate to zero around the circle. For radially symmetric states its
    zeros are exactly the kink circles of |W|, so panelized quadrature sees
    only smooth integrands; for other states they still track the
    near-circular ring structure.

    Probe: g on _PROBE_POINTS equally spaced radii. Each sign change is a
    bracket, unless g lies below its round-off floor at both ends: each of
    the d terms is at most |w_n| (as |L~_n| <= 1), so sign changes within
    floor = d * eps * sum |w_n| of zero are noise, and |W| has no kink
    there worth a panel.

    Start: each root starts at the root of the cubic through the four probe
    values around its bracket, which costs no kernel call.

    Newton: all brackets are polished together. Each step takes g and its
    slope from one _laguerre_sums call on a two-row block, offsets 0 and 1:
    d/dz L_n = -L_{n-1}^(1) (DLMF 18.9) gives
    dg/dz = -g/2 - z^{-1/2} sum_n w_{n+1} sqrt(n + 1) L~_n^1(z), that is
    dg/dr = -2 r g - 2 sqrt(2) sum_n w_{n+1} sqrt(n + 1) L~_n^1(2 r^2).
    Every evaluation narrows the sign bracket, and a step that would leave
    it, or that is not half the one before last, bisects it instead (the
    safeguard of rtsafe, Press et al., Numerical Recipes, sec. 9.4), so the
    bracket shrinks to nothing even where Newton would not converge.

    Stop: a bracket is done when g is exactly 0, when its sign bracket is
    at most 4 eps * radius wide, or when the predicted error of the Newton
    step, |g''/(2 g')| step^2 with g'' from the cubic, is below
    max(4 eps * radius, floor / |g'|), floor / |g'| being the profile's own
    round-off in r. Edges need no more than that: an edge that misses a
    kink by delta costs O(delta^2) in the integral of |W|.
    """
    d = len(amps)
    w = np.abs(amps) ** 2 * (1.0 - 2.0 * (np.arange(d) % 2))
    # row 1: the weights w_{n+1} sqrt(n + 1) of the slope's offset-1 sum
    rows = np.zeros((2, d))
    rows[0] = w
    rows[1, :-1] = w[1:] * np.sqrt(np.arange(1.0, d))

    probe = np.linspace(0.0, radius, _PROBE_POINTS)
    z = 2.0 * probe * probe
    g = _laguerre_sums(rows[:1], 0, z, *_start(z))[0]
    floor = d * np.finfo(float).eps * np.abs(w).sum()
    loud = np.abs(g) > floor
    idx = np.flatnonzero((np.sign(g[:-1]) * np.sign(g[1:]) < 0) & (loud[:-1] | loud[1:]))

    # the cubic c0 + c1 t + c2 t^2 + c3 t^3 through g at the probe points
    # base .. base + 3, in t = (r - r_base) / h (the matrix maps values at
    # t = 0..3 to coefficients), and its root in the bracket [t_lo, t_lo + 1]
    # by Newton from the secant point; fmax and fmin keep every step in the
    # bracket and send a NaN step to t_lo
    h = probe[1]
    base = np.clip(idx - 1, 0, _PROBE_POINTS - 4)
    fit = np.array([[6, 0, 0, 0], [-11, 18, -9, 2], [6, -15, 12, -3], [-1, 3, -3, 1]]) / 6.0
    c0, c1, c2, c3 = fit @ g[base + np.arange(4)[:, None]]
    t_lo, glo = (idx - base).astype(float), g[idx]
    t, t_hi, c2_2, c3_3 = t_lo + glo / (glo - g[idx + 1]), t_lo + 1.0, 2.0 * c2, 3.0 * c3
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            t -= (c0 + t * (c1 + t * (c2 + t * c3))) / (c1 + t * (c2_2 + t * c3_3))
            t = np.fmin(np.fmax(t, t_lo), t_hi)
    bend = np.abs(c2 + 3.0 * c3 * t) / (h * h)  # |g''| / 2 in r

    tol = 4.0 * np.finfo(float).eps * radius
    lo, hi = probe[idx], probe[idx + 1]
    x = probe[base] + h * t
    last = older = np.full(len(idx), h)  # the last two step lengths
    edges = np.empty(len(idx))
    todo = np.arange(len(idx))
    while todo.size:
        z = 2.0 * x * x
        start, shift = _start(z)
        sums = _laguerre_sums(rows, 0, z, np.stack([start, start * np.sqrt(z)]), shift)
        gx = sums[0]
        slope = -2.0 * x * gx - 2.0 * math.sqrt(2.0) * sums[1]
        left = (gx < 0) == (glo < 0)  # x lies on lo's side of the zero
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -gx / slope
            settled = bend * step * step < np.maximum(tol * np.abs(slope), floor)
        new = x + step
        zero, narrow = gx == 0.0, hi - lo <= tol
        # final for the brackets that are done, written over for the rest
        edges[todo] = np.where(zero, x, np.where(narrow, mid, np.minimum(np.maximum(new, lo), hi)))
        keep = ~(zero | narrow | settled)
        if not keep.any():
            break
        take = (new > lo) & (new < hi) & (np.abs(step) <= 0.5 * older)
        older, last = last, np.where(take, np.abs(step), 0.5 * (hi - lo))
        x = np.where(take, new, mid)
        todo, x, lo, hi, glo = todo[keep], x[keep], lo[keep], hi[keep], glo[keep]
        bend, last, older = bend[keep], last[keep], older[keep]
    edges = edges[(edges > 1e-6) & (edges < radius - 1e-6)]
    return np.concatenate([[0.0], edges, [radius]])


def _angular_integrals(weights: np.ndarray, r: np.ndarray, angular: int):
    """Per radius r_i, the integrals around the circle of |W| and W by the
    trapezoid rule on the `angular` nodes t_j = 2 pi j / angular (a multiple
    of 4), and of |W| by the rule on every other one of those nodes, for the
    state with these _pair_weights. The two rules for |W| differ by about
    the error of the coarser one.

    The nodes come in mirror pairs t and 2 pi - t, so W is evaluated on the
    closed half circle 0 <= t <= pi only, as W(r, +-t) = C +- S with
    C = Re g . cos(at) and S = Im g . sin(at); for real weights g is real
    and S vanishes. A pair adds |C + S| + |C - S| = 2 max(|C|, |S|) to the
    integral of |W| and 2 C to that of W; t = 0 and t = pi are their own
    mirror and carry half weight. Each block of radial modes is reduced to
    these three vectors as it comes, so neither the modes nor C is ever held
    for every radius at once.
    """
    half = angular // 2
    at = np.outer(np.arange(len(weights)), 2.0 * math.pi * np.arange(half + 1) / angular)
    cos_at = np.cos(at)
    sin_at = np.sin(at) if np.iscomplexobj(weights) else None
    # columns: the pair weights of the fine rule and of the coarse one
    rules = np.zeros((half + 1, 2))
    rules[:, 0] = 4.0 * math.pi / angular
    rules[[0, -1], 0] *= 0.5
    rules[::2, 1] = 2.0 * rules[::2, 0]
    abs_sums, sums = np.empty((len(r), 2)), np.empty(len(r))
    # C is formed for at most _NODE_BLOCK x 129 values at a time
    step = max(_NODE_BLOCK * 129 // (half + 1), 1)
    c_buf = np.empty((min(len(r), step), half + 1))
    for lo, g in _radial_modes(weights, 2.0 * r * r):
        for i in range(0, g.shape[1], step):
            part = g[:, i : i + step]
            rows = slice(lo + i, lo + i + part.shape[1])
            c = np.matmul(part.real.T, cos_at, out=c_buf[: part.shape[1]])
            sums[rows] = c @ rules[:, 0]
            pair = np.abs(c, out=c)
            if sin_at is not None:
                np.maximum(pair, np.abs(part.imag.T @ sin_at), out=pair)
            abs_sums[rows] = pair @ rules
    return abs_sums[:, 0], abs_sums[:, 1], sums


def _phase_space_integrals(weights: np.ndarray, lo: np.ndarray, hi: np.ndarray, angular: int):
    """Integrals of |W| and W over the annuli lo_i <= r <= hi_i, for the
    state with these _pair_weights, each by the 15-point Gauss-Kronrod rule
    in r against the r dr measure and the trapezoid rule with `angular`
    nodes around the circle (_angular_integrals).

    Returns four rows, one column per annulus: the Kronrod value of the
    integral of |W|, the embedded Gauss one (their difference estimates the
    radial error), the Kronrod value on every other angular node (its
    difference from the first estimates the angular error) and the Kronrod
    value of the integral of W.
    """
    half = 0.5 * (hi - lo)
    r = ((lo + half)[:, None] + half[:, None] * _GK_NODES).ravel()
    integrands = np.stack(_angular_integrals(weights, r, angular)) * r
    rules = integrands.reshape(3, len(lo), _GK_ORDER) @ _GK_WEIGHTS * half[:, None]
    return np.stack([rules[0, :, 0], rules[0, :, 1], rules[1, :, 0], rules[2, :, 0]])


def _initial_sub_panels(edges: np.ndarray):
    """Bounds (lo, hi) of the sub-panels that the refinement starts from:
    each radial panel split into equal parts, as many as put _WLN_NODES
    Gauss-Kronrod nodes on the disk radius, and at least one. The zero
    rings of the angular-mean profile, where |W| has its kinks for radially
    symmetric states and near which it has them otherwise, so lie on
    sub-panel bounds, which keeps the radial rule convergent fast; a
    Cartesian grid, whose every row and column crosses the rings, cannot."""
    widths = np.diff(edges)
    parts = np.maximum(np.ceil(widths * (_WLN_NODES / (_GK_ORDER * edges[-1]))), 1).astype(int)
    panel = np.repeat(np.arange(len(widths)), parts)
    step = np.arange(len(panel)) - np.repeat(np.cumsum(parts) - parts, parts)
    # a + (b - a) f would miss the panel edge b at f = 1 by round-off
    f = np.stack([step, step + 1]) / parts[panel]
    return edges[panel] * (1.0 - f) + edges[panel + 1] * f


def wigner_log_negativity_detailed(
    state: FockState, quad: QuadratureSpec | None = None
) -> WlnResult:
    """log of the integrated absolute Wigner function over the disk of
    radius _disk_radius(state), with convergence metadata.

    Natural logarithm throughout. One adaptive pass: the disk is cut into
    annular sub-panels on the radial panel edges (_initial_sub_panels),
    each integrated by _phase_space_integrals, whose embedded rules give
    a radial error estimate per sub-panel and an angular one. Until the
    summed estimates are at most quad.wln_tolerance times the integral of
    |W| (then the log-negativity is within about that tolerance), the
    sub-panels with the largest radial estimates are bisected, as many as
    carry the excess, in batches (QUADPACK's greedy rule); the angular node
    count, at first the larger of _WLN_ANGULAR_NODES and the smallest power
    of two >= 2d, is doubled instead while the angular estimate exceeds half
    the allowance, and every sub-panel is evaluated again. The reported
    nodes are the radial nodes evaluated in all, angular_nodes the angular
    count of the result and refinement_delta the summed estimate relative
    to the integral of |W|. QuadratureNotConverged is raised once refining
    would pass _WLN_MAX_NODES radial nodes or _WLN_MAX_ANGULAR_NODES
    angles, and at once for a NaN or infinite integral, which finer nodes
    cannot repair.
    wigner_integral carries the signed integral of W on the same nodes, a
    ~1 sanity diagnostic.
    """
    quad = quad if quad is not None else QuadratureSpec()
    amps = state.amplitudes
    edges = _radial_panel_edges(amps, _disk_radius(state))
    weights = _pair_weights(amps)
    angular = max(_WLN_ANGULAR_NODES, 1 << (2 * len(amps) - 1).bit_length())
    lo, hi = _initial_sub_panels(edges)
    # per sub-panel: Kronrod and Gauss |W|, coarse-angle |W| and W
    sums = np.empty((4, 0))
    new_lo, new_hi = lo, hi
    nodes = 0
    while True:
        nodes += _GK_ORDER * len(new_lo)
        fresh = _phase_space_integrals(weights, new_lo, new_hi, angular)
        sums = np.concatenate([sums, fresh], axis=1)
        kronrod, gauss, coarse, signed = sums
        abs_int, total = float(kronrod.sum()), float(signed.sum())
        value = math.log(abs_int) if abs_int else -math.inf
        if not (math.isfinite(value) and math.isfinite(total)):
            raise QuadratureNotConverged(
                f"log-negativity is {value} at {nodes} x {angular} nodes"
            )
        radial = np.abs(kronrod - gauss)
        angular_error = abs(abs_int - float(coarse.sum()))
        estimate = float(radial.sum()) + angular_error
        allowed = quad.wln_tolerance * abs_int
        if estimate <= allowed:
            return WlnResult(
                value=value,
                nodes=nodes,
                angular_nodes=angular,
                refinement_delta=estimate / abs_int,
                abs_integral=abs_int,
                wigner_integral=total,
            )
        if angular_error > 0.5 * allowed:
            refined, new_lo, new_hi = 2 * angular, lo, hi
        else:
            # split the fewest sub-panels whose estimates carry the excess
            refined = angular
            order = np.argsort(radial)[::-1]
            carried = np.cumsum(radial[order])
            split = order[: np.searchsorted(carried, estimate - allowed) + 1]
            mid = 0.5 * (lo[split] + hi[split])
            new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            keep = np.ones(len(lo), dtype=bool)
            keep[split] = False
            sums = sums[:, keep]
            lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        if (refined > _WLN_MAX_ANGULAR_NODES
                or nodes + _GK_ORDER * len(new_lo) > _WLN_MAX_NODES):
            raise QuadratureNotConverged(
                f"log-negativity error estimate {estimate / abs_int:.3e} "
                f"(> {quad.wln_tolerance}) at {nodes} radial x {angular} angular nodes; "
                f"refining would pass the cap of {_WLN_MAX_NODES} radial or "
                f"{_WLN_MAX_ANGULAR_NODES} angular nodes"
            )
        if refined != angular:
            angular, sums = refined, sums[:, :0]
