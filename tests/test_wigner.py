import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from hyperfock import (
    HypergeometricParams,
    InvalidParams,
    QuadratureNotConverged,
    QuadratureSpec,
    add_photons,
    binomial,
    coherent_truncated,
    fock,
    normalize,
    pahs,
    pinned_L,
    wigner_grid,
    wigner_log_negativity_detailed,
    wigner_oracle_point,
    wigner_point,
)
from hyperfock import wigner
from hyperfock.wigner import (
    _angular_integrals,
    _disk_radius,
    _initial_sub_panels,
    _laguerre_sums,
    _oracle_integral,
    _pair_weights,
    _phase_space_integrals,
    _radial_modes,
    _radial_panel_edges,
    _unit_composite_rule,
    _wigner_array,
)
from conftest import random_state

INV_PI = 1.0 / math.pi


def test_vacuum_peak():
    assert np.isclose(wigner_point(fock(0, 1), 0.0, 0.0), INV_PI, atol=1e-12)


def test_single_photon_negativity_at_origin():
    assert np.isclose(wigner_point(fock(1, 2), 0.0, 0.0), -INV_PI, atol=1e-12)


def test_oracle_anchors():
    assert np.isclose(wigner_oracle_point(fock(0, 1), 0.0, 0.0), INV_PI, atol=1e-8)
    assert np.isclose(wigner_oracle_point(fock(2, 3), 0.0, 0.0), INV_PI, atol=1e-8)
    assert np.isclose(wigner_oracle_point(fock(1, 2), 0.0, 0.0), -INV_PI, atol=1e-8)


def test_closed_form_matches_oracle_on_random_states(rng):
    xs = np.linspace(-2.5, 2.5, 4)
    ps = np.linspace(-2.0, 2.0, 3)
    for _ in range(6):
        s = random_state(rng, int(rng.integers(2, 13)))
        for x in xs:
            for p in ps:
                closed = wigner_point(s, x, p)
                direct = wigner_oracle_point(s, x, p)
                assert abs(closed - direct) < 1e-6


def test_closed_form_matches_oracle_for_pahs():
    s = pahs(HypergeometricParams(L=200.0, M=10, eta=0.9, k=1))
    for x, p in [(-3.0, 0.0), (-1.0, 1.5), (0.0, 0.0), (2.0, -2.0), (4.0, 1.0)]:
        assert abs(wigner_point(s, x, p) - wigner_oracle_point(s, x, p)) < 1e-6


def test_oracle_matches_closed_form_at_fock_400():
    # the top of the oracle's range, near the origin and far out
    s = fock(400, 401)
    for x, p in ((0.3, -0.2), (10.0, 5.0)):
        assert abs(wigner_oracle_point(s, x, p) - wigner_point(s, x, p)) <= 1e-13


def test_oracle_refuses_fock_1000():
    # past the range, the direct integral does not settle in 4096 nodes
    with pytest.raises(QuadratureNotConverged, match="between 2048 and 4096 nodes"):
        wigner_oracle_point(fock(1000, 1001), 0.3, -0.2)


def test_wigner_is_real_in_direct_integral(rng):
    # the defining transform must come out real for any state
    for _ in range(4):
        s = random_state(rng, int(rng.integers(2, 10)))
        y_cut = _disk_radius(s) + 1.0
        val = _oracle_integral(s.amplitudes, 1.0, -0.7, y_cut, 2000)
        assert abs(val.imag) < 1e-10


def test_grid_vacuum_positive_peaked():
    g = wigner_grid(fock(0, 1), nx=61, n_p=61)
    assert g.values.min() > 0.0
    i, j = np.unravel_index(np.argmax(g.values), g.values.shape)
    assert np.isclose(g.x_nodes[i], 0.0, atol=1e-12)
    assert np.isclose(g.p_nodes[j], 0.0, atol=1e-12)


def test_grid_pahs_has_negative_region():
    s = pahs(HypergeometricParams(L=200.0, M=10, eta=0.9, k=1))
    g = wigner_grid(s, x_min=-6, x_max=6, p_min=-6, p_max=6, nx=121, n_p=121)
    assert g.values.min() < 0.0


def test_grid_matches_pointwise():
    s = normalize([1.0, 0.5j, -0.3])
    g = wigner_grid(s, x_min=-1, x_max=1, p_min=-2, p_max=2, nx=5, n_p=7)
    assert g.values.shape == (5, 7)
    assert g.values[2, 3] == wigner_point(s, 0.0, 0.0)
    assert g.values[0, 0] == wigner_point(s, -1.0, -2.0)
    # equal, exactly symmetric windows repeat every radius up to eight times
    g = wigner_grid(s, x_min=-2, x_max=2, p_min=-2, p_max=2, nx=9, n_p=9)
    xs, ps = np.linspace(-2, 2, 9), np.linspace(-2, 2, 9)
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            assert g.values[i, j] == wigner_point(s, x, p)
    # a window far past the cut-off, where all but the x = 0 column is 0
    g = wigner_grid(s, x_min=-1e200, x_max=1e200, p_min=-4, p_max=4, nx=21, n_p=5)
    for i, x in enumerate(g.x_nodes):
        for j, p in enumerate(g.p_nodes):
            assert g.values[i, j] == wigner_point(s, x, p)
    assert np.count_nonzero(g.values) == np.count_nonzero(g.values[10]) == 5


def test_grid_trapezoid_integral_near_one():
    g = wigner_grid(fock(2, 3), x_min=-6, x_max=6, p_min=-6, p_max=6, nx=161, n_p=161)
    assert abs(g.integral() - 1.0) < 1e-3


@pytest.mark.parametrize(
    "window",
    [(6, -6, -6, 6), (1, 1, -4, 4), (-4, 4, 2, -2), (-4, 4, 0, 0)],
)
def test_grid_rejects_empty_or_reversed_window(window):
    x_min, x_max, p_min, p_max = window
    with pytest.raises(InvalidParams, match="non-empty"):
        wigner_grid(fock(1, 2), x_min=x_min, x_max=x_max, p_min=p_min, p_max=p_max)


def test_grid_values_read_only():
    g = wigner_grid(fock(0, 1), nx=11, n_p=11)
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_grid_csv_round_trip():
    s = fock(1, 2)
    g = wigner_grid(s, x_min=-1, x_max=1, p_min=-1, p_max=1, nx=3, n_p=3)
    lines = "".join(g.csv_rows()).strip().split("\n")
    assert lines[0] == "x,p,W"
    assert len(lines) == 1 + 9
    x, p, w = (float(tok) for tok in lines[5].split(","))  # row i=1, j=1
    assert (x, p) == (0.0, 0.0)
    assert np.isclose(w, -INV_PI, atol=1e-12)


def test_grid_csv_text_is_cell_by_cell_17g():
    # nx != n_p, labels 0.0 (middle p node) and -0.0 (x_max), negative W
    s = normalize([0.3, 1.0, -0.5j, 0.2])
    g = wigner_grid(s, x_min=-2.0, x_max=-0.0, p_min=-1.5, p_max=1.5, nx=5, n_p=7)
    xs, ps = np.linspace(-2.0, -0.0, 5), np.linspace(-1.5, 1.5, 7)
    assert "-0" in {f"{x:.17g}" for x in xs} and "0" in {f"{p:.17g}" for p in ps}
    assert g.values.min() < 0.0
    want = ["x,p,W"]
    for i in range(5):
        for j in range(7):
            want.append(f"{xs[i]:.17g},{ps[j]:.17g},{g.values[i, j]:.17g}")
    assert "".join(g.csv_rows()) == "\n".join(want) + "\n"


def test_quadrature_spec_validation():
    with pytest.raises(InvalidParams):
        QuadratureSpec(wln_tolerance=0.0)
    # the tolerance is the one setting: the node schedule is fixed
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["wln_tolerance"]


def test_quadrature_radius_tracks_support():
    assert np.isclose(_disk_radius(fock(0, 1)), 6.0)
    assert np.isclose(_disk_radius(fock(12, 13)), math.sqrt(25.0) + 5.0)
    # padding levels above the top occupied one do not widen the domain
    assert np.isclose(_disk_radius(fock(0, 13)), 6.0)


def test_wln_vacuum_zero():
    assert abs(wigner_log_negativity_detailed(fock(0, 1)).value) < 1e-6


def test_wln_coherent_zero():
    assert abs(wigner_log_negativity_detailed(coherent_truncated(2.0, 40)).value) < 1e-4


def test_wln_single_photon_analytic():
    # int |W| for |1> is 4 e^{-1/2} - 1 (piecewise Laguerre integral)
    want = math.log(4.0 * math.exp(-0.5) - 1.0)
    got = wigner_log_negativity_detailed(fock(1, 2))
    assert abs(got.value - want) < 1e-9
    assert got.refinement_delta < 1e-4
    assert np.isclose(got.wigner_integral, 1.0, atol=1e-9)


def test_wln_dual_path_single_photon():
    """log of the integrated |W| for |1>, with the integrand supplied by the
    closed form and, independently, by the direct-transform oracle on the
    same quadrature nodes."""
    s = fock(1, 2)
    radius = _disk_radius(s)
    from numpy.polynomial.legendre import leggauss

    r, wr = leggauss(48)
    r = 0.5 * radius * (r + 1.0)
    wr = 0.5 * radius * wr
    theta = 2.0 * math.pi * (np.arange(16) + 0.5) / 16
    total_closed = 0.0
    total_oracle = 0.0
    for ri, wi in zip(r, wr):
        for tj in theta:
            x, p = ri * math.cos(tj), ri * math.sin(tj)
            weight = wi * ri * (2.0 * math.pi / 16)
            total_closed += weight * abs(wigner_point(s, x, p))
            total_oracle += weight * abs(wigner_oracle_point(s, x, p))
    assert abs(math.log(total_closed) - math.log(total_oracle)) < 1e-5


def test_wln_nonnegative_up_to_slack(rng):
    for _ in range(3):
        s = random_state(rng, int(rng.integers(1, 8)))
        assert wigner_log_negativity_detailed(s).value >= -1e-6


def _polar_reference_wln(s, panels, angular=2048):
    """ln of the integral of |W| over the disk of radius _disk_radius(s) for
    real amplitudes, by order-8 Gauss-Legendre on `panels` equal radial
    panels and the trapezoid rule on `angular` nodes around the circle.

    W(r, t) = sum_a g_a(r) cos(at) for a < d, so W from _wigner_array at d
    angles per radius fixes its modes g_a, and W at the fine angles is one
    matrix product per block of radii.
    """
    from numpy.polynomial.legendre import leggauss

    d, radius = len(s.amplitudes), _disk_radius(s)
    x, w = leggauss(8)
    r = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)).ravel() * (radius / panels)
    wr = np.tile(w * (0.5 * radius / panels), panels) * r
    tm = math.pi * (np.arange(d) + 0.5) / d
    samples = _wigner_array(s.amplitudes, r[:, None] * np.cos(tm), r[:, None] * np.sin(tm))
    modes = np.linalg.solve(np.cos(np.outer(tm, np.arange(d))), samples.T)
    t = 2.0 * math.pi * np.arange(angular // 2 + 1) / angular
    wt = np.full(len(t), 4.0 * math.pi / angular)  # t and -t together
    wt[[0, -1]] *= 0.5
    cos_at = np.cos(np.outer(np.arange(d), t))
    total = sum(wr[i : i + 1024] @ np.abs(modes[:, i : i + 1024].T @ cos_at) @ wt
                for i in range(0, len(r), 1024))
    return math.log(total)


@pytest.mark.parametrize("M, eta, k", [(2, 0.95, 0), (10, 0.95, 1), (3, 0.5, 3)])
def test_wln_honours_tight_tolerances(M, eta, k):
    # the tolerance bounds the error, not only the estimate, on states whose
    # nodal rings make the radial integrand singular between panel edges
    s = pahs(HypergeometricParams(pinned_L(M, eta), M, eta, k))
    assert not np.any(s.amplitudes.imag)
    want = _polar_reference_wln(s, 2048)
    assert abs(_polar_reference_wln(s, 4096) - want) <= 1e-8
    for tolerance in (1e-6, 1e-7):
        try:
            got = wigner_log_negativity_detailed(s, QuadratureSpec(wln_tolerance=tolerance))
        except QuadratureNotConverged:
            continue
        assert got.refinement_delta <= tolerance
        assert abs(got.value - want) <= tolerance


def test_wln_convergence_guard():
    s = pahs(HypergeometricParams(40.0, 4, 0.3, 1))
    with pytest.raises(QuadratureNotConverged):
        wigner_log_negativity_detailed(s, QuadratureSpec(wln_tolerance=1e-12))


def _nan_blocks(monkeypatch):
    """Make the kernel return NaN for blocks of several offsets, the radial
    modes, while the one-offset edge profile stays finite."""

    def kernel(w, a, z, start, shift):
        sums = _laguerre_sums(w, a, z, start, shift)
        return sums if len(w) == 1 else np.full_like(sums, np.nan)

    monkeypatch.setattr(wigner, "_laguerre_sums", kernel)


def test_wln_rejects_non_finite_result(monkeypatch):
    # a NaN integral must end as a convergence failure, never as a value
    _nan_blocks(monkeypatch)
    with pytest.raises(QuadratureNotConverged, match="log-negativity is nan"):
        wigner_log_negativity_detailed(fock(1, 2))


# refines its first sub-panels at tolerance 1e-5, though not at the default
_REFINES = pahs(HypergeometricParams(pinned_L(12, 0.928008, 10.0), 12, 0.928008, 2))


def test_wln_rejects_a_nan_sub_panel_of_a_refinement_batch(monkeypatch):
    # the first evaluation is finite and fails the tolerance; one sub-panel
    # of the next batch is NaN and must end the call, not be refined away
    batches = []

    def nan_in_second_batch(weights, lo, hi, angular):
        batches.append(len(lo))
        parts = _phase_space_integrals(weights, lo, hi, angular)
        if len(batches) == 2:
            parts[0][-1] = math.nan
        return parts

    monkeypatch.setattr(wigner, "_phase_space_integrals", nan_in_second_batch)
    with pytest.raises(QuadratureNotConverged, match="log-negativity is nan at"):
        wigner_log_negativity_detailed(_REFINES, QuadratureSpec(wln_tolerance=1e-5))
    assert len(batches) == 2


def test_wln_rejects_non_finite_edge_profile(monkeypatch):
    # a NaN profile brackets no edge; the first batch then carries the NaN
    monkeypatch.setattr(
        wigner, "_laguerre_sums", lambda w, a, z, start, shift: np.full((len(w), len(z)), np.nan)
    )
    with pytest.raises(QuadratureNotConverged, match="log-negativity is nan"):
        wigner_log_negativity_detailed(fock(1, 2))


def test_wigner_grid_rejects_non_finite_values(monkeypatch):
    _nan_blocks(monkeypatch)
    with pytest.raises(QuadratureNotConverged, match="25 of 25 grid values of W are not finite"):
        wigner_grid(fock(3, 4), nx=5, n_p=5)


def _separable_form_states(rng):
    states = [random_state(rng, int(rng.integers(1, 21))) for _ in range(5)]
    return states + [pahs(HypergeometricParams(L=200.0, M=10, eta=0.9, k=1))]


def _full_circle_sums(amps, r, angular):
    """Trapezoid-rule integrals of |W| and W around each circle, from W at
    every node of the full circle."""
    theta = 2.0 * math.pi * np.arange(angular) / angular
    values = _wigner_array(amps, r[:, None] * np.cos(theta), r[:, None] * np.sin(theta))
    step = 2.0 * math.pi / angular
    return step * np.abs(values).sum(axis=1), step * values.sum(axis=1)


def _assert_half_circle_sums(amps, r, angular):
    abs_sums, coarse_sums, sums = _angular_integrals(_pair_weights(amps), r, angular)
    ref_abs, ref = _full_circle_sums(amps, r, angular)
    ref_coarse, _ = _full_circle_sums(amps, r, angular // 2)
    assert np.all(np.abs(abs_sums - ref_abs) <= 1e-13 * ref_abs)
    assert np.all(np.abs(coarse_sums - ref_coarse) <= 1e-13 * ref_abs)
    assert np.all(np.abs(sums - ref) <= 1e-13 * ref_abs)


def test_polar_form_matches_cartesian_on_quadrature_nodes(rng, monkeypatch):
    seen = []

    def spy(weights, r, angular):
        seen.append((r, angular))
        return _angular_integrals(weights, r, angular)

    monkeypatch.setattr(wigner, "_angular_integrals", spy)
    for s in _separable_form_states(rng):
        edges = _radial_panel_edges(s.amplitudes, _disk_radius(s))
        _phase_space_integrals(_pair_weights(s.amplitudes), *_initial_sub_panels(edges), 64)
        r, angular = seen.pop()
        assert angular == 64
        _assert_half_circle_sums(s.amplitudes, r, angular)


def test_half_circle_sums_match_full_circle(rng):
    real = [pahs(HypergeometricParams(L=200.0, M=10, eta=0.9, k=1)),
            coherent_truncated(1.5, 16), normalize(rng.normal(size=9))]
    complex_ = [random_state(rng, d) for d in (3, 12)]
    for s in real + complex_:
        r = np.linspace(0.0, _disk_radius(s), 97)[1:]
        assert (_pair_weights(s.amplitudes).dtype == np.float64) == (s in real)
        for angular in (64, 256):
            _assert_half_circle_sums(s.amplitudes, r, angular)


def _mean_profile(amps, r):
    """sum_n p_n (-1)^n L_n(2 r^2) by numpy's Clenshaw evaluation."""
    from numpy.polynomial.laguerre import lagval

    probs = np.abs(amps) ** 2
    return lagval(2.0 * np.asarray(r) ** 2, probs * (-1.0) ** np.arange(len(probs)))


def test_panel_edges_bracket_sign_changes_of_mean_profile(rng):
    for s in _separable_form_states(rng):
        radius = _disk_radius(s)
        edges = _radial_panel_edges(s.amplitudes, radius)
        assert edges[0] == 0.0 and edges[-1] == radius
        step = 1e-9 * radius
        for e in edges[1:-1]:
            assert _mean_profile(s.amplitudes, e - step) * _mean_profile(
                s.amplitudes, e + step
            ) < 0.0


def test_panel_edges_match_bisection(rng):
    states = _separable_form_states(rng) + [
        pahs(HypergeometricParams(pinned_L(40, 0.9, 2.0), 40, 0.9, 1)),
        pahs(HypergeometricParams(pinned_L(16, 0.95, 10.0), 16, 0.95, 2)),
    ]
    for s in states:
        radius = _disk_radius(s)
        edges = _radial_panel_edges(s.amplitudes, radius)[1:-1]
        spacing = radius / 4096  # the probe spacing of the edge finder
        lo, hi = edges - spacing, edges + spacing
        glo = _mean_profile(s.amplitudes, lo)
        assert np.all(glo * _mean_profile(s.amplitudes, hi) < 0.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            left = _mean_profile(s.amplitudes, mid) * glo <= 0.0
            lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
        assert np.max(np.abs(edges - 0.5 * (lo + hi)), initial=0.0) <= 1e-14 * radius


def test_panel_edge_step_onto_an_exact_zero_stops_its_bracket(monkeypatch):
    calls = []

    def profile(w, a, z, start, shift):  # one zero, at r = 1, exactly 0.0 within 1e-6 of it
        assert a == 0 and w.shape[0] in (1, 2)  # the a = 0 mode, with its slope row
        calls.append((w.shape[0], len(z)))
        r = np.sqrt(0.5 * z)
        g = np.where(np.abs(r - 1.0) < 1e-6, 0.0, r - 1.0)
        # the offset-1 row that makes dg/dr = -2 r g - 2 sqrt(2) row = 1
        slope_row = -(1.0 + 2.0 * r * g) / (2.0 * math.sqrt(2.0))
        return np.stack([g, slope_row])[: w.shape[0]]

    monkeypatch.setattr(wigner, "_laguerre_sums", profile)
    edges = _radial_panel_edges(fock(1, 2).amplitudes, 3.0)
    assert len(edges) == 3 and abs(edges[1] - 1.0) < 1e-6
    # the probe on one row, then at most two steps on value and slope
    assert calls[0] == (1, 4097)
    assert 1 <= len(calls) - 1 <= 2 and all(c == (2, 1) for c in calls[1:])


def test_panel_edge_polish_bisects_where_newton_has_no_slope(monkeypatch):
    calls = []

    def profile(w, a, z, start, shift):  # g = e^r - e, with dg/dr = 0 reported
        calls.append(len(z))
        r = np.sqrt(0.5 * z)
        g = np.exp(r) - math.e
        return np.stack([g, -r * g / math.sqrt(2.0)])[: w.shape[0]]

    monkeypatch.setattr(wigner, "_laguerre_sums", profile)
    edges = _radial_panel_edges(fock(1, 2).amplitudes, 3.0)
    # every step bisects, down to the 4 eps R bracket
    assert len(edges) == 3 and abs(edges[1] - 1.0) <= 4.0 * np.finfo(float).eps * 3.0
    assert 30 <= len(calls) - 1 <= 45


def _benchmark_range_states():
    """One pahs state per M stratum and k of the benchmark's WLN points
    (M 2-16, k 0-3, eta and the L coefficient varied), and coherent states
    at the automatic dimensions 12, 16 and 20."""
    states = []
    for i, strata in enumerate(((6, 9), (13, 16), (2, 5), (10, 12))):
        for k, eta in enumerate((0.05, 0.35, 0.65, 0.95)):
            M, coeff = strata[k % 2], (2.0, 10.0)[(i + k) % 2]
            states.append(pahs(HypergeometricParams(pinned_L(M, eta, coeff), M, eta, k)))
    return states + [coherent_truncated(a, d) for a, d in ((0.6, 12), (1.0, 16), (1.45, 20))]


def test_panel_edges_take_one_probe_and_at_most_two_polish_calls(monkeypatch):
    calls = []

    def spy(w, a, z, start, shift):
        calls.append((w.shape[0], len(z)))
        return _laguerre_sums(w, a, z, start, shift)

    monkeypatch.setattr(wigner, "_laguerre_sums", spy)
    brackets = 0
    for s in _benchmark_range_states():
        calls.clear()
        brackets += len(_radial_panel_edges(s.amplitudes, _disk_radius(s))) - 2
        assert calls[0] == (1, 4097)
        assert len(calls) <= 3 and all(rows == 2 for rows, _ in calls[1:])
    assert brackets > 50


@pytest.mark.parametrize("n", [200, 300])
def test_high_fock_panel_edges_match_laguerre_roots(n):
    from scipy.special import roots_laguerre

    radius = _disk_radius(fock(n, n + 1))
    edges = _radial_panel_edges(fock(n, n + 1).amplitudes, radius)[1:-1]
    with np.errstate(over="ignore"):  # in the quadrature weights, not the roots
        want = np.sqrt(0.5 * roots_laguerre(n)[0])
    assert len(edges) == n
    assert np.max(np.abs(edges - want)) <= 1e-14 * radius


def test_panel_edges_on_the_scaled_start_branch():
    # d = 504: e^{-z/2} falls below 2^-1000 beyond r = 26.3, where 24 of the
    # 26 zeros of the mean profile lie. Each edge must meet the stop rule of
    # _radial_panel_edges against the profile summed in 40 digits: a zero of
    # it lies within max(4 eps R, floor / |g'|) of the edge. The innermost
    # edges sit where |g'| ~ 1e-11, so there the rule allows far more than
    # round-off; the outer ones hold it to ~1e-11, so edges moved by 1e-6 R
    # must fail it.
    mpmath = pytest.importorskip("mpmath")
    s = pahs(HypergeometricParams(pinned_L(500, 0.9, 2.0), 500, 0.9, 3))
    radius = _disk_radius(s)
    edges = _radial_panel_edges(s.amplitudes, radius)[1:-1]
    assert len(edges) == 26
    assert wigner._start(2.0 * edges**2)[1] is not None
    probs = np.abs(s.amplitudes) ** 2
    eps = np.finfo(float).eps
    floor = len(probs) * eps * probs.sum()

    def profile(r):  # sum_n p_n (-1)^n e^{-z/2} L_n(z) by the plain recurrence
        z = 2 * mpmath.mpf(r) ** 2
        l_prev, l_curr, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(float(probs[0]))
        for n in range(1, len(probs)):
            l_prev, l_curr = l_curr, ((2 * n - 1 - z) * l_curr - (n - 1) * l_prev) / n
            total += (-1) ** n * mpmath.mpf(float(probs[n])) * l_curr
        return total * mpmath.exp(-z / 2)

    def meets_stop_rule(e, tol):
        e = mpmath.mpf(float(e))
        return profile(e - tol) * profile(e + tol) < 0

    with mpmath.workdps(40):
        tols = [
            max(4 * eps * radius, floor / abs(float(mpmath.diff(profile, mpmath.mpf(float(e))))))
            for e in edges
        ]
        assert all(meets_stop_rule(e, tol) for e, tol in zip(edges, tols))
        assert not all(meets_stop_rule(e + 1e-6 * radius, tol) for e, tol in zip(edges, tols))


def test_panel_edges_skip_round_off_sign_changes():
    # the mean profile of this state is nil to round-off (|g| <= 2e-16)
    # for r < 0.02, where a noise sign change used to become an edge
    s = add_photons(binomial(6, 0.5), 2)
    radius = _disk_radius(s)
    edges = _radial_panel_edges(s.amplitudes, radius)[1:-1]
    spacing = radius / 4096
    for e in edges:
        near = _mean_profile(s.amplitudes, np.linspace(e - spacing, e + spacing, 9))
        assert np.max(np.abs(near)) >= 1e-15
    assert len(edges) == 4 and edges[0] > 0.5


def test_panel_edges_computed_once_per_wln_call(monkeypatch):
    edge_calls, batches, batch_weights = [], [], []

    def edges_spy(amps, radius):
        edge_calls.append(radius)
        return _radial_panel_edges(amps, radius)

    def integrals_spy(weights, lo, hi, angular):
        batches.append((len(lo), angular))
        batch_weights.append(weights)
        return _phase_space_integrals(weights, lo, hi, angular)

    monkeypatch.setattr(wigner, "_radial_panel_edges", edges_spy)
    monkeypatch.setattr(wigner, "_phase_space_integrals", integrals_spy)
    for s, quad, refines in (
        (fock(1, 2), QuadratureSpec(), False),
        (_REFINES, QuadratureSpec(wln_tolerance=1e-5), True),
    ):
        edge_calls.clear()
        batches.clear()
        batch_weights.clear()
        got = wigner_log_negativity_detailed(s, quad)
        assert edge_calls == [_disk_radius(s)]
        first = len(_initial_sub_panels(_radial_panel_edges(s.amplitudes, _disk_radius(s)))[0])
        # the first batch is every initial sub-panel; later ones are halves
        # of split sub-panels, two per split
        assert batches[0] == (first, 256)
        assert (len(batches) > 1) == refines
        assert all(n % 2 == 0 and angular == 256 for n, angular in batches[1:])
        assert got.nodes == 15 * sum(n for n, _ in batches)
        assert got.angular_nodes == 256
        assert got.refinement_delta <= quad.wln_tolerance
        # one real weight matrix per state, shared by every batch
        assert all(w is batch_weights[0] for w in batch_weights)
        assert batch_weights[0].dtype == np.float64


def test_phase_space_integrals_unit_mass(rng):
    for dim in (1, 4, 9):
        s = random_state(rng, dim)
        edges = _radial_panel_edges(s.amplitudes, _disk_radius(s))
        *_, signed = _phase_space_integrals(
            _pair_weights(s.amplitudes), *_initial_sub_panels(edges), 128
        )
        assert abs(signed.sum() - 1.0) < 1e-9


def test_composite_rule_exact_to_degree_31():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert np.array_equal(wigner._GL_NODES, nodes)
    assert np.array_equal(wigner._GL_WEIGHTS, weights)
    lo, hi = -0.5, 1.5
    for panels in (1, 2, 3, 7, 16):
        unit_x, unit_w = _unit_composite_rule(panels)
        x, w = lo + (hi - lo) * unit_x, (hi - lo) * unit_w
        assert len(x) == 16 * panels
        assert math.isclose(w.sum(), hi - lo, rel_tol=1e-14)
        for j in range(32):
            exact = (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
            assert math.isclose(w @ x**j, exact, rel_tol=1e-12)


def test_gauss_kronrod_rule_exact_to_degrees_22_and_13():
    from numpy.polynomial.legendre import leggauss

    nodes, (kronrod, gauss) = wigner._GK_NODES, wigner._GK_WEIGHTS.T
    assert len(nodes) == 15 and np.all(np.diff(nodes) > 0.0)
    gauss_nodes, gauss_weights = leggauss(7)
    assert np.allclose(nodes[1::2], gauss_nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(gauss[1::2], gauss_weights, rtol=0.0, atol=1e-15)
    assert np.all(gauss[::2] == 0.0)
    for j in range(24):
        exact = (1.0 - (-1.0) ** (j + 1)) / (j + 1)
        assert math.isclose(kronrod @ nodes**j, exact, rel_tol=1e-14, abs_tol=1e-15)
        if j < 14:
            assert math.isclose(gauss @ nodes**j, exact, rel_tol=1e-14, abs_tol=1e-15)
    # one degree past each rule, neither is exact
    assert not math.isclose(kronrod @ nodes**24, 2.0 / 25.0, rel_tol=1e-10)
    assert not math.isclose(gauss @ nodes**14, 2.0 / 15.0, rel_tol=1e-10)


def test_no_gauss_legendre_rule_built_at_run_time(monkeypatch):
    def refuse(*args):
        raise AssertionError("a quadrature rule was built at run time")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)  # the solver of numpy's leggauss
    # a refining log-negativity and an oracle point use tabulated rules only
    got = wigner_log_negativity_detailed(_REFINES, QuadratureSpec(wln_tolerance=1e-5))
    assert got.refinement_delta <= 1e-5
    oracle = wigner_oracle_point(_REFINES, 1.0, -0.5)
    assert abs(oracle - wigner_point(_REFINES, 1.0, -0.5)) < 1e-7


# A one-offset normalised Laguerre recurrence, kept here as the reference the
# blocked kernel must match bit for bit; it shares no code with the library.


def _one_offset_weights(amps):
    if not np.any(amps.imag):
        amps = amps.real
    d = len(amps)
    signed = np.conj(amps) * ((1.0 - 2.0 * (np.arange(d) % 2)) / math.pi)
    for a in range(d):
        yield a, amps[a:] * signed[: d - a] * (2.0 if a else 1.0)


def _one_offset_modes(amps, z):
    """g[a] = sum_n w[a, n] L~_n^a(z), each offset by its own recurrence
    from L~_0^a = L~_0^{a-1} sqrt(z/a), L~_0^0 = exp(-z/2)."""
    rows = []
    start, root = np.exp(-0.5 * z), np.sqrt(z)
    for a, w in _one_offset_weights(amps):
        if a:
            start = start * ((1.0 / np.sqrt(float(a))) * root)
        l_prev, l_curr = 0.0, start
        acc = w[0] * l_curr
        for n in range(1, len(w)):
            fall = math.sqrt((n - 1.0) * (n - 1.0 + a))
            l_prev, l_curr = l_curr, (
                ((2.0 * n - 1.0 + a - z) * l_curr - fall * l_prev) * (1.0 / math.sqrt(n * (n + a)))
            )
            acc = acc + w[n] * l_curr
        rows.append(acc)
    return np.array(rows)


def _one_offset_wigner(amps, x, p):
    """W = Re sum_a g_a u^a by Horner's rule, u = (x - ip)/r, point by point."""
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    r2 = (x * x + p * p).ravel()
    r = np.sqrt(r2)
    safe = np.where(r > 0.0, r, 1.0)
    u = np.where(r > 0.0, x.ravel() / safe, 1.0) + 1j * np.where(r > 0.0, -p.ravel() / safe, 0.0)
    total = np.zeros(len(r), dtype=complex)
    for mode in _one_offset_modes(amps, 2.0 * r2)[::-1]:
        total = total * u + mode
    return total.real.reshape(x.shape)


def _old_formula_modes(amps, r):
    """The same modes by the unscaled recurrence of L_n^a(2 r^2) with the
    envelope (2 - delta_a0)/pi (-r)^a e^{-r^2} sqrt(2^a n!/(n+a)!) outside."""
    d = len(amps)
    z = 2.0 * r * r
    log_fact = gammaln(np.arange(d) + 1.0)
    rows = []
    for a in range(d):
        n = np.arange(d - a)
        coeff = np.exp(0.5 * (a * math.log(2.0) + log_fact[n] - log_fact[n + a]))
        w = np.conj(amps[: d - a]) * amps[a:] * (-1.0) ** (n + a) * coeff
        l_prev, l_curr = np.zeros_like(z), np.ones_like(z)
        acc = w[0] * l_curr
        for k in range(1, d - a):
            l_prev, l_curr = l_curr, ((2 * k - 1 + a - z) * l_curr - (k - 1 + a) * l_prev) / k
            acc = acc + w[k] * l_curr
        rows.append(acc * (2.0 - (a == 0)) / math.pi * (-r) ** a * np.exp(-r * r))
    return np.array(rows)


def _kernel_states(rng):
    for d in (1, 2, 12, 42, 201):
        yield random_state(rng, d)
        yield normalize(rng.normal(size=d))
    yield pahs(HypergeometricParams(pinned_L(10, 0.9, 2.0), 10, 0.9, 1))


def _assert_same_modes(s, r):
    z = 2.0 * r * r
    blocks = list(_radial_modes(_pair_weights(s.amplitudes), z))
    assert [lo for lo, _ in blocks] == list(range(0, len(z), wigner._NODE_BLOCK))
    ref = _one_offset_modes(s.amplitudes, z)
    assert np.array_equal(np.concatenate([g for _, g in blocks], axis=1), ref)
    return ref


def test_blocked_kernel_matches_one_offset_recurrence_bit_for_bit(rng, monkeypatch):
    # small blocks, so that node counts fall below, on and across a node
    # block, blocks of up to 4 nodes take 5 offsets per recurrence, and
    # states of more than 5 levels span several offset blocks
    monkeypatch.setattr(wigner, "_NODE_BLOCK", 8)
    monkeypatch.setattr(wigner, "_OFFSET_BLOCK", 5)
    for s in _kernel_states(rng):
        amps = s.amplitudes
        radius = _disk_radius(s)
        for count in (3, 7, 8, 9, 17) if s.dim < 201 else (3, 17):
            r = np.linspace(0.01, radius, count)
            ref = _assert_same_modes(s, r)
            scale = np.max(np.abs(ref), initial=1.0)
            assert np.max(np.abs(_old_formula_modes(amps, r) - ref)) <= 1e-13 * scale
        xs, ps = np.linspace(-3.0, 2.0, 5), np.linspace(-2.5, 2.5, 4)
        grid = wigner_grid(s, -3.0, 2.0, -2.5, 2.5, 5, 4)
        assert np.array_equal(grid.values, _one_offset_wigner(amps, xs[:, None], ps))
        for x, p in rng.uniform(-3.0, 3.0, size=(2 if s.dim < 201 else 1, 2)):
            assert wigner_point(s, x, p) == _one_offset_wigner(amps, x, p)


def test_blocked_kernel_matches_one_offset_recurrence_at_the_default_blocks(rng):
    block = wigner._NODE_BLOCK
    for d in (1, 12):
        for s in (random_state(rng, d), normalize(rng.normal(size=d))):
            for count in (block - 1, block, block + 1):
                _assert_same_modes(s, np.linspace(0.01, 6.0, count))
    # more levels than one offset block holds
    for s in (random_state(rng, 42), normalize(rng.normal(size=42))):
        _assert_same_modes(s, np.linspace(0.01, 10.0, 300))


def test_kernel_start_value_at_the_origin_is_quiet():
    # every L~_0^{a>0} vanishes at z = 0; no log of zero may warn there
    s = normalize(np.ones(20))
    g = np.concatenate([g for _, g in _radial_modes(_pair_weights(s.amplitudes), np.zeros(3))], 1)
    assert np.all(g[1:] == 0.0) and np.all(g[0] == g[0, 0])
    assert wigner_point(s, 0.0, 0.0) == g[0, 0]


# The supported range ends at 1001 Fock levels. The references below share
# no code with the kernel.


@pytest.mark.parametrize("n", [500, 1000])
def test_high_fock_wigner_matches_60_digit_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    s = fock(n, n + 1)
    radius = _disk_radius(s)
    r = np.array([0.0, 0.3, 2.0, 0.5 * radius, 0.8 * radius,
                  math.sqrt(2 * n + 1) - 0.5, radius - 1.0, radius])
    with mpmath.workdps(60):
        want = [float((-1) ** n / mpmath.pi * mpmath.exp(-mpmath.mpf(x) ** 2)
                      * mpmath.laguerre(n, 0, 2 * mpmath.mpf(x) ** 2)) for x in r]
    theta = 0.7  # a Fock state is radial
    got = _wigner_array(s.amplitudes, r * math.cos(theta), r * math.sin(theta))
    assert np.max(np.abs(got - want)) <= 1e-11


@pytest.mark.parametrize("alpha, dim", [(13.0, 271), (20.0, 550)])
def test_large_coherent_wigner_is_the_displaced_vacuum(alpha, dim):
    # dim is the CLI's automatic truncation (tail mass <= 1e-12)
    s = coherent_truncated(alpha, dim)
    peak = math.sqrt(2.0) * alpha
    x, p = peak + np.array([-1.0, -0.3, 0.0, 0.4, 1.0]), np.array([-0.7, 0.0, 0.5])
    got = _wigner_array(s.amplitudes, x[:, None], p[None, :])
    want = np.exp(-((x[:, None] - peak) ** 2) - p[None, :] ** 2) / math.pi
    assert np.max(np.abs(got - want)) <= 1e-6


def test_far_field_bound():
    # |L_n^a(z)| <= 2^(n+a) z^n for z >= 1, so |L~_n^a(z)| < e^{-z/2} (2 z)^d
    # for a state of d > n + a levels; at z = 2 _FAR_FIELD^2 that lies below
    # the smallest double up to d = 2e16
    from scipy.special import eval_genlaguerre

    for n, a, z in itertools.product((0, 1, 7, 30), (0, 2, 15), (1.0, 3.5, 40.0, 1e4)):
        assert abs(eval_genlaguerre(n, a, z)) <= 2.0 ** (n + a) * z ** n
    z = 2.0 * wigner._FAR_FIELD ** 2
    assert -0.5 * z + 2e16 * math.log(2.0 * z) < math.log(math.ulp(0.0))


@pytest.mark.parametrize("state", [
    fock(0, 1),
    pahs(HypergeometricParams(40.0, 4, 0.3, 1)),
    normalize(np.linspace(1.0, 2.0, 12) * np.exp(0.4j * np.arange(12))),
    fock(1000, 1001),
])
def test_w_is_zero_past_the_far_field(state):
    # up to the cut-off the closed form itself gives 0; past it no overflow,
    # cast or NaN may arise (x^2 + p^2 overflows from 1.34e154 on)
    far = wigner._FAR_FIELD
    points = [(far, 0.0), (0.7 * far, -0.7 * far), (far * (1 + 1e-15), 0.0),
              (2.6e9, 1.0), (1.5e154, 0.0), (0.0, -1e200), (1e200, -1e200),
              (1e308, 0.0), (-1.7976931348623157e308, 1.7976931348623157e308)]
    for x, p in points:
        assert wigner_point(state, x, p) == 0.0


def _scaled_laguerre(n, t):
    """e^{-t/2} L_n(t) by the plain recurrence on a running log scale."""
    log_scale, l_prev, l_curr = -0.5 * t, np.zeros_like(t), np.ones_like(t)
    for k in range(1, n + 1):
        l_prev, l_curr = l_curr, ((2 * k - 1 - t) * l_curr - (k - 1) * l_prev) / k
        big = np.abs(l_curr) > 1e100
        l_prev[big] *= 1e-100
        l_curr[big] *= 1e-100
        log_scale[big] += 100.0 * math.log(10.0)
    return l_curr * np.exp(log_scale)


@pytest.mark.parametrize("n", [500, 1000])
def test_high_fock_panel_edges_find_every_zero(n):
    # L_n has n simple zeros, all inside the disk: n disjoint brackets of a
    # sign change are all of them
    s = fock(n, n + 1)
    radius = _disk_radius(s)
    edges = _radial_panel_edges(s.amplitudes, radius)[1:-1]
    assert len(edges) == n
    step = 1e-9 * radius
    assert np.all(np.diff(edges) > 2.0 * step)
    lo, hi = (_scaled_laguerre(n, 2.0 * (edges + d) ** 2) for d in (-step, step))
    assert np.all(lo * hi < 0.0)


def _fock_abs_integral(n):
    """Integral of |W| for |n> in 1-D: (1/2) int_0^inf e^{-t/2} |L_n(t)| dt,
    with panels between the zeros of L_n (scipy) and 64-node Gauss-Legendre
    on 4 sub-panels each."""
    from numpy.polynomial.legendre import leggauss
    from scipy.special import roots_laguerre

    with np.errstate(over="ignore"):  # in the quadrature weights, not the roots
        roots = roots_laguerre(n)[0]
    ends = np.concatenate([[0.0], roots, [2.0 * (math.sqrt(2 * n + 1) + 5.0) ** 2]])
    ends = np.linspace(ends[:-1], ends[1:], 5).T  # 4 sub-panels per panel
    x, w = leggauss(64)
    lo, hi = ends[:, :-1].ravel()[:, None], ends[:, 1:].ravel()[:, None]
    t = (0.5 * (hi - lo) * (x + 1.0) + lo).ravel()
    wt = (0.5 * (hi - lo) * w).ravel()
    return 0.5 * wt @ np.abs(_scaled_laguerre(n, t))


def test_fock_300_wln_matches_one_dimensional_reference():
    got = wigner_log_negativity_detailed(fock(300, 301))
    assert abs(got.value - math.log(_fock_abs_integral(300))) <= 1e-9
    assert abs(got.wigner_integral - 1.0) <= 1e-9
