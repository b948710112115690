import json
import math

import numpy as np
import pytest

from hyperfock import (
    HypergeometricParams,
    InvalidParams,
    QuadratureNotConverged,
    QuadratureSpec,
    coherent_truncated,
    fock,
    normalize,
    pahs,
    pinned_L,
    wigner_grid,
    wigner_log_negativity,
    wigner_log_negativity_detailed,
    wigner_oracle_point,
    wigner_point,
)
from hyperfock import wigner
from hyperfock.wigner import (
    _oracle_integral,
    _phase_space_integrals,
    _radial_panel_edges,
    _wigner_array,
    _wigner_polar,
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


def test_wigner_is_real_in_direct_integral(rng):
    # the defining transform must come out real for any state
    quad = QuadratureSpec()
    for _ in range(4):
        s = random_state(rng, int(rng.integers(2, 10)))
        y_cut = quad.radius(s) + 1.0
        val = _oracle_integral(s.amplitudes, 1.0, -0.7, y_cut, 2000)
        assert abs(val.imag) < 1e-10


def test_grid_vacuum_positive_peaked():
    g = wigner_grid(fock(0, 1), nx=61, np=61)
    assert g.values.min() > 0.0
    i, j = np.unravel_index(np.argmax(g.values), g.values.shape)
    assert np.isclose(g.x_nodes[i], 0.0, atol=1e-12)
    assert np.isclose(g.p_nodes[j], 0.0, atol=1e-12)


def test_grid_pahs_has_negative_region():
    s = pahs(HypergeometricParams(L=200.0, M=10, eta=0.9, k=1))
    g = wigner_grid(s, x_min=-6, x_max=6, p_min=-6, p_max=6, nx=121, np=121)
    assert g.values.min() < 0.0


def test_grid_matches_pointwise():
    s = normalize([1.0, 0.5j, -0.3])
    g = wigner_grid(s, x_min=-1, x_max=1, p_min=-2, p_max=2, nx=5, np=7)
    assert g.values.shape == (5, 7)
    assert g.values[2, 3] == wigner_point(s, 0.0, 0.0)
    assert g.values[0, 0] == wigner_point(s, -1.0, -2.0)


def test_grid_trapezoid_integral_near_one():
    g = wigner_grid(fock(2, 3), x_min=-6, x_max=6, p_min=-6, p_max=6, nx=161, np=161)
    assert abs(g.integral() - 1.0) < 1e-3


def test_grid_values_read_only():
    g = wigner_grid(fock(0, 1), nx=11, np=11)
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_grid_csv_round_trip():
    s = fock(1, 2)
    g = wigner_grid(s, x_min=-1, x_max=1, p_min=-1, p_max=1, nx=3, np=3)
    lines = g.to_csv_text().strip().split("\n")
    assert lines[0] == "x,p,W"
    assert len(lines) == 1 + 9
    x, p, w = (float(tok) for tok in lines[5].split(","))  # row i=1, j=1
    assert (x, p) == (0.0, 0.0)
    assert np.isclose(w, -INV_PI, atol=1e-12)


def test_grid_json_round_trip():
    g = wigner_grid(fock(0, 1), x_min=-2, x_max=2, p_min=-2, p_max=2, nx=4, np=6)
    doc = json.loads(g.to_json_text())
    assert doc["nx"] == 4 and doc["np"] == 6 and doc["order"] == "x-major"
    vals = np.array(doc["values"]).reshape(4, 6)
    assert np.allclose(vals, g.values)


def test_quadrature_spec_validation():
    with pytest.raises(InvalidParams):
        QuadratureSpec(nodes=8)
    with pytest.raises(InvalidParams):
        QuadratureSpec(angular_nodes=8)
    with pytest.raises(InvalidParams):
        QuadratureSpec(wln_tolerance=0.0)
    # explicit cutoff below sqrt(2<n>) + 5 is rejected at use time
    spec = QuadratureSpec(cutoff=5.0)
    with pytest.raises(InvalidParams):
        spec.radius(fock(9, 10))


def test_quadrature_radius_tracks_support():
    spec = QuadratureSpec()
    assert np.isclose(spec.radius(fock(0, 1)), 6.0)
    assert np.isclose(spec.radius(fock(12, 13)), math.sqrt(25.0) + 5.0)
    # padding levels above the top occupied one do not widen the domain
    assert np.isclose(spec.radius(fock(0, 13)), 6.0)


def test_wln_vacuum_zero():
    assert abs(wigner_log_negativity(fock(0, 1))) < 1e-6


def test_wln_coherent_zero():
    assert abs(wigner_log_negativity(coherent_truncated(2.0, 40))) < 1e-4


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
    spec = QuadratureSpec()
    radius = spec.radius(s)
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
        assert wigner_log_negativity(s) >= -1e-6


def test_wln_convergence_guard():
    s = pahs(HypergeometricParams(40.0, 4, 0.3, 1))
    with pytest.raises(QuadratureNotConverged):
        wigner_log_negativity(s, QuadratureSpec(wln_tolerance=1e-12))


def test_wln_rejects_non_finite_result():
    # the unscaled Laguerre sums overflow for |300>; the NaN integral that
    # results must end as a convergence failure, never as a value
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureNotConverged):
            wigner_log_negativity_detailed(
                fock(300, 301), QuadratureSpec(nodes=64, angular_nodes=64)
            )


def _separable_form_states(rng):
    states = [random_state(rng, int(rng.integers(1, 21))) for _ in range(5)]
    return states + [pahs(HypergeometricParams(L=200.0, M=10, eta=0.9, k=1))]


def test_polar_form_matches_cartesian_on_quadrature_nodes(rng, monkeypatch):
    seen = []

    def spy(amps, r, theta):
        seen.append((r, theta))
        return _wigner_polar(amps, r, theta)

    monkeypatch.setattr(wigner, "_wigner_polar", spy)
    for s in _separable_form_states(rng):
        edges = _radial_panel_edges(s.amplitudes, QuadratureSpec().radius(s))
        _phase_space_integrals(s.amplitudes, edges, 128, 64)
        r, theta = seen.pop()
        polar = _wigner_polar(s.amplitudes, r, theta)
        cart = _wigner_array(
            s.amplitudes, r[:, None] * np.cos(theta), r[:, None] * np.sin(theta)
        )
        assert np.max(np.abs(polar - cart)) < 1e-13


def test_panel_edges_bracket_sign_changes_of_mean_profile(rng):
    from numpy.polynomial.laguerre import lagval

    for s in _separable_form_states(rng):
        probs = np.abs(s.amplitudes) ** 2
        signed = probs * (-1.0) ** np.arange(len(probs))
        radius = QuadratureSpec().radius(s)
        edges = _radial_panel_edges(s.amplitudes, radius)
        assert edges[0] == 0.0 and edges[-1] == radius
        step = 1e-9 * radius
        for e in edges[1:-1]:
            below = lagval(2.0 * (e - step) ** 2, signed)
            above = lagval(2.0 * (e + step) ** 2, signed)
            assert below * above < 0.0


def test_panel_edges_computed_once_per_wln_call(monkeypatch):
    edge_calls, pass_nodes = [], []

    def edges_spy(amps, radius):
        edge_calls.append(radius)
        return _radial_panel_edges(amps, radius)

    def integrals_spy(amps, edges, nodes, angular):
        pass_nodes.append(nodes)
        return _phase_space_integrals(amps, edges, nodes, angular)

    monkeypatch.setattr(wigner, "_radial_panel_edges", edges_spy)
    monkeypatch.setattr(wigner, "_phase_space_integrals", integrals_spy)
    # the second state needs both node doublings (see test_cli)
    doubles_twice = pahs(
        HypergeometricParams(pinned_L(15, 0.930485, 10.0), 15, 0.930485, 3)
    )
    for s, passes in ((fock(1, 2), [512, 1024]), (doubles_twice, [512, 1024, 2048])):
        edge_calls.clear()
        pass_nodes.clear()
        wigner_log_negativity_detailed(s)
        assert pass_nodes == passes
        assert edge_calls == [QuadratureSpec().radius(s)]


def test_wln_respects_explicit_cutoff():
    s = fock(1, 2)
    wide = wigner_log_negativity(s, QuadratureSpec(cutoff=9.0))
    auto = wigner_log_negativity(s)
    assert abs(wide - auto) < 1e-6


def test_phase_space_integrals_unit_mass(rng):
    for dim in (1, 4, 9):
        s = random_state(rng, dim)
        edges = _radial_panel_edges(s.amplitudes, QuadratureSpec().radius(s))
        _, total = _phase_space_integrals(s.amplitudes, edges, 256, 128)
        assert abs(total - 1.0) < 1e-9
