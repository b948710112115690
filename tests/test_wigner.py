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
    wigner_log_negativity,
    wigner_log_negativity_detailed,
    wigner_oracle_point,
    wigner_point,
)
from hyperfock import wigner
from hyperfock.wigner import (
    _angular_integrals,
    _leggauss_scaled,
    _oracle_integral,
    _pair_weights,
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


def test_grid_trapezoid_integral_near_one():
    g = wigner_grid(fock(2, 3), x_min=-6, x_max=6, p_min=-6, p_max=6, nx=161, n_p=161)
    assert abs(g.integral() - 1.0) < 1e-3


def test_grid_values_read_only():
    g = wigner_grid(fock(0, 1), nx=11, n_p=11)
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_grid_csv_round_trip():
    s = fock(1, 2)
    g = wigner_grid(s, x_min=-1, x_max=1, p_min=-1, p_max=1, nx=3, n_p=3)
    lines = g.to_csv_text().strip().split("\n")
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
    assert g.to_csv_text() == "\n".join(want) + "\n"


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


def _polar_weights(amps):
    """The pair weights the log-negativity uses: real for real amplitudes."""
    return _pair_weights(amps if np.any(amps.imag) else amps.real)


def test_polar_form_matches_cartesian_on_quadrature_nodes(rng, monkeypatch):
    seen = []

    def spy(weights, r, theta):
        seen.append((r, theta))
        return _wigner_polar(weights, r, theta)

    monkeypatch.setattr(wigner, "_wigner_polar", spy)
    for s in _separable_form_states(rng):
        weights = _polar_weights(s.amplitudes)
        edges = _radial_panel_edges(s.amplitudes, QuadratureSpec().radius(s))
        _phase_space_integrals(weights, edges, 128, 64)
        r, theta = seen.pop()
        assert len(theta) == 32  # half of the 64 midpoint nodes
        c, sn = _wigner_polar(weights, r, theta)
        sn = 0.0 if sn is None else sn
        for mirror in (1.0, -1.0):  # the nodes t and 2 pi - t
            cart = _wigner_array(
                s.amplitudes,
                r[:, None] * np.cos(theta),
                mirror * r[:, None] * np.sin(theta),
            )
            assert np.max(np.abs(c + mirror * sn - cart)) < 1e-13


def _full_circle_sums(amps, r, angular):
    """Midpoint-rule integrals of |W| and W around each circle, from W at
    every node of the full circle."""
    theta = 2.0 * math.pi * (np.arange(angular) + 0.5) / angular
    values = _wigner_array(amps, r[:, None] * np.cos(theta), r[:, None] * np.sin(theta))
    step = 2.0 * math.pi / angular
    return step * np.abs(values).sum(axis=1), step * values.sum(axis=1)


def test_half_circle_sums_match_full_circle(rng):
    real = [pahs(HypergeometricParams(L=200.0, M=10, eta=0.9, k=1)),
            coherent_truncated(1.5, 16), normalize(rng.normal(size=9))]
    complex_ = [random_state(rng, d) for d in (3, 12)]
    for s in real + complex_:
        amps = s.amplitudes
        weights = _polar_weights(amps)
        r = np.linspace(0.0, QuadratureSpec().radius(s), 97)[1:]
        assert (_wigner_polar(weights, r, np.zeros(1))[1] is None) == (s in real)
        for angular in (64, 33):
            abs_sums, sums = _angular_integrals(weights, r, angular)
            ref_abs, ref = _full_circle_sums(amps, r, angular)
            assert np.all(np.abs(abs_sums - ref_abs) <= 1e-13 * ref_abs)
            assert np.all(np.abs(sums - ref) <= 1e-13 * ref_abs)


def _mean_profile(amps, r):
    """sum_n p_n (-1)^n L_n(2 r^2) by numpy's Clenshaw evaluation."""
    from numpy.polynomial.laguerre import lagval

    probs = np.abs(amps) ** 2
    return lagval(2.0 * np.asarray(r) ** 2, probs * (-1.0) ** np.arange(len(probs)))


def test_panel_edges_bracket_sign_changes_of_mean_profile(rng):
    for s in _separable_form_states(rng):
        radius = QuadratureSpec().radius(s)
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
        radius = QuadratureSpec().radius(s)
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

    def profile(w, a, z):  # one zero, at r = 1, and exactly 0.0 within 1e-6 of it
        assert w.shape[0] == 1 and a == 0  # the a = 0 mode alone
        calls.append(len(z))
        r = np.sqrt(0.5 * z)
        return np.where(np.abs(r - 1.0) < 1e-6, 0.0, r - 1.0)[None]

    monkeypatch.setattr(wigner, "_laguerre_sums", profile)
    edges = _radial_panel_edges(fock(1, 2).amplitudes, 3.0)
    assert len(edges) == 3 and abs(edges[1] - 1.0) < 1e-6
    assert calls == [4097, 1]  # the probe, then one step that lands on the zero


def test_panel_edges_skip_round_off_sign_changes():
    # the mean profile of this state is nil to round-off (|g| <= 2e-16)
    # for r < 0.02, where a noise sign change used to become an edge
    s = add_photons(binomial(6, 0.5), 2)
    radius = QuadratureSpec().radius(s)
    edges = _radial_panel_edges(s.amplitudes, radius)[1:-1]
    spacing = radius / 4096
    for e in edges:
        near = _mean_profile(s.amplitudes, np.linspace(e - spacing, e + spacing, 9))
        assert np.max(np.abs(near)) >= 1e-15
    assert len(edges) == 4 and edges[0] > 0.5


def test_panel_edges_computed_once_per_wln_call(monkeypatch):
    edge_calls, pass_nodes, pass_weights = [], [], []

    def edges_spy(amps, radius):
        edge_calls.append(radius)
        return _radial_panel_edges(amps, radius)

    def integrals_spy(weights, edges, nodes, angular):
        pass_nodes.append(nodes)
        pass_weights.append(weights)
        return _phase_space_integrals(weights, edges, nodes, angular)

    monkeypatch.setattr(wigner, "_radial_panel_edges", edges_spy)
    monkeypatch.setattr(wigner, "_phase_space_integrals", integrals_spy)
    # the second state needs both node doublings at tolerance 1e-5 (see test_cli)
    doubles_twice = pahs(
        HypergeometricParams(pinned_L(12, 0.928008, 10.0), 12, 0.928008, 2)
    )
    for s, quad, passes in (
        (fock(1, 2), QuadratureSpec(), [512, 1024]),
        (doubles_twice, QuadratureSpec(wln_tolerance=1e-5), [512, 1024, 2048]),
    ):
        edge_calls.clear()
        pass_nodes.clear()
        pass_weights.clear()
        wigner_log_negativity_detailed(s, quad)
        assert pass_nodes == passes
        assert edge_calls == [QuadratureSpec().radius(s)]
        # one real weight matrix per state, shared by every pass
        assert all(w is pass_weights[0] for w in pass_weights)
        assert pass_weights[0].dtype == np.float64


def test_wln_respects_explicit_cutoff():
    s = fock(1, 2)
    wide = wigner_log_negativity(s, QuadratureSpec(cutoff=9.0))
    auto = wigner_log_negativity(s)
    assert abs(wide - auto) < 1e-6


def test_phase_space_integrals_unit_mass(rng):
    for dim in (1, 4, 9):
        s = random_state(rng, dim)
        edges = _radial_panel_edges(s.amplitudes, QuadratureSpec().radius(s))
        _, total = _phase_space_integrals(_pair_weights(s.amplitudes), edges, 256, 128)
        assert abs(total - 1.0) < 1e-9


def test_composite_rule_exact_to_degree_31():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert np.array_equal(wigner._GL_NODES, nodes)
    assert np.array_equal(wigner._GL_WEIGHTS, weights)
    lo, hi = -0.5, 1.5
    for panels in (1, 2, 3, 7, 16):
        x, w = _leggauss_scaled(panels, lo, hi)
        assert len(x) == 16 * panels
        assert math.isclose(w.sum(), hi - lo, rel_tol=1e-14)
        for j in range(32):
            exact = (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
            assert math.isclose(w @ x**j, exact, rel_tol=1e-12)


def test_no_gauss_legendre_rule_built_at_run_time(monkeypatch):
    def refuse(*args):
        raise AssertionError("a quadrature rule was built at run time")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)  # the solver of numpy's leggauss
    s = pahs(HypergeometricParams(pinned_L(12, 0.928008, 10.0), 12, 0.928008, 2))
    # doubles twice at tolerance 1e-5 (see test_cli)
    got = wigner_log_negativity_detailed(s, QuadratureSpec(wln_tolerance=1e-5))
    assert got.nodes == 2048
    assert abs(wigner_oracle_point(s, 1.0, -0.5) - wigner_point(s, 1.0, -0.5)) < 1e-7


# The per-offset recurrence the blocked kernel replaced, kept here as the
# reference it must match bit for bit; it shares no code with the library.


def _one_offset_weights(amps):
    d = len(amps)
    log_fact = gammaln(np.arange(d) + 1.0)
    for a in range(d):
        n = np.arange(d - a)
        log_coeff = 0.5 * (a * math.log(2.0) + log_fact[n] - log_fact[n + a])
        signs = 1.0 - 2.0 * ((n + a) % 2)
        yield a, np.conj(amps[: d - a]) * amps[a:] * signs * np.exp(log_coeff)


def _one_offset_sum(w, a, z):
    acc = w[0] * np.ones(z.shape, dtype=np.result_type(w, z))
    l_prev, l_curr = 0.0, np.ones(z.shape)
    for n in range(1, len(w)):
        l_prev, l_curr = (
            l_curr,
            ((2.0 * n - 1.0 + a - z) * l_curr - (n - 1.0 + a) * l_prev) / n,
        )
        acc += w[n] * l_curr
    return acc


def _one_offset_cartesian(amps, x, p):
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = x * x + p * p
    z = 2.0 * r2
    if z.ndim:
        zu, inv = np.unique(z, return_inverse=True)
        inv = inv.reshape(z.shape)
    out = np.zeros(z.shape)
    zstep = 1j * p - x
    zpow = np.ones(z.shape, dtype=complex)
    for a, w in _one_offset_weights(amps):
        acc = _one_offset_sum(w, a, zu)[inv] if z.ndim else _one_offset_sum(w, a, z)
        out += acc.real if a == 0 else 2.0 * (acc * zpow).real
        zpow = zpow * zstep
    return out * (np.exp(-r2) / math.pi)


def _one_offset_polar(amps, r, theta):
    if not np.any(amps.imag):
        amps = amps.real
    z = 2.0 * r * r
    modes = np.empty((len(r), len(amps)), dtype=amps.dtype)
    rpow = np.exp(-r * r) / math.pi
    for a, w in _one_offset_weights(amps):
        modes[:, a] = _one_offset_sum(w, a, z) * (rpow if a == 0 else 2.0 * rpow)
        rpow = rpow * -r
    at = np.outer(np.arange(len(amps)), theta)
    c = modes.real @ np.cos(at)
    return c, (modes.imag @ np.sin(at) if np.iscomplexobj(modes) else None)


def _kernel_states(rng):
    for d in (1, 2, 12, 42, 201):
        yield random_state(rng, d)
        yield normalize(rng.normal(size=d))
    yield pahs(HypergeometricParams(pinned_L(10, 0.9, 2.0), 10, 0.9, 1))


def _assert_same_polar(s, r):
    theta = np.linspace(0.1, 3.0, 5)
    c, sn = _wigner_polar(_polar_weights(s.amplitudes), r, theta)
    ref_c, ref_s = _one_offset_polar(s.amplitudes, r, theta)
    assert np.array_equal(c, ref_c)
    assert (sn is None and ref_s is None) or np.array_equal(sn, ref_s)


def test_blocked_kernel_matches_one_offset_recurrence_bit_for_bit(rng, monkeypatch):
    # small blocks, so that node counts fall below, on and across a node
    # block, and states of more than 5 levels span several offset blocks
    monkeypatch.setattr(wigner, "_NODE_BLOCK", 8)
    monkeypatch.setattr(wigner, "_OFFSET_BLOCK", 5)
    for s in _kernel_states(rng):
        amps = s.amplitudes
        radius = QuadratureSpec().radius(s)
        for count in (7, 8, 9, 17) if s.dim < 201 else (17,):
            _assert_same_polar(s, np.linspace(0.01, radius, count))
        xs, ps = np.linspace(-3.0, 2.0, 5), np.linspace(-2.5, 2.5, 4)
        grid = wigner_grid(s, -3.0, 2.0, -2.5, 2.5, 5, 4)
        assert np.array_equal(grid.values, _one_offset_cartesian(amps, xs[:, None], ps))
        for x, p in rng.uniform(-3.0, 3.0, size=(2 if s.dim < 201 else 1, 2)):
            assert wigner_point(s, x, p) == _one_offset_cartesian(amps, x, p)


def test_blocked_kernel_matches_one_offset_recurrence_at_the_default_blocks(rng):
    block = wigner._NODE_BLOCK
    for d in (1, 12):
        for s in (random_state(rng, d), normalize(rng.normal(size=d))):
            for count in (block - 1, block, block + 1):
                _assert_same_polar(s, np.linspace(0.01, 6.0, count))
    # more levels than one offset block holds
    for s in (random_state(rng, 42), normalize(rng.normal(size=42))):
        _assert_same_polar(s, np.linspace(0.01, 10.0, 300))
