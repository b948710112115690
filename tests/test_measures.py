import math

import numpy as np
import pytest

from hyperfock import (
    HypergeometricParams,
    MeasureReport,
    anticlassicality,
    coherent_truncated,
    fock,
    hypergeometric,
    measure_report,
    normalize,
    pahs,
    pinned_L,
    sps_quality_mu,
)
from conftest import random_state


def test_mu_single_photon_is_infinite():
    assert sps_quality_mu(fock(1, 2)) == math.inf


def test_mu_vacuum_is_undefined():
    assert math.isnan(sps_quality_mu(fock(0, 1)))
    assert math.isnan(sps_quality_mu(fock(0, 4)))


def test_mu_double_addition_is_exactly_zero():
    # two added photons force p0 = p1 = 0
    s = pahs(HypergeometricParams(L=60.0, M=5, eta=0.2, k=2))
    assert sps_quality_mu(s) == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_mu_coherent_analytic(alpha):
    # Poisson statistics give mu = a^2 e^{-a^2} / (1 - e^{-a^2}(1 + a^2))
    got = sps_quality_mu(coherent_truncated(alpha, 40))
    a2 = alpha * alpha
    want = a2 * math.exp(-a2) / (1.0 - math.exp(-a2) * (1.0 + a2))
    assert np.isclose(got, want, atol=1e-12)
    if alpha == 1.0:
        assert np.isclose(got, 1.392, atol=1e-3)


def test_mu_global_phase_invariant():
    s = normalize([0.5, 0.6, 0.4, 0.2, 0.1j])
    rotated = normalize(s.amplitudes * np.exp(1j * 0.83))
    assert np.isclose(sps_quality_mu(rotated), sps_quality_mu(s), rtol=1e-12)


def test_mu_ignores_tail_redistribution():
    # same p0, p1; the mass above m=1 split differently
    a = normalize(np.sqrt([0.3, 0.3, 0.4, 0.0, 0.0]))
    b = normalize(np.sqrt([0.3, 0.3, 0.1, 0.1, 0.2]))
    assert np.isclose(sps_quality_mu(a), sps_quality_mu(b), atol=1e-14)


def test_mu_single_addition_never_helps():
    # adding one photon lowers mu against the bare state at the same (L, M, eta)
    for eta in (0.05, 0.275, 0.5, 0.725, 0.95):
        L = pinned_L(5, eta, 2.0)
        bare = sps_quality_mu(hypergeometric(HypergeometricParams(L, 5, eta)))
        added = sps_quality_mu(pahs(HypergeometricParams(L, 5, eta, 1)))
        assert added <= bare


def test_anticlassicality_anchors():
    assert anticlassicality(fock(0, 1)) == 0.0
    assert anticlassicality(fock(0, 1), include_vacuum=True) == 1.0
    assert anticlassicality(fock(1, 2)) == 1.0
    for n in (1, 4, 9):
        assert anticlassicality(fock(n, n + 1)) == 1.0


def test_anticlassicality_bounds(rng):
    for _ in range(25):
        s = random_state(rng, int(rng.integers(1, 14)))
        a = anticlassicality(s)
        a_vac = anticlassicality(s, include_vacuum=True)
        assert 0.0 <= a <= a_vac <= 1.0


def test_anticlassicality_vacuum_dominated():
    s = normalize(np.sqrt([0.9, 0.06, 0.04]))
    assert np.isclose(anticlassicality(s), 0.06)
    assert np.isclose(anticlassicality(s, include_vacuum=True), 0.9)


def test_measure_report_fields():
    s = fock(1, 2)
    r = measure_report(s, include=("mu", "anticlassicality", "mean_n"))
    assert isinstance(r, MeasureReport)
    assert r.mu == math.inf
    assert r.anticlassicality == 1.0
    assert r.anticlassicality_with_vacuum == 1.0
    assert r.mean_n == 1.0
    assert r.concurrence is None and r.wln is None


def test_measure_report_full():
    s = pahs(HypergeometricParams(40.0, 4, 0.3, 1))
    r = measure_report(s)
    assert 0.0 <= r.anticlassicality <= r.anticlassicality_with_vacuum <= 1.0
    assert r.mean_n >= 0.0
    assert r.concurrence > 0.0
    assert r.wln > 0.0
    assert r.wln_detail.refinement_delta < 1e-4
    assert r.wln_detail.nodes > 0 and r.wln_detail.angular_nodes > 0


def test_measure_report_rejects_unknown():
    with pytest.raises(ValueError):
        measure_report(fock(0, 1), include=("mu", "sparkle"))
