import math

import numpy as np
import pytest

from hyperfock import (
    HypergeometricParams,
    TwoModeState,
    beamsplitter_with_vacuum,
    coherent_truncated,
    concurrence_potential,
    fock,
    normalize,
    pahs,
    pinned_L,
    purity_closed_form_pahs,
    reduced_purity,
)
from hyperfock.special import log_factorials
from conftest import random_state


def test_vacuum_passes_through():
    t = beamsplitter_with_vacuum(fock(0, 1))
    assert t.amplitudes.shape == (1, 1)
    assert t.amplitudes[0, 0] == 1.0


def test_single_photon_split():
    t = beamsplitter_with_vacuum(fock(1, 2))
    want = np.zeros((2, 2), dtype=complex)
    want[1, 0] = 1.0 / math.sqrt(2)
    want[0, 1] = 1j / math.sqrt(2)
    assert np.allclose(t.amplitudes, want, atol=1e-14)


def test_two_photon_split():
    # |2> -> (1/2)|2,0> + (i/sqrt 2)|1,1> - (1/2)|0,2>
    t = beamsplitter_with_vacuum(fock(2, 3))
    want = np.zeros((3, 3), dtype=complex)
    want[2, 0] = 0.5
    want[1, 1] = 1j / math.sqrt(2)
    want[0, 2] = -0.5
    assert np.allclose(t.amplitudes, want, atol=1e-14)


def _splitter_per_level(amps):
    """|n, 0> -> 2^(-n/2) sum_j sqrt(C(n, j)) i^(n-j) |j, n-j>, one Fock
    level at a time, skipping zero amplitudes. It takes its log-factorials
    from the library's table, so the comparison pins the splitter's
    arithmetic rather than a source of log-gamma."""
    d = len(amps)
    out = np.zeros((d, d), dtype=complex)
    log_fact = log_factorials(d)
    i_pow = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)
    for n in range(d):
        if amps[n] == 0:
            continue
        j = np.arange(n + 1)
        log_coeff = 0.5 * (log_fact[n] - log_fact[j] - log_fact[n - j] - n * math.log(2.0))
        phases = np.array([i_pow[(n - jj) % 4] for jj in j])
        out[j, n - j] += amps[n] * phases * np.exp(log_coeff)
    return out


def test_splitter_matches_per_level_sum_bit_for_bit(rng):
    states = [random_state(rng, d) for d in (1, 2, 5, 17, 40)]
    # photon-added states have exact zero amplitudes below level k
    for M, eta, k in ((6, 0.3, 2), (20, 0.7, 3), (12, 0.5, 0)):
        states.append(pahs(HypergeometricParams(pinned_L(M, eta), M, eta, k)))
    for s in states:
        got = beamsplitter_with_vacuum(s).amplitudes
        want = _splitter_per_level(s.amplitudes)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_splitter_is_norm_preserving(rng):
    for _ in range(10):
        s = random_state(rng, int(rng.integers(1, 20)))
        t = beamsplitter_with_vacuum(s)
        norm_sq = np.vdot(t.amplitudes, t.amplitudes).real
        assert abs(norm_sq - 1.0) <= 1e-12


def test_splitter_conserves_photon_number():
    s = normalize([1.0, 0.0, 1.0])  # no single-photon component
    t = beamsplitter_with_vacuum(s)
    for j in range(3):
        for l in range(3):
            if j + l == 1:
                assert t.amplitudes[j, l] == 0.0
            if j + l > 2:
                assert t.amplitudes[j, l] == 0.0


def test_two_mode_state_validation():
    with pytest.raises(ValueError):
        TwoModeState(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        TwoModeState(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="not unit-norm"):
        TwoModeState(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_purity_product_state():
    assert np.isclose(reduced_purity(beamsplitter_with_vacuum(fock(0, 1))), 1.0)


def test_purity_maximally_entangled_pair():
    t = beamsplitter_with_vacuum(fock(1, 2))
    assert abs(reduced_purity(t) - 0.5) <= 1e-12


def test_real_convention_splitter_same_purity(rng):
    """The i-phase splitter convention differs from the all-real one only
    by local phases, so both must give the same reduced purity."""

    def real_splitter(state):
        d = state.dim
        out = np.zeros((d, d), dtype=complex)
        for n in range(d):
            for j in range(n + 1):
                out[j, n - j] += (
                    state.amplitudes[n] * math.sqrt(math.comb(n, j)) * 2.0 ** (-n / 2)
                )
        return TwoModeState(out)

    for _ in range(6):
        s = random_state(rng, int(rng.integers(1, 12)))
        a = reduced_purity(beamsplitter_with_vacuum(s))
        b = reduced_purity(real_splitter(s))
        assert abs(a - b) <= 1e-12


def test_concurrence_anchors():
    assert concurrence_potential(fock(0, 1)) == 0.0
    assert abs(concurrence_potential(fock(1, 2)) - 1.0) <= 1e-12


def test_concurrence_coherent_is_classical():
    assert concurrence_potential(coherent_truncated(1.5, 40)) <= 1e-6


def _closed_form_cases():
    for k in (0, 1, 2):
        yield HypergeometricParams(L=40.0, M=4, eta=0.3, k=k)
    # L at its bound; at eta in {0, 1} most log weights are -inf
    for M in (4, 14, 40):
        for k in range(4):
            for eta in (0.0, 0.3, 1.0):
                yield HypergeometricParams(pinned_L(M, eta, 1.0), M, eta, k)
    # the top of the closed form's practical range
    for eta in (0.3, 0.9):
        yield HypergeometricParams(pinned_L(100, eta), 100, eta, 2)


def test_closed_form_purity_matches_dense_path():
    for p in _closed_form_cases():
        dense = reduced_purity(beamsplitter_with_vacuum(pahs(p)))
        closed = purity_closed_form_pahs(p)
        assert abs(dense - closed) <= 1e-10 * closed


def test_closed_form_purity_trivial_cases():
    assert np.isclose(purity_closed_form_pahs(HypergeometricParams(2.0, 0, 0.5, 0)), 1.0)
    # eta = 0 with one added photon is |1>, whose split has purity 1/2
    assert np.isclose(
        purity_closed_form_pahs(HypergeometricParams(10.0, 5, 0.0, 1)), 0.5, atol=1e-12
    )


def test_concurrence_decreases_with_eta_near_zero():
    # close to eta = 0 the state is nearly a Fock state and entanglement
    # potential falls as eta grows
    for k in (3, 4):
        vals = [
            concurrence_potential(
                pahs(HypergeometricParams(pinned_L(5, e, 2.0), 5, e, k))
            )
            for e in (0.01, 0.02, 0.03, 0.04, 0.05)
        ]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_concurrence_slope_breaks_at_half():
    """With L pinned to its eta-dependent minimum, the pinning rule switches
    branch at eta = 1/2 and the concurrence picks up a slope discontinuity
    there, well above the discretization noise at smooth points."""

    def c_of_eta(eta):
        p = HypergeometricParams(pinned_L(5, eta, 2.0), 5, eta, 1)
        return concurrence_potential(pahs(p))

    h = 1e-3

    def derivative_jump(eta0):
        left = (c_of_eta(eta0) - c_of_eta(eta0 - h)) / h
        right = (c_of_eta(eta0 + h) - c_of_eta(eta0)) / h
        return abs(right - left)

    noise = max(derivative_jump(0.4), derivative_jump(0.6), 1e-12)
    assert derivative_jump(0.5) > 10.0 * noise
