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


def test_purity_product_state():
    assert np.isclose(reduced_purity(beamsplitter_with_vacuum(fock(0, 1))), 1.0)


def test_purity_maximally_entangled_pair():
    t = beamsplitter_with_vacuum(fock(1, 2))
    assert abs(reduced_purity(t) - 0.5) <= 1e-12


def test_purity_same_for_either_mode(rng):
    for _ in range(8):
        t = beamsplitter_with_vacuum(random_state(rng, int(rng.integers(1, 15))))
        assert abs(reduced_purity(t, "A") - reduced_purity(t, "B")) <= 1e-12
    with pytest.raises(ValueError):
        reduced_purity(t, "C")


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
