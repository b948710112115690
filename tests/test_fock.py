import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfock import (
    FockState,
    InvalidParams,
    ZeroState,
    add_photons,
    fock,
    mean_photon_number,
    normalize,
    overlap,
    photon_number_distribution,
)
from conftest import random_state


def test_normalize_scaling():
    s = normalize([2.0, 0.0, 0.0])
    assert np.allclose(s.amplitudes, [1.0, 0.0, 0.0])


def test_normalize_symmetric():
    s = normalize([1.0, 1.0])
    assert np.allclose(s.amplitudes, [1.0 / math.sqrt(2)] * 2)


def test_normalize_zero_raises():
    with pytest.raises(ZeroState):
        normalize([0.0, 0.0])
    with pytest.raises(ZeroState):
        normalize([0.0, 1e-320])


def test_fockstate_rejects_unnormalized():
    with pytest.raises(ValueError):
        FockState(np.array([1.0, 1.0]))


@pytest.mark.parametrize("amps", [np.ones((1, 1)), np.zeros(0)])
def test_fockstate_rejects_a_non_vector(amps):
    with pytest.raises(ValueError, match="nonempty 1-d vector"):
        FockState(amps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_fockstate_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="not unit-norm"):
        FockState(np.array([bad, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_normalize_rejects_non_finite_amplitudes(bad):
    # not a NaN state, and not a "numerically zero" one either
    with pytest.raises(InvalidParams, match="non-finite amplitudes") as caught:
        normalize([bad, 1.0])
    assert not isinstance(caught.value, ZeroState)


def test_fockstate_amplitudes_read_only():
    s = fock(0, 3)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_add_photon_to_vacuum():
    s = add_photons(fock(0, 1), 1)
    assert s.dim == 2
    assert np.allclose(s.amplitudes, [0.0, 1.0])


def test_add_zero_photons_is_identity():
    s = normalize([1.0, 2.0, 0.5j])
    assert add_photons(s, 0) is s


def test_add_photon_to_superposition():
    # (|0> + |1>)/sqrt(2) gains weights sqrt(1), sqrt(2) -> (|1> + sqrt(2)|2>)/sqrt(3)
    s = add_photons(normalize([1.0, 1.0]), 1)
    expect = np.array([0.0, 1.0 / math.sqrt(3), math.sqrt(2.0 / 3.0)])
    assert np.allclose(s.amplitudes, expect, atol=1e-14)


def test_add_photons_low_indices_exactly_zero():
    s = add_photons(normalize([0.3, 0.4, 0.5]), 3)
    assert np.all(s.amplitudes[:3] == 0.0)


def test_add_photons_large_occupation_stable():
    # weights span (n+k)!/n! far beyond double-precision factorials
    s = add_photons(fock(150, 151), 100)
    assert np.isclose(np.sum(photon_number_distribution(s)), 1.0, atol=1e-12)
    assert np.argmax(photon_number_distribution(s)) == 250


@settings(max_examples=60, deadline=None)
@given(
    amps=st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
        ),
        min_size=1,
        max_size=12,
    ),
    k=st.integers(0, 4),
)
def test_add_photons_norm_and_mean_properties(amps, k):
    raw = np.array([complex(re, im) for re, im in amps])
    if np.linalg.norm(raw) < 1e-3:
        return
    s = normalize(raw)
    out = add_photons(s, k)
    assert out.dim == s.dim + k
    assert np.isclose(np.sum(photon_number_distribution(out)), 1.0, atol=1e-12)
    # photon addition shifts support up by k and reweights upward
    assert mean_photon_number(out) >= mean_photon_number(s) + k - 1e-9


def test_pnd_single_photon():
    assert np.allclose(photon_number_distribution(fock(1, 2)), [0.0, 1.0])


def test_pnd_sums_to_one(rng):
    for dim in (1, 5, 17):
        s = random_state(rng, dim)
        assert np.isclose(np.sum(photon_number_distribution(s)), 1.0, atol=1e-12)


def test_mean_photon_number_anchors():
    assert mean_photon_number(fock(0, 1)) == 0.0
    assert mean_photon_number(fock(7, 9)) == 7.0


def test_overlap_orthogonal_and_self():
    assert overlap(fock(0, 2), fock(1, 2)) == 0.0
    s = normalize([1.0, 1.0j, -0.5])
    assert np.isclose(overlap(s, s), 1.0)


def test_overlap_pads_shorter_state():
    a = fock(1, 2)
    b = fock(1, 6)
    assert np.isclose(overlap(a, b), 1.0)
    assert np.isclose(overlap(a, fock(4, 6)), 0.0)


def test_overlap_bounded(rng):
    for _ in range(20):
        a = random_state(rng, int(rng.integers(1, 10)))
        b = random_state(rng, int(rng.integers(1, 10)))
        assert abs(overlap(a, b)) <= 1.0 + 1e-12
