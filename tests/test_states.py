import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammainc

from hyperfock import (
    HypergeometricParams,
    IndexOutOfRange,
    InvalidParams,
    NegativeCoefficient,
    TruncationTooSmall,
    add_photons,
    binomial,
    coherent_tail_mass,
    coherent_truncated,
    fock,
    hypergeometric,
    log_binomial_real,
    min_valid_L,
    overlap,
    pahs,
    pahs_norm_constant,
    photon_number_distribution,
    pinned_L,
)
from hyperfock.states import _log_binomial_prefix


# ------------------------------------------------------------ log binomials


@pytest.mark.parametrize("x", [1, 2, 5, 12, 30])
def test_log_binomial_matches_integer_binomials(x):
    for n in range(x + 1):
        got = log_binomial_real(float(x), n)
        want = math.log(math.comb(x, n))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_log_binomial_trivial_cases():
    assert log_binomial_real(3.5, 0) == 0.0
    assert np.isclose(log_binomial_real(5.0, 2), math.log(10.0), atol=1e-13)


def test_log_binomial_real_upper_index():
    # direct product oracle: C(7.2, 3) = 7.2 * 6.2 * 5.2 / 6
    want = math.log(7.2 * 6.2 * 5.2 / 6.0)
    assert np.isclose(log_binomial_real(7.2, 3), want, atol=1e-13)


def test_log_binomial_zero_factor_gives_neg_inf():
    # C(4, 6) contains the factor (4 - 4) = 0
    assert log_binomial_real(4.0, 6) == -math.inf
    assert log_binomial_real(0.0, 1) == -math.inf
    assert log_binomial_real(0.0, 3) == -math.inf


def test_log_binomial_negative_factor_raises():
    with pytest.raises(NegativeCoefficient):
        log_binomial_real(4.5, 6)


@pytest.mark.parametrize("call, match", [
    (lambda: log_binomial_real(3.0, -1), "nonnegative integer"),
    (lambda: binomial(-1, 0.5), "nonnegative integer"),
    (lambda: coherent_truncated(1.0, 0), "positive integer"),
])
def test_negative_or_empty_sizes_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_log_binomial_prefix_consistent_with_scalar():
    for x in (9.0, 17.3, 0.0, 4.0):
        pre = _log_binomial_prefix(x, 8)
        for n in range(9):
            scalar = log_binomial_real(x, n)
            if scalar == -math.inf:
                assert pre[n] == -math.inf
            else:
                assert np.isclose(pre[n], scalar, atol=1e-12)


# ------------------------------------------------------------------ params


def test_params_validation():
    with pytest.raises(InvalidParams):
        HypergeometricParams(L=10.0, M=5, eta=1.2)
    with pytest.raises(InvalidParams):
        HypergeometricParams(L=10.0, M=5, eta=-0.1)
    with pytest.raises(InvalidParams):
        HypergeometricParams(L=-3.0, M=2, eta=0.5)
    with pytest.raises(InvalidParams):
        HypergeometricParams(L=10.0, M=-1, eta=0.5)
    with pytest.raises(InvalidParams):
        HypergeometricParams(L=10.0, M=5, eta=0.5, k=-2)
    # L below max(M/eta, M/(1-eta))
    with pytest.raises(InvalidParams):
        HypergeometricParams(L=19.0, M=5, eta=0.25)


def test_params_boundary_L_accepted():
    HypergeometricParams(L=20.0, M=5, eta=0.25)  # exactly M/eta
    HypergeometricParams(L=5.0, M=5, eta=0.0)  # endpoint rule: L >= M


def test_min_valid_and_pinned_L():
    assert min_valid_L(5, 0.25) == 20.0
    assert min_valid_L(5, 0.0) == 5.0
    assert min_valid_L(0, 0.3) == 0.0
    assert pinned_L(5, 0.1, 2.0) == 100.0
    assert pinned_L(0, 0.3, 2.0) == 2.0
    with pytest.raises(InvalidParams):
        pinned_L(5, 0.5, 0.5)


# ----------------------------------------------------------- hypergeometric


def test_hypergeometric_eta_zero_is_vacuum():
    s = hypergeometric(HypergeometricParams(L=10.0, M=4, eta=0.0))
    assert np.allclose(s.amplitudes, fock(0, 5).amplitudes)


def test_hypergeometric_eta_one_is_top_fock():
    s = hypergeometric(HypergeometricParams(L=10.0, M=4, eta=1.0))
    assert np.allclose(s.amplitudes, fock(4, 5).amplitudes)


def test_hypergeometric_M_zero_is_vacuum():
    s = hypergeometric(HypergeometricParams(L=3.0, M=0, eta=0.5))
    assert s.dim == 1
    assert s.amplitudes[0] == 1.0


def test_hypergeometric_integer_combinatorics():
    # L=20, M=3, eta=0.5: pnd = (C(10,n) C(10,3-n)) / C(20,3) = (120,450,450,120)/1140
    s = hypergeometric(HypergeometricParams(L=20.0, M=3, eta=0.5))
    want = np.sqrt(np.array([120, 450, 450, 120]) / 1140.0)
    assert np.allclose(s.amplitudes, want, atol=1e-14)


@pytest.mark.parametrize("L,M,eta", [(40.0, 4, 0.3), (60.0, 5, 0.2), (200.0, 10, 0.9)])
def test_hypergeometric_pnd_formula(L, M, eta):
    """PND equals C(L eta, n) C(L(1-eta), M-n) / C(L, M), evaluated here by
    direct floating products as an independent oracle."""

    def falling(x, n):
        out = 1.0
        for j in range(n):
            out *= x - j
        return out

    def comb_real(x, n):
        return falling(x, n) / math.factorial(n)

    s = hypergeometric(HypergeometricParams(L, M, eta))
    denom = comb_real(L, M)
    for n in range(M + 1):
        want = comb_real(L * eta, n) * comb_real(L * (1 - eta), M - n) / denom
        assert abs(photon_number_distribution(s)[n] - want) <= 1e-12


def test_hypergeometric_requires_k_zero():
    with pytest.raises(InvalidParams):
        hypergeometric(HypergeometricParams(L=40.0, M=4, eta=0.3, k=1))


def test_hypergeometric_huge_L_stable():
    s = hypergeometric(HypergeometricParams(L=1e8, M=6, eta=0.4))
    assert np.isclose(np.sum(photon_number_distribution(s)), 1.0, atol=1e-12)


# --------------------------------------------------------------------- pahs


def test_pahs_k_zero_equals_hypergeometric():
    p0 = HypergeometricParams(L=60.0, M=5, eta=0.2, k=0)
    assert np.array_equal(pahs(p0).amplitudes, hypergeometric(p0).amplitudes)


def test_pahs_eta_zero_single_addition_is_one_photon():
    s = pahs(HypergeometricParams(L=10.0, M=5, eta=0.0, k=1))
    assert np.allclose(s.amplitudes, fock(1, 7).amplitudes)


def test_pahs_low_levels_empty():
    s = pahs(HypergeometricParams(L=60.0, M=5, eta=0.2, k=2))
    assert s.dim == 8
    assert np.all(s.amplitudes[:2] == 0.0)


def test_pahs_norm_constant_matches_raw_vector():
    """The closed-form normalization must equal 1/norm of the unnormalized
    amplitude vector. L*eta and L*(1-eta) are integers here, so the raw
    vector is built from exact rational combinatorics."""
    p = HypergeometricParams(L=60.0, M=5, eta=0.2, k=2)
    got = pahs_norm_constant(p)
    raw_sq = sum(
        Fraction(math.comb(12, n) * math.comb(48, 5 - n), math.comb(60, 5))
        * Fraction(math.factorial(n + 2), math.factorial(n))
        for n in range(6)
    )
    want = 1.0 / math.sqrt(float(raw_sq))
    assert abs(got - want) <= 1e-12 * want


def test_pahs_amplitudes_match_direct_construction():
    # amplitude at n+k proportional to c_n sqrt((n+k)!/n!)
    p = HypergeometricParams(L=40.0, M=4, eta=0.3, k=2)
    base = hypergeometric(HypergeometricParams(40.0, 4, 0.3))
    raw = np.zeros(7)
    for n in range(5):
        raw[n + 2] = base.amplitudes[n].real * math.sqrt(
            math.factorial(n + 2) / math.factorial(n)
        )
    want = raw / np.linalg.norm(raw)
    assert np.allclose(pahs(p).amplitudes, want, atol=1e-13)


# ----------------------------------------------------------------- binomial


def test_binomial_endpoints_exact():
    assert np.array_equal(binomial(5, 1.0).amplitudes, fock(5, 6).amplitudes)
    assert np.array_equal(binomial(5, 0.0).amplitudes, fock(0, 6).amplitudes)


def test_binomial_pnd():
    s = binomial(4, 0.3)
    want = [math.comb(4, n) * 0.3**n * 0.7 ** (4 - n) for n in range(5)]
    assert np.allclose(photon_number_distribution(s), want, atol=1e-14)


def test_binomial_is_large_L_limit_of_hypergeometric():
    b = binomial(5, 0.3)
    h = hypergeometric(HypergeometricParams(L=1e6, M=5, eta=0.3))
    assert abs(overlap(h, b)) ** 2 >= 1.0 - 1e-4


def test_binomial_rejects_bad_eta():
    with pytest.raises(InvalidParams):
        binomial(4, 1.5)


# ----------------------------------------------------------------- coherent


def test_coherent_alpha_zero_is_vacuum():
    s = coherent_truncated(0.0, 7)
    assert np.array_equal(s.amplitudes, fock(0, 7).amplitudes)


def test_coherent_pnd_is_poisson():
    s = coherent_truncated(1.0, 40)
    want = np.array([math.exp(-1.0) / math.factorial(n) for n in range(40)])
    assert np.max(np.abs(photon_number_distribution(s) - want)) < 1e-10


def test_coherent_is_binomial_limit():
    c = coherent_truncated(1.0, 40)
    b = binomial(10_000, 1e-4)
    assert abs(overlap(b, c)) ** 2 >= 1.0 - 1e-3


def test_coherent_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        coherent_truncated(3.0, 5)
    assert coherent_tail_mass(3.0, 5) > 1e-8
    assert coherent_tail_mass(1.0, 40) < 1e-12


def test_coherent_tail_mass_matches_gammainc():
    for alpha in np.linspace(0.5, 31.0, 62):
        for dim in range(1, 1400, 11):
            want = gammainc(dim, alpha * alpha)
            if want > 1e-300:
                assert abs(coherent_tail_mass(alpha, dim) - want) <= 1e-11 * want
    assert coherent_tail_mass(0.0, 1) == 0.0
    assert coherent_tail_mass(1e200, 1001) == 1.0
    # past about 1.5e307, 12 alpha overflows as well as alpha^2
    assert coherent_tail_mass(1e308, 4) == coherent_tail_mass(1e308, 1001) == 1.0
    assert math.isnan(coherent_tail_mass(math.nan, 5))


def test_coherent_rejects_negative_alpha():
    with pytest.raises(InvalidParams):
        coherent_truncated(-1.0, 10)


# --------------------------------------------------------------------- fock


def test_fock_anchors():
    assert np.array_equal(fock(0, 1).amplitudes, [1.0 + 0.0j])
    assert np.array_equal(fock(3, 5).amplitudes, [0, 0, 0, 1, 0])


def test_fock_out_of_range():
    with pytest.raises(IndexOutOfRange):
        fock(5, 5)
    with pytest.raises(IndexOutOfRange):
        fock(-1, 3)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_repeated_creation_on_vacuum(k):
    got = add_photons(fock(0, 1), k)
    assert np.allclose(got.amplitudes, fock(k, k + 1).amplitudes)
