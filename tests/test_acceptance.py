"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them all; failures
carry the same detail in the assertion message). Trend tests record their
wall time and the final test enforces the whole-suite budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite import hermval

from hyperfock import (
    HypergeometricParams,
    QuadratureSpec,
    anticlassicality,
    beamsplitter_with_vacuum,
    binomial,
    coherent_truncated,
    concurrence_potential,
    fock,
    hypergeometric,
    mean_photon_number,
    normalize,
    overlap,
    pahs,
    photon_number_distribution,
    pinned_L,
    purity_closed_form_pahs,
    reduced_purity,
    sps_quality_mu,
    wigner_grid,
    wigner_log_negativity_detailed,
    wigner_oracle_point,
    wigner_point,
)
from hyperfock.wigner import _wigner_array

_trend_times = {}
_wln_cache = {}


def _report(label, ok, detail=""):
    line = f"acceptance {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _params(M, eta, k, coeff):
    return HypergeometricParams(pinned_L(M, eta, coeff), M, eta, k)


def _pahs_state(M, eta, k, coeff):
    return pahs(_params(M, eta, k, coeff))


def _nondecreasing(vals):
    return all(b >= a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- criterion 1


def test_criterion_1_wigner_oracle_equivalence():
    """Closed-form Wigner values agree with the direct transform integral
    within 1e-6 absolute on a 7x7 lattice, >= 10 states, dim <= 15, < 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    states = [
        _pahs_state(10, 0.9, 0, 2.0),
        _pahs_state(10, 0.9, 1, 2.0),
        fock(0, 1),
        fock(1, 2),
        fock(3, 4),
        coherent_truncated(1.0, 15),
        binomial(8, 0.3),
        hypergeometric(HypergeometricParams(20.0, 3, 0.5)),
        pahs(HypergeometricParams(60.0, 5, 0.2, 2)),
        normalize(rng.normal(size=12) + 1j * rng.normal(size=12)),
        normalize(rng.normal(size=12) + 1j * rng.normal(size=12)),
    ]
    assert len(states) >= 10
    assert all(s.dim <= 15 for s in states)
    lattice = np.linspace(-3.0, 3.0, 7)
    worst = 0.0
    for s in states:
        for x in lattice:
            for p in lattice:
                diff = abs(wigner_point(s, x, p) - wigner_oracle_point(s, x, p))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _report(
        "1 wigner oracle equivalence",
        worst < 1e-6 and elapsed < 60.0,
        f"worst |closed - oracle| = {worst:.3e}, {len(states)} states, {elapsed:.1f} s",
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_2_purity_oracle_equivalence():
    """Closed-form splitter purity vs the dense two-mode path, 1e-10
    relative, over M <= 6, k <= 3, eta in {0.1..0.9}, L = 2 max(M/eta,
    M/(1-eta)) (L = 2 at M = 0 where the bound degenerates). < 30 s."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for M in range(0, 7):
        for k in range(0, 4):
            for eta in np.round(np.arange(0.1, 0.91, 0.1), 2):
                p = HypergeometricParams(pinned_L(M, float(eta), 2.0), M, float(eta), k)
                dense = reduced_purity(beamsplitter_with_vacuum(pahs(p)))
                closed = purity_closed_form_pahs(p)
                worst = max(worst, abs(dense - closed) / closed)
                count += 1
    elapsed = time.perf_counter() - start
    _report(
        "2 purity oracle equivalence",
        worst < 1e-10 and elapsed < 30.0,
        f"worst relative mismatch = {worst:.3e} over {count} points, {elapsed:.1f} s",
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_exact_anchors():
    checks = {
        "C(|1>) = 1": abs(concurrence_potential(fock(1, 2)) - 1.0) <= 1e-12,
        "splitter purity(|1>) = 1/2": abs(
            reduced_purity(beamsplitter_with_vacuum(fock(1, 2))) - 0.5
        )
        <= 1e-12,
        "W_|1>(0,0) = -1/pi": abs(wigner_point(fock(1, 2), 0.0, 0.0) + 1.0 / math.pi)
        <= 1e-9,
        "W_vac(0,0) = +1/pi": abs(wigner_point(fock(0, 1), 0.0, 0.0) - 1.0 / math.pi)
        <= 1e-9,
        "mu(k=2 state) = 0 exactly": sps_quality_mu(
            pahs(HypergeometricParams(60.0, 5, 0.2, 2))
        )
        == 0.0,
        "A(|0>, m>0) = 0": anticlassicality(fock(0, 1)) == 0.0,
        "A(|1>) = 1": anticlassicality(fock(1, 2)) == 1.0,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _report("3 exact anchors", not bad, "all seven anchors" if not bad else str(bad))


# ------------------------------------------------------------- criterion 4


def test_criterion_4_normalization_suite():
    states = {
        "vacuum": fock(0, 1),
        "fock3": fock(3, 8),
        "fock7": fock(7, 8),
        "coherent1": coherent_truncated(1.0, 25),
        "coherent2": coherent_truncated(2.0, 30),
        "hypergeometric": hypergeometric(HypergeometricParams(20.0, 3, 0.5)),
        "pahs_k2": pahs(HypergeometricParams(60.0, 5, 0.2, 2)),
        "pahs_k1": _pahs_state(10, 0.9, 1, 2.0),
        "binomial": binomial(10, 0.5),
        "binomial29": binomial(29, 0.9),
    }
    assert all(s.dim <= 30 for s in states.values())
    problems = []
    for name, s in states.items():
        if abs(float(np.sum(photon_number_distribution(s))) - 1.0) > 1e-12:
            problems.append(f"{name}: pnd sum")
        detail = wigner_log_negativity_detailed(s)
        if abs(detail.wigner_integral - 1.0) > 1e-6:
            problems.append(f"{name}: int W = {detail.wigner_integral}")
    wln_vac = wigner_log_negativity_detailed(states["vacuum"]).value
    if abs(wln_vac) > 1e-6:
        problems.append(f"wln(vacuum) = {wln_vac}")
    for alpha in (1.0, 2.0):
        w = wigner_log_negativity_detailed(coherent_truncated(alpha, 40)).value
        if abs(w) > 1e-4:
            problems.append(f"wln(coherent {alpha}) = {w}")
    for alpha in (1.0, 1.5, 2.0):
        c = concurrence_potential(coherent_truncated(alpha, 40))
        if abs(c) > 1e-6:
            problems.append(f"C(coherent {alpha}) = {c}")
    _report(
        "4 normalization suite",
        not problems,
        f"{len(states)} states" if not problems else "; ".join(problems),
    )


# ------------------------------------------------------------- criterion 5


def test_criterion_5_limit_lattice():
    problems = []
    fid_binom = (
        abs(overlap(hypergeometric(HypergeometricParams(1e6, 5, 0.3)), binomial(5, 0.3)))
        ** 2
    )
    if fid_binom < 1.0 - 1e-4:
        problems.append(f"L->inf fidelity {fid_binom}")
    if not np.array_equal(binomial(5, 1.0).amplitudes, fock(5, 6).amplitudes):
        problems.append("binomial(eta=1) != |M>")
    if not np.array_equal(binomial(5, 0.0).amplitudes, fock(0, 6).amplitudes):
        problems.append("binomial(eta=0) != |0>")
    fid_coh = abs(overlap(binomial(10_000, 1e-4), coherent_truncated(1.0, 40))) ** 2
    if fid_coh < 1.0 - 1e-3:
        problems.append(f"M->inf fidelity {fid_coh}")
    _report(
        "5 limit lattice",
        not problems,
        f"fidelities {fid_binom:.6f}, {fid_coh:.6f}" if not problems else "; ".join(problems),
    )


# ------------------------------------------------------------- references
#
# Criteria 6a and 6c are certified against the two helpers below. They
# share no code with hyperfock.states, hyperfock.fockspace or
# hyperfock.wigner: only the float fields of a HypergeometricParams go in.

_MOYAL_STEP = 0.02


def _exact_pnd(p):
    """Photon-number distribution of pahs(p) in exact rational arithmetic.

    p_{n+k} is proportional to C(L eta, n) C(L (1 - eta), M - n) (n+k)!/n!,
    with C(x, n) = x (x-1) ... (x-n+1) / n! taken on the exact values of
    the float L and eta.
    """
    L, eta = Fraction(p.L), Fraction(p.eta)

    def binom(x, n):
        out = Fraction(1, math.factorial(n))
        for j in range(n):
            out *= x - j
        return out

    weights = [Fraction(0)] * p.k + [
        binom(L * eta, n)
        * binom(L * (1 - eta), p.M - n)
        * (math.factorial(n + p.k) // math.factorial(n))
        for n in range(p.M + 1)
    ]
    total = sum(weights)
    return [w / total for w in weights]


def _moyal_wln(pnd):
    """ln of the integral of |W| for the state with amplitudes sqrt(pnd).

    W(x, p) = (1/pi) int psi(x+y) psi(x-y) cos(2py) dy, with psi a sum of
    Hermite functions, is summed on a uniform square grid of spacing
    _MOYAL_STEP. The window half-width is at least the library's disk
    radius sqrt(2 n_top + 1) + 5, with n_top the highest level, and the
    grid has at least 601 points a side. Both x + y and x - y fall on the
    grid's lattice, so one matrix product gives W at every grid point.
    """
    amps = np.sqrt([float(q) for q in pnd])
    c = math.ceil((math.sqrt(2.0 * len(amps) - 1.0) + 5.0) / _MOYAL_STEP)
    assert 2 * c + 1 >= 601
    norms = [
        math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        for n in range(len(amps))
    ]
    u = _MOYAL_STEP * np.arange(-2 * c, 2 * c + 1)
    psi = hermval(u, amps / norms) * np.exp(-0.5 * u * u)
    i = np.arange(2 * c + 1)[:, None]
    j = np.arange(2 * c + 1)[None, :]
    # row i is x = (i - c) step, column j is y = (j - c) step
    pairs = psi[i + j] * psi[i - j + 2 * c]
    y = _MOYAL_STEP * np.arange(-c, c + 1)
    w = (_MOYAL_STEP / math.pi) * (pairs @ np.cos(2.0 * np.outer(y, y)))
    cell = _MOYAL_STEP * _MOYAL_STEP
    assert abs(w.sum() * cell - 1.0) <= 1e-6, f"reference int W = {w.sum() * cell}"
    return math.log(np.abs(w).sum() * cell)


# ------------------------------------------------------------- criterion 6

# (M, k) of each criterion-6a state, keyed by the sweep it belongs to
_6A_POINTS = {("k", k): (10, k) for k in range(4)} | {
    ("M", M): (M, 1) for M in (5, 10, 15)
}


def _wln_6a_states():
    """WLN details for the criterion-6a states, cached for criterion 7.
    L follows the smallest-valid-value rule scaled by 10."""
    if not _wln_cache:
        for key, (M, k) in _6A_POINTS.items():
            s = _pahs_state(M, 0.9, k, 10.0)
            _wln_cache[key] = wigner_log_negativity_detailed(s)
    return _wln_cache


def test_criterion_6a_wln_trends():
    """WLN against photon addition k and dimension M (pahs, eta = 0.9,
    L = 10 x its smallest valid value).

    The abstract claims that WLN rises with photon addition and as M
    decreases. Sample points: k = 0..3 at M = 10, and M = 5, 10, 15 at
    k = 1. The k trend holds: WLN is nondecreasing in k. The M trend holds
    only above M = 10: WLN(10) > WLN(15), while WLN(5) < WLN(10), because
    WLN against M is hump-shaped with its peak near M = 9-10 (at fixed L
    too). Every program value must lie within 1e-4, the default
    wln_tolerance, of a reference that takes exact amplitudes from
    _exact_pnd and W from the Moyal integral on a square grid
    (_moyal_wln).
    """
    start = time.perf_counter()
    details = _wln_6a_states()
    ref = {
        key: _moyal_wln(_exact_pnd(_params(M, 0.9, k, 10.0)))
        for key, (M, k) in _6A_POINTS.items()
    }
    worst = max(abs(details[key].value - ref[key]) for key in _6A_POINTS)
    ok_ref = worst <= 1e-4
    by_k = [details[("k", k)].value for k in range(4)]
    by_m = [details[("M", M)].value for M in (5, 10, 15)]
    ok_k = _nondecreasing(by_k)
    ok_m = by_m[0] < by_m[1] > by_m[2]
    _trend_times["6a"] = time.perf_counter() - start

    def side_by_side(sweep, values):
        return ", ".join(
            f"{details[(sweep, v)].value:.5f}/{ref[(sweep, v)]:.5f}" for v in values
        )

    _report(
        "6a wln trends",
        ok_k and ok_m and ok_ref,
        f"WLN(k) program/reference=[{side_by_side('k', range(4))}] "
        f"nondecreasing={ok_k}; "
        f"WLN(M in 5,10,15) program/reference=[{side_by_side('M', (5, 10, 15))}] "
        f"rises to M=10 then falls={ok_m}; "
        f"worst |program - reference| = {worst:.1e} (<= 1e-4: {ok_ref})",
    )


def test_criterion_6b_concurrence_rises_with_addition():
    start = time.perf_counter()
    vals = [
        concurrence_potential(_pahs_state(5, 0.1, k, 2.0)) for k in range(5)
    ]
    ok = _nondecreasing(vals)
    _trend_times["6b"] = time.perf_counter() - start
    _report("6b concurrence vs k", ok, f"C(k)={np.round(vals, 5).tolist()}")


def _anticlassicality_rows(points):
    """Per point: program A, exact reference A, the reference's dominant
    level argmax_{m>=1} p_m, and program <n>."""
    rows = []
    for p in points:
        state = pahs(p)
        pnd = _exact_pnd(p)
        top = max(range(1, len(pnd)), key=pnd.__getitem__)
        rows.append(
            (anticlassicality(state), float(pnd[top]), top, mean_photon_number(state))
        )
    return rows


def test_criterion_6c_anticlassicality_trends():
    """Anticlassicality A = max_{m>=1} p_m along sweeps of k, M and eta
    (pahs, L = 2 x its smallest valid value).

    The abstract claims that anticlassicality is best where the parameters
    keep <n> low. Sample points: k = 1..5 at M = 5 and at M = 10, and
    M = 5..10 at k = 1, all at eta = 0.18; eta = 0.2..0.9 at M = 5, k = 1.
    <n> rises along every sweep. In the k and M sweeps the claim holds in
    this form: A is largest at the lowest-<n> point. A is not monotone,
    though: it scallops, and rises between neighbours only where the
    dominant level argmax_{m>=1} p_m changes. In the eta sweep the claim
    departs: A is largest at eta = 0.9, since the state tends to the Fock
    state |M+k> as eta -> 1. The dominant-level rule is not asserted for
    eta, which reshapes the distribution rather than shifting it. Every A
    must match the exact rational reference of _exact_pnd within 1e-12.
    """
    start = time.perf_counter()
    sweeps = {
        f"A(k)@M={M}": [_params(M, 0.18, k, 2.0) for k in range(1, 6)] for M in (5, 10)
    }
    sweeps["A(M)"] = [_params(M, 0.18, 1, 2.0) for M in range(5, 11)]
    etas = np.round(np.arange(0.2, 0.91, 0.1), 2)
    sweeps["A(eta)"] = [_params(5, float(e), 1, 2.0) for e in etas]
    details = []
    ok_all = True
    for name, points in sweeps.items():
        a, a_ref, top, mean_n = zip(*_anticlassicality_rows(points))
        worst = max(abs(x - y) for x, y in zip(a, a_ref))
        ok = worst <= 1e-12 and all(n1 > n0 for n0, n1 in zip(mean_n, mean_n[1:]))
        if name == "A(eta)":
            ok &= int(np.argmax(a)) == len(a) - 1
        else:
            ok &= int(np.argmax(a)) == int(np.argmin(mean_n))
            ok &= all(
                a1 <= a0 or t1 != t0 for a0, a1, t0, t1 in zip(a, a[1:], top, top[1:])
            )
        ok_all &= ok
        details.append(
            f"{name} program/reference=["
            + ", ".join(f"{x:.5f}/{y:.5f}" for x, y in zip(a, a_ref))
            + f"] worst={worst:.1e} argmax_m={list(top)} "
            f"<n>={np.round(mean_n, 3).tolist()} ok={ok}"
        )
    _trend_times["6c"] = time.perf_counter() - start
    _report("6c anticlassicality trends", ok_all, "; ".join(details))


def test_criterion_6d_single_addition_never_helps_mu():
    start = time.perf_counter()
    pairs = []
    for eta in (0.05, 0.275, 0.5, 0.725, 0.95):
        L = pinned_L(5, eta, 2.0)
        mu0 = sps_quality_mu(hypergeometric(HypergeometricParams(L, 5, eta)))
        mu1 = sps_quality_mu(pahs(HypergeometricParams(L, 5, eta, 1)))
        pairs.append((eta, mu0, mu1))
    ok = all(mu1 <= mu0 for _, mu0, mu1 in pairs)
    _trend_times["6d"] = time.perf_counter() - start
    _report(
        "6d mu(k=1) <= mu(k=0)",
        ok,
        "; ".join(f"eta={e}: {m1:.4g} <= {m0:.4g}" for e, m0, m1 in pairs),
    )


def _positive_axis_sign_changes(state, radius, samples=2000):
    x = np.linspace(1e-3, radius, samples)
    w = _wigner_array(state.amplitudes, x, np.zeros_like(x))
    w = w[np.abs(w) > 1e-12]
    return int(np.sum(np.sign(w[:-1]) != np.sign(w[1:])))


def test_criterion_6e_photon_addition_adds_rings():
    start = time.perf_counter()
    rings0 = _positive_axis_sign_changes(_pahs_state(10, 0.9, 0, 2.0), 10.0)
    rings1 = _positive_axis_sign_changes(_pahs_state(10, 0.9, 1, 2.0), 10.0)
    ok = rings1 > rings0
    _trend_times["6e"] = time.perf_counter() - start
    _report("6e ring count k=1 > k=0", ok, f"{rings0} -> {rings1}")


def test_criterion_6f_minimum_shallower_at_lower_eta():
    start = time.perf_counter()
    mins = {}
    for eta in (0.75, 0.9):
        g = wigner_grid(
            _pahs_state(10, eta, 1, 2.0),
            x_min=-6, x_max=6, p_min=-6, p_max=6, nx=161, n_p=161,
        )
        mins[eta] = float(g.values.min())
    ok = mins[0.75] > mins[0.9]
    _trend_times["6f"] = time.perf_counter() - start
    _report(
        "6f wigner minimum ordering",
        ok,
        f"min(eta=0.75)={mins[0.75]:.5f} > min(eta=0.9)={mins[0.9]:.5f}",
    )


def test_criterion_6_runtime_budget():
    total = sum(_trend_times.values())
    _report(
        "6 trend-suite runtime < 5 min",
        len(_trend_times) == 6 and total < 300.0,
        f"{total:.1f} s over {sorted(_trend_times)}",
    )


# ------------------------------------------------------------- criterion 7


def test_criterion_7_wln_error_within_default_tolerance():
    """The default-tolerance WLN of every criterion-6a state lies within
    1e-4 of the same WLN refined to wln_tolerance = 1e-7."""
    details = _wln_6a_states()
    tight = QuadratureSpec(wln_tolerance=1e-7)
    refined = {
        key: wigner_log_negativity_detailed(_pahs_state(M, 0.9, k, 10.0), tight).value
        for key, (M, k) in _6A_POINTS.items()
    }
    worst = max(abs(details[key].value - refined[key]) for key in _6A_POINTS)
    _report(
        "7 wln error within the default tolerance",
        worst < 1e-4,
        f"worst |WLN(1e-4) - WLN(1e-7)| = {worst:.3e}",
    )
