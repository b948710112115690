import math
import os
import subprocess
import sys
import warnings

import numpy as np
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

import hyperfock
from hyperfock.special import log_factorials, logsumexp


def test_log_factorials_match_gammaln():
    n = np.arange(2200)
    got = log_factorials(2199)[:2200]
    want = gammaln(n + 1.0)
    assert np.all(np.abs(got - want) <= 5e-16 * np.abs(want))


def test_log_factorials_are_inf_at_the_poles():
    lf = log_factorials(10)
    assert np.all(lf[np.maximum(np.arange(-30, 0), -1)] == math.inf)
    assert lf[np.maximum(np.arange(3), -1)].tolist() == lf[:3].tolist()


def test_log_factorials_grow_and_stay_read_only():
    lf = log_factorials(5000)
    assert len(lf) > 5001 and lf[-1] == math.inf
    assert lf[5000] == math.lgamma(5001.0)
    assert not lf.flags.writeable


def test_logsumexp_matches_scipy(rng):
    for shape in ((1,), (7,), (3, 5), (4, 6, 8)):
        x = 50.0 * rng.normal(size=shape)
        x.flat[0] = -math.inf
        for axis in (None, 0, -1):
            want = scipy_logsumexp(x, axis=axis)
            assert np.allclose(logsumexp(x, axis=axis), want, rtol=1e-15, atol=0.0)


def test_logsumexp_of_all_minus_inf_is_minus_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert logsumexp([-math.inf] * 3) == -math.inf
        rows = logsumexp(np.array([[-math.inf, -math.inf], [0.0, -math.inf]]), axis=1)
    assert rows.tolist() == [-math.inf, 0.0]


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hyperfock.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hyperfock.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
