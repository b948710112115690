"""Log-space special functions on numpy alone: log-factorials and logsumexp.

Every factorial in the library is an integer one, so a single table of
log n! serves them all, and the package needs no special-function library.
"""

from __future__ import annotations

import math

import numpy as np

_log_fact = np.array([math.inf])  # no finite entry yet; built on first use


def log_factorials(top: int) -> np.ndarray:
    """Read-only table whose entries 0..top are log n! (math.lgamma(n + 1))
    and whose last entry is +inf.

    Slice it for a run of factorials, e.g. lf[k : k + d]. Indexed with
    np.maximum(n, -1), it reads +inf at every negative n: the pole of
    log-gamma, where the term 1/n! is exactly zero. The table is built on
    first use and grows by doubling, so it may hold more than top + 1
    finite entries; growing recomputes the same values into a new array, so
    a table handed out earlier stays valid.
    """
    global _log_fact
    table = _log_fact
    if top + 1 >= len(table):
        size = max(2 * (len(table) - 1), top + 1)
        table = np.array([math.lgamma(n + 1.0) for n in range(size)] + [math.inf])
        table.setflags(write=False)
        _log_fact = table
    return table


def logsumexp(x, axis=None) -> np.ndarray | float:
    """log sum exp(x) along axis, shifted by the largest term.

    A slice that is all -inf gives -inf, with no warning.
    """
    x = np.asarray(x, dtype=float)
    top = x.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    shifted = x - top
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        out = np.log(shifted.sum(axis=axis)) + top.squeeze(axis=axis)
    return out if out.ndim else float(out)
