"""The three workloads: seeded op streams, op execution and output checks.

Every op is a plain JSON-serialisable dict, so the inputs of a run can be
recorded and compared. `execute` is the timed part (the call into
hyperfock); `check` runs afterwards, untimed, and raises CheckFailed on a
wrong output. The checks do not trust the code under test: photon
statistics are recomputed here from the defining formulas in pure Python,
and the bounds below are properties of the mathematics, not values read
back from the program.

This module imports only the standard library, so that a fresh interpreter
that imports it still pays the full cost of `import hyperfock` afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random

WORKLOADS = ("wln_points", "oracle_crosscheck", "cli_files")

# output-check tolerances
SCALAR_TOL = 1e-12        # mu, anticlassicality, mean_n against the reference
WLN_FLOOR = -1e-4         # log of the integral of |W| is >= 0 up to quadrature error
WLN_TOLERANCE = 1e-4      # the CLI's default --wln-tolerance
PURITY_TOL = 1e-10        # closed-form against dense splitter purity
WIGNER_TOL = 1e-7         # closed-form W against the direct-integral oracle
GRID_INTEGRAL_TOL = 1e-3  # trapezoid integral of W over the grid against 1
W_BOUND = 1.0 / math.pi   # |W(x, p)| <= 1/pi for every state

SWEEP_MEASURES = "mu,anticlassicality,mean_n,concurrence"
SWEEP_HEADER = ["eta", "L", "M", "k", "anticlassicality",
                "anticlassicality_with_vacuum", "concurrence", "mean_n", "mu",
                "error"]
SWEEP_POINTS = 32
GRID_NODES = 201
GRID_HALF_WIDTH = 6.0


class CheckFailed(Exception):
    """An op produced an output that fails a correctness check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------ op streams
#
# Ops come in blocks. Within a block the expensive parameter (M, which sets
# the Fock dimension) is stratified in a fixed order, and the seed draws
# everything else, so every run covers the same range evenly however many
# blocks fit in it. The first op of each block is from a middle stratum,
# which keeps the cold first op that setup_s times comparable across seeds.


def _eta(rng, lo=0.05, hi=0.95):
    return round(rng.uniform(lo, hi), 6)


def _measures_argv(M, eta, k, l_coeff):
    return ["measures", "pahs", "--M", str(M), "--eta", repr(eta), "--k", str(k),
            "--L-coeff", str(l_coeff), "--measures", "all"]


_WLN_M_STRATA = ((6, 9), (13, 16), (2, 5), (10, 12))
# one alpha stratum per automatic dimension: 12, 16 and 20
_ALPHA_STRATA = ((0.75, 1.15), (1.15, 1.5), (0.5, 0.75))


def _wln_block(rng, b):
    # Four pahs ops, one per M stratum, then one coherent op with the
    # automatic dimension. M, k and the alpha stratum set the Fock dimension
    # and with it the cost of the op, so they follow a schedule that is the
    # same for every seed: runs of equal length have the same mix of costs,
    # and the median latency does not hop between the cost clusters of the
    # strata. Over sixteen blocks each (M, k) pair of a stratum occurs once.
    # The seed draws eta, the L coefficient and alpha within its stratum.
    coeffs = rng.sample([2, 2, 10, 10], 4)
    ops = [_measures_argv(lo + (b + b // 4) % (hi - lo + 1), _eta(rng), (i + b) % 4,
                          coeffs[i])
           for i, (lo, hi) in enumerate(_WLN_M_STRATA)]
    alpha = round(rng.uniform(*_ALPHA_STRATA[b % 3]), 6)
    ops.append(["measures", "coherent", "--alpha", repr(alpha), "--measures", "all"])
    return [{"kind": "measures", "argv": argv} for argv in ops]


# every M in [2, 14] once per block, median first
_ORACLE_M_ORDER = (8, 2, 14, 5, 11, 3, 13, 6, 10, 4, 12, 7, 9)


def _oracle_block(rng, b):
    # M and k set the cost of the op, so they follow a schedule that is the
    # same for every seed, as in _wln_block: k runs through a Latin square,
    # each (M, k) pair once per four blocks. The seed draws the rest.
    ops = []
    for i, M in enumerate(_ORACLE_M_ORDER):
        eta = _eta(rng)
        coeff = rng.choice((2, 10))
        L = coeff * M / min(eta, 1.0 - eta)
        points = [[round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6)]
                  for _ in range(3)]
        ops.append({"kind": "crosscheck", "L": L, "M": M, "eta": eta,
                    "k": (i + b) % 4, "points": points})
    return ops


# The grid window [-6, 6]^2 holds all but 5.1e-4 of the Wigner mass of the
# eta = 0.9, k = 1 state at M = 12 and all but 1.7e-3 at M = 13, so grids
# stop at M = 12 to keep the 1e-3 integral check meaningful.
#
# A grid takes about four times as long as a sweep. With the two kinds one
# for one, the median op latency would sit in the gap between them and jump
# from run to run. Sweeps are also the op most at the mercy of the machine:
# their pool needs both cores, and their latency moved by 40 % between two
# sets of runs half an hour apart, where grids moved by 10 %. So a block
# holds one sweep per two grids, and the median falls among the grids.
_SWEEP_STRATA = ((30, 39), (10, 19), (40, 50), (20, 29))
_GRID_STRATA = ((8, 9), (4, 5), (10, 12), (6, 7))


def _sweep_op(rng, lohi):
    etas = sorted(_eta(rng) for _ in range(SWEEP_POINTS))
    return {"kind": "sweep", "argv": [
        "sweep", "pahs", "--M", str(rng.randint(*lohi)), "--k", "2",
        "--param", "eta", "--values", ",".join(repr(e) for e in etas),
        "--measures", SWEEP_MEASURES, "--jobs", "2", "--out", "sweep.csv"]}


def _grid_op(rng, lohi):
    h = repr(GRID_HALF_WIDTH)
    return {"kind": "wigner", "argv": [
        "wigner", "pahs", "--M", str(rng.randint(*lohi)), "--eta", "0.9",
        "--k", "1", "--nx", str(GRID_NODES), "--np", str(GRID_NODES),
        "--xmin", "-" + h, "--xmax", h, "--pmin", "-" + h, "--pmax", h,
        "--out", "wigner.csv"]}


def _cli_block(rng, b):
    # sweep, grid, grid, four times: every sweep stratum once and every
    # grid stratum twice per block
    ops = []
    for i, sweep_m in enumerate(_SWEEP_STRATA):
        ops += [_sweep_op(rng, sweep_m), _grid_op(rng, _GRID_STRATA[i]),
                _grid_op(rng, _GRID_STRATA[(i + 2) % 4])]
    return ops


_BLOCKS = {"wln_points": _wln_block, "oracle_crosscheck": _oracle_block,
           "cli_files": _cli_block}


def op_stream(workload: str, seed: int):
    """Endless, deterministic stream of ops for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    block = _BLOCKS[workload]
    for b in itertools.count():
        for slot, op in enumerate(block(rng, b)):
            yield {**op, "block": b, "slot": slot}


# ------------------------------------------------ independent reference


def _log_binomial(x: float, n: int) -> float:
    """log C(x, n) for real x > n - 1, from the falling factorial."""
    return math.fsum(math.log(x - j) for j in range(n)) - math.lgamma(n + 1)


def _normalised(logs):
    top = max(logs)
    w = [math.exp(v - top) for v in logs]
    total = math.fsum(w)
    return [v / total for v in w]


def pahs_probabilities(L: float, M: int, eta: float, k: int) -> list[float]:
    """|c_n|^2 of the photon-added hypergeometric state:
    C(L eta, n) C(L (1 - eta), M - n) (n + k)! / n!, shifted up by k."""
    logs = [_log_binomial(L * eta, n) + _log_binomial(L * (1.0 - eta), M - n)
            + math.lgamma(n + k + 1) - math.lgamma(n + 1) for n in range(M + 1)]
    return [0.0] * k + _normalised(logs)


def coherent_probabilities(alpha: float, dim: int) -> list[float]:
    """|c_n|^2 of the coherent state truncated to dim levels."""
    return _normalised([2.0 * n * math.log(alpha) - math.lgamma(n + 1)
                        for n in range(dim)])


def scalar_measures(probs: list[float]) -> dict:
    """mu = P1 / (1 - P0 - P1), anticlassicality (without and with the
    vacuum) and the mean photon number."""
    return {
        "mu": probs[1] / math.fsum(probs[2:]),
        "anticlassicality": max(probs[1:]),
        "anticlassicality_with_vacuum": max(probs),
        "mean_n": math.fsum(n * p for n, p in enumerate(probs)),
    }


def _check_scalars(got: dict, probs: list[float], where: str):
    for name, ref in scalar_measures(probs).items():
        value = got.get(name)
        _require(isinstance(value, float) and math.isfinite(value)
                 and abs(value - ref) <= SCALAR_TOL * max(1.0, abs(ref)),
                 f"{where}: {name} = {value!r}, reference {ref!r}")


def _as_float(text):
    """A number from CLI output; the CLI writes non-finite values as words."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return float("nan")


# --------------------------------------------------------- execution


def _cli(hf, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hf.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _crosscheck(hf, op):
    p = hf.HypergeometricParams(op["L"], op["M"], op["eta"], op["k"])
    state = hf.pahs(p)
    return {
        "mu": hf.sps_quality_mu(state),
        "anticlassicality": hf.anticlassicality(state),
        "concurrence": hf.concurrence_potential(state),
        "purity_closed": hf.purity_closed_form_pahs(p),
        "purity_dense": hf.reduced_purity(hf.beamsplitter_with_vacuum(state)),
        "points": [(hf.wigner_point(state, x, y), hf.wigner_oracle_point(state, x, y))
                   for x, y in op["points"]],
    }


def execute(hf, op):
    """Run one op against the program; this is the timed part."""
    if op["kind"] == "crosscheck":
        return _crosscheck(hf, op)
    return _cli(hf, op["argv"])


def _flag(op, name):
    return op["argv"][op["argv"].index(name) + 1]


def _check_rc(out):
    _require(out["rc"] == 0,
             f"exit code {out['rc']}: {out['stderr'].strip()[-200:]}")


def _check_measures(op, out, outdir):
    _check_rc(out)
    doc = json.loads(out["stdout"])
    measures = {k: _as_float(v) for k, v in doc["measures"].items()}
    wln = measures["wln"]
    delta = _as_float(doc["metadata"]["wln_refinement_delta"])
    _require(math.isfinite(wln) and wln >= WLN_FLOOR, f"wln = {wln!r}")
    _require(math.isfinite(delta) and delta <= WLN_TOLERANCE,
             f"wln_refinement_delta = {delta!r}")
    params = doc["params"]
    if doc["family"] == "coherent":
        probs = coherent_probabilities(params["alpha"], params["dim"])
    else:
        probs = pahs_probabilities(params["L"], params["M"], params["eta"], params["k"])
    _check_scalars(measures, probs, "measures")


def _check_crosscheck(op, out, outdir):
    closed, dense = out["purity_closed"], out["purity_dense"]
    _require(math.isfinite(closed) and abs(closed - dense) <= PURITY_TOL,
             f"purity closed form {closed!r} vs dense {dense!r}")
    for (x, y), (w, oracle) in zip(op["points"], out["points"]):
        _require(math.isfinite(w) and abs(w - oracle) <= WIGNER_TOL,
                 f"W({x}, {y}) = {w!r}, oracle {oracle!r}")


def _check_sweep(op, out, outdir):
    _check_rc(out)
    with open(os.path.join(outdir, "sweep.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == SWEEP_HEADER, f"sweep header {rows[:1]}")
    _require(len(rows) == SWEEP_POINTS + 1, f"sweep has {len(rows) - 1} rows")
    M = int(_flag(op, "--M"))
    etas = [float(v) for v in _flag(op, "--values").split(",")]
    for eta, row in zip(etas, rows[1:]):
        cells = dict(zip(SWEEP_HEADER, row))
        _require(float(cells["eta"]) == eta and cells["error"] == "",
                 f"sweep row {row}")
        got = {k: _as_float(cells[k]) for k in SWEEP_HEADER[4:9]}
        L = 2.0 * M / min(eta, 1.0 - eta)  # the CLI's default pinned L
        _check_scalars(got, pahs_probabilities(L, M, eta, 2), f"sweep eta={eta}")
        c = got["concurrence"]
        _require(0.0 <= c < math.sqrt(2.0), f"sweep eta={eta}: concurrence {c!r}")


def _check_wigner(op, out, outdir):
    _check_rc(out)
    path = os.path.join(outdir, "wigner.csv")
    with open(path) as fh:
        header = fh.readline()
        rows = sum(1 for _ in fh)
    _require(header == "x,p,W\n", f"wigner header {header!r}")
    _require(rows == GRID_NODES * GRID_NODES, f"wigner CSV has {rows} rows")
    with open(path + ".json") as fh:
        side = json.load(fh)
    _require(side["nx"] == GRID_NODES and side["np"] == GRID_NODES,
             f"sidecar grid {side['nx']} x {side['np']}")
    _require(abs(side["integral"] - 1.0) <= GRID_INTEGRAL_TOL,
             f"sidecar integral {side['integral']!r}")
    _require(-W_BOUND - 1e-12 <= side["w_min"] <= side["w_max"] <= W_BOUND + 1e-12,
             f"sidecar W range [{side['w_min']!r}, {side['w_max']!r}]")


_CHECKS = {"measures": _check_measures, "crosscheck": _check_crosscheck,
           "sweep": _check_sweep, "wigner": _check_wigner}


def check(op, out, outdir):
    """Raise CheckFailed (or any error) if the op's output is wrong."""
    _CHECKS[op["kind"]](op, out, outdir)

