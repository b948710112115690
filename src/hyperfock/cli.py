"""Command-line front end: construct states, evaluate measures, run sweeps.

Exit codes: 0 success, 2 invalid parameters, 3 quadrature convergence
failure, 4 I/O failure. All outputs are deterministic: identical flags
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from .errors import InvalidParams, QuadratureNotConverged
from .fockspace import add_photons, mean_photon_number, photon_number_distribution
from .measures import ALL_MEASURES, measure_columns, measure_report
from .states import (
    HypergeometricParams,
    binomial,
    coherent_tail_mass,
    coherent_truncated,
    fock,
    hypergeometric,
    pahs,
    pinned_L,
)
from .wigner import QuadratureSpec, wigner_grid

EXIT_OK = 0
EXIT_INVALID_PARAMS = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4

# the exit code of each failure a command reports; every parameter error
# is an InvalidParams
_EXIT_CODES = (
    (InvalidParams, EXIT_INVALID_PARAMS),
    (QuadratureNotConverged, EXIT_NOT_CONVERGED),
    (OSError, EXIT_IO),
)
_FAILURES = tuple(cls for cls, _ in _EXIT_CODES)

# which parameters may be swept, per family
SWEEPABLE = {
    "pahs": ("L", "M", "eta", "k"),
    "hypergeometric": ("L", "M", "eta"),
    "binomial": ("M", "eta", "k"),
    "coherent": ("alpha", "dim", "k"),
    "fock": ("n", "dim"),
}
FAMILIES = tuple(SWEEPABLE)
_INT_PARAMS = {"M", "k", "n", "dim"}
# supported range: integer size inputs and states of at most this many Fock
# levels; the dense splitter alone holds _MAX_DIM^2 complex amplitudes
_MAX_DIM = 1001
# grid node counts of at most this size, about ten times their defaults: a
# grid holds a few arrays of nx * np values
_MAX_GRID_NODES = 1001

OUTPUT_DIR_ENV = "HYPERFOCK_OUTPUT_DIR"


def _json_scalar(value):
    """JSON value for a scalar: 'inf'/'-inf'/'undefined' for the
    non-finite mu sentinels, the value itself otherwise."""
    if isinstance(value, float):
        if math.isnan(value):
            return "undefined"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _fmt(value) -> str:
    """CSV cell for a scalar: 17 significant digits, the _json_scalar
    sentinels for non-finite values, empty for missing."""
    value = _json_scalar(value)
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _resolve_out_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _build_state(family: str, opts: dict):
    """Construct the requested state; returns (state, params_dict).

    params_dict holds the fully resolved parameters (e.g. the pinned L),
    keyed by flag name, in a fixed order. The integer inputs were capped
    when they were parsed; a state of more than _MAX_DIM levels is rejected
    here, before anything is computed from it.
    """
    state, params = _family_state(family, opts)
    if state.dim > _MAX_DIM:
        raise InvalidParams(f"a state of dimension {state.dim} exceeds the "
                            f"supported {_MAX_DIM} Fock levels")
    return state, params


def _family_state(family: str, opts: dict):
    def need(*names):
        missing = [n for n in names if opts.get(n) is None]
        if missing:
            flags = ", ".join(f"--{n}" for n in missing)
            raise InvalidParams(f"family '{family}' requires {flags}")

    if family in ("pahs", "hypergeometric"):
        need("M", "eta")
        k = int(opts.get("k") or 0)
        L = opts.get("L")
        if L is None:
            L = pinned_L(int(opts["M"]), float(opts["eta"]), float(opts["L_coeff"]))
        params = HypergeometricParams(float(L), int(opts["M"]), float(opts["eta"]), k)
        state = (hypergeometric if family == "hypergeometric" else pahs)(params)
        return state, {"L": params.L, "M": params.M, "eta": params.eta, "k": params.k}
    if family == "binomial":
        need("M", "eta")
        k = int(opts.get("k") or 0)
        state = add_photons(binomial(int(opts["M"]), float(opts["eta"])), k)
        return state, {"M": int(opts["M"]), "eta": float(opts["eta"]), "k": k}
    if family == "coherent":
        need("alpha")
        alpha = float(opts["alpha"])
        dim = opts.get("dim")
        if dim is None:
            dim = _auto_coherent_dim(alpha)
        k = int(opts.get("k") or 0)
        state = add_photons(coherent_truncated(alpha, int(dim)), k)
        return state, {"alpha": alpha, "dim": int(dim), "k": k}
    # fock: argparse admits no other family
    need("n")
    n = int(opts["n"])
    dim = int(opts["dim"]) if opts.get("dim") is not None else n + 1
    return fock(n, dim), {"n": n, "dim": dim}


def _auto_coherent_dim(alpha: float) -> int:
    """Smallest truncation whose dropped mass is below 1e-12, at most
    _MAX_DIM levels."""
    d = max(8, int(min(alpha * alpha, _MAX_DIM)) + 2)
    while coherent_tail_mass(alpha, d) > 1e-12:
        d += 4
        if d > _MAX_DIM:
            raise InvalidParams(f"no reasonable truncation found for alpha={alpha}")
    return d


def _measure_names(raw: str):
    if raw == "all":
        return ALL_MEASURES
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise InvalidParams("at least one measure must be requested")
    return names


def _measure_cells(cells: dict, family: str, opts: dict, names, quad) -> dict:
    """Build the state, then fill `cells`: first with its resolved params,
    so a row whose measures fail keeps them, then with the measure_report
    of `names`. Returns the params."""
    state, params = _build_state(family, opts)
    cells.update(params)
    cells.update(measure_report(state, include=names, quad=quad))
    return params


def _exit_code(exc: Exception) -> int:
    return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def _finite_float(text: str) -> float:
    """argparse type of every float flag: only finite numbers pass (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_at_most(cap: int, what: str):
    """argparse type of every integer input that sizes arrays: a finite
    number with no fractional part and at most cap passes (exit 2
    otherwise), before anything is computed. `what` names the counted unit."""
    def parse(text: str) -> int:
        value = _finite_float(text)
        if not value.is_integer():
            raise argparse.ArgumentTypeError(f"expected an integer, got {text}")
        if value > cap:
            raise argparse.ArgumentTypeError(f"expected at most {cap} {what}, got {text}")
        return int(value)
    return parse


# the type of --M, --k, --n, --dim and of their integer --values
_fock_levels = _int_at_most(_MAX_DIM, "Fock levels")


# ---------------------------------------------------------------- commands


def cmd_state(args) -> int:
    state, params = _build_state(args.family, vars(args))
    pnd = photon_number_distribution(state)
    doc = {
        "family": args.family,
        "params": params,
        "dim": state.dim,
        "amplitudes": [[float(c.real), float(c.imag)] for c in state.amplitudes],
        "pnd": [float(p) for p in pnd],
        "mean_n": mean_photon_number(state),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_measures(args) -> int:
    names = _measure_names(args.measures)
    columns, diagnostics = measure_columns(names)
    quad = QuadratureSpec(wln_tolerance=args.wln_tolerance)
    cells = {}
    params = _measure_cells(cells, args.family, vars(args), names, quad)
    if args.format == "csv":
        header = sorted(params) + columns + diagnostics
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerow([_fmt(cells[c]) for c in header])
    else:
        doc = {
            "family": args.family,
            "params": params,
            "measures": {c: _json_scalar(cells[c]) for c in columns},
            "metadata": {"wln_log_base": "e", **{c: cells[c] for c in diagnostics}},
        }
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _sweep_row(family, opts, param, value, names, quad):
    """Compute one sweep row; returns (cells, the parameter or convergence
    error that failed it, or None)."""
    row_opts = dict(opts)
    row_opts[param] = value
    cells = {param: value}
    try:
        _measure_cells(cells, family, row_opts, names, quad)
    except (InvalidParams, QuadratureNotConverged) as exc:
        cells["error"] = str(exc)
        return cells, exc
    cells["error"] = ""
    return cells, None


def cmd_sweep(args) -> int:
    family = args.family
    if args.param not in SWEEPABLE[family]:
        raise InvalidParams(
            f"'{args.param}' is not sweepable for family '{family}' "
            f"(choose from {', '.join(SWEEPABLE[family])})"
        )
    values = _parse_values(args.param, args.values)
    names = _measure_names(args.measures)
    columns, diagnostics = measure_columns(names)
    quad = QuadratureSpec(wln_tolerance=args.wln_tolerance)
    measure_cols = columns + diagnostics
    opts = vars(args)

    results = [_sweep_row(family, opts, args.param, v, names, quad) for v in values]

    # swept value first, then remaining resolved params, then measures
    param_cols = sorted({k for cells, _ in results for k in cells} -
                        set(measure_cols) - {args.param, "error"})
    header = [args.param] + param_cols + measure_cols + ["error"]
    out_path = _resolve_out_path(args.out)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for cells, _ in results:
            writer.writerow([_fmt(cells.get(c)) for c in header[:-1]]
                            + [cells.get("error", "")])
    codes = [_exit_code(exc) for _, exc in results if exc]
    print(f"wrote {len(results)} rows to {out_path}"
          + (f" ({len(codes)} failed)" if codes else ""))
    return min(codes, default=EXIT_OK)  # a parameter error outranks the rest


def _parse_values(param: str, raw: str):
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise InvalidParams("--values must list at least one value")
    parse = _fock_levels if param in _INT_PARAMS else _finite_float
    try:
        return [parse(t) for t in tokens]
    except argparse.ArgumentTypeError as exc:
        raise InvalidParams(f"--values: {exc}") from None


def cmd_wigner(args) -> int:
    state, params = _build_state(args.family, vars(args))
    grid = wigner_grid(
        state,
        x_min=args.xmin,
        x_max=args.xmax,
        p_min=args.pmin,
        p_max=args.pmax,
        nx=args.nx,
        n_p=args.np,
    )
    out_path = _resolve_out_path(args.out)
    with open(out_path, "w") as fh:
        fh.writelines(grid.csv_rows())
    sidecar = {
        "family": args.family,
        "params": params,
        "x_min": args.xmin,
        "x_max": args.xmax,
        "p_min": args.pmin,
        "p_max": args.pmax,
        "nx": args.nx,
        "np": args.np,
        "w_min": float(grid.values.min()),
        "w_max": float(grid.values.max()),
        "integral": grid.integral(),
    }
    text = json.dumps(sidecar, indent=2)
    with open(out_path + ".json", "w") as fh:
        fh.write(text + "\n")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_state_flags(p: argparse.ArgumentParser):
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--L", type=_finite_float, default=None,
                   help="population parameter (default: pinned via --L-coeff)")
    p.add_argument("--L-coeff", dest="L_coeff", type=_finite_float, default=2.0,
                   help="L = coeff * max(M/eta, M/(1-eta)) when --L is absent")
    p.add_argument("--M", type=_fock_levels, default=None, help="dimension parameter")
    p.add_argument("--eta", type=_finite_float, default=None,
                   help="probability in [0, 1]")
    p.add_argument("--k", type=_fock_levels, default=None, help="photons added")
    p.add_argument("--alpha", type=_finite_float, default=None,
                   help="coherent amplitude")
    p.add_argument("--dim", type=_fock_levels, default=None, help="basis truncation")
    p.add_argument("--n", type=_fock_levels, default=None, help="Fock level")


def _add_quad_flags(p: argparse.ArgumentParser):
    p.add_argument("--wln-tolerance", type=_finite_float,
                   default=QuadratureSpec.wln_tolerance,
                   help="allowed error estimate of the log-negativity; the nodes "
                        "are refined until it is met, or the command exits 3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfock",
        description="Photon-added hypergeometric states and nonclassicality measures.",
        epilog=f"Set {OUTPUT_DIR_ENV} to redirect relative output paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="print amplitudes, PND and <n> as JSON")
    _add_state_flags(p_state)
    p_state.set_defaults(func=cmd_state)

    p_meas = sub.add_parser("measures", help="evaluate nonclassicality measures")
    _add_state_flags(p_meas)
    _add_quad_flags(p_meas)
    p_meas.add_argument("--measures", default="all",
                        help=f"comma list from: {', '.join(ALL_MEASURES)} (default all)")
    p_meas.add_argument("--format", choices=("json", "csv"), default="json")
    p_meas.set_defaults(func=cmd_measures)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, write a CSV")
    _add_state_flags(p_sweep)
    _add_quad_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--measures", default="all")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; rows run one at a time")
    p_sweep.set_defaults(func=cmd_sweep)

    p_wig = sub.add_parser("wigner", help="evaluate W on a grid, write CSV + sidecar")
    _add_state_flags(p_wig)
    p_wig.add_argument("--xmin", type=_finite_float, default=-4.0)
    p_wig.add_argument("--xmax", type=_finite_float, default=4.0)
    p_wig.add_argument("--pmin", type=_finite_float, default=-4.0)
    p_wig.add_argument("--pmax", type=_finite_float, default=4.0)
    grid_nodes = _int_at_most(_MAX_GRID_NODES, "grid nodes")
    p_wig.add_argument("--nx", type=grid_nodes, default=101,
                       help=f"x nodes (at most {_MAX_GRID_NODES})")
    p_wig.add_argument("--np", type=grid_nodes, default=101,
                       help=f"p nodes (at most {_MAX_GRID_NODES})")
    p_wig.add_argument("--out", required=True, help="output CSV path")
    p_wig.set_defaults(func=cmd_wigner)

    return parser


# one parser per process, built by the first main call: building it costs
# as much as a small command, and parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
