"""Batch command-line front end.

Subcommands: cz-index, iterate-indices, williamson, hamiltonian,
recurrence-search, ellipsoid, barcode, audit-lemma, fixed-point-index.
Flags always win over --config file values; unknown config keys are
rejected.  Machine-readable artifacts go to --out (JSON, or CSV where the
format is tabular), a human summary goes to stdout.  Exit codes: 0 success,
2 validation or usage error, 3 failed audit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import AuditError, MalformedInput, ReebLabError, json_value

# each subcommand imports the modules it runs, and numpy only where it builds
# an array, so that no subcommand starts up the others

USAGE_EXIT = 2
AUDIT_EXIT = 3


def _emit(args, payload, human: str, csv_rows=None, csv_header=None, encode=None):
    """Write the machine artifact to --out (JSON, or CSV when rows are given
    and the path says .csv) and the human summary to stdout.  The JSON is
    encode(payload), by default _json_text(payload)."""
    out = getattr(args, "out", None)
    if out:
        path = Path(out)
        if csv_rows is not None and path.suffix.lower() == ".csv":
            with path.open("w", newline="") as fh:
                w = csv.writer(fh)
                if csv_header:
                    w.writerow(csv_header)
                w.writerows(csv_rows)
        else:
            text = _json_text(payload) if encode is None else encode(payload)
            path.write_text(text + "\n")
    print(human)


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) as strict JSON: a
    non-finite float is written as a string, "inf", "-inf" or "nan" (as
    _bars_json writes an infinite death), never as Infinity or NaN.  A
    payload of finite floats is encoded once, to the same bytes."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:           # a non-finite float
        return json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)


def _finite(obj):
    """obj with each non-finite float in its dicts and lists replaced by its
    repr as a float: "inf", "-inf" or "nan"."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


_NUMBERS = (float, int)


def _bars_json(bars) -> str:
    """The barcode artifact {"bars": [[birth, death, degree], ...]}: the same
    text as json.dumps({"bars": [list(b.to_row()) for b in bars]}, indent=2,
    sort_keys=True), written row by row.

    json.dumps runs its pure-Python encoder whenever it indents; here each
    row is one f-string of the reprs json.dumps writes.  A birth is a finite
    float or an int, a death one too or math.inf (written "inf"), a degree
    an int; any other row raises ValueError, so neither NaN nor Infinity is
    ever written.
    """
    rows = []
    for birth, death, degree in bars:
        if death == math.inf:
            end = '"inf"'
        elif type(death) in _NUMBERS and death - death == 0:
            end = repr(death)
        else:
            raise ValueError(f"bar death {death!r} is not a finite number or math.inf")
        if type(birth) not in _NUMBERS or birth - birth != 0 or type(degree) is not int:
            raise ValueError(f"bar {(birth, death, degree)!r} needs a finite birth "
                             f"and an int degree")
        rows.append(f"    [\n      {birth!r},\n      {end},\n      {degree!r}\n    ]")
    if not rows:
        return '{\n  "bars": []\n}'
    return '{\n  "bars": [\n' + ",\n".join(rows) + "\n  ]\n}"


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _load_array(path: str, depth: int, what: str):
    """The JSON file at path as a float array: lists nested depth deep with
    numbers at the bottom, or MalformedInput."""
    import numpy as np
    def check(value, level, where):
        if level == depth:
            json_value(value, float, where)
        else:
            for i, v in enumerate(json_value(value, list, where)):
                check(v, level + 1, f"{where}[{i}]")
    data = _load_json(path)
    check(data, 0, what)
    return np.asarray(data, dtype=float)


def _load_csv(path: str, header: tuple):
    """The CSV file at path as a float array with one column per header name,
    skipping a first row equal to header; MalformedInput for a file with no
    data rows, a row of another width or a value that is not a finite number."""
    import numpy as np
    rows = list(csv.reader(Path(path).read_text().strip().splitlines()))
    if rows and rows[0] == list(header):
        rows = rows[1:]
    if not rows or any(len(row) != len(header) for row in rows):
        raise MalformedInput(f"{path}: expected one or more rows {','.join(header)} "
                             f"of {len(header)} values each")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from None
    if not np.all(np.isfinite(data)):
        raise MalformedInput(f"{path}: every value must be finite")
    return data


def _positive(name: str, value: float):
    if value is not None and not value > 0:
        raise ReebLabError(f"{name} must be positive, got {value}")


# -- subcommand implementations ----------------------------------------------

def cmd_cz_index(args) -> int:
    from .indices import cz_index_sampled, rotation_path, stretch_path
    if args.rotation is not None:
        path = rotation_path(args.rotation, args.samples)
        source = f"rotation rho={args.rotation}"
    elif args.stretch is not None:
        path = stretch_path(args.stretch, max(args.samples, 64))
        source = f"stretch lambda={args.stretch}"
    elif args.path_file:
        path = _load_array(args.path_file, 3, "--path-file")
        source = args.path_file
    else:
        raise ReebLabError("give --rotation, --stretch or --path-file")
    index = cz_index_sampled(path, tol=args.tol)
    _emit(args, {"index": index, "source": source, "samples": int(path.shape[0])},
          f"index {index} ({source})")
    return 0


def cmd_iterate_indices(args) -> int:
    from .indices import IterationProfile, profile_table
    profile = IterationProfile.from_json(_load_json(args.profile))
    _positive("k_max", args.k_max)
    rows = profile_table(profile, args.k_max)
    payload = {"profile": profile.to_json(),
               "rows": [list(r) for r in rows]}
    last = rows[-1]
    _emit(args, payload,
          f"{args.k_max} iterates; at k={last[0]}: mu-=({last[1]}) mu+=({last[2]}) "
          f"mean={last[3]:.6g}",
          csv_rows=rows, csv_header=("k", "mu_minus", "mu_plus", "mu_hat"))
    return 0


def cmd_williamson(args) -> int:
    from .symplectic import validate_symplectic, williamson_invariants
    M = validate_symplectic(_load_array(args.matrix, 2, "--matrix"),
                            tol=args.tol)
    inv = williamson_invariants(M, tol=args.tol)
    _emit(args, inv.to_json(),
          "invariants: " + json.dumps(inv.to_json(), sort_keys=True)
          + "  [zero planes of width one are counted in nu0]")
    return 0


def _profile_from_args(args):
    from .hamiltonian import build_profile
    params = {}
    if args.family == "cubic":
        params["theta"] = args.theta
    elif args.family == "exp":
        params["beta"] = args.beta
    elif args.family == "spline":
        if not args.knots:
            raise ReebLabError("spline family needs --knots")
        params["knots"] = tuple(float(v) for v in args.knots.split(","))
    return build_profile(args.family, slope=args.slope, r_max=args.r_max,
                         c0=args.c0, **params)


def cmd_hamiltonian(args) -> int:
    from .hamiltonian import (CylinderTrace, action_tables, check_action_ratio_monotone,
                              check_cylinder_trace, check_transfer_parameters, transfer_map)
    profile = _profile_from_args(args)
    lines = [f"profile {args.family}: slope={profile.slope} r_max={profile.r_max} "
             f"c={profile.c:.6g} h'''>=0 up to {profile.h_triple_nonneg_up_to:.6g}"]
    payload = {"profile": profile.to_json(), "c": profile.c,
               "h_triple_nonneg_up_to": profile.h_triple_nonneg_up_to}
    csv_rows = csv_header = None
    if args.tables:
        tables = action_tables(profile, grid=args.grid)
        csv_rows = tables.csv_rows()
        csv_header = tables.CSV_HEADER
        lines.append(f"tables: {len(tables.r_rows)} level rows, "
                     f"{len(tables.t_rows)} period rows")
    if args.check_ratio_r0 is not None:
        ok = check_action_ratio_monotone(profile, args.check_ratio_r0)
        payload["action_ratio_monotone"] = ok
        lines.append(f"A(r)/r nondecreasing on [1, {args.check_ratio_r0}]: {ok}")
    if args.transfer:
        if args.transfer.count(",") != 1:
            raise ReebLabError(f"--transfer takes k,lam, got {args.transfer!r}")
        k, lam = (float(v) for v in args.transfer.split(","))
        check_transfer_parameters(k, lam)   # before the grid: numpy warns on an infinite end
        import numpy as np
        taus = np.linspace(0.0, k * profile.c, 101)
        res = transfer_map(profile, k, lam, taus)
        payload["transfer"] = {"k": k, "lam": lam,
                               "upper_slack": res.upper_slack,
                               "lower_slack": res.lower_slack}
        lines.append(f"transfer sandwich slacks: upper {res.upper_slack:.3e}, "
                     f"lower {res.lower_slack:.3e}")
    if args.trace:
        if args.trace_r_plus is None or args.trace_r_minus is None or args.trace_k is None:
            raise ReebLabError("--trace needs --trace-r-plus, --trace-r-minus, --trace-k")
        trace = CylinderTrace.from_samples(_load_csv(args.trace, ("s", "t", "r")),
                                           args.trace_r_plus, args.trace_r_minus)
        report = check_cylinder_trace(trace, profile, args.trace_k)
        payload["trace"] = report.to_json()
        lines.append(f"trace checks ok: {report.ok}")
    _emit(args, payload, "\n".join(lines), csv_rows=csv_rows, csv_header=csv_header)
    return 0


def cmd_recurrence_search(args) -> int:
    from .indices import IterationProfile
    from .recurrence import RecurrenceQuery, recurrence_search
    if args.out and Path(args.out).suffix.lower() == ".json":
        # before the search, so no empty file is left behind
        raise ReebLabError(f"--out {args.out}: the stream is JSON Lines; name it .jsonl")
    if args.profiles:
        profiles = tuple(IterationProfile.from_json(p) for p in
                         json_value(_load_json(args.profiles), list, "--profiles"))
    elif args.weights:
        from .ellipsoid import EllipsoidSpec, ellipsoid_profile
        spec = EllipsoidSpec(tuple(float(w) for w in args.weights.split(",")))
        profiles = tuple(ellipsoid_profile(spec, j) for j in range(1, spec.n + 1))
    else:
        raise ReebLabError("give --profiles or --weights")
    query = RecurrenceQuery(profiles=profiles, eta=args.eta, ell0=args.ell0,
                            n_divisor=args.divisor, k_bound=args.k_bound,
                            count=args.count)
    stream = sys.stdout if not args.out else Path(args.out).open("w")
    try:
        result = recurrence_search(
            query,
            on_solution=lambda s: print(json.dumps(s.to_json(), sort_keys=True),
                                        file=stream, flush=True))
    finally:
        if args.out:
            stream.close()
    summary = (f"{len(result.solutions)} solutions below k_bound={args.k_bound}"
               + ("; horizon exhausted before the requested count"
                  if result.horizon_exhausted else ""))
    print(summary, file=sys.stderr if not args.out else sys.stdout)
    return 0


def cmd_ellipsoid(args) -> int:
    from .ellipsoid import (EllipsoidSpec, action_spectrum, ellipsoid_periods,
                            pseudo_rotation_instance, slope_valid)
    spec = EllipsoidSpec(tuple(float(w) for w in args.weights.split(",")))
    payload = {"spec": spec.to_json(), "periods": ellipsoid_periods(spec),
               "irrational": spec.irrational}
    lines = [f"ellipsoid weights={list(spec.weights)} irrational={spec.irrational}"]
    csv_rows = csv_header = None
    if args.spectrum is not None:
        csv_rows = action_spectrum(spec, args.spectrum)
        csv_header = ("value", "orbit", "multiple")
        payload["spectrum"] = csv_rows
        lines.append(f"spectrum: {len(csv_rows)} values up to {args.spectrum}")
    if args.slope is not None:
        ok = slope_valid(spec, args.slope)
        payload["slope_valid"] = ok
        lines.append(f"slope {args.slope} avoids the spectrum: {ok}")
    if args.convexity:
        seed = pseudo_rotation_instance(spec, k_max=args.k_max)
        payload["pseudo_rotation"] = seed.to_json()
        rep = seed.convexity
        lines.append(f"convexity ok={rep.ok} min mu_-={rep.min_mu_minus} "
                     f"(k <= {args.k_max})")
    _emit(args, payload, "\n".join(lines), csv_rows=csv_rows, csv_header=csv_header)
    return 0


def cmd_barcode(args) -> int:
    from .floergraph import FilteredComplex, barcode
    complex_ = FilteredComplex.from_json(_load_json(args.complex))
    bars = barcode(complex_)
    finite, longest = 0, 0.0
    for birth, death, _ in bars:
        if death != math.inf:
            finite += 1
            if death - birth > longest:
                longest = death - birth
    _emit(args, bars,
          f"{len(bars)} bars ({finite} finite); longest finite: {longest:.6g}",
          csv_rows=(b.to_row() for b in bars), csv_header=("birth", "death", "degree"),
          encode=_bars_json)
    return 0


def cmd_audit_lemma(args) -> int:
    from .audit import OrbitSystem, audit
    obj = json_value(_load_json(args.system), dict, "orbit system")
    if args.mode is not None:
        obj = {**obj, "mode": args.mode}       # validated under the mode that runs
    system = OrbitSystem.from_json(obj)
    report = audit(system, count=args.count, k_bound=args.k_bound)
    _emit(args, report.to_json(), report.text_summary())
    return 0


def cmd_fixed_point_index(args) -> int:
    from .fixedpoint import PlanarMapSample, brouwer_index
    data = _load_csv(args.samples, ("x", "y", "fx", "fy"))
    index = brouwer_index(PlanarMapSample(data[:, :2], data[:, 2:], eps=args.eps))
    _emit(args, {"index": index, "samples": len(data)},
          f"fixed point index {index}")
    return 0


# -- wiring --------------------------------------------------------------------

_COMMANDS = {
    "cz-index": cmd_cz_index,
    "iterate-indices": cmd_iterate_indices,
    "williamson": cmd_williamson,
    "hamiltonian": cmd_hamiltonian,
    "recurrence-search": cmd_recurrence_search,
    "ellipsoid": cmd_ellipsoid,
    "barcode": cmd_barcode,
    "audit-lemma": cmd_audit_lemma,
    "fixed-point-index": cmd_fixed_point_index,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reeb-lab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the machine-readable artifact here")
        p.add_argument("--config", help="JSON config file; flags win")

    p = sub.add_parser("cz-index", help="index of a sampled symplectic path")
    p.add_argument("--path-file", help="JSON list of matrices, identity first")
    p.add_argument("--rotation", type=float, help="rotation number in turns")
    p.add_argument("--stretch", type=float, help="hyperbolic stretch factor")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("iterate-indices", help="exact iterate index table")
    p.add_argument("--profile", required=True, help="profile JSON file")
    p.add_argument("--k-max", type=int, default=50)
    common(p)

    p = sub.add_parser("williamson", help="unipotent block invariants")
    p.add_argument("--matrix", required=True, help="JSON matrix file")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("hamiltonian", help="profile certification and tables")
    p.add_argument("--family", default="quadratic",
                   choices=("quadratic", "cubic", "exp", "spline"))
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--c0", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--knots", help="comma-separated h'' knot values (spline)")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tables", action="store_true")
    p.add_argument("--check-ratio-r0", type=float)
    p.add_argument("--transfer", help="k,lam for a transfer sandwich check")
    p.add_argument("--trace", help="cylinder trace CSV (s,t,r)")
    p.add_argument("--trace-r-plus", type=float)
    p.add_argument("--trace-r-minus", type=float)
    p.add_argument("--trace-k", type=float)
    common(p)

    p = sub.add_parser("recurrence-search", help="search index recurrences")
    p.add_argument("--profiles", help="JSON file: list of profiles")
    p.add_argument("--weights", help="ellipsoid weights instead of --profiles")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--ell0", type=int, required=True)
    p.add_argument("--divisor", type=int, default=1)
    p.add_argument("--k-bound", type=int, default=10 ** 6)
    p.add_argument("--count", type=int, default=3)
    common(p)

    p = sub.add_parser("ellipsoid", help="model flow data")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--spectrum", type=float, help="list periods up to this value, at most 10^6")
    p.add_argument("--slope", type=float, help="check a slope against the spectrum")
    p.add_argument("--convexity", action="store_true")
    p.add_argument("--k-max", type=int, default=100)
    common(p)

    p = sub.add_parser("barcode", help="persistence bars of a filtered complex")
    p.add_argument("--complex", required=True, help="JSON complex file")
    common(p)

    p = sub.add_parser("audit-lemma", help="orbit-system exclusion audit")
    p.add_argument("--system", required=True, help="orbit system JSON file")
    p.add_argument("--mode", help="replaces the file's mode")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--k-bound", type=int, default=10 ** 6)
    common(p)

    p = sub.add_parser("fixed-point-index", help="planar displacement winding")
    p.add_argument("--samples", required=True, help="CSV x,y,fx,fy")
    p.add_argument("--eps", type=float, default=1.0)
    common(p)

    # _apply_config finds the flags given on the command line by their full
    # names, so an abbreviation such as --rot must not parse as --rotation
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False
    return parser


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  argv) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    config = json_value(_load_json(args.config), dict, "config file")
    # flags actually present on the command line win over config values
    explicit = {t[2:].split("=")[0].replace("-", "_") for t in argv if t.startswith("--")}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    for key, value in config.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            raise MalformedInput(f"unknown config key {key!r}")
        if action.type is not None:
            # a config value reads as the same text given as a flag would
            try:
                value = action.type(value if isinstance(value, str) else json.dumps(value))
            except (TypeError, ValueError):
                raise MalformedInput(f"config key {key!r}: invalid "
                                     f"{action.type.__name__} value {json.dumps(value)}") from None
        elif action.nargs == 0:
            if not isinstance(value, bool):
                raise MalformedInput(f"config key {key!r} takes true or false, "
                                     f"not {json.dumps(value)}")
        elif not isinstance(value, str) or (action.choices and value not in action.choices):
            raise MalformedInput(f"config key {key!r}: invalid value {json.dumps(value)}")
        if dest not in explicit:
            setattr(args, dest, value)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, parser, argv)
        if getattr(args, "tol", None) is not None:
            _positive("tol", args.tol)
        return _COMMANDS[args.command](args)
    except AuditError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return AUDIT_EXIT
    except (ReebLabError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
