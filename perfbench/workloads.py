"""Seeded inputs, timed operations and correctness checks of each workload.

A workload is a spec (plain JSON made from the seed, no library call), the
library objects built from it (the set-up that ``setup_s`` times), a fixed
list of operations that one pass runs, and one CLI invocation over files
written from the same inputs.

Every library call goes through a module attribute (``audit.audit``,
``hamiltonian.build_profile``, ...) so that the tracer, which replaces those
attributes, sees it.

Seed 0 is the default seed: it reproduces the criterion-10 flagship systems
and the acceptance-suite profile parameters, and its artifacts are pinned in
``pins.json``.  Other seeds vary only what leaves the amount of work
unchanged, so that ``run_s`` measures the code and not the draw:

* audit_sweep: sigma, cbar and the order of the two companion orbits.
  A pass runs the work of ``audit(system, count=10)`` in pieces: the
  recurrence search the audit makes, then ``audit(system, solutions=[s])``
  for each solution it found, so that each timed call takes 2-30 ms instead
  of 50-180 ms: a short call runs at the pace that the kernel timed just
  before it measured (see ``pace.py``).  The whole
  ``audit(system, count=10)`` runs once per run as a check.
  Swapping the irrational weight for phi or sqrt(3) would change the pair
  count by up to 24% (12,776 to 15,829 pairs per audit at count=10).
* recurrence_scan: the order of the rotation numbers inside each rational
  profile.  Drawing new rotation numbers changes the cost of the query by up
  to 50x (0.05 s to 2.4 s for 100 solutions).
* action_calculus: (k, lam) per family, theta, beta and the spline knots; the
  bisection does a fixed number of steps whatever the values.
* barcode_reduce: the random points of the Rips complex; the number of
  vertices, edges and triangles is fixed.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# the package re-exports functions under some module names (``reeb_lab.audit``
# is the function there), so take the modules themselves
audit = importlib.import_module("reeb_lab.audit")
ellipsoid = importlib.import_module("reeb_lab.ellipsoid")
floergraph = importlib.import_module("reeb_lab.floergraph")
hamiltonian = importlib.import_module("reeb_lab.hamiltonian")
indices = importlib.import_module("reeb_lab.indices")
recurrence = importlib.import_module("reeb_lab.recurrence")

DEFAULT_SEED = 0

WEIGHTS = {
    "1": 1.0,
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "phi": (1.0 + math.sqrt(5.0)) / 2.0,
}


def cli_json(payload) -> bytes:
    """Serialize a payload exactly as the CLI's ``--out`` does."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def cli_lines(payload) -> bytes:
    """Serialize recurrence solutions as ``recurrence-search --out`` streams them."""
    return "".join(json.dumps(s, sort_keys=True) + "\n" for s in payload).encode()


@dataclass
class Op:
    """One timed library call and how to check and count its result."""

    name: str
    call: Callable[[], object]
    payload: Callable[[object], object]          # what the CLI would write, as JSON data
    problems: Callable[[object], list]           # invariant violations, [] when sound
    work: Callable[[object], dict]               # units of work done, e.g. {"pairs": n}
    serialize: Callable[[object], bytes] = cli_json

    def artifact(self, result) -> bytes:
        """The bytes the CLI would write for this result."""
        return self.serialize(self.payload(result))


class Workload:
    """Base of the workloads: ``ops()`` are timed in every pass; ``checks()``
    run once per run, untimed, and go through the gate like the ops.
    ``pace`` names the pace kernel (``pace.py``) that does the same kind of
    work as the ops."""

    name = ""
    pace = "float"

    def ops(self) -> list:
        raise NotImplementedError

    def checks(self) -> list:
        return []


@dataclass
class Cli:
    """One CLI invocation: arguments after ``-m reeb_lab.cli``, and the
    in-process operation whose artifact its ``--out`` file must equal."""

    argv: list
    out_name: str
    op: Op


def _rng(seed: int) -> random.Random:
    return random.Random(f"perfbench-{seed}")


# ---------------------------------------------------------------------------
# audit_sweep
# ---------------------------------------------------------------------------

AUDIT_COUNT = 10
AUDIT_K_BOUND = 10 ** 6           # the default horizon of ``audit``


def audit_spec(seed: int) -> dict:
    rng = _rng(seed)
    default = seed == DEFAULT_SEED
    systems = []
    for mode, weight, slope in (("hyperbolic", "sqrt2", 5.0),
                                ("hyperbolic_lower", "sqrt2", 5.0),
                                ("pseudo_rotation", "phi", 6.0)):
        systems.append({
            "mode": mode, "weight": weight, "slope": slope,
            # sigma stays above C * eta = 0.4 and at or above the flagship 0.6,
            # where every aligned pair of these systems is certified
            "sigma": 0.6 if default else round(rng.uniform(0.6, 0.75), 6),
            "cbar": 2.0 if default else round(rng.uniform(1.5, 2.5), 6),
            "swap_companions": False if default else rng.random() < 0.5,
        })
    return {"count": AUDIT_COUNT, "systems": systems}


def _audit_system(s: dict):
    w = WEIGHTS[s["weight"]]
    H = hamiltonian.build_profile("quadratic", slope=s["slope"], r_max=2.0)
    spec = ellipsoid.EllipsoidSpec((1.0, w))
    if s["mode"] == "pseudo_rotation":
        seed = ellipsoid.pseudo_rotation_instance(spec, k_max=30, locally_maximal=1)
        orbits = [audit.SystemOrbit(period=o.period, profile=o.profile,
                                    locally_maximal=o.locally_maximal)
                  for o in seed.orbits]
    else:
        orbits = [
            audit.SystemOrbit(period=3.0,
                              profile=indices.IterationProfile(hyperbolic=(3,)),
                              hyperbolic=True),
            audit.SystemOrbit(period=math.pi,
                              profile=ellipsoid.ellipsoid_profile(spec, 1)),
            audit.SystemOrbit(period=w * math.pi,
                              profile=ellipsoid.ellipsoid_profile(spec, 2)),
        ]
    if s["swap_companions"]:
        orbits[1:] = orbits[:0:-1]
    return audit.OrbitSystem(orbits=tuple(orbits), hamiltonian=H, n=2,
                             sigma=s["sigma"], eta=0.1, ell0=3, cbar=s["cbar"],
                             mode=s["mode"])


def audit_problems(report, count: int, sigma: float) -> list:
    """Invariants of an audit report.  ``report.ok`` is not used: it compares
    total_pairs with itself."""
    out = []
    if len(report.solutions) != count:
        out.append(f"{len(report.solutions)} solutions, asked for {count}")
    total = 0
    for s in report.solutions:
        if sum(s.counts.values()) != s.total_pairs:
            out.append(f"d={s.d}: counts sum to {sum(s.counts.values())}, "
                       f"total_pairs is {s.total_pairs}")
        total += s.total_pairs
        for cert in s.aligned:
            if cert.kind == "short-action-gap" and not cert.numbers["action_gap"] < sigma:
                out.append(f"d={s.d} j={cert.j}: short gap not below sigma")
            if cert.kind == "diverging-action-gap" and not cert.numbers["lower_bound"] > 0:
                out.append(f"d={s.d} j={cert.j}: diverging bound not positive")
    if total != report.total_pairs:
        out.append(f"solutions hold {total} pairs, report says {report.total_pairs}")
    return out


def audit_query(system, count: int) -> "recurrence.RecurrenceQuery":
    """The recurrence query ``audit(system, count=count)`` makes."""
    return recurrence.RecurrenceQuery(
        profiles=tuple(o.profile for o in system.orbits), eta=system.eta,
        ell0=system.ell0, n_divisor=1, k_bound=AUDIT_K_BOUND, count=count)


class AuditSweep(Workload):
    name = "audit_sweep"

    def __init__(self, spec: dict):
        self.spec = spec
        self.count = spec["count"]
        self.systems = [(s["mode"], _audit_system(s)) for s in spec["systems"]]

    def ops(self) -> list:
        """Per system: the audit's recurrence search, then the audit of each
        solution it finds.  The search runs once here to name the solutions."""
        out = []
        for mode, system in self.systems:
            query = audit_query(system, self.count)
            out.append(_search_op(f"search:{mode}", query, scan_work=False))
            for solution in recurrence.recurrence_search(query).solutions:
                out.append(self._solution_op(mode, system, solution))
        return out

    def checks(self) -> list:
        return [self._op(mode, system) for mode, system in self.systems]

    def _solution_op(self, mode, system, solution) -> Op:
        return Op(
            name=f"audit:{mode}:d{solution.d}",
            call=lambda: audit.audit(system, solutions=[solution]),
            payload=lambda rep: rep.to_json(),
            problems=lambda rep: audit_problems(rep, 1, system.sigma),
            work=lambda rep: {"pairs": rep.total_pairs,
                              "aligned_pairs": sum(len(s.aligned) for s in rep.solutions)},
        )

    def _op(self, mode, system) -> Op:
        count = self.count
        return Op(
            name=f"audit:{mode}",
            call=lambda: audit.audit(system, count=count),
            payload=lambda rep: rep.to_json(),
            problems=lambda rep: audit_problems(rep, count, system.sigma),
            work=lambda rep: {"pairs": rep.total_pairs,
                              "aligned_pairs": sum(len(s.aligned) for s in rep.solutions)},
        )

    def cli(self, workdir: Path) -> Cli:
        mode, system = self.systems[0]
        path = workdir / f"system_{mode}.json"
        path.write_text(json.dumps(system.to_json(), indent=2, sort_keys=True))
        return Cli(argv=["audit-lemma", "--system", str(path), "--count", str(self.count)],
                   out_name="audit.json", op=self._op(mode, system))


# ---------------------------------------------------------------------------
# recurrence_scan
# ---------------------------------------------------------------------------

def recurrence_spec(seed: int) -> dict:
    rng = _rng(seed)
    rational = [["2/7", "5/11"], ["1/5", "3/5"]]
    if seed != DEFAULT_SEED:
        for entries in rational:
            rng.shuffle(entries)
    return {
        "ellipsoid": {"weights": ["1", "sqrt2", "sqrt3"], "eta": 0.001, "ell0": 4,
                      "k_bound": 10 ** 7, "count": 10},
        "rational": {"profiles": rational, "eta": 0.2, "ell0": 3,
                     "k_bound": 10 ** 6, "count": 100},
    }


def k0_scanned(query, result) -> int:
    """Number of k0 values the search scanned, from its public result."""
    N = query.n_divisor
    start = N * max(1, (query.ell0 + N) // N)
    if result.scanned_up_to < start:
        return 0
    return (result.scanned_up_to - start) // N + 1


def recurrence_problems(query, result) -> list:
    out = []
    if len(result.solutions) != query.count and not result.horizon_exhausted:
        out.append(f"{len(result.solutions)} solutions, horizon not exhausted")
    last = None
    for s in result.solutions:
        if last is not None and s.d <= last:
            out.append(f"d={s.d} does not increase")
        last = s.d
        cert = recurrence.verify_recurrence(query.profiles, s.d, s.k, s.eta, s.ell0)
        if not cert.ok:
            out.append(f"d={s.d} k={list(s.k)} fails verify_recurrence")
    return out


def _query(q: dict, profiles) -> "recurrence.RecurrenceQuery":
    return recurrence.RecurrenceQuery(profiles=tuple(profiles), eta=q["eta"],
                                      ell0=q["ell0"], k_bound=q["k_bound"],
                                      count=q["count"])


def _search_op(name: str, query, scan_work: bool = True) -> Op:
    """``recurrence_search(query)``; its k0 count feeds ``k0_per_s`` when
    ``scan_work`` is set."""
    return Op(
        name=name,
        call=lambda: recurrence.recurrence_search(query),
        payload=lambda res: [s.to_json() for s in res.solutions],
        problems=lambda res: recurrence_problems(query, res),
        work=lambda res: {"k0": k0_scanned(query, res) if scan_work else 0,
                          "solutions": len(res.solutions)},
        serialize=cli_lines,
    )


class RecurrenceScan(Workload):
    name = "recurrence_scan"

    def __init__(self, spec: dict):
        self.spec = spec
        e = spec["ellipsoid"]
        espec = ellipsoid.EllipsoidSpec(tuple(WEIGHTS[w] for w in e["weights"]))
        self.queries = [
            ("ellipsoid", _query(e, [ellipsoid.ellipsoid_profile(espec, j)
                                     for j in range(1, espec.n + 1)])),
            ("rational", _query(spec["rational"], [
                indices.IterationProfile(loop_index=2,
                                         elliptic=tuple(Fraction(r) for r in entries))
                for entries in spec["rational"]["profiles"]])),
        ]

    def ops(self) -> list:
        return [_search_op(f"recurrence:{label}", q) for label, q in self.queries]

    def cli(self, workdir: Path) -> Cli:
        label, query = self.queries[0]
        path = workdir / f"profiles_{label}.json"
        path.write_text(json.dumps([p.to_json() for p in query.profiles], indent=2))
        return Cli(argv=["recurrence-search", "--profiles", str(path),
                         "--eta", repr(query.eta), "--ell0", str(query.ell0),
                         "--k-bound", str(query.k_bound), "--count", str(query.count)],
                   out_name="solutions.jsonl", op=_search_op(f"recurrence:{label}", query))


# ---------------------------------------------------------------------------
# action_calculus
# ---------------------------------------------------------------------------

#: the closed forms map a 21-point grid, the spline two interior points; the
#: cost per tau does not depend on the grid, and the CLI run maps 101 taus
CLOSED_FORM_TAUS = 21
SPLINE_TAUS = 2
TABLES_GRID = 256
COMPARE_GRID = 512
DEFAULT_KNOTS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.5, 7.0]
FAMILIES = ("quadratic", "cubic", "exp", "spline")


def action_spec(seed: int) -> dict:
    rng = _rng(seed)
    default = seed == DEFAULT_SEED

    def draw(lo, hi, fixed):
        return fixed if default else round(rng.uniform(lo, hi), 6)

    families = {
        "quadratic": {},
        "cubic": {"theta": draw(0.3, 0.8, 0.6)},
        "exp": {"beta": draw(1.0, 2.5, 1.5)},
        "spline": {"knots": DEFAULT_KNOTS if default
                   else [round(rng.uniform(0.5, 7.0), 6) for _ in DEFAULT_KNOTS]},
    }
    transfer = {f: {"k": draw(1.5, 5.0, 3.0), "lam": draw(0.5, 3.0, 2.0),
                    "taus": SPLINE_TAUS if f == "spline" else CLOSED_FORM_TAUS}
                for f in families}
    return {"slope": 5.0, "r_max": 2.0, "families": families, "transfer": transfer,
            "tables_grid": TABLES_GRID,
            "compare": {"theta": draw(0.3, 0.8, 0.6), "grid": COMPARE_GRID}}


def tau_grid(top: float, n: int) -> np.ndarray:
    """n taus on [0, top]; for a short grid (n < 3) the interior points only."""
    if n < 3:
        return np.linspace(0.0, top, n + 2)[1:-1]
    return np.linspace(0.0, top, n)


def transfer_payload(profile, k: float, lam: float, res) -> dict:
    """The ``hamiltonian --transfer --out`` payload."""
    return {"profile": profile.to_json(), "c": profile.c,
            "h_triple_nonneg_up_to": profile.h_triple_nonneg_up_to,
            "transfer": {"k": k, "lam": lam, "upper_slack": res.upper_slack,
                         "lower_slack": res.lower_slack}}


def transfer_problems(res, n: int) -> list:
    out = []
    if len(res.values) != n or not np.all(np.isfinite(res.values)):
        out.append("transfer values missing or not finite")
    if res.upper_slack < -1e-9 or res.lower_slack < -1e-9:
        out.append(f"slacks {res.upper_slack:.3e}, {res.lower_slack:.3e} below -1e-9")
    return out


def tables_problems(tables, grid: int) -> list:
    out = []
    if len(tables.r_rows) != grid or len(tables.t_rows) != grid:
        out.append("table row counts differ from the grid")
    actions = [v for _T, v, _r in tables.t_rows]
    if any(b < a for a, b in zip(actions, actions[1:])):
        out.append("a_H(T) decreases along the period rows")
    return out


class ActionCalculus(Workload):
    name = "action_calculus"

    def __init__(self, spec: dict):
        self.spec = spec
        slope, r_max = spec["slope"], spec["r_max"]
        self.profiles = {}
        for family, params in spec["families"].items():
            params = dict(params)
            a = slope
            if family == "spline":
                params["knots"] = tuple(params["knots"])
                a = hamiltonian.spline_slope(params["knots"], r_max)
            self.profiles[family] = hamiltonian.build_profile(
                family, slope=a, r_max=r_max, **params)
        self.dominated = hamiltonian.build_profile(
            "cubic", slope=slope, r_max=r_max, theta=spec["compare"]["theta"])

    def ops(self) -> list:
        out = [self._transfer_op(f) for f in self.profiles]
        p = self.profiles["quadratic"]
        grid = self.spec["tables_grid"]
        out.append(Op(
            name="action_tables",
            call=lambda: hamiltonian.action_tables(p, grid=grid),
            payload=lambda t: {"r_rows": t.r_rows, "t_rows": t.t_rows},
            problems=lambda t: tables_problems(t, grid),
            work=lambda t: {}))
        # a cubic profile lies below the quadratic of the same slope and r_max
        h0, h1 = self.dominated, self.profiles["quadratic"]
        cgrid = self.spec["compare"]["grid"]
        out.append(Op(
            name="compare_action_functions",
            call=lambda: hamiltonian.compare_action_functions(h0, h1, grid=cgrid),
            payload=lambda c: {"dominated_margin": c.dominated_margin,
                               "max_violation": c.max_violation, "ok": c.ok},
            problems=lambda c: [] if c.ok and c.dominated_margin >= -1e-9
            else [f"dominated pair not certified: {c}"],
            work=lambda c: {}))
        return out

    def _transfer_op(self, family: str, n_taus: Optional[int] = None) -> Op:
        p = self.profiles[family]
        t = self.spec["transfer"][family]
        k, lam = t["k"], t["lam"]
        taus = tau_grid(k * p.c, n_taus or t["taus"])
        return Op(
            name=f"transfer:{family}" + (f":{n_taus}" if n_taus else ""),
            call=lambda: hamiltonian.transfer_map(p, k, lam, taus),
            payload=lambda res: transfer_payload(p, k, lam, res),
            problems=lambda res: transfer_problems(res, len(taus)),
            work=lambda res: {"taus": len(taus)},
        )

    def cli(self, workdir: Path) -> Cli:
        p = self.profiles["cubic"]
        t = self.spec["transfer"]["cubic"]
        k, lam = t["k"], t["lam"]
        config = workdir / "hamiltonian_config.json"
        config.write_text(json.dumps({"family": "cubic", "theta": p.theta, "tables": True,
                                      "transfer": f"{k!r},{lam!r}"}, indent=2))
        # the CLI maps 101 taus on [0, k c]
        return Cli(argv=["hamiltonian", "--slope", repr(p.slope), "--r-max", repr(p.r_max),
                         "--config", str(config)],
                   out_name="hamiltonian.json", op=self._transfer_op("cubic", 101))


# ---------------------------------------------------------------------------
# barcode_reduce
# ---------------------------------------------------------------------------

RIPS_POINTS, RIPS_EDGES, RIPS_TRIANGLES = 1000, 8000, 14000


def rips_complex(seed: int, n_points: int = RIPS_POINTS, n_edges: int = RIPS_EDGES,
                 n_triangles: int = RIPS_TRIANGLES) -> dict:
    """Rips-style complex in ``FilteredComplex`` JSON form.

    The n_edges shortest pairs of random points in the unit square, and the
    n_triangles earliest triangles among them.  A simplex's action is its
    filtration value plus 1e-9 times its degree, so every boundary strictly
    lowers the action.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n_points, 2))
    iu, ju = np.triu_indices(n_points, 1)
    dist = np.hypot(*(pts[iu] - pts[ju]).T)
    chosen = np.argsort(dist, kind="stable")[:n_edges]
    edges = {}
    neighbours = [set() for _ in range(n_points)]
    for e in chosen:
        a, b = int(iu[e]), int(ju[e])
        edges[(a, b)] = float(dist[e])
        neighbours[a].add(b)
        neighbours[b].add(a)
    triangles = sorted(
        (max(f, edges[(a, c)], edges[(b, c)]), a, b, c)
        for (a, b), f in edges.items()
        for c in neighbours[a] & neighbours[b] if c > b)
    if len(triangles) < n_triangles:
        raise ValueError(f"only {len(triangles)} triangles for {n_triangles}")
    gens = [{"id": f"v{i}", "action": 0.0, "degree": 0} for i in range(n_points)]
    boundary = {}
    edge_id = {}
    for n, ((a, b), f) in enumerate(edges.items()):
        edge_id[(a, b)] = f"e{n}"
        gens.append({"id": f"e{n}", "action": f + 1e-9, "degree": 1})
        boundary[f"e{n}"] = [f"v{a}", f"v{b}"]
    for n, (f, a, b, c) in enumerate(triangles[:n_triangles]):
        gens.append({"id": f"t{n}", "action": f + 2e-9, "degree": 2})
        boundary[f"t{n}"] = [edge_id[(a, b)], edge_id[(a, c)], edge_id[(b, c)]]
    return {"generators": gens, "boundary": boundary}


def barcode_spec(seed: int) -> dict:
    return {"complex": rips_complex(seed)}


def bar_rows(bars) -> list:
    return [list(b.to_row()) for b in bars]


def barcode_problems(bars, n_generators: int) -> list:
    out = []
    finite = sum(1 for b in bars if not math.isinf(b.death))
    if any(not b.death > b.birth for b in bars):
        out.append("a bar dies before it is born")
    if 2 * finite + (len(bars) - finite) != n_generators:
        out.append(f"{finite} finite and {len(bars) - finite} infinite bars "
                   f"do not account for {n_generators} generators")
    return out


class BarcodeReduce(Workload):
    name = "barcode_reduce"
    pace = "sets"

    def __init__(self, spec: dict):
        self.spec = spec
        self.complex = spec["complex"]

    def ops(self) -> list:
        obj = self.complex
        n = len(obj["generators"])

        def call():
            return floergraph.barcode(floergraph.FilteredComplex.from_json(obj))
        return [Op(
            name="barcode",
            call=call,
            payload=lambda bars: {"bars": bar_rows(bars)},
            problems=lambda bars: barcode_problems(bars, n),
            work=lambda bars: {"generators": n, "bars": len(bars)},
        )]

    def cli(self, workdir: Path) -> Cli:
        path = workdir / "complex.json"
        path.write_text(json.dumps(self.complex))
        return Cli(argv=["barcode", "--complex", str(path)], out_name="bars.json",
                   op=self.ops()[0])


# ---------------------------------------------------------------------------

SPECS = {
    "audit_sweep": audit_spec,
    "recurrence_scan": recurrence_spec,
    "action_calculus": action_spec,
    "barcode_reduce": barcode_spec,
}

WORKLOADS = {
    "audit_sweep": AuditSweep,
    "recurrence_scan": RecurrenceScan,
    "action_calculus": ActionCalculus,
    "barcode_reduce": BarcodeReduce,
}


def build(name: str, spec_path: Path):
    """Load a written spec and build the workload's library objects."""
    return WORKLOADS[name](json.loads(Path(spec_path).read_text()))


def write_spec(name: str, seed: int, workdir: Path) -> Path:
    path = Path(workdir) / f"{name}_spec.json"
    path.write_text(json.dumps(SPECS[name](seed)))
    return path
