"""Benchmark of reeb-lab: four seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload audit_sweep --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``, as the
test suite does.  Workloads (see ``workloads.py`` for their inputs):

* audit_sweep      -- the work of ``audit(system, count=10)`` on the three
                      criterion-10 flagship systems, one call per recurrence
                      solution; ``indices`` and ``audit`` do the work.
* recurrence_scan  -- a full-horizon float scan (k_bound = 1e7) and a rational
                      query whose survivors mostly fail the exact checks.
* action_calculus  -- ``transfer_map`` on four profile families, plus
                      ``action_tables`` and ``compare_action_functions``.
* barcode_reduce   -- ``FilteredComplex`` and ``barcode`` on a seeded
                      Rips-style complex of 23,000 generators.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (one in-process pass,
the sum of each operation's median time over the run, after a warm-up pass),
``run_s_tail`` (the tail of the pass times), ``cli_s`` (the median of the
runs of the workload's CLI subcommand as a subprocess with ``--out``, which
take about a third of the window), ``setup_s`` (import plus input
construction in a fresh process, median of several) and ``peak_rss_mb`` (a
fresh process running one pass).

The times are in seconds at the reference pace of ``pace.py``: each call is
timed next to a fixed kernel, and its wall time is divided by the kernel's
time and multiplied by the kernel's reference time.  The host these figures
were taken on is shared and slows down by up to 1.7x for seconds to minutes
at a time; the plain wall times moved by 8-27% from one run to the next, the
paced ones by a few percent.  The wall times are still stated in the run's
facts, next to the kernel's own times.

``--trace 1`` reports the per-layer metrics.  Half of the time runs plain
passes, half runs passes with the tracer installed; the difference of their
medians is the tracing overhead, and the throughputs come from the plain
half.  Spans are written to ``.perfbench_out/``.

Every operation's output goes through the gate (``gate.py``); the last line
of stdout is the result object, the line before it the run's facts (machine,
versions, pass counts and the spread of the samples).  Exits 2 without a
result when the library sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from gate import describe, digest
from pace import REFERENCE_S, Pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 7       # fresh-process set-ups per run; the first also runs a pass
CLI_REPEATS = 5         # fewest CLI runs, and interpreter start-ups in a traced run
CLI_SHARE = 0.35        # share of the window that CLI runs take, up to CLI_MAX runs
CLI_MAX = 30
CHILD_PACE = "sets"     # the kernel that paces child processes, whatever the workload
CHILD_PACE_CALLS = 5    # kernel calls on each side of a child process
MIN_PASSES = 11         # the tail needs ten passes beyond it
HARD_STOP_S = 120.0     # stop adding passes this long after start, whatever --seconds says
SUBPROCESS_TIMEOUT_S = 60.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- statistics --------------------------------------------------------------

def tail(values) -> tuple:
    """(value, percentile, samples): the highest whole percentile with at
    least ten samples above it, by nearest rank."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100, n
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return s[rank - 1], pct, n


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def median_of(rows, key) -> float:
    return statistics.median(r.get(key, 0) for r in rows) if rows else 0.0


# -- environment -------------------------------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, threads_before) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(), "cpu": cpu_model(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed,
        # the audit's thread pool only runs when this is set; it is never timed
        "REEB_LAB_THREADS": "unset" if threads_before is None
        else f"unset (was {threads_before!r})",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REEB_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@contextlib.contextmanager
def on_one_cpu():
    """Keep this process, and the children it starts, on the CPU it runs on.

    A child imports numpy, whose thread pool then spreads over every CPU, so
    its time depends on what the other CPU is doing; kept on one CPU, it
    runs where the pace kernel around it ran.  Within one run, the paced
    times of a CLI subcommand spread by 40% of their median unpinned (the
    interquartile range), and by 10% pinned.
    """
    try:
        allowed = os.sched_getaffinity(0)
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (AttributeError, OSError, IndexError, ValueError):
        yield
        return
    os.sched_setaffinity(0, {cpu} if cpu in allowed else allowed)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# -- passes ------------------------------------------------------------------

@dataclass
class Pass:
    seconds: float                # the operations' calls only
    op_seconds: dict              # per operation
    work: dict                    # units of work per operation, e.g. {"audit:x": {"pairs": n}}
    layers: dict = field(default_factory=dict)   # tracer counters over this pass
    paced: dict = field(default_factory=dict)    # per operation, seconds at the reference pace

    def total(self, key: str) -> int:
        return sum(w.get(key, 0) for w in self.work.values())


def run_pass(ops, gate, tracer=None, pace=None) -> Pass:
    """Run every operation once; only the calls are timed, and the gate
    checks each result afterwards.  With a ``pace``, a call of its kernel
    runs before and after each call, and ``paced`` holds the call's time at
    the reference pace, by the mean of the two kernel times."""
    gc.collect()
    done = Pass(0.0, {}, {})
    before = tracer.snapshot() if tracer is not None else {}
    pace_before = pace.measure() if pace is not None else None
    for op in ops:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = (op.call() if tracer is None
                      else tracer.span(f"op.{op.name}", op.call))
            error = None
        except Exception as exc:                 # noqa: BLE001 -- counted as a failure
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        done.seconds += elapsed
        done.op_seconds[op.name] = elapsed
        if pace is not None:
            pace_after = pace.measure()
            done.paced[op.name] = pace.scale(elapsed, (pace_before + pace_after) / 2)
            pace_before = pace_after
        if error is not None:
            gate.check(op.name, error=describe(error))
        elif gate.verify(op, result):
            done.work[op.name] = op.work(result)
    if tracer is not None:
        done.layers = {k: v - before.get(k, 0) for k, v in tracer.snapshot().items()}
    return done


def timed_passes(ops, gate, seconds: float, t0: float, tracer=None, between=(),
                 pace=None) -> list:
    """Passes for ``seconds`` of wall time (and at least MIN_PASSES).

    The callables in ``between`` run one at a time between passes, at even
    intervals over the window, and their time counts towards it: samples
    taken in other processes see the same machine as the passes do, and a
    run lasts about ``seconds`` whatever its mix.
    """
    passes = []
    pending = list(between)
    step = seconds / (len(pending) + 1)
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if passes and ((now - start >= seconds and len(passes) >= MIN_PASSES)
                       or now - t0 >= HARD_STOP_S):
            break
        if pending and now - start >= step * (len(between) - len(pending) + 1):
            pending.pop(0)()
        else:
            passes.append(run_pass(ops, gate, tracer, pace))
    for task in pending:
        task()
    return passes


# -- subprocesses ------------------------------------------------------------

def run_child(argv, cwd) -> tuple:
    """(wall seconds, exit code, stdout) of one child process, waited for."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def run_cli(cli, workdir, gate, expect) -> tuple:
    """One CLI run; returns (wall seconds, artifact bytes)."""
    out = workdir / cli.out_name
    out.unlink(missing_ok=True)
    seconds, code, _ = run_child([sys.executable, "-m", "reeb_lab.cli", *cli.argv,
                                  "--out", str(out)], workdir)
    name = f"cli:{cli.argv[0]}"
    if code != 0 or not out.is_file():
        gate.check(name, error=f"exit code {code}")
        return seconds, b""
    data = out.read_bytes()
    gate.check(name, sha=digest(data), expect=expect)
    return seconds, data


def run_probe(workload, spec_path, workdir, gate, with_pass: bool) -> dict:
    """One fresh-process probe (see ``probe.py``); its operations are checked here."""
    _, code, stdout = run_child([sys.executable, str(HERE / "probe.py"), workload,
                                 str(spec_path), "1" if with_pass else "0"], workdir)
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        gate.check("probe", error=f"probe exit code {code}, no report")
        return {}
    for r in report.get("results", []):
        gate.check(r.pop("name"), **r)
    return report


# -- the two kinds of run ----------------------------------------------------

def cli_expectation(cli, gate, ops_seen) -> str:
    """Digest the CLI artifact must have: that of the same in-process call."""
    if cli.op.name not in ops_seen:
        run_pass([cli.op], gate)
    return gate.digests.get(cli.op.name, "none: the in-process call failed")


def end_to_end(args, workload, spec_path, workdir, gate, t0) -> tuple:
    ops = workload.ops()
    cli = workload.cli(workdir)
    checks = workload.checks()
    pace, child_pace = Pace(workload.pace), Pace(CHILD_PACE)
    run_pass(ops + checks, gate, pace=pace)               # warm-up, checked
    expect = cli_expectation(cli, gate, {op.name for op in ops + checks})
    probes, setups, cli_times, raw = [], [], [], {"cli_s": [], "setup_s": []}

    def paced_child(run):
        """Run a child process between two pace measurements; returns what
        ``run`` returns and the pace around it."""
        with on_one_cpu():
            before = child_pace.measure(CHILD_PACE_CALLS)
            result = run()
            return result, (before + child_pace.measure(CHILD_PACE_CALLS)) / 2

    def probe(with_pass):
        def task():
            report, pace_s = paced_child(
                lambda: run_probe(args.workload, spec_path, workdir, gate, with_pass))
            probes.append(report)
            if "setup_s" in report:
                raw["setup_s"].append(report["setup_s"])
                setups.append(child_pace.scale(report["setup_s"], pace_s))
        return task

    def cli_run():
        seconds, pace_s = paced_child(lambda: run_cli(cli, workdir, gate, expect)[0])
        raw["cli_s"].append(seconds)
        cli_times.append(child_pace.scale(seconds, pace_s))

    first = run_cli(cli, workdir, gate, expect)[0]       # warm-up, checked
    n_cli = min(CLI_MAX, max(CLI_REPEATS, round(CLI_SHARE * args.seconds / first)))
    tasks = [task for _, task in sorted(
        [(i / n_cli, cli_run) for i in range(n_cli)]
        + [((i + 0.5) / SETUP_REPEATS, probe(i == 0)) for i in range(SETUP_REPEATS)],
        key=lambda t: t[0])]
    passes = timed_passes(ops, gate, args.seconds, t0, between=tasks, pace=pace)
    times = [sum(p.paced.values()) for p in passes]
    rss = next((p["peak_rss_mb"] for p in probes if "peak_rss_mb" in p), math.nan)
    op_paced = {op.name: statistics.median(p.paced[op.name] for p in passes) for op in ops}
    value, pct, n = tail(times)
    metrics = {
        "run_s": (sum(op_paced.values()), "s"),
        "run_s_tail": (value, "s"),
        "cli_s": (statistics.median(cli_times), "s"),
        "setup_s": (statistics.median(setups) if setups else math.nan, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    wall = [p.seconds for p in passes]
    facts = {
        "passes": n, "run_s_tail": {"percentile": pct, "samples": n},
        "pace": {role: {"kernel": p.kind, "reference_s": REFERENCE_S[p.kind],
                        "median_s": statistics.median(p.samples),
                        "spread": spread(p.samples)}
                 for role, p in (("ops", pace), ("children", child_pace))},
        "spread": {"run_s": spread(times), "cli_s": spread(cli_times),
                   "setup_s": spread(setups)},
        "op_paced_s": op_paced,
        "wall": {"median_pass_s": statistics.median(wall), "spread_pass_s": spread(wall),
                 "op_median_s": {op.name: statistics.median(p.op_seconds[op.name]
                                                            for p in passes)
                                 for op in ops},
                 "cli_s": raw["cli_s"], "setup_s": raw["setup_s"]},
        "samples": {"cli_s": cli_times, "setup_s": setups},
    }
    return metrics, facts


def traced(args, workload, spec_path, workdir, gate, t0) -> tuple:
    import workloads
    from tracer import Tracer

    ops = workload.ops()
    cli = workload.cli(workdir)
    checks = workload.checks()
    run_pass(ops + checks, gate)                          # warm-up, checked
    expect = cli_expectation(cli, gate, {op.name for op in ops + checks})
    _, out = run_cli(cli, workdir, gate, expect)
    with on_one_cpu():
        startups = [run_child([sys.executable, "-c", "import reeb_lab.cli"], workdir)[0]
                    for _ in range(CLI_REPEATS)]

    tracer = Tracer()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = tracer.snapshot()
        tracer.install()
        try:
            tracer.span("setup", lambda: workloads.build(args.workload, spec_path))
        finally:
            tracer.uninstall()
        setups.append({k: v - before.get(k, 0) for k, v in tracer.snapshot().items()})

    plain = timed_passes(ops, gate, args.seconds / 2, t0)
    with_spans = timed_passes(ops, gate, args.seconds / 2, t0, tracer)
    metrics = layer_metrics(plain, with_spans, setups, gate)
    metrics["cli.startup_s"] = (statistics.median(startups), "s")
    metrics["cli.out_bytes"] = (len(out), "B")

    spans_dir = ROOT / ".perfbench_out"
    spans_dir.mkdir(exist_ok=True)
    spans_file = spans_dir / f"spans_{args.workload}_{args.seed}.json"
    spans_file.write_text(json.dumps(tracer.span_records()))
    facts = {
        "passes": {"untraced": len(plain), "traced": len(with_spans)},
        "spread": {"untraced_run_s": spread([p.seconds for p in plain]),
                   "traced_run_s": spread([p.seconds for p in with_spans]),
                   "cli.startup_s": spread(startups)},
        "missing_boundaries": [f"{b.module}.{b.attr}" for b in tracer.missing],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, facts


def layer_metrics(plain, with_spans, setups, gate) -> dict:
    """Per-layer metrics: counts and self times per pass from the traced
    passes, throughputs from the plain ones, set-up layers from traced builds.
    Every metric is reported on every workload; a layer a workload does not
    use reads 0."""
    import workloads
    rows = [p.layers for p in with_spans]
    work = plain[-1]

    def med(key):
        return median_of(rows, key)

    def rate(units, op_names):
        secs = statistics.median(sum(p.op_seconds.get(o, 0.0) for o in op_names)
                                 for p in plain)
        return units / secs if units and secs > 0 else 0.0

    everything = list(work.op_seconds)
    transfers = [o for o in everything if o.startswith("transfer:")]
    m = {
        "fail_ratio": (gate.fail_ratio, "ratio"),
        "pairs_per_s": (rate(work.total("pairs"), everything), "1/s"),
        "k0_per_s": (rate(work.total("k0"), everything), "1/s"),
        "taus_per_s": (rate(work.total("taus"), transfers), "1/s"),
        "generators_per_s": (rate(work.total("generators"), everything), "1/s"),
    }
    for name in ("indices.index_triple", "indices.support_interval",
                 "audit.exclusion_certificate", "recurrence.verify",
                 "hamiltonian.action_inverse", "hamiltonian.action_from_period",
                 "hamiltonian.dh_inv", "hamiltonian.action"):
        m[f"{name}.calls"] = (med(f"{name}.calls"), "count")
        m[f"{name}.self_s"] = (med(f"{name}.self_s"), "s")
    calls, busy = m["indices.index_triple.calls"][0], m["indices.index_triple.self_s"][0]
    m["indices.iterates_per_s"] = (calls / busy if busy > 0 else 0.0, "1/s")
    m["audit.system_init_s"] = (median_of(setups, "audit.system_init.total_s"), "s")
    m["audit.self_s"] = (med("audit.self_s"), "s")
    m["audit.pairs"] = (work.total("pairs"), "count")
    m["audit.aligned_pairs"] = (work.total("aligned_pairs"), "count")
    m["recurrence.search.self_s"] = (med("recurrence.search.self_s"), "s")
    m["recurrence.k0_scanned"] = (med("recurrence.k0_scanned"), "count")
    solutions = med("recurrence.solutions")
    m["recurrence.solutions"] = (solutions, "count")
    m["recurrence.index_calls_per_solution"] = (
        med("recurrence.index_triple.calls") / solutions if solutions else 0.0,
        "calls/solution")
    m["hamiltonian.build_profile.self_s"] = (
        median_of(setups, "hamiltonian.build_profile.self_s"), "s")
    m["hamiltonian.action_tables.self_s"] = (med("hamiltonian.action_tables.self_s"), "s")
    for family in workloads.FAMILIES:
        op = f"transfer:{family}"
        m[f"hamiltonian.transfer.{family}.taus_per_s"] = (
            rate(work.work.get(op, {}).get("taus", 0), [op]), "1/s")
    m["ellipsoid.profile.self_s"] = (median_of(setups, "ellipsoid.profile.self_s"), "s")
    m["floergraph.complex_init.self_s"] = (med("floergraph.complex_init.self_s"), "s")
    m["floergraph.barcode.self_s"] = (med("floergraph.barcode.self_s"), "s")
    m["floergraph.generators"] = (work.total("generators"), "count")
    m["floergraph.bars"] = (work.total("bars"), "count")
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in with_spans)
    m["trace.untraced_run_s"] = (plain_s, "s")
    m["trace.traced_run_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    return m


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "reeb_lab" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'reeb_lab'}", file=sys.stderr)
        return 2
    threads_before = os.environ.pop("REEB_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import reeb_lab
    if Path(reeb_lab.__file__).resolve().parent != SRC / "reeb_lab":
        print(f"error: reeb_lab imported from {reeb_lab.__file__}", file=sys.stderr)
        return 2
    import workloads
    from gate import Gate, load_pins

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        spec_path = workloads.write_spec(args.workload, args.seed, workdir)
        workload = workloads.build(args.workload, spec_path)
        pins = load_pins(args.workload) if args.seed == workloads.DEFAULT_SEED else {}
        gate = Gate(pins)
        run = traced if args.trace else end_to_end
        metrics, facts = run(args, workload, spec_path, workdir, gate, t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "seconds": args.seconds, "env": environment(args.seed, threads_before),
             **facts, "digests": gate.digests, "failures": gate.failures,
             "wall_s": time.perf_counter() - t0}
    # a metric that could not be measured (a probe failed) reads 0 and fails the run
    measured = {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    correct = gate.failed == 0 and measured == metrics
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
