"""Fresh-process probe: set-up time, and peak memory of one pass.

    python3 perfbench/probe.py WORKLOAD SPEC_JSON WITH_PASS

Times the import of the library plus the construction of the workload's
inputs from the spec file, from this process's first statement.  With
WITH_PASS=1 it then runs one pass and reports its peak resident memory and
the outcome of every operation, which the parent checks.  Prints one JSON
object.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    name, spec_path, with_pass = argv[0], argv[1], argv[2] == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    from gate import describe, outcome

    workload = workloads.build(name, Path(spec_path))
    report = {"setup_s": time.perf_counter() - START}
    if with_pass:
        results = []
        for op in workload.ops():
            try:
                results.append({"name": op.name, **outcome(op, op.call())})
            except Exception as exc:             # noqa: BLE001 -- reported to the parent
                results.append({"name": op.name, "error": describe(exc)})
        report["results"] = results
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
