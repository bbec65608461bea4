"""Correctness gate: every operation's output is checked and counted.

An operation fails when it raises, when its process exits non-zero, when its
output breaks an invariant of its workload, when its output differs from
what the same operation gave the first time in the run, or, at the default
seed, when the sha256 of its artifact (the bytes the CLI writes) differs from
the digest pinned in ``pins.json``.  A fast wrong answer is therefore a
failure, not a speed-up.

The first result of an operation is serialized and digested; later results
are compared with it as JSON data, which is as strict and much cheaper than
serializing 17,000 bars in every pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

PINS = Path(__file__).resolve().parent / "pins.json"


def load_pins(workload: str) -> dict:
    """Pinned sha256 per operation of ``workload`` at the default seed."""
    return json.loads(PINS.read_text()).get(workload, {})


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    def __init__(self, pins: Optional[dict] = None):
        self.pins = pins or {}
        self.attempted = 0
        self.failed = 0
        self.failures = []        # (operation, reason), first few only
        self.digests = {}         # operation -> sha256 of its first artifact
        self.first = {}           # operation -> payload of its first result

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail(self, name: str, reason: str) -> bool:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append((name, reason))
        return False

    def check(self, name: str, sha: Optional[str] = None, problems=(),
              error: Optional[str] = None, expect: Optional[str] = None) -> bool:
        """Count one attempted operation; return whether it passed.

        ``sha`` is the digest of the operation's artifact.  ``expect`` is a
        digest it must have besides the pinned one, such as that of the
        in-process artifact a CLI run must reproduce.
        """
        if error is not None:
            return self.fail(name, error)
        if problems:
            return self.fail(name, "; ".join(problems[:3]))
        if sha is not None:
            for label, want in (("pinned", self.pins.get(name)),
                                ("earlier", self.digests.setdefault(name, sha)),
                                ("expected", expect)):
                if want is not None and sha != want:
                    return self.fail(name, f"artifact sha256 {sha[:12]} != {label} {want[:12]}")
        self.attempted += 1
        return True

    def verify(self, op, result) -> bool:
        """Check the result of one call of ``op``."""
        if op.name not in self.first:
            found = outcome(op, result)
            if "sha" in found:
                self.first[op.name] = op.payload(result)
            return self.check(op.name, **found)
        try:
            same = op.payload(result) == self.first[op.name]
            problems = op.problems(result)
        except Exception as exc:                 # noqa: BLE001 -- a malformed result fails
            return self.check(op.name, error=describe(exc))
        return self.check(op.name, problems=problems,
                          error=None if same else "output differs from the first call's")


def describe(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def outcome(op, result) -> dict:
    """Digest and invariant violations of one result, as ``Gate.check`` takes them."""
    try:
        return {"sha": digest(op.artifact(result)), "problems": op.problems(result)}
    except Exception as exc:                     # noqa: BLE001 -- a malformed result fails
        return {"error": describe(exc)}
