"""Reduced Floer graphs and persistence barcodes.

Graphs are opaque inputs (differentials cannot be computed at this level);
this module validates their structural constraints and measures bar lengths.
Coefficients are fixed to the two-element field, so a boundary operator is a
set of row indices per column and reduction is column XOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import (
    FiltrationViolation,
    MalformedGraph,
    MalformedInput,
    NotADifferential,
    json_field,
    json_object,
)

INF = math.inf


@dataclass(frozen=True)
class GraphVertex:
    id: str
    action: float
    mu_hat: Optional[float] = None     # None for the domain vertex
    support: Optional[tuple] = None    # degree range [lo, hi], inclusive
    ranks: dict = field(default_factory=dict)   # degree -> local rank
    kind: str = "orbit"                # "orbit" | "domain"


@dataclass(frozen=True)
class GraphArrow:
    source: str
    target: str
    length: float


@dataclass(frozen=True)
class ReducedFloerGraph:
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise MalformedGraph("duplicate vertex ids")
        object.__setattr__(self, "_by_id", {v.id: v for v in self.vertices})
        for a in self.arrows:
            if a.source not in self._by_id or a.target not in self._by_id:
                raise MalformedGraph(f"arrow {a.source}->{a.target} references unknown vertex")
            src, dst = self._by_id[a.source], self._by_id[a.target]
            want = src.action - dst.action
            if abs(a.length - want) > 1e-9 * max(1.0, abs(want)):
                raise MalformedGraph(
                    f"arrow {a.source}->{a.target} length {a.length} != action gap {want}"
                )

    def vertex(self, vid: str) -> GraphVertex:
        return self._by_id[vid]

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "action": v.action, "mu_hat": v.mu_hat,
                 "support": list(v.support) if v.support else None,
                 "ranks": {str(k): r for k, r in v.ranks.items()}, "kind": v.kind}
                for v in self.vertices
            ],
            "arrows": [{"source": a.source, "target": a.target, "length": a.length}
                       for a in self.arrows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ReducedFloerGraph":
        vertices = tuple(
            GraphVertex(
                id=v["id"], action=float(v["action"]),
                mu_hat=v.get("mu_hat"),
                support=tuple(v["support"]) if v.get("support") else None,
                ranks={int(k): int(r) for k, r in (v.get("ranks") or {}).items()},
                kind=v.get("kind", "orbit"),
            )
            for v in obj["vertices"]
        )
        arrows = tuple(
            GraphArrow(source=a["source"], target=a["target"], length=float(a["length"]))
            for a in obj["arrows"]
        )
        return cls(vertices=vertices, arrows=arrows)


@dataclass(frozen=True)
class Violation:
    rule: str          # "positivity" | "mean-gap" | "protected"
    source: str
    target: str
    detail: str


def validate_graph(graph: ReducedFloerGraph, n: int,
                   protected: Optional[Dict[str, float]] = None) -> List[Violation]:
    """List every structural violation; an empty list certifies the graph.

    Rules: arrows strictly decrease action; no arrow may join vertices whose
    mean indices differ by more than 2n; arrows touching a protected vertex
    must be longer than its energy floor sigma.
    """
    protected = protected or {}
    out = []
    for a in graph.arrows:
        if a.length <= 0:
            out.append(Violation("positivity", a.source, a.target,
                                 f"length {a.length} <= 0"))
        src, dst = graph.vertex(a.source), graph.vertex(a.target)
        if src.mu_hat is not None and dst.mu_hat is not None:
            gap = abs(src.mu_hat - dst.mu_hat)
            if gap > 2 * n:
                out.append(Violation("mean-gap", a.source, a.target,
                                     f"mean-index gap {gap:.6g} > 2n = {2 * n}"))
        for vid in (a.source, a.target):
            sigma = protected.get(vid)
            if sigma is not None and a.length <= sigma:
                out.append(Violation("protected", a.source, a.target,
                                     f"length {a.length:.6g} <= sigma = {sigma:.6g}"))
    return out


# ---------------------------------------------------------------------------
# barcodes over the two-element field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bar:
    birth: float
    death: float       # math.inf for essential classes
    degree: int

    def __post_init__(self):
        if not self.death > self.birth:
            raise FiltrationViolation(f"bar death {self.death} <= birth {self.birth}")

    @property
    def length(self) -> float:
        return self.death - self.birth

    def to_row(self) -> tuple:
        return (self.birth, "inf" if self.death == INF else self.death, self.degree)


@dataclass(frozen=True)
class FilteredComplex:
    """Generators (id, action, degree) and an F2 boundary by generator id."""

    generators: tuple                  # (id, action, degree)
    boundary: dict                     # id -> frozenset of ids

    def __post_init__(self):
        ids = [g[0] for g in self.generators]
        if len(set(ids)) != len(ids):
            raise MalformedGraph("duplicate generator ids")
        object.__setattr__(self, "boundary",
                           {k: frozenset(v) for k, v in self.boundary.items()})
        info = {g[0]: (float(g[1]), int(g[2])) for g in self.generators}
        if not all(map(math.isfinite, (a for a, _ in info.values()))):
            gid = next(g for g, (a, _) in info.items() if not math.isfinite(a))
            raise FiltrationViolation(f"generator {gid} has action {info[gid][0]}: "
                                      f"actions must be finite")
        for col, rows in self.boundary.items():
            if col not in info:
                raise MalformedGraph(f"boundary of unknown generator {col}")
            action, degree = info[col]
            for r in rows:
                if r not in info:
                    raise MalformedGraph(f"boundary hits unknown generator {r}")
                r_action, r_degree = info[r]
                if not r_action < action:
                    raise FiltrationViolation(
                        f"boundary of {col} (action {action}) hits {r} "
                        f"(action {r_action}): not strictly decreasing"
                    )
                if r_degree != degree - 1:
                    raise MalformedGraph(
                        f"boundary of {col} (degree {degree}) hits {r} "
                        f"(degree {r_degree}): the degree must drop by one"
                    )
        _check_squares(self.boundary)

    @classmethod
    def from_json(cls, obj: dict) -> "FilteredComplex":
        """Raises MalformedInput on an unknown key, on a generator without
        "id", "action" or "degree", with another key or with a value of the
        wrong JSON type, and on a boundary entry that is not a list of ids."""
        json_object(obj, ("generators", "boundary"), "complex")
        gens = []
        for pos, g in enumerate(json_field(obj, "generators", list, "complex")):
            if (type(g) is dict and len(g) == 3 and type(g.get("id")) is str
                    and type(g.get("action")) is float and type(g.get("degree")) is int):
                gens.append((g["id"], g["action"], g["degree"]))
            else:   # converts an int action or an integral float degree, or raises
                where = f"generator {pos}"
                json_object(g, ("id", "action", "degree"), where)
                gens.append(tuple(json_field(g, key, kind, where) for key, kind
                                  in (("id", str), ("action", float), ("degree", int))))
        bnd = {} if obj.get("boundary") is None else json_field(obj, "boundary", dict, "complex")
        for col, rows in bnd.items():
            if type(rows) is not list or not all(type(r) is str for r in rows):
                raise MalformedInput(f"boundary of {col}: expected a list of ids")
        return cls(generators=tuple(gens), boundary=bnd)

    def to_json(self) -> dict:
        return {
            "generators": [{"id": g[0], "action": g[1], "degree": g[2]}
                           for g in self.generators],
            "boundary": {k: sorted(v) for k, v in self.boundary.items()},
        }


def _check_squares(boundary: dict):
    for col, rows in boundary.items():
        acc: Set = set()
        for r in rows:
            acc ^= set(boundary.get(r, frozenset()))
        if acc:
            raise NotADifferential(f"boundary of boundary of {col} is {sorted(acc)}")


def barcode(complex_: FilteredComplex) -> List[Bar]:
    """Standard column reduction in action order; deterministic tie order.

    Generators are processed by (action, input position); a pairing (i, j)
    yields the bar [action_i, action_j) in the degree of the dying cycle's
    generator; unpaired generators yield infinite bars.
    """
    order = sorted(range(len(complex_.generators)),
                   key=lambda i: (complex_.generators[i][1], i))
    pos = {complex_.generators[i][0]: rank for rank, i in enumerate(order)}
    gens = [complex_.generators[i] for i in order]

    columns: List[Set[int]] = []
    for gid, _a, _d in gens:
        columns.append({pos[r] for r in complex_.boundary.get(gid, frozenset())})
    low_to_col: Dict[int, int] = {}
    pairs: List[Tuple[int, int]] = []
    for j in range(len(columns)):
        col = columns[j]
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                break
            col ^= columns[other]
        if col:
            low = max(col)
            low_to_col[low] = j
            columns[j] = col
            pairs.append((low, j))
    paired = {i for p in pairs for i in p}
    bars = []
    for i, j in pairs:
        bars.append(Bar(birth=gens[i][1], death=gens[j][1], degree=gens[i][2]))
    for i, (gid, a, d) in enumerate(gens):
        if i not in paired:
            bars.append(Bar(birth=a, death=INF, degree=d))
    bars.sort(key=lambda b: (b.birth, b.death, b.degree))
    return bars


@dataclass(frozen=True)
class BarLengthReport:
    ok: bool
    witnesses: tuple    # bars ending at or below the level with length >= max_length

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "witnesses": [list(b.to_row()) for b in self.witnesses]}


def check_bar_lengths(bars: Sequence[Bar], max_length: float,
                      level: float) -> BarLengthReport:
    """True iff every bar ending at or below `level` is shorter than max_length.

    Infinite bars never end below a finite level and are ignored by design.
    """
    witnesses = tuple(
        b for b in bars
        if b.death <= level and not b.length < max_length
    )
    return BarLengthReport(ok=not witnesses, witnesses=witnesses)
