"""Persistence barcodes of filtered chain complexes over the two-element field.

A complex is given by its generators (id, action, degree) and a boundary
operator that must be a differential respecting the filtration; since the
field is F2, a boundary is a set of row indices per column and reduction is
column XOR.  Bars are then measured against a length bound below a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
    """Generators (id, action, degree) and an F2 boundary by generator id.

    Construction resolves every id once, to its position in the filtration
    order (action, input position), and keeps the boundary as integer
    columns: position p holds generator _order[p], and _columns[p] is the
    frozenset of the positions in its boundary.  Every check runs on those
    columns and names the generators by id.
    """

    generators: tuple                  # (id, action, degree)
    boundary: dict                     # id -> frozenset of ids

    def __post_init__(self):
        gens = self.generators
        ids = [g[0] for g in gens]
        if len(set(ids)) != len(ids):
            raise MalformedGraph("duplicate generator ids")
        object.__setattr__(self, "boundary",
                           {k: frozenset(v) for k, v in self.boundary.items()})
        for g in gens:
            if not math.isfinite(float(g[1])):
                raise FiltrationViolation(f"generator {g[0]} has action {float(g[1])}: "
                                          f"actions must be finite")
        order = sorted(range(len(gens)), key=lambda i: (gens[i][1], i))
        pos = {ids[i]: p for p, i in enumerate(order)}
        action = [float(gens[i][1]) for i in order]
        degree = [int(gens[i][2]) for i in order]
        columns = [frozenset()] * len(gens)
        for col, rows in self.boundary.items():
            j = pos.get(col)
            if j is None:
                raise MalformedGraph(f"boundary of unknown generator {col}")
            column = []
            for r in rows:
                p = pos.get(r)
                if p is None:
                    raise MalformedGraph(f"boundary hits unknown generator {r}")
                if not action[p] < action[j]:
                    raise FiltrationViolation(
                        f"boundary of {col} (action {action[j]}) hits {r} "
                        f"(action {action[p]}): not strictly decreasing"
                    )
                if degree[p] != degree[j] - 1:
                    raise MalformedGraph(
                        f"boundary of {col} (degree {degree[j]}) hits {r} "
                        f"(degree {degree[p]}): the degree must drop by one"
                    )
                column.append(p)
            columns[j] = frozenset(column)
        for j, column in enumerate(columns):
            acc = set()
            for p in column:
                acc ^= columns[p]
            if acc:
                raise NotADifferential(f"boundary of boundary of {ids[order[j]]} is "
                                       f"{sorted(ids[order[p]] for p in acc)}")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_columns", columns)

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


def barcode(complex_: FilteredComplex) -> List[Bar]:
    """Standard column reduction of the complex's columns, left to right in
    its filtration order (action, input position).

    A pairing (i, j) yields the bar [action_i, action_j) in the degree of
    the dying cycle's generator; unpaired generators yield infinite bars.
    """
    gens = [complex_.generators[i] for i in complex_._order]
    columns = list(complex_._columns)
    low_to_col: Dict[int, int] = {}
    pairs: List[Tuple[int, int]] = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                low_to_col[low] = j
                columns[j] = col
                pairs.append((low, j))
                break
            col ^= columns[other]      # a new frozenset: the complex keeps its own
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
