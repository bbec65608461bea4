"""Persistence barcodes of filtered chain complexes over the two-element field.

A complex is given by its generators (id, action, degree) and a boundary
operator that must be a differential respecting the filtration.  Over F2 a
column is a set of rows, so each column is one Python int used as a bit set,
and adding one column to another is one XOR.

The bits are per-degree ranks.  A generator's rank is its place among the
generators of its own degree in the filtration order (action, input
position), and bit r of a degree-d column is the r-th generator of degree
d - 1.  The constructor checks that every boundary drops the degree by one,
so every row of a degree-d column has degree d - 1 and the rank names it.
Rank order is filtration order, so the highest set bit, col.bit_length() - 1,
is the row latest in the filtration: the pivot of the standard reduction.
A column is as long as the degree below it has generators, not as long as
the whole complex, which keeps the bit columns of a large complex small.
The reduction adds to a column only columns of its own degree, so it runs
degree by degree on these columns (see `barcode`).  Bars are then measured
against a length bound below a level.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Dict, List, Sequence, Tuple

from .errors import (
    Checked,
    FiltrationViolation,
    MalformedGraph,
    MalformedInput,
    NotADifferential,
    json_field,
    json_object,
)

INF = math.inf


class Bar(namedtuple("Bar", "birth death degree")):
    """The bar [birth, death) of a class in a degree; death is math.inf for
    an essential class.  Two bars with the same fields are equal, and a bar
    equals the plain tuple (birth, death, degree), as every record of this
    package equals the plain tuple of its fields.

    The constructor raises FiltrationViolation when death <= birth.
    `barcode` builds its bars with `Bar._make`, which skips that check: its
    bars satisfy it by construction (see `barcode`).
    """
    __slots__ = ()

    def __new__(cls, birth: float, death: float, degree: int):
        if not death > birth:
            raise FiltrationViolation(f"bar death {death} <= birth {birth}")
        return super().__new__(cls, birth, death, degree)

    @property
    def length(self) -> float:
        return self.death - self.birth

    def to_row(self) -> tuple:
        return (self.birth, "inf" if self.death == INF else self.death, self.degree)


class FilteredComplex(Checked, namedtuple("FilteredComplex", [
        "generators",       # (id, action, degree)
        "boundary"])):      # id -> ids, as given
    """Generators (id, action, degree) and an F2 boundary by generator id.

    Construction resolves every id once, to its degree and its rank in that
    degree, and keeps the boundary as bit columns: _ranked[d] holds the input
    positions of the degree-d generators in filtration order (action, input
    position), and _columns[d][r] is the boundary of the r-th of them, with
    bit s set when it hits the s-th generator of degree d - 1.  Every check
    runs while the columns are built, or on them, and names the generators
    by id, the first bad row of a list in input order.  boundary is the
    caller's dict as given, kept for reference only (do not change it after
    construction; equality compares its rows as given, order and repeats
    included); a row repeated in a list is one row, as a column ORs bits.
    """

    def __init__(self, *args, **kwargs):
        gens = self.generators
        ids = [g[0] for g in gens]
        if len(set(ids)) != len(ids):
            raise MalformedGraph("duplicate generator ids")
        for g in gens:
            if not math.isfinite(float(g[1])):
                raise FiltrationViolation(f"generator {g[0]} has action {float(g[1])}: "
                                          f"actions must be finite")
        actions = [g[1] for g in gens]
        order = sorted(range(len(gens)), key=actions.__getitem__)   # stable: ties keep input order
        ranked: Dict[int, List[int]] = {}
        where: Dict[str, Tuple[float, int, int]] = {}               # id -> (action, degree, rank)
        for i in order:
            gid, action, degree = gens[i]
            degree = int(degree)
            same = ranked.setdefault(degree, [])
            where[gid] = (float(action), degree, len(same))
            same.append(i)
        columns = {d: [0] * len(same) for d, same in ranked.items()}
        for col, rows in self.boundary.items():
            head = where.get(col)
            if head is None:
                raise MalformedGraph(f"boundary of unknown generator {col}")
            action, degree, j = head
            bits = 0
            for r in rows:
                row = where.get(r)
                if row is None:
                    raise MalformedGraph(f"boundary hits unknown generator {r}")
                r_action, r_degree, rank = row
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
                bits |= 1 << rank
            columns[degree][j] = bits
        broken = []     # d^2 = 0: a column's rows' columns sum to zero
        for degree, cols in columns.items():
            below = columns.get(degree - 1)
            if below is None or not any(below):
                continue    # the columns below are zero, so every sum is zero
            for j, rest in enumerate(cols):
                acc = 0
                while rest:
                    low = rest.bit_length() - 1
                    acc ^= below[low]
                    rest ^= 1 << low
                if acc:
                    broken.append((degree, ranked[degree][j], acc))
        if broken:      # name the first broken column in the filtration order
            degree, i, acc = min(broken, key=lambda b: (actions[b[1]], b[1]))
            names = [ids[k] for k in ranked[degree - 2]]
            raise NotADifferential(
                f"boundary of boundary of {ids[i]} is "
                f"{sorted(names[r] for r in range(acc.bit_length()) if acc >> r & 1)}")
        object.__setattr__(self, "_ranked", ranked)
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
    """Standard column reduction over F2, left to right in the filtration
    order (action, input position); the bars are sorted by (birth, death,
    degree).

    A pairing (i, j) yields the bar [action_i, action_j) in the degree of
    the dying cycle's generator; unpaired generators yield infinite bars.

    Each degree reduces on its own.  A degree-d column has its pivot among
    the generators of degree d - 1, and only a degree-d column can have
    such a pivot, so a column absorbs only reduced columns of its own
    degree.  Within a degree, rank order is filtration order.  So reducing
    each degree's columns in rank order gives the pairs of the reduction
    over the whole complex in filtration order.

    Every bar has death > birth, so the bars are built without the check of
    `Bar`'s constructor.  The reduced column j is column j plus columns
    before it in the filtration, each of action at most action_j.  Every row
    of a column has strictly lower action than that column (a constructor
    check).  So the pivot row i of a reduced column j has action_i <
    action_j.
    """
    gens = complex_.generators
    ranked = complex_._ranked
    paired = {d: bytearray(len(same)) for d, same in ranked.items()}
    rows = []
    for degree, columns in complex_._columns.items():
        births, deaths = ranked.get(degree - 1), ranked[degree]
        pivots: Dict[int, int] = {}
        for j, col in enumerate(columns):
            while col:
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    birth = gens[births[low]]
                    rows.append((birth[1], gens[deaths[j]][1], birth[2]))
                    paired[degree - 1][low] = paired[degree][j] = 1
                    break
                col ^= other
    for degree, same in ranked.items():
        flags = paired[degree]
        rows.extend((gens[i][1], INF, gens[i][2]) for r, i in enumerate(same) if not flags[r])
    rows.sort()
    return list(map(Bar._make, rows))


class BarLengthReport(namedtuple("BarLengthReport", [
        "ok",
        "witnesses"])):     # bars ending at or below the level with length >= max_length
    __slots__ = ()


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
