import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reeb_lab.errors import (
    FiltrationViolation,
    MalformedGraph,
    MalformedInput,
    NotADifferential,
    ReebLabError,
)
from reeb_lab.floergraph import (
    Bar,
    FilteredComplex,
    barcode,
    check_bar_lengths,
)

from _oracles import (
    bars_betti,
    frozenset_barcode,
    id_keyed_barcode,
    random_complex,
    sublevel_betti,
)

INF = math.inf


class TestBarcode:
    def test_single_pair(self):
        cx = FilteredComplex(
            generators=(("y", 0.0, 3), ("x", 1.0, 4)),
            boundary={"x": {"y"}})
        bars = barcode(cx)
        assert bars == [Bar(birth=0.0, death=1.0, degree=3)]

    def test_no_differential_all_infinite(self):
        cx = FilteredComplex(
            generators=(("a", 0.0, 0), ("b", 1.0, 1)), boundary={})
        assert all(b.death == INF for b in barcode(cx))

    def test_square_zero_enforced(self):
        with pytest.raises(NotADifferential):
            FilteredComplex(
                generators=(("a", 0.0, 0), ("b", 1.0, 1), ("c", 2.0, 2)),
                boundary={"c": {"b"}, "b": {"a"}})

    def test_square_zero_skips_only_degrees_over_zero_columns(self):
        # degree-2 boundaries on edges without boundaries: d^2 = 0 holds
        # whatever their rows are
        gens = (("a", 0.0, 0), ("b", 0.0, 0), ("e", 1.0, 1), ("f", 1.0, 1), ("t", 2.0, 2))
        bnd = {"t": ["e", "f"]}
        assert barcode(FilteredComplex(generators=gens, boundary=bnd)) == \
            frozenset_barcode(gens, bnd) == [
                Bar(0.0, INF, 0), Bar(0.0, INF, 0), Bar(1.0, 2.0, 1), Bar(1.0, INF, 1)]
        # two broken degree-2 columns over a nonzero edge: both are checked,
        # and the first in the filtration order is named
        with pytest.raises(NotADifferential, match=r"^boundary of boundary of hi is \['lo'\]$"):
            FilteredComplex(
                generators=(("top", 3.0, 2), ("lo", 0.0, 0), ("mid", 1.0, 1), ("hi", 2.0, 2)),
                boundary={"top": {"mid"}, "mid": {"lo"}, "hi": {"mid"}})

    def test_filtration_enforced(self):
        with pytest.raises(FiltrationViolation):
            FilteredComplex(
                generators=(("a", 2.0, 0), ("b", 1.0, 1)),
                boundary={"b": {"a"}})

    def test_degree_must_drop_by_one(self):
        with pytest.raises(MalformedGraph, match="degree must drop by one"):
            FilteredComplex(generators=(("a", 0.0, 0), ("b", 1.0, 3)),
                            boundary={"b": {"a"}})

    @pytest.mark.parametrize("action", [math.inf, -math.inf, math.nan])
    def test_actions_must_be_finite(self, action):
        with pytest.raises(FiltrationViolation, match="generator b has action"):
            FilteredComplex(generators=(("a", 0.0, 0), ("b", action, 0)), boundary={})

    @pytest.mark.parametrize("obj", [
        {"generators": [{"id": "a", "action": 1.0}], "boundary": {}},
        {"generators": [{"action": 1.0, "degree": 0}]},
        {"generators": [{"id": "a", "degree": 0}]},
        {"generators": [{"id": 3, "action": 1.0, "degree": 0}]},
        {"generators": [{"id": "a", "action": "1.0", "degree": 0}]},
        {"generators": [{"id": "a", "action": 1.0, "degree": 0.5}]},
        {"generators": [{"id": "a", "action": 1.0, "degree": True}]},
        {"generators": ["a"]},
        {"generators": {"a": 1}},
        {"boundary": {}},
        [],
        {"generators": [{"id": "a", "action": 1.0, "degree": 0}], "boundary": []},
        {"generators": [{"id": "a", "action": 1.0, "degree": 0}], "boundary": {"a": "b"}},
        {"generators": [{"id": "a", "action": 1.0, "degree": 0}], "boundary": {"a": [["b"]]}},
        {"generators": [{"id": "a", "action": 1.0, "degree": 0, "weight": 2.0}]},
        {"generators": [{"id": "a", "action": 1, "degree": 0, "weight": 2.0}]},
        {"generators": [], "boundaries": {}},
    ])
    def test_from_json_typed_errors(self, obj):
        with pytest.raises(MalformedInput):
            FilteredComplex.from_json(obj)

    def test_from_json_converts_as_the_schema_allows(self):
        cx = FilteredComplex.from_json({
            "generators": [{"id": "a", "action": 0, "degree": 0.0},
                           {"id": "b", "action": 1.5, "degree": 1}],
            "boundary": {"b": ["a"]}})
        assert cx.generators == (("a", 0.0, 0), ("b", 1.5, 1))
        assert [type(v) for v in cx.generators[0]] == [str, float, int]
        assert cx.boundary == {"b": ["a"]}
        assert FilteredComplex.from_json({"generators": [], "boundary": None}).boundary == {}

    def test_interleaved_pairs(self):
        # two births then two deaths pairing across each other
        cx = FilteredComplex(
            generators=(("a", 0.0, 1), ("b", 1.0, 1),
                        ("u", 2.0, 2), ("v", 3.0, 2)),
            boundary={"u": {"a", "b"}, "v": {"b"}})
        bars = sorted(barcode(cx), key=lambda b: b.birth)
        finite = [b for b in bars if b.death < INF]
        assert {(b.birth, b.death) for b in finite} == {(0.0, 2.0), (1.0, 3.0)} or \
               {(b.birth, b.death) for b in finite} == {(1.0, 2.0), (0.0, 3.0)}
        # pairing is determined by the reduction; verify against ranks instead
        for level in (0.5, 1.5, 2.5, 3.5):
            expect = sublevel_betti(cx.generators,
                                    {k: set(v) for k, v in cx.boundary.items()}, level)
            got = bars_betti(bars, level)
            assert {d: r for d, r in got.items() if r} == \
                   {d: r for d, r in expect.items() if r}

    def test_rank_oracle_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            gens, boundary = random_complex(rng, n)
            cx = FilteredComplex(generators=tuple(gens), boundary=boundary)
            bars = barcode(cx)
            levels = sorted({g[1] for g in gens})
            probes = [levels[0] - 1.0] + [
                lv + off for lv in levels for off in (0.0, 1e-4)
            ]
            for level in probes:
                expect = sublevel_betti(gens, {k: set(v) for k, v in boundary.items()},
                                        level)
                got = bars_betti(bars, level)
                expect = {d: r for d, r in expect.items() if r}
                got = {d: r for d, r in got.items() if r}
                assert got == expect, (gens, boundary, level)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_input_order_invariance(self, perm):
        gens = [("a", 0.0, 1), ("b", 1.0, 1), ("u", 2.0, 2), ("v", 3.0, 2),
                ("w", 4.0, 0), ("x", 5.0, 1)]
        boundary = {"u": frozenset({"a", "b"}), "v": frozenset({"b"}),
                    "x": frozenset({"w"})}
        shuffled = tuple(gens[i] for i in perm)
        bars0 = barcode(FilteredComplex(generators=tuple(gens), boundary=boundary))
        bars1 = barcode(FilteredComplex(generators=shuffled, boundary=boundary))
        key = lambda b: (b.birth, b.death, b.degree)
        assert sorted(bars0, key=key) == sorted(bars1, key=key)


# one fault each; fresh ids, so that no other check can fire first
def _duplicate_id(rng, gens, bnd):
    gens.insert(int(rng.integers(len(gens) + 1)), (gens[int(rng.integers(len(gens)))][0], 1.0, 0))


def _non_finite_action(rng, gens, bnd):
    i = int(rng.integers(len(gens)))
    gens[i] = (gens[i][0], float(rng.choice([math.inf, -math.inf, math.nan])), gens[i][2])


def _unknown_column(rng, gens, bnd):
    bnd["ghost"] = frozenset({gens[int(rng.integers(len(gens)))][0]})


def _unknown_row(rng, gens, bnd):
    col = gens[int(rng.integers(len(gens)))][0]
    bnd[col] = [*bnd.get(col, ()), "ghost"]


def _pair(rng, gens, bnd, low, high):
    # a column "hi" whose boundary is the one generator "lo"
    for g in (low, high):
        gens.insert(int(rng.integers(len(gens) + 1)), g)
    bnd["hi"] = frozenset({"lo"})


def _not_decreasing(rng, gens, bnd):
    a = float(rng.integers(0, 10))
    _pair(rng, gens, bnd, ("lo", a + float(rng.integers(0, 2)), 0), ("hi", a, 1))


def _wrong_degree(rng, gens, bnd):
    _pair(rng, gens, bnd, ("lo", 0.0, 0), ("hi", 1.0, int(rng.choice([0, 2, 3]))))


def _not_a_differential(rng, gens, bnd):
    _pair(rng, gens, bnd, ("mid", 1.0, 1), ("hi", 2.0, 2))
    gens.insert(int(rng.integers(len(gens) + 1)), ("lo", 0.0, 0))
    bnd["hi"], bnd["mid"] = frozenset({"mid"}), frozenset({"lo"})


def _many_bad_rows(rng, gens, bnd):
    # one column whose rows break the checks in different ways: the row
    # named is the first in its list
    gens.insert(int(rng.integers(len(gens) + 1)), ("hi", 5.0, 1))
    rows = []
    for k in range(int(rng.integers(2, 5))):
        kind = int(rng.integers(3))
        if kind:
            bad = (5.0 + float(rng.integers(0, 2)), 0) if kind == 1 else \
                  (1.0, int(rng.choice([-1, 1, 2])))
            gens.insert(int(rng.integers(len(gens) + 1)), (f"lo{k}",) + bad)
        rows.append(f"lo{k}")
    bnd["hi"] = rows


def _two_broken_columns(rng, gens, bnd):
    # d^2 fails on both; the first in the filtration order is named
    _not_a_differential(rng, gens, bnd)
    gens.insert(int(rng.integers(len(gens) + 1)), ("top", float(rng.choice([2.0, 3.0])), 2))
    bnd["top"] = frozenset({"mid"})


FAULTS = (_duplicate_id, _non_finite_action, _unknown_column, _unknown_row,
          _not_decreasing, _wrong_degree, _not_a_differential)


def _outcome(build):
    try:
        return build()
    except ReebLabError as exc:
        return type(exc), str(exc)


class TestIdKeyedOracle:
    """The integer columns against the id-keyed complex and barcode they
    replaced: the same bars, or the same exception."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), distinct=st.booleans(),
           faults=st.lists(st.sampled_from(FAULTS), max_size=2))
    @example(seed=0, n=4, distinct=False, faults=[_not_decreasing])
    @example(seed=0, n=4, distinct=True, faults=[_not_a_differential])
    def test_same_bars_or_same_error(self, seed, n, distinct, faults):
        rng = np.random.default_rng(seed)
        gens, bnd = random_complex(rng, n, distinct=distinct)
        gens = [gens[i] for i in rng.permutation(n)]
        for fault in faults:
            fault(rng, gens, bnd)
        got = _outcome(lambda: barcode(FilteredComplex(generators=tuple(gens), boundary=bnd)))
        want = _outcome(lambda: id_keyed_barcode(tuple(gens), bnd))
        if faults:
            assert isinstance(want, tuple), "every fault is invalid"
            assert got[0] is want[0]
            if len(faults) == 1:
                assert got == want
        else:
            assert got == want


class TestFrozensetOracle:
    """The bit columns against the frozenset columns over filtration
    positions that they replaced: the same bars, or the same exception with
    the same message."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 12), distinct=st.booleans(),
           degrees=st.sampled_from([(0, 1, 2), (-2, -1, 0), (0, 2, 3, 5), (-3, -1, 0, 1, 4)]),
           faults=st.lists(st.sampled_from(FAULTS + (_many_bad_rows, _two_broken_columns)),
                           max_size=2))
    @example(seed=0, n=0, distinct=True, degrees=(0, 1, 2), faults=[])
    @example(seed=1, n=6, distinct=True, degrees=(0, 1, 2), faults=[_many_bad_rows])
    def test_same_bars_or_same_error(self, seed, n, distinct, degrees, faults):
        assume(n or not faults)
        rng = np.random.default_rng(seed)
        gens, bnd = random_complex(rng, n, degrees=degrees, distinct=distinct)
        gens = [gens[i] for i in rng.permutation(n)]
        # lists that repeat some rows: a repeated row is one row
        bnd = {col: list(rows) + [r for r in rows if rng.random() < 0.5]
               for col, rows in bnd.items()}
        for fault in faults:
            fault(rng, gens, bnd)
        got = _outcome(lambda: barcode(FilteredComplex(generators=tuple(gens), boundary=bnd)))
        want = _outcome(lambda: frozenset_barcode(tuple(gens), bnd))
        assert isinstance(want, tuple) == bool(faults)
        assert got == want

    def test_repeated_rows_are_one_row(self):
        cx = FilteredComplex(generators=(("a", 0.0, 0), ("b", 0.0, 0), ("e", 1.0, 1)),
                             boundary={"e": ["a", "b", "a"]})
        assert barcode(cx) == frozenset_barcode(cx.generators, {"e": ["a", "b", "a"]}) == [
            Bar(0.0, 1.0, 0), Bar(0.0, INF, 0)]


class TestBarLengths:
    def test_all_short(self):
        bars = [Bar(0.0, 1.0, 2), Bar(2.0, 2.5, 3)]
        assert check_bar_lengths(bars, max_length=1.5, level=10.0).ok

    def test_witness_reported(self):
        bars = [Bar(0.0, 3.0, 2)]
        rep = check_bar_lengths(bars, max_length=2.0, level=10.0)
        assert not rep.ok and rep.witnesses == (bars[0],)

    def test_infinite_bars_ignored(self):
        bars = [Bar(0.0, INF, 2)]
        assert check_bar_lengths(bars, max_length=2.0, level=10.0).ok

    def test_ending_above_level_ignored(self):
        bars = [Bar(0.0, 30.0, 2)]
        assert check_bar_lengths(bars, max_length=2.0, level=10.0).ok
