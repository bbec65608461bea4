import argparse
import ast
import copy
import csv
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import validators

import reeb_lab
import reeb_lab.cli as cli
from reeb_lab.cli import build_parser, main
from reeb_lab.errors import MalformedInput, NotExcluded
from reeb_lab.floergraph import Bar

SCHEMA_DIR = Path(reeb_lab.__file__).parent / "schemas"
SQRT2 = "1.4142135623730951"
# hamiltonian flags of each profile family beyond --slope 5 --r-max 2
FAMILY_FLAGS = {"quadratic": [], "cubic": ["--theta", "0.6"], "exp": ["--beta", "1.5"],
                "spline": ["--slope", "1.5", "--knots", "1,2"]}


# a valid cylinder trace on the grid s = 0, 1, 2 by t = 0, 1, 2, and the flags
# that check it against the quadratic profile of slope 5
TRACE = "s,t,r\n" + "".join(f"{s},{t},1.5\n" for s in range(3) for t in range(3))
TRACE_ARGV = ["hamiltonian", "--slope", "5", "--r-max", "2", "--trace-r-plus", "1.5",
              "--trace-r-minus", "1.5", "--trace-k", "2", "--trace"]
# planar samples of a translation at the eight lattice points around the origin
SAMPLES = "".join(f"{x},{y},{x + 1},{y}\n" for x, y in
                  ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    store = {}
    for f in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(f.read_text())
        store[f.name] = doc
        if "$id" in doc:
            store[doc["$id"]] = doc
    resolver = jsonschema.RefResolver(base_uri="", referrer=schema, store=store)
    cls = validators.validator_for(schema)
    return cls(schema, resolver=resolver)


def validate(name, payload, pointer=None):
    validator = load_schema(name)
    if pointer:
        schema = json.loads((SCHEMA_DIR / name).read_text())
        sub = schema
        for part in pointer.split("/"):
            sub = sub[part]
        sub = {**sub, "definitions": schema.get("definitions", {})}
        store = {f.name: json.loads(f.read_text())
                 for f in SCHEMA_DIR.glob("*.schema.json")}
        resolver = jsonschema.RefResolver(base_uri="", referrer=sub, store=store)
        jsonschema.validate(payload, sub, resolver=resolver)
    else:
        validator.validate(payload)


def sqrt2_system_json():
    """The hyperbolic-mode system on the ellipsoid with weights 1, sqrt 2."""
    from reeb_lab.audit import OrbitSystem
    from reeb_lab.ellipsoid import EllipsoidSpec, ellipsoid_profile
    from reeb_lab.hamiltonian import build_profile
    from reeb_lab.indices import IterationProfile, SystemOrbit

    spec = EllipsoidSpec((1.0, math.sqrt(2.0)))
    system = OrbitSystem(
        orbits=(
            SystemOrbit(period=3.0, profile=IterationProfile(hyperbolic=(3,)),
                        hyperbolic=True),
            SystemOrbit(period=math.pi, profile=ellipsoid_profile(spec, 1)),
            SystemOrbit(period=math.sqrt(2.0) * math.pi,
                        profile=ellipsoid_profile(spec, 2)),
        ),
        hamiltonian=build_profile("quadratic", slope=5.0, r_max=2.0),
        n=2, sigma=0.6, eta=0.1, ell0=3, cbar=2.0, mode="hyperbolic")
    return system.to_json()


def golden_system_json():
    """The pseudo-rotation-mode system on the ellipsoid with weights 1, phi,
    under a cubic Hamiltonian."""
    from reeb_lab.audit import OrbitSystem
    from reeb_lab.ellipsoid import EllipsoidSpec, pseudo_rotation_instance
    from reeb_lab.hamiltonian import build_profile
    from reeb_lab.indices import SystemOrbit

    seed = pseudo_rotation_instance(EllipsoidSpec((1.0, (1.0 + math.sqrt(5.0)) / 2.0)),
                                    k_max=30, locally_maximal=1)
    system = OrbitSystem(
        orbits=tuple(SystemOrbit(period=o.period, profile=o.profile,
                                 locally_maximal=o.locally_maximal) for o in seed.orbits),
        hamiltonian=build_profile("cubic", slope=6.0, r_max=2.0, theta=0.5),
        n=2, sigma=0.6, eta=0.1, ell0=3, cbar=2.0, mode="pseudo_rotation")
    return system.to_json()


@pytest.fixture
def sqrt2_system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(sqrt2_system_json()))
    return path


class TestSubcommands:
    def test_cz_index_rotation(self, capsys, tmp_path):
        out_file = tmp_path / "cz.json"
        code, out, _ = run_cli(["cz-index", "--rotation", "1.2",
                                "--out", str(out_file)], capsys)
        assert code == 0 and "index 3" in out
        payload = json.loads(out_file.read_text())
        validate("cli_reports.schema.json", payload, pointer="definitions/cz_index")
        assert payload["index"] == 3

    def test_cz_index_path_file(self, capsys, tmp_path):
        import numpy as np
        from reeb_lab.indices import rotation_path
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps(rotation_path(0.3).tolist()))
        code, out, _ = run_cli(["cz-index", "--path-file", str(path_file)], capsys)
        assert code == 0 and "index 1" in out

    def test_iterate_indices_csv(self, capsys, tmp_path):
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(
            {"loop_index": 2, "elliptic": [0.3], "hyperbolic": []}))
        out_file = tmp_path / "table.csv"
        code, out, _ = run_cli(["iterate-indices", "--profile", str(profile),
                                "--k-max", "5", "--out", str(out_file)], capsys)
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[0] == ["k", "mu_minus", "mu_plus", "mu_hat"]
        assert len(rows) == 6

    def test_williamson(self, capsys, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps([[1.0, -1.0], [0.0, 1.0]]))
        out_file = tmp_path / "w.json"
        code, out, _ = run_cli(["williamson", "--matrix", str(matrix),
                                "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        validate("williamson.schema.json", payload)
        assert payload["b_plus"] == 1

    @pytest.mark.parametrize("family", FAMILY_FLAGS)
    def test_hamiltonian_tables_and_checks(self, capsys, tmp_path, family):
        out_file = tmp_path / "h.json"
        code, out, _ = run_cli([
            "hamiltonian", "--family", family, "--slope", "5",
            "--r-max", "2", "--check-ratio-r0", "2.0", "--transfer", "3,2",
            *FAMILY_FLAGS[family], "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        validate("cli_reports.schema.json", payload, pointer="definitions/hamiltonian")
        assert payload["profile"]["family"] == family
        assert payload["action_ratio_monotone"] is True

    def test_hamiltonian_trace_check(self, capsys, tmp_path):
        lines = ["s,t,r"]
        for s in range(5):
            for t in (0.0, 1.0, 2.0):
                lines.append(f"{s},{t},1.5")
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(lines))
        out_file = tmp_path / "h.json"
        code, out, _ = run_cli([
            "hamiltonian", "--family", "quadratic", "--slope", "5",
            "--r-max", "2", "--trace", str(trace), "--trace-r-plus", "1.5",
            "--trace-r-minus", "1.5", "--trace-k", "2",
            "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        validate("cli_reports.schema.json", payload, pointer="definitions/hamiltonian")
        assert payload["trace"]["ok"] is True

    def test_recurrence_search_streams_jsonl(self, capsys, tmp_path):
        out_file = tmp_path / "sols.jsonl"
        code, out, err = run_cli([
            "recurrence-search", "--weights", f"1,{SQRT2}", "--eta", "0.1",
            "--ell0", "3", "--k-bound", "1000000", "--count", "3",
            "--out", str(out_file)], capsys)
        assert code == 0
        lines = [json.loads(line) for line in
                 out_file.read_text().strip().splitlines()]
        assert len(lines) == 3
        for sol in lines:
            validate("recurrence_solution.schema.json", sol)
        assert "3 solutions" in out

    @pytest.mark.parametrize("name, via_config", [
        ("sols.json", False), ("sols.JSON", False), ("sols.Json", True)])
    def test_recurrence_search_rejects_a_json_out(self, capsys, tmp_path, name, via_config):
        # the stream is JSON Lines, which json.load refuses: exit 2 before the
        # search runs, and no file is left
        out_file = tmp_path / name
        argv = ["recurrence-search", "--weights", f"1,{SQRT2}", "--eta", "0.1", "--ell0", "3"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"out": str(out_file)}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--out", str(out_file)]
        with mock.patch("reeb_lab.recurrence.recurrence_search", side_effect=AssertionError):
            code, _, err = run_cli(argv, capsys)
        assert code == 2 and ".jsonl" in err
        assert not out_file.exists()

    def test_ellipsoid_convexity(self, capsys, tmp_path):
        out_file = tmp_path / "e.json"
        code, out, _ = run_cli([
            "ellipsoid", "--weights", f"1,{SQRT2}", "--convexity",
            "--k-max", "100", "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        validate("cli_reports.schema.json", payload, pointer="definitions/ellipsoid")
        assert payload["pseudo_rotation"]["convexity"]["ok"]
        assert "min mu_-=3" in out

    def test_ellipsoid_spectrum_csv(self, capsys, tmp_path):
        out_file = tmp_path / "spec.csv"
        code, _, _ = run_cli(["ellipsoid", "--weights", "1,2", "--spectrum",
                              "7", "--out", str(out_file)], capsys)
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))[1:]
        assert [float(r[0]) for r in rows] == sorted(float(r[0]) for r in rows)

    def test_barcode(self, capsys, tmp_path):
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({
            "generators": [{"id": "y", "action": 0.0, "degree": 3},
                           {"id": "x", "action": 1.0, "degree": 4}],
            "boundary": {"x": ["y"]}}))
        out_file = tmp_path / "bars.csv"
        code, out, _ = run_cli(["barcode", "--complex", str(cx),
                                "--out", str(out_file)], capsys)
        assert code == 0
        rows = list(csv.reader(out_file.read_text().splitlines()))
        assert rows[1] == ["0.0", "1.0", "3"]

    @pytest.mark.parametrize("generators, boundary, bars, summary", [
        ([{"id": "y", "action": 0.0, "degree": -3}, {"id": "x", "action": 1.0, "degree": -2},
          {"id": "z", "action": 0.5, "degree": -2}], {"x": ["y"]},
         [[0.0, 1.0, -3], [0.5, "inf", -2]], "2 bars (1 finite); longest finite: 1"),
        ([], {}, [], "0 bars (0 finite); longest finite: 0"),
    ], ids=["finite_and_essential", "empty"])
    def test_barcode_json(self, capsys, tmp_path, generators, boundary, bars, summary):
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({"generators": generators, "boundary": boundary}))
        out_file = tmp_path / "bars.json"
        code, out, _ = run_cli(["barcode", "--complex", str(cx),
                                "--out", str(out_file)], capsys)
        assert code == 0
        assert out == summary + "\n"
        text = out_file.read_bytes().decode()
        assert text == json.dumps({"bars": bars}, indent=2, sort_keys=True) + "\n"
        validate("cli_reports.schema.json", json.loads(text), pointer="definitions/barcode")

    def test_audit_lemma(self, capsys, tmp_path, sqrt2_system_file):
        out_file = tmp_path / "audit.json"
        code, out, _ = run_cli(["audit-lemma", "--system", str(sqrt2_system_file),
                                "--count", "2", "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        validate("audit_report.schema.json", payload)
        assert payload["ok"] and "pairs certified" in out

    def test_audit_lemma_writes_strict_json(self, capsys, tmp_path):
        # a spline with h''(1) = 0 and a raw distinguished period so small
        # that its level rounds to 1: h'' vanishes there, so C_raw is inf
        system, out_file = tmp_path / "system.json", tmp_path / "audit.json"
        system.write_text(json.dumps({
            "orbits": [{"period": 1e-40, "profile": {"hyperbolic": [3]}, "hyperbolic": True}],
            "hamiltonian": {"family": "spline", "slope": 7.5, "r_max": 2.0,
                            "knots": [0.0, 10.0, 10.0]},
            "n": 2, "mode": "hyperbolic",
            "constants": {"sigma": 0.6, "eta": 0.1, "ell0": 3, "cbar": 2.0, "b": None}}))
        code, _, _ = run_cli(["audit-lemma", "--system", str(system), "--count", "2",
                              "--out", str(out_file)], capsys)
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(out_file.read_text(), parse_constant=refuse)
        assert payload["constants"]["C_raw"] == "inf" and payload["ok"]
        validate("audit_report.schema.json", payload)

    def test_finite_artifact_bytes_unchanged(self, capsys, tmp_path, sqrt2_system_file):
        from reeb_lab.audit import OrbitSystem, audit
        out_file = tmp_path / "audit.json"
        run_cli(["audit-lemma", "--system", str(sqrt2_system_file), "--count", "2",
                 "--out", str(out_file)], capsys)
        report = audit(OrbitSystem.from_json(json.loads(sqrt2_system_file.read_text())),
                       count=2)
        assert out_file.read_text() == \
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("file_mode", ["pseudo_rotation", "hyperbolic", None])
    def test_audit_lemma_mode_flag_wins(self, capsys, tmp_path, file_mode):
        # the system is checked under the flag's mode only, never under the
        # file's mode (or its default) first
        blob = golden_system_json()
        del blob["mode"]
        if file_mode:
            blob["mode"] = file_mode
        system = tmp_path / "golden.json"
        system.write_text(json.dumps(blob))
        code, out, _ = run_cli(["audit-lemma", "--system", str(system),
                                "--mode", "pseudo_rotation", "--count", "1"], capsys)
        assert code == 0 and "62/62 pairs certified" in out

    def test_audit_lemma_mode_flag_checks_its_hypotheses(self, capsys, sqrt2_system_file):
        code, _, err = run_cli(["audit-lemma", "--system", str(sqrt2_system_file),
                                "--mode", "pseudo_rotation", "--count", "1"], capsys)
        assert code == 2 and "the first orbit must be marked locally maximal" in err

    def test_fixed_point_index(self, capsys, tmp_path):
        rows = ["x,y,fx,fy"]
        for t in [2 * math.pi * i / 64 for i in range(64)]:
            x, y = math.cos(t), math.sin(t)
            c, s = math.cos(1.0), math.sin(1.0)
            rows.append(f"{x},{y},{c * x - s * y},{s * x + c * y}")
        samples = tmp_path / "map.csv"
        samples.write_text("\n".join(rows))
        out_file = tmp_path / "fp.json"
        code, out, _ = run_cli(["fixed-point-index", "--samples", str(samples),
                                "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        validate("cli_reports.schema.json", payload, pointer="definitions/fixed_point")
        assert payload["index"] == 1


class TestConfigAndErrors:
    def test_config_file_merged_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rotation": 0.3, "tol": 1e-9}))
        code, out, _ = run_cli(["cz-index", "--config", str(cfg)], capsys)
        assert code == 0 and "index 1" in out
        code, out, _ = run_cli(["cz-index", "--config", str(cfg),
                                "--rotation", "1.2"], capsys)
        assert code == 0 and "index 3" in out

    @pytest.mark.parametrize("flag", ["--rot", "--rotat"])
    def test_abbreviated_flag_rejected(self, capsys, tmp_path, flag):
        # --rot used to parse as --rotation while the config's rotation won
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rotation": 0.3}))
        with pytest.raises(SystemExit) as exc:
            main(["cz-index", "--config", str(cfg), flag, "1.2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        code, out, _ = run_cli(["cz-index", "--config", str(cfg), "--rotation=1.2"], capsys)
        assert code == 0 and "index 3" in out

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rotation": 0.3, "frobnicate": 1}))
        code, _, err = run_cli(["cz-index", "--config", str(cfg)], capsys)
        assert code == 2 and "frobnicate" in err

    def test_nonpositive_tolerance_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rotation": 0.3, "tol": -1.0}))
        code, _, err = run_cli(["cz-index", "--config", str(cfg)], capsys)
        assert code == 2

    def test_validation_error_exit_2(self, capsys, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps([[2.0, 0.0], [0.0, 2.0]]))
        code, _, err = run_cli(["williamson", "--matrix", str(matrix)], capsys)
        assert code == 2

    def test_resonant_companion_certified(self, capsys, tmp_path, sqrt2_system_file):
        blob = json.loads(sqrt2_system_file.read_text())
        # a resonant companion: its action gap is 0, inside the a priori
        # bound C * eta = 0.4 < sigma, so the short-action-gap reason holds
        blob["orbits"].append({
            "period": 4.0,
            "profile": {"loop_index": 0, "elliptic": [], "hyperbolic": [4],
                        "degenerate": None},
            "hyperbolic": True, "locally_maximal": False})
        blob["constants"]["sigma"] = 0.45
        system, out_file = tmp_path / "resonant.json", tmp_path / "audit.json"
        system.write_text(json.dumps(blob))
        code, out, _ = run_cli(["audit-lemma", "--system", str(system),
                                "--count", "1", "--out", str(out_file)], capsys)
        assert code == 0 and "743/743 pairs certified" in out
        report = json.loads(out_file.read_text())
        assert report["ok"] and report["certified_pairs"] == report["total_pairs"] == 743
        companion = [a for a in report["solutions"][0]["aligned"] if a["i"] == 3]
        assert len(companion) == 1 and companion[0]["kind"] == "short-action-gap"
        assert companion[0]["numbers"]["resonance"] == "resonant"
        assert companion[0]["numbers"]["apriori_ok"] is True

    def test_audit_failure_exit_3(self, capsys, sqrt2_system_file):
        # no recurrence solution below a tiny horizon
        code, _, err = run_cli(["audit-lemma", "--system", str(sqrt2_system_file),
                                "--k-bound", "10", "--count", "1"], capsys)
        assert code == 3 and "audit failed" in err

    def test_pair_failure_exit_3(self, capsys, monkeypatch, sqrt2_system_file):
        def fail(*args):
            raise NotExcluded("companion 1 at j = 2 is not excluded", {"i": 1, "j": 2})
        monkeypatch.setattr("reeb_lab.audit._aligned_certificate", fail)
        code, _, err = run_cli(["audit-lemma", "--system", str(sqrt2_system_file),
                                "--count", "1"], capsys)
        assert code == 3 and err == "audit failed: companion 1 at j = 2 is not excluded\n"

    def test_malformed_system_exit_2(self, capsys, tmp_path, sqrt2_system_file):
        blob = json.loads(sqrt2_system_file.read_text())
        del blob["n"]
        bad = tmp_path / "no_n.json"
        bad.write_text(json.dumps(blob))
        code, _, err = run_cli(["audit-lemma", "--system", str(bad)], capsys)
        assert code == 2 and "missing key 'n'" in err
        proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", "audit-lemma",
                               "--system", str(bad)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name, files, argv, message", [
        ("complex_without_degree",
         {"cx.json": {"generators": [{"id": "a", "action": 1.0}], "boundary": {}}},
         ["barcode", "--complex", "cx.json"], "missing key 'degree'"),
        ("complex_with_string_id",
         {"cx.json": {"generators": [{"id": 1, "action": 1.0, "degree": 0}]}},
         ["barcode", "--complex", "cx.json"], "'id' must be str"),
        ("boundary_skipping_degrees",
         {"cx.json": {"generators": [{"id": "a", "action": 0.0, "degree": 0},
                                     {"id": "b", "action": 1.0, "degree": 3}],
                      "boundary": {"b": ["a"]}}},
         ["barcode", "--complex", "cx.json"], "degree must drop by one"),
        ("k_max_zero", {"p.json": {"elliptic": [0.3]}},
         ["iterate-indices", "--profile", "p.json", "--k-max", "0"], "k_max must be positive"),
        ("config_k_max_not_an_int",
         {"p.json": {"elliptic": [0.3]}, "c.json": {"k_max": "fifty"}},
         ["iterate-indices", "--profile", "p.json", "--config", "c.json"], "invalid int value"),
        ("config_k_max_null",
         {"p.json": {"elliptic": [0.3]}, "c.json": {"k_max": None}},
         ["iterate-indices", "--profile", "p.json", "--config", "c.json"], "invalid int value"),
        ("config_switch_not_a_bool", {"c.json": {"tables": "no"}},
         ["hamiltonian", "--slope", "5", "--r-max", "2", "--config", "c.json"],
         "'tables' takes true or false"),
        ("config_names_the_subcommand",
         {"p.json": {"elliptic": [0.3]}, "c.json": {"command": "williamson"}},
         ["iterate-indices", "--profile", "p.json", "--config", "c.json"],
         "unknown config key 'command'"),
        ("profile_with_null_angle", {"p.json": {"elliptic": [None]}},
         ["iterate-indices", "--profile", "p.json"], "elliptic[0] must be float, got null"),
        ("profiles_not_a_list", {"p.json": {"elliptic": [0.3]}},
         ["recurrence-search", "--profiles", "p.json", "--eta", "0.5", "--ell0", "2"],
         "--profiles must be list"),
        ("degenerate_without_counts", {"p.json": {"degenerate": {"nu0": 1}}},
         ["iterate-indices", "--profile", "p.json"], "missing key 'b0'"),
        ("elliptic_not_a_list", {"p.json": {"elliptic": "12"}},
         ["iterate-indices", "--profile", "p.json"], "'elliptic' must be list"),
        ("hyperbolic_not_an_int", {"p.json": {"hyperbolic": [1.5]}},
         ["iterate-indices", "--profile", "p.json"], "hyperbolic[0] must be int, got 1.5"),
        ("convexity_k_max_zero", {},
         ["ellipsoid", "--weights", "1,1.41421356", "--convexity", "--k-max", "0"],
         "k_max must be at least 1"),
        ("convexity_k_max_negative", {},
         ["ellipsoid", "--weights", "1,1.41421356", "--convexity", "--k-max", "-3"],
         "k_max must be at least 1"),
        ("eta_nan", {"p.json": [{"elliptic": [0.3]}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "nan", "--ell0", "2"],
         "finite eta > 0"),
        ("eta_inf", {"p.json": [{"loop_index": 2, "elliptic": [0.3]},
                                {"loop_index": 2, "elliptic": [0.7]}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "inf", "--ell0", "2"],
         "finite eta > 0"),
        ("mean_index_nan", {"p.json": [{"elliptic": [float("nan")]}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "0.1", "--ell0", "2"],
         "profile has a non-finite rotation number elliptic[0] = nan"),
        ("williamson_negative_count",
         {"p.json": {"degenerate": {"nu0": -1, "b0": 0, "b_plus": 2, "b_minus": 0,
                                    "nu_g": 0, "nu_a": 1, "m": 1}}},
         ["iterate-indices", "--profile", "p.json"], "'nu0' must be >= 0, got -1"),
        ("config_tol_nan", {"c.json": {"rotation": 0.3, "tol": float("nan")}},
         ["cz-index", "--config", "c.json"], "tol must be positive, got nan"),
        ("config_out_not_a_string", {"p.json": {"elliptic": [0.3]}, "c.json": {"out": 5}},
         ["iterate-indices", "--profile", "p.json", "--config", "c.json"],
         "config key 'out': invalid value 5"),
        ("config_family_not_a_choice", {"c.json": {"family": "quartic"}},
         ["hamiltonian", "--slope", "5", "--r-max", "2", "--config", "c.json"],
         "config key 'family': invalid value \"quartic\""),
        ("matrix_of_strings", {"m.json": [["1", "-1"], ["0", "1"]]},
         ["williamson", "--matrix", "m.json"], "--matrix[0][0] must be float, got \"1\""),
        ("matrix_of_booleans", {"m.json": [[True, True], [False, True]]},
         ["williamson", "--matrix", "m.json"], "--matrix[0][0] must be float, got true"),
        ("orbit_flag_not_a_bool", {"s.json": {**sqrt2_system_json(), "orbits": [
            {**sqrt2_system_json()["orbits"][0], "hyperbolic": "no"}]}},
         ["audit-lemma", "--system", "s.json"], "orbit 0: 'hyperbolic' must be bool"),
        ("constants_unknown_key", {"s.json": {**sqrt2_system_json(), "constants": {
            **sqrt2_system_json()["constants"], "B": 4.0}}},
         ["audit-lemma", "--system", "s.json"], "constants: unknown key 'B'"),
        ("mean_index_inf", {"p.json": [{"loop_index": 2, "elliptic": [0.3, float("inf")]}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "0.1", "--ell0", "2"],
         "profile has a non-finite rotation number elliptic[1] = inf"),
        ("rotation_nan", {"p.json": {"elliptic": [float("nan")]}},
         ["iterate-indices", "--profile", "p.json"],
         "profile has a non-finite rotation number elliptic[0] = nan"),
        # k0 * mean0 leaves int64 past the first k0: no false "horizon exhausted"
        ("search_leaves_int64", {"p.json": [{"loop_index": 2 ** 40, "elliptic": [0.25]}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "0.01", "--ell0", "1",
          "--divisor", str(2 ** 22), "--k-bound", str(2 ** 40), "--count", "3"],
         "indices of iterate 4194305 leave int64"),
        # entries whose float conversion overflows, as the mean index needs
        ("rotation_too_large", {"p.json": {"elliptic": ["1" + "0" * 400]}},
         ["iterate-indices", "--profile", "p.json"],
         "profile entry elliptic[0] is too large for a float"),
        ("search_rotation_too_large", {"p.json": [{"elliptic": ["1" + "0" * 400]}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "0.1", "--ell0", "2"],
         "profile entry elliptic[0] is too large for a float"),
        ("search_hyperbolic_too_large", {"p.json": [{"hyperbolic": [10 ** 400]}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "0.1", "--ell0", "2"],
         "profile entry hyperbolic[0] is too large for a float"),
        ("search_loop_index_too_large", {"p.json": [{"loop_index": 10 ** 400}]},
         ["recurrence-search", "--profiles", "p.json", "--eta", "0.1", "--ell0", "2"],
         "profile entry loop_index is too large for a float"),
        # a NaN or infinite parameter fails each certification guard
        ("slope_nan", {}, ["hamiltonian", "--slope", "nan", "--r-max", "2"],
         "slope must be positive and finite, got nan"),
        ("c0_nan", {}, ["hamiltonian", "--slope", "5", "--r-max", "2", "--c0", "nan"],
         "constant piece must be finite and <= 0, got nan"),
        ("knot_nan", {}, ["hamiltonian", "--family", "spline", "--slope", "1.5",
                          "--r-max", "2", "--knots", "nan,1"], "knots integrate to slope nan"),
        ("beta_nan", {}, ["hamiltonian", "--family", "exp", "--beta", "nan",
                          "--slope", "5", "--r-max", "2"],
         "beta must be positive and finite, got nan"),
        ("transfer_k_nan", {}, ["hamiltonian", "--slope", "5", "--r-max", "2",
                                "--transfer", "nan,1"], "k and lam must be finite"),
        ("transfer_lam_nan", {}, ["hamiltonian", "--slope", "5", "--r-max", "2",
                                  "--transfer", "3,nan"], "k and lam must be finite"),
        ("transfer_k_inf", {}, ["hamiltonian", "--slope", "5", "--r-max", "2",
                                "--transfer", "inf,1"], "k and lam must be finite"),
        ("ratio_r0_nan", {}, ["hamiltonian", "--slope", "5", "--r-max", "2",
                              "--check-ratio-r0", "nan"], "r0 = nan outside (1, r_max]"),
        ("weights_nan", {}, ["ellipsoid", "--weights", "nan"],
         "weights must be positive and finite, got (nan,)"),
        ("ellipsoid_slope_nan", {}, ["ellipsoid", "--weights", "1,2", "--slope", "nan"],
         "slope must be finite, got nan"),
        ("spectrum_nan", {}, ["ellipsoid", "--weights", "1,2", "--spectrum", "nan"],
         "t_max must be positive and finite, got nan"),
        ("rotation_inf", {}, ["cz-index", "--rotation", "inf"],
         "rotation number must be finite, got inf"),
        ("stretch_nan", {}, ["cz-index", "--stretch", "nan"],
         "stretch factor must be positive and finite, got nan"),
        # CSV inputs: every file fails in the one loader or the trace grid
        ("samples_empty", {"m.csv": ""}, ["fixed-point-index", "--samples", "m.csv"],
         "expected one or more rows x,y,fx,fy of 4 values each"),
        ("samples_header_only", {"m.csv": "x,y,fx,fy\n"},
         ["fixed-point-index", "--samples", "m.csv"],
         "expected one or more rows x,y,fx,fy of 4 values each"),
        ("samples_short_row", {"m.csv": "1,0,2,0\n0,1\n"},
         ["fixed-point-index", "--samples", "m.csv"],
         "expected one or more rows x,y,fx,fy of 4 values each"),
        ("samples_not_a_number", {"m.csv": "x,y,fx,fy\n1,0,2,zero\n"},
         ["fixed-point-index", "--samples", "m.csv"],
         "m.csv: could not convert string to float: 'zero'"),
        ("samples_nan", {"m.csv": "1,0,nan,0\n0,1,0,2\n"},
         ["fixed-point-index", "--samples", "m.csv"], "every value must be finite"),
        ("trace_empty", {"t.csv": ""}, [*TRACE_ARGV, "t.csv"],
         "expected one or more rows s,t,r of 3 values each"),
        ("trace_header_only", {"t.csv": "s,t,r\n"}, [*TRACE_ARGV, "t.csv"],
         "expected one or more rows s,t,r of 3 values each"),
        ("trace_wide_row", {"t.csv": TRACE + "1,2,1.5,0\n"}, [*TRACE_ARGV, "t.csv"],
         "expected one or more rows s,t,r of 3 values each"),
        # a t that the first s row lacks is missing from the others
        ("trace_ragged", {"t.csv": TRACE + "1,0.5,1.5\n"}, [*TRACE_ARGV, "t.csv"],
         "(s, t) = (0, 0.5) is sampled 0 times, not once"),
        ("trace_duplicate", {"t.csv": TRACE + "1,2,9.0\n"}, [*TRACE_ARGV, "t.csv"],
         "(s, t) = (1, 2) is sampled 2 times, not once"),
        ("trace_not_a_number", {"t.csv": TRACE + "3,0,high\n"}, [*TRACE_ARGV, "t.csv"],
         "t.csv: could not convert string to float: 'high'"),
        ("trace_inf", {"t.csv": TRACE.replace("2,2,1.5", "2,2,inf")}, [*TRACE_ARGV, "t.csv"],
         "every value must be finite"),
        # too few planar samples, a circle radius that is not positive and
        # finite, trace levels that are not finite
        ("samples_one_row", {"m.csv": "1,0,2,0\n"}, ["fixed-point-index", "--samples", "m.csv"],
         "1 samples cannot certify a winding"),
        ("samples_four_rows", {"m.csv": "1,0,2,0\n0,1,1,1\n-1,0,0,0\n0,-1,1,-1\n"},
         ["fixed-point-index", "--samples", "m.csv"], "4 samples cannot certify a winding"),
        ("eps_nan", {"m.csv": SAMPLES}, ["fixed-point-index", "--samples", "m.csv",
                                         "--eps", "nan"], "eps must be positive and finite"),
        ("eps_negative", {"m.csv": SAMPLES}, ["fixed-point-index", "--samples", "m.csv",
                                              "--eps", "-1"], "eps must be positive and finite"),
        ("trace_k_nan", {"t.csv": TRACE}, [*TRACE_ARGV, "t.csv", "--trace-k", "nan"],
         "iteration order k must be finite, got nan"),
        ("trace_k_inf", {"t.csv": TRACE}, [*TRACE_ARGV, "t.csv", "--trace-k", "inf"],
         "iteration order k must be finite, got inf"),
        ("trace_r_plus_nan", {"t.csv": TRACE}, [*TRACE_ARGV, "t.csv", "--trace-r-plus", "nan"],
         "levels must be finite, got r_plus = nan"),
        ("trace_r_minus_nan", {"t.csv": TRACE}, [*TRACE_ARGV, "t.csv", "--trace-r-minus", "nan"],
         "levels must be finite, got r_plus = 1.5, r_minus = nan"),
        # the squared scale of the symplectic check would overflow a float
        ("matrix_entry_too_large", {"m.json": [[1.0, 1e200], [0.0, 1.0]]},
         ["williamson", "--matrix", "m.json"],
         "matrix entries must square to a finite float, got 1.000e+200"),
        ("matrix_powers_overflow", {"m.json": [[1e100, 0, 0, 0], [0, 1, 0, 0],
                                               [0, 0, 1e-100, 0], [0, 0, 0, 1]]},
         ["williamson", "--matrix", "m.json"], "(A - I)^4 has max entry inf"),
        # a beta whose exponential overflows a float
        ("beta_overflows_expm1", {}, ["hamiltonian", "--family", "exp", "--beta", "800",
                                      "--slope", "5", "--r-max", "2"],
         "expm1(beta * (r_max - 1)) overflows at beta = 800.0"),
        # expm1 is finite, but slope * beta * e^(beta * (r_max - 1)) in h'' is not
        ("beta_708_overflows_pieces", {}, ["hamiltonian", "--family", "exp", "--beta", "708",
                                           "--slope", "5", "--r-max", "2", "--tables"],
         "overflows at slope = 5.0, beta = 708.0"),
        ("beta_709_overflows_pieces", {}, ["hamiltonian", "--family", "exp", "--beta", "709",
                                           "--slope", "5", "--r-max", "2"],
         "overflows at slope = 5.0, beta = 709.0"),
        # a table reaches both ends of [1, r_max] and [0, slope]
        ("tables_grid_zero", {}, ["hamiltonian", "--slope", "5", "--r-max", "2", "--tables",
                                  "--grid", "0"], "grid must be at least 2, got 0"),
        ("tables_grid_negative", {}, ["hamiltonian", "--slope", "5", "--r-max", "2",
                                      "--tables", "--grid", "-3"],
         "grid must be at least 2, got -3"),
        ("transfer_one_value", {}, ["hamiltonian", "--slope", "5", "--r-max", "2",
                                    "--transfer", "1"], "--transfer takes k,lam, got '1'"),
        ("transfer_three_values", {}, ["hamiltonian", "--slope", "5", "--r-max", "2",
                                       "--transfer", "1,2,3"],
         "--transfer takes k,lam, got '1,2,3'"),
        # h'' underflows to 0 at r = 1, its least value: not positive, and not negative
        ("exp_h2_underflows", {}, ["hamiltonian", "--family", "exp", "--beta", "1e-28",
                                   "--slope", "5", "--r-max", "7e30"],
         "h''(1) = 0.000e+00 is not positive"),
        # the system checks the mode; the parser lists no choices
        ("mode_unknown", {"s.json": sqrt2_system_json()},
         ["audit-lemma", "--system", "s.json", "--mode", "elliptic"], "mode must be one of"),
        # a family parameter is named as itself, not as a value of h''
        ("theta_out_of_range", {}, ["hamiltonian", "--family", "cubic", "--theta", "1.5",
                                    "--slope", "5", "--r-max", "2"],
         "theta must be in (0, 1), got 1.5"),
        ("spline_one_knot", {}, ["hamiltonian", "--family", "spline", "--knots", "1",
                                 "--slope", "5", "--r-max", "2"],
         "a spline needs at least 2 knots, got 1"),
        # a negative horizon is rejected, not reported as an empty search
        ("recurrence_k_bound_negative", {}, ["recurrence-search", "--weights", "1,1.41421356",
                                             "--eta", "0.1", "--ell0", "3", "--k-bound", "-5"],
         "k_bound must be >= 0, got -5"),
        ("audit_k_bound_negative", {"s.json": sqrt2_system_json()},
         ["audit-lemma", "--system", "s.json", "--k-bound", "-5"],
         "k_bound must be >= 0, got -5"),
        # a finite bound whose spectrum would outgrow memory before it is listed
        ("spectrum_too_long", {}, ["ellipsoid", "--weights", "1,2", "--spectrum", "1e300"],
         "holds more than 1000000 periods"),
    ])
    def test_invalid_input_exit_2(self, capsys, tmp_path, name, files, argv, message):
        for fname, blob in files.items():
            # a string is the file's text (CSV inputs); anything else is JSON
            (tmp_path / fname).write_text(blob if isinstance(blob, str) else json.dumps(blob))
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and message in err
        proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and message in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_barcode_error_names_the_first_bad_row(self, tmp_path, hash_seed):
        # two unknown rows: the first in the list is named, whatever the
        # string hash order of the interpreter
        cx = tmp_path / "cx.json"
        cx.write_text(json.dumps({
            "generators": [{"id": "a", "action": 0.0, "degree": 0},
                           {"id": "b", "action": 1.0, "degree": 1}],
            "boundary": {"b": ["x", "y", "a"]}}))
        proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", "barcode",
                               "--complex", str(cx)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 2
        assert "boundary hits unknown generator x" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--spectrum", "--slope"])
    def test_infinite_spectrum_bound_exit_2(self, flag):
        # out of process with a timeout: an unchecked infinite bound makes
        # the spectrum enumeration run forever
        proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", "ellipsoid",
                               "--weights", "1,2", flag, "inf"],
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 2 and "finite, got inf" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_large_slope_checks_only_the_nearest_periods(self):
        # the whole spectrum below 1e12 would be about 5e11 periods
        proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", "ellipsoid",
                               "--weights", "1,2", "--slope", "1e12"],
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("shear", [1e9, 1e100])
    def test_williamson_large_shear_plus_zero_plane(self, shear, tmp_path):
        # out of process: the rank tolerance used to swallow the identity from
        # a shear of 6e8 on, and |A - I|^4 in the unipotency bound to overflow
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps([[1, 0, shear, 0], [0, 1, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]]))
        proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", "williamson",
                               "--matrix", str(matrix)], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        assert '"b_minus": 1' in proc.stdout and '"nu0": 1' in proc.stdout

    def test_config_values_take_the_flag_type(self, capsys, tmp_path):
        # a JSON string is read as the flag's text would be
        profile, cfg = tmp_path / "p.json", tmp_path / "c.json"
        profile.write_text(json.dumps({"elliptic": [0.3]}))
        cfg.write_text(json.dumps({"k_max": "50"}))
        out = tmp_path / "t.json"
        code, stdout, _ = run_cli(["iterate-indices", "--profile", str(profile),
                                   "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0 and "50 iterates" in stdout
        assert len(json.loads(out.read_text())["rows"]) == 50
        proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", "iterate-indices",
                               "--profile", str(profile), "--config", str(cfg)],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr

    def test_deterministic_outputs_byte_identical(self, capsys, tmp_path,
                                                  sqrt2_system_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["audit-lemma", "--system", str(sqrt2_system_file),
                 "--count", "2", "--out", str(a)], capsys)
        run_cli(["audit-lemma", "--system", str(sqrt2_system_file),
                 "--count", "2", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_orbit_system_schema(self, sqrt2_system_file):
        validate("orbit_system.schema.json",
                 json.loads(sqrt2_system_file.read_text()))


def test_package_exposes_modules_not_their_names():
    # the package used to re-export audit() over the reeb_lab.audit module
    for name in ("audit", "cli", "ellipsoid", "errors", "fixedpoint", "floergraph",
                 "hamiltonian", "indices", "recurrence", "symplectic"):
        importlib.import_module(f"reeb_lab.{name}")
        assert inspect.ismodule(getattr(reeb_lab, name)), name


@pytest.mark.parametrize("module, absent", [
    # the ellipsoid models sit below the audit and its Hamiltonian and
    # recurrence layers
    ("reeb_lab.ellipsoid", ("reeb_lab.audit", "reeb_lab.hamiltonian", "reeb_lab.recurrence")),
    # barcodes are pure Python
    ("reeb_lab.floergraph", ("numpy",)),
    # each subcommand imports what it runs
    ("reeb_lab.cli", ("numpy", "reeb_lab.audit", "reeb_lab.ellipsoid", "reeb_lab.fixedpoint",
                      "reeb_lab.floergraph", "reeb_lab.hamiltonian", "reeb_lab.indices",
                      "reeb_lab.recurrence", "reeb_lab.symplectic")),
])
def test_module_layering(module, absent):
    # a fresh interpreter, so that no other test's imports count
    probe = (f"import sys, {module}\n"
             f"print(sorted(set({absent!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Top-level names and methods of the package that no other place in it
# names, and what reaches each one instead; a definition that nothing
# reaches is deleted.  Dunder methods are called by Python itself
REACHED_FROM_OUTSIDE = {
    "homotopy_action_derivative": "acceptance criterion 5",
    "convexity_gap_check": "acceptance criterion 7",
    "check_bar_lengths": "acceptance criterion 9",
    "brouwer_index_of_map": "acceptance criterion 11",
    "lefschetz_residuals": "acceptance criterion 11",
    "trace_nonneg_scan": "acceptance criterion 11",
    "compare_action_functions": "perfbench's action_calculus workload",
    "spline_slope": "perfbench's action_calculus workload builds its spline with it",
    "support_interval": "the degree range of an iterate's local homology, which the "
                        "sweep's scalar oracle reads; the audit reads its rows from a table",
}


def test_every_unnamed_definition_is_reached_from_outside():
    trees = [ast.parse(path.read_text())
             for path in Path(reeb_lab.__file__).parent.glob("*.py")]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                # the class and its methods and properties
                defined.add(node.name)
                defined |= {item.name for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))}
            elif isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined - named == set(REACHED_FROM_OUTSIDE)


@pytest.mark.parametrize("argv, files, absent", [
    (["barcode", "--complex", "c.json"],
     {"c.json": {"generators": [{"id": "a", "action": 0.0, "degree": 0},
                                {"id": "b", "action": 1.0, "degree": 1}],
                 "boundary": {"b": ["a"]}}},
     # numpy imports inspect; without numpy nothing here does
     ("numpy", "dataclasses", "inspect")),
    (["hamiltonian", "--slope", "5", "--r-max", "2", "--tables", "--transfer", "3,2"], {},
     ("reeb_lab.audit", "reeb_lab.recurrence", "reeb_lab.ellipsoid", "reeb_lab.floergraph",
      "dataclasses")),
    (["recurrence-search", "--profiles", "p.json", "--eta", "0.1", "--ell0", "3",
      "--k-bound", "1000"],
     {"p.json": [{"loop_index": 2, "elliptic": [0.7071067811865475]},
                 {"loop_index": 2, "elliptic": [1.4142135623730951]}]},
     ("reeb_lab.audit", "reeb_lab.hamiltonian", "reeb_lab.ellipsoid", "reeb_lab.floergraph",
      "dataclasses")),
    (["cz-index", "--rotation", "1.2"], {},
     ("reeb_lab.audit", "reeb_lab.recurrence", "reeb_lab.hamiltonian", "reeb_lab.ellipsoid",
      "reeb_lab.floergraph", "reeb_lab.fixedpoint", "dataclasses")),
], ids=["barcode", "hamiltonian", "recurrence-search", "cz-index"])
def test_subcommand_imports_only_what_it_runs(tmp_path, argv, files, absent):
    for fname, blob in files.items():
        (tmp_path / fname).write_text(json.dumps(blob))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    # a fresh interpreter, so that no other test's imports count
    probe = (f"import sys\nfrom reeb_lab.cli import main\nassert main({argv!r}) == 0\n"
             f"print(sorted(set({absent!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# the barcode artifact's writer against json.dumps, its oracle: finite floats
# (-0.0, subnormals, reprs with exponents), ints past 64 bits and deaths at math.inf
_BAR_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.5e-7, -1e300,
                     2 ** 63, -2 ** 63 - 1, 3 ** 90]))


@settings(max_examples=300, deadline=None)
@given(bars=st.lists(st.tuples(_BAR_NUMBERS, st.one_of(_BAR_NUMBERS, st.just(math.inf)),
                               st.one_of(st.integers(), st.sampled_from([2 ** 63, -2 ** 64])))
                     .map(Bar._make)))
@example(bars=[])
@example(bars=[Bar._make((0.0, math.inf, 0))])
def test_bars_json_is_json_dumps(bars):
    want = json.dumps({"bars": [list(b.to_row()) for b in bars]}, indent=2, sort_keys=True)
    assert cli._bars_json(bars) + "\n" == want + "\n"


@pytest.mark.parametrize("row", [
    (math.nan, 1.0, 0), (math.inf, math.inf, 0), (-math.inf, 1.0, 0),
    (0.0, -math.inf, 0), (0.0, math.nan, 0), (0.0, "inf", 0), (0.0, 1.0, True),
], ids=["nan_birth", "inf_birth", "minus_inf_birth", "minus_inf_death", "nan_death",
        "str_death", "bool_degree"])
def test_bars_json_rejects_rows_outside_its_domain(row):
    with pytest.raises(ValueError):
        cli._bars_json([Bar._make(row)])


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              st.floats(allow_nan=True, allow_infinity=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)


def _encoded(value):
    """value with each non-finite float as the string _json_text writes."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, list):
        return [_encoded(v) for v in value]
    if isinstance(value, dict):
        return {k: _encoded(v) for k, v in value.items()}
    return value


@settings(max_examples=200, deadline=None)
@given(payload=_JSON_VALUES)
@example(payload={"C_raw": math.inf, "levels": [-math.inf, math.nan, 1.5]})
def test_json_text_is_strict_json(payload):
    # json.dumps' bytes wherever every float is finite; otherwise each
    # non-finite float becomes a string, and nothing outside JSON is written

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    text = cli._json_text(payload)
    assert json.loads(text, parse_constant=refuse) == json.loads(
        json.dumps(_encoded(payload)), parse_constant=refuse)
    if _encoded(payload) == payload:
        assert text == json.dumps(payload, indent=2, sort_keys=True)


def test_fuzz_subcommand_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz"])
    assert exc.value.code == 2 and "invalid choice: 'fuzz'" in capsys.readouterr().err
    schema = json.loads((SCHEMA_DIR / "cli_reports.schema.json").read_text())
    assert "fuzz" not in schema["definitions"]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "reeb_lab.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


# -- schema differential -------------------------------------------------------
#
# Each CLI loader reads one JSON input.  Hypothesis mutates a valid input
# (drops a key or an entry, swaps a value for one of another JSON type, adds a
# key, injects a negative, NaN or infinity) and runs the subcommand on it.  A
# schema-invalid mutant must exit 2.  A schema-valid one must exit 0 or 3, or
# exit 2 from a check the schema cannot state (a mean index must be positive,
# a boundary must name known generators, ...): MalformedInput, the loaders'
# error for what the schema rejects, is never raised on it.  JSON has no NaN
# or infinity, so a mutant holding one is schema-invalid.  No run may end in
# a traceback: an exception escaping main() fails the test.

FLOAT_TEXT = r"^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$"


def config_schema(command):
    """The schema of a --config file for command, read off its parser: a
    typed flag takes a JSON value of its type or the text the flag would
    take, a switch takes a boolean, any other flag a string (one of its
    choices, when it has them)."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    properties = {}
    for action in sub.choices[command]._actions:
        if action.nargs == 0:
            value = {"type": "boolean"}
        elif action.choices:
            value = {"enum": list(action.choices)}
        elif action.type is float:
            value = {"type": ["number", "string"], "pattern": FLOAT_TEXT}
        elif action.type is int:
            value = {"type": ["integer", "string"], "pattern": "^-?[0-9]+$"}
        else:
            value = {"type": "string"}
        properties[action.dest] = properties[action.dest.replace("_", "-")] = value
    return {"type": "object", "properties": properties, "additionalProperties": False}


# name: (the validator of the input, the valid input, argv with FILE for its path)
LOADERS = {
    "profile": (lambda: load_schema("profile.schema.json"),
                {"loop_index": 2, "elliptic": [0.3, "1/3"], "hyperbolic": [1],
                 "degenerate": None},
                ["iterate-indices", "--profile", "FILE", "--k-max", "5"]),
    "degenerate_profile": (lambda: load_schema("profile.schema.json"),
                           {"elliptic": [0.25], "degenerate": {
                               "nu0": 0, "b0": 0, "b_plus": 1, "b_minus": 0,
                               "nu_g": 1, "nu_a": 1, "m": 1}},
                           ["iterate-indices", "--profile", "FILE", "--k-max", "5"]),
    "hyperbolic_system": (lambda: load_schema("orbit_system.schema.json"),
                          sqrt2_system_json(),
                          ["audit-lemma", "--system", "FILE", "--count", "1"]),
    "pseudo_rotation_system": (lambda: load_schema("orbit_system.schema.json"),
                               golden_system_json(),
                               ["audit-lemma", "--system", "FILE", "--count", "1"]),
    "complex": (lambda: load_schema("complex.schema.json"),
                {"generators": [{"id": "y", "action": 0.0, "degree": 3},
                                {"id": "x", "action": 1.0, "degree": 4}],
                 "boundary": {"x": ["y"]}},
                ["barcode", "--complex", "FILE"]),
    "matrix": (lambda: load_schema("matrix.schema.json"),
               [[1.0, -1.0], [0.0, 1.0]],
               ["williamson", "--matrix", "FILE"]),
    "cz_index_config": (lambda: validators.validator_for({})(config_schema("cz-index")),
                        {"rotation": 0.3, "samples": 64, "tol": 1e-9},
                        ["cz-index", "--config", "FILE"]),
    "hamiltonian_config": (lambda: validators.validator_for({})(config_schema("hamiltonian")),
                           {"family": "cubic", "theta": 0.5, "tables": True, "grid": 64},
                           ["hamiltonian", "--slope", "5", "--r-max", "2",
                            "--config", "FILE"]),
}

# one value of each JSON type, and numeric text
OTHER_VALUES = ("text", "7", "0.5", True, False, None, [], {}, 7, 0.5)
NEW_KEYS = ("extra", "B", "Hyperbolic")


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _finite(doc) -> bool:
    if isinstance(doc, float):
        return math.isfinite(doc)
    values = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return all(_finite(v) for v in values)


@st.composite
def mutants(draw):
    """(loader name, one mutation of its valid input)."""
    name = draw(st.sampled_from(sorted(LOADERS)))
    doc = copy.deepcopy(LOADERS[name][1])
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else doc
    ops = ["swap"] + (["drop"] if path else []) + (["add"] if isinstance(target, dict) else [])
    if type(target) in (int, float):
        ops += ["negative", "nan", "inf"]
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del parent[path[-1]]
        return name, doc
    if op == "add":
        target[draw(st.sampled_from(NEW_KEYS))] = draw(st.sampled_from(OTHER_VALUES))
        return name, doc
    value = {"swap": lambda: copy.deepcopy(draw(st.sampled_from(OTHER_VALUES))),
             "negative": lambda: -abs(target) or -1,
             "nan": lambda: math.nan,
             "inf": lambda: draw(st.sampled_from((math.inf, -math.inf)))}[op]()
    if not path:
        return name, value
    parent[path[-1]] = value
    return name, doc


def run_recorded(argv):
    """(exit code, the exception main turned into it or None) of main(argv),
    with stdout and stderr swallowed."""
    caught = []

    def record(fn):
        def call(*args):
            try:
                return fn(*args)
            except Exception as exc:
                caught.append(exc)
                raise
        return call

    commands = {name: record(fn) for name, fn in cli._COMMANDS.items()}
    with mock.patch.object(cli, "_COMMANDS", commands), \
            mock.patch.object(cli, "_apply_config", record(cli._apply_config)), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, caught[0] if caught else None


def _edited(name, edit):
    doc = copy.deepcopy(LOADERS[name][1])
    edit(doc)
    return name, doc


@settings(max_examples=400, deadline=None)
@given(case=mutants())
@example(case=_edited("hyperbolic_system",
                      lambda d: d["orbits"][0].update(hyperbolic="no")))
@example(case=_edited("hyperbolic_system",
                      lambda d: d["orbits"][0].update(hyperbolic=1)))
@example(case=_edited("pseudo_rotation_system",
                      lambda d: d["orbits"][0].update(locally_maximal="yes")))
@example(case=_edited("hyperbolic_system", lambda d: d["constants"].update(B=4.0)))
@example(case=_edited("hyperbolic_system", lambda d: d["orbits"][1].update(period_=3.0)))
@example(case=_edited("profile", lambda d: d.update(loopindex=2)))
@example(case=_edited("complex", lambda d: d["generators"][0].update(weight=1.0)))
@example(case=_edited("complex", lambda d: d.update(boundaries={})))
@example(case=_edited("matrix", lambda d: d[0].__setitem__(0, "1")))
def test_loaders_reject_what_their_schemas_reject(case):
    name, doc = case
    schema, _, argv = LOADERS[name]
    valid = schema().is_valid(doc) and _finite(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        code, exc = run_recorded([str(path) if a == "FILE" else a for a in argv])
    if valid:
        assert code in (0, 3) or not isinstance(exc, MalformedInput), (code, exc)
    else:
        assert code == 2, (code, exc)
