"""Command-line interface: figure data, scenario pipelines, exit codes."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import emwave
from emwave import __version__, oracle
from emwave.cli import (
    CONVENTIONS,
    SCENARIO_KEYS,
    SCHEMA,
    _parse_range,
    emit_figure_data,
    load_scenario,
    main,
)
from emwave.errors import ConfigError

WAVELET_PEAK = 3.0 / np.pi**2


# ---------------------------------------------------------------------------
# range parsing and figure data
# ---------------------------------------------------------------------------


def test_parse_range_is_endpoint_inclusive():
    assert len(_parse_range("0:10:0.05", "x")) == 201
    assert len(_parse_range("-5:5:0.1", "x")) == 101
    vals = _parse_range("0:3:0.5", "x")
    assert len(vals) == 7
    assert vals[0] == 0.0 and vals[-1] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "bad",
    ["1:0:0.5", "0:1:0", "0:1:-0.1", "a:b:c", "0:1", "1:2:3:4",
     # non-finite parts, and counts that overflow or exceed 10^6 samples:
     # each is rejected before anything is allocated
     "nan:1:0.5", "0:inf:1", "-inf:0:1", "0:1:nan", "0:1e308:1e-300", "-1e308:1e308:1", "0:1:1e-9",
     "0:1000000:1"],
)
def test_parse_range_rejects_malformed_input(bad):
    with pytest.raises(ConfigError):
        _parse_range(bad, "x")


def test_parse_range_allows_one_million_samples():
    assert len(_parse_range("0:999999:1", "x")) == 10**6


def test_non_finite_range_flag_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["wavelet", "--s", "1", "--r", "nan:1:0.5", "--t", "0:0:1", "--out", str(out)]) == 2
    assert "config error at --r" in capsys.readouterr().err
    assert main(["wavelet", "--s", "1", "--r", "0:1:0.5", "--t", "0:1e308:1e-300", "--out", str(out)]) == 2
    assert "config error at --t" in capsys.readouterr().err
    assert not out.exists()


def test_wavelet_rows_are_bounded_before_any_is_built(tmp_path, capsys):
    out = tmp_path / "sub" / "w.csv"
    # each range alone is allowed; 1001 x 1001 = 1002001 rows are not
    assert main(["wavelet", "--s", "1", "--r", "0:1:0.001", "--t", "0:1:0.001", "--out", str(out)]) == 2
    assert "config error at --r x --t: 1001 x 1001 rows exceed 1000000" in capsys.readouterr().err
    assert not out.parent.exists()


def test_figure_data_layout_and_origin_value():
    rs = _parse_range("0:3:0.5", "x")
    ts = _parse_range("-1:1:0.5", "x")
    text = emit_figure_data(-1.0, rs, ts)
    lines = text.strip().split("\n")
    assert lines[0] == "r,t,re,im,abs"
    assert len(lines) == 1 + 7 * 5  # t outer loop, r inner
    # t=0 block is the third of five; its first row sits at the origin
    origin = lines[1 + 2 * 7].split(",")
    assert origin[0] == "0" and origin[1] == "0"
    assert float(origin[2]) == pytest.approx(WAVELET_PEAK, rel=1e-15)
    assert float(origin[3]) == 0.0


def test_figure_data_time_reflection_conjugates():
    rs = _parse_range("0:2:1", "x")
    ts = _parse_range("-1:1:1", "x")
    rows = emit_figure_data(-1.0, rs, ts).strip().split("\n")[1:]
    block = lambda i: [r.split(",") for r in rows[3 * i : 3 * i + 3]]
    for early, late in zip(block(0), block(2)):  # t=-1 vs t=+1
        assert float(early[2]) == float(late[2])
        assert float(early[3]) == -float(late[3])


def test_figure_data_shows_real_zero_crossing():
    rs = _parse_range("1.7:1.8:0.01", "x")
    ts = _parse_range("0:0:1", "x")
    rows = emit_figure_data(-1.0, rs, ts).strip().split("\n")[1:]
    res = np.array([float(r.split(",")[2]) for r in rows])
    radii = np.array([float(r.split(",")[0]) for r in rows])
    flips = np.nonzero(np.diff(np.sign(res)))[0]
    assert len(flips) == 1
    lo, hi = radii[flips[0]], radii[flips[0] + 1]
    assert lo < np.sqrt(3.0) < hi


# ---------------------------------------------------------------------------
# wavelet subcommand
# ---------------------------------------------------------------------------


def test_wavelet_subcommand_writes_csv(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wavelet", "--s", "-1", "--r", "0:3:0.5", "--t", "-1:1:0.5", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 36


def test_wavelet_subcommand_accepts_negative_range_values(tmp_path):
    # option values beginning with '-' must not be mistaken for flags
    out = tmp_path / "w.csv"
    assert main(["wavelet", "--s", "-2", "--r", "0:1:0.5", "--t", "-5:5:2.5", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 3 * 5


def test_wavelet_subcommand_rejects_zero_scale(tmp_path, capsys):
    code = main(["wavelet", "--s", "0", "--r", "0:1:0.5", "--t", "0:0:1", "--out", str(tmp_path / "w.csv")])
    assert code == 2
    assert "--s" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["anchor", "scaling"])
def test_verify_suite_passes_and_reports(tmp_path, capsys, suite):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", suite, "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["suite"] == suite and report["seed"] == 7
    assert report["records"]
    for rec in report["records"]:
        assert set(rec) >= {"test", "value", "oracle", "estimate", "converged", "pass"}
        assert rec["pass"] is True and rec["converged"] is True
    assert "[pass]" in capsys.readouterr().out


def test_unconverged_oracle_fails_its_record(tmp_path, monkeypatch):
    real = oracle.cone_inner_product

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(oracle, "cone_inner_product", unconverged)
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "anchor", "--out", str(out)]) == 1
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["converged"] is False and rec["pass"] is False


def test_verify_rejects_unknown_suite(tmp_path, capsys):
    code = main(["verify", "--suite", "nonsense", "--out", str(tmp_path / "v.json")])
    assert code == 2
    assert "verify.suite" in capsys.readouterr().err


def test_verify_flags_are_checked_like_a_scenario(tmp_path, capsys):
    code = main(["verify", "--suite", "anchor", "--seed", "-1", "--out", str(tmp_path / "v.json")])
    assert code == 2
    assert "config error at seed: " in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_verify_scenario_route(tmp_path):
    cfg = {
        "schema": SCHEMA,
        "pipeline": "verify-suite",
        "seed": 3,
        "verify": {"suite": "anchor"},
        "outputs": {"directory": "out", "report": "v.json"},
    }
    path = tmp_path / "v.json.cfg"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--scenario", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "v.json").read_text())
    assert all(rec["pass"] for rec in report["records"])


# ---------------------------------------------------------------------------
# scenario pipelines
# ---------------------------------------------------------------------------


def _norms_cfg(directory, tol=1e-2):
    return {
        "schema": SCHEMA,
        "pipeline": "norms",
        "grids": {
            "spatial": {"N": 16, "L": 12.0},
            "scale": {"omega_band": [0.8, 3.5], "nodes_per_sign": 20},
        },
        "amplitude": {
            "profile": "gaussian",
            "center": 2.0,
            "width": 0.35,
            "angular": {"nz": 0.25},
            "sheet_weights": [1.0, 0.6],
        },
        "tolerances": {"parseval": tol},
        "outputs": {"directory": directory, "report": "norms.json"},
    }


def _write_cfg(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def test_norms_pipeline_passes_and_writes_manifest(tmp_path):
    cfg = _norms_cfg("out")
    cfg["workers"] = 2
    path = _write_cfg(tmp_path, cfg)
    assert main(["norms", "--scenario", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert report["gap_euclidean"] < 1e-3
    assert report["checks"][0]["pass"] is True
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["pipeline"] == "norms"
    assert manifest["exit_status"] == 0
    assert manifest["conventions"] == CONVENTIONS
    assert manifest["package_version"] == __version__
    assert manifest["workers"] == 2  # from the scenario key
    import hashlib

    assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert any(p.endswith("norms.json") for p in manifest["outputs"])


def test_norms_pipeline_fails_tight_tolerance(tmp_path):
    path = _write_cfg(tmp_path, _norms_cfg("out", tol=1e-9))
    assert main(["norms", "--scenario", str(path)]) == 1
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["exit_status"] == 1


def test_norms_report_is_worker_independent(tmp_path):
    pa = _write_cfg(tmp_path, _norms_cfg("a"), "a.json")
    pb = _write_cfg(tmp_path, _norms_cfg("b"), "b.json")
    assert main(["norms", "--scenario", str(pa), "--workers", "1"]) == 0
    assert main(["norms", "--scenario", str(pb), "--workers", "8"]) == 0
    assert (tmp_path / "a" / "norms.json").read_bytes() == (tmp_path / "b" / "norms.json").read_bytes()


def _analyze_cfg(directory):
    return {
        "schema": SCHEMA,
        "pipeline": "analyze",
        "grids": {
            "spatial": {"N": 16, "L": 12.0},
            "scale": {"omega_band": [0.8, 3.5], "nodes_per_sign": 20},
        },
        "amplitude": {"profile": "gaussian", "center": 2.0, "width": 0.35},
        "outputs": {"directory": directory, "coefficients": "c"},
    }


def test_analyze_then_reconstruct_chain(tmp_path):
    apath = _write_cfg(tmp_path, _analyze_cfg("coeff"), "analyze.json")
    assert main(["analyze", "--scenario", str(apath)]) == 0
    assert (tmp_path / "coeff" / "c.json").exists()
    assert (tmp_path / "coeff" / "c.bin").exists()

    rcfg = _analyze_cfg("recon")
    rcfg["pipeline"] = "reconstruct"
    rcfg["coefficients"] = "coeff/c.json"
    rcfg["probes"] = {"count": 12, "box_fraction": 0.3, "times": [0.0, 1.0]}
    rcfg["tolerances"] = {"round_trip": 1e-2}
    rcfg["outputs"] = {"directory": "recon", "csv": "field.csv", "report": "report.json"}
    rpath = _write_cfg(tmp_path, rcfg, "recon.json")
    assert main(["reconstruct", "--scenario", str(rpath)]) == 0
    report = json.loads((tmp_path / "recon" / "report.json").read_text())
    assert len(report["checks"]) == 2
    assert all(c["pass"] and c["value"] < 1e-2 for c in report["checks"])
    rows = (tmp_path / "recon" / "field.csv").read_text().strip().split("\n")
    assert rows[0] == "x,y,z,t,re_x,im_x,re_y,im_y,re_z,im_z"
    assert len(rows) == 1 + 12 * 2


def test_analyze_payload_is_worker_independent(tmp_path):
    pa = _write_cfg(tmp_path, _analyze_cfg("a"), "a.json")
    pb = _write_cfg(tmp_path, _analyze_cfg("b"), "b.json")
    assert main(["analyze", "--scenario", str(pa), "--workers", "1"]) == 0
    assert main(["analyze", "--scenario", str(pb), "--workers", "8"]) == 0
    assert (tmp_path / "a" / "c.bin").read_bytes() == (tmp_path / "b" / "c.bin").read_bytes()
    ma = json.loads((tmp_path / "a" / "c.json").read_text())
    mb = json.loads((tmp_path / "b" / "c.json").read_text())
    assert ma["payload_sha256"] == mb["payload_sha256"]


# ---------------------------------------------------------------------------
# diagnostics and exit codes
# ---------------------------------------------------------------------------


def test_missing_scenario_file_is_reported(tmp_path, capsys):
    assert main(["norms", "--scenario", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err


def _put(cfg, path, value, pipeline=None):
    *head, last = path.split(".")
    node = cfg
    for key in head:
        node = node.setdefault(key, {})
    node[last] = value
    if pipeline is not None:
        cfg["pipeline"] = pipeline


COMMANDS = {"norms": "norms", "reconstruct": "reconstruct", "verify-suite": "verify"}


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda c: c.pop("schema"), "schema"),
        (lambda c: c.__setitem__("pipeline", "bogus"), "pipeline"),
        (lambda c: c["grids"]["spatial"].__setitem__("N", 15), "grids.spatial"),
        (lambda c: c["tolerances"].__setitem__("parseval", -1.0), "tolerances.parseval"),
        (lambda c: c["amplitude"].__setitem__("profile", "bogus"), "amplitude.profile"),
        (lambda c: c["grids"]["scale"].__setitem__("omega_band", [2.0]), "grids.scale"),
        # wrongly typed values: each is reported at its own path, not as a traceback
        (lambda c: _put(c, "grids.spatial.N", "abc"), "grids.spatial.N"),
        (lambda c: _put(c, "grids.spatial.N", 8.7), "grids.spatial.N"),
        (lambda c: _put(c, "grids.spatial.L", "x"), "grids.spatial.L"),
        (lambda c: _put(c, "workers", "x"), "workers"),
        (lambda c: _put(c, "time", "now"), "time"),
        (lambda c: _put(c, "grids.scale.nodes_per_sign", "many"), "grids.scale.nodes_per_sign"),
        (lambda c: _put(c, "grids.scale.omega_band", [0.5, "hi"]), "grids.scale.omega_band"),
        (lambda c: _put(c, "amplitude", "gaussian"), "amplitude"),
        (lambda c: _put(c, "amplitude.angular", 3), "amplitude.angular"),
        (lambda c: _put(c, "amplitude.center", "c"), "amplitude.center"),
        (lambda c: _put(c, "amplitude.sheet_weights", [1]), "amplitude.sheet_weights"),
        (lambda c: _put(c, "tolerances", [1]), "tolerances"),
        (lambda c: _put(c, "outputs.directory", 5), "outputs.directory"),
        (lambda c: _put(c, "norms.nonlocal", "yes"), "norms.nonlocal"),
        (lambda c: _put(c, "coefficients", 5, "reconstruct"), "coefficients"),
        (lambda c: _put(c, "probes.count", "x", "reconstruct"), "probes.count"),
        (lambda c: _put(c, "probes.count", -1, "reconstruct"), "probes.count"),
        (lambda c: _put(c, "probes.times", "ab", "reconstruct"), "probes.times"),
        (lambda c: _put(c, "verify.suite", ["kernel"], "verify-suite"), "verify.suite"),
        # a cell volume (L/N)^3 beyond the largest float
        pytest.param(lambda c: _put(c, "grids.spatial.L", 1e300), "grids.spatial", id="L-1e300"),
        # every key is checked before the first output is written
        pytest.param(lambda c: _put(c, "outputs.report", 5, "reconstruct"), "outputs.report", id="report-5"),
        # misspelled keys are not ignored
        pytest.param(lambda c: _put(c, "tolerance.parseval", 1e-30), "tolerance: unknown key", id="tolerance"),
        pytest.param(lambda c: _put(c, "amplitude.centre", 9.0), "amplitude.centre: unknown key", id="centre"),
        # output names stay inside outputs.directory
        pytest.param(lambda c: _put(c, "outputs.report", "../r.json"), "outputs.report", id="report-up"),
        pytest.param(lambda c: _put(c, "outputs.directory", "o\0ut"), "outputs.directory", id="directory-nul"),
        # a finite amplitude whose norm overflows
        pytest.param(lambda c: _put(c, "amplitude.angular.const", 1e300), "amplitude: ", id="const-1e300"),
        # a band whose scale quadrature overflows (s_min subnormal)
        pytest.param(lambda c: _put(c, "grids.scale.omega_band", [0.9, 1e307]), "grids.scale: ", id="band-1e307"),
        # sizes beyond any run are rejected before anything is allocated
        pytest.param(lambda c: _put(c, "probes.count", 10**12, "reconstruct"), "probes.count", id="count-1e12"),
        pytest.param(lambda c: _put(c, "grids.spatial.N", 512), "grids.spatial.N", id="N-512"),
        pytest.param(lambda c: _put(c, "grids.scale.nodes_per_sign", 4096), "grids.scale.nodes_per_sign",
                     id="nodes-4096"),
        pytest.param(lambda c: _put(c, "workers", 10**6), "workers", id="workers-1e6"),
        pytest.param(lambda c: (_put(c, "grids.spatial.N", 32), _put(c, "norms.nonlocal", True)), "norms.nonlocal",
                     id="nonlocal-N32"),
        # scipy.fft rejects these; the table rejects them first
        pytest.param(lambda c: _put(c, "workers", 0), "workers", id="workers-0"),
        pytest.param(lambda c: _put(c, "workers", -1), "workers", id="workers-minus-1"),
    ],
)
def test_invalid_scenarios_name_the_offending_path(tmp_path, capsys, mutate, needle):
    cfg = _norms_cfg("out")
    mutate(cfg)
    path = _write_cfg(tmp_path, cfg)
    assert main([COMMANDS.get(cfg.get("pipeline"), "norms"), "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error at {needle}" in err
    assert err.count("config error") == 1
    assert not (tmp_path / "out").exists()


def test_oversized_workers_flag_is_a_config_error(tmp_path, capsys):
    path = _write_cfg(tmp_path, _norms_cfg("out"))
    assert main(["norms", "--scenario", str(path), "--workers", "100000"]) == 2
    assert "config error at --workers: must be <= 256" in capsys.readouterr().err
    assert main(["norms", "--scenario", str(path), "--workers", "0"]) == 2
    assert "config error at --workers: must be <= 256 and >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _small_scenarios():
    norms = {
        "schema": SCHEMA,
        "pipeline": "norms",
        "seed": 1,
        "workers": 1,
        "time": 0.3,
        "grids": {
            "spatial": {"N": 8, "L": 8.0},
            "scale": {"omega_band": [0.9, 2.8], "nodes_per_sign": 8, "signs": "both"},
            "cone": {"omega_min": 0.9, "omega_max": 2.8, "sheets": "both"},
        },
        "amplitude": {
            "profile": "gaussian",
            "center": 1.8,
            "width": 0.4,
            "angular": {"const": 1.0, "nz": 0.2},
            "sheet_weights": [1.0, 0.5],
        },
        "norms": {"nonlocal": True},
        "tolerances": {"parseval": 0.5, "nonlocal": 0.5},
        "outputs": {"directory": "out", "report": "report.json"},
    }
    recon = copy.deepcopy(norms)
    del recon["norms"]
    recon["pipeline"] = "reconstruct"
    recon["amplitude"] = {"profile": "wavelet", "s0": 1.0, "sheet_weights": [1.0, 0.0]}
    recon["probes"] = {"count": 4, "box_fraction": 0.3, "times": [0.0, 1.0]}
    recon["tolerances"] = {"round_trip": 0.5}
    recon["outputs"]["csv"] = "field.csv"
    return [norms, recon]


def _leaves(node, prefix=()):
    """Key paths of every value below ``node`` that is not an object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if not isinstance(value, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, prefix + (key,))


def _at(cfg, keys):
    for key in keys:
        cfg = cfg[key]
    return cfg


# integers stay small so that no draw asks for a huge grid or budget;
# floats span every finite double
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-16, 16)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["both", "plus", "minus", "gaussian", "wavelet", "norms", "analyze"])
    | st.text("abxyz_-", max_size=6)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abc", max_size=2), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(
    leaf=st.sampled_from([(i, p) for i, cfg in enumerate(_small_scenarios()) for p in _leaves(cfg)]),
    value=_json_values,
)
# inputs that once escaped as tracebacks
@example(leaf=(1, ("probes", "box_fraction")), value=-1)
@example(leaf=(0, ("outputs", "report")), value="")
@example(leaf=(0, ("grids", "spatial", "L")), value=1e-300)
@example(leaf=(0, ("amplitude", "angular", "const")), value=1e300)
def test_config_fuzz_exits_with_a_documented_status(tmp_path_factory, leaf, value):
    which, keys = leaf
    cfg = _small_scenarios()[which]
    command = COMMANDS[cfg["pipeline"]]
    *head, last = keys
    _at(cfg, head)[last] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "scenario.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main([command, "--scenario", str(path)])
    assert status in (0, 1, 2)
    if status == 2:
        assert "config error at " in err.getvalue() or "error: " in err.getvalue()
    else:
        resolved = load_scenario(path)
        text = (tmp / resolved["outputs.directory"] / resolved["outputs.report"]).read_text()
        report = json.loads(text, parse_constant=_not_json)  # NaN and Infinity are not JSON
        assert (status == 1) == any(not check["pass"] for check in report["checks"])


def _not_json(token):
    raise ValueError(f"{token} in a report")


_TABLE_LEAVES = {tuple(path.split(".")) for path in SCENARIO_KEYS}
_TABLE_OBJECTS = sorted({leaf[:i] for leaf in _TABLE_LEAVES for i in range(len(leaf))})
# real key names in the wrong place, and names the table does not know
_key_names = st.sampled_from(sorted({key for leaf in _TABLE_LEAVES for key in leaf})) | st.text(
    "aceilnrst._", min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 1), node=st.sampled_from(_TABLE_OBJECTS), key=_key_names, value=_json_values)
@example(which=0, node=(), key="tolerance", value={"parseval": 1e-30})
@example(which=0, node=("amplitude",), key="centre", value=9.0)
@example(which=1, node=(), key="grids.spatial", value=None)
def test_config_fuzz_names_an_unknown_key(tmp_path_factory, which, node, key, value):
    path = node + (key,)
    assume(path not in _TABLE_LEAVES and path not in _TABLE_OBJECTS)
    cfg = _small_scenarios()[which]
    target = cfg
    for part in node:
        target = target.setdefault(part, {})
    target[key] = value
    tmp = tmp_path_factory.mktemp("unknown")
    (tmp / "scenario.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main([COMMANDS[cfg["pipeline"]], "--scenario", str(tmp / "scenario.json")])
    assert status == 2
    assert err.getvalue().count("config error") == 1
    assert f"config error at {'.'.join(path)}: unknown key" in err.getvalue()
    assert not (tmp / "out").exists()


def test_readme_schema_lists_the_scenario_table(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    schema = json.loads(re.sub(r"//.*", "", block))

    def leaf_paths(node, prefix=""):
        for key, value in node.items():
            if isinstance(value, dict):
                yield from leaf_paths(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert sorted(leaf_paths(schema)) == sorted(SCENARIO_KEYS)
    load_scenario(_write_cfg(tmp_path, schema))  # and its example values pass every check


def test_zero_reference_field_is_a_config_error(tmp_path, capsys):
    # the round-trip error of a field that vanishes at every probe is 0/0;
    # it is rejected before any report is written
    cfg = _small_scenarios()[1]
    cfg["amplitude"]["sheet_weights"] = [0, 0]
    path = _write_cfg(tmp_path, cfg)
    assert main(["reconstruct", "--scenario", str(path)]) == 2
    assert "config error at amplitude: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_non_finite_payload_is_a_config_error(tmp_path, capsys):
    # the checksum only proves the bytes are the manifest's; a NaN sample
    # would reach every probe through the sheet sums, so it is rejected
    # before any file is written
    analyze_cfg = _small_scenarios()[1]
    analyze_cfg["pipeline"] = "analyze"
    analyze_cfg["outputs"] = {"directory": "coeff", "coefficients": "c"}
    assert main(["analyze", "--scenario", str(_write_cfg(tmp_path, analyze_cfg, "a.json"))]) == 0
    payload = np.fromfile(tmp_path / "coeff" / "c.bin", dtype="<c16")
    payload[len(payload) // 2] = complex(np.nan, 0.0)
    payload.tofile(tmp_path / "coeff" / "c.bin")
    manifest_path = tmp_path / "coeff" / "c.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["payload_sha256"] = hashlib.sha256(payload.tobytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    cfg = _small_scenarios()[1]
    cfg["coefficients"] = "coeff/c.json"
    assert main(["reconstruct", "--scenario", str(_write_cfg(tmp_path, cfg))]) == 2
    assert "config error at coefficients: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nonlocal_norms_report_records_imag_ratio(tmp_path):
    path = _write_cfg(tmp_path, _small_scenarios()[0])
    assert main(["norms", "--scenario", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert 0.0 <= report["nonlocal_imag_ratio"] < 1e-8


def test_subcommand_must_match_pipeline(tmp_path, capsys):
    path = _write_cfg(tmp_path, _norms_cfg("out"))
    assert main(["analyze", "--scenario", str(path)]) == 2
    assert "needs pipeline" in capsys.readouterr().err


def test_load_scenario_round_trips_valid_config(tmp_path):
    path = _write_cfg(tmp_path, _norms_cfg("out"))
    cfg = load_scenario(path)
    assert cfg["pipeline"] == "norms"


def test_cli_import_leaves_out_the_oracle_quadrature():
    # only the verify suites need the oracle, and with it scipy.integrate
    src = str(Path(emwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, emwave.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_console_script_reports_version():
    out = subprocess.run(
        [sys.executable, "-m", "emwave.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert __version__ in out.stdout
