"""Command-line interface: figure data, scenario pipelines, exit codes."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from emwave import __version__, oracle
from emwave.cli import (
    CONVENTIONS,
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


@pytest.mark.parametrize("bad", ["1:0:0.5", "0:1:0", "0:1:-0.1", "a:b:c", "0:1", "1:2:3:4"])
def test_parse_range_rejects_malformed_input(bad):
    with pytest.raises(ConfigError):
        _parse_range(bad, "x")


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


def test_norms_pipeline_passes_and_writes_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("EMWAVE_THREADS", "2")
    path = _write_cfg(tmp_path, _norms_cfg("out"))
    assert main(["norms", "--scenario", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert report["gap_euclidean"] < 1e-3
    assert report["checks"][0]["pass"] is True
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["pipeline"] == "norms"
    assert manifest["exit_status"] == 0
    assert manifest["conventions"] == CONVENTIONS
    assert manifest["package_version"] == __version__
    assert manifest["workers"] == 2  # resolved from the environment default
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


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda c: c.pop("schema"), "schema"),
        (lambda c: c.__setitem__("pipeline", "bogus"), "pipeline"),
        (lambda c: c["grids"]["spatial"].__setitem__("N", 15), "grids.spatial"),
        (lambda c: c["tolerances"].__setitem__("parseval", -1.0), "tolerances.parseval"),
        (lambda c: c["amplitude"].__setitem__("profile", "bogus"), "amplitude.profile"),
        (lambda c: c["grids"]["scale"].__setitem__("omega_band", [2.0]), "grids.scale"),
    ],
)
def test_invalid_scenarios_name_the_offending_path(tmp_path, capsys, mutate, needle):
    cfg = _norms_cfg("out")
    mutate(cfg)
    path = _write_cfg(tmp_path, cfg)
    assert main(["norms", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert needle in err and "config error" in err


def test_subcommand_must_match_pipeline(tmp_path, capsys):
    path = _write_cfg(tmp_path, _norms_cfg("out"))
    assert main(["analyze", "--scenario", str(path)]) == 2
    assert "needs pipeline" in capsys.readouterr().err


def test_load_scenario_round_trips_valid_config(tmp_path):
    path = _write_cfg(tmp_path, _norms_cfg("out"))
    cfg = load_scenario(path)
    assert cfg["pipeline"] == "norms"


def test_console_script_reports_version():
    out = subprocess.run(
        [sys.executable, "-m", "emwave.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert __version__ in out.stdout
