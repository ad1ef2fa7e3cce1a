"""Command-line interface: figure data, scenario pipelines, exit codes."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import emwave
from emwave import __version__, cli, fieldcore, oracle, transform
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
    assert manifest["fft_backend"] == "numpy.fft" and "scipy_version" not in manifest
    import hashlib

    assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert any(p.endswith("norms.json") for p in manifest["outputs"])


def test_manifest_total_ignores_a_stepping_wall_clock(monkeypatch, tmp_path):
    # a wall clock set back by an hour at every read, as by NTP or by hand
    readings = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(cli.time, "time", lambda: float(next(readings)))
    path = _write_cfg(tmp_path, _norms_cfg("out"))
    assert main(["norms", "--scenario", str(path)]) == 0
    total = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["timings_s"]["total"]
    assert 0.0 <= total < 60.0


def test_norms_pipeline_fails_tight_tolerance(tmp_path):
    # the Parseval gap of this scenario is about 3.4e-12 (20 nodes per sign on [0.8, 3.5])
    path = _write_cfg(tmp_path, _norms_cfg("out", tol=1e-13))
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


def test_reconstruct_streams_the_csv_of_the_synthesized_field(tmp_path, monkeypatch):
    cfg = _analyze_cfg("recon")
    cfg["pipeline"] = "reconstruct"
    cfg["probes"] = {"count": 30, "times": [0.0, 1.0]}
    cfg["outputs"] = {"directory": "recon", "csv": "field.csv"}
    path = _write_cfg(tmp_path, cfg)
    scen = load_scenario(path)
    ygrid, sgrid, cone = cli._build_grids(scen)
    coeffs = transform.analyze(cli._build_amplitude(scen, cone), ygrid, sgrid)
    probes = cli._draw_probes(scen, ygrid)
    rows = ["x,y,z,t,re_x,im_x,re_y,im_y,re_z,im_z"]
    for t in scen["probes.times"]:
        for p, v in zip(probes, transform.synthesize_many(coeffs, probes, t)):
            nums = [*p, t, v[0].real, v[0].imag, v[1].real, v[1].imag, v[2].real, v[2].imag]
            rows.append(",".join(f"{u:.17g}" for u in nums))
    # both probe sums run in blocks of 7 probes
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 7 * 16**2)
    monkeypatch.setattr(fieldcore, "_BLOCK_ENTRIES", 7 * len(cone))
    assert main(["reconstruct", "--scenario", str(path)]) == 0
    assert (tmp_path / "recon" / "field.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


def test_analyze_payload_is_worker_independent(tmp_path):
    pa = _write_cfg(tmp_path, _analyze_cfg("a"), "a.json")
    pb = _write_cfg(tmp_path, _analyze_cfg("b"), "b.json")
    assert main(["analyze", "--scenario", str(pa), "--workers", "1"]) == 0
    assert main(["analyze", "--scenario", str(pb), "--workers", "8"]) == 0
    assert (tmp_path / "a" / "c.bin").read_bytes() == (tmp_path / "b" / "c.bin").read_bytes()
    ma = json.loads((tmp_path / "a" / "c.json").read_text())
    mb = json.loads((tmp_path / "b" / "c.json").read_text())
    assert ma["slice_sha256"] == mb["slice_sha256"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("slices_per_block", [None, 7])
def test_streamed_analyze_writes_the_bytes_of_save_after_analyze(tmp_path, monkeypatch, workers, slices_per_block):
    # None: the default block holds 21 of the 40 slices; 7: six blocks, the last one short
    if slices_per_block is not None:
        monkeypatch.setattr(transform, "_BLOCK_ENTRIES", slices_per_block * 3 * 16**3)
    path = _write_cfg(tmp_path, _analyze_cfg("cli"))
    assert main(["analyze", "--scenario", str(path), "--workers", str(workers)]) == 0
    scen = load_scenario(path)
    ygrid, sgrid, cone = cli._build_grids(scen)
    coeffs = transform.analyze(cli._build_amplitude(scen, cone), ygrid, sgrid, workers=workers)
    transform.save_coefficients(coeffs, tmp_path / "lib", name="c")
    for name in ("c.bin", "c.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == ["c.bin", "c.json", "run_manifest.json"]


def test_reconstruct_refuses_a_flipped_payload_byte_before_any_output(tmp_path, capsys):
    assert main(["analyze", "--scenario", str(_write_cfg(tmp_path, _analyze_cfg("coeff"), "a.json"))]) == 0
    blob = bytearray((tmp_path / "coeff" / "c.bin").read_bytes())
    blob[len(blob) // 3] ^= 0x01  # in slice 13 of 40
    (tmp_path / "coeff" / "c.bin").write_bytes(bytes(blob))
    rcfg = _analyze_cfg("recon")
    rcfg["pipeline"] = "reconstruct"
    rcfg["coefficients"] = "coeff/c.json"
    capsys.readouterr()
    assert main(["reconstruct", "--scenario", str(_write_cfg(tmp_path, rcfg, "r.json"))]) == 2
    err = capsys.readouterr().err
    assert "config error at coefficients: " in err and "checksum mismatch in slice 13 of c.bin" in err
    assert "Traceback" not in err
    assert not (tmp_path / "recon").exists()


def _scale_payload(directory, factor):
    """Multiply a saved set's values by ``factor`` and rewrite its slice digests to match."""
    manifest = json.loads((directory / "c.json").read_text())
    values = np.fromfile(directory / "c.bin", dtype="<c16") * factor
    values.tofile(directory / "c.bin")
    slices = values.reshape(manifest["shape"][0], -1)
    manifest["slice_sha256"] = [hashlib.sha256(c.tobytes()).hexdigest() for c in slices]
    (directory / "c.json").write_text(json.dumps(manifest))


def _mirrored_weights(directory, value):
    """Set the weight of the sixth positive scale node and of its mirror image to ``value``."""
    manifest = json.loads((directory / "c.json").read_text())
    weights = manifest["sgrid"]["weights"]
    weights[5] = weights[len(weights) // 2 + 5] = value
    (directory / "c.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "corrupt, needle",
    [(lambda d: _scale_payload(d, 1e306), "the round-trip error at t=0 is inf"),
     (lambda d: _mirrored_weights(d, 1e308), "recovery error over the band [0.8, 3.5] is not a finite number")],
    ids=["payload-1e306", "weights-1e308"],
)
def test_reconstruct_refuses_finite_but_huge_coefficients(tmp_path, capsys, corrupt, needle):
    # finite values or weights whose sums overflow used to end in a ValueError from the report writer
    assert main(["analyze", "--scenario", str(_write_cfg(tmp_path, _analyze_cfg("coeff"), "a.json"))]) == 0
    corrupt(tmp_path / "coeff")
    rcfg = _analyze_cfg("recon")
    rcfg["pipeline"] = "reconstruct"
    rcfg["coefficients"] = "coeff/c.json"
    capsys.readouterr()
    assert main(["reconstruct", "--scenario", str(_write_cfg(tmp_path, rcfg, "r.json"))]) == 2
    err = capsys.readouterr().err
    assert "config error at coefficients: " in err and needle in err and "Traceback" not in err
    assert not (tmp_path / "recon").exists()


def test_reconstruct_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the synthesis splits its BLAS product by output blocks, and the dense
    # reference sum behind report.json runs no BLAS product at all
    src = str(Path(emwave.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        cfg = _analyze_cfg(f"recon-{threads}")
        cfg["pipeline"] = "reconstruct"
        cfg["outputs"] = {"directory": f"recon-{threads}"}
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        path = _write_cfg(tmp_path, cfg, f"r{threads}.json")
        argv = [sys.executable, "-m", "emwave.cli", "reconstruct", "--scenario", str(path)]
        out = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        outdir = tmp_path / f"recon-{threads}"
        outputs.append([(outdir / name).read_bytes() for name in ("report.json", "reconstruction.csv")])
    assert outputs[0] == outputs[1]


def _refuse_grid_builds(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli.grids, "build_spatial_grid", no_build)


@pytest.mark.parametrize("N, nodes, signs", [(16, 20, "both"), (128, 1024, "both"), (16, 20, "plus")])
def test_analyze_refuses_a_payload_beyond_the_free_disk_space(tmp_path, monkeypatch, capsys, N, nodes, signs):
    # 48 N^3 Ns bytes against the free space, checked before any grid is built;
    # (128, 1024) is the 192 GiB set that used to end in a failed allocation
    need = 48 * N**3 * nodes * (2 if signs == "both" else 1)
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(cli.shutil, "disk_usage", lambda path: usage._replace(free=need - 1))
    _refuse_grid_builds(monkeypatch)
    cfg = _analyze_cfg("out/deeper")
    cfg["grids"]["spatial"]["N"] = N
    cfg["grids"]["scale"].update(nodes_per_sign=nodes, signs=signs)
    assert main(["analyze", "--scenario", str(_write_cfg(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "config error at grids.scale.nodes_per_sign: " in err
    assert f"{need} bytes" in err and f"{need - 1} are free" in err
    assert not (tmp_path / "out").exists()


def test_streamed_analyze_sets_the_amplitude_up_once(tmp_path, monkeypatch):
    # seven slices per block: six blocks, and one per-amplitude set-up for all of them
    calls = []

    def counted(amp):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(amp)

    real = transform.amplitude_vectors
    monkeypatch.setattr(transform, "amplitude_vectors", counted)
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 7 * 3 * 16**3)
    assert main(["analyze", "--scenario", str(_write_cfg(tmp_path, _analyze_cfg("out")))]) == 0
    assert calls.count("_field_on_grid") == 1, calls


def test_out_of_memory_exits_2_and_leaves_no_partial_set(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        yield next(real(*args, **kwargs))  # the first block is written, the second cannot be allocated
        raise MemoryError("Unable to allocate 12.0 GiB")

    real = transform._field_on_grid
    monkeypatch.setattr(transform, "_field_on_grid", failing)
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 8 * 3 * 16**3)
    (tmp_path / "out").mkdir()
    assert main(["analyze", "--scenario", str(_write_cfg(tmp_path, _analyze_cfg("out")))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory in analyze: Unable to allocate") and "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


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
        # a band whose scale quadrature leaves the float range (its smallest nodes underflow)
        pytest.param(lambda c: _put(c, "grids.scale.omega_band", [0.9, 1e307]), "grids.scale: ", id="band-1e307"),
        # a cone band the scale rule does not cover
        pytest.param(lambda c: _put(c, "grids.cone.omega_max", 4.0), "grids.cone: the cone band [0.8, 4.0] reaches "
                     "outside the scale band [0.8, 3.5]", id="cone-outside-scale-band"),
        # sizes beyond any run are rejected before anything is allocated
        pytest.param(lambda c: _put(c, "probes.count", 10**12, "reconstruct"), "probes.count", id="count-1e12"),
        pytest.param(lambda c: _put(c, "grids.spatial.N", 512), "grids.spatial.N", id="N-512"),
        pytest.param(lambda c: _put(c, "grids.scale.nodes_per_sign", 4096), "grids.scale.nodes_per_sign",
                     id="nodes-4096"),
        pytest.param(lambda c: _put(c, "workers", 10**6), "workers", id="workers-1e6"),
        pytest.param(lambda c: (_put(c, "grids.spatial.N", 32), _put(c, "norms.nonlocal", True)), "norms.nonlocal",
                     id="nonlocal-N32"),
        # a pool needs a thread; the table rejects these first
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
    slices = payload.reshape(manifest["shape"][0], -1)
    k = len(payload) // 2 // slices.shape[1]  # the slice that holds the NaN, re-digested
    manifest["slice_sha256"][k] = hashlib.sha256(slices[k].tobytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    cfg = _small_scenarios()[1]
    cfg["coefficients"] = "coeff/c.json"
    assert main(["reconstruct", "--scenario", str(_write_cfg(tmp_path, cfg))]) == 2
    assert "config error at coefficients: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_coefficients_from_another_spatial_grid_are_refused(tmp_path, capsys):
    # the probes, the reference amplitude and the coefficients must share
    # one lattice; a file from another (N, L) used to be checked anyway
    # and fail its round trip with exit 1
    acfg = _analyze_cfg("coeff")
    acfg["grids"]["spatial"] = {"N": 8, "L": 5.0}
    assert main(["analyze", "--scenario", str(_write_cfg(tmp_path, acfg, "analyze.json"))]) == 0
    rcfg = _analyze_cfg("recon")
    rcfg["pipeline"] = "reconstruct"
    rcfg["grids"]["spatial"] = {"N": 16, "L": 10.0}
    rcfg["coefficients"] = "coeff/c.json"
    rcfg["outputs"] = {"directory": "recon", "csv": "field.csv", "report": "report.json"}
    capsys.readouterr()
    assert main(["reconstruct", "--scenario", str(_write_cfg(tmp_path, rcfg, "recon.json"))]) == 2
    err = capsys.readouterr().err
    assert "config error at coefficients: " in err
    assert "(8, 5.0)" in err and "(16, 10.0)" in err
    assert not (tmp_path / "recon").exists()


def test_malformed_provenance_is_refused_without_a_traceback(tmp_path, capsys):
    # the provenance is outside the payload checksum; a cone band that is
    # no number would break the synthesis long after the load
    apath = _write_cfg(tmp_path, _analyze_cfg("coeff"), "analyze.json")
    assert main(["analyze", "--scenario", str(apath)]) == 0
    manifest_path = tmp_path / "coeff" / "c.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["provenance"] = {"cone_grid": {"args": {"omega_min": "a"}}}
    manifest_path.write_text(json.dumps(manifest))
    rcfg = _analyze_cfg("recon")
    rcfg["pipeline"] = "reconstruct"
    rcfg["coefficients"] = "coeff/c.json"
    rcfg["outputs"] = {"directory": "recon", "csv": "field.csv", "report": "report.json"}
    capsys.readouterr()
    assert main(["reconstruct", "--scenario", str(_write_cfg(tmp_path, rcfg, "recon.json"))]) == 2
    err = capsys.readouterr().err
    assert "provenance" in err and "Traceback" not in err
    assert not (tmp_path / "recon").exists()


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


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(emwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_cli_import_leaves_out_the_oracle_quadrature():
    # only the verify suites need the oracle
    out = _run_python("import sys, emwave.cli; print('emwave.oracle' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_package_and_cli_import_no_scipy():
    # the package runs on numpy alone, the oracle included
    out = _run_python(
        "import sys, emwave, emwave.cli, emwave.oracle; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_verify_runs_with_scipy_blocked(tmp_path):
    # every oracle suite, in a process where importing scipy fails
    out_path = tmp_path / "verify.json"
    out = _run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "from emwave import cli\n"
        f"sys.exit(cli.main(['verify', '--suite', 'all', '--seed', '7', '--out', {str(out_path)!r}]))"
    )
    assert out.returncode == 0, out.stderr
    records = json.loads(out_path.read_text())["records"]
    assert records and all(r["pass"] and r["converged"] for r in records)


def test_console_script_reports_version():
    out = subprocess.run(
        [sys.executable, "-m", "emwave.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert __version__ in out.stdout
