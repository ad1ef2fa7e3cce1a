"""Scale-space analysis/synthesis: Parseval, round trips, norms, persistence."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.special import roots_laguerre

from emwave import cli, fieldcore, grids, transform
from emwave.errors import (
    EmwaveError,
    GridMismatchError,
    InvalidScaleError,
)
from emwave.fieldcore import ConeAmplitude, amplitude_from_scalar, amplitude_vectors, _evaluate_many
from emwave.transform import (
    EuclideanCoefficients,
    analyze,
    inner_product,
    load_coefficients,
    norm_euclidean,
    norm_momentum,
    norm_nonlocal_t0,
    norm_report,
    reproduce_complex_time,
    save_coefficients,
    synthesize,
    synthesize_many,
)

N, L = 16, 12.0
BAND = (0.8, 3.5)


@pytest.fixture(scope="module")
def ygrid():
    return grids.build_spatial_grid(N, L)


@pytest.fixture(scope="module")
def sgrid():
    return grids.build_scale_grid(BAND, 20)


@pytest.fixture(scope="module")
def cone(ygrid):
    return grids.build_cartesian_cone_grid(ygrid, *BAND)


def _profile_a(om, nn, sheets):
    radial = np.exp(-0.5 * ((om - 2.0) / 0.35) ** 2)
    ang = 1.0 + 0.25 * nn[:, 2]
    sw = np.where(sheets > 0, 1.0, 0.6)
    return (radial * ang * sw).astype(complex)


def _profile_b(om, nn, sheets):
    radial = np.exp(-0.5 * ((om - 1.6) / 0.4) ** 2)
    ang = 1.0 + 0.3 * nn[:, 0] - 0.2j * nn[:, 1]
    sw = np.where(sheets > 0, 0.8, 1.0)
    return (radial * ang * sw).astype(complex)


@pytest.fixture(scope="module")
def amp_a(cone):
    return amplitude_from_scalar(cone, _profile_a)


@pytest.fixture(scope="module")
def amp_b(cone):
    return amplitude_from_scalar(cone, _profile_b)


@pytest.fixture(scope="module")
def coeffs_a(amp_a, ygrid, sgrid):
    return analyze(amp_a, ygrid, sgrid)


@pytest.fixture(scope="module")
def coeffs_b(amp_b, ygrid, sgrid):
    return analyze(amp_b, ygrid, sgrid)


def _off_lattice(amp):
    """The same nodes and values on a grid that no longer advertises the conjugate
    lattice, so analysis refuses it."""
    g = amp.grid
    plain = grids.QuadratureGrid("cone", g.nodes, g.weights, g.sheets, {"builder": "custom", "args": {}})
    return ConeAmplitude(plain, amp.values)


def _momentum_pairing(amp_a, amp_b):
    omega = np.linalg.norm(amp_a.grid.nodes, axis=1)
    fa = amplitude_vectors(amp_a)
    fb = amplitude_vectors(amp_b)
    return complex(np.sum(amp_a.grid.weights * np.sum(np.conj(fa) * fb, axis=1) / omega**2))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def test_fft_path_matches_dense_evaluation():
    ygrid8 = grids.build_spatial_grid(8, 8.0)
    cone8 = grids.build_cartesian_cone_grid(ygrid8, 0.9, 2.8)
    sgrid8 = grids.build_scale_grid((0.9, 2.8), 12)
    amp = amplitude_from_scalar(cone8, _profile_a)
    fast = analyze(amp, ygrid8, sgrid8, t=0.4)
    assert np.any(sgrid8.nodes > 0) and np.any(sgrid8.nodes < 0)
    for si, slice_ in zip(sgrid8.nodes, fast.values):
        dense = _evaluate_many(amp, ygrid8.nodes, 0.4, s=si).reshape(slice_.shape)
        assert np.max(np.abs(slice_ - dense)) < 1e-12


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.mark.parametrize(
    "stage, bound",
    [
        # the output array the coefficients take over, nothing more; a
        # defensive copy or an out-of-place inverse FFT adds a payload
        ("analyze", 1.25),
        # the read bytes, viewed as the values without a conversion copy
        ("load", 1.15),
        # the payload is written and hashed from the values' own buffer
        ("save", 0.1),
        # reduced one scale slice at a time
        ("norm_euclidean", 0.1),
        ("inner_product", 0.1),
        # warm: 200 probes without a (200, N^3) phase matrix, which alone
        # would take 1.7 payloads
        ("synthesize_many", 0.5),
        # the CLI streams the payload: analyze holds two blocks of 4 of the
        # 40 slices, reconstruct folds one slice at a time into the table
        # (two sheet sums), plus the dense reference's phase block (added below)
        ("cli-analyze", 0.4),
        ("cli-reconstruct", 0.2),
        # norms, and reconstruct without a coefficients file, read the same
        # analysis stream one block at a time
        ("cli-norms", 0.4),
        ("cli-reconstruct-unsaved", 0.4),
    ],
)
def test_peak_memory_stays_near_payload(stage, bound, amp_a, ygrid, sgrid, coeffs_a, coeffs_b, tmp_path, monkeypatch):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    probes = np.random.default_rng(5).uniform(-L / 2, L / 2, size=(200, 3))
    synthesize_many(coeffs_a, probes[:1], 0.0)  # the per-sheet sums are built once
    if stage.startswith("cli-"):
        # the scenario of coeffs_a, read from the saved set by reconstruct
        monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 4 * 3 * N**3)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "schema": cli.SCHEMA,
            "pipeline": stage.split("-")[1],
            "grids": {"spatial": {"N": N, "L": L}, "scale": {"omega_band": list(BAND), "nodes_per_sign": 20}},
            "amplitude": {"profile": "gaussian", "center": 2.0, "width": 0.35, "angular": {"nz": 0.25},
                          "sheet_weights": [1.0, 0.6]},
            "coefficients": str(manifest) if stage == "cli-reconstruct" else None,
            "outputs": {"directory": "out", "coefficients": "c"},
        }))
    run = {
        "analyze": lambda: analyze(amp_a, ygrid, sgrid),
        "load": lambda: load_coefficients(manifest),
        "save": lambda: save_coefficients(coeffs_a, tmp_path, name="again"),
        "norm_euclidean": lambda: norm_euclidean(coeffs_a),
        "inner_product": lambda: inner_product(coeffs_a, coeffs_b),
        "synthesize_many": lambda: synthesize_many(coeffs_a, probes, 0.4),
    }.get(stage, lambda: cli.main([stage.split("-")[1], "--scenario", str(scenario)]))
    peak, result = _traced_peak(run)
    assert not stage.startswith("cli-") or result == 0
    blocks = {
        "cli-reconstruct": 24 * 50 * len(amp_a.grid),  # 50 probes, the default count
        "cli-reconstruct-unsaved": 24 * 50 * len(amp_a.grid),
    }.get(stage, 0)
    assert peak <= bound * coeffs_a.values.nbytes + blocks


def test_synthesis_memory_stays_flat_in_the_probe_count(coeffs_a):
    synthesize_many(coeffs_a, np.zeros((1, 3)), 0.0)  # the per-sheet sums are built once
    rng = np.random.default_rng(8)
    few, many = (rng.uniform(-L / 2, L / 2, size=(k, 3)) for k in (2000, 20000))
    peak_few, _ = _traced_peak(lambda: synthesize_many(coeffs_a, few, 0.4))
    peak_many, out = _traced_peak(lambda: synthesize_many(coeffs_a, many, 0.4))
    # ten times the probes add their (K, 3) result and nothing else: each
    # block of probes holds one (k, r^2) table of e^{i(p_y y + p_x x)} on the
    # band box and its (k, 3 r) product, while one (K, N^2) table for all
    # 20000 probes would hold 78 MiB here
    assert peak_many - out.nbytes <= 1.1 * peak_few + 2**20


def test_dense_sum_holds_one_phase_block(amp_a):
    probes = np.random.default_rng(9).uniform(-L / 2, L / 2, size=(2000, 3))
    peak, _ = _traced_peak(lambda: _evaluate_many(amp_a, probes, 0.4))
    # one complex block, filled in place without a real x.p matrix, plus
    # 1 MiB for the per-node tables and the (K, 3) result
    assert peak <= 16 * fieldcore._BLOCK_ENTRIES + 2**20


def test_blocking_changes_no_bits(monkeypatch, amp_a, coeffs_a):
    probes = np.random.default_rng(10).uniform(-L / 2, L / 2, size=(200, 3))
    damped = _evaluate_many(amp_a, probes, 0.3, s=0.7)  # the default block: 107 probes here

    def sums():
        return (
            synthesize_many(coeffs_a, probes, 0.9),
            np.array([reproduce_complex_time(coeffs_a, x, 0.9, sigma).F for sigma in (0.6, -0.6) for x in probes[:5]]),
            _evaluate_many(amp_a, probes, 0.9),
            _evaluate_many(amp_a, probes, 0.9, s=0.6),
        )

    # one block of all 200 probes on either route: the synthesis's default
    # block holds them, the dense sum's (107 probes here) is widened
    assert 200 * N**2 <= transform._BLOCK_ENTRIES
    with monkeypatch.context() as m:
        m.setattr(fieldcore, "_BLOCK_ENTRIES", 200 * len(amp_a.grid))
        whole = sums()
    # about 64 probes per block: four synthesis blocks of 50 on the (ky, kx)
    # plane of the band box, and four dense blocks, the last one partial
    r = len(transform._synthesis_table(coeffs_a).momenta)
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 64 * r**2)
    monkeypatch.setattr(fieldcore, "_BLOCK_ENTRIES", 64 * len(amp_a.grid))
    blocked = sums()
    for a, b in zip(whole, blocked):
        assert b.tobytes() == a.tobytes()
    # the damped dense sum in blocks of 1, 2, 15 and 64 probes
    for chunk in (1, 2, 15, 64):
        monkeypatch.setattr(fieldcore, "_BLOCK_ENTRIES", chunk * len(amp_a.grid))
        assert _evaluate_many(amp_a, probes, 0.3, s=0.7).tobytes() == damped.tobytes()


def test_no_synthesis_block_holds_a_lone_probe(monkeypatch, coeffs_a):
    # 200 probes at about 199 per block (the rows of the (ky, kx) plane of the
    # band box are padded from 169 to 176 entries, so 191 fit): two blocks of
    # 100, not 199 and a lone probe, which would run its product as a
    # matrix-vector one
    probes = np.random.default_rng(11).uniform(-L / 2, L / 2, size=(200, 3))
    whole = synthesize_many(coeffs_a, probes, 0.9)
    r = len(transform._synthesis_table(coeffs_a).momenta)
    assert r == 13
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 199 * r**2)
    sizes = []
    real_split = np.array_split

    def recording_split(a, parts):
        sizes.extend(len(part) for part in real_split(a, parts))
        return real_split(a, parts)

    monkeypatch.setattr(np, "array_split", recording_split)
    assert synthesize_many(coeffs_a, probes, 0.9).tobytes() == whole.tobytes()
    assert sizes == [100, 100]


def _band_box(ygrid_n, top):
    """The FFT-order indices whose momentum has |p_axis| <= top, and their (kz, ky, kx) box."""
    keep = np.flatnonzero(np.abs(grids.momentum_axis(ygrid_n)) <= top)
    return keep, np.ix_(keep, keep, keep)


def test_sheet_sums_are_the_component_last_sums_moved(coeffs_a):
    # each sum is stored component-major on the band box (13 of 16 indices per
    # axis); moved back it has the bits of the per-slice transform over the
    # leading three axes of a (N, N, N, 3) slice, at the box's entries
    table = transform._synthesis_table(coeffs_a)
    Omega, PH = transform._lattice(coeffs_a.ygrid)
    keep, box = _band_box(coeffs_a.ygrid, BAND[1])
    assert len(keep) == 13 and np.array_equal(table.momenta, grids.momentum_axis(coeffs_a.ygrid)[keep])
    want = {}
    for c, s, w in zip(coeffs_a.values, coeffs_a.sgrid.nodes, coeffs_a.sgrid.weights):
        sheet = 1 if s > 0 else -1
        chat = scipy.fft.fftn(c, axes=(0, 1, 2))[box]
        chat *= ((w * np.exp(-sheet * table.omega * s))[table.index] * PH[box])[..., None]
        want[sheet] = want[sheet] + chat if sheet in want else chat
    assert table.sums.keys() == want.keys()
    for sheet, H in table.sums.items():
        assert H.shape == (3, 13, 13, 13)
        assert np.moveaxis(H, 0, -1).tobytes() == want[sheet].tobytes()


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("reach", [0.3, 0.6, 1.0])
def test_pruned_forward_transform_has_the_bits_of_fftn_on_the_box(n, reach):
    # z on every line, y on the z runs, x on the (z, y) runs, twice through one work buffer
    ygrid_n = grids.build_spatial_grid(n, 20.0)
    keep, box = _band_box(ygrid_n, reach * ygrid_n.meta["nyquist"])
    runs = transform._index_runs(keep, n)
    assert len(runs) == (1 if reach == 1.0 else 2)
    rng = np.random.default_rng(n)
    c = rng.standard_normal((n, n, n, 3)) + 1j * rng.standard_normal((n, n, n, 3))
    c.setflags(write=False)
    want = scipy.fft.fftn(np.moveaxis(c, -1, 0), axes=(1, 2, 3))[(slice(None),) + box]
    work = np.empty_like(c)
    for _ in range(2):
        got = transform._pruned_fftn(c, runs, work)
        assert got.shape == (3,) + (len(keep),) * 3 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    np.copyto(work, c)  # a slice already in the work buffer
    assert transform._pruned_fftn(work, runs, work).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("reach", [0.3, 0.6, 1.0])
def test_pruned_inverse_transform_has_the_bits_of_scipy_ifftn(n, reach):
    # numpy.fft line by line against scipy's batched ifftn, axis 1 first, on a
    # spectrum that is zero outside the (y, x) runs
    ygrid_n = grids.build_spatial_grid(n, 20.0)
    keep, _ = _band_box(ygrid_n, reach * ygrid_n.meta["nyquist"])
    runs = transform._index_runs(keep, n)
    rng = np.random.default_rng(n)
    block = np.zeros((2 if n < 64 else 1, n, n, n, 3), dtype=complex)
    inside = np.ix_(range(len(block)), range(n), keep, keep, range(3))
    block[inside] = rng.standard_normal(block[inside].shape) + 1j * rng.standard_normal(block[inside].shape)
    want = scipy.fft.ifftn(block, axes=(1, 2, 3), norm="forward")
    got = transform._pruned_ifftn(block, runs, runs)
    assert got is block and got.tobytes() == want.tobytes()


_THREADS_PROBE = """
import hashlib, numpy as np
from emwave import grids, transform
from emwave.fieldcore import _evaluate_many, amplitude_from_scalar
ygrid = grids.build_spatial_grid(16, 12.0)
cone = grids.build_cartesian_cone_grid(ygrid, 0.8, 3.5)
profile = lambda om, nn, sh: np.exp(-0.5 * ((om - 1.6) / 0.4) ** 2) * (1.0 + 0.3 * nn[:, 0] - 0.2j * nn[:, 1])
coeffs = transform.analyze(amplitude_from_scalar(cone, profile), ygrid, grids.build_scale_grid((0.8, 3.5), 20))
probes = np.random.default_rng(12).uniform(-6.0, 6.0, size=(200, 3))
digest = hashlib.sha256(transform.synthesize_many(coeffs, probes, 0.9).tobytes())
for sigma in (0.6, -0.6):
    for x in probes[:5]:
        digest.update(transform.reproduce_complex_time(coeffs, x, 0.9, sigma).F.tobytes())
# the dense plane-wave sum: the round-trip reference, and its damped sums at either sign
for s in (0.0, 0.6, -0.6):
    digest.update(_evaluate_many(amplitude_from_scalar(cone, profile), probes, 0.9, s=s).tobytes())
print(digest.hexdigest())
"""


def test_synthesis_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits the synthesis's (k, r^2) x (r^2, 3r) product on the band
    # box (r = 13) over threads by output blocks, and its reduction, padded
    # from 169 to 176, is cut into the same blocks at 1 and 2 threads (169
    # is not), so each entry keeps its reduction order; the dense sum runs no
    # BLAS product at all
    src = str(Path(transform.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_an_analysis_stream_is_read_once(amp_a, ygrid, sgrid, coeffs_a):
    stream = transform._analysis_stream(amp_a, ygrid, sgrid, 0.0)
    assert transform._synthesis_table(stream).sums[1].tobytes() == transform._synthesis_table(coeffs_a).sums[1].tobytes()
    with pytest.raises(ValueError, match="zip"):  # its slices are drawn; folding nothing would give a zero field
        transform._synthesis_table(stream)


@pytest.mark.parametrize("provenance", [["a"], {"cone_grid": 5}, {"cone_grid": {"args": {"omega_max": "4"}}}])
def test_coefficients_refuse_an_unreadable_provenance(ygrid, sgrid, provenance):
    values = np.zeros((len(sgrid), N, N, N, 3), dtype=complex)
    with pytest.raises(EmwaveError, match="provenance"):
        EuclideanCoefficients(ygrid, sgrid, values, provenance=provenance)


@pytest.mark.parametrize("band_end", [np.nan, np.inf])
def test_non_finite_cone_band_is_refused_and_leaves_the_directory_as_it_was(ygrid, sgrid, tmp_path, band_end):
    # a NaN band end used to pass the provenance check, fail in the manifest's
    # JSON with a bare ValueError and leave the payload without its manifest
    values = np.zeros((len(sgrid), N, N, N, 3), dtype=complex)
    (tmp_path / "keep.txt").write_text("x")
    with pytest.raises(EmwaveError, match="provenance"):
        coeffs = EuclideanCoefficients(ygrid, sgrid, values, provenance={"cone_grid": {"args": {"omega_min": band_end}}})
        save_coefficients(coeffs, tmp_path, name="c")
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]


def test_a_failed_write_keeps_the_previous_set_and_leaves_no_temporary_file(coeffs_a, coeffs_b, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def slices():
        yield from coeffs_b.values[:3]
        raise RuntimeError("the fourth slice fails")

    stream = transform._CoefficientStream(coeffs_b.ygrid, coeffs_b.sgrid, slices(), 0.0, {})
    with pytest.raises(RuntimeError, match="fourth slice"):
        transform._write_coefficients(stream, tmp_path, "c")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert np.array_equal(load_coefficients(manifest).values, coeffs_a.values)


@pytest.mark.parametrize("extra", [-37, 1], ids=["short", "long"])
def test_a_stream_of_the_wrong_length_is_refused_and_keeps_the_previous_set(coeffs_a, coeffs_b, tmp_path, extra):
    # a stream of 3 of its 40 slices used to be written as a complete-looking set,
    # whose manifest claimed more payload bytes than its file held
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    slices = itertools.islice(itertools.cycle(coeffs_b.values), len(coeffs_b.sgrid) + extra)
    stream = transform._CoefficientStream(coeffs_b.ygrid, coeffs_b.sgrid, slices, 0.0, {})
    with pytest.raises(EmwaveError, match="bytes"):
        transform._write_coefficients(stream, tmp_path, "c")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert np.array_equal(load_coefficients(manifest).values, coeffs_a.values)


@pytest.mark.parametrize(
    "xs",
    [
        np.zeros((4, 2)),  # used to raise IndexError
        np.zeros((2, 3, 1)),
        np.array([[0.0, np.nan, 0.0]]),  # used to return NaN
        [[0.0, 1.0, 2.0], [0.0, 1.0]],  # ragged: used to raise ValueError
        "abc",
    ],
    ids=["K-by-2", "3-d", "nan", "ragged", "text"],
)
def test_synthesize_many_refuses_malformed_points(coeffs_a, xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmwaveError, match="points"):
            synthesize_many(coeffs_a, xs, 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, "later", "1", True])
def test_synthesis_refuses_a_non_finite_time_or_offset(coeffs_a, bad):
    # synthesize_many(c, xs, inf) used to return NaN with only a RuntimeWarning,
    # and "1" and True used to be read as 1
    x = np.array([0.4, -0.2, 0.7])
    calls = [
        lambda: synthesize_many(coeffs_a, x[None, :], bad),
        lambda: synthesize(coeffs_a, x, bad),
        lambda: reproduce_complex_time(coeffs_a, x, bad, 0.5),
        lambda: reproduce_complex_time(coeffs_a, x, 0.3, bad),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(EmwaveError):
                call()


@pytest.mark.parametrize(
    "x", [np.zeros(4), np.zeros(2), 0.5, np.zeros((2, 3)), np.array([0.0, np.inf, 0.0])],
    ids=["4", "2", "scalar", "2-by-3", "inf"],
)
def test_single_point_synthesis_needs_one_point(coeffs_a, x):
    # a scalar used to raise IndexError and a (2, 3) array was summed for both rows
    with pytest.raises(EmwaveError):
        synthesize(coeffs_a, x, 0.0)
    with pytest.raises(EmwaveError):
        reproduce_complex_time(coeffs_a, x, 0.0, 0.5)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, "0.5", True])
def test_non_finite_time_is_refused(amp_a, ygrid, sgrid, t):
    # EuclideanCoefficients used to read "0.5" and True as numbers
    with pytest.raises(EmwaveError, match="t="):
        analyze(amp_a, ygrid, sgrid, t=t)
    values = np.zeros((len(sgrid), N, N, N, 3), dtype=complex)
    with pytest.raises(EmwaveError, match="t="):
        EuclideanCoefficients(ygrid, sgrid, values, t=t)


@pytest.mark.parametrize(
    "name, value",
    [("t", "1"), ("t", True), ("workers", 0), ("workers", -1), ("workers", 2.0), ("workers", True), ("workers", "2")],
)
def test_analyze_refuses_a_time_or_worker_count_of_the_wrong_kind(amp_a, ygrid, sgrid, name, value):
    # t="1" and t=True used to be accepted, and workers=0 escaped as scipy's bare ValueError
    with pytest.raises(EmwaveError, match=f"analyze .*{name}="):
        analyze(amp_a, ygrid, sgrid, **{name: value})


def test_manifest_is_never_written_with_a_non_finite_token(ygrid, sgrid, tmp_path):
    # load_coefficients refuses NaN tokens, so save must not write one
    values = np.zeros((len(sgrid), N, N, N, 3), dtype=complex)
    coeffs = EuclideanCoefficients(ygrid, sgrid, values, provenance={"note": np.nan})
    with pytest.raises(ValueError, match="JSON"):
        save_coefficients(coeffs, tmp_path, name="c")
    assert not (tmp_path / "c.json").exists()


def test_coefficients_take_ownership_without_copying(ygrid, sgrid):
    fresh = np.zeros((len(sgrid), N, N, N, 3), dtype=complex)
    coeffs = EuclideanCoefficients(ygrid, sgrid, fresh)
    assert np.shares_memory(coeffs.values, fresh)
    assert not fresh.flags.writeable
    with pytest.raises(ValueError):
        coeffs.values[0, 0, 0, 0, 0] = 1.0


def test_single_sheet_amplitudes_gate_scale_slices(ygrid, sgrid):
    cone_plus = grids.build_cartesian_cone_grid(ygrid, *BAND, sheets="plus")
    amp = amplitude_from_scalar(cone_plus, _profile_a)
    coeffs = analyze(amp, ygrid, sgrid)
    neg = coeffs.sgrid.nodes < 0
    assert np.all(coeffs.values[neg] == 0.0)
    assert np.any(coeffs.values[~neg] != 0.0)


def test_analyze_is_linear(ygrid, sgrid, cone, amp_a, amp_b, coeffs_a, coeffs_b):
    alpha, beta = 0.6 - 0.3j, -1.2 + 0.1j
    mixed = ConeAmplitude(cone, alpha * amp_a.values + beta * amp_b.values)
    both = analyze(mixed, ygrid, sgrid)
    want = alpha * coeffs_a.values + beta * coeffs_b.values
    scale = np.max(np.abs(want))
    assert np.max(np.abs(both.values - want)) / scale < 1e-12


def test_analyze_validates_grids(amp_a, ygrid, sgrid):
    with pytest.raises(GridMismatchError):
        analyze(amp_a, sgrid, sgrid)
    bad = grids.QuadratureGrid(
        "scale", np.array([0.0, 0.5]), np.array([1.0, 1.0]), None, {"builder": "scale", "args": {}}
    )
    with pytest.raises(InvalidScaleError):
        analyze(amp_a, ygrid, bad)
    empty = grids.QuadratureGrid(
        "scale", np.zeros(0), np.zeros(0), None, {"builder": "scale", "args": {}}
    )
    with pytest.raises(EmwaveError):
        analyze(amp_a, ygrid, empty)


def test_aliasing_is_reported(sgrid):
    # Nyquist ~2.09 < band top 3.5: the coarse lattice's own cone reaches sqrt(3) * 2.09
    coarse = grids.build_spatial_grid(8, 12.0)
    amp = amplitude_from_scalar(grids.build_cartesian_cone_grid(coarse, *BAND), _profile_a)
    with pytest.warns(UserWarning, match="Nyquist"):
        analyze(amp, coarse, sgrid)


def test_coefficients_shape_validation(ygrid, sgrid):
    with pytest.raises(GridMismatchError):
        EuclideanCoefficients(ygrid, sgrid, np.zeros((1, N, N, N, 3), dtype=complex))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_parseval_small_gap(amp_a, coeffs_a):
    nm = norm_momentum(amp_a)
    ne = norm_euclidean(coeffs_a)
    assert abs(ne - nm) / nm < 1e-2


def test_parseval_gap_shrinks_with_scale_refinement(amp_a, ygrid, coeffs_a):
    nm = norm_momentum(amp_a)
    gap_coarse = abs(norm_euclidean(coeffs_a) - nm) / nm
    fine = analyze(amp_a, ygrid, grids.build_scale_grid(BAND, 40))
    gap_fine = abs(norm_euclidean(fine) - nm) / nm
    assert gap_fine < gap_coarse


def test_scale_space_norm_is_time_independent(amp_a, ygrid, sgrid, coeffs_a):
    later = analyze(amp_a, ygrid, sgrid, t=0.7)
    n0 = norm_euclidean(coeffs_a)
    n1 = norm_euclidean(later)
    assert abs(n1 - n0) / n0 < 1e-12


def test_inner_product_diagonal_and_symmetry(coeffs_a, coeffs_b):
    assert inner_product(coeffs_a, coeffs_a) == pytest.approx(
        norm_euclidean(coeffs_a), rel=1e-13
    )
    ab = inner_product(coeffs_a, coeffs_b)
    ba = inner_product(coeffs_b, coeffs_a)
    assert ab == pytest.approx(np.conj(ba), rel=1e-13)


def test_inner_product_matches_momentum_pairing(amp_a, amp_b, coeffs_a, coeffs_b):
    euc = inner_product(coeffs_a, coeffs_b)
    mom = _momentum_pairing(amp_a, amp_b)
    assert abs(euc - mom) / abs(mom) < 5e-3


def test_inner_product_requires_shared_grids(amp_a, ygrid, sgrid, coeffs_a):
    other = analyze(amp_a, ygrid, grids.build_scale_grid(BAND, 24))
    with pytest.raises(GridMismatchError):
        inner_product(coeffs_a, other)
    shifted = analyze(amp_a, ygrid, sgrid, t=1.0)
    with pytest.raises(GridMismatchError, match="time"):
        inner_product(coeffs_a, shifted)


def test_opposite_sheet_fields_are_orthogonal(ygrid, sgrid):
    plus = grids.build_cartesian_cone_grid(ygrid, *BAND, sheets="plus")
    minus = grids.build_cartesian_cone_grid(ygrid, *BAND, sheets="minus")
    ca = analyze(amplitude_from_scalar(plus, _profile_a), ygrid, sgrid)
    cb = analyze(amplitude_from_scalar(minus, _profile_b), ygrid, sgrid)
    val = inner_product(ca, cb)
    scale = norm_euclidean(ca)
    assert abs(val) / scale < 1e-15


def test_norm_report_bundles_gaps(amp_a, coeffs_a):
    rep = norm_report(amp_a, coeffs_a)
    assert rep.nonlocal_t0 is None and rep.gap_nonlocal is None
    assert rep.gap_euclidean == pytest.approx(
        abs(rep.euclidean - rep.momentum) / rep.momentum
    )
    with pytest.raises(EmwaveError):
        transform.NormReport(-1.0, 1.0, None, 0.0, None)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_eval", [0.0, 1.0])
def test_round_trip_reconstruction(amp_a, coeffs_a, t_eval):
    rng = np.random.default_rng(31)
    probes = rng.uniform(-0.35 * L / 2, 0.35 * L / 2, size=(25, 3))
    rec = synthesize_many(coeffs_a, probes, t_eval)
    ref = _evaluate_many(amp_a, probes, t_eval)
    rel = np.linalg.norm(rec - ref) / np.linalg.norm(ref)
    assert rel < 2e-3


def test_truncation_estimate_is_honest(amp_a, coeffs_a):
    x = np.array([0.8, -0.4, 1.1])
    sample = synthesize(coeffs_a, x, 0.0)
    ref = _evaluate_many(amp_a, x[None, :], 0.0)[0]
    actual = np.linalg.norm(sample.F - ref) / np.linalg.norm(ref)
    assert sample.truncation_estimate is not None
    assert actual < 3.0 * sample.truncation_estimate
    assert sample.truncation_estimate < 1e-2


def test_truncation_estimate_is_the_scale_rule_bound_inside_its_band(amp_a, ygrid, coeffs_a):
    x = np.array([0.8, -0.4, 1.1])
    assert synthesize(coeffs_a, x, 0.0).truncation_estimate == coeffs_a.sgrid.meta["recovery_bound"]
    # a scale band narrower than the cone band: the bound does not cover the field
    narrow = analyze(amp_a, ygrid, grids.build_scale_grid((1.0, BAND[1]), 8))
    assert synthesize(narrow, x, 0.0).truncation_estimate is None
    assert reproduce_complex_time(narrow, x, 0.0, 0.5).truncation_estimate is None


def test_reproduce_complex_time_matches_continuation(amp_a, coeffs_a):
    x = np.array([0.5, 0.9, -0.3])
    for sigma in (0.5, -0.7):
        got = reproduce_complex_time(coeffs_a, x, 0.3, sigma)
        want = _evaluate_many(amp_a, x[None, :], 0.3, s=sigma)[0]
        rel = np.linalg.norm(got.F - want) / np.linalg.norm(want)
        assert rel < 2e-3
        assert got.t == complex(0.3, -sigma)


def _dense_probe_sum(coeffs, pts, t, sigma):
    """Reference synthesis over the whole lattice, the table not used: each
    slice's own full `scipy.fft.fftn`, weighted by the gated symbol at every
    lattice point, and one phase e^{ip.x} per probe and lattice point, taken
    from `grids.momentum_mesh`.  So it also holds the content that the band
    box drops."""
    P, Omega = grids.momentum_mesh(coeffs.ygrid)
    ph = (-1.0) ** np.arange(Omega.shape[0])  # the centered grid's phase
    PH = ph[:, None, None] * ph[None, :, None] * ph[None, None, :]
    G = np.zeros(Omega.shape + (3,), dtype=complex)
    for c, s, w in zip(coeffs.values, coeffs.sgrid.nodes, coeffs.sgrid.weights):
        sheet = 1 if s > 0 else -1
        gate = 1.0 if sigma == 0.0 else (2.0 if sigma * sheet > 0.0 else 0.0)
        if gate != 0.0:
            symbol = gate * w * Omega * np.exp(-sheet * Omega * (s + sigma + 1j * (t - coeffs.t))) * PH
            G += symbol[..., None] * scipy.fft.fftn(c, axes=(0, 1, 2))
    phases = np.exp(1j * (pts @ P.reshape(-1, 3).T))
    return phases @ G.reshape(-1, 3) / Omega.size


def _assert_probe_sum_is_dense_phase_sum(coeffs, count, sigma):
    # probes reach 0.7 L from the centre, so some lie outside the box
    pts = np.random.default_rng(count).uniform(-0.7 * L, 0.7 * L, size=(count, 3))
    t = 0.9
    if sigma == 0.0:
        got = synthesize_many(coeffs, pts, t)
    else:
        got = np.array([reproduce_complex_time(coeffs, x, t, sigma).F for x in pts])
    want = _dense_probe_sum(coeffs, pts, t, sigma)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("sigma", [0.0, 0.6, -0.6])
@pytest.mark.parametrize("count", [1, 7, 200])
def test_probe_sum_equals_dense_phase_sum(coeffs_a, count, sigma):
    _assert_probe_sum_is_dense_phase_sum(coeffs_a, count, sigma)  # coeffs_a is generated at t = 0


@pytest.fixture(scope="module", params=["plus", "minus", "t=0.7"])
def other_coeffs(request, ygrid, sgrid):
    """Single-sheet sets (one sheet sum, the other sheet gated off) and a set generated at t = 0.7."""
    if request.param == "t=0.7":
        cone = grids.build_cartesian_cone_grid(ygrid, *BAND)
        return analyze(amplitude_from_scalar(cone, _profile_b), ygrid, sgrid, t=0.7)
    cone = grids.build_cartesian_cone_grid(ygrid, *BAND, sheets=request.param)
    return analyze(amplitude_from_scalar(cone, _profile_a), ygrid, sgrid)


@pytest.mark.parametrize("sigma", [0.0, 0.6, -0.6])
def test_probe_sum_equals_dense_phase_sum_on_other_sets(other_coeffs, sigma):
    _assert_probe_sum_is_dense_phase_sum(other_coeffs, 7, sigma)


@pytest.mark.parametrize(("n", "r"), [(8, 8), (16, 13), (32, 13)])
def test_shell_table_reproduces_the_lattice_bit_for_bit(n, r, sgrid):
    # the band box: |p_axis| <= 3.5 keeps r of n indices per axis (all of them
    # at n = 8, whose Nyquist frequency 2.09 lies inside the band)
    ygrid = grids.build_spatial_grid(n, 12.0)
    rng = np.random.default_rng(n)
    shape = (len(sgrid), n, n, n, 3)
    coeffs = EuclideanCoefficients(ygrid, sgrid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    table = transform._synthesis_table(coeffs)
    omega, index = table.omega, table.index
    Omega, PH = transform._lattice(ygrid)
    keep, box = _band_box(ygrid, BAND[1])
    assert len(keep) == r and index.shape == (r, r, r)
    assert np.array_equal(omega[index].view(np.uint64), Omega[box].view(np.uint64))
    assert np.all(np.diff(omega) > 0.0)  # one entry per distinct |k| of the box
    # every entry the box keeps has the bits of a full fftn of each slice
    want = {}
    for c, s, w in zip(coeffs.values, sgrid.nodes, sgrid.weights):
        sheet = 1 if s > 0 else -1
        chat = scipy.fft.fftn(np.moveaxis(c, -1, 0), axes=(1, 2, 3))[(slice(None),) + box]
        chat *= (w * np.exp(-sheet * omega * s))[index] * PH[box]
        want[sheet] = want[sheet] + chat if sheet in want else chat
    assert all(table.sums[sheet].tobytes() == want[sheet].tobytes() for sheet in (1, -1))


def _full_lattice_synthesis(coeffs, pts, t, sigma):
    """Synthesis over the whole lattice, step for step as it ran before it read only the band box: full
    fftn sums weighted on every |k| shell, then one (k, N^2) x (N^2, 3 N) product per block of probes."""
    n = coeffs.ygrid.meta["args"]["N"]
    Omega, PH = transform._lattice(coeffs.ygrid)
    omega, index = np.unique(Omega.ravel(), return_inverse=True)
    index = index.reshape(Omega.shape)
    sums = {}
    for c, s, w in zip(coeffs.values, coeffs.sgrid.nodes, coeffs.sgrid.weights):
        sheet = 1 if s > 0 else -1
        chat = scipy.fft.fftn(np.moveaxis(c, -1, 0), axes=(1, 2, 3))
        chat *= (w * np.exp(-sheet * omega * s))[index] * PH
        sums[sheet] = sums[sheet] + chat if sheet in sums else chat
    G = None
    for sheet, H in sums.items():
        gate = fieldcore.gate2(sigma * sheet)
        if gate != 0.0:
            f = (gate * omega * np.exp(-sheet * omega * (sigma + 1j * (t - coeffs.t))))[index]
            G = f * H if G is None else G + f * H
    G = G.reshape(3 * n, n * n).T
    pax = grids.momentum_axis(coeffs.ygrid)
    step = max(1, transform._BLOCK_ENTRIES // (n * n))
    out = []
    for p in np.array_split(pts, max(1, -(-len(pts) // step))):
        ex, ey, ez = (np.exp(1j * np.outer(p[:, axis], pax)) for axis in range(3))
        exy = (ey[:, :, None] * ex[:, None, :]).reshape(len(p), n * n)
        out.append(((exy @ G).reshape(len(p), 3, n) @ ez[:, :, None])[..., 0] / n**3)
    return np.concatenate(out), sums


def test_a_band_past_the_nyquist_frequency_synthesizes_the_whole_lattice_bit_for_bit(ygrid, cone):
    # the scale band reaches 4.5, past the Nyquist frequency 4.19: the box is
    # the whole lattice, and every output has the bits of the whole-lattice sum
    wide = grids.build_scale_grid((BAND[0], 4.5), 20)
    coeffs = analyze(amplitude_from_scalar(cone, _profile_a), ygrid, wide)
    table = transform._synthesis_table(coeffs)
    assert np.array_equal(table.momenta, grids.momentum_axis(ygrid))
    pts = np.random.default_rng(14).uniform(-0.7 * L, 0.7 * L, size=(200, 3))
    want, sums = _full_lattice_synthesis(coeffs, pts, 0.9, 0.0)
    assert all(table.sums[sheet].tobytes() == sums[sheet].tobytes() for sheet in (1, -1))
    assert synthesize_many(coeffs, pts, 0.9).tobytes() == want.tobytes()
    few, _ = _full_lattice_synthesis(coeffs, pts[:7], 0.9, 0.0)
    assert synthesize_many(coeffs, pts[:7], 0.9).tobytes() == few.tobytes()
    one, _ = _full_lattice_synthesis(coeffs, pts[:1], 0.9, 0.0)
    assert synthesize(coeffs, pts[0], 0.9).F.tobytes() == one[0].tobytes()
    for sigma in (0.6, -0.6):
        got = reproduce_complex_time(coeffs, pts[1], 0.9, sigma).F
        assert got.tobytes() == _full_lattice_synthesis(coeffs, pts[1:2], 0.9, sigma)[0][0].tobytes()


def test_zero_offset_reproduction_is_synthesis_bit_for_bit(coeffs_a):
    x = np.array([-0.6, 0.2, 0.9])
    a = synthesize(coeffs_a, x, 0.8)
    b = reproduce_complex_time(coeffs_a, x, 0.8, 0.0)
    assert np.array_equal(a.F, b.F)
    assert b.t == complex(0.8)


def test_reproduction_gates_by_scale_sign(ygrid, sgrid):
    # plus-sheet field: sigma < 0 turns every scale slice off
    plus = grids.build_cartesian_cone_grid(ygrid, *BAND, sheets="plus")
    coeffs = analyze(amplitude_from_scalar(plus, _profile_a), ygrid, sgrid)
    out = reproduce_complex_time(coeffs, np.zeros(3), 0.0, -1.0)
    assert np.all(out.F == 0.0)


def _counting(name, real, calls):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize(
    "call",
    [
        lambda c, x: synthesize_many(c, x[None, :], 0.3),
        lambda c, x: synthesize(c, x, 0.3).F,
        lambda c, x: reproduce_complex_time(c, x, 0.3, 0.5).F,
    ],
    ids=["synthesize_many", "synthesize", "reproduce_complex_time"],
)
def test_repeat_synthesis_runs_no_fft(call, amp_a, ygrid, sgrid, monkeypatch):
    coeffs = analyze(amp_a, ygrid, sgrid)
    calls = []
    for name in ("fftn", "ifftn", "fft", "ifft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, _counting(name, getattr(np.fft, name), calls))
    x = np.array([0.4, -0.2, 0.7])
    first = call(coeffs, x)
    # one pruned forward transform per scale slice, of 1-D transforms only: z
    # over every line, y per z run and x per (z, y) run and component, two runs per axis
    assert calls == ["fft"] * (len(sgrid) * (1 + 2 + 2 * 2 * 3))
    calls.clear()
    second = call(coeffs, x)
    assert calls == []
    assert np.array_equal(first, second)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_warm_synthesis_runs_no_exponential_over_the_lattice(sigma, amp_a, ygrid, sgrid, monkeypatch):
    # a warm call evaluates the wavelet symbol per |k| shell, not per lattice point
    coeffs = analyze(amp_a, ygrid, sgrid)
    x = np.array([0.4, -0.2, 0.7])
    reproduce_complex_time(coeffs, x, 0.3, sigma)
    sizes = []
    real_exp = np.exp

    def recording_exp(arg, *args, **kwargs):
        sizes.append(np.size(arg))
        return real_exp(arg, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording_exp)
    synthesize_many(coeffs, np.stack([x, -x]), 0.3)
    synthesize(coeffs, x, 0.3)
    reproduce_complex_time(coeffs, x, 0.3, sigma)
    assert sizes and max(sizes) < N**3


def test_deeper_continuation_damps(amp_a, coeffs_a):
    mags = [
        np.linalg.norm(reproduce_complex_time(coeffs_a, np.zeros(3), 0.0, sig).F)
        for sig in (0.25, 0.75, 1.5)
    ]
    assert mags[0] > mags[1] > mags[2]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_worker_count_does_not_change_bits(amp_a, ygrid, sgrid):
    # each worker count synthesizes from its own freshly analyzed set: a set
    # keeps the sums of its first synthesis, so reusing one would compare
    # two reads of the same sums
    c1 = analyze(amp_a, ygrid, sgrid, workers=1)
    c8 = analyze(amp_a, ygrid, sgrid, workers=8)
    assert np.array_equal(c1.values, c8.values)
    probes = np.array([[0.3, -0.8, 0.5], [1.2, 0.4, -0.9]])
    s1 = synthesize_many(c1, probes, 0.7)
    s8 = synthesize_many(c8, probes, 0.7)
    assert np.array_equal(s1, s8)
    # kernel reproduction from sets analyzed on 1 and on 8 threads
    for sigma in (0.6, -0.4):
        r1 = reproduce_complex_time(analyze(amp_a, ygrid, sgrid), probes[0], 0.2, sigma)
        r8 = reproduce_complex_time(analyze(amp_a, ygrid, sgrid, workers=8), probes[0], 0.2, sigma)
        assert np.array_equal(r1.F, r8.F)
    # single-sheet amplitude: the negative-scale slices are gated off
    plus = grids.build_cartesian_cone_grid(ygrid, *BAND, sheets="plus")
    single = amplitude_from_scalar(plus, _profile_a)
    p1 = analyze(single, ygrid, sgrid, workers=1)
    p8 = analyze(single, ygrid, sgrid, workers=8)
    assert np.array_equal(p1.values, p8.values)
    q1 = synthesize_many(p1, probes, 0.7)
    q8 = synthesize_many(p8, probes, 0.7)
    assert np.array_equal(q1, q8)


def test_worker_default_is_one_thread(monkeypatch):
    # workers=None runs every fill on the calling thread, however many CPUs there are
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    calls = _recording_fills(monkeypatch)
    default = analyze(amp, ygrid_n, sgrid_n)
    assert len(calls) == 3 and all(thread is threading.main_thread() for thread, _ in calls)
    assert default.values.tobytes() == analyze(amp, ygrid_n, sgrid_n, workers=1).values.tobytes()


# ---------------------------------------------------------------------------
# the pruned lattice transform
# ---------------------------------------------------------------------------


def _batched_ifftn(block, y_runs, x_runs):
    block[...] = scipy.fft.ifftn(block, axes=(1, 2, 3), norm="forward")  # axis 1 first, as the pruned transform
    return block


def _lattice_runs(cone, n):
    _, y_runs, x_runs = transform._box_runs(cone.meta["flat_indices"], n)
    return y_runs, x_runs


@pytest.mark.parametrize(
    ("indices", "runs"),
    [([], []), ([3], [(3, 4)]), ([0, 1, 2, 6, 7], [(0, 3), (6, 8)]), ([7, 0, 4, 5, 0], [(0, 1), (4, 6), (7, 8)]),
     (range(8), [(0, 8)])],
)
def test_index_runs_are_the_maximal_runs_in_order(indices, runs):
    assert transform._index_runs(np.array(list(indices), dtype=int), 8) == [slice(a, b) for a, b in runs]


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("case", ["interior", "edge", "plus"])
def test_pruned_transform_has_the_bits_of_one_batched_ifftn(monkeypatch, n, case):
    box = 10.0
    nyquist = np.pi * n / box
    # "edge" reaches the Nyquist index, so each axis's two runs merge into one
    top = 1.01 * nyquist if case == "edge" else 0.6 * nyquist
    ygrid_n = grids.build_spatial_grid(n, box)
    cone_n = grids.build_cartesian_cone_grid(ygrid_n, 0.4, top, sheets="plus" if case == "plus" else "both")
    amp = amplitude_from_scalar(cone_n, _profile_a)
    sgrid_n = grids.build_scale_grid((0.4, top), 6)  # 12 slices
    y_runs, x_runs = _lattice_runs(cone_n, n)
    if case == "edge":
        assert y_runs == x_runs == [slice(0, n)]
    else:
        assert len(y_runs) == len(x_runs) == 2 and sum(r.stop - r.start for r in y_runs) < n

    def paths():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "edge" reaches beyond the Nyquist frequency
            sets = [analyze(amp, ygrid_n, sgrid_n, workers=w).values.tobytes() for w in (1, 2)]
            with monkeypatch.context() as m:
                m.setattr(transform, "_BLOCK_ENTRIES", 5 * 3 * n**3)  # blocks of 5, 5 and 2 slices
                stream = transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4)
                streamed = b"".join(c.tobytes() for c in stream.values)
            return sets, streamed, norm_nonlocal_t0(amp, ygrid_n)

    pruned = paths()
    monkeypatch.setattr(transform, "_pruned_ifftn", _batched_ifftn)
    batched = paths()
    assert pruned[0] == batched[0] and pruned[0][0] == pruned[0][1]
    assert pruned[1] == batched[1]
    assert pruned[2] == batched[2]


def test_pruned_transform_skips_the_lines_outside_the_shell(monkeypatch):
    n = 32
    ygrid_n = grids.build_spatial_grid(n, 20.0)
    cone_n = grids.build_cartesian_cone_grid(ygrid_n, 0.5, 2.0)
    amp = amplitude_from_scalar(cone_n, _profile_a)
    sgrid_n = grids.build_scale_grid((0.5, 2.0), 6)
    y_runs, x_runs = _lattice_runs(cone_n, n)
    ny, nx = (sum(r.stop - r.start for r in runs) for runs in (y_runs, x_runs))
    assert ny == nx == 13  # |p| <= 2 reaches index 6 of 32 either way
    lines = []
    real = np.fft.ifft

    def counting(x, *args, axis=-1, **kwargs):
        lines.append(x.size // x.shape[axis])
        return real(x, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    analyze(amp, ygrid_n, sgrid_n)
    per_slice = ny * nx + n * nx + n * n  # z-lines on the (y-run x x-run) columns, y-lines on the x-run planes, all x-lines
    assert sum(lines) == len(sgrid_n) * 3 * per_slice
    assert sum(lines) <= 0.55 * len(sgrid_n) * 3 * (3 * n * n)


# ---------------------------------------------------------------------------
# block fills on the slice pool
# ---------------------------------------------------------------------------


def _blocked_set(monkeypatch, sheets="both"):
    """An N = 8 lattice amplitude and its 12-slice grids, analyzed in blocks of 5, 5 and 2 slices."""
    n = 8
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 5 * 3 * n**3)
    ygrid_n = grids.build_spatial_grid(n, 10.0)
    top = 0.6 * np.pi * n / 10.0
    amp = amplitude_from_scalar(grids.build_cartesian_cone_grid(ygrid_n, 0.4, top, sheets=sheets), _profile_a)
    return amp, ygrid_n, grids.build_scale_grid((0.4, top), 6)


def _recording_fills(monkeypatch, fail_at=None):
    """Wrap `_pruned_ifftn`: record each fill's thread and the live thread count during it."""
    calls = []
    real = transform._pruned_ifftn

    def recording(block, y_runs, x_runs):
        calls.append((threading.current_thread(), threading.active_count()))
        if len(calls) - 1 == fail_at:
            raise RuntimeError(f"fill of block {fail_at} failed")
        return real(block, y_runs, x_runs)

    monkeypatch.setattr(transform, "_pruned_ifftn", recording)
    return calls


@pytest.mark.parametrize("sheets", ["both", "plus"])
def test_block_fills_give_the_same_bytes_for_any_worker_count(monkeypatch, tmp_path, sheets):
    # criterion 11: three blocks filled 1, 2 or 3 at a time, with 1 to 8 FFT
    # workers each, and the stream's blocks filled one ahead
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch, sheets)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    sets = {w: analyze(amp, ygrid_n, sgrid_n, t=0.4, workers=w) for w in (1, 2, 3, 8)}
    want = sets[1].values.tobytes()
    assert all(c.values.tobytes() == want for c in sets.values())
    streamed = b"".join(c.tobytes() for c in transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4).values)
    assert streamed == want
    saved = [save_coefficients(c, tmp_path / f"w{w}", name="c") for w, c in sets.items()]
    saved.append(save_coefficients(transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4), tmp_path / "s", name="c"))
    for manifest in saved:
        assert manifest.with_suffix(".bin").read_bytes() == want
        assert manifest.read_bytes() == saved[0].read_bytes()
    # twelve one-slice blocks on eight threads, switching every microsecond
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 3 * 8**3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert analyze(amp, ygrid_n, sgrid_n, t=0.4, workers=8).values.tobytes() == want
        assert b"".join(c.tobytes() for c in transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4).values) == want
    finally:
        sys.setswitchinterval(interval)


def test_gated_off_slices_skip_the_transform_and_keep_its_bits(monkeypatch):
    # a plus-sheet field on both signs of scales: every gate is off at s < 0, so only the runs of s > 0
    # slices are transformed, and each s < 0 slice holds the bytes that a transform of its zeros gives
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch, "plus")
    real, lengths = transform._pruned_ifftn, []

    def recording(block, y_runs, x_runs):
        lengths.append(len(block))
        return real(block, y_runs, x_runs)

    monkeypatch.setattr(transform, "_pruned_ifftn", recording)
    values = analyze(amp, ygrid_n, sgrid_n).values
    live = sgrid_n.nodes > 0
    assert sum(lengths) == np.count_nonzero(live) > 0
    zeros = real(np.zeros((1,) + values.shape[1:], dtype=complex), *_lattice_runs(amp.grid, 8))[0].tobytes()
    assert all(values[i].tobytes() == zeros for i in np.flatnonzero(~live))


def test_analyze_runs_at_most_one_fill_thread_per_cpu(monkeypatch):
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch)
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 3 * 8**3)  # 12 blocks of one slice
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = threading.active_count()
    calls = _recording_fills(monkeypatch)
    analyze(amp, ygrid_n, sgrid_n, workers=64)
    assert len(calls) == 12
    assert max(live for _, live in calls) <= before + 2
    assert threading.active_count() == before


def test_no_fill_thread_outlives_an_analysis(monkeypatch):
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = threading.active_count()

    def stream():
        return transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4).values

    analyze(amp, ygrid_n, sgrid_n, workers=2)
    assert threading.active_count() == before
    assert len(list(stream())) == 12
    assert threading.active_count() == before
    early = stream()
    for _ in range(3):
        next(early)
    early.close()
    assert threading.active_count() == before

    def consumer(values):
        for i, _ in enumerate(values):
            if i == 6:  # the third block is being filled
                raise ValueError("the consumer failed")

    with pytest.raises(ValueError, match="the consumer failed"):
        consumer(stream())
    assert threading.active_count() == before
    for k in range(3):
        with monkeypatch.context() as m:
            _recording_fills(m, fail_at=k)
            with pytest.raises(RuntimeError, match=f"fill of block {k} failed"):
                list(stream())
            assert threading.active_count() == before
            _recording_fills(m, fail_at=k)
            with pytest.raises(RuntimeError, match=f"fill of block {k} failed"):
                analyze(amp, ygrid_n, sgrid_n, workers=2)
            assert threading.active_count() == before


def _failing(monkeypatch, name, at):
    """Make ``transform.<name>`` raise at its call number ``at`` (from 0)."""
    real, calls = getattr(transform, name), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 == at:
            raise RuntimeError("the consumer failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(transform, name, failing)


@pytest.mark.parametrize("case", ["analysis-stream-write", "file-stream-norm", "file-stream-table-fold",
                                  "file-stream-checksum", "file-stream-truncated"])
def test_a_consumer_closes_the_stream_it_stops_reading(monkeypatch, tmp_path, coeffs_a, case):
    # the caller holds the consumer's exception, whose traceback holds the
    # stream: the analysis stream's fill threads, or the file stream's read
    # threads and open payload, must be gone all the same, also when the file
    # stream itself fails with the read of a later slice in flight
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch)  # three blocks: the fill threads run from the first draw
    manifest = save_coefficients(coeffs_a, tmp_path / "saved", name="c")
    payload = tmp_path / "saved" / "c.bin"
    before = threading.active_count()
    error, match = RuntimeError, "the consumer failed"
    if case == "analysis-stream-write":
        stream = transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4)
        _failing(monkeypatch, "_sha256", 2)
        consume = lambda: transform._write_coefficients(stream, tmp_path / "written", "c")
    elif case == "file-stream-norm":
        stream = transform._read_coefficients(manifest)
        _failing(monkeypatch, "_power_sum", 2)
        consume = lambda: norm_euclidean(stream)
    elif case == "file-stream-table-fold":
        stream = transform._read_coefficients(manifest)
        _failing(monkeypatch, "_pruned_fftn", 2)
        consume = lambda: transform._synthesis_table(stream)
    elif case == "file-stream-checksum":
        _flip_in_slice(payload, 2)
        stream = transform._read_coefficients(manifest)
        consume = lambda: transform._synthesis_table(stream)
        error, match = EmwaveError, "checksum mismatch in slice 2 of c.bin"
    else:
        stream = transform._read_coefficients(manifest)  # checked at the full length
        os.truncate(payload, payload.stat().st_size * 7 // 80)  # cut in the middle of slice 3 of 40
        consume = lambda: norm_euclidean(stream)
        error, match = EmwaveError, "payload ended after \\d+ bytes of slice 3"
    with pytest.raises(error, match=match) as held:  # held: its traceback keeps the stream referenced
        consume()
    assert threading.active_count() == before
    assert stream.values.gi_frame is None  # closed: its threads are joined and its payload file is closed


def test_one_block_and_one_worker_start_no_thread(monkeypatch):
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch)
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 12 * 3 * 8**3)  # the 12 slices in one block
    before = threading.active_count()
    calls = _recording_fills(monkeypatch)
    assert len(list(transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4).values)) == 12
    norm_nonlocal_t0(amp, ygrid_n)
    monkeypatch.setattr(transform, "_BLOCK_ENTRIES", 3 * 8**3)
    analyze(amp, ygrid_n, sgrid_n, workers=1)
    assert len(calls) == 1 + 1 + 12
    assert all(thread is threading.main_thread() and live == before for thread, live in calls)


def test_fills_run_on_the_explicit_worker_count(monkeypatch):
    # workers is passed down, not read from a context: the stream fills through
    # `_in_order` on min(workers, blocks - 1) threads, ahead of the block its
    # caller reads, and analyze on min(workers, blocks, cpus) threads
    amp, ygrid_n, sgrid_n = _blocked_set(monkeypatch)  # three blocks
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    depths, real = [], transform._in_order

    def recording(fn, items, depth, buffers=None):
        depths.append(depth)
        return real(fn, items, depth, buffers)

    monkeypatch.setattr(transform, "_in_order", recording)
    before = threading.active_count()
    calls = _recording_fills(monkeypatch)
    list(transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4).values)
    assert depths == [1] and len(calls) == 3 and max(live for _, live in calls) <= before + 1
    list(transform._analysis_stream(amp, ygrid_n, sgrid_n, 0.4, 3).values)
    analyze(amp, ygrid_n, sgrid_n, workers=3)
    assert depths == [1, 2, 3] and len(calls) == 9 and max(live for _, live in calls) <= before + 3
    assert threading.main_thread() not in {thread for thread, _ in calls}
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the ordered-prefetch helper
# ---------------------------------------------------------------------------


def _fast_switching():
    """Switch threads every microsecond until the returned callable restores the interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    return lambda: sys.setswitchinterval(interval)


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_in_order_yields_every_result_in_submission_order(depth):
    rng = np.random.default_rng(depth)
    pauses = rng.uniform(0.0, 2e-3, 40)  # later calls often end first

    def slow_square(i, _):
        threading.Event().wait(pauses[i])
        return i * i

    restore = _fast_switching()
    try:
        assert list(transform._in_order(slow_square, range(40), depth)) == [i * i for i in range(40)]
    finally:
        restore()


@pytest.mark.parametrize(("depth", "buffers"), [(3, 3), (4, 2), (2, 5)])
def test_in_order_hands_a_buffer_on_only_after_the_next_result_is_drawn(depth, buffers):
    # each call stamps its item into its buffer; the consumer finds its own stamp
    # in the buffer it holds until it draws the next result, an item is drawn only
    # once its buffer is free, and no more than min(depth, buffers) calls run at once
    ring = [np.zeros(64, dtype=np.int64) for _ in range(buffers)]
    lock, running, most = threading.Lock(), [0], [0]

    def stamp(i, buffer):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        buffer.fill(i)
        threading.Event().wait(1e-4)
        with lock:
            running[0] -= 1
        return i, buffer

    drawn = []

    def items():
        for i in range(60):
            drawn.append(i)
            yield i

    restore = _fast_switching()
    try:
        for k, (i, buffer) in enumerate(transform._in_order(stamp, items(), depth, ring)):
            assert i == k and buffer is ring[k % buffers]
            assert (buffer == k).all()
            threading.Event().wait(2e-4)  # calls ahead run meanwhile
            assert (buffer == k).all()
            assert len(drawn) <= k + buffers
    finally:
        restore()
    assert most[0] <= min(depth, buffers)


def test_in_order_at_depth_one_without_a_ring_starts_no_thread():
    before = threading.active_count()
    seen = []

    def record(i, buffer):
        seen.append((threading.current_thread(), threading.active_count(), buffer))
        return i

    assert list(transform._in_order(record, range(5), 1)) == list(range(5))
    assert list(transform._in_order(record, range(5), 1, ["only"])) == list(range(5))
    assert len(seen) == 10
    assert all(thread is threading.main_thread() and live == before for thread, live, _ in seen)
    assert [buffer for _, _, buffer in seen] == [None] * 5 + ["only"] * 5
    # a ring of two lets one thread run a call ahead of the consumer
    seen.clear()
    assert list(transform._in_order(record, range(5), 1, ["a", "b"])) == list(range(5))
    assert all(thread is not threading.main_thread() and live == before + 1 for thread, live, _ in seen)
    assert [buffer for _, _, buffer in seen] == ["a", "b", "a", "b", "a"]
    assert threading.active_count() == before


def test_in_order_joins_its_threads_on_close_and_on_every_error():
    before = threading.active_count()
    started = []

    def work(i, _):
        started.append(i)
        if i == 7:
            raise RuntimeError("call 7 failed")
        threading.Event().wait(1e-3)
        return i

    def items(fail_at=None):
        for i in range(100):
            if i == fail_at:
                raise ValueError("drawing item 5 failed")
            yield i

    # closed after two results: the calls submitted end or are cancelled, no later one starts
    results = transform._in_order(work, items(), 3, [None] * 3)
    assert [next(results), next(results)] == [0, 1]
    results.close()
    assert threading.active_count() == before and {0, 1} <= set(started) <= {0, 1, 2, 3}
    # without buffers every item is submitted at once; closing cancels the queued calls
    started.clear()
    results = transform._in_order(work, items(), 3)
    assert next(results) == 0
    results.close()
    assert threading.active_count() == before and len(started) < 20
    # an error in a call reaches the consumer at that call's turn
    with pytest.raises(RuntimeError, match="call 7 failed"):
        list(transform._in_order(work, items(), 3))
    assert threading.active_count() == before
    # an error in drawing an item
    with pytest.raises(ValueError, match="drawing item 5 failed"):
        list(transform._in_order(work, items(fail_at=5), 3))
    assert threading.active_count() == before
    # an error in a consumer that closes it
    results = transform._in_order(work, items(), 3)
    with pytest.raises(KeyError):
        try:
            for i in results:
                if i == 3:
                    raise KeyError(i)
        finally:
            results.close()
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# nonlocal equal-time norm
# ---------------------------------------------------------------------------


def test_erfc_matches_scipy():
    from scipy.special import erfc

    x = np.concatenate([np.linspace(0.0, 26.0, 5201), np.geomspace(1e-12, 26.0, 999)]).reshape(40, -1)  # normal values
    got, want = transform._erfc(x), erfc(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    # repeated arguments keep their places
    x = np.array([[2.0, 0.5, 3.0], [0.5, 2.0, 2.0]])
    assert transform._erfc(x).tolist() == [[math.erfc(v) for v in row] for row in x.tolist()]


def _cell_kernel(d) -> float:
    """Average of 1/|x - y|^2 over two unit cells displaced by the integer vector ``d``: the log-time rule
    against the product of the per-axis tent factors (`transform._tent_factor`)."""
    t, w = transform._log_time_rule()
    return float(w @ np.prod(transform._tent_factor(t, d), axis=1))


def test_cell_kernel_frozen_anchors():
    assert _cell_kernel([0, 0, 0]) == pytest.approx(5.633715158136, rel=1e-9)
    assert _cell_kernel([1, 0, 0]) == pytest.approx(1.195319964104, rel=1e-9)
    assert _cell_kernel([1, 1, 1]) == pytest.approx(0.359813176296, rel=1e-9)


def _cell_kernel_by_octants(d, n=24):
    """INT T(v)/|v+d|^2 d^3v by tensor Gauss-Legendre, split at the kinks v_i = 0.

    T is the product of per-axis tents 1 - |v_i|; for a displacement whose
    singular point -d lies outside the open cube (-1, 1)^3 the integrand is
    smooth on each octant.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    W = weights[:, None, None] * weights[None, :, None] * weights[None, None, :]
    total = 0.0
    for lo in itertools.product((-1.0, 0.0), repeat=3):
        V = np.meshgrid(*(corner + nodes for corner in lo), indexing="ij")
        tent = np.prod([1.0 - np.abs(v) for v in V], axis=0)
        r2 = sum((v + di) ** 2 for v, di in zip(V, d))
        total += np.sum(W * tent / r2)
    return total


@pytest.mark.parametrize("d", [(2, 0, 0), (2, 1, 1), (3, 2, 1), (6, 6, 6)])
def test_cell_kernel_matches_octant_quadrature(d):
    reference = _cell_kernel_by_octants(d)
    assert abs(_cell_kernel(d) - reference) <= 1e-10 * reference


def test_cell_kernel_meets_asymptotic_form():
    d = np.array([6.0, 0.0, 0.0])
    exact = _cell_kernel(d)
    k2 = 36.0
    assert abs(exact - (1.0 / k2 + 1.0 / (6.0 * k2**2))) / exact < 1e-4


def test_nonlocal_norm_agrees_with_momentum_norm():
    # low-spectral-content configuration: the cell-smearing deficit of the
    # lattice kernel stays inside the 5e-2 agreement target
    ygrid = grids.build_spatial_grid(16, 10.0)
    cone = grids.build_cartesian_cone_grid(ygrid, 0.3, 2.5, sheets="plus")
    amp = amplitude_from_scalar(
        cone, lambda om, nn, sh: (2.0 * om**2 * np.exp(-om * 3.0)).astype(complex)
    )
    res = norm_nonlocal_t0(amp, ygrid)
    nm = norm_momentum(amp)
    assert abs(res.value - nm) / nm < 5e-2
    assert res.imag_ratio < 1e-8


def _tent_by_quadrature(t, d, n=40):
    """INT (1 - |v|) e^{-t (v+d)^2} dv over [-1, 1] by Gauss-Legendre on each half of the tent."""
    x, w = np.polynomial.legendre.leggauss(n)
    v, w = 0.5 * (x + 1.0), 0.5 * w
    d = np.asarray(d, dtype=float)[..., None]
    return np.sum(w * (1.0 - v) * (np.exp(-t * (v + d) ** 2) + np.exp(-t * (v - d) ** 2)), axis=-1)


@pytest.mark.parametrize("N", [2, 5, 16, 64])
def test_periodic_cell_factor_is_the_image_sum(N):
    # Poisson's aliases below the crossover at t = 1, the direct images from it on, against every image
    # out to e^{-700} by plain quadrature; near t = 1/N^2 the direct sum would lose about 36 N^2 ulp
    for t in (1e-3 / N**2, 0.25 / N**2, 1.0 / N**2, 4.0 / N**2, 0.05, 0.999, 1.0, 4.0):
        c, v = transform._periodic_cell_factors(np.array([t]), N)
        reach = int(np.sqrt(700.0 / t) / N) + 2
        brute = _tent_by_quadrature(t, np.arange(N)[:, None] + N * np.arange(-reach, reach + 1)).sum(axis=1)
        assert np.max(np.abs(c + v[0] - brute)) <= 1e-13 * np.max(brute), (t, c, v, brute)


@pytest.mark.parametrize("sheets", ["both", "plus", "minus"])
def test_lattice_field_at_t0_equals_the_dense_sum(sheets):
    # the nonlocal norm's F(y, 0) comes from one inverse FFT of the cone
    # shell; the dense plane-wave sum is its anchor, independent of analyze
    ygrid = grids.build_spatial_grid(16, 10.0)
    cone = grids.build_cartesian_cone_grid(ygrid, 0.3, 2.5, sheets=sheets)
    amp = amplitude_from_scalar(cone, _profile_b)
    lattice = next(transform._field_on_grid(amp, ygrid, 0.0, 0.0))[0]
    dense = _evaluate_many(amp, ygrid.nodes, 0.0).reshape(lattice.shape)
    assert np.linalg.norm(lattice - dense) <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("where", ["cone", "custom", "other-lattice"])
def test_off_lattice_amplitudes_are_refused(monkeypatch, where, amp_a, ygrid, sgrid):
    # F(y, t - is) has one route, the pruned FFT of the grid's own cone lattice:
    # every entry that puts a field on the grid refuses any other amplitude
    # before its first fill, and starts no thread
    amp = {
        "cone": lambda: amplitude_from_scalar(grids.build_cone_grid(*BAND, 8, 6), _profile_a),
        "custom": lambda: _off_lattice(amp_a),
        "other-lattice": lambda: amplitude_from_scalar(
            grids.build_cartesian_cone_grid(grids.build_spatial_grid(8, L), *BAND), _profile_a),
    }[where]()

    def no_fill(*args, **kwargs):
        raise AssertionError("a refused amplitude reached _field_on_grid")

    monkeypatch.setattr(transform, "_field_on_grid", no_fill)
    threads = threading.active_count()
    for call in (
        lambda: analyze(amp, ygrid, sgrid, workers=2),
        lambda: transform._analysis_stream(amp, ygrid, sgrid, 0.0, 2),  # at the call, before any draw
        lambda: norm_nonlocal_t0(amp, ygrid),
    ):
        with pytest.raises(GridMismatchError, match="build_cartesian_cone_grid"):
            call()
        assert threading.active_count() == threads


def test_nonlocal_norm_runs_at_n32(amp_a):
    # no size budget: N = 32 runs on its own N^3 lattice, here with both sheets and a complex minus sheet
    # (gap 1.7e-2), and a scale grid is still refused
    ygrid_n = grids.build_spatial_grid(32, 20.0)
    cone_n = grids.build_cartesian_cone_grid(ygrid_n, 0.3, 2.5, sheets="both")
    amp = amplitude_from_scalar(
        cone_n, lambda om, nn, sh: (2.0 * om**2 * np.exp(-3.0 * om) * np.where(sh > 0, 1.0, 0.5j)).astype(complex))
    res = norm_nonlocal_t0(amp, ygrid_n)
    nm = norm_momentum(amp)
    assert abs(res.value - nm) / nm < 2e-2
    assert res.imag_ratio < 1e-8
    with pytest.raises(GridMismatchError):
        norm_nonlocal_t0(amp_a, grids.build_scale_grid(BAND, 12))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(coeffs_a, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    again = load_coefficients(manifest)
    assert np.array_equal(again.values, coeffs_a.values)
    assert grids.grids_equal(again.ygrid, coeffs_a.ygrid)
    assert grids.grids_equal(again.sgrid, coeffs_a.sgrid)
    assert again.t == coeffs_a.t
    assert again.provenance == coeffs_a.provenance


def test_payload_is_plain_little_endian_complex(coeffs_a, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    raw = (tmp_path / "c.bin").read_bytes()
    assert raw == coeffs_a.values.astype("<c16").tobytes()
    meta = json.loads(manifest.read_text())
    assert meta["shape"] == list(coeffs_a.values.shape)
    assert meta["axis_order"] == ["s", "y_z", "y_y", "y_x", "component"]


def test_tampered_payload_is_rejected(coeffs_a, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    blob = bytearray((tmp_path / "c.bin").read_bytes())
    blob[100] ^= 0xFF
    (tmp_path / "c.bin").write_bytes(bytes(blob))
    with pytest.raises(EmwaveError, match="checksum"):
        load_coefficients(manifest)


@pytest.mark.parametrize("chunk", [None, 4099])
def test_streamed_table_has_the_bits_of_the_loaded_set(coeffs_a, tmp_path, monkeypatch, chunk):
    # one reused slice buffer, read in odd chunks that straddle the slices
    if chunk:
        monkeypatch.setattr(transform, "_IO_CHUNK", chunk)
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    streamed = transform._synthesis_table(transform._read_coefficients(manifest))
    kept = transform._synthesis_table(load_coefficients(manifest))
    assert grids.grids_equal(streamed.ygrid, kept.ygrid) and streamed.t == kept.t
    assert np.array_equal(streamed.index, kept.index) and np.array_equal(streamed.omega, kept.omega)
    assert streamed.sums.keys() == kept.sums.keys()
    for sheet in kept.sums:
        assert streamed.sums[sheet].tobytes() == kept.sums[sheet].tobytes()
    probes = np.random.default_rng(11).uniform(-L / 2, L / 2, size=(20, 3))
    assert synthesize_many(streamed, probes, 0.7).tobytes() == synthesize_many(coeffs_a, probes, 0.7).tobytes()


def test_streamed_table_names_the_checksum_before_a_non_finite_sample(coeffs_a, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    payload = np.fromfile(tmp_path / "c.bin", dtype="<c16")
    payload[len(payload) // 2] = complex(np.nan, 0.0)
    payload.tofile(tmp_path / "c.bin")
    with pytest.raises(EmwaveError, match="checksum"):
        transform._synthesis_table(transform._read_coefficients(manifest))
    meta = json.loads(manifest.read_text())
    k = len(payload) // 2 // (3 * N**3)  # the slice that holds the NaN, re-digested
    meta["slice_sha256"][k] = hashlib.sha256(payload.reshape(40, -1)[k].tobytes()).hexdigest()
    manifest.write_text(json.dumps(meta))
    with pytest.raises(EmwaveError, match="1 of 40 coefficient slices hold a non-finite sample"):
        transform._synthesis_table(transform._read_coefficients(manifest))
    assert np.isnan(load_coefficients(manifest).values).sum() == 1  # a load keeps the bytes as they are


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0, 0, 0), (7, 15, 8, 2), (15, 7, 7, 1)])
def test_a_non_finite_sample_anywhere_reaches_the_band_box(coeffs_a, bad, where):
    # the table checks each slice's box (13 of 16 indices per axis), which a
    # non-finite sample at any lattice point and component reaches
    values = coeffs_a.values.copy()
    values[(5,) + where] = bad
    with pytest.raises(EmwaveError, match="1 of 40 coefficient slices hold a non-finite sample"):
        transform._synthesis_table(EuclideanCoefficients(coeffs_a.ygrid, coeffs_a.sgrid, values))


@pytest.mark.parametrize("workers", [2, 3])
def test_table_sums_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, amp_a, ygrid, sgrid, coeffs_a, workers):
    # a set analyzed on workers threads, a file stream and an analysis stream
    # filled on workers threads fold into the bytes of the one-thread table
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    want = transform._synthesis_table(analyze(amp_a, ygrid, sgrid)).sums
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more threads than cores, switching every microsecond
    try:
        tables = [
            transform._synthesis_table(analyze(amp_a, ygrid, sgrid, workers=workers)),
            transform._synthesis_table(transform._read_coefficients(manifest)),
            transform._synthesis_table(transform._analysis_stream(amp_a, ygrid, sgrid, 0.0, workers)),
        ]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    for table in tables:
        assert table.sums.keys() == want.keys()
        assert all(table.sums[sheet].tobytes() == H.tobytes() for sheet, H in want.items())
    values = coeffs_a.values.copy()
    values[5, 7, 15, 8, 2] = np.nan
    with pytest.raises(EmwaveError, match="1 of 40 coefficient slices hold a non-finite sample"):
        transform._synthesis_table(EuclideanCoefficients(ygrid, sgrid, values))
    assert threading.active_count() == before


def test_every_table_builds_on_the_calling_thread(monkeypatch, tmp_path, amp_a, ygrid, sgrid, coeffs_a):
    # the stream's two blocks fill on pool threads at workers=3, but every
    # slice's box is transformed on the main thread, from a set, a file
    # stream and an analysis stream alike
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    threads = []
    real = transform._pruned_fftn

    def recording(c, runs, work):
        threads.append(threading.current_thread())
        return real(c, runs, work)

    monkeypatch.setattr(transform, "_pruned_fftn", recording)
    for coeffs in (analyze(amp_a, ygrid, sgrid, workers=3), transform._read_coefficients(manifest),
                   transform._analysis_stream(amp_a, ygrid, sgrid, 0.0, 3)):
        transform._synthesis_table(coeffs)
    assert len(threads) == 3 * len(sgrid)
    assert all(thread is threading.main_thread() for thread in threads)


def test_the_table_refuses_weighted_sums_that_overflow(coeffs_a):
    # every sample and weight is finite, but the weighted boxes leave the float range
    big = grids.scale_grid_from_rule(coeffs_a.sgrid.nodes, coeffs_a.sgrid.weights * 1e300, BAND)
    coeffs = EuclideanCoefficients(coeffs_a.ygrid, big, coeffs_a.values * 1e10, provenance=coeffs_a.provenance)
    with pytest.raises(EmwaveError, match="the weighted sums of the coefficient slices overflow"):
        synthesize_many(coeffs, np.zeros((2, 3)), 0.0)


def test_foreign_manifests_are_rejected(coeffs_a, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    meta = json.loads(manifest.read_text())
    bad = tmp_path / "bad.json"
    # versions 1 and 2 named the scale grid by its builder; they are refused, not read
    for version in (1, 2, 99):
        meta["version"] = version
        bad.write_text(json.dumps(meta))
        with pytest.raises(EmwaveError, match=f"manifest version {version}: .*rerun analyze"):
            load_coefficients(bad)
    meta["format"] = "something-else"
    bad.write_text(json.dumps(meta))
    with pytest.raises(EmwaveError):
        load_coefficients(bad)


@pytest.mark.parametrize(
    "defect, needle",
    [
        ("missing-key", "lacks keys"),
        ("slice-digest-count", "slice_sha256"),
        ("slice-digest-text", "slice_sha256"),
        ("shape", "shape"),
        ("shape-empty", "shape"),
        ("outside-payload", "outside"),
        ("t-text", "time"),
        ("t-null", "time"),
        ("provenance", "provenance"),
        ("provenance-cone-number", "provenance"),
        ("provenance-band-text", "provenance"),
        ("band-triple", "grid record"),
        ("extra-grid-arg", "grid record"),
        ("zero-node", "sgrid record: .*not a positive finite number"),
        ("negative-weight", "sgrid record: .*not a positive finite number"),
        ("nan-node", "sgrid record: .*nodes="),
        ("string-node", "sgrid record: .*nodes="),
        ("unmirrored-pair", "sgrid record: .*not laid out for signs 'both'"),
        ("node-count", "len\\(sgrid\\)"),
        ("unknown-signs", "sgrid record: .*unknown sheet selection 'all'"),
        ("extra-sgrid-key", "sgrid record"),
    ],
)
def test_malformed_manifests_raise_emwave_error(coeffs_a, tmp_path, defect, needle):
    manifest = save_coefficients(coeffs_a, tmp_path / "m", name="c")
    meta = json.loads(manifest.read_text())
    if defect == "missing-key":
        del meta["slice_sha256"]
    elif defect == "slice-digest-count":
        meta["slice_sha256"].pop()
    elif defect == "slice-digest-text":
        meta["slice_sha256"][3] = meta["slice_sha256"][3].upper()
    elif defect == "shape":
        meta["shape"][0] += 1
    elif defect == "shape-empty":
        # a 16-byte payload matches the empty product; shape[0] used to raise IndexError
        (tmp_path / "m" / "c.bin").write_bytes(bytes(16))
        meta["shape"], meta["payload_bytes"] = [], 16
    elif defect == "t-text":
        meta["t"] = "abc"
    elif defect == "t-null":
        meta["t"] = None
    elif defect == "provenance":
        meta["provenance"] = ["not", "an", "object"]
    elif defect == "provenance-cone-number":
        meta["provenance"] = {"cone_grid": 5}
    elif defect == "provenance-band-text":
        meta["provenance"] = {"cone_grid": {"args": {"omega_min": "a"}}}
    elif defect == "band-triple":
        # the grid records are not covered by the payload checksum
        meta["sgrid"]["omega_band"] = [0.5, 4.0, 9.0]
    elif defect == "extra-grid-arg":
        meta["ygrid"]["args"]["M"] = 8
    elif defect == "zero-node":
        meta["sgrid"]["nodes"][3] = 0.0
    elif defect == "negative-weight":
        meta["sgrid"]["weights"][5] *= -1.0
    elif defect == "nan-node":
        meta["sgrid"]["nodes"][2] = float("nan")  # written as NaN, which json.loads accepts
    elif defect == "string-node":
        meta["sgrid"]["nodes"][2] = str(meta["sgrid"]["nodes"][2])
    elif defect == "unmirrored-pair":
        meta["sgrid"]["nodes"][-1] *= 1.5
    elif defect == "node-count":
        # one mirrored pair fewer: a well-formed rule of 38 nodes for 40 slices
        for key in ("nodes", "weights"):
            del meta["sgrid"][key][20], meta["sgrid"][key][0]
    elif defect == "unknown-signs":
        meta["sgrid"]["signs"] = "all"
    elif defect == "extra-sgrid-key":
        meta["sgrid"]["builder"] = "scale"
    else:
        # a byte-exact copy with a matching checksum is still refused
        (tmp_path / "outside.bin").write_bytes((tmp_path / "m" / "c.bin").read_bytes())
        meta["payload"] = "../outside.bin"
    manifest.write_text(json.dumps(meta))
    with pytest.raises(EmwaveError, match=needle):
        load_coefficients(manifest)


@pytest.mark.parametrize("change", [-1, 1])
def test_payload_of_the_wrong_length_is_refused_before_it_is_read(coeffs_a, tmp_path, change):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    blob = (tmp_path / "c.bin").read_bytes()
    blob = blob[:-1] if change < 0 else blob + b"\0"
    (tmp_path / "c.bin").write_bytes(blob)
    with pytest.raises(EmwaveError, match=f"length {len(blob)} does not match"):
        load_coefficients(manifest)


def test_payload_checksum_spans_read_chunks(coeffs_a, tmp_path, monkeypatch):
    # an odd chunk size: the payload spans many chunks and the last is short
    monkeypatch.setattr(transform, "_IO_CHUNK", 4099)
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    blob = (tmp_path / "c.bin").read_bytes()
    assert len(blob) > 100 * 4099 and len(blob) % 4099 != 0
    step = len(blob) // 40
    digests = [hashlib.sha256(blob[i : i + step]).hexdigest() for i in range(0, len(blob), step)]
    assert json.loads(manifest.read_text())["slice_sha256"] == digests
    assert np.array_equal(load_coefficients(manifest).values, coeffs_a.values)
    (tmp_path / "c.bin").write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    with pytest.raises(EmwaveError, match="checksum"):
        load_coefficients(manifest)


def test_no_helper_thread_outlives_a_save_or_load(coeffs_a, coeffs_b, tmp_path):
    before = threading.active_count()
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    assert threading.active_count() == before
    load_coefficients(manifest)
    assert threading.active_count() == before
    norm_euclidean(coeffs_a), inner_product(coeffs_a, coeffs_b)
    assert threading.active_count() == before
    abandoned = transform._read_coefficients(manifest).values
    next(abandoned)  # slice 1 is being read
    abandoned.close()
    assert threading.active_count() == before
    blob = bytearray((tmp_path / "c.bin").read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # a middle slice: the read may stop with hashes still queued
    (tmp_path / "c.bin").write_bytes(bytes(blob))
    with pytest.raises(EmwaveError, match="checksum mismatch in slice 20"):
        load_coefficients(manifest)
    assert threading.active_count() == before
    with pytest.raises(EmwaveError, match="checksum mismatch in slice 20"):
        list(transform._read_coefficients(manifest).values)
    assert threading.active_count() == before
    blob[len(blob) // 2] ^= 0xFF
    blob[-1] ^= 0xFF
    (tmp_path / "c.bin").write_bytes(bytes(blob))
    with pytest.raises(EmwaveError, match="checksum"):
        load_coefficients(manifest)
    assert threading.active_count() == before
    values = transform._read_coefficients(manifest).values  # checked at the full length
    (tmp_path / "c.bin").write_bytes(bytes(blob[: len(blob) * 7 // 80]))  # cut in the middle of slice 3
    with pytest.raises(EmwaveError, match="payload ended after \\d+ bytes of slice 3"):
        list(values)
    assert threading.active_count() == before
    meta = json.loads(manifest.read_text())
    meta["payload"] = "a-directory"
    (tmp_path / "a-directory").mkdir()
    manifest.write_text(json.dumps(meta))
    with pytest.raises(EmwaveError, match="cannot read payload"):
        load_coefficients(manifest)
    assert threading.active_count() == before


def _flip_in_slice(path, k, slices=40):
    """Flip one byte in the middle of scale slice ``k`` of the payload at ``path``."""
    blob = bytearray(path.read_bytes())
    blob[(2 * k + 1) * len(blob) // (2 * slices)] ^= 0x10
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("k", [0, 17, 39])
def test_no_slice_is_yielded_before_its_digest_holds(coeffs_a, tmp_path, k):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    _flip_in_slice(tmp_path / "c.bin", k)
    yielded = []
    with pytest.raises(EmwaveError, match=f"checksum mismatch in slice {k} of c.bin"):
        for c in transform._read_coefficients(manifest).values:
            yielded.append(c.copy())
    assert len(yielded) == k
    for got, want in zip(yielded, coeffs_a.values):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(EmwaveError, match=f"checksum mismatch in slice {k} of c.bin"):
        load_coefficients(manifest)


@pytest.fixture(params=[1, 2, 8], ids=["1-thread", "2-threads", "8-threads"])
def slice_threads(request, monkeypatch):
    """The slice pool at 1, 2 (its size) or 8 threads, the last with the thread switch interval at 1 us."""
    monkeypatch.setattr(transform, "_SLICE_THREADS", request.param)
    interval = sys.getswitchinterval()
    if request.param > 2:
        sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def test_slice_digests_hash_each_slice_whatever_the_pool_size(coeffs_a, ygrid, sgrid, tmp_path, slice_threads):
    manifest = save_coefficients(coeffs_a, tmp_path / "set", name="c")
    assert json.loads(manifest.read_text())["version"] == 3
    digests = json.loads(manifest.read_text())["slice_sha256"]
    assert digests == [hashlib.sha256(c.astype("<c16").tobytes()).hexdigest() for c in coeffs_a.values]
    # a stream is hashed one slice at a time and gives the same manifest
    stream = transform._CoefficientStream(ygrid, sgrid, (c.copy() for c in coeffs_a.values), coeffs_a.t,
                                          coeffs_a.provenance)
    assert save_coefficients(stream, tmp_path / "stream", name="c").read_bytes() == manifest.read_bytes()
    assert load_coefficients(manifest).values.tobytes() == coeffs_a.values.tobytes()


def test_set_norms_on_the_pool_keep_the_bits_of_the_serial_sums(coeffs_a, coeffs_b, slice_threads):
    dy3 = coeffs_a.ygrid.meta["spacing"] ** 3
    w = coeffs_a.sgrid.weights
    # one fixed-order dot of each slice's float64 view with itself
    serial = np.array([np.einsum("i,i->", x, x) for x in (c.reshape(-1).view(np.float64) for c in coeffs_a.values)])
    pair = np.array([np.sum(np.conj(a) * b) for a, b in zip(coeffs_a.values, coeffs_b.values)])
    for _ in range(3):
        assert norm_euclidean(coeffs_a) == float(np.sum(w * serial) * dy3)
        assert inner_product(coeffs_a, coeffs_b) == complex(np.sum(w * pair) * dy3)
    stream = transform._CoefficientStream(coeffs_a.ygrid, coeffs_a.sgrid, iter(coeffs_a.values), coeffs_a.t, {})
    assert norm_euclidean(stream) == norm_euclidean(coeffs_a)


def test_a_load_runs_no_scale_builder(coeffs_a, tmp_path, monkeypatch):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    calls = []
    for name in ("build_scale_grid", "_double_exponential_rules"):
        monkeypatch.setattr(grids, name, lambda *args, name=name, **kwargs: calls.append(name))
    loaded = load_coefficients(manifest)
    list(transform._read_coefficients(manifest).values)
    assert calls == []
    assert grids.grids_equal(loaded.sgrid, coeffs_a.sgrid)
    assert loaded.sgrid.meta["recovery_bound"] == coeffs_a.sgrid.meta["recovery_bound"]
    assert loaded.values.tobytes() == coeffs_a.values.tobytes()


def test_a_set_on_another_scale_rule_reloads_with_its_rule(amp_a, ygrid, tmp_path):
    # scaled Gauss-Laguerre, exact at the band's geometric mean: no builder makes it
    x, w = roots_laguerre(8)
    a = 2.0 * np.sqrt(BAND[0] * BAND[1])
    s, ws = x / a, w * np.exp(x) / a
    sgrid = grids.scale_grid_from_rule(np.concatenate([s, -s]), np.concatenate([ws, ws]), BAND)
    assert sgrid.meta["recovery_bound"] < 1e-3
    coeffs = analyze(amp_a, ygrid, sgrid)
    loaded = load_coefficients(save_coefficients(coeffs, tmp_path, name="c"))
    assert grids.grids_equal(loaded.sgrid, sgrid) and loaded.sgrid.meta == sgrid.meta
    assert loaded.values.tobytes() == coeffs.values.tobytes()
    with pytest.raises(EmwaveError, match="cannot rebuild"):
        grids.rebuild(loaded.sgrid)

