"""Scale-space analysis/synthesis: Parseval, round trips, norms, persistence."""

import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from emwave import grids, transform
from emwave.errors import (
    BudgetExceededError,
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
    # identical nodes, but the grid no longer advertises the conjugate
    # lattice, so analysis takes the dense plane-wave-sum path
    plain = grids.QuadratureGrid(
        "cone",
        cone8.nodes,
        cone8.weights,
        cone8.sheets,
        {"builder": "custom", "args": {}},
    )
    dense = analyze(ConeAmplitude(plain, amp.values), ygrid8, sgrid8, t=0.4)
    worst = np.max(np.abs(fast.values - dense.values))
    assert worst < 1e-12


@pytest.mark.parametrize(
    "stage, bound",
    [
        # the output array the coefficients take over, nothing more; a
        # defensive copy or an out-of-place batched inverse FFT adds a payload
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
    ],
)
def test_peak_memory_stays_near_payload(stage, bound, amp_a, ygrid, sgrid, coeffs_a, coeffs_b, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    probes = np.random.default_rng(5).uniform(-L / 2, L / 2, size=(200, 3))
    synthesize_many(coeffs_a, probes[:1], 0.0)  # the per-sheet sums are built once
    run = {
        "analyze": lambda: analyze(amp_a, ygrid, sgrid),
        "load": lambda: load_coefficients(manifest),
        "save": lambda: save_coefficients(coeffs_a, tmp_path, name="again"),
        "norm_euclidean": lambda: norm_euclidean(coeffs_a),
        "inner_product": lambda: inner_product(coeffs_a, coeffs_b),
        "synthesize_many": lambda: synthesize_many(coeffs_a, probes, 0.4),
    }[stage]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * coeffs_a.values.nbytes


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


def test_aliasing_is_reported(amp_a, sgrid):
    coarse = grids.build_spatial_grid(8, 12.0)  # Nyquist ~2.09 < band top 3.5
    with pytest.warns(UserWarning, match="Nyquist"):
        analyze(amp_a, coarse, sgrid)


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
    """Reference synthesis: one phase e^{ip.x} per probe and lattice point,
    taken from `grids.momentum_mesh`, against the gated per-sheet sums."""
    P, Omega = grids.momentum_mesh(coeffs.ygrid)
    G = np.zeros(Omega.shape + (3,), dtype=complex)
    for sheet, H in transform._sheet_sums(coeffs, None).items():
        gate = 1.0 if sigma == 0.0 else (2.0 if sigma * sheet > 0.0 else 0.0)
        G += (gate * Omega * np.exp(-sheet * Omega * (sigma + 1j * (t - coeffs.t))))[..., None] * H
    phases = np.exp(1j * (pts @ P.reshape(-1, 3).T))
    return phases @ G.reshape(-1, 3) / Omega.size


@pytest.mark.parametrize("sigma", [0.0, 0.6, -0.6])
@pytest.mark.parametrize("count", [1, 7, 200])
def test_probe_sum_equals_dense_phase_sum(coeffs_a, count, sigma):
    # probes reach 0.7 L from the centre, so some lie outside the box
    pts = np.random.default_rng(count).uniform(-0.7 * L, 0.7 * L, size=(count, 3))
    t = 0.9  # coeffs_a is generated at t = 0
    if sigma == 0.0:
        got = synthesize_many(coeffs_a, pts, t)
    else:
        got = np.array([reproduce_complex_time(coeffs_a, x, t, sigma).F for x in pts])
    want = _dense_probe_sum(coeffs_a, pts, t, sigma)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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
        monkeypatch.setattr(scipy.fft, name, _counting(name, getattr(scipy.fft, name), calls))
    x = np.array([0.4, -0.2, 0.7])
    first = call(coeffs, x)
    assert calls == ["fftn"] * len(sgrid)  # one forward transform per scale slice
    calls.clear()
    second = call(coeffs, x)
    assert calls == []
    assert np.array_equal(first, second)


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
    s1 = synthesize_many(c1, probes, 0.7, workers=1)
    s8 = synthesize_many(c8, probes, 0.7, workers=8)
    assert np.array_equal(s1, s8)
    # kernel reproduction takes scipy's worker count, 1 unless set around it
    for sigma in (0.6, -0.4):
        r1 = reproduce_complex_time(analyze(amp_a, ygrid, sgrid), probes[0], 0.2, sigma)
        with scipy.fft.set_workers(8):
            r8 = reproduce_complex_time(analyze(amp_a, ygrid, sgrid), probes[0], 0.2, sigma)
        assert np.array_equal(r1.F, r8.F)
    # single-sheet amplitude: the negative-scale slices are gated off
    plus = grids.build_cartesian_cone_grid(ygrid, *BAND, sheets="plus")
    single = amplitude_from_scalar(plus, _profile_a)
    p1 = analyze(single, ygrid, sgrid, workers=1)
    p8 = analyze(single, ygrid, sgrid, workers=8)
    assert np.array_equal(p1.values, p8.values)
    q1 = synthesize_many(p1, probes, 0.7, workers=1)
    q8 = synthesize_many(p8, probes, 0.7, workers=8)
    assert np.array_equal(q1, q8)


def test_worker_default_comes_from_scipy_set_workers(amp_a, ygrid, sgrid):
    with scipy.fft.set_workers(4):
        from_context = analyze(amp_a, ygrid, sgrid)
    explicit = analyze(amp_a, ygrid, sgrid, workers=1)
    assert np.array_equal(from_context.values, explicit.values)


# ---------------------------------------------------------------------------
# nonlocal equal-time norm
# ---------------------------------------------------------------------------


def test_cell_kernel_frozen_anchors():
    assert transform._cell_kernel([0, 0, 0]) == pytest.approx(5.633715158136, rel=1e-9)
    assert transform._cell_kernel([1, 0, 0]) == pytest.approx(1.195319964104, rel=1e-9)
    assert transform._cell_kernel([1, 1, 1]) == pytest.approx(0.359813176296, rel=1e-9)


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
    assert abs(transform._cell_kernel(d) - reference) <= 1e-10 * reference


def test_cell_kernel_meets_asymptotic_form():
    d = np.array([6.0, 0.0, 0.0])
    exact = transform._cell_kernel(d)
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
    assert res.grid_points == 16**3


def test_nonlocal_norm_refuses_oversized_grids(amp_a):
    big = grids.build_spatial_grid(32, 20.0)
    with pytest.raises(BudgetExceededError, match="pairs"):
        norm_nonlocal_t0(amp_a, big)
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


def test_foreign_manifests_are_rejected(coeffs_a, tmp_path):
    manifest = save_coefficients(coeffs_a, tmp_path, name="c")
    meta = json.loads(manifest.read_text())
    meta["version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(meta))
    with pytest.raises(EmwaveError, match="version"):
        load_coefficients(bad)
    meta["format"] = "something-else"
    bad.write_text(json.dumps(meta))
    with pytest.raises(EmwaveError):
        load_coefficients(bad)


@pytest.mark.parametrize(
    "defect, needle",
    [
        ("missing-key", "lacks keys"),
        ("shape", "shape"),
        ("outside-payload", "outside"),
        ("t-text", "time"),
        ("t-null", "time"),
        ("provenance", "provenance"),
        ("band-triple", "grid record"),
        ("extra-grid-arg", "grid record"),
    ],
)
def test_malformed_manifests_raise_emwave_error(coeffs_a, tmp_path, defect, needle):
    manifest = save_coefficients(coeffs_a, tmp_path / "m", name="c")
    meta = json.loads(manifest.read_text())
    if defect == "missing-key":
        del meta["payload_sha256"]
    elif defect == "shape":
        meta["shape"][0] += 1
    elif defect == "t-text":
        meta["t"] = "abc"
    elif defect == "t-null":
        meta["t"] = None
    elif defect == "provenance":
        meta["provenance"] = ["not", "an", "object"]
    elif defect == "band-triple":
        # the grid records are not covered by the payload checksum
        meta["sgrid"]["args"]["omega_band"] = [0.5, 4.0, 9.0]
    elif defect == "extra-grid-arg":
        meta["ygrid"]["args"]["M"] = 8
    else:
        # a byte-exact copy with a matching checksum is still refused
        (tmp_path / "outside.bin").write_bytes((tmp_path / "m" / "c.bin").read_bytes())
        meta["payload"] = "../outside.bin"
    manifest.write_text(json.dumps(meta))
    with pytest.raises(EmwaveError, match=needle):
        load_coefficients(manifest)


LEGACY = Path(__file__).resolve().parent / "data" / "legacy_scale_record" / "coefficients.json"


def test_legacy_scale_record_loads_bit_exactly():
    # written before the scale grid lost its extent keywords; its record
    # still carries them at the only values this version builds
    record = json.loads(LEGACY.read_text())["sgrid"]["args"]
    assert (record["s_min_factor"], record["s_max_factor"]) == (0.05, 8.0)
    coeffs = load_coefficients(LEGACY)  # verifies the payload checksum
    assert grids.grids_equal(coeffs.ygrid, grids.build_spatial_grid(2, 3.0))
    assert grids.grids_equal(coeffs.sgrid, grids.build_scale_grid((0.9, 2.8), 6))
    assert "s_max_factor" not in coeffs.sgrid.meta["args"]


@pytest.mark.parametrize("key, value", [("s_max_factor", 16), ("s_min_factor", 0.1)])
def test_legacy_scale_record_with_another_extent_is_rejected(tmp_path, key, value):
    meta = json.loads(LEGACY.read_text())
    meta["sgrid"]["args"][key] = value
    (tmp_path / "coefficients.json").write_text(json.dumps(meta))
    (tmp_path / "coefficients.bin").write_bytes(LEGACY.with_suffix(".bin").read_bytes())
    with pytest.raises(EmwaveError, match=key):
        load_coefficients(tmp_path / "coefficients.json")
