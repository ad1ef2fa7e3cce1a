"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Every test prints ``[PASS]/[FAIL] criterion N: ...`` with the measured
figure of merit, then asserts it, so ``pytest tests/test_acceptance.py -v -s``
reads as a checklist of the package's quantitative claims.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from emwave import cli, fieldcore, grids, oracle, transform
from emwave.ast import LineSignal, Spectrum, ast_fourier, ast_line
from emwave.fieldcore import (
    SpacetimePoint,
    amplitude_from_scalar,
    evaluate_field,
    maxwell_residual,
)
from emwave.wavelet import WaveletLabel, eval_kernel, eval_wavelet, scaling_check

ANCHOR = 3.0 / (8.0 * math.pi**2)


def _criterion(num: int, desc: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# reference scenario shared by criteria 7, 8, 10, 11
# ---------------------------------------------------------------------------

REF_N, REF_L, REF_BAND, REF_SNODES = 32, 20.0, (0.5, 4.0), 24


def _ref_profile_a(om, nn, sheets):
    radial = np.exp(-0.5 * ((om - 2.0) / 0.45) ** 2)
    angular = 1.0 + 0.25 * nn[:, 2]
    sheet_w = np.where(sheets > 0, 1.0, 0.6)
    return (radial * angular * sheet_w).astype(complex)


def _ref_profile_b(om, nn, sheets):
    radial = np.exp(-0.5 * ((om - 1.4) / 0.5) ** 2)
    angular = 1.0 + 0.3 * nn[:, 0] - 0.2j * nn[:, 1]
    sheet_w = np.where(sheets > 0, 0.8, 1.0)
    return (radial * angular * sheet_w).astype(complex)


@pytest.fixture(scope="module")
def reference():
    ygrid = grids.build_spatial_grid(REF_N, REF_L)
    sgrid = grids.build_scale_grid(REF_BAND, REF_SNODES)
    cone = grids.build_cartesian_cone_grid(ygrid, *REF_BAND)
    amp_a = amplitude_from_scalar(cone, _ref_profile_a)
    amp_b = amplitude_from_scalar(cone, _ref_profile_b)
    coeffs_a = transform.analyze(amp_a, ygrid, sgrid)
    return {
        "ygrid": ygrid,
        "sgrid": sgrid,
        "cone": cone,
        "amp_a": amp_a,
        "amp_b": amp_b,
        "coeffs_a": coeffs_a,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_kernel_closed_form_vs_quadrature():
    rng = np.random.default_rng(2025)
    t_start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        s = sign * rng.uniform(0.5, 2.0)
        sigma = sign * rng.uniform(0.5, 2.0)
        y = rng.uniform(-1.0, 1.0, 3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        x = y + rng.uniform(0.0, 3.0) * direction
        t = rng.uniform(-2.0, 2.0)
        closed = eval_kernel(x, t, sigma, y, s)
        quad = oracle.kernel_by_quadrature(x, t, sigma, y, s)
        worst = max(worst, abs(closed - quad.value) / abs(closed))
    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-6 and elapsed < 60.0
    _criterion(
        1,
        "kernel closed form matches independent quadrature at 20 seeded labels",
        ok,
        f"worst rel dev {worst:.3e} <= 1e-6, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_norm_anchor_three_ways():
    by_kernel = complex(eval_kernel(np.zeros(3), 0.0, 1.0, np.zeros(3), 1.0))

    def unit_scale_amp(om, nn, sheet):
        mag = 2.0 * om**2 * np.exp(-om) if sheet == 1 else np.zeros_like(om)
        return mag.astype(complex)

    by_cone = oracle.cone_inner_product(unit_scale_amp, unit_scale_amp)
    # (4 pi^2)^-1 INT_0^inf omega (2 omega^2 e^-omega)^2 / omega^2 domega
    by_gamma = math.gamma(4.0) / (16.0 * math.pi**2)

    values = [by_kernel.real, by_cone.value.real, by_gamma]
    worst = max(
        abs(a - b) / ANCHOR for i, a in enumerate(values) for b in values[i + 1 :]
    )
    ok = (
        worst < 1e-8
        and abs(by_kernel.imag) < 1e-12
        and abs(by_cone.value.imag) < 1e-12
        and by_cone.converged
    )
    _criterion(
        2,
        "self inner product at unit scale equals 3/(8 pi^2) three independent ways",
        ok,
        f"pairwise worst {worst:.3e} <= 1e-8",
    )


def test_criterion_03_scaling_identity_thousand_draws():
    rng = np.random.default_rng(7)
    t_start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        s = (1.0 if rng.uniform() < 0.5 else -1.0) * rng.uniform(0.5, 2.0)
        label = WaveletLabel(rng.uniform(-2.0, 2.0, 3), s)
        x = rng.uniform(-3.0, 3.0, 3)
        t = rng.uniform(-2.0, 2.0)
        lhs, rhs = scaling_check(label, x, t)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-12 and elapsed < 1.0
    _criterion(
        3,
        "dilation covariance holds over 1000 seeded draws",
        ok,
        f"worst rel dev {worst:.3e} <= 1e-12, {elapsed:.2f}s < 1s",
    )


def test_criterion_04_real_zero_at_sqrt_three():
    label = WaveletLabel(np.zeros(3), -1.0)

    def real_part(r):
        return eval_wavelet(label, np.array([r, 0.0, 0.0]), 0.0).real

    root = brentq(real_part, 1.5, 2.0, xtol=1e-12)
    dev = abs(root - math.sqrt(3.0))
    ok = dev < 1e-9
    _criterion(
        4,
        "equal-time wavelet real part vanishes at r = sqrt(3)|s|",
        ok,
        f"|root - sqrt(3)| = {dev:.3e} <= 1e-9",
    )


def test_criterion_05_wave_equation_residual_order():
    rng = np.random.default_rng(11)
    label = WaveletLabel(np.zeros(3), -1.0)
    pts = rng.uniform(-1.5, 1.5, (10, 3))
    ts = rng.uniform(-1.0, 1.0, 10)
    steps = (1e-2, 5e-3, 2.5e-3)

    def residual_rms(h):
        acc = 0.0
        for x, t in zip(pts, ts):
            w0 = eval_wavelet(label, x, t)
            wtt = (
                eval_wavelet(label, x, t + h) - 2.0 * w0 + eval_wavelet(label, x, t - h)
            ) / h**2
            lap = 0.0 + 0.0j
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = h
                lap += (
                    eval_wavelet(label, x + e, t)
                    - 2.0 * w0
                    + eval_wavelet(label, x - e, t)
                ) / h**2
            acc += abs(wtt - lap) ** 2
        return math.sqrt(acc / len(pts))

    res = [residual_rms(h) for h in steps]
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    ok = all(1.8 <= o <= 2.2 for o in orders)
    _criterion(
        5,
        "wave-equation residual of the wavelet converges at second order",
        ok,
        f"orders {', '.join(f'{o:.3f}' for o in orders)} in [1.8, 2.2]",
    )


def _gaussian_spectrum_aligned(y, B=6.0, n=40):
    # rotated tensor rule over the half space p.y > 0: the transform's gate
    # is the constant 2 at every node, keeping the integrand smooth
    yhat = np.asarray(y, dtype=float) / np.linalg.norm(y)
    seed_cols = np.column_stack([yhat, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if abs(np.linalg.det(seed_cols)) < 1e-8:
        seed_cols = np.column_stack([yhat, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    Q, _ = np.linalg.qr(seed_cols)
    if np.dot(Q[:, 0], yhat) < 0:
        Q[:, 0] = -Q[:, 0]
    u, wu = np.polynomial.legendre.leggauss(n)
    q1, w1 = 0.5 * B * (u + 1.0), 0.5 * B * wu
    q2, w2 = B * u, B * wu
    G1, G2, G3 = np.meshgrid(q1, q2, q2, indexing="ij")
    nodes = np.stack([G1.ravel(), G2.ravel(), G3.ravel()], axis=1) @ Q.T
    weights = (w1[:, None, None] * w2[None, :, None] * w2[None, None, :]).ravel()
    values = (2.0 * np.pi) ** 1.5 * np.exp(-0.5 * np.sum(nodes**2, axis=1))
    return Spectrum(nodes, weights, values.astype(complex))


def test_criterion_06_ast_line_matches_fourier():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 3)
        y = rng.normal(size=3)
        y *= rng.uniform(0.7, 1.3) / np.linalg.norm(y)
        sig = LineSignal(lambda tau: np.exp(-0.5 * np.sum((x + np.multiply.outer(tau, y)) ** 2, axis=-1)))
        T = (np.linalg.norm(x) + 8.0) / np.linalg.norm(y)
        line = ast_line(sig, T, max(400, int(24 * T)))
        four = ast_fourier(_gaussian_spectrum_aligned(y), x, y)
        worst = max(worst, abs(line - four) / abs(four))
    const = ast_line(LineSignal(lambda tau: np.ones_like(tau), decay="constant", limit=1.0), 10.0, 64)
    const_dev = abs(const - 1.0)
    ok = worst < 1e-6 and const_dev < 1e-8
    _criterion(
        6,
        "line-integral and gated-Fourier analytic-signal transforms agree",
        ok,
        f"worst rel dev {worst:.3e} <= 1e-6, constant dev {const_dev:.1e} <= 1e-8",
    )


def test_criterion_07_parseval_chain(reference):
    t_start = time.perf_counter()
    nm = transform.norm_momentum(reference["amp_a"])
    gap = abs(transform.norm_euclidean(reference["coeffs_a"]) - nm) / nm

    # double every grid resolution: spatial 32 -> 64, scale nodes 24 -> 48
    ygrid2 = grids.build_spatial_grid(2 * REF_N, REF_L)
    sgrid2 = grids.build_scale_grid(REF_BAND, 2 * REF_SNODES)
    cone2 = grids.build_cartesian_cone_grid(ygrid2, *REF_BAND)
    amp2 = amplitude_from_scalar(cone2, _ref_profile_a)
    nm2 = transform.norm_momentum(amp2)
    gap2 = abs(transform.norm_euclidean(transform.analyze(amp2, ygrid2, sgrid2)) - nm2) / nm2
    elapsed = time.perf_counter() - t_start
    ok = gap < 1e-2 and gap2 < gap and elapsed < 300.0
    _criterion(
        7,
        "scale-space norm matches momentum norm and refines with resolution",
        ok,
        f"gap {gap:.3e} <= 1e-2, doubled-resolution gap {gap2:.3e} < gap, {elapsed:.0f}s < 300s",
    )


def test_criterion_08_reconstruction_and_inner_product(reference):
    rng = np.random.default_rng(88)
    probes = rng.uniform(-0.3 * REF_L / 2, 0.3 * REF_L / 2, (50, 3))
    coeffs_a = reference["coeffs_a"]
    amp_a, amp_b = reference["amp_a"], reference["amp_b"]
    worst_rel = 0.0
    for t in (0.0, 1.0):
        rec = transform.synthesize_many(coeffs_a, probes, t)
        ref = np.stack(
            [evaluate_field(amp_a, SpacetimePoint(x, t)).F for x in probes]
        )
        worst_rel = max(
            worst_rel, float(np.linalg.norm(rec - ref) / np.linalg.norm(ref))
        )

    coeffs_b = transform.analyze(amp_b, reference["ygrid"], reference["sgrid"])
    euc = transform.inner_product(coeffs_a, coeffs_b)
    omega = np.linalg.norm(amp_a.grid.nodes, axis=1)
    fa = fieldcore.amplitude_vectors(amp_a)
    fb = fieldcore.amplitude_vectors(amp_b)
    mom = complex(
        np.sum(amp_a.grid.weights * np.sum(np.conj(fa) * fb, axis=1) / omega**2)
    )
    pair_dev = abs(euc - mom) / abs(mom)
    ok = worst_rel < 1e-2 and pair_dev < 1e-2
    _criterion(
        8,
        "round-trip reconstruction and cross inner products reproduce momentum space",
        ok,
        f"worst round-trip rel L2 {worst_rel:.3e} <= 1e-2, inner-product dev {pair_dev:.3e} <= 1e-2",
    )


def test_scale_rule_keeps_the_chain_at_roundoff():
    # the default tolerances (1e-2) would pass a 10^6-fold regression of the scale rule; this bound would not.
    # L = 10 keeps the band below the Nyquist frequency 5.03 at N = 16, so nothing else adds an error
    L = 10.0
    ygrid = grids.build_spatial_grid(16, L)
    sgrid = grids.build_scale_grid(REF_BAND, REF_SNODES)
    amp = amplitude_from_scalar(grids.build_cartesian_cone_grid(ygrid, *REF_BAND), _ref_profile_a)
    coeffs = transform.analyze(amp, ygrid, sgrid)
    nm = transform.norm_momentum(amp)
    gap = abs(transform.norm_euclidean(coeffs) - nm) / nm
    probes = np.random.default_rng(88).uniform(-0.3 * L / 2, 0.3 * L / 2, (50, 3))
    round_trip = 0.0
    for t in (0.0, 1.0):
        rec = transform.synthesize_many(coeffs, probes, t)
        ref = np.stack([evaluate_field(amp, SpacetimePoint(x, t)).F for x in probes])
        round_trip = max(round_trip, float(np.linalg.norm(rec - ref) / np.linalg.norm(ref)))
    bound = sgrid.meta["recovery_bound"]
    print(f"gap {gap:.3e}, round trip {round_trip:.3e}, recovery bound {bound:.3e}")
    assert max(gap, round_trip, bound) <= 1e-10, (gap, round_trip, bound)


def test_criterion_09_nonlocal_equal_time_norm():
    ygrid = grids.build_spatial_grid(16, 10.0)
    cone = grids.build_cartesian_cone_grid(ygrid, 0.3, 2.5, sheets="plus")
    amp = amplitude_from_scalar(
        cone, lambda om, nn, sh: (2.0 * om**2 * np.exp(-3.0 * om)).astype(complex)
    )
    res = transform.norm_nonlocal_t0(amp, ygrid)
    nm = transform.norm_momentum(amp)
    gap = abs(res.value - nm) / nm
    ok = gap < 5e-2 and res.imag_ratio < 1e-8
    _criterion(
        9,
        "equal-time nonlocal quadrature reproduces the momentum norm",
        ok,
        f"gap {gap:.3e} <= 5e-2, imag ratio {res.imag_ratio:.1e} <= 1e-8",
    )


def test_criterion_10_maxwell_constraints(reference):
    probe = grids.build_spatial_grid(2, 2.0)
    amp = reference["amp_a"]
    res = {h: maxwell_residual(amp, probe, 0.4, h) for h in (2e-2, 1e-2, 5e-3)}
    div_orders = [
        math.log2(res[2e-2][0] / res[1e-2][0]),
        math.log2(res[1e-2][0] / res[5e-3][0]),
    ]
    curl_orders = [
        math.log2(res[2e-2][1] / res[1e-2][1]),
        math.log2(res[1e-2][1] / res[5e-3][1]),
    ]

    plus_cone = grids.build_cartesian_cone_grid(reference["ygrid"], *REF_BAND, sheets="plus")
    plus_amp = amplitude_from_scalar(plus_cone, _ref_profile_a)
    coeffs = transform.analyze(plus_amp, reference["ygrid"], reference["sgrid"])
    neg = coeffs.sgrid.nodes < 0
    gate_leak = float(
        np.max(np.abs(coeffs.values[neg])) / np.max(np.abs(coeffs.values))
    )
    ok = (
        all(1.8 <= o <= 2.2 for o in div_orders + curl_orders)
        and gate_leak <= 1e-12
    )
    _criterion(
        10,
        "synthesized fields satisfy the field equations; sheet gating is exact",
        ok,
        f"div orders {div_orders[0]:.2f}/{div_orders[1]:.2f}, "
        f"curl orders {curl_orders[0]:.2f}/{curl_orders[1]:.2f}, gate leak {gate_leak:.1e} <= 1e-12",
    )


def test_criterion_11_byte_identical_outputs_across_workers(tmp_path):
    def scenario(directory):
        return {
            "schema": cli.SCHEMA,
            "pipeline": "analyze",
            "seed": 42,
            "grids": {
                "spatial": {"N": 16, "L": 12.0},
                "scale": {"omega_band": [0.8, 3.5], "nodes_per_sign": 20},
            },
            "amplitude": {"profile": "gaussian", "center": 2.0, "width": 0.35},
            "outputs": {"directory": directory, "coefficients": "c"},
        }

    for name, workers in (("one", 1), ("eight", 8)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario(name)))
        assert cli.run(path, workers=workers) == 0
    payload_one = (tmp_path / "one" / "c.bin").read_bytes()
    payload_eight = (tmp_path / "eight" / "c.bin").read_bytes()
    sha_one = json.loads((tmp_path / "one" / "c.json").read_text())["slice_sha256"]
    sha_eight = json.loads((tmp_path / "eight" / "c.json").read_text())["slice_sha256"]
    ok = payload_one == payload_eight and sha_one == sha_eight
    _criterion(
        11,
        "declared outputs are byte-identical for 1 vs 8 workers",
        ok,
        f"{len(sha_one)} slice sha256, the first {sha_one[0][:12]}... equal: {sha_one == sha_eight}",
    )
