"""Helicity amplitudes on the light cone: frames, constraints, evaluation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emwave import fieldcore, grids, transform
from emwave.errors import EmptyAmplitudeError, EmwaveError, InvalidDirectionError
from emwave.fieldcore import (
    ConeAmplitude,
    ConePoint,
    FieldSample,
    SpacetimePoint,
    _RawVectorField,
    amplitude_from_scalar,
    amplitude_from_vectors,
    amplitude_vectors,
    constraint_residuals,
    evaluate_field,
    maxwell_residual,
    polarization_basis,
)

PI = np.pi


def _radial_amp(grid, s0=1.0):
    return amplitude_from_scalar(
        grid, lambda om, nn, sh: (2.0 * om**2 * np.exp(-om * s0)).astype(complex)
    )


# ---------------------------------------------------------------------------
# polarization frames
# ---------------------------------------------------------------------------


def test_frame_at_north_pole_is_canonical():
    e1, e2, ep, em = polarization_basis(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(e1, [1.0, 0.0, 0.0])
    assert np.allclose(e2, [0.0, 1.0, 0.0])
    assert np.allclose(ep, np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0))
    assert np.allclose(em, np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0))


@pytest.mark.parametrize(
    "n",
    [
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0 + 1e-9],
        [1e-9, 1e-9, 1.0],
        [0.3, -0.4, 0.5],
    ],
)
def test_frame_orthonormal_everywhere(n):
    n = np.asarray(n, dtype=float)
    e1, e2, ep, em = polarization_basis(n)
    nhat = n / np.linalg.norm(n)
    for e in (e1, e2):
        assert abs(np.dot(e, e) - 1.0) < 1e-14
        assert abs(np.dot(e, nhat)) < 1e-14
    assert abs(np.dot(e1, e2)) < 1e-14
    # right-handed: e1 x e2 = n
    assert np.allclose(np.cross(e1, e2), nhat, atol=1e-14)


@given(
    st.tuples(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
    ).filter(lambda v: np.linalg.norm(v) > 1e-3)
)
@settings(max_examples=80, deadline=None)
def test_circular_vectors_are_curl_eigenvectors(n):
    # i n x e+- = -+ e+-  <=>  n x e+- = +- i e+- up to sign convention:
    # the constraint p0 f = i p x f holds for f = e_sheet on each sheet
    n = np.asarray(n, dtype=float)
    nhat = n / np.linalg.norm(n)
    _, _, ep, em = polarization_basis(nhat)
    assert np.allclose(1j * np.cross(nhat, ep), ep, atol=1e-12)
    assert np.allclose(1j * np.cross(nhat, em), -em, atol=1e-12)
    assert abs(np.dot(nhat, ep)) < 1e-12
    assert np.allclose(np.conj(ep), em, atol=1e-12)


def test_zero_direction_rejected():
    with pytest.raises(InvalidDirectionError):
        polarization_basis(np.zeros(3))


# ---------------------------------------------------------------------------
# cone points and samples
# ---------------------------------------------------------------------------


def test_cone_point_frequency_and_energy():
    q = ConePoint(np.array([3.0, 0.0, 4.0]), -1)
    assert q.omega == 5.0
    assert q.p0 == -5.0


def test_cone_point_validation():
    with pytest.raises(EmwaveError):
        ConePoint(np.zeros(3), 1)
    # True and np.array([1]) compared equal to 1 and were accepted
    for sheet in (2, True, np.True_, np.array([1]), 1.0, "1", None):
        with pytest.raises(EmwaveError, match="sheet"):
            ConePoint(np.array([1.0, 0.0, 0.0]), sheet)
    q = ConePoint(np.array([1.0, 0.0, 0.0]), np.int64(-1))
    assert type(q.sheet) is int and q.sheet == -1


def test_spacetime_point_validation():
    with pytest.raises(EmwaveError):
        SpacetimePoint(np.array([1.0, np.inf, 0.0]), 0.0)


def test_field_sample_validation():
    with pytest.raises(EmwaveError):
        FieldSample(np.array([np.nan + 0j, 0, 0]), np.zeros(3), 0.0)


# ---------------------------------------------------------------------------
# amplitudes and constraints
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cone_grid():
    return grids.build_cone_grid(0.5, 3.0, 16, 6)


def test_amplitude_shape_validation(cone_grid):
    with pytest.raises(EmwaveError):
        ConeAmplitude(cone_grid, np.ones(3, dtype=complex))


def test_constructed_amplitudes_satisfy_constraints(cone_grid):
    rng = np.random.default_rng(42)
    amp = amplitude_from_scalar(
        cone_grid,
        lambda om, nn, sh: rng.normal(size=len(om)) + 1j * rng.normal(size=len(om)),
    )
    trans, curl = constraint_residuals(amp)
    assert trans.max() < 1e-13
    assert curl.max() < 1e-13


def test_zero_amplitude_reports_zero_residuals(cone_grid):
    amp = ConeAmplitude(cone_grid, np.zeros(len(cone_grid), dtype=complex))
    trans, curl = constraint_residuals(amp)
    assert trans.max() == 0.0 and curl.max() == 0.0


def test_vector_import_round_trips(cone_grid):
    rng = np.random.default_rng(3)
    values = rng.normal(size=len(cone_grid)) + 1j * rng.normal(size=len(cone_grid))
    amp = ConeAmplitude(cone_grid, values)
    again = amplitude_from_vectors(cone_grid, amplitude_vectors(amp))
    assert np.allclose(again.values, values, atol=1e-13)


def test_vectors_are_built_once_per_amplitude(monkeypatch):
    ygrid = grids.build_spatial_grid(8, 8.0)
    amp = amplitude_from_scalar(grids.build_cartesian_cone_grid(ygrid, 0.9, 2.8), lambda om, nn, sh: om + 0j)
    calls = []
    real = fieldcore._sheet_polarizations
    monkeypatch.setattr(fieldcore, "_sheet_polarizations", lambda grid: calls.append(grid) or real(grid))
    first = amplitude_vectors(amp)
    assert amplitude_vectors(amp) is first and not first.flags.writeable
    transform.analyze(amp, ygrid, grids.build_scale_grid((0.9, 2.8), 6))
    transform.norm_momentum(amp)
    evaluate_field(amp, SpacetimePoint(np.zeros(3), 0.3))
    assert len(calls) == 1
    assert np.array_equal(first, amp.values[:, None] * real(amp.grid))


def test_vector_import_rejects_constraint_violations(cone_grid):
    # a longitudinal amplitude f = p_hat violates transversality everywhere
    omega = np.linalg.norm(cone_grid.nodes, axis=1)
    fvecs = (cone_grid.nodes / omega[:, None]).astype(complex)
    with pytest.raises(EmwaveError, match="constraint"):
        amplitude_from_vectors(cone_grid, fvecs)


def test_wrong_helicity_violates_curl_constraint(cone_grid):
    # swap the circular vectors between sheets: transversality survives,
    # the curl constraint fails with residual exactly 2
    amp = _radial_amp(cone_grid)
    flipped = _RawVectorField(cone_grid, np.conj(amplitude_vectors(amp)))
    trans, curl = constraint_residuals(flipped)
    assert trans.max() < 1e-13
    assert np.allclose(curl, 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# spacetime evaluation
# ---------------------------------------------------------------------------


def test_field_at_origin_matches_hand_integral():
    # amplitude a = 2 omega^2 e^-omega sin(theta) on the plus sheet:
    #   F(0,0) = (2 pi)^-3 (1/2) INT omega a_rad domega . INT sin(theta) e+ dOmega
    # the angular integral is (i / sqrt(2)) (8 pi / 3) z_hat (polynomial in
    # cos theta, so the rule is exact) and the radial integral is
    # 2 Gamma(4) = 12, giving F(0,0) = i sqrt(2) / pi^2 z_hat
    grid = grids.build_cone_grid(5e-4, 60.0, 160, 6, sheets="plus")
    amp = amplitude_from_scalar(
        grid,
        lambda om, nn, sh: (
            2.0 * om**2 * np.exp(-om) * np.hypot(nn[:, 0], nn[:, 1])
        ).astype(complex),
    )
    sample = evaluate_field(amp, SpacetimePoint(np.zeros(3), 0.0))
    target = np.array([0.0, 0.0, np.sqrt(2.0) / PI**2]) * 1j
    assert np.max(np.abs(sample.F - target)) / np.linalg.norm(target) < 1e-8


def test_evaluation_is_linear(cone_grid):
    rng = np.random.default_rng(7)
    va = rng.normal(size=len(cone_grid)) + 1j * rng.normal(size=len(cone_grid))
    vb = rng.normal(size=len(cone_grid)) + 1j * rng.normal(size=len(cone_grid))
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
    pt = SpacetimePoint(np.array([0.3, -1.2, 0.8]), 0.6)
    Fa = evaluate_field(ConeAmplitude(cone_grid, va), pt).F
    Fb = evaluate_field(ConeAmplitude(cone_grid, vb), pt).F
    Fab = evaluate_field(ConeAmplitude(cone_grid, alpha * va + beta * vb), pt).F
    assert np.allclose(Fab, alpha * Fa + beta * Fb, atol=1e-13)


def test_translation_covariance(cone_grid):
    # multiplying the amplitude by e^{-i p.a} shifts the field by a
    amp = _radial_amp(cone_grid)
    a = np.array([0.4, -0.9, 1.3])
    phase = np.exp(-1j * (cone_grid.nodes @ a))
    shifted = ConeAmplitude(cone_grid, amp.values * phase)
    x = np.array([0.2, 0.5, -0.7])
    t = 0.8
    F1 = evaluate_field(shifted, SpacetimePoint(x, t)).F
    F2 = evaluate_field(amp, SpacetimePoint(x - a, t)).F
    assert np.allclose(F1, F2, rtol=1e-13)


def test_time_evolution_is_a_phase(cone_grid):
    # on a single sheet, advancing t by dt multiplies each mode by
    # e^{-i p0 dt}; realized by re-weighting the amplitude
    grid = grids.build_cone_grid(0.5, 3.0, 16, 6, sheets="plus")
    amp = _radial_amp(grid)
    dt = 0.37
    omega = np.linalg.norm(grid.nodes, axis=1)
    evolved = ConeAmplitude(grid, amp.values * np.exp(-1j * omega * dt))
    x = np.array([0.1, -0.2, 0.3])
    F1 = evaluate_field(evolved, SpacetimePoint(x, 0.5)).F
    F2 = evaluate_field(amp, SpacetimePoint(x, 0.5 + dt)).F
    assert np.allclose(F1, F2, rtol=1e-13)


def test_complex_time_damps_and_gates(cone_grid):
    amp = _radial_amp(cone_grid)
    pt = SpacetimePoint(np.zeros(3), 0.0)
    plain = evaluate_field(amp, pt)
    continued = evaluate_field(amp, pt, s=0.5)
    assert continued.t == complex(0.0, -0.5)
    assert plain.t == complex(0.0)
    # both sheets present: the continued field keeps only the matching
    # sheet (gated by 2) and damps it, so the values must differ
    assert not np.allclose(plain.F, continued.F)


def test_empty_amplitude_rejected():
    empty = grids.QuadratureGrid(
        "cone",
        np.zeros((0, 3)),
        np.zeros(0),
        np.zeros(0, dtype=np.int8),
        {"builder": "cone", "args": {}},
    )
    amp = ConeAmplitude(empty, np.zeros(0, dtype=complex))
    with pytest.raises(EmptyAmplitudeError):
        evaluate_field(amp, SpacetimePoint(np.zeros(3), 0.0))


# ---------------------------------------------------------------------------
# Maxwell residuals
# ---------------------------------------------------------------------------


def test_maxwell_residuals_shrink_at_second_order(cone_grid):
    amp = _radial_amp(cone_grid)
    probe = grids.build_spatial_grid(2, 2.0)
    res = {h: maxwell_residual(amp, probe, 0.4, h) for h in (1e-2, 5e-3)}
    div_order = np.log2(res[1e-2][0] / res[5e-3][0])
    curl_order = np.log2(res[1e-2][1] / res[5e-3][1])
    assert 1.8 < div_order < 2.2
    assert 1.8 < curl_order < 2.2


def test_wrong_helicity_fails_maxwell(cone_grid):
    # negative control: conjugated vectors satisfy div F = 0 but not the
    # dynamic equation; the curl residual must not vanish with h
    amp = _radial_amp(cone_grid)
    flipped = _RawVectorField(cone_grid, np.conj(amplitude_vectors(amp)))
    probe = grids.build_spatial_grid(2, 2.0)
    r1 = maxwell_residual(flipped, probe, 0.4, 1e-2)
    r2 = maxwell_residual(flipped, probe, 0.4, 5e-3)
    assert r1[1] > 1e-3 and r2[1] > 1e-3
    assert abs(r1[1] / r2[1] - 1.0) < 0.05  # stuck, not converging


def test_maxwell_residual_validates_inputs(cone_grid):
    amp = _radial_amp(cone_grid)
    probe = grids.build_spatial_grid(2, 2.0)
    with pytest.raises(EmwaveError):
        maxwell_residual(amp, probe, 0.0, -1e-3)
    with pytest.raises(EmwaveError):
        maxwell_residual(amp, grids.build_scale_grid((0.5, 2.0), 12), 0.0, 1e-3)


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda amp, probe: SpacetimePoint(np.zeros(3), "1"), "t="),  # used to escape as TypeError
        (lambda amp, probe: SpacetimePoint(np.zeros(3), True), "t="),  # used to be read as 1
        (lambda amp, probe: evaluate_field(amp, SpacetimePoint(np.zeros(3), 0.0), np.nan), "s="),  # named F
        (lambda amp, probe: evaluate_field(amp, SpacetimePoint(np.zeros(3), 0.0), "1"), "s="),  # TypeError
        (lambda amp, probe: maxwell_residual(amp, probe, np.nan, 1e-3), "t="),  # returned NaN residuals
        (lambda amp, probe: maxwell_residual(amp, probe, 0.0, np.inf), "h="),  # ended in a RuntimeWarning
        (lambda amp, probe: maxwell_residual(amp, probe, 0.0, "1e-3"), "h="),  # escaped as TypeError
    ],
    ids=["point-t-text", "point-t-bool", "field-s-nan", "field-s-text", "maxwell-t-nan", "maxwell-h-inf",
         "maxwell-h-text"],
)
def test_numbers_of_the_wrong_kind_are_refused_by_name(cone_grid, call, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmwaveError, match=needle):
            call(_radial_amp(cone_grid), grids.build_spatial_grid(2, 2.0))
