"""Quadrature grid construction: measure factors, recovery, rebuildability."""

import json

import numpy as np
import pytest

from emwave import grids
from emwave.errors import EmwaveError

PI = np.pi


# ---------------------------------------------------------------------------
# cone grids
# ---------------------------------------------------------------------------


def _cone_sum(grid, fn):
    """Weighted sum of fn(omega, nhat, sheet) over the grid nodes."""
    omega = np.linalg.norm(grid.nodes, axis=1)
    nhat = grid.nodes / omega[:, None]
    return np.sum(grid.weights * fn(omega, nhat, grid.sheets))


def test_cone_measure_reproduces_radial_integral():
    # smooth integrand e^-omega: the cone measure collapses to
    # (1/4pi^2) INT omega e^-omega domega = 1/(4pi^2) per sheet
    grid = grids.build_cone_grid(5e-4, 60.0, 128, 8)
    value = _cone_sum(grid, lambda om, nn, sh: np.exp(-om))
    target = 2.0 / (4.0 * PI**2)
    assert abs(value - target) / target < 1e-6


def test_cone_measure_with_angular_dependence():
    # (1 + nz^2) averages to 4/3 over the sphere
    grid = grids.build_cone_grid(5e-4, 60.0, 128, 8)
    value = _cone_sum(grid, lambda om, nn, sh: np.exp(-om) * (1.0 + nn[:, 2] ** 2))
    target = 2.0 * (4.0 / 3.0) / (4.0 * PI**2)
    assert abs(value - target) / target < 1e-6


def test_cone_norm_family_integral_matches_gamma():
    # the frequency-weighted square of a = 2 omega^2 e^-omega reduces to
    # (1/pi^2) INT omega^3 e^-2omega domega = (1/pi^2) Gamma(4)/2^4 = 3/(8 pi^2)
    grid = grids.build_cone_grid(5e-3, 40.0, 128, 6, sheets="plus")
    # |a|^2 / omega^2 with the measure already in the weights
    value = _cone_sum(grid, lambda om, nn, sh: (2.0 * om**2 * np.exp(-om)) ** 2 / om**2)
    target = 3.0 / (8.0 * PI**2)
    assert abs(value - target) / target < 1e-8


def test_cone_radial_doubling_is_converged():
    coarse = grids.build_cone_grid(0.5, 3.0, 32, 6)
    fine = grids.build_cone_grid(0.5, 3.0, 64, 6)
    fn = lambda om, nn, sh: np.exp(-om) * (1.0 + 0.3 * nn[:, 0])
    a, b = _cone_sum(coarse, fn), _cone_sum(fine, fn)
    assert abs(a - b) / abs(b) < 1e-10


@pytest.mark.parametrize("sheets,expect", [("plus", {1}), ("minus", {-1}), ("both", {1, -1})])
def test_cone_sheet_selection(sheets, expect):
    grid = grids.build_cone_grid(0.5, 2.0, 4, 3, sheets=sheets)
    assert set(np.unique(grid.sheets).tolist()) == expect


def test_unknown_sheet_selection_rejected_by_both_cone_builders():
    with pytest.raises(EmwaveError, match="unknown sheet selection"):
        grids.build_cone_grid(0.5, 2.0, 4, 3, sheets="up")
    with pytest.raises(EmwaveError, match="unknown sheet selection"):
        grids.build_cartesian_cone_grid(grids.build_spatial_grid(8, 8.0), 0.9, 2.8, sheets="up")


def test_gauss_legendre_panels_composite_rule():
    edges = [0.0, 0.5, 2.0, 3.0]
    nodes, weights = grids.gauss_legendre_panels(edges, 4)
    assert nodes.shape == weights.shape == (12,)
    # 4 nodes per panel integrate degree 7 exactly, each panel inside its edges
    assert np.sum(weights * nodes**7) == pytest.approx(3.0**8 / 8.0, rel=1e-14)
    assert np.all(np.diff(nodes) > 0) and nodes[0] > 0.0 and nodes[-1] < 3.0
    assert np.sum(weights[4:8]) == pytest.approx(1.5, rel=1e-15)


def test_cone_invalid_band_rejected():
    with pytest.raises(EmwaveError):
        grids.build_cone_grid(2.0, 1.0, 8, 4)
    with pytest.raises(EmwaveError):
        grids.build_cone_grid(0.0, 1.0, 8, 4)
    with pytest.raises(EmwaveError):
        grids.build_cone_grid(0.5, np.inf, 8, 4)


# ---------------------------------------------------------------------------
# scale grids
# ---------------------------------------------------------------------------


def test_scale_grid_recovers_exponential_integral():
    band = (0.5, 4.0)
    grid = grids.build_scale_grid(band, 48)
    for omega in (0.5, 1.0, 2.0, 4.0):
        assert grids.scale_recovery_error(grid, omega) < 1e-6


def test_scale_grid_both_signs_symmetric():
    grid = grids.build_scale_grid((0.5, 4.0), 24, "both")
    pos = np.sort(grid.nodes[grid.nodes > 0])
    neg = np.sort(-grid.nodes[grid.nodes < 0])
    assert np.array_equal(pos, neg)
    assert len(pos) + len(neg) == len(grid)


@pytest.mark.parametrize(
    "band, nodes, signs",
    [((0.5, 4.0), 12, "both"), ((0.5, 4.0), 24, "minus"), ((0.8, 3.5), 20, "both"), ((0.9, 2.8), 8, "plus")],
)
def test_scale_grid_recovery_bound_covers_the_band(band, nodes, signs):
    grid = grids.build_scale_grid(band, nodes, signs)
    worst = grids.scale_recovery_error(grid, np.geomspace(*band, 10**4)).max()
    assert grid.meta["recovery_bound"] >= worst * (1.0 - 1e-9)


def test_scale_grid_recovery_bound_shrinks_with_nodes():
    bounds = [grids.build_scale_grid((0.5, 4.0), n).meta["recovery_bound"] for n in (12, 24, 48)]
    assert bounds == pytest.approx([1.0415e-1, 4.6549e-4, 5.5337e-7], rel=1e-4)
    assert bounds[0] > bounds[1] > bounds[2]


def test_scale_grid_nodes_never_zero():
    grid = grids.build_scale_grid((0.5, 4.0), 24)
    assert np.all(grid.nodes != 0.0)


@pytest.mark.parametrize("band", [(0.9, 1e307), (1e-307, 2.8), (1e-300, 1e300)])
def test_scale_grid_rejects_non_finite_quadrature(band):
    # s_min = 0.05 / omega_max underflows or s_max / s_min overflows
    with pytest.raises(EmwaveError, match="not a positive finite number"):
        grids.build_scale_grid(band, 24)


def test_scale_grid_single_sign():
    grid = grids.build_scale_grid((0.5, 4.0), 20, "plus")
    assert np.all(grid.nodes > 0)


# ---------------------------------------------------------------------------
# spatial grids
# ---------------------------------------------------------------------------


def test_spatial_grid_spacing_and_nyquist():
    grid = grids.build_spatial_grid(32, 20.0)
    assert grid.meta["spacing"] == 0.625
    assert grid.meta["nyquist"] == pytest.approx(PI * 32 / 20.0)
    assert len(grid) == 32**3
    assert np.all(grid.weights == 0.625**3)


def test_spatial_grid_rejects_bad_sizes():
    with pytest.raises(EmwaveError):
        grids.build_spatial_grid(12, 10.0)  # not a power of two
    with pytest.raises(EmwaveError):
        grids.build_spatial_grid(16, -1.0)
    for L in (1e300, 1e-300):  # the cell volume (L/N)^3 overflows or underflows
        with pytest.raises(EmwaveError, match="cell volume"):
            grids.build_spatial_grid(8, L)


def test_spatial_parseval_on_sampled_gaussian():
    grid = grids.build_spatial_grid(32, 20.0)
    delta = grid.meta["spacing"]
    r2 = np.sum(grid.nodes**2, axis=1)
    f = np.exp(-0.5 * r2).reshape(32, 32, 32)
    lhs = delta**3 * np.sum(np.abs(f) ** 2)
    # momentum-side sum: |fhat|^2 over cells of volume (2pi/L)^3 / (2pi)^3
    fhat = delta**3 * np.fft.fftn(f)
    rhs = np.sum(np.abs(fhat) ** 2) / 20.0**3
    assert abs(lhs - rhs) / lhs < 1e-8


def test_spatial_axis_is_centered():
    grid = grids.build_spatial_grid(16, 8.0)
    ax = grids.spatial_axis(grid)
    assert ax[0] == -4.0 and 0.0 in ax
    assert np.allclose(np.diff(ax), 0.5)


# ---------------------------------------------------------------------------
# lattice cone grids
# ---------------------------------------------------------------------------


def test_cartesian_cone_band_selection():
    spatial = grids.build_spatial_grid(16, 12.0)
    cone = grids.build_cartesian_cone_grid(spatial, 0.8, 3.5)
    omega = np.linalg.norm(cone.nodes, axis=1)
    assert np.all((omega >= 0.8) & (omega <= 3.5))
    # both sheets, mirrored node blocks
    half = len(cone) // 2
    assert np.array_equal(cone.nodes[:half], cone.nodes[half:])
    assert np.all(cone.sheets[:half] == 1) and np.all(cone.sheets[half:] == -1)


def test_cartesian_cone_weights_carry_measure():
    spatial = grids.build_spatial_grid(16, 12.0)
    cone = grids.build_cartesian_cone_grid(spatial, 0.8, 3.5, sheets="plus")
    omega = np.linalg.norm(cone.nodes, axis=1)
    dp = 2.0 * PI / 12.0
    expected = dp**3 / ((2.0 * PI) ** 3 * 2.0 * omega)
    assert np.allclose(cone.weights, expected, rtol=1e-14)


def test_cartesian_cone_empty_band_rejected():
    spatial = grids.build_spatial_grid(16, 12.0)
    with pytest.raises(EmwaveError):
        # below the smallest nonzero lattice frequency
        grids.build_cartesian_cone_grid(spatial, 1e-4, 2e-4)


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------


ALL_GRIDS = [
    lambda: grids.build_cone_grid(0.5, 3.0, 12, 4),
    lambda: grids.build_cone_grid(0.5, 3.0, 12, 4, sheets="minus"),
    lambda: grids.build_scale_grid((0.5, 4.0), 24),
    lambda: grids.build_scale_grid((0.5, 4.0), 20, "plus"),
    lambda: grids.build_spatial_grid(16, 12.0),
    lambda: grids.build_cartesian_cone_grid(grids.build_spatial_grid(16, 12.0), 0.8, 3.5),
]


@pytest.mark.parametrize("make", ALL_GRIDS)
def test_weights_strictly_positive(make):
    grid = make()
    assert np.all(grid.weights > 0)


@pytest.mark.parametrize("make", ALL_GRIDS)
def test_metadata_rebuild_equality(make):
    grid = make()
    again = grids.rebuild(grid)
    assert grids.grids_equal(grid, again)


@pytest.mark.parametrize("make", ALL_GRIDS)
def test_json_record_rebuild_equality(make):
    # a coefficient manifest stores the record as JSON: tuples come back as lists
    grid = make()
    record = json.loads(json.dumps(grid.meta["args"]))
    assert grids.grids_equal(grid, grids.build_from_record(grid.meta["builder"], record))


def test_grids_equal_discriminates():
    a = grids.build_scale_grid((0.5, 4.0), 24)
    b = grids.build_scale_grid((0.5, 4.0), 20)
    assert not grids.grids_equal(a, b)


def test_nodes_are_read_only():
    grid = grids.build_spatial_grid(16, 12.0)
    with pytest.raises(ValueError):
        grid.nodes[0, 0] = 99.0
