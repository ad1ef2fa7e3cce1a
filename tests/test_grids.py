"""Quadrature grid construction: measure factors, recovery, rebuildability."""

import json
import tracemalloc

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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 33, 64, 128])
def test_legendre_rule_is_exact_to_degree_2n_minus_1(n):
    x, w = grids._legendre_rule(n)
    assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])  # mirror images, 0.0 in the middle
    assert not np.signbit(x[n // 2 :]).any()
    for degree in range(2 * n):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(np.sum(w * x**degree) - exact) <= 1e-14, degree


def test_legendre_rule_matches_scipy_roots_legendre():
    # scipy's rule comes from an eigen-solve with one Newton step and renormalized
    # weights; its weights carry up to about 3e-12 of relative error by n = 64
    # (against a 50-digit rule: 1.7e-12 at n = 50, where this rule's is 4e-14)
    from scipy.special import roots_legendre

    for n in range(2, 65):
        x, w = grids._legendre_rule(n)
        xs, ws = roots_legendre(n)
        assert np.max(np.abs(x - xs)) <= np.spacing(1.0), n  # within 1 ulp of 1
        assert np.max(np.abs(w - ws) / ws) <= 5e-12, n


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
    # the double-exponential rule's trapezoid error at 12 and 24 nodes, then the rounding allowance 51 eps
    assert bounds[:2] == pytest.approx([3.3930e-6, 5.1237e-12], rel=1e-4)
    assert bounds[2] < 2e-14
    assert bounds[0] > bounds[1] > bounds[2]


def test_scale_grid_nodes_never_zero():
    grid = grids.build_scale_grid((0.5, 4.0), 24)
    assert np.all(grid.nodes != 0.0)


@pytest.mark.parametrize("band", [(0.9, 1e307), (1e-307, 2.8), (1e-300, 1e300)])
def test_scale_grid_rejects_non_finite_quadrature(band):
    # a node of some scanned rule underflows or overflows the normal float range
    with pytest.raises(EmwaveError, match="not a positive finite number"):
        grids.build_scale_grid(band, 24)


def test_scale_grid_single_sign():
    grid = grids.build_scale_grid((0.5, 4.0), 20, "plus")
    assert np.all(grid.nodes > 0)


@pytest.mark.parametrize("signs", ["both", "plus", "minus"])
def test_scale_builder_grid_is_its_own_rule(signs):
    # the builder hands its rule to the one constructor a coefficient file also uses
    grid = grids.build_scale_grid((0.5, 4.0), 20, signs)
    rule = grids.scale_grid_from_rule(grid.nodes, grid.weights, (0.5, 4.0), signs)
    assert grids.grids_equal(rule, grid)
    assert rule.meta == {"args": {"omega_band": (0.5, 4.0), "signs": signs},
                         "recovery_bound": grid.meta["recovery_bound"]}


@pytest.mark.parametrize(
    "nodes, weights, signs, needle",
    [
        ([0.5, 1.0], [0.1, 0.2, 0.3], "plus", "1-D nodes and weights of one nonzero length"),
        ([], [], "plus", "nonzero length"),
        ([0.5, 0.0], [0.1, 0.2], "plus", "not a positive finite number"),
        ([0.5, 1.0], [0.1, -0.2], "plus", "not a positive finite number"),
        ([0.5, -1.0], [0.1, 0.2], "plus", "not laid out for signs 'plus'"),
        ([-0.5, 1.0], [0.1, 0.2], "minus", "not laid out for signs 'minus'"),
        ([0.5, 1.0, -0.5, -1.0], [0.1, 0.2, 0.1, 0.3], "both", "not laid out for signs 'both'"),
        ([0.5, 1.0, -1.0, -0.5], [0.1, 0.2, 0.2, 0.1], "both", "not laid out for signs 'both'"),
        ([0.5, 1.0, -0.5], [0.1, 0.2, 0.1], "both", "not laid out for signs 'both'"),
        ([0.5, 1.0], [0.1, 0.2], "up", "unknown sheet selection 'up'"),
        ([0.001, 1.0], [1e308, 0.1], "plus", r"recovery error over the band \[0.5, 4.0\] is not a finite number"),
    ],
)
def test_scale_rule_is_refused_by_what_is_wrong(nodes, weights, signs, needle):
    with pytest.raises(EmwaveError, match=needle):
        grids.scale_grid_from_rule(nodes, weights, (0.5, 4.0), signs)


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


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: grids.build_scale_grid((0.5, 4.0), 6.5), "nodes_per_sign"),  # used to raise TypeError
        (lambda: grids.build_scale_grid((0.5, 4.0), True), "nodes_per_sign"),  # used to be read as 1
        (lambda: grids.build_scale_grid((0.5, 4.0), 24.0), "nodes_per_sign"),
        (lambda: grids.build_spatial_grid(8.0, 5.0), "N"),  # used to raise TypeError
        (lambda: grids.build_spatial_grid(True, 5.0), "N"),
        (lambda: grids.build_cone_grid(0.5, 3.0, 6.5, 4), "radial_nodes"),  # used to raise scipy's ValueError
        (lambda: grids.build_cone_grid(0.5, 3.0, 6, True), "angular_order"),
        (lambda: grids.gauss_legendre_panels([0.0, 1.0], 6.5), "n"),  # used to raise scipy's ValueError
        (lambda: grids.gauss_legendre_panels([0.0, 1.0], True), "n"),  # used to be read as 1
    ],
    ids=["scale-6.5", "scale-True", "scale-24.0", "spatial-8.0", "spatial-True", "cone-radial-6.5", "cone-angular-True",
         "panels-6.5", "panels-True"],
)
def test_grid_counts_must_be_true_integers(build, name):
    with pytest.raises(EmwaveError, match=f"^{name} must be an integer"):
        build()


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: grids.build_spatial_grid(8, "5"), "L="),  # used to raise TypeError
        (lambda: grids.build_spatial_grid(8, True), "L="),  # used to be read as 1
        (lambda: grids.build_cone_grid(0.5, "3", 6, 4), "omega_max="),
        (lambda: grids.build_scale_grid((0.5, 4.0, 9.0), 6), "omega_band="),  # used to raise ValueError
        (lambda: grids.scale_recovery_error(grids.build_scale_grid((0.5, 4.0), 6), np.nan), "omega="),
        (lambda: grids.gauss_legendre_panels([0.0, np.nan], 4), "edges="),  # used to return NaN nodes
        (lambda: grids.gauss_legendre_panels([-np.inf, 1.0], 4), "edges="),
        (lambda: grids.gauss_legendre_panels(0.5, 4), "edges must be a 1-D array"),
    ],
    ids=["spatial-L-text", "spatial-L-bool", "cone-band-text", "scale-band-triple", "recovery-nan", "panels-edge-nan",
         "panels-edge-inf", "panels-edge-scalar"],
)
def test_grid_numbers_must_be_finite_reals(build, needle):
    with pytest.raises(EmwaveError, match=needle):
        build()


def test_grid_counts_accept_numpy_integers():
    assert len(grids.build_scale_grid((0.5, 4.0), np.int64(6))) == 12
    assert len(grids.build_spatial_grid(np.int32(4), 5.0)) == 64


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


@pytest.mark.parametrize("sheets", ["both", "minus"])
def test_cartesian_cone_nodes_are_the_momentum_mesh_at_the_band(sheets):
    spatial = grids.build_spatial_grid(16, 12.0)
    cone = grids.build_cartesian_cone_grid(spatial, 0.8, 3.5, sheets)
    P, Omega = grids.momentum_mesh(spatial)
    flat = np.flatnonzero(((Omega >= 0.8) & (Omega <= 3.5)).ravel())
    assert np.array_equal(cone.meta["flat_indices"], flat)
    blocks = 2 if sheets == "both" else 1
    assert np.array_equal(cone.nodes, np.tile(P.reshape(-1, 3)[flat], (blocks, 1)))
    # the broadcast |k| has the bits of the norms of the momentum vectors
    assert np.array_equal(Omega, np.sqrt(P[..., 0] ** 2 + P[..., 1] ** 2 + P[..., 2] ** 2))


def test_lattice_magnitudes_hold_no_momentum_array():
    # broadcast from the 1-D axis: the (N, N, N, 3) vectors and three meshgrid
    # copies of the momentum axis used to take 16 MiB at N = 64
    spatial = grids.build_spatial_grid(64, 20.0)
    tracemalloc.start()
    try:
        grids.momentum_magnitudes(spatial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * 64**3


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
