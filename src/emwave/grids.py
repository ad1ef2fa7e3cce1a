"""Quadrature and sampling grids.

Momentum-space grids absorb the Lorentz-invariant cone measure

    (2 pi)^-3 d^3p / (2 |p|)

into their weights once, at construction time, so every downstream momentum
integral is a plain weighted sum over nodes.  Scale grids discretize the
half-line integral over the scale parameter s, whose integrands decay like
exp(-2 omega |s|); spatial grids are uniform periodic boxes with their
conjugate momentum lattice exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.special import roots_legendre

from .errors import EmwaveError

__all__ = [
    "QuadratureGrid",
    "build_cone_grid",
    "build_scale_grid",
    "build_spatial_grid",
    "build_cartesian_cone_grid",
    "gauss_legendre_panels",
    "spatial_axis",
    "momentum_axis",
    "momentum_mesh",
    "scale_recovery_error",
    "rebuild",
    "grids_equal",
]

TWO_PI = 2.0 * np.pi
MEASURE_PREFACTOR = (2.0 * np.pi) ** -3


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and weights for one of the integrals used by the package.

    Parameters
    ----------
    kind : str
        One of ``"cone"`` (momentum-space double light cone), ``"scale"``
        (signed scale parameter s), ``"spatial"`` (uniform periodic box).
    nodes : ndarray
        ``(M, 3)`` coordinate vectors for cone/spatial grids (components
        ordered ``(x, y, z)``), or ``(M,)`` scale values for scale grids.
    weights : ndarray
        ``(M,)`` strictly positive weights.  Cone weights include the
        ``(2 pi)^-3 / (2 omega)`` measure factor; spatial weights are the
        cell volume; scale weights are plain quadrature weights.
    sheets : ndarray or None
        ``(M,)`` entries ``+1``/``-1`` selecting the positive/negative
        frequency sheet; ``None`` for non-cone grids.
    meta : dict
        Construction record.  ``meta["builder"]`` and ``meta["args"]``
        fully determine the grid (see `rebuild`); other keys hold derived
        conveniences (band edges, lattice indices, recovery bounds...).
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    sheets: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.sheets):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return self.nodes.shape[0]


def _validate_band(omega_min: float, omega_max: float) -> None:
    if not (0.0 < omega_min < omega_max) or not np.isfinite(omega_max):
        raise EmwaveError(
            f"invalid frequency band [{omega_min}, {omega_max}]: "
            "need 0 < omega_min < omega_max < inf (the origin is excluded)"
        )


def gauss_legendre_panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ``n`` nodes on each panel between consecutive ``edges``.

    Panel ``[a, b]`` gets the nodes ``a + (b - a)/2 (x + 1)`` and weights
    ``(b - a)/2 w`` of the n-point rule ``(x, w)`` on [-1, 1]; nodes and
    weights come back flat, panel by panel.
    """
    x, w = roots_legendre(n)
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - a)
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def _per_sheet(p: np.ndarray, w: np.ndarray, sheets: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and sheet labels with ``p`` and ``w`` repeated once per selected sheet."""
    if sheets not in ("both", "plus", "minus"):
        raise EmwaveError(f"unknown sheet selection {sheets!r}")
    blocks = {"both": (1, -1), "plus": (1,), "minus": (-1,)}[sheets]
    nodes = np.concatenate([p] * len(blocks), axis=0)
    weights = np.concatenate([w] * len(blocks))
    labels = np.concatenate([np.full(len(p), b, dtype=np.int8) for b in blocks])
    return nodes, weights, labels


def build_cone_grid(
    omega_min: float,
    omega_max: float,
    radial_nodes: int,
    angular_order: int,
    sheets: str = "both",
) -> QuadratureGrid:
    """Tensor radial x angular quadrature grid on the double light cone.

    Radial rule: Gauss-Legendre on the band ``[omega_min, omega_max]``.
    Angular rule: Gauss-Legendre in cos(theta) of the given order times a
    uniform midpoint rule in phi with twice that many nodes (exact for
    azimuthal harmonics below the order).  Weights absorb the invariant
    measure ``(2 pi)^-3 d^3p / (2 omega)``.

    Parameters
    ----------
    omega_min, omega_max : float
        Frequency band, ``0 < omega_min < omega_max``.
    radial_nodes : int
        Gauss-Legendre node count on the band.
    angular_order : int
        Node count in cos(theta); phi gets ``2 * angular_order`` nodes.
    sheets : {"both", "plus", "minus"}
        Which cone sheets to populate.
    """
    _validate_band(omega_min, omega_max)
    if radial_nodes < 2 or angular_order < 2:
        raise EmwaveError("cone grid needs at least 2 radial and 2 angular nodes")

    omega, w_omega = gauss_legendre_panels((omega_min, omega_max), radial_nodes)
    mu, w_mu = roots_legendre(angular_order)
    n_phi = 2 * angular_order
    phi = TWO_PI * (np.arange(n_phi) + 0.5) / n_phi
    w_phi = TWO_PI / n_phi

    sin_theta = np.sqrt(1.0 - mu**2)
    # direction table, shape (angular_order * n_phi, 3)
    nx = np.outer(sin_theta, np.cos(phi)).ravel()
    ny = np.outer(sin_theta, np.sin(phi)).ravel()
    nz = np.repeat(mu, n_phi)
    nhat = np.column_stack([nx, ny, nz])
    w_ang = np.repeat(w_mu, n_phi) * w_phi

    # tensor product: radial index slow, angular fast
    p = (omega[:, None, None] * nhat[None, :, :]).reshape(-1, 3)
    w = (
        MEASURE_PREFACTOR
        * 0.5
        * (omega * w_omega)[:, None]
        * w_ang[None, :]
    ).ravel()
    nodes, weights, sheet_arr = _per_sheet(p, w, sheets)

    meta = {
        "builder": "cone",
        "args": {
            "omega_min": float(omega_min),
            "omega_max": float(omega_max),
            "radial_nodes": int(radial_nodes),
            "angular_order": int(angular_order),
            "sheets": sheets,
        },
        "radial_rule": "gauss-legendre",
        "angular_rule": "gauss-legendre(cos theta) x midpoint(phi)",
    }
    return QuadratureGrid("cone", nodes, weights, sheet_arr, meta)


def _scale_panel_layout(
    s_min: float, s_max: float, nodes_per_sign: int
) -> list[tuple[float, float, int]]:
    """Panel decomposition for the half-line scale integral.

    A head panel covers ``[0, s_min]`` (the integrand is O(1) there and the
    interval is short), followed by geometrically growing panels out to
    ``s_max``.  Roughly five Gauss-Legendre nodes per geometric panel keeps
    each panel's e-folding count small for every frequency in the band.
    """
    n_head = max(2, nodes_per_sign // 8)
    remaining = nodes_per_sign - n_head
    n_panels = max(2, remaining // 5)
    base, extra = divmod(remaining, n_panels)
    counts = [base + 1] * extra + [base] * (n_panels - extra)
    edges = s_min * (s_max / s_min) ** (np.arange(n_panels + 1) / n_panels)
    layout = [(0.0, s_min, n_head)]
    layout += [(edges[i], edges[i + 1], counts[i]) for i in range(n_panels)]
    return layout


def build_scale_grid(
    omega_band: tuple[float, float],
    nodes_per_sign: int,
    signs: str = "both",
) -> QuadratureGrid:
    """Quadrature grid for the scale-parameter integral.

    The scale integrands decay like ``exp(-2 omega |s|)`` for frequencies
    in ``omega_band``, so nodes are laid out on ``|s| in (0, 8 / omega_min]``:
    one short head panel ``[0, 0.05 / omega_max]`` plus log-spaced
    Gauss-Legendre panels.  All nodes are strictly nonzero.

    Parameters
    ----------
    omega_band : (float, float)
        Frequency band the grid must serve.
    nodes_per_sign : int
        Node budget for each requested sign (minimum 6).
    signs : {"both", "plus", "minus"}
        Which signs of s to populate.  ``"both"`` gives mirror-symmetric
        node sets.

    Notes
    -----
    ``meta["recovery_bound"]`` is the rule's whole error on the band, tail
    included: the worst `scale_recovery_error` over 4096 log-spaced
    frequencies and the parabola vertex of each sampled peak.
    """
    omega_min, omega_max = omega_band
    _validate_band(omega_min, omega_max)
    if nodes_per_sign < 6:
        raise EmwaveError("scale grid needs at least 6 nodes per sign")

    # an extreme band overflows the panel edges; the NaN nodes are rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        layout = _scale_panel_layout(0.05 / omega_max, 8.0 / omega_min, nodes_per_sign)
        panels = [gauss_legendre_panels((a, b), n) for a, b, n in layout]
    s_pos = np.concatenate([x for x, _ in panels])
    w_pos = np.concatenate([w for _, w in panels])
    if not all(np.all((v > 0) & (v < np.inf)) for v in (s_pos, w_pos)):
        raise EmwaveError(
            f"scale quadrature over the band [{omega_min}, {omega_max}] has a node or weight "
            f"that is not a positive finite number (panels from 0.05 / omega_max to 8 / omega_min)"
        )
    nodes, weights, labels = _per_sheet(s_pos, w_pos, signs)
    half = QuadratureGrid("scale", s_pos, w_pos)  # the other sign mirrors its error

    omega = np.geomspace(omega_min, omega_max, 4096)
    err = scale_recovery_error(half, omega)
    lo, mid, hi = err[:-2], err[1:-1], err[2:]
    peak = (mid >= np.maximum(lo, hi)) & (lo + hi < 2.0 * mid)
    vertex = omega[1:-1][peak] * (omega[1] / omega[0]) ** (0.5 * (lo - hi)[peak] / (lo - 2.0 * mid + hi)[peak])

    meta = {
        "builder": "scale",
        "args": {
            "omega_band": (float(omega_min), float(omega_max)),
            "nodes_per_sign": int(nodes_per_sign),
            "signs": signs,
        },
        "recovery_bound": float(max(err.max(), scale_recovery_error(half, vertex).max(initial=0.0))),
    }
    return QuadratureGrid("scale", nodes * labels, weights, None, meta)


def scale_recovery_error(grid: QuadratureGrid, omega):
    """Relative error of the grid on its defining integral.

    Compares the weighted sum of ``exp(-2 omega |s|)`` over each sign's
    nodes against the exact half-line value ``1 / (2 omega)`` and returns
    the worse of the signs present, elementwise for an array of ``omega``.
    """
    if grid.kind != "scale":
        raise EmwaveError("scale_recovery_error needs a scale grid")
    worst = 0.0
    for sign in (1, -1):
        mask = np.sign(grid.nodes) == sign
        if mask.any():  # summed node by node, so no (omega x node) matrix is held
            approx = sum(w * np.exp(-2.0 * omega * abs(s)) for s, w in zip(grid.nodes[mask], grid.weights[mask]))
            worst = np.maximum(worst, np.abs(2.0 * omega * approx - 1.0))
    return worst


def build_spatial_grid(N: int, L: float) -> QuadratureGrid:
    """Uniform periodic box grid with N^3 points and side length L.

    Coordinates run over ``(m - N/2) * L/N`` per axis, so the box is
    centered on the origin.  Node ``m`` corresponds to the C-order raveled
    index ``(iz, iy, ix)`` and stores the coordinate vector ``(x, y, z)``.
    Every weight is the cell volume ``(L/N)^3``.  The conjugate momentum
    lattice is exposed through `momentum_axis` / `momentum_mesh`.
    """
    if N < 2 or (N & (N - 1)) != 0:
        raise EmwaveError(f"N must be a power of two >= 2, got {N}")
    if not (L > 0.0):
        raise EmwaveError(f"box length must be positive, got {L}")
    delta = L / N
    try:
        volume = delta**3
    except OverflowError:
        volume = math.inf
    if not 0.0 < volume < math.inf:
        raise EmwaveError(f"cell volume (L/N)^3 = ({L}/{N})^3 is not a positive finite number")
    c = (np.arange(N) - N // 2) * delta
    Z, Y, X = np.meshgrid(c, c, c, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    weights = np.full(N**3, volume)
    meta = {
        "builder": "spatial",
        "args": {"N": int(N), "L": float(L)},
        "spacing": float(delta),
        "nyquist": float(np.pi * N / L),
    }
    return QuadratureGrid("spatial", nodes, weights, None, meta)


def spatial_axis(grid: QuadratureGrid) -> np.ndarray:
    """1-D coordinate axis of a spatial grid (shared by x, y, z)."""
    if grid.kind != "spatial":
        raise EmwaveError("spatial_axis needs a spatial grid")
    N = grid.meta["args"]["N"]
    return (np.arange(N) - N // 2) * grid.meta["spacing"]


def momentum_axis(grid: QuadratureGrid) -> np.ndarray:
    """1-D conjugate momentum axis of a spatial grid, in FFT order."""
    if grid.kind != "spatial":
        raise EmwaveError("momentum_axis needs a spatial grid")
    N = grid.meta["args"]["N"]
    return TWO_PI * np.fft.fftfreq(N, d=grid.meta["spacing"])


def momentum_mesh(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Momentum lattice of a spatial grid.

    Returns
    -------
    P : ndarray, shape (N, N, N, 3)
        Momentum vectors, FFT index order ``(kz, ky, kx)``, components
        ``(px, py, pz)``.
    Omega : ndarray, shape (N, N, N)
        ``|P|`` per lattice point.
    """
    pax = momentum_axis(grid)
    PZ, PY, PX = np.meshgrid(pax, pax, pax, indexing="ij")
    P = np.stack([PX, PY, PZ], axis=-1)
    Omega = np.sqrt(PX**2 + PY**2 + PZ**2)
    return P, Omega


def build_cartesian_cone_grid(
    spatial: QuadratureGrid,
    omega_min: float,
    omega_max: float,
    sheets: str = "both",
) -> QuadratureGrid:
    """Cone grid on the momentum lattice conjugate to a spatial grid.

    Selects lattice points with ``omega_min <= |p| <= omega_max`` (the
    origin is excluded automatically since ``omega_min > 0``) and assigns
    the measure weight ``(2 pi)^-3 (2 pi / L)^3 / (2 |p|)``.  Amplitudes on
    this grid can be pushed straight through FFT-based transforms; the
    lattice positions are recorded in ``meta["flat_indices"]`` (C-order
    raveled ``(kz, ky, kx)``).
    """
    if spatial.kind != "spatial":
        raise EmwaveError("build_cartesian_cone_grid needs a spatial grid")
    _validate_band(omega_min, omega_max)

    N = spatial.meta["args"]["N"]
    L = spatial.meta["args"]["L"]
    P, Omega = momentum_mesh(spatial)
    mask = (Omega >= omega_min) & (Omega <= omega_max)
    flat_indices = np.flatnonzero(mask.ravel())
    p = P.reshape(-1, 3)[flat_indices]
    omega = Omega.ravel()[flat_indices]
    dp = TWO_PI / L
    # checked before dp**3 is formed: a box so small that no lattice point
    # lies in the band would overflow it
    if flat_indices.size == 0:
        raise EmwaveError(
            f"band [{omega_min}, {omega_max}] contains no lattice points "
            f"(lattice spacing {dp:.6g})"
        )
    w = MEASURE_PREFACTOR * dp**3 / (2.0 * omega)
    nodes, weights, sheet_arr = _per_sheet(p, w, sheets)

    meta = {
        "builder": "cartesian_cone",
        "args": {
            "spatial": dict(spatial.meta["args"]),
            "omega_min": float(omega_min),
            "omega_max": float(omega_max),
            "sheets": sheets,
        },
        "N": int(N),
        "L": float(L),
        "flat_indices": flat_indices,
        "points_per_sheet": int(flat_indices.size),
        "nyquist": float(np.pi * N / L),
    }
    return QuadratureGrid("cone", nodes, weights, sheet_arr, meta)


# each builder is called with its record's arguments as keywords
_BUILDERS = {
    "cone": build_cone_grid,
    "scale": build_scale_grid,
    "spatial": build_spatial_grid,
    "cartesian_cone": lambda spatial, **args: build_cartesian_cone_grid(build_spatial_grid(**spatial), **args),
}


def rebuild(grid: QuadratureGrid) -> QuadratureGrid:
    """Reconstruct a grid from its own metadata record."""
    return build_from_record(grid.meta.get("builder"), grid.meta["args"])


def build_from_record(builder: str, args: dict) -> QuadratureGrid:
    """Reconstruct a grid from a (builder name, arguments) record."""
    if builder not in _BUILDERS:
        raise EmwaveError(f"cannot rebuild grid with builder record {builder!r}")
    if builder == "scale":  # older records carry the fixed extents; no other value can be rebuilt
        args = dict(args)
        for key, fixed in (("s_min_factor", 0.05), ("s_max_factor", 8.0)):
            if (given := args.pop(key, fixed)) != fixed:
                raise EmwaveError(f"scale grid record has {key} = {given!r}; only {fixed} can be rebuilt")
    return _BUILDERS[builder](**args)


def grids_equal(a: QuadratureGrid, b: QuadratureGrid) -> bool:
    """Exact node/weight/sheet equality of two grids."""
    if a.kind != b.kind or a.nodes.shape != b.nodes.shape:
        return False
    if (a.sheets is None) != (b.sheets is None):
        return False
    same = np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
    if a.sheets is not None:
        same = same and np.array_equal(a.sheets, b.sheets)
    return same
