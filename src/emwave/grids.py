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

import numpy as np

from .errors import EmwaveError, check_array, check_count, check_real

__all__ = [
    "QuadratureGrid",
    "build_cone_grid",
    "build_scale_grid",
    "scale_grid_from_rule",
    "build_spatial_grid",
    "build_cartesian_cone_grid",
    "gauss_legendre_panels",
    "spatial_axis",
    "momentum_axis",
    "momentum_mesh",
    "momentum_magnitudes",
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
        fully determine a grid that a builder made, and `rebuild`
        reproduces only such grids.  A scale grid is defined by its nodes
        and weights (`scale_grid_from_rule`); its ``meta["args"]`` gives
        at least its band and signs.  Other keys hold derived conveniences
        (band edges, lattice indices, recovery bounds...).
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


def _validate_band(omega_min: float, omega_max: float) -> tuple[float, float]:
    """The band ends as floats, once each is a finite real number and ``0 < omega_min < omega_max``."""
    omega_min, omega_max = check_real(omega_min, "omega_min"), check_real(omega_max, "omega_max")
    if not 0.0 < omega_min < omega_max:
        raise EmwaveError(
            f"invalid frequency band [{omega_min}, {omega_max}]: "
            "need 0 < omega_min < omega_max < inf (the origin is excluded)"
        )
    return omega_min, omega_max


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence of P_n, from the usual
    cosine guesses, for the (n + 1) // 2 nonnegative roots; the rest are
    their mirror images.  The weight of root x is 2 / ((1 - x^2) P_n'(x)^2).
    Every step is elementwise, so the bits depend on no BLAS or LAPACK
    thread count.
    """

    def legendre(x):  # P_n(x) and P_n'(x)
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))  # descending
    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x = x - dx
        if np.abs(dx).max() <= 4.0 * np.finfo(float).eps:
            break
    if n % 2:
        x[-1] = 0.0  # the middle root of an odd rule
    w = 2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)
    half = n // 2
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


def gauss_legendre_panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ``n`` nodes on each panel between consecutive ``edges``.

    Panel ``[a, b]`` gets the nodes ``a + (b - a)/2 (x + 1)`` and weights
    ``(b - a)/2 w`` of the n-point rule ``(x, w)`` on [-1, 1]; nodes and
    weights come back flat, panel by panel.  ``edges`` must be a 1-D array
    of finite real numbers and ``n`` an integer >= 1.
    """
    if check_count(n, "n") < 1:
        raise EmwaveError(f"a Gauss-Legendre panel needs at least 1 node, got n={n}")
    edges = check_array(edges, "edges")
    if edges.ndim != 1:
        raise EmwaveError(f"panel edges must be a 1-D array, got shape {edges.shape}")
    x, w = _legendre_rule(n)
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
    omega_min, omega_max = _validate_band(omega_min, omega_max)
    if check_count(radial_nodes, "radial_nodes") < 2 or check_count(angular_order, "angular_order") < 2:
        raise EmwaveError("cone grid needs at least 2 radial and 2 angular nodes")

    omega, w_omega = gauss_legendre_panels((omega_min, omega_max), radial_nodes)
    mu, w_mu = _legendre_rule(angular_order)
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
    }
    return QuadratureGrid("cone", nodes, weights, sheet_arr, meta)


def _double_exponential_rules(omega_min: float, omega_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node double-exponential scale rule, one row per tolerance eps = 1e-1 ... 1e-16.

    The trapezoid rule in x on [a, b] for ``s = C exp(x - e^-x)``, ``C = 1 / sqrt(omega_min omega_max)``
    (Takahasi and Mori, Publ. RIMS 9, 1974): nodes ``s(x_k)``, weights ``h s(x_k) (1 + e^-x_k)``.  At the ends
    each truncation's relative error on the band is eps: ``2 omega_max s(a) = eps = exp(-2 omega_min s(b))``.
    Newton's method solves ``x - e^-x = ln(s / C)`` for them from starts left of the root, without overshoot.
    """
    eps, half_log_ratio = 10.0 ** -np.arange(1.0, 17.0), 0.5 * (math.log(omega_max) - math.log(omega_min))
    c = np.log([eps / 2.0, -np.log(eps) / 2.0]) + [[-half_log_ratio], [half_log_ratio]]
    x = np.where(c >= -1.0, c, -np.log(np.maximum(-c, 1.0)))
    for _ in range(8):  # 6 steps reach the root to roundoff for every |c| <= 800, which every float band meets
        x = x - (x - np.exp(-x) - c) / (1.0 + np.exp(-x))
    a, b = x[:, :, None]
    x = a + (b - a) / (n - 1) * np.arange(n)
    with np.errstate(over="ignore"):  # C or a node of an extreme band overflows; the caller refuses it
        nodes = 1.0 / (math.sqrt(omega_min) * math.sqrt(omega_max)) * np.exp(x - np.exp(-x))
        return nodes, (b - a) / (n - 1) * nodes * (1.0 + np.exp(-x))


def build_scale_grid(omega_band: tuple[float, float], nodes_per_sign: int, signs: str = "both") -> QuadratureGrid:
    """Quadrature grid for the scale-parameter integral.

    The scale integrands decay like ``exp(-2 omega |s|)`` for frequencies in ``omega_band``.  Of the
    `_double_exponential_rules`, the one with the smallest `scale_recovery_error` on 64 log-spaced frequencies
    of the band goes to `scale_grid_from_rule`; no BLAS or worker thread count moves a bit.  A band where any
    of their nodes or weights leaves the normal float range is refused.

    Parameters
    ----------
    omega_band : (float, float)
        Frequency band the grid must serve.
    nodes_per_sign : int
        Node count for each requested sign (minimum 6).
    signs : {"both", "plus", "minus"}
        Which signs of s to populate.  ``"both"`` gives mirror-symmetric
        node sets.
    """
    omega_min, omega_max = _validate_band(*check_array(omega_band, "omega_band", (2,)))
    if check_count(nodes_per_sign, "nodes_per_sign") < 6:
        raise EmwaveError("scale grid needs at least 6 nodes per sign")
    rules = _double_exponential_rules(omega_min, omega_max, nodes_per_sign)
    if not np.all((np.finfo(float).tiny <= rules) & (rules <= np.finfo(float).max)):
        raise EmwaveError(f"the scale rule over the band [{omega_min}, {omega_max}] has a node or weight that "
                          f"is not a positive finite number in the normal float range")
    sample = np.geomspace(omega_min, omega_max, 64)
    with np.errstate(over="ignore"):  # a poor rule's sum may overflow; it is not chosen
        errors = [scale_recovery_error(QuadratureGrid("scale", s, w), sample).max() for s, w in zip(*rules)]
    nodes, weights, labels = _per_sheet(*(r[int(np.argmin(errors))] for r in rules), signs)
    grid = scale_grid_from_rule(nodes * labels, weights, (omega_min, omega_max), signs)
    grid.meta.update(builder="scale", args={**grid.meta["args"], "nodes_per_sign": int(nodes_per_sign)})
    return grid


def scale_grid_from_rule(nodes, weights, omega_band: tuple[float, float], signs: str = "both") -> QuadratureGrid:
    """The scale grid of a rule's signed nodes and weights, once they are checked, with its recovery bound.

    ``nodes`` and ``weights`` are 1-D arrays of one nonzero length; each
    node's magnitude and each weight must be a positive finite number.
    ``signs`` gives their layout: all nodes positive (``"plus"``), all
    negative (``"minus"``), or for ``"both"`` the positive nodes followed by
    their mirror images with the same weights.  ``meta["args"]`` records
    ``omega_band`` and ``signs``.  ``meta["recovery_bound"]`` is the rule's
    whole error on the band, tail included: the worst `scale_recovery_error`
    over 4096 log-spaced frequencies and the parabola vertex of each
    sampled peak, plus ``(n + 3) eps`` for the rounding of an n-node sum;
    a rule whose bound is not finite is refused.  Like every
    grid, it freezes float arrays it is given rather than copy them.
    """
    omega_min, omega_max = _validate_band(*check_array(omega_band, "omega_band", (2,)))
    nodes, weights = check_array(nodes, "nodes"), check_array(weights, "weights")
    if nodes.ndim != 1 or nodes.shape != weights.shape or not nodes.size:
        raise EmwaveError(f"a scale rule needs 1-D nodes and weights of one nonzero length, "
                          f"got shapes {nodes.shape} and {weights.shape}")
    if not (np.all(nodes != 0.0) and np.all(weights > 0.0)):
        raise EmwaveError(f"the scale rule over the band [{omega_min}, {omega_max}] has a node magnitude or a "
                          f"weight that is not a positive finite number")
    n = len(nodes) // 2 if signs == "both" else len(nodes)  # "both" mirrors the first n nodes and their error
    half = QuadratureGrid("scale", nodes[:n], weights[:n])
    want, want_weights, labels = _per_sheet(np.abs(half.nodes), half.weights, signs)
    if not (np.array_equal(nodes, want * labels) and np.array_equal(weights, want_weights)):
        raise EmwaveError(f"the scale rule's nodes are not laid out for signs {signs!r}: all positive, all negative, "
                          f"or for 'both' the positive nodes, then their mirror images with the same weights")
    omega = np.geomspace(omega_min, omega_max, 4096)
    with np.errstate(over="ignore", invalid="ignore"):  # weights near the float range overflow; refused below
        err = scale_recovery_error(half, omega)
        lo, mid, hi = err[:-2], err[1:-1], err[2:]
        peak = (mid >= np.maximum(lo, hi)) & (lo + hi < 2.0 * mid)
        vertex = omega[1:-1][peak] * (omega[1] / omega[0]) ** (0.5 * (lo - hi)[peak] / (lo - 2.0 * mid + hi)[peak])
        bound = float(np.max([err.max(), scale_recovery_error(half, vertex).max(initial=0.0)])
                      + (n + 3) * np.finfo(float).eps)
    if not math.isfinite(bound):
        raise EmwaveError(f"the scale rule's recovery error over the band [{omega_min}, {omega_max}] is not a finite "
                          f"number: its weights are too large")
    meta = {"args": {"omega_band": (omega_min, omega_max), "signs": signs}, "recovery_bound": bound}
    return QuadratureGrid("scale", nodes, weights, None, meta)


def scale_recovery_error(grid: QuadratureGrid, omega):
    """Relative error of the grid on its defining integral.

    Compares the weighted sum of ``exp(-2 omega |s|)`` over each sign's
    nodes against the exact half-line value ``1 / (2 omega)`` and returns
    the worse of the signs present, elementwise for an array of ``omega``
    (finite real numbers).
    """
    if grid.kind != "scale":
        raise EmwaveError("scale_recovery_error needs a scale grid")
    omega = check_array(omega, "omega")
    scaled, worst = -2.0 * omega, 0.0
    for sign in (1, -1):
        mask = np.sign(grid.nodes) == sign
        if mask.any():  # summed node by node, so no (omega x node) matrix is held
            approx = sum(w * np.exp(scaled * abs(s)) for s, w in zip(grid.nodes[mask], grid.weights[mask]))
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
    N = check_count(N, "N")
    if N < 2 or (N & (N - 1)) != 0:
        raise EmwaveError(f"N must be a power of two >= 2, got {N}")
    L = check_real(L, "L")
    if not L > 0.0:
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


def momentum_magnitudes(grid: QuadratureGrid) -> np.ndarray:
    """``|p|`` on the momentum lattice of a spatial grid, shape (N, N, N) in FFT index order ``(kz, ky, kx)``.

    Broadcast from the squared 1-D `momentum_axis` as ``(px^2 + py^2) + pz^2``,
    so the only (N, N, N) array formed is the result itself.
    """
    sq = momentum_axis(grid) ** 2
    omega = sq[None, None, :] + sq[None, :, None] + sq[:, None, None]
    return np.sqrt(omega, out=omega)


def momentum_mesh(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Momentum lattice of a spatial grid.

    Returns
    -------
    P : ndarray, shape (N, N, N, 3)
        Momentum vectors, FFT index order ``(kz, ky, kx)``, components
        ``(px, py, pz)``.
    Omega : ndarray, shape (N, N, N)
        ``|P|`` per lattice point, from `momentum_magnitudes`.
    """
    pax = momentum_axis(grid)
    return np.stack(np.meshgrid(pax, pax, pax, indexing="ij")[::-1], axis=-1), momentum_magnitudes(grid)


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
    omega_min, omega_max = _validate_band(omega_min, omega_max)

    Omega = momentum_magnitudes(spatial)
    flat_indices = np.flatnonzero((Omega >= omega_min) & (Omega <= omega_max))
    pax = momentum_axis(spatial)
    kz, ky, kx = np.unravel_index(flat_indices, Omega.shape)
    p = np.column_stack([pax[kx], pax[ky], pax[kz]])
    omega = Omega.ravel()[flat_indices]
    dp = TWO_PI / spatial.meta["args"]["L"]
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
        "flat_indices": flat_indices,
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
