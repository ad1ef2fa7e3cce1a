"""Analysis and synthesis between cone amplitudes and scale-space coefficients.

`analyze` maps a cone amplitude to its complex-time field values F(y, t-is)
on a spatial x signed-scale grid; `synthesize` and `reproduce_complex_time`
map back by summing wavelets (band-limited to the grid's momentum lattice)
against the coefficients.  Norms and inner products are provided in three
independent forms: momentum-space, scale-space, and a nonlocal equal-time
double integral.

Conventions used throughout (fixed once here):

  * inverse Fourier normalization (2 pi)^-3 with forward sign e^{-i p.x};
  * coefficient c(y, s) = F(y, t - i s)
      = (2 pi)^-3 INT d^3p e^{i p.y} / omega
        [theta(s) e^{-omega(s+it)} f_+(p) + theta(-s) e^{omega(s+it)} f_-(p)];
  * reconstruction F(x, t) = INT d^3y ds  w(x - y, (t - t0) - i s) c(y, s)
    with the scalar wavelet w applied per vector component.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft
from scipy.special import erfc

from . import grids as _grids
from .errors import (
    BudgetExceededError,
    EmwaveError,
    GridMismatchError,
    InvalidScaleError,
)
from .fieldcore import FieldSample, _evaluate_many, amplitude_vectors, gate2
from .grids import QuadratureGrid, grids_equal

__all__ = [
    "EuclideanCoefficients",
    "NormReport",
    "NonlocalNormResult",
    "analyze",
    "synthesize",
    "synthesize_many",
    "reproduce_complex_time",
    "norm_momentum",
    "norm_euclidean",
    "norm_nonlocal_t0",
    "inner_product",
    "norm_report",
    "save_coefficients",
    "load_coefficients",
]


@dataclass(frozen=True)
class EuclideanCoefficients:
    """Complex-time field samples F(y, t - is) over a (scale x space) grid.

    ``values`` has shape (Ns, N, N, N, 3): scale node, then y_z, y_y, y_x
    (matching the C-order raveling of the spatial grid), then vector
    component.  ``t`` records the real time at which the coefficients were
    generated; scale-space norms are independent of it.

    The container takes ownership of ``values``: it freezes the array it is
    given and does not copy it (only another dtype is converted first).  The
    first synthesis stores the two per-sheet lattice sums of `_sheet_sums`
    on it, 2/Ns of the payload.
    """

    ygrid: QuadratureGrid
    sgrid: QuadratureGrid
    values: np.ndarray
    t: float = 0.0
    provenance: dict = field(default_factory=dict)
    _sheet_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ygrid.kind != "spatial" or self.sgrid.kind != "scale":
            raise GridMismatchError(
                f"need (spatial, scale) grids, got ({self.ygrid.kind}, {self.sgrid.kind})"
            )
        N = self.ygrid.meta["args"]["N"]
        vals = np.asarray(self.values, dtype=complex)
        want = (len(self.sgrid), N, N, N, 3)
        if vals.shape != want:
            raise GridMismatchError(f"values shape {vals.shape} does not match grids {want}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "t", float(self.t))


def _lattice(ygrid: QuadratureGrid):
    """Momentum magnitudes Omega of the lattice and the centered-grid FFT phase."""
    N = ygrid.meta["args"]["N"]
    _, Omega = _grids.momentum_mesh(ygrid)
    ph = (-1.0) ** np.arange(N)
    PH = ph[:, None, None] * ph[None, :, None] * ph[None, None, :]
    return Omega, PH


def _check_aliasing(amp, ygrid: QuadratureGrid) -> None:
    """Warn (with an energy bound) if amplitude support exceeds the grid Nyquist."""
    omega = np.linalg.norm(amp.grid.nodes, axis=1)
    nyq = ygrid.meta["nyquist"]
    over = omega > nyq
    if not np.any(over):
        return
    f2 = np.sum(np.abs(amplitude_vectors(amp)) ** 2, axis=1)
    total = float(np.sum(amp.grid.weights * f2))
    beyond = float(np.sum(amp.grid.weights[over] * f2[over]))
    if total > 0 and beyond > 0:
        warnings.warn(
            f"amplitude support reaches omega={omega.max():.4g} beyond the grid "
            f"Nyquist {nyq:.4g}; truncated energy fraction <= {beyond / total:.3e}",
            stacklevel=3,
        )


def analyze(
    amp,
    ygrid: QuadratureGrid,
    sgrid: QuadratureGrid,
    t: float = 0.0,
    workers: int | None = None,
) -> EuclideanCoefficients:
    """Complex-time field values F(y, t - is) over the (scale x space) grid.

    Per scale node s the cone amplitude is multiplied by
    ``theta(+-s) e^{-+omega(s+it)} / omega`` per sheet; amplitudes on the
    conjugate Cartesian cone lattice are written at their lattice points
    only and pushed onto the spatial grid by one in-place inverse FFT over
    all scale slices, other amplitudes are evaluated densely.  Linear in
    ``amp``.  ``workers`` is the ``scipy.fft`` worker count (``None``:
    scipy's default, 1 unless set by ``scipy.fft.set_workers``); the
    result does not depend on it.
    """
    if ygrid.kind != "spatial" or sgrid.kind != "scale":
        raise GridMismatchError(
            f"analyze needs (spatial, scale) grids, got ({ygrid.kind}, {sgrid.kind})"
        )
    if len(sgrid) == 0:
        raise EmwaveError("scale grid is empty")
    if np.any(sgrid.nodes == 0.0):
        raise InvalidScaleError("scale grid contains s = 0")
    t = float(t)
    _check_aliasing(amp, ygrid)

    N = ygrid.meta["args"]["N"]
    L = ygrid.meta["args"]["L"]
    s_nodes = sgrid.nodes
    out = np.zeros((len(s_nodes), N, N, N, 3), dtype=complex)
    slices = out.reshape(len(s_nodes), N**3, 3)

    grid = amp.grid
    if (
        grid.meta.get("builder") == "cartesian_cone"
        and grid.meta["args"]["spatial"] == ygrid.meta["args"]
    ):
        # the amplitude lives on the conjugate lattice: each slice is written
        # only at the cone shell's lattice points, the rest stays zero
        Omega, PH = _lattice(ygrid)
        flat = np.asarray(grid.meta["flat_indices"])
        om, ph = Omega.ravel()[flat], PH.ravel()[flat]
        f = amplitude_vectors(amp)
        blocks = {int(sheet): f[grid.sheets == sheet] for sheet in np.unique(grid.sheets)}
        for i, s in enumerate(s_nodes):
            sheet = 1 if s > 0 else -1
            if sheet in blocks:
                mult = (1.0 / om / L**3) * np.exp(-sheet * om * (s + 1j * t)) * ph
                slices[i, flat] = mult[:, None] * blocks[sheet]
        # norm="forward" leaves the inverse unscaled (the N^3 / L^3 volume
        # factor is folded into mult); overwrite_x lets it run in place
        out = scipy.fft.ifftn(out, axes=(1, 2, 3), norm="forward", workers=workers, overwrite_x=True)
    else:
        _evaluate_many(amp, ygrid.nodes, t, s=s_nodes, out=slices)

    provenance = {
        "kind": type(amp).__name__,
        "cone_grid": {
            "builder": amp.grid.meta.get("builder"),
            "args": amp.grid.meta.get("args"),
        },
    }
    return EuclideanCoefficients(ygrid, sgrid, out, t=t, provenance=provenance)


def _sheet_sums(coeffs: EuclideanCoefficients, workers: int | None) -> dict[int, np.ndarray]:
    """Per-sheet lattice sums ``H = SUM_s w_s e^{-+omega s} PH fftn(c_s)``.

    The scale-dependent factor of the wavelet symbol depends on neither the
    probe points, ``t`` nor ``sigma``, so each sheet's slices are summed
    (in fixed scale order) once per coefficient set and kept on it; the
    read-only values keep the sums from going stale.
    """
    sums = coeffs._sheet_sums
    if not sums:
        Omega, PH = _lattice(coeffs.ygrid)
        built = {}
        for s, w, c in zip(coeffs.sgrid.nodes, coeffs.sgrid.weights, coeffs.values):
            sheet = 1 if s > 0 else -1
            chat = scipy.fft.fftn(c, axes=(0, 1, 2), workers=workers)
            chat *= (w * np.exp(-sheet * Omega * s) * PH)[..., None]
            if sheet in built:
                built[sheet] += chat
            else:
                built[sheet] = chat
        sums.update(built)
    return sums


def _synthesize_engine(
    coeffs: EuclideanCoefficients,
    xs: np.ndarray,
    t: float,
    sigma: float,
    workers: int | None,
) -> np.ndarray:
    """Shared reconstruction core for sigma = 0 (plain) and sigma != 0 (kernel).

    The band-limited wavelet symbol ``gate(sigma, s) omega
    e^{-+omega((s+sigma) + i(t - t0))}`` splits into the per-sheet sums of
    `_sheet_sums` times ``gate omega e^{-+omega(sigma + i(t - t0))}``; the
    gate is 1 for sigma = 0, else 2 on the sheet of sign sigma and 0 on
    the other.  The combined lattice array G, in (kz, ky, kx, component)
    order, is summed at the K probe points with separable phases
    ``e^{ip.x} = e^{ip_x x} e^{ip_y y} e^{ip_z z}``: three (K, N) tables of
    3 K N exponentials, one (K, N) x (N, 3 N^2) product over kz, then ky
    and kx per probe.  ``workers`` is the ``scipy.fft`` worker count of
    the first call on a coefficient set; the result does not depend on it.
    """
    Omega, _ = _lattice(coeffs.ygrid)
    N = coeffs.ygrid.meta["args"]["N"]
    dt = t - coeffs.t
    G = np.zeros((N, N, N, 3), dtype=complex)
    for sheet, H in _sheet_sums(coeffs, workers).items():
        gate = gate2(sigma * sheet)
        if gate != 0.0:
            G += (gate * Omega * np.exp(-sheet * Omega * (sigma + 1j * dt)))[..., None] * H
    pts = np.atleast_2d(np.asarray(xs, dtype=float))
    pax = _grids.momentum_axis(coeffs.ygrid)
    ex, ey, ez = (np.exp(1j * np.outer(pts[:, axis], pax)) for axis in range(3))
    Gz = (ez @ G.reshape(N, -1)).reshape(len(pts), N, N, 3)
    return np.einsum("kx,kxc->kc", ex, np.einsum("ky,kyxc->kxc", ey, Gz)) / N**3


def synthesize_many(
    coeffs: EuclideanCoefficients,
    xs: np.ndarray,
    t: float,
    workers: int | None = None,
) -> np.ndarray:
    """Reconstructed field at many points, shape (K, 3)."""
    return _synthesize_engine(coeffs, xs, float(t), 0.0, workers)


def synthesize(coeffs: EuclideanCoefficients, x, t: float) -> FieldSample:
    """Field reconstructed from scale-space coefficients at one point.

    Weighted sum over the (y, s) grid of (band-limited) wavelet values
    times coefficients; the wavelets carry the time evolution, so any
    real t is available from fixed-t coefficients.  The sample's
    ``truncation_estimate`` is the scale grid's ``recovery_bound`` (or None).
    """
    return reproduce_complex_time(coeffs, x, t, 0.0)


def reproduce_complex_time(
    coeffs: EuclideanCoefficients, x, t: float, sigma: float
) -> FieldSample:
    """Complex-time field F(x, t - i sigma) reproduced from coefficients.

    Kernel-weighted sum: the reproducing kernel equals the wavelet at
    shifted scale s + sigma gated by theta(sigma s), so for sigma != 0 only
    matching-sign scale nodes contribute (doubled), and the extra
    e^{-omega sigma} damping makes convergence faster than plain
    synthesis.  ``sigma = 0`` runs the identical code path as `synthesize`.
    """
    x = np.asarray(x, dtype=float)
    sigma = float(sigma)
    F = _synthesize_engine(coeffs, x[None, :], float(t), sigma, None)[0]
    t_label = complex(t) if sigma == 0.0 else complex(t, -sigma)
    lo, hi = coeffs.sgrid.meta["args"]["omega_band"]
    cone = coeffs.provenance.get("cone_grid", {}).get("args") or {}
    covered = lo <= cone.get("omega_min", lo) and cone.get("omega_max", hi) <= hi  # else the bound does not apply
    bound = coeffs.sgrid.meta["recovery_bound"] if covered else None
    return FieldSample(F=F, x=x, t=t_label, truncation_estimate=bound)


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------


def norm_momentum(amp) -> float:
    """Squared momentum-space norm: INT dtilde-p omega^-2 |f(p)|^2."""
    omega = np.linalg.norm(amp.grid.nodes, axis=1)
    f2 = np.sum(np.abs(amplitude_vectors(amp)) ** 2, axis=1)
    return float(np.sum(amp.grid.weights * f2 / omega**2))


def norm_euclidean(coeffs: EuclideanCoefficients) -> float:
    """Squared scale-space norm: INT d^3y ds |F(y, t - is)|^2."""
    dy3 = coeffs.ygrid.meta["spacing"] ** 3
    # one scale slice at a time, so no payload-sized |c|^2 is ever held
    per_slice = np.array([np.sum(np.abs(c) ** 2) for c in coeffs.values])
    return float(np.sum(coeffs.sgrid.weights * per_slice) * dy3)


def inner_product(
    coeffs_a: EuclideanCoefficients, coeffs_b: EuclideanCoefficients
) -> complex:
    """Scale-space pairing INT d^3y ds conj(A(y,s)) . B(y,s).

    Conjugate-linear in the first slot; ``inner_product(c, c)`` equals
    `norm_euclidean`.  Both coefficient sets must share grids and
    generation time.
    """
    if not grids_equal(coeffs_a.ygrid, coeffs_b.ygrid) or not grids_equal(
        coeffs_a.sgrid, coeffs_b.sgrid
    ):
        raise GridMismatchError("coefficient grids differ")
    if coeffs_a.t != coeffs_b.t:
        raise GridMismatchError(
            f"coefficients generated at different times: {coeffs_a.t} vs {coeffs_b.t}"
        )
    dy3 = coeffs_a.ygrid.meta["spacing"] ** 3
    pair = np.array([np.sum(np.conj(a) * b) for a, b in zip(coeffs_a.values, coeffs_b.values)])
    return complex(np.sum(coeffs_a.sgrid.weights * pair) * dy3)


# ---------------------------------------------------------------------------
# nonlocal equal-time norm
# ---------------------------------------------------------------------------

_NONLOCAL_BUDGET = 24**3  # grid points per factor of the double sum


def _cell_kernel_factors(d) -> tuple[np.ndarray, np.ndarray]:
    """Log-time rule ``w`` and per-axis factors ``g`` with A(d) = sum_j w_j prod_i g[j, d_i].

    With 1/r^2 = INT_0^inf e^{-t r^2} dt and the per-axis tent density
    1 - |v| on [-1, 1] of the offset between two unit cells, the cell-pair
    average separates: A(d) = INT dt g(t, d1) g(t, d2) g(t, d3), where
    g(t, d) = INT (1 - |v|) e^{-t (v+d)^2} dv = h(d-1) - 2 h(d) + h(d+1) and
    h(c) = (e^{-t c^2} - 1)/(2t) + sqrt(pi)/(2 sqrt t) |c| (1 - erfc(sqrt(t) |c|))
    is a second antiderivative of e^{-t c^2}.  expm1 keeps the first term exact
    as t -> 0 and the |c| parts are summed before the division by sqrt(t), so
    neither small nor large t cancels digits.  The t integral is Gauss-Legendre
    in u = ln t, 40 panels of 20 nodes on [-40, 80]; A then agrees with tensor
    Gauss-Legendre over the cell pair to 5e-13 relative for every |d_i| <= 24.
    ``g`` has shape ``(800,) + np.shape(d)``.
    """
    u, wu = _grids.gauss_legendre_panels(np.linspace(-40.0, 80.0, 41), 20)
    t = np.exp(u)
    w = wu * t
    d = np.asarray(d, dtype=float)
    t = t.reshape(t.shape + (1,) * d.ndim)
    rt = np.sqrt(t)
    c = (np.abs(d - 1.0), np.abs(d), np.abs(d + 1.0))
    g = (c[0] - 2.0 * c[1] + c[2]) * (0.5 * np.sqrt(np.pi)) / rt
    for k, ck in zip((1.0, -2.0, 1.0), c):
        g = g + k * (np.expm1(-t * ck**2) / (2.0 * t) - (0.5 * np.sqrt(np.pi)) * ck * erfc(rt * ck) / rt)
    return w, g


def _cell_kernel(d) -> float:
    """Average of 1/|x - y|^2 over two unit cells displaced by the integer vector ``d``.

    Exact up to the fixed log-time rule of `_cell_kernel_factors` (5e-13
    relative), the singular diagonal and neighbour cells included.
    """
    w, g = _cell_kernel_factors(d)
    return float(w @ np.prod(g, axis=1))


@dataclass(frozen=True)
class NonlocalNormResult:
    """Nonlocal equal-time norm with its Hermiticity diagnostic."""

    value: float
    imag_ratio: float
    grid_points: int


def norm_nonlocal_t0(amp, ygrid: QuadratureGrid) -> NonlocalNormResult:
    """Squared norm from the equal-time double integral.

    (1/pi^2) INT d^3x d^3y |x-y|^-2 conj(F(x,0)) . F(y,0), discretized on
    ``ygrid`` x ``ygrid`` with cell-averaged kernel weights: A(d), the exact
    average of 1/|x-y|^2 over two cells displaced by d, for every d of the
    (2N)^3 correlation grid, the singular diagonal included.  A separates
    into a 1-D log-time integral of three per-axis factors
    (`_cell_kernel_factors`), so all (2N)^3 weights are one matrix product.
    The pair sum is evaluated by a zero-padded FFT cross-correlation.
    Refuses grids beyond 24^3 points per factor with a cost estimate.
    """
    if ygrid.kind != "spatial":
        raise GridMismatchError("norm_nonlocal_t0 needs a spatial grid")
    N = ygrid.meta["args"]["N"]
    npts = N**3
    if npts > _NONLOCAL_BUDGET:
        raise BudgetExceededError(
            f"{npts} points per factor exceeds budget {_NONLOCAL_BUDGET}: the double sum "
            f"covers {npts**2:.3e} pairs (~{16 * 8 * npts / 2**20:.0f} MiB of "
            f"correlation workspace and O(N^3 log N) FFT work per component)"
        )

    dlt = ygrid.meta["spacing"]
    F = _evaluate_many(amp, ygrid.nodes, 0.0).reshape(N, N, N, 3)

    P = 2 * N
    corr = np.zeros((P, P, P), dtype=complex)
    for c in range(3):
        pad = np.zeros((P, P, P), dtype=complex)
        pad[:N, :N, :N] = F[..., c]
        spec = scipy.fft.fftn(pad)
        corr += scipy.fft.ifftn(np.conj(spec) * spec)

    idx = np.arange(P)
    w, g = _cell_kernel_factors(np.where(idx < N, idx, idx - P))
    pairs = (g[:, :, None] * g[:, None, :]).reshape(len(w), P * P)
    A = ((w[:, None] * g).T @ pairs).reshape(P, P, P)

    total = complex(dlt**4 / np.pi**2 * np.sum(A * corr))
    imag_ratio = abs(total.imag) / abs(total.real) if total.real != 0.0 else 0.0
    return NonlocalNormResult(total.real, imag_ratio, npts)


@dataclass(frozen=True)
class NormReport:
    """The three squared norms of one field, with pairwise relative gaps."""

    momentum: float
    euclidean: float
    nonlocal_t0: float | None
    gap_euclidean: float
    gap_nonlocal: float | None
    nonlocal_imag_ratio: float | None = None

    def __post_init__(self):
        if self.momentum < 0 or self.euclidean < 0:
            raise EmwaveError("squared norms must be nonnegative")
        if self.nonlocal_t0 is not None and self.nonlocal_t0 < 0:
            raise EmwaveError("squared norms must be nonnegative")


def norm_report(
    amp, coeffs: EuclideanCoefficients, nonlocal_grid: QuadratureGrid | None = None
) -> NormReport:
    """Momentum / scale-space (/ optional nonlocal) norms with relative gaps."""
    nm = norm_momentum(amp)
    ne = norm_euclidean(coeffs)
    nl = None if nonlocal_grid is None else norm_nonlocal_t0(amp, nonlocal_grid)
    scale = nm if nm > 0 else 1.0
    return NormReport(
        momentum=nm,
        euclidean=ne,
        nonlocal_t0=None if nl is None else nl.value,
        gap_euclidean=abs(ne - nm) / scale,
        gap_nonlocal=None if nl is None else abs(nl.value - nm) / scale,
        nonlocal_imag_ratio=None if nl is None else nl.imag_ratio,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MANIFEST_FORMAT = "emwave-coefficients"
_MANIFEST_VERSION = 1


def save_coefficients(
    coeffs: EuclideanCoefficients, directory, name: str = "coefficients"
) -> Path:
    """Write coefficients as a JSON manifest plus a flat binary payload.

    The payload is the values array in axis order (s, y_z, y_y, y_x,
    vector component), C-order, as little-endian (re, im) float64 pairs,
    written and hashed straight from the values' own buffer.  The manifest
    records the grid builders and arguments (sufficient to rebuild both
    grids), the generation time, provenance, and the payload's SHA-256, so
    a reload is byte-exact and self-validating.  Returns the manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = np.ascontiguousarray(coeffs.values, dtype="<c16").reshape(-1).view(np.uint8)
    payload_name = f"{name}.bin"
    (directory / payload_name).write_bytes(payload)
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "axis_order": ["s", "y_z", "y_y", "y_x", "component"],
        "dtype": "little-endian float64 (re, im) pairs",
        "shape": list(coeffs.values.shape),
        "t": coeffs.t,
        "ygrid": {"builder": coeffs.ygrid.meta["builder"], "args": coeffs.ygrid.meta["args"]},
        "sgrid": {"builder": coeffs.sgrid.meta["builder"], "args": coeffs.sgrid.meta["args"]},
        "provenance": coeffs.provenance,
        "payload": payload_name,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


_MANIFEST_KEYS = ("payload", "payload_bytes", "payload_sha256", "shape", "t", "ygrid", "sgrid")


def load_coefficients(manifest_path) -> EuclideanCoefficients:
    """Rebuild coefficients from a manifest written by `save_coefficients`.

    Every defect of the manifest or its payload raises `EmwaveError`: an
    unreadable manifest, a missing key, a payload outside the manifest's
    directory, a checksum or length mismatch, a shape that disagrees with
    the payload size, a time that is no finite number, or a provenance
    that is no object.  The checksummed bytes become the read-only values.
    """
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise EmwaveError(f"cannot read coefficients manifest {path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise EmwaveError(f"{path} is not a coefficients manifest")
    if manifest.get("version") != _MANIFEST_VERSION:
        raise EmwaveError(f"unsupported manifest version {manifest.get('version')}")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise EmwaveError(f"manifest {path} lacks keys {missing}")
    directory = path.parent.resolve()
    payload_path = (directory / str(manifest["payload"])).resolve()
    if not payload_path.is_relative_to(directory):
        raise EmwaveError(f"payload {manifest['payload']!r} lies outside {directory}")
    try:
        payload = payload_path.read_bytes()
    except OSError as exc:
        raise EmwaveError(f"cannot read payload {payload_path}: {exc}") from None
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest["payload_sha256"]:
        raise EmwaveError(
            f"payload checksum mismatch for {manifest['payload']}: "
            f"{digest} != {manifest['payload_sha256']}"
        )
    if len(payload) != manifest["payload_bytes"]:
        raise EmwaveError("payload length does not match manifest")
    shape = manifest["shape"]
    if not (
        isinstance(shape, list)
        and all(isinstance(n, int) and n >= 0 for n in shape)
        and 16 * math.prod(shape) == len(payload)
    ):
        raise EmwaveError(f"manifest shape {shape!r} does not match {len(payload)} payload bytes")
    t, provenance = manifest["t"], manifest.get("provenance", {})
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not -math.inf < t < math.inf:
        raise EmwaveError(f"manifest time {t!r} is not a finite number")
    if not isinstance(provenance, dict):
        raise EmwaveError(f"manifest provenance {provenance!r} is not an object")
    values = np.frombuffer(payload, dtype="<c16").reshape(shape)
    try:
        ygrid = _grids.build_from_record(manifest["ygrid"]["builder"], manifest["ygrid"]["args"])
        sgrid = _grids.build_from_record(manifest["sgrid"]["builder"], manifest["sgrid"]["args"])
    except (KeyError, TypeError, ValueError) as exc:
        raise EmwaveError(f"manifest {path} has a malformed grid record: {exc!r}") from None
    return EuclideanCoefficients(ygrid, sgrid, values, t=t, provenance=provenance)
