"""Free Maxwell fields as helicity amplitudes on the double light cone.

The field is the complex combination F = E + iB.  Its Fourier support lies
on the double cone p0 = +/-|p|, where the algebraic constraints

    p . f(p) = 0        and        p0 f(p) = i p x f(p)

leave exactly one complex degree of freedom per cone point: the component
along the transverse circular polarization vector matching the sheet.
Amplitudes are therefore stored as one helicity scalar per node and the
constraints hold by construction.  Spacetime evaluation is a weighted
plane-wave sum over the grid; the weights already carry the invariant
measure (see :mod:`emwave.grids`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyAmplitudeError,
    EmwaveError,
    InvalidDirectionError,
)
from .grids import QuadratureGrid

__all__ = [
    "SpacetimePoint",
    "ConePoint",
    "ConeAmplitude",
    "FieldSample",
    "polarization_basis",
    "amplitude_from_scalar",
    "amplitude_from_vectors",
    "amplitude_vectors",
    "constraint_residuals",
    "evaluate_field",
    "maxwell_residual",
]

_POLE_CUTOFF = 1e-6


@dataclass(frozen=True)
class SpacetimePoint:
    """A real spacetime point (x, t) with c = 1."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (3,) or not np.all(np.isfinite(x)) or not np.isfinite(self.t):
            raise EmwaveError(f"spacetime point must be finite (3-vector, scalar), got {self.x!r}, {self.t!r}")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class ConePoint:
    """A point on the double light cone: momentum p and sheet +/-1."""

    p: np.ndarray
    sheet: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise EmwaveError(f"cone point momentum must be a finite 3-vector, got {self.p!r}")
        if np.linalg.norm(p) <= 0.0:
            raise EmwaveError("the origin p = 0 is excluded from the cone")
        if self.sheet not in (1, -1):
            raise EmwaveError(f"sheet must be +1 or -1, got {self.sheet!r}")
        object.__setattr__(self, "p", p)

    @property
    def omega(self) -> float:
        return float(np.linalg.norm(self.p))

    @property
    def p0(self) -> float:
        return self.sheet * self.omega


@dataclass(frozen=True)
class FieldSample:
    """Field value F = E + iB at a (possibly complex-time) point.

    ``t`` is real for ordinary spacetime samples and complex (t - i sigma)
    for samples of the analytically continued field.
    ``truncation_estimate`` is filled by evaluators that bound their own
    quadrature error: `transform.synthesize` and `reproduce_complex_time`
    give the scale grid's ``meta["recovery_bound"]``, the scale rule's worst
    relative error on its band, when the field's cone band lies inside that
    band.  It is ``None`` otherwise.
    """

    F: np.ndarray
    x: np.ndarray
    t: complex
    truncation_estimate: float | None = None

    def __post_init__(self):
        F = np.asarray(self.F, dtype=complex)
        x = np.asarray(self.x, dtype=float)
        if F.shape != (3,) or not np.all(np.isfinite(F)):
            raise EmwaveError("field sample must be a finite complex 3-vector")
        if x.shape != (3,) or not np.all(np.isfinite(x)) or not np.isfinite(self.t):
            raise EmwaveError("field sample location must be finite")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "x", x)


def _transverse_frames(nhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed transverse frames (e1, e2) for unit directions (M, 3).

    The generic rule takes e1 along z x n; within 1e-6 of the poles it
    falls back to Gram-Schmidt of the x axis against n, which keeps the
    frame deterministic and reproduces the canonical frame
    e1 = (1,0,0), e2 = (0,1,0) at n = (0,0,1).
    """
    nhat = np.atleast_2d(nhat)
    e1 = np.empty_like(nhat)
    zxn = np.stack([-nhat[:, 1], nhat[:, 0], np.zeros(len(nhat))], axis=1)
    sin_pol = np.hypot(nhat[:, 0], nhat[:, 1])
    generic = sin_pol >= _POLE_CUTOFF
    e1[generic] = zxn[generic] / sin_pol[generic, None]
    if not generic.all():
        pole = ~generic
        xhat = np.zeros_like(nhat[pole])
        xhat[:, 0] = 1.0
        proj = xhat - nhat[pole] * nhat[pole, 0:1]
        e1[pole] = proj / np.linalg.norm(proj, axis=1, keepdims=True)
    e2 = np.cross(nhat, e1)
    return e1, e2


def polarization_basis(
    n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transverse polarization frame for a unit direction n.

    Returns
    -------
    (e1, e2, eplus, eminus)
        ``(e1, e2, n)`` is right-handed orthonormal and the circular
        combinations ``e+- = (e1 +- i e2) / sqrt(2)`` satisfy
        ``n x e+- = -+ i e+-``.

    Raises
    ------
    InvalidDirectionError
        If ``n`` is (numerically) the zero vector.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or not np.all(np.isfinite(n)):
        raise InvalidDirectionError(f"direction must be a finite 3-vector, got {n!r}")
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        raise InvalidDirectionError("zero vector has no transverse frame")
    nhat = n / norm
    e1, e2 = _transverse_frames(nhat[None, :])
    e1, e2 = e1[0], e2[0]
    eplus = (e1 + 1j * e2) / np.sqrt(2.0)
    eminus = (e1 - 1j * e2) / np.sqrt(2.0)
    return e1, e2, eplus, eminus


@dataclass(frozen=True)
class ConeAmplitude:
    """Helicity amplitude sampled on a cone grid.

    ``values[i]`` is the complex coefficient of ``e+`` (positive sheet) or
    ``e-`` (negative sheet) at ``grid`` node ``i``; the reconstructed
    vector amplitude is ``f(p) = values * e_sheet(p_hat)``, which satisfies
    the transversality and curl constraints identically.
    """

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        if self.grid.kind != "cone":
            raise EmwaveError(f"ConeAmplitude needs a cone grid, got kind {self.grid.kind!r}")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (len(self.grid),):
            raise EmwaveError(
                f"amplitude shape {values.shape} does not match grid size {len(self.grid)}"
            )
        if not np.all(np.isfinite(values)):
            raise EmwaveError("amplitude values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class _RawVectorField:
    """Diagnostic stand-in for ConeAmplitude carrying verbatim vectors.

    Used by negative-control tests to inject constraint-violating
    amplitudes; never produced by the public constructors.
    """

    grid: QuadratureGrid
    fvecs: np.ndarray


def _unit_directions(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    omega = np.linalg.norm(grid.nodes, axis=1)
    return omega, grid.nodes / omega[:, None]


def _sheet_polarizations(grid: QuadratureGrid) -> np.ndarray:
    """Per-node circular polarization, shape (M, 3): e+ on the positive sheet, e- on the negative."""
    _, nhat = _unit_directions(grid)
    e1, e2 = _transverse_frames(nhat)
    return (e1 + 1j * grid.sheets[:, None] * e2) / np.sqrt(2.0)


def amplitude_from_scalar(grid: QuadratureGrid, fn) -> ConeAmplitude:
    """Build an amplitude by evaluating a helicity profile on the grid.

    ``fn(omega, nhat, sheet)`` receives arrays of node frequencies, unit
    directions ``(M, 3)`` and sheet labels, and returns complex values.
    """
    omega, nhat = _unit_directions(grid)
    values = np.asarray(fn(omega, nhat, grid.sheets), dtype=complex)
    return ConeAmplitude(grid, values)


def amplitude_vectors(amp: ConeAmplitude | _RawVectorField) -> np.ndarray:
    """Vector amplitude f(p), shape (M, 3), reconstructed per node."""
    if isinstance(amp, _RawVectorField):
        return amp.fvecs
    return amp.values[:, None] * _sheet_polarizations(amp.grid)


def amplitude_from_vectors(
    grid: QuadratureGrid, fvecs: np.ndarray, rtol: float = 1e-10
) -> ConeAmplitude:
    """Import raw vector amplitudes: validate the constraints, then project.

    The helicity scalar is the circular component matching each node's
    sheet; any residual outside that component means the input violates
    the transversality/curl constraints and is rejected.
    """
    fvecs = np.asarray(fvecs, dtype=complex)
    if fvecs.shape != (len(grid), 3):
        raise EmwaveError(f"expected vectors of shape ({len(grid)}, 3), got {fvecs.shape}")
    circ = _sheet_polarizations(grid)
    values = np.sum(np.conj(circ) * fvecs, axis=1)
    recon = values[:, None] * circ
    scale = np.maximum(np.linalg.norm(fvecs, axis=1), 1e-300)
    mismatch = np.linalg.norm(fvecs - recon, axis=1) / scale
    bad = mismatch > rtol
    if np.any(bad):
        i = int(np.argmax(mismatch))
        raise EmwaveError(
            f"vector amplitude violates the cone constraints at node {i} "
            f"(relative residual {mismatch[i]:.3e} > {rtol:.1e})"
        )
    return ConeAmplitude(grid, values)


def constraint_residuals(amp: ConeAmplitude | _RawVectorField) -> tuple[np.ndarray, np.ndarray]:
    """Per-node relative residuals of the two cone constraints.

    Returns ``(transversality, curl)`` where entry i is ``|p.f| / (omega
    |f|)`` and ``|p0 f - i p x f| / (omega |f|)``; zero-amplitude nodes
    report zero.
    """
    grid = amp.grid
    f = amplitude_vectors(amp)
    omega = np.linalg.norm(grid.nodes, axis=1)
    p0 = grid.sheets * omega
    fnorm = np.linalg.norm(f, axis=1)
    scale = np.where(fnorm > 0, omega * fnorm, 1.0)
    trans = np.abs(np.sum(grid.nodes * f, axis=1)) / scale
    curl = np.linalg.norm(p0[:, None] * f - 1j * np.cross(grid.nodes, f), axis=1) / scale
    return trans, curl


def gate2(x) -> np.ndarray:
    """2 theta(x) with theta(0) = 1/2, elementwise: the one complex-time gate of the package."""
    return np.where(x > 0.0, 2.0, np.where(x < 0.0, 0.0, 1.0))


def _evaluate_many(
    amp: ConeAmplitude | _RawVectorField,
    xs: np.ndarray,
    t: float,
    s: float | np.ndarray = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Field values at many points at complex time t - is.

    A scalar ``s`` gives shape (K, 3).  A 1-D array of scales gives shape
    (len(s), K, 3), written into ``out`` when given: each chunk of
    plane-wave phases is built once and contracted against every scale in
    one matrix product.
    """
    grid = amp.grid
    if len(grid) == 0:
        raise EmptyAmplitudeError("amplitude has no cone nodes")
    f = amplitude_vectors(amp)
    omega = np.linalg.norm(grid.nodes, axis=1)
    p0 = grid.sheets * omega
    scales = np.atleast_1d(np.asarray(s, dtype=float))[:, None]
    # per-node factor weight * gate * exp(-i p0 t - p0 s) * f, columns (scale, component)
    factor = grid.weights * gate2(p0 * scales) * np.exp(-p0 * (scales + 1j * t))
    coeff = (factor.T[:, :, None] * f[:, None, :]).reshape(len(grid), -1)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if out is None:
        out = np.empty((len(scales), len(xs), 3), dtype=complex)
    chunk = max(1, int(4e6 // max(len(grid), 1)))
    for lo in range(0, len(xs), chunk):
        hi = min(lo + chunk, len(xs))
        phase = np.exp(1j * (xs[lo:hi] @ grid.nodes.T))
        out[:, lo:hi] = (phase @ coeff).reshape(hi - lo, len(scales), 3).transpose(1, 0, 2)
    return out if np.ndim(s) else out[0]


def evaluate_field(
    amp: ConeAmplitude | _RawVectorField,
    pt: SpacetimePoint,
    s: float = 0.0,
) -> FieldSample:
    """Evaluate the field of an amplitude at a spacetime point.

    With ``s = 0`` this is the plane-wave superposition over the cone
    grid.  With ``s != 0`` it evaluates the analytic continuation to
    complex time ``t - is``: the sheet gate ``2 theta(p0 s)`` turns on and
    every surviving mode is damped by ``exp(-|p0 s|)``.
    """
    F = _evaluate_many(amp, pt.x[None, :], pt.t, s)[0]
    t_label = complex(pt.t, -s) if s != 0.0 else complex(pt.t)
    return FieldSample(F=F, x=pt.x, t=t_label)


def maxwell_residual(
    amp: ConeAmplitude | _RawVectorField,
    grid: QuadratureGrid,
    t: float,
    h: float,
) -> tuple[float, float]:
    """Finite-difference residuals of the two Maxwell equations.

    Central differences of step ``h`` approximate div F and
    (i dF/dt - curl F) at every node of the spatial ``grid``; the
    max-norms of both residuals are returned.  For amplitudes built by the
    public constructors both are pure truncation error, O(h^2).
    """
    if not (h > 0.0):
        raise EmwaveError(f"step must be positive, got {h}")
    if grid.kind != "spatial":
        raise EmwaveError("maxwell_residual needs a spatial grid")
    xs = grid.nodes
    K = len(xs)
    shifts = np.zeros((6, K, 3))
    for axis in range(3):
        basis = np.zeros(3)
        basis[axis] = h
        shifts[2 * axis] = xs + basis
        shifts[2 * axis + 1] = xs - basis
    F_space = _evaluate_many(amp, shifts.reshape(-1, 3), t).reshape(6, K, 3)
    F_tp = _evaluate_many(amp, xs, t + h)
    F_tm = _evaluate_many(amp, xs, t - h)

    # d_j F = (F(x + h e_j) - F(x - h e_j)) / 2h
    dF = np.stack([(F_space[2 * a] - F_space[2 * a + 1]) / (2.0 * h) for a in range(3)])
    div = dF[0][:, 0] + dF[1][:, 1] + dF[2][:, 2]
    curl = np.stack(
        [
            dF[1][:, 2] - dF[2][:, 1],
            dF[2][:, 0] - dF[0][:, 2],
            dF[0][:, 1] - dF[1][:, 0],
        ],
        axis=1,
    )
    dt = (F_tp - F_tm) / (2.0 * h)
    curl_residual = np.abs(1j * dt - curl).max() if K else 0.0
    div_residual = np.abs(div).max() if K else 0.0
    return float(div_residual), float(curl_residual)
