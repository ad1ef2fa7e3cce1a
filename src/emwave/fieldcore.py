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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyAmplitudeError,
    EmwaveError,
    InvalidDirectionError,
    check_array,
    check_count,
    check_real,
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
# relative residual outside the sheet's circular component that `amplitude_from_vectors` tolerates
_CONSTRAINT_RTOL = 1e-10
# complex entries (4 MiB) of the one bound on every transient block: the dense
# sum's phases, an analysis stream's slices and a synthesis block's (k, N^2)
# table, so no such block grows with the probe or the scale count
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SpacetimePoint:
    """A real spacetime point (x, t) with c = 1: a finite real 3-vector and a finite real number."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", check_array(self.x, "spacetime point x", (3,)))
        object.__setattr__(self, "t", check_real(self.t, "spacetime point t"))


@dataclass(frozen=True)
class ConePoint:
    """A point on the double light cone: a finite real nonzero momentum 3-vector p and sheet +/-1.

    The sheet must be the integer 1 or -1 (a numpy integer too, stored as
    an int); a bool, a float, a string or an array is refused.
    """

    p: np.ndarray
    sheet: int

    def __post_init__(self):
        p = check_array(self.p, "cone point momentum p", (3,))
        if np.linalg.norm(p) <= 0.0:
            raise EmwaveError("the origin p = 0 is excluded from the cone")
        sheet = check_count(self.sheet, "sheet")
        if sheet not in (1, -1):
            raise EmwaveError(f"sheet must be +1 or -1, got {self.sheet!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sheet", sheet)

    @property
    def omega(self) -> float:
        return float(np.linalg.norm(self.p))

    @property
    def p0(self) -> float:
        return self.sheet * self.omega


@dataclass(frozen=True)
class FieldSample:
    """Field value F = E + iB at a (possibly complex-time) point.

    ``F`` is a finite complex 3-vector and ``x`` a finite real one.  ``t``
    is finite, real for ordinary spacetime samples and complex (t - i sigma)
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
        object.__setattr__(self, "F", check_array(self.F, "field sample F", (3,), complex))
        object.__setattr__(self, "x", check_array(self.x, "field sample location x", (3,)))
        object.__setattr__(self, "t", complex(check_array(self.t, "field sample time t", (), complex)))
        if self.truncation_estimate is not None:
            object.__setattr__(self, "truncation_estimate", check_real(self.truncation_estimate, "truncation_estimate"))


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
    EmwaveError
        If ``n`` is not a finite real 3-vector.
    InvalidDirectionError
        If ``n`` is (numerically) the zero vector.
    """
    n = check_array(n, "direction n", (3,))
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
    the transversality and curl constraints identically.  The first
    `amplitude_vectors` call stores that read-only (M, 3) array on it: the
    values and the grid's arrays are read-only, so it never goes stale.
    """

    grid: QuadratureGrid
    values: np.ndarray
    _vectors: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.grid.kind != "cone":
            raise EmwaveError(f"ConeAmplitude needs a cone grid, got kind {self.grid.kind!r}")
        values = check_array(self.values, "amplitude values", (len(self.grid),), complex)
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
    """Vector amplitude f(p), shape (M, 3), reconstructed per node once per amplitude and read-only."""
    if isinstance(amp, _RawVectorField):
        return amp.fvecs
    if amp._vectors is None:
        vectors = amp.values[:, None] * _sheet_polarizations(amp.grid)
        vectors.setflags(write=False)
        object.__setattr__(amp, "_vectors", vectors)
    return amp._vectors


def amplitude_from_vectors(grid: QuadratureGrid, fvecs: np.ndarray) -> ConeAmplitude:
    """Import raw vector amplitudes: validate the constraints, then project.

    The helicity scalar is the circular component matching each node's
    sheet; a residual outside that component above `_CONSTRAINT_RTOL`
    (1e-10) of the node's vector norm means the input violates the
    transversality/curl constraints and is rejected.
    """
    fvecs = check_array(fvecs, "fvecs", (len(grid), 3), complex)
    circ = _sheet_polarizations(grid)
    values = np.sum(np.conj(circ) * fvecs, axis=1)
    recon = values[:, None] * circ
    scale = np.maximum(np.linalg.norm(fvecs, axis=1), 1e-300)
    mismatch = np.linalg.norm(fvecs - recon, axis=1) / scale
    if np.any(mismatch > _CONSTRAINT_RTOL):
        i = int(np.argmax(mismatch))
        raise EmwaveError(
            f"vector amplitude violates the cone constraints at node {i} "
            f"(relative residual {mismatch[i]:.3e} > {_CONSTRAINT_RTOL:.1e})"
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
    (len(s), K, 3), written into ``out`` when given.  Per call, the
    scale-free (3, M) node table ``w e^{-i p0 t} f`` is built once, and so
    is each scale's real damping ``gate e^{-p0 s}`` over the span of nodes
    its gate leaves on.  The phases of a chunk of probes fill one reused
    block of at most `_BLOCK_ENTRIES` complex entries in place:
    ``(x p_x + y p_y) + z p_z`` goes into its imaginary part, with the real
    part as the only scratch, then ``exp`` runs in place.  Per scale, the
    product of the table and the damping fills one reused (3, M) buffer,
    and ``np.einsum`` contracts the block against it, each entry summed
    over the nodes in order without BLAS, so the bits depend neither on the
    BLAS thread count nor on the chunk size.  Besides ``out`` the sum holds
    the block, the table, the buffer and the dampings (at most one float
    per scale and node).
    """
    grid = amp.grid
    if len(grid) == 0:
        raise EmptyAmplitudeError("amplitude has no cone nodes")
    omega = np.linalg.norm(grid.nodes, axis=1)
    p0 = grid.sheets * omega
    table = grid.weights * np.exp(-1j * p0 * t) * np.ascontiguousarray(amplitude_vectors(amp).T)
    scales = np.atleast_1d(np.asarray(s, dtype=float))
    dampings = []
    for si in scales:
        # the span the gate leaves on, and gate * exp(-p0 s) over it
        gate = gate2(p0 * si)
        live = np.flatnonzero(gate)
        on = slice(live[0], live[-1] + 1) if live.size else slice(0, 0)
        dampings.append((on, gate[on] * np.exp(-p0[on] * si)))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if out is None:
        out = np.empty((len(scales), len(xs), 3), dtype=complex)
    chunk = max(1, _BLOCK_ENTRIES // len(grid))
    block = np.empty((min(chunk, len(xs)), len(grid)), dtype=complex)
    damped = np.empty(table.size, dtype=complex)
    for lo in range(0, len(xs), chunk):
        x, y, z = (xs[lo : lo + chunk, axis, None] for axis in range(3))
        phase = block[: len(x)]
        theta, scratch = phase.imag, phase.real
        np.multiply(x, grid.nodes[:, 0], out=theta)
        theta += np.multiply(y, grid.nodes[:, 1], out=scratch)
        theta += np.multiply(z, grid.nodes[:, 2], out=scratch)
        scratch.fill(0.0)
        np.exp(phase, out=phase)
        for i, (on, damping) in enumerate(dampings):
            node = np.multiply(table[:, on], damping, out=damped[: 3 * damping.size].reshape(3, -1))
            np.einsum("km,cm->kc", phase[:, on], node, out=out[i, lo : lo + len(x)], optimize=False)
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
    every surviving mode is damped by ``exp(-|p0 s|)``.  ``s`` is a finite
    real number.
    """
    s = check_real(s, "evaluate_field scale s")
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
    public constructors both are pure truncation error, O(h^2).  ``t`` and
    ``h`` are finite real numbers, ``h > 0``.
    """
    t, h = check_real(t, "maxwell_residual time t"), check_real(h, "maxwell_residual step h")
    if not h > 0.0:
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
