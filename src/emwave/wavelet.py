"""Closed-form spherical wavelets and their reproducing kernel.

The analytic continuation of a field to complex time is an inner product
against a family of wavelets labelled by a center y and a nonzero scale s
(the sign of s selects the frequency sheet).  Both the wavelets and their
reproducing kernel evaluate in closed rational form:

    K(x, t, sigma; y, s) = (2 theta(sigma s) / pi^2)
                           * (3 tau^2 - r^2) / (tau^2 + r^2)^3,

with tau = s + sigma + i t and r = |x - y|; the wavelet itself is the
sigma = 0 case (gate factor 2 theta(0) = 1).  Only tau^2 appears, so no
branch cuts arise and plain complex polynomial arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmwaveError, InvalidScaleError, SingularKernelError, check_array, check_real
from .fieldcore import ConePoint, gate2

__all__ = [
    "WaveletLabel",
    "eval_kernel",
    "eval_wavelet",
    "scaling_check",
    "wavelet_momentum",
]

PI_SQ = np.pi**2
_SINGULAR_CUTOFF = 1e-30


@dataclass(frozen=True)
class WaveletLabel:
    """Label (y, s) of one wavelet, with an optional label time.

    ``y`` is the spatial center, a finite real 3-vector; ``s`` is the
    finite nonzero scale whose sign selects the frequency sheet; ``t`` is
    the finite real time at which `wavelet_momentum` reads the label.
    """

    y: np.ndarray
    s: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", check_array(self.y, "wavelet center y", (3,)))
        object.__setattr__(self, "s", check_real(self.s, "wavelet scale s"))
        if self.s == 0.0:
            raise InvalidScaleError("wavelet scale must be nonzero")
        object.__setattr__(self, "t", check_real(self.t, "wavelet label time t"))


def eval_kernel(x, t, sigma: float, y, s: float):
    """Reproducing kernel between labels (x, t - i sigma) and (y, -i s).

    Evaluates ``(2 theta(sigma s) / pi^2) (3 tau^2 - r^2) / (tau^2 + r^2)^3``
    with ``tau = s + sigma + i t`` and ``r = |x - y|``.  ``x`` may be a
    single 3-vector or an array of them along a last axis of length 3, and
    ``t`` a number or an array that broadcasts against the points; scalars
    in, scalar out.

    Raises
    ------
    EmwaveError
        If ``x``, ``t``, ``sigma``, ``y`` or ``s`` is not finite and real,
        a shape does not fit, or the value leaves the normal float range,
        once ``|tau|`` or ``r`` nears 1e77.  Where ``(tau^2 + r^2)^3``
        overflows (from about 1.6e51) the same form is taken in ``tau/m``
        and ``r/m`` over ``m^4``, ``m = max(|tau|, r)``; every other point
        keeps the bits of the direct form.
    SingularKernelError
        If ``|tau^2 + r^2|`` falls below 1e-30: on the singular set
        ``sigma + s = 0``, ``r = |t|``, or within rounding of it (a combined
        scale below 1e-15 at ``r = t = 0``, say).
    """
    x, y = check_array(x, "kernel point x", (..., 3)), check_array(y, "kernel center y", (3,))
    t = check_array(t, "kernel time t")
    sigma, s = check_real(sigma, "kernel offset sigma"), check_real(s, "kernel scale s")
    try:
        np.broadcast_shapes(x.shape[:-1], t.shape)
    except ValueError:
        raise EmwaveError(f"kernel times t of shape {t.shape} do not broadcast against points x {x.shape}") from None
    value = _kernel(x, t, sigma, y, s)
    return complex(value) if x.ndim == 1 and np.ndim(t) == 0 else value


def _kernel(x, t, sigma, y, s):
    """`eval_kernel` at checked finite arguments that broadcast: points ``x`` and centers ``y`` along a
    last axis of length 3, and times ``t``, offsets ``sigma`` and scales ``s`` against the points.

    Scalars give a 0-d result, and arrays the value at each broadcast point.
    """
    gate = gate2(sigma * s)
    try:
        with np.errstate(over="raise", invalid="raise"):
            r = np.linalg.norm(np.atleast_2d(x - y), axis=-1)
        if x.ndim == 1 and y.ndim == 1:
            r = r[0]
        tau = (s + sigma) + 1j * t
        # where the cube overflows it is taken again below; where it is 0 the singular check below refuses the point
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tau_sq = tau * tau
            r_sq = r * r
            den = tau_sq + r_sq
            cube = PI_SQ * den**3
            value = gate * (3.0 * tau_sq - r_sq) / cube
            singular = np.abs(den) < _SINGULAR_CUTOFF
        if np.any(singular):
            idx = np.argmin(np.where(singular, np.abs(den), np.inf))  # a flat index into the broadcast shape of tau and r
            bad_tau, bad_r = (np.broadcast_to(v, den.shape).flat[idx] for v in (tau, r))
            raise SingularKernelError(complex(bad_tau), float(bad_r))
        over = ~np.isfinite(cube)
        if np.any(over):  # the same form in tau/m and r/m, with m = max(|tau|, r), over m^4
            gate_o, tau_o, r_o = (np.broadcast_to(v, over.shape)[over] for v in (gate, tau, r))
            m = np.maximum(np.abs(tau_o), r_o)
            u_sq, rho_sq = (tau_o / m) ** 2, (r_o / m) ** 2
            with np.errstate(over="raise", invalid="raise"):
                scaled = gate_o * (3.0 * u_sq - rho_sq) / (PI_SQ * (u_sq + rho_sq) ** 3) / m**4
            if np.any((scaled != 0.0) & (np.abs(scaled) < np.finfo(float).tiny)):
                raise FloatingPointError  # subnormal: out of the normal range as well
            value = np.array(value)
            value[over] = scaled
    except FloatingPointError:
        raise EmwaveError(
            f"the kernel at combined scale s + sigma = {s + sigma!r} overflows floating point: "
            "it leaves the normal float range once |tau| or r = |x - y| nears 1e77"
        ) from None
    return value


def eval_wavelet(label: WaveletLabel, x, t):
    """Wavelet value e_{y,-is}(x, t) in closed rational form.

    Equal to `eval_kernel` with ``sigma = 0`` (gate factor 1):
    ``(3 tau^2 - r^2) / (pi^2 (tau^2 + r^2)^3)`` with ``tau = s + i t``.
    The packet is localized in the ball ``|x - y| <= sqrt(3) |s|`` at
    ``t = 0``, where its real zero sits at ``r = sqrt(3) |s|``.
    """
    return eval_kernel(x, t, 0.0, label.y, label.s)


def scaling_check(label: WaveletLabel, x, t) -> tuple[complex, complex]:
    """Both sides of the dilation covariance identity.

    The left side is ``e_{y,-is}(x, t)``; the right side is
    ``s^-4 e_{y/s,-i}(x/s, t/s)``, evaluated through `eval_wavelet`.  The
    two agree to relative 1e-12 (the identity is exact in real
    arithmetic; only rounding separates the sides).  A scale so small that
    ``s^-4``, ``x / s`` or ``t / s`` leaves the float range raises
    `EmwaveError`.
    """
    s = label.s
    lhs = eval_wavelet(label, x, t)
    try:
        with np.errstate(over="raise"):
            factor = s**-4.0
            unit = WaveletLabel(label.y / s, 1.0)
            rhs = factor * eval_wavelet(unit, np.asarray(x, dtype=float) / s, np.asarray(t, dtype=float) / s)
    except (OverflowError, FloatingPointError):
        raise EmwaveError(f"the rescaled side of the scaling identity at s = {s!r} overflows floating point") from None
    return lhs, rhs


def wavelet_momentum(label: WaveletLabel, q: ConePoint) -> complex:
    """Momentum-space representative of the wavelet at a cone point.

    For the label (y, s) at label time t this is

        omega^2 * 2 theta(p0 s) * exp(i p0 t - p0 s) * exp(-i p . y),

    the conjugate of the evaluation map's integrand density.  The sheet
    gate kills cone points whose frequency sign opposes the sign of s; at
    y = 0, s = 1 on the positive sheet it reduces to ``2 omega^2 e^-omega``.
    """
    omega = q.omega
    p0 = q.p0
    gate = gate2(p0 * label.s)
    if gate == 0.0:
        return 0.0 + 0.0j
    phase = np.exp(1j * p0 * label.t - p0 * label.s - 1j * float(q.p @ label.y))
    return complex(gate * omega**2 * phase)
