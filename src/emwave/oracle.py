"""Brute-force quadrature ground truths.

Everything here recomputes its target straight from the defining
integrals using generic quadrature (Gauss-Laguerre / composite
Gauss-Legendre / adaptive QUADPACK), shares no code with the closed-form
or FFT fast paths, refines itself internally, and reports a convergence
estimate.  Results whose estimate exceeds the requested tolerance come
back flagged, never silently.

This module deliberately imports nothing from the fast-path modules; a
lint test in the suite enforces that independence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import roots_laguerre, roots_legendre

__all__ = [
    "OracleResult",
    "cone_inner_product",
    "wavelet_by_quadrature",
    "kernel_by_quadrature",
    "ast_by_quadrature",
]


# fixed rules: Gauss-Laguerre radial nodes at substitution rate omega = x / rate,
# the order of the product sphere rule, and the per-panel node count of the
# radial line quadratures; each count is doubled for the convergence estimate
_RADIAL_NODES = 48
_RADIAL_RATE = 2.0
_ANGULAR_ORDER = 16
_LINE_NODES = 16
# radial nodes per chunk of the product rule, each times the whole sphere rule
_RADIAL_CHUNK = 8


@dataclass(frozen=True)
class OracleResult:
    """Value plus self-reported convergence data.

    ``estimate`` is the relative change under internal refinement
    (node doubling or tolerance tightening); ``converged`` says whether it
    met the tolerance the caller requested.  Tests must treat
    ``converged = False`` results as failures to converge, not as truth.
    """

    value: complex
    estimate: float
    converged: bool

    def __complex__(self) -> complex:
        return complex(self.value)


def _relative_gap(coarse: complex, fine: complex) -> float:
    scale = max(abs(fine), 1e-300)
    return abs(fine - coarse) / scale


def _sphere_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule over the unit sphere: directions (M, 3), weights (M,)."""
    mu, w_mu = roots_legendre(order)
    n_phi = 2 * order
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    sin_theta = np.sqrt(1.0 - mu**2)
    nhat = np.column_stack(
        [
            np.outer(sin_theta, np.cos(phi)).ravel(),
            np.outer(sin_theta, np.sin(phi)).ravel(),
            np.repeat(mu, n_phi),
        ]
    )
    w = np.repeat(w_mu, n_phi) * (2.0 * np.pi / n_phi)
    return nhat, w


def cone_inner_product(amp_a, amp_b, tol: float = 1e-10) -> OracleResult:
    """Momentum-space inner product of two closed-form amplitudes.

    ``amp_a`` and ``amp_b`` are callables ``(omega, nhat, sheet) ->
    complex`` over arrays of frequencies and unit directions, for sheet
    +1 and -1; each may return scalar amplitudes ``(M,)`` (implicitly
    multiplying a shared unit polarization) or full 3-vectors ``(M, 3)``.
    Computes the frequency-weighted pairing

        sum_sheets (2 pi)^-3 INT d^3p / (2 omega) . omega^-2 conj(a) . b

    by 48-node Gauss-Laguerre (radial, with exponential substitution
    ``omega = x / 2``) times a product sphere rule of order 16, then doubles
    both node counts for the convergence estimate.  The product rule is
    evaluated `_RADIAL_CHUNK` radial nodes at a time, times the whole sphere
    rule, and the chunks are summed in order, so no full product rule is held.
    """

    def _chunk(om_r, w_r, nhat, w_ang, sheet) -> complex:
        # the radial nodes om_r (weights w_r) times the whole sphere rule, on one sheet
        om = np.repeat(om_r, len(nhat))
        nn = np.tile(nhat, (len(om_r), 1))
        pair = np.conj(np.asarray(amp_a(om, nn, sheet), dtype=complex))
        pair *= np.asarray(amp_b(om, nn, sheet), dtype=complex)
        if pair.ndim == 2:
            pair = np.sum(pair, axis=-1)
        # radial jacobian omega^2 times the omega^-2 weight cancels: net 1/(2 omega)
        ww = np.repeat(w_r / (2.0 * om_r), len(nhat)) * np.tile(w_ang, len(om_r))
        return np.sum(ww * pair)

    def _once(radial: int, order: int) -> complex:
        x, wx = roots_laguerre(radial)
        omega = x / _RADIAL_RATE
        # undo the e^-x Laguerre weight; fold in the measure (2pi)^-3/(2 omega)
        w_rad = wx * np.exp(x) / _RADIAL_RATE
        nhat, w_ang = _sphere_rule(order)
        total = 0.0 + 0.0j
        for sheet in (1, -1):
            for lo in range(0, radial, _RADIAL_CHUNK):
                chunk = slice(lo, lo + _RADIAL_CHUNK)
                total += _chunk(omega[chunk], w_rad[chunk], nhat, w_ang, sheet)
        return complex(total * (2.0 * np.pi) ** -3)

    coarse = _once(_RADIAL_NODES, _ANGULAR_ORDER)
    fine = _once(2 * _RADIAL_NODES, 2 * _ANGULAR_ORDER)
    est = _relative_gap(coarse, fine)
    return OracleResult(fine, est, est <= tol)


def _panels(total: float, width: float) -> np.ndarray:
    n = max(4, int(np.ceil(total / width)))
    return np.linspace(0.0, total, n + 1)


def _radial_line_quadrature(integrand, decay: float, phase_rate: float, nodes: int) -> complex:
    """Composite Gauss-Legendre on the half line for exp-damped oscillations.

    ``integrand(omega)`` must decay like ``exp(-decay * omega)`` up to
    polynomial factors and oscillate no faster than ``phase_rate``.
    Panels are sized to hold about one oscillation cycle or three decay
    lengths, whichever is shorter.
    """
    cutoff = 60.0 / decay
    width = min(3.0 / decay, 2.0 * np.pi / max(phase_rate, 1e-12))
    edges = _panels(cutoff, width)
    x, w = roots_legendre(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    om = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ww = (half[:, None] * w[None, :]).ravel()
    return complex(np.sum(ww * integrand(om)))


def wavelet_by_quadrature(
    y,
    s: float,
    x,
    t: float,
    tol: float = 1e-9,
    form: str = "reduced",
) -> OracleResult:
    """Wavelet value by direct quadrature of its cone integral.

    The defining integral over the double cone keeps only the sheet whose
    frequency sign matches ``s``; in spherical momentum coordinates with
    ``alpha = |s| + i sign(s) t`` and ``r = |x - y|`` it reduces to

        reduced:  (1 / (2 pi^2 r)) INT_0^inf omega^2 e^{-omega alpha}
                  sin(omega r) domega
        full:     (1 / (4 pi^2)) INT_0^inf omega^3 e^{-omega alpha}
                  [INT_-1^1 e^{i omega r mu} dmu] domega

    both evaluated with composite Gauss-Legendre panels of 16 nodes sized
    to the oscillation; the node count doubles for the convergence estimate.
    """
    if s == 0.0:
        raise ValueError("wavelet scale must be nonzero")
    if form not in ("reduced", "full"):
        raise ValueError(f"unknown form {form!r}")
    r = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    alpha = abs(s) + 1j * np.sign(s) * t
    decay = abs(s)
    phase_rate = abs(t) + r

    if form == "reduced":
        if r < 1e-12:
            def integrand(om):
                return om**3 * np.exp(-om * alpha) / (2.0 * np.pi**2)
        else:
            def integrand(om):
                return om**2 * np.exp(-om * alpha) * np.sin(om * r) / (2.0 * np.pi**2 * r)

        coarse = _radial_line_quadrature(integrand, decay, phase_rate, _LINE_NODES)
        fine = _radial_line_quadrature(integrand, decay, phase_rate, 2 * _LINE_NODES)
    else:
        def _full(n_rad: int, n_mu: int) -> complex:
            mu, wmu = roots_legendre(n_mu)

            def integrand(om):
                ang = np.exp(1j * np.outer(om * r, mu)) @ wmu
                return om**3 * np.exp(-om * alpha) * ang / (4.0 * np.pi**2)

            return _radial_line_quadrature(integrand, decay, phase_rate, n_rad)

        n_mu = int(np.ceil(0.5 * (60.0 / decay) * r)) + 16
        coarse = _full(_LINE_NODES, n_mu)
        fine = _full(2 * _LINE_NODES, 2 * n_mu)

    est = _relative_gap(coarse, fine)
    return OracleResult(fine, est, est <= tol)


def kernel_by_quadrature(
    x,
    t: float,
    sigma: float,
    y,
    s: float,
    tol: float = 1e-9,
    form: str = "reduced",
) -> OracleResult:
    """Reproducing kernel by direct quadrature of its cone integral.

    The kernel's momentum integrand is the product of two wavelet
    representatives: ``4 theta(p0 sigma) theta(p0 s) omega^2
    e^{-p0 (s + sigma + i t)} e^{i p . (x - y)}`` over the cone measure.
    For ``sigma s < 0`` the gates are disjoint and the kernel vanishes;
    otherwise the integral equals twice the wavelet integral at combined
    scale ``s + sigma`` (gate 2 theta(0) = 1 applies when one label sits
    exactly on the real-time slice, ``sigma = 0``).
    """
    prod = sigma * s
    if prod < 0.0:
        return OracleResult(0.0 + 0.0j, 0.0, True)
    gate = 1.0 if prod == 0.0 else 2.0
    base = wavelet_by_quadrature(y, s + sigma, x, t, tol=tol, form=form)
    return OracleResult(gate * base.value, base.estimate, base.converged)


def ast_by_quadrature(
    f,
    x,
    y,
    kind: str = "decaying",
    k=None,
    tol: float = 1e-9,
) -> OracleResult:
    """Analytic-signal value by adaptive quadrature on the real line.

    Folds the Cauchy-kernel line integral onto the half line:

        (1 / (pi i)) INT_0^inf [tau (f+ - f-) + i (f+ + f-)] / (tau^2 + 1)
        dtau,     f+-(tau) = f(x +- tau y).

    ``kind = "decaying"`` integrates with QUADPACK on the infinite
    interval and refines by tightening tolerances tenfold.  ``kind =
    "plane"`` treats ``f`` as the pure plane wave ``f(z) = f(0) e^{i k.z}``
    and uses QUADPACK's oscillation-weighted rule with ``kappa = k . y``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    if kind == "plane":
        if k is None:
            raise ValueError("plane-wave oracle needs the wave vector k")
        kappa = float(np.asarray(k, dtype=float) @ y)
        amp = complex(f(x))

        def _once(eps: float) -> tuple[complex, float]:
            if kappa == 0.0:
                Ic, ec = integrate.quad(lambda u: 1.0 / (u * u + 1.0), 0.0, np.inf, epsabs=eps, epsrel=eps)
                return amp * (2.0 / np.pi) * Ic, abs(ec)
            ak = abs(kappa)
            Is, es = integrate.quad(
                lambda u: u / (u * u + 1.0), 0.0, np.inf, weight="sin", wvar=ak, epsabs=eps, epsrel=eps
            )
            Ic, ec = integrate.quad(
                lambda u: 1.0 / (u * u + 1.0), 0.0, np.inf, weight="cos", wvar=ak, epsabs=eps, epsrel=eps
            )
            sign = 1.0 if kappa > 0.0 else -1.0
            return amp * (2.0 / np.pi) * (Ic + sign * Is), abs(es) + abs(ec)

        coarse, _ = _once(1e-9)
        fine, abserr = _once(1e-11)
    elif kind == "decaying":
        def real_part(u: float) -> float:
            fp = complex(f(x + u * y))
            fm = complex(f(x - u * y))
            val = (u * (fp - fm) + 1j * (fp + fm)) / (u * u + 1.0)
            return (val / (np.pi * 1j)).real

        def imag_part(u: float) -> float:
            fp = complex(f(x + u * y))
            fm = complex(f(x - u * y))
            val = (u * (fp - fm) + 1j * (fp + fm)) / (u * u + 1.0)
            return (val / (np.pi * 1j)).imag

        def _once(eps: float) -> tuple[complex, float]:
            re, er = integrate.quad(real_part, 0.0, np.inf, epsabs=eps, epsrel=eps, limit=300)
            im, ei = integrate.quad(imag_part, 0.0, np.inf, epsabs=eps, epsrel=eps, limit=300)
            return complex(re, im), abs(er) + abs(ei)

        coarse, _ = _once(1e-9)
        fine, abserr = _once(1e-12)
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")

    est = _relative_gap(coarse, fine) + abserr / max(abs(fine), 1e-300)
    return OracleResult(fine, est, est <= tol)
