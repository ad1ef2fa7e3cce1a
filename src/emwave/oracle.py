"""Brute-force quadrature ground truths.

Everything here recomputes its target straight from the defining
integrals using generic quadrature (Gauss-Laguerre / composite
Gauss-Legendre / a globally adaptive Gauss-Kronrod 7-15 rule, with
Wynn's epsilon-algorithm over half-periods for Fourier integrals),
shares no code with the closed-form or FFT fast paths, refines itself
internally, and reports a convergence estimate.  Results whose estimate
exceeds the requested tolerance come back flagged, never silently.

Every rule is built here from numpy alone: the Gauss rules from the
eigenvalues of their Jacobi matrices (Golub and Welsch, 1969), polished
by Newton's method on the three-term recurrence, and the adaptive and
Fourier integrators after QUADPACK's QAGI and QAWF (Piessens et al., 1983).

This module deliberately imports nothing from the fast-path modules; a
lint test in the suite enforces that independence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# Newton steps that polish the Jacobi-matrix eigenvalues into Gauss nodes
_NEWTON_STEPS = 3
# most subintervals of one adaptive integral, and most half-periods of one Fourier integral
_ADAPTIVE_LIMIT = 300
_HALF_PERIODS = 50
# trailing moves of the epsilon-extrapolation that make up its error estimate
_WYNN_MOVES = 3

# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK's qk15): the nonnegative Kronrod
# nodes in descending order, their Kronrod weights, and the Gauss weights of the
# odd-indexed ones, which are the 7-point Gauss nodes
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
# all 15 nodes ascending, with both weight sets
_KRONROD_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_W = np.concatenate([_WG[:-1], _WG[::-1]])
_EPS = np.finfo(float).eps


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


def _newton(x: np.ndarray, poly) -> tuple[np.ndarray, np.ndarray]:
    """Polish approximate roots ``x`` of ``poly(x) -> (p, p')``; returns the roots and p' there."""
    for _ in range(_NEWTON_STEPS):
        p, dp = poly(x)
        x = x - p / dp
    return x, poly(x)[1]


def _built_once(rule):
    """``rule(n)`` built at its first call for each ``n`` and kept, its arrays made read-only."""
    built = {}

    def kept(n: int) -> tuple[np.ndarray, np.ndarray]:
        if n not in built:
            built[n] = rule(n)
            for array in built[n]:
                array.setflags(write=False)
        return built[n]

    return kept


@_built_once
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    The nodes start as the eigenvalues of the Jacobi matrix with
    off-diagonal ``k / sqrt(4k^2 - 1)`` and are polished by Newton steps on
    ``(k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}``; the weight of node x is
    ``2 / ((1 - x^2) P_n'(x)^2)``.
    """
    k = np.arange(1.0, n)

    def poly(x):
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x, dp = _newton(np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U"), poly)
    return x, 2.0 / ((1.0 - x * x) * dp**2)


@_built_once
def _laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Laguerre nodes (ascending) and weights for the weight e^-x on [0, inf).

    The nodes start as the eigenvalues of the Jacobi matrix with diagonal
    ``2k + 1`` and off-diagonal ``k`` and are polished by Newton steps on
    ``(k + 1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1}``; the weight of node x
    is ``1 / (x L_n'(x)^2)``.
    """
    k = np.arange(1.0, n)

    def poly(x):
        p0, p1 = np.ones_like(x), 1.0 - x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1 - x) * p1 - j * p0) / (j + 1)
        return p1, n * (p1 - p0) / x

    jacobi = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(k, 1)
    x, dp = _newton(np.linalg.eigvalsh(jacobi, UPLO="U"), poly)
    return x, 1.0 / (x * dp**2)


def _kronrod_error(fv: np.ndarray, half: float) -> float:
    """QUADPACK's G7K15 error estimate from real node values ``fv`` on a piece of half-width ``half``."""
    resk = np.sum(_KRONROD_W * fv)
    resabs = half * np.sum(_KRONROD_W * np.abs(fv))
    resasc = half * np.sum(_KRONROD_W * np.abs(fv - 0.5 * resk))
    err = abs(half * (resk - np.sum(_GAUSS_W * fv)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > np.finfo(float).tiny / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return float(err)


def _kronrod(g, a: float, b: float) -> tuple[complex, float]:
    """G7K15 on [a, b] for a vectorized ``g``: the Kronrod value and its error estimate.

    A complex ``g`` gets the estimate of its real part plus that of its
    imaginary part.
    """
    half = 0.5 * (b - a)
    fv = np.asarray(g(0.5 * (a + b) + half * _KRONROD_X))
    parts = (fv.real, fv.imag) if np.iscomplexobj(fv) else (fv,)
    return (half * np.sum(_KRONROD_W * fv)).item(), sum(_kronrod_error(p, half) for p in parts)


def _adaptive(g, edges, eps: float) -> tuple[complex, float]:
    """Globally adaptive G7K15 over the pieces between consecutive ``edges``: the value and its error estimate.

    Bisects the piece with the largest error estimate until the estimates
    sum to at most ``eps * max(1, |value|)`` or there are `_ADAPTIVE_LIMIT`
    pieces; the caller reads a large estimate as a failure to converge.
    """
    pieces = [(a, b, *_kronrod(g, a, b)) for a, b in zip(edges[:-1], edges[1:])]
    while True:
        value = sum(p[2] for p in pieces)
        err = sum(p[3] for p in pieces)
        if err <= eps * max(1.0, abs(value)) or len(pieces) >= _ADAPTIVE_LIMIT:
            return value, err
        lo, hi, _, _ = pieces.pop(max(range(len(pieces)), key=lambda i: pieces[i][3]))
        mid = 0.5 * (lo + hi)
        pieces += [(lo, mid, *_kronrod(g, lo, mid)), (mid, hi, *_kronrod(g, mid, hi))]


def _half_line(h, eps: float) -> tuple[complex, float]:
    """INT_0^inf h(u) du by the adaptive rule on u = v / (1 - v), v in [0, 1]."""
    return _adaptive(lambda v: h(v / (1.0 - v)) / (1.0 - v) ** 2, (0.0, 1.0), eps)


def _wynn(sums: list) -> float:
    """Wynn's epsilon-algorithm on partial sums: the last entry of the deepest even column.

    Column k + 1 is ``e_{k+1}[j] = e_{k-1}[j + 1] + 1 / (e_k[j + 1] - e_k[j])``
    with ``e_{-1} = 0`` and ``e_0`` the sums; the table stops early at a
    column whose entries agree to rounding, where the next one would divide
    by noise.
    """
    prev, col = [0.0] * (len(sums) + 1), list(sums)
    best = col[-1]
    for depth in range(1, len(sums)):
        diffs = [b - a for a, b in zip(col, col[1:])]
        if min(map(abs, diffs)) <= _EPS * max(map(abs, col)):
            break
        prev, col = col, [p + 1.0 / d for p, d in zip(prev[1:], diffs)]
        if depth % 2 == 0:
            best = col[-1]
    return best


def _fourier(h, kappa: float, eps: float) -> tuple[float, float]:
    """INT_0^inf h(u, kappa u) du for kappa > 0, after QUADPACK's QAWF.

    ``h(u, phase)`` is ``cos(phase)`` or ``sin(phase)`` times a factor that
    varies on the scale u ~ 1 and then slowly.  Each half-period of width
    ``pi / kappa`` is integrated with the adaptive rule; the first gets
    breakpoints at u = 1, 2, 4, ... so that the factor's scale shows
    however wide the half-period is.  Wynn's epsilon-algorithm accelerates
    the partial sums until its last `_WYNN_MOVES` moves add up to at most
    ``eps * max(1, |value|)``, or `_HALF_PERIODS` have been summed.  The
    error estimate is the pieces' estimates plus those moves.
    """
    width = np.pi / kappa
    first = [0.0, *2.0 ** np.arange(max(0, int(np.ceil(np.log2(width))))), width]
    total, err, sums, values = 0.0, 0.0, [], []
    for k in range(_HALF_PERIODS):
        edges = first if k == 0 else (k * width, (k + 1) * width)
        part, part_err = _adaptive(lambda u: h(u, kappa * u), edges, eps)
        total += part
        err += part_err
        sums.append(total)
        values.append(_wynn(sums))
        tail = values[-_WYNN_MOVES - 1:]
        moves = sum(abs(b - a) for a, b in zip(tail, tail[1:]))
        if len(values) > _WYNN_MOVES and moves <= eps * max(1.0, abs(values[-1])):
            break
    return values[-1], err + moves


def _sphere_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule over the unit sphere: directions (M, 3), weights (M,)."""
    mu, w_mu = _legendre(order)
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
        x, wx = _laguerre(radial)
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
    x, w = _legendre(nodes)
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
            mu, wmu = _legendre(n_mu)

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

    ``kind = "decaying"`` integrates with the adaptive Gauss-Kronrod rule
    on ``tau = v / (1 - v)``, v in [0, 1], and refines by tightening its
    tolerance from 1e-9 to 1e-12.  ``kind = "plane"`` treats ``f`` as the
    pure plane wave ``f(z) = f(0) e^{i k.z}``: with ``kappa = k . y`` the
    integral is ``f(x) (2 / pi) INT_0^inf [cos(kappa tau) + tau
    sin(kappa tau)] / (tau^2 + 1) dtau``, summed over half-periods
    ``pi / |kappa|`` with Wynn's epsilon-algorithm, at tolerances 1e-9
    and 1e-11.  The estimate is relative to ``|value|``, for a plane wave
    to ``max(|value|, |f(x)|)``, the integral's natural size, so that the
    correct zero at ``kappa < 0`` counts as converged.
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
                Ic, ec = _half_line(lambda u: 1.0 / (u * u + 1.0), eps)
                return amp * (2.0 / np.pi) * Ic, ec
            ak = abs(kappa)
            Is, es = _fourier(lambda u, ph: u * np.sin(ph) / (u * u + 1.0), ak, eps)
            Ic, ec = _fourier(lambda u, ph: np.cos(ph) / (u * u + 1.0), ak, eps)
            sign = 1.0 if kappa > 0.0 else -1.0
            return amp * (2.0 / np.pi) * (Ic + sign * Is), es + ec

        coarse, _ = _once(1e-9)
        fine, abserr = _once(1e-11)
    elif kind == "decaying":
        def integrand(u: np.ndarray) -> np.ndarray:
            fp = np.array([complex(f(x + ui * y)) for ui in u])
            fm = np.array([complex(f(x - ui * y)) for ui in u])
            return (u * (fp - fm) + 1j * (fp + fm)) / (u * u + 1.0) / (np.pi * 1j)

        coarse, _ = _half_line(integrand, 1e-9)
        fine, abserr = _half_line(integrand, 1e-12)
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")

    # a plane wave's signal has the natural size |f(x)|, also where it is 0 (kappa < 0)
    size = max(abs(fine), abs(amp) if kind == "plane" else 0.0, 1e-300)
    est = abs(fine - coarse) / size + abserr / size
    return OracleResult(fine, est, est <= tol)
