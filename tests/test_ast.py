"""Analytic-signal transform: line form, Fourier form, gates, decay classes."""

import numpy as np
import pytest
from scipy.special import roots_legendre

from emwave.ast import LineSignal, Spectrum, ast_fourier, ast_line, ast_line_with_tail
from emwave.errors import EmwaveError, NonFiniteSampleError

PI = np.pi
TWO_PI = 2.0 * np.pi


def gaussian(z):
    z = np.asarray(z, dtype=float)
    return complex(np.exp(-0.5 * np.sum(z * z)))


def gaussian_signal(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def sampler(taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        pts = x[None, :] + taus[:, None] * y[None, :]
        return np.exp(-0.5 * np.sum(pts**2, axis=1)).astype(complex)

    return LineSignal(sampler=sampler, decay="superexponential")


def halfspace_gaussian_spectrum(y, B=6.0, n=40):
    """Quadrature spectrum of exp(-|z|^2/2) over the half space p.y > 0.

    Nodes live in a rotated frame whose first axis is y_hat with strictly
    positive first coordinate, so the transform's half-space gate is 2 at
    every node and the integrand stays smooth.
    """
    y = np.asarray(y, dtype=float)
    yhat = y / np.linalg.norm(y)
    seed_cols = np.column_stack([yhat, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if abs(np.linalg.det(seed_cols)) < 1e-8:
        seed_cols = np.column_stack([yhat, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    Q, _ = np.linalg.qr(seed_cols)
    if np.dot(Q[:, 0], yhat) < 0:
        Q[:, 0] = -Q[:, 0]

    u, wu = roots_legendre(n)
    q1, w1 = 0.5 * B * (u + 1.0), 0.5 * B * wu  # (0, B]
    q2, w2 = B * u, B * wu  # [-B, B]
    G1, G2, G3 = np.meshgrid(q1, q2, q2, indexing="ij")
    coords = np.stack([G1.ravel(), G2.ravel(), G3.ravel()], axis=1)
    nodes = coords @ Q.T
    weights = (w1[:, None, None] * w2[None, :, None] * w2[None, None, :]).ravel()
    values = (TWO_PI) ** 1.5 * np.exp(-0.5 * np.sum(nodes**2, axis=1))
    return Spectrum(nodes=nodes, weights=weights, values=values.astype(complex))


def fullspace_gaussian_spectrum(B=7.5, n=48):
    u, wu = roots_legendre(n)
    q, w = B * u, B * wu
    G1, G2, G3 = np.meshgrid(q, q, q, indexing="ij")
    nodes = np.stack([G1.ravel(), G2.ravel(), G3.ravel()], axis=1)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    values = (TWO_PI) ** 1.5 * np.exp(-0.5 * np.sum(nodes**2, axis=1))
    return Spectrum(nodes=nodes, weights=weights, values=values.astype(complex))


# ---------------------------------------------------------------------------
# line form
# ---------------------------------------------------------------------------


def test_constant_signal_is_fixed_point():
    sig = LineSignal(
        sampler=lambda t: np.full_like(np.asarray(t, dtype=float), 2.5 - 0.5j, dtype=complex),
        decay="constant",
        limit=2.5 - 0.5j,
    )
    value, tail = ast_line_with_tail(sig, 30.0, 200)
    assert value == 2.5 - 0.5j
    assert tail == 0.0


def test_plane_wave_positive_frequency():
    # f(z) = e^{ik.z} with k.y > 0 transforms to 2 e^{ik.(x+iy)}
    k = np.array([1.2, -0.5, 0.8])
    x = np.array([0.3, 0.1, -0.7])
    y = np.array([0.5, 0.2, 0.9])
    kappa = float(k @ y)
    assert kappa > 0

    def sampler(taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return np.exp(1j * (k @ x + taus * kappa))

    sig = LineSignal(sampler=sampler, decay="oscillatory", rate=kappa)
    value = ast_line(sig, 60.0, 4000)
    want = 2.0 * np.exp(1j * (k @ x)) * np.exp(-kappa)
    assert abs(value - want) / abs(want) < 1e-6


def test_plane_wave_negative_frequency_vanishes():
    k = np.array([1.0, 0.0, 0.0])
    x = np.zeros(3)
    y = np.array([-0.8, 0.3, 0.1])
    kappa = float(k @ y)
    assert kappa < 0

    def sampler(taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return np.exp(1j * taus * kappa)

    sig = LineSignal(sampler=sampler, decay="oscillatory", rate=abs(kappa))
    assert abs(ast_line(sig, 60.0, 4000)) < 1e-6


def test_plane_wave_zero_frequency_is_constant_class():
    # k.y = 0 makes the line signal constant; the caller declares it so
    # and the transform returns it unchanged (the 2 theta(0) = 1 factor)
    k = np.array([0.0, 0.0, 2.0])
    x = np.array([0.4, 0.0, 0.3])
    y = np.array([1.0, 0.0, 0.0])
    amp = np.exp(1j * (k @ x))
    sig = LineSignal(
        sampler=lambda t: np.full_like(np.asarray(t, dtype=float), amp, dtype=complex),
        decay="constant",
        limit=amp,
    )
    assert ast_line(sig, 30.0, 200) == amp


def test_power_decay_matches_residue_value():
    # f(tau) = 1/(tau^2 + 4): closing the Cauchy integral upward picks up
    # poles at tau = i and tau = 2i, giving exactly 1/6
    sig = LineSignal(
        sampler=lambda t: (1.0 / (np.asarray(t, dtype=float) ** 2 + 4.0)).astype(complex),
        decay="power",
        rate=2.0,
    )
    value, tail = ast_line_with_tail(sig, 2000.0, 4000)
    assert abs(value - 1.0 / 6.0) < 2e-5
    assert abs(value - 1.0 / 6.0) < 10.0 * max(tail, 1e-9)


def test_tail_bound_is_honest_for_gaussians():
    x = np.array([0.2, -0.1, 0.5])
    y = np.array([0.6, 0.3, -0.2])
    sig = gaussian_signal(x, y)
    near, tail_near = ast_line_with_tail(sig, 5.0, 600)
    far, _ = ast_line_with_tail(sig, 15.0, 2400)
    assert abs(near - far) <= tail_near + 1e-12


def test_nonfinite_sampler_reported_with_location():
    def sampler(taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        out = np.exp(-taus**2).astype(complex)
        out[taus > 1.0] = np.nan
        return out

    sig = LineSignal(sampler=sampler, decay="superexponential")
    with pytest.raises(NonFiniteSampleError) as info:
        ast_line(sig, 10.0, 400)
    assert info.value.tau > 1.0


def test_line_signal_validation():
    f = lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex)
    with pytest.raises(EmwaveError):
        LineSignal(sampler=f, decay="mystery")
    with pytest.raises(EmwaveError):
        LineSignal(sampler=f, decay="power", rate=1.0)  # not integrable
    with pytest.raises(EmwaveError):
        LineSignal(sampler=f, decay="oscillatory", rate=0.0)


def test_line_quadrature_preconditions():
    sig = gaussian_signal(np.zeros(3), np.array([1.0, 0, 0]))
    with pytest.raises(EmwaveError):
        ast_line(sig, -1.0, 100)
    with pytest.raises(EmwaveError):
        ast_line(sig, 10.0, 8)


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda sig: ast_line_with_tail(sig, 10.0, 20.5), "^nodes must be an integer"),  # used to be accepted
        (lambda sig: ast_line_with_tail(sig, 10.0, True), "^nodes must be an integer"),
        (lambda sig: ast_line_with_tail(sig, "10", 100), "truncation="),  # used to be read as 10
        (lambda sig: ast_line(sig, np.nan, 100), "truncation="),
        (lambda sig: LineSignal(sampler=sig.sampler, decay="power", rate="2"), "rate="),  # TypeError
        (lambda sig: LineSignal(sampler=sig.sampler, decay="constant", limit=np.nan), "limit="),
        (lambda sig: ast_fourier(Spectrum(np.eye(3), np.ones(3), np.ones(3)), [0.0, np.nan, 0.0], np.zeros(3)), "x="),
        (lambda sig: ast_fourier(Spectrum(np.eye(3), np.ones(3), np.ones(3)), np.zeros(3), [np.nan, 0.0, 0.0]), "y="),
    ],
    ids=["nodes-20.5", "nodes-bool", "truncation-text", "truncation-nan", "rate-text", "limit-nan", "fourier-x-nan",
         "fourier-y-nan"],
)
def test_numbers_and_counts_of_the_wrong_kind_are_refused_by_name(call, needle):
    # the two NaN points of ast_fourier used to return NaN
    with pytest.raises(EmwaveError, match=needle):
        call(gaussian_signal(np.zeros(3), np.array([1.0, 0, 0])))


# ---------------------------------------------------------------------------
# Fourier form
# ---------------------------------------------------------------------------


def test_single_node_spectrum():
    p = np.array([0.5, 1.0, 0.2])
    y = np.array([0.3, 0.4, 0.1])
    x = np.array([-0.2, 0.6, 0.9])
    assert p @ y > 0
    w, v = 1.7, 0.8 - 0.3j
    spec = Spectrum(nodes=p[None, :], weights=np.array([w]), values=np.array([v]))
    got = ast_fourier(spec, x, y)
    want = (TWO_PI) ** -3 * w * 2.0 * v * np.exp(1j * (p @ x) - (p @ y))
    assert got == pytest.approx(want, rel=1e-15)


def test_boundary_node_gets_half_gate():
    p = np.array([0.0, 0.0, 1.5])
    y = np.array([1.0, 0.0, 0.0])  # p.y = 0 exactly
    x = np.array([0.2, -0.1, 0.4])
    spec = Spectrum(nodes=p[None, :], weights=np.array([2.0]), values=np.array([1.0 + 0j]))
    got = ast_fourier(spec, x, y)
    want = (TWO_PI) ** -3 * 2.0 * 1.0 * np.exp(1j * (p @ x))  # gate exactly 1
    assert got == pytest.approx(want, rel=1e-15)


def test_negative_halfspace_is_gated_out():
    p = np.array([0.5, 0.0, 0.0])
    y = np.array([-1.0, 0.0, 0.0])
    spec = Spectrum(nodes=p[None, :], weights=np.array([1.0]), values=np.array([3.0 + 0j]))
    assert ast_fourier(spec, np.zeros(3), y) == 0.0


def test_zero_direction_recovers_inverse_fourier():
    spec = fullspace_gaussian_spectrum()
    for x in (np.zeros(3), np.array([0.7, -0.3, 0.2])):
        got = ast_fourier(spec, x, np.zeros(3))
        assert abs(got - gaussian(x)) < 1e-10


def test_spectrum_validation():
    with pytest.raises(EmwaveError):
        Spectrum(nodes=np.zeros((0, 3)), weights=np.zeros(0), values=np.zeros(0, dtype=complex))
    with pytest.raises(EmwaveError):
        Spectrum(
            nodes=np.zeros((2, 3)),
            weights=np.array([1.0, -1.0]),
            values=np.zeros(2, dtype=complex),
        )


# ---------------------------------------------------------------------------
# agreement of the two forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_line_and_fourier_forms_agree_on_gaussians(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, 3)
    y = rng.uniform(0.3, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
    spec = halfspace_gaussian_spectrum(y)
    via_fourier = ast_fourier(spec, x, y)
    T = (np.linalg.norm(x) + 8.0) / np.linalg.norm(y)
    via_line = ast_line(gaussian_signal(x, y), T, max(400, int(24 * T)))
    assert abs(via_line - via_fourier) / abs(via_fourier) < 1e-6


def test_partial_analyticity_cauchy_riemann():
    # g(u + iv) = transform of the Gaussian at base x + u y, direction v y
    # is analytic for v > 0: the finite-difference Cauchy-Riemann residual
    # du g + i dv g decays at second order in the step
    x = np.array([0.2, -0.4, 0.1])
    y = np.array([0.7, 0.5, -0.3])
    spec = halfspace_gaussian_spectrum(y)

    def g(u, v):
        return ast_fourier(spec, x + u * y, v * y)

    def cr_residual(h):
        du = (g(h, 1.0) - g(-h, 1.0)) / (2 * h)
        dv = (g(0.0, 1.0 + h) - g(0.0, 1.0 - h)) / (2 * h)
        return abs(du + 1j * dv)

    r1, r2 = cr_residual(1e-2), cr_residual(5e-3)
    assert 1.8 < np.log2(r1 / r2) < 2.2
    assert cr_residual(1e-3) < 1e-5
