"""Brute-force oracle evaluators: anchors, convergence reporting, gates."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_laguerre, roots_legendre, wofz

from emwave import oracle
from emwave.oracle import (
    OracleResult,
    ast_by_quadrature,
    cone_inner_product,
    kernel_by_quadrature,
    wavelet_by_quadrature,
)
from emwave.grids import _legendre_rule
from emwave.wavelet import WaveletLabel, eval_wavelet

PI = np.pi
ORIGIN = np.zeros(3)
KERNEL_DIAGONAL = 3.0 / (8.0 * PI**2)


def _plus_sheet_amp(om, nn, sheet):
    base = 2.0 * om**2 * np.exp(-om)
    return (base if sheet > 0 else np.zeros_like(base)).astype(complex)


# ---------------------------------------------------------------------------
# cone inner product
# ---------------------------------------------------------------------------


def test_inner_product_anchor_scalar():
    res = cone_inner_product(_plus_sheet_amp, _plus_sheet_amp)
    assert res.converged
    assert abs(complex(res).real - KERNEL_DIAGONAL) / KERNEL_DIAGONAL < 1e-10
    assert abs(complex(res).imag) < 1e-16


def test_inner_product_anchor_vector():
    # the same amplitude as explicit 3-vectors along a fixed unit
    # polarization; the pairing must agree with the scalar form
    e = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)

    def vec_amp(om, nn, sheet):
        scal = _plus_sheet_amp(om, nn, sheet)
        return scal[:, None] * e[None, :]

    res = cone_inner_product(vec_amp, vec_amp)
    assert abs(complex(res).real - KERNEL_DIAGONAL) / KERNEL_DIAGONAL < 1e-10


def test_inner_product_conjugate_symmetry():
    def amp_b(om, nn, sheet):
        return ((om + 0.5j * nn[:, 2]) * np.exp(-om)).astype(complex)

    ab = complex(cone_inner_product(_plus_sheet_amp, amp_b))
    ba = complex(cone_inner_product(amp_b, _plus_sheet_amp))
    assert ab == pytest.approx(np.conj(ba), rel=1e-12)


def test_inner_product_rotation_invariance():
    rng = np.random.default_rng(17)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))

    def amp(om, nn, sheet):
        return (np.exp(-om) * (1.0 + 0.4 * nn[:, 0] - 0.2j * nn[:, 2])).astype(complex)

    def amp_rot(om, nn, sheet):
        return amp(om, nn @ Q, sheet)

    a = complex(cone_inner_product(amp, amp))
    b = complex(cone_inner_product(amp_rot, amp_rot))
    assert abs(a - b) / abs(a) < 1e-10


def test_inner_product_sums_the_product_rule_in_radial_chunks():
    # the amplitude of `emwave verify`'s anchor suite
    def anchor(om, nn, sheet):
        return np.where(sheet > 0, 2.0 * om**2 * np.exp(-om), 0.0).astype(complex)

    cone_inner_product(anchor, anchor)
    tracemalloc.start()
    try:
        res = cone_inner_product(anchor, anchor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole refined product rule at once, as one sum per sheet
    x, wx = oracle._laguerre(2 * oracle._RADIAL_NODES)
    omega = x / oracle._RADIAL_RATE
    nhat, w_ang = oracle._sphere_rule(2 * oracle._ANGULAR_ORDER)
    om, nn = np.repeat(omega, len(nhat)), np.tile(nhat, (len(omega), 1))
    ww = np.repeat(wx * np.exp(x) / oracle._RADIAL_RATE / (2.0 * omega), len(nhat)) * np.tile(w_ang, len(omega))
    whole = sum(np.sum(ww * np.abs(anchor(om, nn, sheet)) ** 2) for sheet in (1, -1)) * (2.0 * PI) ** -3
    assert len(om) * 16 > 2**21  # one complex value per node of the whole rule would not fit
    assert abs(complex(res) - whole) <= 1e-15 * abs(whole)
    assert peak < 2**21


@pytest.mark.parametrize("n", [16, 32, 48, 96])
@pytest.mark.parametrize("rule,reference", [(oracle._legendre, roots_legendre), (oracle._laguerre, roots_laguerre)])
def test_gauss_rules_match_scipy(rule, reference, n):
    x, w = rule(n)
    x_ref, w_ref = reference(n)
    assert np.all(np.abs(x - x_ref) <= 1e-13 * np.maximum(np.abs(x_ref), 1.0))
    assert np.all(np.abs(w - w_ref) <= 1e-11 * w_ref)


def test_legendre_rule_agrees_with_the_grid_rule():
    # Newton's method from two independent starts: Jacobi eigenvalues here, cosine guesses in `grids`;
    # near x = +-1 a node's last bit moves its weight by about 1e-13
    for n in (16, 32, 48, 96):
        x, w = oracle._legendre(n)
        x_ref, w_ref = _legendre_rule(n)
        assert np.max(np.abs(x - x_ref)) <= 2.0 * np.finfo(float).eps
        assert np.max(np.abs(w - w_ref) / w_ref) <= 5e-13


def test_gauss_rules_integrate_polynomials_exactly():
    # n nodes integrate degree 2n - 1: INT_-1^1 x^(2j) dx = 2 / (2j + 1), INT_0^inf x^j e^-x dx = j!;
    # an odd n puts the middle Legendre node at 0
    x, w = oracle._legendre(9)
    for j in range(9):
        assert np.sum(w * x ** (2 * j)) == pytest.approx(2.0 / (2 * j + 1), rel=1e-14)
    x, w = oracle._laguerre(9)
    for j in range(18):
        assert np.sum(w * x**j) == pytest.approx(float(np.prod(np.arange(1, j + 1))), rel=1e-12)


def test_oracle_flags_unconverged_results():
    res = cone_inner_product(_plus_sheet_amp, _plus_sheet_amp, tol=1e-18)
    assert not res.converged
    assert res.estimate > 1e-18


# ---------------------------------------------------------------------------
# wavelet / kernel quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "y,s,x,t",
    [
        (ORIGIN, 1.0, ORIGIN, 0.0),
        (ORIGIN, -1.0, np.array([1.3, 0.0, 0.0]), 0.0),
        (np.array([0.5, -0.2, 0.8]), 0.7, np.array([1.0, 0.4, -0.3]), 1.2),
        (ORIGIN, -2.0, np.array([0.0, 2.0, 0.0]), -0.8),
    ],
)
def test_wavelet_quadrature_matches_closed_form(y, s, x, t):
    res = wavelet_by_quadrature(y, s, x, t)
    assert res.converged
    closed = eval_wavelet(WaveletLabel(y, s), x, t)
    assert abs(complex(res) - closed) / abs(closed) < 1e-9


def test_wavelet_quadrature_forms_agree():
    # the reduced 1-D radial form and the full radial x angular form are
    # independent reductions of the same cone integral
    y = np.array([0.2, 0.1, -0.4])
    x = np.array([1.0, -0.5, 0.3])
    red = wavelet_by_quadrature(y, 1.1, x, 0.6, form="reduced")
    full = wavelet_by_quadrature(y, 1.1, x, 0.6, form="full")
    assert abs(complex(red) - complex(full)) / abs(complex(red)) < 1e-9


def test_wavelet_quadrature_validates():
    with pytest.raises(ValueError):
        wavelet_by_quadrature(ORIGIN, 0.0, ORIGIN, 0.0)
    with pytest.raises(ValueError):
        wavelet_by_quadrature(ORIGIN, 1.0, ORIGIN, 0.0, form="spherical")


def test_kernel_quadrature_gates():
    # opposite sheets: exactly zero, no quadrature run
    res = kernel_by_quadrature(ORIGIN, 0.4, 1.0, ORIGIN, -1.0)
    assert complex(res) == 0.0 and res.converged
    # sigma = 0: gate 1, reduces to the wavelet integral
    w = kernel_by_quadrature(np.array([0.5, 0, 0]), 0.3, 0.0, ORIGIN, 1.0)
    base = wavelet_by_quadrature(ORIGIN, 1.0, np.array([0.5, 0, 0]), 0.3)
    assert complex(w) == complex(base)
    # matching sheets: gate 2 at combined scale
    k = kernel_by_quadrature(np.array([0.5, 0, 0]), 0.3, 0.7, ORIGIN, 1.0)
    comb = wavelet_by_quadrature(ORIGIN, 1.7, np.array([0.5, 0, 0]), 0.3)
    assert complex(k) == pytest.approx(2.0 * complex(comb), rel=1e-14)


def test_kernel_quadrature_diagonal_anchor():
    res = kernel_by_quadrature(ORIGIN, 0.0, 1.0, ORIGIN, 1.0)
    assert abs(complex(res).real - KERNEL_DIAGONAL) / KERNEL_DIAGONAL < 1e-9


# ---------------------------------------------------------------------------
# analytic-signal quadrature
# ---------------------------------------------------------------------------


def test_ast_quadrature_gaussian_matches_faddeeva():
    # 1-D Gaussian e^{-u^2/2} continued to x + iy has the closed form
    # w((x + iy)/sqrt(2)) in terms of the Faddeeva function (y > 0)
    f = lambda z: complex(np.exp(-0.5 * float(np.sum(np.asarray(z) ** 2))))
    for x0, y0 in [(0.0, 1.0), (0.8, 0.5), (-1.2, 2.0)]:
        res = ast_by_quadrature(f, np.array([x0]), np.array([y0]), kind="decaying")
        assert res.converged
        want = wofz((x0 + 1j * y0) / np.sqrt(2.0))
        assert abs(complex(res) - want) / abs(want) < 1e-9


def _verify_ast_draws(seed: int):
    # the x, y draws of `emwave verify`'s ast suite
    rng = np.random.default_rng(seed)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 3)
        y = rng.uniform(-0.8, 0.8, 3)
        yield x, (y + 0.5 if np.linalg.norm(y) < 0.3 else y)


@pytest.mark.parametrize("seed", [7, 3])
def test_ast_quadrature_matches_quadpack_on_the_verify_draws(seed):
    gauss = lambda pt: np.exp(-0.5 * float(np.sum(np.asarray(pt) ** 2)))
    for x, y in _verify_ast_draws(seed):
        res = ast_by_quadrature(gauss, x, y, kind="decaying")
        assert res.converged

        def part(u, which):
            fp, fm = gauss(x + u * y), gauss(x - u * y)
            return which((u * (fp - fm) + 1j * (fp + fm)) / (u * u + 1.0) / (PI * 1j))

        re, _ = integrate.quad(part, 0.0, np.inf, args=(np.real,), epsabs=1e-12, epsrel=1e-12, limit=300)
        im, _ = integrate.quad(part, 0.0, np.inf, args=(np.imag,), epsabs=1e-12, epsrel=1e-12, limit=300)
        assert abs(complex(res) - complex(re, im)) <= 1e-13 * abs(complex(re, im))


@pytest.mark.parametrize("kappa", [1e-9, 0.3, 1.0, 2.7])
def test_fourier_half_line_integrals_match_their_closed_form(kappa):
    # INT_0^inf cos(kappa u) / (u^2 + 1) du = INT_0^inf u sin(kappa u) / (u^2 + 1) du = (pi / 2) e^-kappa;
    # the sine one converges only conditionally, so it needs the epsilon-algorithm
    want = 0.5 * PI * np.exp(-kappa)
    for h in (lambda u, ph: np.cos(ph) / (u * u + 1.0), lambda u, ph: u * np.sin(ph) / (u * u + 1.0)):
        value, err = oracle._fourier(h, kappa, 1e-11)
        assert abs(value - want) <= min(err, 1e-11 * want)


@pytest.mark.parametrize("kappa", [1e-9, -0.3])
def test_ast_quadrature_plane_wave_along_the_line(kappa):
    # f(z) = e^{i k z} on the line: the signal is 2 f(x) e^-kappa for kappa = k y > 0 and 0 below;
    # at kappa = 1e-9 QUADPACK's QAWF returned f(x)
    f = lambda z: complex(np.exp(1j * kappa * float(np.asarray(z)[0])))
    res = ast_by_quadrature(f, np.array([0.4]), np.array([1.0]), kind="plane", k=np.array([kappa]))
    assert res.converged
    want = 2.0 * f(np.array([0.4])) * np.exp(-kappa) if kappa > 0 else 0.0
    assert abs(complex(res) - want) <= 1e-11


@pytest.mark.parametrize("kappa", [-0.3, -2.5, 0.7])
def test_a_plane_wave_zero_counts_as_converged(kappa):
    # below kappa = 0 the signal is 0 and the value is rounding; its estimate is
    # relative to |f(x)|, the integral's natural size, not to that rounding
    x, y = np.array([0.4, -0.2]), np.array([1.0, 0.5])
    k = np.array([kappa, 0.0])
    f = lambda z: 1.5j * complex(np.exp(1j * float(k @ np.asarray(z))))
    res = ast_by_quadrature(f, x, y, kind="plane", k=k)
    assert res.converged and res.estimate <= 1e-9
    if kappa < 0:
        assert abs(complex(res)) <= 1e-12 * abs(f(x))
    else:  # the value is the fine Fourier rule's, bit for bit
        parts = [oracle._fourier(h, kappa, 1e-11)[0] for h in (lambda u, ph: np.cos(ph) / (u * u + 1.0),
                                                                lambda u, ph: u * np.sin(ph) / (u * u + 1.0))]
        assert complex(res) == f(x) * (2.0 / PI) * (parts[0] + parts[1])


def test_oracle_rules_are_built_once_and_read_only():
    for rule, n in ((oracle._legendre, 16), (oracle._laguerre, 48)):
        x, w = rule(n)
        assert rule(n)[0] is x and rule(n)[1] is w
        assert not x.flags.writeable and not w.flags.writeable


def test_ast_quadrature_plane_wave():
    k = np.array([0.9, -0.4, 0.3])
    x = np.array([0.2, 0.6, -0.1])
    y = np.array([0.5, 0.1, 0.7])
    kappa = float(k @ y)
    assert kappa > 0
    f = lambda z: complex(np.exp(1j * float(k @ np.asarray(z))))
    res = ast_by_quadrature(f, x, y, kind="plane", k=k)
    want = 2.0 * np.exp(1j * (k @ x)) * np.exp(-kappa)
    assert abs(complex(res) - want) / abs(want) < 1e-9


def test_ast_quadrature_plane_wave_boundary():
    # k.y = 0: the theta(0) = 1/2 convention keeps the signal unchanged
    k = np.array([0.0, 0.0, 2.0])
    x = np.array([0.3, 0.1, 0.4])
    y = np.array([1.0, 0.0, 0.0])
    f = lambda z: complex(np.exp(1j * float(k @ np.asarray(z))))
    res = ast_by_quadrature(f, x, y, kind="plane", k=k)
    assert abs(complex(res) - f(x)) < 1e-9


def test_ast_quadrature_validates_kind():
    f = lambda z: 1.0 + 0j
    with pytest.raises(ValueError):
        ast_by_quadrature(f, ORIGIN, ORIGIN, kind="mystery")
    with pytest.raises(ValueError):
        ast_by_quadrature(f, ORIGIN, ORIGIN, kind="plane")  # k missing


def test_oracle_result_casts_to_complex():
    res = OracleResult(1.5 - 0.5j, 1e-12, True)
    assert complex(res) == 1.5 - 0.5j
