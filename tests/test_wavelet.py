"""Closed-form wavelets and reproducing kernel: anchors, symmetries, analyticity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_laguerre

from emwave.errors import EmwaveError, InvalidScaleError, SingularKernelError
from emwave.fieldcore import ConePoint
from emwave.wavelet import WaveletLabel, eval_kernel, eval_wavelet, scaling_check, wavelet_momentum

PI = np.pi
ORIGIN = np.zeros(3)

# frozen anchors
KERNEL_DIAGONAL = 3.0 / (8.0 * PI**2)  # 0.037995443865876666
WAVELET_PEAK = 3.0 / PI**2


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------


def test_kernel_diagonal_anchor():
    value = eval_kernel(ORIGIN, 0.0, 1.0, ORIGIN, 1.0)
    assert value == pytest.approx(KERNEL_DIAGONAL, rel=1e-15)
    assert value.imag == 0.0


def test_wavelet_peak_anchor():
    assert eval_wavelet(WaveletLabel(ORIGIN, 1.0), ORIGIN, 0.0) == pytest.approx(
        WAVELET_PEAK, rel=1e-15
    )
    assert eval_wavelet(WaveletLabel(ORIGIN, -1.0), ORIGIN, 0.0) == pytest.approx(
        WAVELET_PEAK, rel=1e-15
    )


def test_basic_wavelet_closed_form():
    # for s = -1, y = 0: pi^2 w = [3(1-it)^2 - r^2] / [(1-it)^2 + r^2]^3
    label = WaveletLabel(ORIGIN, -1.0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        r = rng.uniform(0.0, 4.0)
        t = rng.uniform(-3.0, 3.0)
        got = eval_wavelet(label, np.array([r, 0.0, 0.0]), t)
        u = (1.0 - 1j * t) ** 2
        want = (3.0 * u - r * r) / (PI**2 * (u + r * r) ** 3)
        assert abs(got - want) <= 1e-14 * abs(want)


def test_real_zero_at_sqrt3():
    label = WaveletLabel(ORIGIN, -1.0)
    val = eval_wavelet(label, np.array([np.sqrt(3.0), 0.0, 0.0]), 0.0)
    assert abs(val) < 1e-15
    # and scaled: zero at sqrt(3)|s|
    label2 = WaveletLabel(ORIGIN, 2.5)
    val2 = eval_wavelet(label2, np.array([np.sqrt(3.0) * 2.5, 0.0, 0.0]), 0.0)
    assert abs(val2) < 1e-15


def test_localization_sign_structure():
    # real part positive inside the ball r < sqrt(3)|s|, negative outside
    label = WaveletLabel(ORIGIN, 1.0)
    inside = eval_wavelet(label, np.array([1.0, 0.0, 0.0]), 0.0)
    outside = eval_wavelet(label, np.array([2.5, 0.0, 0.0]), 0.0)
    assert inside.real > 0 > outside.real
    assert inside.imag == 0.0 and outside.imag == 0.0


# ---------------------------------------------------------------------------
# gates and singularities
# ---------------------------------------------------------------------------


def test_opposite_sheets_are_orthogonal():
    assert eval_kernel(ORIGIN, 0.3, 1.0, np.array([1.0, 0, 0]), -1.0) == 0.0
    assert eval_kernel(ORIGIN, -0.7, -2.0, np.array([0, 1.0, 0]), 0.5) == 0.0


def test_zero_offset_gate_is_half():
    # sigma = 0: 2 theta(0) = 1, so the kernel reduces to the wavelet
    x = np.array([0.4, -0.2, 1.1])
    y = np.array([-0.3, 0.5, 0.0])
    for s in (1.3, -0.8):
        assert eval_kernel(x, 0.6, 0.0, y, s) == eval_wavelet(WaveletLabel(y, s), x, 0.6)


def test_singular_set_raises_with_location():
    with pytest.raises(SingularKernelError, match=r"singular set s \+ sigma = 0, r = \|t\|") as info:
        eval_kernel(ORIGIN, 0.0, -1.0, ORIGIN, 1.0)  # tau = 0, r = 0
    assert info.value.tau == 0.0
    assert info.value.r == 0.0
    # on the light cone of the combined label: tau = it, r = |t|
    with pytest.raises(SingularKernelError):
        eval_kernel(np.array([2.0, 0, 0]), 2.0, -1.0, ORIGIN, 1.0)


@pytest.mark.parametrize("x, t", [((0.0, 0.0, 1.0), 1.0), ((0.0, 0.0, 0.0), 0.0)])
def test_a_zero_denominator_is_refused_without_a_warning(x, t):
    # sigma = s = 0: the gate is 1, so the numerator is not 0 where tau^2 + r^2 is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularKernelError):
            eval_kernel(np.array(x), t, 0.0, ORIGIN, 0.0)


def test_zero_scale_rejected():
    with pytest.raises(InvalidScaleError):
        WaveletLabel(ORIGIN, 0.0)
    with pytest.raises(EmwaveError):
        WaveletLabel(np.array([1.0, np.nan, 0.0]), 1.0)


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda: WaveletLabel(ORIGIN, "1"), "s="),  # used to escape as TypeError
        (lambda: WaveletLabel(ORIGIN, 1.0, t=np.nan), "t="),
        (lambda: eval_kernel(np.zeros((4, 2)), 0.0, 1.0, ORIGIN, 1.0), "x="),  # escaped as ValueError
        (lambda: eval_kernel(ORIGIN, "0", 1.0, ORIGIN, 1.0), "t="),
        (lambda: eval_kernel(ORIGIN, 0.0, np.nan, ORIGIN, 1.0), "sigma="),  # ended in a RuntimeWarning
        (lambda: eval_kernel(ORIGIN, 0.0, 1.0, [0.0, np.inf, 0.0], 1.0), "y="),
        (lambda: eval_kernel(ORIGIN, 0.0, 1.0, ORIGIN, True), "s="),
        (lambda: eval_kernel(np.zeros((4, 3)), np.zeros(5), 1.0, ORIGIN, 1.0), "broadcast"),  # ValueError
        (lambda: eval_wavelet(WaveletLabel(ORIGIN, 1.0), [[0.0, 1.0, 2.0], [0.0, 1.0]], 0.0), "x="),
        (lambda: eval_wavelet(WaveletLabel(ORIGIN, 1.0), ORIGIN, np.nan), "t="),  # returned NaN
        # finite arguments out of the closed form's float range
        (lambda: eval_kernel(ORIGIN, 1e200, 1.0, ORIGIN, 1.0), "overflows"),  # overflowed to NaN
        (lambda: eval_kernel(np.full(3, 1e200), 0.0, 1.0, ORIGIN, 1.0), "overflows"),
        (lambda: scaling_check(WaveletLabel(ORIGIN, 1e-300), np.ones(3), 0.5), "overflows"),  # a raw OverflowError
        (lambda: eval_wavelet(WaveletLabel(ORIGIN, 1e-16), ORIGIN, 0.0), "fell below 1e-30"),  # "scale is zero"
    ],
    ids=["label-s-text", "label-t-nan", "kernel-x-K-by-2", "kernel-t-text", "kernel-sigma-nan", "kernel-y-inf",
         "kernel-s-bool", "kernel-t-mismatch", "wavelet-x-ragged", "wavelet-t-nan", "kernel-t-1e200",
         "kernel-x-1e200", "scaling-s-1e-300", "wavelet-s-1e-16"],
)
def test_arguments_of_the_wrong_kind_are_refused_by_name(call, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmwaveError, match=needle):
            call()


def test_singular_kernel_is_reported_at_a_broadcast_point():
    # the (2, 2) broadcast of two points and two times used to index tau past its end
    x = np.array([[[2.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]])  # singular only at the last entry
    with pytest.raises(SingularKernelError) as info:
        eval_kernel(x, np.array([1.0, 0.0]), -1.0, ORIGIN, 1.0)
    assert (info.value.tau, info.value.r) == (0.0, 0.0)


def test_kernel_past_the_cube_overflow_matches_the_closed_form():
    # (tau^2 + r^2)^3 overflows from |tau| or r near 1.6e51; the value stays normal up to about 1e77
    big = 1.8e51
    tau = complex(1.0, big)  # s + sigma = 1, t = big, r = 0: 2 * 3 tau^2 / (pi^2 tau^6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_kernel(ORIGIN, big, 0.5, ORIGIN, 0.5)
        want = 6.0 / (np.pi**2 * tau**4)
        assert abs(got - want) <= 1e-15 * abs(want)
        got = eval_kernel(np.array([big, 0.0, 0.0]), 0.0, 0.5, ORIGIN, 0.5)  # tau = 1, r = big
        want = 2.0 * (3.0 - big * big) / (1.0 + big * big) ** 3 / np.pi**2
        assert abs(got - want) <= 1e-15 * abs(want)
        # an ordinary point keeps the bits of the direct form beside an overflowing one
        x = np.array([[big, 0.0, 0.0], [1.0, 0.3, 0.2]])
        assert eval_kernel(x, 0.4, 0.5, ORIGIN, 0.5)[1] == eval_kernel(x[1], 0.4, 0.5, ORIGIN, 0.5)
        assert eval_kernel(ORIGIN, 1e76, 0.5, ORIGIN, 0.5) != 0.0
        with pytest.raises(EmwaveError, match="overflows"):  # subnormal at 1e77
            eval_kernel(ORIGIN, 1e77, 0.5, ORIGIN, 0.5)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def test_scaling_identity_at_fixed_point():
    lhs, rhs = scaling_check(WaveletLabel(ORIGIN, 2.0), np.array([1.0, 0.0, 0.0]), 0.5)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_scaling_identity_trivial_at_unit_scale():
    label = WaveletLabel(np.array([0.3, -0.1, 0.8]), 1.0)
    lhs, rhs = scaling_check(label, np.array([1.0, 2.0, -0.5]), 0.7)
    assert lhs == rhs


def test_scaling_identity_seeded_sweep():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        label = WaveletLabel(
            rng.uniform(-2, 2, 3), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        )
        lhs, rhs = scaling_check(label, rng.uniform(-3, 3, 3), rng.uniform(-2, 2))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    assert worst < 1e-12


def test_rotation_invariance_about_center():
    rng = np.random.default_rng(5)
    y = np.array([0.5, -1.0, 0.3])
    label = WaveletLabel(y, 1.4)
    d = np.array([1.2, 0.1, -0.6])
    base = eval_wavelet(label, y + d, 0.8)
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = eval_wavelet(label, y + Q @ d, 0.8)
        assert abs(rotated - base) <= 1e-14 * abs(base)


@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_translation_invariance(ax, ay, az):
    a = np.array([ax, ay, az])
    x = np.array([0.7, -0.2, 0.4])
    y = np.array([-0.1, 0.3, 0.9])
    v1 = eval_kernel(x, 0.4, 0.6, y, 1.1)
    v2 = eval_kernel(x + a, 0.4, 0.6, y + a, 1.1)
    assert v1 == pytest.approx(v2, rel=1e-13, abs=1e-300)


def test_kernel_conjugate_under_label_swap():
    # swapping the two labels (and their offsets) conjugates the kernel
    x = np.array([0.9, 0.2, -0.4])
    y = np.array([-0.5, 0.1, 0.3])
    v = eval_kernel(x, 0.7, 0.6, y, 1.1)
    w = eval_kernel(y, -0.7, 1.1, x, 0.6)
    assert v == pytest.approx(np.conj(w), rel=1e-14)


def test_time_reversal_conjugates():
    label = WaveletLabel(ORIGIN, 1.0)
    x = np.array([0.8, 0.0, 0.0])
    assert eval_wavelet(label, x, 1.3) == pytest.approx(
        np.conj(eval_wavelet(label, x, -1.3)), rel=1e-15
    )


def test_vectorized_evaluation_matches_loop():
    label = WaveletLabel(np.array([0.1, 0.2, 0.3]), -1.2)
    xs = np.random.default_rng(9).uniform(-2, 2, (40, 3))
    vec = eval_wavelet(label, xs, 0.4)
    loop = np.array([eval_wavelet(label, x, 0.4) for x in xs])
    assert np.array_equal(vec, loop)


# ---------------------------------------------------------------------------
# PDE and analyticity checks
# ---------------------------------------------------------------------------


def _wave_residual(label, x, t, h):
    """(d_tt - laplacian) by second central differences."""
    w0 = eval_wavelet(label, x, t)
    dtt = (eval_wavelet(label, x, t + h) - 2 * w0 + eval_wavelet(label, x, t - h)) / h**2
    lap = 0.0
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        lap += (eval_wavelet(label, x + e, t) - 2 * w0 + eval_wavelet(label, x - e, t)) / h**2
    return abs(dtt - lap)


def test_wave_equation_residual_small_and_second_order():
    label = WaveletLabel(ORIGIN, 1.0)
    x = np.array([0.9, -0.3, 0.5])
    t = 0.4
    scale = abs(eval_wavelet(label, x, t))
    assert _wave_residual(label, x, t, 1e-3) / scale < 1e-4
    r1 = _wave_residual(label, x, t, 1e-2)
    r2 = _wave_residual(label, x, t, 5e-3)
    assert 1.8 < np.log2(r1 / r2) < 2.2


def test_analytic_in_complex_time():
    # w is a function of tau = s + it away from s = 0, so d/dt = i d/ds;
    # the Cauchy-Riemann residual of central differences decays at O(h^2)
    y = np.array([0.2, -0.5, 0.1])
    x = np.array([1.0, 0.3, -0.2])
    t = 0.6

    def cr_residual(s, h):
        dt = (eval_wavelet(WaveletLabel(y, s), x, t + h) - eval_wavelet(WaveletLabel(y, s), x, t - h)) / (2 * h)
        ds = (eval_wavelet(WaveletLabel(y, s + h), x, t) - eval_wavelet(WaveletLabel(y, s - h), x, t)) / (2 * h)
        return abs(dt - 1j * ds)

    for s in (1.0, -0.7):
        r1 = cr_residual(s, 1e-2)
        r2 = cr_residual(s, 5e-3)
        assert 1.8 < np.log2(r1 / r2) < 2.2
        assert cr_residual(s, 1e-4) < 1e-7


# ---------------------------------------------------------------------------
# momentum-space representative
# ---------------------------------------------------------------------------


def test_momentum_representative_basic_form():
    label = WaveletLabel(ORIGIN, 1.0)
    for omega in (0.5, 1.0, 2.7):
        q = ConePoint(np.array([0.0, 0.0, omega]), 1)
        assert wavelet_momentum(label, q) == pytest.approx(
            2.0 * omega**2 * np.exp(-omega), rel=1e-15
        )


def test_momentum_representative_gates_opposite_sheet():
    label = WaveletLabel(ORIGIN, 1.0)
    q = ConePoint(np.array([0.0, 0.0, 1.0]), -1)
    assert wavelet_momentum(label, q) == 0.0


def test_momentum_representative_phases():
    y = np.array([0.3, -0.4, 0.2])
    label = WaveletLabel(y, 1.5, t=0.6)
    p = np.array([0.5, 1.0, -0.3])
    q = ConePoint(p, 1)
    omega = q.omega
    want = 2.0 * omega**2 * np.exp(1j * omega * 0.6 - omega * 1.5 - 1j * (p @ y))
    assert wavelet_momentum(label, q) == pytest.approx(want, rel=1e-14)


def test_momentum_norm_is_kernel_diagonal():
    # the frequency-weighted norm of 2 omega^2 e^-omega matches the kernel
    # diagonal: (1/4 pi^2) INT 4 omega^3 e^-2omega domega = 3/(8 pi^2),
    # computed with Gauss-Laguerre after x = 2 omega (exact for x^3 e^-x)
    x, w = roots_laguerre(8)
    omega = x / 2.0
    a = np.array([wavelet_momentum(WaveletLabel(ORIGIN, 1.0), ConePoint(np.array([0, 0, om]), 1)) for om in omega])
    value = np.sum(w * np.exp(x) / 2.0 * omega * np.abs(a) ** 2 / omega**2) / (4.0 * PI**2)
    assert value == pytest.approx(KERNEL_DIAGONAL, rel=1e-13)
