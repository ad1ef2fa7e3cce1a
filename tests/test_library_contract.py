"""The library contract: numbers, points and counts of the wrong kind are refused by name.

Every public function of `grids`, `fieldcore`, `wavelet`, `ast` and
`transform` that takes a number, a point or a count is called with
arguments drawn from well-formed values and from malformed ones: a bool, a
string, a complex value, NaN, +-inf, ``None``, a wrong shape and a
non-integer count.  Each call must return a finite result or raise
`EmwaveError`; a call with a malformed argument must raise `EmwaveError`.
No other exception and no ``RuntimeWarning`` may escape.

Without ``--hypothesis-profile contract`` (see ``conftest.py``) each
function gets a few examples, so the tier-1 suite stays fast.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emwave import ast, fieldcore, grids, transform, wavelet
from emwave.errors import EmwaveError

EXAMPLES = settings().max_examples if settings.get_current_profile_name() == "contract" else 12

YGRID = grids.build_spatial_grid(4, 6.0)
SGRID = grids.build_scale_grid((0.8, 2.0), 6)
CONE = grids.build_cartesian_cone_grid(YGRID, 0.8, 2.0)
AMP = fieldcore.amplitude_from_scalar(CONE, lambda om, nn, sheets: np.exp(-om) * (1.0 + 0.5j * nn[:, 2]))
COEFFS = transform.analyze(AMP, YGRID, SGRID)
POINT = fieldcore.SpacetimePoint(np.zeros(3), 0.5)
LABEL = wavelet.WaveletLabel(np.array([0.1, -0.2, 0.3]), 0.7)
SIGNAL = ast.LineSignal(lambda tau: np.exp(-np.square(tau)).astype(complex))
SPECTRUM = ast.Spectrum(np.eye(3), np.ones(3), np.array([1.0, 0.5j, -0.25]))


def _kinds(good, bad):
    """Draws of ``(value, malformed)`` from well-formed and from malformed values."""
    return st.one_of(good.map(lambda v: (v, False)), bad.map(lambda v: (v, True)))


# moderate magnitudes, so a well-formed call neither overflows nor underflows
_FLOAT = st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-2)
_GOOD_REAL = st.one_of(_FLOAT, _FLOAT.map(np.float64), st.integers(-5, 5), st.integers(-5, 5).map(np.int64))
_BAD_SCALARS = [True, False, np.True_, "1", "nan", 1j, 1 + 0j, np.nan, np.inf, -np.inf, None, 10**400, {}]
_BAD_REAL = st.sampled_from(_BAD_SCALARS + [[0.5], np.array([0.5, 1.0])])
_BAD_ENTRY = st.sampled_from([np.nan, np.inf, -np.inf, "1", None, 1j])


def _vectors(n):
    good = st.lists(_FLOAT, min_size=n, max_size=n)
    bad = st.one_of(
        st.lists(_FLOAT, min_size=0, max_size=n + 2).filter(lambda v: len(v) != n),
        st.tuples(good, st.integers(0, n - 1), _BAD_ENTRY).map(lambda g: g[0][: g[1]] + [g[2]] + g[0][g[1] + 1 :]),
        st.sampled_from(_BAD_SCALARS + [[[0.1] * n], [True] * n, "abc" * n, [[0.1] * n, [0.2] * (n - 1)]]),
    )
    return _kinds(st.one_of(good, good.map(np.array)), bad)


def _points():
    """Arrays of 3-vectors along a last axis (one point, K points, a grid of points)."""
    good = st.sampled_from([(3,), (0, 3), (1, 3), (4, 3), (2, 2, 3)]).flatmap(
        lambda shape: st.lists(_FLOAT, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
            lambda v: np.array(v, dtype=float).reshape(shape)
        )
    )
    bad = st.one_of(
        st.sampled_from([np.zeros((4, 2)), np.zeros((2, 3, 1)), np.zeros(4), 0.5, "abc", np.ones((2, 3), dtype=bool)]),
        st.tuples(good.filter(lambda a: a.size), _BAD_ENTRY.filter(lambda e: isinstance(e, float))).map(
            lambda g: np.where(np.arange(g[0].size).reshape(g[0].shape) == 0, g[1], g[0])
        ),
        st.just([[0.0, 1.0, 2.0], [0.0, 1.0]]),
    )
    return _kinds(good, bad)


def _counts(lo, hi):
    good = st.one_of(st.integers(lo, hi), st.integers(lo, hi).map(np.int64))
    bad = [6.5, 8.0, np.float64(8.0), True, np.True_, "8", None, np.nan, np.array([1]), np.array(1)]
    return _kinds(good, st.sampled_from(bad))


REAL = _kinds(_GOOD_REAL, _BAD_REAL)
COMPLEX = _kinds(
    st.one_of(_GOOD_REAL, st.complex_numbers(max_magnitude=5.0)),
    _BAD_REAL.filter(lambda v: not isinstance(v, complex)),
)
FIELD = _kinds(
    st.lists(st.complex_numbers(max_magnitude=5.0), min_size=3, max_size=3),
    st.sampled_from([[1j, np.nan, 0.0], [1.0, 2.0], "abc", None, [1j, complex(np.inf, 0.0), 0.0]]),
)
VEC2, VEC3 = _vectors(2), _vectors(3)
POINTS = _points()
# a number, or a time array that broadcasts against the points or does not (refused, but not malformed)
TIMES = st.one_of(
    REAL.filter(lambda d: not isinstance(d[0], (list, np.ndarray))),
    _kinds(
        st.lists(_FLOAT, min_size=1, max_size=4).map(np.array),
        st.sampled_from([np.array([0.5, np.nan]), ["1", "2"], [True, False]]),
    ),
)
ARRAY = _kinds(
    st.one_of(_GOOD_REAL, st.lists(_FLOAT, max_size=5).map(np.array)),
    _BAD_REAL.filter(lambda v: not isinstance(v, (list, np.ndarray))),
)

EDGES = _kinds(
    st.lists(_FLOAT, min_size=1, max_size=4).map(sorted),
    st.one_of(
        st.tuples(st.lists(_FLOAT, min_size=1, max_size=3).map(sorted), _BAD_ENTRY).map(lambda g: g[0] + [g[1]]),
        st.sampled_from([0.5, [[0.0, 1.0]], [True, False], "abc", None]),
    ),
)

# a rule's nodes or weights for signs "plus": three positive numbers, or three with one bad or nonpositive
# entry, or no 1-D array of numbers
_POSITIVE = st.lists(st.floats(1e-2, 5.0), min_size=3, max_size=3)
RULE = _kinds(
    st.one_of(_POSITIVE, _POSITIVE.map(np.array)),
    st.one_of(
        st.tuples(_POSITIVE, st.integers(0, 2), st.one_of(_BAD_ENTRY, st.sampled_from([0.0, -0.5]))).map(
            lambda g: g[0][: g[1]] + [g[2]] + g[0][g[1] + 1 :]
        ),
        st.sampled_from([[[0.5] * 3], [True] * 3, "abc", None, 0.5]),
    ),
)


def _optional(kind):
    """``None``, or a draw of ``kind`` other than ``None``."""
    return st.one_of(st.just((None, False)), kind.filter(lambda d: d[0] is not None))


CALLS = {
    "grids.build_cone_grid": lambda a: grids.build_cone_grid(a(REAL), a(REAL), a(_counts(0, 5)), a(_counts(0, 5))),
    "grids.build_scale_grid": lambda a: grids.build_scale_grid(a(VEC2), a(_counts(0, 12))),
    "grids.build_spatial_grid": lambda a: grids.build_spatial_grid(a(_counts(0, 8)), a(REAL)),
    "grids.build_cartesian_cone_grid": lambda a: grids.build_cartesian_cone_grid(YGRID, a(REAL), a(REAL)),
    "grids.gauss_legendre_panels": lambda a: grids.gauss_legendre_panels(a(EDGES), a(_counts(-1, 12))),
    "grids.scale_grid_from_rule": lambda a: grids.scale_grid_from_rule(a(RULE), a(RULE), (0.8, 2.0), "plus"),
    "grids.scale_recovery_error": lambda a: grids.scale_recovery_error(SGRID, a(ARRAY)),
    "fieldcore.SpacetimePoint": lambda a: fieldcore.SpacetimePoint(a(VEC3), a(REAL)),
    "fieldcore.ConePoint": lambda a: fieldcore.ConePoint(a(VEC3), a(_counts(-1, 1))),
    "fieldcore.FieldSample": lambda a: fieldcore.FieldSample(a(FIELD), a(VEC3), a(COMPLEX), a(_optional(REAL))),
    "fieldcore.polarization_basis": lambda a: fieldcore.polarization_basis(a(VEC3)),
    "fieldcore.evaluate_field": lambda a: fieldcore.evaluate_field(AMP, POINT, a(REAL)),
    "fieldcore.maxwell_residual": lambda a: fieldcore.maxwell_residual(AMP, YGRID, a(REAL), a(REAL)),
    "wavelet.WaveletLabel": lambda a: wavelet.WaveletLabel(a(VEC3), a(REAL), a(REAL)),
    "wavelet.eval_kernel": lambda a: wavelet.eval_kernel(a(POINTS), a(TIMES), a(REAL), a(VEC3), a(REAL)),
    "wavelet.eval_wavelet": lambda a: wavelet.eval_wavelet(LABEL, a(POINTS), a(TIMES)),
    "wavelet.scaling_check": lambda a: wavelet.scaling_check(LABEL, a(POINTS), a(TIMES)),
    "ast.LineSignal": lambda a: ast.LineSignal(SIGNAL.sampler, "oscillatory", a(REAL), a(COMPLEX)),
    "ast.ast_line": lambda a: ast.ast_line(SIGNAL, a(REAL), a(_counts(0, 40))),
    "ast.ast_line_with_tail": lambda a: ast.ast_line_with_tail(SIGNAL, a(REAL), a(_counts(0, 40))),
    "ast.ast_fourier": lambda a: ast.ast_fourier(SPECTRUM, a(VEC3), a(VEC3)),
    "transform.EuclideanCoefficients": lambda a: transform.EuclideanCoefficients(YGRID, SGRID, COEFFS.values, a(REAL)),
    "transform.analyze": lambda a: transform.analyze(AMP, YGRID, SGRID, a(REAL), a(_optional(_counts(-1, 2)))),
    "transform.synthesize": lambda a: transform.synthesize(COEFFS, a(VEC3), a(REAL)),
    "transform.synthesize_many": lambda a: transform.synthesize_many(COEFFS, a(POINTS), a(REAL)),
    "transform.reproduce_complex_time": lambda a: transform.reproduce_complex_time(COEFFS, a(VEC3), a(REAL), a(REAL)),
}


class _Arguments:
    """Draws the arguments of one call and remembers whether any was malformed."""

    def __init__(self, data):
        self.data, self.malformed = data, False

    def __call__(self, kind):
        value, malformed = self.data.draw(kind)
        self.malformed |= malformed
        return value


def _numbers(result):
    """The numbers a result holds: arrays and scalars, a sample's field, a grid's nodes and weights."""
    if isinstance(result, tuple):
        return [n for part in result for n in _numbers(part)]
    if isinstance(result, grids.QuadratureGrid):
        return [result.nodes, result.weights]
    if isinstance(result, (fieldcore.FieldSample, fieldcore.SpacetimePoint, wavelet.WaveletLabel)):
        return [np.asarray(v) for v in vars(result).values() if isinstance(v, (float, complex, np.ndarray))]
    if isinstance(result, transform.EuclideanCoefficients):
        return [result.values, result.t]
    return [result] if isinstance(result, (int, float, complex, np.ndarray, np.number)) else []


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_numbers_points_and_counts_of_the_wrong_kind_are_refused(name, data):
    args = _Arguments(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = CALLS[name](args)
        except EmwaveError:
            return
    assert not args.malformed, f"{name} accepted a malformed argument"
    assert all(np.isfinite(n).all() for n in _numbers(result)), f"{name} returned a non-finite value"
