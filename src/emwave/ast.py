"""Analytic-signal transform in line-integral and Fourier forms.

A function f on R^n extends to complex arguments x + iy through either

  * a Cauchy-kernel line integral along the direction y:
    (1 / (pi i)) INT dtau f(x + tau y) / (tau - i), or
  * a half-space-gated Fourier integral:
    (2 pi)^-n INT d^np 2 theta(p . y) e^{i p . (x + i y)} fhat(p),

with theta(0) = 1/2 exactly at the gate boundary.  `ast_line` integrates
the first form by composite Gauss-Legendre with decay-class-aware tail
handling; `ast_fourier` evaluates the second as a weighted sum over a
spectrum grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmwaveError, NonFiniteSampleError, check_array, check_count, check_real
from .fieldcore import gate2
from .grids import gauss_legendre_panels

__all__ = ["LineSignal", "Spectrum", "ast_line", "ast_line_with_tail", "ast_fourier"]

_DECAY_CLASSES = ("superexponential", "power", "constant", "oscillatory")


@dataclass(frozen=True)
class LineSignal:
    """A complex function sampled along the line tau -> f(x + tau y).

    ``decay`` declares the integrability class of the sampler so the
    quadrature can bound its own truncation tail:

    - ``"superexponential"``: at least exponential falloff beyond the
      truncation point.
    - ``"power"``: algebraic falloff ``|f| = O(tau^-rate)`` with
      ``rate > 1``.
    - ``"constant"``: f approaches ``limit`` with an O(tau^-2) or faster
      remainder; the constant part is integrated analytically (the Cauchy
      kernel maps constants to themselves exactly).
    - ``"oscillatory"``: f oscillates with angular rate at least ``rate``
      and bounded envelope; the tail is summed by half-period chunks with
      iterated averaging.

    ``rate`` is a finite real number and ``limit`` a finite complex one.
    """

    sampler: Callable[[float], complex]
    decay: str = "superexponential"
    rate: float = 1.0
    limit: complex = 0.0

    def __post_init__(self):
        if self.decay not in _DECAY_CLASSES:
            raise EmwaveError(f"unknown decay class {self.decay!r}; expected one of {_DECAY_CLASSES}")
        check_real(self.rate, "rate")
        check_array(self.limit, "limit", (), complex)
        if self.decay == "power" and not self.rate > 1.0:
            raise EmwaveError("power decay needs rate > 1 for an integrable Cauchy tail")
        if self.decay == "oscillatory" and not self.rate > 0.0:
            raise EmwaveError("oscillatory decay needs a positive rate")


@dataclass(frozen=True)
class Spectrum:
    """Discretized Fourier transform: nodes (M, n), weights (M,), values (M,)."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(check_array(self.nodes, "spectrum nodes"))
        if len(nodes) == 0:
            raise EmwaveError("spectrum must have at least one node")
        weights = check_array(self.weights, "spectrum weights", (len(nodes),))
        values = check_array(self.values, "spectrum values", (len(nodes),), complex)
        if not np.all(weights > 0.0):
            raise EmwaveError("spectrum weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)


def _sample(sig: LineSignal, taus: np.ndarray) -> np.ndarray:
    """Evaluate the sampler over an array, accepting scalar-only callables."""
    try:
        out = np.asarray(sig.sampler(taus), dtype=complex)
        if out.shape != taus.shape:
            raise TypeError
    except (TypeError, ValueError):
        out = np.array([complex(sig.sampler(float(t))) for t in taus])
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise NonFiniteSampleError(float(taus[bad]), complex(out[bad]))
    return out


def _cauchy_quad(sig: LineSignal, a: float, b: float, n: int, shift: complex = 0.0) -> complex:
    """Composite value of INT_a^b (f - shift) / (pi i (tau - i)) dtau."""
    width = 1.0
    if sig.decay == "oscillatory":
        width = min(width, np.pi / (2.0 * sig.rate))
    n_panels = max(1, int(np.ceil((b - a) / width)))
    per_panel = max(4, int(np.ceil(n / n_panels)))
    taus, ww = gauss_legendre_panels(np.linspace(a, b, n_panels + 1), per_panel)
    f = _sample(sig, taus) - shift
    return complex(np.sum(ww * f / (np.pi * 1j * (taus - 1j))))


def _oscillatory_tail(sig: LineSignal, T: float, n: int) -> tuple[complex, float]:
    """Euler-accelerated tail of the Cauchy integral beyond [-T, T].

    Integrates half-period chunks on both ends; consecutive chunk sums
    alternate asymptotically, so iterated averaging of the partial sums
    converges fast.  Returns (tail value, last-stage delta as bound).
    """
    h = np.pi / sig.rate
    n_chunks = 24
    per_chunk = max(6, n // 8)
    edges = T + h * np.arange(n_chunks + 1)

    def chunk_sums(panel_edges):
        taus, w = gauss_legendre_panels(panel_edges, per_chunk)
        terms = w * _sample(sig, taus) / (np.pi * 1j * (taus - 1j))
        return terms.reshape(n_chunks, per_chunk).sum(axis=1)

    # chunk j covers [T + jh, T + (j+1)h] and its mirror image
    stages = [np.cumsum(chunk_sums(edges) + chunk_sums(-edges[::-1])[::-1])]
    while len(stages[-1]) > 1:
        s = stages[-1]
        stages.append(0.5 * (s[:-1] + s[1:]))
    value = complex(stages[-1][0])
    prev = complex(stages[-2][0])
    bound = abs(value - prev) + 1e-15 * (abs(value) + 1.0)
    return value, float(bound)


def ast_line_with_tail(sig: LineSignal, truncation: float, nodes: int) -> tuple[complex, float]:
    """Analytic-signal value along a line, plus a truncation-tail bound.

    Composite Gauss-Legendre on ``[-truncation, truncation]`` with the
    Cauchy kernel ``1 / (pi i (tau - i))``; the declared decay class
    supplies the tail handling (see `LineSignal`).  ``truncation`` is a
    finite real number > 0 and ``nodes`` an integer >= 16.  Returns
    ``(value, tail_bound)``.
    """
    T = check_real(truncation, "truncation")
    if not T > 0.0:
        raise EmwaveError(f"truncation must be positive, got {truncation}")
    if check_count(nodes, "nodes") < 16:
        raise EmwaveError(f"need at least 16 nodes, got {nodes}")

    if sig.decay == "constant":
        # the Cauchy kernel integrates constants to themselves exactly
        body = _cauchy_quad(sig, -T, T, nodes, shift=sig.limit)
        value = sig.limit + body
        g_edge = abs(_sample(sig, np.array([T]))[0] - sig.limit) + abs(
            _sample(sig, np.array([-T]))[0] - sig.limit
        )
        tail = g_edge / np.pi
        return value, float(tail)

    body = _cauchy_quad(sig, -T, T, nodes)
    edge = abs(_sample(sig, np.array([T]))[0]) + abs(_sample(sig, np.array([-T]))[0])
    if sig.decay == "superexponential":
        return body, float(edge / (np.pi * T))
    if sig.decay == "power":
        return body, float(2.0 * edge / (np.pi * sig.rate))
    tail_value, tail_bound = _oscillatory_tail(sig, T, nodes)
    return body + tail_value, tail_bound


def ast_line(sig: LineSignal, truncation: float, nodes: int) -> complex:
    """Analytic-signal value along a line (see `ast_line_with_tail`)."""
    value, _ = ast_line_with_tail(sig, truncation, nodes)
    return value


def ast_fourier(spec: Spectrum, x, y) -> complex:
    """Analytic-signal value from a spectrum: half-space-gated Fourier sum.

    Computes ``(2 pi)^-n  sum_j w_j 2 theta(p_j . y) e^{i p_j . (x + i y)}
    v_j`` with ``theta(0) = 1/2`` applied literally at gate-boundary
    nodes.  With ``y = 0`` every gate factor is 1 and the plain inverse
    Fourier evaluation of the spectrum at ``x`` is recovered.  ``x`` and
    ``y`` are finite real vectors with one component per spectrum dimension.
    """
    n = spec.nodes.shape[1]
    x, y = check_array(x, "ast_fourier x", (n,)), check_array(y, "ast_fourier y", (n,))
    py = spec.nodes @ y
    phase = np.exp(1j * (spec.nodes @ x) - py)
    return complex((2.0 * np.pi) ** -n * np.sum(spec.weights * gate2(py) * phase * spec.values))
