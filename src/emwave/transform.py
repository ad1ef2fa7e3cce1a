"""Analysis and synthesis between cone amplitudes and scale-space coefficients.

`analyze` maps a cone amplitude to its complex-time field values F(y, t-is)
on a spatial x signed-scale grid; `synthesize` and `reproduce_complex_time`
map back by summing wavelets (band-limited to the grid's momentum lattice)
against the coefficients.  Norms and inner products are provided in three
independent forms: momentum-space, scale-space, and a nonlocal equal-time
double integral.

Conventions used throughout (fixed once here):

  * inverse Fourier normalization (2 pi)^-3 with forward sign e^{-i p.x};
  * coefficient c(y, s) = F(y, t - i s)
      = (2 pi)^-3 INT d^3p e^{i p.y} / omega
        [theta(s) e^{-omega(s+it)} f_+(p) + theta(-s) e^{omega(s+it)} f_-(p)];
  * reconstruction F(x, t) = INT d^3y ds  w(x - y, (t - t0) - i s) c(y, s)
    with the scalar wavelet w applied per vector component.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import re
import warnings
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import grids as _grids
from .errors import (
    BudgetExceededError,
    EmwaveError,
    GridMismatchError,
    InvalidScaleError,
    check_array,
    check_real,
)
from .fieldcore import _BLOCK_ENTRIES, FieldSample, _evaluate_many, amplitude_vectors, gate2
from .grids import QuadratureGrid, grids_equal

__all__ = [
    "EuclideanCoefficients",
    "NormReport",
    "NonlocalNormResult",
    "analyze",
    "synthesize",
    "synthesize_many",
    "reproduce_complex_time",
    "norm_momentum",
    "norm_euclidean",
    "norm_nonlocal_t0",
    "inner_product",
    "norm_report",
    "save_coefficients",
    "load_coefficients",
]


def _provenance_is_readable(provenance) -> bool:
    """Whether `reproduce_complex_time` can read the cone band of ``provenance``."""
    if not isinstance(provenance, dict):
        return False
    cone = provenance.get("cone_grid", {})
    args = (cone.get("args") or {}) if isinstance(cone, dict) else None
    return isinstance(args, dict) and all(
        type(args[key]) in (int, float) and math.isfinite(args[key])
        for key in ("omega_min", "omega_max")
        if key in args
    )


def _check_set(ygrid: QuadratureGrid, sgrid: QuadratureGrid, shape, provenance) -> None:
    """Refuse grids of the wrong kinds, a values ``shape`` they do not give, or an unreadable provenance."""
    if ygrid.kind != "spatial" or sgrid.kind != "scale":
        raise GridMismatchError(f"need (spatial, scale) grids, got ({ygrid.kind}, {sgrid.kind})")
    N = ygrid.meta["args"]["N"]
    want = (len(sgrid), N, N, N, 3)
    if tuple(shape) != want:
        raise GridMismatchError(f"values shape {tuple(shape)} does not match {want}: len(sgrid) scale nodes, "
                                f"then the N^3 points of ygrid and 3 components")
    if not _provenance_is_readable(provenance):
        raise EmwaveError(f"provenance {provenance!r} is not an object with a finite numeric cone band")


@dataclass(frozen=True)
class EuclideanCoefficients:
    """Complex-time field samples F(y, t - is) over a (scale x space) grid.

    ``values`` has shape (Ns, N, N, N, 3): scale node, then y_z, y_y, y_x
    (matching the C-order raveling of the spatial grid), then vector
    component.  ``t`` records the real time at which the coefficients were
    generated and must be finite; scale-space norms are independent of it.

    The container takes ownership of ``values``: it freezes the array it is
    given and does not copy it (only another dtype is converted first).  The
    first synthesis stores on it its `_SynthesisTable` (at most 2/Ns of
    the payload: synthesis reads only the scale band's box).
    ``provenance`` must be a dict whose ``cone_grid`` record, if any, gives
    its band ends as finite numbers.
    """

    ygrid: QuadratureGrid
    sgrid: QuadratureGrid
    values: np.ndarray
    t: float = 0.0
    provenance: dict = field(default_factory=dict)
    _synthesis: _SynthesisTable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        _check_set(self.ygrid, self.sgrid, vals.shape, self.provenance)
        object.__setattr__(self, "t", check_real(self.t, "coefficient time t"))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


# the fields of `EuclideanCoefficients`, with ``values`` an iterator over the scale slices in order,
# which may overwrite a slice once the next is drawn; every reader takes a set or a stream
_CoefficientStream = namedtuple("_CoefficientStream", "ygrid sgrid values t provenance")


def _lattice(ygrid: QuadratureGrid):
    """Momentum magnitudes Omega of the lattice and the centered-grid FFT phase."""
    ph = (-1.0) ** np.arange(ygrid.meta["args"]["N"])
    return _grids.momentum_magnitudes(ygrid), ph[:, None, None] * ph[None, :, None] * ph[None, None, :]


def _check_aliasing(amp, ygrid: QuadratureGrid) -> None:
    """Warn (with an energy bound) if amplitude support exceeds the grid Nyquist."""
    omega = np.linalg.norm(amp.grid.nodes, axis=1)
    nyq = ygrid.meta["nyquist"]
    over = omega > nyq
    if not np.any(over):
        return
    f2 = np.sum(np.abs(amplitude_vectors(amp)) ** 2, axis=1)
    total = float(np.sum(amp.grid.weights * f2))
    beyond = float(np.sum(amp.grid.weights[over] * f2[over]))
    if total > 0 and beyond > 0:
        warnings.warn(
            f"amplitude support reaches omega={omega.max():.4g} beyond the grid "
            f"Nyquist {nyq:.4g}; truncated energy fraction <= {beyond / total:.3e}",
            stacklevel=3,
        )


def _index_runs(indices, N: int) -> list:
    """The maximal runs of consecutive values among ``indices`` (each in 0..N-1), as slices in order."""
    occupied = np.zeros(N + 2, dtype=np.int8)
    occupied[np.asarray(indices) + 1] = 1
    edges = np.flatnonzero(np.diff(occupied))
    return [slice(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]


def _box_runs(flat, N: int) -> list:
    """The z, y and x index runs (`_index_runs`) of the lattice points with C-order flat indices ``flat``.

    Together they span the smallest box of runs that holds the points, and
    its lines are the only ones a pruned transform of them reaches.
    """
    return [_index_runs(i, N) for i in np.unravel_index(flat, (N, N, N))]


def _pruned_ifftn(block, y_runs, x_runs):
    """The unscaled inverse DFT of ``block`` over axes 1, 2 and 3, in place, for a block whose (z, y, x)
    spectrum is zero wherever y is outside ``y_runs`` or x outside ``x_runs``; returns ``block``.

    A batched ifftn (``scipy.fft.ifftn``'s order; ``np.fft.ifftn`` runs the
    axes backwards) transforms axis 1, then 2, then 3, each one line at a
    time.  The 1-D transforms here run in that order on basic-slice views,
    each writing into its view (``out=``), and only on the lines that can
    be nonzero: axis 1 on the (y-run x x-run) columns, axis 2 on the x-run
    planes (axis 1 has filled every z), axis 3 on the whole block, one
    vector component at a time (numpy runs the x pass of an N = 64 slice so
    in 4.0 ms, against 6.3 ms over the interleaved components).  A skipped
    line is all zeros and stays so, and each transformed line gets ifftn's
    arithmetic, so every bit is ifftn's.  At N = 64 and band [0.5, 4] (25 of
    64 indices per axis) that is 51 % of its lines.  norm="forward" leaves
    the inverse unscaled (the N^3 / L^3 volume factor is folded into the
    sheet factor).
    """
    for y in y_runs:
        for x in x_runs:
            view = block[:, :, y, x]
            np.fft.ifft(view, axis=1, norm="forward", out=view)
    for x in x_runs:
        view = block[:, :, :, x]
        np.fft.ifft(view, axis=2, norm="forward", out=view)
    for c in range(3):
        view = block[..., c]
        np.fft.ifft(view, axis=3, norm="forward", out=view)
    return block


def _pruned_fftn(c, runs, work):
    """The band box of one (N, N, N, 3) slice's spectrum, its DFT over axes z, y and x (in the order of
    ``scipy.fft.fftn``), at the FFT-order indices ``runs`` on every axis, as a new component-major
    (3, r, r, r) array.

    `_pruned_ifftn` run backwards.  fftn transforms axis z, then y, then x,
    each one line at a time.  The 1-D transforms here run in that order, in
    place in ``work``, an (N, N, N, 3) buffer that takes a copy of ``c``
    (``c`` may be ``work`` itself), and only on the lines whose outputs the
    box keeps: z on every line, y on the lines at the z runs, x on the
    lines at the (z, y) runs, one component at a time.  Each line
    transformed gets fftn's arithmetic, so every entry of the box has
    fftn's bits.  At N = 64 and band [0.5, 4] (25 of 64 indices per axis)
    that is 51 % of its lines, and the slice is not copied component-major.
    """
    if c is not work:
        np.copyto(work, c)
    np.fft.fft(work, axis=0, out=work)
    for z in runs:
        view = work[z]
        np.fft.fft(view, axis=1, out=view)
        for y in runs:
            for k in range(3):
                view = work[z, y, :, k]
                np.fft.fft(view, axis=2, out=view)
    keep = np.r_[tuple(runs)]
    return np.moveaxis(work, -1, 0)[np.ix_(range(3), keep, keep, keep)]


_SLICE_THREADS = 2  # threads that hash, write, read and sum scale slices


def _in_order(fn, items, depth: int, buffers=None):
    """Yield ``fn(item, buffer)`` for each of ``items`` in order, with up to ``depth`` calls running at once.

    The calls run on a pool of ``depth`` threads that the generator owns.
    Item k is handed ``buffers[k % len(buffers)]``, and is drawn and
    submitted only when the consumer, done with the result of item
    k - len(buffers), asks for the next one: so a buffer goes to new work
    only after the result that used it has been yielded and the next one
    drawn.  Without ``buffers`` (each call is handed None) every item is
    submitted at the first draw, so no thread idles while an earlier call
    runs.  When nothing can run ahead of the consumer, at depth one without
    a ring of two or more buffers, each call runs on the calling thread as
    its result is drawn, and no thread starts.  On close or on an error in
    ``fn`` or in ``items``, queued calls are cancelled and the threads
    joined; a consumer that fails closes it.
    """
    ring = [None] if buffers is None else buffers
    if depth < 2 and len(ring) < 2:
        for k, item in enumerate(items):
            yield fn(item, ring[k % len(ring)])
        return
    ahead = math.inf if buffers is None else len(buffers)  # most calls submitted and not yet yielded
    pool = ThreadPoolExecutor(max_workers=depth)  # a thread starts only when work is submitted and none is idle
    running = []  # the calls submitted and not yet yielded, in order
    try:
        for k, item in enumerate(items):
            running.append(pool.submit(fn, item, ring[k % len(ring)]))
            if len(running) == ahead:
                yield running.pop(0).result()
        while running:
            yield running.pop(0).result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _field_on_grid(amp, ygrid: QuadratureGrid, t: float, s, workers: int = 1, out=None):
    """Yield F(y, t - is) at the nodes of ``ygrid`` for the scales ``s``, in blocks of shape (k, N, N, N, 3).

    The per-amplitude set-up runs once, before the first block.  An
    amplitude on the Cartesian cone lattice of ``ygrid`` itself is written,
    per scale, only at the cone shell's lattice points: each sheet with
    ``p0 = +-omega`` carries ``gate2(p0 s) e^{-p0(s+it)} / (2 omega L^3) PH``,
    the sheets not gated off are summed, and `_pruned_ifftn` pushes them
    onto the grid in place, transforming only the lines that the shell's
    index runs (found once, in the set-up) can reach.  ``fill`` does that
    for one block of at most `_BLOCK_ENTRIES` entries or one slice (21
    slices at N = 16, 2 at N = 32, 1 at N = 64) through `_in_order`, on
    ``threads = min(workers, blocks, cpus)`` threads: in place in the
    zeroed payload ``out`` of a caller that passes one, or else in
    ``threads + 1`` reused buffers (fewer for fewer blocks), so that
    ``threads`` blocks fill while the caller reads one.  Each 1-D transform is the same whatever the
    blocking or the thread, so the bits are too.  Other amplitudes are
    summed densely by `_evaluate_many` on the calling thread, in one pass
    into ``out`` or block by block.
    """
    N = ygrid.meta["args"]["N"]
    L = ygrid.meta["args"]["L"]
    s = np.atleast_1d(np.asarray(s, dtype=float))
    step = max(1, _BLOCK_ENTRIES // (3 * N**3))
    grid = amp.grid
    if not (grid.meta.get("builder") == "cartesian_cone" and grid.meta["args"]["spatial"] == ygrid.meta["args"]):
        buffer = np.zeros((min(step, len(s)), N, N, N, 3), dtype=complex) if out is None else out
        for lo in range(0, len(s), len(buffer)):
            block = buffer[: len(s) - lo]  # einsum overwrites every entry
            _evaluate_many(amp, ygrid.nodes, t, s=s[lo : lo + len(block)], out=block.reshape(len(block), N**3, 3))
            yield block
        return
    Omega, PH = _lattice(ygrid)
    flat = np.asarray(grid.meta["flat_indices"])
    om, ph = Omega.ravel()[flat], PH.ravel()[flat]
    f = amplitude_vectors(amp)
    sheets = {int(sheet): f[grid.sheets == sheet] for sheet in np.unique(grid.sheets)}
    _, y_runs, x_runs = _box_runs(flat, N)
    blocks = [slice(lo, lo + step) for lo in range(0, len(s), step)]
    threads = min(workers, len(blocks), os.cpu_count() or 1)
    ahead = min(threads, len(blocks) - 1)  # blocks a stream fills beside the one its consumer reads
    buffers = None if out is not None else np.zeros((ahead + 1, min(step, len(s)), N, N, N, 3), dtype=complex)

    def fill(b, buffer):
        """Scatter the live sheets of block ``b`` into ``buffer`` (zeroed if reused), or into its part of ``out``,
        and transform it in place."""
        scales = s[blocks[b]]
        block = out[blocks[b]] if buffer is None else buffer[: len(scales)]
        if buffer is not None and b >= len(buffers):
            block.fill(0.0)
        slices = block.reshape(len(scales), N**3, 3)
        for i, si in enumerate(scales):
            live = [
                ((gate * 0.5 / om / L**3) * np.exp(-sheet * om * (si + 1j * t)) * ph)[:, None] * values
                for sheet, values in sheets.items()
                if (gate := gate2(sheet * si)) != 0.0
            ]
            if live:
                slices[i, flat] = sum(live[1:], live[0])
        return _pruned_ifftn(block, y_runs, x_runs)

    yield from _in_order(fill, range(len(blocks)), threads if out is not None else max(ahead, 1), buffers)


def _analysis_record(amp, ygrid: QuadratureGrid, sgrid: QuadratureGrid, t, workers) -> tuple[float, dict]:
    """The checks of an analysis on its arguments; returns the finite time and the provenance."""
    if ygrid.kind != "spatial" or sgrid.kind != "scale":
        raise GridMismatchError(f"analyze needs (spatial, scale) grids, got ({ygrid.kind}, {sgrid.kind})")
    if len(sgrid) == 0:
        raise EmwaveError("scale grid is empty")
    if np.any(sgrid.nodes == 0.0):
        raise InvalidScaleError("scale grid contains s = 0")
    t = check_real(t, "analyze time t")
    if workers is not None and (isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1):
        raise EmwaveError(f"analyze workers={workers!r} is neither None nor an integer >= 1")
    _check_aliasing(amp, ygrid)
    cone = {"builder": amp.grid.meta.get("builder"), "args": amp.grid.meta.get("args")}
    return t, {"kind": type(amp).__name__, "cone_grid": cone}


def analyze(
    amp,
    ygrid: QuadratureGrid,
    sgrid: QuadratureGrid,
    t: float = 0.0,
    workers: int | None = None,
) -> EuclideanCoefficients:
    """Complex-time field values F(y, t - is) over the (scale x space) grid.

    `_field_on_grid` fills one zeroed payload in place, block by block
    through `_in_order`: ``min(workers, blocks, os.cpu_count())`` blocks at a
    time, each transformed by `_pruned_ifftn`, with the bits of one batched
    inverse FFT.  ``t`` must be a finite real number.  Linear in ``amp``.
    ``workers`` is ``None`` (1) or an integer >= 1, the number of threads
    the call runs on; the result does not depend on it.  One worker starts
    no thread.
    """
    t, provenance = _analysis_record(amp, ygrid, sgrid, t, workers)
    N = ygrid.meta["args"]["N"]
    out = np.zeros((len(sgrid), N, N, N, 3), dtype=complex)
    for _ in _field_on_grid(amp, ygrid, t, sgrid.nodes, workers or 1, out=out):
        pass
    return EuclideanCoefficients(ygrid, sgrid, out, t=t, provenance=provenance)


def _analysis_stream(amp, ygrid: QuadratureGrid, sgrid: QuadratureGrid, t: float,
                     workers: int = 1) -> _CoefficientStream:
    """The coefficients of `analyze` as a `_CoefficientStream` of `_field_on_grid` blocks, filled up to
    ``workers`` blocks ahead of the one the consumer reads."""
    t, provenance = _analysis_record(amp, ygrid, sgrid, t, workers)
    blocks = _field_on_grid(amp, ygrid, t, sgrid.nodes, workers)
    return _CoefficientStream(ygrid, sgrid, (c for block in blocks for c in block), t, provenance)


@dataclass(frozen=True)
class _SynthesisTable:
    """What synthesis reads of a coefficient set: its spatial grid and time, and on the band box its |k|
    shells and per-sheet sums.

    The scale rule resolves unity only on its band ``omega_band``, so
    synthesis reads only the band box: on each axis, the FFT-order indices
    whose momentum has ``|p_axis| <= omega_band[1]``; ``momenta`` holds
    those momenta, the same on every axis.  At L = 20 and band [0.5, 4]
    that is 25 indices per axis at N = 32 and at N = 64.  The wavelet symbol
    depends on the momentum only through omega = |k|, so it takes one value
    per shell of equal |k| (370 shells on the box at N = 32 against 15625
    of its points): ``omega`` holds the box's distinct momenta and the
    (r, r, r) ``index`` gives Omega = omega[index] on the box.  The shells
    are the exact floats of `_lattice`'s Omega, so a symbol gathered
    through ``index`` has the bits of one evaluated at every point.
    ``sums`` maps each sheet to ``H = SUM_s w_s e^{-+omega s} PH fftn(c_s)``
    on the box, the part of the symbol that depends on neither the probe
    points, ``t`` nor ``sigma``.  Each sum is component-major, shape
    (3, r, r, r) in (component, kz, ky, kx) order, so a factor on the box
    multiplies it over r^3 contiguous points per component.
    """

    ygrid: QuadratureGrid
    t: float
    momenta: np.ndarray
    omega: np.ndarray
    index: np.ndarray
    sums: dict


def _close(values) -> None:
    """Close a stream's slices if they can be closed, so that its threads are joined and its file closed now,
    not when the generator is collected; a set's values and a drawn stream are left as they are."""
    close = getattr(values, "close", None)
    if close is not None:
        close()


def _synthesis_table(coeffs, workers: int = 1) -> _SynthesisTable:
    """The `_SynthesisTable` of a set or a stream; a table is its own, and a set keeps the one it gets.

    The band box is the run of indices (`_box_runs`) that the ball
    ``|k| <= omega_band[1]`` of the scale grid reaches on each axis.  Each
    slice's box is one `_pruned_fftn` in a reused slice buffer, and the
    symbol products and sums are formed on the box alone.  The box keeps
    fftn's bits for every entry it keeps; content outside it, which the
    scale rule weights with an R(omega) that nothing bounds outside the
    band, is dropped.  A band that reaches past the Nyquist frequency
    gives the whole lattice.  `_in_order` transforms and weights
    ``threads = min(workers, slices, cpus)`` slices at a time, each in its
    own of ``threads`` buffers, and the boxes are folded as they are
    yielded, in fixed scale order on the calling thread, so the sums have
    the same bits from memory, from a file or from an analysis stream, at
    any ``workers``.  A non-finite box would reach every probe through the
    sums, so a slice whose box is not finite is refused once the slices
    have run to their end, and so are sums that overflow.  A stream is
    closed once the fold stops reading it, whether or not it ran to its
    end.
    """
    if isinstance(coeffs, _SynthesisTable):
        return coeffs
    if getattr(coeffs, "_synthesis", None) is not None:
        return coeffs._synthesis
    N = coeffs.ygrid.meta["args"]["N"]
    Omega, PH = _lattice(coeffs.ygrid)
    # the ball reaches the same runs on every axis: the indices with |p_axis| <= omega_band[1]
    runs = _box_runs(np.flatnonzero(Omega <= coeffs.sgrid.meta["args"]["omega_band"][1]), N)[0]
    keep = np.r_[tuple(runs)]
    box = np.ix_(keep, keep, keep)
    omega, index = np.unique(Omega[box].ravel(), return_inverse=True)
    index = index.reshape((len(keep),) * 3)
    PH = PH[box]
    threads = min(workers, len(coeffs.sgrid), os.cpu_count() or 1)
    spare = [np.empty((N, N, N, 3), dtype=complex) for _ in range(threads)]

    def staged():
        """The slices, nodes and weights; on the pool each slice is copied into its item's buffer first."""
        # a drawn stream is short
        for k, (c, s, w) in enumerate(zip(coeffs.values, coeffs.sgrid.nodes, coeffs.sgrid.weights, strict=True)):
            if threads > 1:  # a stream's slice is overwritten once the next is drawn
                np.copyto(spare[k % threads], c)
                c = spare[k % threads]
            yield c, s, w

    def weighted(item, work):
        """The sheet and the weighted box of a slice (which may be ``work``), the box None when it is not finite."""
        c, s, w = item
        sheet = 1 if s > 0 else -1
        with np.errstate(invalid="ignore", over="ignore"):  # numpy's FFT warns on a non-finite sample
            chat = _pruned_fftn(c, runs, work)
            if not np.isfinite(chat).all():  # a non-finite sample anywhere in c reaches every entry of its box
                return sheet, None
            chat *= (w * np.exp(-sheet * omega * s))[index] * PH
        return sheet, chat

    sums, bad = {}, 0
    boxes = _in_order(weighted, staged(), threads, spare)
    try:
        for sheet, chat in boxes:
            if chat is None:
                bad += 1
            elif sheet in sums:
                with np.errstate(invalid="ignore", over="ignore"):  # refused below
                    sums[sheet] += chat
            else:
                sums[sheet] = chat
    finally:
        boxes.close()
        _close(coeffs.values)
    if bad:
        raise EmwaveError(f"{bad} of {len(coeffs.sgrid)} coefficient slices hold a non-finite sample "
                          f"or transform to one")
    if not all(np.isfinite(H).all() for H in sums.values()):
        raise EmwaveError("the weighted sums of the coefficient slices overflow: their values or scale weights "
                          "are too large")
    table = _SynthesisTable(coeffs.ygrid, coeffs.t, _grids.momentum_axis(coeffs.ygrid)[keep], omega, index, sums)
    if isinstance(coeffs, EuclideanCoefficients):
        object.__setattr__(coeffs, "_synthesis", table)
    return table


def _synthesize_engine(coeffs, pts: np.ndarray, t: float, sigma: float) -> np.ndarray:
    """Shared reconstruction core for sigma = 0 (plain) and sigma != 0 (kernel).

    ``coeffs`` is a coefficient set or a `_SynthesisTable`; the callers
    have checked that ``pts`` is a finite real (K, 3) array and ``t`` and
    ``sigma`` are floats.  The band-limited wavelet symbol ``gate(sigma, s)
    omega e^{-+omega((s+sigma) + i(t - t0))}`` splits into the per-sheet sums of
    the table times ``gate omega e^{-+omega(sigma + i(t - t0))}``;
    the gate is 1 for sigma = 0, else 2 on the sheet of sign sigma and 0 on
    the other.  Synthesis reads only the table's band box, r indices per
    axis.  The factor is evaluated once per |k| shell of the box and
    gathered to it, so a warm call runs no FFT and no exponential over the
    r^3 points.  One pass over the box forms the component-major array
    G = SUM_sheet factor H, and G is summed at the K probe points with
    separable phases ``e^{ip.x} = e^{ip_x x} e^{ip_y y} e^{ip_z z}`` over
    the box's momenta, (ky, kx) first.  The (ky, kx) length r^2 of the
    product is zero-padded to a multiple of 16, ``width``: OpenBLAS cuts a
    reduction into blocks, and for a length such as 169 or 625 the cut
    depends on its thread count, which moves the last bits (a whole
    lattice of N >= 4 needs no padding).  The probes run one block of at
    most ``_BLOCK_ENTRIES // width`` at a time: per block, three (k, r)
    tables of 3 k r exponentials, their (k, r^2) outer product over
    (ky, kx) in a reused block of at most `_BLOCK_ENTRIES` entries, one
    (k, width) x (width, 3 r) product, then per probe a (3, r) x (r,)
    product over kz.  Besides G and the (K, 3) result the call holds one block,
    whatever K is.  The K probes are split into nearly equal blocks, so for
    K >= 2 no block holds a lone probe (from 3 probes per block on, which
    covers N <= 256), and blocks of two or more probes give the same bits
    for any blocking.  A single probe (K = 1, as in `synthesize`) runs the
    big product as a matrix-vector one and may differ from the same probe
    in a block in the last bit.  The first call on a coefficient set builds
    its table on the calling thread.
    """
    table = _synthesis_table(coeffs)
    N = table.ygrid.meta["args"]["N"]
    K = len(pts)
    dt = t - table.t
    omega, index, pax = table.omega, table.index, table.momenta
    r = len(pax)
    width = -(-r * r // 16) * 16  # the (ky, kx) reduction, zero-padded to a multiple of 16
    G = np.zeros((3 * r, width), dtype=complex)
    box = G[:, : r * r].reshape(3, r, r, r)  # a view: the padding stays zero
    live = 0
    for sheet, H in table.sums.items():
        gate = gate2(sigma * sheet)
        if gate != 0.0:
            f = (gate * omega * np.exp(-sheet * omega * (sigma + 1j * dt)))[index]
            if live:
                box += f * H
            else:
                np.multiply(f, H, out=box)
            live += 1
    if not live:  # every sheet gated off
        return np.zeros((K, 3), dtype=complex)
    G = G.T
    step = max(1, _BLOCK_ENTRIES // width)
    block = np.zeros((min(step, K), width), dtype=complex)
    out = np.empty((K, 3), dtype=complex)
    lo = 0
    # nearly equal blocks: a lone probe would run the big product as a matrix-vector one
    for p in np.array_split(pts, max(1, -(-K // step))):
        ex, ey, ez = (np.exp(1j * np.outer(p[:, axis], pax)) for axis in range(3))
        exy = block[: len(p)]
        np.multiply(ey[:, :, None], ex[:, None, :], out=exy[:, : r * r].reshape(len(p), r, r))
        A = (exy @ G).reshape(len(p), 3, r)
        out[lo : lo + len(p)] = (A @ ez[:, :, None])[..., 0] / N**3
        lo += len(p)
    return out


def synthesize_many(coeffs, xs: np.ndarray, t: float) -> np.ndarray:
    """Reconstructed field at many points, shape (K, 3), from a set or a `_SynthesisTable`.

    ``xs`` is one point or an array of points along a last axis of length
    3, finite and real, read in C order; ``t`` is a finite real number.
    Anything else raises `EmwaveError` before any work is done.
    """
    pts = check_array(xs, "synthesis points", (..., 3)).reshape(-1, 3)
    return _synthesize_engine(coeffs, pts, check_real(t, "synthesis time t"), 0.0)


def synthesize(coeffs: EuclideanCoefficients, x, t: float) -> FieldSample:
    """Field reconstructed from scale-space coefficients at one point.

    Weighted sum over the (y, s) grid of (band-limited) wavelet values
    times coefficients; the wavelets carry the time evolution, so any
    real t is available from fixed-t coefficients.  The sample's
    ``truncation_estimate`` is the scale grid's ``recovery_bound`` (or None).
    """
    return reproduce_complex_time(coeffs, x, t, 0.0)


def reproduce_complex_time(
    coeffs: EuclideanCoefficients, x, t: float, sigma: float
) -> FieldSample:
    """Complex-time field F(x, t - i sigma) reproduced from coefficients.

    Kernel-weighted sum: the reproducing kernel equals the wavelet at
    shifted scale s + sigma gated by theta(sigma s), so for sigma != 0 only
    matching-sign scale nodes contribute (doubled), and the extra
    e^{-omega sigma} damping makes convergence faster than plain
    synthesis.  ``sigma = 0`` runs the identical code path as `synthesize`.
    ``x`` is a finite real 3-vector and ``t`` and ``sigma`` finite real
    numbers; anything else raises `EmwaveError` before any work is done.
    """
    x = check_array(x, "synthesis point x", (3,))
    t, sigma = check_real(t, "synthesis time t"), check_real(sigma, "synthesis offset sigma")
    F = _synthesize_engine(coeffs, x[None, :], t, sigma)[0]
    t_label = complex(t) if sigma == 0.0 else complex(t, -sigma)
    lo, hi = coeffs.sgrid.meta["args"]["omega_band"]
    cone = coeffs.provenance.get("cone_grid", {}).get("args") or {}
    covered = lo <= cone.get("omega_min", lo) and cone.get("omega_max", hi) <= hi  # else the bound does not apply
    bound = coeffs.sgrid.meta["recovery_bound"] if covered else None
    return FieldSample(F=F, x=x, t=t_label, truncation_estimate=bound)


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------


def norm_momentum(amp) -> float:
    """Squared momentum-space norm: INT dtilde-p omega^-2 |f(p)|^2."""
    omega = np.linalg.norm(amp.grid.nodes, axis=1)
    f2 = np.sum(np.abs(amplitude_vectors(amp)) ** 2, axis=1)
    return float(np.sum(amp.grid.weights * f2 / omega**2))


def _per_slice(fn, work_dtype, *coeffs) -> list:
    """``fn(*slices, work)`` of each scale slice of the arguments, in scale order.

    ``work`` is a ``work_dtype`` buffer of one slice's shape for ``fn``'s
    temporary, or None when ``work_dtype`` is None.  `_in_order` runs
    `_SLICE_THREADS` slices at a time when every argument is a set, whose
    frozen values stay valid, and a stream's slices one at a time.  Each
    result has the same bits either way.  The streams are closed once the
    loop stops reading them, whether or not they ran to their end.
    """
    depth = _SLICE_THREADS if all(isinstance(c, EuclideanCoefficients) for c in coeffs) else 1
    N = coeffs[0].ygrid.meta["args"]["N"]
    work = None if work_dtype is None else [np.empty((N, N, N, 3), dtype=work_dtype) for _ in range(depth)]
    try:
        return list(_in_order(lambda slices, buffer: fn(*slices, buffer), zip(*(c.values for c in coeffs)), depth,
                              work))
    finally:
        for c in coeffs:
            _close(c.values)


def _power_sum(c) -> float:
    """SUM |c|^2 over a slice: one dot of its float64 view with itself, summed in a fixed order.

    ``np.einsum`` runs without BLAS and without a work buffer, so the bits
    depend neither on the BLAS thread count nor on the thread that runs it.
    """
    x = c.reshape(-1).view(np.float64)
    return np.einsum("i,i->", x, x)


def _pair_sum(a, b, work) -> complex:
    """SUM conj(a) b over a pair of slices, formed in ``work``: the bits of ``np.sum(np.conj(a) * b)``."""
    np.conj(a, out=work)
    work *= b
    return np.sum(work)


def norm_euclidean(coeffs) -> float:
    """Squared scale-space norm INT d^3y ds |F(y, t - is)|^2 of a set or a stream.

    Each slice's sum of squares (`_power_sum`, one fixed-order dot of its
    float64 view) runs `_SLICE_THREADS` slices at a time for a set and in
    turn for a stream (`_per_slice`); the weighted sums are combined in
    scale order, so the value has the same bits either way, at any thread
    count and BLAS thread count.
    """
    dy3 = coeffs.ygrid.meta["spacing"] ** 3
    per_slice = np.array(_per_slice(lambda c, _: _power_sum(c), None, coeffs))
    return float(np.sum(coeffs.sgrid.weights * per_slice) * dy3)


def inner_product(
    coeffs_a: EuclideanCoefficients, coeffs_b: EuclideanCoefficients
) -> complex:
    """Scale-space pairing INT d^3y ds conj(A(y,s)) . B(y,s).

    Conjugate-linear in the first slot; ``inner_product(c, c)`` equals
    `norm_euclidean`.  Both coefficient sets must share grids and
    generation time.  The per-slice sums run `_SLICE_THREADS` at a time and
    are combined in scale order, as in `norm_euclidean`.
    """
    if not grids_equal(coeffs_a.ygrid, coeffs_b.ygrid) or not grids_equal(
        coeffs_a.sgrid, coeffs_b.sgrid
    ):
        raise GridMismatchError("coefficient grids differ")
    if coeffs_a.t != coeffs_b.t:
        raise GridMismatchError(
            f"coefficients generated at different times: {coeffs_a.t} vs {coeffs_b.t}"
        )
    dy3 = coeffs_a.ygrid.meta["spacing"] ** 3
    pair = np.array(_per_slice(_pair_sum, complex, coeffs_a, coeffs_b))
    return complex(np.sum(coeffs_a.sgrid.weights * pair) * dy3)


# ---------------------------------------------------------------------------
# nonlocal equal-time norm
# ---------------------------------------------------------------------------

_NONLOCAL_BUDGET = 24**3  # grid points per factor of the double sum


def _nonlocal_workspace(N: int) -> int:
    """Peak bytes of `norm_nonlocal_t0` at N^3 points, P = 2N.

    8 * 800 P^2 for the (800, P^2) kernel-factor products and 48 P^3 for
    the spectra, the correlation and the kernel weights.
    """
    P = 2 * N
    return 8 * 800 * P**2 + 48 * P**3


def _cell_kernel_factors(d) -> tuple[np.ndarray, np.ndarray]:
    """Log-time rule ``w`` and per-axis factors ``g`` with A(d) = sum_j w_j prod_i g[j, d_i].

    With 1/r^2 = INT_0^inf e^{-t r^2} dt and the per-axis tent density
    1 - |v| on [-1, 1] of the offset between two unit cells, the cell-pair
    average separates: A(d) = INT dt g(t, d1) g(t, d2) g(t, d3), where
    g(t, d) = INT (1 - |v|) e^{-t (v+d)^2} dv = h(d-1) - 2 h(d) + h(d+1) and
    h(c) = (e^{-t c^2} - 1)/(2t) + sqrt(pi)/(2 sqrt t) |c| (1 - erfc(sqrt(t) |c|))
    is a second antiderivative of e^{-t c^2}.  expm1 keeps the first term exact
    as t -> 0 and the |c| parts are summed before the division by sqrt(t), so
    neither small nor large t cancels digits.  The t integral is Gauss-Legendre
    in u = ln t, 40 panels of 20 nodes on [-40, 80]; A then agrees with tensor
    Gauss-Legendre over the cell pair to 5e-13 relative for every |d_i| <= 24.
    ``g`` has shape ``(800,) + np.shape(d)``.
    """
    u, wu = _grids.gauss_legendre_panels(np.linspace(-40.0, 80.0, 41), 20)
    t = np.exp(u)
    w = wu * t
    d = np.asarray(d, dtype=float)
    t = t.reshape(t.shape + (1,) * d.ndim)
    rt = np.sqrt(t)
    c = (np.abs(d - 1.0), np.abs(d), np.abs(d + 1.0))
    g = (c[0] - 2.0 * c[1] + c[2]) * (0.5 * np.sqrt(np.pi)) / rt
    for k, ck, erfc in zip((1.0, -2.0, 1.0), c, _erfc(np.stack([rt * ck for ck in c]))):
        g = g + k * (np.expm1(-t * ck**2) / (2.0 * t) - (0.5 * np.sqrt(np.pi)) * ck * erfc / rt)
    return w, g


def _erfc(x) -> np.ndarray:
    """``math.erfc`` of each entry of the float array ``x``, evaluated once per distinct value."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([math.erfc(v) for v in values.tolist()])[inverse].reshape(x.shape)


def _cell_kernel(d) -> float:
    """Average of 1/|x - y|^2 over two unit cells displaced by the integer vector ``d``.

    Exact up to the fixed log-time rule of `_cell_kernel_factors` (5e-13
    relative), the singular diagonal and neighbour cells included.
    """
    w, g = _cell_kernel_factors(d)
    return float(w @ np.prod(g, axis=1))


@dataclass(frozen=True)
class NonlocalNormResult:
    """Nonlocal equal-time norm with its Hermiticity diagnostic."""

    value: float
    imag_ratio: float


def norm_nonlocal_t0(amp, ygrid: QuadratureGrid) -> NonlocalNormResult:
    """Squared norm from the equal-time double integral.

    (1/pi^2) INT d^3x d^3y |x-y|^-2 conj(F(x,0)) . F(y,0), discretized on
    ``ygrid`` x ``ygrid`` with cell-averaged kernel weights: A(d), the exact
    average of 1/|x-y|^2 over two cells displaced by d, for every d of the
    (2N)^3 correlation grid, the singular diagonal included.  A separates
    into a 1-D log-time integral of three per-axis factors
    (`_cell_kernel_factors`), so all (2N)^3 weights are one matrix product.
    F(y, 0) is `_field_on_grid` at t = 0, s = 0, the path of `analyze`.
    The pair sum is a zero-padded FFT cross-correlation: the three
    components' power spectra are summed before one inverse FFT.  Refuses
    grids beyond 24^3 points per factor with a cost estimate.
    """
    if ygrid.kind != "spatial":
        raise GridMismatchError("norm_nonlocal_t0 needs a spatial grid")
    N = ygrid.meta["args"]["N"]
    npts = N**3
    if npts > _NONLOCAL_BUDGET:
        raise BudgetExceededError(
            f"{npts} points per factor exceeds budget {_NONLOCAL_BUDGET}: the double sum "
            f"covers {npts**2:.3e} pairs (~{_nonlocal_workspace(N) / 2**20:.0f} MiB of "
            f"workspace and O(N^3 log N) FFT work per component)"
        )

    dlt = ygrid.meta["spacing"]
    F = next(_field_on_grid(amp, ygrid, 0.0, 0.0))[0]

    P = 2 * N
    power = np.zeros((P, P, P))
    for c in range(3):  # s= zero-pads each component to P^3
        power += np.abs(np.fft.fftn(F[..., c], s=(P, P, P), axes=(0, 1, 2))) ** 2
    corr = np.fft.ifftn(power)

    idx = np.arange(P)
    w, g = _cell_kernel_factors(np.where(idx < N, idx, idx - P))
    pairs = (g[:, :, None] * g[:, None, :]).reshape(len(w), P * P)
    A = ((w[:, None] * g).T @ pairs).reshape(P, P, P)

    total = complex(dlt**4 / np.pi**2 * np.sum(A * corr))
    imag_ratio = abs(total.imag) / abs(total.real) if total.real != 0.0 else 0.0
    return NonlocalNormResult(total.real, imag_ratio)


@dataclass(frozen=True)
class NormReport:
    """The three squared norms of one field, with pairwise relative gaps."""

    momentum: float
    euclidean: float
    nonlocal_t0: float | None
    gap_euclidean: float
    gap_nonlocal: float | None
    nonlocal_imag_ratio: float | None = None

    def __post_init__(self):
        if self.momentum < 0 or self.euclidean < 0:
            raise EmwaveError("squared norms must be nonnegative")
        if self.nonlocal_t0 is not None and self.nonlocal_t0 < 0:
            raise EmwaveError("squared norms must be nonnegative")


def norm_report(amp, coeffs, nonlocal_grid: QuadratureGrid | None = None) -> NormReport:
    """Momentum / scale-space (/ optional nonlocal) norms with relative gaps.

    ``coeffs`` is a set or a stream of one; `norm_euclidean` reads it once.
    """
    nm = norm_momentum(amp)
    ne = norm_euclidean(coeffs)
    nl = None if nonlocal_grid is None else norm_nonlocal_t0(amp, nonlocal_grid)
    scale = nm if nm > 0 else 1.0
    return NormReport(
        momentum=nm,
        euclidean=ne,
        nonlocal_t0=None if nl is None else nl.value,
        gap_euclidean=abs(ne - nm) / scale,
        gap_nonlocal=None if nl is None else abs(nl.value - nm) / scale,
        nonlocal_imag_ratio=None if nl is None else nl.imag_ratio,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MANIFEST_FORMAT = "emwave-coefficients"
_MANIFEST_VERSION = 3  # the only version written and read
_IO_CHUNK = 8 << 20  # most bytes per read call of a payload load


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_coefficients(coeffs, directory, name: str) -> Path:
    """Write a set or a stream slice by slice, in scale order, and return the manifest path.

    The manifest but its digests is serialized before any file is touched,
    so a value JSON cannot hold (a NaN) fails first.  `_in_order` hashes
    the slices on `_SLICE_THREADS` threads while the calling thread writes
    them: a set's, views of its frozen values, all ahead of the writes, and
    a stream's each beside its write, both done before the next slice is
    drawn, which may overwrite it.  A stream that gives more or fewer bytes
    than the manifest's ``payload_bytes`` is refused before any file is
    moved.  Both files are written under temporary names and moved into
    place, the payload first; on any error the temporary files are removed.  A stream is closed once the writer
    stops reading it, whether or not it ran to its end.
    """
    directory, N = Path(directory), coeffs.ygrid.meta["args"]["N"]
    shape = [len(coeffs.sgrid), N, N, N, 3]
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "axis_order": ["s", "y_z", "y_y", "y_x", "component"],
        "dtype": "little-endian float64 (re, im) pairs",
        "shape": shape,
        "t": coeffs.t,
        "ygrid": {"builder": coeffs.ygrid.meta["builder"], "args": coeffs.ygrid.meta["args"]},
        "sgrid": {"omega_band": coeffs.sgrid.meta["args"]["omega_band"], "signs": coeffs.sgrid.meta["args"]["signs"],
                  "nodes": coeffs.sgrid.nodes.tolist(), "weights": coeffs.sgrid.weights.tolist()},
        "provenance": coeffs.provenance,
        "payload": f"{name}.bin",
        "payload_bytes": 16 * math.prod(shape),
    }
    json.dumps(manifest, allow_nan=False)  # raises on a NaN before any file is touched
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / manifest["payload"], directory / f"{name}.json"]
    temps = [directory / f".{p.name}.tmp" for p in paths]

    def hashed(stream):
        """Each slice, for `_in_order` to hash, written on the calling thread while it is hashed, then a pause."""
        for c in coeffs.values:
            data = np.ascontiguousarray(c, dtype="<c16").reshape(-1).view(np.uint8)
            yield data
            stream.write(data)
            yield None

    # a set's slices stay valid, so all are drawn at once and the hashes run ahead of the writes; a stream's
    # slice may be overwritten once the next is drawn, so two calls are drawn ahead: the next slice is drawn
    # after the pause, once the consumer has the slice's digest
    ahead = None if isinstance(coeffs, EuclideanCoefficients) else [None] * 2
    try:
        with open(temps[0], "wb") as stream:
            digests = list(_in_order(lambda data, _: data if data is None else _sha256(data), hashed(stream),
                                     _SLICE_THREADS, ahead))[::2]
            written = stream.tell()
        if written != manifest["payload_bytes"]:
            raise EmwaveError(f"the coefficient slices hold {written} bytes, not the "
                              f"{manifest['payload_bytes']} of shape {shape}")
        manifest["slice_sha256"] = digests
        temps[1].write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
        for temp, final in zip(temps, paths):
            os.replace(temp, final)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    finally:
        _close(coeffs.values)
    return paths[1]


def save_coefficients(coeffs, directory, name: str = "coefficients") -> Path:
    """Write coefficients (a set or a stream) as a JSON manifest plus a flat binary payload.

    The payload is the values in axis order (s, y_z, y_y, y_x, vector
    component), C-order, as little-endian (re, im) float64 pairs, written
    one scale slice at a time.  The manifest (version 3) records the
    spatial grid's builder record, the scale rule (its band, signs, nodes
    and weights as JSON floats, which round-trip exactly), the time, the
    provenance and ``slice_sha256``, the SHA-256 of each scale slice in
    scale order, each computed beside the write of its slice;
    so a reload is byte-exact and self-validating.  A failed save leaves no
    partial set.  Returns the manifest path.
    """
    return _write_coefficients(coeffs, directory, name)


_MANIFEST_KEYS = ("payload", "payload_bytes", "slice_sha256", "shape", "t", "ygrid", "sgrid")
_SHA256_HEX = re.compile("[0-9a-f]{64}")


def _checked_manifest(manifest_path) -> tuple[dict, Path, QuadratureGrid, QuadratureGrid]:
    """A saved set's manifest, payload path and grids, once every check that reads no payload byte holds.

    Each defect raises `EmwaveError`.  An unreadable manifest, a version
    other than 3, a missing key or a payload outside the manifest's
    directory is refused first; then, in this order, the payload file's
    size against ``payload_bytes`` and ``shape``, ``slice_sha256``
    (``shape[0]`` lowercase hex SHA-256 digests), the time (a finite
    number), the spatial grid's builder record, the scale rule (checked by
    `grids.scale_grid_from_rule`; no scale builder runs) and its node count
    with the shape, and the provenance.
    """
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise EmwaveError(f"cannot read coefficients manifest {path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise EmwaveError(f"{path} is not a coefficients manifest")
    version = manifest.get("version")
    if type(version) is not int or version != _MANIFEST_VERSION:
        raise EmwaveError(f"unsupported manifest version {version!r}: only version {_MANIFEST_VERSION} is read; "
                          f"rerun analyze to write the set again")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise EmwaveError(f"manifest {path} lacks keys {missing}")
    directory = path.parent.resolve()
    payload_path = (directory / str(manifest["payload"])).resolve()
    if not payload_path.is_relative_to(directory):
        raise EmwaveError(f"payload {manifest['payload']!r} lies outside {directory}")
    shape, t = manifest["shape"], manifest["t"]
    try:
        with open(payload_path, "rb") as stream:
            size = os.fstat(stream.fileno()).st_size
    except OSError as exc:
        raise EmwaveError(f"cannot read payload {payload_path}: {exc}") from None
    if size != manifest["payload_bytes"]:
        raise EmwaveError(f"payload length {size} does not match manifest payload_bytes "
                          f"{manifest['payload_bytes']!r}")
    if not (isinstance(shape, list) and len(shape) == 5 and all(isinstance(n, int) and n >= 0 for n in shape)
            and 16 * math.prod(shape) == size):
        raise EmwaveError(f"manifest shape {shape!r} does not match {size} payload bytes")
    digests = manifest.get("slice_sha256")
    if not (isinstance(digests, list) and len(digests) == shape[0]
            and all(isinstance(d, str) and _SHA256_HEX.fullmatch(d) for d in digests)):
        raise EmwaveError(f"manifest slice_sha256 is not a list of {shape[0]} lowercase hex SHA-256 digests")
    check_real(t, "manifest time t")
    built = []
    for key, build in (("ygrid", _grids.build_from_record), ("sgrid", _grids.scale_grid_from_rule)):
        try:
            built.append(build(**manifest[key]))
        except (TypeError, ValueError, EmwaveError) as exc:
            raise EmwaveError(f"manifest {path} has a malformed {key} record: {exc!r}") from None
    _check_set(*built, shape, manifest.setdefault("provenance", {}))
    return manifest, payload_path, *built


def _payload_slices(manifest: dict, payload_path: Path, out=None):
    """Yield a checked payload's scale slices in order, each only once its digest holds.

    Slice i is read into ``out[i % len(out)]``: ``out`` is the whole
    payload's buffer, or else two slice buffers, so a yielded slice stays
    valid until the next one is drawn.  `_in_order` reads (``os.preadv``,
    which moves no shared file offset) and hashes `_SLICE_THREADS` slices
    at a time, so slice i + 1 is read while the consumer works on slice i.
    A slice whose SHA-256 differs from its ``slice_sha256`` entry raises
    `EmwaveError` naming it, before it is yielded, so the slices before it
    are all that is yielded.
    """
    shape, digests = manifest["shape"], manifest["slice_sha256"]
    out = np.empty([min(2, shape[0])] + shape[1:], dtype="<c16") if out is None else out

    def checked(i, buffer):
        """Slice ``i``, read into ``buffer``, once its digest holds."""
        view = memoryview(buffer.reshape(-1).view(np.uint8))
        done = 0
        while done < len(view):
            n = os.preadv(fd, [view[done : done + _IO_CHUNK]], i * len(view) + done)
            if not n:
                raise EmwaveError(f"payload ended after {done} bytes of slice {i}")
            done += n
        digest = _sha256(view)
        if digest != digests[i]:
            raise EmwaveError(f"payload checksum mismatch in slice {i} of {manifest['payload']}: "
                              f"{digest} != {digests[i]}")
        return buffer

    try:
        with open(payload_path, "rb", buffering=0) as stream:
            fd = stream.fileno()
            yield from _in_order(checked, range(shape[0]), _SLICE_THREADS, out)
    except OSError as exc:
        raise EmwaveError(f"cannot read payload {payload_path}: {exc}") from None


def _read_coefficients(manifest_path) -> _CoefficientStream:
    """A saved set as a `_CoefficientStream`: checked now, its payload read and verified one slice at a time."""
    manifest, path, ygrid, sgrid = _checked_manifest(manifest_path)
    return _CoefficientStream(ygrid, sgrid, _payload_slices(manifest, path), manifest["t"], manifest["provenance"])


def load_coefficients(manifest_path) -> EuclideanCoefficients:
    """Rebuild coefficients from a manifest written by `save_coefficients`, read into one buffer.

    `_payload_slices` reads the payload, `_SLICE_THREADS` slices at a time,
    into the buffer that becomes the read-only values, and checks each
    slice's digest as it is read; a mismatch raises `EmwaveError` naming
    the first bad slice.  Only version-3 manifests are read.
    """
    manifest, payload_path, ygrid, sgrid = _checked_manifest(manifest_path)
    values = np.empty(manifest["shape"], dtype="<c16")
    for _ in _payload_slices(manifest, payload_path, out=values):
        pass
    return EuclideanCoefficients(ygrid, sgrid, values, t=manifest["t"], provenance=manifest["provenance"])
