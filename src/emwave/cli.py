"""Scenario runner: builds grids and amplitudes from JSON configs, runs the
analysis/synthesis/norm/verification pipelines, and writes CSV/JSON artifacts.

This module owns all I/O; the compute modules never read or write files.
Outputs are deterministic for a fixed config and seed regardless of the
``scipy.fft`` worker count (``--workers``, else the scenario's ``workers``
key, else 1), which a run sets once with ``scipy.fft.set_workers``.  Every
run writes a manifest recording the config hash, library versions, the
physical conventions baked into the package, the worker count and timings;
the worker count and timings vary between runs, so the manifest is
informational rather than part of the reproducible output set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy.fft

from . import __version__
from . import fieldcore, grids, transform
from .errors import ConfigError, EmwaveError
from .wavelet import WaveletLabel, eval_wavelet, scaling_check

SCHEMA = "emwave-scenario/1"
PIPELINES = ("analyze", "reconstruct", "norms", "verify-suite")

CONVENTIONS = {
    "cone_measure": "(2 pi)^-3 d^3p / (2 omega)",
    "norm_weight": "omega^-2 inside the momentum norm",
    "inverse_fourier": "(2 pi)^-3 normalization, forward sign e^{-i p.x}",
    "gate_at_zero": 0.5,
    "coefficient_convention": "c(y, s) = F(y, t - i s)",
}


def _fail(path: str, message: str):
    raise ConfigError(path, message)


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def _parse_range(text: str, where: str) -> np.ndarray:
    """Endpoint-inclusive ``start:stop:step`` samples; at most 10^6 of them, all finite."""
    parts = text.split(":")
    if len(parts) != 3:
        _fail(where, f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        _fail(where, f"non-numeric range component in {text!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        _fail(where, f"range components must be finite, got {text!r}")
    if step <= 0 or stop < start:
        _fail(where, f"need stop >= start and step > 0, got {text!r}")
    # checked before anything is allocated; an overflowing count is inf and fails too
    count = (stop - start) / step + 0.5
    if not count < 10**6:
        _fail(where, f"range has more than 1000000 samples, got {text!r}")
    return start + step * np.arange(int(count) + 1)


def emit_figure_data(s: float, r_values: np.ndarray, t_values: np.ndarray) -> str:
    """Radial wavelet slices as CSV text.

    One row per (t, r) pair — t is the outer loop, r the inner — holding
    the wavelet value at radius r and time t for a scale-``s`` wavelet
    centered at the origin: columns ``r,t,re,im,abs``, every number
    printed with 17 significant digits.
    """
    label = WaveletLabel(y=np.zeros(3), s=float(s))
    lines = ["r,t,re,im,abs"]
    x = np.zeros((len(r_values), 3))
    x[:, 0] = r_values
    for t in t_values:
        vals = np.asarray(eval_wavelet(label, x, float(t)))
        for r, v in zip(r_values, vals):
            lines.append(
                f"{r:.17g},{t:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _record(test: str, value, reference, estimate: float, ok: bool, converged: bool = True) -> dict:
    """One check record: it passes only if its check holds and its oracle converged."""
    return {
        "test": test,
        "value": value,
        "oracle": reference,
        "estimate": estimate,
        "converged": bool(converged),
        "pass": bool(ok and converged),
    }


def _suite_kernel(seed: int, tol: float) -> list[dict]:
    from . import oracle
    from .wavelet import eval_kernel

    rng = np.random.default_rng(seed)
    records = []
    for i in range(20):
        s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        sigma = np.sign(s) * rng.uniform(0.5, 2.0)
        r = rng.uniform(0.0, 3.0)
        direction = rng.normal(size=3)
        x = r * direction / np.linalg.norm(direction)
        t = rng.uniform(-2.0, 2.0)
        closed = eval_kernel(x, t, float(sigma), np.zeros(3), float(s))
        orc = oracle.kernel_by_quadrature(x, t, float(sigma), np.zeros(3), float(s))
        rel = abs(closed - complex(orc)) / max(abs(complex(orc)), 1e-300)
        records.append(_record(f"kernel-vs-quadrature[{i}]", _cplx(closed), _cplx(complex(orc)),
                               float(orc.estimate), rel <= tol, orc.converged))
    return records


def _suite_scaling(seed: int, tol: float) -> list[dict]:
    rng = np.random.default_rng(seed)
    records = []
    worst = 0.0
    for _ in range(1000):
        label = WaveletLabel(y=rng.uniform(-2, 2, 3), s=rng.choice([-1, 1]) * rng.uniform(0.2, 3.0))
        x = rng.uniform(-3, 3, 3)
        t = rng.uniform(-2, 2)
        lhs, rhs = scaling_check(label, x, t)
        denom = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / denom)
    records.append(_record("scaling-identity[1000 draws, worst]", worst, 0.0, worst, worst <= tol))
    return records


def _suite_ast(seed: int, tol: float) -> list[dict]:
    from . import oracle
    from .ast import LineSignal, ast_line

    rng = np.random.default_rng(seed)
    records = []
    sig = LineSignal(sampler=lambda tt: np.ones_like(np.asarray(tt, dtype=complex)), decay="constant", limit=1.0)
    v = ast_line(sig, 30.0, 200)
    records.append(
        _record("ast-constant", _cplx(v), _cplx(1.0 + 0j), abs(v - 1.0), abs(v - 1.0) <= tol)
    )
    for i in range(5):
        x = rng.uniform(-1.0, 1.0, 3)
        y = rng.uniform(-0.8, 0.8, 3)
        if np.linalg.norm(y) < 0.3:
            y = y + 0.5
        gauss = lambda pt: np.exp(-0.5 * float(np.sum(np.asarray(pt) ** 2)))

        def sampler(tt, x=x, y=y):
            tt = np.atleast_1d(np.asarray(tt, dtype=float))
            pts = x[None, :] + tt[:, None] * y[None, :]
            return np.exp(-0.5 * np.sum(pts**2, axis=1)).astype(complex)

        T = (np.linalg.norm(x) + 8.0) / np.linalg.norm(y)
        v = ast_line(LineSignal(sampler=sampler, decay="superexponential"), T, max(400, int(24 * T)))
        orc = oracle.ast_by_quadrature(gauss, x, y, kind="decaying")
        rel = abs(v - complex(orc)) / max(abs(complex(orc)), 1e-300)
        records.append(_record(f"ast-gaussian[{i}]", _cplx(v), _cplx(complex(orc)),
                               float(orc.estimate), rel <= tol, orc.converged))
    return records


def _suite_anchor(seed: int, tol: float) -> list[dict]:
    from . import oracle

    target = 3.0 / (8.0 * np.pi**2)

    def amp(om, nn, sheet):
        return np.where(sheet > 0, 2.0 * om**2 * np.exp(-om), 0.0).astype(complex)

    orc = oracle.cone_inner_product(amp, amp)
    value = complex(orc).real
    ok = abs(value - target) / target <= tol
    return [_record("norm-anchor", value, target, float(orc.estimate), ok, orc.converged)]


VERIFY_SUITES = {
    "kernel": (_suite_kernel, 1e-6),
    "scaling": (_suite_scaling, 1e-12),
    "ast": (_suite_ast, 1e-6),
    "anchor": (_suite_anchor, 1e-8),
}


def _cplx(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------


def _profile_gaussian(cfg: dict):
    center, width = cfg["amplitude.center"], cfg["amplitude.width"]
    const = cfg["amplitude.angular.const"]
    cx, cy, cz = (cfg[f"amplitude.angular.{k}"] for k in ("nx", "ny", "nz"))
    wplus, wminus = cfg["amplitude.sheet_weights"]

    def fn(om, nn, sheets):
        radial = np.exp(-0.5 * ((om - center) / width) ** 2)
        angular = const + cx * nn[:, 0] + cy * nn[:, 1] + cz * nn[:, 2]
        sheet_w = np.where(sheets > 0, wplus, wminus)
        return (radial * angular * sheet_w).astype(complex)

    return fn


def _profile_wavelet(cfg: dict):
    s0 = cfg["amplitude.s0"]
    wplus, wminus = cfg["amplitude.sheet_weights"]

    def fn(om, nn, sheets):
        sheet_w = np.where(sheets > 0, wplus, wminus)
        return (2.0 * om**2 * np.exp(-om * s0) * sheet_w).astype(complex)

    return fn


AMPLITUDE_PROFILES = {
    "gaussian": _profile_gaussian,
    "wavelet": _profile_wavelet,
}

_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list of numbers"}


def _is_kind(value, kind) -> bool:
    """JSON type check: ``bool`` is no number, and a number must be finite."""
    if kind is list:
        return isinstance(value, list) and all(_is_kind(v, float) for v in value)
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


# checks: (predicate a well-typed value must meet, reason when it does not)
def _one_of(*choices):
    return lambda v: v in choices, f"expected one of {list(choices)}"


def _at_most(bound):
    # an oversized value is a config error, not a failed allocation later on
    return lambda v: v <= bound, f"must be <= {bound}"


_POSITIVE = (lambda v: v > 0, "must be > 0")
_PAIR = (lambda v: len(v) == 2, "expected 2 numbers")
# the grid builder accepts no cell finer than (L/N)^3 = 5e-324, so lattice
# frequencies stay below 4e108 and |t| <= 1e150 keeps every phase finite
_TIMES = (lambda v: np.all(np.abs(v) <= 1e150), "times must lie in [-1e150, 1e150]")
_PATH = (lambda v: "\0" not in v, "a path holds no NUL character")
_PLAIN_NAME = (lambda v: v not in ("", "..") and "\0" not in v and Path(v).name == v,
               "expected a plain file name (no directory part)")

# defaults: a value, one of these two markers, or a function of the values resolved above it
_REQUIRED = object()  # every scenario gives the key
_FIELD = object()  # every scenario but a verify-suite one gives the key; there it stays None


SCENARIO_KEYS = {
    # path: (kind, default, check)
    "schema": (str, _REQUIRED, _one_of(SCHEMA)),
    "pipeline": (str, _REQUIRED, _one_of(*PIPELINES)),
    "seed": (int, 0, (lambda v: v >= 0, "must be >= 0")),
    "workers": (int, 1, (lambda v: 1 <= v <= 256, "must be <= 256 and >= 1")),  # scipy.fft threads
    "time": (float, 0.0, _TIMES),
    "grids.spatial.N": (int, _FIELD, _at_most(256)),  # N = 256 takes 0.8 GB per scale slice
    "grids.spatial.L": (float, _FIELD, None),
    "grids.scale.omega_band": (list, _FIELD, _PAIR),
    # worst recovery error on [0.5, 4]: 4.7e-4 at 24 nodes, 5.5e-7 at 48, 1.3e-7 at 64, and past ~100
    # nodes the truncation floor of the fixed extent 8 / omega_min, ~1.1e-7 (meta["recovery_bound"])
    "grids.scale.nodes_per_sign": (int, 24, _at_most(1024)),
    "grids.scale.signs": (str, "both", None),
    "grids.cone.omega_min": (float, lambda v: (v["grids.scale.omega_band"] or [None, None])[0], None),
    "grids.cone.omega_max": (float, lambda v: (v["grids.scale.omega_band"] or [None, None])[1], None),
    "grids.cone.sheets": (str, "both", None),
    "amplitude.profile": (str, _FIELD, _one_of(*AMPLITUDE_PROFILES)),
    "amplitude.center": (float, 2.0, None),
    "amplitude.width": (float, 0.4, _POSITIVE),
    "amplitude.angular.const": (float, 1.0, None),
    "amplitude.angular.nx": (float, 0.0, None),
    "amplitude.angular.ny": (float, 0.0, None),
    "amplitude.angular.nz": (float, 0.0, None),
    "amplitude.sheet_weights": (
        list, lambda v: [1.0, 0.0] if v["amplitude.profile"] == "wavelet" else [1.0, 1.0], _PAIR),
    "amplitude.s0": (float, 1.0, _POSITIVE),
    # each probe adds three length-N complex phase rows: 1.5 GB for 10^6 probes at N = 32
    "probes.count": (int, 50, (lambda v: 1 <= v <= 10**6, "must be in [1, 1000000]")),
    "probes.box_fraction": (float, 0.35, (lambda v: 0 < v <= 1, "must be in (0, 1]")),
    "probes.times": (list, [0.0, 1.0], _TIMES),
    "coefficients": (str, None, _PATH),
    "norms.nonlocal": (bool, False, None),
    "tolerances.parseval": (float, 1e-2, _POSITIVE),
    "tolerances.round_trip": (float, 1e-2, _POSITIVE),
    "tolerances.nonlocal": (float, 5e-2, _POSITIVE),
    **{f"tolerances.{name}": (float, tol, _POSITIVE) for name, (_, tol) in VERIFY_SUITES.items()},
    "verify.suite": (str, "kernel", _one_of(*VERIFY_SUITES, "all")),
    "outputs.directory": (str, ".", _PATH),
    "outputs.csv": (str, "reconstruction.csv", _PLAIN_NAME),
    "outputs.report": (
        str, lambda v: {"norms": "norms.json", "verify-suite": "verify.json"}.get(v["pipeline"], "report.json"),
        _PLAIN_NAME),
    "outputs.coefficients": (str, "coefficients", _PLAIN_NAME),
}
_LEAVES = {tuple(path.split(".")) for path in SCENARIO_KEYS}
_OBJECTS = {leaf[:i] for leaf in _LEAVES for i in range(1, len(leaf))}


def _lookup(cfg: dict, path: str):
    """Value at the dotted ``path``; None when it (or an object on the way) is absent or null."""
    node, parts = cfg, path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, (dict, type(None))):
            _fail(".".join(parts[:i]), f"expected an object, got {node!r}")
        node = None if node is None else node.get(part)
    return node


def _reject_unknown_keys(node: dict, prefix: tuple = ()) -> None:
    for key, value in node.items():
        path = prefix + (key,)
        if path not in _LEAVES and path not in _OBJECTS:
            _fail(".".join(path), "unknown key")
        if isinstance(value, dict):
            _reject_unknown_keys(value, path)


def _resolve(cfg: dict) -> dict:
    """Every key of ``SCENARIO_KEYS`` at its checked value or its default.

    The first missing, mistyped, out-of-range or unknown key is a config
    error naming its path; numbers come back as ``float``.
    """
    values = {}
    for path, (kind, default, check) in SCENARIO_KEYS.items():
        value = _lookup(cfg, path)
        if value is None:
            if default is _REQUIRED or default is _FIELD and values["pipeline"] != "verify-suite":
                _fail(path, "missing required field")
            value = None if default is _FIELD else default(values) if callable(default) else default
        elif not _is_kind(value, kind):
            _fail(path, f"expected {_KINDS[kind]}, got {value!r}")
        else:
            value = [float(v) for v in value] if kind is list else kind(value)
            if check and not check[0](value):
                _fail(path, f"{check[1]}, got {value!r}")
        values[path] = value
    # the nonlocal double sum has a size bound of its own
    budget, n = transform._NONLOCAL_BUDGET, values["grids.spatial.N"]
    if values["pipeline"] == "norms" and values["norms.nonlocal"] and n**3 > budget:
        _fail("norms.nonlocal", f"needs grids.spatial.N^3 <= {budget} points per factor, got N = {n}")
    _reject_unknown_keys(cfg)
    return values


def load_scenario(path) -> dict:
    """The scenario at ``path`` as a flat ``{dotted key: value}`` dict over ``SCENARIO_KEYS``.

    Every type, range and unknown-key error is raised here, before any grid
    is built or file written.
    """
    p = Path(path)
    if not p.exists():
        _fail(str(path), "scenario file not found")
    try:
        cfg = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        _fail(str(path), f"not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail(str(path), "scenario must be a JSON object")
    return _resolve(cfg)


def _build_grids(cfg: dict):
    try:
        ygrid = grids.build_spatial_grid(cfg["grids.spatial.N"], cfg["grids.spatial.L"])
    except EmwaveError as exc:
        _fail("grids.spatial", str(exc))
    try:
        sgrid = grids.build_scale_grid(
            tuple(cfg["grids.scale.omega_band"]), cfg["grids.scale.nodes_per_sign"], cfg["grids.scale.signs"])
    except EmwaveError as exc:
        _fail("grids.scale", str(exc))
    try:
        cone = grids.build_cartesian_cone_grid(
            ygrid, cfg["grids.cone.omega_min"], cfg["grids.cone.omega_max"], sheets=cfg["grids.cone.sheets"])
    except EmwaveError as exc:
        _fail("grids.cone", str(exc))
    return ygrid, sgrid, cone


def _build_amplitude(cfg: dict, cone) -> fieldcore.ConeAmplitude:
    # an overflow leaves an infinite amplitude or norm, rejected here
    with np.errstate(over="ignore"):
        try:
            amp = fieldcore.amplitude_from_scalar(cone, AMPLITUDE_PROFILES[cfg["amplitude.profile"]](cfg))
        except EmwaveError as exc:
            _fail("amplitude", str(exc))
        norm = transform.norm_momentum(amp)
    if not np.isfinite(norm):
        _fail("amplitude", f"the field's squared momentum norm is {norm}; it must be finite")
    return amp


def _draw_probes(cfg: dict, ygrid) -> np.ndarray:
    frac = cfg["probes.box_fraction"]
    L = ygrid.meta["args"]["L"]
    rng = np.random.default_rng(cfg["seed"])
    return rng.uniform(-frac * L / 2.0, frac * L / 2.0, size=(cfg["probes.count"], 3))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _out_dir(cfg: dict, base: Path) -> Path:
    d = Path(cfg["outputs.directory"])
    return d if d.is_absolute() else base / d


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _pipeline_analyze(cfg: dict, base: Path) -> tuple[int, list[Path]]:
    ygrid, sgrid, cone = _build_grids(cfg)
    amp = _build_amplitude(cfg, cone)
    coeffs = transform.analyze(amp, ygrid, sgrid, t=cfg["time"])
    name = cfg["outputs.coefficients"]
    manifest = transform.save_coefficients(coeffs, _out_dir(cfg, base), name=name)
    return 0, [manifest, manifest.parent / f"{name}.bin"]


def _pipeline_reconstruct(cfg: dict, base: Path) -> tuple[int, list[Path]]:
    coeffs_path = cfg["coefficients"]
    ygrid, sgrid, cone = _build_grids(cfg)
    amp = _build_amplitude(cfg, cone)
    if coeffs_path is not None:
        cpath = Path(coeffs_path)
        coeffs = transform.load_coefficients(cpath if cpath.is_absolute() else base / cpath)
        # slice by slice, so no payload-sized mask is held; one NaN would
        # reach every probe through the sheet sums
        if not all(np.isfinite(c).all() for c in coeffs.values):
            _fail("coefficients", f"payload of {coeffs_path} holds a non-finite sample")
    else:
        coeffs = transform.analyze(amp, ygrid, sgrid, t=cfg["time"])
    probes = _draw_probes(cfg, ygrid)
    tol = cfg["tolerances.round_trip"]
    rows = ["x,y,z,t,re_x,im_x,re_y,im_y,re_z,im_z"]
    checks = []
    for t in cfg["probes.times"]:
        rec = transform.synthesize_many(coeffs, probes, t)
        ref = fieldcore._evaluate_many(amp, probes, t)
        ref_norm = np.linalg.norm(ref)
        if ref_norm == 0.0:
            _fail("amplitude", f"the reference field is zero at every probe at t={t:g}; the round-trip error is undefined")
        rel = float(np.linalg.norm(rec - ref) / ref_norm)
        checks.append(_record(f"round-trip-t={t:g}", rel, 0.0, rel, rel <= tol))
        for p, v in zip(probes, rec):
            nums = [p[0], p[1], p[2], t, v[0].real, v[0].imag, v[1].real, v[1].imag, v[2].real, v[2].imag]
            rows.append(",".join(f"{u:.17g}" for u in nums))
    outdir = _out_dir(cfg, base)
    csv_path = outdir / cfg["outputs.csv"]
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text("\n".join(rows) + "\n")
    report_path = outdir / cfg["outputs.report"]
    _write_json(report_path, {"checks": checks, "tolerance": tol})
    status = 0 if all(c["pass"] for c in checks) else 1
    return status, [csv_path, report_path]


def _pipeline_norms(cfg: dict, base: Path) -> tuple[int, list[Path]]:
    ygrid, sgrid, cone = _build_grids(cfg)
    amp = _build_amplitude(cfg, cone)
    coeffs = transform.analyze(amp, ygrid, sgrid, t=cfg["time"])
    nonlocal_grid = ygrid if cfg["norms.nonlocal"] else None
    report = transform.norm_report(amp, coeffs, nonlocal_grid=nonlocal_grid)
    tol = cfg["tolerances.parseval"]
    gap = report.gap_euclidean
    checks = [_record("parseval-gap", gap, 0.0, gap, gap <= tol)]
    if report.nonlocal_t0 is not None:
        nl_tol = cfg["tolerances.nonlocal"]
        gap = report.gap_nonlocal
        checks.append(_record("nonlocal-gap", gap, 0.0, gap, gap <= nl_tol))
    payload = {
        "momentum_norm_sq": report.momentum,
        "euclidean_norm_sq": report.euclidean,
        "nonlocal_t0_norm_sq": report.nonlocal_t0,
        "gap_euclidean": report.gap_euclidean,
        "gap_nonlocal": report.gap_nonlocal,
        "nonlocal_imag_ratio": report.nonlocal_imag_ratio,
        "checks": checks,
    }
    report_path = _out_dir(cfg, base) / cfg["outputs.report"]
    _write_json(report_path, payload)
    return (0 if all(c["pass"] for c in checks) else 1), [report_path]


def _pipeline_verify(cfg: dict, base: Path) -> tuple[int, list[Path]]:
    return _run_verify(cfg, _out_dir(cfg, base) / cfg["outputs.report"])


def _run_verify(cfg: dict, out_path: Path) -> tuple[int, list[Path]]:
    name, seed = cfg["verify.suite"], cfg["seed"]
    records = []
    for n in list(VERIFY_SUITES) if name == "all" else [name]:
        records.extend(VERIFY_SUITES[n][0](seed, cfg[f"tolerances.{n}"]))
    _write_json(out_path, {"suite": name, "seed": seed, "records": records})
    n_fail = sum(not r["pass"] for r in records)
    for r in records:
        status = "pass" if r["pass"] else "FAIL"
        print(f"[{status}] {r['test']}: value={r['value']} oracle={r['oracle']} estimate={r['estimate']:.3e} converged={r['converged']}")
    return (0 if n_fail == 0 else 1), [out_path]


PIPELINE_RUNNERS = {
    "analyze": _pipeline_analyze,
    "reconstruct": _pipeline_reconstruct,
    "norms": _pipeline_norms,
    "verify-suite": _pipeline_verify,
}


def run(config_path, workers: int | None = None) -> int:
    """Execute a scenario config with ``workers`` (else the scenario's) FFT threads; returns the exit status."""
    t_start = time.time()
    cfg = load_scenario(config_path)
    base = Path(config_path).resolve().parent
    workers = cfg["workers"] if workers is None else workers
    pipeline = cfg["pipeline"]
    with scipy.fft.set_workers(workers):
        status, outputs = PIPELINE_RUNNERS[pipeline](cfg, base)
    manifest = {
        "config_path": str(Path(config_path).resolve()),
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "pipeline": pipeline,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "scipy_version": scipy.__version__,
        "conventions": CONVENTIONS,
        "workers": workers,
        "outputs": [str(p) for p in outputs],
        "exit_status": status,
        "timings_s": {"total": time.time() - t_start},
    }
    _write_json(_out_dir(cfg, base) / "run_manifest.json", manifest)
    return status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_scenario_arg(sub):
    sub.add_argument("--scenario", required=True, help="path to a scenario JSON config")
    sub.add_argument("--workers", type=int, default=None,
                     help="scipy.fft worker count, 1 to 256 (default: the scenario's workers key, else 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emwave", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    w = subs.add_parser("wavelet", help="emit radial wavelet slice data as CSV")
    w.add_argument("--s", type=float, required=True, help="wavelet scale (nonzero)")
    w.add_argument("--r", required=True, help="radius range start:stop:step")
    w.add_argument("--t", required=True, help="time range start:stop:step")
    w.add_argument("--out", required=True, help="output CSV path")

    for name in ("analyze", "reconstruct", "norms"):
        _add_scenario_arg(subs.add_parser(name, help=f"run a {name} scenario"))

    v = subs.add_parser("verify", help="run oracle verification suites")
    v.add_argument("--scenario", help="scenario JSON with pipeline 'verify-suite'")
    v.add_argument("--suite", default="kernel", help=f"suite name: {sorted(VERIFY_SUITES)} or 'all'")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="verify.json", help="output JSON report path")
    return parser


def _merge_flag_values(argv: list[str]) -> list[str]:
    # let range/scale values that start with '-' (e.g. --t -5:5:0.1) parse
    # as values rather than flags by gluing them to their option
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--s", "--r", "--t") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_merge_flag_values(argv))
    try:
        if args.command == "wavelet":
            r_values = _parse_range(args.r, "--r")
            t_values = _parse_range(args.t, "--t")
            # one CSV row per (r, t) pair, checked before any row is built
            if len(r_values) * len(t_values) > 10**6:
                _fail("--r x --t", f"{len(r_values)} x {len(t_values)} rows exceed 1000000")
            if args.s == 0.0:
                _fail("--s", "scale must be nonzero")
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(emit_figure_data(args.s, r_values, t_values))
            return 0
        if args.command == "verify" and args.scenario is None:
            cfg = _resolve({"schema": SCHEMA, "pipeline": "verify-suite", "seed": args.seed,
                            "verify": {"suite": args.suite}})
            status, _ = _run_verify(cfg, Path(args.out))
            return status
        expected = {"analyze": "analyze", "reconstruct": "reconstruct", "norms": "norms", "verify": "verify-suite"}[args.command]
        cfg = load_scenario(args.scenario)
        if cfg["pipeline"] != expected:
            _fail("pipeline", f"subcommand {args.command!r} needs pipeline {expected!r}, got {cfg['pipeline']!r}")
        workers = getattr(args, "workers", None)
        check, reason = SCENARIO_KEYS["workers"][2]
        if workers is not None and not check(workers):
            _fail("--workers", f"{reason}, got {workers}")
        return run(args.scenario, workers=workers)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (EmwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
