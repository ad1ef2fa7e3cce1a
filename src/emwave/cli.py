"""Scenario runner: builds grids and amplitudes from JSON configs, runs the
analysis/synthesis/norm/verification pipelines, and writes CSV/JSON artifacts.

This module owns all I/O; the compute modules never read or write files.
Outputs are deterministic for a fixed config and seed regardless of the
FFT worker count (set via ``--workers``, the scenario, or the
``EMWAVE_THREADS`` environment variable).  Every run writes a manifest
recording the config hash, library versions, the physical conventions baked
into the package, the resolved worker count and timings; the worker count
and timings vary between runs, so the manifest is informational rather than
part of the reproducible output set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

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


# ---------------------------------------------------------------------------
# scenario loading and validation
# ---------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ConfigError(path, message)


_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", list: "a list", dict: "an object"}


def _is_kind(value, kind) -> bool:
    """JSON type check: ``bool`` is no number, and a number must be finite."""
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _get(cfg: dict, path: str, default=None, kind=None, required: bool = False):
    """Value at the dotted ``path``, or ``default`` when it is absent or null.

    A value that is not of ``kind`` (a key of ``_KINDS``) is a config error
    naming ``path``; numbers come back as ``float`` when ``kind`` is float.
    """
    parts = path.split(".")
    node = cfg
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            _fail(".".join(parts[:i]), f"expected an object, got {node!r}")
        node = node.get(part)
        if node is None:
            if required:
                _fail(".".join(parts[: i + 1]), "missing required field")
            return default
    if kind is not None and not _is_kind(node, kind):
        _fail(path, f"expected {_KINDS[kind]}, got {node!r}")
    return float(node) if kind is float else node


def _numbers(cfg: dict, path: str, default=None, length: int | None = None) -> list[float]:
    """A list of numbers at ``path`` (of ``length`` if given); required when there is no default."""
    values = _get(cfg, path, default, list, required=default is None)
    if length not in (None, len(values)) or not all(_is_kind(v, float) for v in values):
        _fail(path, f"expected a list of {length or 'any count of'} numbers, got {values!r}")
    return [float(v) for v in values]


def load_scenario(path) -> dict:
    p = Path(path)
    if not p.exists():
        _fail(str(path), "scenario file not found")
    try:
        cfg = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        _fail(str(path), f"not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail(str(path), "scenario must be a JSON object")
    if cfg.get("schema") != SCHEMA:
        _fail("schema", f"expected {SCHEMA!r}, got {cfg.get('schema')!r}")
    pipeline = _get(cfg, "pipeline", kind=str, required=True)
    if pipeline not in PIPELINES:
        _fail("pipeline", f"unknown pipeline {pipeline!r}; expected one of {PIPELINES}")
    for key, tol in _get(cfg, "tolerances", {}, dict).items():
        if not _is_kind(tol, float) or tol <= 0:
            _fail(f"tolerances.{key}", f"tolerance must be > 0, got {tol!r}")
    if _get(cfg, "seed", 0, int) < 0:
        _fail("seed", "seed must be >= 0")
    return cfg


def _build_grids(cfg: dict):
    # every value is read (and type-checked) before the builders run, so a
    # type error is reported once, at its own path
    N = _get(cfg, "grids.spatial.N", kind=int, required=True)
    L = _get(cfg, "grids.spatial.L", kind=float, required=True)
    band = _numbers(cfg, "grids.scale.omega_band", length=2)
    nodes = _get(cfg, "grids.scale.nodes_per_sign", 24, int)
    signs = _get(cfg, "grids.scale.signs", "both", str)
    lo = _get(cfg, "grids.cone.omega_min", band[0], float)
    hi = _get(cfg, "grids.cone.omega_max", band[1], float)
    sheets = _get(cfg, "grids.cone.sheets", "both", str)
    try:
        ygrid = grids.build_spatial_grid(N, L)
    except EmwaveError as exc:
        _fail("grids.spatial", str(exc))
    try:
        sgrid = grids.build_scale_grid(tuple(band), nodes, signs)
    except EmwaveError as exc:
        _fail("grids.scale", str(exc))
    try:
        cone = grids.build_cartesian_cone_grid(ygrid, lo, hi, sheets=sheets)
    except EmwaveError as exc:
        _fail("grids.cone", str(exc))
    return ygrid, sgrid, cone


def _profile_gaussian(cfg: dict, where: str):
    center = _get(cfg, f"{where}.center", 2.0, float)
    width = _get(cfg, f"{where}.width", 0.4, float)
    if width <= 0:
        _fail(f"{where}.width", "width must be positive")
    const = _get(cfg, f"{where}.angular.const", 1.0, float)
    cx, cy, cz = (_get(cfg, f"{where}.angular.{k}", 0.0, float) for k in ("nx", "ny", "nz"))
    wplus, wminus = _numbers(cfg, f"{where}.sheet_weights", [1.0, 1.0], 2)

    def fn(om, nn, sheets):
        radial = np.exp(-0.5 * ((om - center) / width) ** 2)
        angular = const + cx * nn[:, 0] + cy * nn[:, 1] + cz * nn[:, 2]
        sheet_w = np.where(sheets > 0, wplus, wminus)
        return (radial * angular * sheet_w).astype(complex)

    return fn


def _profile_wavelet(cfg: dict, where: str):
    s0 = _get(cfg, f"{where}.s0", 1.0, float)
    if s0 <= 0:
        _fail(f"{where}.s0", "s0 must be positive")
    wplus, wminus = _numbers(cfg, f"{where}.sheet_weights", [1.0, 0.0], 2)

    def fn(om, nn, sheets):
        sheet_w = np.where(sheets > 0, wplus, wminus)
        return (2.0 * om**2 * np.exp(-om * s0) * sheet_w).astype(complex)

    return fn


AMPLITUDE_PROFILES = {
    "gaussian": _profile_gaussian,
    "wavelet": _profile_wavelet,
}


def _build_amplitude(cfg: dict, cone) -> fieldcore.ConeAmplitude:
    _get(cfg, "amplitude", kind=dict, required=True)
    name = _get(cfg, "amplitude.profile", kind=str)
    if name not in AMPLITUDE_PROFILES:
        _fail(
            "amplitude.profile",
            f"unknown profile {name!r}; registry has {sorted(AMPLITUDE_PROFILES)}",
        )
    fn = AMPLITUDE_PROFILES[name](cfg, "amplitude")
    return fieldcore.amplitude_from_scalar(cone, fn)


def _draw_probes(cfg: dict, ygrid) -> tuple[np.ndarray, list[float]]:
    seed = _get(cfg, "seed", 0, int)
    count = _get(cfg, "probes.count", 50, int)
    if count < 1:
        _fail("probes.count", f"need at least one probe, got {count}")
    frac = _get(cfg, "probes.box_fraction", 0.35, float)
    if frac <= 0:
        _fail("probes.box_fraction", f"box fraction must be positive, got {frac}")
    times = _numbers(cfg, "probes.times", [0.0, 1.0])
    L = ygrid.meta["args"]["L"]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-frac * L / 2.0, frac * L / 2.0, size=(count, 3))
    return pts, times


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def _parse_range(text: str, where: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        _fail(where, f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        _fail(where, f"non-numeric range component in {text!r}")
    if step <= 0 or stop < start:
        _fail(where, f"need stop >= start and step > 0, got {text!r}")
    n = int(np.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(n)


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
# pipelines
# ---------------------------------------------------------------------------


def _out_dir(cfg: dict, base: Path) -> Path:
    d = Path(_get(cfg, "outputs.directory", ".", str))
    return d if d.is_absolute() else base / d


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _pipeline_analyze(cfg: dict, base: Path, workers) -> tuple[int, list[Path]]:
    ygrid, sgrid, cone = _build_grids(cfg)
    amp = _build_amplitude(cfg, cone)
    t = _get(cfg, "time", 0.0, float)
    coeffs = transform.analyze(amp, ygrid, sgrid, t=t, workers=workers)
    name = _get(cfg, "outputs.coefficients", "coefficients", str)
    manifest = transform.save_coefficients(coeffs, _out_dir(cfg, base), name=name)
    return 0, [manifest, manifest.parent / f"{name}.bin"]


def _pipeline_reconstruct(cfg: dict, base: Path, workers) -> tuple[int, list[Path]]:
    coeffs_path = _get(cfg, "coefficients", kind=str)
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
        coeffs = transform.analyze(amp, ygrid, sgrid, t=_get(cfg, "time", 0.0, float), workers=workers)
    probes, times = _draw_probes(cfg, ygrid)
    tol = _get(cfg, "tolerances.round_trip", 1e-2, float)
    rows = ["x,y,z,t,re_x,im_x,re_y,im_y,re_z,im_z"]
    checks = []
    for t in times:
        rec = transform.synthesize_many(coeffs, probes, t, workers=workers)
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
    csv_path = outdir / _get(cfg, "outputs.csv", "reconstruction.csv", str)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text("\n".join(rows) + "\n")
    report_path = outdir / _get(cfg, "outputs.report", "report.json", str)
    _write_json(report_path, {"checks": checks, "tolerance": tol})
    status = 0 if all(c["pass"] for c in checks) else 1
    return status, [csv_path, report_path]


def _pipeline_norms(cfg: dict, base: Path, workers) -> tuple[int, list[Path]]:
    ygrid, sgrid, cone = _build_grids(cfg)
    amp = _build_amplitude(cfg, cone)
    coeffs = transform.analyze(amp, ygrid, sgrid, t=_get(cfg, "time", 0.0, float), workers=workers)
    nonlocal_grid = None
    if _get(cfg, "norms.nonlocal", False, bool):
        nonlocal_grid = ygrid
    report = transform.norm_report(amp, coeffs, nonlocal_grid=nonlocal_grid)
    tol = _get(cfg, "tolerances.parseval", 1e-2, float)
    gap = report.gap_euclidean
    checks = [_record("parseval-gap", gap, 0.0, gap, gap <= tol)]
    if report.nonlocal_t0 is not None:
        nl_tol = _get(cfg, "tolerances.nonlocal", 5e-2, float)
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
    report_path = _out_dir(cfg, base) / _get(cfg, "outputs.report", "norms.json", str)
    _write_json(report_path, payload)
    return (0 if all(c["pass"] for c in checks) else 1), [report_path]


def _pipeline_verify(cfg: dict, base: Path, workers) -> tuple[int, list[Path]]:
    name = _get(cfg, "verify.suite", "kernel", str)
    seed = _get(cfg, "seed", 0, int)
    out_path = _out_dir(cfg, base) / _get(cfg, "outputs.report", "verify.json", str)
    return _run_verify(name, seed, _get(cfg, "tolerances", {}), out_path)


def _run_verify(name: str, seed: int, tolerances: dict, out_path: Path) -> tuple[int, list[Path]]:
    if name == "all":
        names = list(VERIFY_SUITES)
    elif name in VERIFY_SUITES:
        names = [name]
    else:
        _fail("verify.suite", f"unknown suite {name!r}; expected one of {sorted(VERIFY_SUITES)} or 'all'")
    records = []
    for n in names:
        fn, default_tol = VERIFY_SUITES[n]
        tol = float(tolerances.get(n, default_tol))
        records.extend(fn(seed, tol))
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
    """Execute a scenario config; returns the process exit status."""
    t_start = time.time()
    cfg = load_scenario(config_path)
    base = Path(config_path).resolve().parent
    if workers is None:
        workers = _get(cfg, "workers", kind=int)
    workers = transform._fft_workers(workers)
    pipeline = cfg["pipeline"]
    status, outputs = PIPELINE_RUNNERS[pipeline](cfg, base, workers)
    manifest = {
        "config_path": str(Path(config_path).resolve()),
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "pipeline": pipeline,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "conventions": CONVENTIONS,
        "workers": workers,
        "outputs": [str(p) for p in outputs],
        "exit_status": status,
        "timings_s": {"total": time.time() - t_start},
    }
    try:
        import scipy

        manifest["scipy_version"] = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        pass
    _write_json(_out_dir(cfg, base) / "run_manifest.json", manifest)
    return status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_scenario_arg(sub):
    sub.add_argument("--scenario", required=True, help="path to a scenario JSON config")
    sub.add_argument("--workers", type=int, default=None, help="FFT worker count (default: EMWAVE_THREADS or 1)")


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
            if args.s == 0.0:
                _fail("--s", "scale must be nonzero")
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(emit_figure_data(args.s, r_values, t_values))
            return 0
        if args.command == "verify" and args.scenario is None:
            status, _ = _run_verify(args.suite, args.seed, {}, Path(args.out))
            return status
        expected = {"analyze": "analyze", "reconstruct": "reconstruct", "norms": "norms", "verify": "verify-suite"}[args.command]
        cfg = load_scenario(args.scenario)
        if cfg["pipeline"] != expected:
            _fail("pipeline", f"subcommand {args.command!r} needs pipeline {expected!r}, got {cfg['pipeline']!r}")
        return run(args.scenario, workers=getattr(args, "workers", None))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (EmwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
