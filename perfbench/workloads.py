"""The benchmark's workloads: inputs drawn from a seed, one op, its checks.

Each workload is a closed loop with one client: `run.py` calls `op` again
only after the previous op has returned.  An op times its calls into the
package and then checks the results against a reference; the checks run
after the timed part.  `op` returns an `Outcome`; a failed check sets
``failure`` instead of raising.

Amplitude centre and width are drawn from narrow ranges inside the band
[0.5, 4] so that the physics errors, and with them ``max_rel_err``, are
comparable from seed to seed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BAND = (0.5, 4.0)
TOL = 1e-2  # the package's own round-trip and Parseval tolerance
WRONG_SCALE = 1.5  # how far --wrong-reference moves each reference


@dataclass
class Outcome:
    seconds: float
    cpu_s: float
    errors: dict = field(default_factory=dict)  # check name -> relative error
    failure: str | None = None
    written_bytes: int = 0


def _draw_gaussian(rng) -> tuple[float, float]:
    return float(rng.uniform(1.95, 2.15)), float(rng.uniform(0.43, 0.47))


def _gaussian(center: float, width: float):
    """The CLI's gaussian profile with angular {const: 1, nz: 0.25} and
    sheet weights [1, 0.6], as a callable for `amplitude_from_scalar`."""

    def fn(om, nn, sheets):
        radial = np.exp(-0.5 * ((om - center) / width) ** 2)
        return (radial * (1.0 + 0.25 * nn[:, 2]) * np.where(sheets > 0, 1.0, 0.6)).astype(complex)

    return fn


def _rel(value, reference) -> float:
    return float(np.linalg.norm(np.asarray(value) - reference) / np.linalg.norm(reference))


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _first_failure(errors: dict, tol: float) -> str | None:
    bad = [f"{name} {err:.3e} > {tol:g}" for name, err in errors.items() if not err <= tol]
    return "; ".join(bad) or None


class _InProcess:
    """Ops run in the benchmark's own process; peak RSS is this process's."""

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _build_inputs(self):
        from emwave import cli  # noqa: F401  (the whole package, as a CLI user imports it)
        from emwave import fieldcore, grids

        self.ygrid = grids.build_spatial_grid(self.N, self.L)
        self.sgrid = grids.build_scale_grid(BAND, self.nodes)
        cone = grids.build_cartesian_cone_grid(self.ygrid, *BAND)
        self.amp = fieldcore.amplitude_from_scalar(cone, _gaussian(self.center, self.width))


class AnalyzeStore(_InProcess):
    """Big-array path: analyze, Parseval norms, save and reload 576 MiB."""

    name = "analyze-store-n64"

    def __init__(self, seed: int, smoke: bool, wrong_reference: bool, workdir: Path):
        self.N, self.L = (8, 5.0) if smoke else (64, 20.0)
        self.nodes = 24  # fewer scale nodes miss the 1e-2 tolerance
        self.workers = min(2, os.cpu_count() or 1)
        self.center, self.width = _draw_gaussian(np.random.default_rng(seed))
        self.ref_scale = WRONG_SCALE if wrong_reference else 1.0
        self.workdir = workdir

    def setup(self) -> None:
        self._build_inputs()

    def op(self, tracer) -> Outcome:
        from emwave import transform

        cpu0, t0 = _cpu_self(), time.monotonic()
        coeffs = transform.analyze(self.amp, self.ygrid, self.sgrid, workers=self.workers)
        momentum = transform.norm_momentum(self.amp)
        euclidean = transform.norm_euclidean(coeffs)
        manifest = transform.save_coefficients(coeffs, self.workdir / "coeffs", name="c")
        loaded = transform.load_coefficients(manifest)
        seconds, cpu = time.monotonic() - t0, _cpu_self() - cpu0

        reference = momentum * self.ref_scale
        errors = {"parseval-gap": abs(euclidean - reference) / reference}
        same_bits = np.array_equal(loaded.values.view(np.uint64), coeffs.values.view(np.uint64))
        del coeffs, loaded
        shutil.rmtree(self.workdir / "coeffs")
        failure = _first_failure(errors, TOL)
        if not same_bits:
            failure = "loaded coefficients are not bit-equal to the saved ones"
        return Outcome(seconds, cpu, errors, failure)


class SynthWarm(_InProcess):
    """Repeated synthesis from one long-lived coefficient set."""

    name = "synth-warm-n32"

    def __init__(self, seed: int, smoke: bool, wrong_reference: bool, workdir: Path):
        if smoke:
            self.N, self.L, self.probes, self.points = 8, 5.0, 20, 2
        else:
            self.N, self.L, self.probes, self.points = 32, 20.0, 200, 8
        self.nodes = 24
        self.workers = int(os.environ.get("EMWAVE_THREADS", "1"))
        self.rng = np.random.default_rng(seed)
        self.center, self.width = _draw_gaussian(self.rng)
        self.ref_scale = WRONG_SCALE if wrong_reference else 1.0

    def setup(self) -> None:
        from emwave import transform

        self._build_inputs()
        self.coeffs = transform.analyze(self.amp, self.ygrid, self.sgrid)

    def op(self, tracer) -> Outcome:
        from emwave import fieldcore, transform
        from emwave.fieldcore import SpacetimePoint

        half = 0.35 * self.L / 2.0  # the CLI's default probe box
        near = 0.075 * self.L  # single points where the field is strong
        probes = self.rng.uniform(-half, half, size=(self.probes, 3))
        points = self.rng.uniform(-near, near, size=(self.points, 3))
        times = self.rng.uniform(0.0, 1.0, size=self.points)
        sigmas = self.rng.uniform(0.3, 1.0, size=4) * np.array([1.0, -1.0, 1.0, -1.0])
        cplx = self.rng.uniform(-near, near, size=(4, 3))
        amp, coeffs = self.amp, self.coeffs

        cpu0, t0 = _cpu_self(), time.monotonic()
        many = {t: transform.synthesize_many(coeffs, probes, t) for t in (0.0, 1.0)}
        single = [transform.synthesize(coeffs, x, t).F for x, t in zip(points, times)]
        repro = [transform.reproduce_complex_time(coeffs, x, 0.5, s).F for x, s in zip(cplx, sigmas)]
        seconds, cpu = time.monotonic() - t0, _cpu_self() - cpu0

        # the dense references: fieldcore, which synthesis never calls
        dense = {t: fieldcore._evaluate_many(amp, probes, t) for t in (0.0, 1.0)}
        single_ref = [fieldcore.evaluate_field(amp, SpacetimePoint(x, t)).F for x, t in zip(points, times)]
        repro_ref = [
            fieldcore.evaluate_field(amp, SpacetimePoint(x, 0.5), s=s).F for x, s in zip(cplx, sigmas)
        ]

        # relative L2 error over each set of points, as the CLI's round-trip check
        k = self.ref_scale
        errors = {f"synthesize_many-t={t:g}": _rel(many[t], k * dense[t]) for t in many}
        errors["synthesize"] = _rel(single, k * np.array(single_ref))
        errors["reproduce_complex_time"] = _rel(repro, k * np.array(repro_ref))
        return Outcome(seconds, cpu, errors, _first_failure(errors, TOL))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CliRoundTrip:
    """Four `emwave` commands per op, each a fresh child process."""

    name = "cli-roundtrip"
    workers = 1  # the scenarios' "workers" key

    def __init__(self, seed: int, smoke: bool, wrong_reference: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.center, self.width = _draw_gaussian(rng)
        self.s0 = float(rng.uniform(2.6, 3.0))
        self.verify_seed = int(rng.integers(0, 2**31 - 1))
        self.N, self.L, self.probes = (8, 5.0, 10) if smoke else (32, 20.0, 100)
        self.nodes = 24
        self.norms_N = 16  # the nonlocal norm misses its 5e-2 tolerance at N=8
        self.wrong_reference = wrong_reference
        self.workdir = workdir
        self.peak_kib = 0

    def peak_rss_mib(self) -> float:
        return self.peak_kib / 1024.0

    def _scenario(self, pipeline: str, N: int, L: float, band=BAND, sheets="both", **extra) -> dict:
        return {
            "schema": "emwave-scenario/1",
            "pipeline": pipeline,
            "seed": self.verify_seed,
            "workers": self.workers,
            "grids": {
                "spatial": {"N": N, "L": L},
                "scale": {"omega_band": list(band), "nodes_per_sign": self.nodes},
                "cone": {"sheets": sheets},
            },
            **extra,
        }

    def setup(self) -> None:
        from emwave import cli

        out = self.workdir / "op"
        width = self.width * (WRONG_SCALE if self.wrong_reference else 1.0)
        gaussian = {
            "profile": "gaussian",
            "center": self.center,
            "width": self.width,
            "angular": {"const": 1.0, "nz": 0.25},
            "sheet_weights": [1.0, 0.6],
        }
        scenarios = {
            "analyze": self._scenario(
                "analyze", self.N, self.L, amplitude=gaussian,
                outputs={"directory": str(out / "analyze"), "coefficients": "c"},
            ),
            "reconstruct": self._scenario(
                "reconstruct", self.N, self.L, amplitude=dict(gaussian, width=width),
                coefficients=str(out / "analyze" / "c.json"),
                probes={"count": self.probes, "box_fraction": 0.35, "times": [0.0, 1.0]},
                outputs={"directory": str(out / "reconstruct")},
            ),
            # the package's nonlocal-norm reference configuration (test
            # criterion 9), with the wavelet profile's s0 drawn near 3
            "norms": self._scenario(
                "norms", self.norms_N, 10.0, band=(0.3, 2.5), sheets="plus",
                amplitude={"profile": "wavelet", "s0": self.s0, "sheet_weights": [1.0, 0.0]},
                norms={"nonlocal": True},
                outputs={"directory": str(out / "norms")},
            ),
        }
        self.scenarios = {}
        for name, cfg in scenarios.items():
            path = self.workdir / "scenarios" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg, indent=2))
            cli.load_scenario(path)
            self.scenarios[name] = path

    def _commands(self, out: Path) -> list[tuple[str, list[str]]]:
        s = self.scenarios
        return [
            ("analyze", ["analyze", "--scenario", str(s["analyze"])]),
            ("reconstruct", ["reconstruct", "--scenario", str(s["reconstruct"])]),
            ("norms", ["norms", "--scenario", str(s["norms"])]),
            ("verify", ["verify", "--suite", "all", "--seed", str(self.verify_seed),
                        "--out", str(out / "verify" / "verify.json")]),
        ]

    def op(self, tracer) -> Outcome:
        out = self.workdir / "op"
        records = self.workdir / "records"
        for d in (out, records):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        env = dict(os.environ, PERFBENCH_TRACE="1" if tracer is not None else "0")
        shim = str(HERE / "cli_shim.py")
        exits = {}
        cpu = 0.0
        t0 = time.monotonic()
        for name, argv in self._commands(out):
            env["PERFBENCH_CHILD_OUT"] = str(records / f"{name}.json")
            with open(records / f"{name}.log", "wb") as log:
                child = subprocess.Popen([sys.executable, shim, *argv], cwd=out, env=env,
                                         stdout=log, stderr=subprocess.STDOUT)
                _, wait_status, usage = os.wait4(child.pid, 0)
                child.returncode = exits[name] = os.waitstatus_to_exitcode(wait_status)
            cpu += usage.ru_utime + usage.ru_stime
            self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        outcome = Outcome(time.monotonic() - t0, cpu, written_bytes=_dir_bytes(out))

        problems = [f"emwave {name} exited {code}" for name, code in exits.items() if code != 0]
        for name in exits:
            path = records / f"{name}.json"
            if not path.is_file():
                problems.append(f"emwave {name} left no record")
                continue
            rec = json.loads(path.read_text())
            if rec["oracle_unconverged"]:
                problems.append(f"emwave {name}: {rec['oracle_unconverged']} oracle results not converged")
            if tracer is not None:
                tracer.merge(rec["spans"], tracer.phase)
        if not problems:
            problems = self._check_reports(out, outcome.errors)
        outcome.failure = "; ".join(problems) or None
        return outcome

    def _check_reports(self, out: Path, errors: dict) -> list[str]:
        """Read every check the commands reported into ``errors``; return the failed ones."""
        problems = []
        if not (out / "analyze" / "c.json").is_file():
            problems.append("analyze wrote no coefficient manifest")
        for path in (out / "reconstruct" / "report.json", out / "norms" / "norms.json"):
            for check in json.loads(path.read_text())["checks"]:
                errors[check["test"]] = float(check["value"])
                if not check["pass"]:
                    problems.append(f"{check['test']} failed")
        for rec in json.loads((out / "verify" / "verify.json").read_text())["records"]:
            value, ref = (complex(*v) if isinstance(v, list) else complex(v)
                          for v in (rec["value"], rec["oracle"]))
            errors[rec["test"]] = abs(value) if ref == 0 else abs(value - ref) / abs(ref)
            if not rec["pass"]:
                problems.append(f"{rec['test']} failed")
        return problems


WORKLOADS = {cls.name: cls for cls in (AnalyzeStore, SynthWarm, CliRoundTrip)}
