"""emwave benchmark: one workload per invocation, a closed loop with one client.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S   # every workload, as a table
  python3 perfbench/run.py --workload NAME --smoke [--wrong-reference]

A run sets up, runs one checked warm-up op, then runs checked ops back to
back until the timed ops and their checks have taken ``--seconds`` of wall
time (by default BENCHMARK.json's run_seconds).  Set-up is measured again
in fresh processes, one after each op and the rest after the last, so that
its samples are spread through the run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, from a
run that alternates untraced and traced ops so that the tracing overhead is
measured in the same run.  ``--smoke`` runs one op per mode at tiny sizes;
``--wrong-reference`` moves every reference so that ops must fail.

Work files (coefficient payloads, scenario outputs, RSS samples) live in
``.perfbench_work/`` at the repository root and are removed at the end of
the run; the span list of a traced run is kept there as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, bucket_totals, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Fixed on every commit measured, and never above nproc.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "EMWAVE_THREADS": "1",
}
SETUP_PROBES = 9
MIB = 2.0**20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one op per mode at tiny sizes")
    p.add_argument("--wrong-reference", action="store_true", help="move every reference so ops fail")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(args, workload_cls) -> int:
    """Child side: set up as a run would, then print the monotonic clock."""
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        workload_cls(args.seed, args.smoke, False, workdir).setup()
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _time_setup(args) -> float:
    """Wall time from process start to ready-to-time in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    t0 = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return float(done.stdout.split()[-1]) - t0


class _Sampler:
    """External RSS sampler (rss_sampler.py) watching this process."""

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "rss_sampler.py"), str(os.getpid()), str(path)]
        )
        deadline = time.monotonic() + 10.0
        while not (path.exists() and path.stat().st_size) and time.monotonic() < deadline:
            time.sleep(0.01)

    def stop(self) -> list[tuple[float, int]]:
        self.proc.terminate()
        self.proc.wait()
        samples = []
        for line in self.path.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:
                samples.append((float(parts[0]), int(parts[1])))
        return samples


def _peak_over_payload(spans, samples, bucket: str) -> float:
    """Median over this process's calls of (peak RSS during the call minus
    RSS just before it) / payload bytes, from the external samples."""
    times = [t for t, _ in samples]
    ratios = []
    for sp in spans:
        if sp["bucket"] != bucket or sp.get("remote") or not sp.get("bytes"):
            continue
        lo = bisect.bisect_right(times, sp["start"])
        hi = bisect.bisect_right(times, sp["end"])
        if lo == 0 or hi <= lo:
            continue
        before = samples[lo - 1][1]
        peak = max(rss for _, rss in samples[lo:hi])
        ratios.append((peak - before) / sp["bytes"])
    return median(ratios)


def _run_op(wl, tracer, phase: str):
    from workloads import Outcome

    if tracer is not None:
        tracer.phase = phase
        tracer.install()
    t0 = time.monotonic()
    try:
        return wl.op(tracer)
    except Exception as exc:  # a failing op is counted, not fatal to the run
        traceback.print_exc()
        return Outcome(time.monotonic() - t0, 0.0, failure=f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()


def _layer_metrics(tracer, traced, untraced, samples) -> dict:
    totals = bucket_totals(tracer.spans)
    phases = [totals.get("setup", {})] + [totals.get(phase, {}) for phase, _ in traced]
    setup, per_op = phases[0], phases[1:]

    def layer(bucket: str, key: str = "s") -> float:
        """Set-up share plus the median op's share."""
        return setup.get(bucket, {}).get(key, 0) + median(op.get(bucket, {}).get(key, 0) for op in per_op)

    def total(bucket: str, key: str) -> float:
        return sum(ph.get(bucket, {}).get(key, 0) for ph in phases)

    def ratio(num: float, den: float, empty: float = 0.0) -> float:
        return num / den if den else empty

    io_s = total("transform.save", "s") + total("transform.load", "s")
    io_bytes = total("transform.save", "bytes") + total("transform.load", "bytes")
    ops = traced + untraced
    span_counts = [sum(1 for sp in tracer.spans if sp["phase"] == phase) for phase, _ in traced]
    return {
        "grids.build_s": layer("grids"),
        "fieldcore.amplitude_s": layer("fieldcore.amplitude"),
        "fieldcore.eval_s": layer("fieldcore.eval"),
        "wavelet.s": layer("wavelet"),
        "wavelet.calls": layer("wavelet", "calls"),
        "ast.s": layer("ast"),
        "ast.calls": layer("ast", "calls"),
        "oracle.s": layer("oracle"),
        "oracle.calls": layer("oracle", "calls"),
        "oracle.converged_frac": ratio(total("oracle", "converged"), total("oracle", "n"), 1.0),
        "transform.analyze_s": layer("transform.analyze"),
        "transform.analyze_slices_per_s": ratio(
            total("transform.analyze", "slices"), total("transform.analyze", "s")
        ),
        "transform.analyze_peak_over_payload": _peak_over_payload(tracer.spans, samples, "transform.analyze"),
        "transform.load_peak_over_payload": _peak_over_payload(tracer.spans, samples, "transform.load"),
        "transform.save_s": layer("transform.save"),
        "transform.load_s": layer("transform.load"),
        "transform.io_mib_per_s": ratio(io_bytes / MIB, io_s),
        "transform.synth_many_s": layer("transform.synth_many"),
        "transform.synth_point_s": layer("transform.synth_point"),
        "transform.norms_s": layer("transform.norms"),
        "transform.nonlocal_s": layer("transform.nonlocal"),
        "cli.import_s": layer("cli.import"),
        "cli.self_s": layer("cli.self"),
        "cli.written_mib": median(o.written_bytes for _, o in traced) / MIB,
        "proc.cpu_util": ratio(sum(o.cpu_s for _, o in ops), sum(o.seconds for _, o in ops)),
        "trace.overhead_frac": ratio(
            median(o.seconds for _, o in traced), median(o.seconds for _, o in untraced)
        ) - 1.0,
        "trace.spans": median(span_counts),
    }


def _environment(wl) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": wl.name,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
        "workers": wl.workers,
    }


def run_workload(args, workload_cls, spec: dict, tracer) -> dict:
    workdir = WORK / f"{workload_cls.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sampler = None
    try:
        wl = workload_cls(args.seed, args.smoke, args.wrong_reference, workdir)
        if tracer is not None:
            sampler = _Sampler(workdir / "rss.txt")
            tracer.install()
        try:
            wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        probes = 0 if tracer else 1 if args.smoke else SETUP_PROBES
        setups = []

        def probe_setup() -> None:
            if len(setups) < probes:
                setups.append(_time_setup(args))

        done = []  # (phase, traced, outcome) for every op, warm-up included
        for i in range(0 if args.smoke else 1):
            done.append((f"warmup{i}", False, _run_op(wl, None, f"warmup{i}")))
            probe_setup()
        timed_from = len(done)
        need = 2 if tracer else 1  # a traced run needs one untraced and one traced op
        busy = 0.0  # wall time of the timed ops and their checks, set-up probes left out
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 1
            phase = f"op{i}"
            t0 = time.monotonic()
            done.append((phase, traced, _run_op(wl, tracer if traced else None, phase)))
            busy += time.monotonic() - t0
            i += 1
            if i >= need and (args.smoke or busy >= args.seconds):
                break
            probe_setup()
        while len(setups) < probes:
            probe_setup()
        samples = sampler.stop() if sampler else []
        sampler = None
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for phase, _, o in done:
        status = "ok" if o.failure is None else f"FAILED: {o.failure}"
        print(f"{phase}: {o.seconds:.3f} s {status}", file=sys.stderr)
    timed = [o for _, _, o in done[timed_from:]]
    failed = sum(o.failure is not None for _, _, o in done)
    if tracer is None:
        passed = [o for o in timed if o.failure is None]
        errors = [e for _, _, o in done for e in o.errors.values()]
        values = {
            "setup_s": median(setups),
            "op_s_p50": median(o.seconds for o in (passed or timed)),
            "ops_per_s": len(passed) / sum(o.seconds for o in timed),
            "peak_rss_mib": wl.peak_rss_mib(),
            "max_rel_err": max(errors, default=0.0),
        }
        wanted = spec["end_to_end"]
    else:
        pairs = [(phase, o) for phase, traced, o in done[timed_from:] if traced]
        plain = [(phase, o) for phase, traced, o in done[timed_from:] if not traced]
        values = _layer_metrics(tracer, pairs, plain, samples)
        spans_path = WORK / f"spans-{workload_cls.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        print(f"spans: {spans_path.relative_to(ROOT)}", file=sys.stderr)
        wanted = spec["per_layer"]
    info = _environment(wl)
    info.update(ops_attempted=len(done), ops_failed=failed, ops_timed=len(timed), warmup_ops=timed_from,
                setup_samples_s=setups)
    print(json.dumps({"run": info}))
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(args, names) -> int:
    """Run every workload in its own process and print one table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else []
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return done.returncode
        *_, info, result = (json.loads(line) for line in done.stdout.splitlines())
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
            rows.append(f"{name:<20} {metric:<38} {entry['value']:>14.6g} {entry['unit']:<6}")
        counts = f"{result['attempted']} / {result['failed']} / {info['run']['ops_timed']}"
        rows.append(f"{name:<20} {'ops attempted / failed / timed':<38} {counts:>14}")
    print("\n".join(rows))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "emwave" / "__init__.py").is_file():
        print(f"error: no emwave sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before NumPy is imported, here and in children
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = None
    if args.trace and args.workload != "all" and not args.setup_probe:
        # Timed before anything imports NumPy, as cli_shim.py times it.
        tracer = Tracer()
        with tracer.span("cli.import", "cli", "cli.import"):
            import emwave.cli  # noqa: F401
    from workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args, WORKLOADS[args.workload])
    print(json.dumps(run_workload(args, WORKLOADS[args.workload], spec, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
