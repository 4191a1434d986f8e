"""Benchmark of the firstloss fee chain.

    python3 bench/run.py --workload {lattice,frontier} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
The run repeats passes over the workload's seeded inputs for S seconds,
checks every pass's outputs, and prints a report followed by one JSON line
with ``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A record of the run, with its
context and (traced) its spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 9
IMPORT_LAUNCHES = 3
SETUP_FEE = "0,20,0"                     # percent, as the CLI takes it
# Every timing is scaled to a reference host speed: the speed at which the
# calibration kernel below takes KERNEL_REF_S of CPU time.  The speed probe
# runs the kernel every PROBE_INTERVAL_S.
KERNEL_REF_S = 0.002
PROBE_INTERVAL_S = 0.1
PROBE_SAMPLES = 1 << 14                  # 27 minutes of samples, far more than a run takes
clock = time.perf_counter


def _program_env() -> dict[str, str]:
    """The environment of a CLI launch: the checkout's package, default workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else str(SRC)
    env.pop("FIRSTLOSS_WORKERS", None)
    return env


def _kernel() -> float:
    """A fixed slice of work, about 2 ms, that mixes what the fee chain does:
    a pure-Python loop, small numpy arrays and scalar math calls."""
    import numpy as np
    acc = 0.0
    for i in range(8_000):
        acc += i * 0.5
    x = np.linspace(0.1, 2.0, 64)
    for _ in range(80):
        acc += float((np.exp(-x * x) * x).sum())
    for i in range(1, 2_000):
        t = i * 1e-4
        acc += math.erfc(t) * math.log1p(t)
    return acc


def _probe_loop(stop, samples, count) -> None:
    while not stop.wait(PROBE_INTERVAL_S) and count.value < PROBE_SAMPLES:
        t0 = time.process_time()
        _kernel()
        cpu = time.process_time() - t0
        i = count.value
        samples[2 * i], samples[2 * i + 1] = clock(), cpu
        count.value = i + 1


class SpeedProbe:
    """The host's speed over time, sampled by a process of its own.

    The host slows down for seconds to minutes at a time: a fixed batch of
    fees ran up to 2.2x slower within a minute, in CPU time as in wall time,
    and a fixed kernel slowed with it.  So a probe process runs the kernel
    every PROBE_INTERVAL_S (about 2% of one CPU) and records its CPU time,
    and each request's wall time is scaled to the reference host speed by
    KERNEL_REF_S over the mean kernel time while the request ran.  The mean,
    not the median: the kernel's times are bimodal, and the host flips
    between the two modes within a second.  A kernel timed only before and
    after each request could not follow the host through a 6-s frontier
    cell: scaled cell times still varied from 4 s to 7.5 s.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._samples = ctx.RawArray("d", 2 * PROBE_SAMPLES)   # (perf_counter time, kernel CPU seconds)
        self._count = ctx.RawValue("i", 0)
        self._stop = ctx.Event()
        self._proc = ctx.Process(target=_probe_loop, args=(self._stop, self._samples, self._count), daemon=True)
        self._proc.start()

    def samples(self) -> list[tuple[float, float]]:
        n = self._count.value
        flat = self._samples[:2 * n]
        return list(zip(flat[0::2], flat[1::2]))

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel CPU seconds over [start, end], or the sample nearest
        to it where none was taken inside."""
        while not self._count.value:
            if not self._proc.is_alive():
                raise RuntimeError(f"the speed probe exited with code {self._proc.exitcode}")
            time.sleep(PROBE_INTERVAL_S)
        samples = self.samples()
        inside = [cpu for t, cpu in samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        mid = (start + end) / 2
        return min(samples, key=lambda s: abs(s[0] - mid))[1]

    def scaled(self, start: float, seconds: float) -> float:
        """Seconds at the reference host speed of a request that started at
        ``start`` and took ``seconds``."""
        return seconds * KERNEL_REF_S / self.kernel_s(start, start + seconds)

    def close(self) -> None:
        self._stop.set()
        self._proc.join()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _context(pareto_mod) -> dict:
    import numpy
    import scipy
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "FIRSTLOSS_WORKERS": os.environ.get("FIRSTLOSS_WORKERS"),
        "effective_workers": pareto_mod.default_workers(),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any pool worker it has joined."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _launch(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = clock()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return clock() - t0, proc


def _measure_setup(expected: tuple[float, float], probe: SpeedProbe) -> tuple[list[float], list[float], int]:
    """Cold ``firstloss value`` launches into temporary outdirs; returns the
    wall times, the same scaled to the reference host speed, and how many
    launches failed or gave other values."""
    times, scaled, failed = [], [], 0
    env = _program_env()
    for _ in range(SETUP_LAUNCHES):
        with tempfile.TemporaryDirectory(dir=OUT) as outdir:
            start = clock()
            seconds, proc = _launch(
                ["-m", "firstloss.cli", "--set", f"run.outdir={outdir}", "value", "--fee", SETUP_FEE], env)
            times.append(seconds)
            scaled.append(probe.scaled(start, seconds))
            try:
                doc = json.loads((Path(outdir) / "value.json").read_text())
                ok = proc.returncode == 0 and (doc["phi_M"], doc["phi_I"]) == expected
            except (OSError, ValueError, KeyError):
                ok = False
            if not ok:
                failed += 1
                print(f"setup launch failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}", file=sys.stderr)
    return times, scaled, failed


class Run:
    """Counts and timings gathered over the passes of one run."""

    def __init__(self, workload, reference, failed_pass, probe: SpeedProbe) -> None:
        self.workload, self.reference, self.failed_pass = workload, reference, failed_pass
        self.probe = probe
        self.attempted = self.failed = 0
        self.seconds: list[float] = []           # wall time of each pass that completed
        self.request_s = 0.0                     # wall time of the requests of completed passes
        self.scaled_s = 0.0                      # the same, scaled to the reference host speed
        self.fees = self.fee_results = 0         # fees evaluated and fees chosen by those passes
        self.last = None                         # the last completed pass, for its outputs
        self.notes: list[str] = []

    def one_pass(self, run_pass) -> bool:
        """Run and check one pass; False if it raised."""
        try:
            result = run_pass()
        except Exception:                      # the run goes on and reports the failed pass
            traceback.print_exc()
            result = self.failed_pass
        check = self.workload.check(result, self.reference)
        self.attempted += check.attempted
        self.failed += check.failed
        self.notes.extend(check.notes[:5])
        if result.output is None:
            return False
        self.seconds.append(result.seconds)
        self.request_s += sum(result.requests)
        self.scaled_s += sum(map(self.probe.scaled, result.starts, result.requests))
        self.fees += result.fees
        self.fee_results += self.workload.fee_results_per_pass
        self.last = result
        return True


def _timed(run: Run, seconds: int) -> dict[str, float]:
    wl = run.workload
    deadline = clock() + seconds
    while clock() < deadline:
        run.one_pass(wl.run_pass)
    if not run.seconds:
        raise SystemExit("error: no pass completed")
    scaled = run.scaled_s
    metrics = {
        "fees_per_s": run.fees / scaled,
        "time_to_fee_s": scaled / run.fee_results,
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"passes: {len(run.seconds)}, seconds {_fmt_list(run.seconds)} (median {statistics.median(run.seconds):.4f})")
    print(f"wall: {run.fees / run.request_s:.6g} fees/s, {run.request_s / run.fee_results:.6g} s per fee; "
          f"host speed {scaled / run.request_s:.4f} of the reference")
    return metrics


def _fmt_list(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def _traced(run: Run, seconds: int, record: dict) -> dict[str, float]:
    """Alternate untraced and traced passes, all in one process.  The
    per-layer metrics are those of the fastest traced pass."""
    import tracing
    wl = run.workload
    untraced, traced = [], []                   # pass seconds; (seconds, metrics, tracer)
    deadline = clock() + seconds
    while clock() < deadline:
        if run.one_pass(wl.run_pass):
            untraced.append(run.seconds[-1])
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            ok = run.one_pass(tracer.wrap("bench.pass", wl.run_pass))
        if ok:
            layers = {**tracing.layer_metrics(tracer), **wl.trace_extras(run.last)}
            traced.append((run.seconds[-1], layers, tracer))
    if not (untraced and traced):
        raise SystemExit("error: no traced pass completed")
    fastest_s, metrics, tracer = min(traced, key=lambda t: t[0])
    metrics["trace.overhead_s"] = fastest_s - min(untraced)
    print(f"untraced pass seconds: {_fmt_list(untraced)}; traced: {_fmt_list(t[0] for t in traced)}")
    record["spans"] = [list(span) for span in tracer.spans]
    record["span_totals"] = {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                             for name, st in sorted(tracer.stats.items()) if st[0]}

    # the CLI layer: one in-process `value` command, and the import it pays for
    cli_tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as outdir, tracing.traced(cli_tracer), \
            contextlib.redirect_stdout(io.StringIO()):
        import firstloss.cli
        status = firstloss.cli.main(["--set", f"run.outdir={outdir}", "value", "--fee", SETUP_FEE])
    run.attempted += 1
    run.failed += status != 0
    metrics["cli.self_s"] = cli_tracer.self_s("cli.")
    env = _program_env()
    import_times = []
    for _ in range(IMPORT_LAUNCHES):
        seconds_, proc = _launch(["-c", "import firstloss.cli"], env)
        import_times.append(seconds_)
        run.attempted += 1
        run.failed += proc.returncode != 0
    metrics["cli.import_s"] = statistics.median(import_times)

    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "firstloss" / "__init__.py").is_file():
        print(f"error: no firstloss package under {SRC}; run from the root of a firstloss checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # timed runs leave the worker count at the program default; traced runs
    # stay in this process so that every span lands in one tracer
    os.environ.pop("FIRSTLOSS_WORKERS", None)
    if args.trace:
        os.environ["FIRSTLOSS_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))
    import firstloss
    import firstloss.pareto
    if Path(firstloss.__file__).resolve().parent != SRC / "firstloss":
        print(f"error: imported firstloss from {firstloss.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    reference = workloads.load_reference(wl)
    probe = SpeedProbe()
    run = Run(wl, reference, workloads.PassResult(seconds=0.0, requests=[], fees=0, output=None), probe)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "inputs": wl.describe(), "context": _context(firstloss.pareto)}
    print(f"workload {wl.name}, seed {args.seed}: {wl.describe()}")
    print(f"output check: {'frozen reference and invariants' if reference is not None else 'invariants'}")
    print("context: " + json.dumps(record["context"]))

    try:
        workloads.warm_up()
        t_measure = clock()
        metrics = _traced(run, args.seconds, record) if args.trace else _timed(run, args.seconds)
        measured_s = clock() - t_measure

        if not args.trace:
            setup_times, setup_scaled, setup_failed = _measure_setup(
                workloads.setup_reference((0.0, 0.20, 0.0)), probe)
            run.attempted += len(setup_times)
            run.failed += setup_failed
            metrics["setup_s"] = statistics.median(setup_scaled)
            print(f"setup launches: {_fmt_list(setup_times)} s; "
                  f"at the reference host speed {_fmt_list(setup_scaled)} s")
        kernel_ms = [1e3 * cpu for t, cpu in probe.samples() if t >= t_measure]
    finally:
        probe.close()

    for line in wl.summary(run.last):
        print(line)
    for note in run.notes[:20]:
        print(f"check: {note}")
    print(f"calibration kernel: {len(kernel_ms)} samples, median {statistics.median(kernel_ms):.4f} ms, "
          f"quartiles {_fmt_list(statistics.quantiles(kernel_ms, n=4))} ms; measured {measured_s:.2f} s")
    print(f"failed {run.failed} of {run.attempted} (failed_ratio {run.failed / max(1, run.attempted):.6g})")

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record.update(calibration_ms=kernel_ms, result=result)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    for m in declared:
        print(f"{m['name']:34s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
