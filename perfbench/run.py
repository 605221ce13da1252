"""The repository benchmark: one command, four workloads, outside-in timing.

Run every workload, each in a fresh process, and print a table::

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Run one workload (what a harness calls; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``)::

    python3 perfbench/run.py --workload faithful --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
seconds of one repetition of the workload's body), ``setup_s`` (median of
five fresh imports of ``repro`` plus input generation) and ``peak_rss_mb``
(peak resident set of the process).  Both times are host seconds scaled
to a fixed reference speed by the host-speed probe that samples all
through each timed interval (``speed.py``); the raw host medians and the
median host speed are printed beside them.  The exact simulated
counts the workload produces (messages, payload units, netting ratio) and
the failed-op fraction are printed above that line.  With ``--trace 1``
half the time runs plain repetitions and half runs traced ones (see
``tracer.py``); the metrics are the per-layer self times and exact
counts, plus the tracing overhead against the plain repetitions.  Every repetition's outputs are checked
outside the timed body, and their fingerprint must not change.

The benchmark imports ``repro`` from ``src/`` next to this directory and
refuses to run without it.  It writes only under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Untimed repetitions before timing (checked like the timed ones).
WARM_UP_REPS = 1
ORDER = ("faithful", "churn", "settle", "sweep")
#: Exact end-to-end counts a workload may report (see ``suite.py``).
EXACT_UNITS = {
    "sim_messages": "count",
    "sim_payload_units": "count",
    "netting_ratio": "ratio",
}
clock = time.perf_counter


def require_source() -> None:
    """Put ``src/`` first on the path, or exit non-zero without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: {SRC}/repro not found; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)


def set_up(workload, seed: int, reps: int):
    """Set up ``reps`` times, each from a fresh import of ``repro``.

    Returns the probe holding the set-up times and the last set-up's
    inputs.
    """
    probe = SpeedProbe()
    inputs = None
    for _ in range(reps):
        inputs = None  # release the previous inputs before building anew
        for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
            del sys.modules[name]
        gc.collect()
        inputs = probe.time(lambda: workload.setup(seed))
    return probe, inputs


def percentile_note(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"{n} samples; no percentile has ten samples beyond it"
    pct = math.floor(100 * (1 - 10 / n))
    value = sorted(samples)[math.ceil(pct / 100 * n) - 1]
    return f"{n} samples; p{pct} = {value:.6f} s"


class Run:
    """One workload's repetitions: scaled times, verdicts, fingerprints.

    A ``ReproError`` raised by the body is a failed repetition (every op
    it attempted fails), not a crash of the benchmark.
    """

    def __init__(self, workload, inputs) -> None:
        from repro.errors import ReproError

        self.workload = workload
        self.inputs = inputs
        self.error_type = ReproError
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprints = []
        self.counts = {}

    def call(self, body):
        """Run ``body``; return its output, or the program error it raised."""
        try:
            return body()
        except self.error_type as exc:
            return exc

    @property
    def times(self):
        """Scaled seconds of every timed repetition."""
        return self.probe.scaled

    def warm_up(self, reps: int) -> None:
        """Run and check ``reps`` repetitions without timing them."""
        for _ in range(reps):
            gc.collect()
            self.settle(self.call(lambda: self.workload.body(self.inputs)))

    def repeat(self, seconds: float) -> None:
        """Repeat the body until ``seconds`` have passed (at least once)."""
        started = clock()
        first = len(self.times)
        while len(self.times) == first or clock() - started < seconds:
            gc.collect()
            output = self.probe.time(
                lambda: self.call(lambda: self.workload.body(self.inputs))
            )
            self.settle(output)
            # Drop it before the next repetition builds its own.
            del output

    def settle(self, output) -> None:
        """Check, fingerprint and release one repetition's output."""
        workload, inputs = self.workload, self.inputs
        ops = workload.ops(inputs)
        self.attempted += ops
        if isinstance(output, self.error_type):
            self.failed += ops
            self.problems.append(f"{type(output).__name__}: {output}")
            self.fingerprints.append(repr(output))
            return
        try:
            outcome = workload.check(inputs, output)
            self.fingerprints.append(workload.fingerprint(inputs, output))
            self.counts = workload.counts(inputs, output)
        finally:
            workload.cleanup(inputs, output)
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)

    @property
    def stable(self) -> bool:
        return len(set(self.fingerprints)) == 1


def run_timed(name: str, seed: int, seconds: float):
    from tracer import assert_pristine
    from suite import WORKLOADS

    workload = WORKLOADS[name]
    setup, inputs = set_up(workload, seed, SETUP_REPS)
    assert_pristine()
    run = Run(workload, inputs)
    started = clock()
    run.warm_up(WARM_UP_REPS)
    run.repeat(seconds - (clock() - started))
    assert_pristine()
    wall = statistics.median(run.times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup.scaled), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    report(name, seed, run, metrics)
    print(f"  wall_s: {percentile_note(run.times)}: "
          + " ".join(f"{t:.4f}" for t in run.times))
    for label, probe in (("wall_s", run.probe), ("setup_s", setup)):
        print(f"  {label}: host seconds median {statistics.median(probe.raw):.6f}, "
              f"host speed median {statistics.median(probe.speeds):.4f}")
    # The rest of the end-to-end set: exact, so printed but not gated (a
    # gated metric must be non-zero on every workload).
    exact = {"ops_failed_frac": (run.failed / run.attempted, "ratio")}
    for key, unit in EXACT_UNITS.items():
        exact[key] = (run.counts[key], unit) if key in run.counts else (None, unit)
    for key, (value, unit) in exact.items():
        shown = "n/a" if value is None else f"{value:.10g}"
        print(f"  {key:<34} {shown:>16} {unit}")
    return run, metrics


def run_traced(name: str, seed: int, seconds: float):
    from layers import layer_metrics
    from tracer import Tracer, assert_pristine
    from suite import OUT_DIR, WORKLOADS

    workload = WORKLOADS[name]
    _setup, inputs = set_up(workload, seed, 1)
    run = Run(workload, inputs)
    run.warm_up(WARM_UP_REPS)
    run.repeat(seconds / 2)
    # Traced repetitions are timed on the host clock alone, so the
    # overhead compares host seconds with host seconds.
    untraced = statistics.median(run.probe.raw)

    tracer = Tracer()
    missed = []
    started = clock()
    while not tracer.runs or clock() - started < seconds / 2:
        gc.collect()
        tracer.install()
        try:
            output = run.call(lambda: tracer.run(lambda: workload.body(inputs)))
            missed.extend(tracer.missed_sites())
        finally:
            tracer.uninstall()
        run.settle(output)
        del output
    assert_pristine()
    folded = tracer.fold()
    metrics, problems = layer_metrics(name, tracer, folded, untraced)
    # Self times are host seconds; the untraced repetitions' host speed
    # says how fast the host ran while they were taken.
    metrics["host.wall_s"] = (untraced, "s")
    metrics["host.speed"] = (statistics.median(run.probe.speeds), "ratio")
    problems.extend(f"unwrapped import site: {m}" for m in sorted(set(missed)))
    run.problems.extend(problems)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.tsv.gz")
    tracer.write(path)
    report(name, seed, run, metrics, self_check=not problems)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
    return run, metrics, problems


def report(name, seed, run, metrics, self_check=True) -> None:
    """Human-readable lines above the JSON result."""
    print(f"workload {name}  seed {seed}  repetitions {len(run.times)}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value:>16.6g} {unit}")
    fingerprint = run.fingerprints[0] if run.fingerprints else "-"
    print(f"fingerprint {fingerprint} "
          f"({'identical' if run.stable else 'DIFFERS'} in "
          f"{len(run.fingerprints)} repetition(s))")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    if not self_check:
        print("trace self-check FAILED")


def run_one(args) -> int:
    require_source()
    sys.path.insert(0, HERE)
    if args.trace:
        run, metrics, problems = run_traced(args.workload, args.seed, args.seconds)
        correct = run.failed == 0 and run.stable and not problems
    else:
        run, metrics = run_timed(args.workload, args.seed, args.seconds)
        correct = run.failed == 0 and run.stable
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; a table at the end."""
    require_source()
    rows = []
    for name in ORDER:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            rows.append((name, None))
            continue
        rows.append((name, json.loads(lines[-1])))
    print()
    print(f"{'workload':<10} {'correct':<8} {'failed':>6}/{'attempted':<9} metrics")
    for name, result in rows:
        if result is None:
            print(f"{name:<10} crashed")
            continue
        shown = "  ".join(
            f"{k}={m['value']:.4g} {m['unit']}"
            for k, m in result["metrics"].items()
            if "." not in k or k.startswith("trace.")
        )
        print(f"{name:<10} {str(result['correct']):<8} {result['failed']:>6}/"
              f"{result['attempted']:<9} {shown}")
    ok = all(result is not None and result["correct"] for _name, result in rows)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ORDER)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
