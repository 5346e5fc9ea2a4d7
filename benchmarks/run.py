"""beauville-lab benchmark runner.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ``src/``.
Workloads (see ``workloads.py``): verify-all, theta-sweep, llv-wide, cli-mix.

One single-threaded, closed-loop client runs the workload's list of calls
again and again (a pass) for ``--seconds`` after one warm-up pass, and
checks every verdict; a wrong one stops the run with exit code 1 and no
numbers.  Times are measured with the CPU-speed probe of ``speed.py`` and
reported in seconds at the probe's reference speed, so that other tenants
of the machine do not show up as engine slowdowns; the raw wall times are
printed on the ``# summary`` line.

``--trace 0`` prints the end-to-end metrics:

    setup_s          fresh process until the engine is imported and the
                     workload's inputs are built (median of 5 processes)
    run_s            median time of one pass: the time to every verdict
    peak_rss_mb      peak resident memory of the run
    request_ms_p50   median latency of one call in a pass
    request_ms_p99   99th percentile of that latency

``--trace 1`` runs untraced for a third of the time, then traced (see
``tracing.py``), and prints the per-layer metrics, ``failed_frac``,
``trace.overhead_frac`` and the layer kernel timings.  Spans go to
``.bench_out/spans-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 3
LOCAL_SAMPLES = 5

from speed import ORIGIN, SpeedProbe, mean_speed, net_wall, normalized  # noqa: E402


def _load_engine():
    """Import the engine from the checkout's src/, never from elsewhere."""
    if not (SRC / "beauville_lab" / "__init__.py").is_file():
        print(f"error: no engine source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _header(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "commit": _commit(),
    }


# -- set-up time ------------------------------------------------------------------------


def _setup_child(args) -> None:
    """Body of one set-up probe process: import, build inputs, report."""
    probe = SpeedProbe(interval_s=0.005)
    probe.start()
    workloads = _load_engine()
    workloads.build_ops(args.workload, args.seed, OUT_DIR)
    probe.stop()
    print(json.dumps({"probe_s": probe.probe_s, "samples": probe.samples,
                      "speed_sum": probe.speed_sum}), flush=True)


def _setup_once(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or not line:
            raise RuntimeError("set-up probe failed")
    child = json.loads(line)
    wall = ready - start - child["probe_s"]
    return normalized(wall, child["speed_sum"] / child["samples"])


def measure_setup(args) -> float:
    _setup_once(args)   # warm the file cache and the bytecode cache
    return statistics.median(_setup_once(args) for _ in range(SETUP_PROBES))


# -- passes ---------------------------------------------------------------------------------


def _local_speed(marks, i: int):
    """Probe speed around call i: the call's own samples, widened to its
    neighbours until the window holds LOCAL_SAMPLES (short calls)."""
    a, b = i, i + 1
    while (marks[b].samples - marks[a].samples < LOCAL_SAMPLES
           and (a > 0 or b < len(marks) - 1)):
        a, b = max(a - 1, 0), min(b + 1, len(marks) - 1)
    return mean_speed(marks[a], marks[b])


class Runner:
    """Closed-loop client: runs the calls of a pass one after the other."""

    def __init__(self, ops, probe: SpeedProbe):
        self.ops = ops
        self.probe = probe
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.raw_pass_s = []
        self.request = 0

    def one_pass(self):
        """Run every call once; return (pass seconds, request seconds),
        both at reference speed.  Checks run after the timed part."""
        results = []
        mark = self.probe.mark
        marks = [mark()]
        for op in self.ops:
            if self.tracer is not None:
                self.request += 1
                self.tracer.request = self.request
            results.append(op.run())
            marks.append(mark())
        for op, result in zip(self.ops, results):
            outcome = op.check(result)
            self.attempted += outcome.reports
            self.failed += outcome.failed
        wall = net_wall(marks[0], marks[-1])
        self.raw_pass_s.append(wall)
        # a pass shorter than the probe interval uses every sample so far
        speed = mean_speed(marks[0], marks[-1]) or mean_speed(ORIGIN, marks[-1])
        if speed is None:
            raise RuntimeError("the speed probe has taken no sample yet")
        self.last_speed = speed
        lat = [normalized(net_wall(marks[i], marks[i + 1]),
                          _local_speed(marks, i) or speed)
               for i in range(len(self.ops))]
        return normalized(wall, speed), lat

    def passes(self, seconds: float, at_least: int, before=None, after=None):
        """Passes until ``seconds`` have gone by and ``at_least`` are done.
        ``before(i)`` and ``after()`` run around pass i, untimed."""
        pass_s, request_s = [], []
        end = time.perf_counter() + seconds
        while len(pass_s) < at_least or time.perf_counter() < end:
            if before is not None:
                before(len(pass_s))
            p, lat = self.one_pass()
            pass_s.append(p)
            request_s.extend(lat)
            if after is not None:
                after()
        return pass_s, request_s


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workloads) -> tuple:
    setup_s = measure_setup(args)
    ops = workloads.build_ops(args.workload, args.seed, OUT_DIR)
    probe = SpeedProbe()
    probe.start()
    try:
        runner = Runner(ops, probe)
        runner.one_pass()   # warm-up, checked
        runner.attempted = runner.failed = 0
        runner.raw_pass_s.clear()
        pass_s, request_s = runner.passes(args.seconds, MIN_PASSES)
    finally:
        probe.stop()
    pct = statistics.quantiles(request_s, n=100, method="inclusive")
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "run_s": _metric(statistics.median(pass_s), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "request_ms_p50": _metric(pct[49] * 1000, "ms"),
        "request_ms_p99": _metric(pct[98] * 1000, "ms"),
    }
    summary = {"passes": len(pass_s), "requests": len(request_s),
               "raw_run_s": statistics.median(runner.raw_pass_s),
               "failed_frac": runner.failed / runner.attempted}
    return runner, metrics, summary


PER_LAYER_UNITS = {"_s": "s", "_us": "us", "_share": "frac", "_frac": "frac"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced(args, workloads) -> tuple:
    import tracing

    ops = workloads.build_ops(args.workload, args.seed, OUT_DIR)
    tracer = tracing.Tracer()
    probe = SpeedProbe()

    def skip_probe_time(took: float) -> None:
        tracer.stack[-1][1] += took   # the probe is nobody's self time

    probe.on_sample = skip_probe_time
    probe.start()
    per_pass = []

    def before(i: int) -> None:
        if i == 1:     # pass 0 counted the kernel calls; capture in pass 1
            tracer.plan_capture()
        elif i == 2:
            tracer.stop_capture()
        tracer.reset()

    def after() -> None:
        per_pass.append({
            name: normalized(v, runner.last_speed) if _unit(name) == "s" else v
            for name, v in tracer.pass_metrics().items()})

    try:
        runner = Runner(ops, probe)
        runner.one_pass()
        plain_s, _ = runner.passes(args.seconds / 3, 2)
        tracer.install()
        try:
            runner.tracer = tracer
            runner.attempted = runner.failed = 0
            traced_s, _ = runner.passes(args.seconds * 2 / 3, 3, before, after)
        finally:
            tracer.uninstall()
        start = probe.mark()
        kernels = tracing.kernel_metrics(
            tracer.captured, lambda: time.perf_counter() - probe.probe_s)
        speed = mean_speed(start, probe.mark())
    finally:
        probe.stop()
    layer = {name: statistics.median_low(p[name] for p in per_pass)
             for name in per_pass[0]}
    layer["failed_frac"] = runner.failed / runner.attempted
    layer["trace.overhead_frac"] = (statistics.median(traced_s)
                                    / statistics.median(plain_s) - 1)
    layer.update({name: normalized(us, speed) if speed else us
                  for name, us in kernels.items()})
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = {name: _metric(value, _unit(name)) for name, value in layer.items()}
    summary = {"passes": len(traced_s), "untraced_passes": len(plain_s),
               "spans": len(tracer.spans), "spans_dropped": tracer.spans_dropped}
    return runner, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        _setup_child(args)
        return 0
    workloads = _load_engine()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    print("# header " + json.dumps(_header(args)), flush=True)
    try:
        run = traced if args.trace else end_to_end
        runner, metrics, summary = run(args, workloads)
    except workloads.GateError as err:
        print(f"correctness gate failed: {err}", file=sys.stderr)
        return 1
    summary["loadavg_end"] = os.getloadavg()
    print("# summary " + json.dumps(summary), flush=True)
    print(json.dumps({"correct": True, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
