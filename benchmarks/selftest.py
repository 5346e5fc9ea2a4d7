"""Self-test of the benchmark; run from the root of a checkout:

    python3 benchmarks/selftest.py

It runs every workload at a tiny size (the first few calls of a pass) and
checks that the correctness gate passes on the engine as it is, that it
stops on a perturbed golden output or a wrong answer, that the known
crashes are counted rather than fatal, that the tracer's counts repeat and
that it leaves the engine as it found it, and that the runner refuses to
run without the engine's source.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run

workloads = run._load_engine()
import tracing  # noqa: E402  (needs the engine on the path)
from speed import SpeedProbe  # noqa: E402

TINY = 4


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def gate_stops(ops) -> bool:
    try:
        for op in ops:
            op.check(op.run())
    except workloads.GateError:
        return True
    return False


def tiny_passes() -> None:
    probe = SpeedProbe()
    probe.start()
    try:
        for name in workloads.WORKLOADS:
            ops = workloads.build_ops(name, 3, run.OUT_DIR)[:TINY]
            runner = run.Runner(ops, probe)
            pass_s, lat = runner.one_pass()
            expect(pass_s > 0 and len(lat) == len(ops), f"{name}: timings")
            expect(runner.attempted >= len(ops), f"{name}: attempted")
            print(f"ok   {name}: {len(ops)} calls, {runner.attempted} operations")
    finally:
        probe.stop()


def golden_is_enforced() -> None:
    golden = workloads.GOLDEN.read_text(encoding="utf-8")
    for seed in (0, 5):
        expect(not gate_stops(workloads.verify_all_ops(seed, golden)),
               f"verify-all seed {seed} passes against the golden copy")
        perturbed = golden.replace('"status": "verified"', '"status": "verifiet"', 1)
        expect(perturbed != golden, "perturbation applies")
        expect(gate_stops(workloads.verify_all_ops(seed, perturbed)),
               f"a perturbed golden copy is detected (seed {seed})")
    print("ok   verify-all: golden output enforced, perturbation detected")


def wrong_answers_stop() -> None:
    reqs = workloads.cli_mix_requests(3, workloads.write_space_file(
        run.OUT_DIR / "space-selftest.json"))
    push = next(r for r in reqs if r.kind == "push")
    push.expect = (push.expect[0] + 1,) + push.expect[1:]
    zero = next(r for r in reqs if r.kind == "zero" and r.argv[2] == "llv")
    zero.argv[3] = "h"
    for req in (push, zero):
        res = workloads.call_cli(req.argv)
        try:
            workloads._check_request(req, res)
            expect(False, f"wrong answer detected: {req.argv}")
        except workloads.GateError:
            pass
    crashes = [r for r in reqs if r.argv[-1] == "1/0" or "--space" in r.argv
               or r.argv[1:] == ["llv", "--t", "0"]]
    failed = sum(workloads._check_request(r, workloads.call_cli(r.argv)).failed
                 for r in crashes)
    expect(failed == 6, f"the three known crashes are counted ({failed} of 6)")
    print("ok   cli-mix: wrong answers stop the run, known crashes are counted")


def tracer_repeats() -> None:
    from beauville_lab import cli, sparse
    from beauville_lab.scalars import GaussianRational

    before = (cli.main, sparse.bracket, GaussianRational.__mul__)
    ops = workloads.build_ops("cli-mix", 3, run.OUT_DIR)[:20]
    tracer = tracing.Tracer()
    tracer.install()
    counts = []
    try:
        for _ in range(2):
            tracer.reset()
            for op in ops:
                op.check(op.run())
            counts.append({k: v for k, v in tracer.pass_metrics().items()
                           if not k.endswith("_s")})
    finally:
        tracer.uninstall()
    expect(counts[0] == counts[1], "traced counts repeat between passes")
    expect(counts[0]["scalars.ops"] > 0, "the tracer sees scalar ops")
    after = (cli.main, sparse.bracket, GaussianRational.__mul__)
    expect(all(a is b for a, b in zip(before, after)), "uninstall restores")
    print("ok   tracer: counts repeat, originals restored")


def refuses_without_engine() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "no result without the engine's source")
    print("ok   runner: exits with code", proc.returncode, "without src/")


if __name__ == "__main__":
    tiny_passes()
    golden_is_enforced()
    wrong_answers_stop()
    tracer_repeats()
    refuses_without_engine()
    print("selftest ok")
