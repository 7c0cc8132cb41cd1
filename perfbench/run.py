#!/usr/bin/env python3
"""End-to-end benchmark of the icsadv pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bundled --seed 7 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for their exact inputs):

* ``bundled``: ``pipeline.run_pipeline`` on the shrunk bundled scenario and
  config; tree fitting dominates.
* ``score-long``: set-up trains one detector of each kind; the timed part
  simulates a long attacked log, scales it, round-trips it through CSV and
  evaluates every detector on it; tree traversal and CSV I/O dominate.
* ``attack-heavy``: the same scenario as ``bundled`` with three JSMA
  variants per attack row and small detectors; JSMA and the MLP calls it
  makes dominate. It is kept for manual runs and ``--smoke`` but is not
  listed in ``BENCHMARK.json``: the time limit on all runs leaves room for
  two workloads at a steady run length, and this one also spreads most
  between seeds, because its JSMA time depends on the seed's MLP oracle.
  ``bundled`` still traces every layer it stresses.

Each run sets up the workload ``SETUPS`` times, each time in a fresh
interpreter (import plus input preparation; score-long also trains), and
repeats the timed operation in-process for about ``--seconds`` of operation
time: it starts no operation that the previous one's duration says would
end past that. The first set-up runs before the operations, the others
one after each operation, so that their median samples the host's speed
over the whole run, not over a few seconds of it.

On a shared host the speed of a core changes by up to 1.7x within
fractions of a second, so while the untraced operations run, a
``reference.Probe`` times one call of a fixed numpy computation every
``PROBE_INTERVAL_S`` seconds, and the timings are reported in units of one
reference call: ``wall_norm`` is an operation's wall time over the mean
wall time of the reference calls taken during it (``cpu_norm`` likewise
for CPU time), the probe's own time taken out, and the metric is the
median over the run's operations. The raw seconds are printed beside them.
Every operation's outputs are checked; a run whose check fails prints
``"correct": false`` and exits with code 1.

``--trace 0`` reports the end-to-end metrics (medians over operations).
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of ``tracer.py`` (medians over traced operations, plus
the set-up's spans) and the tracing overhead; the spans of the last traced
operation are written to ``.perfbench_out/``.

``--smoke`` runs all three workloads once on the desk-size test scenario, to
check the harness in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 5
PROBE_INTERVAL_S = 0.25
WORKLOADS = ("bundled", "score-long", "attack-heavy")
DEFAULT_SEED = 7
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "wall_norm": "ref",
    "setup_s": "s",
    "cpu_norm": "ref",
    "peak_rss_mb": "MB",
    "attack_recall_mean": "ratio",
    "jsma_success_rate": "ratio",
    "ok_rate": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def blas_notes(np) -> dict:
    notes = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        notes["name"], notes["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        import ctypes

        libdir = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in libdir.glob("libscipy_openblas*.so"):
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
            fn.argtypes, fn.restype = [], ctypes.c_int
            notes["threads"] = fn()
    except (OSError, AttributeError):
        pass
    if notes["threads"] is None:
        notes["threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return notes


def machine_notes(load_at_start) -> dict:
    import numpy as np

    import icsadv

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_notes(np),
        "icsadv_backend": icsadv.BACKEND,
        "loadavg_start": load_at_start,
    }


def sample_note(values) -> str:
    if len(values) == 1:
        return "n=1"
    return "n=%d min=%.6g max=%.6g" % (len(values), min(values), max(values))


class Run:
    """One benchmark run: set-ups, timed operations, checks."""

    def __init__(self, args, work_root: Path):
        self.args = args
        self.workload = args.workload
        self.work_root = work_root
        self.reference = None
        self.setup_times: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def setup(self) -> Path:
        """One set-up in a fresh interpreter; its time goes to
        ``setup_times``. Raises ``subprocess.SubprocessError`` on failure."""
        work = self.work_root / ("setup%d" % len(self.setup_times))
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--prepare",
            "--workload", self.workload, "--seed", str(self.args.seed),
            "--work", str(work),
        ] + (["--smoke"] if self.args.smoke else [])
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
        self.setup_times.append(time.perf_counter() - t0)
        return work

    def op(self, work: Path, tracer=None, probe=None):
        """One timed operation: (wall s, cpu s, wall ref, cpu ref), or None
        when it failed. Without a probe the two last are None."""
        from workloads import CheckFailed, check, timed_op

        self.attempted += 1
        out = self.work_root / ("op%d" % self.attempted)
        try:
            # a traced operation traces its output check too, so the check's
            # CSV read shows under dataset.csv_read_s on every workload
            with tracer or contextlib.nullcontext():
                mark = probe.mark() if probe else 0
                c0, t0 = cpu_seconds(), time.perf_counter()
                result = timed_op(self.workload, work, out)
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
                ref_wall = ref_cpu = None
                if probe:
                    spent_wall, spent_cpu, ref_wall, ref_cpu = probe.between(mark, probe.mark())
                    wall, cpu = wall - spent_wall, cpu - spent_cpu
                outcome = check(self.workload, result, work, out)
            if self.reference is None:
                self.reference = outcome
            elif outcome["digest"] != self.reference["digest"]:
                raise CheckFailed("outputs differ from the first operation")
        except Exception as exc:  # every failure is counted, none is fatal
            self.failures.append("op %d: %s: %s" % (self.attempted, type(exc).__name__, exc))
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, ref_wall, ref_cpu

    def check_cli(self, work: Path) -> None:
        """The CLI must write the same artifacts as the API run."""
        from workloads import check_pipeline_run

        self.attempted += 1
        out = self.work_root / "cli"
        cmd = [
            sys.executable, "-m", "icsadv.cli", "pipeline",
            "--config", str(work / "config.json"), "--out", str(out),
        ]
        try:
            subprocess.run(cmd, check=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
                           stdout=subprocess.DEVNULL)
            manifest = json.loads((out / "run_manifest.json").read_text())
            outcome = check_pipeline_run(manifest, out)
        except Exception as exc:  # reported as a failed check
            self.failures.append("cli: %s: %s" % (type(exc).__name__, exc))
            return
        if self.reference is None or outcome["digest"] != self.reference["digest"]:
            self.failures.append(
                "cli: report.json %s differs from the API run"
                % outcome["report_sha256"][:16]
            )


def timed_loop(run: Run, work: Path, seconds: float, traced: bool, setups: int):
    """Repeat the operation for about ``seconds`` of operation time (at
    least once), with one more set-up after each operation until there have
    been ``setups``. Untraced, the operations run under a reference probe;
    traced, an untraced and a traced operation alternate, without the probe.
    Returns the untraced operations' results, the tracers and the traced
    walls."""
    import reference
    from tracer import Tracer

    plain, tracers, traced_walls = [], [], []
    with contextlib.nullcontext() if traced else reference.Probe(PROBE_INTERVAL_S) as probe:
        elapsed = 0.0
        while True:
            t_round = time.perf_counter()
            res = run.op(work, probe=probe)
            if res is not None:
                plain.append(res)
            if traced:
                tracer = Tracer()
                res = run.op(work, tracer)
                if res is not None:
                    tracers.append(tracer)
                    traced_walls.append(res[0])
            round_s = time.perf_counter() - t_round
            elapsed += round_s
            done = elapsed + round_s > seconds
            with probe.paused() if probe else contextlib.nullcontext():
                while len(run.setup_times) < setups:
                    run.setup()
                    if not done:
                        break
            if done:
                return plain, tracers, traced_walls


def bench(args) -> int:
    load_at_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT))
    try:
        return _bench(args, load_at_start, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def _bench(args, load_at_start, work_root: Path) -> int:
    import workloads
    from tracer import Tracer, combine, layer_metrics, PER_LAYER

    run = Run(args, work_root)
    try:
        work = run.setup()
    except subprocess.SubprocessError as exc:
        print("FAILED set-up: %s" % exc)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setup_totals = {}
    if args.trace:
        # the set-up's layers are traced once, in-process
        tracer = Tracer()
        with tracer:
            workloads.prepare(args.workload, args.seed, args.smoke, work_root / "traced-setup")
        setup_totals = tracer.totals()

    try:
        plain, tracers, traced_walls = timed_loop(
            run, work, args.seconds, bool(args.trace), 1 if args.smoke else SETUPS)
    except subprocess.SubprocessError as exc:
        print("FAILED set-up: %s" % exc)
        print(json.dumps({"correct": False, "attempted": run.attempted + 1,
                          "failed": 1 + len(run.failures), "metrics": {}}))
        return 1
    if args.workload != "score-long":
        run.check_cli(work)

    notes = machine_notes(load_at_start)
    print("machine: %s" % json.dumps(notes, sort_keys=True))
    print("workload: %s seed %d smoke %s, %d operations, %d failed"
          % (args.workload, args.seed, args.smoke, run.attempted, len(run.failures)))
    for line in run.failures:
        print("FAILED %s" % line)

    metrics = {}
    walls = [r[0] for r in plain]
    ref = run.reference or {}
    if not args.trace:
        ref_walls = [r[2] for r in plain]
        for name, vals in (("wall_s", walls), ("cpu_s", [r[1] for r in plain]),
                           ("reference call", ref_walls)):
            if vals:
                print("%-20s %12.6g %-6s median %s (seconds, not normalised)"
                      % (name, statistics.median(vals), "s", sample_note(vals)))
        values = {
            "wall_norm": [r[0] / r[2] for r in plain],
            "setup_s": run.setup_times,
            "cpu_norm": [r[1] / r[3] for r in plain],
            "peak_rss_mb": [peak_rss_mb()],
            "attack_recall_mean": [ref["attack_recall_mean"]] if ref else [],
            "jsma_success_rate": [ref["jsma_success_rate"]] if ref else [],
            "ok_rate": [1.0 - len(run.failures) / max(run.attempted, 1)],
        }
        print("fail_rate: %d/%d" % (len(run.failures), run.attempted))
        if ref:
            print("attack_recall_min (worst column, weakest detector): %.6g"
                  % ref["attack_recall_min"])
        for name, unit in END_TO_END.items():
            vals = values[name]
            if not vals:
                continue
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
            print("%-20s %12.6g %-6s median %s" % (name, metrics[name]["value"], unit, sample_note(vals)))
    elif tracers:
        per_op = []
        for tracer in tracers:
            vals, bases = layer_metrics(combine(setup_totals, tracer.totals()))
            per_op.append(vals)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        trace_path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        tracers[-1].dump(trace_path)
        print("spans of the last traced operation: %s" % trace_path.relative_to(ROOT))
        print("tracing overhead: traced wall %.4f s - untraced wall %.4f s = %.4f s"
              % (statistics.median(traced_walls), statistics.median(walls), overhead))
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                vals = [overhead]
            else:
                vals = [v[name] for v in per_op]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
            base = " (%s)" % bases[name] if name in bases else ""
            print("%-26s %14.6g %-5s %s%s" % (name, metrics[name]["value"], unit, sample_note(vals), base))

    correct = not run.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def smoke(args) -> int:
    """Every workload once on the desk scenario, untraced and traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", "0", "--trace", str(trace),
                "--smoke",
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT_S,
                                  capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("smoke %-12s trace %d: exit %d in %.1f s: %s"
                  % (workload, trace, proc.returncode, time.perf_counter() - t0, last[0][:160]))
            if proc.returncode:
                sys.stderr.write(proc.stdout + proc.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="desk-size inputs; without --workload, run every workload")
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "icsadv" / "__init__.py").is_file():
        print("error: no icsadv sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import icsadv

    if SRC not in Path(icsadv.__file__).resolve().parents:
        print("error: icsadv imported from %s, not %s" % (icsadv.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.prepare:
        import workloads

        workloads.prepare(args.workload, args.seed, args.smoke, Path(args.work))
        return 0
    if args.workload is None:
        if args.smoke:
            return smoke(args)
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
