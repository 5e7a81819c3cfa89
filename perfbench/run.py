"""Benchmark for mvslab: run one workload for a fixed time, check every
round's outputs, and print the metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

--trace 0 times untraced rounds and reports the end-to-end metrics.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics, including the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import uniform_filter

import checks
import spans
from workloads import WORKLOADS, RoundResult, median_figures

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

MODULES = ("cli", "synth", "planesweep", "losses", "depthopt", "fusion", "fileio")

# (name, unit, better, bound); BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_kernel", "work/kernel", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("accurate_frac", "frac", "higher", 0.15),
]

SETUP_PROBES = 9
# A fresh interpreter importing a fixed set of standard-library modules, timed
# right after each set-up probe. Set-up time on a shared host drifts by a
# third within minutes; this start-up drifts with it (the reference kernel
# does not always) and never loads numpy, scipy or mvslab.
REFERENCE_START = [sys.executable, "-c", "import argparse, asyncio, decimal, email.parser, "
                   "http.client, json, logging, tarfile, unittest, xml.etree.ElementTree"]
# About its median time on the machine described in README.md: setup_s is
# the set-up time scaled to a host that starts it in this time.
REFERENCE_START_S = 0.15
WALL_LIMIT_S = 150.0  # stop starting rounds past this, whatever --seconds says


class CommandFailed(Exception):
    pass


class Program:
    """The mvslab package of this checkout, imported from its src/ tree."""

    def __init__(self):
        if not (SRC / "mvslab" / "cli.py").is_file():
            raise SystemExit(f"perfbench: no mvslab sources under {SRC}")
        sys.path.insert(0, str(SRC))
        self.modules = {m: importlib.import_module(f"mvslab.{m}") for m in MODULES}
        self.LossWeights = self.modules["losses"].LossWeights
        self.tracer: spans.Tracer | None = None

    def run(self, argv: list[str]) -> str:
        """Run one `mvslab` command in this process; return its stdout."""
        out, err = io.StringIO(), io.StringIO()
        main = self.modules["cli"].main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                rc = main(argv)
            else:
                command = next(a for a in argv if a in spans.CLI_COMMANDS)
                rc = self.tracer.call(f"cli.{command}", main, (argv,))
        if rc != 0:
            raise CommandFailed(f"mvslab {' '.join(argv)} exited {rc}: "
                                f"{err.getvalue().strip()}")
        return out.getvalue()


@dataclass
class Round:
    seconds: float
    kernel_s: float  # reference kernel time around this round
    traced: bool
    result: RoundResult | None
    tracer: spans.Tracer | None


@dataclass
class Run:
    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bad_checks: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    setup_samples: list[tuple[float, float]] = field(default_factory=list)  # (set-up, reference)


_RNG = np.random.default_rng(0)
_VOLUME = _RNG.random((64 * 80, 8))
_VOLUME_IDX = _RNG.integers(0, 64 * 80, size=(16, 64 * 80))
_IMAGE = _RNG.random((64 * 80, 4))
_IMAGE_IDX = _RNG.integers(0, 64 * 80, size=64 * 80)
_PATCH = _RNG.random((32, 40, 3))


def reference_kernel() -> float:
    """Seconds this machine takes, right now, for a fixed piece of numpy work
    that never calls mvslab.

    The machine's speed drifts by up to a fifth over minutes on a shared host;
    timing rounds against this kernel, run after each, cancels most of that
    drift while leaving the program's own speed in the ratio. Its three
    parts, about equal in time, resemble the three workloads' work: gathers
    over arrays as large as the plane sweep's feature volumes, gathers over
    an image-sized array that stays in cache, and many small calls on a
    32x40 patch, where interpreter overhead dominates."""
    start = time.perf_counter()
    for _ in range(6):
        v = _VOLUME[_VOLUME_IDX] * 0.5 + _VOLUME[_VOLUME_IDX[::-1]] * 0.5
        np.exp(uniform_filter(v, size=(3, 3, 1)))
    for _ in range(320):
        v = _IMAGE[_IMAGE_IDX]
        v += _IMAGE[_IMAGE_IDX[::-1]]
        np.exp(uniform_filter(v, size=(3, 1)))
    for _ in range(1400):
        a = _PATCH * 0.5 + 0.1
        np.sqrt(np.maximum(uniform_filter(a, size=(3, 3, 1), mode="constant"), 1e-4)).sum()
        np.abs(a[1:] - a[:-1]).sum()
    return time.perf_counter() - start


def round_seed(seed: int, r: int) -> int:
    """Each round gets its own inputs, all fixed by the run's seed."""
    return seed * 1000 + r


def probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh process to the end of its set-up, and
    the seconds REFERENCE_START takes right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise SystemExit(f"perfbench: set-up probe exited {rc}")
    start = time.perf_counter()
    subprocess.run(REFERENCE_START, check=True, timeout=60)
    return ready, time.perf_counter() - start


def check_outputs(workload, inp: dict, stdouts: list[str]) -> tuple[RoundResult | None, str | None]:
    """Check one round's outputs: (its result, None) if they pass, else
    (None, why). Output the checks cannot even parse fails the round too."""
    try:
        return workload.check(inp, stdouts), None
    except checks.CheckFailed as exc:
        return None, str(exc)
    except (OSError, ValueError, LookupError, AttributeError, TypeError) as exc:
        return None, f"unreadable output: {type(exc).__name__}: {exc}"


def run_rounds(args, program, workload, root: Path, started: float, probe=None) -> Run:
    """Run checked rounds until --seconds of them are measured. With `probe`,
    also time SETUP_PROBES set-ups, spread between the rounds."""
    run = Run()
    kernels: list[float] = []
    measured = 0.0
    while True:
        r = len(run.rounds)
        traced = bool(args.trace) and r % 2 == 1
        # a traced round repeats the inputs of the untraced round before it
        seed = round_seed(args.seed, r // 2 if args.trace else r)
        inp = workload.prepare(root / f"r{r}", seed)
        argvs = workload.commands(inp)
        tracer = spans.Tracer(r) if traced else None
        stdouts = []
        with tracer.installed(program.modules) if traced else contextlib.nullcontext():
            program.tracer = tracer
            t0 = time.perf_counter()
            try:
                for argv in argvs:
                    stdouts.append(program.run(argv))
            except CommandFailed as exc:
                run.problems.append(str(exc))
            seconds = time.perf_counter() - t0
            program.tracer = None
        if not kernels:
            # before the benchmark's own checks and kernel add to the high-water mark
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.attempted += len(argvs)
        run.failed += len(argvs) - len(stdouts)
        result = None
        if len(stdouts) == len(argvs):
            result, problem = check_outputs(workload, inp, stdouts)
            if problem is not None:
                run.problems.append(f"round {r}: {problem}")
                run.bad_checks += 1
        shutil.rmtree(inp["root"])
        if not kernels:
            reference_kernel()  # the first call runs cold
        kernels.append(reference_kernel())
        around = kernels[-2:]  # the kernels just before and just after this round
        run.rounds.append(Round(seconds, sum(around) / len(around), traced, result, tracer))
        measured += seconds
        typical = statistics.median(x.seconds for x in run.rounds)
        done = len(run.rounds) >= (2 if args.trace else 1) and (
            measured + typical > args.seconds
            or time.perf_counter() - started + typical > WALL_LIMIT_S)
        if probe is not None:
            due = SETUP_PROBES if done else min(
                SETUP_PROBES, math.ceil(SETUP_PROBES * measured / args.seconds))
            while len(run.setup_samples) < due:
                run.setup_samples.append(probe())
        if done:
            return run


def end_to_end_metrics(workload, run: Run) -> dict[str, float]:
    good = [x for x in run.rounds if x.result is not None]
    rates = [x.result.work / x.seconds for x in good]
    metrics = {
        "setup_s": statistics.median(s * REFERENCE_START_S / ref for s, ref in run.setup_samples),
        "work_per_kernel": statistics.median(x.result.work * x.kernel_s / x.seconds
                                             for x in good),
        "peak_rss_mb": run.peak_rss_mb,
        "accurate_frac": statistics.median(x.result.accurate_frac for x in good),
    }
    print(f"{workload.name}: {len(good)} checked rounds")
    print(f"  setup_s           {metrics['setup_s']:.4f} s at a {REFERENCE_START_S} s reference "
          "start-up; raw " + " ".join(f"{s:.3f}" for s, _ in run.setup_samples)
          + " s, reference " + " ".join(f"{r:.3f}" for _, r in run.setup_samples) + " s")
    print(f"  {workload.rate_name:17s} {statistics.median(rates):.4f} {workload.work_unit}/s,"
          " median of " + " ".join(f"{r:.4f}" for r in rates))
    print(f"  work_per_kernel   {metrics['work_per_kernel']:.4f} {workload.work_unit} per "
          "reference kernel, kernel " + " ".join(f"{x.kernel_s:.3f}" for x in good) + " s")
    print(f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB, up to the end of round 0")
    print(f"  accurate_frac     {metrics['accurate_frac']:.4f} {workload.accurate}")
    for name, value in median_figures([x.result for x in good]).items():
        print(f"  {name:17s} {value:.6g}")
    return metrics


def layer_metrics(workload, run: Run, trace_path: Path) -> dict[str, float]:
    traced = [x for x in run.rounds if x.traced and x.result is not None]
    plain = [x for x in run.rounds if not x.traced and x.result is not None]
    totals: dict[str, float] = {}
    for x in traced:
        per_round = spans.aggregate(x.tracer.spans)
        per_round.update(x.result.counts)
        for key, value in per_round.items():
            totals[key] = totals.get(key, 0.0) + value
    metrics = {name: totals.get(name, 0.0) / len(traced)
               for name, _, _ in spans.layer_metric_specs()}
    metrics["trace_overhead_s"] = (statistics.median(x.seconds for x in traced)
                                   - statistics.median(x.seconds for x in plain))
    with open(trace_path, "w") as f:
        for x in traced:
            for sid, parent, rid, name, start, end, counts in x.tracer.spans:
                f.write(json.dumps({"round": rid, "id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end, "counts": counts}) + "\n")
    print(f"{workload.name}: {len(traced)} traced and {len(plain)} untraced rounds; "
          f"spans in {trace_path}")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        if value:
            print(f"  {name:{width}s} {value:.6g}")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up round 0, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    program = Program()
    workload = WORKLOADS[args.workload](program)
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_probe:
            workload.prepare(root / "r0", round_seed(args.seed, 0))
            print("ready", flush=True)
            return 0
        probe = None if args.trace else functools.partial(probe_setup, args)
        run = run_rounds(args, program, workload, root, started, probe)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    done = {x.traced for x in run.rounds if x.result is not None}
    if done != ({False, True} if args.trace else {False}):
        print("perfbench: no round passed its commands and checks", file=sys.stderr)
        return 1
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        values = layer_metrics(workload, run,
                               RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")
        units = {name: unit for name, unit, _ in spans.layer_metric_specs()}
    else:
        values = end_to_end_metrics(workload, run)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    print(json.dumps({"correct": run.bad_checks == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
