"""Benchmark of the hfa package: three seeded workloads, end-to-end metrics
from an untraced pass and per-layer metrics from a traced pass.

    python3 perfbench/run.py --workload eval-words --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``
next to this directory and nowhere else.  Every operation runs in a closed
loop with one caller, its output is checked outside the timed region, and
the loop stops once the timed operations add up to ``--seconds``.  Output is
a table of every metric with its unit, then one JSON line (the last line):
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Scratch files go to ``.perfbench/`` in the checkout, which
keeps only the span files of traced runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10
HFE_PAIRS = 1000
# The tail percentile of each workload: a whole percentile with at least
# TAIL_MIN_BEYOND samples beyond it in every baseline run (baseline.json).
# It is fixed so that a faster program, which completes more operations, is
# not measured at a higher percentile.
TAIL_PERCENTILE = {"eval-words": 99, "decide-weighted": 96, "cli-crisp": 90}

# On a shared virtual machine the CPU speed can drift by 1.6x within a
# minute, which buries 10% changes in raw times.  A fixed pure Python kernel
# that shares no code with hfa is timed every CALIBRATE_EVERY_S of wall time;
# every measured time is scaled by NOMINAL_KERNEL_MS over the median of the
# last CALIBRATION_WINDOW kernel times, so that times read as on a host where
# the kernel takes NOMINAL_KERNEL_MS.
NOMINAL_KERNEL_MS = 2.8
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 5

END_TO_END = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("error_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# error_rate is 0 on a correct program, so the JSON line carries it as
# "failed" / "attempted" rather than as a metric.
REPORTED_END_TO_END = [m for m in END_TO_END if m[0] != "error_rate"]

PER_LAYER = [
    ("hfe.inf_combination.us", "us"),
    ("hfe.sup_combination.us", "us"),
    ("hfe.leq.us", "us"),
    ("hfe.thfe_init.us", "us"),
    ("hfe.operand_cardinality.mean", "degrees"),
    ("hesitant.advance.us", "us"),
    ("hesitant.value_of.us", "us"),
    ("hesitant.advance.calls", "count"),
    ("constructions.compute_range.ms", "ms"),
    ("constructions.saturate.vectors", "count"),
    ("constructions.range_size", "count"),
    ("constructions.decompose.ms", "ms"),
    ("constructions.recompose.ms", "ms"),
    ("constructions.recompose.states", "count"),
    ("constructions.recompose.blowup", "ratio"),
    ("constructions.crispify_nthfa.ms", "ms"),
    ("constructions.crispify.dense_lookups", "count"),
    ("classic.nfa_to_dfa.ms", "ms"),
    ("classic.nfa_to_dfa.subsets", "count"),
    ("constructions.determinize_cnthfa.ms", "ms"),
    ("constructions.determinize.subsets", "count"),
    ("constructions.intersect_cdthfa.ms", "ms"),
    ("constructions.product.pairs", "count"),
    ("constructions.equivalent.ms", "ms"),
    ("documents.parse_document.ms", "ms"),
    ("documents.serialize_automaton.ms", "ms"),
    ("documents.bytes_in", "bytes"),
    ("documents.bytes_out", "bytes"),
    ("cli.startup_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("constructions.budget_exceeded", "count"),
    ("cli.unexpected_exit", "count"),
]


def import_package() -> None:
    """Make ``src/`` of this checkout the only place ``hfa`` comes from."""
    if not os.path.isfile(os.path.join(SRC, "hfa", "__init__.py")):
        sys.exit(f"perfbench: no hfa package in {SRC}")
    sys.path.insert(0, SRC)
    import hfa

    if not os.path.abspath(hfa.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: hfa was imported from {hfa.__file__}, not from {SRC}")


class HostSpeed:
    """Tracks the host's current speed with a fixed calibration kernel: the
    reference fold of one generated machine, timed every CALIBRATE_EVERY_S."""

    def __init__(self):
        import inputs

        self._machine = inputs.eval_words(0, 1)[0][0]
        self._samples: list[float] = []
        self._last = -math.inf
        self.all_samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(8):
            self._machine.value(("a", "b") * 4)
        self._last = time.perf_counter()
        elapsed = self._last - start
        self._samples = (self._samples + [elapsed])[-CALIBRATION_WINDOW:]
        self.all_samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor that turns a time measured now into a nominal-host time;
        samples the kernel first when the last sample is stale."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()
        return NOMINAL_KERNEL_MS / 1000 / statistics.median(self._samples)


class Pass:
    """Latencies and failures of one timed pass over the operations; the
    latencies are nominal-host times, ``wall`` the times as measured, and
    the pass ends when the measured times add up to its length."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.wall_total = 0.0
        self.failures = Counter()

    def fail(self, i: int, exc: BaseException) -> None:
        from hfa import ClosureBudgetExceeded
        from workloads import UnexpectedExit

        self.failures["failed"] += 1
        if isinstance(exc, ClosureBudgetExceeded):
            self.failures["budget_exceeded"] += 1
        if isinstance(exc, UnexpectedExit):
            self.failures["unexpected_exit"] += 1
        if self.failures["failed"] <= 5:
            print(f"perfbench: operation {i} failed:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)


def timed_pass(workload, seconds: float, speed: HostSpeed, tracer=None) -> Pass:
    p = Pass()
    i = 0
    while p.wall_total < seconds:
        if tracer is not None:
            tracer.op = i
        scale = speed.scale()
        start = time.perf_counter()
        try:
            result = workload.traced(i, tracer) if tracer is not None else workload.run(i)
            error = None
        except Exception as exc:  # every failed operation is counted, none stops the run
            error = exc
        elapsed = time.perf_counter() - start
        p.wall.append(elapsed)
        p.wall_total += elapsed
        p.latencies.append(elapsed * scale)
        if error is None:
            try:
                workload.check(i, result)
            except Exception as exc:
                error = exc
        if error is not None:
            p.fail(i, error)
        i += 1
    return p


def percentile(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def end_to_end(p: Pass, pct: int, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    value, beyond = percentile(p.latencies, pct)
    n = len(p.latencies)
    timed = sum(p.latencies)
    values = {
        "throughput_ops_s": n / timed,
        "latency_p50_ms": statistics.median(p.latencies) * 1000,
        "latency_tail_ms": value * 1000,
        "error_rate": p.failures["failed"] / n,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "throughput_ops_s": f"{n} ops in {timed:.3f} s timed; as measured "
                            f"{n / p.wall_total:.6f} 1/s",
        "latency_p50_ms": f"as measured {statistics.median(p.wall) * 1000:.6f} ms",
        "latency_tail_ms": f"p{pct}, {beyond} samples beyond, n={n}",
        "error_rate": f"{p.failures['failed']} failed of {n}",
        "setup_s": f"median of {SETUP_REPEATS} set-ups in fresh processes",
    }
    return values, notes


def measure_setup(args, work: str, speed: HostSpeed) -> float:
    """Median time of complete set-ups in fresh interpreters: imports, input
    generation, document writing and one warm-up operation."""
    times = []
    for r in range(SETUP_REPEATS):
        workdir = os.path.join(work, f"setup{r}")
        os.makedirs(workdir)
        command = [sys.executable, os.path.abspath(__file__), "--setup-only",
                   "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
                   "--workdir", workdir]
        if args.size:
            command += ["--size", str(args.size)]
        kernel = [speed.sample() for _ in range(3)]
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=170)
        elapsed = time.perf_counter() - start
        kernel += [speed.sample() for _ in range(3)]
        times.append(elapsed * NOMINAL_KERNEL_MS / 1000 / statistics.median(kernel))
        shutil.rmtree(workdir)
    return statistics.median(times)


def set_up(args, workdir: str):
    """Generate the inputs and run the first operation once, unchecked."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir, args.size)
    workload.run(0)
    return workload


def replay_hfe(operands: list, seed: int) -> dict:
    """Element operations replayed on operand pairs drawn from the workload."""
    from hfa import Thfe, inf_combination, leq, sup_combination

    rng = random.Random(seed)
    xs = [rng.choice(operands) for _ in range(HFE_PAIRS)]
    ys = [rng.choice(operands) for _ in range(HFE_PAIRS)]

    def us_per_op(body) -> float:
        samples = []
        for _ in range(3):
            start = time.perf_counter_ns()
            body()
            samples.append((time.perf_counter_ns() - start) / HFE_PAIRS / 1000)
        return statistics.median(samples)

    out = {
        f"hfe.{fn.__name__}.us": us_per_op(lambda fn=fn: [fn(x, y) for x, y in zip(xs, ys)])
        for fn in (inf_combination, sup_combination, leq)
    }
    out["hfe.thfe_init.us"] = us_per_op(lambda: [Thfe(x.degrees) for x in xs])
    out["hfe.operand_cardinality.mean"] = statistics.mean(len(x) for x in xs + ys)
    return out


def cli_import_ms(work: str) -> float:
    from workloads import cli_env

    code = "import time; t = time.perf_counter(); import hfa.cli; print((time.perf_counter() - t) * 1000)"
    samples = [
        float(subprocess.run([sys.executable, "-c", code], cwd=work, env=cli_env(),
                             capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(3)
    ]
    return statistics.median(samples)


def per_layer(tr, hfe: dict, import_ms: float, failures: Counter) -> tuple[dict, dict]:
    """Per-layer metrics: from the traced operations where they reach the
    layer, otherwise from the layer probe."""
    def from_ops(op):
        return isinstance(op, int)

    def from_probe(op):
        return isinstance(op, str)

    calls = (tr.per_call_ms(from_ops), tr.per_call_ms(from_probe))
    values, sources = dict(hfe), {name: "replay" for name in hfe}

    def mean_of(metric, ops_samples, probe_samples, scale=1.0):
        for source, samples in (("ops", ops_samples), ("probe", probe_samples)):
            if samples:
                values[metric] = statistics.mean(samples) * scale
                sources[metric] = source
                return

    for metric, unit in PER_LAYER:
        base, _, suffix = metric.rpartition(".")
        if metric in values or metric.startswith("cli."):
            continue
        if suffix in ("ms", "us") and base.count(".") == 1:
            mean_of(metric, calls[0].get(base), calls[1].get(base), 1000.0 if suffix == "us" else 1.0)
        elif metric in tr.counts:
            mean_of(metric, [v for op, v in tr.counts[metric] if from_ops(op)],
                    [v for op, v in tr.counts[metric] if from_probe(op)])
    values["hesitant.advance.calls"] = sum(len(c.get("hesitant.advance", [])) for c in calls)
    sources["hesitant.advance.calls"] = "ops+probe"

    per_op = defaultdict(lambda: [0.0, 0.0])
    for name, start, end, _, op in tr.spans:
        if name in ("cli.subprocess", "cli.main"):
            per_op[op][name == "cli.main"] += (end - start) / 1e6
    startup = ([s - m for op, (s, m) in per_op.items() if from_ops(op)],
               [s - m for op, (s, m) in per_op.items() if from_probe(op)])
    mean_of("cli.startup_ms", *startup)
    mean_of("cli.main.ms", calls[0].get("cli.main"), calls[1].get("cli.main"))
    values["cli.import_ms"], sources["cli.import_ms"] = import_ms, "3 fresh processes"
    values["constructions.budget_exceeded"] = failures["budget_exceeded"]
    values["cli.unexpected_exit"] = failures["unexpected_exit"]
    sources["constructions.budget_exceeded"] = sources["cli.unexpected_exit"] = "failed ops"
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return values, sources


def print_rows(title: str, rows, values: dict, notes: dict) -> None:
    print(title)
    for name, unit in rows:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {values[name]:>16.6f} {unit}{note}")


def benchmark(args) -> dict:
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> dict:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()}")
    started = time.perf_counter()
    speed = HostSpeed()
    setup_s = measure_setup(args, work, speed)
    workdir = os.path.join(work, "run")
    os.makedirs(workdir)
    workload = set_up(args, workdir)
    children = args.workload == "cli-crisp"

    pct = TAIL_PERCENTILE[args.workload]
    pass_started = time.perf_counter()
    untraced = timed_pass(workload, args.seconds, speed)
    print(f"wall time: {pass_started - started:.3f} s for set-ups, "
          f"{time.perf_counter() - pass_started:.3f} s for the untraced pass with its checks")
    e2e, notes = end_to_end(untraced, pct, setup_s, peak_rss_mb(children))
    notes["peak_rss_mb"] = "with the largest child process" if children else "this process"
    print_rows("end-to-end, untraced pass", END_TO_END, e2e, notes)
    print(f"host speed: calibration kernel median {statistics.median(speed.all_samples) * 1000:.6f} ms "
          f"over {len(speed.all_samples)} samples; times above are scaled to {NOMINAL_KERNEL_MS} ms")
    attempted = len(untraced.latencies)
    failures = Counter(untraced.failures)
    if not args.trace:
        return {"correct": failures["failed"] == 0, "attempted": attempted,
                "failed": failures["failed"],
                "metrics": {n: {"value": e2e[n], "unit": u} for n, u in REPORTED_END_TO_END}}

    from tracing import Tracer
    from workloads import instrument_cli, layer_probe, restore_cli

    tr = Tracer()
    saved = instrument_cli(tr)
    try:
        traced = timed_pass(workload, args.seconds, speed, tr)
        probe_failures = 0
        try:
            layer_probe(tr, workload.probe_machines(), workdir)
        except Exception as exc:  # counted like a failed operation
            probe_failures = 1
            traceback.print_exception(exc, file=sys.stderr)
    finally:
        restore_cli(saved)
    t_e2e, t_notes = end_to_end(traced, pct, setup_s, peak_rss_mb(children))
    print_rows("end-to-end, traced pass", END_TO_END, t_e2e, t_notes)
    overhead = {name: t_e2e[name] - e2e[name] for name, _ in END_TO_END[:3]}
    print_rows("tracing overhead (traced minus untraced)", END_TO_END[:3], overhead, {})

    attempted += len(traced.latencies) + len(workload.probe_machines())
    failures.update(traced.failures)
    failures["failed"] += probe_failures
    layers, sources = per_layer(tr, replay_hfe(workload.operands(), args.seed),
                                cli_import_ms(work), failures)
    print_rows("per-layer, traced pass", PER_LAYER, layers, sources)
    ops = len(traced.latencies)
    self_ms = tr.self_ms_by_layer(lambda op: isinstance(op, int))
    print(f"self time by layer, ms per traced op ({ops} ops)")
    for layer, total in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<38} {total / ops:>16.6f} ms")
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tr.write(spans_path)
    print(f"{len(tr.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    return {"correct": failures["failed"] == 0, "attempted": attempted,
            "failed": failures["failed"],
            "metrics": {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["eval-words", "decide-weighted", "cli-crisp"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="number of generated machines or document sets (default: the workload's)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, HERE)
    if args.setup_only:
        set_up(args, args.workdir)
        return 0
    result = benchmark(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
