#!/usr/bin/env python3
"""msgla benchmark: closed-loop workloads with output checks and a traced run.

Run from the root of a checkout, which must hold ``src/msgla``:

    python3 benchmarks/run.py --workload oracle_grid --seed 0 --seconds 20 --trace 0

One client runs one op at a time for ``--seconds`` seconds after set-up and
one warm-up op per op kind. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it is a record of the machine, the sample
counts and the exact counters. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pin the BLAS/OpenMP pools before numpy loads, here and in every child, so
# the load never exceeds the cores it runs on.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_tmp"
REFERENCE = Path(__file__).resolve().parent / "reference"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
DEFAULT_SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up, no reference check")
    parser.add_argument("--write-reference", action="store_true", help="store this seed's result tables")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fft = "pocketfft" if hasattr(numpy.fft, "_pocketfft") else "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": f"numpy.fft ({fft})",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


class Checker:
    """Output checks for every op; a failed check counts against the run."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, dict] = {}
        self.gains: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, m, inp, in_process: bool):
        """Time one op and check its output; return (seconds, raw result) or None."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            raw = self.workload.op(m, inp, in_process)
            seconds = time.perf_counter() - start
            outcome = self.workload.table(m, inp, raw)
            workloads.check_finite(outcome.table)
            if inp.key not in self.first:
                self.first[inp.key] = outcome.table
                self.gains[inp.key] = outcome.gain_db
                if self.reference is not None:
                    if inp.key not in self.reference:
                        raise AssertionError(f"no reference values stored for {inp.key}")
                    workloads.check_reference(outcome.table, self.reference[inp.key])
            elif outcome.table != self.first[inp.key]:
                changed = [k for k in outcome.table if outcome.table[k] != self.first[inp.key].get(k)]
                raise AssertionError(f"{inp.key}: repeated op changed {changed[:5]}")
        except Exception:  # every failure is counted and its traceback kept
            self.failed += 1
            print(f"op {inp.key} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return seconds, raw

    def fail(self, message: str) -> None:
        self.failed += 1
        print(message, file=sys.stderr)


def measure_setup(args, workload, workdir):
    """Median set-up time over fresh processes plus this one; returns (median, inputs, m)."""
    repeats = 2 if args.smoke else SETUP_REPEATS
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    for _ in range(repeats - 1):
        code, _, out, err = workloads.run_child(argv)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {err.strip()}")
        samples.append(float(out.strip().splitlines()[-1]))
    seconds, inputs, m = timed_setup(args, workload, workdir)
    samples.append(seconds)
    return statistics.median(samples), samples, inputs, m


def timed_setup(args, workload, workdir):
    start = time.perf_counter()
    m = workloads.import_msgla(SRC)
    inputs = workload.setup(m, args.seed, args.smoke, workdir)
    return time.perf_counter() - start, inputs, m


def warm_up(m, checker, inputs, in_process):
    done = set()
    for inp in inputs:
        if inp.kind not in done:
            done.add(inp.kind)
            checker.run(m, inp, in_process)


def cycle(inputs, seconds, minimum):
    """Yield inputs round-robin until ``seconds`` pass and ``minimum`` were yielded."""
    deadline = time.perf_counter() + seconds
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        yield inputs[count % len(inputs)]
        count += 1


def latency(times_by_kind, inputs):
    """(mean over kinds of the median op s, cells per s, mean median s per clip)."""
    kinds = {inp.kind: inp for inp in inputs}
    medians = {kind: statistics.median(times_by_kind[kind]) for kind in kinds}
    op_s = sum(medians.values()) / len(medians)
    cells_per_s = sum(kinds[k].cells for k in kinds) / sum(medians.values())
    clip_s = sum(medians[k] / kinds[k].clips for k in kinds) / len(kinds)
    return op_s, cells_per_s, clip_s


def end_to_end(args, workload, m, inputs, checker, setup_s):
    in_process = workload.in_process
    warm_up(m, checker, inputs, in_process)
    times = {inp.kind: [] for inp in inputs}
    peak_child_kb = 0
    for inp in cycle(inputs, args.seconds, len(inputs)):
        done = checker.run(m, inp, in_process)
        if done is not None:
            times[inp.kind].append(done[0])
            if not in_process:
                peak_child_kb = max(peak_child_kb, done[1])
    if not all(times.values()):
        return None, times
    op_s, cells_per_s, clip_s = latency(times, inputs)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (cells_per_s, "cells/s"),
        "clip_ms_p50": (1e3 * clip_s, "ms"),
        "cli_ms_p50": (1e3 * op_s, "ms"),
        "si_snr_gain_db": (statistics.fmean(checker.gains.values()), "dB"),
        "peak_rss_mb": ((own_kb if in_process else peak_child_kb) / 1024.0, "MB"),
        "success_rate": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }
    return metrics, times


def importtime_probe():
    """Median cumulative import times of msgla.cli and scipy.io, in ms."""
    cli, scipy_io = [], []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, _, err = workloads.run_child(
            [sys.executable, "-X", "importtime", "-c", "import msgla.cli"], env=workloads.child_env(SRC)
        )
        if code != 0:
            raise RuntimeError(f"import probe exited {code}: {err.strip()[-500:]}")
        times = tracer.parse_importtime(err)
        cli.append(times["msgla.cli"])
        scipy_io.append(times.get("scipy.io", 0.0))
    return statistics.median(cli), statistics.median(scipy_io)


def traced(args, workload, m, inputs, checker):
    """Alternate untraced and traced ops of every input, all in this process."""
    warm_up(m, checker, inputs, True)
    trace = tracer.Tracer(m)
    plain = {inp.key: [] for inp in inputs}
    wrapped = {inp.key: [] for inp in inputs}
    op_index = 0
    for inp in cycle(inputs, args.seconds, len(inputs)):
        done = checker.run(m, inp, True)
        if done is not None:
            plain[inp.key].append(done[0])
        trace.install(op_index)
        try:
            done = checker.run(m, inp, True)
        finally:
            trace.uninstall()
        if done is not None:
            wrapped[inp.key].append((op_index, done[0]))
        op_index += 1

    per_op = trace.per_op()
    by_input, exact, overhead = [], {}, []
    for inp in inputs:
        if not wrapped[inp.key] or not plain[inp.key]:
            checker.fail(f"{inp.key}: no complete untraced and traced op pair")
            continue
        rows = []
        for index, seconds in wrapped[inp.key]:
            row = dict(per_op.get(index, {}))
            row["op_ms"] = 1e3 * seconds
            row["unattributed_ms"] = row["op_ms"] - row.get("root_ms", 0.0)
            rows.append(row)
        counts = {k: v for k, v in rows[0].items() if tracer.is_exact(k)}
        for row in rows[1:]:
            if {k: v for k, v in row.items() if tracer.is_exact(k)} != counts:
                checker.fail(f"{inp.key}: exact counters changed between traced ops")
        exact[inp.key] = counts
        times = {k for row in rows for k in row if not tracer.is_exact(k)}
        by_input.append({**counts, **{k: statistics.median(row.get(k, 0.0) for row in rows) for k in times}})
        overhead.append(1e3 * statistics.median(s for _, s in wrapped[inp.key]) - 1e3 * statistics.median(plain[inp.key]))
    if len(by_input) != len(inputs):
        return None, exact
    keys = {k for row in by_input for k in row}
    totals = {k: statistics.fmean(row.get(k, 0) for row in by_input) for k in keys}
    return tracer.per_layer(totals, *importtime_probe(), statistics.fmean(overhead)), exact


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "msgla" / "__init__.py").is_file():
        print(f"error: {SRC / 'msgla'} not found; run from the root of an msgla checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.setup_only:
            seconds, _, _ = timed_setup(args, workload, workdir)
            print(repr(seconds))
            return 0
        setup_s, setup_samples, inputs, m = measure_setup(args, workload, workdir)
        reference = None
        ref_path = REFERENCE / f"{workload.name}.json"
        if args.seed == DEFAULT_SEED and not args.smoke and not args.write_reference:
            reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
        checker = Checker(workload, reference)
        if args.write_reference:
            for inp in inputs:
                checker.run(m, inp, True)
            tables = {k: workloads.reference_values(t) for k, t in checker.first.items()}
            ref_path.parent.mkdir(exist_ok=True)
            ref_path.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
            print(f"wrote {ref_path}", file=sys.stderr)
            return 0 if checker.failed == 0 else 1
        if args.trace:
            metrics, counters = traced(args, workload, m, inputs, checker)
            samples = {}
        else:
            metrics, samples = end_to_end(args, workload, m, inputs, checker, setup_s)
            samples = {kind: [round(1e3 * s, 3) for s in values] for kind, values in samples.items()}
            counters = {}
        record = {
            "machine": machine_record(args.seed),
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "setup_samples_s": setup_samples,
            "op_ms": samples,
            "exact_counters": counters,
            "si_snr_gain_db_by_input": checker.gains,
        }
        print(json.dumps({"record": record}, sort_keys=True))
        if metrics is None:
            print("error: some input completed no op; no metrics", file=sys.stderr)
            metrics = {}
        result = {
            "correct": checker.failed == 0 and bool(metrics),
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
