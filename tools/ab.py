#!/usr/bin/env python3
"""Interleaved A/B timing of a benchmark workload's op or set-up, or of whole benchmark runs.

The benchmark runs two checkouts in separate processes, one after the other;
on a host whose speed drifts over minutes it cannot resolve a gain of 5-15%.
This tool alternates the same op between two versions of msgla, so that
drift hits both alike.

    python tools/ab.py [--workload oracle_grid] [--base REV] [--rounds 12] [--warmup 2] [--seed 7] [--setup]
    python tools/ab.py --bench [--workload oracle_grid] [--pairs 10] [--base REV] [--seed 0]

``--base`` (default ``HEAD``) is read with ``git archive`` into a temporary
directory; the other arm is the working tree's ``src/msgla``. A third arm, a
second copy of the base, is the A/A control. Each arm is imported into this
process under its own package name, which works because the package imports
its own modules only relatively.

The op is the op of ``--workload`` in ``benchmarks/workloads.py``. The tool
imports ``benchmarks/run.py``, which pins the BLAS/OpenMP pools to one
thread as in the benchmark, and writes no bytecode there. It sets the
workload up from ``--seed`` on each arm, with that arm's modules, and runs
every op through the arm's own ``run.Checker``. So each op is timed over
the benchmark's own region and passes the benchmark's checks: finite
results, repeats identical within an arm, and at seed 0 the values stored
in ``benchmarks/reference``. An op that fails a check stops the tool with an
error naming the arm. ``cli_cold`` ops are fresh ``python -m msgla``
processes with the arm's ``src`` directory on ``PYTHONPATH``. Every round
runs one op of each input kind on each arm, cycling over the kind's inputs,
in an order that rotates from round to round. With ``--setup`` the op is
the workload's set-up itself, unchecked: for ``long_clip``, mixture
synthesis and perturbed-oracle estimates for 4 clips of 10 s, the
in-process part of the benchmark's ``setup_s``.

For each arm and input kind the tool prints the median op time and the
median count of minor page faults per op (``getrusage``: of this process,
or of the children for a workload that is not in-process). A control ratio
away from 1.0 next to unequal fault counts points at heap state (glibc
trimming and re-faulting the heap), not at code. Fault counts are not a
property of an arm's code alone. They depend on the directory an arm is
imported from: one source read 8.3k faults per ``oracle-exp`` child from
one directory and 9.9k from a copy. In-process, they also depend on how
many arms share the heap: a change that cut a single-package ``long_clip``
loop by 4.6k faults per op read 6.5k more per op than its base as one of
this tool's three arms. Compare fault counts between arms only next to the
A/A control, and confirm a fault change in a process that imports one
package.

With ``--bench`` each arm is a whole ``benchmarks/run.py`` run, as the
benchmark's own comparison makes them: ``--workload WORKLOAD --seed SEED
--trace 0`` for the ``run_seconds`` of ``BENCHMARK.json``, in a fresh
process, from a directory holding ``src/msgla`` and ``benchmarks``. The
base directory is a ``git archive`` of both; the head directory is a copy of
the working tree's. A pair runs base and head one after the other, and the
order flips from pair to pair. In-process rounds can overstate a gain that
the real runs do not show: rounds of a change that split kernels across two
threads read 1.26-1.35x, its real runs ~1.2x. For every end-to-end metric
the tool prints each pair, each side's median and quartiles, the pairs the
head won (ties count for neither side) and whether a claimed gain would
hold: the head wins at least nine tenths of the pairs, and the medians
differ, in the metric's better direction, by more than the distance
between the base's quartiles.

The tool reports only; it changes no gate.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Importing run pins the BLAS/OpenMP pools before any arm imports numpy.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "benchmarks"))
import run  # noqa: E402
from run import workloads  # noqa: E402


def extract(rev: str, dest: Path, *paths: str) -> Path:
    """Write ``src/msgla`` (and ``paths``) as of ``rev`` under ``dest``; return the package directory."""
    archive = subprocess.run(
        ["git", "archive", rev, "src/msgla", *paths], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src" / "msgla"


def load(name: str, package_dir: Path):
    """Import the package in ``package_dir`` as top-level package ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def namespace(package) -> SimpleNamespace:
    """``package`` and its modules, as ``workloads.import_msgla`` would return them."""
    modules = ("spectral", "geometry", "reconstruct", "metrics", "harness", "audio_io", "cli")
    return SimpleNamespace(
        msgla=package, **{name: importlib.import_module(f"{package.__name__}.{name}") for name in modules}
    )


def arm_ops(arm: str, m, args, workdir: Path, reference) -> dict:
    """One arm's ops by input kind; each returns its milliseconds and minor page faults.

    An op is the workload's set-up with ``args.setup``, else the workload's op
    on the next input of its kind, run through the arm's own ``run.Checker``.
    """
    workload = workloads.WORKLOADS[args.workload]
    if args.setup:

        def setup():
            start = time.perf_counter()
            workload.setup(m, args.seed, False, workdir)
            return time.perf_counter() - start

        return {"setup": lambda: faulted(setup, resource.RUSAGE_SELF)}
    checker = run.Checker(workload, reference)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN

    def checked(inputs):
        done = checker.run(m, next(inputs), workload.in_process)
        if done is None:
            sys.exit(f"error: the {arm} arm failed a check of the {workload.name} op (traceback above)")
        return done[0]

    by_kind = {}
    for inp in workload.setup(m, args.seed, False, workdir):
        by_kind.setdefault(inp.kind, []).append(inp)
    return {
        kind: lambda inputs=itertools.cycle(group): faulted(lambda: checked(inputs), who)
        for kind, group in by_kind.items()
    }


def faulted(op, who) -> tuple[float, int]:
    """The seconds ``op`` returns, in milliseconds, and the minor page faults (of ``who``) it took."""
    faults = resource.getrusage(who).ru_minflt
    seconds = op()
    return 1e3 * seconds, resource.getrusage(who).ru_minflt - faults


def compare(label: str, names, first, second) -> None:
    ratios = [a[0] / b[0] for a, b in zip(first, second)]
    wins = sum(r > 1.0 for r in ratios)
    print(
        f"{label}: median ratio {names[0]}/{names[1]} {statistics.median(ratios):.3f}, "
        f"{names[1]} faster in {wins}/{len(ratios)} rounds"
    )
def bench_run(root: Path, workload: str, seed: int) -> dict:
    """One ``benchmarks/run.py`` run from ``root``; its last output line, parsed."""
    argv = [
        sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench(args) -> int:
    """Alternate whole benchmark runs of the base and the working tree; judge each end-to-end metric."""
    names = ("base", "head")
    runs = {name: [] for name in names}
    with tempfile.TemporaryDirectory(prefix="msgla-ab-") as tmp:
        roots = (Path(tmp) / "base", Path(tmp) / "head")
        extract(args.base, roots[0], "benchmarks")
        ignore = shutil.ignore_patterns("__pycache__", ".bench_tmp")
        for part in ("src/msgla", "benchmarks"):
            shutil.copytree(ROOT / part, roots[1] / part, ignore=ignore)
        for pair in range(args.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for arm in order:
                runs[names[arm]].append(bench_run(roots[arm], args.workload, args.seed))
            print(
                f"pair {pair + 1}: " + ", ".join(
                    f"{names[arm]} correct {runs[names[arm]][-1]['correct']}" for arm in order
                ),
                flush=True,
            )
    print(
        f"benchmarks/run.py --workload {args.workload} --seed {args.seed}, {BENCHMARK['run_seconds']} s a run: "
        f"base {args.base} against the working tree, {args.pairs} pairs"
    )
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        values = {side: [run["metrics"].get(name, {}).get("value") for run in runs[side]] for side in names}
        if None in values["base"] + values["head"]:
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (h - b) > 0 for b, h in zip(values["base"], values["head"]))
        print(f"{name} ({metric['unit']}, {metric['better']} is better):")
        print("  pairs (base, head): " + ", ".join(f"({b:.4g}, {h:.4g})" for b, h in zip(*values.values())))
        quartiles = {}
        for side in names:
            quartiles[side] = q1, median, q3 = statistics.quantiles(values[side], n=4)
            print(f"  {side:<5} median {median:.4g}, quartiles {q1:.4g} / {q3:.4g}")
        gain = sign * (quartiles["head"][1] - quartiles["base"][1])
        spread = quartiles["base"][2] - quartiles["base"][0]
        holds = 10 * wins >= 9 * args.pairs and gain > spread
        print(
            f"  head better in {wins}/{args.pairs} pairs; median gain {gain:.4g} against the base's "
            f"interquartile range {spread:.4g}: a claimed gain {'holds' if holds else 'does not hold'}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="oracle_grid", choices=sorted(workloads.WORKLOADS), help="benchmark workload to time"
    )
    parser.add_argument("--base", default="HEAD", help="git revision of the base arm")
    parser.add_argument("--rounds", type=int, default=12, help="measured rounds, one op per arm and kind each")
    parser.add_argument("--warmup", type=int, default=2, help="unmeasured ops per arm and kind first")
    parser.add_argument("--seed", type=int, default=7, help="workload seed, as in benchmarks/run.py")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true", help="time the workload's set-up instead of its op")
    mode.add_argument("--bench", action="store_true", help="alternate whole benchmarks/run.py runs")
    parser.add_argument("--pairs", type=int, default=10, help="base/head run pairs with --bench")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.bench:
        return bench(args)

    reference = None
    if args.seed == run.DEFAULT_SEED and not args.setup:
        reference = json.loads((run.REFERENCE / f"{args.workload}.json").read_text())
    names = ("base", "head", "control")
    with tempfile.TemporaryDirectory(prefix="msgla-ab-") as tmp:
        tmp = Path(tmp)
        dirs = (extract(args.base, tmp / "base"), ROOT / "src" / "msgla", extract(args.base, tmp / "control"))
        arms = [
            arm_ops(name, namespace(load(f"msgla_ab_{name}", d)), args, tmp / name, reference)
            for name, d in zip(names, dirs)
        ]
        ops = {kind: [arm[kind] for arm in arms] for kind in arms[0]}
        for _ in range(args.warmup):
            for kind_ops in ops.values():
                for op in kind_ops:
                    op()
        results = {kind: [[] for _ in names] for kind in ops}
        for r in range(args.rounds):
            for kind, kind_ops in ops.items():
                for k in range(len(names)):
                    arm = (r + k) % len(names)
                    results[kind][arm].append(kind_ops[arm]())

    print(
        f"the benchmark's {args.workload} {'set-up' if args.setup else 'op'}, seed {args.seed}"
        f"{', checked against benchmarks/reference' if reference else ''}: base {args.base} against the "
        f"working tree, {args.rounds} rounds after {args.warmup} warm-up ops per arm and kind"
    )
    for kind, by_arm in results.items():
        print(f"{kind}:")
        for name, arm in zip(names, by_arm):
            print(
                f"  {name:<8} median {statistics.median(ms for ms, _ in arm):8.1f} ms/op, "
                f"{statistics.median(f for _, f in arm):8.0f} minor faults/op"
            )
        compare("  A/B", names[:2], by_arm[0], by_arm[1])
        compare("  A/A", (names[0], names[2]), by_arm[0], by_arm[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
