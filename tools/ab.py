#!/usr/bin/env python3
"""Interleaved A/B timing of the default ``oracle-exp`` grid, the ``long_clip`` op or set-up, CLI start-up, or benchmark runs.

The benchmark runs two checkouts in separate processes, one after the other;
on a host whose speed drifts over minutes it cannot resolve a gain of 5-15%.
This tool alternates the same op between two versions of msgla, so that
drift hits both alike.

    python tools/ab.py [--base REV] [--rounds 12] [--warmup 2] [--seed 7] [--long-clip | --setup | --cli]
    python tools/ab.py --bench WORKLOAD [--pairs 10] [--base REV] [--seed 0]

``--base`` (default ``HEAD``) is read with ``git archive`` into a temporary
directory; the other arm is the working tree's ``src/msgla``. A third arm, a
second copy of the base, is the A/A control. Every round runs one op of each
kind on each arm, in an order that rotates from round to round.

By default the op is one default-grid ``run_experiment`` call, and each
arm is imported into this process under its own package name, which works
because the package imports its own modules only relatively. With
``--long-clip`` the op is the benchmark's own ``long_clip`` op: the tool
imports ``benchmarks/workloads.py`` (read-only, no bytecode written there)
and calls ``LongClip.setup`` and ``LongClip.op`` with each arm's modules as
the namespace that ``workloads.import_msgla`` would build. Each arm sets up
its own 4 clips of 10 s from ``--seed`` and runs them in turn, so that every
arm runs the same clip in a round. With ``--setup`` the op is
``LongClip.setup`` itself: mixture synthesis and perturbed-oracle estimates
for 4 clips of 10 s from ``--seed``, the in-process part of the benchmark's
``long_clip`` ``setup_s``. In-process ops run with the BLAS/OpenMP
pools pinned to one thread, as in the benchmark. With ``--cli`` the ops are
fresh ``python -m msgla`` processes, as in the benchmark's ``cli_cold``
workload: ``enhance --method nm`` on a 1 s WAV triple written once, and a
one-mixture ``oracle-exp``; and also ``candidates`` on a 10 s triple, which
no benchmark workload runs. Each child runs with ``PYTHONPATH`` set to its
arm's ``src`` directory.

For each arm and op kind the tool prints the median op time and the median
count of minor page faults per op (``getrusage``; of the child with
``--cli``). A control ratio away from 1.0 next to unequal fault counts
points at heap state (glibc trimming and re-faulting the heap), not at code.
Fault counts are not a property of an arm's code alone. They depend on the
directory an arm is imported from: one source read 8.3k faults per
``oracle-exp`` child from one directory and 9.9k from a copy. In-process,
they also depend on how many arms share the heap: a change that cut a
single-package ``long_clip`` loop by 4.6k faults per op read 6.5k more per
op than its base as one of this tool's three arms. Compare fault counts
between arms only next to the A/A control, and confirm a fault change in a
process that imports one package.

With ``--bench WORKLOAD`` each arm is a whole ``benchmarks/run.py`` run, as
the benchmark's own comparison makes them: ``--workload WORKLOAD --seed
SEED --trace 0`` for the ``run_seconds`` of ``BENCHMARK.json``, in a fresh
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
import os
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
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


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


def grid_op(package, seed: int):
    """The benchmark's default grid: 15 harmonic mixtures, nm and np, 2x2 providers."""
    h = package.harness
    mixtures = [
        h.MixtureSpec(kind="harmonic", snr_db=snr, seed=5 * seed + i)
        for snr in (-6.0, 0.0, 6.0)
        for i in range(5)
    ]
    spec = h.ExperimentSpec(mixtures=mixtures)
    return lambda: h.run_experiment(spec)


def load_workloads():
    """``benchmarks/workloads.py`` as a module, imported without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("msgla_ab_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def namespace(package) -> SimpleNamespace:
    """``package`` and its modules, as ``workloads.import_msgla`` would return them."""
    modules = ("spectral", "geometry", "reconstruct", "metrics", "harness", "audio_io", "cli")
    return SimpleNamespace(
        msgla=package, **{name: importlib.import_module(f"{package.__name__}.{name}") for name in modules}
    )


def long_clip_op(package, seed: int, workloads, workdir: Path):
    """The benchmark's ``long_clip`` op on ``package``, cycling over the clips it sets up."""
    m = namespace(package)
    clip = workloads.LongClip()
    inputs = itertools.cycle(clip.setup(m, seed, False, workdir))
    return lambda: clip.op(m, next(inputs), True)


def long_clip_setup(package, seed: int, workloads, workdir: Path):
    """The benchmark's ``long_clip`` set-up on ``package``: 4 clips of 10 s and their estimates."""
    m = namespace(package)
    clip = workloads.LongClip()
    return lambda: clip.setup(m, seed, False, workdir)


def cli_ops(src: Path, work: Path, out: Path, seed: int) -> dict:
    """``enhance``, ``oracle-exp`` and ``candidates`` ops that each start ``python -m msgla`` from ``src``.

    They read the WAV triples in ``work`` (``candidates`` the 10 s one) and
    write under ``out``.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in THREAD_VARS:
        env[var] = "1"
    argvs = {
        "enhance": [
            "enhance", str(work / "noisy.wav"), "--method", "nm",
            "--oracle-clean", str(work / "clean.wav"), "--oracle-noise", str(work / "noise.wav"),
            "--out", str(out / "enhanced.wav"),
        ],
        "oracle-exp": [
            "oracle-exp", "--seeds", str(seed), "--snr-grid", "0", "--jobs", "1",
            "--out-dir", str(out / "oracle"),
        ],
        "candidates": [
            "candidates", *(str(work / f"long_{part}.wav") for part in ("noisy", "clean", "noise")),
            "--out", str(out / "candidates.csv"),
        ],
    }
    return {
        kind: lambda argv=argv: subprocess.run(
            [sys.executable, "-m", "msgla", *argv], env=env, check=True, stdout=subprocess.DEVNULL
        )
        for kind, argv in argvs.items()
    }


def timed(op, who=resource.RUSAGE_SELF) -> tuple[float, int]:
    """Wall milliseconds and minor page faults (of ``who``) of one call of ``op``."""
    faults = resource.getrusage(who).ru_minflt
    start = time.perf_counter()
    op()
    ms = 1e3 * (time.perf_counter() - start)
    return ms, resource.getrusage(who).ru_minflt - faults


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
                runs[names[arm]].append(bench_run(roots[arm], args.bench, args.seed))
            print(
                f"pair {pair + 1}: " + ", ".join(
                    f"{names[arm]} correct {runs[names[arm]][-1]['correct']}" for arm in order
                ),
                flush=True,
            )
    print(
        f"benchmarks/run.py --workload {args.bench} --seed {args.seed}, {BENCHMARK['run_seconds']} s a run: "
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
    parser.add_argument("--base", default="HEAD", help="git revision of the base arm")
    parser.add_argument("--rounds", type=int, default=12, help="measured rounds, one op per arm and kind each")
    parser.add_argument("--warmup", type=int, default=2, help="unmeasured ops per arm and kind first")
    parser.add_argument("--seed", type=int, default=7, help="grid or mixture seed, as in benchmarks/run.py")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--long-clip", action="store_true", help="time the benchmark's long_clip op")
    mode.add_argument("--setup", action="store_true", help="time the benchmark's long_clip set-up")
    mode.add_argument("--cli", action="store_true", help="time fresh python -m msgla processes")
    mode.add_argument(
        "--bench",
        metavar="WORKLOAD",
        choices=[w["name"] for w in BENCHMARK["workloads"]],
        help="alternate whole benchmarks/run.py runs of WORKLOAD",
    )
    parser.add_argument("--pairs", type=int, default=10, help="base/head run pairs with --bench")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.bench:
        return bench(args)
    # As in the benchmark, before any arm imports numpy.
    for var in THREAD_VARS:
        os.environ[var] = "1"

    names = ("base", "head", "control")
    with tempfile.TemporaryDirectory(prefix="msgla-ab-") as tmp:
        tmp = Path(tmp)
        base_dir = extract(args.base, tmp / "base")
        head_dir = ROOT / "src" / "msgla"
        if args.cli:
            who = resource.RUSAGE_CHILDREN
            dirs = (base_dir, head_dir, extract(args.base, tmp / "control"))
            head = load("msgla_ab_inputs", head_dir)
            for prefix, seconds in (("", 1.0), ("long_", 10.0)):
                triple = head.harness.synthesize_mixture("harmonic", 0.0, seconds, seed=args.seed)
                for part in ("noisy", "clean", "noise"):
                    head.audio_io.write_wav(getattr(triple, part), tmp / f"{prefix}{part}.wav")
            arms = [cli_ops(d.parent, tmp, tmp / n, args.seed) for n, d in zip(names, dirs)]
            ops = {kind: [arm[kind] for arm in arms] for kind in arms[0]}
        else:
            who = resource.RUSAGE_SELF
            packages = [load(f"msgla_ab_{n}", d) for n, d in zip(names, (base_dir, head_dir, base_dir))]
            if args.long_clip or args.setup:
                workloads = load_workloads()
                kind, make = ("long_clip", long_clip_op) if args.long_clip else ("setup", long_clip_setup)
                ops = {kind: [make(p, args.seed, workloads, tmp) for p in packages]}
            else:
                ops = {"grid": [grid_op(p, args.seed) for p in packages]}
        for _ in range(args.warmup):
            for kind_ops in ops.values():
                for op in kind_ops:
                    op()
        results = {kind: [[] for _ in names] for kind in ops}
        for r in range(args.rounds):
            for kind, kind_ops in ops.items():
                for k in range(len(names)):
                    arm = (r + k) % len(names)
                    results[kind][arm].append(timed(kind_ops[arm], who))

    what = (
        "fresh python -m msgla processes" if args.cli
        else "the benchmark's long_clip op" if args.long_clip
        else "the benchmark's long_clip set-up" if args.setup
        else "default grid"
    )
    print(
        f"{what}, seed {args.seed}: base {args.base} against the working tree, "
        f"{args.rounds} rounds after {args.warmup} warm-up ops per arm and kind"
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
