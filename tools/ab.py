#!/usr/bin/env python3
"""Interleaved A/B timing of the default ``oracle-exp`` grid or of CLI start-up.

The benchmark runs two checkouts in separate processes, one after the other;
on a host whose speed drifts over minutes it cannot resolve a gain of 5-15%.
This tool alternates the same op between two versions of msgla, so that
drift hits both alike.

    python tools/ab.py [--base REV] [--rounds 12] [--warmup 2] [--seed 7] [--cli]

``--base`` (default ``HEAD``) is read with ``git archive`` into a temporary
directory; the other arm is the working tree's ``src/msgla``. A third arm, a
second copy of the base, is the A/A control. Every round runs one op of each
kind on each arm, in an order that rotates from round to round.

Without ``--cli`` the op is one default-grid ``run_experiment`` call, and
each arm is imported into this process under its own package name, which
works because the package imports its own modules only relatively. With
``--cli`` the ops are fresh ``python -m msgla`` processes, as in the
benchmark's ``cli_cold`` workload: ``enhance --method nm`` on a 1 s WAV
triple written once, and a one-mixture ``oracle-exp``. Each child runs with
``PYTHONPATH`` set to its arm's ``src`` directory.

For each arm and op kind the tool prints the median op time and the median
count of minor page faults per op (``getrusage``; of the child with
``--cli``). A control ratio away from 1.0 next to unequal fault counts
points at heap state (glibc trimming and re-faulting the heap), not at code.
The tool reports only; it changes no gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> Path:
    """Write ``src/msgla`` as of ``rev`` under ``dest``; return the package directory."""
    archive = subprocess.run(
        ["git", "archive", rev, "src/msgla"], cwd=ROOT, check=True, capture_output=True
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


def cli_ops(src: Path, work: Path, out: Path, seed: int) -> dict:
    """``enhance`` and ``oracle-exp`` ops that each start ``python -m msgla`` from ``src``.

    They read the WAV triple in ``work`` and write under ``out``.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base arm")
    parser.add_argument("--rounds", type=int, default=12, help="measured rounds, one op per arm and kind each")
    parser.add_argument("--warmup", type=int, default=2, help="unmeasured ops per arm and kind first")
    parser.add_argument("--seed", type=int, default=7, help="grid or mixture seed, as in benchmarks/run.py")
    parser.add_argument("--cli", action="store_true", help="time fresh python -m msgla processes")
    args = parser.parse_args(argv)

    names = ("base", "head", "control")
    with tempfile.TemporaryDirectory(prefix="msgla-ab-") as tmp:
        tmp = Path(tmp)
        base_dir = extract(args.base, tmp / "base")
        head_dir = ROOT / "src" / "msgla"
        if args.cli:
            who = resource.RUSAGE_CHILDREN
            dirs = (base_dir, head_dir, extract(args.base, tmp / "control"))
            head = load("msgla_ab_inputs", head_dir)
            triple = head.harness.synthesize_mixture("harmonic", 0.0, 1.0, seed=args.seed)
            for part in ("noisy", "clean", "noise"):
                head.audio_io.write_wav(getattr(triple, part), tmp / f"{part}.wav")
            arms = [cli_ops(d.parent, tmp, tmp / n, args.seed) for n, d in zip(names, dirs)]
            ops = {kind: [arm[kind] for arm in arms] for kind in arms[0]}
        else:
            who = resource.RUSAGE_SELF
            dirs = (base_dir, head_dir, base_dir)
            ops = {"grid": [grid_op(load(f"msgla_ab_{n}", d), args.seed) for n, d in zip(names, dirs)]}
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

    what = "fresh python -m msgla processes" if args.cli else "default grid"
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
