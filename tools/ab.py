#!/usr/bin/env python3
"""In-process interleaved A/B timing of the default ``oracle-exp`` grid.

The benchmark runs two checkouts in separate processes, one after the other;
on a host whose speed drifts over minutes it cannot resolve a gain of 5-15%.
This tool imports two versions of msgla into one process and alternates the
same op between them, so that drift hits both alike.

    python tools/ab.py [--base REV] [--rounds 12] [--warmup 2] [--seed 7]

``--base`` (default ``HEAD``) is read with ``git archive`` into a temporary
directory; the other arm is the working tree's ``src/msgla``. Each arm is
imported under its own package name, which works because the package imports
its own modules only relatively. A third arm, a second import of the base,
is the A/A control. Every round runs one default-grid ``run_experiment`` op
on each arm, in an order that rotates from round to round.

For each arm the tool prints the median op time and the median count of
minor page faults per op (``getrusage``). A control ratio away from 1.0 next
to unequal fault counts points at heap state (glibc trimming and re-faulting
the heap), not at code. The tool reports only; it changes no gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
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


def timed(op) -> tuple[float, int]:
    """Wall milliseconds and minor page faults of one call of ``op``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    op()
    ms = 1e3 * (time.perf_counter() - start)
    return ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


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
    parser.add_argument("--rounds", type=int, default=12, help="measured rounds, one op per arm each")
    parser.add_argument("--warmup", type=int, default=2, help="unmeasured ops per arm first")
    parser.add_argument("--seed", type=int, default=7, help="grid seed, as in benchmarks/run.py")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="msgla-ab-") as tmp:
        base_dir = extract(args.base, Path(tmp))
        names = ("base", "head", "control")
        dirs = (base_dir, ROOT / "src" / "msgla", base_dir)
        ops = [grid_op(load(f"msgla_ab_{n}", d), args.seed) for n, d in zip(names, dirs)]
        for _ in range(args.warmup):
            for op in ops:
                op()
        results: list[list[tuple[float, int]]] = [[] for _ in ops]
        for r in range(args.rounds):
            for k in range(len(ops)):
                arm = (r + k) % len(ops)
                results[arm].append(timed(ops[arm]))

    print(
        f"default grid, seed {args.seed}: base {args.base} against the working tree, "
        f"{args.rounds} rounds after {args.warmup} warm-up ops per arm"
    )
    for name, arm in zip(names, results):
        print(
            f"  {name:<8} median {statistics.median(ms for ms, _ in arm):8.1f} ms/op, "
            f"{statistics.median(f for _, f in arm):8.0f} minor faults/op"
        )
    compare("A/B", names[:2], results[0], results[1])
    compare("A/A", (names[0], names[2]), results[0], results[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
