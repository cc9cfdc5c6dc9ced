#!/usr/bin/env python3
"""Mutation check: the tier-1 tests must fail on every mutant of ``src/msgla``.

    python tools/mutants.py [NAME ...]

``generate`` makes the mutants from each module's AST, one per site and operator, and names each
by module, enclosing function, operator and source text, never by line number; ``HAND`` adds the
faults that no operator makes. Once an unmutated copy of the tree passes all of tier-1, one worker
per usable CPU runs the mutants, each in a copy of its own: pytest with ``--hypothesis-seed=0``, so
verdicts repeat, on the tier-1 files that import the mutated module, stopping at the first failure.
The mutants that ``mutants_equivalent.txt`` lists, each with the reason no input tells it from the
code, are not run. A module's name selects its mutants, another name the mutants whose names
contain it; with none, every mutant runs. The exit status is 1 when a mutant survives or pytest
cannot run on it, or when a snippet or an equivalents entry no longer matches a mutant. README's
"Mutation check" section lists the operators and how to dispose of a survivor.
"""

from __future__ import annotations

import ast
import collections
import itertools
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENTS = Path(__file__).with_name("mutants_equivalent.txt")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # the file src/msgla/<module>.py
    old: str
    new: str
    start: int = -1  # the offset of ``old`` in the module's text; -1: its one occurrence


# The token of each comparison and sign that a mutant flips, and the token that replaces it.
_SWAPS = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
}


class _Source:
    def __init__(self, text: str):
        self.text = text
        self.lines = text.splitlines(keepends=True)
        self.starts = list(itertools.accumulate(map(len, self.lines), initial=0))

    def at(self, line: int, col: int) -> int:
        # ast counts columns in UTF-8 bytes
        return self.starts[line - 1] + len(self.lines[line - 1].encode()[:col].decode())

    def span(self, node: ast.AST) -> tuple[int, int]:
        return self.at(node.lineno, node.col_offset), self.at(node.end_lineno, node.end_col_offset)

    def token(self, left: ast.AST, right: ast.AST, token: str) -> int:
        """The offset of the operator ``token`` between ``left`` and ``right``."""
        lo, hi = self.span(left)[1], self.span(right)[0]
        return lo + re.sub(r"#.*", lambda m: " " * len(m.group()), self.text[lo:hi]).index(token)


def _edits(src: _Source, node: ast.AST):
    """``(operator, start, old, new)`` for each mutant of ``node``: ``old`` at ``start`` becomes ``new``."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _SWAPS:
        old, new = _SWAPS[type(node.ops[0])]
        yield "compare", src.token(node.left, node.comparators[0], old), old, new
    elif isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
        old, new = _SWAPS[type(node.op)]
        yield "binary", src.token(node.left, node.right, old), old, new
    elif isinstance(node, ast.AugAssign) and type(node.op) in _SWAPS:
        old, new = _SWAPS[type(node.op)]
        yield "binary", src.token(node.target, node.value, old + "="), old + "=", new + "="
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield "unary", src.span(node)[0], "-", ""
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        start, end = src.span(node)
        value = node.value
        for new in dict.fromkeys((type(value)(0), type(value)(1), 10 * value)):
            if new != value:
                yield "constant", start, src.text[start:end], repr(new)
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        start, end = src.span(node)
        yield "call", start, src.text[start:end], "pass"
    elif isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
        start, end = src.span(node.test)
        yield "if-raise", start, src.text[start:end], "False"


def generate(module: str, text: str) -> list[Mutant]:
    """Every operator's mutants of the module ``module`` whose source is ``text``, in source order."""
    src, seen, found = _Source(text), collections.Counter(), []

    def walk(node: ast.AST, scope: str, context: ast.AST | None) -> None:
        # ``context``: the innermost expression around ``node`` that is more than a constant or
        # a negation, which a constant or unary mutant shows; an if-raise mutant shows its test.
        for child in ast.iter_child_nodes(node):
            inner, around = scope, None if isinstance(child, ast.stmt) else context
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(node, (ast.Module, ast.ClassDef)) and isinstance(child, (ast.Assign, ast.AnnAssign)):
                target = child.targets[0] if isinstance(child, ast.Assign) else child.target
                inner = f"{scope}.{target.id}" if isinstance(target, ast.Name) else scope
            if isinstance(child, ast.expr) and not isinstance(child, (ast.Constant, ast.UnaryOp)):
                around = child
            shown = child.test if isinstance(child, ast.If) else around or child
            lo, hi = src.span(shown) if hasattr(shown, "end_col_offset") else (0, 0)
            for op, start, old, new in _edits(src, child):
                before, after = text[lo:hi], text[lo:start] + new + text[start + len(old) : hi]
                name = f"{inner} {op}: {' '.join(before.split())} -> {' '.join(after.split())}"
                seen[name] += 1
                found.append(Mutant(name + (f" #{seen[name]}" if seen[name] > 1 else ""), module, old, new, start))
            walk(child, inner, around)

    walk(ast.parse(text), module, None)
    return found


# (module, description, snippet, replacement) of each fault that no operator makes: a statement
# replaced or inserted, an expression call dropped, an operand changed. Each snippet must occur
# exactly once in its module.
_GRID = "    values, length = _grid(values, cfg, origin_length)\n"
_HAND = [
    (
        "spectral",
        "grid rule dropped from _synthesize",
        "_grid(values, cfg, origin_length)",
        "np.asarray(values, dtype=np.complex128), int(origin_length)",
    ),
    (
        "spectral",
        "an inverse FFT before the grid rule",
        _GRID,
        "    np.fft.irfft(np.asarray(values, dtype=np.complex128), n=cfg.fft_length, axis=1)\n" + _GRID,
    ),
    ("spectral", "grid frame count != -> <", "if frames != values.shape[0]:", "if frames < values.shape[0]:"),
    (
        "spectral",
        "grid whole-number test dropped",
        '_whole_number("origin_length", origin_length, positive=False)',
        "int(origin_length)",
    ),
    (
        "spectral",
        "Spectrogram skips the grid rule",
        "_grid(self.values, self.config, self.origin_length)",
        "np.asarray(self.values, dtype=np.complex128), self.origin_length",
    ),
    # Every function that casts an array argument to float64 holds _real first.
    *(
        (module, f"_real dropped for {name}", f'_real("{name}", {name})', f"np.asarray({name}, dtype=np.float64)")
        for module, names in (("spectral", "angles a b mag phase"), ("metrics", "phase_est phase_ref"))
        for name in names.split()
    ),
    ("spectral", "_real dropped from _estimate", "_real(name, value)", "np.asarray(value, dtype=np.float64)"),
    ("spectral", "halves: no context hand-off", "submit(contextvars.copy_context().run, lambda:", "submit(lambda:"),
    ("spectral", "halves that overlap", "fn(half, rows)", "fn(half - 1, rows)"),
    ("spectral", "halves: Future.cancel() never tried", "if top.cancel():", "if False:"),
    (
        "spectral",
        "halves: a traced layer (wrap_phase) run on the helper",
        "wrap_phase(_angle(values))",
        "_elementwise(lambda a, out: np.copyto(out, wrap_phase(a)), _angle(values))",
    ),
    (
        "spectral",
        "an in-place complex product in recompose",
        "_elementwise(np.multiply, mag, _expj(phase))",
        "_elementwise(lambda m, c, out: np.copyto(out, np.multiply(m, c, out=c)), mag, _expj(phase))",
    ),
    (
        "reconstruct",
        "one loop update dropped",
        "if n < cfg.iterations:\n            z = update(z, projected)",
        "if n < cfg.iterations - 1:\n            z = update(z, projected)",
    ),
    ("reconstruct", "final phase shifted by 8.6e-7 rad", "ReconReport(angles(z),", "ReconReport(angles(z) + 8.6e-7,"),
    ("harness", "supplied key without its provider", "key = (provider, quantity)", "key = quantity"),
    ("harness", "the cell's mixture seed replaced by 0", "pair, mixture.seed, supplied)", "pair, 0, supplied)"),
    (
        "harness",
        "seed-stream tags of mag_noise and phase_noise swapped",
        '"mag_noise": 1, "phase_noise": 2}',
        '"mag_noise": 2, "phase_noise": 1}',
    ),
    ("cli", "audit separation 1e-3 -> 1e-4", "cand_b) > 1e-3", "cand_b) > 1e-4"),
    ("cli", "audit mixture energy 1e-2 -> 1e-3", "(mag_mix > 1e-2 *", "(mag_mix > 1e-3 *"),
]
HAND = [Mutant(f"{module} hand: {description}", module, old, new) for module, description, old, new in _HAND]


def mutants() -> list[Mutant]:
    """The generated mutants of every module of ``src/msgla``, then ``HAND``."""
    paths = sorted((ROOT / "src" / "msgla").glob("*.py"))
    return [m for path in paths for m in generate(path.stem, path.read_text())] + HAND


def equivalents() -> dict[str, str]:
    """Mutant name -> reason, from ``EQUIVALENTS``: a line that starts a name, then the reason's
    indented lines."""
    found = re.findall(r"^([^#\s].*)\n((?:[ \t]+.*\n?)*)", EQUIVALENTS.read_text(), re.MULTILINE)
    return {name.strip(): " ".join(reason.split()) for name, reason in found}


def apply(text: str, mutant: Mutant) -> str | None:
    """``text`` with ``mutant`` applied; ``None`` unless its snippet is where it should be."""
    start = mutant.start
    if start < 0:
        start = text.find(mutant.old) if text.count(mutant.old) == 1 else -1
    if start < 0 or text[start : start + len(mutant.old)] != mutant.old:
        return None
    return text[:start] + mutant.new + text[start + len(mutant.old) :]


def _importers(tests: Path, module: str) -> list[str]:
    """The tier-1 test files that import ``msgla.<module>``, also as ``from msgla import <module>``,
    ``test_<module>.py`` first."""
    found = []
    for path in sorted(tests.glob("test_*.py"), key=lambda p: p.name != f"test_{module}.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in (f"msgla.{module}", "msgla"):
                hit = node.module != "msgla" or module in {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                hit = any(alias.name == f"msgla.{module}" for alias in node.names)
            else:
                continue
            if hit:
                found.append(f"tests/{path.name}")
                break
    return found


def _pytest(tree: Path, files: list[str], stop_first: bool) -> tuple[int, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    args += ["-x"] * stop_first + files
    start = time.perf_counter()
    try:
        code = subprocess.run(args, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.perf_counter() - start


def _run(tree: Path, mutant: Mutant) -> tuple[str, str]:
    source = tree / "src" / "msgla" / f"{mutant.module}.py"
    text = source.read_text()
    mutated = apply(text, mutant)
    if mutated is None:
        return "STALE", f"its snippet does not occur once in {mutant.module}.py"
    source.write_text(mutated)
    try:
        files = _importers(tree / "tests", mutant.module)
        code, seconds = _pytest(tree, files, stop_first=True)
    finally:
        source.write_text(text)
    # pytest exits 2 on an error collecting a test file, 3 on one inside pytest: a module that
    # raises on import fails tier-1 that way.
    verdict = {0: "SURVIVED", 1: "killed", 2: "killed (exit 2)", 3: "killed (exit 3)", -1: "killed (timeout)"}.get(
        code, f"ERROR (pytest exit {code})"
    )
    return verdict, f"{len(files)} files, {seconds:.0f} s"


def main(argv: list[str]) -> int:
    every, listed = mutants(), equivalents()
    bad = len(missing := sorted(set(listed) - {m.name for m in every}))
    for name in missing:
        print(f"STALE     equivalents entry {name!r} names no mutant")
    modules = {m.module for m in every}
    chosen = [m for m in every if not argv or any(m.module == w if w in modules else w in m.name for w in argv)]
    if not chosen:
        print(f"no mutant matches {argv}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from msgla.spectral import _usable_cpus

    workers = min(_usable_cpus(), len(chosen))
    counts: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
    with tempfile.TemporaryDirectory(prefix="msgla-mutants-") as scratch:
        trees: queue.SimpleQueue[Path] = queue.SimpleQueue()
        for k in range(workers):
            tree = Path(scratch) / f"tree{k}"
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", ".hypothesis", "__pycache__"))
            trees.put(tree)
        code, seconds = _pytest(Path(scratch) / "tree0", ["tests"], stop_first=False)
        if code != 0:
            print(f"the unmutated copy fails tier-1 (pytest exit {code}); no mutant was run", file=sys.stderr)
            return 1
        print(f"control: tier-1 passes unmutated ({seconds:.0f} s); {workers} workers", flush=True)

        def job(mutant: Mutant) -> tuple[str, str]:
            if mutant.name in listed:
                return "equivalent", "listed"
            tree = trees.get()
            try:
                return _run(tree, mutant)
            finally:
                trees.put(tree)

        with ThreadPoolExecutor(workers) as pool:
            for mutant, (verdict, note) in zip(chosen, pool.map(job, chosen)):
                counts[mutant.module][verdict.split()[0]] += 1
                bad += not verdict.startswith(("killed", "equivalent"))
                print(f"{verdict:<9} {mutant.name} ({note})", flush=True)
    for module, count in counts.items():
        tally = ", ".join(f"{n} {verdict}" for verdict, n in sorted(count.items()))
        print(f"{module}: {sum(count.values())} mutants, {tally}")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed or equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
