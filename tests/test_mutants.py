"""The mutation check's own bookkeeping, without running a mutant: ``tools/mutants.py``."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def _files():
    paths = [p for d in ("src", "tools", "tests") for p in (ROOT / d).rglob("*")]
    return {p: (p.stat().st_mtime_ns, p.stat().st_size) for p in paths}


def test_two_generations_list_the_same_mutants_and_write_no_file(tool):
    before = _files()
    first, second = tool.mutants(), tool.mutants()
    assert _files() == before
    assert first == second
    names = Counter(m.name for m in first)
    assert [name for name, n in names.items() if n > 1] == []
    assert {m.module for m in first} >= {"spectral", "reconstruct", "geometry", "metrics"}


def test_every_equivalents_entry_names_one_generated_mutant_and_gives_a_reason(tool):
    names = Counter(m.name for m in tool.mutants() if m not in tool.HAND)
    entries = tool.equivalents()
    assert {name: names[name] for name in entries if names[name] != 1} == {}
    assert [name for name, reason in entries.items() if not reason] == []


def test_every_hand_snippet_occurs_once_in_its_module(tool):
    texts = {m.module: (ROOT / "src" / "msgla" / f"{m.module}.py").read_text() for m in tool.HAND}
    assert {m.name: texts[m.module].count(m.old) for m in tool.HAND if texts[m.module].count(m.old) != 1} == {}


def test_a_generated_mutant_rewrites_its_span_only(tool):
    text = "def f(a, b):\n    if a < b:\n        raise ValueError('x')\n    print(a)\n    return -a + 2 * b\n"
    found = {m.name: tool.apply(text, m) for m in tool.generate("m", text)}
    assert found == {
        "m.f compare: a < b -> a <= b": text.replace("a < b", "a <= b"),
        "m.f if-raise: a < b -> False": text.replace("if a < b", "if False"),
        "m.f call: print(a) -> pass": text.replace("print(a)", "pass"),
        "m.f binary: -a + 2 * b -> -a - 2 * b": text.replace("-a + 2", "-a - 2"),
        "m.f unary: -a + 2 * b -> a + 2 * b": text.replace("-a", "a"),
        "m.f constant: 2 * b -> 0 * b": text.replace("2 *", "0 *"),
        "m.f constant: 2 * b -> 1 * b": text.replace("2 *", "1 *"),
        "m.f constant: 2 * b -> 20 * b": text.replace("2 *", "20 *"),
    }
