"""Out-of-package tracing for the benchmark's traced run.

``Tracer`` wraps the public functions of each msgla module and rebinds every
module attribute that refers to them (``msgla.reconstruct.project_values`` as
well as ``msgla.spectral.project_values``), so calls between modules are seen
too. Each call appends one span ``[key, start, end, parent, op, extra]`` to an
in-memory list; nothing is written until the run ends, when ``per_op``
reduces the spans of each op to counts and self times.

A span's self time is its duration minus the durations of its child spans.
Every layer is single-threaded and nothing queues, so no waiting time exists
to record.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
from pathlib import Path
from time import perf_counter as clock

LAYERS = {
    "spectral": ("stft", "istft", "project_values", "recompose", "decompose", "wrap_phase"),
    "reconstruct": ("enhance", "gla", "nm_msgla", "np_msgla"),
    "geometry": (
        "cosine_phase_candidates",
        "sine_phase_candidates",
        "oracle_sign",
        "nearest_candidate_distance",
    ),
    "metrics": ("metric_row", "inconsistency", "si_snr", "phase_cos_sim", "weighted_frobenius"),
    "harness": ("run_experiment", "synthesize_mixture", "provide_estimates"),
    "audio_io": ("read_wav", "write_wav", "persist_run"),
}
LOOPS = {"reconstruct.gla": "gla", "reconstruct.nm_msgla": "nm", "reconstruct.np_msgla": "np"}
CLI_MAIN = "cli.main"


def _project_bytes(m, bound, result):
    # Computed, not measured: the complex input read, the real signal written
    # by synthesis and read back by analysis, and the complex output written.
    length = bound.arguments.get("origin_length")
    if length is None:
        length = m.spectral.canonical_length(result.shape[0], bound.arguments["cfg"])
    return 2 * result.nbytes + 2 * 8 * int(length)


def _stft_digest(m, bound, result):
    return hashlib.blake2b(bound.arguments["x"].samples.tobytes(), digest_size=16).digest()


def _clamped_fraction(m, bound, result):
    return 1.0 - float(result.validity_mask.mean())


def _iterations(m, bound, result):
    cfg = bound.arguments.get("cfg")
    return (cfg if cfg is not None else m.reconstruct.ReconConfig()).iterations


def _wav_bytes(m, bound, result):
    return os.path.getsize(bound.arguments["path"])


def _run_bytes(m, bound, result):
    folder = Path(result).parent
    return sum(os.path.getsize(folder / name) for name in ("results.csv", "results.json", "manifest.json"))


CLAMPED = {"geometry.cosine_phase_candidates": "cos", "geometry.sine_phase_candidates": "sin"}
WRITERS = ("audio_io.write_wav", "audio_io.persist_run")

EXTRAS = {
    "spectral.project_values": _project_bytes,
    "spectral.stft": _stft_digest,
    "geometry.cosine_phase_candidates": _clamped_fraction,
    "geometry.sine_phase_candidates": _clamped_fraction,
    "reconstruct.gla": _iterations,
    "reconstruct.nm_msgla": _iterations,
    "reconstruct.np_msgla": _iterations,
    "audio_io.write_wav": _wav_bytes,
    "audio_io.persist_run": _run_bytes,
}


class Tracer:
    """Wraps msgla's public functions while installed; keeps spans in memory."""

    def __init__(self, m):
        self.m = m
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        targets = {f"{layer}.{name}": getattr(m, layer) for layer, names in LAYERS.items() for name in names}
        targets[CLI_MAIN] = m.cli
        modules = [mod for name, mod in sys.modules.items() if name == "msgla" or name.startswith("msgla.")]
        self.bindings = []
        for key, home in targets.items():
            original = getattr(home, key.rsplit(".", 1)[1])
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.bindings.append((mod, attr, original, wrapper))

    def _wrap(self, key, fn):
        spans, stack, tracer = self.spans, self.stack, self
        extra = EXTRAS.get(key)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else None, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = extra(tracer.m, bound, result)
            return result

        return traced

    def install(self, op_index: int) -> None:
        self.op = op_index
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)
        self.op = None

    def per_op(self) -> dict[int, dict]:
        """Reduce the spans of each traced op to additive per-op totals.

        Keys ending in ``_ms`` are times; every other key is a count that
        must repeat exactly for every op of one input.
        """
        ops: dict[int, dict] = {}
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        digests: dict[int, set] = {}
        for i, (key, start, end, parent, op, extra) in enumerate(self.spans):
            rec = ops.setdefault(op, {})
            _add(rec, f"{key}.calls", 1)
            _add(rec, f"{key}.self_ms", 1e3 * (end - start - children[i]))
            _add(rec, f"{key}.incl_ms", 1e3 * (end - start))
            if parent is None:
                _add(rec, "root_ms", 1e3 * (end - start))
            if key in LOOPS:
                _add(rec, f"{key}.iterations", extra)
            elif key == "spectral.project_values":
                _add(rec, "project_bytes", extra)
                loop = self._ancestor(parent, lambda k: k in LOOPS)
                if loop is not None:
                    _add(rec, f"{loop}.projections", 1)
            elif key == "spectral.stft":
                if self._ancestor(parent, lambda k: k.startswith("harness.")) is not None:
                    _add(rec, "harness_stft", 1)
                    digests.setdefault(op, set()).add(extra)
            elif key in CLAMPED:
                _add(rec, f"{key}.clamped", extra)
            elif key in WRITERS:
                _add(rec, "bytes_written", extra)
        for op, seen in digests.items():
            ops[op]["harness_stft_distinct"] = len(seen)
        return ops

    def _ancestor(self, index, match):
        while index is not None:
            key = self.spans[index][0]
            if match(key):
                return key
            index = self.spans[index][3]
        return None


def _add(rec: dict, key: str, value) -> None:
    rec[key] = rec.get(key, 0) + value


def is_exact(key: str) -> bool:
    return not key.endswith("_ms")


def per_layer(totals: dict, import_ms: float, scipy_io_ms: float, overhead_ms: float) -> dict:
    """Per-layer metrics, ``name -> (value, unit)`` in the order BENCHMARK.json
    lists them, from per-op totals; ratios are taken of the totals."""

    def get(key):
        return totals.get(key, 0)

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = (get(f"{layer}.{name}.calls"), "calls/op")
            out[f"{layer}.{name}.self_ms"] = (get(f"{layer}.{name}.self_ms"), "ms/op")
        if layer == "spectral":
            out["spectral.project_values.mb_computed"] = (get("project_bytes") / 1e6, "MB/op")
        if layer == "reconstruct":
            for key, loop in LOOPS.items():
                out[f"reconstruct.{loop}.iter_ms"] = (ratio(f"{key}.incl_ms", f"{key}.iterations"), "ms")
            for key, loop in LOOPS.items():
                out[f"reconstruct.{loop}.projections_per_iter"] = (
                    ratio(f"{key}.projections", f"{key}.iterations"),
                    "count",
                )
        if layer == "geometry":
            for key, law in CLAMPED.items():
                out[f"geometry.{law}_clamped_fraction"] = (ratio(f"{key}.clamped", f"{key}.calls"), "ratio")
        if layer == "harness":
            out["harness.stft_calls"] = (get("harness_stft"), "calls/op")
            out["harness.stft_reuse"] = (ratio("harness_stft_distinct", "harness_stft"), "ratio")
        if layer == "audio_io":
            out["audio_io.bytes_written"] = (get("bytes_written"), "bytes/op")
    out["cli.import_ms"] = (import_ms, "ms")
    out["cli.import_scipy_io_ms"] = (scipy_io_ms, "ms")
    out["cli.main_ms"] = (get(f"{CLI_MAIN}.incl_ms"), "ms/op")
    out["trace.overhead_ms"] = (overhead_ms, "ms/op")
    out["trace.unattributed_share"] = (ratio("unattributed_ms", "op_ms"), "ratio")
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times in ms, by module, from ``python -X importtime``."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if len(fields) == 3 and fields[1].isdigit():
            times[fields[2]] = int(fields[1]) / 1e3
    return times


