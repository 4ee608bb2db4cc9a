"""Layer spans for the census benchmark, recorded from outside the program.

``Tracer.install`` replaces module attributes of ``collatz_census`` with
wrappers that time each call; the package source is never edited. A span is
``(id, parent, name, thread_id, start, end, value)``; ``value`` is an
optional work count taken from the call (entries looked up, composite steps,
bytes written). Spans stay in memory until ``dump`` writes them out.

``layer_metrics`` turns the spans of one or more CLI invocations into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

ROOT = "cli.main"

# span names, one per wrapped library function
BUILD = "classifier.build_residue_cache"
LOOKUP = "classifier.ResidueCache.entries"
DIRECT = "classifier.classify_direct"
FAST = "classifier.classify_fast"
CHUNK = "census.census_chunk"
MERGE = "census.merge"
CHECKPOINT = "census.save_checkpoint"


def _build_value(args, kwargs, result):
    return [result.bound - 1, result.nbytes]


def _lookup_value(args, kwargs, result):
    return int(len(args[1]))


def _direct_value(args, kwargs, result):
    return result.composite_steps


def _checkpoint_value(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


_VALUE_OF = {
    BUILD: _build_value,
    LOOKUP: _lookup_value,
    DIRECT: _direct_value,
    CHECKPOINT: _checkpoint_value,
}


class Tracer:
    """Collects spans from wrapped library calls in one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a fresh pool thread: its work was caused by the library call the
        # CLI has open on the main thread (run_census), else by main itself
        main = self._main_stack
        if len(main) > 1:
            return main[1]
        return main[0] if main else None

    def span(self, name: str, fn, value_of=None):
        """Return ``fn`` wrapped so that every call records a span."""
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = value_of(args, kwargs, result) if ok and value_of else None
                spans.append((sid, parent, name, threading.get_ident(), start, end, value))

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the layer entry points.

        A name the program no longer has is skipped, so its metrics read 0.
        """
        from collatz_census import census, classifier, cli

        targets = [
            (census, "build_residue_cache"),
            (census, "census_chunk"),
            (census, "merge"),
            (census, "save_checkpoint"),
            (classifier.ResidueCache, "entries"),
            (classifier, "classify_direct"),
            (classifier, "classify_fast"),
        ]
        # every library function the CLI calls by a name it imported
        for attr, obj in sorted(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if callable(obj) and not isinstance(obj, type) and module.startswith(
                "collatz_census."
            ) and module != cli.__name__:
                targets.append((cli, attr))

        for owner, attr in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            module = fn.__module__.rsplit(".", 1)[-1]
            name = f"{module}.{fn.__qualname__}"
            setattr(owner, attr, self.span(name, fn, _VALUE_OF.get(name)))

    def call_root(self, fn, *args):
        """Run ``fn`` (the CLI entry point) as the root span."""
        return self.span(ROOT, fn)(*args)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans}, f, separators=(",", ":"))


def load_spans(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as f:
        return [tuple(s) for s in json.load(f)["spans"]]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the time its same-thread children cover.

    Children on other threads overlap their parent instead of blocking it,
    so they are not subtracted.
    """
    thread_of = {s[0]: s[3] for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _, tid, start, end, _ in spans:
        if parent is not None and thread_of.get(parent) == tid:
            covered[parent] += end - start
    return {s[0]: (s[5] - s[4]) - covered[s[0]] for s in spans}


def layer_metrics(invocations: list[list[tuple]]) -> dict[str, float]:
    """Per-layer metrics over the spans of one workload repetition.

    ``invocations`` holds one span list per CLI process of the repetition
    (two for ``verify-both``). Durations, counts and bytes add up across
    them; the tally window and chunk percentiles come from all chunks.
    """
    m: dict[str, float] = defaultdict(float)
    chunk_ms: list[float] = []
    windows = []
    entries_looked_up = 0
    entries_built = 0
    for spans in invocations:
        own = self_times(spans)
        chunks = []
        for sid, _, name, _, start, end, value in spans:
            dur = end - start
            if name == BUILD:
                m["classifier.build_s"] += dur
                if value:
                    entries_built += value[0]
                    m["classifier.cache_nbytes"] = max(m["classifier.cache_nbytes"], value[1])
            elif name == LOOKUP:
                m["classifier.lookup_calls"] += 1
                m["classifier.lookup_s"] += dur
                entries_looked_up += value or 0
            elif name == DIRECT:
                m["classifier.direct_calls"] += 1
                m["classifier.direct_s"] += dur
                m["kernel.composite_steps"] += value or 0
            elif name == FAST:
                m["classifier.fast_s"] += dur
            elif name == CHUNK:
                chunks.append((start, end))
                chunk_ms.append(dur * 1e3)
                m["census.chunk_s_sum"] += dur
                m["census.chunk_self_s"] += own[sid]
            elif name == MERGE:
                m["census.merge_s"] += dur
            elif name == CHECKPOINT:
                m["census.checkpoint_writes"] += 1
                m["census.checkpoint_write_s"] += dur
                m["census.checkpoint_bytes"] += value or 0
            elif name == ROOT:
                m["cli.overhead_s"] += own[sid]
        if chunks:
            windows.append(max(e for _, e in chunks) - min(s for s, _ in chunks))
    m["census.chunks"] = len(chunk_ms)
    m["census.tally_window_s"] = sum(windows)
    if chunk_ms:
        m["census.chunk_p50_ms"] = statistics.median(chunk_ms)
        m["census.chunk_max_ms"] = max(chunk_ms)
    if m["census.tally_window_s"] > 0:
        m["census.busy_parallelism"] = m["census.chunk_s_sum"] / m["census.tally_window_s"]
    if m["classifier.build_s"] > 0:
        m["classifier.build_entries_per_s"] = entries_built / m["classifier.build_s"]
    if m["classifier.lookup_s"] > 0:
        m["classifier.lookups_per_s"] = entries_looked_up / m["classifier.lookup_s"]
    if m["classifier.direct_s"] > 0:
        m["kernel.composite_steps_per_s"] = m["kernel.composite_steps"] / m["classifier.direct_s"]
    return dict(m)
