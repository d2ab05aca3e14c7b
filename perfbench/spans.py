"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from the outside: :func:`traced`
replaces public entry points of each layer with thin wrappers that open a
span around the call, and restores the originals on exit.  Nothing in
``src/`` knows it is being traced, and an untraced run executes the
original functions (the smoke test asserts that).

A span is ``(id, name, thread, parent, start, end)``.  Self time is the
span's duration minus its children's; children never outlive their parent
because spans nest on a per-thread stack.  Per-read calls
(``GeneCounts.record_unique``) are *aggregated*: they charge their time to
the parent's child total and to a per-name sum, but are not stored one
span per read.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("span_id", "name", "start", "child")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Collects spans and per-name self time from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: name -> seconds of self time, split by whether the span ran on
        #: the thread that created the tracer (the critical path)
        self.self_main: dict[str, float] = defaultdict(float)
        self.self_other: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._main = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        frame = _Frame(next(self._ids), name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame, *, keep: bool = True) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        thread = threading.get_ident()
        own = self.self_main if thread == self._main else self.self_other
        with self._lock:
            own[frame.name] += duration - frame.child
            self.calls[frame.name] += 1
            if keep:
                self.spans.append(
                    (
                        frame.span_id,
                        frame.name,
                        thread,
                        parent.span_id if parent is not None else None,
                        frame.start,
                        end,
                    )
                )

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    def self_seconds(self, name: str) -> float:
        """Self time of ``name`` summed over every thread."""
        return self.self_main.get(name, 0.0) + self.self_other.get(name, 0.0)

    def write_jsonl(self, fh, **tags) -> None:
        """Append the stored spans to ``fh``, one JSON object per line."""
        for span_id, name, thread, parent, start, end in self.spans:
            row = {
                "id": span_id,
                "name": name,
                "thread": thread,
                "parent": parent,
                "start": start,
                "end": end,
            }
            fh.write(json.dumps({**tags, **row}) + "\n")


# --------------------------------------------------------------------------
# wrappers around the program's public entry points
# --------------------------------------------------------------------------


def _wrap_call(tracer: Tracer, fn, name: str, keep: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame, keep=keep)

    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str, keep: bool):
    """Each ``next()`` of the generator is one span (its work, not the
    consumer's time between items)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame, keep=keep)
                yield item
        finally:
            close = getattr(gen, "close", None)
            if close is not None:
                close()

    return wrapper


def patch_table():
    """``(owner, attribute, span name, kind)`` for every traced entry point.

    ``kind`` is ``call``, ``gen`` (a generator function), or ``agg`` /
    ``aggen`` for their per-read counterparts, whose spans are aggregated
    rather than stored.  The program is imported lazily, so this module
    loads without it on the path.
    """
    from repro.align import backend, batch, counts, engine, paired, star
    from repro.core import journal, pipeline, stages
    from repro.reads import paired as reads_paired
    from repro.reads import sra, stream

    table = [
        (stages.PrefetchStage, "run", "reads.prefetch", "call"),
        (sra.SraRepository, "fetch_chunks", "reads.prefetch", "gen"),
        (stream.ThrottledRepository, "fetch_chunks", "reads.prefetch", "gen"),
        (stages.FasterqDumpStage, "run", "reads.decode", "call"),
        (stream.SraStream, "open", "reads.decode", "call"),
        (stream.SraStream, "chunks", "reads.decode", "gen"),
        (sra, "write_fastq", "reads.fastq_write", "call"),
        (reads_paired, "write_fastq", "reads.fastq_write", "call"),
        (stages.AlignStage, "prepare", "reads.fastq_parse", "call"),
        (backend.ReadChunkStream, "records", "core.stream_wait", "aggen"),
        (backend.ReadChunkStream, "materialize", "core.stream_wait", "call"),
        (batch.PackedReadBatch, "pack", "align.pack", "call"),
        (batch, "batch_mmp", "align.seed", "call"),
        (batch, "batch_ungapped_extend", "align.extend", "call"),
        (batch, "align_read_batch", "align.batch_other", "call"),
        (star.StarAligner, "run", "align.run_other", "call"),
        (paired.PairedStarAligner, "run", "align.run_other", "call"),
        (counts.GeneCounts, "record_unique", "align.genecounts", "agg"),
        (engine.ParallelStarAligner, "run", "engine.run", "call"),
        (engine.ParallelStarAligner, "run_paired", "engine.run", "call"),
        (pipeline.TranscriptomicsAtlasPipeline, "normalize", "quant.deseq2",
         "call"),
    ]
    table += [
        (journal.RunJournal, attr, "core.journal", "call")
        for attr in sorted(vars(journal.RunJournal))
        if attr.startswith("record_")
    ]
    return table


def _descriptor(owner, attr):
    """The attribute as stored on ``owner`` (keeps classmethod wrappers)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block.

    The originals are restored on exit even when the block raises, so a
    traced iteration never leaks wrappers into the untraced ones.
    """
    saved = []
    try:
        for owner, attr, name, kind in patch_table():
            original = _descriptor(owner, attr)
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                fn = _wrap_call(tracer, original.__func__, name, True)
                replacement = classmethod(fn)
            elif kind in ("gen", "aggen"):
                replacement = _wrap_generator(
                    tracer, original, name, kind == "gen"
                )
            else:
                replacement = _wrap_call(tracer, original, name, kind != "agg")
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def entry_points() -> dict[str, object]:
    """Every patch point's current attribute, keyed ``Owner.attr``.

    Taken before and after a traced block, the two must be identical
    objects: the smoke test's proof that wrappers never leak.
    """
    return {
        f"{getattr(owner, '__name__', owner)}.{attr}": _descriptor(owner, attr)
        for owner, attr, _name, _kind in patch_table()
    }
