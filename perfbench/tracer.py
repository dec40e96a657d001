"""Span tracer that wraps module-level functions from outside.

The tracer replaces ``module.fn`` attributes with wrappers. Because a
module's attribute dictionary is also the globals of the functions defined
in it, calls made inside the module (``radial_forward`` called from
``conv_forward``) go through the wrapper as well.

Each thread keeps its own span stack, so a span's self time subtracts only
the children that ran on its own thread. A span opened on a pool thread has
no parent on that thread and counts as a root there; it shares the op id of
the op that caused it.

Every call records a span (id, name, start, end, parent, op, thread, self
time) in memory and adds to the per-op call counts.

Hooks (``tracer.hooks``, label -> object with optional methods
``before(args, kwargs)``, returning ``(args, kwargs, state)``, and
``after(args, kwargs, result, state)``) let a caller edit arguments before
a call and count work after it, outside the call's span; they are read when
the wrappers are installed. ``add`` accumulates named per-op counts. Counts
are kept per thread and merged when read, so the hot path takes no lock.
"""

import functools
import itertools
import threading
import time


class Tracer:
    def __init__(self, targets):
        """``targets``: ``(label, module, attribute)`` triples to wrap."""
        self.targets = list(targets)
        self.hooks = {}
        self.op = "setup"
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts = []
        self._originals = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._originals:
            return
        for label, module, attr in self.targets:
            orig = getattr(module, attr)
            self._originals.append((module, attr, orig))
            setattr(module, attr, self._wrap(label, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._originals):
            setattr(module, attr, orig)
        self._originals = []

    # -- recording ---------------------------------------------------------

    def _counts(self):
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def add(self, key, n, op=None):
        """Add ``n`` to the per-op count ``key`` of the calling thread."""
        per_op = self._counts().setdefault(self.op if op is None else op, {})
        per_op[key] = per_op.get(key, 0) + n

    def counts(self, op):
        """Per-op counts summed over threads."""
        out = {}
        with self._lock:
            tables = list(self._thread_counts)
        for table in tables:
            for key, n in table.get(op, {}).items():
                out[key] = out.get(key, 0) + n
        return out

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label, orig):
        hook = self.hooks.get(label)
        before = getattr(hook, "before", None)
        after = getattr(hook, "after", None)
        calls_key = label + ".calls"
        add = self.add

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            op = self.op
            add(calls_key, 1, op)
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.spans.append((frame[0], label, t0, t1, parent, op,
                                   threading.get_ident(), dur - frame[1]))
            if after is not None:
                after(args, kwargs, result, state)
            return result
        return traced

    # -- summaries ---------------------------------------------------------

    def spans_of(self, op):
        return [s for s in self.spans if s[5] == op]

    def self_time(self, op):
        """label -> summed self time of the op's spans."""
        out = {}
        for s in self.spans_of(op):
            out[s[1]] = out.get(s[1], 0.0) + s[7]
        return out

    def root_time(self, op, thread):
        """Summed duration of the op's root spans on one thread."""
        return sum(s[3] - s[2] for s in self.spans_of(op)
                   if s[4] is None and s[6] == thread)

    def span_table(self):
        """Column form of every span, for writing out after the run."""
        cols = ("id", "name", "start", "end", "parent", "op", "thread",
                "self_s")
        return {c: [s[i] for s in self.spans] for i, c in enumerate(cols)}
