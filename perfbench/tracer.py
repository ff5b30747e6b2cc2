"""Spans around glavoc's public functions, installed from outside the package.

glavoc modules import functions by name (``from .dsp import stft``), so a
function is looked up through every module that bound it.  ``Tracer``
replaces the original at each of those bindings with one wrapper and puts
every binding back on ``restore``.  A target that no longer exists is
recorded as absent; one that is never called reports zero.

Each thread keeps its own span stack, so the spans of a thread pool's
workers get their parent from their own thread, never from the caller.
"""

import functools
import itertools
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []        # (index, name, thread id, parent index or -1, start, end)
        self.absent = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []
        self._ids = itertools.count()

    # ------------------------------------------------------------ install

    def install(self, targets):
        """Wrap each ``(span name, "module:attr[.attr]")`` target."""
        for name, target in targets:
            module_name, _, path = target.partition(":")
            module = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.add(name)
            elif isinstance(original, property):
                self._set(owner, attr, property(self._wrap(name, original.fget)))
            elif owner is module:
                self._rebind_everywhere(original, self._wrap(name, original))
            else:
                self._set(owner, attr, self._wrap(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "glavoc" or mod_name.startswith("glavoc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap(self, name, fn):
        spans, lock, local, ids = self.spans, self._lock, self._local, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # a tuple of plain values, which the cyclic GC stops tracking
                with lock:
                    spans.append((index, name, threading.get_ident(), parent, start, end))
        return traced

    # ------------------------------------------------------------ summaries

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = {}
        for _, _, _, parent, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {}
        for index, name, _, _, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_time.get(index, 0.0)
        return out

    def pool_busy(self, main_thread, t0, t1):
        """(busy seconds, wall seconds) of the root spans run off the main
        thread inside [t0, t1]: the work a thread pool did there."""
        roots = [(start, end) for _, _, tid, parent, start, end in self.spans
                 if tid != main_thread and parent < 0 and t0 <= start and end <= t1]
        if not roots:
            return 0.0, 0.0
        busy = sum(end - start for start, end in roots)
        return busy, max(end for _, end in roots) - min(start for start, _ in roots)
