"""Span tracing of ffl from outside the package.

``Tracer.install`` replaces the public functions of every ffl module (and
``Expr.eval`` and ``GridPoint.fraction``) by wrappers that record a span
per call: name, start, end and the calling span. Nothing under ``src``
changes; ``uninstall`` puts the originals back.

Spans are aggregated as they close, per (name, parent name) edge:
calls, inclusive time, self time, and a work count taken from the
arguments or the return value (points passed to ``character``, orbit
length of ``count_hits``, bytes written, ...). Raw spans are kept only
while ``keep_spans`` is set, up to ``SPAN_CAP``.

Self time is a span's duration minus the time its child spans cover.
``cli.parallel_map`` runs its items on worker threads, whose spans may
overlap. Their busy self times are kept as measured, and a second,
wall-attributed self time scales them by (union of the workers' root
intervals) / (sum of their durations), so that wall-attributed self times
of all layers add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time

import numpy as np

LAYERS = ("cli", "ifs", "expr", "measure", "pushforward", "decay",
          "disintegrate", "equidist", "rng", "svg")
SPAN_CAP = 100_000
POOL = "cli.parallel_map"

CALLS, TOTAL, SELF_BUSY, SELF_WALL, WORK = range(5)


def _size(x) -> int:
    return int(np.size(x))


def _env_points(args, kwargs):
    env = args[1] if len(args) > 1 else kwargs.get("env", {})
    return max((_size(v) for v in env.values()), default=0)


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return path.stat().st_size


# work counts, from the arguments and the return value of a call
WORK_OF = {
    "measure.character": lambda a, k, r: _size(a[0] if a else k["y"]),
    "decay.band_maxima": lambda a, k, r: sum(b.samples + b.excluded for b in r),
    "decay.sparse_cover": lambda a, k, r: int(r.limit / r.grid_step + 0.5) + 1,
    "equidist.count_hits": lambda a, k, r: r.horizon,
    "equidist.digit_freq": lambda a, k, r: r.count,
    "cli.write_csv": lambda a, k, r: _file_bytes(a, k),
    "cli.write_json": lambda a, k, r: _file_bytes(a, k),
    "svg.log_log_plot": lambda a, k, r: len(r.encode()),
}
EXTRA_OF = {
    "decay.band_maxima": lambda a, k, r: {"decay.excluded": sum(b.excluded for b in r)},
}


class _Frame:
    __slots__ = ("name", "id", "start", "child", "parent_name", "parent_id", "sink")

    def __init__(self, name, span_id, parent_name, parent_id, sink):
        self.name, self.id = name, span_id
        self.parent_name, self.parent_id = parent_name, parent_id
        self.sink = sink
        self.child = 0.0
        self.start = time.perf_counter()


class _Pool:
    """Collects the spans that worker threads open inside one parallel_map."""

    def __init__(self, frame):
        self.frame = frame
        self.roots = []     # (start, end) of worker root spans
        self.sinks = {}     # thread id -> sink

    def sink(self):
        return self.sinks.setdefault(threading.get_ident(), {})


def _add(sink, key, calls, total, self_busy, self_wall, work):
    e = sink.get(key)
    if e is None:
        sink[key] = [calls, total, self_busy, self_wall, work]
    else:
        e[CALLS] += calls
        e[TOTAL] += total
        e[SELF_BUSY] += self_busy
        e[SELF_WALL] += self_wall
        e[WORK] += work


def _union(intervals) -> float:
    covered, end = 0.0, -float("inf")
    for s, e in sorted(intervals):
        if e > end:
            covered += e - max(s, end)
            end = e
    return covered


class Tracer:
    def __init__(self):
        self.edges = {}          # (name, parent name) -> [calls, total, self_busy, self_wall, work]
        self.spans = []          # (id, parent id, name, start, end, thread id)
        self.keep_spans = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool = None
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name):
        st = self._stack()
        if st:
            top = st[-1]
            frame = _Frame(name, next(self._ids), top.name, top.id, top.sink)
        elif self._pool is not None and threading.current_thread() is not threading.main_thread():
            pool = self._pool
            frame = _Frame(name, next(self._ids), pool.frame.name, pool.frame.id, pool.sink())
        else:
            frame = _Frame(name, next(self._ids), None, 0, self.edges)
        st.append(frame)
        return frame

    def _close(self, frame, work=0, extra=None):
        end = time.perf_counter()
        st = self._stack()
        st.pop()
        dur = end - frame.start
        own = dur - frame.child
        if st:
            st[-1].child += dur
        elif frame.sink is not self.edges:
            self._pool.roots.append((frame.start, end))
        _add(frame.sink, (frame.name, frame.parent_name), 1, dur, own, own, work)
        if extra:
            for k, v in extra.items():
                key = ("#" + k, None)
                _add(frame.sink, key, 0, 0.0, 0.0, 0.0, v)
        if self.keep_spans and len(self.spans) < SPAN_CAP:
            self.spans.append((frame.id, frame.parent_id, frame.name, frame.start, end,
                               threading.get_ident()))

    def _wrap(self, name, fn):
        work_of, extra_of = WORK_OF.get(name), EXTRA_OF.get(name)

        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame)
                raise
            self._close(frame,
                        work_of(args, kwargs, result) if work_of else 0,
                        extra_of(args, kwargs, result) if extra_of else None)
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_pool(self, fn):
        def traced(*args, **kwargs):
            frame = self._open(POOL)
            pool = self._pool = _Pool(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pool = None
                self._merge_pool(pool)
                self._close(frame)
        traced.__wrapped__ = fn
        return traced

    def _merge_pool(self, pool):
        covered = _union(pool.roots)
        busy = sum(e - s for s, e in pool.roots)
        scale = covered / busy if busy > 0 else 1.0
        for sink in pool.sinks.values():
            for key, e in sink.items():
                _add(pool.frame.sink, key, e[CALLS], e[TOTAL], e[SELF_BUSY],
                     e[SELF_WALL] * scale, e[WORK])
        # a serial parallel_map runs its items on this thread, as nested spans
        child = busy + pool.frame.child
        _add(pool.frame.sink, ("#pool.child_s", None), 0, 0.0, 0.0, 0.0, child)
        pool.frame.child += covered

    def _wrap_eval(self, fn):
        """Outermost Expr.eval calls only; nested node evaluations stay inside."""
        local = self._local

        def traced(expr, *args, **kwargs):
            depth = getattr(local, "eval_depth", 0)
            if depth:   # nested node: no span; the outermost call resets the depth on errors
                local.eval_depth = depth + 1
                result = fn(expr, *args, **kwargs)
                local.eval_depth = depth
                return result
            frame = self._open("expr.Expr.eval")
            local.eval_depth = 1
            try:
                result = fn(expr, *args, **kwargs)
            except BaseException:
                self._close(frame)
                raise
            finally:
                local.eval_depth = 0
            self._close(frame, _env_points((expr,) + args, kwargs))
            return result
        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib
        mods = {name: importlib.import_module(f"ffl.{name}") for name in LAYERS}
        package = importlib.import_module("ffl")
        namespaces = list(mods.values()) + [package]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap_pool(fn) if name == POOL else self._wrap(name, fn)
                for ns in namespaces:
                    for k, v in list(vars(ns).items()):
                        if v is fn:
                            self._set(ns, k, wrapped)
        expr = mods["expr"]
        for cls in [expr.Expr] + expr.Expr.__subclasses__():
            if "eval" in cls.__dict__:
                self._set(cls, "eval", self._wrap_eval(cls.__dict__["eval"]))
        gp = mods["equidist"].GridPoint
        fraction = gp.__dict__["fraction"]
        self._set(gp, "fraction", property(self._wrap("equidist.GridPoint.fraction",
                                                      fraction.fget)))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------------

    def select(self, names, parents=None, exclude_parents=None):
        """Summed edge records of spans named in ``names``, optionally only
        under parents in ``parents`` or not under those in ``exclude_parents``."""
        names = {names} if isinstance(names, str) else set(names)
        out = [0, 0.0, 0.0, 0.0, 0]
        for (name, parent), e in self.edges.items():
            if name not in names:
                continue
            if parents is not None and parent not in parents:
                continue
            if exclude_parents is not None and parent in exclude_parents:
                continue
            for i in range(5):
                out[i] += e[i]
        return out

    def counter(self, name) -> float:
        e = self.edges.get(("#" + name, None))
        return e[WORK] if e else 0

    def layer_self(self) -> dict:
        """Wall-attributed self time per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for (name, _), e in self.edges.items():
            if not name.startswith("#"):
                out[name.split(".", 1)[0]] += e[SELF_WALL]
        return out
