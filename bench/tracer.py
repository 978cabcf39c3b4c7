"""Boundary tracer for the traced run (README.md §Traced run).

Everything here patches ``repro`` *from the outside*: class attributes
and module functions named in :mod:`layers` are replaced by wrappers
that record one span per call, and the scheduler's ``post`` /
``post_at`` / ``schedule_at`` are wrapped so that every dispatched
event runs inside a *root span* labelled with the layer of the
callback's defining module.  Nothing is scheduled, reordered or
dropped, so the traced run processes exactly the events of the
untraced one (``run.py`` asserts it).

Spans are kept in memory in four parallel arrays in *post-order* (a
span is appended when it closes, so children precede their parent),
with their nesting depth; parents and self times are recovered from
that order afterwards.  The in-memory cost is 24 bytes per span.
"""

from __future__ import annotations

import fnmatch
import importlib
import json
import sys
from array import array
from functools import partial, update_wrapper
from time import perf_counter
from types import FunctionType, MethodType

from layers import BOUNDARIES, LAYERS, REGISTERED, UNATTRIBUTED, layer_of_module

#: At most this many spans are written to the JSON-lines file (the
#: aggregate table always covers all of them).
SPAN_DUMP_LIMIT = 100_000

_DEPTH_BITS = 8
_DEPTH_MASK = (1 << _DEPTH_BITS) - 1


def _load(path: str):
    """``"module:Class"`` -> the class, or None if it is gone."""
    modname, _, clsname = path.partition(":")
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return None
    return getattr(module, clsname, None)


class Registry:
    """Remembers the instances of the counter-bearing classes built
    during a repetition, by wrapping their ``__init__``.  Costs nothing
    per event; used by the reference and the traced repetition alike so
    both keep the same objects alive."""

    def __init__(self):
        self.instances: dict[str, list] = {key: [] for key in REGISTERED}
        self._undo: list[tuple] = []

    def install(self) -> None:
        for key, path in REGISTERED.items():
            cls = _load(path)
            if cls is None:
                continue
            orig = cls.__init__
            bucket = self.instances[key]

            def init(self, *args, _orig=orig, _bucket=bucket, **kwargs):
                _orig(self, *args, **kwargs)
                _bucket.append(self)

            init.__wrapped__ = orig
            cls.__init__ = init
            self._undo.append((cls, orig))

    def uninstall(self) -> None:
        for cls, orig in reversed(self._undo):
            cls.__init__ = orig
        self._undo.clear()

    def clear(self) -> None:
        for bucket in self.instances.values():
            bucket.clear()


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # id -> (layer, name)
        self._name_ids: dict[tuple[str, str], int] = {}
        # One entry per closed span, post-order.
        self.code = array("q")  # name id << 8 | depth
        self.t0 = array("d")
        self.t1 = array("d")
        # One entry per event root span, dispatch order.
        self.root_span = array("q")  # index into the span arrays
        self.root_sim = array("d")  # sim.now at dispatch
        self.depth = 0
        # Chain-gating probe: sim seconds from a payload segment's first
        # arrival at the primary to the deposit that covers it.
        self.deposit_waits = array("d")
        self._arrivals: dict = {}
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self._root_ids: dict = {}

    # -- names -----------------------------------------------------------

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _callable_id(self, fn) -> int:
        """Name id for an arbitrary callback: layer of its module."""
        target = fn
        while isinstance(target, partial):
            target = target.func
        target = getattr(target, "__func__", target)
        layer = layer_of_module(getattr(target, "__module__", None))
        name = getattr(target, "__qualname__", None) or type(target).__name__
        return self.name_id(layer, name)

    # -- wrappers --------------------------------------------------------

    def span(self, fn, nid: int):
        """``fn`` wrapped so that each call records one span."""
        tr = self
        code, t0s, t1s = self.code.append, self.t0.append, self.t1.append
        shifted = nid << _DEPTH_BITS

        def wrapper(*args, **kwargs):
            depth = tr.depth
            tr.depth = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.depth = depth
                code(shifted | depth)
                t0s(t0)
                t1s(t1)

        update_wrapper(wrapper, fn, updated=())
        return wrapper

    def callback_span(self, callback):
        """A registered callback (timer expiry, protocol handler)
        wrapped as a span of the layer that defines it."""
        if hasattr(getattr(callback, "__func__", callback), "__wrapped__"):
            return callback  # a boundary already: one span per call is enough
        return self.span(callback, self._callable_id(callback))

    def _dispatcher(self):
        """The function scheduled in place of every callback: opens the
        event's root span, runs the callback, closes the span."""
        tr = self
        code, t0s, t1s = self.code.append, self.t0.append, self.t1.append
        root_span, root_sim = self.root_span.append, self.root_sim.append
        root_ids = self._root_ids
        spans = self.code

        def dispatch(sim, callback, args):
            fn = callback.__func__ if type(callback) is MethodType else callback
            try:
                shifted = root_ids[fn]
            except (KeyError, TypeError):
                shifted = tr._callable_id(callback) << _DEPTH_BITS
                try:
                    if len(root_ids) > 50_000:  # per-call closures
                        root_ids.clear()
                    root_ids[fn] = shifted
                except TypeError:
                    pass
            depth = tr.depth
            tr.depth = depth + 1
            root_sim(sim.now)
            t0 = perf_counter()
            try:
                callback(*args)
            finally:
                t1 = perf_counter()
                tr.depth = depth
                root_span(len(spans))
                code(shifted | depth)
                t0s(t0)
                t1s(t1)

        return dispatch

    # -- install ---------------------------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _patch_function(self, name: str, fn, new) -> None:
        """Rebind a module-level function everywhere it was imported."""
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(name) is fn:
                self._undo.append((mod, name, fn))
                setattr(mod, name, new)

    @staticmethod
    def _match(owner, patterns) -> list[str]:
        found = []
        for pattern in patterns:
            if not any(ch in pattern for ch in "*?["):
                found.append(pattern)
                continue
            for name, value in vars(owner).items():
                if (
                    isinstance(value, FunctionType)
                    and fnmatch.fnmatchcase(name, pattern)
                    and (pattern.startswith("_") or not name.startswith("_"))
                    and name not in found
                ):
                    found.append(name)
        return found

    def install(self) -> None:
        for modname, clsname, patterns in BOUNDARIES:
            label = f"{modname}:{clsname or ''}"
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(label)
                continue
            owner = getattr(module, clsname, None) if clsname else module
            if owner is None:
                self.missing.append(label)
                continue
            layer = layer_of_module(modname)
            for name in self._match(owner, patterns):
                fn = vars(owner).get(name)
                if not isinstance(fn, FunctionType):
                    self.missing.append(f"{label}.{name}")
                    continue
                span_name = f"{clsname}.{name}" if clsname else name
                wrapped = self.span(
                    self._probed(clsname, name, fn), self.name_id(layer, span_name)
                )
                if clsname:
                    self._patch(owner, name, wrapped)
                else:
                    self._patch_function(name, fn, wrapped)
        self._install_strategies()
        self._install_scheduler()
        self._install_registrations()

    def _install_strategies(self) -> None:
        base = _load("repro.replication:ReplicationStrategy")
        if base is None:
            self.missing.append("repro.replication:ReplicationStrategy")
            return
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for name, fn in list(vars(cls).items()):
                if isinstance(fn, FunctionType) and not name.startswith("_"):
                    nid = self.name_id("replication", f"{cls.__name__}.{name}")
                    self._patch(cls, name, self.span(fn, nid))

    def _install_scheduler(self) -> None:
        base = _load("repro.netsim.simulator:Simulator")
        if base is None:
            self.missing.append("repro.netsim.simulator:Simulator")
            return
        dispatch = self._dispatcher()
        for cls in [base, *base.__subclasses__()]:
            for name in ("post", "post_at", "schedule_at"):
                orig = vars(cls).get(name)
                if isinstance(orig, FunctionType):

                    def post(sim, when, callback, *args, _orig=orig):
                        return _orig(sim, when, dispatch, sim, callback, args)

                    post.__qualname__ = f"Simulator.{name}"
                    nid = self.name_id("scheduler", post.__qualname__)
                    self._patch(cls, name, self.span(post, nid))
            # Timer re-arm pushes its stale entry back under a saved seq.
            orig = vars(cls).get("_requeue")
            if isinstance(orig, FunctionType):

                def requeue(sim, time, seq, callback, _orig=orig):
                    return _orig(sim, time, seq, partial(dispatch, sim, callback, ()))

                self._patch(cls, "_requeue", requeue)
            orig = vars(cls).get("run")
            if isinstance(orig, FunctionType):
                nid = self.name_id("scheduler", "Simulator.run")
                self._patch(cls, "run", self.span(orig, nid))

    def _install_registrations(self) -> None:
        """Callbacks handed to another layer at build time: wrap them
        where they are registered."""
        tr = self
        timer = _load("repro.netsim.simulator:Timer")
        if timer is not None:
            orig_init = timer.__init__

            def timer_init(self, sim, callback):
                orig_init(self, sim, tr.callback_span(callback))

            self._patch(timer, "__init__", timer_init)
        kernel = _load("repro.netsim.host:Kernel")
        if kernel is not None and "register_protocol" in vars(kernel):
            orig_register = kernel.register_protocol

            def register_protocol(self, protocol, handler):
                orig_register(self, protocol, tr.callback_span(handler))

            self._patch(kernel, "register_protocol", register_protocol)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- chain-gating probe ----------------------------------------------

    def _probed(self, clsname, name, fn):
        """``fn``, preceded by the probe that reads its arguments if it
        is one of the two boundaries the gate wait is inferred from."""
        probe = {
            ("TcpConnection", "segment_arrived"): self._segment_arrived,
            ("FtConnectionState", "record_deposit"): self._record_deposit,
        }.get((clsname, name))
        if probe is None:
            return fn

        def probed(*args):
            probe(*args)
            return fn(*args)

        return update_wrapper(probed, fn, updated=())

    def _segment_arrived(self, conn, segment) -> None:
        if not segment.data:
            return
        hook = conn.on_deposit_data
        state = getattr(hook, "__self__", None)
        if state is None or not getattr(state.port, "is_primary", False):
            return
        seen = self._arrivals.setdefault(conn, {})
        if segment.seq not in seen:  # first arrival only
            seen[segment.seq] = (conn.sim.now, len(segment.data))

    def _record_deposit(self, state, start, data) -> None:
        conn = state.conn
        seen = self._arrivals.get(conn)
        if not seen or conn.irs is None:
            return
        now = conn.sim.now
        seq = (conn.irs + 1 + start) & 0xFFFFFFFF
        remaining = len(data)
        while remaining > 0:
            entry = seen.pop(seq, None)
            if entry is None:
                break
            self.deposit_waits.append(now - entry[0])
            seq = (seq + entry[1]) & 0xFFFFFFFF
            remaining -= entry[1]

    # -- results ---------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span: everything before it is set-up."""
        return len(self.code)

    def reset(self) -> None:
        for arr in (self.code, self.t0, self.t1, self.root_span, self.root_sim):
            del arr[:]
        del self.deposit_waits[:]
        self._arrivals.clear()
        self.depth = 0

    def aggregate(self, start: int, wall_s: float) -> dict:
        """Self time and calls per span name over spans[start:], and the
        part of ``wall_s`` no span covers."""
        n_names = len(self.names)
        self_s = [0.0] * n_names
        calls = [0] * n_names
        child = [0.0] * (_DEPTH_MASK + 2)
        code, t0, t1 = self.code, self.t0, self.t1
        for i in range(start, len(code)):
            c = code[i]
            depth = c & _DEPTH_MASK
            nid = c >> _DEPTH_BITS
            dur = t1[i] - t0[i]
            self_s[nid] += dur - child[depth + 1]
            child[depth + 1] = 0.0
            child[depth] += dur
            calls[nid] += 1
        by_layer_s = {layer: 0.0 for layer in (*LAYERS, UNATTRIBUTED)}
        by_layer_calls = {layer: 0 for layer in (*LAYERS, UNATTRIBUTED)}
        by_name = {}
        for nid, (layer, name) in enumerate(self.names):
            if calls[nid]:
                by_layer_s[layer] += self_s[nid]
                by_layer_calls[layer] += calls[nid]
                by_name[f"{layer}:{name}"] = (calls[nid], self_s[nid])
        outside = wall_s - child[0]
        return {
            "self_s": by_layer_s,
            "calls": by_layer_calls,
            "by_name": by_name,
            "outside_s": outside,
            "spans": len(code) - start,
        }

    def dump(self, path, start: int, limit: int = SPAN_DUMP_LIMIT) -> int:
        """Write spans[start:] (at most ``limit``) as JSON lines:
        one object per span with its parent's id and, for spans of a
        dispatched event, the event's ordinal and simulated time."""
        code, t0, t1 = self.code, self.t0, self.t1
        end = min(len(code), start + limit)
        # In post-order the parent of a span at depth d is the next
        # later span at depth d-1.
        parent = [-1] * (end - start)
        open_at: dict[int, list[int]] = {}
        for i in range(start, end):
            depth = code[i] & _DEPTH_MASK
            for child in open_at.pop(depth + 1, ()):
                parent[child - start] = i
            open_at.setdefault(depth, []).append(i)
        event_of = {}
        for ordinal, idx in enumerate(self.root_span):
            if start <= idx < end:
                event_of[idx] = ordinal
        # A span belongs to the event whose root span encloses it.
        event = [None] * (end - start)
        for i in range(end - 1, start - 1, -1):
            if i in event_of:
                event[i - start] = event_of[i]
            elif parent[i - start] >= 0:
                event[i - start] = event[parent[i - start] - start]
        with open(path, "w") as out:
            for i in range(start, end):
                layer, name = self.names[code[i] >> _DEPTH_BITS]
                row = {
                    "id": i,
                    "parent": parent[i - start],
                    "layer": layer,
                    "name": name,
                    "start": t0[i],
                    "end": t1[i],
                }
                ordinal = event[i - start]
                if ordinal is not None:
                    row["event"] = ordinal
                    row["sim_now"] = self.root_sim[ordinal]
                out.write(json.dumps(row) + "\n")
        return end - start
