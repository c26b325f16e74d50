"""Spans around calls into doctrina's public functions, from outside.

``Tracer.wrap`` replaces a function by a timing wrapper.  ``install``
patches every binding of a target in every loaded ``doctrina`` module
(``from .finset import compose`` binds ``compose`` again in ``doctrine``,
``doubling``, ``spancat`` and ``uwd``), or the class attribute for a
method, so that no call site escapes the trace.

Per span the tracer keeps the standard split: ``busy_s`` is wall time
inside the function, children included (outermost activation only, so
recursion is not counted twice); ``self_s`` is that time minus the part
covered by traced children.  Spans live in memory as running totals.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0
    active: int = 0
    keys: set | None = None
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _enter(self, stat: Stat) -> list[float]:
        stat.active += 1
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, stat: Stat, frame: list[float]) -> None:
        dur = self.clock() - frame[0]
        self._stack.pop()
        stat.active -= 1
        stat.self_s += dur - frame[1]
        if stat.active == 0:
            stat.busy_s += dur
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_s += dur

    def wrap(self, name: str, fn, key=None, after=None):
        """A timing wrapper for ``fn`` recorded under ``name``.

        ``key(args)`` adds a distinct-argument key; ``after(stat, args,
        result)`` records a count derived from the call.  Generator
        functions are timed per step, so a lazy enumeration is charged
        for the work it does, not for the moment it was created.
        """
        stat = self.stat(name)
        if key is not None and stat.keys is None:
            stat.keys = set()

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = self._enter(stat)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(stat, frame)
                    yield item

            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if key is not None:
                stat.keys.add(key(args))
            frame = self._enter(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(stat, frame)
            if after is not None:
                after(stat, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; ``uninstall`` puts the old value back."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, target: str, name: str, key=None, after=None, shim=None) -> None:
        """Wrap ``target`` ("module:function" or "module:Class.method").

        ``shim(original, stat)`` may replace the original by an
        equivalent function that also counts something into ``stat``,
        before it is wrapped.
        """
        modname, qual = target.split(":")
        mod = sys.modules[modname]
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            fn = shim(original, self.stat(name)) if shim else original
            self.patch(cls, attr, self.wrap(name, fn, key, after))
            return
        original = getattr(mod, qual)
        fn = shim(original, self.stat(name)) if shim else original
        wrapper = self.wrap(name, fn, key, after)
        bound = 0
        for mname, m in list(sys.modules.items()):
            if not mname.startswith("doctrina"):
                continue
            for attr, value in list(vars(m).items()):
                if value is original:
                    self.patch(m, attr, wrapper)
                    bound += 1
        if not bound:
            raise LookupError(f"{target}: no binding found")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-clause intervals, measured between successive Report.clause calls

SAMPLED = re.compile(r"sampled: (\d+) of (\d+)")


class ClauseClock:
    """Times each clause whose id starts with ``prefix`` as the interval
    from its ``Report.clause`` call to the next one on the same report,
    or to the moment the report is closed.  A clause opened with no instance
    checked before the next one is opened shares that next interval."""

    def __init__(self, prefix: str, clock=time.perf_counter):
        self.prefix = prefix
        self.clock = clock
        self._open: dict[int, list] = {}  # id(report) -> [[clause, ...], start]
        self.busy: dict[str, float] = {}
        self.groups: list[tuple[str, ...]] = []

    def opened(self, report, clause) -> None:
        if not clause.clause.startswith(self.prefix):
            return
        now = self.clock()
        pending = self._open.get(id(report))
        if pending is not None:
            group, start = pending
            if all(c.instances == 0 for c in group):
                group.append(clause)
                return
            self._close(group, now - start)
        self._open[id(report)] = [[clause], now]

    def close(self, report) -> None:
        pending = self._open.pop(id(report), None)
        if pending is not None:
            self._close(pending[0], self.clock() - pending[1])

    def _close(self, group: list, dur: float) -> None:
        ids = tuple(c.clause for c in group)
        if len(ids) > 1:
            self.groups.append(ids)
        for cid in ids:
            self.busy[cid] = self.busy.get(cid, 0.0) + dur


def sampled_total(clause) -> tuple[int, int] | None:
    """The stride-sample size and population parsed from a clause's notes."""
    for note in clause.notes:
        m = SAMPLED.search(note)
        if m:
            return int(m.group(1)), int(m.group(2))
    return None
