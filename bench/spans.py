"""Spans around the calls into mechdock's public functions.

``Tracer.install`` wraps each traced function where mechdock's modules bind
it, so calls the program makes to itself are seen as well as the
benchmark's own; ``uninstall`` puts the originals back. Every wrapped call
keeps a frame on a stack, so a span's self time is its duration minus the
time of the spans inside it. Spans are kept in memory, each with a name,
start, end, parent and self time, and written out by ``write``.

The exact-arithmetic functions run about a million times in one chain-large
operation, so their calls are folded into per-name totals (count, time, self
time) instead of being kept one by one; every other span is kept.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

FOLDED = ("exactnum.",)


class Stat:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats = {}
        self.spans = []
        self._stack = [[0.0, None]]
        self._patches = []

    def stat(self, name):
        key = (self.phase, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        folded = name.startswith(FOLDED)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, None if folded else len(spans)]
            if not folded:
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                st = self.stat(name)
                st.count += 1
                st.total += dt
                st.self_time += dt - frame[0]
                if not folded:
                    spans[frame[1]] = (name, t0, t1, parent[1], dt - frame[0])

        return traced

    def call(self, name, fn, *args, **kwargs):
        """A span around one of the benchmark's own calls."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch_function(self, fn, name):
        """Wrap fn wherever a mechdock module binds it by name."""
        wrapped = self.wrap(name, fn)
        for mod in [m for k, m in sys.modules.items() if k.startswith("mechdock")]:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self):
        from mechdock import adversary, exactnum, forge, mechlib, optcore
        from mechdock import schedmodel, wmon

        ti = exactnum.TieredValue
        inst = schedmodel.Instance
        for fn, name in (
            (exactnum.tv_compare, "exactnum.tv_compare"),
            (exactnum.format_value, "exactnum.format_value"),
            (exactnum.parse_value, "exactnum.parse_value"),
            (schedmodel.makespan, "schedmodel.makespan"),
            (optcore.opt_makespan, "optcore.opt_makespan"),
            (wmon.wmon_value, "wmon.wmon_value"),
            (wmon.infer, "wmon.infer"),
            (forge.solve_best_a, "forge.solve_best_a"),
            (forge.build_main, "forge.build_main"),
            (forge.certified_bound, "forge.certified_bound"),
            (adversary.attack, "adversary.attack"),
            (adversary.verify_report, "adversary.verify_report"),
            (adversary.replay_report, "adversary.replay"),
        ):
            self.patch_function(fn, name)
        for cls, attr, name in (
            (ti, "__add__", "exactnum.tv_add"),
            (ti, "__radd__", "exactnum.tv_add"),
            (inst, "__init__", "schedmodel.instance_new"),
            (inst, "with_costs", "schedmodel.with_costs"),
            (inst, "to_json_line", "schedmodel.to_json_line"),
            (inst, "from_json_dict", "schedmodel.from_json_dict"),
            (schedmodel.ExternalMechanism, "query", "schedmodel.extern_roundtrip"),
            (adversary.Report, "to_json", "adversary.report_json"),
        ):
            self.patch_method(cls, attr, name)
        # opt_makespan's explored count, read from the OptResult it returns.
        timed = mechlib.opt_makespan

        def counted(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.stat("optcore.nodes").count += result.explored
            return result

        self._patches.append((mechlib, "opt_makespan", timed))
        mechlib.opt_makespan = counted

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    def write(self, path):
        """Per-name totals by phase, then one line per kept span."""
        with open(path, "w") as fh:
            for (phase, name), st in sorted(self.stats.items()):
                fh.write(
                    json.dumps(
                        {
                            "phase": phase,
                            "name": name,
                            "count": st.count,
                            "total_s": st.total,
                            "self_s": st.self_time,
                        }
                    )
                    + "\n"
                )
            for idx, (name, t0, t1, parent, self_s) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "parent": parent,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )

