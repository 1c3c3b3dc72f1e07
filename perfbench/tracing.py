"""Spans around pdfactor's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function at every import site: the
modules ``ballantine``, ``spectral``, ``transport``, ``planar``, ``flowsim``
and ``cli`` bind ``polar``, ``sym_eig``, ``spd_sqrt``, ``ot_map`` and friends
by name, so patching only the defining module would miss their calls. A
span is ``(id, parent id, name, start, end, ok, count)``; self time is
derived from the spans afterwards. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import os
import sys
import time

# Modules whose public functions (their ``__all__``) are traced.
MODULES = ("matfun", "transport", "planar", "spectral", "ballantine", "flowsim", "cli")
# The CLI subcommands are not in ``cli.__all__``; span names drop ``cmd_``.
CLI_COMMANDS = {"cmd_factor": "cli.factor", "cmd_simulate": "cli.simulate",
                "cmd_verify": "cli.verify"}
# sym_eig time is attributed to the nearest enclosing span among these.
SYM_EIG_PARENTS = ("matfun.polar", "spectral.block_diagonalize",
                   "ballantine.verify", "transport.ot_map")


# Work counted at the boundary, from the call's result: rotation planes
# found, factors produced, trajectory samples, CSV bytes written.
COUNTERS = {
    "spectral.block_diagonalize": lambda r: sum(1 for b in r.blocks if hasattr(b, "theta")),
    "ballantine.factor_matrix": lambda r: len(r.factors),
    "flowsim.simulate": lambda r: int(r.sample_count),
    "flowsim.write_trajectory_csv": lambda r: sum(os.path.getsize(p) for p in r),
}


def _targets():
    """(defining module, attribute, span name) for every traced function."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"pdfactor.{short}"]
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if callable(obj) and not isinstance(obj, type):
                out.append((mod, attr, f"{short}.{attr}"))
        if short == "cli":
            out.extend((mod, attr, span) for attr, span in CLI_COMMANDS.items())
    return out


class Tracer:
    """Records nested spans in memory for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._bindings = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        count = None
        ok = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if ok and name in COUNTERS:
                count = COUNTERS[name](result)
            self.spans.append((sid, parent, name, t0, t1, ok, count))
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every binding of every traced function in ``pdfactor.*``."""
        if not self._bindings:
            import pdfactor  # noqa: F401  (loads every submodule)

            modules = [m for n, m in sys.modules.items()
                       if n == "pdfactor" or n.startswith("pdfactor.")]
            for mod, attr, name in _targets():
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._bindings.append((m, key, original, wrapper))
        for m, key, _, wrapper in self._bindings:
            setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, original, _ in self._bindings:
            setattr(m, key, original)


def empty_entry():
    """Statistics of a span name that never ran."""
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0, "count": 0, "under": {}}


def _entry(stats, name):
    return stats.setdefault(name, empty_entry())


def accumulate(stats, spans):
    """Add one process's spans into ``stats``, keyed by span name.

    ``busy_s`` counts only the outermost span of a name, so recursion is not
    double counted; ``self_s`` is a span's duration minus its children's.
    A bare module name (``"planar"``) collects the module's busy time: its
    spans that no other span of the same module encloses.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, name, t0, t1, ok, count in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    for sid, parent, name, t0, t1, ok, count in spans:
        dur = t1 - t0
        e = _entry(stats, name)
        e["calls"] += 1
        e["self_s"] += dur - child_time.get(sid, 0.0)
        e["failed"] += 0 if ok else 1
        e["count"] += count or 0
        module = name.split(".")[0]
        nested = nested_module = False
        owner = "other"
        p = parent
        while p >= 0:
            pname = by_id[p][2]
            nested = nested or pname == name
            nested_module = nested_module or pname.split(".")[0] == module
            if owner == "other" and pname in SYM_EIG_PARENTS:
                owner = pname
            p = by_id[p][1]
        if not nested:
            e["busy_s"] += dur
            if name == "matfun.sym_eig":
                e["under"][owner] = e["under"].get(owner, 0.0) + dur
        if not nested_module:
            _entry(stats, module)["busy_s"] += dur
    return stats
