"""Outside-in tracing of the curvemetrics public functions.

The tracer wraps every public function of the package's modules and
installs the wrapper at every import site: a function defined in
``curves`` and imported into ``flows`` is replaced in both module
namespaces, so calls made inside the library are seen too. Nothing in
the library itself changes; uninstall() puts the originals back.

Each wrapped call becomes a span (id, parent id, name, start, end,
error flag). Spans are kept in memory and written out by the caller
when the run ends. Self time is a span's duration minus the durations
of its direct child spans.
"""

import functools
import inspect
import os
import time

MODULES = (
    "curves",
    "homotopy",
    "energies",
    "flows",
    "levelset",
    "counterexamples",
    "shapedist",
    "curveio",
    "cli",
)


class Tracer:
    """Span recorder for the public functions of curvemetrics."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.errors = {name: 0 for name in MODULES}
        self.bytes_written = 0
        self._stack = []
        self._next_id = 0
        self._counted = set()
        self._patches = []

    def _modules(self):
        mods = {"__init__": self.package}
        for name in MODULES:
            mods[name] = getattr(self.package, name)
        return mods

    def install(self):
        mods = self._modules()
        wrappers = {}
        for short in MODULES:
            mod = mods[short]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(short, attr, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _span_name(self, short, attr, args, kwargs):
        if short == "energies" and attr == "energy":
            spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
            return f"energies.energy.{getattr(spec, 'kind', 'unknown')}"
        return f"{short}.{attr}"

    def _wrap(self, short, attr, fn):
        tracer = self
        is_save = short == "curveio" and attr.startswith("save_")
        is_cli_main = short == "cli" and attr == "main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = tracer._span_name(short, attr, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            error = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = True
                if id(exc) not in tracer._counted:
                    tracer._counted.add(id(exc))
                    tracer.errors[short] += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if not tracer._stack:
                    tracer._counted.clear()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - frame[1]
                tracer.spans.append(
                    (frame[0], parent[0] if parent else -1, name, t0, t1, error)
                )
            if is_save:
                tracer.bytes_written += _written_size(args[0] if args else kwargs["path"])
            if is_cli_main and result != 0:
                tracer.errors["cli"] += 1
            return result

        return traced

    def count(self, name):
        return self.calls.get(name, 0)

    def self_time(self, name):
        return self.self_s.get(name, 0.0)

    def sum_self(self, prefix):
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def span_records(self):
        """Spans as dicts, ordered by span id."""
        return [
            {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
             "error": error}
            for sid, parent, name, t0, t1, error in sorted(self.spans)
        ]

    def layer_table(self):
        """Per-name call counts and self times, largest self time first."""
        rows = [
            {"name": name, "calls": self.calls[name], "self_s": self.self_s[name]}
            for name in self.calls
        ]
        return sorted(rows, key=lambda r: -r["self_s"])


def _written_size(path):
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path += ".npz"
    return os.path.getsize(path)
