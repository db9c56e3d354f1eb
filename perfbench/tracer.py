"""Run the fkips CLI with its public layer functions wrapped in spans.

Usage: python perfbench/tracer.py SPANS_FILE CLI_ARG...

Every public module-level function of the traced modules, plus a few named
methods, is replaced by a wrapper that records one span per call: id,
parent id, name, start and end (``time.perf_counter`` seconds).  Spans stay
in memory and are written to SPANS_FILE, one tab-separated line each, after
the CLI returns.  The package itself is not modified: wrappers are bound
from outside, into every ``fkips`` module that holds an alias of the
original, so ``from .engine import run_ips`` in other modules is traced too.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
import types

MODULES = ("engine", "flow", "measures", "bounds", "annealing", "adaptive", "harness", "cli")
METHODS = (
    ("adaptive", "LambdaCurve", "value"),
    ("harness", "ExperimentConfig", "build_flow"),
    ("measures", "KernelMatrix", "power"),
)


class Tracer:
    def __init__(self):
        self.spans = []   # (id, parent id or -1, name, start, end)
        self._stack = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.writelines(f"{s}\t{p}\t{n}\t{a!r}\t{b!r}\n" for s, p, n, a, b in self.spans)


def _fkips_modules():
    return [m for name, m in list(sys.modules.items()) if name == "fkips" or name.startswith("fkips.")]


def _bindings(originals):
    """Every (owner, attribute, original) in the package that still binds
    an original; owners are modules and the classes they define."""
    found = []
    for mod in _fkips_modules():
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj in originals:
                found.append((mod, attr, obj))
            elif isinstance(obj, type) and obj.__module__.startswith("fkips"):
                found += [
                    (obj, a, v)
                    for a, v in vars(obj).items()
                    if isinstance(v, types.FunctionType) and v in originals
                ]
    return found


def install(tracer: Tracer) -> dict:
    """Wrap the traced functions and rebind every alias; returns the
    original -> wrapper map."""
    mods = {m: importlib.import_module(f"fkips.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
            if public and isinstance(obj, types.FunctionType):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for short, cls_name, meth in METHODS:
        orig = vars(getattr(mods[short], cls_name))[meth]
        wrappers[orig] = tracer.wrap(f"{short}.{cls_name}.{meth}", orig)
    for owner, attr, orig in _bindings(wrappers):
        setattr(owner, attr, wrappers[orig])
    check_complete(wrappers)
    return wrappers


def check_complete(wrappers: dict) -> None:
    left = _bindings(wrappers)
    if left:
        names = ", ".join(f"{owner.__name__}.{attr}" for owner, attr, _ in left)
        raise RuntimeError(f"unwrapped originals still bound: {names}")


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    wrappers = install(tracer)
    rc = sys.modules["fkips.cli"].main(cli_args)
    check_complete(wrappers)
    tracer.write(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
