"""Run one qnetlab CLI command in-process with every public function traced.

Usage: python perfbench/traced.py SPANS_JSON CLI_ARG...

Public means listed in a module's ``__all__`` (or, for ``cli``, which has no
``__all__``, any function whose name does not start with ``_``).  Each such
function is replaced by a timing wrapper in *every* qnetlab namespace that
binds it, because ``from .processes import sample_path`` gives ``cli`` and
``controller`` references of their own.  Generator functions are left alone:
their work happens while the caller iterates, so a call span would be empty.

Spans are ``[id, parent_id, name, start_s, end_s, extra]`` and stay in memory
until the command returns; then they are written once, with the exit code.
``extra`` carries what a layer's counters need (slots, result bytes, LP
status, bytes written).  The qnetlab sources are not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

MODULES = ("capacity", "cli", "controller", "network", "processes", "queues", "simplex", "stability")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _result_bytes(run) -> int:
    return sum(v.nbytes for v in vars(run).values() if isinstance(v, np.ndarray))


# Per-function counters recorded on the span, from (args, kwargs, result).
EXTRA = {
    "processes.sample_path": lambda a, k, r: _arg(a, k, 3, "horizon"),
    "controller.run_dpp": lambda a, k, r: [_arg(a, k, 3, "horizon"), _result_bytes(r)],
    "stability.single_queue_path": lambda a, k, r: len(_arg(a, k, 0, "arrivals")),
    "simplex.solve_lp": lambda a, k, r: r.status,
    "cli.write_csv": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    "cli.write_report": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        extra = EXTRA.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each public function at every qnetlab namespace binding it."""
        package = importlib.import_module("qnetlab")
        modules = {m: importlib.import_module(f"qnetlab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrapped[fn] = self.wrap(f"{short}.{attr}", fn)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from qnetlab import cli

    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"argv": cli_argv, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
