"""Run one ``huaops`` CLI request with the package's layers instrumented.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json ARG...

``ARG...`` are the ``huaops`` command-line arguments.  The request runs
in-process through ``huaops.cli.run``; the exit status is the CLI's.

Every public module-level function of every layer is wrapped in a span at
each place it is bound, so that a name imported by another module (``cli``
imports ``reduce_iwasawa``, ``reduce`` imports ``change_basis``) is timed
where it is called.  A few methods that carry a layer boundary are wrapped
too.  Functions called too often for a span are counted only.  Spans are
kept in memory and written to ``OUT.json`` together with the counters and
the straightening-cache sizes when the request ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "liedata", "minpoly", "matop", "pbw", "params", "reduce",
          "cfun")

# Called up to a million times per request: counted, never spanned.
COUNTED_METHODS = {
    "pbw.OrderedBasis.mul_mono_gen": "pbw.mul_mono_gen",
    "pbw.OrderedBasis.mul_monos": "pbw.mul_monos",
    "params.ParamPoly.__mul__": "params.mul",
    "params.ParamPoly.__add__": "params.add",
}
COUNTED_FUNCTIONS = {"params.as_fraction"}

# Methods that mark a layer boundary, spanned under the name given.
SPANNED_METHODS = {
    "pbw.EnvElement.__mul__": "pbw.env_mul",
    "pbw.EnvElement.from_json_dict": "pbw.EnvElement.from_json_dict",
    "matop.OpMatrix.mul": "matop.mul",
    "matop.GeneratorSet.to_json_dict": "matop.GeneratorSet.to_json_dict",
}


class Trace:
    """Spans as ``[id, parent, name index, start, end, child seconds]``, counts."""

    def __init__(self) -> None:
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}

    def span(self, name: str, fn, probe=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [len(spans), stack[-1][0] if stack else -1, index,
                      clock(), 0.0, 0.0]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                if stack:
                    stack[-1][5] += record[4] - record[3]
            if probe is not None:
                probe(self, args, result)
            return result

        return spanned

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, amount: int) -> None:
        self.counts.setdefault(name, [0])[0] += amount


def _probe_change_basis(trace, args, result):
    trace.add("pbw.change_basis_terms_in", len(args[0].terms))
    trace.add("pbw.change_basis_terms_out", len(result.terms))


def _probe_reduce(trace, args, result):
    trace.add("reduce.terms_in", len(args[0].terms))
    trace.add("reduce.nonzero_residues", 0 if result.is_zero() else 1)


def _probe_json(trace, args, result):
    trace.add("cli.json_bytes", len(result.encode("utf-8")))


PROBES = {
    "pbw.change_basis": _probe_change_basis,
    "reduce.reduce_iwasawa": _probe_reduce,
    "cli._canonical_json": _probe_json,
}


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(trace: Trace) -> list:
    """Wrap the layers in place; returns the list that collects every basis."""
    modules = [importlib.import_module(f"huaops.{layer}") for layer in LAYERS]
    for layer, module in zip(LAYERS, modules):
        for attr, value in list(vars(module).items()):
            if (isinstance(value, type) or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__):
                continue
            name = f"{layer}.{attr}"
            if name in COUNTED_FUNCTIONS:
                wrapped = trace.counter(name, value)
            elif not attr.startswith("_") or name in PROBES:
                wrapped = trace.span(name, value, PROBES.get(name))
            else:
                continue
            _rebind(modules, value, wrapped)

    for qualified, short in {**COUNTED_METHODS, **SPANNED_METHODS}.items():
        layer, cls_name, method = qualified.split(".")
        cls = getattr(importlib.import_module(f"huaops.{layer}"), cls_name)
        raw = vars(cls)[method]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrap = trace.counter if qualified in COUNTED_METHODS else trace.span
        wrapped = wrap(short, fn)
        for attr, value in list(vars(cls).items()):
            if value is raw:  # aliases such as __rmul__ = __mul__
                setattr(cls, attr, staticmethod(wrapped) if static else wrapped)

    json_module = importlib.import_module("json")
    json_module.load = trace.span("cli.json.load", json_module.load)

    pbw = importlib.import_module("huaops.pbw")
    bases: list = []
    init = pbw.OrderedBasis.__init__

    @functools.wraps(init)
    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bases.append(self)

    pbw.OrderedBasis.__init__ = recording_init
    return bases


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    trace = Trace()
    bases = instrument(trace)
    cli = importlib.import_module("huaops.cli")
    try:
        status = cli.run(cli_args)
    finally:
        caches = {
            "pbw.cache_entries_mono_gen":
                sum(len(b._mono_gen_cache) for b in bases),
            "pbw.cache_entries_mono_mono":
                sum(len(b._mono_mono_cache) for b in bases),
            "pbw.cache_entries_conversion":
                sum(len(b._conversion_cache) for b in bases),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"names": trace.names, "spans": trace.spans,
                       "counts": {k: v[0] for k, v in trace.counts.items()},
                       "caches": caches}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
