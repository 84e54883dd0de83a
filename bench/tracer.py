"""Spans and counters recorded from outside ``wrsp``.

``install`` wraps public functions in every ``wrsp`` module namespace that
binds them: ``series`` and ``claims`` import ``close``, ``intersect`` and
the rest with ``from .subgroup import ...``, so patching only
``wrsp.subgroup`` would miss their calls.  Methods are patched on their
class.

A span records name, start, end and parent.  Spans are kept in memory and
written out when the run ends.  Self time is a span's duration minus the
time its child spans cover.  ``Subgroup.reduce`` runs hundreds of thousands
of times, so its spans are aggregated (calls, time) but not stored; engine
primitives run millions of times and are only counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

ENGINE_COUNTS = ("engine.mul.calls", "engine.inv.calls", "engine.conj.calls")
CLI_COMMANDS = ("verify", "series", "density", "export-presentation", "oracle")
SERIES_SPANS = tuple(f"series.{kind}" for kind in
                     ("gamma", "lowerp", "frattini", "dimension", "power", "m"))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start, end, parent id)
        self.stack: list[list] = []       # open frames: [id, name, start, child time]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()  # work counters other than span calls
        self.series_keys: set = set()
        self._next_id = 0
        self.t0 = perf_counter()

    def wrap(self, name, fn, store=True, after=None):
        """``fn`` inside a span; ``name`` may be a function of the arguments,
        ``after(result, args)`` records counters from the outcome."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            frame = [self._next_id, span, perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                # recursion into the same name is counted once in total_s
                if not any(f[1] == span for f in self.stack):
                    self.total_s[span] += dur
                self.self_s[span] += dur - frame[3]
                self.calls[span] += 1
                if store:
                    self.spans.append((frame[0], span, frame[2] - self.t0, end - self.t0,
                                       parent[0] if parent is not None else None))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _patch_everywhere(orig, wrapper) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "wrsp" or modname.startswith("wrsp."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def _count_calls(tracer: Tracer, key: str, fn, when=None):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args):
        if when is None or when(*args):
            counts[key] += 1
        return fn(*args)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layers of an imported ``wrsp`` so that ``tracer`` sees them."""
    # import_module, not ``import wrsp.series as ...``: the package's
    # ``series`` attribute is the function, which shadows the submodule
    engine, subgroup, series, spectra, claims, cli = (
        importlib.import_module(f"wrsp.{name}")
        for name in ("engine", "subgroup", "series", "spectra", "claims", "cli"))

    ctx_cls = engine.GroupContext
    ctx_cls.mul = _count_calls(tracer, "engine.mul.calls", ctx_cls.mul)
    ctx_cls.inv = _count_calls(tracer, "engine.inv.calls", ctx_cls.inv)
    ctx_cls.conj_by_x_power = _count_calls(
        tracer, "engine.conj.calls", ctx_cls.conj_by_x_power,
        when=lambda ctx, a, z, t: t & ctx.tmask != 0)
    ctx_cls.__init__ = tracer.wrap("engine.context", ctx_cls.__init__)

    def close_after(result, args):
        tracer.counts["subgroup.close.gens"] += len(args[0])
        tracer.counts["subgroup.close.leaders"] += len(result.igs)

    orig_close = subgroup.close
    traced_close = tracer.wrap("subgroup.close", orig_close, after=close_after)

    @functools.wraps(orig_close)
    def close(gens, conjugators=()):
        return traced_close(list(gens), conjugators)

    _patch_everywhere(orig_close, close)
    subgroup.Subgroup.reduce = tracer.wrap("subgroup.reduce", subgroup.Subgroup.reduce,
                                           store=False)
    for fname in ("intersect", "layer_shape", "commutator_subgroup", "normal_closure"):
        orig = getattr(subgroup, fname)
        _patch_everywhere(orig, tracer.wrap(f"subgroup.{fname}", orig))

    def series_name(ctx, kind):
        return f"series.{series.SeriesKind(kind).value}"

    def series_after(result, args):
        tracer.counts["series.calls"] += 1
        tracer.series_keys.add((args[0].k, series.SeriesKind(args[1]).value))

    orig = series.series
    _patch_everywhere(orig, tracer.wrap(series_name, orig, after=series_after))
    for fname, span in (("commutator_identity_checks", "series.identity_checks"),
                        ("power_series", "series.power_series"),
                        ("exact_power_subgroup", "series.exact_power_subgroup")):
        orig = getattr(series, fname)
        _patch_everywhere(orig, tracer.wrap(span, orig))

    for fname in ("density_sequence", "complement_density", "invariant_subspace"):
        orig = getattr(spectra, fname)
        _patch_everywhere(orig, tracer.wrap(f"spectra.{fname}", orig))

    for cid, spec in list(claims.CLAIMS.items()):
        object.__setattr__(spec, "runner", tracer.wrap(f"claims.{cid}", spec.runner))

    for command in CLI_COMMANDS:
        fname = "cmd_" + command.replace("-", "_")
        orig = getattr(cli, fname)
        _patch_everywhere(orig, tracer.wrap(f"cli.{command}", orig))


def layer_metric_names(claim_ids) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(key, "count") for key in ENGINE_COUNTS]
    names.append(("engine.context.s", "s"))
    names += [("subgroup.close.calls", "count"), ("subgroup.close.s", "s"),
              ("subgroup.close.leaders", "count"), ("subgroup.close.leaders_per_gen", "ratio")]
    for op in ("reduce", "intersect", "layer_shape"):
        names += [(f"subgroup.{op}.calls", "count"), (f"subgroup.{op}.s", "s")]
    names += [("subgroup.commutator_subgroup.s", "s"), ("subgroup.normal_closure.s", "s")]
    for span in SERIES_SPANS:
        names += [(f"{span}.s", "s"), (f"{span}.total_s", "s")]
    names += [("series.cache.hit_ratio", "ratio"),
              ("series.identity_checks.calls", "count"), ("series.identity_checks.s", "s"),
              ("series.power_series.s", "s"), ("series.exact_power_subgroup.s", "s")]
    names += [("spectra.density_sequence.calls", "count"), ("spectra.density_sequence.s", "s"),
              ("spectra.complement_density.s", "s"), ("spectra.invariant_subspace.s", "s")]
    for cid in claim_ids:
        names += [(f"claims.{cid}.s", "s"), (f"claims.{cid}.total_s", "s")]
    for command in CLI_COMMANDS:
        names += [(f"cli.{command}.s", "s"), (f"cli.{command}.total_s", "s")]
    return names


def layer_metrics(tracer: Tracer, claim_ids) -> dict[str, float]:
    """Values of every per-layer metric; a layer the run never entered reads 0."""
    gens = tracer.counts["subgroup.close.gens"]
    series_calls = tracer.counts["series.calls"]
    values = {}
    for name, _ in layer_metric_names(claim_ids):
        span, _, field = name.rpartition(".")
        if name in ENGINE_COUNTS or name == "subgroup.close.leaders":
            values[name] = tracer.counts[name]
        elif field == "calls":
            values[name] = tracer.calls[span]
        elif field == "s":
            values[name] = tracer.self_s[span]
        elif field == "total_s":
            values[name] = tracer.total_s[span]
    values["subgroup.close.leaders_per_gen"] = (
        tracer.counts["subgroup.close.leaders"] / gens if gens else 0.0)
    values["series.cache.hit_ratio"] = (
        (series_calls - len(tracer.series_keys)) / series_calls if series_calls else 0.0)
    return values
