"""Spans around the public functions of each program layer, from outside.

The tracer wraps each listed function and rebinds every module attribute of
the ``subseq`` package that refers to it.  The modules call one another
through their own namespaces (``from .automata import minimize`` makes a
second binding in ``subword``), so patching only the defining module would
miss most calls.  A function that no longer exists is reported as absent.

Each call becomes a span (id, parent id, layer, file, start, end), kept in
memory and written out by ``write_spans``.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict


def _states_in(args, result):
    return getattr(args[0], "n_states", 0) if args else 0


def _states_out(args, result):
    return getattr(result, "n_states", 0)


def _hit(args, result):
    return result is not None


def _levels(args, result):
    # A finite plus measure v means the level chain yielded levels 0..v+1,
    # the last one empty.
    value = getattr(result, "value", None)
    return value + 2 if isinstance(value, int) else 0


def _count_words(args, result):
    return len(getattr(result, "words", ()))


PACKAGE = "subseq"

# layer -> {stat: size(args, result)}, summed over the calls that return.
LAYERS = {
    "cli.main": {},
    "cli.parse_dfa": {},
    "automata.determinize": {"states_out": _states_out},
    "automata.minimize": {"states_in": _states_in, "states_out": _states_out},
    "automata.product": {"states_out": _states_out},
    "automata.distinguishing_words": {},
    "automata.is_empty": {},
    "subword.upward_closure": {"states_out": _states_out},
    "subword.is_level_one_half": {},
    "subword.decompose_level_half": {"ideals_out": _count_words},
    "alternation.m_plus": {"levels": _levels},
    "alternation.l_plus": {},
    "patterns.detect_p1": {},
    "patterns.detect_p2": {},
    "patterns.detect_p3": {"hits": _hit},
    "patterns.find_loop_with_embedded_extension": {"hits": _hit},
    "oracle.chain_table": {"words": _count_words},
    "oracle.cross_check": {},
}


class Tracer:
    """Install with ``install()``, run files under ``file(i)``, then
    ``uninstall()``; ``summary()`` aggregates the spans per layer."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.spans: list[tuple] = []
        self.sizes: dict[tuple[int, str], int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._file = -1
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for index, layer in enumerate(self.names):
            module_name, func_name = layer.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                original = getattr(module, func_name)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(original, index, LAYERS[layer])
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def file(self, index: int) -> None:
        """Start the spans of input file ``index``; spans of one file share it."""
        self._file = index
        self._stack.clear()  # a timeout can leave a call unfinished

    def _wrap(self, func, index: int, sizes: dict):
        spans = self.spans
        stack = self._stack
        ids = self._ids
        totals = self.sizes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] == span_id:
                    stack.pop()
                spans.append((span_id, parent, index, self._file, start, end))
            for stat, size in sizes.items():
                totals[(index, stat)] += size(args, result)
            return result

        return functools.wraps(func)(traced)

    def summary(self) -> dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.<stat>``."""
        layer_of = {span[0]: span[2] for span in self.spans}
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for span_id, parent, index, _, start, end in self.spans:
            self_s[index] += end - start
            calls[index] += 1
            if parent in layer_of:
                self_s[layer_of[parent]] -= end - start
        out: dict[str, float] = {}
        for index, layer in enumerate(self.names):
            out[f"{layer}.calls"] = calls[index]
            out[f"{layer}.self_s"] = self_s[index]
            for stat in LAYERS[layer]:
                out[f"{layer}.{stat}"] = self.sizes[(index, stat)]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"layers": self.names, "absent": self.absent,
                                 "fields": ["id", "parent", "layer", "file", "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
