"""Span tracing around the program's layers, installed from outside.

`Tracer.install` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent) per call, plus a few
counts of the work done. Every module-level name bound to a wrapped function
is rebound, so calls made through ``from .sexpr import parse_sexpr`` are
seen too. The program's files are not changed; `Tracer.restore` undoes the
rebinding. Time spent computing counts is recorded as an excluded span so
it is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

# The public functions of each layer whose calls are recorded.
LAYERS = {
    "sexpr": ["parse_sexpr", "serialize", "find_blocks", "offset_to_line_col"],
    "model": ["parse_domain", "parse_problem"],
    "highlight": ["tokenize", "invalid_regions", "emit_tokens_json",
                  "render_html"],
    "construct": ["read_construct", "add_construct", "insert_construct",
                  "append_to_block", "write_atomically"],
    "distance": ["extract_locations", "distance_facts",
                 "augment_with_distances", "augment_file"],
    "typegraph": ["build_type_graph", "emit_dot", "render_diagram"],
}

_EXCLUDED = "trace.count"


def _count_nodes(counts, result, args):
    stack = list(result[0])
    n = 0
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    counts["sexpr.nodes"] += n


def _count_graph(counts, result, args):
    counts["typegraph.nodes"] += len(result[0].nodes)
    counts["typegraph.edges"] += len(result[0].edges)


# Counts taken at the layer boundaries, from each call's result or arguments.
COUNTERS: dict[str, Callable] = {
    "sexpr.parse_sexpr": _count_nodes,
    "model.parse_domain": lambda c, r, a: c.update(
        {"model.diagnostics": len(r[1])}),
    "highlight.tokenize": lambda c, r, a: c.update({"highlight.tokens": len(r)}),
    "highlight.invalid_regions": lambda c, r, a: c.update(
        {"highlight.regions": len(r)}),
    "construct.write_atomically": lambda c, r, a: c.update(
        {"construct.bytes_written": len(a[1].encode("utf-8"))}),
    "distance.distance_facts": lambda c, r, a: c.update(
        {"distance.facts": len(r)}),
    "typegraph.build_type_graph": _count_graph,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def absorb(self, spans: list[list], counts: dict[str, int]) -> None:
        """Append spans and counts recorded by a copy of this tracer in a
        child process."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1])
        self.counts.update(counts)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(_EXCLUDED):
                    counter(self.counts, result, args)
            return result
        return traced

    def install(self) -> None:
        """Rebind every name that refers to a layer function."""
        originals = {}
        for module_name, names in LAYERS.items():
            module = sys.modules[f"mypddl.{module_name}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(f"{module_name}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "mypddl" and not module_name.startswith("mypddl."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def summary(self, root: str) -> dict[str, float]:
        """Self time and call count per span name, over the spans below
        roots named ``root``. Self time is a span's duration less the part
        its child spans cover; excluded spans are charged to nobody."""
        child_time = defaultdict(float)
        under = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            top = i
            while self.spans[top][3] >= 0:
                top = self.spans[top][3]
            under.append(self.spans[top][0] == root)
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if not under[i] or name == _EXCLUDED:
                continue
            out[f"{name}.self_s"] += end - start - child_time[i]
            out[f"{name}.calls"] += 1
        return dict(out)
