"""Type-hierarchy extraction, DOT emission, and diagram rendering.

Every type box carries the predicate signatures that mention the type at
least once as a parameter, written exactly as they appear in the source.
Arrows run from subtype to supertype. Each render stores a copy of the
domain, the DOT text, and (when a renderer is available) the image, all
three tagged with the same ascending revision number.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .model import DEFAULT_TYPE, PddlDomain, is_name, parse_domain
from .sexpr import (
    Document,
    MyPddlError,
    ParseDiagnostic,
    Record,
    Span,
    excerpt,
    finding,
)

# Built-in numeric type: lives outside the object hierarchy, never drawn.
_NUMBER = "number"


class RenderError(MyPddlError):
    pass


class TypeGraph(Record):
    __slots__ = ("nodes", "edges", "predicates_by_type", "cycle_edges")
    _fresh = {"nodes": lambda: {DEFAULT_TYPE}, "edges": set,
              "predicates_by_type": dict, "cycle_edges": set}

    def children(self, type_name: str) -> list[str]:
        return sorted(c for c, p in self.edges if p == type_name)


class DiagramArtifacts(NamedTuple):
    dot_path: Path
    image_path: Optional[Path]
    copied_domain_path: Path
    revision: int


def build_type_graph(domain: PddlDomain) -> tuple[TypeGraph, list[ParseDiagnostic]]:
    """Derive the subtype graph from a parsed domain.

    Types that only ever appear as supertypes (or only in predicate
    parameters) are materialized and implicitly rooted at "object". A type
    declared under several distinct parents keeps all its edges, plus a
    warning. Cycles are reported as errors and their back-edges marked.
    Each diagnostic carries the span of the declaration that caused it.
    Only facts of the graph are reported here: a type that is no name was
    already reported by the model that holds it.
    """
    graph = TypeGraph()
    diagnostics: list[ParseDiagnostic] = []

    def warn(message: str, code: str, span: Optional[Span]) -> None:
        diagnostics.append(finding(span, message, code))

    # Each declared type's parents, in declaration order, each with the span
    # of the first declaration that names it. A parent that is no name, which
    # the model reports, is left out, so its entries hang off object.
    declared_parent: dict[str, dict[str, Optional[Span]]] = {}
    for entry in domain.types.entries:
        parent = entry.type_name
        graph.nodes.add(entry.name)
        if is_name(parent):
            graph.nodes.add(parent)
            graph.edges.add((entry.name, parent))
            declared_parent.setdefault(entry.name, {}).setdefault(
                parent, entry.name_span)

    for name, parents in declared_parent.items():
        if len(parents) > 1:
            warn(f"type {excerpt(repr(name))} is declared under several "
                 f"parents: {excerpt(', '.join(sorted(parents)))}",
                 "multi-parent", span=list(parents.values())[1])

    # Predicate signatures attach to every parameter type, once per box.
    for pred in domain.predicates:
        for entry in pred.parameters.entries:
            type_name = entry.type_name
            if type_name == _NUMBER or not is_name(type_name):
                continue
            if type_name not in graph.nodes:
                warn(f"type {excerpt(repr(type_name))} is used by "
                     f"{excerpt(repr(pred.name))} but never declared",
                     "undeclared-type", span=pred.span)
                graph.nodes.add(type_name)
            box = graph.predicates_by_type.setdefault(type_name, [])
            if pred.signature_text not in box:
                box.append(pred.signature_text)

    # Implicit rooting: anything without a declared parent hangs off object.
    for node in sorted(graph.nodes):
        if node != DEFAULT_TYPE and node not in declared_parent:
            graph.edges.add((node, DEFAULT_TYPE))

    _mark_cycles(graph, diagnostics, declared_parent)
    return graph, diagnostics


def _mark_cycles(graph: TypeGraph, diagnostics: list[ParseDiagnostic],
                 declared_parent: dict[str, dict[str, Optional[Span]]]) -> None:
    """Mark back-edges. Report each cycle at the declaration of its
    back-edge, or of its first declared edge if the back-edge is an implicit
    one to object, and each type not rooted at object at its first
    declaration (undeclared types hang off object, so they are rooted)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph.nodes}
    adjacency: dict[str, list[str]] = {node: [] for node in graph.nodes}
    for child, parent in sorted(graph.edges):
        adjacency[child].append(parent)

    # Depth-first along parent edges with an explicit stack, so hierarchies
    # of any depth fit: ``path`` holds the gray nodes, ``pending`` the
    # parents each of them has left to visit.
    for root in sorted(graph.nodes):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        pending = [iter(adjacency[root])]
        while pending:
            node = path[-1]
            for parent in pending[-1]:
                if color[parent] == GRAY:
                    graph.cycle_edges.add((node, parent))
                    cycle = path[path.index(parent):] + [parent]
                    span = next(
                        (declared_parent[c][p] for c, p
                         in [(node, parent), *zip(cycle, cycle[1:])]
                         if p in declared_parent.get(c, ())), None)
                    diagnostics.append(finding(
                        span, "type hierarchy contains a cycle: "
                        + excerpt(" -> ".join(cycle)), "type-cycle"))
                elif color[parent] == WHITE:
                    color[parent] = GRAY
                    path.append(parent)
                    pending.append(iter(adjacency[parent]))
                    break
            else:
                pending.pop()
                color[path.pop()] = BLACK

    # Upward reachability check: every node should end at object.
    subtypes: dict[str, list[str]] = {}
    for child, parent in graph.edges:
        subtypes.setdefault(parent, []).append(child)
    reaches_object = {DEFAULT_TYPE}
    todo = [DEFAULT_TYPE]
    while todo:
        for child in subtypes.get(todo.pop(), ()):
            if child not in reaches_object:
                reaches_object.add(child)
                todo.append(child)
    for node in sorted(graph.nodes - reaches_object):
        diagnostics.append(finding(
            next(iter(declared_parent[node].values())),
            f"type {excerpt(repr(node))} is not rooted at {DEFAULT_TYPE!r}",
            "orphan-type"))


def hierarchy_depth(graph: TypeGraph) -> int:
    """Longest root-to-leaf chain, counting "object" as layer 1.

    Cycle back-edges are ignored so the walk terminates on any input.
    """
    children: dict[str, list[str]] = {}
    for child, parent in sorted(graph.edges):
        if (child, parent) in graph.cycle_edges:
            continue
        children.setdefault(parent, []).append(child)

    # Post-order walk with one memoized depth per node. A node met again
    # while still on the current path closes a cycle that no back-edge
    # marks, and counts as depth 0 there, so the walk ends on any graph.
    depth: dict[str, int] = {}
    on_path: set[str] = set()
    todo: list[tuple[str, bool]] = [(DEFAULT_TYPE, False)]
    while todo:
        node, finished = todo.pop()
        if finished:
            on_path.discard(node)
            depth[node] = 1 + max((depth.get(c, 0)
                                   for c in children.get(node, ())), default=0)
        elif node not in depth and node not in on_path:
            on_path.add(node)
            todo.append((node, True))
            todo.extend((c, False) for c in children.get(node, ()))
    return depth[DEFAULT_TYPE]


_RECORD_ESCAPES = str.maketrans({c: f"\\{c}" for c in "{}|<>\"\\"})


def emit_dot(graph: TypeGraph) -> str:
    """Deterministic DOT text: nodes sorted by name, edges by (child, parent),
    one record-shaped box per type with its predicate signatures."""
    lines = [
        "digraph type_hierarchy {",
        "  rankdir=BT;",
        "  node [shape=record, fontname=\"Helvetica\"];",
    ]
    for node in sorted(graph.nodes):
        signatures = graph.predicates_by_type.get(node, [])
        body = "\\n".join(s.translate(_RECORD_ESCAPES) for s in signatures)
        lines.append(f"  \"{node}\" [label=\"{{{node}|{body}}}\"];")
    for child, parent in sorted(graph.edges):
        attrs = "arrowhead=empty"
        if (child, parent) in graph.cycle_edges:
            attrs += ", color=red, style=dashed"
        lines.append(f"  \"{child}\" -> \"{parent}\" [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# A revision's file name, ``{base}_{N}.ext``: its base and N. Compiled once,
# as each diagram command would otherwise compile a pattern of its base.
_REVISION = re.compile(r"(.*)_(\d+)\.[^.]+", re.DOTALL)


def _next_revision(base: str, *dirs: Path) -> int:
    """One more than the highest N of a ``{base}_{N}.ext`` in ``dirs``."""
    return 1 + max((int(match[2]) for directory in dirs
                    for path in directory.iterdir()
                    if (match := _REVISION.fullmatch(path.name))
                    and match[1] == base), default=0)


def render_diagram(domain_file: Union[Path, Document], output_root: Path,
                   renderer: Optional[str] = None,
                   ) -> tuple[DiagramArtifacts, list[ParseDiagnostic]]:
    """Copy the domain, write DOT, and (with a renderer) produce an image.

    ``domain_file`` is a domain file or a document read from one.
    ``renderer`` is an external command such as "dot"; when None, image
    generation is skipped with a warning. All three outputs share one
    revision number, one higher than anything already present.
    """
    doc = domain_file if isinstance(domain_file, Document) \
        else Document.read(domain_file)
    domain_file = doc.path
    output_root = Path(output_root)
    domain, diagnostics = parse_domain(doc)
    graph, graph_diags = build_type_graph(domain)
    diagnostics = list(diagnostics) + graph_diags

    domains_dir = output_root / "domains"
    dot_dir = output_root / "dot"
    diagrams_dir = output_root / "diagrams"
    for directory in (domains_dir, dot_dir, diagrams_dir):
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RenderError(
                f"cannot create directory {directory}: {exc.strerror}") from exc

    base = domain_file.stem
    revision = _next_revision(base, domains_dir, dot_dir, diagrams_dir)

    copied = domains_dir / f"{base}_{revision}.pddl"
    copied.write_bytes(doc.data)
    dot_path = dot_dir / f"{base}_{revision}.dot"
    dot_path.write_text(emit_dot(graph), encoding="utf-8")

    image_path: Optional[Path] = None
    if renderer is not None:
        image_path = diagrams_dir / f"{base}_{revision}.png"
        import subprocess
        try:
            proc = subprocess.run(
                [renderer, "-Tpng", str(dot_path), "-o", str(image_path)],
                capture_output=True, text=True)
        except OSError as exc:
            raise RenderError(f"cannot run renderer {renderer!r}: {exc}") from exc
        if proc.returncode != 0:
            raise RenderError(
                f"renderer {renderer!r} exited with {proc.returncode}: "
                f"{proc.stderr.strip()}")
    else:
        diagnostics.append(finding(
            None, "no renderer configured; image generation skipped",
            "no-renderer"))

    artifacts = DiagramArtifacts(dot_path=dot_path, image_path=image_path,
                                 copied_domain_path=copied, revision=revision)
    return artifacts, diagnostics
