"""Knowledge-engineering toolkit for PDDL 3.1.

Lossless parsing, context-aware highlighting, type-hierarchy diagrams,
construct extraction/insertion, Euclidean distance preprocessing, project
scaffolding, snippet expansion, and planner invocation -- each usable as a
library module or through the ``mypddl`` command line.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "sexpr": ("Document", "MyPddlError", "NodeKind", "ParseDiagnostic",
              "SExprNode", "Severity", "Span", "parse_sexpr", "serialize",
              "find_blocks"),
    "model": ("PddlDomain", "PddlProblem", "parse_domain", "parse_problem",
              "parse_typed_list"),
    "highlight": ("Scope", "Token", "tokenize", "invalid_regions",
                  "emit_tokens_json", "iter_tokens_json", "render_html"),
    "typegraph": ("TypeGraph", "build_type_graph", "emit_dot",
                  "render_diagram"),
    "construct": ("read_construct", "add_construct", "insert_construct"),
    "distance": ("extract_locations", "euclidean", "format_distance",
                 "augment_with_distances"),
    "scaffold": ("ProjectTemplate", "create_project"),
    "snippets": ("load_snippets", "expand", "list_snippets"),
    "planner": ("PlannerConfig", "PlanResult", "run_planner"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
