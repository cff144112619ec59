"""Trigger-keyed snippet expansion.

Static snippets (domain, problem, action, durative-action) live one file
each under ``snippet_files/``; a user directory can shadow or extend them.
The arity-parametric triggers t / p / f generate their bodies from the
numeric suffix: ``p2`` expands to the binary predicate template.

Bodies use ``${k:default}`` tab-stop placeholders; expanding from the
command line substitutes the defaults so the result is plain, parseable
PDDL.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from .sexpr import Document, MyPddlError, Record

_HEADER_RE = re.compile(r";;\s*snippet:\s*(?P<description>.+)\s*$")
_TRIGGER_RE = re.compile(r"(?P<base>[A-Za-z-]+)(?P<arity>\d+)?\Z")
_PLACEHOLDER_RE = re.compile(r"\$\{\d+(?::(?P<default>[^}]*))?\}")

MAX_ARITY = 26

_PARAMETRIC = {
    "t": "type declaration",
    "p": "typed predicate declaration",
    "f": "typed function declaration",
}
# The order of ``list_snippets``; any other trigger follows, by name.
_LIST_ORDER = ("domain", "problem", *_PARAMETRIC, "action", "durative-action")


class SnippetError(MyPddlError):
    pass


class SnippetDef(NamedTuple):
    trigger: str
    body: str
    description: str
    parametric: bool = False


class SnippetSet(Record):
    __slots__ = ("snippets", "warnings")
    _fresh = {"warnings": list}
    _required = 1


def _parse_snippet_file(trigger: str, text: str) -> SnippetDef:
    lines = text.split("\n")
    description = trigger
    if lines and (match := _HEADER_RE.match(lines[0])):
        description = match.group("description").strip()
        lines = lines[1:]
        if lines and not lines[0].strip():
            lines = lines[1:]
    body = "\n".join(lines).rstrip("\n")
    return SnippetDef(trigger, body, description)


def _load_dir(directory, snippets: dict[str, SnippetDef],
              warnings: list[str]) -> None:
    """Add each regular ``*.snippet`` file of a directory or package folder
    to ``snippets`` in name order, warning of each trigger it replaces."""
    for entry in sorted(directory.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".snippet") and entry.is_file():
            trigger = entry.name[:-len(".snippet")]
            if trigger in snippets:
                warnings.append(
                    f"user snippet {entry.name} shadows built-in {trigger!r}")
            snippets[trigger] = _parse_snippet_file(
                trigger, Document(entry.read_bytes(), entry).text)


def load_snippets(snippets_dir: Optional[Path] = None) -> SnippetSet:
    """Built-in snippets plus (optionally) a user directory; user files
    shadow built-ins by trigger name, with a warning."""
    snippets = {base: SnippetDef(base, "", description, parametric=True)
                for base, description in _PARAMETRIC.items()}
    warnings: list[str] = []
    _load_dir(resources.files(__package__) / "snippet_files", snippets,
              warnings)
    if snippets_dir is not None:
        snippets_dir = Path(snippets_dir)
        if not snippets_dir.is_dir():
            raise SnippetError(f"snippet directory {snippets_dir} not found")
        _load_dir(snippets_dir, snippets, warnings)
    return SnippetSet(snippets, warnings)


def _slot_variable(index: int) -> str:
    # ?x ?y ?z, then ?x1 ?x2 ... for higher arities
    if index < 3:
        return "?" + "xyz"[index]
    return f"?x{index - 2}"


def _parametric_body(base: str, arity: int) -> str:
    slots = " ".join(f"{_slot_variable(i)} - object" for i in range(arity))
    if base == "p":
        return f"(pred-name {slots})"
    if base == "f":
        return f"(func-name {slots}) - number"
    if base == "t":
        if arity == 1:
            return "type-name - object"
        return "\n".join(f"type-name{i + 1} - object" for i in range(arity))
    raise SnippetError(f"unknown parametric snippet {base!r}")


def substitute_defaults(body: str) -> str:
    return _PLACEHOLDER_RE.sub(lambda m: m.group("default") or "", body)


def expand(trigger_text: str, snippet_set: SnippetSet) -> str:
    """Expansion text for a trigger, e.g. "domain", "p2" or "t3"."""
    match = _TRIGGER_RE.match(trigger_text)
    base = match.group("base") if match else trigger_text
    arity_text = match.group("arity") if match else None

    snippet = snippet_set.snippets.get(base)
    if snippet is None or (arity_text is not None and not snippet.parametric):
        candidates = list(snippet_set.snippets) + [
            f"{b}1" for b, s in snippet_set.snippets.items() if s.parametric]
        from difflib import get_close_matches
        near = get_close_matches(trigger_text, candidates, n=3)
        hint = f"; did you mean {', '.join(near)}?" if near else ""
        raise SnippetError(f"unknown snippet trigger {trigger_text!r}{hint}")

    if snippet.parametric:
        if arity_text is None:
            raise SnippetError(
                f"snippet {base!r} needs an arity suffix, e.g. {base}2")
        arity = int(arity_text)
        if arity == 0 or arity > MAX_ARITY:
            raise SnippetError(
                f"arity {arity} out of range (1..{MAX_ARITY})")
        return _parametric_body(base, arity)

    return substitute_defaults(snippet.body)


def list_snippets(snippet_set: SnippetSet) -> list[tuple[str, str]]:
    """(trigger, description) rows: the seven base snippets first, then any
    user additions in name order. A parametric trigger is listed with its
    arity suffix, as ``p1, p2, ...``."""
    snippets = snippet_set.snippets
    triggers = [t for t in _LIST_ORDER if t in snippets]
    triggers += sorted(snippets.keys() - set(_LIST_ORDER))
    return [(f"{t}1, {t}2, ..." if snippets[t].parametric else t,
             snippets[t].description) for t in triggers]
