"""Project scaffolding: one standardized tree per new planning project.

The generated layout keeps every problem next to its domain and gives the
planner wrapper a fixed place to look:

    <name>/
      domains/
      problems/
        p01.pddl
      solutions/
      domain.pddl
      README.md
      plan

Templates substitute ``{{name}}`` and can be replaced or extended from a
user directory; on a path collision the user template wins.
"""

from __future__ import annotations

import contextlib
import re
import shutil
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import Optional, Sequence

from .model import is_name
from .sexpr import Document, MyPddlError

# Empty folders that are part of the standard tree.
TREE_DIRS = ("domains", "problems", "solutions")


class ScaffoldError(MyPddlError):
    pass


@dataclass(frozen=True)
class ProjectTemplate:
    relative_path: str
    content: str
    executable: bool = False


_DOMAIN_TEMPLATE = """\
;; Domain for the {{name}} project.

(define (domain {{name}})

  (:requirements :strips :typing)

  (:types location agent - object)

  (:predicates (at ?a - agent ?l - location))

  (:action move
    :parameters (?a - agent ?from ?to - location)
    :precondition (at ?a ?from)
    :effect (and (not (at ?a ?from))
                 (at ?a ?to))))
"""

_PROBLEM_TEMPLATE = """\
;; First problem of the {{name}} project.

(define (problem {{name}}-p01)

  (:domain {{name}})

  (:objects anna - agent
            home lab - location)

  (:init (at anna home))

  (:goal (at anna lab)))
"""

_README_TEMPLATE = """\
# {{name}}

## Authors

## Contact

## Domain specification

Informal description of the {{name}} domain.

## Problem specifications

Informal description of the problems in `problems/`.

## License
"""

_PLAN_TEMPLATE = """\
#!/bin/sh
# Run the configured planner on this project's domain and problem files.
# The planner command lives in mypddl.toml; see `mypddl plan --help`.
cd "$(dirname "$0")" || exit 2
exec mypddl plan --domain domain.pddl --problem problems/p01.pddl "$@"
"""


def default_templates() -> list[ProjectTemplate]:
    return [
        ProjectTemplate("domain.pddl", _DOMAIN_TEMPLATE),
        ProjectTemplate("problems/p01.pddl", _PROBLEM_TEMPLATE),
        ProjectTemplate("README.md", _README_TEMPLATE),
        ProjectTemplate("plan", _PLAN_TEMPLATE, executable=True),
    ]


def load_template_dir(template_dir: Path) -> list[ProjectTemplate]:
    """Every file below ``template_dir`` becomes a template; the executable
    bit carries over."""
    template_dir = Path(template_dir)
    if not template_dir.is_dir():
        raise ScaffoldError(f"template directory {template_dir} not found")
    templates = []
    for path in sorted(template_dir.rglob("*")):
        if path.is_file():
            rel = path.relative_to(template_dir).as_posix()
            executable = bool(path.stat().st_mode & 0o100)
            templates.append(ProjectTemplate(
                rel, Document.read(path).text, executable))
    return templates


def merge_templates(defaults: Sequence[ProjectTemplate],
                    custom: Sequence[ProjectTemplate]) -> list[ProjectTemplate]:
    merged = {t.relative_path: t for t in defaults}
    for template in custom:
        merged[template.relative_path] = template
    return [merged[key] for key in sorted(merged)]


def _check_name(name: str) -> None:
    if not name:
        raise ScaffoldError("project name must not be empty")
    if not is_name(name):
        offending = next((c for c in name if not re.match(r"[A-Za-z0-9_-]", c)),
                         name[0])
        raise ScaffoldError(
            f"invalid project name {name!r}: character {offending!r} "
            f"not allowed (names start with a letter and contain only "
            f"letters, digits, '-' and '_')")


def create_project(name: str, parent_dir: Path,
                   template_set: Optional[Sequence[ProjectTemplate]] = None,
                   ) -> list[Path]:
    """Create ``parent_dir/name`` from the template set; never overwrites.

    The project name becomes the domain name inside the generated files.
    Returns every created path, directories first.
    """
    _check_name(name)
    root = Path(parent_dir) / name
    if root.exists():
        raise ScaffoldError(f"{root} already exists; refusing to overwrite")
    templates = list(template_set) if template_set is not None \
        else default_templates()
    for template in templates:
        rel = Path(template.relative_path)
        if rel.is_absolute() or ".." in rel.parts:
            raise ScaffoldError(
                f"template path {template.relative_path!r} escapes the project")

    # The parents that ``mkdir`` makes, innermost first: a failure removes
    # them too, and nothing that existed before.
    made = list(takewhile(lambda parent: not parent.exists(), root.parents))
    created: list[Path] = []
    try:
        root.mkdir(parents=True)
        created.append(root)
        for directory in TREE_DIRS:
            (root / directory).mkdir()
            created.append(root / directory)
        for template in templates:
            path = root / template.relative_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(
                template.content.replace("{{name}}", name).encode("utf-8"))
            if template.executable:
                path.chmod(path.stat().st_mode | 0o755)
            created.append(path)
    except OSError as exc:
        if created:
            shutil.rmtree(root, ignore_errors=True)
        for parent in made:
            with contextlib.suppress(OSError):
                parent.rmdir()
        at = "" if Path(exc.filename or root) == root else f" at {exc.filename}"
        raise ScaffoldError(f"cannot create directory {root}: "
                            f"{exc.strerror or exc}{at}") from exc
    return created
