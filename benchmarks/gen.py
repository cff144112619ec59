"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size arguments and
returns the file bytes together with the facts the checkers need (byte
offsets of blocks, numbers, misspellings, the type hierarchy). The program
under test only ever sees the written files; the recorded facts come from
the generator, never from the program. All generated text is ASCII, so
string offsets and byte offsets coincide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Sizes per workload. The README lists the same numbers.
SIZES = {
    "large-problem": dict(
        domain=dict(n_types=12, n_actions=8, n_misspelled=0),
        problem=dict(n_objects=400, n_facts=4_000, numeric_share=0.2,
                     n_locations=12, n_goals=20)),
    "distance-grid": dict(
        domain=dict(n_types=12, n_actions=8, n_misspelled=0),
        problem=dict(n_objects=40, n_facts=60, numeric_share=0.2,
                     n_locations=300, n_goals=5)),
    "broken-domain": dict(
        domain=dict(n_types=200, n_actions=400, n_misspelled=40),
        problem=dict(n_objects=60, n_facts=200, numeric_share=0.2,
                     n_locations=12, n_goals=5)),
}

MAX_TYPE_DEPTH = 6
COORD_MAX = 1000


@dataclass
class Domain:
    text: bytes
    name: str
    parents: dict[str, str]                 # type -> declared parent
    predicates: list[tuple[str, list[str]]]  # name, parameter types
    functions: list[tuple[str, str]]         # name, parameter type
    misspelled: list[tuple[int, int]] = field(default_factory=list)
    clean_actions: list[tuple[int, int]] = field(default_factory=list)
    broken_actions: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class Problem:
    text: bytes
    goal_text: str
    init_close: int                  # byte offset of the ')' closing :init
    numbers: list[tuple[int, int]]   # spans of every generated numeric literal
    locations: list[tuple[str, tuple[int, ...]]]
    construct: str                   # what `insert` appends to :init


class _Writer:
    """Accumulates ASCII text and reports the offset of each piece."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.pos = 0

    def put(self, text: str) -> tuple[int, int]:
        start = self.pos
        self.parts.append(text)
        self.pos += len(text)
        return start, self.pos

    def text(self) -> bytes:
        return "".join(self.parts).encode("ascii")


def _misspell(rng: random.Random, key: str) -> str:
    """A seeded typo of ``key``: drop, double or swap one letter."""
    letters = key[1:]
    while True:
        i = rng.randrange(len(letters))
        how = rng.randrange(3)
        if how == 0:
            typo = letters[:i] + letters[i + 1:]
        elif how == 1:
            typo = letters[:i] + letters[i] + letters[i:]
        else:
            j = min(i + 1, len(letters) - 1)
            chars = list(letters)
            chars[i], chars[j] = chars[j], chars[i]
            typo = "".join(chars)
        if typo != letters:
            return ":" + typo


def gen_domain(rng: random.Random, name: str, n_types: int, n_actions: int,
               n_misspelled: int) -> Domain:
    """A typed STRIPS domain with numeric fluents: a type tree of bounded
    depth rooted at ``object``, one predicate per type, a few functions and
    ``n_actions`` actions, ``n_misspelled`` of them with a misspelled
    ``:precondition`` key."""
    depth = {"object": 0}
    parents: dict[str, str] = {}
    for k in range(n_types):
        candidates = [t for t, d in depth.items() if d < MAX_TYPE_DEPTH]
        parent = rng.choice(candidates)
        child = f"ty{k}"
        parents[child] = parent
        depth[child] = depth[parent] + 1
    types = list(parents)
    predicates = [(f"p-{t}", [t, rng.choice(types)]) for t in types]
    predicates.append(("location", ["object", "number", "number"]))
    functions = [(f"f-{t}", t) for t in types[:min(10, len(types))]]
    broken = set(rng.sample(range(n_actions), n_misspelled))

    out = _Writer()
    out.put(f"; generated benchmark domain {name}\n")
    out.put(f"(define (domain {name})\n")
    out.put("  (:requirements :strips :typing :negative-preconditions "
            ":numeric-fluents)\n")
    out.put("  (:types")
    by_parent: dict[str, list[str]] = {}
    for child, parent in parents.items():
        by_parent.setdefault(parent, []).append(child)
    for parent, children in by_parent.items():
        out.put("\n    " + " ".join(children) + f" - {parent}")
    out.put(")\n")
    out.put("  (:predicates")
    for pname, ptypes in predicates:
        if pname == "location":
            out.put("\n    (location ?o - object ?x ?y - number)")
        else:
            out.put(f"\n    ({pname} ?x - {ptypes[0]} ?y - {ptypes[1]})")
    out.put(")\n")
    out.put("  (:functions")
    for fname, ftype in functions:
        out.put(f"\n    ({fname} ?x - {ftype})")
    out.put(" - number)\n")

    domain = Domain(b"", name, parents, predicates, functions)
    for k in range(n_actions):
        pre = rng.sample(predicates[:-1], 2)
        eff = rng.choice(predicates[:-1])
        params = {}
        for pname, ptypes in pre + [eff]:
            for t in ptypes:
                params.setdefault(t, f"?v{len(params)}")

        def app(pred: tuple[str, list[str]]) -> str:
            return f"({pred[0]} " + " ".join(params[t] for t in pred[1]) + ")"

        start = out.pos
        out.put(f"  (:action act{k}\n")
        out.put("    :parameters ("
                + " ".join(f"{v} - {t}" for t, v in params.items()) + ")\n")
        out.put("    ")
        if k in broken:
            domain.misspelled.append(out.put(_misspell(rng, ":precondition")))
        else:
            out.put(":precondition")
        out.put(f" (and {app(pre[0])} (not {app(pre[1])}))\n")
        out.put(f"    :effect (and {app(eff)} (not {app(pre[0])})))\n")
        span = (start, out.pos)
        (domain.broken_actions if k in broken else domain.clean_actions) \
            .append(span)
    out.put(")\n")
    domain.text = out.text()
    return domain


def gen_problem(rng: random.Random, domain: Domain, name: str, n_objects: int,
                n_facts: int, numeric_share: float, n_locations: int,
                n_goals: int) -> Problem:
    """A valid problem over ``domain``: typed objects, ``n_facts`` init
    facts (a share of them numeric, with integer and decimal values),
    ``n_locations`` location facts with integer coordinates, and a
    conjunctive goal."""
    types = list(domain.parents)
    objects = [(f"o{k}", rng.choice(types)) for k in range(n_objects)]
    by_type: dict[str, list[str]] = {}
    for obj, t in objects:
        by_type.setdefault(t, []).append(obj)
    names = [obj for obj, _ in objects]
    relations = [p for p in domain.predicates if p[0] != "location"]

    def ground(pred: tuple[str, list[str]]) -> str:
        return f"({pred[0]} " + " ".join(rng.choice(names) for _ in pred[1]) + ")"

    out = _Writer()
    numbers: list[tuple[int, int]] = []
    out.put(f"; generated benchmark problem {name}\n")
    out.put(f"(define (problem {name})\n")
    out.put(f"  (:domain {domain.name})\n")
    places = [f"p{k}" for k in range(n_locations)]
    out.put("  (:objects")
    for t, objs in by_type.items():
        out.put("\n    " + " ".join(objs) + f" - {t}")
    if places:
        out.put("\n    " + " ".join(places) + " - object")
    out.put(")\n")
    out.put("  (:init")
    locations: list[tuple[str, tuple[int, ...]]] = []
    for obj in places:
        coords = (rng.randrange(COORD_MAX), rng.randrange(COORD_MAX))
        locations.append((obj, coords))
        out.put(f"\n    (location {obj}")
        for c in coords:
            out.put(" ")
            numbers.append(out.put(str(c)))
        out.put(")")
    for _ in range(n_facts):
        if domain.functions and rng.random() < numeric_share:
            fname, _ = rng.choice(domain.functions)
            if rng.random() < 0.5:
                value = str(rng.randrange(1, 1000))
            else:
                value = f"{rng.randrange(1, 1000)}.{rng.randrange(1, 100)}"
            out.put(f"\n    (= ({fname} {rng.choice(names)}) ")
            numbers.append(out.put(value))
            out.put(")")
        else:
            out.put("\n    " + ground(rng.choice(relations)))
    init_close = out.put(")")[0]
    out.put("\n")
    goal_text = "(:goal (and" + "".join(
        "\n    " + ground(rng.choice(relations)) for _ in range(n_goals)) + "))"
    out.put("  " + goal_text + "\n")
    out.put(")\n")
    construct = ground(rng.choice(relations))
    return Problem(out.text(), goal_text, init_close, numbers, locations,
                   construct)


@dataclass
class Inputs:
    domain: Domain
    problem: Problem
    crlf: Problem       # fixed, seed-independent: CRLF line endings
    latin1: bytes       # fixed, seed-independent: one Latin-1 byte


def crlf_problem() -> Problem:
    """A fixed problem with CRLF line endings and about two hundred lines."""
    out = _Writer()
    out.put("; fixed problem with CRLF line endings\r\n")
    out.put("(define (problem crlf)\r\n  (:domain crlf)\r\n")
    out.put("  (:objects " + " ".join(f"c{k}" for k in range(20))
            + " - object)\r\n")
    out.put("  (:init")
    for k in range(200):
        out.put(f"\r\n    (near c{k % 20} c{(k * 7 + 3) % 20})")
    init_close = out.put(")")[0]
    out.put("\r\n")
    goal = "(:goal (near c0 c1))"
    out.put("  " + goal + ")\r\n")
    return Problem(out.text(), goal, init_close, [], [], "(near c2 c3)")


LATIN1_DOMAIN = (b"; caf\xe9 -- this comment is Latin-1, not UTF-8\n"
                 b"(define (domain latin)\n"
                 b"  (:requirements :strips))\n")


def generate(workload: str, seed: int, sizes: dict | None = None) -> Inputs:
    """The inputs of ``workload`` for ``seed``; ``sizes`` overrides SIZES."""
    sizes = sizes or SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    domain = gen_domain(rng, f"dom{seed}", **sizes["domain"])
    problem = gen_problem(rng, domain, f"prob{seed}", **sizes["problem"])
    return Inputs(domain, problem, crlf_problem(), LATIN1_DOMAIN)


def write(inputs: Inputs, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "domain": (directory / "domain.pddl", inputs.domain.text),
        "problem": (directory / "problem.pddl", inputs.problem.text),
        "crlf": (directory / "crlf.pddl", inputs.crlf.text),
        "latin1": (directory / "latin1.pddl", inputs.latin1),
    }
    for path, data in files.values():
        path.write_bytes(data)
    return {key: path for key, (path, _) in files.items()}
