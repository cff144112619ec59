"""Euclidean distance preprocessing for problem files.

Location facts of any arity are harvested from the first (:init ...) block;
the full n-by-n table of pairwise distances (self-distances included) is
appended back into the same block of a copy of the problem. PDDL itself has
no square root, so precomputing these facts is what makes spatial domains
tractable for ordinary planners.
"""

from __future__ import annotations

import math
from collections import deque
from decimal import ROUND_HALF_UP, Decimal
from itertools import repeat
from operator import add, mod
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .construct import _entries, splice, write_pieces_atomically
from .model import is_number
from .sexpr import (
    Document,
    MyPddlError,
    NodeKind,
    ParseDiagnostic,
    Severity,
    SExprNode,
    Span,
    as_document,
)

DEFAULT_PREDICATE = "location"
DISTANCE_PREDICATE = "distance"

_STEP = Decimal("0.0001")


class DistanceError(MyPddlError):
    pass


class LocationFact(NamedTuple):
    object_name: str
    coords: tuple[float, ...]
    span: Span


class DistanceFact(NamedTuple):
    from_object: str
    to_object: str
    value: float


def extract_locations(problem: Union[str, Document],
                      predicate_name: str = DEFAULT_PREDICATE,
                      ) -> tuple[list[LocationFact], list[ParseDiagnostic]]:
    """Collect coordinate facts from the first (:init ...) block.

    Every fact must name a distinct object and all facts must share one
    dimension; violations become Error diagnostics. Only the facts are
    parsed, not the whole file.
    """
    return _locations(_entries(as_document(problem), ":init",
                               predicate_name)[0], predicate_name)


def _locations(nodes: Optional[list[SExprNode]], predicate_name: str,
               ) -> tuple[list[LocationFact], list[ParseDiagnostic]]:
    """`extract_locations` on the nodes read from an (:init ...) block."""
    diagnostics: list[ParseDiagnostic] = []
    facts: list[LocationFact] = []

    def error(span: Span, message: str, code: str) -> None:
        diagnostics.append(ParseDiagnostic(span, Severity.ERROR, message, code))

    if nodes is None:
        diagnostics.append(ParseDiagnostic(
            Span(0, 0), Severity.WARNING,
            "problem has no (:init ...) block", "missing-init"))
        return facts, diagnostics

    wanted = predicate_name.lower()
    seen: dict[str, LocationFact] = {}
    first_dim: Optional[tuple[str, int]] = None
    for fact_node in nodes:
        head = fact_node.head()
        if head is None or head.kind is not NodeKind.ATOM \
                or head.text.lower() != wanted:
            continue
        span = fact_node.span if fact_node.span is not None else Span(0, 0)
        args = fact_node.values()[1:]
        if not args or args[0].kind is not NodeKind.ATOM:
            error(span, f"{predicate_name} fact has no object name",
                  "bad-location")
            continue
        name = args[0].text
        coords: list[float] = []
        bad = False
        for arg in args[1:]:
            if arg.kind is not NodeKind.ATOM \
                    or not is_number(arg.text) \
                    or not math.isfinite(float(arg.text)):
                shown = arg.text if arg.kind is NodeKind.ATOM else "(...)"
                error(arg.span if arg.span is not None else span,
                      f"coordinate {shown!r} of {name!r} is not a finite "
                      f"decimal number", "bad-coordinate")
                bad = True
            else:
                coords.append(float(arg.text))
        if bad:
            continue
        if not coords:
            error(span, f"{predicate_name} fact for {name!r} has no "
                  "coordinates", "bad-location")
            continue
        if name in seen:
            error(span, f"duplicate {predicate_name} fact for object "
                  f"{name!r}", "duplicate-object")
            continue
        if first_dim is None:
            first_dim = (name, len(coords))
        elif len(coords) != first_dim[1]:
            error(span, f"{name!r} has {len(coords)} coordinates but "
                  f"{first_dim[0]!r} has {first_dim[1]}", "mixed-dimensions")
            continue
        fact = LocationFact(name, tuple(coords), span)
        seen[name] = fact
        facts.append(fact)
    return facts, diagnostics


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Straight-line distance in double precision."""
    if len(a) != len(b):
        raise DistanceError(
            f"dimension mismatch: {len(a)} versus {len(b)} coordinates")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def format_distance(value: float) -> str:
    """The exact binary value rounded half-up to 4 decimals, trailing zeros
    stripped, >= 1 digit kept after the point: 2.2360679... -> "2.2361",
    0 -> "0.0", 2.5 -> "2.5", 0.03125 -> "0.0313". Accepts every finite
    double; infinity and NaN raise ``ValueError``.

    ``f"{value:.4f}"`` rounds the exact value correctly, but half-to-even.
    The two rules differ only at an exact tie, where value * 10**4 ends in
    exactly .5; for a double that happens iff value is an odd multiple of
    1/32. Only ties take the ``Decimal`` path, and they are all below 2**48,
    well inside its 28 digits.
    """
    if (value * 32.0) % 2.0 == 1.0:
        text = f"{Decimal(value).quantize(_STEP, rounding=ROUND_HALF_UP):f}"
    elif math.isfinite(value):
        text = f"{value:.4f}"
    else:
        raise ValueError(f"distance {value!r} is not finite")
    text = text.rstrip("0")
    return text + "0" if text[-1] == "." else text


def _format_row(row: Sequence[float]) -> list[str]:
    """``format_distance`` of each value, at C speed: one ``%`` formats the
    row, each text with four decimals and a ``)``, and three passes strip the
    trailing zeros. A row that may hold an exact tie (an odd multiple k/32
    leaves ``v % (1/16) == 1/32``) goes value by value instead."""
    if 0.03125 in map(mod, row, repeat(0.0625)):
        return list(map(format_distance, row))
    text = ("%.4f)" * len(row)) % tuple(row)
    return text.replace("0)", ")").replace("0)", ")").replace("0)", ")") \
        .split(")")[:-1]


def _distance_rows(facts: Sequence[LocationFact]) -> Iterator[list[float]]:
    """For each fact in order, its distances to the facts after it, equal
    to ``euclidean``'s bit for bit on every Python: a row is computed by
    column, one list of squares per dimension, and each pair's squares are
    added by the same builtin ``sum`` (compensated for floats from 3.12 on).
    As ``(x-y)**2 == (y-x)**2`` exactly, d(b, a) is bitwise d(a, b), so each
    pair is computed once. A distance too large for a double raises a
    ``DistanceError`` naming both objects."""
    points = [f.coords for f in facts]
    for b in points:  # a dimension mismatch raises as in ``euclidean``
        if len(b) != len(points[0]):
            euclidean(points[0], b)
    columns = list(zip(*points)) or [(0,) * len(points)]  # 0-D: all at 0
    for i, a in enumerate(zip(*columns)):
        try:
            squares = [[(x - y) ** 2 for y in column[i + 1:]]
                       for x, column in zip(a, columns)]
            row = list(map(math.sqrt, map(sum, zip(*squares))))
        except OverflowError:
            row = [math.inf]
        if math.inf in row:
            raise _overflow(facts[i], facts[i + 1:])
        yield row


def _overflow(a: LocationFact, rest: Sequence[LocationFact]) -> DistanceError:
    """The error naming ``a`` and the first fact in ``rest`` whose distance
    from it is not a finite double."""
    for b in rest:
        try:
            if euclidean(a.coords, b.coords) == math.inf:
                break
        except OverflowError:
            break
    return DistanceError(
        f"distance between {a.object_name!r} and {b.object_name!r} "
        f"is too large for a double")


def _full_rows(upper: Iterable[list], diagonal, n: int) -> Iterator[list]:
    """Row i of the symmetric n*n table, yielded as soon as ``upper`` yields
    its part above the diagonal: column i of the rows before, ``diagonal``,
    then upper row i. ``below`` holds the columns of the rows to come."""
    below: deque[list] = deque([] for _ in range(n))
    for row in upper:
        full = below.popleft()
        deque(map(list.append, below, row), maxlen=0)
        full.append(diagonal)
        full += row
        yield full


def distance_facts(facts: Sequence[LocationFact]) -> list[DistanceFact]:
    """All n*n pairs in (source index, target index) order."""
    rows = _full_rows(_distance_rows(facts), 0.0, len(facts))
    return [DistanceFact(a.object_name, b.object_name, value)
            for a, row in zip(facts, rows) for b, value in zip(facts, row)]


def _spliced(doc: Document, predicate_name: str,
             ) -> tuple[Iterable[bytes], list[ParseDiagnostic]]:
    """The bytes of ``doc`` with the distance facts appended to its
    (:init ...) block, in pieces, one per source row, and the diagnostics.
    Each row is computed when it is taken, so an overflow raises from the
    iterator; errors in the locations raise at once."""
    nodes, insert_at, prefix = _entries(doc, ":init", predicate_name)
    facts, diagnostics = _locations(nodes, predicate_name)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        raise DistanceError("; ".join(d.message for d in errors))
    if not facts:
        diagnostics.append(ParseDiagnostic(
            Span(0, 0), Severity.WARNING,
            f"no {predicate_name!r} facts found; nothing to do",
            "no-locations"))
        return [doc.data], diagnostics

    targets = [f"{f.object_name} " for f in facts]
    upper = map(_format_row, _distance_rows(facts))

    def rows() -> Iterator[str]:
        for a, values in zip(facts, _full_rows(upper, "0.0", len(facts))):
            head = f"({DISTANCE_PREDICATE} {a.object_name} "
            yield head + (")" + prefix + head).join(
                map(add, targets, values)) + ")"
    return splice(doc, insert_at, prefix, rows()), diagnostics


def augment_with_distances(problem: Union[str, Document],
                           predicate_name: str = DEFAULT_PREDICATE,
                           ) -> tuple[str, list[ParseDiagnostic]]:
    """Append the n*n distance facts to the first (:init ...) block.

    Location facts and all other bytes stay untouched. Errors during
    extraction abort with a DistanceError; zero locations is a warning
    no-op.
    """
    pieces, diagnostics = _spliced(as_document(problem), predicate_name)
    return b"".join(pieces).decode("utf-8"), diagnostics


def augment_file(problem: Union[Path, Document],
                 output_file: Optional[Path] = None,
                 predicate_name: str = DEFAULT_PREDICATE,
                 ) -> tuple[Path, list[ParseDiagnostic]]:
    """Write the extended copy of a problem file, or of a document read
    from one; defaults to ``<name>_dist.pddl`` beside the input. Pass the
    input path itself to rewrite in place. The facts are written a source
    row at a time, never held whole; if one fails, nothing is written."""
    doc = problem if isinstance(problem, Document) else Document.read(problem)
    problem_file = doc.path
    pieces, diagnostics = _spliced(doc, predicate_name)
    if output_file is None:
        output_file = problem_file.with_name(
            problem_file.stem + "_dist" + problem_file.suffix)
    output_file = Path(output_file)
    write_pieces_atomically(output_file, pieces)
    return output_file, diagnostics
