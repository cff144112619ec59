"""Distance preprocessing: extraction, arithmetic, formatting, augmentation."""

import math
import os
import random
import tracemalloc
from decimal import ROUND_HALF_UP, Context, Decimal

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl import distance
from mypddl.cli import main
from mypddl.construct import append_to_block

from mypddl.distance import (
    DistanceError,
    LocationFact,
    augment_file,
    augment_with_distances,
    distance_facts,
    euclidean,
    extract_locations,
    format_distance,
)
from mypddl.model import parse_problem
from mypddl.sexpr import Document, Severity, Span, iter_blocks, serialize_node

from conftest import CORPUS, benchmark_inputs


def problem_with_init(facts: str) -> str:
    return (f"(define (problem p)\n  (:domain d)\n"
            f"  (:init {facts})\n  (:goal (g)))")


def test_extract_two_locations():
    text = problem_with_init("(location gary 4 2)\n         (location pizza 2 3)")
    facts, diagnostics = extract_locations(text)
    assert [(f.object_name, f.coords) for f in facts] == [
        ("gary", (4.0, 2.0)), ("pizza", (2.0, 3.0))]
    assert diagnostics == []


def test_extract_empty_init():
    facts, diagnostics = extract_locations(problem_with_init(""))
    assert facts == []
    assert diagnostics == []


def test_extract_one_dimensional():
    facts, _ = extract_locations(problem_with_init("(location a 1) (location b 4)"))
    assert [f.coords for f in facts] == [(1.0,), (4.0,)]


def test_extract_mixed_dimensions_names_both_facts():
    text = problem_with_init("(location a 1 2) (location b 3)")
    _, diagnostics = extract_locations(text)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    assert len(errors) == 1
    assert "'a'" in errors[0].message and "'b'" in errors[0].message


def test_extract_non_numeric_coordinate():
    _, diagnostics = extract_locations(problem_with_init("(location a x 2)"))
    assert any(d.code == "bad-coordinate" for d in diagnostics)


def test_extract_duplicate_object():
    text = problem_with_init("(location a 1 2) (location a 1 2)")
    _, diagnostics = extract_locations(text)
    assert any(d.code == "duplicate-object" for d in diagnostics)


def test_extract_only_first_init_block():
    text = ("(define (problem p) (:init (location a 1))"
            " (:init (location b 2)))")
    facts, _ = extract_locations(text)
    assert [f.object_name for f in facts] == ["a"]


def test_extract_skips_a_stray_atom_in_init():
    facts, diagnostics = extract_locations(
        problem_with_init("stray (location a 1 2) x (location b 3 4)"))
    assert [(f.object_name, f.coords) for f in facts] == [
        ("a", (1.0, 2.0)), ("b", (3.0, 4.0))]
    assert diagnostics == []


# Location facts that are no location, each with its one error message.
BAD_LOCATIONS = [
    ("(location)", "location fact has no object name"),
    ("(location (a) 1 2)", "location fact has no object name"),
    ("(location a)", "location fact for 'a' has no coordinates"),
]


@pytest.mark.parametrize("fact,message", BAD_LOCATIONS)
def test_extract_reports_a_location_without_name_or_coordinates(fact,
                                                                 message):
    text = problem_with_init(f"(location b 1 2) {fact}")
    facts, diagnostics = extract_locations(text)
    assert [f.object_name for f in facts] == ["b"]
    start = text.index(fact)
    assert [(d.code, d.severity, d.message, d.span) for d in diagnostics] \
        == [("bad-location", Severity.ERROR, message,
             Span(start, start + len(fact)))]


@pytest.mark.parametrize("fact,message", BAD_LOCATIONS)
def test_cli_bad_location_is_one_line_exit_1(tmp_path, fact, message):
    result, out = run_distance(tmp_path, f"(location b 1 2) {fact}")
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"Error: {message}"]
    assert not out.exists()


def test_euclidean_paper_pair():
    assert format_distance(euclidean((4, 2), (2, 3))) == "2.2361"


def test_euclidean_self_distance():
    assert euclidean((7.5, -1), (7.5, -1)) == 0.0


def test_euclidean_345_triple():
    # sqrt(1 + 4 + 4) = 3 by plain arithmetic
    assert euclidean((0, 0, 0), (1, 2, 2)) == 3.0


def test_euclidean_dimension_mismatch():
    with pytest.raises(DistanceError):
        euclidean((1, 2), (1, 2, 3))


@pytest.mark.parametrize("value,expected", [
    (2.2360679774997896, "2.2361"),
    (0.0, "0.0"),
    (2.5, "2.5"),
    (1.0, "1.0"),
    (0.00004, "0.0"),
    (0.00006, "0.0001"),
    # 0.03125 is exactly 2^-5, so this really exercises the half-UP tie rule
    (0.03125, "0.0313"),
    (10.12346, "10.1235"),
    # the exact binary value of 1e30, beyond Decimal's default 28 digits
    (1e30, "1000000000000000019884624838656.0"),
])
def test_format_distance(value, expected):
    assert format_distance(value) == expected


def test_augment_paper_example(gary_pizza_problem):
    text = gary_pizza_problem.read_text(encoding="utf-8")
    updated, diagnostics = augment_with_distances(text)
    assert [d for d in diagnostics if d.severity is Severity.ERROR] == []
    expected = ("(location pizza 2 3)\n"
                "         (distance gary gary 0.0)\n"
                "         (distance gary pizza 2.2361)\n"
                "         (distance pizza gary 2.2361)\n"
                "         (distance pizza pizza 0.0))")
    assert expected in updated


def test_augment_single_location():
    updated, _ = augment_with_distances(problem_with_init("(location a 1 2)"))
    assert "(distance a a 0.0)" in updated


def test_augment_no_locations_is_warning_noop():
    text = problem_with_init("(something else)")
    updated, diagnostics = augment_with_distances(text)
    assert updated == text
    assert any(d.code == "no-locations"
               and d.severity is Severity.WARNING for d in diagnostics)


def test_augment_errors_propagate():
    with pytest.raises(DistanceError):
        augment_with_distances(problem_with_init("(location a x)"))


def test_augment_reparses_with_n_squared_new_facts():
    rng = random.Random(7)
    names = ["a", "b", "c"]
    facts = " ".join(
        f"({'location'} {n} {rng.randint(0, 9)} {rng.randint(0, 9)})"
        for n in names)
    text = problem_with_init(facts)
    before, _ = parse_problem(text)
    updated, _ = augment_with_distances(text)
    after, diagnostics = parse_problem(updated)
    assert [d for d in diagnostics if d.severity is Severity.ERROR] == []
    assert len(after.init) == len(before.init) + len(names) ** 2
    rendered = [serialize_node(f) for f in after.init]
    assert rendered[-9:] == [
        f"(distance {x} {y} "
        f"{format_distance(euclidean(_coords(text, x), _coords(text, y)))})"
        for x in names for y in names]


def _coords(text, name):
    facts, _ = extract_locations(text)
    return next(f.coords for f in facts if f.object_name == name)


def test_distance_facts_symmetry_and_diagonal():
    facts, _ = extract_locations(problem_with_init(
        "(location a 0 0) (location b 3 4) (location c -1 7)"))
    table = {(d.from_object, d.to_object): d.value
             for d in distance_facts(facts)}
    assert len(table) == 9
    for x in "abc":
        assert table[(x, x)] == 0.0
        for y in "abc":
            assert table[(x, y)] == table[(y, x)]
    assert table[("a", "b")] == 5.0


coords = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=5)


@given(st.data())
@settings(max_examples=300)
def test_triangle_inequality(data):
    a = data.draw(coords)
    b = data.draw(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False, allow_infinity=False),
                           min_size=len(a), max_size=len(a)))
    c = data.draw(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False, allow_infinity=False),
                           min_size=len(a), max_size=len(a)))
    slack = 1e-7 * (1 + euclidean(a, b) + euclidean(b, c))
    assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + slack


# -- distances too large for a double ----------------------------------------

@pytest.mark.parametrize("facts, first, second", [
    # (x-y)**2 overflows
    ("(location a 0 0) (location b 1e200 0)", "a", "b"),
    # the sum of two finite squares overflows
    ("(location a 0 0) (location b 1e154 1e154)", "a", "b"),
    ("(location a 0 0 0) (location b 1e200 0 0)", "a", "b"),
    ("(location a 1) (location b -1e200)", "a", "b"),
    # the first pair in row order is named
    ("(location c 1 1) (location a 0 0) (location b 1e200 0)", "c", "b"),
])
def test_augment_overflow_names_both_objects(facts, first, second):
    with pytest.raises(DistanceError) as info:
        augment_with_distances(problem_with_init(facts))
    assert str(info.value) == (f"distance between {first!r} and "
                               f"{second!r} is too large for a double")


def run_distance(tmp_path, facts):
    path, out = tmp_path / "p.pddl", tmp_path / "out.pddl"
    path.write_text(problem_with_init(facts), encoding="utf-8")
    result = CliRunner().invoke(main, ["distance", str(path),
                                       "--out", str(out)])
    return result, out


def test_cli_overflow_is_one_line_exit_1(tmp_path):
    result, out = run_distance(tmp_path,
                               "(location a 0 0) (location b 1e200 0)")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert len(result.stderr.splitlines()) == 1
    assert "'a'" in result.stderr and "'b'" in result.stderr
    assert not out.exists()


def test_cli_huge_distance_is_written_exactly(tmp_path):
    result, out = run_distance(tmp_path,
                               "(location a 0 0) (location b 1e30 0)")
    assert result.exit_code == 0, result.output
    assert "(distance a b 1000000000000000019884624838656.0)" \
        in out.read_text(encoding="utf-8")


# -- the fast formatter and the pairs-once table against naive references -----

def reference_format(value):
    """Half-up to 4 decimals on the exact binary value, in a context wide
    enough for any double."""
    quantized = Decimal(value).quantize(Decimal("0.0001"), ROUND_HALF_UP,
                                        Context(prec=400))
    whole, _, frac = f"{quantized:f}".partition(".")
    return f"{whole}.{frac.rstrip('0') or '0'}"


finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
ties = st.integers(min_value=0, max_value=2 ** 40).map(
    lambda k: (2 * k + 1) / 32)
huge = st.floats(min_value=1e24, allow_nan=False, allow_infinity=False)


@given(st.one_of(finite, ties, huge))
@settings(max_examples=2000)
def test_format_distance_matches_decimal_half_up(value):
    assert format_distance(value) == reference_format(value)


@pytest.mark.parametrize("value", [0.03125, 0.09375, 1.96875, 2 ** 47 + 1 / 32,
                                   1 / 64, 3 / 64, 5e-5, 1.5e-4, 2.0 ** -1074,
                                   1.7976931348623157e308])
def test_format_distance_edges(value):
    assert format_distance(value) == reference_format(value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_format_distance_rejects_non_finite(value):
    with pytest.raises(ValueError):
        format_distance(value)


@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), finite, ties, huge,
    st.integers(min_value=0, max_value=2 ** 53).map(float), st.just(0.0)),
    max_size=40))
@settings(max_examples=500)
def test_bulk_row_formatter_equals_format_distance(row):
    assert distance._format_row(row) == [format_distance(v) for v in row]


@pytest.mark.parametrize("row", [
    [], [0.0], [5.0, 100.0, 1e24, 2.0 ** 53], [2.5, 0.03125, 7.1],
    [1.96875, 2 ** 47 + 1 / 32], [-(2.0 ** -5 - 2.0 ** -58), 1.0],
    [1.7976931348623157e308, 2.0 ** -1074, 5e-5, 1.5e-4]])
def test_bulk_row_formatter_edges(row):
    assert distance._format_row(row) == [format_distance(v) for v in row]


magnitude = st.floats(min_value=1e-3, max_value=1e8)
signed_coordinate = st.one_of(magnitude, magnitude.map(lambda v: -v),
                              st.just(0.0))


@st.composite
def location_facts(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    points = draw(st.lists(st.tuples(*[signed_coordinate] * dim),
                           min_size=1, max_size=12))
    return [LocationFact(f"p{k}", point, Span(0, 0))
            for k, point in enumerate(points)]


@given(location_facts())
@settings(max_examples=300, deadline=None)
def test_distance_rows_equal_euclidean_bit_for_bit(facts):
    rows = list(distance._distance_rows(facts))
    assert len(rows) == len(facts)
    for i, row in enumerate(rows):
        a = facts[i].coords
        assert [v.hex() for v in row] == \
            [euclidean(a, b.coords).hex() for b in facts[i + 1:]]


def test_distance_facts_rejects_mixed_dimensions():
    facts = [LocationFact("a", (0.0, 0.0), Span(0, 0)),
             LocationFact("b", (1.0,), Span(0, 0))]
    with pytest.raises(DistanceError, match="dimension mismatch: 2 versus 1"):
        distance_facts(facts)


def test_distance_facts_without_coordinates_are_all_zero():
    facts = [LocationFact(name, (), Span(0, 0)) for name in "ab"]
    assert [(f.from_object, f.to_object, f.value)
            for f in distance_facts(facts)] == [
        ("a", "a", 0.0), ("a", "b", 0.0), ("b", "a", 0.0), ("b", "b", 0.0)]


def naive_augmented(points):
    """The problem text with all n*n facts spliced in: each pair computed
    on its own, the self-distances included."""
    facts = "\n    ".join(f"(location {name} {' '.join(coords)})"
                          for name, coords in points)
    head = f"(define (problem p)\n  (:domain d)\n  (:init\n    {facts}"
    tail = ")\n  (:goal (g)))\n"
    values = {name: [float(c) for c in coords] for name, coords in points}

    def distance(a, b):
        return math.sqrt(sum((x - y) ** 2
                             for x, y in zip(values[a], values[b])))

    added = "".join(
        f"\n    (distance {a} {b} {reference_format(distance(a, b))})"
        for a, _ in points for b, _ in points)
    return head + tail, head + added + tail


coordinate = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(str),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False).map(repr),
    st.sampled_from(["0.03125", "-2.5", ".5", "3.", "-0.0", "1e-3"]))


@st.composite
def point_sets(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    pool = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    return [(f"p{k}", coords) for k, coords in enumerate(chosen)]


@given(point_sets())
@settings(max_examples=300, deadline=None)
def test_augment_matches_naive_n_squared(points):
    text, expected = naive_augmented(points)
    updated, _ = augment_with_distances(text)
    assert updated == expected


def test_distance_parses_no_tree_of_the_whole_file(tmp_path):
    path = tmp_path / "p.pddl"
    path.write_text(problem_with_init("(location a 0 0) (location b 3 4)"),
                    encoding="utf-8")
    doc = Document.read(path)
    facts, _ = extract_locations(doc)
    assert [f.object_name for f in facts] == ["a", "b"]
    assert doc._parsed is None
    out, _ = augment_file(doc, tmp_path / "out.pddl")
    assert b"(distance a b 5.0)" in out.read_bytes()
    assert doc._parsed is None


# -- the structural index against the tree ------------------------------------

def _tree_locations(doc, predicate):
    """The locations as read from the whole file's tree: each entry of the
    first (:init ...) block after its head."""
    block = next(iter_blocks(doc.forest, ":init"), None)
    return block, distance._locations(
        None if block is None else block.values()[1:], predicate)


def _tree_augment(text, predicate):
    """What ``augment_with_distances`` gives, spliced into the tree's block,
    or the message of its error."""
    doc = Document(text.encode("utf-8"))
    block, (facts, diagnostics) = _tree_locations(doc, predicate)
    errors = [d.message for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        return "error", "; ".join(errors)
    if not facts:
        return "text", text, [d.code for d in diagnostics] + ["no-locations"]
    rows = [f"(distance {f.from_object} {f.to_object} "
            f"{format_distance(f.value)})" for f in distance_facts(facts)]
    return ("text", append_to_block(doc, block, rows),
            [d.code for d in diagnostics])


def _augment(text, predicate):
    try:
        updated, diagnostics = augment_with_distances(text, predicate)
    except DistanceError as exc:
        return "error", str(exc)
    return "text", updated, [d.code for d in diagnostics]


_NAMES = ["a", "b", "c", "é"]
# Mostly numbers, so that many cases get as far as the splice.
_COORDS = ["0", "3", "4.5", "-1", "7", "2", "x", "(1)"]
_SEPARATORS = [" ", "\n   ", "\n ; (location z 9 9)\n   ", "\t", ";\n"]


@st.composite
def _location(draw):
    head = draw(st.sampled_from(["location", "LOCATION", "Location"]))
    parts = [head, draw(st.sampled_from(_NAMES + ["(a)"]))]
    parts += draw(st.lists(st.sampled_from(_COORDS), min_size=2, max_size=2)
                  | st.lists(st.sampled_from(_COORDS), max_size=3))
    inner = st.sampled_from([" ", " ; c (x\n ", "\n"])
    return "(" + "".join(p + draw(inner) for p in parts[:-1]) + parts[-1] \
        + ")"


@st.composite
def _init_problems(draw):
    """A problem whose (:init ...) block mixes location facts with other
    entries, comments, stray atoms and closers, after a prefix that may
    hold a byte order mark, non-ASCII atoms and location facts elsewhere."""
    location = _location()
    entry = st.one_of(
        location, location, location,
        st.sampled_from(["(at a)", "(= (f a) 1)", "x", ")", "()", "(location)",
                         "; (location q 1 1)\n", "(not (location a 1 2))"]))
    entries = draw(st.lists(entry, max_size=8))
    separators = st.sampled_from(_SEPARATORS)
    body = "".join(draw(separators) + e for e in entries)
    prefix = draw(st.sampled_from([
        "", "\ufeff", "; é ü\n", "(:objects é ü - t)\n",
        "(:foo (location q 5 5))\n"]))
    init = draw(st.sampled_from(["(:init", "(:INIT", "( ;c\n :init"]))
    tail = draw(st.sampled_from([
        ")\n  (:goal (location a 1 1)))\n", ")\n  (:init (location z 1 1)))",
        ")", ""]))
    text = f"{prefix}(define (problem p)\n  {init}{body}{tail}"
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    predicate = draw(st.sampled_from(
        ["location"] * 6 + ["LOCATION", "", "a b", "(", "at", "not", ":init"]))
    return text, predicate


@given(_init_problems())
@settings(max_examples=500, deadline=None)
def test_the_index_reads_the_locations_of_the_tree(case):
    text, predicate = case
    _, expected = _tree_locations(Document(text.encode("utf-8")), predicate)
    assert extract_locations(text, predicate) == expected
    assert _augment(text, predicate) == _tree_augment(text, predicate)


# -- the file is written a source row at a time -------------------------------

STREAMED_CASES = {
    **{path.name: path.read_bytes() for path in sorted(CORPUS.glob("*.pddl"))},
    "crlf.pddl": b"; CRLF\r\n(define (problem p)\r\n  (:domain d)\r\n"
                 b"  (:init\r\n    (location a 0 0)\r\n    (location b 3 4)"
                 b"\r\n    (location c 1.5 2))\r\n  (:goal (g)))\r\n",
    "non-ascii.pddl": problem_with_init(
        "; caf\u00e9 \u4e2d \U0001f600\n    (location a 0 0) (location b 1 1)"
        ).encode("utf-8"),
    "one-line.pddl": b"(define (problem p) (:init (location a 0 0) "
                     b"(location b 0.03125 0) (location c 2.5 7)))",
    "no-locations.pddl": problem_with_init("(at a b)").encode("utf-8"),
}


@pytest.mark.parametrize("name", sorted(STREAMED_CASES))
def test_augment_file_writes_the_library_result(tmp_path, name):
    path, out = tmp_path / name, tmp_path / "out.pddl"
    path.write_bytes(STREAMED_CASES[name])
    doc = Document.read(path)
    written, diagnostics = augment_file(doc, out)
    assert written == out
    expected, expected_diagnostics = augment_with_distances(doc)
    assert out.read_bytes() == expected.encode("utf-8")
    assert diagnostics == expected_diagnostics


def test_augment_file_holds_less_than_its_output(tmp_path):
    """The facts go to the file a source row at a time: the traced peak of
    ``augment_file`` on an already read problem of 300 locations stays
    below the size of the file it writes."""
    path, out = tmp_path / "grid.pddl", tmp_path / "out.pddl"
    path.write_bytes(benchmark_inputs("distance-grid", 1).problem.text)
    doc = Document.read(path)
    tracemalloc.start()
    try:
        augment_file(doc, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 1_000_000
    assert peak < size, (peak, size)


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("facts, pair", [
    ("(location a 0 0) (location c 1 1) (location b 1e200 0)", "'a' and 'b'"),
    # row a is written before row b overflows
    ("(location a 0 0) (location b 1e154 0) (location c -1e154 0)",
     "'b' and 'c'"),
])
def test_an_overflow_while_writing_leaves_the_target_alone(
        tmp_path, in_place, facts, pair):
    """The overflow is found while rows are being written; the command
    still exits 1 with one line, the target keeps its bytes, and the temp
    file is gone."""
    path = tmp_path / "p.pddl"
    path.write_text(problem_with_init(facts), encoding="utf-8")
    target = path if in_place else tmp_path / "out.pddl"
    if not in_place:
        target.write_bytes(b"old bytes\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["distance", str(path)] + (
        ["--in-place"] if in_place else ["--out", str(target)])
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1
    assert result.stderr == (f"Error: distance between {pair} is too "
                             "large for a double\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(os.listdir(tmp_path)) == sorted(before)
