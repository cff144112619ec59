"""What `extract`, `insert` and `distance` give when the whole file's tree
finds their block: the references that the structural index, the library
and the commands are checked against."""

from mypddl import distance
from mypddl.construct import ConstructError, append_to_block
from mypddl.distance import distance_facts, format_distance
from mypddl.sexpr import (
    Document,
    Severity,
    find_blocks,
    iter_blocks,
    serialize_node,
)


def tree_extract(text: str, keyword: str) -> str:
    """What ``extract`` prints: each block the tree finds, then a newline."""
    forest = Document(text.encode("utf-8")).forest
    return "".join(serialize_node(block) + "\n"
                   for block in find_blocks(forest, keyword))


def tree_insert(text: str, keyword: str, constructs) -> str:
    """The splice as the whole file's tree finds the block."""
    doc = Document(text.encode("utf-8"))
    if all(node.is_trivia for node in doc.forest):
        raise ConstructError("file contains no s-expressions")
    block = next(iter_blocks(doc.forest, keyword), None)
    if block is None:
        raise ConstructError(f"no block headed by {keyword!r} found")
    return append_to_block(doc, block, constructs)


def tree_locations(doc, predicate):
    """The locations as read from the whole file's tree: each entry of the
    first (:init ...) block after its head."""
    block = next(iter_blocks(doc.forest, ":init"), None)
    return block, distance._locations(
        None if block is None else block.values()[1:], predicate)


def tree_augment(text, predicate):
    """What ``augment_with_distances`` gives, spliced into the tree's block,
    or the message of its error."""
    doc = Document(text.encode("utf-8"))
    block, (facts, diagnostics) = tree_locations(doc, predicate)
    errors = [d.message for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        return "error", "; ".join(errors)
    if not facts:
        return "text", text, [d.code for d in diagnostics] + ["no-locations"]
    rows = [f"(distance {f.from_object} {f.to_object} "
            f"{format_distance(f.value)})" for f in distance_facts(facts)]
    return ("text", append_to_block(doc, block, rows),
            [d.code for d in diagnostics])
