"""Independent checks of the program's outputs.

Each check compares one command's output with what the generator recorded
or with a computation made here, never with a stored copy of earlier output
and never through the program's own code. A check raises ``CheckFailed``
with the first discrepancy it finds.
"""

from __future__ import annotations

import html
import json
import re
from dataclasses import dataclass
from pathlib import Path

from gen import Domain, Problem


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    """What one in-process CLI call produced."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    exception: BaseException | None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _clean_exit(out: Outcome, code: int) -> None:
    escaped = out.exception is not None \
        and not isinstance(out.exception, SystemExit)
    expect(not escaped, f"uncaught {type(out.exception).__name__}: "
                        f"{out.exception}")
    expect(out.exit_code == code,
           f"exit code {out.exit_code}, expected {code}")


def line_col(data: bytes, offset: int) -> tuple[int, int]:
    """1-based line and byte column, counted here from the raw bytes."""
    line_start = data.rfind(b"\n", 0, offset) + 1
    return data.count(b"\n", 0, offset) + 1, offset - line_start + 1


def _offset(data: bytes, line: int, col: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = data.index(b"\n", start) + 1
    return start + col - 1


def _inside_any(span: tuple[int, int], ranges: list[tuple[int, int]]) -> bool:
    return any(a <= span[0] and span[1] <= b for a, b in ranges)


def _overlaps_any(span: tuple[int, int], ranges: list[tuple[int, int]]) -> bool:
    return any(span[0] < b and a < span[1] for a, b in ranges)


# -- check ------------------------------------------------------------------

def check_text(out: Outcome, files: list[tuple[Path, bytes, Domain | None]]
               ) -> None:
    """``check FILES``: per file, one ``invalid`` line per region at the
    right line:col, then a summary line. ``files`` pairs each path with its
    bytes and, for a domain, the generator's record of it."""
    broken = any(d is not None and d.misspelled for _, _, d in files)
    _clean_exit(out, 1 if broken else 0)
    expect(out.stderr == b"", f"unexpected diagnostics: {out.stderr[:200]!r}")
    lines = out.stdout.decode("utf-8").splitlines()
    for path, data, domain in files:
        prefix = f"{path}:"
        mine = [l for l in lines if l.startswith(prefix)]
        summary = mine.pop() if mine else ""
        invalid = re.compile(re.escape(prefix) + r"(\d+):(\d+): invalid: (.*)")
        starts = []
        for line in mine:
            m = invalid.fullmatch(line)
            expect(m is not None, f"unexpected output line {line!r}")
            start = _offset(data, int(m.group(1)), int(m.group(2)))
            excerpt = m.group(3)
            if len(excerpt) == 40 and excerpt.endswith("..."):
                excerpt = excerpt[:37]
            expect(data[start:].decode("utf-8", "replace").startswith(excerpt),
                   f"{line!r} does not point at its excerpt")
            starts.append(start)
        expect(summary == f"{path}: 0 errors, {len(starts)} invalid regions",
               f"summary {summary!r} for {len(starts)} regions")
        _check_regions(data, domain, [(s, s + 1) for s in starts],
                       starts_only=True)


def check_json(out: Outcome, files: list[tuple[Path, bytes, Domain | None]]
               ) -> None:
    """``--json check FILES``: positions match a newline count made here,
    region texts match the file, regions cover exactly the seeded errors."""
    broken = any(d is not None and d.misspelled for _, _, d in files)
    _clean_exit(out, 1 if broken else 0)
    reports = json.loads(out.stdout)
    expect([r["file"] for r in reports] == [str(p) for p, _, _ in files],
           "reports are not one per file in argument order")
    for report, (path, data, domain) in zip(reports, files):
        expect(report["diagnostics"] == [],
               f"{path}: unexpected diagnostics {report['diagnostics'][:3]}")
        spans = []
        for region in report["invalid_regions"]:
            start, end = region["start"], region["end"]
            expect((region["line"], region["col"]) == line_col(data, start),
                   f"{path}: region at {start} reported at "
                   f"{region['line']}:{region['col']}")
            expect(region["text"] == data[start:end].decode("utf-8", "replace"),
                   f"{path}: region text {region['text']!r} is not the file's")
            spans.append((start, end))
        _check_regions(data, domain, spans, starts_only=False)


def _check_regions(data: bytes, domain: Domain | None,
                   spans: list[tuple[int, int]], starts_only: bool) -> None:
    if domain is None or not domain.misspelled:
        expect(not spans, f"{len(spans)} invalid regions in a valid file")
        return
    for span in spans:
        expect(_inside_any(span, domain.broken_actions)
               and not _overlaps_any(span, domain.clean_actions),
               f"invalid region at {span[0]} is outside every seeded error")
    for typo, action in zip(domain.misspelled, domain.broken_actions):
        if starts_only:
            hit = any(action[0] <= s <= typo[0] for s, _ in spans)
        else:
            hit = any(s <= typo[0] and typo[1] <= e for s, e in spans)
        expect(hit, f"misspelling {data[typo[0]:typo[1]]!r} at {typo[0]} "
                    f"is in no invalid region")


def check_latin1(out: Outcome) -> None:
    """A file that is not UTF-8 is a domain error: exit 1 with one line."""
    _clean_exit(out, 1)
    lines = out.stderr.decode("utf-8", "replace").splitlines()
    expect(len(lines) == 1, f"{len(lines)} lines on stderr, expected one")


# -- tokens -------------------------------------------------------------------

def check_tokens_json(out: Outcome, problem: Problem) -> None:
    """Tokens tile the file, their texts concatenate back to it, none is
    unscoped, and every generated number is scoped Number."""
    _clean_exit(out, 0)
    data = problem.text
    tokens = json.loads(out.stdout)
    pos = 0
    for tok in tokens:
        expect(tok["start"] == pos, f"gap or overlap at byte {pos}")
        pos = tok["end"]
        expect(tok["scope"] != "Unscoped",
               f"unscoped token {tok['text']!r} at {tok['start']}")
    expect(pos == len(data), f"tokens end at {pos} of {len(data)} bytes")
    expect("".join(t["text"] for t in tokens).encode("utf-8") == data,
           "token texts do not concatenate to the file")
    scopes = {(t["start"], t["end"]): t["scope"] for t in tokens}
    for span in problem.numbers:
        expect(scopes.get(span) == "Number",
               f"number {data[span[0]:span[1]]!r} at {span[0]} scoped "
               f"{scopes.get(span)}")


def check_tokens_html(out: Outcome, data: bytes) -> None:
    """With tags stripped and entities unescaped, the page is the file."""
    _clean_exit(out, 0)
    page = out.stdout.decode("utf-8")
    expect(page.count("<pre>") == 1 and page.count("</pre>") == 1,
           "page has not exactly one <pre> block")
    body = page.split("<pre>", 1)[1].rsplit("</pre>", 1)[0]
    text = html.unescape(re.sub(r"<[^>]*>", "", body))
    expect(text.encode("utf-8") == data, "stripped page differs from the file")


# -- construct I/O --------------------------------------------------------------

def check_extract(out: Outcome, problem: Problem) -> None:
    _clean_exit(out, 0)
    expect(out.stdout == problem.goal_text.encode("ascii") + b"\n",
           f"extract printed {out.stdout[:80]!r}...")


def _splice(before: bytes, after: bytes, at: int) -> bytes:
    """The bytes added at offset ``at``; everything else must be unchanged."""
    tail = len(before) - at
    cr_in, cr_out = before.count(b"\r"), after.count(b"\r")
    expect(after[:at] == before[:at],
           f"bytes before the insertion point changed ({cr_in} CR bytes in "
           f"the input, {cr_out} in the output)")
    expect(len(after) >= len(before), "output is shorter than the input")
    expect(after[len(after) - tail:] == before[at:],
           "bytes after the insertion point changed")
    return after[at:len(after) - tail]


def check_insert(out: Outcome, problem: Problem, written: bytes) -> None:
    """The file is the original plus whitespace and the construct, spliced
    in just before the ')' that closes :init."""
    _clean_exit(out, 0)
    added = _splice(problem.text, written, problem.init_close)
    expect(added.strip() == problem.construct.encode("ascii")
           and added[:len(added) - len(added.lstrip())].isspace(),
           f"inserted {added!r}, expected whitespace and "
           f"{problem.construct!r}")


_DISTANCE = re.compile(rb"\(distance (\S+) (\S+) (\d+\.\d+)\)")


def _within_tolerance(value: bytes, squared: int) -> bool:
    """Whether ``value``, a decimal of at most 4 places, lies within
    0.00005 (+1e-9 for the program's double-precision square root) of the
    exact sqrt(squared). Decided in exact integer arithmetic: with V the
    value in units of 1e-4, check |V - 1e4*sqrt(squared)| <= 0.50001."""
    whole, frac = value.split(b".")
    if len(frac) > 4:
        return False
    v = int(whole) * 10_000 + int(frac.ljust(4, b"0"))
    target = 10**18 * squared            # (1e5 * 1e4 * sqrt(squared))^2
    low, high = 100_000 * v - 50_001, 100_000 * v + 50_001
    return (low <= 0 or low * low <= target) and target <= high * high


def check_distance(out: Outcome, problem: Problem, written: bytes) -> None:
    """n*n facts in source x target order, 0.0 on the diagonal, symmetric
    strings, each value within 0.00005 of the exact distance between the
    integer coordinates; the input bytes outside the insertion stay."""
    _clean_exit(out, 0)
    added = _splice(problem.text, written, problem.init_close)
    facts = _DISTANCE.findall(added)
    expect(not _DISTANCE.sub(b"", added).strip(),
           "the insertion holds more than distance facts and whitespace")
    locs = problem.locations
    n = len(locs)
    expect(len(facts) == n * n, f"{len(facts)} facts for {n} locations")
    value: dict[tuple[str, str], bytes] = {}
    k = 0
    for a, ca in locs:
        for b, cb in locs:
            src, dst, v = facts[k]
            k += 1
            expect((src.decode(), dst.decode()) == (a, b),
                   f"fact {k} is ({src!r} {dst!r}), expected ({a} {b})")
            if a == b:
                expect(v == b"0.0", f"self-distance of {a} is {v!r}")
            squared = sum((x - y) ** 2 for x, y in zip(ca, cb))
            expect(_within_tolerance(v, squared),
                   f"d({a},{b}) = {v!r}, exact sqrt({squared})")
            value[(a, b)] = v
    for (a, b), v in value.items():
        expect(value[(b, a)] == v, f"d({a},{b}) = {v!r} but "
                                   f"d({b},{a}) = {value[(b, a)]!r}")


# -- diagram --------------------------------------------------------------------

_DOT_NODE = re.compile(r'\s*"([^"]+)" \[label=')
_DOT_EDGE = re.compile(r'\s*"([^"]+)" -> "([^"]+)"')


def check_diagram(out: Outcome, domain: Domain, root: Path, base: str,
                  earlier: int) -> None:
    """One revision above the ``earlier`` ones; the copy is byte-identical;
    the DOT graph is the generated hierarchy rooted at object."""
    _clean_exit(out, 0)
    revision = earlier + 1
    lines = out.stdout.decode("utf-8").splitlines()
    expect(lines[:1] == [f"revision {revision}:"],
           f"first line {lines[:1]}, expected revision {revision}")
    copied = root / "domains" / f"{base}_{revision}.pddl"
    dot = root / "dot" / f"{base}_{revision}.dot"
    expect([l.strip() for l in lines[1:]] == [str(copied), str(dot)],
           f"artifact lines {lines[1:]}")
    expect(copied.read_bytes() == domain.text, "copied domain differs")
    nodes, edges = set(), set()
    for line in dot.read_text(encoding="utf-8").splitlines():
        if m := _DOT_EDGE.match(line):
            edges.add(m.groups())
        elif m := _DOT_NODE.match(line):
            nodes.add(m.group(1))
    expect(nodes == {"object", *domain.parents},
           f"DOT nodes differ by {sorted(nodes ^ {'object', *domain.parents})[:5]}")
    expect(edges == set(domain.parents.items()),
           f"DOT edges differ by {sorted(edges ^ set(domain.parents.items()))[:5]}")
