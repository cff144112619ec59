"""Context-aware scope assignment for PDDL source, and its outputs.

The contract is the inverse of a linter: correct constructs get a scope,
anything syntactically out of place gets no scope at all (``UNSCOPED``), and
the unscoped spots are what a reader (or `invalid_regions`) looks for. A
construct is only scoped when it appears in a context where it is legal, so
the scope walk mirrors the PDDL 3.1 grammar rather than matching tokens in
isolation; it lives in ``model``, beside the grammar's tables. This module
runs it for tokens and renders them as JSON, HTML and invalid regions.
Tokens always tile the whole file, whitespace included.
"""

from __future__ import annotations

import html
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .model import _PUNCTUATION, _UNSCOPED, Scope, _Walk
from .sexpr import Document, Span, as_document, gc_paused


class Token(NamedTuple):
    span: Span
    scope: Scope
    text: str


_SCOPE_JSON = {scope: encode_basestring(scope.value) for scope in Scope}
# Tokens per piece of ``iter_json``: enough to amortize the ``%``, few
# enough that a piece is small next to a large file's output.
_JSON_RUN = 1024
# A token's JSON record: its offsets, then its tail, which holds the rest.
_JSON_RECORD = b' {\n  "start": %d,\n  "end": %d%s'
# The template of a full run of records, about 34 KB.
_JSON_TEMPLATE = b",\n".join(repeat(_JSON_RECORD, _JSON_RUN))
# Distinct tails kept between runs; past this many the cache starts over,
# so a file whose atoms are all distinct never holds its tails whole.
_JSON_TAILS = 4 * _JSON_RUN

_CSS = """\
body { background: #fdfdfd; color: #333; }
pre { font-family: monospace; font-size: 14px; }
.scope-keyword { color: #0033b3; font-weight: bold; }
.scope-variable { color: #871094; }
.scope-name { color: #00627a; }
.scope-typename { color: #9e880d; }
.scope-number { color: #1750eb; }
.scope-comment { color: #8c8c8c; font-style: italic; }
.scope-requirement { color: #9c27b0; }
.scope-punctuation { color: #777; }
.invalid-region { background: #ffffff; outline: 1px solid #e53935; }
"""


# The opening tag of each scope's span; unscoped text gets no span.
_SCOPE_OPEN = {scope: f'<span class="scope-{scope.value.lower()}">'
               for scope in Scope if scope is not Scope.UNSCOPED}


class _Fragments(dict):
    """(scope, text) -> the token's finished HTML, rendered on first use."""

    def __missing__(self, key: tuple[Scope, str]) -> str:
        scope, text = key
        if scope is Scope.UNSCOPED:
            value = html.escape(text)
        else:
            value = f"{_SCOPE_OPEN[scope]}{html.escape(text)}</span>"
        self[key] = value
        return value


class _Tails(dict):
    """(scope, text) -> the UTF-8 tail of the token's JSON record, rendered
    on first use."""

    def __missing__(self, key: tuple[Scope, str]) -> bytes:
        scope, text = key
        value = (f',\n  "scope": {_SCOPE_JSON[scope]},\n'
                 f'  "text": {encode_basestring(text)}\n }}').encode("utf-8")
        self[key] = value
        return value


def scope_columns(source: Union[str, Document]) -> TokenColumns:
    """The walk of `tokenize` as columns; never fails. Given text, lex it
    first. The walk reads the document's tape and builds no tree; the
    cyclic garbage collector is paused during it."""
    walk = _Walk(as_document(source).tape)
    with gc_paused():
        walk.run()
    return TokenColumns(walk)


def tokenize(source: Union[str, Document]) -> list[Token]:
    """Assign a scope to every byte of a document; never fails. Given
    text, lex it first. The tokens are those of `scope_columns`,
    built at C speed with the cyclic garbage collector paused."""
    with gc_paused():
        columns = scope_columns(source)
        spans = map(tuple.__new__, repeat(Span), zip(*columns.offsets()))
        return list(map(tuple.__new__, repeat(Token),
                        zip(spans, columns.scopes, columns.texts)))


class TokenColumns:
    """A token stream as columns: token k is ``texts[k]`` with scope
    ``scopes[k]``. A ``walk``'s columns are its `_Walk.tokens`, built on
    first read, and tile the file: token k spans ``[bounds[k], bounds[k +
    1])``, the running sums of the texts' byte lengths, made on first use.
    Finding its regions needs neither."""

    __slots__ = ("texts", "scopes", "_walk", "_offsets")

    def __init__(self, walk: Optional[_Walk] = None) -> None:
        self._walk, self._offsets = walk, None

    def __getattr__(self, name: str) -> Sequence:
        # A walk's texts and scopes, built on first read.
        if name not in ("texts", "scopes") or self._walk is None:
            raise AttributeError(name)
        self.texts, self.scopes = self._walk.tokens()
        return getattr(self, name)

    @classmethod
    def of(cls, tokens: Sequence[Token]) -> TokenColumns:
        """The columns of any token list, whose spans give the offsets."""
        columns = cls()
        columns.texts = list(map(itemgetter(2), tokens))
        columns.scopes = list(map(itemgetter(1), tokens))
        columns._offsets = ([span[0] for span, _, _ in tokens],
                            [span[1] for span, _, _ in tokens])
        return columns

    def offsets(self) -> tuple[list[int], list[int]]:
        """Each token's start and end offset, made on first use."""
        if self._offsets is None:
            texts = self.texts if self._walk.tape.ascii \
                else map(str.encode, self.texts)
            bounds = list(accumulate(map(len, texts), initial=0))
            self._offsets = bounds, bounds[1:]
        return self._offsets

    def invalid_regions(self) -> list[Span]:
        """See `invalid_regions`. A walk's are read off its lexemes, the end
        left out, as only whitespace lies between two; each offset is the
        last one's plus the bytes of the tape's texts between them."""
        if self._walk is None:
            scopes, texts = self.scopes, self.texts
            span = lambda first, last: Span(self.offsets()[0][first],
                                            self.offsets()[1][last])
        else:
            tape = self._walk.tape
            scopes, texts = self._walk.scopes[:-1], tape.pieces
            size = tape.size
            at = offset = 0  # a string of the tape's texts, and its offset

            def span(first: int, last: int) -> Span:
                nonlocal at, offset
                start = offset + size("".join(tape.texts[at:2 * first + 1]))
                at = 2 * last + 2
                offset = start + size("".join(tape.texts[2 * first + 1:at]))
                return Span(start, offset)
        regions: list[Span] = []
        i = 0
        while True:
            try:
                # Skip to the next unscoped token at C speed.
                i = scopes.index(_UNSCOPED, i)
            except ValueError:
                return regions
            first = last = i
            i += 1
            while i < len(scopes):
                scope = scopes[i]
                if scope is _UNSCOPED:
                    last = i
                elif scope is not _PUNCTUATION or not texts[i].isspace():
                    break
                i += 1
            regions.append(span(first, last))

    def iter_json(self) -> Iterator[bytes]:
        """See `iter_tokens_json`."""
        size = len(self.texts)
        cuts = list(map(slice, range(0, size, _JSON_RUN),
                        range(_JSON_RUN, size + _JSON_RUN, _JSON_RUN)))
        columns = (*self.offsets(), self.scopes, self.texts)
        # Each run's columns, cut at C speed.
        return _json_pieces(zip(*[map(column.__getitem__, cuts)
                                  for column in columns]))

    def render_html(self, *, title: str = "PDDL") -> str:
        """See `render_html`."""
        fragments = map(_Fragments().__getitem__, zip(self.scopes, self.texts))
        out = [f"<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
               f"<title>{html.escape(title)}</title>\n<style>\n{_CSS}</style>\n"
               f"</head>\n<body>\n<pre>"]
        regions = self.invalid_regions()
        if not regions:
            out += fragments
        else:
            opens, closes = map(set, zip(*regions))
            for start, end, fragment in zip(*self.offsets(), fragments):
                if start in opens:
                    out.append('<span class="invalid-region">')
                out.append(fragment)
                if end in closes:
                    out.append("</span>")
        out.append("</pre>\n</body>\n</html>\n")
        return "".join(out)


def invalid_regions(tokens: Sequence[Token]) -> list[Span]:
    """Maximal runs of unscoped tokens, merged across pure whitespace."""
    return TokenColumns.of(tokens).invalid_regions()


def iter_tokens_json(tokens: Iterable[Token]) -> Iterator[bytes]:
    """Stable JSON rendering of the token stream, in its order, as UTF-8
    pieces of ``_JSON_RUN`` tokens each, so that a writer never holds the
    whole output; any (span, scope, text) rows will do for tokens.

    The joined bytes are those of ``json.dumps(records, ensure_ascii=False,
    indent=1)``, written out directly because ``indent`` makes ``json``
    fall back to its pure-Python encoder.
    """
    def runs(rows: Iterator) -> Iterator[tuple]:
        while run := list(islice(rows, _JSON_RUN)):
            spans, scopes, texts = zip(*run)
            yield (*zip(*spans), scopes, texts)
    return _json_pieces(runs(iter(tokens)))


def _json_pieces(runs: Iterable[tuple]) -> Iterator[bytes]:
    """The pieces of ``iter_tokens_json``, one per run of columns (starts,
    ends, scopes, texts). A run is one bytes ``%`` of a template of
    ``_JSON_RECORD``s, whose arguments are interleaved at C speed; each
    distinct (scope, text) pair's tail is rendered once (``_Tails``)."""
    tails = _Tails()
    opening = b"[\n"
    for starts, ends, scopes, texts in runs:
        if len(tails) > _JSON_TAILS:
            tails.clear()
        template = _JSON_TEMPLATE if len(texts) == _JSON_RUN \
            else b",\n".join(repeat(_JSON_RECORD, len(texts)))
        yield opening + template % tuple(chain.from_iterable(zip(
            starts, ends, map(tails.__getitem__, zip(scopes, texts)))))
        opening = b",\n"
    yield b"[]" if opening == b"[\n" else b"\n]"


def emit_tokens_json(tokens: Sequence[Token]) -> bytes:
    """The pieces of ``iter_tokens_json``, joined."""
    return b"".join(iter_tokens_json(tokens))


def render_html(tokens: Sequence[Token], *, title: str = "PDDL") -> str:
    """Standalone HTML document; each invalid region gets one wrapper span so
    broken spots stay visually distinct from every scoped construct.

    Each distinct (scope, text) pair is escaped and rendered once per call.
    """
    return TokenColumns.of(tokens).render_html(title=title)
