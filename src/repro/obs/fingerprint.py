"""Query fingerprinting: stable shape keys shared by GQL and SQL.

Workload telemetry needs to aggregate *across* queries: "this query
shape ran 4 000 times at p99 = 18 ms" is what an operator watches, and
per-shape accounting only works if ``MATCH (a WHERE a.owner='Mike')``
and ``MATCH (a WHERE a.owner='Jay')`` land in the same bucket.  A
**fingerprint** is a short stable hash of the query's *normalized* text:

* literals (numbers and strings) are replaced by ``?`` placeholders;
  the numbers that are structure stay — quantifier bounds (``{1,3}``) and
  selector counts (``ANY 2``, ``TOP 2 CHEAPEST``): 2 hops are not 6,
* keywords are canonicalized to upper case (the shared lexer already
  treats them case-insensitively, so ``match`` and ``MATCH`` fold),
* whitespace and comments are canonicalized away entirely.

Identifiers keep their case — they are case-sensitive in all three
surface languages, so folding them would merge genuinely different
queries.  ``TRUE`` / ``FALSE`` / ``NULL`` are keywords, not literals:
``WHERE x IS NULL`` and ``WHERE x = ?`` stay distinct shapes.

All three surfaces (GPML, GQL, SQL/PGQ) share one lexer
(:mod:`repro.gpml.lexer`), so one tokenizer-based normalizer covers the
whole workload.  Text the lexer rejects (a truncated query captured
from a log, say) falls back to whitespace collapsing — the fingerprint
is still deterministic, just literal-sensitive.

Guaranteed properties (tested with hypothesis in
``tests/obs/test_fingerprint.py``):

* **idempotent** — ``fingerprint(normalize_query(q)) == fingerprint(q)``:
  the normalized text re-tokenizes to the same token stream;
* **literal-insensitive** — queries differing only in literal values
  share a fingerprint;
* **shape-sensitive** — structurally different queries get different
  fingerprints (hash collisions aside; the suite corpus asserts none).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.errors import GpmlSyntaxError
from repro.gpml.lexer import EOF, NUMBER, STRING, tokenize

#: placeholder substituted for every literal.
PLACEHOLDER = "?"
#: keywords whose following number is a selector count, not a literal.
_COUNT_KEYWORDS = ("ANY", "SHORTEST", "CHEAPEST", "TOP")

#: normalized tokens that glue to their predecessor (no space before).
_NO_SPACE_BEFORE = frozenset({".", ",", ")", "]", "}"})
#: normalized tokens that glue to their successor (no space after).
_NO_SPACE_AFTER = frozenset({".", "(", "[", "{"})


def _structural_numbers(tokens) -> set[int]:
    """Positions of the integer tokens that are shape: the bounds of a
    quantifier (a brace group of integers and commas only — a property
    map holds names) and the count after a selector keyword."""

    def count(token) -> bool:
        return token.type == NUMBER and isinstance(token.value, int)

    keep: set[int] = set()
    for index, token in enumerate(tokens):
        if token.is_punct("{"):
            end = index + 1
            while count(tokens[end]) or tokens[end].is_punct(","):
                end += 1
            if tokens[end].is_punct("}"):
                keep.update(range(index + 1, end))
        elif count(token) and index and tokens[index - 1].is_keyword(*_COUNT_KEYWORDS):
            keep.add(index)
    return keep


@lru_cache(maxsize=4096)
def normalize_query(text: str) -> str:
    """The canonical shape text of *text* (literals → ``?``).

    Tokenizes with the shared GPML/GQL/SQL lexer, replaces every
    ``STRING`` token and every ``NUMBER`` token that is an expression
    literal or a ``LIMIT``/``OFFSET``/``FETCH FIRST`` count with
    :data:`PLACEHOLDER`, and rejoins with canonical spacing.  Falls back
    to whitespace collapsing when the text does not tokenize.
    """
    try:
        tokens = tokenize(text)
    except GpmlSyntaxError:
        return " ".join(text.split())
    structural = _structural_numbers(tokens)
    parts: list[str] = []
    for index, token in enumerate(tokens):
        if token.type == EOF:
            break
        if token.type == STRING or (token.type == NUMBER and index not in structural):
            piece = PLACEHOLDER
        else:
            piece = str(token.value)
        if parts:
            glued = piece in _NO_SPACE_BEFORE or parts[-1] in _NO_SPACE_AFTER
            # a kept number stays apart from a dot ("ANY 2." is another number)
            if not glued or (piece == "." and index - 1 in structural):
                parts.append(" ")
        parts.append(piece)
    return "".join(parts)


@lru_cache(maxsize=4096)
def query_fingerprint(text: str) -> str:
    """A 12-hex-digit stable hash of the query's normalized shape."""
    normalized = normalize_query(text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]
