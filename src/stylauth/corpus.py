"""Corpus ingestion: normalization, tokenization, sentence splitting, segmentation.

Text conventions
----------------
Source texts are plain UTF-8. Spans explicitly quoted from other works are
marked ``{q: ... }`` and are deleted during normalization. Normalized text
is in Unicode normalization form C (NFC), so two encodings of one letter
(precomposed, or a base letter and a combining mark) give one token. It
is lowercase with ``v`` mapped to ``u`` and ``j`` mapped to ``i`` (medieval
Latin editions disagree on these graphemes, so both spellings collapse to
one canonical form). All other characters, including whitespace, survive
normalization unchanged.

A token is either a word (maximal run of letters) or a single punctuation
character. Sentences end after ``.``, ``!`` or ``?``; editors are expected
to map other terminator conventions onto these three. Segments are built
greedily from whole sentences and close as soon as they reach the minimum
token count, so a segment may run past the minimum to keep its last
sentence intact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import (
    AnnotationError,
    CorpusError,
    DuplicateIdError,
    EmptyTextError,
    ExperimentError,
    MissingAuthorError,
    MissingFileError,
    UnbalancedQuotationError,
    UnknownTagError,
)

log = logging.getLogger(__name__)

UNKNOWN_AUTHOR = "UNKNOWN"

WORD = "word"
PUNCTUATION = "punctuation"

SENTENCE_TERMINATORS = frozenset({".", "!", "?"})

_QUOTE_OPEN = "{q:"
_QUOTE_CLOSE = "}"

# A word is a maximal run of letters; any other non-space character stands
# alone as a punctuation token.
_TOKEN_RE = re.compile(r"[^\W\d_]+|\S")

_WS_RE = re.compile(r"\s+")


@dataclass
class Token:
    surface: str
    kind: str  # WORD or PUNCTUATION
    start: int  # character offset into the normalized text

    @property
    def char_length(self) -> int:
        return len(self.surface)

    @property
    def end(self) -> int:
        return self.start + len(self.surface)


@dataclass
class AnnotationLayer:
    """POS tags and dependency relations, one entry per word token."""

    document_id: str
    tagset: str
    pos_tags: tuple[str, ...]
    dep_relations: tuple[str, ...]
    pos_tagset: frozenset[str]
    dep_tagset: frozenset[str]


@dataclass
class Document:
    """One text of known (or disputed) authorship.

    Instances are treated as immutable after loading; every downstream
    operation is a pure function of the loaded state.
    """

    id: str
    author: str
    title: str
    genre: str | None
    normalized_text: str
    tokens: list[Token]
    sentences: list[tuple[int, int]]  # half-open token-index ranges
    annotations: AnnotationLayer | None = None
    _word_prefix: list[int] = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._word_prefix is None:
            prefix = [0]
            for tok in self.tokens:
                prefix.append(prefix[-1] + (1 if tok.kind == WORD else 0))
            self._word_prefix = prefix

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    @property
    def word_token_count(self) -> int:
        return self._word_prefix[-1]

    def word_index_before(self, token_index: int) -> int:
        """Number of word tokens strictly before the given token index."""
        return self._word_prefix[token_index]

    @property
    def is_disputed(self) -> bool:
        return self.author == UNKNOWN_AUTHOR

    def text_sha256(self) -> str:
        return hashlib.sha256(self.normalized_text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Segment:
    parent_id: str
    index: int
    token_range: tuple[int, int]  # half-open token-index interval
    token_count: int

    @property
    def instance_id(self) -> str:
        return f"{self.parent_id}[{self.index}]"


def _delete_quoted_spans_once(text: str) -> tuple[str, bool]:
    out: list[str] = []
    pos = 0
    found = False
    while True:
        start = text.find(_QUOTE_OPEN, pos)
        if start == -1:
            out.append(text[pos:])
            break
        end = text.find(_QUOTE_CLOSE, start + len(_QUOTE_OPEN))
        if end == -1:
            offset = len(text[:start].encode("utf-8"))
            raise UnbalancedQuotationError(
                f"quoted span opened at byte offset {offset} is never closed",
                byte_offset=offset,
            )
        out.append(text[pos:start])
        pos = end + 1
        found = True
    return "".join(out), found


def normalize(raw_text: str) -> str:
    """Canonicalize raw text: NFC, drop quoted spans, lowercase, map v->u and j->i.

    Quoted-span deletion runs to a fixpoint so the result never contains a
    marker, which makes normalize idempotent; so does composing the result
    again, because lowercasing and the letter map can leave a base letter
    and a combining mark that compose (``J`` with a caron becomes ``ǐ``).
    Raises UnbalancedQuotationError when a ``{q:`` marker has no closing
    brace, with its byte offset in the NFC text.
    """
    text = unicodedata.normalize("NFC", raw_text)
    while True:
        text, found = _delete_quoted_spans_once(text)
        if not found:
            break
    text = text.lower().replace("v", "u").replace("j", "i")
    return unicodedata.normalize("NFC", text)


def tokenize(normalized_text: str) -> list[Token]:
    """Split normalized text into word and punctuation tokens.

    Whitespace is discarded; every other character lands in exactly one
    token, so no letters or punctuation are lost.
    """
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(normalized_text):
        surface = match.group()
        kind = WORD if surface[0].isalpha() else PUNCTUATION
        tokens.append(Token(surface=surface, kind=kind, start=match.start()))
    return tokens


def split_sentences(tokens: Sequence[Token]) -> list[tuple[int, int]]:
    """Partition the token list into sentence ranges.

    A sentence closes after each terminator token; any trailing tokens
    without a terminator form a final sentence.
    """
    ranges: list[tuple[int, int]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok.kind == PUNCTUATION and tok.surface in SENTENCE_TERMINATORS:
            ranges.append((start, i + 1))
            start = i + 1
    if start < len(tokens):
        ranges.append((start, len(tokens)))
    return ranges


def segment(doc: Document, min_tokens: int = 400) -> list[Segment]:
    """Chop a document into sentence-aligned segments of >= min_tokens tokens.

    Sentences are appended to the open segment, which closes as soon as it
    reaches min_tokens; the final remainder stays as its own (possibly
    undersized) segment. A single long sentence therefore yields a single
    oversized segment rather than being split.
    """
    if min_tokens <= 0:
        raise ExperimentError(f"min_tokens must be positive, got {min_tokens}")
    segments: list[Segment] = []
    seg_start: int | None = None
    for sent_start, sent_end in doc.sentences:
        if seg_start is None:
            seg_start = sent_start
        if sent_end - seg_start >= min_tokens:
            segments.append(
                Segment(
                    parent_id=doc.id,
                    index=len(segments),
                    token_range=(seg_start, sent_end),
                    token_count=sent_end - seg_start,
                )
            )
            seg_start = None
    if seg_start is not None:
        end = doc.sentences[-1][1]
        segments.append(
            Segment(
                parent_id=doc.id,
                index=len(segments),
                token_range=(seg_start, end),
                token_count=end - seg_start,
            )
        )
    return segments


def build_document(
    doc_id: str,
    author: str,
    title: str,
    raw_text: str,
    genre: str | None = None,
    annotations: AnnotationLayer | None = None,
) -> Document:
    """Normalize, tokenize, and sentence-split one text."""
    normalized = normalize(raw_text)
    tokens = tokenize(normalized)
    if not tokens:
        raise EmptyTextError(f"document {doc_id!r} contains no tokens")
    sentences = split_sentences(tokens)
    return Document(
        id=doc_id,
        author=author,
        title=title,
        genre=genre,
        normalized_text=normalized,
        tokens=tokens,
        sentences=sentences,
        annotations=annotations,
    )


@dataclass
class Corpus:
    """Documents in id order, whatever order they were given in, so that
    a report depends only on what ``fingerprint`` covers."""

    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        self.documents = tuple(sorted(self.documents, key=lambda d: d.id))
        self._by_id = {doc.id: doc for doc in self.documents}

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def get(self, doc_id: str) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise CorpusError(f"no document with id {doc_id!r}") from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def labelled(self) -> list[Document]:
        """Documents of known authorship (excludes disputed texts)."""
        return [d for d in self.documents if not d.is_disputed]

    def disputed(self) -> list[Document]:
        return [d for d in self.documents if d.is_disputed]

    def authors(self) -> dict[str, int]:
        """Known authors and their text counts."""
        counts: dict[str, int] = {}
        for doc in self.labelled():
            counts[doc.author] = counts.get(doc.author, 0) + 1
        return counts

    def fingerprint(self) -> str:
        """Stable digest of ids, authors, and normalized contents."""
        h = hashlib.sha256()
        for doc in self.documents:
            h.update(doc.id.encode("utf-8"))
            h.update(b"\x1f")
            h.update(doc.author.encode("utf-8"))
            h.update(b"\x1f")
            h.update(doc.text_sha256().encode("ascii"))
            h.update(b"\n")
        return h.hexdigest()


def read_user_file(path: Path, what: str, newline: str | None = None) -> str:
    """The UTF-8 text of a file a user named; ``what`` names the file in errors.

    A leading byte-order mark is dropped. Raises MissingFileError when there
    is no such file and CorpusError when it is not UTF-8. ``newline`` is
    passed to ``open``.
    """
    if not path.is_file():
        raise MissingFileError(f"{what} not found: {path}")
    try:
        with path.open(encoding="utf-8-sig", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{what} is not UTF-8 (byte {exc.start}): {path}") from None


_ANNOTATION_HEADER = "#tagset"


def load_annotations(path: Path | str, doc: Document) -> AnnotationLayer:
    """Read a tab-separated annotation sidecar aligned to a document.

    Format: a header line ``#tagset<TAB>name<TAB>pos1,pos2,...<TAB>dep1,...``
    followed by one ``surface<TAB>pos_tag<TAB>dep_relation`` row per word
    token. Row count must equal the document's word-token count and every
    tag must belong to the declared sets.
    """
    path = Path(path)
    lines = read_user_file(path, "annotation file").splitlines()
    if not lines or not lines[0].startswith(_ANNOTATION_HEADER):
        raise AnnotationError(f"{path}: first line must be a {_ANNOTATION_HEADER} header")
    header = lines[0].split("\t")
    if len(header) != 4:
        raise AnnotationError(
            f"{path}: header must have 4 tab-separated fields "
            "(#tagset, name, pos tags, dep relations)"
        )
    tagset_name = header[1].strip()
    pos_tagset = frozenset(t for t in header[2].split(",") if t)
    dep_tagset = frozenset(t for t in header[3].split(",") if t)

    pos_tags: list[str] = []
    dep_relations: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise AnnotationError(f"{path}:{lineno}: expected 3 tab-separated fields")
        _surface, pos, dep = fields
        if pos not in pos_tagset:
            raise UnknownTagError(f"{path}:{lineno}: POS tag {pos!r} not in declared tagset")
        if dep not in dep_tagset:
            raise UnknownTagError(f"{path}:{lineno}: relation {dep!r} not in declared tagset")
        pos_tags.append(pos)
        dep_relations.append(dep)

    if len(pos_tags) != doc.word_token_count:
        raise AnnotationError(
            f"{path}: {len(pos_tags)} annotation rows but document {doc.id!r} "
            f"has {doc.word_token_count} word tokens"
        )
    return AnnotationLayer(
        document_id=doc.id,
        tagset=tagset_name,
        pos_tags=tuple(pos_tags),
        dep_relations=tuple(dep_relations),
        pos_tagset=pos_tagset,
        dep_tagset=dep_tagset,
    )


def _read_manifest_records(manifest_path: Path) -> list[dict]:
    if manifest_path.suffix.lower() == ".json":
        try:
            records = json.loads(read_user_file(manifest_path, "manifest"))
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{manifest_path}: invalid JSON ({exc})") from None
        if not isinstance(records, list):
            raise CorpusError(f"{manifest_path}: JSON manifest must be a list of records")
        return records
    text = read_user_file(manifest_path, "manifest", newline="")
    return list(csv.DictReader(io.StringIO(text, newline="")))


def _field(rec: dict, key: str, where: str) -> str:
    """A record's text field, or "" when it is missing or null."""
    value = rec.get(key)
    if value is not None and not isinstance(value, str):
        raise CorpusError(f"{where}: field {key!r} must be a string, got {value!r}")
    return value or ""


_ID_FORBIDDEN = set("[]\t\n\r")


def load_corpus(manifest_path: Path | str) -> Corpus:
    """Load every document referenced by a CSV or JSON manifest.

    Each record needs ``id``, ``author``, ``title`` and ``text_path``
    fields; ``genre`` and ``annotations_path`` are optional. Relative
    paths resolve against the manifest's directory. Disputed texts carry
    the reserved author value ``UNKNOWN``. Ids must be distinct, and so
    must normalized texts with their whitespace runs collapsed, so that no
    text trains on a copy of itself, re-wrapped or not.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    records = _read_manifest_records(manifest_path)

    documents: list[Document] = []
    seen: set[str] = set()
    id_of_text: dict[str, str] = {}  # digest of the whitespace-collapsed normalized text -> id
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise CorpusError(f"{manifest_path}: record {i} is not an object")
        doc_id = _field(rec, "id", f"{manifest_path}: record {i}").strip()
        if not doc_id:
            raise CorpusError(f"{manifest_path}: record {i} has no id")
        where = f"{manifest_path}: document {doc_id!r}"
        if _ID_FORBIDDEN & set(doc_id):
            raise CorpusError(
                f"{manifest_path}: id {doc_id!r} contains a forbidden character "
                "(brackets and control characters are reserved)"
            )
        if doc_id in seen:
            raise DuplicateIdError(f"{manifest_path}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        author = _field(rec, "author", where).strip()
        if not author:
            raise MissingAuthorError(f"{where} has no author")
        title = (_field(rec, "title", where) or doc_id).strip()
        genre = _field(rec, "genre", where).strip() or None
        text_rel = _field(rec, "text_path", where).strip()
        if not text_rel:
            raise CorpusError(f"{where} has no text_path")
        text_path = base / text_rel
        raw_text = read_user_file(text_path, f"text file for {doc_id!r}")
        if not raw_text.strip():
            raise EmptyTextError(f"text file for {doc_id!r} is empty: {text_path}")
        doc = build_document(doc_id, author, title, raw_text, genre=genre)
        collapsed = collapse_whitespace(doc.normalized_text).encode("utf-8")
        twin = id_of_text.setdefault(hashlib.sha256(collapsed).hexdigest(), doc_id)
        if twin != doc_id:
            raise CorpusError(
                f"{manifest_path}: documents {twin!r} and {doc_id!r} have the same "
                "normalized text, up to whitespace"
            )

        ann_rel = _field(rec, "annotations_path", where).strip()
        if ann_rel:
            doc.annotations = load_annotations(base / ann_rel, doc)
        documents.append(doc)
        log.info("loaded %s: %d tokens, %d sentences", doc_id, doc.token_count, len(doc.sentences))

    if not documents:
        raise CorpusError(f"{manifest_path}: manifest lists no documents")
    return Corpus(documents=tuple(documents))


def read_word_list(path: Path | str) -> tuple[str, ...]:
    """Load a resource list (one entry per line), normalized like corpus text.

    Entries are normalized with the same character rules as documents, so
    lists written with v/j spellings still match normalized tokens.
    """
    path = Path(path)
    entries: list[str] = []
    seen: set[str] = set()
    for line in read_user_file(path, "resource list").splitlines():
        entry = normalize(line.strip())
        if entry and entry not in seen:
            seen.add(entry)
            entries.append(entry)
    return tuple(entries)


def collapse_whitespace(text: str) -> str:
    """Replace whitespace runs with single spaces and trim the ends."""
    return _WS_RE.sub(" ", text).strip()
