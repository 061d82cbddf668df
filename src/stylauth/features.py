"""Stylometric feature extraction and TFIDF vectorization.

Nine feature blocks are supported, all topic-agnostic by design:

- token_lengths: character lengths of word tokens
- function_words: occurrences of words from a closed list
- sentence_lengths: character lengths of sentences
- pos_ngrams / dep_ngrams: tag n-grams that never cross a sentence boundary
- char_ngrams: character n-grams over text with whitespace collapsed to
  single spaces (grams may span word boundaries and include punctuation)
- verbal_endings: longest listed suffix per word token, at most one hit
  per token
- masked_dvma / masked_dvex: character n-grams over distorted text where
  every word outside the function-word list is masked (dvma masks all of
  its characters with ``*``; dvex keeps the first and last character)

Raw counts live in a CountsStore: one sparse count matrix, one row per
instance, its blocks' columns side by side. A full text's counts can be
summed from its segments' (``counts_from_segments``). A FeatureSpace is
fitted on training rows only: each block's vocabulary is the store
columns seen in training (plus every entry of list-backed blocks), in
sorted key order, and maps a key to its column within the block, so a
space restricted to some blocks shares their vocabularies. IDF uses the
smoothed form ln((1+N)/(1+df)) + 1 so that it is always finite and
positive. Vectorization computes within-block relative frequencies,
multiplies by IDF, and L2-normalizes each block sub-vector
independently so blocks of wildly different dimensionality
contribute comparable mass; it also returns each row's raw count total
per block. Its matrix, one CSR row per instance, is the only row form
downstream: oversampling, training, prediction and similarity all read
CSR matrices, and a single instance is a one-row matrix, which does not
record its space.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import WORD, Document, Segment, collapse_whitespace
from .errors import FeatureError

FeatureKey = int | str
BlockCounts = dict[FeatureKey, int]


class FeatureBlock(str, Enum):
    TOKEN_LENGTHS = "token_lengths"
    FUNCTION_WORDS = "function_words"
    SENTENCE_LENGTHS = "sentence_lengths"
    POS_NGRAMS = "pos_ngrams"
    CHAR_NGRAMS = "char_ngrams"
    DEP_NGRAMS = "dep_ngrams"
    VERBAL_ENDINGS = "verbal_endings"
    MASKED_DVMA = "masked_dvma"
    MASKED_DVEX = "masked_dvex"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


BLOCK_ORDER: tuple[FeatureBlock, ...] = tuple(FeatureBlock)

NGRAM_BLOCKS = frozenset(
    {
        FeatureBlock.POS_NGRAMS,
        FeatureBlock.CHAR_NGRAMS,
        FeatureBlock.DEP_NGRAMS,
        FeatureBlock.MASKED_DVMA,
        FeatureBlock.MASKED_DVEX,
    }
)

# Blocks whose vocabulary is fixed by an external resource list.
LIST_BLOCKS = frozenset({FeatureBlock.FUNCTION_WORDS, FeatureBlock.VERBAL_ENDINGS})

# Blocks whose extraction reads the function-word list.
FUNCTION_WORD_BLOCKS = frozenset(
    {FeatureBlock.FUNCTION_WORDS, FeatureBlock.MASKED_DVMA, FeatureBlock.MASKED_DVEX}
)

MAX_NGRAM_ORDER = 3

MASK_CHAR = "*"


@dataclass(frozen=True)
class Instance:
    """A vectorizable unit: a full document or one of its segments."""

    doc: Document
    segment: Segment | None = None

    @property
    def instance_id(self) -> str:
        return self.doc.id if self.segment is None else self.segment.instance_id

    @property
    def token_range(self) -> tuple[int, int]:
        if self.segment is None:
            return (0, len(self.doc.tokens))
        return self.segment.token_range

    def tokens(self):
        a, b = self.token_range
        return self.doc.tokens[a:b]

    def word_surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens() if t.kind == WORD]

    def sentences(self) -> list[tuple[int, int]]:
        """Sentence ranges (absolute token indices) fully inside this instance."""
        a, b = self.token_range
        return [(s, e) for s, e in self.doc.sentences if s >= a and e <= b]

    def span_text(self, token_start: int, token_end: int) -> str:
        """Whitespace-collapsed normalized text covering a token range."""
        toks = self.doc.tokens
        if token_start >= token_end:
            return ""
        start = toks[token_start].start
        end = toks[token_end - 1].end
        return collapse_whitespace(self.doc.normalized_text[start:end])

    def text(self) -> str:
        a, b = self.token_range
        return self.span_text(a, b)

    def _layer(self):
        layer = self.doc.annotations
        if layer is None:
            raise FeatureError(
                f"instance {self.instance_id!r} has no annotation layer but an "
                "annotation-based block is enabled"
            )
        return layer

    def _tag_sentences(self, tags: Sequence[str]) -> list[list[str]]:
        """Per-sentence tag sequences (word tokens only) for this instance."""
        doc = self.doc
        out: list[list[str]] = []
        for s, e in self.sentences():
            w0 = doc.word_index_before(s)
            w1 = doc.word_index_before(e)
            if w1 > w0:
                out.append(list(tags[w0:w1]))
        return out

    def pos_sentences(self) -> list[list[str]]:
        return self._tag_sentences(self._layer().pos_tags)

    def dep_sentences(self) -> list[list[str]]:
        return self._tag_sentences(self._layer().dep_relations)


def _as_instance(obj: Instance | Document) -> Instance:
    return obj if isinstance(obj, Instance) else Instance(doc=obj)


# ---------------------------------------------------------------------------
# Extraction (raw counts per block)
# ---------------------------------------------------------------------------


def extract_token_lengths(instance: Instance | Document) -> BlockCounts:
    """Counts of word-token character lengths."""
    inst = _as_instance(instance)
    return dict(Counter(len(w) for w in inst.word_surfaces()))


def extract_function_words(
    instance: Instance | Document, function_words: Sequence[str]
) -> BlockCounts:
    """Counts of listed words only; unlisted words are ignored."""
    if not function_words:
        raise FeatureError("function-word list is empty")
    inst = _as_instance(instance)
    listed = set(function_words)
    counts = Counter(w for w in inst.word_surfaces() if w in listed)
    return dict(counts)


def extract_sentence_lengths(instance: Instance | Document) -> BlockCounts:
    """Counts of sentence lengths, measured in characters of collapsed text."""
    inst = _as_instance(instance)
    counts: Counter[int] = Counter()
    for s, e in inst.sentences():
        counts[len(inst.span_text(s, e))] += 1
    return dict(counts)


def _char_ngram_counts(text: str, orders: Iterable[int]) -> BlockCounts:
    """Counts of every order's n-grams, in order of first occurrence, orders ascending.

    The grams of order n are text[i] + ... + text[i+n-1], joined by
    ``map`` over n shifted slices, so ``Counter.update`` counts them in C.
    """
    counts: Counter[str] = Counter()
    for n in sorted(set(orders)):
        grams: Iterable[str] = text
        for shift in range(1, n):
            grams = map(operator.add, grams, text[shift:])
        counts.update(grams)
    return dict(counts)


def extract_char_ngrams(instance: Instance | Document, orders: Iterable[int]) -> BlockCounts:
    """Character n-gram counts over whitespace-collapsed text."""
    inst = _as_instance(instance)
    return _char_ngram_counts(inst.text(), orders)


def _tag_ngram_counts(sentences: list[list[str]], orders: Iterable[int]) -> BlockCounts:
    counts: Counter[str] = Counter()
    for n in sorted(set(orders)):
        for sent in sentences:
            for i in range(len(sent) - n + 1):
                counts[" ".join(sent[i : i + n])] += 1
    return dict(counts)


def extract_pos_ngrams(instance: Instance | Document, orders: Iterable[int]) -> BlockCounts:
    """POS-tag n-gram counts; n-grams never cross sentence boundaries."""
    inst = _as_instance(instance)
    return _tag_ngram_counts(inst.pos_sentences(), orders)


def extract_dep_ngrams(instance: Instance | Document, orders: Iterable[int]) -> BlockCounts:
    """Dependency-relation n-gram counts; same sentence rule as POS n-grams."""
    inst = _as_instance(instance)
    return _tag_ngram_counts(inst.dep_sentences(), orders)


def extract_verbal_endings(
    instance: Instance | Document, endings: Sequence[str]
) -> BlockCounts:
    """Longest listed suffix per word token; a token contributes at most once."""
    if not endings:
        raise FeatureError("verbal-ending list is empty")
    inst = _as_instance(instance)
    by_length = sorted(set(endings), key=len, reverse=True)
    counts: Counter[str] = Counter()
    for word in inst.word_surfaces():
        for ending in by_length:
            if word.endswith(ending):
                counts[ending] += 1
                break
    return dict(counts)


def _mask_word(word: str, variant: FeatureBlock) -> str:
    if variant is FeatureBlock.MASKED_DVMA:
        return MASK_CHAR * len(word)
    # dvex: exterior characters survive
    if len(word) <= 2:
        return word
    return word[0] + MASK_CHAR * (len(word) - 2) + word[-1]


def distorted_text(
    instance: Instance | Document,
    variant: FeatureBlock,
    function_words: Sequence[str],
) -> str:
    """Instance text with every non-function word masked."""
    if variant not in (FeatureBlock.MASKED_DVMA, FeatureBlock.MASKED_DVEX):
        raise FeatureError(f"invalid masking variant: {variant!r}")
    if not function_words:
        raise FeatureError("masked blocks require a function-word list")
    inst = _as_instance(instance)
    return _distorted_span(inst.doc, *inst.token_range, variant, set(function_words))


def _distorted_span(
    doc: Document, token_start: int, token_end: int, variant: FeatureBlock, listed: set[str]
) -> str:
    """Whitespace-collapsed text of a token range with its unlisted words masked."""
    toks = doc.tokens[token_start:token_end]
    if not toks:
        return ""
    pieces: list[str] = []
    cursor = toks[0].start
    for tok in toks:
        pieces.append(doc.normalized_text[cursor : tok.start])
        if tok.kind == WORD and tok.surface not in listed:
            pieces.append(_mask_word(tok.surface, variant))
        else:
            pieces.append(tok.surface)
        cursor = tok.end
    return collapse_whitespace("".join(pieces))


def extract_masked_ngrams(
    instance: Instance | Document,
    variant: FeatureBlock,
    function_words: Sequence[str],
    orders: Iterable[int],
) -> BlockCounts:
    """Character n-gram counts over masked (distorted) text."""
    return _char_ngram_counts(distorted_text(instance, variant, function_words), orders)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_DEFAULT_ORDERS = frozenset({1, 2, 3})


@dataclass
class FeatureConfig:
    """Which blocks to extract and the resources they need."""

    enabled_blocks: frozenset[FeatureBlock]
    ngram_orders: dict[FeatureBlock, frozenset[int]] = field(default_factory=dict)
    function_words: tuple[str, ...] = ()
    verbal_endings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.enabled_blocks = frozenset(FeatureBlock(b) for b in self.enabled_blocks)
        if not self.enabled_blocks:
            raise FeatureError("at least one feature block must be enabled")
        orders = {FeatureBlock(k): frozenset(v) for k, v in self.ngram_orders.items()}
        without = sorted(b.value for b in orders.keys() - NGRAM_BLOCKS)
        if without:
            raise FeatureError(f"ngram orders given for blocks without n-grams: {without}")
        for block in NGRAM_BLOCKS & self.enabled_blocks:
            block_orders = orders.get(block, _DEFAULT_ORDERS)
            if not block_orders:
                raise FeatureError(f"{block.value}: ngram order set must be nonempty")
            bad = [n for n in block_orders if not (1 <= n <= MAX_NGRAM_ORDER)]
            if bad:
                raise FeatureError(
                    f"{block.value}: unsupported n-gram orders {sorted(bad)} "
                    f"(only 1..{MAX_NGRAM_ORDER} are supported)"
                )
            orders[block] = block_orders
        self.ngram_orders = orders
        # duplicates would give a list block two columns for one key
        self.function_words = tuple(dict.fromkeys(self.function_words))
        self.verbal_endings = tuple(dict.fromkeys(self.verbal_endings))
        if FUNCTION_WORD_BLOCKS & self.enabled_blocks and not self.function_words:
            raise FeatureError("enabled blocks require a nonempty function-word list")
        if FeatureBlock.VERBAL_ENDINGS in self.enabled_blocks and not self.verbal_endings:
            raise FeatureError("verbal_endings block requires a nonempty ending list")

    def orders_for(self, block: FeatureBlock) -> frozenset[int]:
        return self.ngram_orders.get(block, _DEFAULT_ORDERS)

    def blocks_in_order(self) -> tuple[FeatureBlock, ...]:
        return tuple(b for b in BLOCK_ORDER if b in self.enabled_blocks)

    def restricted_to(self, blocks: Iterable[FeatureBlock]) -> "FeatureConfig":
        """Copy of this config with only the given blocks enabled."""
        return FeatureConfig(
            enabled_blocks=frozenset(blocks),
            ngram_orders=dict(self.ngram_orders),
            function_words=self.function_words,
            verbal_endings=self.verbal_endings,
        )


def extract_block(
    instance: Instance | Document, block: FeatureBlock, config: FeatureConfig
) -> BlockCounts:
    """Raw counts for one enabled block of one instance."""
    if block is FeatureBlock.TOKEN_LENGTHS:
        return extract_token_lengths(instance)
    if block is FeatureBlock.FUNCTION_WORDS:
        return extract_function_words(instance, config.function_words)
    if block is FeatureBlock.SENTENCE_LENGTHS:
        return extract_sentence_lengths(instance)
    if block is FeatureBlock.POS_NGRAMS:
        return extract_pos_ngrams(instance, config.orders_for(block))
    if block is FeatureBlock.CHAR_NGRAMS:
        return extract_char_ngrams(instance, config.orders_for(block))
    if block is FeatureBlock.DEP_NGRAMS:
        return extract_dep_ngrams(instance, config.orders_for(block))
    if block is FeatureBlock.VERBAL_ENDINGS:
        return extract_verbal_endings(instance, config.verbal_endings)
    if block in (FeatureBlock.MASKED_DVMA, FeatureBlock.MASKED_DVEX):
        return extract_masked_ngrams(
            instance, block, config.function_words, config.orders_for(block)
        )
    raise FeatureError(f"unknown feature block: {block!r}")  # pragma: no cover


def extraction_params(config: FeatureConfig, block: FeatureBlock) -> tuple:
    """Everything ``extract_block`` reads from ``config`` for ``block``."""
    return (
        config.orders_for(block) if block in NGRAM_BLOCKS else None,
        config.function_words if block in FUNCTION_WORD_BLOCKS else None,
        config.verbal_endings if block is FeatureBlock.VERBAL_ENDINGS else None,
    )


def extract_all(
    instance: Instance | Document, config: FeatureConfig
) -> dict[FeatureBlock, BlockCounts]:
    """Raw counts for every enabled block."""
    inst = _as_instance(instance)
    return {b: extract_block(inst, b, config) for b in config.blocks_in_order()}


# Character-gram blocks: their grams may cross a segment junction.
CHARACTER_BLOCKS = (FeatureBlock.CHAR_NGRAMS, FeatureBlock.MASKED_DVMA, FeatureBlock.MASKED_DVEX)


def counts_from_segments(
    doc: Document,
    segments: Iterable[tuple[tuple[int, int], Mapping[FeatureBlock, BlockCounts]]],
    config: FeatureConfig,
) -> dict[FeatureBlock, BlockCounts] | None:
    """``extract_all`` of ``doc`` in full, from (token range, counts) of its
    segments, or None when the segments do not tile it.

    Segments tile a text when their ranges, sorted, cover its tokens
    without gaps or overlaps and meet at sentence boundaries, so every
    token and sentence falls in one segment and each block's counts are
    the segments' sums. Character grams that cross a junction are the
    exception. Only whitespace separates two tokens, and the text
    collapses it to one space, so the order-n grams crossing a junction
    are those of ``left[-(n-1):] + gap + right[:n-1]``, where ``gap`` is
    " " or "" (for n = 1 the gap alone, since ``s[-0:]`` is all of ``s``).
    A segment shorter than the longest order minus one could let a gram
    span two junctions, so such segments give None as well.
    """
    ranges = sorted(segments, key=lambda item: item[0])
    bounds = [token_range for token_range, _ in ranges]
    sentence_starts = {start for start, _ in doc.sentences}
    if (
        not bounds
        or bounds[0][0] != 0
        or bounds[-1][1] != len(doc.tokens)
        or any(a >= b for a, b in bounds)
        or any(b != a for (_, b), (a, _) in zip(bounds, bounds[1:]))
        or not sentence_starts.issuperset(a for a, _ in bounds)
    ):
        return None
    character = [b for b in CHARACTER_BLOCKS if b in config.enabled_blocks]
    k = max((max(config.orders_for(b)) for b in character), default=1) - 1
    whole = Instance(doc=doc)
    # a masked text is as long as the text itself
    if any(b - a < k and len(whole.span_text(a, b)) < k for a, b in bounds):
        return None
    listed = set(config.function_words)

    def render(block: FeatureBlock, a: int, b: int) -> str:
        if block is FeatureBlock.CHAR_NGRAMS:
            return whole.span_text(a, b)
        return _distorted_span(doc, a, b, block, listed)

    summed: dict[FeatureBlock, BlockCounts] = {}
    for block in config.blocks_in_order():
        total: Counter[FeatureKey] = Counter()
        for _, counts in ranges:
            total.update(counts[block])
        if block in character:
            for (a, j), (_, b) in zip(bounds, bounds[1:]):
                left, right = render(block, max(a, j - k), j), render(block, j, min(b, j + k))
                gap = " " if doc.tokens[j - 1].end < doc.tokens[j].start else ""
                for n in config.orders_for(block):
                    window = gap if n == 1 else left[-(n - 1) :] + gap + right[: n - 1]
                    total.update(_char_ngram_counts(window, (n,)))
        summed[block] = dict(total)
    return summed


# ---------------------------------------------------------------------------
# Counts store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreCounts:
    """A store's counts as one matrix: its blocks' columns side by side."""

    keys: np.ndarray  # object array: each block's keys, sorted, in block order
    counts: sp.csr_matrix  # one row per store row, one column per key
    columns: dict[FeatureBlock, tuple[int, int]]  # (start, end) columns of each block
    totals: np.ndarray  # raw count total of each row in each block, in block order


class CountsStore:
    """Raw feature counts as one sparse matrix: one row per added instance.

    Each block's keys are interned once (list blocks start with their whole
    list). ``counts`` puts the config's blocks side by side in
    ``blocks_in_order()``, each block's columns in key order, an order any
    column subset keeps, and holds each row's count total per block. The
    store is not thread-safe while it grows.
    """

    def __init__(self, config: FeatureConfig):
        self.config = config
        self.n_rows = 0
        lists = {FeatureBlock.FUNCTION_WORDS: config.function_words,
                 FeatureBlock.VERBAL_ENDINGS: config.verbal_endings}
        self._index = {
            b: {w: i for i, w in enumerate(lists.get(b, ()))} for b in config.blocks_in_order()
        }
        self._rows: list[np.ndarray] = []  # per row, shape (2, n): interned column, count
        self._sizes: list[list[int]] = []  # per row, its entries in each block
        self._totals: list[list[int]] = []  # per row, its count total in each block
        self._counts: StoreCounts | None = None

    def add(self, counts: Mapping[FeatureBlock, BlockCounts]) -> int:
        """Append one instance's counts as a new row; returns its row index."""
        cols: list[int] = []
        values: list[int] = []
        sizes: list[int] = []
        totals: list[int] = []
        for block, index in self._index.items():
            block_counts = counts.get(block, {})
            cols += [index.setdefault(key, len(index)) for key in block_counts]
            values += block_counts.values()
            sizes.append(len(block_counts))
            totals.append(sum(block_counts.values()))
        self._rows.append(np.array([cols, values], dtype=np.int64).reshape(2, -1))
        self._sizes.append(sizes)
        self._totals.append(totals)
        self._counts = None
        self.n_rows += 1
        return self.n_rows - 1

    def counts(self) -> StoreCounts:
        """Every row's counts, built on the first call after a row was added."""
        built = self._counts
        if built is None:
            keys = [sorted(index) for index in self._index.values()]  # a block's keys share a type
            ends = list(accumulate(map(len, keys)))
            starts = [0, *ends[:-1]]
            # block start + interned column -> store column
            position = np.empty(ends[-1], dtype=np.int64)
            for start, block_keys, index in zip(starts, keys, self._index.values()):
                position[[start + index[key] for key in block_keys]] = np.arange(
                    start, start + len(block_keys)
                )
            cols, data = np.concatenate([np.empty((2, 0), dtype=np.int64), *self._rows], axis=1)
            sizes = np.array(self._sizes, dtype=np.int64).reshape(self.n_rows, len(keys))
            indptr = np.concatenate(([0], np.cumsum(sizes.sum(axis=1))))
            columns = position[np.repeat(np.tile(starts, self.n_rows), sizes.ravel()) + cols]
            matrix = sp.csr_matrix((data, columns, indptr), shape=(self.n_rows, position.shape[0]))
            matrix.sort_indices()
            built = self._counts = StoreCounts(
                keys=np.array([key for block_keys in keys for key in block_keys], dtype=object),
                counts=matrix,
                columns=dict(zip(self._index, zip(starts, ends))),
                totals=np.array(self._totals, dtype=np.int64).reshape(self.n_rows, len(keys)),
            )
        return built


# ---------------------------------------------------------------------------
# Feature space
# ---------------------------------------------------------------------------


@dataclass
class FeatureSpace:
    """Fitted vocabulary and IDF statistics, learned from training data only."""

    config: FeatureConfig
    n_instances: int
    vocab: dict[FeatureBlock, dict[FeatureKey, int]]  # key -> column within its block
    df: np.ndarray
    idf: np.ndarray
    # (block, start, end) columns of each block, side by side in vocab order
    block_offsets: tuple[tuple[FeatureBlock, int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        ends = list(accumulate(len(mapping) for mapping in self.vocab.values()))
        self.block_offsets = tuple(zip(self.vocab, [0, *ends], ends))

    @property
    def dim(self) -> int:
        return int(self.df.shape[0])

    def column_names(self) -> list[str]:
        return [f"{block.value}:{key}" for block, mapping in self.vocab.items() for key in mapping]

    def restricted_to(self, blocks: Iterable[FeatureBlock]) -> tuple["FeatureSpace", np.ndarray]:
        """The space a fit on the same rows over only ``blocks`` gives, and its columns here.

        A block's keys, df and IDF depend only on the training rows, so the
        restricted space equals a direct fit and shares this space's block
        vocabularies, and the given columns of a vectorized row are its row
        in the restricted space.
        """
        wanted = set(blocks)
        if not wanted <= self.config.enabled_blocks:
            extra = sorted(b.value for b in wanted - self.config.enabled_blocks)
            raise FeatureError(f"blocks {extra} not in this space")
        if wanted == self.config.enabled_blocks:
            return self, np.arange(self.dim)
        config = self.config.restricted_to(wanted)  # rejects an empty pool
        kept = [(b, start, end) for b, start, end in self.block_offsets if b in wanted]
        columns = np.concatenate([np.arange(start, end) for _, start, end in kept])
        vocab = {b: self.vocab[b] for b, _, _ in kept}
        space = FeatureSpace(config, self.n_instances, vocab, self.df[columns], self.idf[columns])
        return space, columns


def fit_feature_space_from_counts(
    store: CountsStore, rows: Sequence[int], config: FeatureConfig
) -> FeatureSpace:
    """Fit vocabulary, df and IDF on a store's ``rows``: each block of
    ``config`` keeps its columns with nonzero df (list blocks keep all), in
    sorted key order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] == 0:
        raise FeatureError("cannot fit a feature space on an empty training set")
    stored = store.counts()
    df = np.bincount(stored.counts[rows].indices, minlength=stored.keys.shape[0])
    vocab: dict[FeatureBlock, dict[FeatureKey, int]] = {}
    kept: list[np.ndarray] = []
    for block in config.blocks_in_order():
        start, end = stored.columns[block]
        columns = np.arange(start, end)
        if block not in LIST_BLOCKS:
            columns = columns[df[start:end] > 0]
        vocab[block] = {key: col for col, key in enumerate(stored.keys[columns].tolist())}
        kept.append(columns)
    n = int(rows.shape[0])
    df = df[np.concatenate(kept)]
    return FeatureSpace(config, n, vocab, df, np.log((1.0 + n) / (1.0 + df)) + 1.0)


def fit_feature_space(
    instances: Sequence[Instance | Document], config: FeatureConfig
) -> FeatureSpace:
    """Fit a feature space directly from training instances."""
    store = CountsStore(config)
    rows = [store.add(extract_all(inst, config)) for inst in instances]
    return fit_feature_space_from_counts(store, rows, config)


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def vectorize_counts(
    store: CountsStore, rows: Sequence[int], space: FeatureSpace
) -> tuple[sp.csr_matrix, np.ndarray]:
    """TFIDF matrix of a store's ``rows`` over ``space``, and their block totals.

    TF divides by the block's whole count, features unseen in training
    included, and each block of each row is L2-normalized. The block
    totals are those raw counts: one row per store row, one column per
    entry of ``space.block_offsets``. Each row's columns ascend and its
    values are positive.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = int(rows.shape[0])
    stored = store.counts()
    counts = stored.counts[rows]
    # store column -> space column, -1 where the space has none; int32, the
    # CSR index type, so that the matrix takes its indices uncopied
    column = np.full(stored.keys.shape[0], -1, dtype=np.int32)
    block_of = np.empty(space.dim, dtype=np.int64)  # space column -> its block's position
    position_of = {block: i for i, block in enumerate(stored.columns)}
    positions = []
    for i, (block, start, end) in enumerate(space.block_offsets):
        store_start, store_end = stored.columns[block]
        mapping = space.vocab[block]
        keys = stored.keys[store_start:store_end].tolist()
        cols = np.fromiter(map(mapping.get, keys, repeat(-1)), dtype=np.int32, count=len(keys))
        column[store_start:store_end] = np.where(cols >= 0, cols + start, -1)
        block_of[start:end] = i
        positions.append(position_of[block])
    block_totals = stored.totals[rows][:, positions]
    # Store and space both order a row's columns by block, then by key,
    # so the kept entries of each row ascend in space columns as they are.
    cols = column[counts.indices]
    kept = cols >= 0
    row_of = np.repeat(np.arange(n), np.diff(counts.indptr))[kept]
    cols = cols[kept]
    cell = row_of * len(positions) + block_of[cols]  # (row, block) of each entry
    values = counts.data[kept] / block_totals.ravel()[cell] * space.idf[cols]
    values /= np.sqrt(np.bincount(cell, weights=values * values, minlength=block_totals.size))[cell]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n))))
    X = sp.csr_matrix((values, cols, indptr), shape=(n, space.dim))
    return X, block_totals


def vectorize(
    instances: Sequence[Instance | Document], space: FeatureSpace
) -> tuple[sp.csr_matrix, np.ndarray]:
    """TFIDF matrix and block totals of ``instances``, as ``vectorize_counts``
    gives them, from a one-off store.
    """
    store = CountsStore(space.config)
    rows = [store.add(extract_all(inst, space.config)) for inst in instances]
    return vectorize_counts(store, rows, space)


def cosine_similarity(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    """Cosine of the angle between two one-row CSR matrices (0.0 if either is zero)."""
    if a.shape[0] != 1 or b.shape != a.shape:
        raise FeatureError(f"expected two one-row matrices of one width: {a.shape}, {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return 0.0
    dense = np.zeros(a.shape[1], dtype=np.float64)
    dense[a.indices] = a.data
    dot = float(np.dot(dense[b.indices], b.data))
    na = float(np.sqrt(np.dot(a.data, a.data)))
    nb = float(np.sqrt(np.dot(b.data, b.data)))
    return dot / (na * nb)
