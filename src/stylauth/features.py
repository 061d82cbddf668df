"""Stylometric feature extraction and TFIDF vectorization.

Eight feature blocks are supported, all topic-agnostic by design:

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

Raw counts live in a CountsStore: one sparse count matrix per block, one
row per instance. A FeatureSpace is fitted on training rows only: each
block's vocabulary is the store columns seen in training (plus every entry
of list-backed blocks), in sorted key order, and maps a key to its column
within the block, so a space restricted to some blocks shares their
vocabularies. IDF uses the smoothed form ln((1+N)/(1+df)) + 1 so that it
is always finite and positive. Vectorization computes within-block
relative frequencies, multiplies by IDF, and L2-normalizes each block
sub-vector independently so blocks of wildly different dimensionality
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
from itertools import accumulate
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
    listed = set(function_words)
    doc = inst.doc
    a, b = inst.token_range
    toks = doc.tokens[a:b]
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


# ---------------------------------------------------------------------------
# Counts store
# ---------------------------------------------------------------------------


class CountsStore:
    """Raw feature counts as sparse matrices: one row per added instance.

    Each block's keys are interned once (list blocks start with their whole
    list). ``block`` orders a block's columns by key, an order any column
    subset keeps. The store is not thread-safe while it grows.
    """

    def __init__(self, config: FeatureConfig):
        self.config = config
        self.n_rows = 0
        blocks = config.blocks_in_order()
        lists = {FeatureBlock.FUNCTION_WORDS: config.function_words,
                 FeatureBlock.VERBAL_ENDINGS: config.verbal_endings}
        self._index = {b: {w: i for i, w in enumerate(lists.get(b, ()))} for b in blocks}
        self._rows: dict[FeatureBlock, list[np.ndarray]] = {b: [] for b in blocks}
        self._blocks: dict[FeatureBlock, tuple[np.ndarray, sp.csr_matrix]] = {}

    def add(self, counts: Mapping[FeatureBlock, BlockCounts]) -> int:
        """Append one instance's counts as a new row; returns its row index."""
        for block, index in self._index.items():
            block_counts = counts.get(block, {})
            cols = [index.setdefault(key, len(index)) for key in block_counts]
            pairs = np.array([cols, list(block_counts.values())], dtype=np.int64)
            self._rows[block].append(pairs)  # shape (2, n): columns, counts
        self._blocks.clear()
        self.n_rows += 1
        return self.n_rows - 1

    def block(self, block: FeatureBlock) -> tuple[np.ndarray, sp.csr_matrix]:
        """(keys in sorted order, counts with one column per key in that order)."""
        cached = self._blocks.get(block)
        if cached is None:
            index, rows = self._index[block], self._rows[block]
            keys = sorted(index)  # keys of one block share a type
            position = np.empty(len(keys), dtype=np.int64)
            position[[index[key] for key in keys]] = np.arange(len(keys))
            cols, data = np.concatenate([np.empty((2, 0), dtype=np.int64), *rows], axis=1)
            indptr = np.cumsum([0] + [row.shape[1] for row in rows])
            counts = sp.csr_matrix(
                (data, position[cols], indptr), shape=(self.n_rows, len(keys))
            )
            counts.sort_indices()
            cached = self._blocks[block] = (np.array(keys, dtype=object), counts)
        return cached


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
    """Fit vocabulary, df and IDF on a store's ``rows``: each block keeps its
    columns with nonzero df (list blocks keep all), in sorted key order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] == 0:
        raise FeatureError("cannot fit a feature space on an empty training set")
    vocab: dict[FeatureBlock, dict[FeatureKey, int]] = {}
    dfs: list[np.ndarray] = []
    for block in config.blocks_in_order():
        block_keys, counts = store.block(block)
        df = np.bincount(counts[rows].indices, minlength=block_keys.shape[0])
        kept = np.arange(df.shape[0]) if block in LIST_BLOCKS else np.flatnonzero(df)
        vocab[block] = {key: col for col, key in enumerate(block_keys[kept].tolist())}
        dfs.append(df[kept])
    n = int(rows.shape[0])
    df = np.concatenate(dfs)
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
    row_parts, col_parts, value_parts, block_totals = [], [], [], []
    for block, start, end in space.block_offsets:
        keys, counts = store.block(block)
        counts = counts[rows]
        mapping = space.vocab[block]
        # int32, the CSR index type, so that the matrix takes its indices uncopied
        column = np.array([mapping.get(k, -1) for k in keys.tolist()], dtype=np.int32)
        totals = np.asarray(counts.sum(axis=1), dtype=np.int64).ravel()
        block_totals.append(totals)
        row_of = np.repeat(np.arange(n), np.diff(counts.indptr))
        cols = column[counts.indices]
        kept = cols >= 0
        row_of, cols = row_of[kept], cols[kept]
        values = counts.data[kept] / totals[row_of] * space.idf[start:end][cols]
        values /= np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))[row_of]
        row_parts.append(row_of)
        col_parts.append(cols + start)
        value_parts.append(values)
    # Within a block a row's columns ascend, because the store and the
    # space both keep a block's keys in sorted order; blocks come in offset
    # order, so a stable sort by row gives every row ascending columns.
    row_of = np.concatenate(row_parts)
    order = np.argsort(row_of, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n))))
    X = sp.csr_matrix(
        (np.concatenate(value_parts)[order], np.concatenate(col_parts)[order], indptr),
        shape=(n, space.dim),
    )
    return X, np.column_stack(block_totals)


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
