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

A FeatureSpace is fitted on training instances only: its vocabulary is
the union of features seen in training (plus every entry of list-backed
blocks), and IDF uses the smoothed form ln((1+N)/(1+df)) + 1 so that it
is always finite and positive. Vectorization computes within-block
relative frequencies, multiplies by IDF, and L2-normalizes each block
sub-vector independently so blocks of wildly different dimensionality
contribute comparable mass.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
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

# Blocks whose keys are integers (everything else uses string keys).
_INT_KEY_BLOCKS = frozenset({FeatureBlock.TOKEN_LENGTHS, FeatureBlock.SENTENCE_LENGTHS})

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
    counts: Counter[str] = Counter()
    for n in sorted(set(orders)):
        for i in range(len(text) - n + 1):
            counts[text[i : i + n]] += 1
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
        self.function_words = tuple(self.function_words)
        self.verbal_endings = tuple(self.verbal_endings)
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
# Feature space
# ---------------------------------------------------------------------------


@dataclass
class FeatureSpace:
    """Fitted vocabulary and IDF statistics, learned from training data only."""

    config: FeatureConfig
    n_instances: int
    vocab: dict[FeatureBlock, dict[FeatureKey, int]]  # key -> global column
    df: np.ndarray
    idf: np.ndarray
    block_offsets: tuple[tuple[FeatureBlock, int, int], ...]
    _fingerprint: str | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return int(self.df.shape[0])

    def block_range(self, block: FeatureBlock) -> tuple[int, int]:
        for b, start, end in self.block_offsets:
            if b is block:
                return (start, end)
        raise FeatureError(f"block {block.value} not in this space")

    def column_names(self) -> list[str]:
        names = [""] * self.dim
        for block, mapping in self.vocab.items():
            for key, col in mapping.items():
                names[col] = f"{block.value}:{key}"
        return names

    def _rows(self) -> list[str]:
        rows = []
        for block, _start, _end in self.block_offsets:
            mapping = self.vocab[block]
            for key in sorted(mapping, key=mapping.__getitem__):
                col = mapping[key]
                rows.append(
                    f"{block.value}\t{key}\t{int(self.df[col])}\t{float(self.idf[col])!r}"
                )
        return rows

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(f"n={self.n_instances}\n".encode("ascii"))
            for row in self._rows():
                h.update(row.encode("utf-8"))
                h.update(b"\n")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def save(self, path: Path | str) -> None:
        """Write a versioned audit file: one (block, feature, df, idf) row each."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("#stylauth-feature-space\tv1\n")
            fh.write(f"#instances\t{self.n_instances}\n")
            for block, start, end in self.block_offsets:
                fh.write(f"#block\t{block.value}\t{end - start}\n")
            for row in self._rows():
                fh.write(row + "\n")

    @classmethod
    def load(cls, path: Path | str, config: FeatureConfig) -> "FeatureSpace":
        path = Path(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("#stylauth-feature-space"):
            raise FeatureError(f"{path}: not a feature-space file")
        n_instances = 0
        entries: list[tuple[FeatureBlock, FeatureKey, int, float]] = []
        for line in lines[1:]:
            if line.startswith("#instances\t"):
                n_instances = int(line.split("\t")[1])
                continue
            if line.startswith("#") or not line:
                continue
            block_s, key_s, df_s, idf_s = line.split("\t")
            block = FeatureBlock(block_s)
            key: FeatureKey = int(key_s) if block in _INT_KEY_BLOCKS else key_s
            entries.append((block, key, int(df_s), float(idf_s)))
        vocab: dict[FeatureBlock, dict[FeatureKey, int]] = {}
        df = np.zeros(len(entries), dtype=np.int64)
        idf = np.zeros(len(entries), dtype=np.float64)
        offsets: list[tuple[FeatureBlock, int, int]] = []
        col = 0
        for block, key, df_v, idf_v in entries:
            if block not in vocab:
                if offsets:
                    prev_block, prev_start, _ = offsets[-1]
                    offsets[-1] = (prev_block, prev_start, col)
                vocab[block] = {}
                offsets.append((block, col, col))
            vocab[block][key] = col
            df[col] = df_v
            idf[col] = idf_v
            col += 1
        if offsets:
            prev_block, prev_start, _ = offsets[-1]
            offsets[-1] = (prev_block, prev_start, col)
        return cls(
            config=config,
            n_instances=n_instances,
            vocab=vocab,
            df=df,
            idf=idf,
            block_offsets=tuple(offsets),
        )


def _sort_keys(keys: Iterable[FeatureKey]) -> list[FeatureKey]:
    return sorted(keys)  # keys of one block share a type


def fit_feature_space_from_counts(
    counts_list: Sequence[Mapping[FeatureBlock, BlockCounts]],
    config: FeatureConfig,
) -> FeatureSpace:
    """Fit vocabulary, document frequencies, and IDF from precomputed counts."""
    if not counts_list:
        raise FeatureError("cannot fit a feature space on an empty training set")
    n = len(counts_list)
    blocks = config.blocks_in_order()

    vocab: dict[FeatureBlock, dict[FeatureKey, int]] = {}
    df_per_block: dict[FeatureBlock, dict[FeatureKey, int]] = {b: {} for b in blocks}
    for counts in counts_list:
        for block in blocks:
            block_df = df_per_block[block]
            for key, cnt in counts.get(block, {}).items():
                if cnt > 0:
                    block_df[key] = block_df.get(key, 0) + 1

    offsets: list[tuple[FeatureBlock, int, int]] = []
    col = 0
    df_values: list[int] = []
    for block in blocks:
        if block is FeatureBlock.FUNCTION_WORDS:
            keys: list[FeatureKey] = _sort_keys(config.function_words)
        elif block is FeatureBlock.VERBAL_ENDINGS:
            keys = _sort_keys(config.verbal_endings)
        else:
            keys = _sort_keys(df_per_block[block])
        mapping = {}
        start = col
        for key in keys:
            mapping[key] = col
            df_values.append(df_per_block[block].get(key, 0))
            col += 1
        vocab[block] = mapping
        offsets.append((block, start, col))

    df = np.asarray(df_values, dtype=np.int64)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    return FeatureSpace(
        config=config,
        n_instances=n,
        vocab=vocab,
        df=df,
        idf=idf,
        block_offsets=tuple(offsets),
    )


def fit_feature_space(
    instances: Sequence[Instance | Document], config: FeatureConfig
) -> FeatureSpace:
    """Fit a feature space directly from training instances."""
    counts_list = [extract_all(inst, config) for inst in instances]
    return fit_feature_space_from_counts(counts_list, config)


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


@dataclass
class SparseVector:
    """TFIDF representation of one instance over a fitted space.

    ``occurrence_count`` is the total number of raw feature occurrences
    the extractors saw (including features outside the vocabulary); it
    later sizes the latent sampling budget during oversampling.
    """

    instance_id: str
    indices: np.ndarray  # strictly increasing int64 columns
    values: np.ndarray  # float64, no explicit zeros
    dim: int
    block_offsets: tuple[tuple[FeatureBlock, int, int], ...]
    space_fingerprint: str
    occurrence_count: int

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def is_zero(self) -> bool:
        return self.nnz == 0

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim, dtype=np.float64)
        dense[self.indices] = self.values
        return dense


def vectorize_counts(
    instance_id: str,
    counts: Mapping[FeatureBlock, BlockCounts],
    space: FeatureSpace,
) -> SparseVector:
    """TFIDF-weight and block-normalize precomputed raw counts."""
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []
    occurrences = 0
    for block, _start, _end in space.block_offsets:
        block_counts = counts.get(block, {})
        total = sum(block_counts.values())
        occurrences += total
        if total <= 0:
            continue
        mapping = space.vocab[block]
        cols: list[int] = []
        vals: list[float] = []
        for key, cnt in block_counts.items():
            col = mapping.get(key)
            if col is None or cnt <= 0:  # features unseen in training are dropped
                continue
            tf = cnt / total
            vals.append(tf * space.idf[col])
            cols.append(col)
        if not cols:
            continue
        order = np.argsort(cols)
        col_arr = np.asarray(cols, dtype=np.int64)[order]
        val_arr = np.asarray(vals, dtype=np.float64)[order]
        norm = np.sqrt(np.sum(val_arr * val_arr))
        if norm > 0:
            val_arr = val_arr / norm
        indices.append(col_arr)
        values.append(val_arr)
    if indices:
        idx = np.concatenate(indices)
        val = np.concatenate(values)
    else:
        idx = np.empty(0, dtype=np.int64)
        val = np.empty(0, dtype=np.float64)
    return SparseVector(
        instance_id=instance_id,
        indices=idx,
        values=val,
        dim=space.dim,
        block_offsets=space.block_offsets,
        space_fingerprint=space.fingerprint(),
        occurrence_count=occurrences,
    )


def vectorize(instance: Instance | Document, space: FeatureSpace) -> SparseVector:
    """Extract and TFIDF-weight one instance against a fitted space."""
    inst = _as_instance(instance)
    counts = extract_all(inst, space.config)
    return vectorize_counts(inst.instance_id, counts, space)


def vectors_to_csr(vectors: Sequence[SparseVector], dim: int | None = None) -> sp.csr_matrix:
    """Stack sparse vectors into a CSR matrix, one row per vector."""
    if not vectors:
        raise FeatureError("cannot build a matrix from zero vectors")
    d = dim if dim is not None else vectors[0].dim
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        if v.dim != d:
            raise FeatureError(
                f"vector {v.instance_id!r} has dim {v.dim}, expected {d}"
            )
        indptr[i + 1] = indptr[i] + v.nnz
    data = np.concatenate([v.values for v in vectors]) if vectors else np.empty(0)
    cols = np.concatenate([v.indices for v in vectors]) if vectors else np.empty(0)
    return sp.csr_matrix((data, cols, indptr), shape=(len(vectors), d))


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine of the angle between two sparse vectors (0.0 if either is zero)."""
    if a.dim != b.dim:
        raise FeatureError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_zero() or b.is_zero():
        return 0.0
    dense = np.zeros(a.dim, dtype=np.float64)
    dense[a.indices] = a.values
    dot = float(np.dot(dense[b.indices], b.values))
    na = float(np.sqrt(np.dot(a.values, a.values)))
    nb = float(np.sqrt(np.dot(b.values, b.values)))
    return dot / (na * nb)
