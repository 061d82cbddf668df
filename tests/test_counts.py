"""Counts: full texts summed from their segments, and the store-wide counts matrix."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stylauth import pipeline
from stylauth.corpus import AnnotationLayer, Document, Segment, build_document, segment
from stylauth.features import (
    CHARACTER_BLOCKS,
    LIST_BLOCKS,
    CountsStore,
    FeatureBlock,
    FeatureConfig,
    FeatureSpace,
    Instance,
    counts_from_segments,
    extract_all,
    fit_feature_space_from_counts,
    vectorize_counts,
)
from stylauth.pipeline import CountsCache

from conftest import FUNCTION_WORDS, assert_same_space, synth_word, three_author_styles

ENDINGS = ("t", "nt", "us", "um", "a")
PUNCTUATION = (",", ";", ":", "«", "»", "(", ")", "1", "7")
TERMINATORS = (".", "!", "?")
# whitespace after a sentence, "" included, so that two segments may meet
# with or without a space between them
SEPARATORS = ("", " ", "  ", "\n", " \t\n ")


def styled_document(seed: int, doc_id: str = "doc") -> Document:
    """A random text in one of the planted styles, with an annotation layer."""
    rng = np.random.default_rng(seed)
    style = three_author_styles()[seed % 3]
    parts = [str(rng.choice(SEPARATORS))]
    for _ in range(int(rng.integers(2, 14))):
        items = []
        for _ in range(int(rng.integers(1, 9))):
            draw = rng.random()
            if draw < 0.2:
                items.append(FUNCTION_WORDS[int(rng.integers(0, len(FUNCTION_WORDS)))])
            elif draw < 0.3:
                items.append(str(rng.choice(PUNCTUATION)))
            else:
                items.append(synth_word(rng, style))
        joiners = rng.choice(["", " ", " ", " ", "\n"], size=len(items))
        sentence = "".join(j + item for j, item in zip(joiners, items)).lstrip()
        parts.append(sentence + str(rng.choice(TERMINATORS)) + str(rng.choice(SEPARATORS)))
    doc = build_document(doc_id, "Aldus", "Title", "".join(parts))
    words = doc.word_token_count
    pos = tuple(str(t) for t in rng.choice(["N", "V", "A", "C"], size=words))
    dep = tuple(str(t) for t in rng.choice(["subj", "obj", "root"], size=words))
    doc.annotations = AnnotationLayer(doc.id, "synthetic", pos, dep, frozenset(pos), frozenset(dep))
    return doc


def every_block(orders) -> FeatureConfig:
    """Every block, with ``orders`` for the character-gram blocks.

    The sum holds for any order, so orders above what a config accepts are
    set after it has validated.
    """
    config = FeatureConfig(
        enabled_blocks=set(FeatureBlock),
        function_words=FUNCTION_WORDS,
        verbal_endings=ENDINGS,
    )
    config.ngram_orders.update({block: frozenset(orders) for block in CHARACTER_BLOCKS})
    return config


def pieces(doc: Document, segments, config: FeatureConfig) -> list:
    return [(s.token_range, extract_all(Instance(doc, s), config)) for s in segments]


def row_counts(store: CountsStore, row: int) -> dict:
    """One store row as counts per block, as ``extract_all`` gives them."""
    stored = store.counts()
    counts = stored.counts[row]
    out = {}
    for block, (start, end) in stored.columns.items():
        kept = (counts.indices >= start) & (counts.indices < end)
        keys = stored.keys[counts.indices[kept]].tolist()
        out[block] = dict(zip(keys, counts.data[kept].tolist()))
    return out


ORDERS = [{1}, {2, 3}, {1, 2, 3, 4}]


class TestCountsFromSegments:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from(ORDERS))
    def test_sum_equals_extracting_the_full_text(self, seed, min_tokens, orders):
        doc = styled_document(seed)
        config = every_block(orders)
        segments = segment(doc, min_tokens)
        derived = counts_from_segments(doc, pieces(doc, segments, config), config)
        if any(len(Instance(doc, s).text()) < max(orders) - 1 for s in segments):
            assert derived is None
        else:
            assert derived == extract_all(Instance(doc), config)

    @pytest.mark.parametrize("orders, derived", [({1, 2, 3}, True), ({1, 2, 3, 4}, False)])
    def test_segment_shorter_than_the_longest_order_minus_one(self, orders, derived):
        doc = build_document("doc", "Aldus", "Title", "ab et. c. de fg hi.")
        config = every_block(orders)
        config.enabled_blocks -= {FeatureBlock.POS_NGRAMS, FeatureBlock.DEP_NGRAMS}
        segments = segment(doc, 1)
        assert [Instance(doc, s).text() for s in segments] == ["ab et.", "c.", "de fg hi."]
        summed = counts_from_segments(doc, pieces(doc, segments, config), config)
        assert (summed == extract_all(Instance(doc), config)) if derived else summed is None

    def test_segments_that_do_not_tile_the_text(self):
        doc = styled_document(4)
        config = every_block({1, 2, 3})
        segments = segment(doc, 12)
        assert len(segments) >= 3
        n = len(doc.tokens)
        inside = next(e for _, e in doc.sentences if 0 < e < n and e not in {
            s.token_range[0] for s in segments
        })
        not_tiling = {
            "a segment missing": segments[:1] + segments[2:],
            "the last segment missing": segments[:-1],
            "segments overlapping": [*segments, Segment(doc.id, 9, (0, inside), inside)],
            "a boundary inside a sentence": [
                Segment(doc.id, 0, (0, inside - 1), inside - 1),
                Segment(doc.id, 1, (inside - 1, n), n - inside + 1),
            ],
            "no segment": [],
        }
        for case, parts in not_tiling.items():
            assert counts_from_segments(doc, pieces(doc, parts, config), config) is None, case
        # a sentence boundary is enough, whatever the segmentation
        own = [Segment(doc.id, 0, (0, inside), inside), Segment(doc.id, 1, (inside, n), n - inside)]
        summed = counts_from_segments(doc, pieces(doc, own, config), config)
        assert summed == extract_all(Instance(doc), config)


class TestCacheDerivesFullTexts:
    CONFIG = every_block({1, 2, 3})

    def counting(self, monkeypatch) -> Counter:
        calls: Counter = Counter()
        real = pipeline.extract_all

        def extract_all_counted(instance, config):
            calls[instance.instance_id] += 1
            return real(instance, config)

        monkeypatch.setattr(pipeline, "extract_all", extract_all_counted)
        return calls

    def test_full_text_beside_its_segments_is_summed(self, monkeypatch):
        calls = self.counting(monkeypatch)
        docs = [styled_document(seed, f"d{seed}") for seed in (1, 2)]
        instances = pipeline.document_instances(docs, pipeline.SegmentationConfig(12))
        cache = CountsCache(self.CONFIG)
        rows = cache.rows(instances)
        assert set(calls) == {i.instance_id for i in instances if i.segment is not None}
        for instance, row in zip(instances, rows):
            assert row_counts(cache, row) == extract_all(instance, self.CONFIG)

    @pytest.mark.parametrize("kept", [slice(1, None), slice(None, -1), slice(0, 0)])
    def test_full_text_without_tiling_segments_is_extracted(self, monkeypatch, kept):
        calls = self.counting(monkeypatch)
        doc = styled_document(4)
        full = Instance(doc)
        segments = [Instance(doc, s) for s in segment(doc, 12)][kept]
        cache = CountsCache(self.CONFIG)
        rows = cache.rows([full, *segments])
        assert calls[doc.id] == 1
        assert row_counts(cache, rows[0]) == extract_all(full, self.CONFIG)

    def test_full_text_with_a_short_segment_is_extracted(self, monkeypatch):
        calls = self.counting(monkeypatch)
        doc = build_document("doc", "Aldus", "Title", "ab et. c. de fg hi.")
        config = FeatureConfig({FeatureBlock.CHAR_NGRAMS})
        config.ngram_orders[FeatureBlock.CHAR_NGRAMS] = frozenset({1, 2, 3, 4})
        cache = CountsCache(config)
        full = Instance(doc)
        rows = cache.rows([full, *(Instance(doc, s) for s in segment(doc, 1))])
        assert calls[doc.id] == 1
        assert row_counts(cache, rows[0]) == extract_all(full, config)

    def test_rows_are_keyed_by_document_and_token_range(self):
        doc = styled_document(5)
        cache = CountsCache(self.CONFIG)
        coarse, fine = segment(doc, 30), segment(doc, 8)
        assert coarse[0].instance_id == fine[0].instance_id
        assert coarse[0].token_range != fine[0].token_range
        rows = cache.rows([Instance(doc, coarse[0]), Instance(doc, fine[0])])
        assert rows[0] != rows[1]
        assert row_counts(cache, rows[1]) == extract_all(Instance(doc, fine[0]), self.CONFIG)
        # one text in full and a segment spanning all of it are one row
        whole = Segment(doc.id, 0, (0, len(doc.tokens)), len(doc.tokens))
        assert cache.rows([Instance(doc), Instance(doc, whole)]).tolist() == [cache.n_rows - 1] * 2


# ---------------------------------------------------------------------------
# The store-wide pass against the per-block one it replaced
# ---------------------------------------------------------------------------


class PerBlockStore:
    """The counts store as it was: one sparse matrix per block."""

    def __init__(self, config: FeatureConfig):
        self.config = config
        self.n_rows = 0
        blocks = config.blocks_in_order()
        lists = {FeatureBlock.FUNCTION_WORDS: config.function_words,
                 FeatureBlock.VERBAL_ENDINGS: config.verbal_endings}
        self._index = {b: {w: i for i, w in enumerate(lists.get(b, ()))} for b in blocks}
        self._rows: dict[FeatureBlock, list[np.ndarray]] = {b: [] for b in blocks}

    def add(self, counts) -> int:
        for block, index in self._index.items():
            block_counts = counts.get(block, {})
            cols = [index.setdefault(key, len(index)) for key in block_counts]
            self._rows[block].append(np.array([cols, list(block_counts.values())], dtype=np.int64))
        self.n_rows += 1
        return self.n_rows - 1

    def block(self, block: FeatureBlock) -> tuple[np.ndarray, sp.csr_matrix]:
        index, rows = self._index[block], self._rows[block]
        keys = sorted(index)
        position = np.empty(len(keys), dtype=np.int64)
        position[[index[key] for key in keys]] = np.arange(len(keys))
        cols, data = np.concatenate([np.empty((2, 0), dtype=np.int64), *rows], axis=1)
        indptr = np.cumsum([0] + [row.shape[1] for row in rows])
        counts = sp.csr_matrix((data, position[cols], indptr), shape=(self.n_rows, len(keys)))
        counts.sort_indices()
        return np.array(keys, dtype=object), counts


def per_block_fit(store: PerBlockStore, rows, config: FeatureConfig) -> FeatureSpace:
    rows = np.asarray(rows, dtype=np.int64)
    vocab, dfs = {}, []
    for block in config.blocks_in_order():
        block_keys, counts = store.block(block)
        df = np.bincount(counts[rows].indices, minlength=block_keys.shape[0])
        kept = np.arange(df.shape[0]) if block in LIST_BLOCKS else np.flatnonzero(df)
        vocab[block] = {key: col for col, key in enumerate(block_keys[kept].tolist())}
        dfs.append(df[kept])
    n = int(rows.shape[0])
    df = np.concatenate(dfs)
    return FeatureSpace(config, n, vocab, df, np.log((1.0 + n) / (1.0 + df)) + 1.0)


def per_block_vectorize(store: PerBlockStore, rows, space: FeatureSpace):
    rows = np.asarray(rows, dtype=np.int64)
    n = int(rows.shape[0])
    row_parts, col_parts, value_parts, block_totals = [], [], [], []
    for block, start, end in space.block_offsets:
        keys, counts = store.block(block)
        counts = counts[rows]
        mapping = space.vocab[block]
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
    row_of = np.concatenate(row_parts)
    order = np.argsort(row_of, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n))))
    X = sp.csr_matrix(
        (np.concatenate(value_parts)[order], np.concatenate(col_parts)[order], indptr),
        shape=(n, space.dim),
    )
    return X, np.column_stack(block_totals)


STORE_CONFIG = FeatureConfig(
    enabled_blocks={
        FeatureBlock.TOKEN_LENGTHS, FeatureBlock.FUNCTION_WORDS,
        FeatureBlock.SENTENCE_LENGTHS, FeatureBlock.CHAR_NGRAMS, FeatureBlock.VERBAL_ENDINGS,
    },
    function_words=("ad", "et", "in", "non", "sine"),  # "sine" never occurs
    verbal_endings=("t", "nt", "us"),
)

store_counts = st.fixed_dictionaries({
    FeatureBlock.TOKEN_LENGTHS: st.dictionaries(st.integers(1, 12), st.integers(1, 5), max_size=6),
    FeatureBlock.FUNCTION_WORDS: st.dictionaries(
        st.sampled_from(("ad", "et", "in", "non")), st.integers(1, 4), max_size=3
    ),
    FeatureBlock.SENTENCE_LENGTHS: st.dictionaries(
        st.integers(5, 60), st.integers(1, 3), max_size=4
    ),
    FeatureBlock.CHAR_NGRAMS: st.dictionaries(
        st.sampled_from(["a", "b", "ab", "ba", " a", "c", "ca", "abc"]), st.integers(1, 9),
        max_size=6,
    ),
    FeatureBlock.VERBAL_ENDINGS: st.dictionaries(
        st.sampled_from(("t", "nt")), st.integers(1, 4), max_size=2
    ),
})

# rows that never train: one whose every block total is 0, and one with
# keys no training row has
UNTRAINED = [
    {},
    {FeatureBlock.TOKEN_LENGTHS: {99: 2}, FeatureBlock.CHAR_NGRAMS: {"zz": 3, "a": 1},
     FeatureBlock.SENTENCE_LENGTHS: {999: 1}},
]


@settings(max_examples=60, deadline=None)
@given(st.lists(store_counts, min_size=1, max_size=6), st.data())
def test_store_wide_pass_equals_the_per_block_one(counts_list, data):
    train = data.draw(
        st.lists(st.integers(0, len(counts_list) - 1), min_size=1, unique=True).map(sorted)
    )
    blocks = data.draw(st.sets(st.sampled_from(STORE_CONFIG.blocks_in_order()), min_size=1))
    config = STORE_CONFIG.restricted_to(blocks)
    store, reference = CountsStore(STORE_CONFIG), PerBlockStore(STORE_CONFIG)
    rows = [store.add(counts) for counts in [*counts_list, *UNTRAINED]]
    assert rows == [reference.add(counts) for counts in [*counts_list, *UNTRAINED]]

    space = fit_feature_space_from_counts(store.counts().select(train), config)
    expected_space = per_block_fit(reference, train, config)
    assert_same_space(space, expected_space)
    X, block_totals = vectorize_counts(store.counts(), space)
    expected, expected_totals = per_block_vectorize(reference, rows, expected_space)
    assert X.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        ours, theirs = getattr(X, part), getattr(expected, part)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), part
    assert block_totals.dtype == expected_totals.dtype
    assert block_totals.tobytes() == expected_totals.tobytes()
    assert not block_totals[len(counts_list)].any()
