"""Feature extraction, feature-space fitting, and TFIDF vectorization."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylauth import features
from stylauth.corpus import build_document, load_corpus
from stylauth.errors import FeatureError
from stylauth.features import (
    CountsStore,
    FeatureBlock,
    FeatureConfig,
    Instance,
    cosine_similarity,
    distorted_text,
    extract_all,
    extract_char_ngrams,
    extract_dep_ngrams,
    extract_function_words,
    extract_masked_ngrams,
    extract_pos_ngrams,
    extract_sentence_lengths,
    extract_token_lengths,
    extract_verbal_endings,
    fit_feature_space,
    fit_feature_space_from_counts,
    vectorize,
    vectorize_counts,
)

from conftest import assert_same_space, write_corpus


def doc_of(text: str, doc_id: str = "doc") -> Instance:
    return Instance(doc=build_document(doc_id, "author", "Title", text))


def annotated_doc(tmp_path, text, rows):
    manifest = write_corpus(
        tmp_path,
        [
            {
                "id": "a",
                "author": "X",
                "title": "A",
                "text": text,
                "annotations": {"rows": rows},
            }
        ],
    )
    return Instance(doc=load_corpus(manifest).get("a"))


class TestTokenLengths:
    def test_counts_by_length(self):
        counts = extract_token_lengths(doc_of("aqua et terra"))
        assert counts == {4: 1, 2: 1, 5: 1}

    def test_punctuation_ignored(self):
        counts = extract_token_lengths(doc_of("aqua , ."))
        assert counts == {4: 1}

    def test_empty_segment(self):
        doc = build_document("d", "a", "T", "aqua terra.")
        from stylauth.corpus import Segment

        inst = Instance(doc=doc, segment=Segment("d", 0, (0, 0), 0))
        assert extract_token_lengths(inst) == {}


class TestFunctionWords:
    def test_counts_listed_words_only(self):
        counts = extract_function_words(doc_of("et et non terra"), ("et", "non", "ad"))
        assert counts == {"et": 2, "non": 1}

    def test_no_function_words(self):
        assert extract_function_words(doc_of("terra manet"), ("et",)) == {}

    def test_empty_list_rejected(self):
        with pytest.raises(FeatureError):
            extract_function_words(doc_of("et"), ())


class TestSentenceLengths:
    def test_counts_by_character_length(self):
        # "abcde fgh." twice (10 chars each) and one 24-char sentence
        inst = doc_of("abcde fgh. abcde fgh. lmnopqrstuwxyzabcdefghi.")
        counts = extract_sentence_lengths(inst)
        assert counts == {10: 2, 24: 1}

    def test_empty_instance(self):
        doc = build_document("d", "a", "T", "aqua.")
        from stylauth.corpus import Segment

        inst = Instance(doc=doc, segment=Segment("d", 0, (0, 0), 0))
        assert extract_sentence_lengths(inst) == {}

    def test_whitespace_collapsed_before_measuring(self):
        a = extract_sentence_lengths(doc_of("ab   cd."))
        b = extract_sentence_lengths(doc_of("ab cd."))
        assert a == b == {6: 1}


class TestCharNgrams:
    def test_orders_one_and_two(self):
        assert extract_char_ngrams(doc_of("ab"), {1, 2}) == {"a": 1, "b": 1, "ab": 1}

    def test_overlapping_grams(self):
        assert extract_char_ngrams(doc_of("aaa"), {2}) == {"aa": 2}

    def test_space_is_a_single_boundary_character(self):
        counts = extract_char_ngrams(doc_of("ab   cd"), {2})
        assert counts == {"ab": 1, "b ": 1, " c": 1, "cd": 1}

    def test_punctuation_adjacency_preserved(self):
        counts = extract_char_ngrams(doc_of("ab."), {2})
        assert counts == {"ab": 1, "b.": 1}

    @staticmethod
    def _slice_loop_counts(text, orders):
        """The reference: one slice per start index, orders ascending."""
        counts = Counter()
        for n in sorted(set(orders)):
            for i in range(len(text) - n + 1):
                counts[text[i : i + n]] += 1
        return dict(counts)

    @pytest.mark.parametrize("orders", [{1}, {2, 3}, {1, 2, 3, 4}])
    @pytest.mark.parametrize(
        "text", ["", "ab", "aaaaaa", "Nel mezzo del cammin, di nostra vita", "città è — “così”"]
    )
    def test_counts_and_key_order_equal_the_slice_loop(self, text, orders):
        got = features._char_ngram_counts(text, orders)
        want = self._slice_loop_counts(text, orders)
        assert got == want
        assert list(got) == list(want)


class TestTagNgrams:
    def test_pos_bigrams(self, tmp_path):
        inst = annotated_doc(
            tmp_path,
            "aqua manet terra",
            [("aqua", "N", "sub"), ("manet", "V", "root"), ("terra", "N", "obj")],
        )
        assert extract_pos_ngrams(inst, {2}) == {"N V": 1, "V N": 1}

    def test_single_tag_sentence_has_no_bigrams(self, tmp_path):
        inst = annotated_doc(tmp_path, "aqua", [("aqua", "N", "root")])
        assert extract_pos_ngrams(inst, {2}) == {}

    def test_ngrams_do_not_cross_sentences(self, tmp_path):
        inst = annotated_doc(
            tmp_path,
            "aqua manet. terra patet.",
            [
                ("aqua", "N", "sub"),
                ("manet", "V", "root"),
                ("terra", "N", "sub"),
                ("patet", "V", "root"),
            ],
        )
        counts = extract_pos_ngrams(inst, {2})
        assert counts == {"N V": 2}  # never "V N" across the boundary

    def test_dep_unigrams(self, tmp_path):
        inst = annotated_doc(
            tmp_path, "aqua manet", [("aqua", "N", "nsubj"), ("manet", "V", "root")]
        )
        assert extract_dep_ngrams(inst, {1}) == {"nsubj": 1, "root": 1}

    def test_dep_trigram(self, tmp_path):
        inst = annotated_doc(
            tmp_path,
            "aqua manet terra",
            [("aqua", "N", "a"), ("manet", "V", "b"), ("terra", "N", "c")],
        )
        assert extract_dep_ngrams(inst, {3}) == {"a b c": 1}

    def test_missing_layer_rejected(self):
        with pytest.raises(FeatureError):
            extract_pos_ngrams(doc_of("aqua"), {1})


class TestVerbalEndings:
    def test_longest_suffix_wins(self):
        counts = extract_verbal_endings(doc_of("amabantur"), ("ntur", "tur"))
        assert counts == {"ntur": 1}

    def test_no_match(self):
        assert extract_verbal_endings(doc_of("aqua"), ("ntur",)) == {}

    def test_one_count_per_token(self):
        counts = extract_verbal_endings(doc_of("amatur amatur monentur"), ("ntur", "tur"))
        assert counts == {"tur": 2, "ntur": 1}

    def test_empty_list_rejected(self):
        with pytest.raises(FeatureError):
            extract_verbal_endings(doc_of("aqua"), ())


class TestMasking:
    def test_dvma_masks_all_characters(self):
        assert distorted_text(doc_of("terra et"), FeatureBlock.MASKED_DVMA, ("et",)) == "***** et"

    def test_dvex_keeps_exterior_characters(self):
        assert distorted_text(doc_of("terra et"), FeatureBlock.MASKED_DVEX, ("et",)) == "t***a et"

    def test_all_function_words_identity(self):
        text = "et non ad"
        assert distorted_text(doc_of(text), FeatureBlock.MASKED_DVMA, ("et", "non", "ad")) == text

    def test_punctuation_untouched(self):
        out = distorted_text(doc_of("terra, et."), FeatureBlock.MASKED_DVMA, ("et",))
        assert out == "*****, et."

    def test_short_words_unchanged_by_dvex(self):
        assert distorted_text(doc_of("ab a"), FeatureBlock.MASKED_DVEX, ("zz",)) == "ab a"

    def test_invalid_variant_rejected(self):
        with pytest.raises(FeatureError):
            distorted_text(doc_of("a"), FeatureBlock.CHAR_NGRAMS, ("et",))

    def test_masked_ngram_counts(self):
        counts = extract_masked_ngrams(
            doc_of("terra et"), FeatureBlock.MASKED_DVMA, ("et",), {2}
        )
        assert counts["**"] == 4
        assert counts[" e"] == 1


class TestFeatureConfig:
    def test_rejects_order_above_three(self):
        with pytest.raises(FeatureError):
            FeatureConfig(
                enabled_blocks={FeatureBlock.CHAR_NGRAMS},
                ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 4}},
            )

    def test_rejects_empty_orders(self):
        with pytest.raises(FeatureError):
            FeatureConfig(
                enabled_blocks={FeatureBlock.CHAR_NGRAMS},
                ngram_orders={FeatureBlock.CHAR_NGRAMS: set()},
            )

    def test_list_blocks_need_lists(self):
        with pytest.raises(FeatureError):
            FeatureConfig(enabled_blocks={FeatureBlock.FUNCTION_WORDS})
        with pytest.raises(FeatureError):
            FeatureConfig(enabled_blocks={FeatureBlock.VERBAL_ENDINGS})
        with pytest.raises(FeatureError):
            FeatureConfig(enabled_blocks={FeatureBlock.MASKED_DVMA})

    def test_duplicate_list_entries_dropped(self):
        config = FeatureConfig(
            enabled_blocks={FeatureBlock.FUNCTION_WORDS, FeatureBlock.VERBAL_ENDINGS},
            function_words=("et", "in", "et"),
            verbal_endings=("tur", "ntur", "tur"),
        )
        assert config.function_words == ("et", "in")
        assert config.verbal_endings == ("tur", "ntur")
        space = fit_feature_space([doc_of("et in et amatur")], config)
        assert space.dim == 4
        assert "" not in space.column_names()

    def test_restricted_to(self):
        config = FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS}
        )
        restricted = config.restricted_to([FeatureBlock.TOKEN_LENGTHS])
        assert restricted.enabled_blocks == frozenset({FeatureBlock.TOKEN_LENGTHS})
        assert config.enabled_blocks == frozenset(
            {FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS}
        )


def char1_config() -> FeatureConfig:
    return FeatureConfig(
        enabled_blocks={FeatureBlock.CHAR_NGRAMS},
        ngram_orders={FeatureBlock.CHAR_NGRAMS: {1}},
    )


class TestFitFeatureSpace:
    def test_vocabulary_union_and_df(self):
        space = fit_feature_space([doc_of("ab", "d1"), doc_of("bc", "d2")], char1_config())
        vocab = space.vocab[FeatureBlock.CHAR_NGRAMS]
        assert set(vocab) == {"a", "b", "c"}
        df = {k: int(space.df[v]) for k, v in vocab.items()}
        assert df == {"a": 1, "b": 2, "c": 1}

    def test_idf_of_ubiquitous_feature_is_one(self):
        space = fit_feature_space([doc_of("ab", "d1"), doc_of("ba", "d2")], char1_config())
        vocab = space.vocab[FeatureBlock.CHAR_NGRAMS]
        for key in ("a", "b"):
            assert space.idf[vocab[key]] == pytest.approx(1.0)

    def test_idf_formula(self):
        space = fit_feature_space(
            [doc_of("ab", "d1"), doc_of("bb", "d2"), doc_of("bc", "d3")], char1_config()
        )
        vocab = space.vocab[FeatureBlock.CHAR_NGRAMS]
        assert space.idf[vocab["a"]] == pytest.approx(math.log(4 / 2) + 1)
        assert space.idf[vocab["b"]] == pytest.approx(math.log(4 / 4) + 1)

    def test_list_block_columns_are_fixed(self):
        config = FeatureConfig(
            enabled_blocks={FeatureBlock.FUNCTION_WORDS},
            function_words=("et", "non", "ad"),
        )
        space = fit_feature_space([doc_of("et tantum")], config)
        assert set(space.vocab[FeatureBlock.FUNCTION_WORDS]) == {"et", "non", "ad"}
        assert space.dim == 3

    def test_empty_training_set_rejected(self):
        with pytest.raises(FeatureError):
            fit_feature_space([], char1_config())

    def test_total_dimension_is_sum_of_blocks(self):
        config = FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1}},
        )
        space = fit_feature_space([doc_of("ab cde", "d1")], config)
        sizes = [end - start for _, start, end in space.block_offsets]
        assert sum(sizes) == space.dim
        cols = sorted(
            col for mapping in space.vocab.values() for col in mapping.values()
        )
        assert cols == list(range(space.dim))

    def test_permutation_invariant(self):
        docs = [doc_of("ab", "d1"), doc_of("bc", "d2"), doc_of("ca", "d3")]
        s1 = fit_feature_space(docs, char1_config())
        s2 = fit_feature_space(docs[::-1], char1_config())
        assert_same_space(s1, s2)


PROPERTY_WORDS = ("ad", "et", "in", "non")

block_counts = {
    FeatureBlock.TOKEN_LENGTHS: st.dictionaries(
        st.integers(1, 12), st.integers(1, 5), max_size=6
    ),
    FeatureBlock.CHAR_NGRAMS: st.dictionaries(
        st.sampled_from(["a", "b", "ab", "ba", " a", "c", "ca"]), st.integers(1, 9), max_size=5
    ),
    FeatureBlock.FUNCTION_WORDS: st.dictionaries(
        st.sampled_from(PROPERTY_WORDS), st.integers(1, 4), max_size=2
    ),
}


def _reference_tfidf(counts_list, train, config):
    """Dict-based TF·IDF: (column (block, key) list, df, idf, rows, occurrences)."""
    columns: list = []
    df: list[int] = []
    for block in config.blocks_in_order():
        seen = Counter(key for i in train for key in counts_list[i][block])
        keys = sorted(PROPERTY_WORDS) if block is FeatureBlock.FUNCTION_WORDS else sorted(seen)
        columns += [(block, key) for key in keys]
        df += [seen[key] for key in keys]
    idf = [math.log((1 + len(train)) / (1 + d)) + 1 for d in df]
    index = {column: j for j, column in enumerate(columns)}
    rows = np.zeros((len(counts_list), len(columns)))
    for i, counts in enumerate(counts_list):
        for block in config.blocks_in_order():
            total = sum(counts[block].values())
            cols = [index[(block, k)] for k in counts[block] if (block, k) in index]
            for key, count in counts[block].items():
                if (block, key) in index:
                    j = index[(block, key)]
                    rows[i, j] = count / total * idf[j]
            norm = math.sqrt(sum(rows[i, j] ** 2 for j in cols))
            if norm > 0:
                rows[i, cols] /= norm
    occurrences = [sum(sum(c.values()) for c in counts.values()) for counts in counts_list]
    return columns, df, idf, rows, occurrences


@settings(deadline=None)
@given(
    st.lists(st.fixed_dictionaries(block_counts), min_size=1, max_size=6),
    st.data(),
)
def test_matrix_path_matches_dict_reference(counts_list, data):
    config = FeatureConfig(enabled_blocks=set(block_counts), function_words=PROPERTY_WORDS)
    train = data.draw(
        st.lists(st.integers(0, len(counts_list) - 1), min_size=1, unique=True).map(sorted)
    )
    store = CountsStore(config)
    rows = [store.add(counts) for counts in counts_list]
    space = fit_feature_space_from_counts(store, train, config)
    X, occurrences = vectorize_counts(store, rows, space)

    columns, df, idf, expected, expected_occurrences = _reference_tfidf(
        counts_list, train, config
    )
    assert space.column_names() == [f"{b.value}:{k}" for b, k in columns]
    assert set(PROPERTY_WORDS) <= set(space.vocab[FeatureBlock.FUNCTION_WORDS])
    assert space.df.tolist() == df
    assert np.allclose(space.idf, idf, rtol=0, atol=1e-12)
    assert X.shape == expected.shape
    assert np.allclose(X.toarray(), expected, rtol=0, atol=1e-12)
    assert occurrences.tolist() == expected_occurrences


@settings(deadline=None)
@given(
    st.lists(st.fixed_dictionaries(block_counts), min_size=1, max_size=6),
    st.data(),
)
def test_restricted_space_and_rows_equal_a_direct_fit(counts_list, data):
    config = FeatureConfig(enabled_blocks=set(block_counts), function_words=PROPERTY_WORDS)
    train = data.draw(
        st.lists(st.integers(0, len(counts_list) - 1), min_size=1, unique=True).map(sorted)
    )
    blocks = data.draw(st.sets(st.sampled_from(sorted(block_counts)), min_size=1))
    store = CountsStore(config)
    rows = [store.add(counts) for counts in counts_list]
    full = fit_feature_space_from_counts(store, train, config)
    X, _ = vectorize_counts(store, rows, full)

    space, columns = full.restricted_to(blocks)
    direct = fit_feature_space_from_counts(store, train, config.restricted_to(blocks))
    assert space.config == direct.config
    assert_same_space(space, direct)

    expected, expected_occurrences = vectorize_counts(store, rows, direct)
    sliced = X[:, columns]
    sliced.sort_indices()
    assert sliced.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sliced, part), getattr(expected, part))
    assert sliced.data.tobytes() == expected.data.tobytes()
    assert np.array_equal(store.occurrences(rows, blocks), expected_occurrences)


def test_restricting_to_every_block_returns_the_space_itself():
    space = fit_feature_space([doc_of("ab cd", "d1")], char1_config())
    same, columns = space.restricted_to([FeatureBlock.CHAR_NGRAMS])
    assert same is space
    assert columns.tolist() == list(range(space.dim))


@pytest.mark.parametrize("blocks", [[], [FeatureBlock.TOKEN_LENGTHS]])
def test_restricting_to_no_block_or_a_foreign_one_rejected(blocks):
    space = fit_feature_space([doc_of("ab cd", "d1")], char1_config())
    with pytest.raises(FeatureError):
        space.restricted_to(blocks)


class TestVectorize:
    def test_single_feature_gets_unit_value(self):
        space = fit_feature_space([doc_of("aa", "d1")], char1_config())
        x, _ = vectorize([doc_of("aa", "x")], space)
        assert x.nnz == 1
        assert x.data[0] == pytest.approx(1.0)

    def test_zero_vector_when_nothing_extractable(self):
        space = fit_feature_space([doc_of("ab", "d1")], char1_config())
        x, _ = vectorize([doc_of("zz", "x")], space)  # z unseen in training
        assert x.shape == (1, space.dim)
        assert x.nnz == 0

    def test_equal_tf_equal_idf_gives_equal_coordinates(self):
        # both characters occur in the single training doc -> equal IDF
        space = fit_feature_space([doc_of("ab", "d1")], char1_config())
        x, _ = vectorize([doc_of("ab", "x")], space)
        assert x.data == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_block_norm_is_zero_or_one(self):
        config = FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        )
        space = fit_feature_space(
            [doc_of("ab cde fg", "d1"), doc_of("hh iii", "d2")], config
        )
        x, _ = vectorize([doc_of("ab hh", "x")], space)
        for block, start, end in space.block_offsets:
            mask = (x.indices >= start) & (x.indices < end)
            norm = float(np.sqrt(np.sum(x.data[mask] ** 2)))
            assert norm == pytest.approx(0.0) or norm == pytest.approx(1.0)

    def test_unseen_features_dropped(self):
        space = fit_feature_space([doc_of("ab", "d1")], char1_config())
        x, _ = vectorize([doc_of("abz", "x")], space)
        names = space.column_names()
        present = {names[int(i)] for i in x.indices}
        assert "char_ngrams:z" not in present

    def test_fixed_space_vector_independent_of_other_documents(self):
        space = fit_feature_space([doc_of("ab", "d1"), doc_of("bc", "d2")], char1_config())
        v1, _ = vectorize([doc_of("abc", "x")], space)
        v2, _ = vectorize([doc_of("ab", "d1"), doc_of("abc", "x")], space)
        assert np.array_equal(v1.indices, v2[1].indices)
        assert np.array_equal(v1.data, v2[1].data)

    def test_refit_without_doc_never_contains_its_unique_features(self):
        docs = [doc_of("ab", "d1"), doc_of("bc", "d2"), doc_of("zq", "d3")]
        with_doc = fit_feature_space(docs, char1_config())
        without = fit_feature_space(docs[:2], char1_config())
        assert "z" in with_doc.vocab[FeatureBlock.CHAR_NGRAMS]
        assert "z" not in without.vocab[FeatureBlock.CHAR_NGRAMS]
        assert "q" not in without.vocab[FeatureBlock.CHAR_NGRAMS]

    def test_occurrence_count_includes_unseen(self):
        space = fit_feature_space([doc_of("ab", "d1")], char1_config())
        _, occurrences = vectorize([doc_of("abzz", "x")], space)
        assert occurrences.tolist() == [4]

    def test_indices_strictly_increasing(self):
        config = FeatureConfig(
            enabled_blocks={FeatureBlock.CHAR_NGRAMS, FeatureBlock.TOKEN_LENGTHS},
            ngram_orders={FeatureBlock.CHAR_NGRAMS: {1, 2}},
        )
        space = fit_feature_space([doc_of("ab cd ef", "d1")], config)
        x, _ = vectorize([doc_of("ab ef", "x")], space)
        assert np.all(np.diff(x.indices) > 0)


class TestMatrixAndCosine:
    def test_matrix_rows_match_vectors(self):
        space = fit_feature_space([doc_of("ab", "d1"), doc_of("bc", "d2")], char1_config())
        texts = ("ab", "c")
        store = CountsStore(space.config)
        rows = [store.add(extract_all(doc_of(t), space.config)) for t in texts]
        X, _ = vectorize_counts(store, rows, space)
        assert X.shape == (2, space.dim)
        for row, text in zip(X.toarray(), texts):
            assert np.array_equal(row, vectorize([doc_of(text, "x")], space)[0].toarray()[0])

    def test_cosine_self_is_one(self):
        space = fit_feature_space([doc_of("ab cd", "d1")], char1_config())
        x, _ = vectorize([doc_of("ab", "x")], space)
        assert cosine_similarity(x, x) == pytest.approx(1.0)

    def test_cosine_disjoint_is_zero(self):
        space = fit_feature_space([doc_of("ab", "d1"), doc_of("cd", "d2")], char1_config())
        X, _ = vectorize([doc_of("ab", "x"), doc_of("cd", "y")], space)
        assert cosine_similarity(X[0], X[1]) == 0.0

    def test_cosine_symmetric(self):
        space = fit_feature_space([doc_of("ab cd ef", "d1")], char1_config())
        rng = np.random.default_rng(3)
        texts = ["ab cd", "cd ef", "ab ef cd", "ef"]
        X, _ = vectorize([doc_of(t, f"x{i}") for i, t in enumerate(texts)], space)
        rows = [X[i] for i in range(len(texts))]
        for a in rows:
            for b in rows:
                assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))

    def test_cosine_rejects_mismatched_shapes(self):
        space = fit_feature_space([doc_of("ab cd", "d1")], char1_config())
        X, _ = vectorize([doc_of("ab", "x"), doc_of("cd", "y")], space)
        with pytest.raises(FeatureError):
            cosine_similarity(X, X[0])
        with pytest.raises(FeatureError):
            cosine_similarity(X[0], X[1, :2])
