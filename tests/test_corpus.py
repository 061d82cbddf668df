"""Corpus loading, normalization, tokenization, and segmentation."""

from __future__ import annotations

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stylauth.corpus import (
    PUNCTUATION,
    WORD,
    build_document,
    load_annotations,
    load_corpus,
    normalize,
    read_word_list,
    segment,
    split_sentences,
    tokenize,
)
from stylauth.errors import (
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

from conftest import write_corpus

# Text without braces, so quoted-span handling cannot interfere.
plain_text = st.text(
    alphabet=st.characters(blacklist_characters="{}"), max_size=200
)


class TestNormalize:
    def test_lowercases_and_maps_characters(self):
        assert normalize("Vox Jovis") == "uox iouis"

    def test_empty_input(self):
        assert normalize("") == ""

    def test_quoted_span_deleted(self):
        assert normalize("terra {q:aqua est} manet") == "terra  manet"

    def test_multiple_spans(self):
        assert normalize("a {q:x} b {q:y} c") == "a  b  c"

    def test_unbalanced_quotation_reports_byte_offset(self):
        with pytest.raises(UnbalancedQuotationError) as err:
            normalize("terra {q:aqua est manet")
        assert err.value.byte_offset == 6
        assert "6" in str(err.value)

    def test_byte_offset_counts_bytes_not_characters(self):
        # "terræ " is 7 bytes in UTF-8 but 6 characters
        with pytest.raises(UnbalancedQuotationError) as err:
            normalize("terræ {q:aqua")
        assert err.value.byte_offset == 7

    def test_uppercase_v_and_j_also_mapped(self):
        assert normalize("VJvj") == "uiui"

    def test_stray_closing_brace_is_preserved(self):
        assert normalize("a } b") == "a } b"

    def test_decomposed_and_precomposed_forms_agree(self):
        # "ṽ" decomposes to "v" and a tilde, which the letter map would
        # reach if the text were not composed first
        precomposed = "Aquā et terrā ṽel."
        decomposed = unicodedata.normalize("NFD", precomposed)
        assert decomposed != precomposed
        docs = [build_document(f"d{i}", "X", "t", text) for i, text in
                enumerate([precomposed, decomposed])]
        assert [t.surface for t in docs[1].tokens] == ["aquā", "et", "terrā", "ṽel", "."]
        assert docs[1].tokens == docs[0].tokens
        assert docs[1].text_sha256() == docs[0].text_sha256()

    def test_letters_that_compose_after_the_letter_map(self):
        # "J" with a combining caron has no precomposed form; "i" with one has
        once = normalize("J\u030c")
        assert once == "\u01d0"
        assert normalize(once) == once

    @given(plain_text)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(plain_text)
    def test_no_uppercase_or_vj_survives(self, text):
        result = normalize(text)
        assert result == result.lower()
        assert "v" not in result and "j" not in result


class TestTokenize:
    def test_words_and_punctuation(self):
        tokens = tokenize("aqua et terra.")
        assert [(t.surface, t.kind) for t in tokens] == [
            ("aqua", WORD),
            ("et", WORD),
            ("terra", WORD),
            (".", PUNCTUATION),
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_internal_punctuation(self):
        tokens = tokenize("ratio, inquam")
        assert [(t.surface, t.kind) for t in tokens] == [
            ("ratio", WORD),
            (",", PUNCTUATION),
            ("inquam", WORD),
        ]

    def test_each_punctuation_char_is_its_own_token(self):
        tokens = tokenize("a!?b")
        assert [t.surface for t in tokens] == ["a", "!", "?", "b"]

    def test_char_lengths_and_offsets(self):
        tokens = tokenize("aqua  et")
        assert [t.char_length for t in tokens] == [4, 2]
        assert [t.start for t in tokens] == [0, 6]

    @given(plain_text)
    def test_preserves_all_non_whitespace(self, text):
        normalized = normalize(text)
        tokens = tokenize(normalized)
        assert "".join(t.surface for t in tokens) == "".join(normalized.split())


class TestSplitSentences:
    def test_terminator_closes_sentence(self):
        tokens = tokenize("a . b c .")
        assert split_sentences(tokens) == [(0, 2), (2, 5)]

    def test_no_terminator_one_sentence(self):
        tokens = tokenize("a b c")
        assert split_sentences(tokens) == [(0, 3)]

    def test_single_terminator_token(self):
        tokens = tokenize(".")
        assert split_sentences(tokens) == [(0, 1)]

    def test_empty(self):
        assert split_sentences([]) == []

    @given(plain_text)
    def test_ranges_partition_tokens(self, text):
        tokens = tokenize(normalize(text))
        ranges = split_sentences(tokens)
        covered = 0
        for start, end in ranges:
            assert start == covered and end > start
            covered = end
        assert covered == len(tokens)


def _doc_with_sentences(words_per_sentence: list[int]) -> "Document":
    sentences = []
    for n in words_per_sentence:
        sentences.append(" ".join(["uerbum"] * (n - 1)) + ".")
    return build_document("doc", "someone", "Doc", " ".join(sentences))


class TestSegment:
    def test_greedy_accumulation(self):
        # five 200-token sentences, minimum 400 -> 400 + 400 + 200
        doc = _doc_with_sentences([200] * 5)
        segs = segment(doc, min_tokens=400)
        assert [s.token_count for s in segs] == [400, 400, 200]

    def test_single_long_sentence_is_never_split(self):
        doc = _doc_with_sentences([450])
        segs = segment(doc, min_tokens=400)
        assert [s.token_count for s in segs] == [450]

    def test_min_tokens_zero_rejected(self):
        doc = _doc_with_sentences([10])
        with pytest.raises(ExperimentError):
            segment(doc, min_tokens=0)

    def test_boundaries_are_sentence_boundaries(self):
        doc = _doc_with_sentences([7, 11, 5, 13, 9, 8])
        segs = segment(doc, min_tokens=20)
        starts = {s for s, _ in doc.sentences}
        ends = {e for _, e in doc.sentences}
        for seg in segs:
            assert seg.token_range[0] in starts
            assert seg.token_range[1] in ends

    def test_segments_cover_document(self):
        doc = _doc_with_sentences([7, 11, 5, 13, 9, 8])
        segs = segment(doc, min_tokens=20)
        assert sum(s.token_count for s in segs) == doc.token_count
        cursor = 0
        for seg in segs:
            assert seg.token_range[0] == cursor
            cursor = seg.token_range[1]
        assert cursor == doc.token_count

    def test_all_but_last_at_least_min_tokens(self):
        doc = _doc_with_sentences([9, 12, 6, 15, 4, 11, 8, 5])
        segs = segment(doc, min_tokens=18)
        for seg in segs[:-1]:
            assert seg.token_count >= 18

    def test_instance_ids_are_distinct_from_parent(self):
        doc = _doc_with_sentences([10, 10])
        segs = segment(doc, min_tokens=5)
        ids = {s.instance_id for s in segs}
        assert doc.id not in ids
        assert len(ids) == len(segs)


class TestLoadCorpus:
    def test_two_documents(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [
                {"id": "a", "author": "X", "title": "A", "text": "aqua terra."},
                {"id": "b", "author": "Y", "title": "B", "text": "mons uallis."},
            ],
        )
        corpus = load_corpus(manifest)
        assert len(corpus) == 2
        assert {d.id for d in corpus} == {"a", "b"}

    def test_json_manifest(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [{"id": "a", "author": "X", "title": "A", "text": "aqua."}],
            fmt="json",
        )
        corpus = load_corpus(manifest)
        assert corpus.get("a").author == "X"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_corpus(tmp_path / "nope.csv")

    def test_missing_text_file(self, tmp_path):
        manifest = write_corpus(
            tmp_path, [{"id": "a", "author": "X", "title": "A", "text": "aqua."}]
        )
        (tmp_path / "corpus" / "a.txt").unlink()
        with pytest.raises(MissingFileError):
            load_corpus(manifest)

    def test_duplicate_id(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [
                {"id": "a", "author": "X", "title": "A", "text": "aqua."},
                {"id": "b", "author": "Y", "title": "B", "text": "mons."},
            ],
        )
        rows = manifest.read_text().splitlines()
        rows.append(rows[1])  # repeat the first record verbatim
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(DuplicateIdError):
            load_corpus(manifest)

    def test_empty_text(self, tmp_path):
        manifest = write_corpus(
            tmp_path, [{"id": "a", "author": "X", "title": "A", "text": "   \n"}]
        )
        with pytest.raises(EmptyTextError):
            load_corpus(manifest)

    def test_missing_author(self, tmp_path):
        manifest = write_corpus(
            tmp_path, [{"id": "a", "author": "", "title": "A", "text": "aqua."}]
        )
        with pytest.raises(MissingAuthorError):
            load_corpus(manifest)

    def test_bracket_in_id_rejected(self, tmp_path):
        manifest = write_corpus(
            tmp_path, [{"id": "a[0]", "author": "X", "title": "A", "text": "aqua."}]
        )
        with pytest.raises(CorpusError):
            load_corpus(manifest)

    def test_unknown_author_marks_disputed(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [
                {"id": "a", "author": "X", "title": "A", "text": "aqua."},
                {"id": "q", "author": "UNKNOWN", "title": "Q", "text": "unda."},
            ],
        )
        corpus = load_corpus(manifest)
        assert [d.id for d in corpus.disputed()] == ["q"]
        assert [d.id for d in corpus.labelled()] == ["a"]
        assert corpus.authors() == {"X": 1}

    def test_fingerprint_changes_with_content(self, tmp_path):
        m1 = write_corpus(
            tmp_path / "one", [{"id": "a", "author": "X", "title": "A", "text": "aqua."}]
        )
        m2 = write_corpus(
            tmp_path / "two", [{"id": "a", "author": "X", "title": "A", "text": "terra."}]
        )
        assert load_corpus(m1).fingerprint() != load_corpus(m2).fingerprint()

    def test_documents_normalized_and_tokenized(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [{"id": "a", "author": "X", "title": "A", "text": "Vox {q:skip} Jovis."}],
        )
        doc = load_corpus(manifest).get("a")
        assert doc.normalized_text == "uox  iouis."
        assert [t.surface for t in doc.tokens] == ["uox", "iouis", "."]
        assert doc.sentences == [(0, 3)]


class TestAnnotations:
    def _manifest(self, tmp_path, rows, text="aqua et terra"):
        return write_corpus(
            tmp_path,
            [
                {
                    "id": "a",
                    "author": "X",
                    "title": "A",
                    "text": text,
                    "annotations": {"rows": rows, "name": "toy"},
                }
            ],
        )

    def test_aligned_layer(self, tmp_path):
        rows = [("aqua", "N", "sub"), ("et", "C", "cc"), ("terra", "N", "root")]
        manifest = self._manifest(tmp_path, rows)
        doc = load_corpus(manifest).get("a")
        assert doc.annotations is not None
        assert doc.annotations.pos_tags == ("N", "C", "N")
        assert doc.annotations.dep_relations == ("sub", "cc", "root")
        assert doc.annotations.tagset == "toy"

    def test_length_mismatch(self, tmp_path):
        rows = [("aqua", "N", "sub"), ("et", "C", "cc")]
        manifest = self._manifest(tmp_path, rows)
        with pytest.raises(AnnotationError):
            load_corpus(manifest)

    def test_unknown_tag_rejected(self, tmp_path):
        manifest = write_corpus(
            tmp_path,
            [{"id": "a", "author": "X", "title": "A", "text": "aqua et terra"}],
        )
        sidecar = tmp_path / "corpus" / "a.tsv"
        sidecar.write_text(
            "#tagset\ttoy\tN,C\tsub,cc,root\n"
            "aqua\tN\tsub\net\tC\tcc\nterra\tV\troot\n",
            encoding="utf-8",
        )
        doc = load_corpus(manifest).get("a")
        with pytest.raises(UnknownTagError):
            load_annotations(sidecar, doc)

    def test_punctuation_not_annotated(self, tmp_path):
        rows = [("aqua", "N", "sub"), ("terra", "N", "root")]
        manifest = self._manifest(tmp_path, rows, text="aqua, terra.")
        doc = load_corpus(manifest).get("a")
        assert doc.annotations.pos_tags == ("N", "N")

    def test_wordless_doc_with_header_only_sidecar(self, tmp_path):
        manifest = write_corpus(
            tmp_path, [{"id": "a", "author": "X", "title": "A", "text": "...."}]
        )
        doc = load_corpus(manifest).get("a")
        assert doc.word_token_count == 0
        sidecar = tmp_path / "corpus" / "a.tsv"
        sidecar.write_text("#tagset\ttoy\tN\troot\n", encoding="utf-8")
        layer = load_annotations(sidecar, doc)
        assert layer.pos_tags == ()
        assert layer.dep_relations == ()

    def test_missing_sidecar(self, tmp_path):
        manifest = write_corpus(
            tmp_path, [{"id": "a", "author": "X", "title": "A", "text": "aqua."}]
        )
        doc = load_corpus(manifest).get("a")
        with pytest.raises(MissingFileError):
            load_annotations(tmp_path / "corpus" / "absent.tsv", doc)


class TestReadWordList:
    def test_entries_normalized_and_deduplicated(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("Vel\nuel\n et \n\nnon\n", encoding="utf-8")
        assert read_word_list(path) == ("uel", "et", "non")

    def test_missing_list(self, tmp_path):
        with pytest.raises(MissingFileError):
            read_word_list(tmp_path / "absent.txt")
