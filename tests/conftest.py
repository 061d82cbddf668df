"""Shared fixtures: tiny corpora on disk and synthetic styled authors."""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from stylauth import evaluation, experiments
from stylauth.corpus import Corpus, Document, load_corpus, segment


def assert_same_space(a, b) -> None:
    """Two feature spaces hold the same keys in the same columns, and the same statistics."""
    assert [(block, list(m.items())) for block, m in a.vocab.items()] == [
        (block, list(m.items())) for block, m in b.vocab.items()
    ]
    assert a.block_offsets == b.block_offsets
    assert a.n_instances == b.n_instances
    assert a.df.tobytes() == b.df.tobytes()
    assert a.idf.tobytes() == b.idf.tobytes()


def held_out_segment_ids(doc: Document, min_tokens: int) -> set[str]:
    """Instance ids the held-out text could contribute if it were trained on:
    its own and its segments', which cover what ``document_instances`` gives it.
    """
    return {doc.id} | {seg.instance_id for seg in segment(doc, min_tokens)}


@pytest.fixture
def fold_fits(monkeypatch) -> dict[int, list]:
    """LOO verifier fits and every attributor fit, keyed by seed, in fit order.

    A LOO fold fits with seed ``stable_seed(seed, "loo" | "aa-loo", text_id)``,
    once per pool. The fits are wrapped where the fold runner looks them up
    (the ``LooStudy`` is built per call); distinct folds have distinct seeds,
    so each key is written by one thread.
    """
    fits: dict[int, list] = defaultdict(list)

    def capturing(fit):
        def wrapped(train, config, seed):
            fitted = fit(train, config, seed)
            fits[seed].append(fitted)
            return fitted

        return wrapped

    monkeypatch.setattr(evaluation, "fit_verifier", capturing(evaluation.fit_verifier))
    monkeypatch.setattr(experiments, "fit_attributor", capturing(experiments.fit_attributor))
    return fits


def write_corpus(
    tmp_path: Path,
    docs: list[dict],
    fmt: str = "csv",
    name: str = "manifest",
) -> Path:
    """Write text files plus a manifest and return the manifest path.

    Each doc dict needs id/author/title/text; optional genre and
    annotations (list of (surface, pos, dep) rows plus tagsets).
    """
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for doc in docs:
        text_path = corpus_dir / f"{doc['id']}.txt"
        text_path.write_text(doc["text"], encoding="utf-8")
        record = {
            "id": doc["id"],
            "author": doc["author"],
            "title": doc.get("title", doc["id"]),
            "genre": doc.get("genre", ""),
            "text_path": f"corpus/{doc['id']}.txt",
            "annotations_path": "",
        }
        ann = doc.get("annotations")
        if ann is not None:
            ann_path = corpus_dir / f"{doc['id']}.tsv"
            pos_set = ",".join(sorted({p for _, p, _ in ann["rows"]} | set(ann.get("pos_extra", []))))
            dep_set = ",".join(sorted({d for _, _, d in ann["rows"]} | set(ann.get("dep_extra", []))))
            lines = [f"#tagset\t{ann.get('name', 'test')}\t{pos_set}\t{dep_set}"]
            lines += [f"{s}\t{p}\t{d}" for s, p, d in ann["rows"]]
            ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            record["annotations_path"] = f"corpus/{doc['id']}.tsv"
        records.append(record)

    if fmt == "csv":
        manifest = tmp_path / f"{name}.csv"
        with manifest.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
            writer.writeheader()
            writer.writerows(records)
    else:
        import json

        manifest = tmp_path / f"{name}.json"
        manifest.write_text(__import__("json").dumps(records), encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# Synthetic authors with planted stylistic signatures
# ---------------------------------------------------------------------------

SHARED_SYLLABLES = ("ta", "re", "mi", "no", "lu", "si", "ca", "de", "po", "ue")

FUNCTION_WORDS = ("et", "in", "ad", "non", "cum", "per", "ab", "ex")


@dataclass
class AuthorStyle:
    """Planted signature: preferred syllables and a word-length profile."""

    name: str
    syllables: tuple[str, ...]
    word_length_weights: tuple[float, ...]  # P(word has 1, 2, ... syllables)
    own_syllable_prob: float = 0.6
    function_word_rate: float = 0.15


def synth_word(rng: np.random.Generator, style: AuthorStyle) -> str:
    n = 1 + rng.choice(len(style.word_length_weights), p=np.asarray(style.word_length_weights))
    parts = []
    for _ in range(n):
        pool = style.syllables if rng.random() < style.own_syllable_prob else SHARED_SYLLABLES
        parts.append(pool[int(rng.integers(0, len(pool)))])
    return "".join(parts)


def synth_text(rng: np.random.Generator, style: AuthorStyle, n_tokens: int) -> str:
    """Sentences of 6-14 words until roughly n_tokens tokens are produced."""
    sentences = []
    produced = 0
    while produced < n_tokens:
        n_words = int(rng.integers(6, 15))
        words = []
        for _ in range(n_words):
            if rng.random() < style.function_word_rate:
                words.append(FUNCTION_WORDS[int(rng.integers(0, len(FUNCTION_WORDS)))])
            else:
                words.append(synth_word(rng, style))
        sentences.append(" ".join(words) + ".")
        produced += n_words + 1
    return " ".join(sentences)


def three_author_styles() -> list[AuthorStyle]:
    """Three clearly distinct styles; the first is used as the minority."""
    return [
        AuthorStyle(
            name="Aldus",
            syllables=("bra", "gno", "phi", "ur", "zel", "qui"),
            word_length_weights=(0.1, 0.2, 0.4, 0.3),
        ),
        AuthorStyle(
            name="Benno",
            syllables=("mon", "tes", "val", "cor", "dus", "pen"),
            word_length_weights=(0.4, 0.4, 0.15, 0.05),
        ),
        AuthorStyle(
            name="Castor",
            syllables=("fle", "rix", "sau", "wen", "dol", "hac"),
            word_length_weights=(0.25, 0.35, 0.3, 0.1),
        ),
    ]


def make_styled_corpus(
    tmp_path: Path,
    texts_per_author: dict[str, int],
    n_tokens: int = 500,
    seed: int = 7,
    disputed_from: str | None = None,
    styles: list[AuthorStyle] | None = None,
) -> Path:
    """Write a corpus of synthetic texts with per-author signatures.

    ``disputed_from`` additionally emits one UNKNOWN-author text generated
    with the named author's style.
    """
    rng = np.random.default_rng(seed)
    styles = styles if styles is not None else three_author_styles()
    by_name = {s.name: s for s in styles}
    docs = []
    for author, count in texts_per_author.items():
        style = by_name[author]
        for i in range(count):
            docs.append(
                {
                    "id": f"{author.lower()}-{i:02d}",
                    "author": author,
                    "title": f"{author} text {i}",
                    "text": synth_text(rng, style, n_tokens),
                }
            )
    if disputed_from is not None:
        docs.append(
            {
                "id": "disputed-text",
                "author": "UNKNOWN",
                "title": "Disputed text",
                "text": synth_text(rng, by_name[disputed_from], n_tokens),
            }
        )
    return write_corpus(tmp_path, docs)


def make_orthogonal_corpus(
    tmp_path: Path,
    texts_per_author: dict[str, int] | None = None,
    n_tokens: int = 140,
    seed: int = 11,
) -> Path:
    """Corpus where each real signal lives in exactly one feature block.

    Author A (the verification target) and B share one syllable pool but
    use disjoint POS-tag distributions; A and C share POS distributions
    but use disjoint syllable pools. Word lengths are i.i.d. identical
    for everyone, so the token-length block is pure noise. Dropping the
    char block confuses A with C, dropping the POS block confuses A with
    B, and dropping token lengths costs nothing.
    """
    texts_per_author = texts_per_author or {"A": 5, "B": 5, "C": 5}
    rng = np.random.default_rng(seed)
    pool_one = ("bra", "gno", "phi", "zel")
    pool_two = ("mon", "tes", "cor", "dus")
    tags_one = ("T1", "T1", "T1", "T2", "T2", "T3")
    tags_two = ("T3", "T4", "T4", "T4", "T2", "T3")
    recipes = {
        "A": (pool_one, tags_one),
        "B": (pool_one, tags_two),
        "C": (pool_two, tags_one),
    }
    length_weights = np.asarray((0.3, 0.4, 0.3))

    docs = []
    for author, count in texts_per_author.items():
        pool, tags = recipes[author]
        for i in range(count):
            words: list[str] = []
            rows: list[tuple[str, str, str]] = []
            sentences: list[str] = []
            produced = 0
            while produced < n_tokens:
                n_words = int(rng.integers(5, 10))
                sentence_words = []
                for _ in range(n_words):
                    n_syll = 1 + int(rng.choice(3, p=length_weights))
                    word = "".join(
                        pool[int(rng.integers(0, len(pool)))] for _ in range(n_syll)
                    )
                    sentence_words.append(word)
                    rows.append((word, tags[int(rng.integers(0, len(tags)))], "dep"))
                sentences.append(" ".join(sentence_words) + ".")
                produced += n_words + 1
            docs.append(
                {
                    "id": f"{author.lower()}-{i:02d}",
                    "author": author,
                    "title": f"{author} {i}",
                    "text": " ".join(sentences),
                    "annotations": {
                        "rows": rows,
                        "name": "synthetic",
                        "pos_extra": ["T1", "T2", "T3", "T4"],
                    },
                }
            )
    return write_corpus(tmp_path, docs)


def make_imbalanced_corpus(tmp_path: Path, seed: int = 101) -> Path:
    """40 texts, 3 authors, one minority author with 4 texts.

    The minority author shares five of six syllables with one majority
    author and most of the word-length profile, so the boundary is tight:
    learners trained on the raw 4-vs-36 imbalance under-predict the
    minority, while oversampling recovers it. Tuned so that the gap is
    stable across generator seeds.
    """
    aldus_pool = ("bra", "gno", "phi", "zel", "qui", "ur")
    styles = [
        AuthorStyle(
            name="Aldus",
            syllables=aldus_pool,
            word_length_weights=(0.15, 0.3, 0.35, 0.2),
            own_syllable_prob=0.3,
        ),
        AuthorStyle(
            name="Benno",
            syllables=aldus_pool[:5] + ("mon",),
            word_length_weights=(0.2, 0.35, 0.3, 0.15),
            own_syllable_prob=0.3,
        ),
        AuthorStyle(
            name="Castor",
            syllables=("fle", "rix", "sau", "wen", "dol", "hac"),
            word_length_weights=(0.35, 0.4, 0.2, 0.05),
            own_syllable_prob=0.3,
        ),
    ]
    return make_styled_corpus(
        tmp_path,
        {"Aldus": 4, "Benno": 18, "Castor": 18},
        n_tokens=300,
        seed=seed,
        styles=styles,
    )


@pytest.fixture
def tiny_manifest(tmp_path: Path) -> Path:
    docs = [
        {
            "id": "alpha",
            "author": "Aldus",
            "title": "Alpha",
            "text": "aqua et terra manent. uox iouis tonat. unda mouet omnia semper.",
        },
        {
            "id": "beta",
            "author": "Benno",
            "title": "Beta",
            "text": "mons altus stat. petra dura manet hic. uallis umida patet late.",
        },
    ]
    return write_corpus(tmp_path, docs)


@pytest.fixture
def tiny_corpus(tiny_manifest: Path) -> Corpus:
    return load_corpus(tiny_manifest)
