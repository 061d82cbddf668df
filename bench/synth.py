"""Deterministic synthetic corpora for the benchmark.

Each author has a planted signature: a preferred syllable pool and a
word-length profile. The generator follows the styled-author corpus of
the test suite but is kept separate from it, so that editing a test
fixture cannot change the benchmark's inputs. The same (spec, seed)
always writes byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHARED_SYLLABLES = ("ta", "re", "mi", "no", "lu", "si", "ca", "de", "po", "ue")

FUNCTION_WORDS = ("et", "in", "ad", "non", "cum", "per", "ab", "ex")

DISPUTED_ID = "disputed-text"


@dataclass(frozen=True)
class AuthorStyle:
    name: str
    syllables: tuple[str, ...]
    word_length_weights: tuple[float, ...]  # P(word has 1, 2, ... syllables)
    own_syllable_prob: float = 0.6
    function_word_rate: float = 0.15


STYLES = (
    AuthorStyle("Aldus", ("bra", "gno", "phi", "ur", "zel", "qui"), (0.1, 0.2, 0.4, 0.3)),
    AuthorStyle("Benno", ("mon", "tes", "val", "cor", "dus", "pen"), (0.4, 0.4, 0.15, 0.05)),
    AuthorStyle("Castor", ("fle", "rix", "sau", "wen", "dol", "hac"), (0.25, 0.35, 0.3, 0.1)),
)


@dataclass(frozen=True)
class CorpusSpec:
    texts_per_author: tuple[tuple[str, int], ...]
    n_tokens: int
    disputed_from: str | None = None


def _word(rng: np.random.Generator, style: AuthorStyle) -> str:
    n = 1 + rng.choice(len(style.word_length_weights), p=np.asarray(style.word_length_weights))
    parts = []
    for _ in range(n):
        pool = style.syllables if rng.random() < style.own_syllable_prob else SHARED_SYLLABLES
        parts.append(pool[int(rng.integers(0, len(pool)))])
    return "".join(parts)


def make_text(rng: np.random.Generator, style: AuthorStyle, n_tokens: int) -> str:
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
                words.append(_word(rng, style))
        sentences.append(" ".join(words) + ".")
        produced += n_words + 1
    return " ".join(sentences)


def write_corpus(directory: Path, spec: CorpusSpec, seed: int) -> Path:
    """Write texts, a CSV manifest and a function-word list; return the manifest."""
    rng = np.random.default_rng(seed)
    by_name = {s.name: s for s in STYLES}
    docs = []
    for author, count in spec.texts_per_author:
        for i in range(count):
            docs.append((f"{author.lower()}-{i:02d}", author, f"{author} text {i}",
                         make_text(rng, by_name[author], spec.n_tokens)))
    if spec.disputed_from is not None:
        docs.append((DISPUTED_ID, "UNKNOWN", "Disputed text",
                     make_text(rng, by_name[spec.disputed_from], spec.n_tokens)))

    texts = directory / "texts"
    texts.mkdir(parents=True, exist_ok=True)
    manifest = directory / "manifest.csv"
    with manifest.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "author", "title", "genre", "text_path", "annotations_path"])
        for doc_id, author, title, text in docs:
            (texts / f"{doc_id}.txt").write_text(text, encoding="utf-8")
            writer.writerow([doc_id, author, title, "", f"texts/{doc_id}.txt", ""])
    (directory / "function_words.txt").write_text("\n".join(FUNCTION_WORDS) + "\n", encoding="utf-8")
    return manifest
