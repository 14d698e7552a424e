"""Morphosyntactic evaluation in the CoNLL 2018 shared-task style.

Gold and system corpora must carry the same raw text (concatenated forms
after whitespace removal).  Words are aligned by character spans, with
longest-common-subsequence alignment inside multiword-token regions.
The metric definitions follow the shared task exactly:

- UPOS/XPOS/UFeats/Lemmas count aligned words with equal annotation,
  UFeats restricted to the universal feature subset and deprels stripped
  of language-specific subtypes;
- UAS counts aligned words with aligned heads, LAS additionally requires
  the (base) relation label;
- MLAS restricts LAS to content words and additionally requires UPOS,
  the universal features and matching functional children (their
  alignment, deprel, UPOS and features);
- BLEX replaces MLAS's morphology condition with lemma equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..corpus import Corpus
from .counts import PrfCounts

CONTENT_DEPRELS = {
    "nsubj", "obj", "iobj", "csubj", "ccomp", "xcomp", "obl", "vocative",
    "expl", "dislocated", "advcl", "advmod", "discourse", "nmod", "appos",
    "nummod", "acl", "amod", "conj", "fixed", "flat", "compound", "list",
    "parataxis", "orphan", "goeswith", "reparandum", "root", "dep",
}

FUNCTIONAL_DEPRELS = {"aux", "cop", "mark", "det", "clf", "case", "cc"}

UNIVERSAL_FEATURES = {
    "PronType", "NumType", "Poss", "Reflex", "Foreign", "Abbr", "Gender",
    "Animacy", "Number", "Case", "Definite", "Degree", "VerbForm", "Mood",
    "Tense", "Aspect", "Voice", "Evident", "Polarity", "Person", "Polite",
}

_NOT_ALIGNED = "<not aligned>"


class ConlluEvalError(Exception):
    """Evaluation precondition violated (text mismatch, bad trees)."""


@dataclass(eq=False, slots=True)
class _Word:
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: str
    deprel: str
    span: tuple[int, int]
    is_multiword: bool
    parent: "_Word | None" = None
    functional_children: list["_Word"] = field(default_factory=list)
    #: The gold word this word stands for: itself on the gold side, the
    #: aligned gold word or _NOT_ALIGNED on the system side.
    ref: "_Word | str" = _NOT_ALIGNED

    @property
    def head_ref(self) -> "_Word | str | None":
        return None if self.parent is None else self.parent.ref

    @property
    def is_content(self) -> bool:
        return self.deprel in CONTENT_DEPRELS

    @property
    def is_functional(self) -> bool:
        return self.deprel in FUNCTIONAL_DEPRELS


#: Deletes the 17 space separators (Unicode category Zs).
_SPACE_SEPARATORS = str.maketrans(
    "", "", " \u00a0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"
)


def _strip_spaces(text: str) -> str:
    return text.translate(_SPACE_SEPARATORS)


def _filter_feats(ufeats) -> str:
    if not ufeats:
        return "_"
    kept = sorted(
        f"{name}={value}" for name, value in ufeats if name in UNIVERSAL_FEATURES
    )
    return "|".join(kept) if kept else "_"


def _tree_fault(heads: list[int | None]) -> str | None:
    """What keeps ``heads`` (1-based, 0 for the root) from forming one
    rooted tree, or None."""
    if any(h is None for h in heads):
        return "every word must carry a HEAD for evaluation"
    roots = heads.count(0)
    if roots == 0:
        return "unrooted sentence"
    if roots > 1:
        return "multiple roots in sentence"
    n = len(heads)
    for i in range(n):
        node, steps = i, 0
        while heads[node] != 0:
            node = heads[node] - 1
            steps += 1
            if steps > n:
                return "cycle in dependency tree"
    return None


def _flatten(corpus: Corpus) -> tuple[list[str], list[_Word]]:
    """Characters of the raw text plus one _Word per syntactic word."""
    characters: list[str] = []
    words: list[_Word] = []
    # Filtered FEATS per distinct bundle: ingest shares one tuple per bundle.
    filtered: dict[tuple[tuple[str, str], ...] | None, str] = {}
    located = (
        (doc.id, number, sentence)
        for doc in corpus.documents
        for number, sentence in enumerate(doc.sentences, start=1)
    )
    for doc_id, number, sentence in located:
        n = len(sentence.tokens)
        forms = [_strip_spaces(token.form) for token in sentence.tokens]
        range_info = {
            start - 1: (form, end - 1) for start, end, form in sentence.multiword_ranges
        }
        spans_by_word: dict[int, tuple[int, int]] = {}
        mwt_cover: set[int] = set()
        w = 0
        while w < n:
            if w in range_info:
                form, last = range_info[w]
                text = _strip_spaces(form)
                mwt_cover.update(range(w, last + 1))
            else:
                text, last = forms[w], w
            span = (len(characters), len(characters) + len(text))
            characters.extend(text)
            for i in range(w, last + 1):
                spans_by_word[i] = span
            w = last + 1

        for token in sentence.tokens:
            if token.ufeats not in filtered:
                filtered[token.ufeats] = _filter_feats(token.ufeats)
        sentence_words = [
            _Word(
                form=forms[i],
                lemma=token.lemma or "_",
                upos=token.upos or "_",
                xpos=token.xpos or "_",
                feats=filtered[token.ufeats],
                deprel=(token.deprel or "_").split(":")[0],
                span=spans_by_word[i],
                is_multiword=i in mwt_cover,
            )
            for i, token in enumerate(sentence.tokens)
        ]

        heads = [token.head for token in sentence.tokens]
        fault = _tree_fault(heads)
        if fault is not None:
            raise ConlluEvalError(f"document {doc_id!r}, sentence {number}: {fault}")
        for i, head in enumerate(heads):
            if head != 0:
                sentence_words[i].parent = sentence_words[head - 1]
        for word in sentence_words:
            if word.parent is not None and word.is_functional:
                word.parent.functional_children.append(word)
        words.extend(sentence_words)
    return characters, words


def _merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for span in sorted(spans):
        if merged and span[0] < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], span[1]))
        else:
            merged.append(span)
    return merged


def _lcs_pairs(gold: list[_Word], system: list[_Word]) -> list[tuple[_Word, _Word]]:
    a = [w.form.lower() for w in gold]
    b = [w.form.lower() for w in system]
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    pairs = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1] and table[i][j] == table[i - 1][j - 1] + 1:
            pairs.append((gold[i - 1], system[j - 1]))
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return pairs[::-1]


def _align_words(gold: list[_Word], system: list[_Word]) -> list[tuple[_Word, _Word]]:
    """Aligned (gold, system) pairs; sets every word's ``ref``."""
    multiword_spans = _merge_spans(
        [w.span for w in gold + system if w.is_multiword]
    )
    pairs: list[tuple[_Word, _Word]] = []
    gi = si = 0
    # A sentinel region past the text lets the last one-to-one walk run to
    # the end; one side is then exhausted, so its LCS chunk pairs nothing.
    for start, end in [*multiword_spans, (math.inf, math.inf)]:
        while (
            gi < len(gold)
            and si < len(system)
            and (gold[gi].span[0] < start or system[si].span[0] < start)
        ):
            if gold[gi].span == system[si].span:
                pairs.append((gold[gi], system[si]))
                gi += 1
                si += 1
            elif gold[gi].span[0] <= system[si].span[0]:
                gi += 1
            else:
                si += 1
        gold_chunk = []
        while gi < len(gold) and gold[gi].span[1] <= end:
            gold_chunk.append(gold[gi])
            gi += 1
        system_chunk = []
        while si < len(system) and system[si].span[1] <= end:
            system_chunk.append(system[si])
            si += 1
        pairs.extend(_lcs_pairs(gold_chunk, system_chunk))
    for word in gold:
        word.ref = word
    for gold_word, system_word in pairs:
        system_word.ref = gold_word
    return pairs


def _alignment_score(
    pairs: list[tuple[_Word, _Word]],
    gold: list[_Word],
    system: list[_Word],
    key: Callable[[_Word], object],
    keep: Callable[[_Word], bool] | None = None,
) -> PrfCounts:
    if keep is None:
        gold_total, system_total = len(gold), len(system)
        considered = pairs
    else:
        gold_total = sum(1 for w in gold if keep(w))
        system_total = sum(1 for w in system if keep(w))
        considered = [p for p in pairs if keep(p[0])]
    correct = sum(1 for gold_word, system_word in considered
                  if key(gold_word) == key(system_word))
    return PrfCounts(correct, system_total, gold_total)


@dataclass(frozen=True)
class ConlluEvalReport:
    """The eight shared-task metrics, each as raw counts; F1 values are
    percentages in [0, 100]."""

    upos: PrfCounts
    xpos: PrfCounts
    ufeats: PrfCounts
    lemmas: PrfCounts
    uas: PrfCounts
    las: PrfCounts
    mlas: PrfCounts
    blex: PrfCounts

    METRIC_NAMES = ("UPOS", "XPOS", "UFeats", "Lemmas", "UAS", "LAS", "MLAS", "BLEX")

    def scores(self) -> dict[str, float]:
        return {
            name: getattr(self, name.lower()).f1_percent for name in self.METRIC_NAMES
        }


def eval_conllu(gold: Corpus, system: Corpus) -> ConlluEvalReport:
    """Score ``system`` against ``gold``; both must share the raw text."""
    gold_chars, gold_words = _flatten(gold)
    system_chars, system_words = _flatten(system)
    if gold_chars != system_chars:
        prefix = 0
        for g, s in zip(gold_chars, system_chars):
            if g != s:
                break
            prefix += 1
        raise ConlluEvalError(
            "gold and system raw texts differ "
            f"(lengths {len(gold_chars)} vs {len(system_chars)}, "
            f"first difference at character {prefix})"
        )

    pairs = _align_words(gold_words, system_words)

    def score(key, keep=None) -> PrfCounts:
        return _alignment_score(pairs, gold_words, system_words, key, keep)

    def lemma_key(word: _Word):
        return word.lemma if word.ref.lemma != "_" else "_"

    return ConlluEvalReport(
        upos=score(lambda w: w.upos),
        xpos=score(lambda w: w.xpos),
        ufeats=score(lambda w: w.feats),
        lemmas=score(lemma_key),
        uas=score(lambda w: w.head_ref),
        las=score(lambda w: (w.head_ref, w.deprel)),
        mlas=score(
            lambda w: (
                w.head_ref,
                w.deprel,
                w.upos,
                w.feats,
                [(c.ref, c.deprel, c.upos, c.feats) for c in w.functional_children],
            ),
            keep=lambda w: w.is_content,
        ),
        blex=score(
            lambda w: (w.head_ref, w.deprel, lemma_key(w)),
            keep=lambda w: w.is_content,
        ),
    )
