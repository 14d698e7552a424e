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

Each side is flattened once per call, and all eight counts come from one
pass over the aligned pairs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

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

_NOT_ALIGNED = -1


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
    #: Index of the parent in its side's word list; None for the root.
    head: int | None = None
    functional_children: list["_Word"] = field(default_factory=list)
    #: Index of the gold word this word stands for: its own on the gold
    #: side, the aligned gold word's or _NOT_ALIGNED on the system side.
    ref: int = _NOT_ALIGNED
    #: The parent's ``ref``, or None for the root; set with the refs.
    head_ref: int | None = None


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
    # The first walk that reached each word.  Every earlier walk ended at
    # the root, so a walk that meets an earlier walk's word reaches it too,
    # and each word is walked through once.
    walk = [-1] * len(heads)
    for i in range(len(heads)):
        node = i
        while walk[node] < 0:
            walk[node] = i
            if heads[node] == 0:
                break
            node = heads[node] - 1
        else:
            if walk[node] == i:
                return "cycle in dependency tree"
    return None


def _flatten(corpus: Corpus) -> tuple[str, list[_Word]]:
    """The raw text plus one _Word per syntactic word."""
    pieces: list[str] = []
    offset = 0
    words: list[_Word] = []
    # What the metrics compare, once per distinct FEATS bundle (ingest
    # shares one tuple per bundle) and per DEPREL.
    feats_of: dict[tuple[tuple[str, str], ...] | None, str] = {}
    deprel_of: dict[str | None, str] = {}
    for doc in corpus.documents:
        for number, sentence in enumerate(doc.sentences, start=1):
            heads = [token.head for token in sentence.tokens]
            fault = _tree_fault(heads)
            if fault is not None:
                raise ConlluEvalError(f"document {doc.id!r}, sentence {number}: {fault}")
            ranges = {
                first - 1: (last - 1, _strip_spaces(form))
                for first, last, form in sentence.multiword_ranges
            }
            base = len(words)
            functional: list[int] = []
            # The last word of the multiword token being walked, if any.
            covered = -1
            for i, token in enumerate(sentence.tokens):
                form = _strip_spaces(token.form)
                if i > covered:
                    if i in ranges:
                        covered, text = ranges[i]
                    else:
                        text = form
                    pieces.append(text)
                    span = (offset, offset + len(text))
                    offset = span[1]
                if token.ufeats not in feats_of:
                    feats_of[token.ufeats] = _filter_feats(token.ufeats)
                if token.deprel not in deprel_of:
                    deprel_of[token.deprel] = (token.deprel or "_").split(":")[0]
                deprel = deprel_of[token.deprel]
                head = token.head
                if head and deprel in FUNCTIONAL_DEPRELS:
                    functional.append(base + i)
                words.append(_Word(
                    form,
                    token.lemma or "_",
                    token.upos or "_",
                    token.xpos or "_",
                    feats_of[token.ufeats],
                    deprel,
                    span,
                    i <= covered,
                    base + head - 1 if head else None,
                ))
            # Integer heads: a child holding its parent would form a cycle
            # with the parent's functional_children, and outlive the call.
            for child in functional:
                words[words[child].head].functional_children.append(words[child])
    return "".join(pieces), words


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
    """Aligned (gold, system) pairs; sets every word's ``ref`` and ``head_ref``."""
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
    for index, word in enumerate(gold):
        word.ref = index
    for gold_word, system_word in pairs:
        system_word.ref = gold_word.ref
    for words in (gold, system):
        for word in words:
            if word.head is not None:
                word.head_ref = words[word.head].ref
    return pairs


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


def _functional_children(word: _Word) -> list[tuple[int, str, str, str]]:
    """What MLAS compares of a word's functional children."""
    return [(c.ref, c.deprel, c.upos, c.feats) for c in word.functional_children]


def _locate(side: str, corpus: Corpus, words: list[_Word], at: int) -> str:
    """The document and sentence of ``side`` whose raw text holds character
    ``at``."""
    index = next((i for i, word in enumerate(words) if word.span[1] > at), len(words))
    for doc in corpus.documents:
        for number, sentence in enumerate(doc.sentences, start=1):
            if index < len(sentence):
                return f"{side} document {doc.id!r}, sentence {number}"
            index -= len(sentence)
    return f"the end of the {side} text"


def eval_conllu(gold: Corpus, system: Corpus) -> ConlluEvalReport:
    """Score ``system`` against ``gold``; both must share the raw text."""
    gold_text, gold_words = _flatten(gold)
    system_text, system_words = _flatten(system)
    if gold_text != system_text:
        at = len(os.path.commonprefix([gold_text, system_text]))
        raise ConlluEvalError(
            "gold and system raw texts differ "
            f"(lengths {len(gold_text)} vs {len(system_text)}, first difference at "
            f"character {at}: {_locate('gold', gold, gold_words, at)} and "
            f"{_locate('system', system, system_words, at)})"
        )

    upos = xpos = ufeats = lemmas = uas = las = mlas = blex = 0
    for g, s in _align_words(gold_words, system_words):
        upos_match = g.upos == s.upos
        feats_match = g.feats == s.feats
        # A gold lemma of "_" is unannotated and matches any system lemma.
        lemma_match = g.lemma == "_" or g.lemma == s.lemma
        upos += upos_match
        xpos += g.xpos == s.xpos
        ufeats += feats_match
        lemmas += lemma_match
        if g.head_ref == s.head_ref:
            uas += 1
            if g.deprel == s.deprel:
                las += 1
                if g.deprel in CONTENT_DEPRELS:
                    blex += lemma_match
                    if (upos_match and feats_match
                            and _functional_children(g) == _functional_children(s)):
                        mlas += 1

    word_totals = (len(system_words), len(gold_words))
    content_totals = (
        sum(w.deprel in CONTENT_DEPRELS for w in system_words),
        sum(w.deprel in CONTENT_DEPRELS for w in gold_words),
    )
    return ConlluEvalReport(
        upos=PrfCounts(upos, *word_totals),
        xpos=PrfCounts(xpos, *word_totals),
        ufeats=PrfCounts(ufeats, *word_totals),
        lemmas=PrfCounts(lemmas, *word_totals),
        uas=PrfCounts(uas, *word_totals),
        las=PrfCounts(las, *word_totals),
        mlas=PrfCounts(mlas, *content_totals),
        blex=PrfCounts(blex, *content_totals),
    )
