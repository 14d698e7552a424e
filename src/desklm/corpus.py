"""Corpus model and ingestion.

Documents are ordered lists of sentences; sentences are ordered lists of
tokens carrying optional morphology, dependency and entity annotation.
Supported inputs: whitespace-tokenized plain text (blank-line separated
documents) and CoNLL-U (``# newdoc`` starts documents).  All values are
immutable after construction and safe to share between threads: one
``ingest_conllu`` call parses each distinct FEATS column once, and every
token carrying that bundle shares the one parsed tuple.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence


class CorpusError(Exception):
    """Malformed corpus input."""


class ConlluParseError(CorpusError):
    """CoNLL-U syntax violation; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


_CONLLU_COLUMNS = 10


@dataclass(frozen=True, slots=True)
class Token:
    """Single syntactic word.

    ``head`` is a 0-based-root index: 0 means the artificial root, i > 0
    the i-th token of the sentence.  ``ufeats`` is a tuple of (feature,
    value) pairs, unique by feature and sorted lexicographically.
    ``deps`` and ``misc`` are unparsed passthrough columns kept so that
    CoNLL-U round-trips are byte-exact.
    """

    form: str
    lemma: str | None = None
    upos: str | None = None
    xpos: str | None = None
    ufeats: tuple[tuple[str, str], ...] | None = None
    head: int | None = None
    deprel: str | None = None
    deps: str | None = None
    misc: str | None = None

    def __post_init__(self):
        if not self.form:
            raise CorpusError("token form must be non-empty")
        if self.head is not None and self.head < 0:
            raise CorpusError(f"head must be >= 0, got {self.head}")
        ufeats = self.ufeats
        if ufeats and not _names_increase(ufeats):
            names = [name for name, _ in ufeats]
            if len(set(names)) != len(names):
                raise CorpusError(f"duplicate feature names in {ufeats}")
            if list(ufeats) != sorted(ufeats):
                raise CorpusError("ufeats must be sorted lexicographically")


def _names_increase(ufeats: tuple[tuple[str, str], ...]) -> bool:
    """True when each feature name is greater than the one before it: one
    pass that holds exactly when the names are unique and the pairs are
    sorted, so the two checks that name the fault run only when it fails."""
    previous = ufeats[0][0]
    for name, _ in ufeats[1:]:
        if not previous < name:
            return False
        previous = name
    return True


#: (start, end, label) with 1-based inclusive token indices.
EntitySpan = tuple[int, int, str]


@dataclass(frozen=True)
class Sentence:
    """Ordered tokens plus (possibly nested) entity spans.

    ``comments`` keeps CoNLL-U comment lines verbatim; ``extra_rows``
    keeps multiword-token ranges and empty-node lines as raw column
    tuples, positioned by the number of word lines preceding them.  Each
    extra row's column count and id are checked at construction (see
    :func:`_extra_row_fault`), so every path that builds a sentence gets
    the same CoNLL-U rules.
    """

    tokens: tuple[Token, ...]
    entity_spans: tuple[EntitySpan, ...] = ()
    comments: tuple[str, ...] = ()
    extra_rows: tuple[tuple[int, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        n = len(self.tokens)
        for tok in self.tokens:
            if tok.head is not None and tok.head > n:
                raise CorpusError(f"head {tok.head} out of range for length {n}")
        for start, end, label in self.entity_spans:
            if not (1 <= start <= end <= n):
                raise CorpusError(f"entity span ({start},{end},{label}) out of range")
        for a in self.entity_spans:
            for b in self.entity_spans:
                if a is not b and spans_cross(a, b):
                    raise CorpusError(f"entity spans {a} and {b} cross")
        for before, columns in self.extra_rows:
            if len(columns) != _CONLLU_COLUMNS:
                raise CorpusError(
                    f"extra row {columns[0]!r} has {len(columns)} columns,"
                    f" expected {_CONLLU_COLUMNS}"
                    if columns
                    else f"extra row is empty, expected {_CONLLU_COLUMNS} columns"
                )
            fault = _extra_row_fault(columns[0], before, n)
            if fault is not None:
                raise CorpusError(fault)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def forms(self) -> list[str]:
        return [tok.form for tok in self.tokens]

    @property
    def text(self) -> str:
        return " ".join(self.forms)

    @property
    def multiword_ranges(self) -> list[tuple[int, int, str]]:
        """(first word, last word, form), 1-based inclusive, per multiword row."""
        return [
            (before + 1, int(columns[0].partition("-")[2]), columns[1])
            for before, columns in self.extra_rows
            if "-" in columns[0]
        ]


def _id_number(text: str) -> int | None:
    """The value of one part of a CoNLL-U id: ASCII digits, else None."""
    return int(text) if text.isascii() and text.isdigit() else None


def _extra_row_fault(token_id: str, before: int, n: int) -> str | None:
    """What is wrong with the id of an extra row that follows ``before`` of
    a sentence's ``n`` words, or None.

    A range must be ``int-int``, start at the next word and end neither
    before its start nor past the last word; an empty node must be
    ``before.N``.
    """
    if not 0 <= before <= n:
        return f"extra row {token_id!r} is placed at {before}, outside 0..{n}"
    if "-" in token_id:
        first, _, last = token_id.partition("-")
        start, end = _id_number(first), _id_number(last)
        if start is None or end is None:
            return f"malformed multiword token range {token_id!r}"
        if start != before + 1:
            return f"multiword token range {token_id!r} must start at word {before + 1}"
        if end < start:
            return f"multiword token range {token_id!r} ends before it starts"
        if end > n:
            return f"multiword token range {token_id!r} ends past the sentence's last word {n}"
        return None
    whole, _, part = token_id.partition(".")
    if _id_number(whole) != before or _id_number(part) is None:
        return f"malformed empty node id {token_id!r}, expected {before}.N"
    return None


def spans_cross(a: EntitySpan, b: EntitySpan) -> bool:
    """True when the spans overlap and neither contains the other."""
    (s1, e1, _), (s2, e2, _) = a, b
    overlap = s1 <= e2 and s2 <= e1
    nested = (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2)
    return overlap and not nested


@dataclass(frozen=True)
class Document:
    """Ordered sentences under one document id."""

    id: str
    sentences: tuple[Sentence, ...]

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class Corpus:
    """Ordered documents; ``token_count`` is recomputed at construction."""

    documents: tuple[Document, ...]
    token_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "token_count", sum(d.token_count for d in self.documents)
        )

    def sentences(self) -> Iterable[Sentence]:
        for doc in self.documents:
            yield from doc.sentences


@dataclass(frozen=True)
class FoldSplit:
    """One fold of a k-fold split; the three id lists are disjoint."""

    fold_index: int
    train_ids: tuple[str, ...]
    dev_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def _read_bytes(stream: bytes | IO[bytes]) -> bytes:
    if isinstance(stream, (bytes, bytearray)):
        return bytes(stream)
    return stream.read()


def _decode_utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"invalid UTF-8 at byte offset {exc.start}") from exc


def ingest_plaintext(stream: bytes | IO[bytes]) -> Corpus:
    """Read plain text into a Corpus: one document per blank-line block,
    one sentence per line, tokens split on whitespace."""
    text = _decode_utf8(_read_bytes(stream))

    documents = []
    block: list[Sentence] = []
    for line in text.split("\n"):
        forms = line.split()
        if not forms:
            if block:
                documents.append(Document(f"doc{len(documents) + 1}", tuple(block)))
                block = []
            continue
        block.append(Sentence(tuple(Token(form=f) for f in forms)))
    if block:
        documents.append(Document(f"doc{len(documents) + 1}", tuple(block)))
    return Corpus(tuple(documents))


def _parse_feats(raw: str, line_number: int) -> tuple[tuple[str, str], ...] | None:
    if raw == "_":
        return None
    pairs = []
    for item in raw.split("|"):
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ConlluParseError(line_number, f"malformed feature {item!r}")
        pairs.append((name, value))
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ConlluParseError(line_number, f"duplicate feature names in {raw!r}")
    return tuple(sorted(pairs))


def ingest_conllu(stream: bytes | IO[bytes]) -> Corpus:
    """Parse CoNLL-U into a Corpus, one blank-line-separated block per
    sentence.

    Multiword-token ranges and empty nodes are recorded verbatim in
    ``Sentence.extra_rows`` (excluded from head indexing), and a malformed
    id raises with its own line; comments are preserved verbatim.
    ``# newdoc`` starts a new document, named by its ``id = ...`` value
    or else ``doc{n}`` by position.
    """
    text = _decode_utf8(_read_bytes(stream))
    # Raw FEATS column to its parsed tuple, shared by every token carrying it.
    bundles: dict[str, tuple[tuple[str, str], ...] | None] = {}
    groups: list[tuple[str | None, list[Sentence]]] = []
    # The trailing "" ends the last block even without a final newline.
    lines = text.split("\n")
    lines.append("")
    start = 0
    while start < len(lines):
        end = lines.index("", start)
        if end > start:
            new_doc, doc_id, sentence = _conllu_sentence(lines[start:end], start + 1, bundles)
            if new_doc or not groups:
                groups.append((doc_id, []))
            groups[-1][1].append(sentence)
        start = end + 1
    return Corpus(tuple(
        Document(doc_id or f"doc{k}", tuple(sentences))
        for k, (doc_id, sentences) in enumerate(groups, start=1)
    ))


def _conllu_sentence(
    rows: list[str],
    first_line: int,
    bundles: dict[str, tuple[tuple[str, str], ...] | None],
) -> tuple[bool, str | None, Sentence]:
    """One block's sentence, whether it starts a document, and the id its
    ``# newdoc`` gives (None without ``= id``)."""
    new_doc, doc_id = False, None
    comments: list[str] = []
    words: list[Token] = []
    extra_rows: list[tuple[int, tuple[str, ...]]] = []
    extra_lines: list[int] = []
    for idx, line in enumerate(rows, start=first_line):
        if line.startswith("#"):
            if words or extra_rows:
                raise ConlluParseError(idx, "comment after word lines")
            comments.append(line)
            if line.startswith("# newdoc"):
                new_doc = True
                _, sep, value = line.partition("=")
                doc_id = value.strip() if sep else None
            continue

        columns = line.split("\t")
        if len(columns) != _CONLLU_COLUMNS:
            raise ConlluParseError(
                idx, f"expected {_CONLLU_COLUMNS} tab-separated columns, got {len(columns)}"
            )
        token_id, form, lemma, upos, xpos, feats, head_raw, deprel, deps, misc = columns
        if "-" in token_id or "." in token_id:
            extra_rows.append((len(words), tuple(columns)))
            extra_lines.append(idx)
            continue
        if _id_number(token_id) != len(words) + 1:
            raise ConlluParseError(
                idx, f"unexpected token id {token_id!r}, expected {len(words) + 1}"
            )
        if head_raw == "_":
            head = None
        else:
            try:
                head = int(head_raw)
            except ValueError:
                raise ConlluParseError(idx, f"non-integer HEAD {head_raw!r}") from None
            if head < 0:
                raise ConlluParseError(idx, f"negative HEAD {head}")
        try:
            ufeats = bundles[feats]
        except KeyError:
            ufeats = bundles[feats] = _parse_feats(feats, idx)
        try:
            words.append(
                Token(
                    form,
                    None if lemma == "_" else lemma,
                    None if upos == "_" else upos,
                    None if xpos == "_" else xpos,
                    ufeats,
                    head,
                    None if deprel == "_" else deprel,
                    None if deps == "_" else deps,
                    None if misc == "_" else misc,
                )
            )
        except CorpusError as exc:
            raise ConlluParseError(idx, str(exc)) from exc

    end_line = first_line + len(rows)
    if not words:
        raise ConlluParseError(end_line, "sentence contains no word lines")
    try:
        sentence = Sentence(
            tokens=tuple(words), comments=tuple(comments), extra_rows=tuple(extra_rows)
        )
    except CorpusError as exc:
        # Name the faulty extra row's own line, not the block's end.
        for (before, columns), line in zip(extra_rows, extra_lines):
            fault = _extra_row_fault(columns[0], before, len(words))
            if fault is not None:
                raise ConlluParseError(line, fault) from exc
        raise ConlluParseError(end_line, str(exc)) from exc
    return new_doc, doc_id, sentence


def _feats_to_str(ufeats: tuple[tuple[str, str], ...] | None) -> str:
    if ufeats is None:
        return "_"
    return "|".join(f"{name}={value}" for name, value in ufeats)


def serialize_conllu(corpus: Corpus) -> str:
    """Inverse of :func:`ingest_conllu`: byte-exact for the ten annotated
    columns, comments and extra rows of well-formed inputs."""
    out = io.StringIO()
    for doc in corpus.documents:
        for sentence in doc.sentences:
            for comment in sentence.comments:
                out.write(comment + "\n")
            extra = {pos: [] for pos, _ in sentence.extra_rows}
            for pos, columns in sentence.extra_rows:
                extra[pos].append(columns)
            for i, tok in enumerate(sentence.tokens):
                for columns in extra.get(i, ()):
                    out.write("\t".join(columns) + "\n")
                out.write(
                    "\t".join(
                        [
                            str(i + 1),
                            tok.form,
                            tok.lemma or "_",
                            tok.upos or "_",
                            tok.xpos or "_",
                            _feats_to_str(tok.ufeats),
                            "_" if tok.head is None else str(tok.head),
                            tok.deprel or "_",
                            tok.deps or "_",
                            tok.misc or "_",
                        ]
                    )
                    + "\n"
                )
            for columns in extra.get(len(sentence.tokens), ()):
                out.write("\t".join(columns) + "\n")
            out.write("\n")
    return out.getvalue()


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def kfold_split(
    item_ids: Sequence[str],
    k: int = 10,
    dev_fraction: float = 0.10,
    seed: int = 0,
) -> list[FoldSplit]:
    """Deterministic k-fold split with a per-fold dev carve-out.

    Test folds partition ``item_ids`` with sizes differing by at most one;
    per fold, ``round(dev_fraction * |non-test|)`` items (half-up) are
    drawn from the non-test remainder as the dev set.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(item_ids) < k:
        raise ValueError(f"need at least k={k} items, got {len(item_ids)}")
    ids = [str(i) for i in item_ids]
    rng = random.Random(seed)
    shuffled = ids[:]
    rng.shuffle(shuffled)

    folds = []
    for fold in range(k):
        test = shuffled[fold::k]
        test_set = set(test)
        rest = [i for i in shuffled if i not in test_set]
        n_dev = _round_half_up(dev_fraction * len(rest))
        dev = rng.sample(rest, n_dev)
        dev_set = set(dev)
        train = [i for i in rest if i not in dev_set]
        folds.append(FoldSplit(fold, tuple(train), tuple(dev), tuple(test)))
    return folds
