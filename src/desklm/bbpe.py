"""Byte-level BPE tokenizer with a bounded vocabulary.

The base alphabet is the 256 byte values, so any UTF-8 text round-trips
exactly through encode/decode.  Pre-tokenization is a simplified
whitespace rule: a pre-token is an optional single leading space plus a
run of non-whitespace; remaining whitespace runs stand alone.  Merges
never cross pre-token boundaries.  No unicode normalization is applied.

Training counts adjacent pairs over the distinct pre-tokens once and then
updates the counts per merge (Sennrich et al. 2016; SentencePiece): an
index from each pair to the pre-tokens holding it limits every merge to
the pre-tokens it changes, and a heap with lazy deletion finds the next
pair.  The cost per merge follows the pre-tokens it touches, not the
corpus size.
"""

from __future__ import annotations

import functools
import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple

from .corpus import Corpus


class BbpeError(Exception):
    """Tokenizer training or format failure."""


class SpecialTokens(NamedTuple):
    bos: int
    eos: int
    pad: int
    mask: int
    unk: int


SPECIAL_TOKEN_BYTES = (b"<s>", b"</s>", b"<pad>", b"<mask>", b"<unk>")
NUM_SPECIALS = len(SPECIAL_TOKEN_BYTES)
FIRST_BYTE_ID = NUM_SPECIALS
FIRST_MERGE_ID = NUM_SPECIALS + 256

_PRETOKEN_RE = re.compile(r" ?\S+|\s+(?!\S)|\s+")


@dataclass(frozen=True)
class ByteVocab:
    """Learned merge table plus token inventory.

    Ids 0..4 are the special tokens, ids 5..260 the single bytes, higher
    ids the merge results in training order.
    """

    tokens: tuple[bytes, ...]
    merges: tuple[tuple[int, int, int], ...]
    special_tokens: SpecialTokens = SpecialTokens(0, 1, 2, 3, 4)
    _pretoken_cache: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    def __post_init__(self):
        expected = FIRST_MERGE_ID + len(self.merges)
        if len(self.tokens) != expected:
            amount = "too few" if len(self.tokens) < expected else "too many"
            raise BbpeError(
                f"{amount} tokens: {len(self.tokens)} for {len(self.merges)} merges,"
                f" expected {expected}"
            )
        for i, raw in enumerate(SPECIAL_TOKEN_BYTES):
            if self.tokens[i] != raw:
                raise BbpeError(f"special token {i} must be {raw!r}")
        for b in range(256):
            if self.tokens[FIRST_BYTE_ID + b] != bytes([b]):
                raise BbpeError(f"token {FIRST_BYTE_ID + b} must be byte {b:#04x}")
        for n, (left, right, result) in enumerate(self.merges):
            if result != FIRST_MERGE_ID + n:
                raise BbpeError(f"merge {n} result id must be {FIRST_MERGE_ID + n}")
            if max(left, right) >= result:
                raise BbpeError(f"merge {n} uses a token created by a later merge")
            if self.tokens[result] != self.tokens[left] + self.tokens[right]:
                raise BbpeError(f"merge {n} output does not concatenate its operands")

    def __len__(self) -> int:
        return len(self.tokens)

    @functools.cached_property
    def merge_ranks(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(left, right) -> (rank, result id)."""
        return {
            (left, right): (rank, result)
            for rank, (left, right, result) in enumerate(self.merges)
        }


@dataclass(frozen=True)
class Encoding:
    """Token ids plus per-id (byte start, byte end) offsets into the source."""

    ids: tuple[int, ...]
    offsets: tuple[tuple[int, int], ...]


def _pretokenize(text: str) -> list[str]:
    return _PRETOKEN_RE.findall(text)


def _corpus_pretoken_counts(corpus: Corpus) -> Counter:
    counts: Counter = Counter()
    for sentence in corpus.sentences():
        counts.update(_pretokenize(sentence.text))
    return counts


def train_bbpe(corpus: Corpus, vocab_cap: int = 52000) -> ByteVocab:
    """Train the merge table on ``corpus`` up to ``vocab_cap`` tokens.

    The most frequent adjacent pair is merged each round; ties are broken
    by the pair whose operand tokens were created earliest (the larger of
    the two creation epochs, 0 for a byte and n for the n-th merge), then
    by the left and then the right operand's bytes.  Pairs occurring only
    once are never merged.

    Pair counts are kept incrementally.  A merge visits only the
    pre-tokens that hold its pair: each one's adjacent pairs are
    subtracted, the merge is applied left to right without overlap, and
    the new adjacent pairs are added back.  Recounting whole pre-tokens
    keeps overlapping runs exact (``"aaa"`` holds ``(a, a)`` twice but
    merges once).  The heap is keyed ``(-count, epoch, left bytes, right
    bytes)``; the last three never change for a pair, so an entry is
    stale exactly when its count differs from the live one.
    """
    if vocab_cap < 256 + NUM_SPECIALS:
        raise ValueError(f"vocab_cap must be >= {256 + NUM_SPECIALS}")
    if corpus.token_count == 0:
        raise BbpeError("cannot train on an empty corpus")

    tokens: list[bytes] = list(SPECIAL_TOKEN_BYTES) + [bytes([b]) for b in range(256)]
    creation_epoch: list[int] = [0] * len(tokens)
    merges: list[tuple[int, int, int]] = []

    words: list[list[int]] = []
    word_counts: list[int] = []
    for pretoken, count in _corpus_pretoken_counts(corpus).items():
        words.append([FIRST_BYTE_ID + b for b in pretoken.encode("utf-8")])
        word_counts.append(count)

    pair_counts: Counter = Counter()
    pair_words: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
    for index, (word, count) in enumerate(zip(words, word_counts)):
        for pair in zip(word, word[1:]):
            pair_counts[pair] += count
            pair_words[pair].add(index)

    def heap_entry(pair: tuple[int, int]) -> tuple:
        left, right = pair
        epoch = max(creation_epoch[left], creation_epoch[right])
        return (-pair_counts[pair], epoch, tokens[left], tokens[right], pair)

    # A pair below 2 is never merged, so only pairs at 2 or more are pushed;
    # an empty heap means no pair occurs twice.
    heap = [heap_entry(pair) for pair, count in pair_counts.items() if count >= 2]
    heapq.heapify(heap)

    while len(tokens) < vocab_cap:
        while heap:
            neg_count, *_, best = heapq.heappop(heap)
            if pair_counts[best] == -neg_count:
                break
        else:
            break
        new_id = len(tokens)
        tokens.append(tokens[best[0]] + tokens[best[1]])
        merges.append((best[0], best[1], new_id))
        creation_epoch.append(len(merges))

        delta: Counter = Counter()
        for index in list(pair_words[best]):
            word, count = words[index], word_counts[index]
            old_pairs = list(zip(word, word[1:]))
            _apply_merge_inplace(word, best, new_id)
            new_pairs = list(zip(word, word[1:]))
            for pair in old_pairs:
                delta[pair] -= count
            for pair in new_pairs:
                delta[pair] += count
            for pair in set(old_pairs).difference(new_pairs):
                pair_words[pair].discard(index)
            for pair in set(new_pairs).difference(old_pairs):
                pair_words[pair].add(index)

        for pair, change in delta.items():
            if not change:
                continue
            pair_counts[pair] += change
            if pair_counts[pair] == 0:
                del pair_counts[pair], pair_words[pair]
            elif pair_counts[pair] >= 2:
                heapq.heappush(heap, heap_entry(pair))

    return ByteVocab(tokens=tuple(tokens), merges=tuple(merges))


def _apply_merge_inplace(word: list[int], pair: tuple[int, int], new_id: int) -> None:
    i = 0
    while i < len(word) - 1:
        if word[i] == pair[0] and word[i + 1] == pair[1]:
            word[i : i + 2] = [new_id]
        else:
            i += 1


def _encode_pretoken(vocab: ByteVocab, pretoken: str) -> list[int]:
    """Ids for one pre-token: the lowest-ranked applicable merge first
    (cached per vocab)."""
    cached = vocab._pretoken_cache.get(pretoken)
    if cached is not None:
        return cached
    ids = [FIRST_BYTE_ID + b for b in pretoken.encode("utf-8")]
    ranks = vocab.merge_ranks
    while len(ids) > 1:
        hits = [ranks[pair] for pair in zip(ids, ids[1:]) if pair in ranks]
        if not hits:
            break
        rank, new_id = min(hits)
        _apply_merge_inplace(ids, vocab.merges[rank][:2], new_id)
    vocab._pretoken_cache[pretoken] = ids
    return ids


def encode(vocab: ByteVocab, text: str) -> Encoding:
    """Tokenize ``text``; offsets cover its UTF-8 bytes exactly."""
    ids: list[int] = []
    offsets: list[tuple[int, int]] = []
    byte_pos = 0
    for pretoken in _pretokenize(text):
        for token_id in _encode_pretoken(vocab, pretoken):
            length = len(vocab.tokens[token_id])
            ids.append(token_id)
            offsets.append((byte_pos, byte_pos + length))
            byte_pos += length
    return Encoding(ids=tuple(ids), offsets=tuple(offsets))


def decode(vocab: ByteVocab, ids: Iterable[int]) -> str:
    """Concatenate token bytes and UTF-8-decode with replacement."""
    parts = []
    for token_id in ids:
        if not 0 <= token_id < len(vocab.tokens):
            raise BbpeError(f"token id {token_id} out of range")
        parts.append(vocab.tokens[token_id])
    return b"".join(parts).decode("utf-8", errors="replace")


def save_vocab(vocab: ByteVocab) -> tuple[str, str]:
    """Serialize to (vocabulary file, merge file) text streams.

    Vocabulary lines are ``id<TAB>hex bytes``; merge lines are
    ``left-id<TAB>right-id<TAB>result-id`` in training order.
    """
    vocab_lines = [f"{i}\t{raw.hex()}" for i, raw in enumerate(vocab.tokens)]
    merge_lines = [f"{l}\t{r}\t{res}" for l, r, res in vocab.merges]
    return "\n".join(vocab_lines) + "\n", "".join(f"{line}\n" for line in merge_lines)


def load_vocab(vocab_stream: str | IO[str], merge_stream: str | IO[str]) -> ByteVocab:
    """Inverse of :func:`save_vocab`; validates merge consistency."""
    vocab_text = vocab_stream if isinstance(vocab_stream, str) else vocab_stream.read()
    merge_text = merge_stream if isinstance(merge_stream, str) else merge_stream.read()

    tokens: list[bytes] = []
    for number, line in enumerate(vocab_text.splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise BbpeError(f"vocab line {number}: expected 2 columns")
        try:
            token_id, raw = int(parts[0]), bytes.fromhex(parts[1])
        except ValueError as exc:
            raise BbpeError(f"vocab line {number}: {exc}") from None
        if token_id != len(tokens):
            raise BbpeError(f"vocab line {number}: ids must be sequential")
        tokens.append(raw)

    merges: list[tuple[int, int, int]] = []
    for number, line in enumerate(merge_text.splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise BbpeError(f"merge line {number}: expected 3 columns")
        try:
            left, right, result = (int(p) for p in parts)
        except ValueError:
            raise BbpeError(f"merge line {number}: non-integer id") from None
        for ref in (left, right, result):
            if not 0 <= ref < len(tokens):
                raise BbpeError(f"merge line {number}: unknown token reference {ref}")
        merges.append((left, right, result))

    try:
        return ByteVocab(tokens=tuple(tokens), merges=tuple(merges))
    except BbpeError as exc:
        raise BbpeError(f"inconsistent vocabulary/merge files: {exc}") from None
