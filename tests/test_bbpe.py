"""Tests for byte-level BPE training and encoding."""

import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from desklm.batching import pack_full_sentences
from desklm.bbpe import (
    FIRST_BYTE_ID,
    FIRST_MERGE_ID,
    NUM_SPECIALS,
    SPECIAL_TOKEN_BYTES,
    BbpeError,
    ByteVocab,
    _apply_merge_inplace,
    _corpus_pretoken_counts,
    _encode_pretoken,
    decode,
    encode,
    train_bbpe,
)
from desklm.corpus import Corpus, Document, Sentence, Token, ingest_plaintext

TINY_CORPUS = Path(__file__).resolve().parents[1] / "data" / "tiny_corpus.txt"
CZECH_LETTERS = "aábcčdďeéěfhiíjklmnňoóprřsštťuúůvyýzž"


def _byte_id(ch: str) -> int:
    return FIRST_BYTE_ID + ord(ch)


def _vocab_digest(vocab) -> str:
    """SHA-256 of ``id<TAB>hex`` per token, then ``left<TAB>right<TAB>result``
    per merge, the two parts joined by NUL: the record the golden merge
    tables were taken from."""
    tokens = "".join(f"{i}\t{raw.hex()}\n" for i, raw in enumerate(vocab.tokens))
    merges = "".join(
        f"{left}\t{right}\t{FIRST_MERGE_ID + n}\n" for n, (left, right) in enumerate(vocab.merges)
    )
    return hashlib.sha256(f"{tokens}\0{merges}".encode("utf-8")).hexdigest()


def _random_corpus(seed: int) -> Corpus:
    """1,500 lines of 3-12 words from 3,000 random Czech-letter words of
    1-8 letters, the word of rank r drawn with weight (r + 1) ** -0.6."""
    rng = random.Random(seed)
    words = ["".join(rng.choice(CZECH_LETTERS) for _ in range(rng.randint(1, 8)))
             for _ in range(3000)]
    weights = [(rank + 1) ** -0.6 for rank in range(len(words))]
    lines = [" ".join(rng.choices(words, weights, k=rng.randint(3, 12)))
             for _ in range(1500)]
    return ingest_plaintext("\n".join(lines).encode("utf-8"))


def _reference_merges(corpus: Corpus, vocab_cap: int) -> tuple:
    """The full-recount trainer: every pair over every pre-token type per merge."""
    tokens = list(SPECIAL_TOKEN_BYTES) + [bytes([b]) for b in range(256)]
    epoch = [0] * len(tokens)
    merges = []
    counted = _corpus_pretoken_counts(corpus)
    words = [[FIRST_BYTE_ID + b for b in pretoken.encode("utf-8")] for pretoken in counted]
    while len(tokens) < vocab_cap:
        pair_counts = Counter()
        for word, count in zip(words, counted.values()):
            for pair in zip(word, word[1:]):
                pair_counts[pair] += count
        best_count = max(pair_counts.values(), default=0)
        if best_count < 2:
            break
        best = min(
            (pair for pair, count in pair_counts.items() if count == best_count),
            key=lambda p: (max(epoch[p[0]], epoch[p[1]]), tokens[p[0]], tokens[p[1]]),
        )
        merges.append(best)
        tokens.append(tokens[best[0]] + tokens[best[1]])
        epoch.append(len(merges))
        for word in words:
            _apply_merge_inplace(word, best, len(tokens) - 1)
    return tuple(merges)


def _edge_corpus(kind: str, seed: int) -> Corpus:
    """40 sentences of 2-8 forms, built to stress one corner of the trainer."""
    rng = random.Random(f"{kind}/{seed}")
    if kind == "runs":  # one-byte runs ("aaaa") and repeated bigrams ("ababab")
        form = lambda: rng.choice(["a", "b", "ab", "ba", "aab"]) * rng.randint(1, 6)
    elif kind == "ties":  # few letters, uniform choice: many equal pair counts
        form = lambda: "".join(rng.choice("xyz") for _ in range(rng.randint(1, 4)))
    elif kind == "czech":  # two- and three-byte UTF-8 characters
        form = lambda: "".join(rng.choice("čěšžřůúý€a") for _ in range(rng.randint(1, 5)))
    else:  # "whitespace": forms that are whitespace runs become their own pre-tokens
        form = lambda: rng.choice(["a", "ab", " ", "\t", "\t\t", "\u00a0", "  \t"])
    sentences = tuple(
        Sentence(tuple(Token(form=form()) for _ in range(rng.randint(2, 8))))
        for _ in range(40)
    )
    return Corpus((Document("doc1", sentences),))


@pytest.fixture(scope="module")
def abab_vocab():
    return train_bbpe(ingest_plaintext(b"abab abab"), vocab_cap=300)


@pytest.fixture(scope="module")
def czech_vocab():
    text = "\n".join(
        [
            "Žluťoučký kůň úpěl ďábelské ódy",
            "kůň běží po louce a úpěl",
            "pes a kočka běží po louce",
            "kočka spí a pes úpěl ódy",
        ]
    )
    return train_bbpe(ingest_plaintext(text.encode("utf-8")), vocab_cap=300)


class TestTraining:
    def test_abab_merge_sequence_matches_hand_derivation(self, abab_vocab):
        # Pre-tokens "abab" and " abab": pair (a,b) occurs 4 times, then
        # (ab,ab) twice, then no pair reaches frequency 2.
        a, b = _byte_id("a"), _byte_id("b")
        assert abab_vocab.merges == ((a, b), (FIRST_MERGE_ID, FIRST_MERGE_ID))
        assert abab_vocab.tokens[FIRST_MERGE_ID] == b"ab"
        assert abab_vocab.tokens[FIRST_MERGE_ID + 1] == b"abab"

    def test_cap_equal_to_base_alphabet_means_no_merges(self):
        vocab = train_bbpe(ingest_plaintext(b"abab abab"), vocab_cap=256 + NUM_SPECIALS)
        assert vocab.merges == ()
        assert len(vocab) == 256 + NUM_SPECIALS

    def test_retraining_is_deterministic(self, czech_vocab):
        text = "\n".join(
            [
                "Žluťoučký kůň úpěl ďábelské ódy",
                "kůň běží po louce a úpěl",
                "pes a kočka běží po louce",
                "kočka spí a pes úpěl ódy",
            ]
        )
        again = train_bbpe(ingest_plaintext(text.encode("utf-8")), vocab_cap=300)
        assert again.merges == czech_vocab.merges
        assert again.tokens == czech_vocab.tokens

    def test_empty_corpus_raises(self):
        with pytest.raises(BbpeError):
            train_bbpe(Corpus(()), vocab_cap=400)

    def test_cap_never_exceeded(self, czech_vocab):
        assert len(czech_vocab) <= 300

    def test_merge_replay_reconstructs_inventory(self, czech_vocab):
        for n, (left, right) in enumerate(czech_vocab.merges):
            assert (
                czech_vocab.tokens[FIRST_MERGE_ID + n]
                == czech_vocab.tokens[left] + czech_vocab.tokens[right]
            )


class TestReferenceEquivalence:
    """The incremental trainer against the full-recount loop above."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["runs", "ties", "czech", "whitespace"])
    def test_merge_tables_match(self, kind, seed):
        corpus = _edge_corpus(kind, seed)
        reached = train_bbpe(corpus, vocab_cap=FIRST_MERGE_ID + 12)
        assert len(reached.merges) == 12
        assert reached.merges == _reference_merges(corpus, FIRST_MERGE_ID + 12)
        stopped = train_bbpe(corpus, vocab_cap=52000)
        assert FIRST_MERGE_ID + len(stopped.merges) < 52000
        assert stopped.merges == _reference_merges(corpus, 52000)

    # Lines of plain text, one long pre-token each: odd-length runs leave a
    # remainder at every doubling, and two copies of one pre-token let its
    # merges cascade to the whole of it.
    WORST_CASE = {
        "one-byte runs": ["a" * 257, "a" * 200, "aaa"],
        "repeated bigrams": ["ab" * 128, "ba" * 100, "b" + "ab" * 127],
        "cascade": ["ab" * 64, "ab" * 64],
    }

    @pytest.mark.parametrize("kind", sorted(WORST_CASE))
    def test_worst_case_pretokens_match(self, kind):
        corpus = ingest_plaintext("\n".join(self.WORST_CASE[kind]).encode("utf-8"))
        reached = train_bbpe(corpus, vocab_cap=FIRST_MERGE_ID + 4)
        assert len(reached.merges) == 4
        assert reached.merges == _reference_merges(corpus, FIRST_MERGE_ID + 4)
        stopped = train_bbpe(corpus, vocab_cap=52000)
        assert len(stopped.merges) > 4
        assert stopped.merges == _reference_merges(corpus, 52000)

    def test_cascade_merges_the_whole_pretoken(self):
        corpus = ingest_plaintext("\n".join(self.WORST_CASE["cascade"]).encode("utf-8"))
        vocab = train_bbpe(corpus, vocab_cap=52000)
        assert vocab.tokens[FIRST_MERGE_ID:] == tuple(b"ab" * 2 ** k for k in range(7))
        assert vocab._pretoken_cache == {"ab" * 64: [FIRST_MERGE_ID + 6]}

    def test_whitespace_corpus_has_whitespace_only_pretokens(self):
        counted = _corpus_pretoken_counts(_edge_corpus("whitespace", 1))
        assert any(pretoken.isspace() and len(pretoken) > 1 for pretoken in counted)


class TestSeededCache:
    """The trainer's merged pre-tokens stand in for encoding them again."""

    @pytest.mark.parametrize("name, cap", [("tiny", 400), ("random", 1500)])
    def test_cache_matches_a_cold_encode(self, name, cap):
        if name == "tiny":
            corpus = ingest_plaintext(TINY_CORPUS.read_bytes())
        else:
            corpus = _random_corpus(0)
        vocab = train_bbpe(corpus, vocab_cap=cap)
        cold = ByteVocab(vocab.merges)
        assert cold._pretoken_cache == {}
        assert vocab._pretoken_cache.keys() == _corpus_pretoken_counts(corpus).keys()
        for pretoken, ids in vocab._pretoken_cache.items():
            assert ids == _encode_pretoken(cold, pretoken), pretoken
        assert pack_full_sentences(corpus, vocab, max_len=64) == pack_full_sentences(
            corpus, cold, max_len=64
        )


class TestEncodeDecode:
    def test_empty_text(self, abab_vocab):
        assert encode(abab_vocab, "").ids == ()

    def test_unseen_characters_fall_back_to_bytes(self, abab_vocab):
        enc = encode(abab_vocab, "日本")
        assert abab_vocab.special_tokens.unk not in enc.ids
        assert all(FIRST_BYTE_ID <= i < FIRST_MERGE_ID for i in enc.ids)
        assert decode(abab_vocab, enc.ids) == "日本"

    def test_abab_encodes_to_single_merged_token(self, abab_vocab):
        enc = encode(abab_vocab, "abab")
        assert enc.ids == (FIRST_MERGE_ID + 1,)
        assert enc.offsets == ((0, 4),)

    def test_czech_round_trip(self, czech_vocab):
        text = "Žluťoučký kůň"
        assert decode(czech_vocab, encode(czech_vocab, text).ids) == text

    def test_decode_empty(self, abab_vocab):
        assert decode(abab_vocab, []) == ""

    def test_decode_rejects_out_of_range_id(self, abab_vocab):
        with pytest.raises(BbpeError):
            decode(abab_vocab, [len(abab_vocab.tokens)])

    def test_offsets_tile_the_input_bytes(self, czech_vocab):
        text = "kůň  a\tkočka\n"
        enc = encode(czech_vocab, text)
        expected_len = len(text.encode("utf-8"))
        position = 0
        for start, end in enc.offsets:
            assert start == position and end > start
            position = end
        assert position == expected_len

    @given(text=st.text(max_size=60))
    @settings(max_examples=300)
    def test_losslessness_fuzz(self, czech_vocab, text):
        assert decode(czech_vocab, encode(czech_vocab, text).ids) == text

    def test_monotone_compression(self):
        raw = "\n".join(
            ["pes a kočka běží", "kočka spí po louce", "pes běží po louce a spí"] * 3
        ).encode("utf-8")
        corpus = ingest_plaintext(raw)
        small = train_bbpe(corpus, vocab_cap=265)
        large = train_bbpe(corpus, vocab_cap=300)
        for sentence in corpus.sentences():
            n_small = len(encode(small, sentence.text).ids)
            n_large = len(encode(large, sentence.text).ids)
            assert n_large <= n_small


class TestConstructor:
    """A vocabulary is built from its merge list alone."""

    def test_operand_below_zero_is_rejected(self):
        with pytest.raises(BbpeError, match=r"merge 0 operand -1 .* \(0\.\.260\)"):
            ByteVocab(((-1, _byte_id("a")),))

    def test_merge_using_a_later_token_is_rejected(self):
        a, b, c = (_byte_id(ch) for ch in "abc")
        with pytest.raises(BbpeError, match=rf"merge 0 operand {FIRST_MERGE_ID + 1} "):
            ByteVocab(((FIRST_MERGE_ID + 1, c), (a, b)))

    def test_repeated_pair_is_rejected(self):
        a, b = _byte_id("a"), _byte_id("b")
        with pytest.raises(BbpeError, match=rf"^merge 1 repeats merge 0's pair \({a}, {b}\)$"):
            ByteVocab(((a, b),) * 2)

    def test_vocab_rebuilt_from_its_merges_equals_the_trained_one(self, czech_vocab):
        rebuilt = ByteVocab(czech_vocab.merges)
        assert rebuilt == czech_vocab
        assert rebuilt.tokens == czech_vocab.tokens
        held_out = "ďábelské ódy zněly po louce"
        assert encode(rebuilt, held_out) == encode(czech_vocab, held_out)


class TestGoldenMergeTables:
    """``_vocab_digest`` of each table, recorded with the full-recount trainer."""

    TINY = {
        261: (0, "a86e0302ea391f3a1468009430bf87e758f493069b74445e19281fc217c0c4b9"),
        300: (39, "ea5bbc9bd9b4ff85a9cd71a1e51d7cdfd1a579fa19492bc838dd5f8e10ae892e"),
        400: (139, "8d96e64f0af7b04b6af904dd8641dbe12980619add727c51fc1bc9f547822b2b"),
        52000: (149, "38bb809815c158e033ca9d95eee489d1916a78f7f398fb6bc5370d2ba98d14be"),
    }

    @pytest.mark.parametrize("cap", sorted(TINY))
    def test_tiny_corpus(self, cap):
        vocab = train_bbpe(ingest_plaintext(TINY_CORPUS.read_bytes()), vocab_cap=cap)
        assert (len(vocab.merges), _vocab_digest(vocab)) == self.TINY[cap]

    def test_random_corpus_of_3k_word_types(self):
        corpus = _random_corpus(seed=0)
        assert len(_corpus_pretoken_counts(corpus)) == 3226
        vocab = train_bbpe(corpus, vocab_cap=1500)
        assert len(vocab.merges) == 1239
        assert _vocab_digest(vocab) == (
            "bae5392c8b98e64906ca09b373bbc44dcb9e81d4fc92d575dc3408880b30cc01"
        )
