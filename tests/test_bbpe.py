"""Tests for byte-level BPE training, encoding and persistence."""

import pytest
from hypothesis import given, settings, strategies as st

from desklm.bbpe import (
    FIRST_BYTE_ID,
    FIRST_MERGE_ID,
    NUM_SPECIALS,
    BbpeError,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_bbpe,
)
from desklm.corpus import Corpus, ingest_plaintext


def _byte_id(ch: str) -> int:
    return FIRST_BYTE_ID + ord(ch)


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
        assert abab_vocab.merges == (
            (a, b, FIRST_MERGE_ID),
            (FIRST_MERGE_ID, FIRST_MERGE_ID, FIRST_MERGE_ID + 1),
        )
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
        for left, right, result in czech_vocab.merges:
            assert (
                czech_vocab.tokens[result]
                == czech_vocab.tokens[left] + czech_vocab.tokens[right]
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


class TestPersistence:
    def test_save_load_save_is_byte_identical(self, czech_vocab):
        vocab_text, merge_text = save_vocab(czech_vocab)
        loaded = load_vocab(vocab_text, merge_text)
        assert save_vocab(loaded) == (vocab_text, merge_text)

    def test_unknown_token_reference_is_format_error(self, abab_vocab):
        vocab_text, _ = save_vocab(abab_vocab)
        bad_merges = f"{10 ** 6}\t0\t{FIRST_MERGE_ID}\n"
        with pytest.raises(BbpeError, match="unknown token reference"):
            load_vocab(vocab_text, bad_merges)

    def test_loaded_vocab_encodes_identically(self, czech_vocab):
        loaded = load_vocab(*save_vocab(czech_vocab))
        held_out = "ďábelské ódy zněly po louce"
        assert encode(loaded, held_out) == encode(czech_vocab, held_out)
