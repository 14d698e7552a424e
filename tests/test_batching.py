"""Tests for FULL-SENTENCES packing and dynamic masking."""

import numpy as np
import pytest

from desklm import batching
from desklm.batching import (
    IGNORE_INDEX,
    MASK_POLICY,
    Sample,
    apply_dynamic_masking,
    build_mlm_batch,
    pack_full_sentences,
)
from desklm.bbpe import train_bbpe
from desklm.corpus import Corpus, Document, Sentence, Token, ingest_plaintext


def _word_corpus(sentence_word_counts, words_per_doc=None):
    """Corpus of single-letter words; each word encodes to >= 1 id."""
    sentences = [
        Sentence(tuple(Token(form="ab") for _ in range(n))) for n in sentence_word_counts
    ]
    if words_per_doc is None:
        return Corpus((Document("d1", tuple(sentences)),))
    docs, i = [], 0
    for d, count in enumerate(words_per_doc):
        docs.append(Document(f"d{d + 1}", tuple(sentences[i : i + count])))
        i += count
    return Corpus(tuple(docs))


@pytest.fixture(scope="module")
def vocab():
    return train_bbpe(ingest_plaintext(b"ab ab ab ab"), vocab_cap=266)


class TestPacking:
    def test_sample_closes_before_overflow(self, vocab):
        # Each "ab" word is one merged id; sentences of 200 ids each.
        corpus = _word_corpus([200, 200, 200])
        samples = pack_full_sentences(corpus, vocab, max_len=512)
        assert [len(s.ids) for s in samples] == [402, 202]

    def test_oversized_sentence_truncated_and_flagged(self, vocab):
        corpus = _word_corpus([600])
        samples = pack_full_sentences(corpus, vocab, max_len=512)
        assert len(samples) == 1
        assert len(samples[0].ids) == 512
        assert samples[0].truncated

    def test_bos_eos_framing(self, vocab):
        samples = pack_full_sentences(_word_corpus([5, 5]), vocab, max_len=64)
        for sample in samples:
            assert sample.ids[0] == vocab.special_tokens.bos
            assert sample.ids[-1] == vocab.special_tokens.eos

    def test_document_boundary_recorded_not_closing(self, vocab):
        corpus = _word_corpus([3, 4], words_per_doc=[1, 1])
        samples = pack_full_sentences(corpus, vocab, max_len=64)
        # Both documents run on in one sample: bos, 3 ids, 4 ids, eos.
        assert [len(s.ids) for s in samples] == [9]

    def test_stream_equality_oracle(self, vocab):
        from desklm.bbpe import encode

        corpus = _word_corpus([7, 13, 5, 20, 1, 9], words_per_doc=[2, 3, 1])
        samples = pack_full_sentences(corpus, vocab, max_len=32)
        specials = set(vocab.special_tokens)
        packed = [i for s in samples for i in s.ids if i not in specials]
        expected = [
            i for sent in corpus.sentences() for i in encode(vocab, sent.text).ids
        ]
        assert packed == expected


def _selected(targets):
    """Positions that masking selected: those with a target."""
    return tuple(int(p) for p in np.nonzero(targets != IGNORE_INDEX)[0])


class TestMasking:
    def _sample(self, vocab, n=64):
        bos, eos = vocab.special_tokens.bos, vocab.special_tokens.eos
        content = tuple(np.random.RandomState(0).randint(261, len(vocab.tokens), n))
        return Sample(ids=(bos, *map(int, content), eos))

    def test_zero_probability_is_identity(self, vocab):
        sample = self._sample(vocab)
        ids, targets = apply_dynamic_masking(sample, vocab, mask_prob=0.0, seed=1)
        assert tuple(ids) == sample.ids
        assert (targets == IGNORE_INDEX).all()

    def test_degenerate_policy_masks_everything(self, vocab, monkeypatch):
        monkeypatch.setattr(batching, "MASK_POLICY", (1.0, 0.0, 0.0))
        sample = self._sample(vocab)
        ids, targets = apply_dynamic_masking(sample, vocab, mask_prob=1.0, seed=1)
        eligible = [p for p, i in enumerate(sample.ids) if i not in set(vocab.special_tokens)]
        assert list(_selected(targets)) == eligible
        assert all(ids[p] == vocab.special_tokens.mask for p in eligible)
        assert all(targets[p] == sample.ids[p] for p in eligible)

    def test_specials_never_selected(self, vocab):
        sample = self._sample(vocab)
        _, targets = apply_dynamic_masking(sample, vocab, mask_prob=1.0, seed=2)
        positions = _selected(targets)
        assert 0 not in positions and len(sample.ids) - 1 not in positions

    def test_unselected_positions_unchanged(self, vocab):
        sample = self._sample(vocab)
        ids, targets = apply_dynamic_masking(sample, vocab, mask_prob=0.3, seed=3)
        selected = set(_selected(targets))
        for p, original in enumerate(sample.ids):
            if p not in selected:
                assert ids[p] == original
                assert targets[p] == IGNORE_INDEX
            else:
                assert targets[p] == original

    def test_same_seed_is_deterministic(self, vocab):
        sample = self._sample(vocab)
        a = apply_dynamic_masking(sample, vocab, seed=9)
        b = apply_dynamic_masking(sample, vocab, seed=9)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_different_seed_changes_corruption(self, vocab):
        sample = self._sample(vocab, n=128)
        a = apply_dynamic_masking(sample, vocab, seed=1)
        b = apply_dynamic_masking(sample, vocab, seed=2)
        assert _selected(a[1]) != _selected(b[1])

    def test_selection_rate_binomial_bound(self, vocab):
        # >= 100,000 eligible positions; 5 binomial sigmas around 0.15.
        sample = self._sample(vocab, n=1000)
        selected = total = 0
        for seed in range(110):
            _, targets = apply_dynamic_masking(sample, vocab, mask_prob=0.15, seed=seed)
            selected += len(_selected(targets))
            total += 1000
        assert total >= 100_000
        rate = selected / total
        assert 0.143 <= rate <= 0.157

    def test_policy_shares_binomial_bound(self, vocab):
        # Every eligible position is selected; 10,000 of them, and 5
        # binomial sigmas around the masked and the changed share.  A
        # random id equals the original once per non-special id.
        sample = self._sample(vocab, n=1000)
        random_ids = len(vocab.tokens) - len(vocab.special_tokens)
        mask = vocab.special_tokens.mask
        masked = changed = total = 0
        for seed in range(10):
            ids, targets = apply_dynamic_masking(sample, vocab, mask_prob=1.0, seed=seed)
            positions = _selected(targets)
            for p in positions:
                masked += int(ids[p] == mask)
                changed += int(ids[p] != mask and ids[p] != sample.ids[p])
            total += len(positions)
        assert total == 10_000
        expected = {
            "masked": (masked, MASK_POLICY[0]),
            "changed": (changed, MASK_POLICY[1] * (1 - 1 / random_ids)),
        }
        for name, (count, p) in expected.items():
            sigma = (p * (1 - p) / total) ** 0.5
            assert abs(count / total - p) <= 5 * sigma, name


class TestBatchAndSerialization:
    def test_batch_shapes_and_padding(self, vocab):
        samples = pack_full_sentences(_word_corpus([5, 9, 3]), vocab, max_len=16)
        batch = build_mlm_batch(samples, vocab, max_len=16, seed=4)
        assert batch.input_ids.shape == batch.target_ids.shape == (len(samples), 16)
        row_len = len(samples[-1].ids)
        assert (batch.input_ids[-1, row_len:] == vocab.special_tokens.pad).all()
        assert (batch.target_ids[-1, row_len:] == IGNORE_INDEX).all()
