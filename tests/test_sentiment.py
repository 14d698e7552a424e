"""Tests for the sentiment reader and the k-fold fine-tuning protocol."""

import gc
import hashlib

import numpy as np
import pytest

from desklm.bbpe import train_bbpe
from desklm.corpus import ingest_plaintext
from desklm.heads import sentiment
from desklm.heads.sentiment import (
    SentimentEncoder,
    SentimentError,
    read_sentiment_tsv,
    run_sentiment_protocol,
)
from desklm.neural.layers import TransformerConfig, init_transformer_params
from desklm.neural.tensor import Tensor

import reference_ops

TEXTS = [
    ("p", "super film, doporučuji"),
    ("n", "hrozná nuda, nedoporučuji"),
    ("0", "film běží v kině"),
    ("p", "skvělé herecké výkony"),
    ("n", "špatný scénář a nuda"),
    ("0", "v sobotu jdu do kina"),
    ("p", "krásná hudba, super"),
    ("n", "hrozné, škoda peněz"),
    ("0", "kino je na náměstí"),
    ("p", "doporučuji, skvělé"),
    ("n", "nuda a špatné herectví"),
    ("0", "film trvá dvě hodiny"),
    ("p", "super zážitek"),
    ("n", "nedoporučuji, hrozné"),
    ("0", "lístky stojí sto korun"),
    ("p", "skvělý film"),
]


def _items():
    return read_sentiment_tsv("".join(f"{label}\t{text}\n" for label, text in TEXTS))


def _encoder():
    corpus = ingest_plaintext("\n".join(text for _, text in TEXTS).encode("utf-8"))
    vocab = train_bbpe(corpus, vocab_cap=300)
    config = TransformerConfig(
        layers=1, hidden=8, heads=2, ff_dim=16, vocab_size=len(vocab), max_positions=32
    )
    params = init_transformer_params(config, seed=7, dtype=np.float64)
    return SentimentEncoder(config=config, params=params, vocab=vocab)


def _train_fold(encoder=None, warmup_epochs=0.5, decay_epochs=0.5):
    encoder = encoder or _encoder()
    items = _items()
    id_lists = [encoder.item_ids(item.text) for item in items]
    targets = np.array(
        [sentiment.LABELS.index(item.label) for item in items], dtype=np.int64
    )
    return sentiment._train_one_fold(
        encoder, id_lists, targets, list(range(10)), 1e-2, 11, 4, 5e-2,
        warmup_epochs, decay_epochs,
    )


def _fold_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


PROTOCOL = dict(
    lr_grid=(1e-2,), k=2, seed=4, batch_size=4, classifier_lr=5e-2,
    dev_fraction=0.5, warmup_epochs=0.5, decay_epochs=0.5,
)

# Recorded before the classifier loss was routed through the shared
# cross-entropy; exact equality pins the whole float64 protocol.
GOLDEN_DEV_MEANS = {0.01: 6.666666666666667}
GOLDEN_FOLDS = [(0, 0.0, 20.0), (1, 13.333333333333334, 18.18181818181818)]
GOLDEN_TEST_MEAN = 19.09090909090909
GOLDEN_TEST_STD = 0.9090909090909101
# The one-fold digest was recorded with the fused layer norm, softmax and
# GELU; the reference digest before the fusion, which the reference ops
# reproduce.  Both were re-recorded over the 20 names a fold returns once
# it stopped copying the masked-LM head: the same tensors, minus the four
# never-trained ``mlm.*`` ones.
GOLDEN_FOLD_DIGEST = '86dd528eba6a0cdf9e1346e698ce8d6731f76407cc266f00f5c0c3b2c0e990a4'
REFERENCE_FOLD_DIGEST = '5982b0f2fcec060838ccdb7eb65dd34fa079904024eb07c7e165a9bcc9970b03'


class TestReader:
    def test_aliases_map_to_labels(self):
        items = read_sentiment_tsv("p\tdobré\nn\tšpatné\n0\tnic\n")
        assert [item.label for item in items] == ["positive", "negative", "neutral"]

    def test_missing_tab_names_the_line(self):
        with pytest.raises(SentimentError, match=r"line 2: expected label<TAB>text"):
            read_sentiment_tsv("p\tdobré\nbez tabulátoru\n")

    def test_unknown_label_names_the_line(self):
        with pytest.raises(SentimentError, match=r"line 3: unknown label 'x'"):
            read_sentiment_tsv("p\tdobré\n\nx\tnevím\n")


class TestGoldenProtocol:
    def test_protocol_scores(self):
        result = run_sentiment_protocol(_items(), _encoder(), **PROTOCOL)
        assert result.selected_lr == 1e-2
        assert result.dev_means == GOLDEN_DEV_MEANS
        folds = [(o.fold_index, o.dev_f1, o.test_f1) for o in result.fold_outcomes]
        assert folds == GOLDEN_FOLDS
        assert (result.test_mean, result.test_std) == (GOLDEN_TEST_MEAN, GOLDEN_TEST_STD)

    def test_one_fold_parameters(self):
        assert _fold_digest(_train_fold()) == GOLDEN_FOLD_DIGEST

    def test_reference_ops_reproduce_recorded_fold(self, monkeypatch):
        reference_ops.install(monkeypatch)
        assert _fold_digest(_train_fold()) == REFERENCE_FOLD_DIGEST

    def test_frozen_epoch_trains_only_the_classifier(self):
        # warmup + decay < 1 leaves only the frozen first epoch.
        encoder = _encoder()
        params = _train_fold(encoder, warmup_epochs=0.25, decay_epochs=0.25)
        assert not [name for name in params if name.startswith("mlm.")]
        for name in params.keys() - {"cls.w", "cls.b"}:
            assert np.array_equal(params[name].data, encoder.params[name].data), name
        assert np.any(params["cls.w"].data != 0.0)

    def test_fused_ops_match_reference_ops(self, monkeypatch):
        params = _train_fold()
        reference_ops.install(monkeypatch)
        reference = _train_fold()
        for name, p in params.items():
            assert np.max(np.abs(p.data - reference[name].data)) <= 1e-9, name


def test_frozen_encoder_and_predict_build_no_graph(monkeypatch):
    captured = []
    forward = sentiment.forward_transformer

    def capturing(*args, **kwargs):
        outputs = forward(*args, **kwargs)
        captured.extend(outputs)
        return outputs

    monkeypatch.setattr(sentiment, "forward_transformer", capturing)
    encoder = _encoder()
    id_lists = [encoder.item_ids(item.text) for item in _items()]
    params = encoder.copy_params()
    params["cls.w"] = Tensor(np.ones((encoder.config.hidden, 3)), requires_grad=True)
    params["cls.b"] = Tensor(np.zeros(3), requires_grad=True)
    frozen = sentiment._document_embeddings(
        encoder.config, params, encoder.vocab, id_lists, frozen=True
    )
    predicted = sentiment._predict(encoder.config, params, encoder.vocab, id_lists, 4)
    assert len(predicted) == len(id_lists)
    assert captured
    assert not frozen.requires_grad
    assert not any(t.requires_grad for t in captured)
    trained = sentiment._document_embeddings(
        encoder.config, params, encoder.vocab, id_lists, frozen=False
    )
    assert trained.requires_grad
    assert np.array_equal(trained.data, frozen.data)


def test_each_fold_step_frees_its_graph_before_the_next_forward_pass(monkeypatch):
    live = []
    embed = sentiment._document_embeddings

    def counting(*args, **kwargs):
        live.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))
        return embed(*args, **kwargs)

    monkeypatch.setattr(sentiment, "_document_embeddings", counting)
    encoder = _encoder()
    gc.collect()
    _train_fold(encoder)
    # Three batches in each of two epochs, the first with a frozen encoder.
    assert live == [live[0]] * 6
