"""Trainable task models over sentence inputs.

One :class:`SequenceEncoder` turns a sentence into contextual states: it
builds the word and character vocabularies, embeds each token from three
streams (an end-to-end word embedding, a character-level BiGRU embedding
and optional frozen contextual vectors appended as-is), and runs three
stacked bidirectional GRU layers.  The encoder holds no weights: it reads
the ones it is given.

:class:`TaskModel` is the one model class.  It owns an encoder, the one
weight map ``params`` and a tuple of heads over the encoder states, which
are trained jointly (UDPipe 2 style).  A head is built from the training
sentences and has three methods:

- ``init(encoder, seed)`` returns its named weights, drawn from its own
  seed offset (tagger ``+100``, parser ``+300``/``+400``, CRF ``+500``,
  stack ``+600``);
- ``loss(params, states, sentence)`` returns a tuple of loss terms;
- ``predict(params, states, sentence)`` returns its prediction.

The heads are :class:`TaggerHead` (POS + lemma category),
:class:`ParserHead` (biaffine), :class:`CrfNerHead` (flat NER) and
:class:`StackNerHead` (nested NER).  The joint parser is
``(ParserHead, TaggerHead)``.  :func:`train` fits a model one sentence
per step through ``neural.mlm.train_step``, the step that the MLM and
sentiment loops share.
``predict`` runs on ``constants(params)`` and so builds no autograd graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from ..corpus import Sentence
from ..neural.layers import init_birnn_params, birnn_layer, mlm_loss, uniform_param, zeros_param
from ..neural.mlm import train_step
from ..neural.optim import AdamConfig, AdamState
from ..neural.tensor import Tensor, concat, constants
from .lemma import (
    EditScriptError,
    apply_edit_script,
    build_lemma_inventory,
    derive_edit_script,
)
from .ner import (
    bio_constraint_penalties,
    bio_label_set,
    bio_to_spans,
    crf_decode,
    crf_loss,
    decode_nested,
    encode_nested,
    parse_stack,
    render_stack,
    spans_to_bio,
)
from .parser import biaffine_scores, decode_tree, init_biaffine_params

UNK = "<unk>"

TRUNK_LAYERS = 3


def build_vocab(items: Sequence[str]) -> dict[str, int]:
    """Frequency-agnostic id map with <unk> at 0, insertion-ordered."""
    vocab = {UNK: 0}
    for item in items:
        vocab.setdefault(item, len(vocab))
    return vocab


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class FeaturizerConfig:
    word_dim: int = 24
    char_dim: int = 12
    char_hidden: int = 12
    contextual_dim: int = 0

    @property
    def output_dim(self) -> int:
        return self.word_dim + 2 * self.char_hidden + self.contextual_dim


class SequenceEncoder:
    """Vocabularies, token features and the three-layer BiGRU trunk shared
    by every task model.  ``init_params`` draws the encoder weights;
    ``featurize`` and ``encode`` read the weights they are passed."""

    def __init__(
        self,
        sentences: Sequence[Sentence],
        hidden: int,
        featurizer_config: FeaturizerConfig | None,
        dtype,
    ):
        forms = [t.form for s in sentences for t in s.tokens]
        self.word_vocab = build_vocab(forms)
        self.char_vocab = build_vocab([c for f in forms for c in f])
        self.config = featurizer_config or FeaturizerConfig()
        self.hidden = hidden
        self.dtype = dtype
        self.output_dim = 2 * hidden

    def init_params(self, seed: int) -> dict[str, Tensor]:
        config, dtype = self.config, self.dtype
        rng = _rng(seed)
        params = {
            "word_emb": uniform_param(
                rng, (len(self.word_vocab), config.word_dim), config.word_dim, dtype
            ),
            "char_emb": uniform_param(
                rng, (len(self.char_vocab), config.char_dim), config.char_dim, dtype
            ),
            **init_birnn_params(
                "char_rnn", config.char_dim, config.char_hidden, seed=seed + 1, dtype=dtype
            ),
        }
        dim = config.output_dim
        for layer in range(TRUNK_LAYERS):
            seed_layer = seed + 200 + layer
            params.update(init_birnn_params(f"rnn{layer}", dim, self.hidden, seed_layer, dtype))
            dim = self.output_dim
        return params

    def featurize(
        self,
        params: dict[str, Tensor],
        forms: Sequence[str],
        contextual: np.ndarray | None = None,
    ) -> Tensor:
        """(len(forms), output_dim) inputs from word ids, characters and
        frozen contextual vectors; ``contextual``, required when contextual_dim
        is nonzero, is (len(forms), contextual_dim), cast to the parameter dtype."""
        dtype = self.dtype
        expected = (len(forms), self.config.contextual_dim)
        if contextual is None and self.config.contextual_dim:
            raise ValueError(f"contextual features must have shape {expected}, but none were given")
        if contextual is not None and np.shape(contextual) != expected:
            raise ValueError(
                f"contextual features must have shape {expected}, got {np.shape(contextual)}"
            )
        word_ids = np.array(
            [self.word_vocab.get(form, 0) for form in forms], dtype=np.int64
        )
        word_vectors = params["word_emb"][word_ids]
        char_vectors = []
        hidden = self.config.char_hidden
        for form in forms:
            char_ids = np.array(
                [self.char_vocab.get(c, 0) for c in form], dtype=np.int64
            )
            states = birnn_layer(params["char_emb"][char_ids], params, "char_rnn")
            # Word vector: last forward state + first backward state.
            last_forward = states[len(form) - 1 : len(form), :hidden]
            first_backward = states[0:1, hidden:]
            char_vectors.append(concat([last_forward, first_backward], axis=1))
        features = concat([word_vectors, concat(char_vectors, axis=0)], axis=1)
        if self.config.contextual_dim:
            features = concat([features, Tensor(np.asarray(contextual, dtype=dtype))], axis=1)
        return features

    def encode(
        self,
        params: dict[str, Tensor],
        sentence: Sentence,
        contextual: np.ndarray | None = None,
    ) -> Tensor:
        """(n, output_dim) contextual states of ``sentence``."""
        states = self.featurize(params, sentence.forms, contextual)
        for layer in range(TRUNK_LAYERS):
            states = birnn_layer(states, params, f"rnn{layer}")
        return states


def linear_head(
    encoder: SequenceEncoder, rng: np.random.Generator, name: str, size: int
) -> dict[str, Tensor]:
    """``name.w`` and ``name.b`` of a linear map from the encoder states to
    ``size`` outputs."""
    dim = encoder.output_dim
    return {
        f"{name}.w": uniform_param(rng, (dim, size), dim, encoder.dtype),
        f"{name}.b": zeros_param((size,), encoder.dtype),
    }


def _linear(states: Tensor, params: dict[str, Tensor], name: str) -> Tensor:
    return states @ params[f"{name}.w"] + params[f"{name}.b"]


def _gold_ids(sentence: Sentence, what: str, labels: Sequence, lookup) -> list[int]:
    """Each token's gold label mapped through ``lookup``; a label it lacks,
    one no training sentence had, raises a ``ValueError`` naming the token."""
    ids = []
    for index, label in enumerate(labels):
        try:
            ids.append(lookup(label))
        except KeyError:
            raise ValueError(
                f"token {index + 1} {sentence.tokens[index].form!r} has {what} "
                f"{str(label)!r}, which the training sentences lack"
            ) from None
    return ids


class TaskModel:
    """The sequence encoder and one weight map shared by a tuple of heads.

    ``loss`` encodes the sentence once and adds every head's loss terms in
    head order; ``predict`` returns one prediction per head."""

    def __init__(
        self,
        sentences: Sequence[Sentence],
        heads: Sequence,
        hidden: int = 24,
        featurizer_config: FeaturizerConfig | None = None,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.sentences = list(sentences)
        self.heads = tuple(heads)
        self.encoder = SequenceEncoder(self.sentences, hidden, featurizer_config, dtype)
        self.params = self.encoder.init_params(seed)
        for head in self.heads:
            self.params.update(head.init(self.encoder, seed))

    def loss(self, sentence: Sentence, contextual=None) -> Tensor:
        states = self.encoder.encode(self.params, sentence, contextual)
        terms = [t for head in self.heads for t in head.loss(self.params, states, sentence)]
        return reduce(operator.add, terms)

    def predict(self, sentence: Sentence, contextual=None) -> list:
        params = constants(self.params)
        states = self.encoder.encode(params, sentence, contextual)
        return [head.predict(params, states, sentence) for head in self.heads]


def train(
    model: TaskModel,
    steps: int = 300,
    lr: float = 5e-3,
    seed: int = 0,
) -> list[float]:
    """Single-sentence Adam steps on sentences drawn uniformly from
    ``model.sentences``; returns the per-step losses."""
    state = AdamState()
    rng = _rng(seed)
    losses = []
    for _ in range(steps):
        sentence = model.sentences[int(rng.integers(0, len(model.sentences)))]
        losses.append(train_step(model.params, state, AdamConfig(), model.loss(sentence), lr))
    return losses


class TaggerHead:
    """Softmax POS tagger and lemma-category classifier."""

    def __init__(self, sentences: Sequence[Sentence]):
        self.tags = sorted({t.upos or "_" for s in sentences for t in s.tokens})
        self.tagset = {tag: i for i, tag in enumerate(self.tags)}
        self.inventory = build_lemma_inventory(
            [(t.form, t.lemma or t.form) for s in sentences for t in s.tokens]
        )

    def init(self, encoder: SequenceEncoder, seed: int) -> dict[str, Tensor]:
        rng = _rng(seed + 100)
        return {
            **linear_head(encoder, rng, "tag", len(self.tags)),
            **linear_head(encoder, rng, "lemma", len(self.inventory)),
        }

    def loss(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence) -> tuple:
        """(tag loss, lemma-category loss)."""
        tags = [t.upos or "_" for t in sentence.tokens]
        tag_ids = _gold_ids(sentence, "UPOS", tags, self.tagset.__getitem__)
        scripts = [derive_edit_script(t.form, t.lemma or t.form) for t in sentence.tokens]
        lemma_ids = _gold_ids(sentence, "lemma script", scripts, self.inventory.id_of)
        return (
            mlm_loss(_linear(states, params, "tag"), tag_ids),
            mlm_loss(_linear(states, params, "lemma"), lemma_ids),
        )

    def predict(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence):
        tag_ids = np.argmax(_linear(states, params, "tag").data, axis=-1)
        categories = np.argmax(_linear(states, params, "lemma").data, axis=-1)
        lemmas = []
        for token, category in zip(sentence.tokens, categories):
            script = self.inventory.categories[int(category)]
            try:
                lemmas.append(apply_edit_script(token.form, script))
            except EditScriptError:
                lemmas.append(token.form)
        return [self.tags[int(i)] for i in tag_ids], lemmas


class ParserHead:
    """Biaffine arc and relation scorer decoded to a tree."""

    def __init__(self, sentences: Sequence[Sentence], arc_dim: int = 24):
        self.labels = sorted({t.deprel or "_" for s in sentences for t in s.tokens})
        self.relations = {label: i for i, label in enumerate(self.labels)}
        self.arc_dim = arc_dim

    def init(self, encoder: SequenceEncoder, seed: int) -> dict[str, Tensor]:
        rng = _rng(seed + 300)
        dim, arc_dim, dtype = encoder.output_dim, self.arc_dim, encoder.dtype
        return {
            "head_proj": uniform_param(rng, (dim, arc_dim), dim, dtype),
            "dep_proj": uniform_param(rng, (dim, arc_dim), dim, dtype),
            "root_vec": uniform_param(rng, (1, arc_dim), arc_dim, dtype),
            **init_biaffine_params(arc_dim, len(self.labels), seed=seed + 400, dtype=dtype),
        }

    @staticmethod
    def _arc_scores(params: dict[str, Tensor], states: Tensor):
        heads = concat([params["root_vec"], states @ params["head_proj"]], axis=0)
        return biaffine_scores(heads, states @ params["dep_proj"], params)

    def loss(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence) -> tuple:
        """(arc loss, relation loss); every token needs a gold head."""
        gold_heads = [token.head for token in sentence.tokens]
        if None in gold_heads:
            index = gold_heads.index(None)
            raise ValueError(
                f"parser training requires annotated heads: token {index + 1} "
                f"{sentence.tokens[index].form!r} has no head"
            )
        gold_relations = _gold_ids(
            sentence, "relation", [t.deprel or "_" for t in sentence.tokens],
            self.relations.__getitem__,
        )
        scores = self._arc_scores(params, states)
        arc_loss = mlm_loss(scores.arc.transpose(1, 0), gold_heads)
        label_rows = scores.label[np.asarray(gold_heads), np.arange(len(gold_heads))]
        return arc_loss, mlm_loss(label_rows, gold_relations)

    def predict(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence):
        heads, label_ids = decode_tree(self._arc_scores(params, states))
        return heads, [self.labels[i] for i in label_ids]


class CrfNerHead:
    """Linear-chain CRF over BIO tags of flat entities."""

    def __init__(self, sentences: Sequence[Sentence]):
        self.labels = bio_label_set([span[2] for s in sentences for span in s.entity_spans])
        self.label_ids = {label: i for i, label in enumerate(self.labels)}

    def init(self, encoder: SequenceEncoder, seed: int) -> dict[str, Tensor]:
        # BIO constraints as fixed additive penalties, in the model dtype.
        transition, start = bio_constraint_penalties(self.labels)
        self.transition_penalty = transition.astype(encoder.dtype)
        self.start_penalty = start.astype(encoder.dtype)
        count = len(self.labels)
        return {
            **linear_head(encoder, _rng(seed + 500), "emit", count),
            "crf.transitions": zeros_param((count, count), encoder.dtype),
            "crf.start": zeros_param((count,), encoder.dtype),
        }

    def loss(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence) -> tuple:
        tags = spans_to_bio(sentence.entity_spans, len(sentence.tokens))
        return (
            crf_loss(
                _linear(states, params, "emit"),
                params["crf.transitions"] + self.transition_penalty,
                _gold_ids(sentence, "BIO tag", tags, self.label_ids.__getitem__),
                params["crf.start"] + self.start_penalty,
            ),
        )

    def predict(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence):
        path = crf_decode(
            _linear(states, params, "emit").data,
            params["crf.transitions"].data + self.transition_penalty,
            params["crf.start"].data + self.start_penalty,
        )
        return bio_to_spans([self.labels[i] for i in path])


class StackNerHead:
    """Per-token classifier over linearized entity stack strings, for
    nested entities."""

    def __init__(self, sentences: Sequence[Sentence]):
        self.stack_strings = ["O"]
        for sentence in sentences:
            for stack in encode_nested(sentence.entity_spans, len(sentence.tokens)):
                rendered = render_stack(stack)
                if rendered not in self.stack_strings:
                    self.stack_strings.append(rendered)
        self.stack_vocab = {s: i for i, s in enumerate(self.stack_strings)}

    def init(self, encoder: SequenceEncoder, seed: int) -> dict[str, Tensor]:
        return linear_head(encoder, _rng(seed + 600), "stack", len(self.stack_strings))

    def loss(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence) -> tuple:
        stacks = encode_nested(sentence.entity_spans, len(sentence.tokens))
        rendered = [render_stack(s) for s in stacks]
        targets = _gold_ids(sentence, "entity stack", rendered, self.stack_vocab.__getitem__)
        return (mlm_loss(_linear(states, params, "stack"), targets),)

    def predict(self, params: dict[str, Tensor], states: Tensor, sentence: Sentence):
        logits = _linear(states, params, "stack").data
        return decode_nested(
            [parse_stack(self.stack_strings[int(i)]) for i in np.argmax(logits, axis=-1)]
        )
