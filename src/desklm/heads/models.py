"""Trainable task models over sentence inputs.

One :class:`SequenceEncoder` turns a sentence into contextual states: it
builds the word and character vocabularies, embeds each token from three
streams (an end-to-end word embedding, a character-level BiGRU embedding
and optional frozen contextual vectors appended as-is), and runs three
stacked bidirectional GRU layers.  The encoder holds no weights: it reads
the ones it is given.  Every task model owns one encoder and one weight
map, ``params``, with the encoder's weights and its heads over the
states: softmax taggers (POS + lemma category), a biaffine parser trained
jointly with the taggers, and CRF or stack-string classifiers for NER.
Each model exposes ``sentences``, ``params`` and ``loss(sentence)``, and
:func:`train` is the one training loop for all of them.  ``predict`` runs
on ``constants(self.params)`` and so builds no autograd graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus import Sentence
from ..neural.layers import init_birnn_params, birnn_layer, mlm_loss, uniform_param, zeros_param
from ..neural.optim import AdamConfig, AdamState, adam_step, zero_grads
from ..neural.tensor import Tensor, concat, constants
from .lemma import (
    EditScriptError,
    LemmaCategoryInventory,
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
    validate_bio,
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
        rng = np.random.Generator(np.random.PCG64(seed))
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
        optional frozen contextual vectors; ``contextual`` must be
        (len(forms), contextual_dim) and is cast to the parameter dtype."""
        dtype = self.dtype
        expected = (len(forms), self.config.contextual_dim)
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
            if contextual is None:
                contextual = np.zeros(expected, dtype=dtype)
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

    def linear_head(self, rng: np.random.Generator, name: str, size: int) -> dict[str, Tensor]:
        """``name.w`` and ``name.b`` of a linear map from the states to
        ``size`` outputs."""
        dim = self.output_dim
        return {
            f"{name}.w": uniform_param(rng, (dim, size), dim, self.dtype),
            f"{name}.b": zeros_param((size,), self.dtype),
        }


def _linear(states: Tensor, params: dict[str, Tensor], name: str) -> Tensor:
    return states @ params[f"{name}.w"] + params[f"{name}.b"]


@dataclass
class TaggerData:
    """Training view of an annotated corpus for the tagger/lemmatizer."""

    sentences: list[Sentence]
    tagset: dict[str, int]
    inventory: LemmaCategoryInventory

    @classmethod
    def from_sentences(cls, sentences: Sequence[Sentence]) -> "TaggerData":
        tags = sorted(
            {token.upos or "_" for sentence in sentences for token in sentence.tokens}
        )
        pairs = [
            (token.form, token.lemma or token.form)
            for sentence in sentences
            for token in sentence.tokens
        ]
        return cls(
            sentences=list(sentences),
            tagset={tag: i for i, tag in enumerate(tags)},
            inventory=build_lemma_inventory(pairs),
        )

    def tag_ids(self, sentence: Sentence) -> list[int]:
        return [self.tagset[token.upos or "_"] for token in sentence.tokens]

    def lemma_ids(self, sentence: Sentence) -> list[int]:
        return [
            self.inventory.id_of(
                derive_edit_script(token.form, token.lemma or token.form)
            )
            for token in sentence.tokens
        ]


class TaggerModel:
    """Joint POS + lemma-category classifier over the sequence encoder."""

    def __init__(
        self,
        data: TaggerData,
        hidden: int = 24,
        featurizer_config: FeaturizerConfig | None = None,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.data = data
        self.sentences = data.sentences
        self.encoder = SequenceEncoder(data.sentences, hidden, featurizer_config, dtype)
        self.params = self.encoder.init_params(seed)
        rng = np.random.Generator(np.random.PCG64(seed + 100))
        self.params.update(self.encoder.linear_head(rng, "tag", len(data.tagset)))
        self.params.update(self.encoder.linear_head(rng, "lemma", len(data.inventory)))

    def head_losses(
        self, params: dict[str, Tensor], states: Tensor, sentence: Sentence
    ) -> tuple[Tensor, Tensor]:
        """(tag loss, lemma-category loss) of the encoded ``sentence``."""
        return (
            mlm_loss(_linear(states, params, "tag"), self.data.tag_ids(sentence)),
            mlm_loss(_linear(states, params, "lemma"), self.data.lemma_ids(sentence)),
        )

    def loss(self, sentence: Sentence, contextual=None) -> Tensor:
        states = self.encoder.encode(self.params, sentence, contextual)
        tag_loss, lemma_loss = self.head_losses(self.params, states, sentence)
        return tag_loss + lemma_loss

    def predict(self, sentence: Sentence, contextual=None) -> tuple[list[str], list[str]]:
        params = constants(self.params)
        states = self.encoder.encode(params, sentence, contextual)
        tag_logits = _linear(states, params, "tag")
        lemma_logits = _linear(states, params, "lemma")
        id_to_tag = {i: t for t, i in self.data.tagset.items()}
        tags = [id_to_tag[int(i)] for i in np.argmax(tag_logits.data, axis=-1)]
        lemmas = []
        for token, category in zip(sentence.tokens, np.argmax(lemma_logits.data, axis=-1)):
            script = self.data.inventory.categories[int(category)]
            try:
                lemmas.append(apply_edit_script(token.form, script))
            except EditScriptError:
                lemmas.append(token.form)
        return tags, lemmas


def train(
    model,
    steps: int = 300,
    lr: float = 5e-3,
    seed: int = 0,
) -> list[float]:
    """Single-sentence Adam steps on sentences drawn uniformly from
    ``model.sentences``; returns the per-step losses."""
    state = AdamState()
    rng = np.random.Generator(np.random.PCG64(seed))
    losses = []
    for _ in range(steps):
        sentence = model.sentences[int(rng.integers(0, len(model.sentences)))]
        zero_grads(model.params)
        loss = model.loss(sentence)
        loss.backward()
        adam_step(model.params, state, AdamConfig(), lr)
        losses.append(float(loss.data))
    return losses


class JointParserModel:
    """Biaffine parser sharing the encoder with the tagger heads; losses
    are summed with equal weights."""

    def __init__(
        self,
        data: TaggerData,
        relations: dict[str, int],
        hidden: int = 24,
        arc_dim: int = 24,
        featurizer_config: FeaturizerConfig | None = None,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.tagger = TaggerModel(
            data, hidden=hidden, featurizer_config=featurizer_config, seed=seed, dtype=dtype
        )
        self.sentences = data.sentences
        self.relations = relations
        self.params = dict(self.tagger.params)
        rng = np.random.Generator(np.random.PCG64(seed + 300))
        repr_dim = 2 * hidden
        self.params["head_proj"] = uniform_param(rng, (repr_dim, arc_dim), repr_dim, dtype)
        self.params["dep_proj"] = uniform_param(rng, (repr_dim, arc_dim), repr_dim, dtype)
        self.params["root_vec"] = uniform_param(rng, (1, arc_dim), arc_dim, dtype)
        self.params.update(
            init_biaffine_params(arc_dim, len(relations), seed=seed + 400, dtype=dtype)
        )

    @staticmethod
    def _arc_scores(params: dict[str, Tensor], states: Tensor):
        heads = concat([params["root_vec"], states @ params["head_proj"]], axis=0)
        return biaffine_scores(heads, states @ params["dep_proj"], params)

    def loss(self, sentence: Sentence, contextual=None) -> Tensor:
        states = self.tagger.encoder.encode(self.params, sentence, contextual)
        scores = self._arc_scores(self.params, states)
        gold_heads = [token.head for token in sentence.tokens]
        if any(h is None for h in gold_heads):
            raise ValueError("parser training requires annotated heads")
        gold_relations = [
            self.relations[token.deprel or "_"] for token in sentence.tokens
        ]
        n = len(sentence.tokens)
        arc_loss = mlm_loss(scores.arc.transpose(1, 0), gold_heads)
        label_rows = scores.label[np.asarray(gold_heads), np.arange(n)]
        label_loss = mlm_loss(label_rows, gold_relations)
        tag_loss, lemma_loss = self.tagger.head_losses(self.params, states, sentence)
        return arc_loss + label_loss + tag_loss + lemma_loss

    def predict(self, sentence: Sentence, contextual=None) -> tuple[list[int], list[str]]:
        params = constants(self.params)
        states = self.tagger.encoder.encode(params, sentence, contextual)
        scores = self._arc_scores(params, states)
        heads, label_ids = decode_tree(scores)
        id_to_relation = {i: r for r, i in self.relations.items()}
        return heads, [id_to_relation[i] for i in label_ids]


class FlatNerModel:
    """Sequence encoder with a linear-chain CRF over BIO tags."""

    def __init__(
        self,
        sentences: Sequence[Sentence],
        hidden: int = 24,
        featurizer_config: FeaturizerConfig | None = None,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.sentences = list(sentences)
        entity_types = [
            span[2] for sentence in sentences for span in sentence.entity_spans
        ]
        self.labels = bio_label_set(entity_types)
        self.label_ids = {label: i for i, label in enumerate(self.labels)}
        transition_penalty, start_penalty = bio_constraint_penalties(self.labels)
        self.transition_penalty = Tensor(transition_penalty.astype(dtype))
        self.start_penalty = Tensor(start_penalty.astype(dtype))

        self.encoder = SequenceEncoder(self.sentences, hidden, featurizer_config, dtype)
        self.params = self.encoder.init_params(seed)
        rng = np.random.Generator(np.random.PCG64(seed + 500))
        count = len(self.labels)
        self.params.update(self.encoder.linear_head(rng, "emit", count))
        self.params["crf.transitions"] = zeros_param((count, count), dtype)
        self.params["crf.start"] = zeros_param((count,), dtype)

    def _emissions(self, params: dict[str, Tensor], sentence: Sentence, contextual) -> Tensor:
        return _linear(self.encoder.encode(params, sentence, contextual), params, "emit")

    def loss(self, sentence: Sentence, contextual=None) -> Tensor:
        tags = spans_to_bio(sentence.entity_spans, len(sentence.tokens))
        validate_bio(tags)
        tag_ids = [self.label_ids[t] for t in tags]
        return crf_loss(
            self._emissions(self.params, sentence, contextual),
            self.params["crf.transitions"] + self.transition_penalty,
            tag_ids,
            self.params["crf.start"] + self.start_penalty,
        )

    def predict(self, sentence: Sentence, contextual=None):
        params = constants(self.params)
        path = crf_decode(
            self._emissions(params, sentence, contextual).data,
            params["crf.transitions"].data + self.transition_penalty.data,
            params["crf.start"].data + self.start_penalty.data,
        )
        return bio_to_spans([self.labels[i] for i in path])


class NestedNerModel:
    """Per-token classifier over linearized entity stack strings."""

    def __init__(
        self,
        sentences: Sequence[Sentence],
        hidden: int = 24,
        featurizer_config: FeaturizerConfig | None = None,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.sentences = list(sentences)
        stack_strings = ["O"]
        for sentence in sentences:
            for stack in encode_nested(sentence.entity_spans, len(sentence.tokens)):
                rendered = render_stack(stack)
                if rendered not in stack_strings:
                    stack_strings.append(rendered)
        self.stack_vocab = {s: i for i, s in enumerate(stack_strings)}
        self.stack_strings = stack_strings

        self.encoder = SequenceEncoder(self.sentences, hidden, featurizer_config, dtype)
        self.params = self.encoder.init_params(seed)
        rng = np.random.Generator(np.random.PCG64(seed + 600))
        self.params.update(self.encoder.linear_head(rng, "stack", len(stack_strings)))

    def _logits(self, params: dict[str, Tensor], sentence: Sentence, contextual) -> Tensor:
        return _linear(self.encoder.encode(params, sentence, contextual), params, "stack")

    def loss(self, sentence: Sentence, contextual=None) -> Tensor:
        stacks = encode_nested(sentence.entity_spans, len(sentence.tokens))
        targets = [self.stack_vocab[render_stack(s)] for s in stacks]
        return mlm_loss(self._logits(self.params, sentence, contextual), targets)

    def predict(self, sentence: Sentence, contextual=None):
        logits = self._logits(constants(self.params), sentence, contextual)
        stacks = [
            parse_stack(self.stack_strings[int(i)])
            for i in np.argmax(logits.data, axis=-1)
        ]
        return decode_nested(stacks)
