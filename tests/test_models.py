"""Tests for the UDPipe-style task models."""

import gc
import hashlib

import numpy as np
import pytest

from desklm.corpus import Sentence, Token
from desklm.heads import models
from desklm.heads.lemma import derive_edit_script
from desklm.heads.models import (
    CrfNerHead,
    FeaturizerConfig,
    ParserHead,
    StackNerHead,
    TaggerHead,
    TaskModel,
)
from desklm.neural.tensor import Tensor


def _tagger():
    train = [
        Sentence(tokens=(Token("nejkrásnější", "krásný", "ADJ"), Token("psi", "pes", "NOUN"))),
        Sentence(tokens=(Token("a", "a", "CCONJ"),)),
    ]
    config = FeaturizerConfig(word_dim=4, char_dim=3, char_hidden=3)
    return TaskModel(
        train, (TaggerHead(train),), hidden=4, featurizer_config=config, seed=0,
        dtype=np.float64,
    )


class TestTaggerPredict:
    def test_inapplicable_script_falls_back_to_form(self):
        model = _tagger()
        # Make every token predict the script that strips "nej" and
        # rewrites the tail: it over-consumes the one-letter form "a".
        category = model.heads[0].inventory.id_of(derive_edit_script("nejkrásnější", "krásný"))
        model.params["lemma.w"].data[:] = 0.0
        model.params["lemma.b"].data[:] = 0.0
        model.params["lemma.b"].data[category] = 1.0
        _, lemmas = model.predict(Sentence(tokens=(Token("a"), Token("nejmilejší"))))[0]
        assert lemmas == ["a", "milý"]

    def test_unrelated_error_is_not_swallowed(self, monkeypatch):
        model = _tagger()

        def broken(form, script):
            raise TypeError("not an edit-script failure")

        monkeypatch.setattr(models, "apply_edit_script", broken)
        with pytest.raises(TypeError):
            model.predict(Sentence(tokens=(Token("psi"),)))


# ---------------------------------------------------------------------------
# Goldens: float64 losses, parameters and predictions of short training runs,
# recorded before the heads were consolidated onto one encoder and one loop.


def _tok(form, lemma, upos, head, deprel):
    return Token(form, lemma, upos, head=head, deprel=deprel)


TREEBANK = [
    Sentence(tokens=(
        _tok("Pes", "pes", "NOUN", 2, "nsubj"),
        _tok("štěká", "štěkat", "VERB", 0, "root"),
        _tok(".", ".", "PUNCT", 2, "punct"),
    )),
    Sentence(tokens=(
        _tok("Jan", "Jan", "PROPN", 3, "nsubj"),
        _tok("Novák", "Novák", "PROPN", 1, "flat"),
        _tok("bydlí", "bydlet", "VERB", 0, "root"),
        _tok("v", "v", "ADP", 5, "case"),
        _tok("Praze", "Praha", "PROPN", 3, "obl"),
    )),
    Sentence(tokens=(
        _tok("nejkrásnější", "krásný", "ADJ", 2, "amod"),
        _tok("psi", "pes", "NOUN", 3, "nsubj"),
        _tok("spí", "spát", "VERB", 0, "root"),
    )),
]
FLAT_NER = [
    Sentence(tokens=tuple(Token(f) for f in ("Jan", "Novák", "bydlí", "v", "Praze")),
             entity_spans=((1, 2, "P"), (5, 5, "G"))),
    Sentence(tokens=tuple(Token(f) for f in ("Pes", "štěká", "."))),
    Sentence(tokens=tuple(Token(f) for f in ("Eva", "jede", "do", "Brna")),
             entity_spans=((1, 1, "P"), (4, 4, "G"))),
]
NESTED_NER = [
    Sentence(tokens=tuple(Token(f) for f in ("Univerzita", "Karlova", "v", "Praze")),
             entity_spans=((1, 4, "I"), (4, 4, "G"))),
    Sentence(tokens=tuple(Token(f) for f in ("Jan", "Novák", "spí")),
             entity_spans=((1, 2, "P"), (1, 1, "Pf"))),
    Sentence(tokens=tuple(Token(f) for f in ("Pes", "štěká", "."))),
]
UNSEEN = Sentence(tokens=tuple(Token(f) for f in ("Eva", "Nováková", "spí", "v", "Brně")))
TINY = FeaturizerConfig(word_dim=4, char_dim=3, char_hidden=3)
STEPS = 20


def _train(model):
    return models.train(model, steps=STEPS, lr=5e-2, seed=3)


def _digest(params):
    """SHA-256 over parameter names, shapes, dtypes and raw bytes."""
    h = hashlib.sha256()
    for name in sorted(params):
        data = params[name].data
        h.update(f"{name}:{data.shape}:{data.dtype};".encode())
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


def _relations():
    deprels = sorted({t.deprel for s in TREEBANK for t in s.tokens})
    return {r: i for i, r in enumerate(deprels)}


def _model(sentences, *heads, config=TINY):
    return TaskModel(
        sentences, heads, hidden=4, featurizer_config=config, seed=5, dtype=np.float64
    )


def _tagger_model():
    return _model(TREEBANK, TaggerHead(TREEBANK))


def _parser_model():
    return _model(TREEBANK, ParserHead(TREEBANK, arc_dim=4), TaggerHead(TREEBANK))


def _flat_model():
    return _model(FLAT_NER, CrfNerHead(FLAT_NER))


def _nested_model():
    return _model(NESTED_NER, StackNerHead(NESTED_NER))


@pytest.fixture(scope="module")
def trained():
    """``trained(make)``: the model ``make`` builds, after its 20-step run,
    and the losses of that run.  Each model trains once per module."""
    runs = {}

    def run(make):
        if make not in runs:
            model = make()
            runs[make] = model, _train(model)
        return runs[make]

    return run


GOLDEN_TAGGER_LOSSES = [
    3.8734222163826453,
    3.902085954824587,
    3.769114256949589,
    3.533952684673505,
    3.134361796795374,
    4.0669231722270744,
    3.950627240690905,
    5.567702573947998,
    2.619733724338643,
    2.6397912414247404,
    2.5668888221766655,
    5.005466154841874,
    4.737877649132298,
    4.378831417656891,
    2.2990584169811794,
    2.21787131325479,
    3.981571964611733,
    3.887122111099336,
    1.9046796285574144,
    1.78772814088321,
]
GOLDEN_TAGGER_DIGEST = '5c097b46d05767e3b2565cf05c30c198dc268ef44a8e8bba5d4047095017395d'
GOLDEN_TAGGER_PREDICTIONS = [
    (['NOUN', 'VERB', 'PUNCT'], ['pes', 'štěká', '.']),
    (['VERB', 'ADJ', 'NOUN', 'NOUN', 'NOUN'], ['jaát', 'nováát', 'bydlí', 'v', 'Praze']),
    (['VERB', 'NOUN', 'NOUN'], ['nejkrásnějšát', 'psi', 'spí']),
    (['VERB', 'ADJ', 'NOUN', 'NOUN', 'NOUN'], ['evát', 'novákovát', 'spí', 'v', 'Brně']),
]
GOLDEN_PARSER_LOSSES = [
    7.227088029924639,
    7.173756509849021,
    6.903708331841829,
    6.4263917327108215,
    5.610193897426287,
    7.47004719905578,
    7.057707799680028,
    9.989661992466983,
    4.614208461265798,
    4.611145577878068,
    4.489952764393898,
    8.30676991683294,
    8.070693734921164,
    7.9071535444861265,
    4.419429741057668,
    4.250910141449955,
    6.432492716346344,
    6.314921682697289,
    3.886415220885725,
    3.783374397026595,
]
GOLDEN_PARSER_DIGEST = 'bad77a7f5b0f8b144fdea4071321b66297314a2beca43608aebc071faf94a015'
GOLDEN_PARSER_PREDICTIONS = [
    ([3, 3, 0], ['nsubj', 'nsubj', 'root']),
    ([5, 5, 5, 5, 0], ['nsubj', 'nsubj', 'nsubj', 'nsubj', 'root']),
    ([3, 3, 0], ['nsubj', 'nsubj', 'root']),
    ([5, 5, 5, 5, 0], ['nsubj', 'nsubj', 'nsubj', 'nsubj', 'root']),
]
# Recorded from the joint parser before the heads shared one TaskModel: its
# tagger read the same, jointly trained tensors as the parser.
GOLDEN_JOINT_TAGGER_PREDICTIONS = [
    (['NOUN', 'VERB', 'VERB'], ['pes', 'štěká', '.']),
    (['NOUN', 'NOUN', 'NOUN', 'NOUN', 'VERB'], ['jan', 'novák', 'bydlí', 'v', 'praze']),
    (['NOUN', 'VERB', 'VERB'], ['nejkrásnější', 'psi', 'spí']),
    (['NOUN', 'NOUN', 'NOUN', 'NOUN', 'VERB'], ['eva', 'nováková', 'spí', 'v', 'brně']),
]
GOLDEN_FLAT_LOSSES = [
    5.034338617576444,
    6.109071474388005,
    5.545270863932866,
    4.844524916728215,
    4.233280673675791,
    3.93530338476053,
    3.7258407720528544,
    1.2691366545884635,
    4.040118546527055,
    3.491761640128117,
    2.8482563894845505,
    1.9826585966703,
    2.1673463996911453,
    2.046707419923515,
    2.085940387826578,
    2.027036350632594,
    2.653741226171209,
    2.481466314363578,
    1.8860817630071312,
    1.6868252261356584,
]
GOLDEN_FLAT_DIGEST = '1223c9db50e2b9f1895bea245261afad5064d4314e01f232270122dc93aec738'
GOLDEN_FLAT_PREDICTIONS = [
    [(1, 2, 'P'), (5, 5, 'G')],
    [(3, 3, 'G')],
    [(1, 2, 'P'), (4, 4, 'G')],
    [(1, 2, 'P'), (5, 5, 'G')],
]
GOLDEN_NESTED_LOSSES = [
    1.792196332743471,
    1.8011647266693014,
    1.6680625012435393,
    1.4511670303010575,
    1.2359777299130357,
    2.778399184790101,
    2.5657850147812935,
    2.9010507269505643,
    1.1456252588507416,
    1.2101396247478566,
    1.2313996123914177,
    2.281539970830531,
    2.1673489546008327,
    2.0215673503870977,
    1.3294008275808398,
    1.345226207833248,
    1.3829179790236865,
    1.3134827589160416,
    1.3297197805379877,
    1.305391650684589,
]
GOLDEN_NESTED_DIGEST = '02beec681b98bbad3c7ffb315cd9d1c5286e56ac60a85f15e6eb314fc00df76b'
GOLDEN_NESTED_PREDICTIONS = [[(1, 2, 'I'), (4, 4, 'G'), (4, 4, 'I')], [], [], [(5, 5, 'G'), (5, 5, 'I')]]
GOLDEN_CONTEXTUAL_LOSS = 3.875173373436952


class TestGoldenTraining:
    def test_tagger(self, trained):
        model, losses = trained(_tagger_model)
        assert losses == GOLDEN_TAGGER_LOSSES
        assert _digest(model.params) == GOLDEN_TAGGER_DIGEST
        predictions = [model.predict(s)[0] for s in TREEBANK + [UNSEEN]]
        assert predictions == GOLDEN_TAGGER_PREDICTIONS

    def test_joint_parser(self, trained):
        model, losses = trained(_parser_model)
        assert losses == GOLDEN_PARSER_LOSSES
        assert _digest(model.params) == GOLDEN_PARSER_DIGEST
        predictions = [model.predict(s)[0] for s in TREEBANK + [UNSEEN]]
        assert predictions == GOLDEN_PARSER_PREDICTIONS

    def test_joint_parser_tags_and_lemmas(self, trained):
        model, _ = trained(_parser_model)
        predictions = [model.predict(s)[1] for s in TREEBANK + [UNSEEN]]
        assert predictions == GOLDEN_JOINT_TAGGER_PREDICTIONS

    def test_parser_relations_are_the_sorted_deprels(self):
        assert ParserHead(TREEBANK).relations == _relations()

    def test_flat_ner(self, trained):
        model, losses = trained(_flat_model)
        assert losses == GOLDEN_FLAT_LOSSES
        assert _digest(model.params) == GOLDEN_FLAT_DIGEST
        predictions = [model.predict(s)[0] for s in FLAT_NER + [UNSEEN]]
        assert predictions == GOLDEN_FLAT_PREDICTIONS

    def test_nested_ner(self, trained):
        model, losses = trained(_nested_model)
        assert losses == GOLDEN_NESTED_LOSSES
        assert _digest(model.params) == GOLDEN_NESTED_DIGEST
        predictions = [model.predict(s)[0] for s in NESTED_NER + [UNSEEN]]
        assert predictions == GOLDEN_NESTED_PREDICTIONS

    def test_tagger_loss_with_contextual_features(self):
        config = FeaturizerConfig(word_dim=4, char_dim=3, char_hidden=3, contextual_dim=2)
        model = _model(TREEBANK, TaggerHead(TREEBANK), config=config)
        sentence = TREEBANK[1]
        contextual = np.linspace(-1.0, 1.0, 2 * len(sentence)).reshape(len(sentence), 2)
        assert float(model.loss(sentence, contextual).data) == GOLDEN_CONTEXTUAL_LOSS


class TestPredictBuildsNoGraph:
    @pytest.mark.parametrize(
        "make, sentences, golden",
        [
            (_tagger_model, TREEBANK, GOLDEN_TAGGER_PREDICTIONS),
            (_parser_model, TREEBANK, GOLDEN_PARSER_PREDICTIONS),
            (_flat_model, FLAT_NER, GOLDEN_FLAT_PREDICTIONS),
            (_nested_model, NESTED_NER, GOLDEN_NESTED_PREDICTIONS),
        ],
        ids=["tagger", "parser", "flat_ner", "nested_ner"],
    )
    def test_predict_creates_no_gradient_tracking_tensor(
        self, monkeypatch, trained, make, sentences, golden
    ):
        model, _ = trained(make)
        tracked = 0
        init = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            nonlocal tracked
            init(tensor, *args, **kwargs)
            tracked += tensor.requires_grad

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        predictions = [model.predict(s)[0] for s in sentences + [UNSEEN]]
        assert tracked == 0
        assert predictions == golden


class TestTrainLoop:
    @pytest.mark.parametrize(
        "make, golden",
        [
            (_tagger_model, GOLDEN_TAGGER_LOSSES),
            (_parser_model, GOLDEN_PARSER_LOSSES),
            (_flat_model, GOLDEN_FLAT_LOSSES),
            (_nested_model, GOLDEN_NESTED_LOSSES),
        ],
    )
    def test_train_reproduces_golden_losses(self, trained, make, golden):
        _, losses = trained(make)
        assert losses == golden

    def test_each_step_frees_its_graph_before_the_next_loss(self, monkeypatch):
        model = _tagger_model()
        live = []
        loss = model.loss

        def counting(sentence):
            live.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))
            return loss(sentence)

        monkeypatch.setattr(model, "loss", counting)
        gc.collect()
        models.train(model, steps=5, lr=5e-2, seed=3)
        # Only the parameters (and whatever earlier tests keep) are alive.
        assert live == [live[0]] * 5


class TestParserHead:
    def test_missing_head_names_the_token(self):
        tokens = list(TREEBANK[1].tokens)
        tokens[3] = Token("v", "v", "ADP", deprel="case")
        model = _parser_model()
        with pytest.raises(ValueError, match=r"token 4 'v' has no head"):
            model.loss(Sentence(tokens=tuple(tokens)))


class TestUnseenGoldLabels:
    """A gold label the training sentences lack names the token."""

    def test_unseen_relation(self):
        tokens = list(TREEBANK[0].tokens)
        tokens[2] = _tok(".", ".", "PUNCT", 2, "xcomp")
        with pytest.raises(ValueError, match=r"token 3 '\.' has relation 'xcomp'"):
            _parser_model().loss(Sentence(tokens=tuple(tokens)))

    def test_unseen_upos(self):
        sentence = Sentence(tokens=(Token("Pes", "pes", "NOUN"), Token("rychle", "rychle", "ADV")))
        with pytest.raises(ValueError, match=r"token 2 'rychle' has UPOS 'ADV'"):
            _tagger_model().loss(sentence)

    def test_unseen_lemma_script(self):
        sentence = Sentence(tokens=(Token("psi", "pes", "NOUN"), Token("domů", "dům", "NOUN")))
        with pytest.raises(
            ValueError, match=r"token 2 'domů' has lemma script 'case\[\]\|pre\[\]\|suf\[d3,\+ům\]'"
        ):
            _tagger_model().loss(sentence)

    def test_unseen_bio_tag(self):
        sentence = Sentence(tokens=tuple(Token(f) for f in ("Eva", "jede", "do", "Brna")),
                            entity_spans=((1, 1, "P"), (4, 4, "X")))
        with pytest.raises(ValueError, match=r"token 4 'Brna' has BIO tag 'B-X'"):
            _flat_model().loss(sentence)

    def test_unseen_entity_stack(self):
        sentence = Sentence(tokens=tuple(Token(f) for f in ("Pes", "štěká", ".")),
                            entity_spans=((1, 1, "X"),))
        with pytest.raises(ValueError, match=r"token 1 'Pes' has entity stack 'B-X'"):
            _nested_model().loss(sentence)


class TestContextualFeatures:
    def _featurize(self, forms, contextual, dtype=np.float64, contextual_dim=2):
        config = FeaturizerConfig(
            word_dim=4, char_dim=3, char_hidden=3, contextual_dim=contextual_dim
        )
        sentences = [Sentence(tokens=(Token("Pes"),))]
        encoder = models.SequenceEncoder(sentences, 4, config, dtype)
        return encoder.featurize(encoder.init_params(0), forms, contextual)

    def test_float64_features_keep_float32_parameters(self):
        features = self._featurize(
            ["Pes", "štěká"], np.ones((2, 2), dtype=np.float64), np.float32
        )
        assert features.data.dtype == np.float32

    def test_row_count_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\), got \(3, 2\)"):
            self._featurize(["Pes", "štěká"], np.zeros((3, 2)))

    def test_width_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\), got \(2, 3\)"):
            self._featurize(["Pes", "štěká"], np.zeros((2, 3)))

    def test_missing_features_for_a_contextual_model_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\), but none were given"):
            self._featurize(["Pes", "štěká"], None)

    def test_features_for_a_model_without_contextual_width_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(1, 0\), got \(1, 2\)"):
            self._featurize(["Pes"], np.zeros((1, 2)), contextual_dim=0)
