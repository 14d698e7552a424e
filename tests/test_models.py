"""Tests for the UDPipe-style task models."""

import numpy as np
import pytest

from desklm.corpus import Sentence, Token
from desklm.heads import models
from desklm.heads.lemma import derive_edit_script
from desklm.heads.models import FeaturizerConfig, TaggerData, TaggerModel


def _tagger():
    train = [
        Sentence(tokens=(Token("nejkrásnější", "krásný", "ADJ"), Token("psi", "pes", "NOUN"))),
        Sentence(tokens=(Token("a", "a", "CCONJ"),)),
    ]
    data = TaggerData.from_sentences(train)
    config = FeaturizerConfig(word_dim=4, char_dim=3, char_hidden=3)
    return TaggerModel(data, hidden=4, featurizer_config=config, seed=0, dtype=np.float64)


class TestTaggerPredict:
    def test_inapplicable_script_falls_back_to_form(self):
        model = _tagger()
        # Make every token predict the script that strips "nej" and
        # rewrites the tail: it over-consumes the one-letter form "a".
        category = model.data.inventory.id_of(derive_edit_script("nejkrásnější", "krásný"))
        model.params["lemma.w"].data[:] = 0.0
        model.params["lemma.b"].data[:] = 0.0
        model.params["lemma.b"].data[category] = 1.0
        _, lemmas = model.predict(Sentence(tokens=(Token("a"), Token("nejmilejší"))))
        assert lemmas == ["a", "milý"]

    def test_unrelated_error_is_not_swallowed(self, monkeypatch):
        model = _tagger()

        def broken(form, script):
            raise TypeError("not an edit-script failure")

        monkeypatch.setattr(models, "apply_edit_script", broken)
        with pytest.raises(TypeError):
            model.predict(Sentence(tokens=(Token("psi"),)))
