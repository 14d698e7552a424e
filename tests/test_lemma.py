"""Tests for edit-script derivation, application and the category inventory."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from desklm.heads.lemma import (
    IDENTITY_SCRIPT,
    EditScript,
    EditScriptError,
    apply_edit_script,
    build_lemma_inventory,
    derive_edit_script,
)

REAL_PAIRS = [
    ("koček", "kočka"),
    ("psa", "pes"),
    ("psem", "pes"),
    ("Prahou", "Praha"),
    ("Brnem", "Brno"),
    ("dětem", "dítě"),
    ("jsem", "být"),
    ("šli", "jít"),
    ("městě", "město"),
    ("ženy", "žena"),
    ("ženám", "žena"),
    ("mužů", "muž"),
    ("viděl", "vidět"),
    ("nejlepší", "dobrý"),
    ("ČR", "ČR"),
    ("USA", "USA"),
    ("McDonald's", "McDonald's"),
    ("domy", "dům"),
    ("sněhem", "sníh"),
    ("očí", "oko"),
]


class TestDeriveApply:
    def test_equal_pair_yields_identity_script(self):
        script = derive_edit_script("kočka", "kočka")
        assert script == IDENTITY_SCRIPT
        assert apply_edit_script("kočka", script) == "kočka"

    def test_suffix_change_round_trips(self):
        script = derive_edit_script("koček", "kočka")
        assert apply_edit_script("koček", script) == "kočka"

    def test_casing_restored_at_position_zero(self):
        script = derive_edit_script("Prahou", "Praha")
        assert 0 in script.case_ops
        assert apply_edit_script("Prahou", script) == "Praha"

    def test_all_real_pairs_round_trip(self):
        for form, lemma in REAL_PAIRS:
            script = derive_edit_script(form, lemma)
            assert apply_edit_script(form, script) == lemma, (form, lemma)

    def test_generalization_is_deterministic(self):
        script = derive_edit_script("koček", "kočka")
        first = apply_edit_script("loděk", script)
        second = apply_edit_script("loděk", script)
        assert first == second

    def test_scripts_shared_across_regular_pairs(self):
        a = derive_edit_script("ženy", "žena")
        b = derive_edit_script("kozy", "koza")
        assert a == b

    def test_identity_script_keeps_form(self):
        assert apply_edit_script("slovo", IDENTITY_SCRIPT) == "slovo"

    def test_over_consumption_raises(self):
        for prefix_cut, suffix_cut in [(10, 0), (0, 4), (2, 2)]:
            script = EditScript((), prefix_cut, "", suffix_cut, "")
            with pytest.raises(EditScriptError, match="of 3-character form 'abc'"):
                apply_edit_script("abc", script)
        assert apply_edit_script("abc", EditScript((), 2, "x", 1, "y")) == "xy"

    def test_str_lists_cuts_and_additions(self):
        assert str(derive_edit_script("Prahou", "Praha")) == "case[0]|pre[]|suf[d2,+a]"
        assert str(derive_edit_script("xyz", "ABC")) == "case[]|pre[d3,+ABC]|suf[]"
        assert str(IDENTITY_SCRIPT) == "case[]|pre[]|suf[]"

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError):
            derive_edit_script("", "x")
        with pytest.raises(ValueError):
            derive_edit_script("x", "")

    def test_disjoint_pair_uses_replacement(self):
        script = derive_edit_script("xyz", "ABC")
        assert apply_edit_script("xyz", script) == "ABC"

    @given(
        form=st.text(min_size=1, max_size=12),
        lemma=st.text(min_size=1, max_size=12),
    )
    @settings(max_examples=400)
    def test_apply_derive_identity_fuzz(self, form, lemma):
        script = derive_edit_script(form, lemma)
        assert apply_edit_script(form, script) == lemma

    def test_synthetic_morphology_corpus(self):
        # Stems x suffix paradigms with casing variants; every pair must
        # round-trip through its derived script.
        rng = random.Random(13)
        stems = ["kámen", "strom", "ryb", "uč", "mrak", "vlk", "nos", "pol"]
        paradigms = [("y", "a"), ("em", ""), ("ách", "a"), ("ou", "a"), ("ů", "")]
        count = 0
        for _ in range(1000):
            stem = rng.choice(stems)
            form_suffix, lemma_suffix = rng.choice(paradigms)
            form, lemma = stem + form_suffix, stem + lemma_suffix or stem
            if rng.random() < 0.3:
                form = form.capitalize()
            if rng.random() < 0.3:
                lemma = lemma.capitalize()
            script = derive_edit_script(form, lemma)
            assert apply_edit_script(form, script) == lemma
            count += 1
        assert count == 1000


class TestInventory:
    def test_different_suffixes_make_two_categories(self):
        inventory = build_lemma_inventory([("psa", "pes"), ("psem", "pes")])
        assert len(inventory) == 2

    def test_identical_pairs_deduplicate(self):
        inventory = build_lemma_inventory([("psa", "pes")] * 100)
        assert len(inventory) == 1
        assert inventory.frequencies == (100,)

    def test_size_bounded_by_distinct_pairs(self):
        pairs = [(f, l) for f, l in REAL_PAIRS for _ in range(3)]
        inventory = build_lemma_inventory(pairs)
        assert len(inventory) <= len(set(REAL_PAIRS))

    def test_ordered_by_frequency_then_first_seen(self):
        pairs = [("ab", "ax")] * 2 + [("cd", "cy")] * 5 + [("ef", "ez")] * 2
        inventory = build_lemma_inventory(pairs)
        assert inventory.frequencies == (5, 2, 2)
        assert inventory.categories[1] == derive_edit_script("ab", "ax")

    def test_id_lookup(self):
        inventory = build_lemma_inventory(REAL_PAIRS)
        for form, lemma in REAL_PAIRS:
            script = derive_edit_script(form, lemma)
            assert inventory.categories[inventory.id_of(script)] == script

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            build_lemma_inventory([])
