"""Tests for the CoNLL 2018 style evaluation."""

import gc
import sys
import unicodedata
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from desklm.corpus import CorpusError, ingest_conllu
from desklm.metrics import conllu_eval
from desklm.metrics.conllu_eval import ConlluEvalError, _strip_spaces, eval_conllu


def _corpus(text: str):
    return ingest_conllu(text.encode("utf-8"))


GOLD_SPLIT = """\
1\tVlak\tvlak\tNOUN\tNN\t_\t2\tnsubj\t_\t_
2\tjede\tjet\tVERB\tVB\t_\t0\troot\t_\t_
3\tdo\tdo\tADP\tRR\t_\t4\tcase\t_\t_
4\tPrahy\tPraha\tPROPN\tNN\t_\t2\tobl\t_\t_

"""

SYSTEM_MERGED = """\
1\tVlak\tvlak\tNOUN\tNN\t_\t2\tnsubj\t_\t_
2\tjede\tjet\tVERB\tVB\t_\t0\troot\t_\t_
3\tdoPrahy\tdoPrahy\tX\tXX\t_\t2\tobl\t_\t_

"""

TEN_WORD_GOLD = "".join(
    f"{i}\tw{i}\tw{i}\tNOUN\tNN\t_\t{0 if i == 2 else 2}\t{'root' if i == 2 else 'nmod'}\t_\t_\n"
    for i in range(1, 11)
) + "\n"

TEN_WORD_ONE_BAD_HEAD = TEN_WORD_GOLD.replace(
    "5\tw5\tw5\tNOUN\tNN\t_\t2\tnmod\t_\t_", "5\tw5\tw5\tNOUN\tNN\t_\t3\tnmod\t_\t_"
)


class TestIdentity:
    def test_gold_vs_gold_is_all_hundred(self):
        gold = _corpus(GOLD_SPLIT)
        report = eval_conllu(gold, gold)
        for name, value in report.scores().items():
            assert value == pytest.approx(100.0), name

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_gold_vs_gold_fuzz(self, seed):
        import random

        rng = random.Random(seed)
        upos = ["NOUN", "VERB", "ADJ", "ADP", "DET"]
        deprels = ["nsubj", "obj", "obl", "case", "det", "amod"]
        lines = []
        n = rng.randint(1, 8)
        root = rng.randint(1, n)
        for i in range(1, n + 1):
            if i == root:
                head, deprel = 0, "root"
            else:
                head = root if rng.random() < 0.6 else rng.choice(
                    [j for j in range(1, n + 1) if j != i]
                )
                deprel = rng.choice(deprels)
            feats = "Case=Nom|Number=Sing" if rng.random() < 0.5 else "_"
            lines.append(
                f"{i}\tw{i}x\tl{i}\t{rng.choice(upos)}\tX{i}\t{feats}\t{head}\t{deprel}\t_\t_"
            )
        text = "\n".join(lines) + "\n\n"
        try:
            corpus = _corpus(text)
            report = eval_conllu(corpus, corpus)
        except ConlluEvalError:
            return  # cyclic random tree; precondition, not under test
        assert all(v == pytest.approx(100.0) for v in report.scores().values())


class TestCountingArithmetic:
    def test_one_wrong_head_gives_ninety(self):
        report = eval_conllu(_corpus(TEN_WORD_GOLD), _corpus(TEN_WORD_ONE_BAD_HEAD))
        assert report.scores()["UAS"] == pytest.approx(90.0)
        assert report.scores()["LAS"] == pytest.approx(90.0)
        # The other annotation layers are untouched.
        assert report.scores()["UPOS"] == pytest.approx(100.0)
        assert report.scores()["Lemmas"] == pytest.approx(100.0)


class TestTokenizationMismatch:
    def test_hand_worked_split_mismatch_table(self):
        # System merges "do Prahy" into one word; only "Vlak" and "jede"
        # align (2 of 4 gold words, 2 of 3 system words).
        #   UPOS..LAS: correct=2, system=3, gold=4 -> F1 = 4/7 = 57.14
        #   MLAS/BLEX: content words: gold {nsubj, root, obl}=3,
        #   system {nsubj, root, obl}=3, correct=2 -> F1 = 2/3 = 66.67
        report = eval_conllu(_corpus(GOLD_SPLIT), _corpus(SYSTEM_MERGED))
        scores = report.scores()
        for name in ("UPOS", "XPOS", "UFeats", "Lemmas", "UAS", "LAS"):
            assert scores[name] == pytest.approx(100 * 4 / 7, abs=0.005), name
        assert scores["MLAS"] == pytest.approx(100 * 2 / 3, abs=0.005)
        assert scores["BLEX"] == pytest.approx(100 * 2 / 3, abs=0.005)
        assert f"{scores['UPOS']:.2f}" == "57.14"
        assert f"{scores['MLAS']:.2f}" == "66.67"

    def test_space_separator_inside_gold_form_is_stripped(self):
        # Gold keeps "do Prahy" (with U+00A0) as one word; its raw text is
        # "doPrahy", which the system's "do" + "Prahy" covers, so the texts
        # agree but the one gold word aligns with neither system word.
        gold = _corpus(SYSTEM_MERGED.replace("3\tdoPrahy", "3\tdo\u00a0Prahy"))
        report = eval_conllu(gold, _corpus(GOLD_SPLIT))
        assert (report.upos.correct, report.upos.system_total, report.upos.gold_total) == (
            2, 4, 3
        )
        assert (report.uas.correct, report.las.correct) == (2, 2)
        # The same word without the separator aligns one to one.
        assert eval_conllu(gold, _corpus(SYSTEM_MERGED)).upos.correct == 3

    def test_stripped_characters_are_exactly_the_space_separators(self):
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        expected = "".join(c for c in everything if unicodedata.category(c) != "Zs")
        assert len(everything) - len(expected) == 17
        assert _strip_spaces(everything) == expected

    def test_differing_raw_text_is_error(self):
        other = GOLD_SPLIT.replace("Vlak", "Vlk")
        with pytest.raises(ConlluEvalError, match="differ"):
            eval_conllu(_corpus(GOLD_SPLIT), _corpus(other))


MWT_GOLD = """\
1-2\tdoma\t_\t_\t_\t_\t_\t_\t_\t_
1\tdo\tdo\tADP\tRR\t_\t2\tcase\t_\t_
2\tma\tma\tNOUN\tNN\t_\t0\troot\t_\t_

"""

MWT_SYSTEM_PLAIN = """\
1\tdo\tdo\tADP\tRR\t_\t2\tcase\t_\t_
2\tma\tma\tNOUN\tNN\t_\t0\troot\t_\t_

"""

MWT_SYSTEM_FUSED = """\
1\tdoma\tdoma\tNOUN\tNN\t_\t0\troot\t_\t_

"""


class TestMultiwordAlignment:
    def test_mwt_words_align_by_lcs(self):
        report = eval_conllu(_corpus(MWT_GOLD), _corpus(MWT_SYSTEM_PLAIN))
        assert report.scores()["UPOS"] == pytest.approx(100.0)
        assert report.scores()["LAS"] == pytest.approx(100.0)

    def test_fused_system_word_does_not_align(self):
        report = eval_conllu(_corpus(MWT_GOLD), _corpus(MWT_SYSTEM_FUSED))
        assert report.upos.correct == 0
        assert report.upos.gold_total == 2
        assert report.upos.system_total == 1

    def test_range_ending_before_its_start_is_rejected(self):
        # Ingest rejects such a range; a sentence built directly is
        # rejected at construction, before any evaluator could see it.
        sentence = next(_corpus(MWT_GOLD).sentences())
        reversed_range = ("2-1",) + sentence.extra_rows[0][1][1:]
        with pytest.raises(CorpusError, match="^multiword token range '2-1' must start at word 1$"):
            replace(sentence, extra_rows=((0, reversed_range),))

    def test_malformed_range_is_rejected(self):
        # Skipping the row would score the sentence as if it had none.
        sentence = next(_corpus(MWT_GOLD).sentences())
        malformed = ("1-x",) + sentence.extra_rows[0][1][1:]
        with pytest.raises(CorpusError, match="^malformed multiword token range '1-x'$"):
            replace(sentence, extra_rows=((0, malformed),))

    def test_mwt_gold_vs_gold(self):
        gold = _corpus(MWT_GOLD)
        assert all(
            v == pytest.approx(100.0) for v in eval_conllu(gold, gold).scores().values()
        )


class TestDefinitionDetails:
    def test_deprel_subtypes_ignored(self):
        gold = GOLD_SPLIT.replace("nsubj", "nsubj:pass")
        report = eval_conllu(_corpus(gold), _corpus(GOLD_SPLIT))
        assert report.scores()["LAS"] == pytest.approx(100.0)

    def test_non_universal_features_ignored(self):
        gold = GOLD_SPLIT.replace(
            "1\tVlak\tvlak\tNOUN\tNN\t_", "1\tVlak\tvlak\tNOUN\tNN\tFoo=Bar"
        )
        report = eval_conllu(_corpus(gold), _corpus(GOLD_SPLIT))
        assert report.scores()["UFeats"] == pytest.approx(100.0)

    def test_universal_feature_mismatch_counts(self):
        gold = GOLD_SPLIT.replace(
            "1\tVlak\tvlak\tNOUN\tNN\t_", "1\tVlak\tvlak\tNOUN\tNN\tCase=Nom"
        )
        report = eval_conllu(_corpus(gold), _corpus(GOLD_SPLIT))
        assert report.ufeats.correct == 3

    def test_unannotated_gold_lemma_matches_anything(self):
        gold = GOLD_SPLIT.replace("3\tdo\tdo", "3\tdo\t_")
        system = GOLD_SPLIT.replace("3\tdo\tdo", "3\tdo\tsomething")
        report = eval_conllu(_corpus(gold), _corpus(system))
        assert report.scores()["Lemmas"] == pytest.approx(100.0)

    def test_missing_heads_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
        with pytest.raises(ConlluEvalError, match="HEAD"):
            eval_conllu(_corpus(text), _corpus(text))

    @pytest.mark.parametrize("second, fault", [
        (GOLD_SPLIT.replace("\t2\tnsubj", "\t0\tnsubj"), "multiple roots in sentence"),
        (GOLD_SPLIT.replace("\t2\tobl", "\t3\tobl"), "cycle in dependency tree"),
        (GOLD_SPLIT.replace("\t0\troot", "\t2\troot"), "unrooted sentence"),
        (GOLD_SPLIT.replace("\t0\troot", "\t_\troot"),
         "every word must carry a HEAD for evaluation"),
    ], ids=["two roots", "cycle", "unrooted", "no head"])
    def test_tree_fault_names_document_and_sentence(self, second, fault):
        text = "# newdoc id = d7\n" + TEN_WORD_GOLD + second
        with pytest.raises(ConlluEvalError, match=f"^document 'd7', sentence 2: {fault}$"):
            eval_conllu(_corpus(text), _corpus(text))

    def test_order_independence_of_counts(self):
        two_sentences = TEN_WORD_GOLD + GOLD_SPLIT
        reversed_order = GOLD_SPLIT + TEN_WORD_GOLD
        a = eval_conllu(_corpus(two_sentences), _corpus(two_sentences))
        b = eval_conllu(_corpus(reversed_order), _corpus(reversed_order))
        assert a.scores() == b.scores()


def test_words_are_freed_when_eval_conllu_returns():
    # A reference cycle among the words would keep every document's words
    # alive until the cycle collector runs.
    gold, system = _corpus(GOLD_SPLIT), _corpus(SYSTEM_MERGED)
    gc.collect()
    gc.disable()
    try:
        eval_conllu(gold, system)
        left = sum(isinstance(o, conllu_eval._Word) for o in gc.get_objects())
    finally:
        gc.enable()
    assert left == 0
