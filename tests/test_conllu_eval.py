"""Tests for the CoNLL 2018 style evaluation."""

import gc
import random
import sys
import unicodedata
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference_conllu
from desklm.corpus import CorpusError, ingest_conllu
from desklm.metrics import conllu_eval
from desklm.metrics.conllu_eval import ConlluEvalError, _strip_spaces, eval_conllu
from desklm.metrics.counts import PrfCounts


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
        with pytest.raises(ConlluEvalError, match=(
            r"^gold and system raw texts differ \(lengths 15 vs 14, first difference at"
            r" character 2: gold document 'doc1', sentence 1 and system document 'doc1',"
            r" sentence 1\)$"
        )):
            eval_conllu(_corpus(GOLD_SPLIT), _corpus(other))

    def test_raw_text_difference_names_each_sides_document_and_sentence(self):
        gold = "# newdoc id = g\n" + TEN_WORD_GOLD + GOLD_SPLIT
        # GOLD_SPLIT in two sentences, its last character changed.
        system = "# newdoc id = s\n" + TEN_WORD_GOLD + (
            "1\tVlak\tvlak\tNOUN\tNN\t_\t2\tnsubj\t_\t_\n"
            "2\tjede\tjet\tVERB\tVB\t_\t0\troot\t_\t_\n\n"
            "1\tdo\tdo\tADP\tRR\t_\t2\tcase\t_\t_\n"
            "2\tPrahx\tPraha\tPROPN\tNN\t_\t0\troot\t_\t_\n\n"
        )
        with pytest.raises(ConlluEvalError, match=(
            r"\(lengths 36 vs 36, first difference at character 35: gold document 'g',"
            r" sentence 2 and system document 's', sentence 3\)$"
        )):
            eval_conllu(_corpus(gold), _corpus(system))
        # One text a prefix of the other: the shorter has no such character.
        with pytest.raises(ConlluEvalError, match=(
            r"\(lengths 36 vs 21, first difference at character 21: gold document 'g',"
            r" sentence 2 and the end of the system text\)$"
        )):
            eval_conllu(_corpus(gold), _corpus(TEN_WORD_GOLD))


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

    @pytest.mark.parametrize("kind", ["to the first word", "to the last word", "cycle"])
    def test_twenty_thousand_word_chain(self, kind):
        # Each word headed by its neighbour: a walk to the root from every
        # word would take 2 * 10^8 steps.
        n = 20_000
        if kind == "to the first word":
            heads = list(range(n))
        else:
            heads = [*range(2, n + 1), 0]
        if kind == "cycle":
            heads[0], heads[-1] = 0, 2
        text = "".join(
            f"{i}\tw\tw\tNOUN\tNN\t_\t{head}\t{'root' if head == 0 else 'nmod'}\t_\t_\n"
            for i, head in enumerate(heads, start=1)
        ) + "\n"
        corpus = _corpus(text)
        if kind == "cycle":
            with pytest.raises(ConlluEvalError, match="^document 'doc1', sentence 1: cycle"):
                eval_conllu(corpus, corpus)
            return
        report = eval_conllu(corpus, corpus)
        assert report.las == report.mlas == PrfCounts(n, n, n)

    def test_order_independence_of_counts(self):
        two_sentences = TEN_WORD_GOLD + GOLD_SPLIT
        reversed_order = GOLD_SPLIT + TEN_WORD_GOLD
        a = eval_conllu(_corpus(two_sentences), _corpus(two_sentences))
        b = eval_conllu(_corpus(reversed_order), _corpus(reversed_order))
        assert a.scores() == b.scores()


# Forms from a small alphabet, so that the LCS inside a multiword region
# has ties to break; "A" and "a" are equal to it.
_FORMS = ["a", "b", "ab", "ba", "A"]
_UPOS = ["NOUN", "VERB", "ADP", "DET"]
_XPOS = ["NN", "VB"]
_FEATS = ["_", "Case=Nom", "Case=Gen|Number=Sing", "Case=Nom|Foo=Bar", "Foo=Bar"]
# Content, functional (with subtypes) and neither.
_DEPRELS = ["nsubj", "obj:x", "obl", "amod", "case", "det", "aux:pass", "cc", "punct"]


def _tree(rng: random.Random, heads: list[int | None], root: int) -> list[int]:
    """``heads`` (1-based, 0 for the root, None for any word) made into one
    tree under word ``root`` (0-based): every cycle is cut at the root."""
    heads = [
        0 if i == root else (rng.randint(1, len(heads)) if h in (None, 0) else h)
        for i, h in enumerate(heads)
    ]
    for i in range(len(heads)):
        seen, node = set(), i
        while heads[node] != 0:
            if node in seen:
                heads[node] = root + 1
                break
            seen.add(node)
            node = heads[node] - 1
    return heads


def _word(rng: random.Random) -> dict:
    return {"lemma": "_" if rng.random() < 0.2 else rng.choice(_FORMS),
            "upos": rng.choice(_UPOS), "xpos": rng.choice(_XPOS), "feats": rng.choice(_FEATS),
            "deprel": rng.choice(_DEPRELS), "head": None}


def _sentence_rows(tokens: list[tuple[str, list[dict]]]) -> str:
    """CoNLL-U rows of surface tokens, each (its text, its words)."""
    rows, n = [], 0
    for surface, words in tokens:
        if len(words) > 1 or words[0]["form"] != surface:
            rows.append(f"{n + 1}-{n + len(words)}\t{surface}" + "\t_" * 8)
        for word in words:
            n += 1
            columns = [word["form"], word["lemma"], word["upos"], word["xpos"], word["feats"]]
            deprel = "root" if word["head"] == 0 else word["deprel"]
            rows.append("\t".join([str(n), *columns, str(word["head"]), deprel, "_", "_"]))
    return "\n".join(rows) + "\n\n"


def _random_pair(rng: random.Random) -> tuple[str, str]:
    """A gold and a system sentence with one raw text: the system fuses,
    splits and merges the gold's tokens and errs in every column."""
    gold_tokens = []
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.3:
            words = [{**_word(rng), "form": rng.choice(_FORMS)} for _ in range(rng.randint(2, 3))]
            surface = rng.choice(_FORMS) + rng.choice(_FORMS)
        else:
            surface = rng.choice(_FORMS) + rng.choice(["", "b"])
            words = [{**_word(rng), "form": surface}]
        gold_tokens.append((surface, words))
    gold_words = [w for _, words in gold_tokens for w in words]
    root = rng.randrange(len(gold_words))
    for word, head in zip(gold_words, _tree(rng, [None] * len(gold_words), root)):
        word["head"] = head
    # Gold word index -> the system word copied from it.
    copies: dict[int, int] = {}
    system_tokens, system_words = [], []
    k = index = 0
    while k < len(gold_tokens):
        surface, words = gold_tokens[k]
        choice = rng.random()
        if choice < 0.1 and k + 1 < len(gold_tokens):
            merged = surface + rng.choice(["", "\u00a0"]) + gold_tokens[k + 1][0]
            new = [(merged, [{**_word(rng), "form": merged}])]
            index += len(words) + len(gold_tokens[k + 1][1])
            k += 2
        else:
            if choice < 0.5:
                new = [(surface, [dict(w) for w in words])]
                copies.update((index + j, len(system_words) + j) for j in range(len(words)))
            elif choice < 0.65:
                new = [(surface, [{**_word(rng), "form": surface}])]
            elif choice < 0.8:
                count = rng.randint(1, 3)
                new = [(surface, [{**_word(rng), "form": rng.choice(_FORMS)}
                                  for _ in range(count)])]
            else:
                cut = rng.randint(1, len(surface) - 1) if len(surface) > 1 else 0
                parts = [surface[:cut], surface[cut:]] if cut else [surface]
                new = [(part, [{**_word(rng), "form": part}]) for part in parts]
            index += len(words)
            k += 1
        for text, ws in new:
            system_tokens.append((text, ws))
            system_words.extend(ws)
    # Copied words keep the gold annotation but for random errors; their
    # heads follow the gold heads where those were copied too.
    gold_index = {v: g for g, v in copies.items()}
    heads: list[int | None] = []
    for j, word in enumerate(system_words):
        g = gold_index.get(j)
        head = None
        if g is not None:
            for column, values in (("lemma", _FORMS), ("upos", _UPOS), ("xpos", _XPOS),
                                   ("feats", _FEATS), ("deprel", _DEPRELS)):
                if rng.random() < 0.15:
                    word[column] = rng.choice(values)
            gold_head = gold_words[g]["head"]
            if rng.random() < 0.85 and gold_head and gold_head - 1 in copies:
                head = copies[gold_head - 1] + 1
        heads.append(head)
    system_root = copies.get(root, rng.randrange(len(system_words)))
    for word, head in zip(system_words, _tree(rng, heads, system_root)):
        word["head"] = head
    return _sentence_rows(gold_tokens), _sentence_rows(system_tokens)


class TestReferenceEquivalence:
    """The one-pass scorer against the multi-pass one it replaced, frozen
    in ``reference_conllu``."""

    NAMES = ("upos", "xpos", "ufeats", "lemmas", "uas", "las", "mlas", "blex")

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_on_random_pairs(self, seed):
        rng = random.Random(seed)
        seen = dict.fromkeys(["gold ranges", "system ranges", "word counts differ",
                              "gold lemma _", "LAS below UAS", "MLAS below BLEX"], 0)
        for trial in range(40):
            sentences = [_random_pair(rng) for _ in range(rng.randint(1, 4))]
            gold = _corpus("# newdoc id = d\n" + "".join(g for g, _ in sentences))
            system = _corpus("# newdoc id = d\n" + "".join(s for _, s in sentences))
            new = eval_conllu(gold, system)
            old = reference_conllu.eval_conllu(gold, system)
            for name in self.NAMES:
                assert getattr(new, name) == getattr(old, name), (trial, name)
            seen["gold ranges"] += any(s.multiword_ranges for s in gold.sentences())
            seen["system ranges"] += any(s.multiword_ranges for s in system.sentences())
            seen["MLAS below BLEX"] += new.mlas.correct < new.blex.correct
            seen["LAS below UAS"] += new.las.correct < new.uas.correct
            seen["word counts differ"] += new.upos.gold_total != new.upos.system_total
            seen["gold lemma _"] += any(t.lemma is None for s in gold.sentences() for t in s.tokens)
        assert all(seen.values()), seen


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
