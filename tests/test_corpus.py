"""Tests for corpus ingestion and fold splitting."""

import pytest
from hypothesis import given, settings, strategies as st

from desklm.corpus import (
    ConlluParseError,
    Corpus,
    CorpusError,
    Sentence,
    Token,
    ingest_conllu,
    ingest_plaintext,
    kfold_split,
    serialize_conllu,
)

CONLLU_SAMPLE = """\
# newdoc id = d1
# sent_id = 1
1\tPes\tpes\tNOUN\tNN\tCase=Nom|Gender=Masc\t2\tnsubj\t_\t_
2\tběží\tběžet\tVERB\tVB\t_\t0\troot\t_\tSpaceAfter=No

# sent_id = 2
1-2\tdoma\t_\t_\t_\t_\t_\t_\t_\t_
1\tdo\tdo\tADP\tRR\t_\t2\tcase\t_\t_
2\tma\tma\tNOUN\tNN\t_\t0\troot\t_\t_

# newdoc id = d2
1\tAhoj\tahoj\tINTJ\tII\t_\t0\troot\t_\t_

"""


class TestIngestPlaintext:
    def test_blank_line_separator(self):
        corpus = ingest_plaintext(b"a b\n\nc")
        assert len(corpus.documents) == 2
        assert corpus.token_count == 3

    def test_empty_stream(self):
        corpus = ingest_plaintext(b"")
        assert corpus.documents == ()
        assert corpus.token_count == 0

    def test_thousand_word_document_recount(self):
        words = [f"w{i}" for i in range(1000)]
        text = "\n".join(" ".join(words[i : i + 10]) for i in range(0, 1000, 10))
        corpus = ingest_plaintext(text.encode("utf-8"))
        assert len(corpus.documents) == 1
        # Independent oracle: plain whitespace split of the raw text.
        assert corpus.token_count == len(text.split())
        assert corpus.token_count == 1000

    def test_invalid_utf8_reports_offset(self):
        with pytest.raises(CorpusError, match="byte offset 4"):
            ingest_plaintext(b"abcd\xff")


class TestIngestConllu:
    def test_two_token_sentence_heads(self):
        data = (
            "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
        )
        corpus = ingest_conllu(data.encode("utf-8"))
        sentence = corpus.documents[0].sentences[0]
        assert [t.head for t in sentence.tokens] == [2, 0]

    def test_non_integer_head_is_parse_error(self):
        data = "1\ta\t_\t_\t_\t_\tx\tdep\t_\t_\n\n"
        with pytest.raises(ConlluParseError, match="line 1"):
            ingest_conllu(data.encode("utf-8"))

    def test_head_out_of_range(self):
        data = "1\ta\t_\t_\t_\t_\t5\tdep\t_\t_\n\n"
        with pytest.raises(ConlluParseError):
            ingest_conllu(data.encode("utf-8"))

    def test_column_count_violation(self):
        with pytest.raises(ConlluParseError, match="line 1"):
            ingest_conllu(b"1\ta\t_\n\n")

    def test_newdoc_starts_documents(self):
        corpus = ingest_conllu(CONLLU_SAMPLE.encode("utf-8"))
        assert [d.id for d in corpus.documents] == ["d1", "d2"]
        assert len(corpus.documents[0].sentences) == 2
        assert corpus.token_count == 5

    def test_multiword_range_excluded_from_heads(self):
        corpus = ingest_conllu(CONLLU_SAMPLE.encode("utf-8"))
        sentence = corpus.documents[0].sentences[1]
        assert sentence.forms == ["do", "ma"]
        assert sentence.extra_rows[0][0] == 0
        assert sentence.extra_rows[0][1][0] == "1-2"

    def test_round_trip_identity(self):
        corpus = ingest_conllu(CONLLU_SAMPLE.encode("utf-8"))
        text = serialize_conllu(corpus)
        again = ingest_conllu(text.encode("utf-8"))
        assert again == corpus
        assert serialize_conllu(again) == text

    def test_serialize_reproduces_input_bytes(self):
        assert serialize_conllu(ingest_conllu(CONLLU_SAMPLE.encode("utf-8"))) == CONLLU_SAMPLE


class TestTokenInvariants:
    def test_empty_form_rejected(self):
        with pytest.raises(CorpusError):
            Token(form="")

    def test_unsorted_feats_rejected(self):
        with pytest.raises(CorpusError):
            Token(form="x", ufeats=(("B", "1"), ("A", "2")))

    def test_crossing_spans_rejected(self):
        tokens = tuple(Token(form=f"t{i}") for i in range(4))
        with pytest.raises(CorpusError):
            Sentence(tokens, entity_spans=((1, 3, "A"), (2, 4, "B")))

    def test_nested_spans_accepted(self):
        tokens = tuple(Token(form=f"t{i}") for i in range(4))
        sentence = Sentence(tokens, entity_spans=((1, 4, "A"), (2, 3, "B")))
        assert len(sentence.entity_spans) == 2


class TestKfoldSplit:
    def test_ten_items_ten_folds(self):
        splits = kfold_split([f"i{n}" for n in range(10)], k=10, seed=1)
        assert all(len(s.test_ids) == 1 for s in splits)

    def test_partition_property(self):
        ids = [f"i{n}" for n in range(25)]
        splits = kfold_split(ids, k=10, seed=2)
        collected = [i for s in splits for i in s.test_ids]
        assert sorted(collected) == sorted(ids)

    def test_dev_size_arithmetic(self):
        splits = kfold_split([f"i{n}" for n in range(100)], k=10, seed=3)
        for s in splits:
            assert len(s.test_ids) == 10
            assert len(s.dev_ids) == 9  # round(0.1 * 90)
            assert len(s.train_ids) == 81

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            kfold_split(["a", "b"], k=10)

    @given(n=st.integers(10, 60), seed=st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_disjointness_and_determinism(self, n, seed):
        ids = [f"i{j}" for j in range(n)]
        splits = kfold_split(ids, k=10, seed=seed)
        again = kfold_split(ids, k=10, seed=seed)
        assert splits == again
        for s in splits:
            train, dev, test = set(s.train_ids), set(s.dev_ids), set(s.test_ids)
            assert not (train & dev) and not (train & test) and not (dev & test)
            assert train | dev | test == set(ids)
