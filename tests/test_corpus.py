"""Tests for corpus ingestion and fold splitting."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from desklm.corpus import (
    ConlluParseError,
    Corpus,
    CorpusError,
    Document,
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


def _row(index: int, form: str, feats: str, head: int) -> str:
    return f"{index}\t{form}\t_\t_\t_\t{feats}\t{head}\tdep\t_\t_\n"


#: A few bundles shared by many tokens, so the parser's bundle table is hit.
_FEATS_POOL = (
    None,
    (("Case", "Nom"),),
    (("Case", "Acc"), ("Number", "Sing")),
    (("Gender", "Fem"), ("Number", "Plur"), ("Poss", "Yes")),
)
_WORD = st.text(alphabet="abcčž", min_size=1, max_size=4)
_TOKENS = st.builds(
    Token,
    form=_WORD,
    lemma=st.none() | _WORD,
    upos=st.sampled_from([None, "NOUN", "VERB"]),
    ufeats=st.sampled_from(_FEATS_POOL),
    deprel=st.sampled_from([None, "dep", "nsubj:pass"]),
    misc=st.sampled_from([None, "SpaceAfter=No"]),
)


def _with_heads(tokens: list[Token]) -> list[Token]:
    """The tokens, each headed by the one before it (the first by the root)."""
    return [replace(t, head=i) for i, t in enumerate(tokens)]


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

    @pytest.mark.parametrize("data", [b"", b"\n", b"\n\n\n"])
    def test_blank_lines_only_give_an_empty_corpus(self, data):
        assert ingest_conllu(data) == Corpus(())

    def test_several_blank_lines_between_sentences(self):
        data = "\n\n" + _row(1, "a", "_", 0) + "\n\n\n" + _row(1, "b", "_", 0) + "\n\n"
        corpus = ingest_conllu(data.encode("utf-8"))
        assert [s.forms for s in corpus.sentences()] == [["a"], ["b"]]
        # Line numbers still count every blank line.
        data = data.replace(_row(1, "b", "_", 0), _row(1, "b", "_", "x"))
        with pytest.raises(ConlluParseError, match="^line 7: non-integer HEAD 'x'$"):
            ingest_conllu(data.encode("utf-8"))

    def test_no_final_newline(self):
        data = _row(1, "a", "_", 0) + "\n" + _row(1, "b", "_", 0)
        corpus = ingest_conllu(data.rstrip("\n").encode("utf-8"))
        assert [s.forms for s in corpus.sentences()] == [["a"], ["b"]]
        # A block-level fault names the line past the last one.
        data = data.replace(_row(1, "b", "_", 0), _row(1, "b", "_", 3))
        with pytest.raises(ConlluParseError, match="^line 4: head 3 out of range for length 1$"):
            ingest_conllu(data.rstrip("\n").encode("utf-8"))

    def test_newdoc_without_id_mid_file_is_named_by_position(self):
        data = (
            "# newdoc id = first\n" + _row(1, "a", "_", 0) + "\n"
            + "# newdoc\n" + _row(1, "b", "_", 0) + "\n"
            + _row(1, "c", "_", 0) + "\n"
            + "# newdoc id =\n" + _row(1, "d", "_", 0) + "\n"
        )
        corpus = ingest_conllu(data.encode("utf-8"))
        assert [(d.id, len(d.sentences)) for d in corpus.documents] == [
            ("first", 1), ("doc2", 2), ("doc3", 1)
        ]

    def test_sentences_before_the_first_newdoc_form_doc1(self):
        data = _row(1, "a", "_", 0) + "\n" + "# newdoc id = d\n" + _row(1, "b", "_", 0) + "\n"
        corpus = ingest_conllu(data.encode("utf-8"))
        assert [d.id for d in corpus.documents] == ["doc1", "d"]

    def test_comment_only_block_names_the_line_after_it(self):
        data = _row(1, "a", "_", 0) + "\n# orphan\n\n"
        with pytest.raises(ConlluParseError, match="^line 4: sentence contains no word lines$"):
            ingest_conllu(data.encode("utf-8"))

    def test_feature_error_carries_one_line_prefix(self):
        data = "".join(_row(i, f"t{i}", "A=1", 0 if i == 1 else 1) for i in range(1, 5))
        data += _row(5, "t5", "B=1|B=2", 1) + "\n"
        with pytest.raises(ConlluParseError) as caught:
            ingest_conllu(data.encode("utf-8"))
        assert str(caught.value) == "line 5: duplicate feature names in 'B=1|B=2'"
        assert caught.value.line_number == 5

    def test_token_error_carries_one_line_prefix(self):
        data = "1\t\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
        with pytest.raises(ConlluParseError) as caught:
            ingest_conllu(data.encode("utf-8"))
        assert str(caught.value) == "line 1: token form must be non-empty"

    def test_repeated_bundles_share_one_tuple(self):
        data = (
            _row(1, "a", "Number=Sing|Case=Nom", 0)
            + _row(2, "b", "Number=Sing|Case=Nom", 1)
            + "\n"
            + _row(1, "c", "Number=Sing|Case=Nom", 0)
            + "\n"
        )
        tokens = [t for s in ingest_conllu(data.encode("utf-8")).sentences() for t in s.tokens]
        assert tokens[0].ufeats == (("Case", "Nom"), ("Number", "Sing"))
        assert all(t.ufeats is tokens[0].ufeats for t in tokens)

    def test_malformed_bundle_after_valid_ones_names_its_line(self):
        data = (
            _row(1, "a", "Case=Nom", 0)
            + _row(2, "b", "Case=Nom", 1)
            + "\n"
            + _row(1, "c", "Case=Nom", 0)
            + _row(2, "d", "Case", 1)
            + "\n"
        )
        with pytest.raises(ConlluParseError, match="^line 5: malformed feature 'Case'$"):
            ingest_conllu(data.encode("utf-8"))

    @given(st.lists(st.lists(st.lists(_TOKENS, min_size=1, max_size=6), min_size=1,
                             max_size=3), min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_round_trip_over_shared_bundles(self, documents):
        corpus = Corpus(tuple(
            Document(f"d{k}", tuple(
                Sentence(tuple(_with_heads(tokens)),
                         comments=(f"# newdoc id = d{k}",) if j == 0 else ())
                for j, tokens in enumerate(sentences)
            ))
            for k, sentences in enumerate(documents)
        ))
        assert ingest_conllu(serialize_conllu(corpus).encode("utf-8")) == corpus


class TestConlluExtraRows:
    """Multiword-token ranges and empty nodes are checked at ingest."""

    WORDS = [_row(1, "do", "_", 2), _row(2, "ma", "_", 0)]

    @staticmethod
    def _extra(token_id: str) -> str:
        return f"{token_id}\tx" + "\t_" * 8 + "\n"

    def test_valid_range_and_empty_node_accepted(self):
        rows = [self._extra("1-2"), *self.WORDS, self._extra("2.1")]
        sentence = next(ingest_conllu(("".join(rows) + "\n").encode("utf-8")).sentences())
        assert [(pos, columns[0]) for pos, columns in sentence.extra_rows] == [
            (0, "1-2"), (2, "2.1")
        ]

    # (id, the row's position among the two word rows, the error raised)
    MALFORMED = [
        ("1-x", 0, "line 1: malformed multiword token range '1-x'"),
        ("-2", 0, "line 1: malformed multiword token range '-2'"),
        ("1-2-3", 0, "line 1: malformed multiword token range '1-2-3'"),
        ("2-3", 0, "line 1: multiword token range '2-3' must start at word 1"),
        ("1-2", 1, "line 2: multiword token range '1-2' must start at word 2"),
        ("2-1", 1, "line 2: multiword token range '2-1' ends before it starts"),
        # Checked when the sentence ends: the range's own line is named.
        ("3-4", 2, "line 3: multiword token range '3-4' ends past the sentence's last word 2"),
        ("2-3", 1, "line 2: multiword token range '2-3' ends past the sentence's last word 2"),
        ("1.1", 0, "line 1: malformed empty node id '1.1', expected 0.N"),
        ("1.x", 1, "line 2: malformed empty node id '1.x', expected 1.N"),
        ("0.1", 1, "line 2: malformed empty node id '0.1', expected 1.N"),
    ]

    @pytest.mark.parametrize("token_id, before, message", MALFORMED,
                             ids=[f"{token_id}@{before}" for token_id, before, _ in MALFORMED])
    def test_malformed_id_rejected(self, token_id, before, message):
        rows = list(self.WORDS)
        rows.insert(before, self._extra(token_id))
        with pytest.raises(ConlluParseError) as caught:
            ingest_conllu(("".join(rows) + "\n").encode("utf-8"))
        assert str(caught.value) == message

    @pytest.mark.parametrize("token_id, before, message", MALFORMED,
                             ids=[f"{token_id}@{before}" for token_id, before, _ in MALFORMED])
    def test_malformed_id_rejected_by_sentence(self, token_id, before, message):
        # A sentence built without ingest gets the same rule and message.
        words = next(ingest_conllu(("".join(self.WORDS) + "\n").encode("utf-8")).sentences())
        columns = tuple(self._extra(token_id).rstrip("\n").split("\t"))
        with pytest.raises(CorpusError) as caught:
            Sentence(words.tokens, extra_rows=((before, columns),))
        assert str(caught.value) == message.partition(": ")[2]

    @pytest.mark.parametrize("token_id, before", [("3.1", 3), ("0-0", -1), ("1-1", -1)])
    def test_row_outside_the_sentence_rejected(self, token_id, before):
        # Only a hand-built sentence can place a row there: serializing
        # would drop it.
        sentence = next(ingest_conllu(("".join(self.WORDS) + "\n").encode("utf-8")).sentences())
        columns = tuple(self._extra(token_id).rstrip("\n").split("\t"))
        with pytest.raises(CorpusError,
                           match=f"^extra row '{token_id}' is placed at {before}, outside 0..2$"):
            replace(sentence, extra_rows=((before, columns),))

    @pytest.mark.parametrize("columns, message", [
        (("1-2",), "extra row '1-2' has 1 columns, expected 10"),
        (("1-2", "x") + ("_",) * 9, "extra row '1-2' has 11 columns, expected 10"),
        ((), "extra row is empty, expected 10 columns"),
    ])
    def test_extra_row_of_the_wrong_width_rejected(self, columns, message):
        # Accepted, a one-column range would break eval_conllu and
        # serialize as a one-column row.
        with pytest.raises(CorpusError, match=f"^{message}$"):
            Sentence((Token("a", head=0), Token("b", head=1)), extra_rows=((0, columns),))

    THREE_WORDS = [_row(1, "a", "_", 0), _row(2, "b", "_", 1), _row(3, "c", "_", 1)]

    def test_overlapping_range_names_its_own_line(self):
        # Accepted, eval_conllu would drop the second range and score its
        # words as if they were not fused.
        rows = [self._extra("1-2"), self.THREE_WORDS[0], self._extra("2-3"),
                *self.THREE_WORDS[1:]]
        with pytest.raises(ConlluParseError) as caught:
            ingest_conllu(("".join(rows) + "\n").encode("utf-8"))
        assert str(caught.value) == (
            "line 3: multiword token range '2-3' overlaps or precedes range '1-2'"
        )

    @pytest.mark.parametrize("ranges, message", [
        (((0, "1-2"), (1, "2-3")), "multiword token range '2-3' overlaps or precedes range '1-2'"),
        (((0, "1-3"), (1, "2-2")), "multiword token range '2-2' overlaps or precedes range '1-3'"),
        (((2, "3-3"), (0, "1-2")), "multiword token range '1-2' overlaps or precedes range '3-3'"),
        (((0, "1-2"), (2, "3-3")), None),
    ], ids=["overlap", "nested", "out of order", "adjacent"])
    def test_ranges_must_follow_one_another(self, ranges, message):
        text = "".join(self.THREE_WORDS) + "\n"
        tokens = next(ingest_conllu(text.encode("utf-8")).sentences()).tokens
        extra_rows = tuple(
            (before, tuple(self._extra(token_id).rstrip("\n").split("\t")))
            for before, token_id in ranges
        )
        if message is None:
            assert Sentence(tokens, extra_rows=extra_rows).multiword_ranges == [
                (1, 2, "x"), (3, 3, "x")
            ]
            return
        with pytest.raises(CorpusError, match=f"^{message}$"):
            Sentence(tokens, extra_rows=extra_rows)

    def test_multiword_ranges_are_one_based(self):
        rows = [self._extra("1-2"), *self.WORDS, self._extra("2.1")]
        sentence = next(ingest_conllu(("".join(rows) + "\n").encode("utf-8")).sentences())
        assert sentence.multiword_ranges == [(1, 2, "x")]

    @pytest.mark.parametrize("token_id", ["1-2", "0.1"])
    def test_comment_after_an_extra_row_names_its_line(self, token_id):
        # Serializing would move the comment above the row.
        text = "".join([self._extra(token_id), "# c\n", *self.WORDS]) + "\n"
        with pytest.raises(ConlluParseError) as caught:
            ingest_conllu(text.encode("utf-8"))
        assert str(caught.value) == "line 2: comment after word lines"
        accepted = "".join(["# c\n", self._extra(token_id), *self.WORDS]) + "\n"
        assert serialize_conllu(ingest_conllu(accepted.encode("utf-8"))) == accepted


class TestTokenInvariants:
    def test_empty_form_rejected(self):
        with pytest.raises(CorpusError):
            Token(form="")

    def test_unsorted_feats_rejected(self):
        with pytest.raises(CorpusError, match="^ufeats must be sorted lexicographically$"):
            Token(form="x", ufeats=(("B", "1"), ("A", "2")))

    @pytest.mark.parametrize("ufeats", [
        (("A", "1"), ("A", "2")),
        (("A", "2"), ("A", "1")),
        (("A", "1"), ("B", "1"), ("A", "1")),
    ])
    def test_duplicate_feature_names_rejected(self, ufeats):
        with pytest.raises(CorpusError, match="^duplicate feature names in "):
            Token(form="x", ufeats=ufeats)

    @pytest.mark.parametrize("ufeats", [None, (), (("A", "1"),), (("A", "2"), ("B", "1"))])
    def test_valid_feats_accepted(self, ufeats):
        assert Token(form="x", ufeats=ufeats).ufeats == ufeats

    def test_token_is_frozen_and_slotted(self):
        token = Token("x", head=0)
        with pytest.raises(AttributeError):
            token.head = 1
        assert not hasattr(token, "__dict__")
        assert token == Token("x", head=0) and hash(token) == hash(Token("x", head=0))

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
