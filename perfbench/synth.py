"""Deterministic synthetic inputs for the desk benchmark.

Every generator takes a ``random.Random`` seeded from the workload seed
and returns text (or arrays) in the formats the library reads: plain
text, CoNLL-U, MRP JSON lines and arc-score matrices.
Nothing here imports ``desklm``: the program only sees the outputs.

The language is Czech-like: syllables carry diacritics (multi-byte
UTF-8), content words inflect by suffix, lemmas follow from the stem,
and word choice is Zipfian.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

ONSETS = ("k", "p", "t", "v", "s", "m", "n", "l", "r", "d", "b", "z", "h", "č", "ř", "š",
          "ž", "j")
VOWELS = ("a", "e", "i", "o", "u", "y", "á", "é", "í", "ú", "ů", "ě", "ý")

NOUN_ENDINGS = (("a", "Nom", "Sing"), ("y", "Gen", "Sing"), ("e", "Dat", "Sing"),
                ("u", "Acc", "Sing"), ("ou", "Ins", "Sing"), ("y", "Nom", "Plur"),
                ("ám", "Dat", "Plur"), ("ách", "Loc", "Plur"), ("ami", "Ins", "Plur"))
VERB_ENDINGS = (("ám", "1", "Sing"), ("áš", "2", "Sing"), ("á", "3", "Sing"),
                ("áme", "1", "Plur"), ("áte", "2", "Plur"), ("ají", "3", "Plur"))
ADJ_ENDINGS = (("ý", "Nom"), ("ého", "Gen"), ("ému", "Dat"), ("ým", "Ins"), ("á", "Nom"))

PREPOSITIONS = ("v", "na", "do", "z", "s", "k", "o", "po", "při", "za")
CONJUNCTIONS = ("a", "ale", "nebo")
#: Multiword tokens: surface form -> (preposition, pronoun); the pronoun
#: heads the preposition, so merging the two never breaks a tree.
CONTRACTIONS = (("nač", "na", "co"), ("zač", "za", "co"), ("oč", "o", "co"))

FIRST_NAMES = ("Jan", "Petr", "Eva", "Jiří", "Ota", "Ivo", "Ema", "Dan")
SURNAMES = ("Novák", "Bém", "Kos", "Mráz", "Vlk", "Král", "Černý")
PLACES = ("Praze", "Brně", "Plzni", "Kolíně", "Táboře", "Písku")
ORG_HEADS = ("Banka", "Nadace", "Klub", "Škola", "Firma")


def _syllables(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(rng.randint(low, high)))


@dataclass
class Lexicon:
    """Stems per word class with Zipfian sampling weights."""

    nouns: list[str]
    verbs: list[str]
    adjectives: list[str]
    weights: dict[str, list[float]] = field(default_factory=dict)

    @classmethod
    def build(cls, rng: random.Random, nouns: int, verbs: int, adjectives: int) -> "Lexicon":
        def stems(count: int) -> list[str]:
            seen: dict[str, None] = {}
            while len(seen) < count:
                seen.setdefault(_syllables(rng, 1, 3) + rng.choice("kltnvsrdm"), None)
            return list(seen)

        lexicon = cls(stems(nouns), stems(verbs), stems(adjectives))
        for name in ("nouns", "verbs", "adjectives"):
            size = len(getattr(lexicon, name))
            lexicon.weights[name] = [1.0 / (rank + 1) ** 1.1 for rank in range(size)]
        return lexicon

    def pick(self, rng: random.Random, kind: str) -> str:
        return rng.choices(getattr(self, kind), self.weights[kind])[0]


@dataclass
class Word:
    """One syntactic word of a generated sentence (heads are 1-based, 0 = root)."""

    form: str
    lemma: str
    upos: str
    feats: str
    head: int
    deprel: str


@dataclass
class GenSentence:
    words: list[Word]
    #: (start, end, label), 1-based inclusive, possibly nested.
    entities: list[tuple[int, int, str]]
    #: (first word index, surface form), 1-based; the range covers two words.
    contractions: list[tuple[int, str]]


class _Builder:
    """Appends words and wires heads by word index."""

    def __init__(self):
        self.words: list[Word] = []
        self.entities: list[tuple[int, int, str]] = []
        self.contractions: list[tuple[int, str]] = []

    def add(self, form, lemma, upos, feats="_", deprel="dep") -> int:
        self.words.append(Word(form, lemma, upos, feats, 0, deprel))
        return len(self.words)

    def attach(self, dependent: int, head: int, deprel: str) -> None:
        self.words[dependent - 1].head = head
        self.words[dependent - 1].deprel = deprel


def _noun(b: _Builder, lex: Lexicon, rng: random.Random) -> int:
    stem = lex.pick(rng, "nouns")
    ending, case, number = rng.choice(NOUN_ENDINGS)
    return b.add(stem + ending, stem + "a", "NOUN", f"Case={case}|Number={number}")


def _adjective(b: _Builder, lex: Lexicon, rng: random.Random) -> int:
    stem = lex.pick(rng, "adjectives")
    ending, case = rng.choice(ADJ_ENDINGS)
    return b.add(stem + ending, stem + "ý", "ADJ", f"Case={case}|Degree=Pos")


def _entity(b: _Builder, rng: random.Random) -> int:
    """A person or an organisation (with a nested place or person); returns its head."""
    start = len(b.words) + 1
    if rng.random() < 0.5:
        first = b.add(rng.choice(FIRST_NAMES), None, "PROPN", "NameType=Giv")
        last = b.add(rng.choice(SURNAMES), None, "PROPN", "NameType=Sur")
        b.attach(first, last, "flat")
        b.entities.append((start, last, "PER"))
        return last
    head = b.add(rng.choice(ORG_HEADS), None, "NOUN", "Case=Nom|Number=Sing")
    if rng.random() < 0.6:
        prep = b.add("v", None, "ADP", "AdpType=Prep")
        place = b.add(rng.choice(PLACES), None, "PROPN", "Case=Loc|NameType=Geo")
        b.attach(prep, place, "case")
        b.attach(place, head, "nmod")
        b.entities.append((place, place, "LOC"))
    else:
        first = b.add(rng.choice(FIRST_NAMES), None, "PROPN", "NameType=Giv")
        last = b.add(rng.choice(SURNAMES), None, "PROPN", "NameType=Sur")
        b.attach(first, last, "flat")
        b.attach(last, head, "nmod")
        b.entities.append((first, last, "PER"))
    b.entities.append((start, len(b.words), "ORG"))
    return head


def _noun_phrase(b: _Builder, lex: Lexicon, rng: random.Random, entity_rate: float) -> int:
    if rng.random() < entity_rate:
        return _entity(b, rng)
    adjective = _adjective(b, lex, rng) if rng.random() < 0.4 else None
    noun = _noun(b, lex, rng)
    if adjective is not None:
        b.attach(adjective, noun, "amod")
    return noun


def gen_sentence(lex: Lexicon, rng: random.Random, entity_rate: float = 0.3,
                 max_extras: int = 1) -> GenSentence:
    """Subject, verb, object and up to ``max_extras`` prepositional phrases
    or contractions; about one sentence in five gets an extraposed
    adjective, which makes its tree non-projective."""
    b = _Builder()
    subject = _noun_phrase(b, lex, rng, entity_rate)
    stem = lex.pick(rng, "verbs")
    ending, person, number = rng.choice(VERB_ENDINGS)
    verb = b.add(stem + ending, stem + "at", "VERB",
                 f"Mood=Ind|Number={number}|Person={person}|Tense=Pres")
    b.attach(subject, verb, "nsubj")
    if rng.random() < 0.2:
        # Adjective after the verb modifying the subject: crosses the root arc.
        extraposed = _adjective(b, lex, rng)
        b.attach(extraposed, subject, "amod")
    obj = _noun_phrase(b, lex, rng, entity_rate)
    b.attach(obj, verb, "obj")
    for _ in range(rng.randint(0, max_extras)):
        if rng.random() < 0.25:
            surface, prep_form, pron_form = rng.choice(CONTRACTIONS)
            prep = b.add(prep_form, None, "ADP", "AdpType=Prep")
            pron = b.add(pron_form, None, "PRON", "Case=Acc|PronType=Int")
            b.attach(prep, pron, "case")
            b.attach(pron, verb, "obl")
            b.contractions.append((prep, surface))
        else:
            prep = b.add(rng.choice(PREPOSITIONS), None, "ADP", "AdpType=Prep")
            noun = _noun_phrase(b, lex, rng, entity_rate)
            b.attach(prep, noun, "case")
            b.attach(noun, verb, "obl")
    if rng.random() < 0.3:
        conj = b.add(rng.choice(CONJUNCTIONS), None, "CCONJ")
        other = _noun(b, lex, rng)
        b.attach(conj, other, "cc")
        b.attach(other, obj, "conj")
    punct = b.add(".", None, "PUNCT")
    b.attach(punct, verb, "punct")
    b.attach(verb, 0, "root")
    for word in b.words:
        if word.lemma is None:
            word.lemma = word.form if word.upos == "PROPN" else word.form.lower()
    return GenSentence(b.words, b.entities, b.contractions)


def _surface_tokens(sentence: GenSentence) -> list[str]:
    """Whitespace tokens of the raw text (contractions fused)."""
    starts = dict(sentence.contractions)
    tokens, index = [], 1
    while index <= len(sentence.words):
        if index in starts:
            tokens.append(starts[index])
            index += 2
        else:
            tokens.append(sentence.words[index - 1].form)
            index += 1
    return tokens


def plain_text(rng: random.Random, lex: Lexicon, documents: int,
               sentences_per_doc: tuple[int, int]) -> bytes:
    """Blank-line separated documents, one sentence per line."""
    blocks = []
    for _ in range(documents):
        lines = []
        for _ in range(rng.randint(*sentences_per_doc)):
            tokens = _surface_tokens(gen_sentence(lex, rng, entity_rate=0.1, max_extras=2))
            tokens[0] = tokens[0][:1].upper() + tokens[0][1:]
            lines.append(" ".join(tokens))
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks) + "\n").encode("utf-8")


def _entity_comment(entities) -> str:
    body = " ".join(f"{s}-{e}:{label}" for s, e, label in sorted(entities))
    return f"# entities = {body}" if body else "# entities ="


def conllu_row(index: int, word: Word) -> str:
    return "\t".join([str(index), word.form, word.lemma, word.upos, "_", word.feats,
                      str(word.head), word.deprel, "_", "_"])


def conllu_sentence(sentence: GenSentence, sent_id: str, newdoc: str | None = None) -> str:
    """CoNLL-U block; entity spans ride in a ``# entities`` comment."""
    lines = []
    if newdoc is not None:
        lines.append(f"# newdoc id = {newdoc}")
    lines.append(f"# sent_id = {sent_id}")
    lines.append(_entity_comment(sentence.entities))
    starts = dict(sentence.contractions)
    for index, word in enumerate(sentence.words, start=1):
        if index in starts:
            lines.append("\t".join([f"{index}-{index + 1}", starts[index]] + ["_"] * 8))
        lines.append(conllu_row(index, word))
    return "\n".join(lines) + "\n\n"


def treebank(rng: random.Random, lex: Lexicon, sentences: int, doc_size: int,
             prefix: str, max_extras: int = 1, entity_rate: float = 0.3
             ) -> tuple[str, list[GenSentence]]:
    parts, generated = [], []
    for i in range(sentences):
        sentence = gen_sentence(lex, rng, entity_rate=entity_rate, max_extras=max_extras)
        generated.append(sentence)
        newdoc = f"{prefix}-d{i // doc_size}" if i % doc_size == 0 else None
        parts.append(conllu_sentence(sentence, f"{prefix}-s{i}", newdoc))
    return "".join(parts), generated


def _subtree(words: list[Word], node: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for i, word in enumerate(words, start=1):
        children.setdefault(word.head, []).append(i)
    found, stack = set(), [node]
    while stack:
        current = stack.pop()
        found.add(current)
        stack.extend(children.get(current, ()))
    return found


def system_sentence(gold: GenSentence, rng: random.Random, error_rate: float) -> str:
    """A parser-like output for ``gold`` with the same raw text.

    Heads move to nodes outside the dependent's subtree (so the tree stays
    a single-root arborescence), labels, tags and lemmas change, and some
    contractions are segmented differently: fused into one word, or split
    at another character.
    """
    words = [Word(**vars(w)) for w in gold.words]
    # A contraction's preposition keeps its head (the pronoun), so fusing
    # the two words below can never close a cycle.
    prepositions = {start for start, _ in gold.contractions}
    for i, word in enumerate(words, start=1):
        if word.head != 0 and i not in prepositions and rng.random() < error_rate:
            banned = _subtree(words, i)
            options = [h for h in range(1, len(words) + 1) if h not in banned]
            if options:
                word.head = rng.choice(options)
        if rng.random() < error_rate:
            word.deprel = rng.choice(("obl", "nmod", "amod", "obj", "dep"))
        if rng.random() < error_rate:
            word.upos = rng.choice(("NOUN", "ADJ", "VERB", "PROPN"))
        if rng.random() < error_rate:
            word.lemma = word.form.lower()

    fused: dict[int, str] = {}
    resplit: dict[int, str] = {}
    kept: dict[int, str] = {}
    for start, surface in gold.contractions:
        roll = rng.random()
        if roll < 0.4:
            fused[start] = surface
        elif roll < 0.7:
            resplit[start] = surface
        else:
            kept[start] = surface
    # Renumber after fusing each contraction's two words into one.
    new_index, index = {}, 0
    for i in range(1, len(words) + 1):
        if i - 1 in fused:
            new_index[i] = new_index[i - 1]
        else:
            index += 1
            new_index[i] = index
    lines = [_entity_comment(gold.entities)]
    for i, word in enumerate(words, start=1):
        if i - 1 in fused:
            continue
        if i in fused:
            # The pronoun (word i+1) heads the preposition, so the fused
            # word takes the pronoun's head.
            pron = words[i]
            head = 0 if pron.head == 0 else new_index[pron.head]
            lines.append(conllu_row(new_index[i], Word(fused[i], pron.lemma, pron.upos,
                                                       pron.feats, head, pron.deprel)))
            continue
        head = 0 if word.head == 0 else new_index[word.head]
        form = word.form
        if i in resplit:
            surface = resplit[i]
            lines.append("\t".join([f"{new_index[i]}-{new_index[i] + 1}", surface] + ["_"] * 8))
            form = surface[:1]
        elif i - 1 in resplit:
            form = resplit[i - 1][1:]
        elif i in kept:
            lines.append("\t".join([f"{new_index[i]}-{new_index[i] + 1}", kept[i]] + ["_"] * 8))
        lines.append(conllu_row(new_index[i], Word(form, word.lemma, word.upos, word.feats,
                                                   head, word.deprel)))
    return "\n".join(lines) + "\n\n"


def treebank_pair(rng: random.Random, lex: Lexicon, sentences: int, doc_size: int,
                  error_rate: float) -> tuple[str, str]:
    """Gold and system CoNLL-U over the same raw text."""
    gold_text, generated = treebank(rng, lex, sentences, doc_size, "g", max_extras=3)
    system_parts = []
    for i, sentence in enumerate(generated):
        header = f"# newdoc id = g-d{i // doc_size}\n" if i % doc_size == 0 else ""
        system_parts.append(header + system_sentence(sentence, rng, error_rate))
    return gold_text, "".join(system_parts)


def _random_tree(rng: random.Random, n: int) -> tuple[list[int], int]:
    """Heads (1-based, 0 = root) of a random single-root tree, and its root."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * n
    for position, node in enumerate(order[1:], start=1):
        heads[node - 1] = order[rng.randrange(position)]
    return heads, order[0]


def arc_matrices(rng: random.Random, plan: list[tuple[int, bool]], noise: float,
                 margin: float) -> list[np.ndarray]:
    """Arc scores (n+1, n) around a random gold tree.

    Gold arcs get ``margin`` on top of Gaussian noise and the root row is
    pushed down except at the gold root child.  When ``plan`` marks an
    instance ambiguous, a second token scores highest from the root, so
    the unconstrained tree has two root children and single-root decoding
    must re-decode once per candidate root child.
    """
    nrng = np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
    matrices = []
    for n, ambiguous in plan:
        heads, root = _random_tree(rng, n)
        arc = nrng.normal(0.0, noise, size=(n + 1, n))
        arc[0] -= margin
        for dependent, head in enumerate(heads):
            arc[head, dependent] += margin
        arc[0, root - 1] += 2 * margin
        if ambiguous and n > 1:
            other = rng.choice([d for d in range(1, n + 1) if d != root])
            arc[0, other - 1] = arc[heads[other - 1], other - 1] + margin
        matrices.append(arc)
    return matrices


MRP_LABELS = ("_pes_n", "_kočka_n", "_vidět_v", "_dát_v", "_velký_a", "_na_p", "_a_c",
              "udef_q", "compound", "named")
MRP_EDGES = ("ARG1", "ARG2", "ARG3", "BV", "mod", "L-INDEX", "R-INDEX")


def _mrp_graph(rng: random.Random, graph_id: str, n: int) -> dict:
    text = " ".join(_syllables(rng, 1, 2) for _ in range(n))
    nodes = []
    for i in range(n):
        node = {"id": i, "label": rng.choice(MRP_LABELS),
                "anchors": [{"from": 2 * i, "to": 2 * i + 2}]}
        if rng.random() < 0.4:
            node["properties"], node["values"] = ["pos"], [rng.choice(("n", "v", "a"))]
        nodes.append(node)
    edges = []
    for i in range(1, n):
        edges.append({"source": rng.randrange(i), "target": i, "label": rng.choice(MRP_EDGES)})
    for _ in range(n // 3):
        source, target = rng.randrange(n), rng.randrange(n)
        if source != target:
            edge = {"source": source, "target": target, "label": rng.choice(MRP_EDGES)}
            if rng.random() < 0.3:
                edge["attributes"], edge["values"] = ["remote"], ["true"]
            edges.append(edge)
    return {"id": graph_id, "input": text[: 2 * n + 2].ljust(2 * n + 2),
            "tops": [0], "nodes": nodes, "edges": edges}


def _mrp_system(rng: random.Random, gold: dict, error_rate: float, size_delta: int) -> dict:
    """Relabel, re-anchor and re-wire ``gold``; add or drop nodes by ``size_delta``."""
    nodes = [dict(node) for node in gold["nodes"]]
    n = len(nodes)
    if size_delta < 0:
        nodes = nodes[: n + size_delta]
    for node in nodes:
        if rng.random() < error_rate:
            node["label"] = rng.choice(MRP_LABELS)
        if rng.random() < error_rate:
            start = node["anchors"][0]["from"]
            node["anchors"] = [{"from": start, "to": start + 1}]
    for extra in range(max(size_delta, 0)):
        nodes.append({"id": n + extra, "label": rng.choice(MRP_LABELS),
                      "anchors": [{"from": 0, "to": 1}]})
    known = {node["id"] for node in nodes}
    edges = []
    for edge in gold["edges"]:
        edge = dict(edge)
        if rng.random() < error_rate:
            edge["target"] = rng.choice(sorted(known))
            edge["label"] = rng.choice(MRP_EDGES)
        if edge["source"] in known and edge["target"] in known:
            edges.append(edge)
    tops = [top for top in gold["tops"] if top in known]
    return {"id": gold["id"], "input": gold["input"], "tops": tops, "nodes": nodes,
            "edges": edges}


def mrp_pairs(rng: random.Random, sizes: list[int], error_rate: float) -> tuple[str, str]:
    """Gold and system JSON lines; the system side may differ in size by one node."""
    gold_lines, system_lines = [], []
    for i, n in enumerate(sizes):
        gold = _mrp_graph(rng, f"g{i}", n)
        system = _mrp_system(rng, gold, error_rate, rng.choice((-1, 0, 0, 1)))
        gold_lines.append(json.dumps(gold, ensure_ascii=False))
        system_lines.append(json.dumps(system, ensure_ascii=False))
    return "\n".join(gold_lines) + "\n", "\n".join(system_lines) + "\n"


def independent_mrp_pairs(rng: random.Random, sizes: list[int]) -> tuple[str, str]:
    """Gold and system JSON lines whose system graph is drawn independently
    of the gold one (same id and input), so the exact MCES search prunes
    late: its slow case."""
    gold_lines, system_lines = [], []
    for i, n in enumerate(sizes):
        gold = _mrp_graph(rng, f"c{i}", n)
        system = {**_mrp_graph(rng, gold["id"], n), "input": gold["input"]}
        gold_lines.append(json.dumps(gold, ensure_ascii=False))
        system_lines.append(json.dumps(system, ensure_ascii=False))
    return "\n".join(gold_lines) + "\n", "\n".join(system_lines) + "\n"
