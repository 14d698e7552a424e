"""The workloads: inputs from the seed, set-up, the timed unit of
work and the checks on its outputs.

Library functions are always called through their modules (for example
``mlm.train_mlm``), so that the traced run, which replaces module
attributes, sees every call.
"""

from __future__ import annotations

import dataclasses
import io
import math
import random
import sys
import time
from contextlib import contextmanager

import sizes
import synth
from desklm import bbpe, batching, corpus
from desklm.heads import parser
from desklm.metrics import conllu_eval, mrp
from desklm.neural import checkpoint, layers, mlm
from desklm.neural.schedule import ScheduleConfig
from desklm.neural.tensor import Tensor

#: Seed of model initialisation, batch order and masking: a program
#: setting (the default ``ExperimentConfig.seed``), not an input, so the
#: workload seed changes only the generated inputs.
SEED = 1


class Tally:
    """Operations attempted and failed; an operation fails when its check does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Timings:
    """Seconds per item of each timed stage, in the same order every pass.

    A run combines passes item by item, keeping each item's fastest time
    (see ``combine_passes``)."""

    def __init__(self):
        self.seconds: dict[str, list[float]] = {}

    def call(self, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds.setdefault(stage, []).append(time.perf_counter() - start)
        return result


def combine_passes(passes: list[dict[str, list[float]]]) -> dict[str, float]:
    """Per stage, the sum over its items of each item's fastest time over
    the passes that ran the stage.

    On a shared machine a neighbour on the sibling hyperthread halves the
    speed for sub-second stretches, so any one timing is quiet or
    contended by chance; the fastest repeat of each item (as with
    ``timeit``) estimates the program's own speed steadily."""
    repeats: dict[str, list[list[float]]] = {}
    for timed in passes:
        for stage, items in timed.items():
            repeats.setdefault(stage, []).append(items)
    return {stage: sum(map(min, zip(*lists))) for stage, lists in repeats.items()}


class StepStamps(io.TextIOBase):
    """A log stream that stamps the time of every write (one per MLM step)."""

    def __init__(self):
        self.start = time.perf_counter()
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter())
        return len(text)

    def step_seconds(self) -> list[float]:
        edges = [self.start] + self.stamps
        return [b - a for a, b in zip(edges, edges[1:])]


@dataclasses.dataclass
class UnitResult:
    #: Timed passes over the stages: per-item seconds of each stage.
    passes: list[dict[str, list[float]]]
    #: Work done and scores: the same in every round.
    values: dict[str, float]


def _rng(seed: int, kind: str) -> random.Random:
    """One stream per kind of input, derived from the workload seed."""
    return random.Random(f"{seed}/{kind}")


def is_arborescence(heads: list[int]) -> bool:
    """Heads (1-based, 0 = root) form a tree with exactly one root child."""
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1 or any(not 0 <= h <= n for h in heads):
        return False
    for start in range(1, n + 1):
        node, steps = start, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
            if steps > n:
                return False
    return True


def check_alignment(tally: Tally, gold, system, alignment, score) -> None:
    """The MCES mapping is injective over known nodes and agrees with mrp_score."""
    images = list(alignment.mapping.values())
    injective = len(set(images)) == len(images)
    known = {n.id for n in gold.nodes} >= set(alignment.mapping) and {
        n.id for n in system.nodes} >= set(images)
    tally.check(injective and known, f"graph {gold.id}: mapping is not injective")
    tally.check(score.average.correct == alignment.matched_items,
                f"graph {gold.id}: mces_align matched {alignment.matched_items} "
                f"items, mrp_score counts {score.average.correct}")


class Workload:
    name = ""
    #: Set by the traced run so checks can run outside the spans.
    recorder = None

    def cliffs(self, inputs: dict, tally: Tally) -> dict[str, list[float]]:
        """Worst-case calls the traced run times once each, by span name."""
        return {}

    @contextmanager
    def untraced(self):
        if self.recorder is None:
            yield
            return
        self.recorder.paused = True
        try:
            yield
        finally:
            self.recorder.paused = False


class Pretrain(Workload):
    """Plain text -> BBPE -> FULL-SENTENCES packing -> MLM training ->
    checkpoint round trip -> masked-LM accuracy."""

    name = "pretrain"
    cfg = sizes.Pretrain

    def generate(self, seed: int) -> dict:
        c = self.cfg
        rng = _rng(seed, "plaintext")
        lexicon = synth.Lexicon.build(rng, *c.lexicon)
        return {"texts": [synth.plain_text(rng, lexicon, c.documents_per_shard,
                                           c.sentences_per_doc) for _ in range(c.shards)]}

    def input_size(self, inputs: dict) -> dict:
        c = self.cfg
        return {"plaintext_bytes": [len(text) for text in inputs["texts"]],
                "documents_per_shard": c.documents_per_shard, "vocab_cap": c.vocab_cap,
                "max_len": c.max_len, "mlm_steps": c.steps, "batch_size": c.batch_size}

    def setup(self, inputs: dict, timings: Timings) -> dict:
        c = self.cfg
        model_config = layers.TransformerConfig(
            layers=c.layers, hidden=c.hidden, heads=c.heads, ff_dim=c.ff_dim,
            vocab_size=c.vocab_cap, max_positions=c.max_len,
        )
        return {
            "shards": [timings.call("setup", corpus.ingest_plaintext, text)
                       for text in inputs["texts"]],
            "model_config": model_config,
            "params": timings.call("setup", layers.init_transformer_params, model_config,
                                   seed=SEED),
        }

    def unit(self, state: dict, tally: Tally) -> UnitResult:
        c, timings = self.cfg, Timings()
        tokenized = []
        for shard in state["shards"]:
            vocab = timings.call("tokenizer", bbpe.train_bbpe, shard, c.vocab_cap)
            samples = timings.call("tokenizer", batching.pack_full_sentences, shard, vocab,
                                   c.max_len)
            tokenized.append((vocab, samples))
            with self.untraced():
                for sentence in shard.sentences():
                    text = sentence.text
                    tally.check(bbpe.decode(vocab, bbpe.encode(vocab, text).ids) == text,
                                f"BBPE round trip of {text!r}")
        vocab, samples = tokenized[0]

        schedule = ScheduleConfig("polynomial_decay", c.peak_lr, c.warmup_steps, c.steps)
        stamps = StepStamps()
        params, losses = mlm.train_mlm(
            samples, vocab, state["model_config"], schedule, c.steps,
            batch_size=c.batch_size, seed=SEED, params=state["params"], log_stream=stamps,
        )
        # Every round draws the same batches, so step i is one item.
        timings.seconds["mlm"] = stamps.step_seconds()
        for step, loss in enumerate(losses, start=1):
            tally.check(math.isfinite(loss), f"MLM loss at step {step} is {loss}")

        config_blob = state["model_config"].to_dict()
        stream = io.BytesIO()
        timings.call("checkpoint", checkpoint.save_checkpoint, stream, config_blob, params)
        stream.seek(0)
        loaded_config, arrays = timings.call("checkpoint", checkpoint.load_checkpoint, stream)
        identical = loaded_config == config_blob and sorted(arrays) == sorted(params) and all(
            arrays[k].dtype == params[k].data.dtype and arrays[k].shape == params[k].shape
            and arrays[k].tobytes() == params[k].data.tobytes() for k in params
        )
        tally.check(identical, "checkpoint does not load bit-identical")

        eval_samples = samples[: c.eval_samples]
        loaded = {k: Tensor(v) for k, v in arrays.items()}
        # One timed item per eval batch.
        for start in range(0, len(eval_samples), c.eval_batch):
            accuracy = timings.call(
                "predict", mlm.eval_masked_accuracy, state["model_config"], loaded,
                eval_samples[start:start + c.eval_batch], vocab, seed=SEED,
                batch_size=c.eval_batch,
            )
            tally.check(0.0 <= accuracy <= 1.0, f"masked accuracy {accuracy} outside [0, 1]")

        tail = losses[-max(1, math.ceil(len(losses) / 10)):]
        return UnitResult([timings.seconds], {
            "mlm_positions": c.steps * c.batch_size * min(c.max_len, max(len(s.ids) for s in samples)),
            "eval_positions": len(eval_samples) * min(c.max_len, max(len(s.ids) for s in eval_samples)),
            "mlm_loss": sum(tail) / len(tail),
        })

    @staticmethod
    def metrics(stage: dict[str, float], values: dict[str, float]) -> dict[str, float]:
        return {
            "tokenizer_s": stage["tokenizer"],
            "mlm_tokens_per_s": values["mlm_positions"] / stage["mlm"],
            "mlm_loss": values["mlm_loss"],
            "predict_tokens_per_s": values["eval_positions"] / stage["predict"],
        }


class Score(Workload):
    """CLE decoding of noisy arc scores, CoNLL 2018 evaluation of a
    gold/system treebank pair and MCES-based MRP scoring: search and
    scoring only, no autograd."""

    name = "score"
    cfg = sizes.Score

    def generate(self, seed: int) -> dict:
        c = self.cfg
        rng = _rng(seed, "treebank")
        lexicon = synth.Lexicon.build(rng, *c.lexicon)
        gold, system = synth.treebank_pair(rng, lexicon, c.treebank_sentences, c.doc_size,
                                           c.system_error_rate)
        matrices = synth.arc_matrices(_rng(seed, "arcs"), c.decode_plan(), c.decode_noise,
                                      c.decode_margin)
        mrp_gold, mrp_system = synth.mrp_pairs(_rng(seed, "mrp"),
                                               list(c.mrp_sizes) * c.mrp_rounds, c.mrp_error_rate)
        cliff_arcs = synth.arc_matrices(_rng(seed, "cliff-arcs"),
                                        [(n, True) for n in c.cliff_decode_lengths],
                                        c.decode_noise, c.decode_margin)
        return {"gold": gold.encode(), "system": system.encode(), "arcs": matrices,
                "mrp_gold": mrp_gold, "mrp_system": mrp_system, "cliff_arcs": cliff_arcs,
                "cliff_mrp": synth.independent_mrp_pairs(_rng(seed, "cliff-mrp"),
                                                         list(c.cliff_mrp_sizes))}

    def input_size(self, inputs: dict) -> dict:
        c = self.cfg
        return {"treebank_sentences": c.treebank_sentences,
                "arc_matrices": len(inputs["arcs"]),
                "arc_tokens": sum(a.shape[1] for a in inputs["arcs"]),
                "mrp_pairs": len(c.mrp_sizes) * c.mrp_rounds,
                "cliff_arc_lengths": c.cliff_decode_lengths,
                "cliff_mrp_sizes": c.cliff_mrp_sizes}

    def setup(self, inputs: dict, timings: Timings) -> dict:
        gold = timings.call("setup", corpus.ingest_conllu, inputs["gold"])
        system = timings.call("setup", corpus.ingest_conllu, inputs["system"])
        return {
            # Scored one document at a time: one timed item each.
            "documents": timings.call("setup", lambda: [
                (corpus.Corpus((g,)), corpus.Corpus((s,)))
                for g, s in zip(gold.documents, system.documents)
            ]),
            "gold_words": gold.token_count,
            "arcs": timings.call("setup", lambda: [
                parser.DepArcScores(arc=Tensor(a)) for a in inputs["arcs"]]),
            "pairs": timings.call("setup", lambda: list(zip(
                mrp.read_mrp_jsonl(inputs["mrp_gold"]),
                mrp.read_mrp_jsonl(inputs["mrp_system"])))),
        }

    def unit(self, state: dict, tally: Tally) -> UnitResult:
        # A document takes milliseconds and a graph pair a fraction of a
        # second, so both are scored in several passes per round, each
        # item's fastest repeat counting.  The eval_conllu passes come
        # between the other stages, so that their repeats are spread over
        # the round rather than bunched into a few seconds of it.
        passes = [self.conllu_pass(state, tally), self.decode_pass(state, tally)]
        for _ in range(self.cfg.mrp_passes):
            passes.append(self.conllu_pass(state, tally))
            graphs, total = self.mrp_pass(state, tally)
            passes.append(graphs)
        passes.append(self.conllu_pass(state, tally))
        return UnitResult(passes, {
            "decoded_tokens": sum(s.sentence_length for s in state["arcs"]),
            "gold_words": state["gold_words"],
            "pairs": len(state["pairs"]),
            "mrp_f1": total.average.f1_percent,
        })

    @staticmethod
    def decode_pass(state: dict, tally: Tally) -> dict[str, list[float]]:
        timings = Timings()
        for scores in state["arcs"]:
            heads, _ = timings.call("decode", parser.decode_tree, scores)
            tally.check(is_arborescence(heads), f"decoded heads {heads} are not a single-root tree")
        return timings.seconds

    @staticmethod
    def conllu_pass(state: dict, tally: Tally) -> dict[str, list[float]]:
        timings = Timings()
        for gold, system in state["documents"]:
            report = timings.call("conllu", conllu_eval.eval_conllu, gold, system)
            tally.check(report.las.correct <= report.uas.correct <= report.uas.gold_total,
                        f"document {gold.documents[0].id}: attachment counts are inconsistent")
        return timings.seconds

    @staticmethod
    def mrp_pass(state: dict, tally: Tally):
        """Per-pair seconds, and the MRP score pooled over the pairs."""
        timings, total = Timings(), None
        for gold, system in state["pairs"]:
            alignment = timings.call("mrp", mrp.mces_align, gold, system)
            score = timings.call("mrp", mrp.mrp_score, gold, system, alignment)
            check_alignment(tally, gold, system, alignment, score)
            total = score if total is None else total + score
        return timings.seconds, total

    def cliffs(self, inputs: dict, tally: Tally) -> dict[str, list[float]]:
        timings = Timings()
        for arc in inputs["cliff_arcs"]:
            heads, _ = timings.call("heads.decode_tree.cliff", parser.decode_tree,
                                    parser.DepArcScores(arc=Tensor(arc)))
            tally.check(is_arborescence(heads), f"decoded heads {heads} are not a single-root tree")
        gold_lines, system_lines = inputs["cliff_mrp"]
        for gold, system in zip(mrp.read_mrp_jsonl(gold_lines), mrp.read_mrp_jsonl(system_lines)):
            alignment = timings.call("metrics.mces_align.cliff", mrp.mces_align, gold, system)
            check_alignment(tally, gold, system, alignment, mrp.mrp_score(gold, system, alignment))
        return timings.seconds

    @staticmethod
    def metrics(stage: dict[str, float], values: dict[str, float]) -> dict[str, float]:
        return {
            "decode_tokens_per_s": values["decoded_tokens"] / stage["decode"],
            "conllu_words_per_s": values["gold_words"] / stage["conllu"],
            "mrp_pairs_per_s": values["pairs"] / stage["mrp"],
            "mrp_f1": values["mrp_f1"],
        }


WORKLOADS = {w.name: w for w in (Pretrain, Score)}


def install_tracing(recorder) -> None:
    """Wrap the public functions at the module names their callers use."""
    counters = recorder.counters

    def count(key, value):
        counters[key] += value

    recorder.count_calls(Tensor, "__init__", "tensors")
    recorder.wrap(Tensor, "backward", "neural.backward")

    recorder.wrap(corpus, "ingest_plaintext", "corpus.ingest_plaintext")
    recorder.wrap(corpus, "ingest_conllu", "corpus.ingest_conllu")

    recorder.wrap(bbpe, "train_bbpe", "bbpe.train_bbpe",
                  after=lambda a, k, vocab: count("bbpe.train_bbpe.merges", len(vocab.merges)))
    for module in (bbpe, batching):
        recorder.wrap(module, "encode", "bbpe.encode")

    def packed(args, kwargs, samples):
        count("batching.samples", len(samples))
        count("batching.truncated", sum(s.truncated for s in samples))

    recorder.wrap(batching, "pack_full_sentences", "batching.pack_full_sentences", after=packed)
    recorder.wrap(mlm, "build_mlm_batch", "batching.build_mlm_batch")

    recorder.wrap(mlm, "train_mlm", "neural.train_mlm",
                  after=lambda a, k, result: count("neural.mlm_steps", len(result[1])))
    recorder.wrap(mlm, "eval_masked_accuracy", "neural.eval_masked_accuracy")

    def forward_dtypes(args, kwargs, outputs):
        dtype = args[1]["tok_emb"].data.dtype
        count("neural.float64_outputs", sum(t.data.dtype != dtype for t in outputs))

    recorder.wrap(mlm, "forward_transformer", "neural.forward_transformer", after=forward_dtypes)
    recorder.wrap(mlm, "mlm_loss", "neural.mlm_loss")

    def adam_kind(args, kwargs, result):
        config = args[3] if len(args) > 3 else kwargs["config"]
        return "neural.adam_step.lazy" if config.lazy else "neural.adam_step.dense"

    recorder.wrap(mlm, "adam_step", adam_kind)
    recorder.wrap(checkpoint, "save_checkpoint", "neural.save_checkpoint",
                  after=lambda a, k, r: count("neural.checkpoint.bytes", a[0].tell()))
    recorder.wrap(checkpoint, "load_checkpoint", "neural.load_checkpoint")

    def tree_bucket(args, kwargs, result):
        length = args[0].sentence_length
        return "heads.decode_tree." + ("short" if length <= sizes.SHORT_SENTENCE else "long")

    recorder.wrap(parser, "decode_tree", tree_bucket)

    def eval_words(args, kwargs, report):
        count("metrics.eval_conllu.words", args[0].token_count)

    recorder.wrap(conllu_eval, "eval_conllu", "metrics.eval_conllu", after=eval_words)
    recorder.wrap(
        mrp, "mces_align",
        lambda a, k, r: "metrics.mces_align." + ("exact" if r.exact else "approx"),
        after=lambda a, k, r: count("metrics.mces_align.matched_items", r.matched_items),
    )
    recorder.wrap(mrp, "mrp_score", "metrics.mrp_score")
