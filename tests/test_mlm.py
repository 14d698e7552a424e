"""Golden, graph-size and dtype tests for the masked-LM training loop and
the training step that every loop shares."""

import ast
import gc
import io
from pathlib import Path

import numpy as np
import pytest

from desklm.batching import IGNORE_INDEX, pack_full_sentences
from desklm.bbpe import encode, train_bbpe
from desklm.corpus import ingest_plaintext
from desklm.neural import layers, mlm
from desklm.neural.layers import TransformerConfig, init_transformer_params
from desklm.neural.mlm import eval_masked_accuracy, format_log_line, train_mlm, train_step
from desklm.neural.optim import AdamConfig, AdamState
from desklm.neural.schedule import ScheduleConfig, schedule_lr
from desklm.neural.tensor import Tensor, constants

import reference_ops
from gradcheck import gradient_check
from test_models import _digest

TEXT = (
    "Pes štěká na kočku .\n"
    "Kočka spí na okně .\n"
    "Jan Novák bydlí v Praze .\n"
    "\n"
    "Eva jede do Brna vlakem .\n"
    "Vlak jede pomalu a Eva spí .\n"
    "V Brně prší .\n"
)
STEPS = 6

# Recorded before the masking policy and the ignore index became constants,
# with a head that scored every row.  The unfused reference ops give these
# losses with the full-row head.
FULL_ROW_LOSSES = [
    5.706518517378015,
    5.605511612280282,
    5.556315368356852,
    5.617503498938529,
    5.467069577890621,
    5.667370576818101,
]
# Recorded with the fused layer norm, softmax and GELU, the full-row head
# and an attention backward that took its row sum from the weights; the
# unfused attention on the fused softmax, with the full-row head,
# reproduces it.
FULL_ROW_DIGEST = "dd73ca527d2e32a79be1023dd585add73e63b9082527e2cc35e75a662f18cb44"
# Recorded before the fusion; the reference ops with the full-row head
# reproduce it.
REFERENCE_DIGEST = "c76354dad114a3508876a518556624eec0c7b13411c5aa62e95908dce192d424"
# Recorded once the head scored only the masked rows and the attention
# backward took its row sum from its output: the last loss moved by 1.8e-15.
GOLDEN_LOSSES = [
    5.706518517378015,
    5.605511612280282,
    5.556315368356852,
    5.617503498938529,
    5.467069577890621,
    5.667370576818099,
]
GOLDEN_DIGEST = "18449bf0bcc67cf2d0b9d0cf8974137e85b8414765395be21a5d2a0bb5d1e4a5"


# Tensor nodes one train_mlm step builds on this config with the fused ops,
# two of them gathering the last layer's residual and normed input at the
# targeted rows (the unfused reference ops with the full-row head build 101).
FUSED_NODES_PER_STEP = 49


def _setup():
    vocab = train_bbpe(ingest_plaintext(TEXT.encode()), vocab_cap=290)
    samples = pack_full_sentences(ingest_plaintext(TEXT.encode()), vocab, max_len=16)
    config = TransformerConfig(
        layers=1, hidden=8, heads=2, ff_dim=16, vocab_size=len(vocab.tokens), max_positions=16
    )
    return vocab, samples, config


SCHEDULE = ScheduleConfig("polynomial_decay", 1e-2, warmup_steps=2, total_steps=STEPS)


def _run(steps=STEPS, dtype=np.float64, params=None, log_stream=None):
    vocab, samples, config = _setup()
    return train_mlm(
        samples, vocab, config, SCHEDULE, steps, batch_size=3, seed=4, mask_prob=0.3,
        dtype=dtype, params=params, log_stream=log_stream,
    )


def test_train_mlm_golden_losses_and_parameters():
    params, losses = _run()
    assert losses == GOLDEN_LOSSES
    assert _digest(params) == GOLDEN_DIGEST


def test_log_stream_gets_one_line_per_step_after_its_adam_update(monkeypatch):
    # The pretrain benchmark times each step from these writes.
    events = []
    adam_step = mlm.adam_step
    monkeypatch.setattr(
        mlm, "adam_step", lambda *args, **kwargs: events.append("adam") or adam_step(*args, **kwargs)
    )

    class Log(io.StringIO):
        def write(self, text):
            events.append("log")
            return super().write(text)

    log = Log()
    _, losses = _run(log_stream=log)
    assert events == ["adam", "log"] * STEPS
    assert log.getvalue().splitlines() == [
        format_log_line(i, schedule_lr(SCHEDULE, i), losses[i - 1]) for i in range(1, STEPS + 1)
    ]


def test_reference_ops_reproduce_recorded_goldens(monkeypatch):
    reference_ops.install(monkeypatch)
    reference_ops.install_full_row_head(monkeypatch)
    params, losses = _run()
    assert losses == FULL_ROW_LOSSES
    assert _digest(params) == REFERENCE_DIGEST


def test_reference_attention_and_full_row_head_reproduce_recorded_goldens(monkeypatch):
    # The unfused attention runs on the fused softmax here.
    monkeypatch.setattr(layers, "attention", reference_ops.attention)
    reference_ops.install_full_row_head(monkeypatch)
    params, losses = _run()
    assert losses == FULL_ROW_LOSSES
    assert _digest(params) == FULL_ROW_DIGEST


def test_fused_ops_match_reference_ops(monkeypatch):
    params, losses = _run()
    reference_ops.install(monkeypatch)
    reference_ops.install_full_row_head(monkeypatch)
    reference_params, reference_losses = _run()
    assert np.max(np.abs(np.subtract(losses, reference_losses))) <= 1e-9
    for name, p in params.items():
        assert np.max(np.abs(p.data - reference_params[name].data)) <= 1e-9, name


def test_one_step_builds_at_most_the_fused_node_count(monkeypatch):
    _, _, config = _setup()
    params = init_transformer_params(config, seed=4, dtype=np.float64)
    created = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    _run(steps=1, params=params)
    assert len(created) <= FUSED_NODES_PER_STEP


def test_each_step_frees_its_graph_before_the_next_forward_pass(monkeypatch):
    live = []
    forward = mlm.forward_transformer

    def counting(*args, **kwargs):
        live.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(mlm, "forward_transformer", counting)
    gc.collect()
    _run(steps=4)
    # Only the parameters (and whatever earlier tests keep) are alive.
    assert live == [live[0]] * 4


def test_train_step_holds_the_only_backward_and_adam_step_calls():
    # One way to train: the MLM, head and sentiment loops all call
    # train_step, so no loop can drift from the others' step order.  One
    # way from text to layers: besides the two MLM loops, only
    # encode_texts runs the transformer.
    calls = []

    class Calls(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope = path, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("adam_step", "forward_transformer"):
                calls.append((func.id, self.path, self.scope[-1]))
            if isinstance(func, ast.Attribute) and func.attr == "backward":
                calls.append(("backward", self.path, self.scope[-1]))
            self.generic_visit(node)

    src = Path(mlm.__file__).resolve().parents[1]
    for path in sorted(src.rglob("*.py")):
        Calls(path.relative_to(src).as_posix()).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(calls) == [
        ("adam_step", "neural/mlm.py", "train_step"),
        ("backward", "neural/mlm.py", "train_step"),
        ("forward_transformer", "neural/mlm.py", "encode_texts"),
        ("forward_transformer", "neural/mlm.py", "eval_masked_accuracy"),
        ("forward_transformer", "neural/mlm.py", "train_mlm"),
    ]


def test_train_step_updates_then_clears_every_gradient():
    params = {
        "w": Tensor(np.array([1.0, 2.0]), requires_grad=True),
        "unused": Tensor(np.array([3.0]), requires_grad=True),
    }
    loss = (params["w"] * params["w"]).sum()
    value = train_step(params, AdamState(), AdamConfig(), loss, 0.1)
    assert value == 5.0
    assert params["w"].data.tolist() == pytest.approx([0.9, 1.9])
    assert params["unused"].data.tolist() == [3.0]
    assert all(p.grad is None for p in params.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_step_keeps_the_parameter_dtype(monkeypatch, dtype):
    outputs, incoming = [], []

    def recording(op):
        def wrapper(*args, **kwargs):
            out = op(*args, **kwargs)
            outputs.append(out)
            return out

        return wrapper

    monkeypatch.setattr(layers, "layer_norm", recording(layers.layer_norm))
    monkeypatch.setattr(layers, "attention", recording(layers.attention))
    monkeypatch.setattr(Tensor, "gelu", recording(Tensor.gelu))
    accumulate = Tensor._accumulate

    def checking(self, grad):
        incoming.append(np.asarray(grad).dtype)
        accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_accumulate", checking)
    # The step clears the gradients after the update, so read them where
    # Adam consumes them.
    consumed = []
    adam_step = mlm.adam_step

    def consuming(params, *args, **kwargs):
        consumed.extend(p.grad.dtype for p in params.values())
        return adam_step(params, *args, **kwargs)

    monkeypatch.setattr(mlm, "adam_step", consuming)
    params, _ = _run(steps=1, dtype=dtype)
    # One layer: ln1, attention, ln2, gelu, then the MLM head's layer norm.
    assert len(outputs) == 5
    assert {out.data.dtype for out in outputs} == {np.dtype(dtype)}
    assert {out.grad.dtype for out in outputs} == {np.dtype(dtype)}
    assert set(incoming) == {np.dtype(dtype)}
    assert len(consumed) == len(params)
    assert set(consumed) == {np.dtype(dtype)}


@pytest.mark.parametrize("run", ["train", "eval"])
def test_sample_longer_than_max_positions_rejected_before_any_step(monkeypatch, run):
    vocab, _, config = _setup()
    samples = pack_full_sentences(ingest_plaintext(TEXT.encode()), vocab, max_len=64)
    index = next(i for i, s in enumerate(samples) if len(s.ids) > config.max_positions)
    monkeypatch.setattr(mlm, "forward_transformer", None)
    message = rf"sample {index} has {len(samples[index].ids)} ids, .* max_positions 16"
    with pytest.raises(ValueError, match=message):
        if run == "train":
            train_mlm(samples, vocab, config, SCHEDULE, STEPS)
        else:
            eval_masked_accuracy(config, {}, samples, vocab)


@pytest.mark.parametrize("run", ["train", "eval"])
def test_no_samples_is_an_error_that_says_so(monkeypatch, run):
    vocab, _, config = _setup()
    monkeypatch.setattr(mlm, "forward_transformer", None)
    with pytest.raises(ValueError, match="^no samples$"):
        if run == "train":
            train_mlm([], vocab, config, SCHEDULE, STEPS)
        else:
            eval_masked_accuracy(config, {}, [], vocab)


def test_encode_texts_of_no_texts_is_an_error_that_says_so(monkeypatch):
    vocab, _, config = _setup()
    monkeypatch.setattr(mlm, "forward_transformer", None)
    with pytest.raises(ValueError, match="^no texts to encode$"):
        mlm.encode_texts(config, {}, vocab, [])


def test_eval_masked_accuracy_builds_no_graph(monkeypatch):
    captured = []

    def capturing(*args, **kwargs):
        outputs = layers.forward_transformer(*args, **kwargs)
        captured.extend(outputs)
        return outputs

    monkeypatch.setattr(mlm, "forward_transformer", capturing)
    vocab, samples, config = _setup()
    params = init_transformer_params(config, seed=4, dtype=np.float64)
    accuracy = eval_masked_accuracy(config, params, samples, vocab, seed=1, mask_prob=0.3)
    assert captured
    assert not any(t.requires_grad for t in captured)
    assert 0.0 <= accuracy <= 1.0


def test_encode_texts_frames_cuts_and_pads_each_text(monkeypatch):
    vocab, _, config = _setup()
    texts = ["Pes", " ".join(TEXT.split()), ""]
    cap = config.max_positions - 2
    assert len(encode(vocab, texts[1]).ids) > cap
    seen = []
    monkeypatch.setattr(
        mlm, "forward_transformer", lambda c, p, ids: seen.append(ids) or ["layers"]
    )
    assert mlm.encode_texts(config, {}, vocab, texts) == ["layers"]
    [ids] = seen
    specials = vocab.special_tokens
    assert ids.shape == (3, config.max_positions)
    for text, row in zip(texts, ids):
        framed = [specials.bos, *encode(vocab, text).ids[:cap], specials.eos]
        assert list(row[: len(framed)]) == framed
        # Only the padding holds the pad id, so only it is masked.
        assert list(row == specials.pad) == [i >= len(framed) for i in range(len(row))]


def test_masked_row_loss_gradient_check():
    vocab, _, config = _setup()
    params = init_transformer_params(config, seed=3, dtype=np.float64)
    # Row 1 pads its last position.
    ids = np.array([[1, 5, 7, 9, 4], [0, 4, 6, 8, vocab.special_tokens.pad]])
    ignored = IGNORE_INDEX
    targets = np.array([[5, ignored, 9, ignored, 2], [ignored, 6, 1, ignored, ignored]])

    # Row 1 has two targets to row 0's three, so its last query row is padding.
    rows = mlm._target_rows(targets)
    assert rows.tolist() == [[0, 2, 4], [1, 2, 0]]

    def loss_fn():
        hidden = layers.forward_transformer(config, params, ids, rows=rows)
        return layers.mlm_loss(*mlm._masked_logits(params, hidden, targets, rows))

    # The last (here the only) layer's queries and FFN run at the rows only.
    names = ("tok_emb", "mlm.w", "layer0.attn.wk", "layer0.attn.wq", "layer0.ff.w1")
    checked = {name: params[name] for name in names}
    report = gradient_check(loss_fn, checked, tolerance=1e-6)
    assert report.passed, report.failing()


def test_eval_masked_accuracy_predicts_what_the_full_rows_predict(monkeypatch):
    vocab, samples, config = _setup()
    params, _ = _run()
    calls = []
    masked_logits = mlm._masked_logits
    forward = mlm.forward_transformer

    def recording_forward(model_config, frozen, input_ids, rows):
        calls.append([input_ids, rows])
        return forward(model_config, frozen, input_ids, rows=rows)

    def recording(*args):
        logits, targets = masked_logits(*args)
        calls[-1] += [args[1][-1].data, args[2], logits.data, targets]
        return logits, targets

    monkeypatch.setattr(mlm, "forward_transformer", recording_forward)
    monkeypatch.setattr(mlm, "_masked_logits", recording)
    accuracy = eval_masked_accuracy(
        config, params, samples, vocab, seed=1, mask_prob=0.3, batch_size=2
    )
    assert len(calls) > 1
    correct = total = 0
    for input_ids, rows, last, target_ids, logits, targets in calls:
        full_last = layers.forward_transformer(config, constants(params), input_ids)[-1]
        at_rows = np.take_along_axis(full_last.data, rows[..., None], axis=1)
        assert last.shape == (len(input_ids), rows.shape[1], config.hidden)
        assert np.max(np.abs(last - at_rows)) <= 1e-12
        targeted = target_ids != IGNORE_INDEX
        full = layers.mlm_logits(constants(params), full_last).data
        assert np.array_equal(targets, target_ids[targeted])
        assert np.array_equal(np.argmax(logits, axis=-1), np.argmax(full[targeted], axis=-1))
        correct += int((np.argmax(full[targeted], axis=-1) == targets).sum())
        total += targets.size
    assert accuracy == correct / total


def test_nothing_masked_gives_zero_losses_and_leaves_parameters_unchanged():
    vocab, samples, config = _setup()
    params = init_transformer_params(config, seed=4, dtype=np.float64)
    before = {name: p.data.copy() for name, p in params.items()}
    _, losses = train_mlm(
        samples, vocab, config, SCHEDULE, 3, batch_size=3, seed=4, mask_prob=0.0, params=params
    )
    assert losses == [0.0] * 3
    for name, p in params.items():
        assert np.array_equal(p.data, before[name]), name


def _gradients(params, loss):
    for p in params.values():
        p.zero_grad()
    loss.backward()
    grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad for n, p in params.items()}
    for p in params.values():
        p.zero_grad()
    return grads


@pytest.mark.parametrize("case", ["mixed", "nothing_masked"])
def test_last_layer_at_the_targeted_rows_matches_the_full_rows(case):
    config = TransformerConfig(
        layers=2, hidden=8, heads=2, ff_dim=16, vocab_size=20, max_positions=8
    )
    params = init_transformer_params(config, seed=5, dtype=np.float64)
    ids = np.random.RandomState(5).randint(3, 20, size=(3, 7))
    ids[1, 5:] = 2  # pad
    ignored = IGNORE_INDEX
    targets = np.full(ids.shape, ignored)
    if case == "mixed":
        # Three targets, one, and none.
        targets[0, [1, 4, 6]] = [7, 8, 9]
        targets[1, 3] = 10
    rows = mlm._target_rows(targets)
    counts = (targets != ignored).sum(axis=1)
    assert rows.shape == (3, counts.max())
    for row, count, target in zip(rows, counts, targets):
        assert row.tolist()[:count] == np.flatnonzero(target != ignored).tolist()

    pruned = layers.forward_transformer(config, params, ids, rows=rows)
    full = layers.forward_transformer(config, params, ids)
    for before, alt in zip(pruned[:-1], full[:-1]):
        assert np.array_equal(before.data, alt.data)
    assert pruned[-1].shape == (3, rows.shape[1], config.hidden)
    at_rows = np.take_along_axis(full[-1].data, rows[..., None], axis=1)
    assert np.max(np.abs(pruned[-1].data - at_rows), initial=0.0) <= 1e-12

    pruned_loss = layers.mlm_loss(*mlm._masked_logits(params, pruned, targets, rows))
    full_loss = layers.mlm_loss(layers.mlm_logits(params, full[-1]), targets)
    assert abs(float(pruned_loss.data) - float(full_loss.data)) <= 1e-12
    pruned_grads, full_grads = _gradients(params, pruned_loss), _gradients(params, full_loss)
    for name in params:
        assert np.max(np.abs(pruned_grads[name] - full_grads[name])) <= 1e-12, name
    if case == "nothing_masked":
        assert not any(g.any() for g in pruned_grads.values())

    params32 = init_transformer_params(config, seed=5, dtype=np.float32)
    outputs = layers.forward_transformer(config, params32, ids, rows=rows)
    assert [o.data.dtype for o in outputs] == [np.float32] * (config.layers + 1)


def test_train_step_runs_the_last_layer_queries_at_the_most_targets(monkeypatch):
    batches, shapes = [], []
    build = mlm.build_mlm_batch
    monkeypatch.setattr(
        mlm, "build_mlm_batch", lambda *a, **k: batches.append(build(*a, **k)) or batches[-1]
    )
    attention = layers.attention

    def recording(q, k, v, bias):
        shapes.append((q.shape, k.shape))
        return attention(q, k, v, bias)

    monkeypatch.setattr(layers, "attention", recording)
    _, _, config = _setup()
    _run(steps=1)
    [batch] = batches
    [(query, key)] = shapes
    most = int((batch.target_ids != IGNORE_INDEX).sum(axis=1).max())
    batch_size, seq = batch.input_ids.shape
    assert 0 < most < seq
    assert query == (batch_size, config.heads, most, config.head_dim)
    assert key == (batch_size, config.heads, seq, config.head_dim)
