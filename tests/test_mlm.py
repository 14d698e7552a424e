"""Golden, graph-size and dtype tests for the masked-LM training loop."""

import gc
import io

import numpy as np
import pytest

from desklm.batching import pack_full_sentences
from desklm.bbpe import train_bbpe
from desklm.corpus import ingest_plaintext
from desklm.neural import layers, mlm
from desklm.neural.layers import TransformerConfig, init_transformer_params
from desklm.neural.mlm import eval_masked_accuracy, format_log_line, train_mlm
from desklm.neural.schedule import ScheduleConfig, schedule_lr
from desklm.neural.tensor import Tensor

import reference_ops
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

# Recorded before the masking policy and the ignore index became constants.
# The fused ops and the unfused reference ops both give these losses.
GOLDEN_LOSSES = [
    5.706518517378015,
    5.605511612280282,
    5.556315368356852,
    5.617503498938529,
    5.467069577890621,
    5.667370576818101,
]
# Recorded with the fused layer norm, softmax and GELU; the fused
# attention reproduces it.
GOLDEN_DIGEST = "dd73ca527d2e32a79be1023dd585add73e63b9082527e2cc35e75a662f18cb44"
# Recorded before the fusion; the reference ops reproduce it.
REFERENCE_DIGEST = "c76354dad114a3508876a518556624eec0c7b13411c5aa62e95908dce192d424"


# Tensor nodes one train_mlm step builds on this config with the fused ops
# (the unfused reference ops build 101).
FUSED_NODES_PER_STEP = 47


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
    params, losses = _run()
    assert losses == GOLDEN_LOSSES
    assert _digest(params) == REFERENCE_DIGEST


def test_fused_ops_match_reference_ops(monkeypatch):
    params, losses = _run()
    reference_ops.install(monkeypatch)
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
    params, _ = _run(steps=1, dtype=dtype)
    # One layer: ln1, attention, ln2, gelu, then the MLM head's layer norm.
    assert len(outputs) == 5
    assert {out.data.dtype for out in outputs} == {np.dtype(dtype)}
    assert {out.grad.dtype for out in outputs} == {np.dtype(dtype)}
    assert set(incoming) == {np.dtype(dtype)}
    assert {p.grad.dtype for p in params.values()} == {np.dtype(dtype)}


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
