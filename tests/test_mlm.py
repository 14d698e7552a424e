"""Golden test for the masked-LM training loop."""

import numpy as np

from desklm.batching import pack_full_sentences
from desklm.bbpe import train_bbpe
from desklm.corpus import ingest_plaintext
from desklm.neural.layers import TransformerConfig
from desklm.neural.mlm import train_mlm
from desklm.neural.schedule import ScheduleConfig

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
GOLDEN_LOSSES = [
    5.706518517378015,
    5.605511612280282,
    5.556315368356852,
    5.617503498938529,
    5.467069577890621,
    5.667370576818101,
]
GOLDEN_DIGEST = "c76354dad114a3508876a518556624eec0c7b13411c5aa62e95908dce192d424"


def _run():
    vocab = train_bbpe(ingest_plaintext(TEXT.encode()), vocab_cap=290)
    samples = pack_full_sentences(ingest_plaintext(TEXT.encode()), vocab, max_len=16)
    config = TransformerConfig(
        layers=1, hidden=8, heads=2, ff_dim=16, vocab_size=len(vocab.tokens), max_positions=16
    )
    schedule = ScheduleConfig("polynomial_decay", 1e-2, warmup_steps=2, total_steps=STEPS)
    return train_mlm(
        samples, vocab, config, schedule, STEPS, batch_size=3, seed=4, mask_prob=0.3,
        dtype=np.float64,
    )


def test_train_mlm_golden_losses_and_parameters():
    params, losses = _run()
    assert losses == GOLDEN_LOSSES
    assert _digest(params) == GOLDEN_DIGEST
