"""Input sizes and run settings of every workload.

These are fixed: a slow or failing case is fixed in the program, never
by shrinking or re-seeding the inputs here.  When a seed moves a metric
past its bound, add instances; do not cut sizes.
"""

#: Longest sentence in the ``short`` bucket of the decode_tree latencies.
SHORT_SENTENCE = 40


class Pretrain:
    #: Rounds of the untraced run: 35-55 s on the reference machine.
    rounds = 10
    #: Set-ups timed after each round, and at least per run; setup_s is
    #: the fastest.
    setups_per_round, min_setups = 10, 50
    #: Noun, verb and adjective stems; word choice is Zipfian.
    lexicon = (600, 200, 200)
    #: Separately generated corpora: each is one tokenizer item
    #: (train_bbpe + pack_full_sentences); the first one feeds the MLM.
    shards = 4
    documents_per_shard = 20
    sentences_per_doc = (4, 12)
    vocab_cap = 500
    max_len = 128
    # The desk model of the roadmap: 2 layers, hidden 64.
    layers, hidden, heads, ff_dim = 2, 64, 4, 128
    steps = 16
    batch_size = 8
    peak_lr = 5e-4
    warmup_steps = 4
    eval_samples = 64
    eval_batch = 8


class Score:
    #: Two rounds take 35-50 s on the reference machine.
    rounds = 2
    setups_per_round, min_setups = 3, 9
    lexicon = (1500, 500, 400)
    treebank_sentences = 2000
    doc_size = 25
    system_error_rate = 0.15
    #: Passes of mces_align + mrp_score over the graph pairs in each
    #: round; eval_conllu runs mrp_passes + 2 passes over the treebank.
    mrp_passes = 2
    #: Arc-score matrices: (length, ambiguous root) per instance.  An
    #: ambiguous instance forces the single-root re-decode, once per
    #: token; the long ones cost seconds each.
    decode_rounds = 2
    decode_single_lengths = (5, 8, 12, 16, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100)
    decode_ambiguous_lengths = (20, 25, 30, 35, 40, 45, 50)
    decode_long_ambiguous_lengths = (60, 70)
    decode_noise = 1.0
    decode_margin = 3.0
    #: MRP graph sizes; the exact search covers graphs of up to 10 nodes
    #: (mces_align's node_limit), larger ones take the approximate path.
    mrp_rounds = 3
    mrp_sizes = (5, 7, 8, 9, 10, 12, 14, 16)
    mrp_error_rate = 0.3
    #: The worst cases of ROADMAP item 4, run once each in the traced run
    #: only (a few seconds each, heavy-tailed between seeds): ambiguous
    #: matrices of these lengths, and MRP pairs of these sizes whose
    #: system graph is drawn independently of the gold one.
    cliff_decode_lengths = (80, 90)
    cliff_mrp_sizes = (8, 9, 9)

    @classmethod
    def decode_plan(cls) -> list[tuple[int, bool]]:
        plan = []
        for _ in range(cls.decode_rounds):
            plan += [(n, False) for n in cls.decode_single_lengths]
            plan += [(n, True) for n in cls.decode_ambiguous_lengths]
        return plan + [(n, True) for n in cls.decode_long_ambiguous_lengths]
