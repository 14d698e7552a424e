"""Desk benchmark: runs one workload against the ``desklm`` public API.

    python3 perfbench/run.py --workload {pretrain,score} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the package from ``src/``.
Inputs are generated from ``--seed``.  One process runs one workload as
a closed-loop batch job (one client, one BLAS thread).  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The line
before it records the machine and the input sizes.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Units of the workload's stage metrics (``Workload.metrics``), which
#: the traced run reports from its untraced round.
STAGE_UNITS = {
    "tokenizer_s": "s", "mlm_tokens_per_s": "1/s", "mlm_loss": "nats",
    "predict_tokens_per_s": "1/s", "decode_tokens_per_s": "1/s",
    "conllu_words_per_s": "1/s", "mrp_pairs_per_s": "1/s", "mrp_f1": "%",
}

#: Span names reported by self time as ``<name>.s``.
SELF_TIMES = (
    "corpus.ingest_plaintext", "corpus.ingest_conllu", "bbpe.train_bbpe", "bbpe.encode",
    "batching.pack_full_sentences", "neural.forward_transformer", "neural.mlm_loss",
    "neural.backward", "neural.adam_step.dense", "neural.save_checkpoint",
    "neural.load_checkpoint", "metrics.eval_conllu", "metrics.mrp_score",
)
#: Span names reported by call count as ``<name>.calls``.
CALLS = ("bbpe.encode", "neural.forward_transformer")
#: Span names reported by count and latency (``.calls``, ``.p50_ms``, ``.p90_ms``).
LATENCIES = ("heads.decode_tree.short", "heads.decode_tree.long",
             "metrics.mces_align.exact", "metrics.mces_align.approx")


def pin_environment() -> None:
    """One BLAS/OpenMP thread, and no DESKLM_* overrides; before numpy loads."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    for name in [name for name in os.environ if name.startswith("DESKLM_")]:
        del os.environ[name]


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
        "platform": platform.platform(),
    }


def run_unit(workload, state, tally):
    """The timed unit, with the heap left by set-up frozen.

    The cyclic collector then walks only what the unit allocates, not the
    inputs and set-up state held throughout; otherwise a full collection
    over them lands inside random items (up to 0.1 s inside a single
    ``eval_conllu`` call of a few milliseconds)."""
    gc.collect()
    gc.freeze()
    try:
        return workload.unit(state, tally)
    finally:
        gc.unfreeze()


def run_round(workload, inputs, tally):
    from workloads import Timings

    return run_unit(workload, workload.setup(inputs, Timings()), tally)


def timed_setup(workload, inputs) -> dict[str, list[float]]:
    """One set-up's per-item seconds, with the heap frozen as in
    ``run_unit``: otherwise whether a full collection over the rounds'
    state lands inside a set-up depends on what ran before it."""
    from workloads import Timings

    timings = Timings()
    gc.collect()
    gc.freeze()
    try:
        workload.setup(inputs, timings)
    finally:
        gc.unfreeze()
    return timings.seconds


def untraced_run(workload, inputs, seconds: float, tally):
    """``rounds`` rounds of set-up plus unit, each followed by
    ``setups_per_round`` timed set-ups; then more timed set-ups until the
    run has measured for ``seconds`` and there are ``min_setups``.

    The number of rounds is fixed, so every item's fastest repeat is
    taken over the same number of repeats on a fast and a slow machine
    (a third round that fits only on a fast one lowers the minimum by
    itself).  ``setup_s`` is the sum of the set-up items' fastest
    repeats, by the same rule as the items of the unit."""
    from workloads import combine_passes

    cfg = workload.cfg
    start = time.perf_counter()
    results, setups = [], []
    for _ in range(cfg.rounds):
        results.append(run_round(workload, inputs, tally))
        setups += [timed_setup(workload, inputs) for _ in range(cfg.setups_per_round)]
    while len(setups) < cfg.min_setups or time.perf_counter() - start < seconds:
        setups.append(timed_setup(workload, inputs))

    stage = combine_passes([timed for result in results for timed in result.passes])
    metrics = {
        "setup_s": (combine_passes(setups)["setup"], "s"),
        "wall_s": (sum(stage.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"rounds": len(results), "setups": len(setups)}


def traced_run(workload, inputs, tally, spans_path: Path):
    """A warm-up round, an untraced round, then one round with every layer
    wrapped; the first round of a process runs cold, so it is not compared.
    Last, unwrapped, the workload's worst-case calls, timed once each."""
    from spans import SpanRecorder, percentile_ms
    from workloads import combine_passes, install_tracing

    run_round(workload, inputs, tally)
    start = time.perf_counter()
    untraced = run_round(workload, inputs, tally)
    untraced_s = time.perf_counter() - start

    recorder = SpanRecorder()
    install_tracing(recorder)
    workload.recorder = recorder
    start = time.perf_counter()
    try:
        result = run_round(workload, inputs, tally)
    finally:
        traced_s = time.perf_counter() - start
        recorder.restore()
        workload.recorder = None
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(spans_path)
    start = time.perf_counter()
    cliffs = workload.cliffs(inputs, tally)
    cliffs_s = time.perf_counter() - start

    own, calls, counters = recorder.self_times(), recorder.calls(), recorder.counters
    metrics: dict[str, tuple[float, str]] = {
        name: (value, STAGE_UNITS[name])
        for name, value in workload.metrics(combine_passes(untraced.passes),
                                            untraced.values).items()
    }
    for name in SELF_TIMES:
        if calls[name]:
            metrics[f"{name}.s"] = (own[name], "s")
    for name in CALLS:
        if calls[name]:
            metrics[f"{name}.calls"] = (calls[name], "count")
    latencies = [(name, recorder.durations(name)) for name in LATENCIES]
    for name, durations in latencies + sorted(cliffs.items()):
        if durations:
            metrics[f"{name}.calls"] = (len(durations), "count")
            metrics[f"{name}.p50_ms"] = (percentile_ms(durations, 50), "ms")
            metrics[f"{name}.p90_ms"] = (percentile_ms(durations, 90), "ms")

    if calls["bbpe.train_bbpe"]:
        merges = counters["bbpe.train_bbpe.merges"]
        metrics["bbpe.train_bbpe.merges"] = (merges, "count")
        metrics["bbpe.merges_per_s"] = (merges / own["bbpe.train_bbpe"], "1/s")
    if calls["batching.pack_full_sentences"]:
        metrics["batching.samples"] = (counters["batching.samples"], "count")
        metrics["batching.truncated"] = (counters["batching.truncated"], "count")
    if counters["neural.mlm_steps"]:
        metrics["batching.build_mlm_batch.s"] = (
            recorder.self_time_under("batching.build_mlm_batch", "neural.train_mlm"), "s")
        metrics["neural.tensors_per_mlm_step"] = (
            counters["neural.train_mlm.tensors"] / counters["neural.mlm_steps"], "count")
    if "mlm" in result.passes[0]:
        metrics["neural.mlm_step.p50_ms"] = (percentile_ms(result.passes[0]["mlm"], 50), "ms")
        metrics["neural.mlm_step.p90_ms"] = (percentile_ms(result.passes[0]["mlm"], 90), "ms")
    if calls["neural.forward_transformer"]:
        metrics["neural.float64_outputs"] = (counters["neural.float64_outputs"], "count")
    if calls["neural.save_checkpoint"]:
        metrics["neural.checkpoint.bytes"] = (counters["neural.checkpoint.bytes"], "B")
    if calls["metrics.eval_conllu"]:
        metrics["metrics.eval_conllu.words"] = (counters["metrics.eval_conllu.words"], "count")
    aligned = calls["metrics.mces_align.exact"] + calls["metrics.mces_align.approx"]
    if aligned:
        metrics["metrics.mces_align.exact_share"] = (
            calls["metrics.mces_align.exact"] / aligned, "ratio")
        metrics["metrics.mces_align.matched_items"] = (
            counters["metrics.mces_align.matched_items"], "count")
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["fail_share"] = (tally.failed / max(tally.attempted, 1), "ratio")
    return metrics, {"untraced_round_s": untraced_s, "traced_round_s": traced_s,
                     "cliffs_s": cliffs_s,
                     "spans": len(recorder.spans), "spans_file": str(spans_path.relative_to(ROOT))}


def manifest_metrics(metrics: dict, trace: int) -> dict:
    """``metrics`` as the manifest lists them: every ``per_layer`` metric
    with ``--trace 1``, every ``end_to_end`` one with ``--trace 0``.  A
    layer the workload never calls reads 0 (no calls, no time); a metric
    the manifest does not list, a unit that differs from it or a missing
    end-to-end metric is an error in the benchmark."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    unlisted = sorted(set(metrics) - set(listed))
    if unlisted:
        raise ValueError(f"metrics not in BENCHMARK.json: {unlisted}")
    result = {}
    for name, unit in listed.items():
        if name not in metrics and not trace:
            raise ValueError(f"end-to-end metric {name} was not measured")
        value, measured_unit = metrics.get(name, (0, unit))
        if measured_unit != unit:
            raise ValueError(f"{name} is in {measured_unit}, BENCHMARK.json says {unit}")
        result[name] = {"value": value, "unit": unit}
    return result


def main(argv=None) -> int:
    pin_environment()
    source = ROOT / "src"
    if not (source / "desklm" / "__init__.py").is_file():
        print(f"desklm sources not found under {source}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    from workloads import WORKLOADS, Tally

    args_parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args_parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args_parser.add_argument("--seed", type=int, required=True)
    args_parser.add_argument("--seconds", type=float, required=True)
    args_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = args_parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    inputs = workload.generate(args.seed)
    tally = Tally()
    try:
        if args.trace:
            spans_path = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, details = traced_run(workload, inputs, tally, spans_path)
        else:
            metrics, details = untraced_run(workload, inputs, args.seconds, tally)
        metrics = manifest_metrics(metrics, args.trace)
    except Exception:
        traceback.print_exc()
        print("the program raised; no result", file=sys.stderr)
        return 1

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), "input_size": workload.input_size(inputs),
                      **details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
