"""Workload process: one closed-loop client calling ``glavoc.cli.main`` in-process.

    python3 perfbench/client.py prep PLAN.json
    python3 perfbench/client.py probe
    python3 perfbench/client.py run PLAN.json RESULT.json

``prep`` runs the plan's untimed preparation commands and exits with the
first non-zero status.  ``probe`` and ``run`` do the set-up a user's
first call pays (import, config, filterbank, pseudo-inverse, first FFT)
and then print ``READY``; the launcher times process start to that line
as ``setup_s``.  ``probe`` exits there.  ``run`` then runs the plan's
items one after another (the next only after the previous returns) and
writes per-item timings and, in traced mode, per-layer totals to
RESULT.json.  Correctness is
checked afterwards by the launcher, outside this process, so the checks
neither cost time here nor raise this process's peak RSS.
"""

import json
import os
import resource
import statistics
import sys
import threading
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

FFT_FLOOR_REPEATS = 5


def setup():
    import numpy as np
    import glavoc.cli
    from glavoc import RunConfig

    cfg = RunConfig()
    _ = cfg.filterbank().pseudo_inverse
    np.fft.irfft(np.fft.rfft(np.zeros((1, cfg.n_fft))), n=cfg.n_fft)
    return glavoc.cli


def run_item(cli, item, index):
    argv = [a.replace("{i}", str(index)) for a in item["argv"]]
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Exception:          # an item that raises is a failed operation
        traceback.print_exc()
        code = -1
    t1 = perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "item": item["id"], "index": index, "code": code, "t0": t0, "t1": t1,
        "wall_s": t1 - t0, "audio_s": item["audio_s"],
        "user_s": ru1.ru_utime - ru0.ru_utime, "sys_s": ru1.ru_stime - ru0.ru_stime,
        "minflt": ru1.ru_minflt - ru0.ru_minflt,
    }


def timed_loop(cli, plan):
    """Cycle through the items until ``seconds`` have passed."""
    items, records = plan["items"], []
    start = perf_counter()
    while not records or perf_counter() - start < plan["seconds"]:
        item = items[len(records) % len(items)]
        records.append(run_item(cli, item, len(records)))
    return records


def traced_loop(cli, plan, layers):
    """Pairs of one untraced and one traced pass over the same items, the
    order alternating from pair to pair, while another pair still fits in
    ``seconds``; return records and per-layer metrics."""
    from tracer import Tracer

    targets = [(l["name"], l["target"]) for l in layers["layers"] + layers["helper_spans"]]
    tracer = Tracer()
    passes = {"untraced": [], "traced": []}
    records = []
    start = perf_counter()
    pair_s = 0.0
    while not passes["traced"] or perf_counter() - start + pair_s < plan["seconds"]:
        t0 = perf_counter()
        order = ("untraced", "traced") if len(passes["traced"]) % 2 == 0 else ("traced", "untraced")
        for kind in order:
            if kind == "traced":
                tracer.install(targets)
            try:
                recs = [run_item(cli, plan["items"][k], len(records) + n)
                        for n, k in enumerate(plan["trace_pass"])]
            finally:
                tracer.restore()
            records.extend(recs)
            passes[kind].append(recs)
        pair_s = perf_counter() - t0
    return records, layer_metrics(plan, layers, tracer, passes)


def fft_floor(n_frames, n_fft):
    """Median time of the bare rfft + irfft of one round at this frame shape."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((n_frames, n_fft))
    times = []
    for _ in range(FFT_FLOOR_REPEATS):
        t0 = perf_counter()
        np.fft.irfft(np.fft.rfft(x, axis=1), n=n_fft, axis=1)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def bytes_per_round(n_frames, n_fft):
    """Computed, not measured: one streaming pass over each array a round
    reads or writes.  Per frame of n_bins bins and n_fft samples: magnitude
    projection reads the spectrogram and target and writes a spectrogram
    (16 + 8 + 16 B per bin), irfft reads a spectrogram (16) and writes
    frames (8 per sample), overlap-add reads frames (8), framing writes
    frames (8), rfft reads frames (8) and writes a spectrogram (16)."""
    n_bins = n_fft // 2 + 1
    return n_frames * (72 * n_bins + 32 * n_fft)


def layer_metrics(plan, layers, tracer, passes):
    n_traced = len(passes["traced"])
    summary = tracer.summary()
    out = {}
    for layer in layers["layers"]:
        row = summary.get(layer["name"], {"calls": 0, "self_s": 0.0})
        out[layer["name"] + ".calls"] = row["calls"] / n_traced
        out[layer["name"] + ".self_s"] = row["self_s"] / n_traced

    # projection rounds: inclusive time of each item's projection call
    items = plan["items"]
    traced = [r for recs in passes["traced"] for r in recs]
    loop_names = {item.get("loop_span") for item in items} - {None}
    floors = {}
    loop_s = floor_s = moved = rounds = 0.0
    for _, name, _, _, start, end in tracer.spans:
        if name not in loop_names:
            continue
        rec = next((r for r in traced if r["t0"] <= start and end <= r["t1"]), None)
        item = items[rec["item"]] if rec else None
        if item is None or item.get("loop_span") != name:
            continue
        frames = item["frames"]
        if frames not in floors:
            floors[frames] = fft_floor(frames, plan["n_fft"])
        loop_s += end - start
        rounds += item["rounds"]
        floor_s += item["rounds"] * floors[frames]
        moved += item["rounds"] * bytes_per_round(frames, plan["n_fft"])
    out["phase.round_s"] = loop_s / rounds if rounds else 0.0
    out["fft_floor.round_s"] = floor_s / rounds if rounds else 0.0
    out["phase.round_over_fft_floor"] = loop_s / floor_s if floor_s else 0.0
    out["phase.bytes_per_round"] = moved / rounds if rounds else 0.0

    busy = capacity = 0.0
    for r in traced:
        jobs = items[r["item"]].get("jobs")
        if jobs:
            b, wall = tracer.pool_busy(threading.main_thread().ident, r["t0"], r["t1"])
            busy += b
            capacity += jobs * wall
    out["evaluate.worker_busy_ratio"] = busy / capacity if capacity else 0.0

    untraced = [r for recs in passes["untraced"] for r in recs]
    audio = sum(r["audio_s"] for r in untraced)
    out["proc.minor_faults"] = sum(r["minflt"] for r in untraced) / audio
    out["proc.sys_s"] = sum(r["sys_s"] for r in untraced) / audio

    med = {k: statistics.median(sum(r["audio_s"] for r in recs) / sum(r["wall_s"] for r in recs)
                                for recs in v) for k, v in passes.items()}
    out["trace.throughput_xrt"] = med["traced"]
    out["trace.untraced_throughput_xrt"] = med["untraced"]
    out["trace.throughput_ratio"] = med["traced"] / med["untraced"]
    return out, sorted(tracer.absent)


def main():
    if sys.argv[1] == "prep":
        import glavoc.cli

        with open(sys.argv[2], encoding="utf-8") as fh:
            prep = json.load(fh)["prep"]
        sys.exit(next((rc for rc in map(glavoc.cli.main, prep) if rc), 0))
    cli = setup()
    print("READY", flush=True)
    if sys.argv[1] == "probe":
        return
    with open(sys.argv[2], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = {}
    if plan["trace"]:
        with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
            layers = json.load(fh)
        result["records"], (result["per_layer"], result["absent"]) = traced_loop(cli, plan, layers)
    else:
        result["records"] = timed_loop(cli, plan)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernels = sys.modules.get("glavoc._kernels")
    result["kernel_backend"] = kernels.backend() if hasattr(kernels, "backend") else None
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
