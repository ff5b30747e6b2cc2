"""glavoc benchmark: one command, three workloads, one JSON result line.

    python3 perfbench/run.py --workload vocode_utt --seed 1 --seconds 20 --trace 0

Run from the root of a glavoc checkout.  The launcher makes the seeded
inputs (speech-like audio written by its own WAV writer), runs the
untimed preparation, times ``setup_s`` over several fresh processes,
then starts one workload process (``client.py``) in which a single
closed-loop client calls ``glavoc.cli.main`` item after item.  Every
process gets ``PYTHONPATH=src`` and one BLAS/OpenMP thread, so that
``evaluate --jobs 2`` keeps the thread count at the two cores measured.

Afterwards the launcher checks every item's output with its own numpy
code and counts an item that exited non-zero or failed its check as a
failed operation.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of ``layers.json``.  The last
stdout line is the result; the line before it records the environment.
Scratch files live in ``.perfbench_runs/`` and are removed after the run,
except a JSON file with the run's full record.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")
# one BLAS/OpenMP thread in this process and every child, set before numpy loads
os.environ.update({v: "1" for v in THREAD_VARS})

import numpy as np  # noqa: E402

import audio  # noqa: E402

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 11         # fresh processes timed for setup_s, the workload's included
GLA_ITERS = 8              # sized so one 60 s item takes a few seconds
GLA_SC_BOUND = 0.3         # a working FGLA reaches about 0.2 at GLA_ITERS from random phase
EVAL_JOBS = 2
DEADLINE_S = 170.0

# Clip lengths (s) in the order items run.  Every other vocode clip has the
# middle length and the rest alternate below and above it, so the middle
# length is the median of every prefix of three or more items: latency_p50_s
# does not jump with how many items a run completes, and half the items
# measure it.  The evaluation batch brackets its middle length the same way.
VOCODE_LENGTHS = (5, 2, 5, 8, 5, 3, 5, 7, 5, 4, 5, 6)
GLA_LENGTHS = (60, 60)
EVAL_LENGTHS = (3, 1, 5, 3, 2, 4, 3, 1.5, 4.5, 3, 2.5, 3.5)
EVAL_NOISE_DB = -25.0      # estimate = 0.9 * reference + noise at this level


def fail(message, log=None):
    """Exit non-zero without a result line, showing the end of the log."""
    if log is not None:
        log.flush()
        message += ":\n" + Path(log.name).read_text(encoding="utf-8", errors="replace")[-2000:]
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------------ inputs

def make_clips(rng, lengths, directory):
    directory.mkdir(parents=True, exist_ok=True)
    clips = []
    for k, seconds in enumerate(lengths):
        x = audio.speech_like(rng, audio.exact_length(seconds))
        path = directory / f"clip{k:02d}.wav"
        audio.write_wav(path, x)
        clips.append({"wav": str(path), "n": x.shape[0]})
    return clips


def build_plan(workload, rng, work):
    """Write the inputs and return the item plan and preparation argvs."""
    out = work / "out"
    out.mkdir(parents=True)
    prep, items = [], []

    def item(argv, n, **extra):
        items.append({"id": len(items), "argv": argv, "audio_s": n / audio.SAMPLE_RATE,
                      "frames": audio.n_frames(n), **extra})

    if workload in ("vocode_utt", "gla_long"):
        lengths = VOCODE_LENGTHS if workload == "vocode_utt" else GLA_LENGTHS
        for clip in make_clips(rng, lengths, work / "in"):
            mels = clip["wav"][:-4] + ".mels"
            prep.append(["analyze", clip["wav"], "-o", mels])
            if workload == "vocode_utt":
                item(["vocode", mels, "-o", str(out / "vocode_{i}.wav"),
                      "--predictor", "oracle:" + clip["wav"]], clip["n"],
                     kind="vocode", ref=clip["wav"], mels=mels,
                     loop_span="sampler.gla_correct", rounds=32)
            else:
                item(["vocode-gla", mels, "-o", str(out / "gla_{i}.wav"),
                      "--iters", str(GLA_ITERS), "--momentum", "0.99"], clip["n"],
                     kind="gla", mels=mels, loop_span="phase.fgla", rounds=GLA_ITERS)
        trace_pass = [0, 1, 2] if workload == "vocode_utt" else [0]
    else:
        refs = make_clips(rng, EVAL_LENGTHS, work / "ref")
        (work / "est").mkdir()
        for clip in refs:
            x = audio.read_wav(clip["wav"])
            noise = rng.standard_normal(x.shape[0]) * np.sqrt(np.mean(x * x))
            audio.write_wav(work / "est" / Path(clip["wav"]).name,
                            0.9 * x + 10 ** (EVAL_NOISE_DB / 20.0) * noise, "pcm16")
            item(["analyze", clip["wav"], "-o", str(out / "analyze_{i}.mels")], clip["n"],
                 kind="analyze")
        item(["evaluate", str(work / "ref"), str(work / "est"), "-o",
              str(out / "report_{i}.csv"), "--jobs", str(EVAL_JOBS)],
             sum(c["n"] for c in refs), kind="evaluate", jobs=EVAL_JOBS,
             pairs=[Path(c["wav"]).name for c in refs])
        trace_pass = list(range(len(items)))
    return prep, items, trace_pass


# ------------------------------------------------------------------ processes

def child_env():
    return {**os.environ, "PYTHONPATH": "src"}


def launch(args, stderr):
    return subprocess.Popen([sys.executable, str(HERE / "client.py"), *args],
                            stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
                            text=True)


def wait_ready(proc, t_launch):
    """Seconds from launch until the process prints READY."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        return None
    return time.perf_counter() - t_launch


def run_prep(plan_path, log):
    rc = subprocess.run([sys.executable, str(HERE / "client.py"), "prep", str(plan_path)],
                        env=child_env(), stderr=log, stdout=subprocess.DEVNULL,
                        timeout=60).returncode
    if rc:
        fail(f"preparation (analyze) exited {rc}", log)


def time_setups(n, log):
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = launch(["probe"], log)
        try:
            samples.append(wait_ready(proc, t0))
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if samples[-1] is None or proc.returncode:
            fail("set-up probe did not start", log)
    return samples


def run_workload(plan_path, result_path, log, deadline):
    t0 = time.perf_counter()
    proc = launch(["run", str(plan_path), str(result_path)], log)
    try:
        setup = wait_ready(proc, t0)
        proc.wait(timeout=max(10.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if setup is None or proc.returncode:
        fail(f"workload process exited {proc.returncode}", log)
    with open(result_path, encoding="utf-8") as fh:
        return setup, json.load(fh)


# ------------------------------------------------------------------ checks

def check_items(items, records, out_dir):
    """Per record: True if it exited 0 and its output passed the workload's
    check.  Also returns the spectral convergence of each clip or pair."""
    pinv = audio.mel_pinv()
    target_mags, gla_digest, convergence, ok = {}, {}, {}, []

    def lifted(mels):
        if mels not in target_mags:
            target_mags[mels] = np.maximum(audio.read_mels(mels) @ pinv.T, 0.0)
        return target_mags[mels]

    for rec in records:
        item = items[rec["item"]]
        try:
            good = rec["code"] == 0 and check_output(item, rec, out_dir, lifted,
                                                     gla_digest, convergence)
        except (OSError, ValueError):
            good = False
        ok.append(good)
    return ok, convergence


def check_output(item, rec, out_dir, lifted, gla_digest, convergence):
    kind, i = item["kind"], rec["index"]
    if kind == "vocode":
        out = audio.read_wav(out_dir / f"vocode_{i}.wav")
        ref = audio.read_wav(item["ref"])
        if out.shape != ref.shape or audio.snr_db(ref, out) != audio.SNR_CAP_DB:
            return False
        if item["id"] not in convergence:
            convergence[item["id"]] = audio.spectral_convergence(
                lifted(item["mels"]), audio.stft_magnitude(out))
        return True
    if kind == "gla":
        path = out_dir / f"gla_{i}.wav"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if item["id"] not in convergence:
            convergence[item["id"]] = audio.spectral_convergence(
                lifted(item["mels"]), audio.stft_magnitude(audio.read_wav(path)))
        return (digest == gla_digest.setdefault(item["id"], digest)
                and convergence[item["id"]] < GLA_SC_BOUND)
    if kind == "analyze":
        return audio.read_mels_header(out_dir / f"analyze_{i}.mels") == (item["frames"], audio.N_MELS)
    return check_report(out_dir / f"report_{i}.csv", item, convergence)


def check_report(path, item, convergence):
    """Every pair has snr, spectral_convergence and lsd, and each snr matches
    a recomputation from the same files to the report's 6 digits."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        name, metric, value = line.split(",")
        rows[(name, metric)] = float(value)
    ref_dir, est_dir = Path(item["argv"][1]), Path(item["argv"][2])
    for name in item["pairs"]:
        if any((name, m) not in rows for m in ("snr", "spectral_convergence", "lsd")):
            return False
        ref, est = audio.read_wav(ref_dir / name), audio.read_wav(est_dir / name)
        n = min(ref.shape[0], est.shape[0])
        expect = audio.snr_db(ref[:n], est[:n])
        if abs(rows[(name, "snr")] - expect) > 1e-5 * abs(expect) + 1e-9:
            return False
        convergence[name] = rows[(name, "spectral_convergence")]
    return True


# ------------------------------------------------------------------ report

def environment(workload, seed, backend):
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=5)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        src.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_rev": git_rev(), "src_sha256": src.hexdigest(),
        "kernel_backend": backend, "client": "closed loop, 1 client, in-process cli.main",
    }


def git_rev():
    """HEAD commit read from .git without running git (None outside a repo)."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def end_to_end(records, setups, peak_rss_mb, convergence):
    audio_s = sum(r["audio_s"] for r in records)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_xrt": (audio_s / sum(r["wall_s"] for r in records), "audio_s/s"),
        "latency_p50_s": (statistics.median(r["wall_s"] for r in records), "s"),
        "cpu_s_per_audio_s": (sum(r["user_s"] + r["sys_s"] for r in records) / audio_s, "s/audio_s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "spectral_convergence": (statistics.fmean(convergence.values()) if convergence
                                 else 0.0, "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("vocode_utt", "gla_long", "batch_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    # turn SIGTERM into SystemExit so the finally blocks stop the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not Path("src/glavoc/cli.py").is_file():
        fail("run from the root of a glavoc checkout (src/glavoc/cli.py not found)")

    runs = Path(".perfbench_runs")
    work = runs / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rng = np.random.default_rng([args.seed, ("vocode_utt", "gla_long", "batch_eval").index(args.workload)])
        prep, items, trace_pass = build_plan(args.workload, rng, work)
        plan = {"seconds": args.seconds, "trace": args.trace, "prep": prep,
                "items": items, "trace_pass": trace_pass, "n_fft": audio.N_FFT}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        with open(work / "stderr.log", "w", encoding="utf-8") as log:
            if prep:
                run_prep(plan_path, log)
            setups = time_setups(SETUP_SAMPLES - 1, log)
            setup, result = run_workload(plan_path, work / "result.json", log,
                                         started + DEADLINE_S)
        setups.append(setup)
        records = result["records"]
        ok, convergence = check_items(items, records, work / "out")
        failed = ok.count(False)
        env = environment(args.workload, args.seed, result["kernel_backend"])
        if args.trace:
            metrics = {k: (v, layer_unit(k)) for k, v in result["per_layer"].items()}
        else:
            metrics = end_to_end(records, setups, result["peak_rss_mb"], convergence)
        full = {"env": env, "setup_samples_s": setups, "records": records, "ok": ok,
                "convergence": convergence, "absent": result.get("absent", []),
                "metrics": {k: v for k, (v, _) in metrics.items()}}
        (runs / f"{work.name}.json").write_text(json.dumps(full, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


with open(HERE / "layers.json", encoding="utf-8") as _fh:
    DERIVED_UNITS = {d["name"]: d["unit"] for d in json.load(_fh)["derived"]}


def layer_unit(name):
    if name.endswith(".calls"):
        return "count/pass"
    if name.endswith(".self_s"):
        return "s/pass"
    return DERIVED_UNITS[name]


if __name__ == "__main__":
    main()
