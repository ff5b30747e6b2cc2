"""Byte-identity digests of the glavoc CLI over a fixed command matrix.

Run it once against each of two source trees, each in a fresh process,
and compare what it prints:

    OPENBLAS_NUM_THREADS=1 python tools/identity.py --src base/src > base.txt
    OPENBLAS_NUM_THREADS=1 python tools/identity.py --src src > change.txt
    diff base.txt change.txt

Each line gives one command's sha256 over its output files, exit code
and stderr, then its exit code and its name; the last line is the sha256 of all the lines
before it.  The inputs are seeded speech-like clips from
``perfbench/audio.py``, written by its own WAV writer, so they do not
depend on the tree under test.  Every command runs in process through
``glavoc.cli.main``, from one fresh working directory and with relative
paths, so the configuration echoed on stderr is the same wherever the
tool runs.  OpenBLAS picks its kernels per CPU, so compare two runs made
on one machine.

The matrix runs on the default geometry and on n_fft 512, hop 96,
win_length 400 with 40 mels: ``analyze``; ``vocode`` over the oracle and
the zero predictor, white and SpecGrad noise, the wg6 and wg50
schedules, gla_momentum 0 and 0.99 and correction_steps 0 and 3;
``vocode-gla --iters 8`` at momentum 0.99 and 0; ``simulate`` with each
noise; ``evaluate --jobs 2`` on three pairs; and three bad values, which
exit 1: ``--iters -1``, ``center = false`` and an unknown config key.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, so the mel product sums in one order on any machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np    # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from audio import SAMPLE_RATE, speech_like, write_wav    # noqa: E402

GEOMETRIES = {
    "default": "",
    "small": "n_fft = 512\nhop = 96\nwin_length = 400\nn_mels = 40\n",
}
CLIPS = {"a": 1.0, "b": 1.37, "c": 0.6}    # seconds


def write_inputs() -> None:
    """Seeded clips, float32 references in ref/ and pcm16 estimates in est/, and configs."""
    rng = np.random.default_rng(29)
    for d in ("ref", "est", "cfg"):
        Path(d).mkdir()
    for name, seconds in CLIPS.items():
        x = speech_like(rng, int(seconds * SAMPLE_RATE))
        write_wav(f"ref/{name}.wav", x)
        write_wav(f"est/{name}.wav", 0.9 * x + 0.01 * rng.standard_normal(x.shape[0]), "pcm16")
    for g, text in GEOMETRIES.items():
        Path(f"cfg/{g}.cfg").write_text(text)
        Path(f"cfg/{g}-momentum.cfg").write_text(text + "gla_momentum = 0.99\n")
        Path(f"cfg/{g}-uncentered.cfg").write_text(text + "center = false\n")
        Path(f"cfg/{g}-unknown.cfg").write_text(text + "hop_size = 300\n")


def commands() -> list:
    """(name, argv) pairs in run order; command ``name`` writes under out/name."""
    out = []
    for g in GEOMETRIES:
        cfg = ["--config", f"cfg/{g}.cfg"]
        for clip in CLIPS:
            out.append((f"{g}/analyze/{clip}", ["analyze", f"ref/{clip}.wav", "-o",
                                                f"out/{g}/analyze/{clip}/x.mels"] + cfg))
        mels = f"out/{g}/analyze/a/x.mels"
        for pred, noise, schedule, momentum, steps in itertools.product(
                ("oracle", "zero"), ("white", "specgrad"), ("wg6", "wg50"),
                ("0", "0.99"), ("0", "3")):
            name = f"{g}/vocode/{pred}-{noise}-{schedule}-m{momentum}-c{steps}"
            out.append((name, [
                "vocode", mels, "-o", f"out/{name}/y.wav",
                "--predictor", "oracle:ref/a.wav" if pred == "oracle" else "zero",
                "--noise", noise, "--schedule", schedule, "--correction-steps", steps,
                # gla_momentum is a config key without a flag
                "--config", f"cfg/{g}-momentum.cfg" if momentum != "0" else f"cfg/{g}.cfg"]))
        for momentum in ("0.99", "0"):
            name = f"{g}/vocode-gla/m{momentum}"
            out.append((name, ["vocode-gla", mels, "-o", f"out/{name}/y.wav", "--iters", "8",
                               "--momentum", momentum] + cfg))
        for noise in ("white", "specgrad"):
            name = f"{g}/simulate/{noise}"
            out.append((name, ["simulate", "ref/b.wav", "-o", f"out/{name}", "--noise", noise]
                        + cfg))
        out.append((f"{g}/evaluate", ["evaluate", "ref", "est", "-o",
                                      f"out/{g}/evaluate/report.csv", "--jobs", "2"] + cfg))
        out.append((f"{g}/bad/iters", ["vocode-gla", mels, "-o", f"out/{g}/bad/iters/y.wav",
                                       "--iters", "-1"] + cfg))
        for bad in ("uncentered", "unknown"):
            out.append((f"{g}/bad/{bad}", ["analyze", "ref/a.wav", "-o",
                                           f"out/{g}/bad/{bad}/x.mels",
                                           "--config", f"cfg/{g}-{bad}.cfg"]))
    return out


def run(main, name: str, argv: list) -> tuple:
    """(sha256 of one command's output files in path order, exit code and stderr; exit code)."""
    out = Path("out", name)
    out.mkdir(parents=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out)}\0{len(data)}\0".encode())
        h.update(data)
    h.update(f"exit {code}\0".encode())
    h.update(err.getvalue().encode())
    return h.hexdigest(), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="the directory holding the glavoc package to run")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import glavoc.cli
    if src not in Path(glavoc.cli.__file__).resolve().parents:
        print(f"glavoc imported from {glavoc.cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    home = os.getcwd()
    lines = []
    with tempfile.TemporaryDirectory(prefix="glavoc-identity-") as work:
        os.chdir(work)
        try:
            write_inputs()
            for name, cmd in commands():
                digest, code = run(glavoc.cli.main, name, cmd)
                lines.append(f"{digest}  exit {code}  {name}")
                print(lines[-1], flush=True)
        finally:
            os.chdir(home)    # before the directory is removed
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  total ({len(lines)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
