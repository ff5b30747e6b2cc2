"""Batch frontend: wav -> mel -> wav pipelines plus evaluation reports.

Exit codes: 0 success, 1 usage error (bad flags, arguments or config
values), 2 data error (unreadable or inconsistent files).  Every run
echoes its fully resolved configuration to stderr; that echo is a valid
config file that reproduces the run.

:func:`main` can be called many times in one process.  It builds its
parser on the first call and parses every later argv with that one;
the filterbank of each geometry is shared the same way, through
``RunConfig.filterbank``.

No command holds a complex spectrogram.  ``analyze`` and ``simulate``
keep the magnitude their mel is taken from; ``evaluate`` and
``simulate``'s report analyze the reference and the estimate in
lockstep, a few frames at a time, and keep only the metrics' running
sums.
"""

import argparse
import dataclasses
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .audio_io import read_wav, write_wav
from .config import RunConfig, load_config
from .diffusion import OraclePredictor, ZeroPredictor
from .dsp import Waveform, _spectra, stft_magnitude
from .melscale import MelSpectrogram, mel_spectrogram, pseudo_inverse_magnitude, read_mels, write_mels
from .metrics import EvalReport, SpectralSums, snr
from .phase import fgla
from .sampler import sample


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _predictor_spec(value):
    if value == "zero" or value.startswith("oracle:"):
        return value
    raise argparse.ArgumentTypeError(
        f"predictor must be 'zero' or 'oracle:<reference.wav>', got {value!r}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glavoc",
                     description="Phase-retrieval and diffusion vocoding toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, seeded=True):
        p.add_argument("--config", help="key = value config file")
        if seeded:
            p.add_argument("--seed", type=int, help="random seed override")

    def sampler_flags(p):
        p.add_argument("--correction-steps", type=int, dest="correction_steps")
        p.add_argument("--gla-iters", type=int, dest="gla_iters")
        p.add_argument("--schedule", help="wg6, wg50, or a betas file")
        p.add_argument("--noise", choices=("white", "specgrad"))
        p.add_argument("--magnitude-rescale", action="store_const", const=True,
                       dest="magnitude_rescale",
                       help="shrink the correction target by the step's noise level")
        p.add_argument("--sigma-no-sqrt", action="store_const", const=True,
                       dest="sigma_no_sqrt",
                       help="use the unrooted posterior deviation variant")

    p = sub.add_parser("analyze", help="compute a mel spectrogram from a wav")
    p.add_argument("wav")
    p.add_argument("-o", "--output", required=True, help="output .mels path")
    common(p, seeded=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("vocode-gla", help="invert a mel file with the accelerated "
                                          "Griffin-Lim baseline vocoder")
    p.add_argument("mels")
    p.add_argument("-o", "--output", required=True, help="output wav path")
    p.add_argument("--iters", type=int, help="projection iterations (default 1000)")
    p.add_argument("--momentum", type=float, help="acceleration momentum in [0,1)")
    common(p)
    p.set_defaults(func=cmd_vocode_gla)

    p = sub.add_parser("vocode", help="invert a mel file with the corrected "
                                      "diffusion sampler")
    p.add_argument("mels")
    p.add_argument("-o", "--output", required=True, help="output wav path")
    p.add_argument("--predictor", type=_predictor_spec, required=True,
                   help="'zero' or 'oracle:<reference.wav>'")
    sampler_flags(p)
    common(p)
    p.set_defaults(func=cmd_vocode)

    p = sub.add_parser("simulate", help="oracle end-to-end run: analyze, sample, "
                                        "evaluate against the input")
    p.add_argument("wav")
    p.add_argument("-o", "--output", required=True, help="output directory")
    sampler_flags(p)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="paired metrics over two wav directories")
    p.add_argument("ref_dir")
    p.add_argument("est_dir")
    p.add_argument("-o", "--output", required=True, help="output report.csv path")
    p.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    common(p, seeded=False)
    p.set_defaults(func=cmd_evaluate)
    return parser


# parse_args leaves a parser as it found it, so one serves every main call
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def resolve_config(args) -> RunConfig:
    """The config file, or the defaults, under the flags that name a config key."""
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    if args.config:
        return load_config(args.config, overrides)
    return RunConfig.from_text("", overrides)


def _echo_config(cfg: RunConfig):
    print("# resolved configuration", file=sys.stderr)
    sys.stderr.write(cfg.to_text())


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    cfg = None
    try:
        cfg = resolve_config(args)
        _echo_config(cfg)
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"glavoc: error: {exc}", file=sys.stderr)
        # a bad config key or value is a usage error; an unreadable file is not
        return 1 if cfg is None and isinstance(exc, ValueError) else 2


# ------------------------------------------------------------------- commands

def _read_wav_checked(path, cfg) -> Waveform:
    wave, spec = read_wav(path)
    if spec.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"{path}: sample rate {spec.sample_rate} != configured "
            f"{cfg.sample_rate} (no resampling; adjust the config or the file)"
        )
    return wave


def _load_mel(path, cfg) -> MelSpectrogram:
    frames, rate = read_mels(path)
    if rate != cfg.sample_rate:
        raise ValueError(
            f"{path}: sample rate {rate} != configured {cfg.sample_rate}"
        )
    if frames.shape[1] != cfg.n_mels:
        raise ValueError(
            f"{path}: {frames.shape[1]} mel bands, configured {cfg.n_mels}"
        )
    return MelSpectrogram(frames, cfg.filterbank())


def _make_predictor(spec_str, cfg):
    if spec_str == "zero":
        return ZeroPredictor()
    ref = _read_wav_checked(spec_str[len("oracle:"):], cfg)
    return OraclePredictor(ref)


def cmd_analyze(args, cfg) -> int:
    wave = _read_wav_checked(args.wav, cfg)
    mel = mel_spectrogram(stft_magnitude(wave, cfg.stft_params()), cfg.filterbank())
    write_mels(args.output, mel)
    return 0


def cmd_vocode_gla(args, cfg) -> int:
    # the mel is freed before the burst; only its lift is read
    s_hat = pseudo_inverse_magnitude(_load_mel(args.mels, cfg))
    out = fgla(s_hat, cfg.stft_params(), cfg.gla_config())
    write_wav(args.output, out, cfg.wav_spec())
    return 0


def cmd_vocode(args, cfg) -> int:
    mel = _load_mel(args.mels, cfg)
    pred = _make_predictor(args.predictor, cfg)
    out = sample(pred, mel, cfg.sampler_config())
    write_wav(args.output, out, cfg.wav_spec())
    return 0


def cmd_simulate(args, cfg) -> int:
    wave = _read_wav_checked(args.wav, cfg)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.wav).stem

    p = cfg.stft_params()
    mel = mel_spectrogram(stft_magnitude(wave, p), cfg.filterbank())
    write_mels(outdir / f"{stem}.mels", mel)

    out = sample(OraclePredictor(wave), mel, cfg.sampler_config(),
                 target_length=len(wave))
    generated = f"{stem}_generated.wav"
    write_wav(outdir / generated, out, cfg.wav_spec())

    report = EvalReport()
    for metric, value in _scores(wave.samples, out.samples, p, cfg.lsd_floor, mel).items():
        report.add(generated, metric, value)
    report.write_csv(outdir / "report.csv")
    return 0


def _scores(ref, est, p, floor, mel=None) -> dict:
    """evaluate's metrics of the samples ``est`` against ``ref``, and lsd_target against ``mel``.

    The two signals are analyzed in lockstep, a chunk of frames at a
    time, and each chunk's magnitudes are scored and dropped, so no array
    of frames x bins is held.  With ``mel``, each chunk of the estimate
    is also scored against the same rows of the mel's lifted magnitude.
    snr comes first, so a silent reference reports snr's error.
    """
    row = {"snr": snr(ref, est)}
    pair, target = SpectralSums(floor), SpectralSums(floor)
    for (r, R), (_, E) in zip(_spectra(ref, p), _spectra(est, p)):
        est_mag = np.abs(E)
        pair.add(np.abs(R), est_mag)
        if mel is not None:
            target.add(pseudo_inverse_magnitude(MelSpectrogram(mel.frames[r], mel.filterbank)),
                       est_mag)
    row["spectral_convergence"] = pair.convergence()
    row["lsd"] = pair.lsd()
    if mel is not None:
        row["lsd_target"] = target.lsd()
    return row


def _evaluate_pair(name, ref_dir, est_dir, cfg, p):
    ref = _read_wav_checked(ref_dir / name, cfg).samples
    est = _read_wav_checked(est_dir / name, cfg).samples
    n = min(len(ref), len(est))    # views of the samples read_wav checked
    try:
        return name, _scores(ref[:n], est[:n], p, cfg.lsd_floor)
    except ValueError as exc:    # a metric undefined on this pair, such as a silent reference
        raise ValueError(f"{name}: {exc}") from exc


def cmd_evaluate(args, cfg) -> int:
    ref_dir = Path(args.ref_dir)
    est_dir = Path(args.est_dir)
    names = sorted(p.name for p in ref_dir.glob("*.wav"))
    if not names:
        raise ValueError(f"{ref_dir}: no wav files to evaluate")
    missing = [n for n in names if not (est_dir / n).exists()]
    if missing:
        raise ValueError(
            f"{est_dir}: missing counterparts for {', '.join(missing)}"
        )
    p = cfg.stft_params()    # one window, checked once, for every pair
    report = EvalReport()
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        results = list(pool.map(
            lambda n: _evaluate_pair(n, ref_dir, est_dir, cfg, p), names
        ))
    for name, row in results:
        for metric, value in row.items():
            report.add(name, metric, value)
    report.write_csv(args.output)
    return 0
