"""Batch frontend: wav -> mel -> wav pipelines plus evaluation reports.

Exit codes: 0 success, 1 usage error (bad flags, arguments or config
values), 2 data error (unreadable or inconsistent files).  Every run
echoes its fully resolved configuration to stderr; that echo is a valid
config file that reproduces the run.
"""

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .audio_io import read_wav, write_wav
from .config import RunConfig, load_config
from .diffusion import OraclePredictor, ZeroPredictor
from .dsp import stft
from .melscale import MelSpectrogram, mel_spectrogram, pseudo_inverse_magnitude, read_mels, write_mels
from .metrics import EvalReport, log_spectral_distance, snr, spectral_convergence
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
        args = build_parser().parse_args(argv)
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

def _read_wav_checked(path, cfg) -> "Waveform":
    wave, _ = read_wav(path)
    if wave.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"{path}: sample rate {wave.sample_rate} != configured "
            f"{cfg.sample_rate} (no resampling; adjust the config or the file)"
        )
    return wave


def _load_mel(path, cfg) -> MelSpectrogram:
    frames, rate = read_mels(path)
    if int(rate) != cfg.sample_rate:
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
    mel = mel_spectrogram(stft(wave, cfg.stft_params()).magnitude(), cfg.filterbank())
    write_mels(args.output, mel)
    return 0


def cmd_vocode_gla(args, cfg) -> int:
    mel = _load_mel(args.mels, cfg)
    s_hat = pseudo_inverse_magnitude(mel)
    out = fgla(s_hat, cfg.stft_params(), cfg.gla_config(),
               sample_rate=cfg.sample_rate)
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
    params = cfg.stft_params()

    ref_spec = stft(wave, params)
    mel = mel_spectrogram(ref_spec.magnitude(), cfg.filterbank())
    write_mels(outdir / f"{stem}.mels", mel)

    out = sample(OraclePredictor(wave), mel, cfg.sampler_config(),
                 target_length=len(wave))
    generated = f"{stem}_generated.wav"
    write_wav(outdir / generated, out, cfg.wav_spec())

    est_mag = stft(out, params).magnitude()
    ref_mag = ref_spec.magnitude()
    s_hat = pseudo_inverse_magnitude(mel)
    report = EvalReport()
    report.add(generated, "snr", snr(wave, out))
    report.add(generated, "spectral_convergence", spectral_convergence(ref_mag, est_mag))
    report.add(generated, "lsd", log_spectral_distance(ref_mag, est_mag, cfg.lsd_floor))
    report.add(generated, "lsd_target",
               log_spectral_distance(s_hat, est_mag, cfg.lsd_floor))
    report.write_csv(outdir / "report.csv")
    return 0


def _evaluate_pair(name, ref_dir, est_dir, cfg):
    params = cfg.stft_params()
    ref = _read_wav_checked(ref_dir / name, cfg)
    est = _read_wav_checked(est_dir / name, cfg)
    n = min(len(ref), len(est))
    ref = type(ref)(ref.samples[:n], ref.sample_rate)
    est = type(est)(est.samples[:n], est.sample_rate)
    ref_mag = stft(ref, params).magnitude()
    est_mag = stft(est, params).magnitude()
    return name, {
        "snr": snr(ref, est),
        "spectral_convergence": spectral_convergence(ref_mag, est_mag),
        "lsd": log_spectral_distance(ref_mag, est_mag, cfg.lsd_floor),
    }


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
    report = EvalReport()
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        results = list(pool.map(
            lambda n: _evaluate_pair(n, ref_dir, est_dir, cfg), names
        ))
    for name, row in results:
        for metric, value in row.items():
            report.add(name, metric, value)
    report.write_csv(args.output)
    return 0
