"""Config round-tripping, CLI exit codes, and end-to-end command behavior."""

import numpy as np
import pytest

from signals import harmonic_signal

from glavoc.audio_io import WavSpec, read_wav, write_wav
from glavoc.cli import build_parser, main, resolve_config
from glavoc.config import RunConfig, load_config
from glavoc.dsp import Waveform
from glavoc.melscale import MelSpectrogram, mel_filterbank, read_mels, write_mels


def make_wav(path, n=11025, f0=150.0, seed=1, rate=22050):
    y = Waveform(0.8 * harmonic_signal(f0, sr=rate, n=n, seed=seed), rate)
    write_wav(path, y, WavSpec(rate, "float32"))
    return y


# -------------------------------------------------------------------- config

def test_config_round_trip():
    cfg = RunConfig(seed=7, momentum=0.5, schedule="wg50", magnitude_rescale=True)
    assert RunConfig.from_text(cfg.to_text()) == cfg


def test_shipped_default_config_matches_builtin_defaults():
    assert load_config("configs/default.cfg") == RunConfig()


def test_config_parsing_details():
    cfg = RunConfig.from_text("seed = 3   # trailing comment\n\n# full comment\nhop=150\n")
    assert cfg.seed == 3 and cfg.hop == 150
    with pytest.raises(ValueError, match="unknown key"):
        RunConfig.from_text("bogus = 1\n")
    with pytest.raises(ValueError, match="bad int"):
        RunConfig.from_text("seed = banana\n")
    with pytest.raises(ValueError, match="bad bool"):
        RunConfig.from_text("center = yes\n")
    with pytest.raises(ValueError, match="expected"):
        RunConfig.from_text("just words\n")


def test_config_overrides():
    cfg = RunConfig.from_text("", {"seed": 9, "iters": None, "noise": "specgrad"})
    assert cfg.seed == 9
    assert cfg.iters == 1000          # None means "not given"
    assert cfg.noise == "specgrad"


# ----------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["analyze"]) == 1                       # missing args
    assert main(["analyze", "x.wav", "-o", "y.mels", "--nope"]) == 1
    assert main(["vocode", "x.mels", "-o", "y.wav", "--predictor", "magic"]) == 1
    capsys.readouterr()


def test_config_errors_exit_1(tmp_path, capsys):
    # rejected while the config is resolved, before any file is read
    ref, est = tmp_path / "ref", tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    make_wav(ref / "a.wav")
    make_wav(est / "a.wav")
    assert main(["evaluate", str(ref), str(est), "-o", str(tmp_path / "r.csv"),
                 "--jobs", "0"]) == 1
    uncentered = tmp_path / "uncentered.cfg"
    uncentered.write_text("center = false\n")
    assert main(["analyze", str(ref / "a.wav"), "-o", str(tmp_path / "a.mels"),
                 "--config", str(uncentered)]) == 1
    bogus = tmp_path / "bogus.cfg"
    bogus.write_text("bogus = 1\n")
    assert main(["analyze", str(ref / "a.wav"), "-o", str(tmp_path / "a.mels"),
                 "--config", str(bogus)]) == 1
    # values the run could not use, each caught at load
    for line in ("hop = 1300", "noise = pink", "correction_steps = 9", "f_max = 20000.0",
                 "wav_format = pcm24", "schedule = nosuch"):
        unusable = tmp_path / "unusable.cfg"
        unusable.write_text(line + "\n")
        assert main(["analyze", str(ref / "a.wav"), "-o", str(tmp_path / "a.mels"),
                     "--config", str(unusable)]) == 1, line
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "a.mels").exists()
    # a config file that cannot be read is a data error
    assert main(["analyze", str(ref / "a.wav"), "-o", str(tmp_path / "a.mels"),
                 "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert "jobs must be >= 1" in err and "center = false" in err
    for message in ("hop 1300 exceeds win_length", "noise_shaping must be one of",
                    "exceeds the 6-step schedule", "Nyquist", "bit_depth must be one of",
                    "unknown schedule 'nosuch'"):
        assert message in err


def test_config_rejects_unusable_values():
    with pytest.raises(ValueError, match="jobs"):
        RunConfig(jobs=0)
    with pytest.raises(ValueError, match="center"):
        RunConfig.from_text("center = false\n")
    with pytest.raises(ValueError, match="jobs"):
        RunConfig.from_text("", {"jobs": -1})


def test_data_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.wav"
    assert main(["analyze", str(missing), "-o", str(tmp_path / "o.mels")]) == 2

    wrong_rate = tmp_path / "wrong.wav"
    make_wav(wrong_rate, n=8000, rate=16000)
    assert main(["analyze", str(wrong_rate), "-o", str(tmp_path / "o.mels")]) == 2

    # mel band count disagreeing with the configured filterbank
    fb = mel_filterbank(22050, 2048, 64, 20.0, 11025.0)
    bad_mels = tmp_path / "bad.mels"
    write_mels(bad_mels, MelSpectrogram(np.abs(np.random.default_rng(0).random((10, 64))), fb))
    assert main(["vocode-gla", str(bad_mels), "-o", str(tmp_path / "o.wav"),
                 "--iters", "2"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------- commands

def test_analyze_writes_default_band_count(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    make_wav(wav)
    out = tmp_path / "in.mels"
    assert main(["analyze", str(wav), "-o", str(out)]) == 0
    frames, rate = read_mels(out)
    assert rate == 22050.0
    assert frames.shape[1] == 128
    capsys.readouterr()


def test_vocode_gla_runs(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    make_wav(wav)
    mels = tmp_path / "in.mels"
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    out = tmp_path / "out.wav"
    assert main(["vocode-gla", str(mels), "-o", str(out),
                 "--iters", "20", "--momentum", "0.9", "--seed", "4"]) == 0
    back, spec = read_wav(out)
    assert spec.bit_depth == "float32"
    assert np.all(np.isfinite(back.samples))
    capsys.readouterr()


def test_mels_no_signal_produces_exit_2(tmp_path, capsys):
    mels = tmp_path / "short.mels"
    write_mels(mels, MelSpectrogram(np.ones((2, 128)), mel_filterbank(22050, 2048, 128)))
    assert main(["vocode-gla", str(mels), "-o", str(tmp_path / "g.wav"), "--iters", "2"]) == 2
    assert main(["vocode", str(mels), "-o", str(tmp_path / "v.wav"),
                 "--predictor", "zero"]) == 2
    assert not (tmp_path / "g.wav").exists() and not (tmp_path / "v.wav").exists()
    err = capsys.readouterr().err
    assert err.count("2 frames: no signal analyzes to fewer than 4 frames") == 2


def test_vocode_determinism(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    make_wav(wav)
    mels = tmp_path / "in.mels"
    main(["analyze", str(wav), "-o", str(mels)])
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    argv = ["vocode", str(mels), "--predictor", "zero",
            "--correction-steps", "0", "--gla-iters", "0", "--seed", "5"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_vocode_oracle_predictor(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    make_wav(wav)
    mels = tmp_path / "in.mels"
    main(["analyze", str(wav), "-o", str(mels)])
    out = tmp_path / "out.wav"
    assert main(["vocode", str(mels), "-o", str(out),
                 "--predictor", f"oracle:{wav}"]) == 0
    back, _ = read_wav(out)
    assert np.all(np.isfinite(back.samples))
    capsys.readouterr()


def test_simulate_products(tmp_path, capsys):
    wav = tmp_path / "tone.wav"
    make_wav(wav)
    outdir = tmp_path / "sim"
    assert main(["simulate", str(wav), "-o", str(outdir)]) == 0
    assert (outdir / "tone.mels").exists()
    assert (outdir / "tone_generated.wav").exists()
    report = (outdir / "report.csv").read_text()
    lines = report.splitlines()
    assert lines[0] == "file,metric,value"
    assert any(ln.startswith("tone_generated.wav,snr,") for ln in lines)
    assert any(ln.startswith("tone_generated.wav,lsd_target,") for ln in lines)
    snr_value = float(next(ln for ln in lines if ",snr," in ln and "__" not in ln).split(",")[2])
    assert np.isfinite(snr_value)
    capsys.readouterr()


def test_evaluate_pairs(tmp_path, capsys):
    ref = tmp_path / "ref"
    est = tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    for i, name in enumerate(("a.wav", "b.wav")):
        y = make_wav(ref / name, seed=i)
        noisy = Waveform(y.samples + 0.01 * np.random.default_rng(i).standard_normal(len(y)))
        write_wav(est / name, noisy, WavSpec(22050, "float32"))
    out = tmp_path / "report.csv"
    assert main(["evaluate", str(ref), str(est), "-o", str(out), "--jobs", "2"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "file,metric,value"
    assert sum(1 for ln in lines if ln.startswith("a.wav,")) == 3
    assert sum(1 for ln in lines if ln.startswith("b.wav,")) == 3
    assert any(ln.startswith("__mean__,snr,") for ln in lines)
    capsys.readouterr()


def test_evaluate_missing_counterpart(tmp_path, capsys):
    ref = tmp_path / "ref"
    est = tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    make_wav(ref / "a.wav")
    assert main(["evaluate", str(ref), str(est),
                 "-o", str(tmp_path / "r.csv")]) == 2
    capsys.readouterr()


def test_config_echo_reproduces_run(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    make_wav(wav)
    assert main(["analyze", str(wav), "-o", str(tmp_path / "o.mels"),
                 "--config", "configs/default.cfg"]) == 0
    err = capsys.readouterr().err
    body = "\n".join(ln for ln in err.splitlines() if not ln.startswith("#"))
    assert RunConfig.from_text(body) == RunConfig()


def test_config_file_is_validated_with_its_overrides(tmp_path):
    # nine corrected steps exceed wg6 but fit the wg50 the flag selects
    custom = tmp_path / "c.cfg"
    custom.write_text("correction_steps = 9\n")
    args = build_parser().parse_args(["vocode", "in.mels", "-o", "out.wav", "--predictor",
                                      "zero", "--config", str(custom), "--schedule", "wg50"])
    cfg = resolve_config(args)
    assert (cfg.schedule, cfg.correction_steps) == ("wg50", 9)
    with pytest.raises(ValueError, match="6-step schedule"):
        resolve_config(build_parser().parse_args(["vocode", "in.mels", "-o", "out.wav",
                                                  "--predictor", "zero", "--config", str(custom)]))


def test_flag_overrides_config_file(tmp_path, capsys):
    custom = tmp_path / "c.cfg"
    custom.write_text("seed = 11\niters = 5\n")
    wav = tmp_path / "in.wav"
    make_wav(wav)
    mels = tmp_path / "in.mels"
    main(["analyze", str(wav), "-o", str(mels)])
    assert main(["vocode-gla", str(mels), "-o", str(tmp_path / "o.wav"),
                 "--config", str(custom), "--seed", "99"]) == 0
    err = capsys.readouterr().err
    assert "seed = 99" in err          # flag beat the file
    assert "iters = 5" in err          # file beat the default
