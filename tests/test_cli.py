"""Config round-tripping, CLI exit codes, and end-to-end command behavior."""

import argparse
import csv
import dataclasses
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from signals import harmonic_signal

from glavoc import cli, config, dsp
from glavoc.audio_io import WavSpec, read_wav, write_wav
from glavoc.cli import build_parser, main, resolve_config
from glavoc.config import RunConfig, load_config
from glavoc.dsp import StftParams, Waveform
from glavoc.melscale import MelSpectrogram, mel_filterbank, read_mels, write_mels


def make_wav(path, n=11025, f0=150.0, seed=1, rate=22050):
    y = Waveform(0.8 * harmonic_signal(f0, sr=rate, n=n, seed=seed))
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
                 "wav_format = pcm24", "schedule = nosuch", "lsd_floor = 0",
                 "lsd_floor = nan", "lsd_floor = inf", "cepstral_order = 0", "seed = -1",
                 "gla_iters = -1", "gla_momentum = 1.0",
                 # mel bands narrower than the FFT bin spacing
                 "n_mels = 600", "n_fft = 256\nwin_length = 256\nhop = 64",
                 # hops whose synthesis leaves a sample unnormalized
                 "hop = 1198", "hop = 1200",
                 # rates the WAV and .mels headers cannot hold
                 "sample_rate = 16777217\nn_mels = 1\nf_min = 0.0",
                 "sample_rate = 2000000000\nn_mels = 1\nf_min = 0.0"):
        unusable = tmp_path / "unusable.cfg"
        unusable.write_text(line + "\n")
        assert main(["analyze", str(ref / "a.wav"), "-o", str(tmp_path / "a.mels"),
                     "--config", str(unusable)]) == 1, line
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "a.mels").exists()
    # a config file that cannot be read is a data error
    assert main(["analyze", str(ref / "a.wav"), "-o", str(tmp_path / "a.mels"),
                 "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert "jobs must be >= 1" in err
    # the uncentered Hann is zero at the first output sample
    assert err.count("degenerate synthesis normalization") == 3
    assert "hop 300, win_length 1200, center off" in err
    assert "hop 1198, win_length 1200, center on" in err
    assert err.count("sample_rate must lie in 1..16777216") == 2
    for message in ("hop 1300 exceeds win_length", "noise_shaping must be one of",
                    "exceeds the 6-step schedule", "Nyquist", "bit_depth must be one of",
                    "unknown schedule 'nosuch'", "lsd_floor must be finite and positive",
                    "cepstral_order must be >= 1", "seed must be >= 0",
                    "gla_iterations must be >= 0, got -1",
                    "gla_momentum must lie in [0, 1), got 1.0", "filters cover no FFT bin"):
        assert message in err
    assert err.count("filters cover no FFT bin") == 2


def test_config_rejects_unusable_values():
    with pytest.raises(ValueError, match="jobs"):
        RunConfig(jobs=0)
    with pytest.raises(ValueError, match="degenerate synthesis normalization.*center off"):
        RunConfig.from_text("center = false\n")
    with pytest.raises(ValueError, match="jobs"):
        RunConfig.from_text("", {"jobs": -1})


def test_bad_schedule_line_names_the_file_and_line(tmp_path, capsys):
    betas = tmp_path / "betas.txt"
    betas.write_text("0.1\nabc\n")
    config = tmp_path / "schedule.cfg"
    config.write_text(f"schedule = {betas}\n")
    assert main(["vocode", str(tmp_path / "a.mels"), "-o", str(tmp_path / "a.wav"),
                 "--predictor", "zero", "--config", str(config)]) == 1
    assert f"glavoc: error: {betas}: line 2: bad beta 'abc'" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.wav"
    assert main(["analyze", str(missing), "-o", str(tmp_path / "o.mels")]) == 2

    wrong_rate = tmp_path / "wrong.wav"
    make_wav(wrong_rate, n=8000, rate=16000)
    assert main(["analyze", str(wrong_rate), "-o", str(tmp_path / "o.mels")]) == 2

    # a header claiming 0 Hz
    zero_rate = tmp_path / "zero.wav"
    raw = bytearray(wrong_rate.read_bytes())
    raw[24:32] = struct.pack("<II", 0, 0)     # sample rate and byte rate
    zero_rate.write_bytes(bytes(raw))
    assert main(["analyze", str(zero_rate), "-o", str(tmp_path / "o.mels")]) == 2
    assert f"{zero_rate}: bad sample rate 0" in capsys.readouterr().err

    # mel band count disagreeing with the configured filterbank
    fb = mel_filterbank(22050, 2048, 64, 20.0, 11025.0)
    bad_mels = tmp_path / "bad.mels"
    write_mels(bad_mels, MelSpectrogram(np.abs(np.random.default_rng(0).random((10, 64))), fb))
    assert main(["vocode-gla", str(bad_mels), "-o", str(tmp_path / "o.wav"),
                 "--iters", "2"]) == 2
    capsys.readouterr()

    # a header rate that is not the configured one, if only by half a hertz
    half_hz = tmp_path / "half.mels"
    write_mels(half_hz, MelSpectrogram(np.ones((10, 128)), mel_filterbank(22050, 2048, 128,
                                                                        20.0, 11025.0)))
    raw = bytearray(half_hz.read_bytes())
    raw[16:20] = struct.pack("<f", 22050.5)
    half_hz.write_bytes(bytes(raw))
    assert main(["vocode-gla", str(half_hz), "-o", str(tmp_path / "o.wav"),
                 "--iters", "2"]) == 2
    assert f"{half_hz}: sample rate 22050.5 != configured 22050" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def riff(*chunks):
    """A RIFF/WAVE file of the given (id, body) chunks, each word-aligned."""
    body = b"".join(struct.pack("<4sI", cid, len(data)) + data + b"\0" * (len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_chunk(code=1, bits=16):
    return b"fmt ", struct.pack("<HHIIHH", code, 1, 22050, 22050 * bits // 8, bits // 8, bits)


def mels_file(n_frames=10, n_bands=128, rate=22050.0, frames=None):
    """A .mels file; ``frames`` defaults to ones of the header's shape."""
    if frames is None:
        frames = np.ones((n_frames, n_bands))
    return (b"MELS" + struct.pack("<IIIf", 1, n_frames, n_bands, rate)
            + np.asarray(frames, dtype="<f4").tobytes())


DATA_ERRORS = {
    "short_fmt_chunk": ("in.wav", riff((b"fmt ", b"\1\0\1\0"), (b"data", b"\0\0")),
                        "malformed fmt chunk"),
    "no_fmt_chunk": ("in.wav", riff((b"data", b"\0\0")), "missing fmt or data chunk"),
    "no_data_chunk": ("in.wav", riff(fmt_chunk()), "missing fmt or data chunk"),
    "odd_pcm16_payload": ("in.wav", riff(fmt_chunk(), (b"data", b"\0\0\0")),
                          "odd PCM16 payload size"),
    "ragged_float32_payload": ("in.wav", riff(fmt_chunk(3, 32), (b"data", b"\0" * 6)),
                               "float32 payload size not a multiple of 4"),
    "empty_data_chunk": ("in.wav", riff(fmt_chunk(), (b"data", b"")), "empty data chunk"),
    "no_mel_frames": ("in.mels", mels_file(n_frames=0), "degenerate dimensions 0x128"),
    "no_mel_bands": ("in.mels", mels_file(n_bands=0), "degenerate dimensions 10x0"),
    "zero_mel_rate": ("in.mels", mels_file(rate=0.0), "bad sample rate 0.0"),
    "nan_mel_rate": ("in.mels", mels_file(rate=np.nan), "bad sample rate nan"),
    "nan_mel_frame": ("in.mels", mels_file(frames=np.full((10, 128), np.nan)),
                      "non-finite mel values"),
    "no_wav_files": ("ref", None, "no wav files to evaluate"),
}


@pytest.mark.parametrize("name", DATA_ERRORS)
def test_bad_input_files_exit_2_naming_the_file(tmp_path, capsys, name):
    file_name, content, message = DATA_ERRORS[name]
    path = tmp_path / file_name
    out = tmp_path / "out"
    if content is None:    # a directory of no .wav files
        path.mkdir()
        (path / "notes.txt").write_text("not audio\n")
        (tmp_path / "est").mkdir()
        argv = ["evaluate", str(path), str(tmp_path / "est"), "-o", str(out)]
    else:
        path.write_bytes(content)
        argv = (["analyze", str(path), "-o", str(out)] if file_name.endswith(".wav")
                else ["vocode-gla", str(path), "-o", str(out), "--iters", "1"])
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(f"glavoc: error: {path}: {message}\n")
    assert not out.exists()


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


def test_log_mel_file_produces_exit_2(tmp_path, capsys):
    # negative values, as a log-mel holds; clamped, they would vocode to silence
    good = tmp_path / "good.mels"
    write_mels(good, MelSpectrogram(np.ones((40, 128)), mel_filterbank(22050, 2048, 128)))
    mels = tmp_path / "log.mels"
    mels.write_bytes(good.read_bytes()[:20] + np.full((40, 128), -4.0, dtype="<f4").tobytes())
    assert main(["vocode-gla", str(mels), "-o", str(tmp_path / "g.wav"), "--iters", "2"]) == 2
    assert not (tmp_path / "g.wav").exists()
    assert f"{mels}: negative mel values" in capsys.readouterr().err


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


def test_evaluate_names_the_pair_whose_metrics_fail(tmp_path, capsys):
    ref, est = tmp_path / "ref", tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    make_wav(ref / "a.wav")
    make_wav(est / "a.wav", seed=2)
    write_wav(ref / "b.wav", Waveform(np.zeros(4000)), WavSpec(22050, "float32"))
    make_wav(est / "b.wav", n=4000)
    out = tmp_path / "report.csv"
    assert main(["evaluate", str(ref), str(est), "-o", str(out), "--jobs", "2"]) == 2
    assert "glavoc: error: b.wav: snr needs a nonzero reference" in capsys.readouterr().err
    assert not out.exists()


def test_reports_quote_file_names(tmp_path, capsys):
    ref, est = tmp_path / "ref", tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    make_wav(ref / "a,b.wav")
    make_wav(est / "a,b.wav", seed=2)
    out = tmp_path / "report.csv"
    assert main(["evaluate", str(ref), str(est), "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["file"] for row in rows} == {"a,b.wav", "__mean__", "__std__"}
    assert {row["metric"] for row in rows} == {"snr", "spectral_convergence", "lsd"}
    assert main(["simulate", str(ref / "a,b.wav"), "-o", str(tmp_path / "sim")]) == 0
    with open(tmp_path / "sim" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["file"] for row in rows} == {"a,b_generated.wav", "__mean__", "__std__"}
    assert {row["metric"] for row in rows} == {"snr", "spectral_convergence", "lsd",
                                               "lsd_target"}
    capsys.readouterr()


def test_edge_inputs_have_defined_exits(tmp_path, capsys):
    # each clip through every command; an empty message means exit 0
    n = 4000
    clips = {
        "silence": np.zeros(n),
        "huge": 1e37 * np.sin(2 * np.pi * 220 * np.arange(n) / 22050),
        "one_sample": np.array([0.5]),
    }
    no_snr = "snr needs a nonzero reference"
    overflow = "a.mels: mel values overflow float32"
    expected = {
        "silence": ["", "", "", "", no_snr, no_snr],
        # analyze refuses the mel it cannot store, so the vocoders find no file
        "huge": [overflow] + ["No such file"] * 3 + [overflow, ""],
        "one_sample": [""] * 6,
    }
    for name, x in clips.items():
        d = tmp_path / name
        (d / "ref").mkdir(parents=True)
        wav, mels = d / "ref" / "a.wav", d / "a.mels"
        write_wav(wav, Waveform(x), WavSpec(22050, "float32"))
        runs = [
            ["analyze", wav, "-o", mels],
            ["vocode-gla", mels, "-o", d / "gla.wav", "--iters", "4"],
            ["vocode", mels, "-o", d / "zero.wav", "--predictor", "zero"],
            ["vocode", mels, "-o", d / "oracle.wav", "--predictor", f"oracle:{wav}"],
            ["simulate", wav, "-o", d / "sim"],
            ["evaluate", d / "ref", d / "ref", "-o", d / "report.csv"],
        ]
        for argv, message in zip(runs, expected[name]):
            code = main([str(a) for a in argv])
            err = capsys.readouterr().err
            assert code == (2 if message else 0), (name, argv[0])
            assert message in err and ("glavoc: error" in err) == bool(message), (name, argv[0])
        # the vocoders synthesize the longest length the mel's frames describe
        p = StftParams()
        longest = p.max_length_for_frames(p.frames_for_length(len(x)))
        for out in ("gla.wav", "zero.wav", "oracle.wav"):
            if (d / out).exists():
                assert len(read_wav(d / out)[0]) == longest
    assert not (tmp_path / "huge" / "a.mels").exists()
    assert not (tmp_path / "huge" / "sim" / "a.mels").exists()
    # the 1e37 clip as the oracle's reference, under silence's mel
    out = tmp_path / "huge_oracle.wav"
    assert main(["vocode", str(tmp_path / "silence" / "a.mels"), "-o", str(out),
                 "--predictor", f"oracle:{tmp_path / 'huge' / 'ref' / 'a.wav'}"]) == 0
    assert 1e36 < np.max(np.abs(read_wav(out)[0].samples)) < 1e38
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


def test_config_refuses_strings_its_echo_cannot_carry(tmp_path, capsys):
    # the echo would read this schedule back as everything before the '#'
    betas = tmp_path / "my#sched.txt"
    betas.write_text("\n".join(["1e-4", "1e-3", "1e-2", "0.05", "0.2", "0.5"]) + "\n")
    wav = tmp_path / "in.wav"
    make_wav(wav)
    mels = tmp_path / "in.mels"
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    assert main(["vocode", str(mels), "-o", str(tmp_path / "o.wav"), "--predictor",
                 "zero", "--schedule", str(betas)]) == 1
    assert f"glavoc: error: schedule {str(betas)!r} cannot be written" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()
    for key, value in (("schedule", "wg6\n"), ("schedule", "wg6\rwg50"),
                       ("noise", " white"), ("wav_format", "float32\t"),
                       ("schedule", "a\x0bb")):
        with pytest.raises(ValueError, match=f"^{key} "):
            RunConfig(**{key: value})


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


def test_evaluate_names_the_file_with_a_non_finite_sample(tmp_path, capsys):
    ref, est = tmp_path / "ref", tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    for name in ("a.wav", "b.wav"):
        make_wav(ref / name)
        make_wav(est / name, seed=2)
    raw = bytearray((est / "b.wav").read_bytes())
    raw[44 + 4 * 100:44 + 4 * 101] = struct.pack("<f", np.nan)    # sample 100
    (est / "b.wav").write_bytes(bytes(raw))
    out = tmp_path / "report.csv"
    assert main(["evaluate", str(ref), str(est), "-o", str(out), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert f"glavoc: error: {est / 'b.wav'}: samples contain non-finite values" in err
    assert not out.exists()


BETAS = "7e-06\n0.00014\n0.0021\n0.028\n0.35\n0.7\n"


def test_a_piped_schedule_is_read_once(tmp_path, capsys):
    wav, mels = tmp_path / "in.wav", tmp_path / "in.mels"
    make_wav(wav)
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    betas = tmp_path / "betas.txt"
    betas.write_text(BETAS)
    assert main(["vocode", str(mels), "-o", str(tmp_path / "file.wav"), "--predictor", "zero",
                 "--schedule", str(betas)]) == 0
    fifo = tmp_path / "betas.fifo"
    os.mkfifo(fifo)
    done = threading.Event()

    def feed():
        with open(fifo, "w") as fh:
            fh.write(BETAS)
        # as with a reopened /dev/fd/N, a second reader finds the pipe empty
        while not done.wait(0.01):
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:    # no reader waiting
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        code = main(["vocode", str(mels), "-o", str(tmp_path / "fifo.wav"),
                     "--predictor", "zero", "--schedule", str(fifo)])
    finally:
        done.set()
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))    # frees a writer still opening
        writer.join()
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "fifo.wav").read_bytes() == (tmp_path / "file.wav").read_bytes()
    assert f"schedule = {fifo}\n" in capsys.readouterr().err


def test_a_config_holds_the_parts_load_checked():
    cfg = RunConfig(schedule="wg50", correction_steps=9)
    assert cfg.sampler_config() is cfg.sampler_config()
    assert cfg.sampler_config().stft_params is cfg.stft_params()
    assert cfg.gla_config() is cfg.gla_config() and cfg.wav_spec() is cfg.wav_spec()
    assert cfg.sampler_config().schedule.n_steps == 50
    # the parts are not keys: they reach neither the echo nor equality
    assert [f.name for f in dataclasses.fields(cfg)] == [
        ln.split(" = ")[0] for ln in cfg.to_text().splitlines()]
    assert cfg == RunConfig(schedule="wg50", correction_steps=9)
    for part, key in ((cfg, "hop"), (cfg.sampler_config(), "gla_iterations"),
                      (cfg.gla_config(), "iterations")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, key, 1201)
    with pytest.raises(ValueError, match="hop 1201 exceeds win_length 1200"):
        dataclasses.replace(cfg, hop=1201)


# -------------------------------------------------------------- shared set-up

def test_equal_configs_share_one_filterbank():
    fb = RunConfig().filterbank()
    assert RunConfig(seed=3, hop=150).filterbank() is fb
    assert RunConfig.from_text("n_mels = 128\nf_max = 11025.0\n").filterbank() is fb
    other = RunConfig(n_mels=64).filterbank()
    assert other is not fb and other.n_bands == 64
    # typed: an equal rate of another type gets its own filterbank, which carries that type
    as_float = RunConfig(sample_rate=22050.0).filterbank()
    assert as_float is not fb and type(as_float.sample_rate) is float
    assert mel_filterbank(22050, 2048, 128, 20.0, 11025.0) is not mel_filterbank(
        22050, 2048, 128, 20.0, 11025.0)


def test_one_process_computes_the_pseudo_inverse_once(tmp_path, capsys, monkeypatch):
    wav = tmp_path / "in.wav"
    make_wav(wav, n=4000)
    mels = tmp_path / "in.mels"
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    config._shared_filterbank.cache_clear()
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(a) or pinv(*a, **k))
    short = ["--correction-steps", "1", "--gla-iters", "2"]
    assert main(["vocode", str(mels), "-o", str(tmp_path / "v.wav"),
                 "--predictor", "zero"] + short) == 0
    assert main(["vocode-gla", str(mels), "-o", str(tmp_path / "g.wav"), "--iters", "2"]) == 0
    for run in ("s1", "s2"):
        assert main(["simulate", str(wav), "-o", str(tmp_path / run)] + short) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_vocode_gla_memory_stays_within_its_per_frame_bound(tmp_path, capsys, monkeypatch):
    # README, Memory: at momentum, the lifted target (8.2 kB a frame) and
    # two signals (4.8 kB a frame), besides a fixed 12 MB: 2.3 MB of chunk
    # buffers for each of the two burst threads, 2 MB for the filterbank
    # and its pseudo-inverse, the rest small arrays.  A stored iterate
    # would add 16.4 kB a frame, a third signal 2.4 kB
    wav, mels = tmp_path / "in.wav", tmp_path / "in.mels"
    n = 20 * 22050
    make_wav(wav, n=n)
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    n_frames = StftParams().frames_for_length(n)
    monkeypatch.setattr(dsp, "_cores", lambda: 2)
    config._shared_filterbank.cache_clear()    # the filterbank is built inside the trace
    tracemalloc.start()
    try:
        assert main(["vocode-gla", str(mels), "-o", str(tmp_path / "out.wav"),
                     "--iters", "3", "--momentum", "0.99"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_frames * (8200 + 4800) + 12_000_000
    capsys.readouterr()


def test_vocode_memory_stays_within_its_per_frame_bound(tmp_path, capsys, monkeypatch):
    # README, Memory: the lifted target (8.2 kB a frame), the mel (1 kB),
    # and 2.4 kB a frame each for the padded signal, the reference and the
    # prediction, besides a fixed 5 MB: 2.3 MB of chunk buffers for each
    # of the two burst threads, 2 MB for the filterbank and its
    # pseudo-inverse.  New signals every step, as reverse_step makes them,
    # would add 4.8 kB a frame or more, a padded copy of the reference (the
    # clip is shorter than the mel describes) 2.4 kB
    wav, mels = tmp_path / "in.wav", tmp_path / "in.mels"
    n = 20 * 22050
    make_wav(wav, n=n)
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    n_frames = StftParams().frames_for_length(n)
    assert StftParams().max_length_for_frames(n_frames) > n
    monkeypatch.setattr(dsp, "_cores", lambda: 2)
    config._shared_filterbank.cache_clear()    # the filterbank is built inside the trace
    tracemalloc.start()
    try:
        assert main(["vocode", str(mels), "-o", str(tmp_path / "out.wav"),
                     "--predictor", f"oracle:{wav}"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_frames * (8200 + 1024 + 3 * 2400) + 5_000_000
    capsys.readouterr()


@pytest.mark.parametrize("steps, target", [(3, 8200), (0, 0)], ids=["corrected", "uncorrected"])
def test_specgrad_vocode_memory_stays_within_its_per_frame_bound(tmp_path, capsys, monkeypatch,
                                                                  steps, target):
    # README, Memory: setting up the shaped prior holds the lifted target
    # (8.2 kB a frame) only when a step reads it, the envelope (8.2 kB),
    # the noise's complex spectrogram (16.4 kB) and two padded signals,
    # the chain's and the one the analysis or synthesis fills (4.8 kB),
    # besides the mel (1 kB) and the reference (2.4 kB) and a fixed 5 MB.
    # An envelope built over the whole array at once holds its log
    # magnitude, an n_fft-wide cepstrum and that cepstrum's spectrum too,
    # 41 kB a frame; a product of the envelope and the spectrogram 16.4 kB
    wav, mels = tmp_path / "in.wav", tmp_path / "in.mels"
    n = 20 * 22050
    make_wav(wav, n=n)
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    n_frames = StftParams().frames_for_length(n)
    monkeypatch.setattr(dsp, "_cores", lambda: 2)
    config._shared_filterbank.cache_clear()    # the filterbank is built inside the trace
    tracemalloc.start()
    try:
        assert main(["vocode", str(mels), "-o", str(tmp_path / "out.wav"),
                     "--predictor", f"oracle:{wav}", "--noise", "specgrad",
                     "--correction-steps", str(steps)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_frames * (target + 8200 + 16400 + 4800 + 1024 + 2400) + 5_000_000
    capsys.readouterr()


def test_analyze_memory_stays_within_its_per_frame_bound(tmp_path, capsys):
    # README, Memory: the float64 magnitude (8.2 kB a frame), the mel in
    # float64 and its float32 copy for the file (12 B a band), and the
    # samples with their padded copy (16 B a sample), besides a fixed 2 MB:
    # 1 MB for the filterbank, 0.5 MB of chunk buffers, the rest small
    # arrays.  A complex spectrogram would add 16.4 kB a frame
    wav, mels = tmp_path / "in.wav", tmp_path / "in.mels"
    n = 20 * 22050
    make_wav(wav, n=n)
    n_frames = StftParams().frames_for_length(n)
    config._shared_filterbank.cache_clear()    # the filterbank is built inside the trace
    tracemalloc.start()
    try:
        assert main(["analyze", str(wav), "-o", str(mels)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_frames * (8200 + 12 * 128) + 16 * n + 2_000_000
    capsys.readouterr()


def test_evaluate_memory_is_set_by_the_samples(tmp_path, capsys):
    # the pair's samples with either their padded copies or snr's two
    # temporaries (32 B a sample), the bytes read from the files (6 B a
    # sample), besides a fixed 2 MB for chunk buffers and small arrays: no
    # term grows with frames x bins, where two magnitudes alone would take
    # 16.4 kB a frame
    ref, est = tmp_path / "ref", tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    n = 20 * 22050
    make_wav(ref / "a.wav", n=n)
    y = 0.9 * read_wav(ref / "a.wav")[0].samples
    write_wav(est / "a.wav", Waveform(y), WavSpec(22050, "pcm16"))
    tracemalloc.start()
    try:
        assert main(["evaluate", str(ref), str(est), "-o", str(tmp_path / "r.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n + 2_000_000
    capsys.readouterr()


def test_evaluate_scans_each_file_once_and_the_window_once_a_run(tmp_path, capsys, monkeypatch):
    ref, est = tmp_path / "ref", tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    make_wav(ref / "a.wav", n=9000)
    make_wav(est / "a.wav", n=8000, seed=2)
    isfinite = np.isfinite

    def scans():
        # sizes of the 1-D arrays np.isfinite scans in one evaluate run
        sizes = []
        monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: (
            sizes.append(np.size(x)) if np.ndim(x) == 1 else None) or isfinite(x, *a, **k))
        try:
            assert main(["evaluate", str(ref), str(est), "-o", str(tmp_path / "r.csv")]) == 0
        finally:
            monkeypatch.setattr(np, "isfinite", isfinite)
        return sorted(sizes)

    win = StftParams().win_length
    one = scans()
    # read_wav's scan of each file; the trimmed samples are views, not scanned again
    assert [s for s in one if s != win] == [8000, 9000]
    make_wav(ref / "b.wav", n=7000, seed=3)
    make_wav(est / "b.wav", n=7000, seed=4)
    three = scans()
    assert [s for s in three if s != win] == [7000, 7000, 8000, 9000]
    assert three.count(win) == one.count(win)    # no window is built per pair
    capsys.readouterr()


def test_analyze_matches_a_plain_numpy_mel(tmp_path, capsys):
    # reflect-pad, frame, window, rfft, abs, filterbank, float32: written out
    # with numpy alone, with no chunking, bit for bit
    wav, mels = tmp_path / "in.wav", tmp_path / "in.mels"
    make_wav(wav, n=3 * 22050 + 17)
    x = read_wav(wav)[0].samples
    p, cfg = StftParams(), RunConfig()
    n_frames = p.frames_for_length(len(x))
    padded = np.pad(x, p.n_fft // 2, mode="reflect")
    padded = np.concatenate([padded, np.zeros((n_frames - 1) * p.hop + p.n_fft - len(padded))])
    frames = np.stack([padded[t * p.hop:t * p.hop + p.n_fft] for t in range(n_frames)])
    magnitude = np.abs(np.fft.rfft(frames * p.padded_window(), axis=1))
    weights = mel_filterbank(cfg.sample_rate, p.n_fft, cfg.n_mels, cfg.f_min, cfg.f_max).weights
    expect = (magnitude @ weights.T).astype(np.float32)
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    got = read_mels(mels)[0].astype(np.float32)
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()
    capsys.readouterr()


def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert main([]) == 1
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert main([]) == 1
    assert main(["analyze"]) == 1
    assert built == []
    capsys.readouterr()


def test_a_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    make_wav(wav, n=4000)
    mels = tmp_path / "in.mels"
    assert main(["analyze", str(wav), "-o", str(mels)]) == 0
    capsys.readouterr()
    argv = ["vocode-gla", str(mels), "--iters", "2"]
    assert main(argv + ["-o", str(tmp_path / "before.wav")]) == 0
    before = capsys.readouterr().err
    # the failing call sets the flags the next one leaves out before it fails
    assert main(["vocode-gla", str(mels), "-o", str(tmp_path / "x.wav"),
                 "--seed", "5", "--momentum", "0.5", "--iters", "zz"]) == 1
    assert "invalid int value: 'zz'" in capsys.readouterr().err
    assert main(argv + ["-o", str(tmp_path / "after.wav")]) == 0
    assert capsys.readouterr().err == before
    assert (tmp_path / "after.wav").read_bytes() == (tmp_path / "before.wav").read_bytes()
    fresh = build_parser().parse_args(argv + ["-o", "o.wav"])
    assert vars(cli._shared_parser().parse_args(argv + ["-o", "o.wav"])) == vars(fresh)
