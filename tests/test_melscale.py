"""Mel filterbank, pseudo-inverse lift, and interchange-format tests."""

import dataclasses
import itertools
import struct
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from signals import harmonic_signal

from glavoc.dsp import StftParams, Waveform, stft
from glavoc.melscale import (
    LIFT_ROWS,
    MelFilterbank,
    MelSpectrogram,
    check_bands,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    pseudo_inverse_magnitude,
    read_mels,
    write_mels,
)


def default_fb():
    return mel_filterbank(22050, 2048, 128, 20.0, 11025.0)


def test_mel_scale_frozen_points():
    # mel(700) = 2595 * log10(2), worked out once by hand
    assert hz_to_mel(0.0) == 0.0
    assert abs(hz_to_mel(700.0) - 781.17283874803) < 1e-9
    assert abs(mel_to_hz(781.17283874803) - 700.0) < 1e-9
    f = np.array([20.0, 440.0, 8000.0])
    assert np.max(np.abs(mel_to_hz(hz_to_mel(f)) - f)) < 1e-9


def test_default_filterbank_shape_and_support():
    fb = default_fb()
    assert fb.weights.shape == (128, 1025)
    # bin centers below the 20 Hz cutoff carry no weight; bin 1 sits at
    # 22050/2048 = 10.8 Hz
    bin_freqs = np.arange(1025) * 22050 / 2048
    assert np.all(fb.weights[:, bin_freqs < 20.0] == 0.0)
    # peak-1 unnormalized triangles
    assert fb.weights.max() <= 1.0
    assert fb.weights.max() > 0.999
    # every band touches at least one bin
    assert np.all(fb.weights.max(axis=1) > 0.0)


def test_single_band_triangle():
    fb = mel_filterbank(22050, 2048, 1, 0.0, 11025.0)
    w = fb.weights[0]
    assert w[0] == 0.0 and w[-1] == 0.0
    peak = np.argmax(w)
    assert 0 < peak < 1024
    assert w[peak] > 0.5


def test_infeasible_layout_is_an_error():
    # 64 bands crammed under 60 Hz with a 2048-point FFT: almost no bins
    with pytest.raises(ValueError, match="no FFT bin"):
        mel_filterbank(22050, 2048, 64, 20.0, 60.0)
    with pytest.raises(ValueError):
        mel_filterbank(22050, 2048, 128, 500.0, 100.0)
    # rejected before the bin spacing divides by it
    for n_fft in (0, -4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"n_fft must be >= 1, got {n_fft}"):
                mel_filterbank(22050, n_fft)


def test_band_check_agrees_with_built_triangles():
    # check_bands counts the bins between band edges; the reference builds
    # the triangles and looks for all-zero rows
    for sr, n_fft, n_bands, f_min in itertools.product(
            (16000, 22050), (256, 512, 2048), (40, 128, 600), (0.0, 20.0)):
        bins = np.arange(n_fft // 2 + 1) * sr / n_fft
        edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(sr / 2), n_bands + 2))
        lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
        w = np.maximum(0.0, np.minimum((bins - lo) / (mid - lo), (hi - bins) / (hi - mid)))
        empty = np.flatnonzero(w.max(axis=1) == 0.0)
        if empty.size:
            with pytest.raises(ValueError) as err:
                check_bands(sr, n_fft, n_bands, f_min, sr / 2)
            assert str(err.value).startswith(
                f"{empty.size} filters cover no FFT bin (first: band {empty[0]})")
        else:
            check_bands(sr, n_fft, n_bands, f_min, sr / 2)


def test_mel_spectrogram_zero_and_ones():
    fb = default_fb()
    zero = mel_spectrogram(np.zeros((7, 1025)), fb)
    assert np.all(zero.frames == 0.0)
    ones = mel_spectrogram(np.ones((1, 1025)), fb)
    assert np.allclose(ones.frames[0], fb.weights.sum(axis=1), atol=1e-12)


def test_mel_spectrogram_matches_triple_loop():
    rng = np.random.default_rng(21)
    fb = mel_filterbank(16000, 256, 16, 0.0, 8000.0)
    S = rng.random((5, 129))
    got = mel_spectrogram(S, fb).frames
    ref = np.zeros((5, 16))
    for t in range(5):
        for b in range(16):
            acc = 0.0
            for k in range(129):
                acc += S[t, k] * fb.weights[b, k]
            ref[t, b] = acc
    assert np.max(np.abs(got - ref)) < 1e-12


def test_mel_spectrogram_monotone():
    rng = np.random.default_rng(22)
    fb = default_fb()
    S1 = rng.random((4, 1025))
    S2 = S1 + rng.random((4, 1025))
    X1 = mel_spectrogram(S1, fb).frames
    X2 = mel_spectrogram(S2, fb).frames
    assert np.all(X2 >= X1 - 1e-15)


def test_mel_dimension_mismatch():
    fb = default_fb()
    with pytest.raises(ValueError):
        mel_spectrogram(np.zeros((3, 513)), fb)
    with pytest.raises(ValueError):
        MelSpectrogram(np.zeros((3, 64)), fb)


def test_pseudo_inverse_identity():
    fb = default_fb()
    eye_err = np.linalg.norm(fb.weights @ fb.pseudo_inverse - np.eye(128))
    assert eye_err / np.sqrt(128) < 1e-6


def test_filterbank_arrays_and_fields_refuse_changes():
    fb = default_fb()
    for array in (fb.weights, fb.pseudo_inverse):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    for name, value in (("weights", np.zeros((128, 1025))), ("sample_rate", 16000.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fb, name, value)
    assert fb.pseudo_inverse is fb.pseudo_inverse     # computed once, then kept
    # the filterbank holds a read-only view; the caller's array stays writable
    weights = np.array(fb.weights)
    MelFilterbank(weights, 22050)
    weights[0, 0] = 1.0


def test_threads_first_touching_the_pseudo_inverse_get_the_same_bits():
    # no lock: threads that race compute the same bits, and any result may be kept
    fb = default_fb()
    want = np.linalg.pinv(fb.weights, rcond=1e-8).tobytes()
    start = threading.Barrier(4)

    def touch(_):
        start.wait(timeout=60)
        return fb.pseudo_inverse

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(touch, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for pinv in got + [fb.pseudo_inverse]:
        assert pinv.tobytes() == want
        assert not pinv.flags.writeable


def test_lift_zero_and_clamp():
    fb = default_fb()
    zero = pseudo_inverse_magnitude(MelSpectrogram(np.zeros((3, 128)), fb))
    assert np.all(zero == 0.0)
    # a spiky mel frame drives the least-squares lift negative somewhere;
    # those entries must come out exactly zero
    spike = np.zeros((1, 128))
    spike[0, 40] = 1.0
    lifted = pseudo_inverse_magnitude(MelSpectrogram(spike, fb))
    raw = spike @ fb.pseudo_inverse.T
    assert raw.min() < 0.0          # the case actually exercises the clamp
    assert np.all(lifted >= 0.0)
    assert np.all(lifted[raw < 0.0] == 0.0)


def test_lift_in_row_chunks_is_the_whole_product():
    # the lift multiplies LIFT_ROWS frames at a time, never fewer except on
    # a short mel, whose rows BLAS may round another way
    for fb in (mel_filterbank(22050, 2048, 128, 20.0, 11025.0),
               mel_filterbank(22050, 512, 40, 20.0, 11025.0)):
        for n_frames in list(range(1, 3 * LIFT_ROWS + 3)) + [1000, 4411]:
            frames = np.random.default_rng(n_frames).random((n_frames, fb.n_bands))
            want = np.maximum(frames @ fb.pseudo_inverse.T, 0.0)
            got = pseudo_inverse_magnitude(MelSpectrogram(frames, fb))
            assert np.array_equal(got, want), n_frames


def test_mel_round_trip_on_harmonic_signals():
    fb = default_fb()
    p = StftParams()
    worst = 0.0
    for i, f0 in enumerate(np.linspace(80, 250, 10)):
        mag = stft(Waveform(harmonic_signal(f0, seed=i)), p).magnitude()
        X = mel_spectrogram(mag, fb)
        back = mel_spectrogram(pseudo_inverse_magnitude(X), fb)
        err = np.linalg.norm(back.frames - X.frames) / np.linalg.norm(X.frames)
        worst = max(worst, err)
    assert worst < 0.05


# ---------------------------------------------------------------- interchange

def test_mels_file_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    fb = default_fb()
    frames = rng.random((40, 128))
    path = tmp_path / "a.mels"
    write_mels(path, MelSpectrogram(frames, fb))
    back, sr = read_mels(path)
    assert sr == 22050.0
    assert back.shape == (40, 128)
    # float32 storage is the only loss
    assert np.max(np.abs(back - frames)) < 1e-6
    assert path.stat().st_size == 20 + 40 * 128 * 4
    # what the format cannot hold is refused before the file is opened
    with pytest.raises(ValueError, match="mel values overflow float32"):
        write_mels(tmp_path / "huge.mels", MelSpectrogram(np.full((4, 128), 1e39), fb))
    for rate in (22050.1, 16777217.0):    # float32 holds neither
        with pytest.raises(ValueError, match="no exact float32 form"):
            write_mels(tmp_path / "rate.mels", MelSpectrogram(frames, MelFilterbank(fb.weights, rate)))
    assert not (tmp_path / "huge.mels").exists() and not (tmp_path / "rate.mels").exists()


def test_filterbank_rejects_a_rate_no_mel_file_holds():
    # read_mels refuses these rates, so no filterbank may carry one to write_mels
    weights = default_fb().weights
    for rate in (0.0, -22050.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sample_rate must be finite and positive"):
            MelFilterbank(weights, rate)


def test_mels_rejects_corruption(tmp_path):
    fb = default_fb()
    good = tmp_path / "good.mels"
    write_mels(good, MelSpectrogram(np.ones((2, 128)), fb))
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.mels"
    bad_magic.write_bytes(b"XELS" + raw[4:])
    with pytest.raises(ValueError, match="not a mel"):
        read_mels(bad_magic)

    bad_version = tmp_path / "version.mels"
    bad_version.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(ValueError, match="version"):
        read_mels(bad_version)

    truncated = tmp_path / "short.mels"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_mels(truncated)


def test_mels_rejects_negative_values(tmp_path):
    # a log-mel file: read as mel magnitudes it would be all zeros
    good = tmp_path / "good.mels"
    write_mels(good, MelSpectrogram(np.ones((40, 128)), default_fb()))
    log_mel = tmp_path / "log.mels"
    log_mel.write_bytes(good.read_bytes()[:20] + np.full((40, 128), -4.0, dtype="<f4").tobytes())
    with pytest.raises(ValueError) as err:
        read_mels(log_mel)
    assert str(err.value) == f"{log_mel}: negative mel values"
