"""STFT / iSTFT tests: frozen small-case oracles plus algebraic invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signals import SPLIT_GEOMETRIES

from glavoc.dsp import (
    ANALYSIS_ROWS,
    ComplexSpectrogram,
    StftParams,
    Waveform,
    _reflect,
    hann_window,
    istft,
    stft,
    stft_magnitude,
)


def default_params():
    return StftParams()


# ---------------------------------------------------------------- window

def test_hann_small_oracle():
    # periodic Hann of length 4, computed by hand: 0.5*(1-cos(pi*t/2))
    w = hann_window(4)
    assert np.allclose(w, [0.0, 0.5, 1.0, 0.5], atol=1e-15)


def test_hann_default_frozen_values():
    w = hann_window(1200)
    assert w.shape == (1200,)
    assert w[0] == 0.0
    assert w[600] == 1.0          # peak at the midpoint, periodic convention
    assert abs(w.sum() - 600.0) == 0.0


def test_hann_rejects_degenerate_length():
    with pytest.raises(ValueError):
        hann_window(1)


def test_cola_squared_interior_constant():
    # squared periodic Hann at 4x overlap sums to exactly 3/2 away from edges
    p = default_params()
    w = p.padded_window()
    n_frames = 40
    out_len = (n_frames - 1) * p.hop + p.n_fft
    acc = np.zeros(out_len)
    for k in range(n_frames):
        acc[k * p.hop:k * p.hop + p.n_fft] += w * w
    interior = acc[p.n_fft:-p.n_fft]
    assert np.all(np.abs(interior - 1.5) < 1e-12)


# ---------------------------------------------------------------- params

def test_params_validation():
    with pytest.raises(ValueError):
        StftParams(n_fft=1024, win_length=2048)   # window longer than FFT
    with pytest.raises(ValueError):
        StftParams(hop=2000, win_length=1200)     # hop longer than window
    with pytest.raises(ValueError):
        StftParams(window=np.full(1200, 2.0))     # window values out of range
    with pytest.raises(ValueError):
        StftParams(window=np.zeros(7))            # wrong window length


def test_frame_count_formula():
    p = default_params()
    # T = ceil((L + 2*1024 - 1200)/300) + 1 = ceil((L + 848)/300) + 1
    for L in (1, 1000, 22050, 66150):
        expected = math.ceil((L + 848) / 300) + 1
        assert p.frames_for_length(L) == expected
    q = StftParams(center_padding=False)
    assert q.frames_for_length(1200) == 1
    assert q.frames_for_length(1201) == 2


def test_max_length_round_trips_frame_count():
    geometries = (
        default_params(),
        StftParams(n_fft=512, hop=96, win_length=400),
        StftParams(n_fft=512, hop=100, win_length=300, window=np.ones(300),
                   center_padding=False),
    )
    for p in geometries:
        for T in (5, 17, 221):
            L = p.max_length_for_frames(T)
            assert p.frames_for_length(L) == T
            # one more sample would tip into T+1 frames
            assert p.frames_for_length(L + 1) == T + 1
            # the synthesis rule admits exactly 1..L
            assert p.synthesis_length(T) == L
            assert p.synthesis_length(T, 1) == 1 and p.synthesis_length(T, L) == L
            for bad in (0, L + 1):
                with pytest.raises(ValueError, match="target_length"):
                    p.synthesis_length(T, bad)


# host timings drift, so no deadline; derandomized so every run checks the
# same geometries
@settings(deadline=None, derandomize=True, database=None)
@given(st.data())
def test_length_rules_agree_on_any_geometry(data):
    n_fft = data.draw(st.integers(1, 4096), "n_fft")
    win = data.draw(st.integers(1, n_fft), "win_length")
    hop = data.draw(st.integers(1, win), "hop")
    p = StftParams(n_fft, hop, win, window=np.ones(win),
                   center_padding=data.draw(st.booleans(), "center"))
    fewest = p.frames_for_length(1)
    # a count below the one-sample signal's describes no length at all
    for n in range(max(0, fewest - 3), fewest):
        with pytest.raises(ValueError, match=f"{n} frames: .* fewer than {fewest} frames"):
            p.max_length_for_frames(n)
    for n in range(fewest, fewest + 40):
        longest = p.max_length_for_frames(n)
        assert p.frames_for_length(longest) == n
        assert p.frames_for_length(longest + 1) == n + 1
        assert p.synthesis_length(n) == longest
        assert p.synthesis_length(n, 1) == 1 and p.synthesis_length(n, longest) == longest
        for bad in (0, longest + 1):
            with pytest.raises(ValueError, match="target_length"):
                p.synthesis_length(n, bad)
        # the lengths that analyze to n frames, and only they, pass check_length
        shortest = p.max_length_for_frames(n - 1) + 1 if n > fewest else 1
        for length in {1, shortest - 1, shortest, longest, longest + 1} - {0}:
            if shortest <= length <= longest:
                assert p.frames_for_length(length) == n
                p.check_length(n, length)
            else:
                assert p.frames_for_length(length) != n
                with pytest.raises(ValueError, match="analyzes to"):
                    p.check_length(n, length)


# ---------------------------------------------------------------- padding

def test_reflect_pad_matches_numpy_when_short():
    x = np.arange(10.0)
    assert np.array_equal(x[_reflect(np.arange(-4, len(x) + 4), len(x))], np.pad(x, 4, mode="reflect"))


def test_reflect_pad_beyond_signal_length():
    # np.pad(mode="reflect") refuses pad >= len; ours keeps reflecting
    x = np.array([1.0, 2.0, 3.0])
    got = x[_reflect(np.arange(-5, len(x) + 5), len(x))]
    # period-4 reflection of [1 2 3]: ... 2 1 2 3 2 1 2 3 ...
    assert np.array_equal(got, [2, 1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2])


def test_reflect_pad_single_sample():
    x = np.array([7.0])
    assert np.array_equal(x[_reflect(np.arange(-3, len(x) + 3), len(x))], np.full(7, 7.0))


# ---------------------------------------------------------------- stft oracle

def test_stft_zero_signal():
    spec = stft(Waveform(np.zeros(3000)), default_params())
    assert spec.frames.shape == (spec.n_frames, 1025)
    assert np.all(spec.frames == 0)


def test_stft_matches_brute_force_dft():
    # small parameter set, windowed frames transformed by an explicit DFT sum
    rng = np.random.default_rng(11)
    p = StftParams(n_fft=16, hop=4, win_length=8)
    y = rng.standard_normal(40)
    spec = stft(Waveform(y), p).frames

    pad = 8
    x = y[_reflect(np.arange(-pad, len(y) + pad), len(y))]
    w = p.padded_window()
    T = p.frames_for_length(40)
    needed = (T - 1) * 4 + 16
    x = np.concatenate([x, np.zeros(max(0, needed - len(x)))])
    for t in range(T):
        frame = x[t * 4:t * 4 + 16] * w
        for k in range(9):
            ref = sum(
                frame[n] * np.exp(-2j * np.pi * k * n / 16) for n in range(16)
            )
            assert abs(spec[t, k] - ref) < 1e-10


@pytest.mark.parametrize("name", sorted(SPLIT_GEOMETRIES))
def test_magnitude_analysis_is_the_abs_of_stft_bit_for_bit(name):
    p = SPLIT_GEOMETRIES[name]
    rng = np.random.default_rng(p.n_fft + p.hop)
    fewest = p.frames_for_length(1)    # 386 for the short window at hop 1
    whole = ANALYSIS_ROWS * (fewest // ANALYSIS_ROWS + 3)
    lengths = {
        "one sample": 1,
        "whole chunks": p.max_length_for_frames(whole),
        # 5 s at 22.05 kHz; at hop 1, where that is 110k frames, 9 more chunks and a part
        "long": 5 * 22050 if p.hop > 1 else p.max_length_for_frames(whole + 9 * ANALYSIS_ROWS + 5),
    }
    if fewest < ANALYSIS_ROWS - 1:
        lengths["under one chunk"] = p.max_length_for_frames(ANALYSIS_ROWS - 1)
    for what, n in lengths.items():
        y = Waveform(rng.standard_normal(n))
        S = stft_magnitude(y, p)
        assert S.dtype == np.float64 and S.shape == (p.frames_for_length(n), p.n_bins), what
        assert S.tobytes() == np.abs(stft(y, p).frames).tobytes(), what


def test_stft_pure_tone_concentrates_on_its_bin():
    p = default_params()
    sr = 22050
    # sr/16 completes 75 periods per 1200-sample window and lands on FFT
    # bin 128; resolution is set by the window, so only far-field leakage
    # (Hann sidelobe rolloff) is bounded here
    n = np.arange(22050)
    y = np.sin(2 * np.pi * n / 16)
    mag = stft(Waveform(y), p).magnitude()
    mid = mag[mag.shape[0] // 2]
    assert np.argmax(mid) == 128
    far = np.concatenate([mid[: 128 - 32], mid[128 + 33:]])
    assert far.max() < 1e-3 * mid[128]


def test_stft_is_linear():
    rng = np.random.default_rng(5)
    p = default_params()
    a, b = rng.standard_normal(5000), rng.standard_normal(5000)
    sa = stft(Waveform(a), p).frames
    sb = stft(Waveform(b), p).frames
    sc = stft(Waveform(2.5 * a - 0.75 * b), p).frames
    assert np.max(np.abs(sc - (2.5 * sa - 0.75 * sb))) < 1e-10


def test_parseval_energy_on_compact_support():
    # signal supported away from the edges: reflect-padded copies vanish and
    # the squared-window sum over the support is the constant 3/2, so
    # sum |C|^2 (two-sided) / n_fft = 1.5 * ||y||^2
    rng = np.random.default_rng(13)
    p = default_params()
    L = 30000
    y = np.zeros(L)
    y[8000:20000] = rng.standard_normal(12000)
    spec = stft(Waveform(y), p).frames
    full = np.concatenate([spec, np.conj(spec[:, 1:-1])[:, ::-1]], axis=1)
    lhs = np.sum(np.abs(full) ** 2) / p.n_fft
    rhs = 1.5 * np.sum(y ** 2)
    assert abs(lhs - rhs) / rhs < 1e-6


# ---------------------------------------------------------------- istft

def test_round_trip_is_exact():
    rng = np.random.default_rng(3)
    p = default_params()
    for L in (1000, 22050, 66150):
        y = rng.standard_normal(L)
        out = istft(stft(Waveform(y), p))
        assert len(out) == L
        assert np.max(np.abs(out.samples - y)) < 1e-6


def test_round_trip_without_center_padding():
    # the periodic Hann starts at zero, so uncentered analysis cannot
    # recover sample 0; a rectangular window covers every sample
    rng = np.random.default_rng(4)
    p = StftParams(center_padding=False, window=np.ones(1200))
    y = rng.standard_normal(9000)
    out = istft(stft(Waveform(y), p))
    assert np.max(np.abs(out.samples - y)) < 1e-6


def test_uncentered_hann_edge_is_reported_degenerate():
    p = StftParams(center_padding=False)
    C = stft(Waveform(np.ones(9000)), p)
    with pytest.raises(ValueError, match="degenerate"):
        istft(C)


def test_istft_is_linear():
    rng = np.random.default_rng(6)
    p = default_params()
    y = rng.standard_normal(8000)
    C = stft(Waveform(y), p)
    A = C.frames
    B = rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)
    ya = istft(ComplexSpectrogram(A, p, 8000)).samples
    yb = istft(ComplexSpectrogram(B, p, 8000)).samples
    yc = istft(ComplexSpectrogram(1.5 * A + 0.5 * B, p, 8000)).samples
    assert np.max(np.abs(yc - (1.5 * ya + 0.5 * yb))) < 1e-8


def test_istft_honors_target_length():
    rng = np.random.default_rng(7)
    p = default_params()
    y = rng.standard_normal(12000)
    C = stft(Waveform(y), p)
    short = istft(C, target_length=5000)
    assert len(short) == 5000
    assert np.max(np.abs(short.samples - y[:5000])) < 1e-6


def test_istft_rejects_overlong_target():
    p = default_params()
    C = stft(Waveform(np.zeros(3000)), p)
    longest = p.max_length_for_frames(C.n_frames)
    assert len(istft(C, target_length=longest)) == longest
    # past the longest described length: the length error, not a
    # degenerate normalization further on
    reconstructable = (C.n_frames - 1) * p.hop + p.n_fft - p.pad_amount
    for t in (longest + 1, 4500, reconstructable + 1):
        with pytest.raises(ValueError, match="target_length"):
            istft(C, target_length=t)


def test_transform_overflow_raises_one_error_and_no_warning():
    p = default_params()
    huge = ComplexSpectrogram(np.full((17, p.n_bins), 1e307 + 0j), p, p.max_length_for_frames(17))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            stft(Waveform(np.full(4096, 1e308)), p)
        # the overflow reaches only the last chunk's frames
        late = np.zeros(p.max_length_for_frames(3 * ANALYSIS_ROWS))
        late[-p.n_fft:] = 1e308
        with pytest.raises(ValueError, match="spectrogram contains non-finite values"):
            stft_magnitude(Waveform(late), p)
        with pytest.raises(ValueError, match="non-finite"):
            istft(huge)


# ---------------------------------------------------------------- dataclasses

def test_waveform_rejects_bad_input():
    with pytest.raises(ValueError):
        Waveform(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        Waveform(np.array([1.0, np.nan]))
    with pytest.raises(TypeError):     # a waveform carries no sample rate
        Waveform(np.zeros(4), sample_rate=0)


def test_spectrogram_rejects_bad_shapes():
    p = default_params()
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.zeros((3, 7), dtype=complex), p, 100)
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.full((3, p.n_bins), np.inf + 0j), p, 100)
    # an origin_length the frames cannot synthesize to
    for origin_length in (0, p.max_length_for_frames(5) + 1):
        with pytest.raises(ValueError, match="frames"):
            ComplexSpectrogram(np.zeros((5, p.n_bins), dtype=complex), p, origin_length)
    with pytest.raises(ValueError, match="origin_length"):
        ComplexSpectrogram(np.zeros((3, p.n_bins), dtype=complex), p, None)
