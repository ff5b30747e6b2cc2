"""Schedule arithmetic, reverse-step algebra, loss, and noise shaping."""

import re
import warnings

import numpy as np
import pytest

from signals import harmonic_signal

from glavoc import dsp
from glavoc.diffusion import (
    ENVELOPE_FLOOR_RATIO,
    NoisePredictor,
    OraclePredictor,
    ZeroPredictor,
    forward_diffuse,
    named_schedule,
    oracle_epsilon,
    reverse_step,
    schedule_from_betas,
    specgrad_shape_noise,
    spectral_envelope,
    wavegrad_loss,
)
from glavoc.dsp import StftParams, Waveform, stft
from glavoc.melscale import mel_filterbank, mel_spectrogram, pseudo_inverse_magnitude

WG6 = schedule_from_betas((7e-6, 1.4e-4, 2.1e-3, 2.8e-2, 3.5e-1, 7e-1))

# cumulative products and posterior deviations worked out once in a
# separate session and frozen; the coarse values match the published
# 6-step schedule
FROZEN_ALPHA_BARS = [
    0.999993, 0.99985300098, 0.997753309677942,
    0.9698162170069595, 0.6303805410545237, 0.18911416231635714,
]
FROZEN_SIGMAS = [
    0.0, 0.0025819975041401397, 0.011721825715108736,
    0.04565241830925226, 0.16906100393085086, 0.5648674840333842,
]


# ------------------------------------------------------------------ schedules

def test_wg6_derived_vectors():
    assert WG6.n_steps == 6
    assert np.max(np.abs(WG6.alphas - (1.0 - WG6.betas))) == 0.0
    assert np.allclose(WG6.alpha_bars, FROZEN_ALPHA_BARS, rtol=0, atol=1e-15)
    assert np.allclose(WG6.sigmas, FROZEN_SIGMAS, rtol=0, atol=1e-15)
    # rounded reference values
    coarse = [0.999993, 0.999853, 0.997754, 0.969817, 0.630381, 0.189114]
    assert np.allclose(WG6.alpha_bars, coarse, atol=1e-6)


def test_single_step_schedule():
    s = schedule_from_betas([0.5])
    assert s.alphas[0] == 0.5
    assert s.alpha_bars[0] == 0.5
    assert s.sigmas[0] == 0.0          # alpha_bar_0 = 1 kills the first sigma
    assert s.alpha_bar_prev(1) == 1.0


def test_last_sigma_matches_formula():
    expected = np.sqrt((1.0 - WG6.alpha_bars[4]) / (1.0 - WG6.alpha_bars[5]) * 0.7)
    assert abs(WG6.sigmas[5] - expected) < 1e-15


def test_alpha_bars_strictly_decreasing():
    assert np.all(np.diff(WG6.alpha_bars) < 0.0)
    assert np.all(np.diff(named_schedule("wg50").alpha_bars) < 0.0)


def test_unrooted_sigma_variant():
    plain = schedule_from_betas(WG6.betas, rooted_sigma=False)
    assert np.max(np.abs(plain.sigmas - WG6.sigmas ** 2)) < 1e-15


def test_beta_range_enforced():
    for bad in ([0.0], [1.0], [-0.1], [0.5, 1.5], []):
        with pytest.raises(ValueError):
            schedule_from_betas(bad)


def test_named_and_file_schedules(tmp_path):
    wg50 = named_schedule("wg50")
    assert wg50.n_steps == 50
    assert abs(wg50.betas[0] - 1e-4) < 1e-15
    assert abs(wg50.betas[-1] - 0.05) < 1e-15

    path = tmp_path / "custom.betas"
    path.write_text("# comment\n7e-6\n1.4e-4\n\n2.1e-3\n2.8e-2\n3.5e-1\n7e-1\n")
    custom = named_schedule(str(path))
    assert np.array_equal(custom.betas, WG6.betas)

    with pytest.raises(ValueError, match="unknown schedule"):
        named_schedule("wg7")
    empty = tmp_path / "empty.betas"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no beta"):
        named_schedule(str(empty))


def test_schedule_file_names_its_bad_line(tmp_path):
    bad = tmp_path / "bad.betas"
    bad.write_text("0.1\nabc\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: line 2: bad beta 'abc'")):
        named_schedule(str(bad))


# ------------------------------------------------------------------- forward

def test_forward_diffuse_endpoints():
    rng = np.random.default_rng(1)
    y0 = Waveform(rng.standard_normal(100))
    eps = Waveform(rng.standard_normal(100))
    assert np.array_equal(forward_diffuse(y0, 1.0, eps).samples, y0.samples)
    assert np.array_equal(forward_diffuse(y0, 0.0, eps).samples, eps.samples)


def test_forward_diffuse_small_oracle():
    y0 = Waveform(np.array([1.0, 0.0]))
    eps = Waveform(np.array([0.0, 2.0]))
    out = forward_diffuse(y0, 0.25, eps)
    assert np.allclose(out.samples, [0.5, np.sqrt(0.75) * 2.0], atol=1e-15)


def test_forward_diffuse_validates():
    with pytest.raises(ValueError):
        forward_diffuse(Waveform(np.zeros(3)), 0.5, Waveform(np.zeros(4)))
    with pytest.raises(ValueError):
        forward_diffuse(Waveform(np.zeros(3)), 1.5, Waveform(np.zeros(3)))


def test_forward_diffuse_energy():
    # E||y_n||^2 = abar ||y0||^2 + (1 - abar) L for unit-variance noise
    rng = np.random.default_rng(2)
    L = 100000
    abar = 0.3
    y0 = Waveform(0.5 * np.sin(np.arange(L) / 50.0))
    eps = Waveform(rng.standard_normal(L))
    got = np.sum(forward_diffuse(y0, abar, eps).samples ** 2)
    e0 = np.sum(y0.samples ** 2)
    expected = abar * e0 + (1.0 - abar) * L
    sd = np.sqrt((1.0 - abar) ** 2 * 2.0 * L + 4.0 * abar * (1.0 - abar) * e0)
    assert abs(got - expected) < 3.0 * sd


# -------------------------------------------------------------------- oracle

def test_oracle_epsilon_inverts_forward():
    rng = np.random.default_rng(3)
    y0 = Waveform(rng.standard_normal(500))
    eps = Waveform(rng.standard_normal(500))
    for abar in (0.01, 0.5, 0.99):
        y_n = forward_diffuse(y0, abar, eps)
        back = oracle_epsilon(y_n, y0, abar)
        assert np.max(np.abs(back.samples - eps.samples)) < 1e-12


def test_oracle_epsilon_special_cases():
    y0 = Waveform(np.array([1.0, -2.0, 3.0]))
    scaled = Waveform(np.sqrt(0.4) * y0.samples)
    assert np.max(np.abs(oracle_epsilon(scaled, y0, 0.4).samples)) < 1e-15
    y_n = Waveform(np.array([0.3, 0.6, -0.9]))
    zero = Waveform(np.zeros(3))
    expect = y_n.samples / np.sqrt(0.36)
    assert np.allclose(oracle_epsilon(y_n, zero, 0.64).samples, expect, atol=1e-15)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            oracle_epsilon(y_n, y0, bad)


# -------------------------------------------------------------- reverse step

def test_reverse_final_step_recovers_clean_signal():
    # with the exact noise estimate the n=1 update maps ANY y_1 to y_0:
    # the residual coefficient sqrt(alpha_1)(1 - abar_0)/sqrt(1 - abar_1)
    # vanishes because abar_0 = 1
    rng = np.random.default_rng(4)
    y0 = Waveform(rng.standard_normal(300))
    y1 = Waveform(10.0 * rng.standard_normal(300))
    eps_hat = oracle_epsilon(y1, y0, WG6.alpha_bars[0])
    out = reverse_step(y1, eps_hat, 1, WG6)
    assert np.max(np.abs(out.samples - y0.samples)) < 1e-10


def test_reverse_step_oracle_algebra():
    rng = np.random.default_rng(5)
    y0 = Waveform(rng.standard_normal(400))
    eps = Waveform(rng.standard_normal(400))
    for n in range(1, 7):
        abar = WG6.alpha_bars[n - 1]
        y_n = forward_diffuse(y0, abar, eps)
        out = reverse_step(y_n, oracle_epsilon(y_n, y0, abar), n, WG6)
        prev = WG6.alpha_bar_prev(n)
        coeff = np.sqrt(WG6.alphas[n - 1]) * (1.0 - prev) / np.sqrt(1.0 - abar)
        expect = np.sqrt(prev) * y0.samples + coeff * eps.samples
        assert np.max(np.abs(out.samples - expect)) < 1e-10


def test_reverse_step_zero_estimate():
    y = Waveform(np.array([1.0, -1.0, 2.0]))
    zero = Waveform(np.zeros(3))
    out = reverse_step(y, zero, 4, WG6, zero)
    assert np.allclose(out.samples, y.samples / np.sqrt(WG6.alphas[3]), atol=1e-15)


def test_reverse_step_noise_term():
    rng = np.random.default_rng(6)
    y = Waveform(rng.standard_normal(50))
    eps_hat = Waveform(rng.standard_normal(50))
    z = Waveform(rng.standard_normal(50))
    with_noise = reverse_step(y, eps_hat, 5, WG6, z)
    without = reverse_step(y, eps_hat, 5, WG6)
    assert np.allclose(
        with_noise.samples - without.samples, WG6.sigmas[4] * z.samples, atol=1e-15
    )


def test_reverse_step_guards():
    y = Waveform(np.zeros(10))
    z = Waveform(np.ones(10))
    with pytest.raises(ValueError):
        reverse_step(y, y, 0, WG6)
    with pytest.raises(ValueError):
        reverse_step(y, y, 7, WG6)
    with pytest.raises(ValueError, match="z = 0"):
        reverse_step(y, y, 1, WG6, z)


def test_oracle_chain_recovers_signal():
    # full reverse pass with exact noise estimates and no injected noise
    rng = np.random.default_rng(7)
    y0 = Waveform(harmonic_signal(130.0, n=4000, seed=7))
    eps = Waveform(rng.standard_normal(4000))
    y = forward_diffuse(y0, WG6.alpha_bars[-1], eps)
    for n in range(6, 0, -1):
        eps_hat = oracle_epsilon(y, y0, WG6.alpha_bars[n - 1])
        y = reverse_step(y, eps_hat, n, WG6)
    rel = np.linalg.norm(y.samples - y0.samples) / np.linalg.norm(y0.samples)
    assert rel < 1e-8


# ---------------------------------------------------------------------- loss

def test_loss_oracle_is_zero():
    rng = np.random.default_rng(8)
    y0 = Waveform(rng.standard_normal(2000))
    eps = Waveform(rng.standard_normal(2000))
    loss = wavegrad_loss(OraclePredictor(y0), y0, None, 0.6, eps)
    assert loss < 1e-12


def test_loss_zero_predictor_expectation():
    # mean |N(0,1)| = sqrt(2/pi)
    rng = np.random.default_rng(9)
    n = 100000
    y0 = Waveform(np.zeros(n))
    eps = Waveform(rng.standard_normal(n))
    loss = wavegrad_loss(ZeroPredictor(), y0, None, 0.5, eps)
    assert abs(loss - 0.7978845608028654) < 0.02


def test_loss_constant_offset():
    class Offset(NoisePredictor):
        def __init__(self, inner, c):
            self.inner, self.c = inner, c

        def predict(self, y_n, mel, sab):
            base = self.inner.predict(y_n, mel, sab)
            return Waveform(base.samples + self.c)

    rng = np.random.default_rng(10)
    y0 = Waveform(rng.standard_normal(1000))
    eps = Waveform(rng.standard_normal(1000))
    loss = wavegrad_loss(Offset(OraclePredictor(y0), 0.37), y0, None, 0.6, eps)
    assert abs(loss - 0.37) < 1e-10


def test_oracle_predictor_length_adaptation():
    y0 = Waveform(np.ones(100))
    pred = OraclePredictor(y0)
    long_query = Waveform(np.zeros(150))
    out = pred.predict(long_query, None, np.sqrt(0.5))
    assert len(out) == 150
    # beyond the reference the clean signal is taken as silence
    assert np.allclose(out.samples[100:], 0.0, atol=1e-15)
    short = pred.predict(Waveform(np.zeros(40)), None, np.sqrt(0.5))
    assert len(short) == 40



@pytest.mark.parametrize("sqrt_alpha_bar", [-0.5, np.nan, 0.0, 1.0])
def test_oracle_predictor_refuses_a_noise_level_outside_the_open_interval(sqrt_alpha_bar):
    pred = OraclePredictor(Waveform(np.ones(100)))
    with pytest.raises(ValueError, match=re.escape("sqrt_alpha_bar strictly in (0, 1)")):
        pred.predict(Waveform(np.zeros(100)), None, sqrt_alpha_bar)


# ------------------------------------------------------------------ envelope

def test_envelope_flat_frame():
    s = np.full((3, 1025), 0.7)
    env = spectral_envelope(s, 24)
    assert np.max(np.abs(env - 0.7)) < 1e-4      # floor shifts log by ~1e-5


def test_envelope_scales_linearly():
    rng = np.random.default_rng(11)
    s = rng.random((5, 1025)) + 0.1
    a = spectral_envelope(s, 24)
    b = spectral_envelope(2.0 * s, 24)
    assert np.max(np.abs(b - 2.0 * a)) < 1e-9 * np.max(b)


def test_envelope_is_smooth():
    # liftering leaves nothing above the cutoff quefrency
    y = Waveform(harmonic_signal(110.0, n=22050, seed=12))
    s = stft(y, StftParams()).magnitude()
    env = spectral_envelope(s, 24)
    assert np.all(env > 0.0)
    ceps = np.fft.irfft(np.log(env), n=2048, axis=1)
    tail = ceps[:, 24:2048 - 24 + 1]
    assert np.max(np.abs(tail)) < 1e-10 * np.max(np.abs(ceps))


def test_envelope_silent_input():
    env = spectral_envelope(np.zeros((4, 1025)), 24)
    assert np.array_equal(env, np.ones((4, 1025)))


@pytest.mark.parametrize("bad", [-0.5, np.inf])
def test_envelope_refuses_what_no_magnitude_holds(bad):
    # the rule of every Griffin-Lim entry, not a NaN envelope and a numpy warning
    s = np.ones((4, 1025))
    s[2, 7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^magnitude must be finite and nonnegative$"):
            spectral_envelope(s, 24)


def whole_envelope(s, order):
    # spectral_envelope's formula over the whole array at once
    peak = s.max()
    if peak <= 0.0:
        return np.ones_like(s)
    n_fft = 2 * (s.shape[1] - 1)
    ceps = np.fft.irfft(np.log(s + ENVELOPE_FLOOR_RATIO * peak), n=n_fft, axis=1)
    ceps[:, order:n_fft - order + 1] = 0.0
    return np.exp(np.fft.rfft(ceps, n=n_fft, axis=1).real)


@pytest.mark.parametrize("chunk_rows", [1, 3, 64])
def test_envelope_in_row_chunks_is_the_whole_array_formula(monkeypatch, chunk_rows):
    monkeypatch.setattr(dsp, "CHUNK_ROWS", chunk_rows)
    y = Waveform(harmonic_signal(110.0, n=44100, seed=14))
    small = StftParams(512, 96, 400)
    fb = mel_filterbank(22050, 512, 40, 20.0, 8000.0)
    cases = [
        (stft(y, StftParams()).magnitude(), 24),                         # 151 frames
        (pseudo_inverse_magnitude(mel_spectrogram(stft(y, small).magnitude(), fb)), 12),
        (np.zeros((7, 257)), 24),                                        # silent
    ]
    for s, order in cases:
        assert np.array_equal(spectral_envelope(s, order), whole_envelope(s, order))


# ------------------------------------------------------------- noise shaping

def test_shaping_identity_envelope():
    rng = np.random.default_rng(13)
    p = StftParams()
    eps = Waveform(rng.standard_normal(12000))
    T = p.frames_for_length(12000)
    out = specgrad_shape_noise(eps, np.ones((T, p.n_bins)), p)
    assert np.max(np.abs(out.samples - eps.samples)) < 1e-9


def test_shaping_constant_gain():
    rng = np.random.default_rng(14)
    p = StftParams()
    eps = Waveform(rng.standard_normal(9000))
    T = p.frames_for_length(9000)
    out = specgrad_shape_noise(eps, np.full((T, p.n_bins), 2.0), p)
    assert np.max(np.abs(out.samples - 2.0 * eps.samples)) < 1e-9


def test_shaping_is_linear():
    rng = np.random.default_rng(15)
    p = StftParams()
    a = Waveform(rng.standard_normal(8000))
    b = Waveform(rng.standard_normal(8000))
    T = p.frames_for_length(8000)
    env = rng.random((T, p.n_bins)) + 0.5
    sa = specgrad_shape_noise(a, env, p).samples
    sb = specgrad_shape_noise(b, env, p).samples
    sc = specgrad_shape_noise(Waveform(2.0 * a.samples - b.samples), env, p).samples
    assert np.max(np.abs(sc - (2.0 * sa - sb))) < 1e-9


def test_shaping_lowpass_suppresses_high_band():
    rng = np.random.default_rng(16)
    p = StftParams()
    sr = 22050
    n = 44100
    eps = Waveform(rng.standard_normal(n))
    T = p.frames_for_length(n)
    bin_freqs = np.arange(p.n_bins) * sr / p.n_fft
    env = np.where(bin_freqs < 4000.0, 1.0, 0.01)
    shaped = specgrad_shape_noise(eps, np.tile(env, (T, 1)), p)

    def band_ratio(x):
        spec = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(len(x), 1.0 / sr)
        return np.sum(spec[freqs >= 4000.0]) / np.sum(spec[freqs < 4000.0])

    assert band_ratio(shaped.samples) < 1e-2 * band_ratio(eps.samples)


def test_shaping_rejects_bad_envelope():
    p = StftParams()
    eps = Waveform(np.zeros(5000))
    T = p.frames_for_length(5000)
    with pytest.raises(ValueError):
        specgrad_shape_noise(eps, np.zeros((T, p.n_bins)), p)
    with pytest.raises(ValueError):
        specgrad_shape_noise(eps, np.ones((T + 1, p.n_bins)), p)
