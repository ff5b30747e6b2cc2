"""Corrected-sampler behavior: projection repair, phase ordering, equivalences."""

import warnings

import numpy as np
import pytest

from signals import harmonic_signal

import glavoc.dsp as dsp
import glavoc.sampler as sampler_mod
from glavoc.diffusion import (
    OraclePredictor,
    ZeroPredictor,
    reverse_step,
    schedule_from_betas,
    specgrad_shape_noise,
    spectral_envelope,
)
from glavoc.dsp import StftParams, Waveform, stft
from glavoc.melscale import (
    MelSpectrogram,
    mel_filterbank,
    mel_spectrogram,
    pseudo_inverse_magnitude,
)
from glavoc.sampler import SamplerConfig, gla_correct, sample

P = StftParams()
FB = mel_filterbank(22050, 2048, 128, 20.0, 11025.0)
WG6 = schedule_from_betas((7e-6, 1.4e-4, 2.1e-3, 2.8e-2, 3.5e-1, 7e-1))

REF = Waveform(harmonic_signal(140.0, n=22050, seed=100))
MEL = mel_spectrogram(stft(REF, P).magnitude(), FB)
S_HAT = pseudo_inverse_magnitude(MEL)
L = 22050


def log_distance(a, b, floor=1e-5):
    d = 20.0 * np.log10((a + floor) / (b + floor))
    return float(np.sqrt(np.mean(d * d)))


# ------------------------------------------------------------------ correction

def test_correction_zero_iterations_is_round_trip():
    rng = np.random.default_rng(1)
    y = Waveform(rng.standard_normal(L))
    out = gla_correct(y, S_HAT, 0, P)
    assert np.max(np.abs(out.samples - y.samples)) < 1e-9


def test_correction_fixed_point():
    out = gla_correct(REF, stft(REF, P).magnitude(), 8, P)
    assert np.max(np.abs(out.samples - REF.samples)) < 1e-7


def test_correction_reduces_magnitude_mismatch():
    rng = np.random.default_rng(2)
    y = Waveform(rng.standard_normal(L))
    before = np.linalg.norm(stft(y, P).magnitude() - S_HAT)
    out = gla_correct(y, S_HAT, 32, P)
    after = np.linalg.norm(stft(out, P).magnitude() - S_HAT)
    assert after < before


def test_correction_shape_mismatch():
    y = Waveform(np.zeros(L))
    with pytest.raises(ValueError):
        gla_correct(y, S_HAT[:-1], 4, P)


def test_correction_is_homogeneous_in_target():
    # scaling the magnitude target scales the corrected signal: the first
    # projection discards input magnitudes and everything after is linear
    rng = np.random.default_rng(3)
    y = Waveform(rng.standard_normal(L))
    base = gla_correct(y, S_HAT, 6, P)
    scaled = gla_correct(y, 0.5 * S_HAT, 6, P)
    assert np.max(np.abs(scaled.samples - 0.5 * base.samples)) < 1e-9


def test_correction_overflowing_target_raises(monkeypatch):
    # only the ValueError, no RuntimeWarning first, on one row block and on
    # two; the same one whether the first synthesis overflows (K = 1) or a
    # later analysis
    y = Waveform(np.random.default_rng(5).standard_normal(L))
    assert S_HAT.shape[0] >= 2 * dsp.MIN_BLOCK_SAMPLES // P.n_fft
    for cores in (1, 2):
        monkeypatch.setattr(dsp, "_cores", lambda: cores)
        assert len(dsp._row_blocks(dsp._StftPlan(P, L, S_HAT.shape[0]))) == cores
        for momentum in (0.0, 0.9):
            for K in (1, 2, 3, 4):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError,
                                       match="^spectrogram contains non-finite values$"):
                        gla_correct(y, np.full(S_HAT.shape, 1e306), K, P, momentum)


def test_sampler_raises_an_overflowing_correction():
    # the burst raises, before the chain's next in-place step reads its signal
    huge_mel = MelSpectrogram(MEL.frames * (1e308 / S_HAT.max()), FB)    # a finite target
    for K in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^spectrogram contains non-finite values$"):
                sample(ZeroPredictor(), huge_mel, SamplerConfig(gla_iterations=K), target_length=L)


def test_correction_momentum_variant_runs():
    rng = np.random.default_rng(4)
    y = Waveform(rng.standard_normal(L))
    plain = gla_correct(y, S_HAT, 8, P, momentum=0.0)
    fast = gla_correct(y, S_HAT, 8, P, momentum=0.9)
    assert np.all(np.isfinite(fast.samples))
    assert not np.array_equal(plain.samples, fast.samples)


# --------------------------------------------------------------------- sampler

def test_uncorrected_sampler_is_plain_reverse_loop():
    cfg = SamplerConfig(correction_steps=0, seed=9)
    pred = OraclePredictor(REF)
    got = sample(pred, MEL, cfg, target_length=L)

    rng = np.random.default_rng(9)
    y = Waveform(rng.standard_normal(L))
    for n in range(6, 0, -1):
        eps_hat = pred.predict(y, MEL, float(np.sqrt(WG6.alpha_bars[n - 1])))
        z = Waveform(rng.standard_normal(L)) if n > 1 else None
        y = reverse_step(y, eps_hat, n, WG6, z)
    assert np.array_equal(got.samples, y.samples)


def public_loop(pred, mel, cfg, length):
    """sample() as the loop of the public steps: predict, reverse_step, gla_correct."""
    p, sched = cfg.stft_params, cfg.schedule
    s_hat = pseudo_inverse_magnitude(mel)
    rng = np.random.default_rng(cfg.seed)
    y = Waveform(rng.standard_normal(length))
    if cfg.noise_shaping == "specgrad":
        y = specgrad_shape_noise(y, spectral_envelope(s_hat, cfg.cepstral_order), p)
    n_steps = sched.n_steps
    for n in range(n_steps, 0, -1):
        eps_hat = pred.predict(y, mel, float(np.sqrt(sched.alpha_bars[n - 1])))
        z = Waveform(rng.standard_normal(length)) if n > 1 else None
        y = reverse_step(y, eps_hat, n, sched, z)
        if n_steps - n < cfg.correction_steps:
            target = s_hat * np.sqrt(sched.alpha_bar_prev(n)) if cfg.magnitude_rescale else s_hat
            y = gla_correct(y, target, cfg.gla_iterations, p, cfg.gla_momentum)
    return y


@pytest.mark.parametrize("noise", ("white", "specgrad"))
@pytest.mark.parametrize("predictor", ("oracle", "zero"))
def test_corrected_sampler_is_the_public_loop(predictor, noise):
    # sample() runs the chain in place in one padded signal; its bits are
    # the public loop's, the target's lift and the bursts' plan included.
    # At the longest length the mel describes, the oracle reads past the
    # end of its reference
    n = 8000
    mel = mel_spectrogram(stft(Waveform(REF.samples[:n]), P).magnitude(), FB)
    pred = OraclePredictor(Waveform(REF.samples[:n])) if predictor == "oracle" else ZeroPredictor()
    for length in (n, P.max_length_for_frames(mel.n_frames)):
        for momentum in (0.0, 0.99):
            for K in (0, 1, 32):
                for rescale in (False, True):
                    cfg = SamplerConfig(gla_iterations=K, gla_momentum=momentum,
                                        noise_shaping=noise, magnitude_rescale=rescale, seed=12)
                    got = sample(pred, mel, cfg, target_length=length)
                    want = public_loop(pred, mel, cfg, length)
                    assert np.array_equal(got.samples, want.samples), (length, momentum, K, rescale)


def test_correction_rescues_a_blind_predictor():
    # a predictor with no knowledge of the signal leaves the uncorrected
    # chain emitting rescaled noise; the corrected run must land far
    # closer to the target magnitudes
    pred = ZeroPredictor()
    plain = sample(pred, MEL, SamplerConfig(correction_steps=0, seed=5), target_length=L)
    fixed = sample(pred, MEL, SamplerConfig(correction_steps=3, gla_iterations=32, seed=5),
                   target_length=L)
    lsd_plain = log_distance(stft(plain, P).magnitude(), S_HAT)
    lsd_fixed = log_distance(stft(fixed, P).magnitude(), S_HAT)
    assert lsd_fixed < lsd_plain - 3.0       # not a tie: several dB better


def test_sampler_determinism_and_seed_sensitivity():
    cfg = SamplerConfig(seed=77)
    a = sample(ZeroPredictor(), MEL, cfg, target_length=L)
    b = sample(ZeroPredictor(), MEL, cfg, target_length=L)
    assert np.array_equal(a.samples, b.samples)
    c = sample(ZeroPredictor(), MEL, SamplerConfig(seed=78), target_length=L)
    assert not np.array_equal(a.samples, c.samples)


def test_sampler_output_length():
    out = sample(ZeroPredictor(), MEL, SamplerConfig(seed=1), target_length=L)
    assert len(out) == L
    default_len = sample(ZeroPredictor(), MEL, SamplerConfig(seed=1))
    assert len(default_len) == P.max_length_for_frames(MEL.n_frames)


def test_sampler_rejects_inconsistent_length():
    with pytest.raises(ValueError, match="frames"):
        sample(ZeroPredictor(), MEL, SamplerConfig(), target_length=L + 5000)


def test_sampler_rejects_mels_no_signal_produces():
    for n_frames in (1, 2, 3):
        mel = MelSpectrogram(MEL.frames[:n_frames], FB)
        for target_length in (None, 1):
            with pytest.raises(ValueError, match="fewer than 4 frames"):
                sample(ZeroPredictor(), mel, SamplerConfig(), target_length=target_length)


def test_corrections_hit_only_the_earliest_steps(monkeypatch):
    events = []
    real_correct = sampler_mod._correct

    def spy_correct(plan, s, iterations, momentum):
        events.append("corr")
        return real_correct(plan, s, iterations, momentum)

    class SpyPredictor(OraclePredictor):
        def predict(self, y_n, mel, sab):
            step = int(np.argmin(np.abs(np.sqrt(WG6.alpha_bars) - sab))) + 1
            events.append(("pred", step))
            return super().predict(y_n, mel, sab)

    monkeypatch.setattr(sampler_mod, "_correct", spy_correct)
    cfg = SamplerConfig(correction_steps=3, gla_iterations=2, seed=3)
    sample(SpyPredictor(REF), MEL, cfg, target_length=L)
    assert events == [
        ("pred", 6), "corr",
        ("pred", 5), "corr",
        ("pred", 4), "corr",
        ("pred", 3), ("pred", 2), ("pred", 1),
    ]


def test_shaped_prior_changes_the_run():
    white = sample(ZeroPredictor(), MEL, SamplerConfig(correction_steps=0, seed=11),
                   target_length=L)
    shaped = sample(ZeroPredictor(), MEL,
                    SamplerConfig(correction_steps=0, seed=11, noise_shaping="specgrad"),
                    target_length=L)
    assert not np.array_equal(white.samples, shaped.samples)
    assert np.all(np.isfinite(shaped.samples))
    again = sample(ZeroPredictor(), MEL,
                   SamplerConfig(correction_steps=0, seed=11, noise_shaping="specgrad"),
                   target_length=L)
    assert np.array_equal(shaped.samples, again.samples)


def test_magnitude_rescale_flag_changes_output():
    base = sample(ZeroPredictor(), MEL, SamplerConfig(correction_steps=1, seed=6),
                  target_length=L)
    rescaled = sample(ZeroPredictor(), MEL,
                      SamplerConfig(correction_steps=1, seed=6, magnitude_rescale=True),
                      target_length=L)
    assert not np.array_equal(base.samples, rescaled.samples)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(correction_steps=7)        # more than the schedule has
    with pytest.raises(ValueError):
        SamplerConfig(correction_steps=-1)
    with pytest.raises(ValueError, match="gla_iterations must be >= 0, got -2"):
        SamplerConfig(gla_iterations=-2)
    with pytest.raises(ValueError):
        SamplerConfig(noise_shaping="pink")
    with pytest.raises(ValueError, match=r"gla_momentum must lie in \[0, 1\), got 1.0"):
        SamplerConfig(gla_momentum=1.0)
