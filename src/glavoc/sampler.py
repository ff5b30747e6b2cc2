"""Two-phase corrected sampling: diffusion steps with early phase repair.

The reverse-diffusion chain runs as usual, except that each of the first
few states it produces is pulled toward the target magnitude spectrogram
by a burst of Griffin-Lim projections, :func:`glavoc.phase.gla_correct`.
Late steps run uncorrected; the magnitude target is lifted from the
conditioning mel spectrogram once per utterance.
"""

from dataclasses import dataclass, field

import numpy as np

from .diffusion import (
    DEFAULT_CEPSTRAL_ORDER,
    NoisePredictor,
    NoiseSchedule,
    reverse_step,
    schedule_from_betas,
    specgrad_shape_noise,
    spectral_envelope,
    WG6_BETAS,
)
from .dsp import StftParams, Waveform
from .melscale import MelSpectrogram, pseudo_inverse_magnitude
from .phase import gla_correct

NOISE_MODES = ("white", "specgrad")


@dataclass
class SamplerConfig:
    """Everything a sampling run needs besides the predictor and mel input.

    correction_steps says how many of the earliest reverse steps get the
    Griffin-Lim treatment; gla_iterations is the projection budget per
    corrected step.  gla_momentum > 0 accelerates those projections (off
    by default: the correction is defined through the plain composition).
    magnitude_rescale shrinks the magnitude target by sqrt(alpha_bar) of
    the step being produced, for experiments at high noise levels.
    """

    schedule: NoiseSchedule = field(default_factory=lambda: schedule_from_betas(WG6_BETAS))
    correction_steps: int = 3
    gla_iterations: int = 32
    noise_shaping: str = "white"
    seed: int = 0
    stft_params: StftParams = field(default_factory=StftParams)
    gla_momentum: float = 0.0
    magnitude_rescale: bool = False
    cepstral_order: int = DEFAULT_CEPSTRAL_ORDER

    def __post_init__(self):
        if self.correction_steps < 0:
            raise ValueError("correction_steps must be >= 0")
        if self.correction_steps > self.schedule.n_steps:
            raise ValueError(
                f"correction_steps {self.correction_steps} exceeds the "
                f"{self.schedule.n_steps}-step schedule"
            )
        if self.gla_iterations < 0:
            raise ValueError("gla_iterations must be >= 0")
        if self.noise_shaping not in NOISE_MODES:
            raise ValueError(f"noise_shaping must be one of {NOISE_MODES}")
        if not (0.0 <= self.gla_momentum < 1.0):
            raise ValueError("gla_momentum must lie in [0, 1)")


def sample(
    pred: NoisePredictor,
    mel: MelSpectrogram,
    cfg: SamplerConfig,
    target_length: int = None,
    initial_state: Waveform = None,
    inject_noise: bool = True,
) -> Waveform:
    """Generate a waveform for a mel spectrogram.

    The reverse pass visits steps n = N down to 1; the states produced by
    the first correction_steps of them are each repaired against the
    lifted magnitude target before the chain continues.  All randomness
    comes from one generator seeded by the config: prior first, then one
    noise vector per step above 1, so a run is bit-reproducible.

    ``initial_state`` replaces the prior draw and ``inject_noise=False``
    zeroes the per-step noise; both exist for diagnostics (e.g. driving
    the chain from a known noised signal) and leave the default behavior
    untouched.
    """
    params = cfg.stft_params
    sched = cfg.schedule
    n_mel_frames = mel.n_frames
    params.check_frame_count(n_mel_frames)
    if target_length is None:
        target_length = params.max_length_for_frames(n_mel_frames)
    if params.frames_for_length(target_length) != n_mel_frames:
        raise ValueError(
            f"target_length {target_length} analyzes to "
            f"{params.frames_for_length(target_length)} frames but the mel "
            f"input has {n_mel_frames}"
        )
    sample_rate = int(mel.filterbank.sample_rate)
    s_hat = pseudo_inverse_magnitude(mel)

    rng = np.random.default_rng(cfg.seed)
    if initial_state is not None:
        if len(initial_state) != target_length:
            raise ValueError("initial_state length must equal target_length")
        y = Waveform(initial_state.samples.copy(), sample_rate)
    else:
        prior = Waveform(rng.standard_normal(target_length), sample_rate)
        if cfg.noise_shaping == "specgrad":
            envelope = spectral_envelope(s_hat, cfg.cepstral_order)
            prior = specgrad_shape_noise(prior, envelope, params)
        y = prior

    n_steps = sched.n_steps
    for n in range(n_steps, 0, -1):
        eps_hat = pred.predict(y, mel, float(np.sqrt(sched.alpha_bars[n - 1])))
        z = None
        if n > 1:
            z_samples = rng.standard_normal(target_length)
            if not inject_noise:
                z_samples = np.zeros(target_length)
            z = Waveform(z_samples, sample_rate)
        y = reverse_step(y, eps_hat, n, sched, z)
        if n_steps - n < cfg.correction_steps:
            target = s_hat
            if cfg.magnitude_rescale:
                target = s_hat * np.sqrt(sched.alpha_bar_prev(n))
            y = gla_correct(y, target, cfg.gla_iterations, params, cfg.gla_momentum)
    return y
