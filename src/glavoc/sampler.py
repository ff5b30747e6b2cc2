"""Two-phase corrected sampling: diffusion steps with early phase repair.

The reverse-diffusion chain runs as usual, except that each of the first
few states it produces is pulled toward the target magnitude spectrogram
by a burst of Griffin-Lim projections, :func:`glavoc.phase.gla_correct`.
Late steps run uncorrected; the magnitude target is lifted from the
conditioning mel spectrogram once per utterance, only when a burst or
the shaped prior's envelope reads it, and dropped after its last reader.

The chain lives in one padded signal: :func:`sample` builds one STFT plan
per utterance, draws the prior into its signal, updates it there in place
with the arithmetic of :func:`glavoc.diffusion.reverse_step`, and runs
every burst on that plan through the entry :func:`gla_correct` uses, so
the output is bit for bit that of the loop built from those public
functions.  Besides the target, the chain holds that signal and, during
a step, one more of its length: the prediction, which it subtracts
scaled a chunk at a time and drops, and then the step's noise.  A burst
holds no second signal, and its edges are the engine's to refresh.
With white noise that is the only plan.  The SpecGrad prior is shaped
before the chain starts, by :func:`specgrad_shape_noise`, whose stft
and istft build two more plans and hold the noise's whole complex
spectrogram.
"""

from dataclasses import dataclass, field

import numpy as np

from .diffusion import (
    DEFAULT_CEPSTRAL_ORDER,
    NoisePredictor,
    NoiseSchedule,
    _check_same_length,
    schedule_from_betas,
    specgrad_shape_noise,
    spectral_envelope,
    WG6_BETAS,
)
from .dsp import StftParams, Waveform, _StftPlan, _chunks
from .melscale import MelSpectrogram, pseudo_inverse_magnitude
from .phase import _check_magnitude, _check_rounds, _correct, gla_correct  # noqa: F401  (importable here)

NOISE_MODES = ("white", "specgrad")

# Samples of c * eps_hat a reverse step subtracts at a time, so that no
# second signal-length array exists beside the prediction.
STEP_SAMPLES = 1 << 16


@dataclass(frozen=True)
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
        _check_rounds(self.gla_iterations, self.gla_momentum, "gla_")
        if self.noise_shaping not in NOISE_MODES:
            raise ValueError(f"noise_shaping must be one of {NOISE_MODES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.cepstral_order < 1:
            raise ValueError(f"cepstral_order must be >= 1, got {self.cepstral_order}")


def sample(
    pred: NoisePredictor,
    mel: MelSpectrogram,
    cfg: SamplerConfig,
    target_length: int = None,
) -> Waveform:
    """Generate a waveform for a mel spectrogram.

    The reverse pass visits steps n = N down to 1; the states produced by
    the first correction_steps of them are each repaired against the
    lifted magnitude target before the chain continues.  All randomness
    comes from one generator seeded by the config: prior first, then one
    noise vector per step above 1, so a run is bit-reproducible.
    ``target_length`` (default: the longest signal the mel frame count
    describes) must analyze to exactly the mel's frame count.
    """
    params = cfg.stft_params
    sched = cfg.schedule
    n_mel_frames = mel.n_frames
    target_length = params.synthesis_length(n_mel_frames, target_length)
    params.check_length(n_mel_frames, target_length)
    corrected = cfg.correction_steps
    s_hat = (pseudo_inverse_magnitude(mel)
             if corrected or cfg.noise_shaping == "specgrad" else None)

    rng = np.random.default_rng(cfg.seed)
    plan = _StftPlan(params, target_length, n_mel_frames)
    y = plan.x
    rng.standard_normal(out=y)
    if cfg.noise_shaping == "specgrad":
        env = spectral_envelope(s_hat, cfg.cepstral_order)
        s_hat = s_hat if corrected else None    # no burst reads the target
        y[...] = specgrad_shape_noise(Waveform(y), env, params).samples
        del env
    if corrected:    # gla_correct's target check, once; the config checks its rounds
        s_hat = _check_magnitude(s_hat, params.n_bins, n_mel_frames)

    n_steps = sched.n_steps
    for n in range(n_steps, 0, -1):
        i = n - 1
        y_n = Waveform(y)
        eps_hat = pred.predict(y_n, mel, float(np.sqrt(sched.alpha_bars[i])))
        _check_same_length(y_n, eps_hat, "reverse_step")
        # reverse_step's operations on each sample in its order, in place
        c = (1.0 - sched.alphas[i]) / np.sqrt(1.0 - sched.alpha_bars[i])
        for r in _chunks(slice(0, target_length), STEP_SAMPLES):
            y[r] -= c * eps_hat.samples[r]
        del eps_hat
        y /= np.sqrt(sched.alphas[i])
        if n > 1:
            z = rng.standard_normal(target_length)
            z *= sched.sigmas[i]
            y += z
            del z
        if n_steps - n < corrected:
            target = s_hat
            if cfg.magnitude_rescale:
                target = s_hat * np.sqrt(sched.alpha_bar_prev(n))
            _correct(plan, target, cfg.gla_iterations, cfg.gla_momentum)
            del target
            if n_steps - n + 1 == corrected:    # no later step reads the target
                s_hat = None
    return Waveform(y)
