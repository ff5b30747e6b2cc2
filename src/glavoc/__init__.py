"""Griffin-Lim corrected diffusion vocoding toolkit.

Spectral analysis/synthesis, mel compression with pseudo-inverse lifting,
Griffin-Lim phase retrieval, reverse-diffusion sampling with early-step
magnitude correction, objective metrics, and mono WAV I/O.
"""

from .audio_io import WavSpec, read_wav, write_wav
from .config import RunConfig, load_config
from .diffusion import (
    NoisePredictor,
    NoiseSchedule,
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
from .dsp import (
    ComplexSpectrogram,
    StftParams,
    Waveform,
    hann_window,
    istft,
    spectrogram_from_magnitude,
    stft,
)
from .melscale import (
    MelFilterbank,
    MelSpectrogram,
    mel_filterbank,
    mel_spectrogram,
    pseudo_inverse_magnitude,
    read_mels,
    write_mels,
)
from .metrics import (
    EvalReport,
    consistency_error,
    log_spectral_distance,
    snr,
    spectral_convergence,
)
from .phase import GlaConfig, fgla, gla, gla_correct, project_consistent, project_magnitude
from .sampler import SamplerConfig, sample

__version__ = "0.1.0"
