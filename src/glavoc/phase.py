"""Griffin-Lim phase retrieval.

Alternating projections between two sets of spectrograms: the consistent
ones (images of actual signals under analysis) and the ones with a
prescribed magnitude.  Plain Griffin-Lim composes the two projections;
the fast variant adds momentum on top.  Both run standalone as a vocoder
and inside the corrected sampler's early steps.

Every burst of rounds, from :func:`gla`, :func:`fgla` and the sampler's
correction :func:`gla_correct`, runs in the synthesis engine,
:func:`glavoc.dsp._project_rounds`, from the starting iterate (or the
first analysis) to a signal, which :func:`gla` analyzes with :func:`stft`.
:func:`initial_spectrogram` draws its phases without a plan or engine.
Inputs are validated at the public entry points, never per round.  The
:class:`Waveform` and :class:`ComplexSpectrogram` of :func:`gla` check
its signal and frames for overflow; for :func:`fgla` and
:func:`gla_correct`, whose last iterate no such type holds, the engine
checks it before synthesis.
"""

from dataclasses import dataclass

import numpy as np

from . import dsp
from .dsp import (
    ComplexSpectrogram,
    StftParams,
    Waveform,
    _StftPlan,
    _project_rounds,
    _put_phase,
    _set_magnitude,
    istft,
    stft,
)


@dataclass
class GlaConfig:
    """Iteration budget, momentum and the seed of the starting phase.

    momentum = 0 is plain Griffin-Lim; nonzero values accelerate it.
    """

    iterations: int = 1000
    momentum: float = 0.99
    seed: int = 0

    def __post_init__(self):
        _check_rounds(self.iterations, self.momentum)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _check_rounds(iterations: int, momentum: float) -> None:
    """Raise ValueError unless iterations >= 0 and momentum lies in [0, 1)."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")


def _check_target(s_hat: np.ndarray, params: StftParams) -> np.ndarray:
    """A 2-D magnitude target of any frame count, checked as :func:`_check_magnitude` does."""
    s = np.asarray(s_hat, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"magnitude must be 2-D, got shape {s.shape}")
    return _check_magnitude(s, s.shape[0], params.n_bins)


def _check_magnitude(s_hat: np.ndarray, n_frames: int, n_bins: int) -> np.ndarray:
    s = np.asarray(s_hat, dtype=np.float64)
    if s.shape != (n_frames, n_bins):
        raise ValueError(f"magnitude shape {s.shape} != ({n_frames}, {n_bins})")
    if not np.all(np.isfinite(s)) or s.min() < 0.0:
        raise ValueError("magnitude must be finite and nonnegative")
    return s


def project_consistent(C: ComplexSpectrogram) -> ComplexSpectrogram:
    """Project onto the set of spectrograms some signal produces.

    Synthesis followed by analysis.  Requires the frame count and
    origin_length to agree, otherwise re-analysis would change shape.
    """
    C.params.check_length(C.n_frames, C.origin_length)
    return stft(istft(C), C.params)


def project_magnitude(C: ComplexSpectrogram, s_hat: np.ndarray) -> ComplexSpectrogram:
    """Replace magnitudes, keep phases; zero entries get phase 1."""
    s = _check_magnitude(s_hat, C.n_frames, C.params.n_bins)
    return ComplexSpectrogram(_set_magnitude(C.frames.copy(), s), C.params, C.origin_length)


def gla(C0: ComplexSpectrogram, s_hat: np.ndarray, iterations: int) -> ComplexSpectrogram:
    """Plain Griffin-Lim: K composed projections from C0, the last analysis by :func:`stft`."""
    _check_rounds(iterations, 0.0)
    s = _check_magnitude(s_hat, C0.n_frames, C0.params.n_bins)
    if iterations == 0:
        return C0
    C0.params.check_length(C0.n_frames, C0.origin_length)
    plan = _StftPlan(C0.params, C0.origin_length, C0.n_frames)
    return stft(Waveform(_project_rounds(plan, s, iterations - 1, 0.0, X=C0.frames.copy(),
                                         project=True)), C0.params)


def gla_correct(
    y: Waveform,
    s_hat: np.ndarray,
    iterations: int,
    params: StftParams,
    momentum: float = 0.0,
) -> Waveform:
    """Pull a waveform toward a magnitude target by K projection rounds.

    Analyze, run K composed (consistency after magnitude) projections,
    synthesize back at the same length.  K=0 is the bare analysis round
    trip, the identity up to floating point.  Positive momentum applies
    the accelerated variant across the K rounds.  At momentum 0 the last
    pass only analyzes the K-th round's signal and synthesizes it back, a
    round trip that changes rounding alone (about 2e-16 relative on a 3 s
    clip); it is kept so outputs stay byte-identical.
    """
    _check_rounds(iterations, momentum)
    plan = _StftPlan(params, len(y), params.frames_for_length(len(y)))
    s = _check_magnitude(s_hat, plan.n_frames, params.n_bins)
    plan.pad(y.samples)
    return Waveform(_project_rounds(plan, s, iterations, momentum))


def initial_spectrogram(
    s_hat: np.ndarray, params: StftParams, cfg: GlaConfig
) -> ComplexSpectrogram:
    """Starting iterate: the target magnitude under seeded uniform random phase.

    The phases are ``np.random.default_rng(cfg.seed).uniform(-pi, pi)``
    draws in row-major order.  Its origin length is the longest signal
    the frame count describes.
    """
    s = _check_target(s_hat, params)
    X = np.empty(s.shape, dtype=np.complex128)
    rng = np.random.default_rng(cfg.seed)
    for r in dsp._chunks(slice(0, s.shape[0]), dsp.CHUNK_ROWS):    # no phase array spans s
        _put_phase(X[r], rng.uniform(-np.pi, np.pi, X[r].shape), s[r])
    return ComplexSpectrogram(X, params, params.max_length_for_frames(s.shape[0]))


def fgla(
    s_hat: np.ndarray,
    params: StftParams,
    cfg: GlaConfig,
    target_length: int = None,
) -> Waveform:
    """Fast Griffin-Lim vocoder: magnitude frames in, waveform out.

    Starts from :func:`initial_spectrogram`'s iterate, drawn a chunk at a time.
    Momentum update t_k = P_C(P_mag(C_{k-1})), C_k = t_k + m (t_k - t_{k-1}).
    The first step runs unaccelerated so momentum only ever differences two
    consistent iterates; kicking it off from the raw (inconsistent) init
    measurably hurts convergence.  Momentum 0 reduces exactly to plain
    Griffin-Lim.  One final magnitude projection before synthesis keeps
    the emitted signal as close to the target magnitude as the last phase
    estimate allows.  ``target_length`` (default: the longest signal the
    frame count describes) keeps that many leading samples, at the rate
    of the mel the magnitudes came from.
    """
    s = _check_target(s_hat, params)
    target_length = params.synthesis_length(s.shape[0], target_length)
    plan = _StftPlan(params, params.max_length_for_frames(s.shape[0]), s.shape[0])
    out = _project_rounds(plan, s, cfg.iterations, cfg.momentum, seed=cfg.seed, project=True)
    return Waveform(out[:target_length])
