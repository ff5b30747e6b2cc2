"""Noise schedules, forward/reverse diffusion steps, and shaped noise.

Everything here is deterministic given its inputs: noise vectors are
always passed in explicitly, so samplers own the generator state.  The
analytic oracle predictor inverts the closed-form noising equation,
which makes the whole reverse chain testable without a trained network.
"""

from dataclasses import dataclass

import numpy as np

from . import dsp
from .dsp import StftParams, Waveform, istft, stft
from .melscale import MelSpectrogram
from .phase import _check_magnitude

# 6-step schedule for fast sampling
WG6_BETAS = (7e-6, 1.4e-4, 2.1e-3, 2.8e-2, 3.5e-1, 7e-1)
# 50-step stand-in: the usual linear ramp (the canonical 50 values are
# published elsewhere; this one is a documented placeholder)
WG50_BETAS = tuple(np.linspace(1e-4, 0.05, 50))

ENVELOPE_FLOOR_RATIO = 1e-5
DEFAULT_CEPSTRAL_ORDER = 24


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise amounts and every derived quantity the sampler needs.

    Index convention: step n in 1..N maps to array index n-1.  The
    cumulative product starts from the convention alpha_bar_0 = 1, which
    forces sigma_1 = 0: the last reverse step is deterministic.
    """

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray
    sigmas: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.betas.shape[0]

    def alpha_bar_prev(self, n: int) -> float:
        """alpha_bar_{n-1} with the alpha_bar_0 = 1 convention; n is 1-based."""
        return 1.0 if n == 1 else float(self.alpha_bars[n - 2])


def schedule_from_betas(betas, rooted_sigma: bool = True) -> NoiseSchedule:
    """Derive alphas, cumulative products and posterior deviations.

    sigma_n = sqrt(((1 - abar_{n-1}) / (1 - abar_n)) * beta_n), the
    standard posterior standard deviation.  ``rooted_sigma=False`` drops
    the square root, available for A/B comparison only.
    """
    b = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if b.size == 0:
        raise ValueError("schedule needs at least one beta")
    if not np.all((b > 0.0) & (b < 1.0)):
        raise ValueError("every beta must lie strictly in (0, 1)")
    alphas = 1.0 - b
    alpha_bars = np.cumprod(alphas)
    prev = np.concatenate([[1.0], alpha_bars[:-1]])
    ratio = (1.0 - prev) / (1.0 - alpha_bars) * b
    sigmas = np.sqrt(ratio) if rooted_sigma else ratio
    return NoiseSchedule(b, alphas, alpha_bars, sigmas)


def named_schedule(name: str, rooted_sigma: bool = True) -> NoiseSchedule:
    """Built-in schedule by name ("wg6", "wg50") or betas from a text file.

    Schedule files hold one beta per line; blank lines and lines starting
    with # are skipped.
    """
    if name == "wg6":
        return schedule_from_betas(WG6_BETAS, rooted_sigma)
    if name == "wg50":
        return schedule_from_betas(WG50_BETAS, rooted_sigma)
    try:
        with open(name) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise ValueError(f"unknown schedule {name!r} (not built-in, not a readable file): {exc}")
    betas = []
    for number, ln in enumerate(lines, 1):
        if ln and not ln.startswith("#"):
            try:
                betas.append(float(ln))
            except ValueError:
                raise ValueError(f"{name}: line {number}: bad beta {ln!r}") from None
    if not betas:
        raise ValueError(f"schedule file {name!r} holds no beta values")
    return schedule_from_betas(betas, rooted_sigma)


def _check_same_length(a: Waveform, b: Waveform, what: str):
    if len(a) != len(b):
        raise ValueError(f"{what}: length mismatch {len(a)} vs {len(b)}")


def forward_diffuse(y0: Waveform, alpha_bar: float, eps: Waveform) -> Waveform:
    """Closed-form noising: sqrt(abar) y0 + sqrt(1 - abar) eps."""
    if not (0.0 <= alpha_bar <= 1.0):
        raise ValueError(f"alpha_bar must lie in [0, 1], got {alpha_bar}")
    _check_same_length(y0, eps, "forward_diffuse")
    out = np.sqrt(alpha_bar) * y0.samples + np.sqrt(1.0 - alpha_bar) * eps.samples
    return Waveform(out)


def oracle_epsilon(y_n: Waveform, y0: Waveform, alpha_bar: float) -> Waveform:
    """Invert the closed form: the exact noise that produced y_n from y0."""
    _check_oracle_alpha(alpha_bar)
    _check_same_length(y_n, y0, "oracle_epsilon")
    return _oracle_epsilon(y_n, y0.samples, alpha_bar)


def _check_oracle_alpha(alpha_bar: float) -> None:
    if not (0.0 < alpha_bar < 1.0):
        raise ValueError(f"alpha_bar must lie strictly in (0, 1), got {alpha_bar}")


def _oracle_epsilon(y_n: Waveform, y0: np.ndarray, alpha_bar: float) -> Waveform:
    """:func:`oracle_epsilon` against the samples ``y0``, taken as zero past their end.

    Built in one array: sqrt(abar) y0, then y_n minus it, then the division.
    """
    m = min(y0.shape[0], len(y_n))
    eps = np.empty(len(y_n))
    np.multiply(np.sqrt(alpha_bar), y0[:m], out=eps[:m])
    eps[m:] = 0.0
    np.subtract(y_n.samples, eps, out=eps)
    eps /= np.sqrt(1.0 - alpha_bar)
    return Waveform(eps)


def reverse_step(
    y_n: Waveform,
    eps_hat: Waveform,
    n: int,
    sched: NoiseSchedule,
    z: Waveform = None,
) -> Waveform:
    """One reverse-diffusion update from step n down to n-1.

    y_{n-1} = (y_n - ((1-alpha_n)/sqrt(1-abar_n)) eps_hat) / sqrt(alpha_n)
              + sigma_n z.  The n=1 step must be noiseless.
    """
    if not (1 <= n <= sched.n_steps):
        raise ValueError(f"step index {n} outside 1..{sched.n_steps}")
    _check_same_length(y_n, eps_hat, "reverse_step")
    i = n - 1
    mean = (
        y_n.samples
        - (1.0 - sched.alphas[i]) / np.sqrt(1.0 - sched.alpha_bars[i]) * eps_hat.samples
    ) / np.sqrt(sched.alphas[i])
    if z is None:
        return Waveform(mean)
    _check_same_length(y_n, z, "reverse_step noise")
    if n == 1 and np.any(z.samples != 0.0):
        raise ValueError("the final reverse step (n=1) must use z = 0")
    return Waveform(mean + sched.sigmas[i] * z.samples)


class NoisePredictor:
    """Estimates the noise content of a corrupted signal.

    Implementations must be read-only after construction so concurrent
    sampling runs can share them.  ``y_n`` holds the sampler's working
    signal, which the step overwrites once the call has returned: keep no
    reference to it.
    """

    def predict(self, y_n: Waveform, mel: MelSpectrogram, sqrt_alpha_bar: float) -> Waveform:
        raise NotImplementedError


class ZeroPredictor(NoisePredictor):
    """Predicts no noise at all; the reverse chain just rescales its input."""

    def predict(self, y_n, mel, sqrt_alpha_bar):
        return Waveform(np.zeros(len(y_n)))


class OraclePredictor(NoisePredictor):
    """Computes the exact noise using a known clean reference.

    Stands in for a trained network: with it the reverse chain is exact,
    which pins down the sampler arithmetic end to end.  A reference
    shorter or longer than the query is read as zero-padded or truncated,
    without a copy.
    """

    def __init__(self, reference: Waveform):
        self.reference = reference

    def predict(self, y_n, mel, sqrt_alpha_bar):
        if not (0.0 < sqrt_alpha_bar < 1.0):
            raise ValueError("oracle prediction needs sqrt_alpha_bar strictly in (0, 1)")
        alpha_bar = sqrt_alpha_bar ** 2
        _check_oracle_alpha(alpha_bar)
        return _oracle_epsilon(y_n, self.reference.samples, alpha_bar)


def wavegrad_loss(
    pred: NoisePredictor,
    y0: Waveform,
    mel: MelSpectrogram,
    alpha_bar: float,
    eps: Waveform,
) -> float:
    """Per-sample L1 between predicted and actual noise (diagnostic only)."""
    _check_oracle_alpha(alpha_bar)
    y_n = forward_diffuse(y0, alpha_bar, eps)
    estimate = pred.predict(y_n, mel, float(np.sqrt(alpha_bar)))
    _check_same_length(estimate, eps, "wavegrad_loss")
    return float(np.mean(np.abs(estimate.samples - eps.samples)))


def spectral_envelope(s_hat: np.ndarray, cepstral_order: int = DEFAULT_CEPSTRAL_ORDER) -> np.ndarray:
    """Smooth per-frame spectral envelope via cepstral liftering.

    Log magnitude (floored relative to the global peak), real cepstrum,
    keep quefrencies below ``cepstral_order``, back to a strictly
    positive envelope.  A silent spectrogram gets a flat unit envelope.
    The input must pass the rule of every Griffin-Lim entry: 2-D, finite
    and nonnegative, of any width.
    After the peak it runs ``dsp.CHUNK_ROWS`` frames at a time into one output.
    """
    if cepstral_order < 1:
        raise ValueError("cepstral_order must be >= 1")
    return _envelope(_check_magnitude(s_hat, None), cepstral_order)


def _envelope(s: np.ndarray, cepstral_order: int) -> np.ndarray:
    """:func:`spectral_envelope` of a float64 magnitude its caller has checked."""
    peak = s.max()
    env = np.empty_like(s)
    for r in dsp._chunks(slice(0, s.shape[0]), dsp.CHUNK_ROWS):
        env[r] = _envelope_rows(s[r], peak, cepstral_order)
    return env


def _envelope_rows(s: np.ndarray, peak: float, cepstral_order: int) -> np.ndarray:
    """:func:`_envelope`'s rows for the rows ``s`` of a magnitude whose global peak is ``peak``.

    Each row depends on its own magnitude row and the peak alone.
    """
    if peak <= 0.0:
        return np.ones_like(s)
    n_fft = 2 * (s.shape[1] - 1)
    ceps = np.fft.irfft(np.log(s + ENVELOPE_FLOOR_RATIO * peak), n=n_fft, axis=1)
    ceps[:, cepstral_order:n_fft - cepstral_order + 1] = 0.0
    return np.exp(np.fft.rfft(ceps, n=n_fft, axis=1).real)


def _check_envelope(env: np.ndarray) -> None:
    if not np.all(np.isfinite(env)) or env.min() <= 0.0:
        raise ValueError("envelope must be finite and strictly positive")


def specgrad_shape_noise(
    eps_white: Waveform, envelope: np.ndarray, params: StftParams
) -> Waveform:
    """Color white noise through an analysis-filter-synthesis pass.

    istft(envelope * stft(eps)): a time-varying filter in factored form;
    the equivalent dense covariance is never built.  Linear in the noise,
    identity when the envelope is 1; the envelope scales the spectrogram in place.
    """
    env = np.asarray(envelope, dtype=np.float64)
    _check_envelope(env)
    spec = stft(eps_white, params)
    if env.shape != spec.frames.shape:
        raise ValueError(
            f"envelope shape {env.shape} does not match spectrogram {spec.frames.shape}"
        )
    spec.frames *= env
    return istft(spec, len(eps_white))
