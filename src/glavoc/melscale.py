"""Mel filterbank analysis and pseudo-inverse magnitude recovery.

The filterbank compresses magnitude spectra (not power spectra) through
triangular filters spaced uniformly on the HTK mel scale, and its
Moore-Penrose pseudo-inverse lifts mel frames back to full-resolution
magnitude estimates.  Working in the magnitude domain means the lifted
frames can serve directly as fixed-magnitude targets for phase retrieval.

A filterbank is immutable: its fields cannot be rebound, its arrays are
read-only, and it computes its pseudo-inverse once, on first use.  So one
instance per geometry can serve every run of a process
(``RunConfig.filterbank``); :func:`mel_filterbank` builds a new one.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

MELS_MAGIC = b"MELS"
MELS_VERSION = 1

# Mel frames the lift multiplies at a time, the last product taking the
# rest.  OpenBLAS packs its operands in a buffer that grows with the
# product: one product over a 60 s mel (4411 frames) kept 4.5 MB of it
# resident.  A product of 64 rows or more rounds each row as the whole
# product does; one of a few rows may take another kernel (OpenBLAS
# 0.3.31 on SkylakeX: 1 row of 128 bands, up to 4 rows of 40 bands).
LIFT_ROWS = 64


def hz_to_mel(f):
    """HTK mel scale: mel(f) = 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filter matrix.

    ``weights`` is B x F (bands by frequency bins), for bins spaced at
    ``sample_rate``, the rate a mel file records.  ``weights`` is kept as
    a read-only float64 view, so the caller's array stays writable.
    """

    weights: np.ndarray
    sample_rate: float
    _pinv: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).view()
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or w.min() < 0.0:
            raise ValueError("filter weights must be finite and nonnegative")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be finite and positive, got {self.sample_rate}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_bands(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]

    @property
    def pseudo_inverse(self) -> np.ndarray:
        """F x B Moore-Penrose pseudo-inverse of the filter matrix, read-only.

        Computed on first access and kept.  It takes no lock: threads that
        race here each compute the same bits, and one result is kept.
        """
        pinv = self._pinv
        if pinv is None:
            pinv = np.linalg.pinv(self.weights, rcond=1e-8)
            pinv.flags.writeable = False
            object.__setattr__(self, "_pinv", pinv)
        return pinv


@dataclass
class MelSpectrogram:
    """T x B nonnegative mel frames tied to the filterbank that made them."""

    frames: np.ndarray
    filterbank: MelFilterbank

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {f.shape}")
        if f.shape[1] != self.filterbank.n_bands:
            raise ValueError(
                f"expected {self.filterbank.n_bands} bands, got {f.shape[1]}"
            )
        if not np.all(np.isfinite(f)) or f.min() < 0.0:
            raise ValueError("mel frames must be finite and nonnegative")
        self.frames = f

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def _band_edges(sample_rate, n_fft, n_bands, f_min, f_max):
    """FFT bin frequencies and the B+2 band edges, uniform in mel, in Hz."""
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    edges = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_bands + 2))
    return bin_freqs, edges


def check_bands(sample_rate: float, n_fft: int, n_bands: int, f_min: float, f_max: float) -> None:
    """Raise ValueError unless the bands fit below Nyquist and each covers an FFT bin.

    Band b is nonzero exactly at the bins strictly between edges b and
    b+2, so it is empty when no bin frequency falls there; the test
    counts those bins without building the weights.
    """
    if not (0.0 <= f_min < f_max <= sample_rate / 2.0):
        raise ValueError(
            f"need 0 <= f_min < f_max <= Nyquist, got [{f_min}, {f_max}] at {sample_rate} Hz"
        )
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    if n_fft < 1:
        raise ValueError(f"n_fft must be >= 1, got {n_fft}")
    bin_freqs, edges = _band_edges(sample_rate, n_fft, n_bands, f_min, f_max)
    inside = (np.searchsorted(bin_freqs, edges[2:], side="left")
              - np.searchsorted(bin_freqs, edges[:-2], side="right"))
    empty = np.flatnonzero(inside <= 0)
    if empty.size:
        raise ValueError(
            f"{empty.size} filters cover no FFT bin (first: band {empty[0]}); "
            "fewer bands or a wider frequency range is needed"
        )


def mel_filterbank(
    sample_rate: float = 22050,
    n_fft: int = 2048,
    n_bands: int = 128,
    f_min: float = 20.0,
    f_max: float = None,
) -> MelFilterbank:
    """Build B unnormalized triangular filters on the HTK mel scale.

    Band b ramps from center b-1 up to a peak of 1 at center b and back
    down to center b+1, with the B+2 centers uniformly spaced in mel
    between f_min and f_max.  Bins outside [f_min, f_max] get no weight.
    """
    if f_max is None:
        f_max = sample_rate / 2.0
    check_bands(sample_rate, n_fft, n_bands, f_min, f_max)
    bin_freqs, edges = _band_edges(sample_rate, n_fft, n_bands, f_min, f_max)

    lower = edges[:-2][:, None]
    center = edges[1:-1][:, None]
    upper = edges[2:][:, None]
    up = (bin_freqs[None, :] - lower) / (center - lower)
    down = (upper - bin_freqs[None, :]) / (upper - center)
    weights = np.maximum(0.0, np.minimum(up, down))
    return MelFilterbank(weights, sample_rate)


def mel_spectrogram(magnitude: np.ndarray, fb: MelFilterbank) -> MelSpectrogram:
    """Compress magnitude frames through the filterbank: X = S M^T."""
    S = np.asarray(magnitude, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != fb.n_bins:
        raise ValueError(
            f"magnitude must be (frames, {fb.n_bins}), got shape {S.shape}"
        )
    return MelSpectrogram(S @ fb.weights.T, fb)


def pseudo_inverse_magnitude(mel: MelSpectrogram) -> np.ndarray:
    """Estimate full-resolution magnitudes from mel frames.

    Least-squares lift through the pseudo-inverse, with negative
    outputs clamped to zero: magnitudes cannot go below zero, and the
    clamped frames feed the fixed-magnitude projection directly.  The
    product runs LIFT_ROWS frames at a time into one output.
    """
    pinv_t, n = mel.filterbank.pseudo_inverse.T, mel.n_frames
    lifted = np.empty((n, pinv_t.shape[1]))
    a = 0
    while a < n:
        b = a + LIFT_ROWS if n - a >= 2 * LIFT_ROWS else n
        np.matmul(mel.frames[a:b], pinv_t, out=lifted[a:b])
        a = b
    return np.maximum(lifted, 0.0, out=lifted)


def write_mels(path, mel: MelSpectrogram) -> None:
    """Store mel frames in the binary interchange format.

    Layout, all little-endian: magic "MELS", u32 version, u32 frame count,
    u32 band count, f32 sample rate, then the frames as float32 row-major.
    Raises ValueError, before the file is opened, when float32 does not hold
    the sample rate exactly or a frame value overflows it.
    """
    rate = float(mel.filterbank.sample_rate)
    with np.errstate(over="ignore"):    # an overflow is reported below, with the path
        if float(np.float32(rate)) != rate:
            raise ValueError(f"{path}: sample rate {rate} has no exact float32 form")
        frames = np.ascontiguousarray(mel.frames, dtype="<f4")
    if not np.all(np.isfinite(frames)):
        raise ValueError(f"{path}: mel values overflow float32")
    header = MELS_MAGIC + struct.pack("<III f", MELS_VERSION, *frames.shape, rate)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames)


def read_mels(path):
    """Load a mel interchange file; returns (frames, sample_rate).

    The frames come back as float64.  Raises ValueError on a non-finite or
    negative value: no mel spectrogram holds one, so a log-mel file is
    refused, not read as silence.
    """
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) < 20 or header[:4] != MELS_MAGIC:
            raise ValueError(f"{path}: not a mel interchange file")
        version, n_frames, n_bands, sample_rate = struct.unpack("<III f", header[4:])
        if version != MELS_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if n_frames < 1 or n_bands < 1:
            raise ValueError(f"{path}: degenerate dimensions {n_frames}x{n_bands}")
        if not np.isfinite(sample_rate) or sample_rate <= 0:
            raise ValueError(f"{path}: bad sample rate {sample_rate}")
        data = fh.read()
    expected = 4 * n_frames * n_bands
    if len(data) != expected:
        raise ValueError(
            f"{path}: payload holds {len(data)} bytes, header promises {expected}"
        )
    frames = np.frombuffer(data, dtype="<f4").astype(np.float64)
    frames = frames.reshape(n_frames, n_bands)
    if not np.all(np.isfinite(frames)):
        raise ValueError(f"{path}: non-finite mel values")
    if frames.min() < 0.0:
        raise ValueError(f"{path}: negative mel values")
    return frames, float(sample_rate)
