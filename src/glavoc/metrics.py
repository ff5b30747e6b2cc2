"""Objective quality measures and the CSV evaluation report.

Magnitude-domain convergence, log-spectral distance, time-domain SNR and
spectrogram consistency.  Perceptual scores are deliberately left to the
standard external tools; the generated WAVs feed straight into them.

Convergence and log-spectral distance are defined once, as sums that
:class:`SpectralSums` adds up over chunks of rows: the public functions
feed it whole arrays a few rows at a time, and ``evaluate`` feeds it each
chunk of frames as it analyzes them, so no pair is held whole.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import ANALYSIS_ROWS, ComplexSpectrogram
from .phase import project_consistent

DEFAULT_LSD_FLOOR = 1e-5
SNR_CAP_DB = 300.0


def _as_pair(a, b, what):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"{what}: shape mismatch {a.shape} vs {b.shape}")
    return a, b


class SpectralSums:
    """Sums behind spectral convergence and log-spectral distance, added chunk by chunk.

    :meth:`add` takes a chunk of rows of a reference and an estimated
    magnitude and adds its Σ(ref − est)², Σref² and Σd², d the dB
    log-ratio 20 log10((ref + floor) / (est + floor)), so a pair can be
    scored a few frames at a time.  The sums run in another order than
    over the whole arrays, so a score may differ in the last bits.
    """

    def __init__(self, floor: float = DEFAULT_LSD_FLOOR):
        if not floor > 0.0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.floor = floor
        self.error = self.reference = self.log_ratio = 0.0
        self.count = 0

    def add(self, ref: np.ndarray, est: np.ndarray) -> None:
        e = ref - est
        self.error += float(np.vdot(e, e))
        self.reference += float(np.vdot(ref, ref))
        d = np.add(ref, self.floor, out=e)
        d /= est + self.floor
        np.log10(d, out=d)
        d *= 20.0
        self.log_ratio += float(np.vdot(d, d))
        self.count += d.size

    def convergence(self) -> float:
        """Relative Frobenius error of the estimate."""
        if self.reference == 0.0:
            raise ValueError("spectral_convergence needs a nonzero reference")
        return math.sqrt(self.error) / math.sqrt(self.reference)

    def lsd(self) -> float:
        """RMS log-magnitude ratio in dB."""
        return math.sqrt(self.log_ratio / self.count)


def _sums(s_ref, s_est, what, floor=DEFAULT_LSD_FLOOR) -> SpectralSums:
    sums = SpectralSums(floor)
    ref, est = _as_pair(s_ref, s_est, what)
    ref, est = np.atleast_2d(ref), np.atleast_2d(est)
    for r in range(0, ref.shape[0], ANALYSIS_ROWS):
        sums.add(ref[r:r + ANALYSIS_ROWS], est[r:r + ANALYSIS_ROWS])
    return sums


def spectral_convergence(s_ref, s_est) -> float:
    """Relative Frobenius error of an estimated magnitude spectrogram."""
    return _sums(s_ref, s_est, "spectral_convergence").convergence()


def log_spectral_distance(s_ref, s_est, floor: float = DEFAULT_LSD_FLOOR) -> float:
    """RMS log-magnitude ratio in dB, floored to keep silence finite."""
    return _sums(s_ref, s_est, "log_spectral_distance", floor).lsd()


def snr(y_ref, y_est) -> float:
    """Signal-to-error power ratio in dB, capped at 300 for exact matches."""
    ref, est = _as_pair(
        np.asarray(getattr(y_ref, "samples", y_ref)),
        np.asarray(getattr(y_est, "samples", y_est)),
        "snr",
    )
    signal = np.sum(ref * ref)
    if signal == 0.0:
        raise ValueError("snr needs a nonzero reference")
    noise = np.sum((ref - est) ** 2)
    if noise == 0.0:
        return SNR_CAP_DB
    return float(min(10.0 * np.log10(signal / noise), SNR_CAP_DB))


def consistency_error(C: ComplexSpectrogram) -> float:
    """Relative distance from the set of analyzable spectrograms."""
    total = np.linalg.norm(C.frames)
    if total == 0.0:
        return 0.0
    gap = np.linalg.norm(C.frames - project_consistent(C).frames)
    return float(gap / total)


@dataclass
class EvalReport:
    """Per-file metric values plus recomputable aggregates.

    Rows are emitted sorted by file then metric name so reports diff
    cleanly; aggregate rows (population mean and standard deviation per
    metric) come last under the reserved names __mean__ and __std__.
    """

    entries: dict = field(default_factory=dict)

    def add(self, file: str, metric: str, value: float) -> None:
        if file.startswith("__"):
            raise ValueError(f"file name {file!r} collides with aggregate rows")
        self.entries.setdefault(file, {})[metric] = float(value)

    def metrics(self):
        names = set()
        for row in self.entries.values():
            names.update(row)
        return sorted(names)

    def values(self, metric: str):
        return [row[metric] for _, row in sorted(self.entries.items()) if metric in row]

    def mean(self, metric: str) -> float:
        return float(np.mean(self.values(metric)))

    def std(self, metric: str) -> float:
        return float(np.std(self.values(metric)))

    def write_csv(self, path) -> None:
        """Write the rows as CSV; a file name holding a comma or quote is quoted."""
        rows = [(file, metric, value) for file in sorted(self.entries)
                for metric, value in sorted(self.entries[file].items())]
        rows += [("__mean__", metric, self.mean(metric)) for metric in self.metrics()]
        rows += [("__std__", metric, self.std(metric)) for metric in self.metrics()]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("file", "metric", "value"))
            out.writerows((file, metric, f"{value:.6g}") for file, metric, value in rows)
