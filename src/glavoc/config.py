"""Flat key = value run configuration.

One RunConfig drives every CLI subcommand: analysis geometry, filterbank
layout, schedule and sampler knobs, baseline vocoder settings, metric
floors and I/O format.  The text form round-trips exactly (floats are
serialized with repr), so the config echo of a run is itself a valid
config file reproducing that run.

A RunConfig is frozen, and loading it builds the parts every command
runs on once, each checked as it is built: the STFT geometry, the noise
schedule, the sampler and vocoder settings and the WAV format.  So a
schedule file is read once and may be a pipe; the echo records its path,
not its betas, so a piped schedule's echo does not reproduce the run.

``RunConfig.filterbank`` hands every config of one geometry the same
immutable filterbank, so a process builds each geometry's weights and
pseudo-inverse once.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

from .audio_io import WavSpec
from .diffusion import named_schedule
from .dsp import StftParams
from .melscale import MelFilterbank, check_bands, mel_filterbank
from .phase import GlaConfig
from .sampler import SamplerConfig


@dataclass(frozen=True)
class RunConfig:
    """Every tunable the pipeline reads, under stable key names."""

    sample_rate: int = 22050
    n_fft: int = 2048
    hop: int = 300
    win_length: int = 1200
    center: bool = True
    n_mels: int = 128
    f_min: float = 20.0
    f_max: float = 11025.0
    schedule: str = "wg6"
    correction_steps: int = 3
    gla_iters: int = 32
    gla_momentum: float = 0.0
    noise: str = "white"
    seed: int = 0
    iters: int = 1000
    momentum: float = 0.99
    lsd_floor: float = 1e-5
    cepstral_order: int = 24
    jobs: int = 1
    magnitude_rescale: bool = False
    sigma_no_sqrt: bool = False
    wav_format: str = "float32"

    def __post_init__(self):
        # from_text reads a value up to a line break or '#', stripped, so
        # the echo of any other string would not reproduce the run
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, str) and ("#" in v or len(v.splitlines()) > 1 or v != v.strip()):
                raise ValueError(f"{f.name} {v!r} cannot be written to a config file: "
                                 "it holds '#', a line break or surrounding whitespace")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not 0.0 < self.lsd_floor < math.inf:
            raise ValueError(f"lsd_floor must be finite and positive, got {self.lsd_floor}")
        # the parts every command runs on, built once: the schedule first,
        # then the geometry and the rate before the bands that depend on
        # them.  A geometry whose synthesis cannot normalize every sample
        # fails here, as does the uncentered Hann, which is zero at the
        # first output sample.  Not fields: keys, echo and == ignore them.
        sampler = SamplerConfig(
            schedule=named_schedule(self.schedule, rooted_sigma=not self.sigma_no_sqrt),
            correction_steps=self.correction_steps,
            gla_iterations=self.gla_iters,
            noise_shaping=self.noise,
            seed=self.seed,
            stft_params=StftParams(self.n_fft, self.hop, self.win_length,
                                   center_padding=self.center),
            gla_momentum=self.gla_momentum,
            magnitude_rescale=self.magnitude_rescale,
            cepstral_order=self.cepstral_order,
        )
        sampler.stft_params.check_synthesis()
        vars(self).update(_sampler=sampler,    # frozen: set past __setattr__
                          _gla=GlaConfig(self.iters, self.momentum, self.seed),
                          _wav=WavSpec(self.sample_rate, self.wav_format))
        check_bands(self.sample_rate, self.n_fft, self.n_mels, self.f_min, self.f_max)

    # -------------------------------------------------------- serialization

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, overrides: dict = None) -> "RunConfig":
        """Parse config text; the non-None entries of ``overrides`` win over it.

        The merged values are validated once, so a file may depend on the
        overrides it runs with (``correction_steps = 9`` with ``--schedule wg50``).
        """
        known = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            values[key] = _parse_value(known[key].type, key, val, lineno)
        values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        return cls(**values)

    # ------------------------------------------------------------- parts

    def stft_params(self) -> StftParams:
        return self._sampler.stft_params

    def filterbank(self) -> MelFilterbank:
        """The filterbank of this mel geometry, one instance for every config that names it."""
        return _shared_filterbank(self.sample_rate, self.n_fft, self.n_mels,
                                  self.f_min, self.f_max)

    def sampler_config(self) -> SamplerConfig:
        return self._sampler

    def gla_config(self) -> GlaConfig:
        return self._gla

    def wav_spec(self) -> WavSpec:
        return self._wav


# About 2 MB a geometry at the defaults, weights and pseudo-inverse, kept
# for the life of the process.  Typed, so 22050 and 22050.0 get their own
# entries: the rate's type is the one the filterbank carries.
@functools.lru_cache(maxsize=8, typed=True)
def _shared_filterbank(sample_rate, n_fft, n_mels, f_min, f_max) -> MelFilterbank:
    return mel_filterbank(sample_rate, n_fft, n_mels, f_min, f_max)


def _parse_value(ftype, key, val, lineno):
    name = ftype.__name__
    try:
        if name == "bool":
            if val not in ("true", "false"):
                raise ValueError
            return val == "true"
        if name == "int":
            return int(val)
        if name == "float":
            return float(val)
        return val
    except ValueError:
        raise ValueError(f"line {lineno}: bad {name} value {val!r} for key {key!r}")


def load_config(path, overrides: dict = None) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_text(fh.read(), overrides)
