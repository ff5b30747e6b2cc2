"""Flat key = value run configuration.

One RunConfig drives every CLI subcommand: analysis geometry, filterbank
layout, schedule and sampler knobs, baseline vocoder settings, metric
floors and I/O format.  The text form round-trips exactly (floats are
serialized with repr), so the config echo of a run is itself a valid
config file reproducing that run.
"""

import dataclasses
from dataclasses import dataclass

from .audio_io import WavSpec
from .diffusion import named_schedule
from .dsp import StftParams
from .melscale import MelFilterbank, check_bands, mel_filterbank
from .phase import GlaConfig
from .sampler import SamplerConfig


@dataclass
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
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not self.center:
            raise ValueError(
                "center = false is not supported: the periodic Hann window is "
                "zero at its first sample, so uncentered synthesis is degenerate"
            )
        # the cheap factories check the remaining values; the filterbank
        # itself is built only when a command needs it
        check_bands(self.sample_rate, self.n_mels, self.f_min, self.f_max)
        self.sampler_config()
        self.gla_config()
        self.wav_spec()

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

    # ----------------------------------------------------------- factories

    def stft_params(self) -> StftParams:
        return StftParams(self.n_fft, self.hop, self.win_length,
                          center_padding=self.center)

    def filterbank(self) -> MelFilterbank:
        return mel_filterbank(self.sample_rate, self.n_fft, self.n_mels,
                              self.f_min, self.f_max)

    def noise_schedule(self):
        return named_schedule(self.schedule, rooted_sigma=not self.sigma_no_sqrt)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            schedule=self.noise_schedule(),
            correction_steps=self.correction_steps,
            gla_iterations=self.gla_iters,
            noise_shaping=self.noise,
            seed=self.seed,
            stft_params=self.stft_params(),
            gla_momentum=self.gla_momentum,
            magnitude_rescale=self.magnitude_rescale,
            cepstral_order=self.cepstral_order,
        )

    def gla_config(self) -> GlaConfig:
        return GlaConfig(iterations=self.iters, momentum=self.momentum, seed=self.seed)

    def wav_spec(self) -> WavSpec:
        return WavSpec(self.sample_rate, self.wav_format)


def _parse_value(ftype, key, val, lineno):
    # dataclass field types arrive as strings under PEP 563 semantics
    name = ftype if isinstance(ftype, str) else ftype.__name__
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
