"""Pipeline configuration: flat `key = value` files with typed defaults.

Every key has a documented default below; unknown keys are rejected with
the full list of offenders. Each pipeline stage hashes the canonical
serialization of the keys it reads into the cache key of its artifacts.

Some choices are fixed in code rather than keyed: PDQ's page groups (the
constant ``pdq.PAGE_GROUPS``), the attribution rule (a pair is attributed
when any flag is set) and each head's loss (``predictor.HEAD_SPECS``).
"""

from __future__ import annotations

from dataclasses import fields

from .attribution import AttributionConfig
from .fusion import FusionWeights
from .predictor import TrainConfig
from .synthgen import GenConfig

#: key -> default value; value type defines the parse type.
DEFAULTS: dict[str, object] = {
    # master
    "seed": 0,
    "cap_q": 300.0,
    # generator (prefix gen.)
    **{f"gen.{f.name}": f.default for f in fields(GenConfig) if f.name != "seed"},
    # PDQ
    "pdq.T": 50,
    # attribution
    "attribution.v2v_threshold": 0.5,
    "attribution.mm_threshold": 0.9,
    "attribution.adjacency_window": 6,
    # author LTV
    "author.window_n": 7,
    "author.decay_alpha": 0.8,
    # labels
    "labels.completion_halflife": 30.0,
    "labels.interaction_threshold": 60.0,
    # training
    "train.batch_size": 512,
    "train.learning_rate": 0.05,
    "train.epochs": 3,
    "train.lam": 0.1,
    "train.rho": 1.5,
    "train.accumulator_decay": 0.9999,
    "train.embedding_dim": 16,
    "train.max_examples": 150000,
    "train.test_days": 1,
    # evaluation
    "eval.max_n": 20000,
    "eval.lt_windows": "1,3",
    # fusion / replay
    "fusion.w_watch": 1.0,
    "fusion.w_attr": 1.0,
    "fusion.w_author": 1.0,
    "fusion.exp_pdq": 1.0,
    "fusion.exp_completion": 1.0,
    "fusion.exp_interaction": 1.0,
    "fusion.baseline_w_watch": 1.0,
    "fusion.baseline_w_attr": 1.0,
    "fusion.baseline_w_author": 0.0,
    "replay.n_seeds": 20,
    "replay.lt_window": 3,
}


class ConfigError(ValueError):
    pass


class PipelineConfig:
    """Resolved configuration: defaults overlaid with file and --set values."""

    def __init__(self, values: dict[str, object] | None = None):
        self.values = dict(DEFAULTS)
        if values:
            unknown = sorted(set(values) - set(DEFAULTS))
            if unknown:
                raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
            for key, raw in values.items():
                self.values[key] = _coerce(key, raw)

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical(self, keys=None) -> str:
        """One ``k = repr(v)`` line per key of ``keys`` (default: every
        key), sorted by key."""
        lines = [f"{k} = {self.values[k]!r}"
                 for k in sorted(self.values if keys is None else keys)]
        return "\n".join(lines) + "\n"

    def gen_config(self) -> GenConfig:
        kwargs = {f.name: self.values[f"gen.{f.name}"]
                  for f in fields(GenConfig) if f.name != "seed"}
        return GenConfig(seed=int(self.values["seed"]), **kwargs)

    def attribution_config(self) -> AttributionConfig:
        return AttributionConfig(
            v2v_threshold=self.values["attribution.v2v_threshold"],
            mm_threshold=self.values["attribution.mm_threshold"],
            adjacency_window=self.values["attribution.adjacency_window"],
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.values["train.batch_size"],
            learning_rate=self.values["train.learning_rate"],
            epochs=self.values["train.epochs"],
            lam=self.values["train.lam"],
            rho=self.values["train.rho"],
            accumulator_decay=self.values["train.accumulator_decay"],
            embedding_dim=self.values["train.embedding_dim"],
            seed=int(self.values["seed"]),
        )

    def fusion_weights(self, baseline: bool = False) -> FusionWeights:
        p = "fusion.baseline_w_" if baseline else "fusion.w_"
        return FusionWeights(
            w_watch=self.values[p + "watch"],
            w_attr=self.values[p + "attr"],
            w_author=self.values[p + "author"],
            exponents={
                "pdq": self.values["fusion.exp_pdq"],
                "completion": self.values["fusion.exp_completion"],
                "interaction": self.values["fusion.exp_interaction"],
            },
        )

    def lt_windows(self) -> list[int]:
        return [int(x) for x in str(self.values["eval.lt_windows"]).split(",") if x]


def _coerce(key: str, raw) -> object:
    default = DEFAULTS[key]
    if isinstance(raw, str):
        text = raw.strip()
        try:
            if isinstance(default, bool):
                if text.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(text)
                return text.lower() in ("true", "1")
            if isinstance(default, int):
                return int(text)
            if isinstance(default, float):
                return float(text)
            return text
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r} as "
                              f"{type(default).__name__}") from None
    return raw


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path=None, overrides: dict[str, str] | None = None) -> PipelineConfig:
    values: dict[str, object] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    if overrides:
        values.update(overrides)
    return PipelineConfig(values)
