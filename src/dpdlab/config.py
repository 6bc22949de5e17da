"""Structured run-configuration text: `[section]` headers, `key = value` lines.

Lines may carry `#` comments.  Every key is type-checked against a fixed
schema; unknown sections or keys are rejected by name with a line number.
Omitted keys fall back to defaults chosen so that an empty config describes a
complete, runnable experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .exceptions import FormatError
from .ila import (DEFAULT_MPM_K_GRID, DEFAULT_NN_GRID, DEFAULT_PARAM_TARGETS, DEFAULT_TAPS_LIST,
                  FAMILIES, DpdModelSpec)
from .pa_sim import (PRESET_A_SAT, PRESET_DRIVE_DB, PRESET_FEEDBACK_SNR_DB, PRESET_K_PA,
                     PRESET_L_PA, PRESET_RHO, PRESET_SIGMA, PaConfig, coeffs_from_rule)
from .signal import TapWindow, read_text
from .training import TrainConfig

PRESET_LEVELS = ("low", "high")


# ----------------------------------------------------------------------
# value converters (raise ValueError with a short reason)
# ----------------------------------------------------------------------


def _int(value: str) -> int:
    return int(value, 10)


def _count(value: str) -> int:
    """An integer of at least 1: a tap count, an order, a width or a size."""
    number = _int(value)
    if number < 1:
        raise ValueError(f"expected an integer of at least 1, got {value!r}")
    return number


def _float(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _opt_float(value: str) -> Optional[float]:
    if value.lower() == "none":
        return None
    return _float(value)


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


def _word(value: str) -> str:
    if not value:
        raise ValueError("empty value")
    return value


def _list_of(item):
    """Reader of a non-empty comma-separated list whose entries `item` reads."""
    def read(value: str) -> tuple:
        items = tuple(item(tok.strip()) for tok in value.split(",") if tok.strip())
        if not items:
            raise ValueError("empty list")
        return items
    return read


_int_list = _list_of(_int)
_count_list = _list_of(_count)
_word_list = _list_of(str)


def _field(section: str, reader, default, key: Optional[str] = None):
    """A RunConfig field: its `[section]`, the reader of its value text, its
    default, and its key in that section when the key differs from the name."""
    return field(default=default, metadata={"section": section, "reader": reader, "key": key})


@dataclass
class RunConfig:
    """Fully resolved experiment description: each field declares one config
    key, and its default is read from the object that owns the value."""

    # [pa] — memory-polynomial coefficient rule plus operating point
    rho: float = _field("pa", _float, PRESET_RHO)
    sigma: float = _field("pa", _float, PRESET_SIGMA)
    l_pa: int = _field("pa", _int, PRESET_L_PA)
    k_pa: int = _field("pa", _int, PRESET_K_PA)
    drive_db: float = _field("pa", _float, PRESET_DRIVE_DB["high"])
    a_sat: Optional[float] = _field("pa", _opt_float, PRESET_A_SAT)
    feedback_snr_db: Optional[float] = _field("pa", _opt_float, PRESET_FEEDBACK_SNR_DB)
    # [signal]
    seed: int = _field("signal", _int, 1)
    n_samples: int = _field("signal", _int, 16384)
    bandwidth_fraction: float = _field("signal", _float, 0.25)
    # [model]
    kind: str = _field("model", _word, "mpm")
    taps: int = _field("model", _count, 4)
    post_taps: int = _field("model", _int, TapWindow.post_taps)
    k_orders: int = _field("model", _count, DpdModelSpec.k_orders)
    n_experts: int = _field("model", _count, DpdModelSpec.n_experts)
    n1: int = _field("model", _count, DpdModelSpec.n1)
    n2: int = _field("model", _count, DpdModelSpec.n2)
    ridge: Optional[float] = _field("model", _opt_float, DpdModelSpec.ridge)
    warm_start: bool = _field("model", _bool, DpdModelSpec.warm_start)
    # [train] — keys are TrainConfig's field names
    learning_rate: float = _field("train", _float, TrainConfig.learning_rate)
    beta1: float = _field("train", _float, TrainConfig.beta1)
    beta2: float = _field("train", _float, TrainConfig.beta2)
    epsilon: float = _field("train", _float, TrainConfig.epsilon)
    batch_size: int = _field("train", _count, TrainConfig.batch_size)
    segment_len: int = _field("train", _count, TrainConfig.segment_len)
    max_epochs: int = _field("train", _count, TrainConfig.max_epochs)
    patience: int = _field("train", _count, TrainConfig.patience)
    train_seed: int = _field("train", _int, TrainConfig.seed, key="seed")
    # [sweep]
    families: tuple = _field("sweep", _word_list, FAMILIES)
    preset: str = _field("sweep", _word, "high")
    taps_list: tuple = _field("sweep", _count_list, DEFAULT_TAPS_LIST)
    param_targets: tuple = _field("sweep", _int_list, DEFAULT_PARAM_TARGETS)
    seeds: tuple = _field("sweep", _int_list, (1, 2, 3))
    budget_lo: int = _field("sweep", _int, DpdModelSpec.budget[0])
    budget_hi: int = _field("sweep", _int, DpdModelSpec.budget[1])
    nn_grid: tuple = _field("sweep", _count_list, DEFAULT_NN_GRID)
    mpm_k_grid: tuple = _field("sweep", _count_list, DEFAULT_MPM_K_GRID)
    sweep_taps: int = _field("sweep", _count, 7, key="taps")

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise FormatError(f"[model] kind must be one of {FAMILIES}, got {self.kind!r}")
        if self.preset not in PRESET_LEVELS:
            raise FormatError(f"[sweep] preset must be one of {PRESET_LEVELS}, got {self.preset!r}")
        for fam in self.families:
            if fam not in FAMILIES:
                raise FormatError(f"[sweep] families entry {fam!r} not one of {FAMILIES}")
        if self.taps < 1 or self.post_taps < 0 or self.post_taps >= self.taps:
            raise FormatError("[model] needs taps >= 1 and 0 <= post_taps < taps")

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def pa_config(self, drive_db: Optional[float] = None) -> PaConfig:
        return PaConfig(
            coeffs=coeffs_from_rule(self.rho, self.sigma, self.l_pa, self.k_pa),
            drive_db=self.drive_db if drive_db is None else drive_db,
            smooth_limit=self.a_sat,
            feedback_snr_db=self.feedback_snr_db,
        )

    def pa_for_preset(self, level: str) -> PaConfig:
        if level not in PRESET_LEVELS:
            raise ValueError(f"unknown preset level {level!r}")
        return self.pa_config(drive_db=PRESET_DRIVE_DB[level])

    def preset_label(self) -> str:
        for level in PRESET_LEVELS:
            if self.drive_db == PRESET_DRIVE_DB[level]:
                return level
        return "custom"

    def window(self) -> TapWindow:
        return TapWindow(pre_taps=self.taps - 1 - self.post_taps, post_taps=self.post_taps)

    def model_spec(self) -> DpdModelSpec:
        return DpdModelSpec(
            kind=self.kind, window=self.window(), k_orders=self.k_orders,
            n_experts=self.n_experts, n1=self.n1, n2=self.n2, ridge=self.ridge,
            warm_start=self.warm_start, budget=(self.budget_lo, self.budget_hi),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{key: getattr(self, f.name) for key, f in _SCHEMA["train"].items()})


def _schema() -> dict:
    """{section: {key: RunConfig field}}, both in declaration order."""
    schema = {}
    for f in fields(RunConfig):
        schema.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = f
    return schema


_SCHEMA = _schema()


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Parse sectioned key-value text into a RunConfig; defaults fill the gaps."""
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                known = ", ".join(sorted(_SCHEMA))
                raise FormatError(f"{path}:{lineno}: unknown section [{name}] (known: {known})")
            section = name
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise FormatError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise FormatError(
                f"{path}:{lineno}: unknown key {key!r} in [{section}] (known: {known})")
        f = schema[key]
        try:
            values[f.name] = f.metadata["reader"](value)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    try:
        return RunConfig(**values)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_config(path) -> RunConfig:
    return parse_config(read_text(path), path=str(path))


def _render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig; parse_config(render_config(c)) == c."""
    lines = []
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, f in schema.items():
            lines.append(f"{key} = {_render_value(getattr(cfg, f.name))}")
        lines.append("")
    return "\n".join(lines)
