"""Structured run-configuration text: `[section]` headers, `key = value` lines.

Lines may carry `#` comments.  Every key is type-checked against a fixed
schema, a number by its rule (rules.RULES); unknown sections or keys are
rejected by name with a line number.
Omitted keys fall back to defaults chosen so that an empty config describes a
complete, runnable experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .exceptions import FormatError
from .ila import (DEFAULT_BANDWIDTH_FRACTION, DEFAULT_COMPLEXITY_TAPS, DEFAULT_MPM_K_GRID,
                  DEFAULT_N_SAMPLES, DEFAULT_NN_GRID, DEFAULT_PARAM_TARGETS, DEFAULT_SEEDS,
                  DEFAULT_TAPS_LIST, FAMILIES, DpdModelSpec, check_budget, check_families)
from .pa_sim import (PRESET_A_SAT, PRESET_DRIVE_DB, PRESET_FEEDBACK_SNR_DB, PRESET_K_PA,
                     PRESET_L_PA, PRESET_RHO, PRESET_SIGMA, PaConfig, coeffs_from_rule, preset)
from .rules import RULES
from .signal import TapWindow, read_text
from .training import TrainConfig


# ----------------------------------------------------------------------
# value readers (raise ValueError with a short reason); a numeric key's
# reader is its key's rule (rules.RULES), derived by _reader
# ----------------------------------------------------------------------


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


def _optional(read):
    """Reader of `none` (None) or of what `read` reads."""
    return lambda value: None if value.lower() == "none" else read(value)


def _field(section: str, default, key: Optional[str] = None, reader=None):
    """A RunConfig field: its `[section]`, its default, its key in that section
    when the key differs from the name, and the reader of its value text when
    the value is not a number (a number's reader is its key's rule)."""
    return field(default=default, metadata={"section": section, "key": key, "reader": reader})


@dataclass
class RunConfig:
    """Fully resolved experiment description: each field declares one config
    key, and its default is read from the object that owns the value."""

    # [pa] — memory-polynomial coefficient rule plus operating point
    rho: float = _field("pa", PRESET_RHO)
    sigma: float = _field("pa", PRESET_SIGMA)
    l_pa: int = _field("pa", PRESET_L_PA)
    k_pa: int = _field("pa", PRESET_K_PA)
    drive_db: float = _field("pa", PRESET_DRIVE_DB["high"])
    a_sat: Optional[float] = _field("pa", PRESET_A_SAT)
    feedback_snr_db: Optional[float] = _field("pa", PRESET_FEEDBACK_SNR_DB)
    # [signal]
    seed: int = _field("signal", 1)
    n_samples: int = _field("signal", DEFAULT_N_SAMPLES)
    bandwidth_fraction: float = _field("signal", DEFAULT_BANDWIDTH_FRACTION)
    # [model]
    kind: str = _field("model", "mpm", reader=_word)
    taps: int = _field("model", 4)
    post_taps: int = _field("model", TapWindow.post_taps)
    k_orders: int = _field("model", DpdModelSpec.k_orders)
    n_experts: int = _field("model", DpdModelSpec.n_experts)
    n1: int = _field("model", DpdModelSpec.n1)
    n2: int = _field("model", DpdModelSpec.n2)
    ridge: Optional[float] = _field("model", DpdModelSpec.ridge)
    warm_start: bool = _field("model", DpdModelSpec.warm_start, reader=_bool)
    # [train] — keys are TrainConfig's field names
    learning_rate: float = _field("train", TrainConfig.learning_rate)
    beta1: float = _field("train", TrainConfig.beta1)
    beta2: float = _field("train", TrainConfig.beta2)
    epsilon: float = _field("train", TrainConfig.epsilon)
    batch_size: int = _field("train", TrainConfig.batch_size)
    segment_len: int = _field("train", TrainConfig.segment_len)
    max_epochs: int = _field("train", TrainConfig.max_epochs)
    patience: int = _field("train", TrainConfig.patience)
    train_seed: int = _field("train", TrainConfig.seed, key="seed")
    # [sweep]
    families: tuple = _field("sweep", FAMILIES, reader=_list_of(str))
    preset: str = _field("sweep", "high", reader=_word)
    taps_list: tuple = _field("sweep", DEFAULT_TAPS_LIST)
    param_targets: tuple = _field("sweep", DEFAULT_PARAM_TARGETS)
    seeds: tuple = _field("sweep", DEFAULT_SEEDS)
    budget_lo: int = _field("sweep", DpdModelSpec.budget[0])
    budget_hi: int = _field("sweep", DpdModelSpec.budget[1])
    nn_grid: tuple = _field("sweep", DEFAULT_NN_GRID)
    mpm_k_grid: tuple = _field("sweep", DEFAULT_MPM_K_GRID)
    sweep_taps: int = _field("sweep", DEFAULT_COMPLEXITY_TAPS, key="taps")

    def __post_init__(self) -> None:
        # A RunConfig holds only what its file text can say: each value is
        # rendered and read back by its key's reader, as parse_config would.
        for section, schema in _SCHEMA.items():
            for key, f in schema.items():
                value = getattr(self, f.name)
                try:
                    read = _READERS[f.name](_value_text(_render_value(value)))
                except ValueError as exc:
                    raise FormatError(f"[{section}] {key} {exc}") from None
                if read != value:
                    raise FormatError(f"[{section}] {key} = {value!r} reads back as {read!r}")
        # Build what each section describes once, so a value that every run
        # would reject fails the load instead.
        for section, build in (
                ("pa", self.pa_config),
                ("sweep", lambda: (self.pa_for_preset(self.preset), check_families(self.families),
                                   check_budget((self.budget_lo, self.budget_hi)))),
                ("model", self.model_spec)):
            try:
                build()
            except ValueError as exc:
                raise FormatError(f"[{section}] {exc}") from None

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
        return self.pa_config(drive_db=preset(level).drive_db)

    def preset_label(self) -> str:
        return next((level for level, db in PRESET_DRIVE_DB.items() if db == self.drive_db),
                    "custom")

    def window(self) -> TapWindow:
        if self.post_taps >= self.taps:
            raise ValueError(f"post_taps must be below taps ({self.taps}), got {self.post_taps}")
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


def _reader(f):
    """A field's value reader: its own, or else its key's rule, which reads
    each entry of a tuple and takes `none` for an Optional."""
    if f.metadata["reader"]:
        return f.metadata["reader"]
    read = RULES[f.metadata["key"] or f.name].parse
    if f.type == "tuple":
        return _list_of(read)
    return _optional(read) if f.type.startswith("Optional") else read


_SCHEMA = _schema()
_READERS = {f.name: _reader(f) for f in fields(RunConfig)}


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Parse sectioned key-value text into a RunConfig; defaults fill the gaps."""
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _value_text(raw)
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
            values[f.name] = _READERS[f.name](value)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    try:
        return RunConfig(**values)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_config(path) -> RunConfig:
    return parse_config(read_text(path), path=str(path))


def _value_text(text: str) -> str:
    """What parse_config keeps of `text`: its first line, cut at any `#` and
    stripped."""
    return (text.splitlines() or [""])[0].split("#", 1)[0].strip()


def _render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):  # a NumPy float64 too, written as a Python float
        return repr(float(value))
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
