"""Structured-text model persistence and the parameter tables behind it.

Layout: `key = value` header lines, then one `[name]` section per parameter
array.  Each section row is the integer indices of an entry followed by its
value (re and im columns for complex arrays).  Floats are written with 17
significant decimal digits after the leading digit, so a round trip is
value-exact for float64.

Every model family declares its parameter arrays once, as a ParamTable: its
file kind, size fields, header scalars and arrays, with the sizes, the
parameter count and the file reading that need no model.  Each family
subclasses ParamModel, which reads that declaration to validate a model on
construction, flatten it into the optimizer's parameter vector, view a flat
vector (a gradient) as its arrays, rebuild it from a vector, predict, and
save and load it; the family writes its own math and its decisions: its fit
and its sweep candidates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from .exceptions import FormatError
from .rules import RULES, check_all
from .signal import PREDICT_BLOCK_ROWS, ComplexSequence, TapWindow, predict_rows, read_text

MODEL_FORMAT = "DPDMODEL1"
SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return f"{float(value):.17e}"


def read_model(path):
    """Parse a model file into (kind, header dict, section rows, line numbers).

    Header values stay strings; section rows are token lists; the line
    numbers map each header key and each `[section]` to its line.  Raises
    FormatError on a bad magic line, an unsupported version, a repeated
    header key or section, or malformed structure.
    """
    text = read_text(path)
    scalars: dict[str, str] = {}
    sections: dict[str, list[list[str]]] = {}
    lines: dict[str, int] = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise FormatError(f"{path}:{line_no}: empty section name")
            _first_on(lines, f"[{current}]", line_no, path)
            sections[current] = []
            continue
        if current is None:
            if "=" not in line:
                raise FormatError(f"{path}:{line_no}: expected 'key = value' before sections")
            key, _, value = line.partition("=")
            key = key.strip()
            _first_on(lines, key, line_no, path)
            scalars[key] = value.strip()
        else:
            sections[current].append(line.split())
    if scalars.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: not a {MODEL_FORMAT} file")
    version = scalars.get("version")
    if version != str(SCHEMA_VERSION):
        raise FormatError(f"{path}: unsupported model file version {version!r}; "
                          f"expected {SCHEMA_VERSION}")
    kind = scalars.get("kind")
    if not kind:
        raise FormatError(f"{path}: missing model kind")
    return kind, scalars, sections, lines


def _first_on(lines: dict, name: str, line_no: int, path) -> None:
    """Record that header key or `[section]` `name` is on line `line_no`;
    FormatError naming both lines when an earlier line holds it."""
    if name in lines:
        raise FormatError(
            f"{path}:{line_no}: repeated field {name!r}, first on line {lines[name]}")
    lines[name] = line_no


def header_value(scalars: dict, key: str, path="model"):
    """Header field `key`, read by its rule (rules.RULES); FormatError naming
    `path` and the field when it is missing or breaks the rule."""
    if key not in scalars:
        raise FormatError(f"{path}: missing header field {key!r}")
    try:
        return RULES[key].parse(scalars[key])
    except ValueError as exc:
        raise FormatError(f"{path}: header field {key!r}: {exc}") from None


def _fill(rows, shape, n_values, index_offset, name, path):
    # Reject a short section before allocating, so a corrupt header size
    # cannot ask for an arbitrarily large array.
    n_entries = math.prod(shape)
    if len(rows) < n_entries:
        raise FormatError(f"{path}: section [{name}] has {len(rows)} rows, expected {n_entries}")
    arr = np.zeros(shape + (n_values,), dtype=np.float64)
    seen = np.zeros(shape, dtype=bool)
    n_idx = len(shape)
    offsets = index_offset or (0,) * n_idx
    for row in rows:
        if len(row) != n_idx + n_values:
            raise FormatError(f"{path}: section [{name}] row has {len(row)} fields, expected {n_idx + n_values}")
        try:
            idx = tuple(int(t) - o for t, o in zip(row[:n_idx], offsets))
            values = [float(t) for t in row[n_idx:]]
        except ValueError:
            raise FormatError(f"{path}: section [{name}] has a malformed row") from None
        if any(i < 0 or i >= s for i, s in zip(idx, shape)):
            raise FormatError(f"{path}: section [{name}] index {row[:n_idx]} out of range")
        if seen[idx]:
            raise FormatError(f"{path}: section [{name}] repeats index {' '.join(row[:n_idx])}")
        arr[idx] = values
        seen[idx] = True
    if not seen.all():
        raise FormatError(f"{path}: section [{name}] is missing entries")
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: section [{name}] has a non-finite value")
    return arr


@dataclass(frozen=True)
class Param:
    """One parameter array of a model family.

    `shape` maps the model's sizes (`n_taps` plus the family's header size
    fields) to the array shape.  `tap_axis` is the axis indexed by tap
    position; the file writes that index as the tap delay, position minus
    post_taps.
    """

    attr: str
    section: str
    shape: Callable[[Mapping[str, int]], tuple]
    is_complex: bool = False
    tap_axis: Optional[int] = None

    def index_offsets(self, ndim: int, window: TapWindow) -> tuple:
        return tuple(-window.post_taps if axis == self.tap_axis else 0 for axis in range(ndim))


@dataclass(frozen=True)
class ParamTable:
    """A model family's parameters, declared: its file kind, the header size
    fields and then the header scalars, each read off the model by attribute,
    and its arrays in flat-vector and file order.  It holds only what needs
    no model instance (dims, count, load); ParamModel reads it for the rest."""

    kind: str
    sizes: tuple
    params: tuple
    scalars: tuple = ()

    def dims(self, obj) -> dict:
        """`n_taps` and the size fields of a model or a model spec, read off it
        by attribute, each held to its rule."""
        return check_all(n_taps=obj.window.n_taps,
                         **{name: getattr(obj, name) for name in self.sizes})

    def count(self, dims: Mapping[str, int]) -> int:
        """Length of the flat parameter vector at these sizes: the real
        trainable degrees of freedom, two per complex entry."""
        return sum(math.prod(p.shape(dims)) * (2 if p.is_complex else 1) for p in self.params)

    def load(self, path, parsed):
        """Turn `parsed`, the (kind, header, sections, lines) that read_model
        returned for the file at `path`, into (window, fields, arrays):
        `fields` holds the table's size fields and scalars, each read by its
        rule.

        A header key or a section the table does not declare, header fields
        that break their rules and sections with fewer rows than entries
        raise FormatError naming `path` before any array is allocated.
        """
        kind, header, sections, lines = parsed
        if kind != self.kind:
            raise FormatError(f"{path}: expected kind {self.kind!r}, found {kind!r}")
        declared = {"format", "version", "kind", "pre_taps", "post_taps",
                    *self.sizes, *self.scalars, *(f"[{p.section}]" for p in self.params)}
        for name, line_no in lines.items():
            if name not in declared:
                raise FormatError(f"{path}:{line_no}: unknown {kind} model field {name!r}")
        window = TapWindow(pre_taps=header_value(header, "pre_taps", path),
                           post_taps=header_value(header, "post_taps", path))
        fields = {name: header_value(header, name, path) for name in self.sizes + self.scalars}
        dims = {"n_taps": window.n_taps, **fields}
        arrays = {}
        for p in self.params:
            if p.section not in sections:
                raise FormatError(f"{path}: missing section [{p.section}]")
            shape = p.shape(dims)
            values = _fill(sections[p.section], shape, 2 if p.is_complex else 1,
                           p.index_offsets(len(shape), window), p.section, path)
            arrays[p.attr] = values[..., 0] + 1j * values[..., 1] if p.is_complex else values[..., 0]
        return window, fields, arrays


class ParamModel:
    """The protocol every model family shares, read off its `PARAMS` table:
    validation on construction, the flat parameter vector and its views, the
    trainable count, predict and the model file.  A subclass is a frozen
    dataclass with a `window`; it sets `PARAMS` and defines what `ila` calls:
    `fit(psi, phi, spec, cfg, seed) -> FitOutcome`, its search inside, and
    the specs of `tap_sweep_spec(base, budget, **grids)` and
    `complexity_specs(base, **grids)`, each a base ila.DpdModelSpec replaced.
    Registered in ila.MODEL_CLASSES by its PARAMS.kind, it reaches every command.

    Every family defines its output kernel `output_rows(rows)`, the complex
    output of the rows of a tap matrix, which predict runs through
    signal.predict_rows and every validation score runs on the scored rows
    of training.segment_pairs.  A trained family also defines its rows kernel,
    `loss_rows(rows, target_rows, grads) -> loss`: the mean |output - target|^2
    over the rows of a tap matrix and their target samples, with its exact
    gradient written into every entry of `grads`, the param_views of one flat
    vector.  training.train calls the kernel directly; loss_and_gradient wraps
    it for one (input, target) pair."""

    PARAMS: ParamTable

    def __post_init__(self) -> None:
        """Coerce the arrays to float64/complex128, check every size is at
        least 1 and every array's shape and finiteness, and make them
        read-only."""
        for p in self.PARAMS.params:
            arr = np.array(getattr(self, p.attr), dtype=np.complex128 if p.is_complex else np.float64)
            object.__setattr__(self, p.attr, arr)
        dims = self.PARAMS.dims(self)
        for p in self.PARAMS.params:
            arr = getattr(self, p.attr)
            if arr.shape != p.shape(dims):
                raise ValueError(f"{p.attr} shape {arr.shape} != {p.shape(dims)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")
            arr.flags.writeable = False

    def param_vector(self) -> np.ndarray:
        """The arrays concatenated in PARAMS order; a complex array
        contributes interleaved (re, im) pairs."""
        return np.concatenate([getattr(self, p.attr).reshape(-1).view(np.float64)
                               for p in self.PARAMS.params])

    def n_params(self) -> int:
        """Real trainable degrees of freedom (two per complex coefficient):
        the length of param_vector, read off the arrays, which construction
        checked against PARAMS.count."""
        return sum(getattr(self, p.attr).size * (2 if p.is_complex else 1)
                   for p in self.PARAMS.params)

    def params_formula(self) -> int:
        """The parameter count sweeps report; a family may override it."""
        return self.n_params()

    @classmethod
    def fit_options(cls, spec) -> tuple:
        """The ila.DpdModelSpec fields besides the window and the PARAMS.sizes
        that `fit` reads for `spec`; a family that reads any overrides it."""
        return ()

    def predict(self, x) -> ComplexSequence:
        """output_rows on x by signal.predict_rows, one block of rows at a time."""
        return predict_rows(x, self.window, self.output_rows)

    def param_views(self, vec: np.ndarray) -> dict:
        """The arrays of a flat vector laid out like this model's parameters,
        as views of it in PARAMS order: the inverse of param_vector.  A
        family's rows kernel writes each gradient into these views of one
        vector, and a caller that wants one gradient array per parameter
        reads them."""
        views = {}
        pos = 0
        for p in self.PARAMS.params:
            arr = getattr(self, p.attr)
            stop = pos + arr.size * (2 if p.is_complex else 1)
            piece = vec[pos:stop]
            views[p.attr] = (piece.view(np.complex128) if p.is_complex else piece).reshape(arr.shape)
            pos = stop
        return views

    def with_param_vector(self, vec: np.ndarray):
        """A copy of this model whose arrays are read-only views of one
        float64 copy of the flat vector `vec`.

        `vec` is checked once, for its length and finiteness; the model's
        other fields carry over as they are, and nothing else it holds (a
        cache) does.
        """
        vec = np.array(vec, dtype=np.float64)
        size = self.n_params()
        if vec.shape != (size,):
            raise ValueError(f"parameter vector must have {size} entries, got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("model parameters must be finite")
        vec.flags.writeable = False
        rebuilt = object.__new__(type(self))
        vars(rebuilt).update({f.name: getattr(self, f.name) for f in dataclasses.fields(self)})
        vars(rebuilt).update(self.param_views(vec))
        return rebuilt

    def loss_and_gradient(self, x, target) -> tuple[float, np.ndarray]:
        """The rows kernel on the rows a loss scores (TapWindow.scored_rows):
        the mean |output - target|^2 and its gradient, one new flat vector in
        PARAMS order."""
        rows, target_rows = self.window.scored_rows(x, target)
        grad = np.empty(self.n_params())
        return self.loss_rows(rows, target_rows, self.param_views(grad)), grad

    def _row_tiles(self, n_rows: int) -> tuple:
        """The family's `_tile_rows(rows)` arrays, whose second-to-last axis
        repeats per-row constants down `rows` rows, cut to their first
        `n_rows` rows.  A same-shape add or product with a tile replaces a
        broadcast one: numpy runs an (N, k) array op with a (k,) row as N
        inner loops of k elements, and gives each element the same bits
        either way.  Built once per model, for the most rows asked of it so
        far and at least PREDICT_BLOCK_ROWS + 1 (predict's largest block), so
        one build serves a training step's gradients and a validation score;
        with_param_vector's copy starts without them."""
        built = self.__dict__.get("_tiles")
        if built is None or built[0] < n_rows:
            rows = max(n_rows, PREDICT_BLOCK_ROWS + 1)
            tiles = self._tile_rows(rows)
            for tile in tiles:
                tile.flags.writeable = False
            built = (rows, tiles)
            object.__setattr__(self, "_tiles", built)
        return tuple(tile[..., :n_rows, :] for tile in built[1])

    def save(self, path) -> None:
        """Write the header (taps, size fields, then scalars) and one section
        per PARAMS entry, each row an entry's indices (a tap axis's as the tap
        delay) and its value (re and im for a complex array)."""
        table, window = self.PARAMS, self.window
        lines = [f"format = {MODEL_FORMAT}", f"version = {SCHEMA_VERSION}", f"kind = {table.kind}",
                 f"pre_taps = {window.pre_taps}", f"post_taps = {window.post_taps}"]
        lines += [f"{name} = {getattr(self, name)}" for name in table.sizes]
        lines += [f"{name} = {_fmt(getattr(self, name))}" for name in table.scalars]
        for p in table.params:
            arr = getattr(self, p.attr)
            offsets = p.index_offsets(arr.ndim, window)
            values = arr.view(np.float64).reshape(arr.shape + (-1,))  # (re, im) or (value,)
            lines += ["", f"[{p.section}]"]
            lines += [" ".join([*(str(i + o) for i, o in zip(idx, offsets)), *map(_fmt, values[idx])])
                      for idx in np.ndindex(arr.shape)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_parsed(cls, path, parsed):
        """The model in the file at `path`, parsed by read_model, from the
        header fields that are fields of the class (not a size read off an array)."""
        window, fields, arrays = cls.PARAMS.load(path, parsed)
        own = {f.name for f in dataclasses.fields(cls)}
        return cls(window=window, **{k: v for k, v in fields.items() if k in own}, **arrays)

    @classmethod
    def load(cls, path):
        return cls.from_parsed(path, read_model(path))
