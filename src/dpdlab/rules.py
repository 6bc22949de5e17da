"""Value rules: the bounds of every number a user gives dpdlab, declared once.

`RULES` maps each value's name (its run-config key, model-file header field
and API argument) to its Rule.  Every front end reads the value through it and
adds only the place it names, so one message reads the same everywhere:
`argument --k: `, `run.cfg:3: bad value for 'k_orders': `, `m.model: header
field 'k_orders': ` or, from `check`, `k_orders ` before `must be at least 1,
got 0`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Rule:
    """An integer (`kind` int) or a finite float (`kind` float), and the
    bounds it keeps: at least or above a lowest value, at most or below a
    highest one."""

    kind: type = float
    at_least: Optional[float] = None
    above: Optional[float] = None
    at_most: Optional[float] = None
    below: Optional[float] = None

    def problem(self, value) -> Optional[str]:
        """What is wrong with `value`, as `must be ..., got <value>`; None when
        it keeps the rule."""
        if self.kind is int:
            try:
                operator.index(value)
            except TypeError:
                return f"must be an integer, got {value}"
        elif not math.isfinite(value):
            return f"must be finite, got {value}"
        for bound, broken, words in ((self.at_least, operator.lt, "at least"),
                                     (self.above, operator.le, "above"),
                                     (self.at_most, operator.gt, "at most"),
                                     (self.below, operator.ge, "below")):
            if bound is not None and broken(value, bound):
                return f"must be {words} {bound}, got {value}"
        return None

    def parse(self, text: str):
        """The value `text` spells, held to the rule; ValueError saying what is
        wrong otherwise."""
        try:
            value = self.kind(text)
        except ValueError:
            raise ValueError(f"expected {'an integer' if self.kind is int else 'a number'}, "
                             f"got {text!r}") from None
        problem = self.problem(value)
        if problem:
            raise ValueError(problem)
        return value


_COUNT = Rule(int, at_least=1)  # a tap count, an order count, a width, a size
_NATURAL = Rule(int, at_least=0)  # a seed, or the taps to one side of the current sample
_FINITE = Rule(float)
_POSITIVE = Rule(float, above=0)
_BETA = Rule(float, at_least=0, below=1)

RULES = {
    # [pa]: outside ±300 dB the driven samples turn subnormal, or overflow the
    # limiter's sixth power or the PA polynomial.
    "drive_db": Rule(float, at_least=-300, at_most=300), "rho": _FINITE, "sigma": _FINITE,
    "l_pa": _NATURAL, "k_pa": _COUNT, "a_sat": _POSITIVE, "feedback_snr_db": _POSITIVE,
    # [signal] and waveform files
    "seed": _NATURAL, "n_samples": Rule(int, at_least=64), "count": _COUNT,
    "bandwidth_fraction": Rule(float, above=0, at_most=1), "sample_rate_hint": _POSITIVE,
    # [model] and model-file headers
    **dict.fromkeys(("taps", "n_taps", "k_orders", "n_experts", "n1", "n2"), _COUNT),
    "pre_taps": _NATURAL, "post_taps": _NATURAL, "ridge": Rule(float, at_least=0),
    "amp_offset": _FINITE,
    # [train]
    "learning_rate": _POSITIVE, "beta1": _BETA, "beta2": _BETA, "epsilon": _POSITIVE,
    **dict.fromkeys(("batch_size", "segment_len", "max_epochs", "patience"), _COUNT),
    # [sweep]: a list's rule holds for each entry
    **dict.fromkeys(("taps_list", "param_targets", "nn_grid", "mpm_k_grid"), _COUNT),
    "seeds": _NATURAL, "budget_lo": Rule(int), "budget_hi": Rule(int),
    # runs and their reports
    "n_iterations": _COUNT, "threshold": Rule(float, at_least=0),
    **dict.fromkeys(("postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db"), _FINITE),
}


def check(name: str, value, rule: Optional[str] = None):
    """`value`, the API argument `name`, held to the rule of `rule` (by default
    of `name`): ValueError `<name> must be ..., got <value>` otherwise."""
    problem = RULES[rule or name].problem(value)
    if problem:
        raise ValueError(f"{name} {problem}")
    return value


def check_all(**values) -> dict:
    """`values`, each held to the rule of its name."""
    return {name: check(name, value) for name, value in values.items()}
