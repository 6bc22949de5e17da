"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 runtime error.  Diagnostics go to
stderr; data goes to files or stdout.  Waveform files are binary IQ unless the
path ends in .csv.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import ila
from .config import RunConfig, load_config, render_config
from .exceptions import DpdlabError, FormatError
from .mpm import MpmSpec, build_basis, ls_fit
from .pa_sim import PRESET_DRIVE_DB, pa_forward
from .rules import RULES
from .signal import (ComplexSequence, deserialize_iq, generate_waveform, nmse_db, read_iq_csv,
                     read_text, serialize_iq, write_iq_csv)
from .training import FINITE_DIFF_MAX_PARAMS, finite_diff_check

GRADCHECK_THRESHOLD = 1e-4


class _UsageError(Exception):
    pass


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Adds a flag's default to its help only when it has one."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through an exception (exit code 1)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _flag(name: str):
    """argparse type of a flag whose value keeps the rule of `name`."""
    def read(text: str):
        try:
            return RULES[name].parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    read.rule = name
    return read


# (flag, help) over each [model] value, by RunConfig field: `fit` takes all, `gradcheck`
# the taps and sizes.  --cold-start sets warm_start to false.
_FIT_MODEL_FLAGS = {"taps": ("--taps", "total tap count"),
                    "post_taps": ("--post-taps", "taps ahead of the current sample"),
                    "k_orders": ("--k", "number of even-order terms"),
                    "n_experts": ("--experts", "number of experts"),
                    "n1": ("--n1", "first hidden width"), "n2": ("--n2", "second hidden width"),
                    "ridge": ("--ridge", "least-squares regularizer"),
                    "warm_start": ("--cold-start", "skip the least-squares warm start")}
_ALL_SIZES = dict.fromkeys(name for cls in ila.MODEL_CLASSES.values() for name in cls.PARAMS.sizes)
_ALL_OPTIONS = dict.fromkeys(name for cls in ila.MODEL_CLASSES.values() for name in cls.FIT_OPTIONS)
_TRAINED = tuple(kind for kind, cls in ila.MODEL_CLASSES.items() if hasattr(cls, "loss_rows"))


# ----------------------------------------------------------------------
# waveform I/O by extension
# ----------------------------------------------------------------------


def _read_waveform(path) -> ComplexSequence:
    if str(path).endswith(".csv"):
        return read_iq_csv(path)
    return deserialize_iq(path)


def _write_waveform(seq: ComplexSequence, path) -> None:
    if str(path).endswith(".csv"):
        write_iq_csv(seq, path)
    else:
        serialize_iq(seq, path)


def _load_run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return RunConfig()


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _write_report(reports: list, out) -> None:
    """Write report rows as CSV to `out`, or to stdout when `out` is None."""
    text = ila.reports_to_csv(reports)
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------


def _cmd_gen_signal(args) -> int:
    seq = generate_waveform(args.seed, args.n, args.bandwidth, args.sample_rate)
    _write_waveform(seq, args.out)
    print(f"wrote {args.n} samples to {args.out}", file=sys.stderr)
    return 0


def _cmd_simulate_pa(args) -> int:
    cfg = _load_run_config(args)
    if args.noise_seed is not None and cfg.feedback_snr_db is None:
        raise _UsageError("dpdlab simulate-pa: --noise-seed: no feedback noise to seed "
                          "with [pa] feedback_snr_db = none")
    pa = cfg.pa_config(drive_db=PRESET_DRIVE_DB[args.preset] if hasattr(args, "preset") else None)
    seq = _read_waveform(args.infile)
    out = pa_forward(pa, seq, noise_seed=args.noise_seed)
    _write_waveform(out, args.out)
    print(f"amplified {len(seq)} samples -> {args.out}", file=sys.stderr)
    return 0


def _fit_config(args) -> RunConfig:
    """The run config with the model flags over its [model] values.  A flag
    the --model family's fit never reads (another family's size, or an option
    such as --ridge) is a usage error.  The file loaded cleanly, so a value
    every run would reject comes from the flags: a usage error naming them."""
    cls = ila.MODEL_CLASSES[args.model]
    for what, names, reads in (("a size", _ALL_SIZES, cls.PARAMS.sizes),
                               ("an option", _ALL_OPTIONS, cls.FIT_OPTIONS)):
        stray = [_FIT_MODEL_FLAGS[n][0] for n in names if hasattr(args, n) and n not in reads]
        if stray:
            raise _UsageError(f"dpdlab {args.command}: {' '.join(stray)}: not {what} of {args.model}")
    cfg = _load_run_config(args)
    given = {name: getattr(args, name) for name in _FIT_MODEL_FLAGS if hasattr(args, name)}
    try:
        return dataclasses.replace(cfg, kind=args.model, **given)
    except FormatError as exc:
        flags = " ".join(_FIT_MODEL_FLAGS[name][0] for name in given)
        raise _UsageError(f"dpdlab {args.command}: {flags}: {exc}") from None


def _cmd_fit(args) -> int:
    cfg = _fit_config(args)
    psi = _read_waveform(args.infile)
    phi = _read_waveform(args.target)
    if len(psi) != len(phi):
        raise DpdlabError(f"input has {len(psi)} samples but target has {len(phi)}")
    spec = cfg.model_spec()
    if spec.kind == "mpm":
        # Exact least squares over every sample; the residual is the number
        # `eval` prints for the saved model on the same pair.
        coeffs = ls_fit(build_basis(psi, MpmSpec(window=spec.window, k_orders=spec.k_orders)),
                        phi.samples, ridge=spec.ridge)
        coeffs.save(args.out)
        resid = nmse_db(coeffs.predict(psi), phi)
        print(f"fit residual {resid:.6f} dB -> {args.out}", file=sys.stderr)
        return 0
    outcome = ila.fit_model_on_data(psi.samples, phi.samples, spec,
                                    cfg.train_config(), seed=args.seed)
    outcome.model.save(args.out)
    print(f"held-out NMSE {outcome.postinv_nmse_db:.6f} dB -> {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    model = ila.load_model(args.model_file)
    psi = _read_waveform(args.infile)
    phi = _read_waveform(args.target)
    # The model and the input are both checked by now, so predict fails only
    # where the model's output sequence is not finite: a finite input of large
    # amplitude can overflow a polynomial's powers.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = model.predict(psi)
    except ValueError:
        raise DpdlabError(f"{args.model_file}: the model's output is not finite "
                          f"on {args.infile}") from None
    value = nmse_db(predicted, phi)
    print(f"{value:.12f}")
    return 0


def _cmd_ila_run(args) -> int:
    cfg = _load_run_config(args)
    report = ila.run_ila(
        cfg.pa_config(), cfg.preset_label(), cfg.model_spec(), cfg.seed,
        n_samples=cfg.n_samples, bandwidth_fraction=cfg.bandwidth_fraction,
        cfg=cfg.train_config(), n_iterations=args.iterations)
    _write_report([report], args.out)
    return 0


def _cmd_sweep_taps(args) -> int:
    cfg = _load_run_config(args)
    rows = ila.sweep_taps(
        cfg.pa_config(), cfg.preset_label(), taps_list=cfg.taps_list,
        seeds=cfg.seeds, families=cfg.families, budget=(cfg.budget_lo, cfg.budget_hi),
        n_samples=cfg.n_samples, bandwidth_fraction=cfg.bandwidth_fraction,
        cfg=cfg.train_config(), nn_grid=cfg.nn_grid, mpm_k_grid=cfg.mpm_k_grid)
    _write_report(rows, args.out)
    print(f"{len(rows)} sweep rows", file=sys.stderr)
    return 0


def _cmd_sweep_complexity(args) -> int:
    cfg = _load_run_config(args)
    pa_by_preset = {level: cfg.pa_config(drive_db=db) for level, db in PRESET_DRIVE_DB.items()}
    rows = ila.sweep_complexity(
        pa_by_preset, taps=cfg.sweep_taps, param_targets=cfg.param_targets,
        seeds=cfg.seeds, families=cfg.families, n_samples=cfg.n_samples,
        bandwidth_fraction=cfg.bandwidth_fraction, cfg=cfg.train_config(),
        mpm_k_grid=cfg.mpm_k_grid)
    _write_report(rows, args.out)
    print(f"{len(rows)} sweep rows", file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = _fit_config(args)
    cls = ila.MODEL_CLASSES[cfg.kind]
    sizes = {name: getattr(cfg, name) for name in cls.PARAMS.sizes}
    model = cls.init(cfg.window(), **sizes, seed=args.seed)
    if model.n_params() > FINITE_DIFF_MAX_PARAMS:
        flags = " ".join(f"{_FIT_MODEL_FLAGS[n][0]} {v}" for n, v in {"taps": cfg.taps, **sizes}.items())
        raise _UsageError(f"dpdlab gradcheck: {flags}: {model.n_params()} parameters; "
                          f"the finite-difference check takes at most {FINITE_DIFF_MAX_PARAMS}")
    psi = generate_waveform(args.seed, args.n, 0.5)
    phi = generate_waveform(args.seed + 1, args.n, 0.5)
    worst = finite_diff_check(model, psi.samples, phi.samples)
    print(f"{worst:.3e}")
    if not worst <= args.threshold:  # a NaN worst fails too
        print(f"gradient check failed: {worst:.3e} > {args.threshold:.3e}", file=sys.stderr)
        return 2
    return 0


def _read_report(path) -> list[dict]:
    """A sweep report's rows, each checked for its field count and each
    numeric cell for its column's rule; a blank cell is an infeasible one."""
    header = list(ila.REPORT_COLUMNS)
    reader = csv.reader(read_text(path).splitlines())
    fieldnames = next(reader, None)
    if fieldnames != header:
        raise DpdlabError(f"{path}: not a sweep report (header {fieldnames})")
    rows = []
    for fields in reader:
        if not fields:
            continue
        where = f"{path}:{reader.line_num}"
        if len(fields) != len(header):
            raise FormatError(f"{where}: row has {len(fields)} fields, expected {len(header)}")
        row = dict(zip(header, fields))
        for key in header:
            try:
                if row[key] and key in RULES:
                    RULES[key].parse(row[key])
            except ValueError as exc:
                raise FormatError(f"{where}: bad value for {key!r}: {exc}") from None
        rows.append(row)
    return rows


def _groups(rows) -> list:
    """Report rows grouped by (family, preset), as sorted (key, rows) pairs."""
    groups = {}
    for row in rows:
        groups.setdefault((row["family"], row["preset"]), []).append(row)
    return sorted(groups.items())


def _summarize(groups: list) -> str:
    lines = ["family,preset,rows,feasible,mean_postinv_nmse_db,mean_lin_nmse_db,best_lin_nmse_db"]
    for (family, level), cells in groups:
        lin = [float(r["lin_nmse_db"]) for r in cells if r["lin_nmse_db"]]
        post = [float(r["postinv_nmse_db"]) for r in cells if r["postinv_nmse_db"]]
        mean_post = f"{np.mean(post):.6f}" if post else "n/a"
        mean_lin = f"{np.mean(lin):.6f}" if lin else "n/a"
        best_lin = f"{min(lin):.6f}" if lin else "n/a"
        lines.append(f"{family},{level},{len(cells)},{len(lin)},{mean_post},{mean_lin},{best_lin}")
    return "\n".join(lines) + "\n"


def _dat_mirror(groups: list) -> str:
    """Gnuplot-friendly mirror: one block per (family, preset), blank-line separated."""
    blocks = []
    for (family, level), cells in groups:
        lines = [f"# family={family} preset={level}",
                 "# taps params_actual seed postinv_nmse_db lin_nmse_db no_dpd_nmse_db"]
        for r in cells:
            lines.append(" ".join([
                r["taps"], r["params_actual"] or "nan", r["seed"],
                r["postinv_nmse_db"] or "nan", r["lin_nmse_db"] or "nan",
                r["no_dpd_nmse_db"] or "nan"]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _cmd_report(args) -> int:
    groups = _groups(_read_report(args.infile))
    sys.stdout.write(_summarize(groups))
    if args.dat:
        _write_text(args.dat, _dat_mirror(groups))
        print(f"gnuplot mirror -> {args.dat}", file=sys.stderr)
    return 0


def _cmd_show_config(args) -> int:
    sys.stdout.write(render_config(_load_run_config(args)))
    return 0


# ----------------------------------------------------------------------
# parser construction
# ----------------------------------------------------------------------


def _add_config_flag(p) -> None:
    p.add_argument("--config", default=None, help="run-config file (defaults apply if omitted)")


def _add_model_flags(p, names) -> None:
    for name in names:
        flag, help_text = _FIT_MODEL_FLAGS[name]
        how = {"action": "store_false"} if name == "warm_start" else {"type": _flag(name)}
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                       help=f"{help_text} (default: [model] {name})", **how)


def build_parser() -> _Parser:
    parser = _Parser(prog="dpdlab", description=__doc__, formatter_class=_HelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           formatter_class=_HelpFormatter)
        p.set_defaults(func=func)
        return p

    p = add("gen-signal", _cmd_gen_signal, "generate a band-limited unit-RMS test waveform")
    p.add_argument("--seed", type=_flag("seed"), required=True)
    p.add_argument("--n", type=_flag("n_samples"), required=True, help="number of samples")
    p.add_argument("--bandwidth", type=_flag("bandwidth_fraction"),
                   default=ila.DEFAULT_BANDWIDTH_FRACTION, help="occupied fraction of fs")
    p.add_argument("--sample-rate", type=_flag("sample_rate_hint"), default=1.0,
                   help="informational rate hint")
    p.add_argument("--out", required=True, help="output waveform (.iq binary or .csv)")

    p = add("simulate-pa", _cmd_simulate_pa, "run a waveform through the simulated amplifier")
    p.add_argument("--in", dest="infile", required=True, help="input waveform")
    p.add_argument("--out", required=True, help="output waveform")
    p.add_argument("--preset", choices=tuple(PRESET_DRIVE_DB), default=argparse.SUPPRESS,
                   help="drive preset (default: [pa] drive_db)")
    _add_config_flag(p)
    p.add_argument("--noise-seed", type=_flag("seed"), default=None,
                   help="enable feedback noise at [pa] feedback_snr_db with this seed")

    p = add("fit", _cmd_fit, "fit a postinverse model on an (input, target) waveform pair")
    p.add_argument("--model", choices=ila.FAMILIES, required=True)
    _add_model_flags(p, _FIT_MODEL_FLAGS)
    p.add_argument("--seed", type=_flag("seed"), default=0, help="initialization seed")
    p.add_argument("--in", dest="infile", required=True, help="model input waveform")
    p.add_argument("--target", required=True, help="desired output waveform")
    p.add_argument("--out", required=True, help="model file to write")
    _add_config_flag(p)

    p = add("eval", _cmd_eval, "print a model's NMSE (dB) on an (input, target) pair")
    p.add_argument("--model-file", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", required=True)

    p = add("ila-run", _cmd_ila_run, "one indirect-learning cell: fit, deploy, evaluate")
    _add_config_flag(p)
    p.add_argument("--iterations", type=_flag("n_iterations"), default=1,
                   help="inverse-learning passes")
    p.add_argument("--out", default=None, help="write the one-row report CSV here")

    p = add("sweep-taps", _cmd_sweep_taps, "NMSE vs tap count across model families")
    _add_config_flag(p)
    p.add_argument("--out", default=None, help="report CSV path (stdout if omitted)")

    p = add("sweep-complexity", _cmd_sweep_complexity,
            "NMSE vs parameter budget at fixed taps, both drive presets")
    _add_config_flag(p)
    p.add_argument("--out", default=None, help="report CSV path (stdout if omitted)")

    p = add("gradcheck", _cmd_gradcheck,
            "compare analytic and finite-difference gradients on a seeded model")
    p.add_argument("--model", choices=_TRAINED, default=_TRAINED[0], help="model family")
    _add_model_flags(p, ("taps", *_ALL_SIZES))
    p.add_argument("--seed", type=_flag("seed"), default=0,
                   help="model and check-waveform seed")
    p.add_argument("--n", type=_flag("n_samples"), default=256, help="check-waveform length")
    p.add_argument("--threshold", type=_flag("threshold"), default=GRADCHECK_THRESHOLD,
                   help="largest relative gradient error that passes")

    p = add("report", _cmd_report, "summarize a sweep CSV; optionally mirror to gnuplot .dat")
    p.add_argument("--in", dest="infile", required=True, help="sweep report CSV")
    p.add_argument("--dat", default=None, help="write a gnuplot-compatible mirror here")

    p = add("show-config", _cmd_show_config,
            "print the fully resolved run configuration")
    _add_config_flag(p)

    return parser


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits zero
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DpdlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
