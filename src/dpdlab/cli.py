"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 runtime error.  Diagnostics go to
stderr; data goes to files or stdout.  Waveform files are binary IQ unless the
path ends in .csv.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import ila
from .agmpnn import AgmpnnModel
from .config import RunConfig, load_config, render_config
from .exceptions import DpdlabError
from .mpm import MpmSpec, build_basis, ls_fit
from .pa_sim import pa_forward, preset
from .rvftdnn import RvftdnnModel
from .signal import (ComplexSequence, TapWindow, deserialize_iq, generate_waveform, nmse_db,
                     read_iq_csv, read_text, serialize_iq, write_iq_csv)
from .training import TrainConfig, finite_diff_check

GRADCHECK_THRESHOLD = 1e-4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through an exception (exit code 1)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    if args.config:
        cfg = load_config(args.config).pa_config()
    else:
        cfg = preset(args.preset)
    seq = _read_waveform(args.infile)
    out = pa_forward(cfg, seq, noise_seed=args.noise_seed)
    _write_waveform(out, args.out)
    print(f"amplified {len(seq)} samples -> {args.out}", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    if args.post_taps < 0:
        raise _UsageError(f"dpdlab fit: --post-taps must be non-negative, got {args.post_taps}")
    if args.taps <= args.post_taps:
        raise _UsageError(
            f"dpdlab fit: --taps ({args.taps}) must exceed --post-taps ({args.post_taps})")
    psi = _read_waveform(args.infile)
    phi = _read_waveform(args.target)
    if len(psi) != len(phi):
        raise DpdlabError(f"input has {len(psi)} samples but target has {len(phi)}")
    run_cfg = _load_run_config(args)
    window = TapWindow(pre_taps=args.taps - 1 - args.post_taps, post_taps=args.post_taps)
    if args.model == "mpm":
        # Exact least squares over every sample, so `eval` on the same pair
        # reproduces the fit residual.
        basis = build_basis(psi, MpmSpec(window=window, k_orders=args.k))
        coeffs = ls_fit(basis, phi.samples, ridge=args.ridge)
        coeffs.save(args.out)
        resid = nmse_db(basis.data @ coeffs.coeff.reshape(-1), phi.samples)
        print(f"fit residual {resid:.6f} dB -> {args.out}", file=sys.stderr)
        return 0
    spec = ila.DpdModelSpec(
        kind=args.model, window=window, k_orders=args.k, n_experts=args.experts,
        n1=args.n1, n2=args.n2, ridge=args.ridge, warm_start=not args.cold_start)
    outcome = ila.fit_model_on_data(psi.samples, phi.samples, spec,
                                    run_cfg.train_config(), seed=args.seed)
    outcome.model.save(args.out)
    print(f"held-out NMSE {outcome.postinv_nmse_db:.6f} dB -> {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    model = ila.load_model(args.model_file)
    psi = _read_waveform(args.infile)
    phi = _read_waveform(args.target)
    value = nmse_db(model.predict(psi), phi)
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
        cfg.pa_for_preset(cfg.preset), cfg.preset, taps_list=cfg.taps_list,
        seeds=cfg.seeds, families=cfg.families, budget=(cfg.budget_lo, cfg.budget_hi),
        n_samples=cfg.n_samples, bandwidth_fraction=cfg.bandwidth_fraction,
        cfg=cfg.train_config(), nn_grid=cfg.nn_grid, mpm_k_grid=cfg.mpm_k_grid)
    _write_report(rows, args.out)
    print(f"{len(rows)} sweep rows", file=sys.stderr)
    return 0


def _cmd_sweep_complexity(args) -> int:
    cfg = _load_run_config(args)
    pa_by_preset = {level: cfg.pa_for_preset(level) for level in ("low", "high")}
    rows = ila.sweep_complexity(
        pa_by_preset, taps=cfg.sweep_taps, param_targets=cfg.param_targets,
        seeds=cfg.seeds, families=cfg.families, n_samples=cfg.n_samples,
        bandwidth_fraction=cfg.bandwidth_fraction, cfg=cfg.train_config(),
        mpm_k_grid=cfg.mpm_k_grid)
    _write_report(rows, args.out)
    print(f"{len(rows)} sweep rows", file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    window = TapWindow(pre_taps=args.taps - 1)
    if args.model == "agmpnn":
        model = AgmpnnModel.init(window, args.k, args.experts, seed=args.seed)
    else:
        model = RvftdnnModel.init(window, args.n1, args.n2, seed=args.seed)
    psi = generate_waveform(args.seed, args.n, 0.5)
    phi = generate_waveform(args.seed + 1, args.n, 0.5)
    worst = finite_diff_check(model, psi.samples, phi.samples)
    print(f"{worst:.3e}")
    if worst > args.threshold:
        print(f"gradient check failed: {worst:.3e} > {args.threshold:.3e}", file=sys.stderr)
        return 2
    return 0


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
    reader = csv.DictReader(read_text(args.infile).splitlines())
    if reader.fieldnames != ila.REPORT_HEADER.split(","):
        raise DpdlabError(f"{args.infile}: not a sweep report (header {reader.fieldnames})")
    groups = _groups(reader)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="dpdlab", description=__doc__,
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        return p

    p = add("gen-signal", _cmd_gen_signal, "generate a band-limited unit-RMS test waveform")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--bandwidth", type=float, default=0.25, help="occupied fraction of fs")
    p.add_argument("--sample-rate", type=float, default=1.0, help="informational rate hint")
    p.add_argument("--out", required=True, help="output waveform (.iq binary or .csv)")

    p = add("simulate-pa", _cmd_simulate_pa, "run a waveform through the simulated amplifier")
    p.add_argument("--in", dest="infile", required=True, help="input waveform")
    p.add_argument("--out", required=True, help="output waveform")
    p.add_argument("--preset", choices=("low", "high"), default="high")
    _add_config_flag(p)
    p.add_argument("--noise-seed", type=int, default=None,
                   help="enable feedback noise with this seed")

    p = add("fit", _cmd_fit, "fit a postinverse model on an (input, target) waveform pair")
    p.add_argument("--model", choices=ila.FAMILIES, required=True)
    p.add_argument("--taps", type=int, default=4, help="total tap count")
    p.add_argument("--post-taps", type=int, default=0, help="taps ahead of the current sample")
    p.add_argument("--k", type=int, default=ila.DpdModelSpec.k_orders,
                   help="number of even-order terms")
    p.add_argument("--experts", type=int, default=ila.DpdModelSpec.n_experts)
    p.add_argument("--n1", type=int, default=ila.DpdModelSpec.n1)
    p.add_argument("--n2", type=int, default=ila.DpdModelSpec.n2)
    p.add_argument("--ridge", type=float, default=None, help="least-squares regularizer")
    p.add_argument("--cold-start", action="store_true",
                   help="skip the least-squares warm start (agmpnn only)")
    p.add_argument("--seed", type=int, default=0, help="initialization seed")
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
    p.add_argument("--iterations", type=_positive_int, default=1,
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
    p.add_argument("--model", choices=("agmpnn", "rvftdnn"), default="agmpnn")
    p.add_argument("--taps", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--experts", type=int, default=2)
    p.add_argument("--n1", type=int, default=4)
    p.add_argument("--n2", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=256, help="check-waveform length")
    p.add_argument("--threshold", type=float, default=GRADCHECK_THRESHOLD)

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
