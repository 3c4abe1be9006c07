"""Command-line front end.

Four subcommands, each driven by a key=value configuration file:

    sweep      minimise output entropy across a correlation grid,
               write sweep.csv / sweep.svg, print the detected mu_c
    check      decide whether a transition must occur, print the verdict
    estimate   closed-form fidelity / linearized-entropy curves,
               write estimates.csv / estimates.svg, print the crossing
    validate   run the numerical invariant suites, report pass/fail

Exit codes: 0 success, 1 numerical or suite failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, optimize
from .channels import (CorrelatedChannel, apply_correlated, apply_phi_c,
                       pauli_column_probs, pauli_identity_residuals,
                       pauli_operator_set)
from .config import ConfigError, ExperimentConfig, build_channel, load_config
from .linalg import von_neumann_entropy
from .states import haar_random_unitary, invariance_check_me, max_entangled, \
    random_pure_state
from .svgplot import line_chart

_FMT = "%.12g"


def _fmt(value: float) -> str:
    return _FMT % value


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _sweep_csv(result: analysis.SweepResult, d: int) -> str:
    n_amp = d * d
    header = ["mu", "s_min_bits", "entanglement_bits", "i2_bits"]
    for i in range(n_amp):
        header += [f"amp_re_{i}", f"amp_im_{i}"]
    lines = [",".join(header)]
    cap = 2.0 * np.log2(d)
    for e in result.entries:
        row = [_fmt(e.mu), _fmt(e.min_entropy_bits), _fmt(e.entanglement_bits),
               _fmt(cap - e.min_entropy_bits)]
        for amp in e.optimal_amplitudes:
            row += [_fmt(amp.real), _fmt(amp.imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: ExperimentConfig) -> int:
    ch_base = build_channel(cfg)
    result = analysis.sweep(ch_base, cfg.mu_grid(), cfg.optimizer_config())
    for e in result.entries:  # a basin below both curves is a finding
        if e.min_entropy_bits < min(e.s_me_bits, e.s_sep_bits) - cfg.ftol:
            print(f"warning: mu={_fmt(e.mu)} search S={_fmt(e.min_entropy_bits)}"
                  f" is below both basin curves, S_me={_fmt(e.s_me_bits)} and "
                  f"S_sep={_fmt(e.s_sep_bits)}", file=sys.stderr)
    d = ch_base.dim
    if "csv" in cfg.outputs:
        _write_text(Path(cfg.out_dir) / "sweep.csv", _sweep_csv(result, d))
    if "svg" in cfg.outputs:
        svg = line_chart(
            [e.mu for e in result.entries],
            [("min output entropy [bits]",
              [e.min_entropy_bits for e in result.entries]),
             ("input entanglement [bits]",
              [e.entanglement_bits for e in result.entries])],
            title=f"{cfg.channel} d={d} minimum output entropy sweep",
            xlabel="correlation weight mu", ylabel="bits",
            vline=result.mu_c,
            vline_label=(f"mu_c={result.mu_c:.4g}" if result.mu_c is not None
                         else ""))
        _write_text(Path(cfg.out_dir) / "sweep.svg", svg)
    if result.mu_c is None:
        print("mu_c=none")
    else:
        print(f"mu_c={result.mu_c:.6g}")
    return 0


def cmd_check(cfg: ExperimentConfig) -> int:
    ch_base = build_channel(cfg)
    verdict = analysis.check_theorem(ch_base)
    if verdict.intersection_empty:
        print("transition_predicted=true")
    else:
        print("transition_predicted=false")
        amps = []
        for amp in verdict.witness:
            amps += [_fmt(amp.real), _fmt(amp.imag)]
        print("witness=" + ",".join(amps))
    return 0


def cmd_estimate(cfg: ExperimentConfig) -> int:
    if cfg.channel != "pauli_symmetric":
        raise ConfigError("estimate requires channel=pauli_symmetric")
    ch_base = build_channel(cfg)
    p = pauli_column_probs(ch_base)
    grid = cfg.mu_grid()
    rows = [analysis.analytic_estimates(cfg.dim, p, float(mu)) for mu in grid]
    lines = ["mu,f_me,f_s,r_me,r_s"]
    for mu, est in zip(grid, rows):
        lines.append(",".join([_fmt(mu), _fmt(est.f_me), _fmt(est.f_s),
                               _fmt(est.r_me), _fmt(est.r_s)]))
    if "csv" in cfg.outputs:
        _write_text(Path(cfg.out_dir) / "estimates.csv",
                    "\n".join(lines) + "\n")
    mu_cross = rows[0].mu_cross
    if "svg" in cfg.outputs:
        svg = line_chart(
            list(grid),
            [("F maximally entangled", [e.f_me for e in rows]),
             ("F separable", [e.f_s for e in rows]),
             ("R maximally entangled", [e.r_me for e in rows]),
             ("R separable", [e.r_s for e in rows])],
            title=f"closed-form estimates d={cfg.dim}",
            xlabel="correlation weight mu", ylabel="value",
            vline=mu_cross,
            vline_label=(f"crossing={mu_cross:.4g}" if mu_cross is not None
                         else ""))
        _write_text(Path(cfg.out_dir) / "estimates.svg", svg)
    if mu_cross is None:
        print("mu_c_estimate=none")
    else:
        print(f"mu_c_estimate={mu_cross:.6g}")
    return 0


def cmd_validate(cfg: ExperimentConfig) -> int:
    ch_base = build_channel(cfg)
    d = ch_base.dim
    rng = np.random.default_rng(cfg.seed)
    suites: list[tuple[str, float, float]] = []

    # fixed point of the fully correlated part on the maximally entangled state
    me = max_entangled(d)
    res_unitary = max(invariance_check_me(d, haar_random_unitary(d, rng))
                      for _ in range(100))
    rho_me = np.outer(me, me.conj())
    res_phic = float(np.abs(apply_phi_c(ch_base, rho_me) - rho_me).max())
    s_mu1 = von_neumann_entropy(
        apply_correlated(CorrelatedChannel(base=ch_base, mu=1.0), rho_me))
    suites.append(("me_unitary_invariance", res_unitary, 1e-12))
    suites.append(("me_fixed_point", res_phic, 1e-12))
    suites.append(("me_zero_entropy_at_full_correlation", s_mu1, 1e-8))

    # covariance and twirl-average identities over the shift-and-phase set
    pauli = pauli_operator_set(d)
    psi = random_pure_state(d * d, rng)
    rho = np.outer(psi, psi.conj())
    ch_mid = CorrelatedChannel(base=ch_base, mu=0.5)
    suites.append(("covariance", analysis.verify_covariance(ch_mid, rho, pauli),
                   1e-9))
    suites.append(("schur_average",
                   analysis.verify_schur_average(ch_mid, rho, pauli), 1e-9))

    # defining identities of the shift-and-phase operators
    res = pauli_identity_residuals(pauli)
    suites.append(("pauli_adjoint", res["adjoint"], 1e-10))
    suites.append(("pauli_commutation", res["commutation"], 1e-10))
    suites.append(("pauli_trace", res["trace"], 1e-10))

    # optimizer versus brute-force sampling
    opt_cfg = cfg.optimizer_config()
    for mu in (0.2, 0.8):
        ch = CorrelatedChannel(base=ch_base, mu=mu)
        found = analysis.minimize_entropy(ch, opt_cfg)
        oracle = optimize.oracle_sample(ch, 20000, cfg.seed + 1)
        gap = abs(found.entropy_bits - oracle.entropy_bits)
        suites.append((f"oracle_vs_optimizer_mu_{mu:g}", gap, 0.02))

    all_pass = True
    for name, residual, threshold in suites:
        ok = residual <= threshold
        all_pass = all_pass and ok
        status = "pass" if ok else "FAIL"
        print(f"suite={name} residual={residual:.3e} "
              f"threshold={threshold:.0e} status={status}")
    print(f"validate={'pass' if all_pass else 'fail'}")
    return 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrchan",
        description="correlated-noise channel sweeps, checks and estimates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sweep", cmd_sweep), ("check", cmd_check),
                     ("estimate", cmd_estimate), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--mu-points", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=list(optimize.MODES), default=None)
        p.add_argument("--no-svg", action="store_true")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.mu_points is not None:
            cfg.mu_points = args.mu_points
        if args.seed is not None:
            cfg.seed = args.seed
        if args.mode is not None:
            cfg.mode = args.mode
        if args.no_svg:
            cfg.outputs = cfg.outputs - {"svg"}
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        cfg.validate()
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
