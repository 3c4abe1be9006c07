"""One benchmark workload, run in a fresh interpreter.

    python3 bench/worker.py SPEC.json --setup   time set-up only, print it
    python3 bench/worker.py SPEC.json           run the workload

The spec, written by run.py, holds every input. Set-up is the import of
corrchan with numpy and scipy, the config loads and `config.build_channel`,
up to the first search or check. The workload then runs whole rounds of
operations until the spec's seconds have passed, and writes each
operation's time and output to the spec's result path for run.py to check.
With tracing on it also records spans (see spans.py) and derives the
per-layer metrics.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from corrchan import analysis, channels, cli, config, optimize  # noqa: E402

from spans import Tracer  # noqa: E402

# Spans every traced run must contain, after probing the layers that the
# workload's own operations do not reach.
REQUIRED_SPANS = ("cli.main", "config.load_config", "config.build_channel",
                  "analysis.sweep", "analysis.detect_transition",
                  "optimize.minimize", "optimize.local_search",
                  "analysis.verify_covariance", "analysis.verify_schur_average",
                  "analysis.check_theorem", "channels.apply_correlated")


def build_channels(spec: dict) -> dict:
    return {name: config.build_channel(config.load_config(path))
            for name, path in spec["configs"].items()}


def as_complex(pairs) -> np.ndarray:
    return np.array([re + 1j * im for re, im in pairs])


def as_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.ravel(values)]


def run_cli(argv: list[str], tracer: Tracer | None) -> dict:
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def sweep_round(spec: dict, k: int, tracer: Tracer | None) -> list:
    out_dir = Path(spec["run_dir"]) / f"sweep-{k}"
    t = time.perf_counter()
    payload = run_cli(["sweep", "--config", spec["configs"]["main"],
                       "--out", str(out_dir)], tracer)
    payload["out"] = str(out_dir)
    return [("sweep", time.perf_counter() - t, payload)]


def certify_round(spec: dict, chans: dict, k: int, tracer: Tracer | None,
                  oracle_log: list) -> list:
    ops = []

    def op(name, fn):
        t = time.perf_counter()
        result = fn()
        ops.append((name, time.perf_counter() - t, result))

    mu = spec["mu"]
    for name, pairs in spec["states"].items():
        cc = channels.CorrelatedChannel(base=chans[name], mu=mu)
        psi = as_complex(pairs)
        rho = np.outer(psi, psi.conj())
        pauli = channels.pauli_operator_set(cc.base.dim)
        op(f"apply_correlated:{name}",
           lambda: {"out": as_pairs(channels.apply_correlated(cc, rho))})
        op(f"verify_covariance:{name}",
           lambda: {"residual": analysis.verify_covariance(cc, rho, pauli)})
        op(f"verify_schur_average:{name}",
           lambda: {"residual": analysis.verify_schur_average(cc, rho, pauli)})
    for name in spec["theorem"]:
        def verdict():
            v = analysis.check_theorem(chans[name])
            return {"intersection_empty": v.intersection_empty,
                    "witness": None if v.witness is None else as_pairs(v.witness)}
        op(f"check_theorem:{name}", verdict)
    for o in spec["oracle"]:
        def sample():
            cc = channels.CorrelatedChannel(base=chans[o["channel"]], mu=o["mu"])
            t = time.perf_counter()
            r = optimize.oracle_sample(cc, o["n"], o["seed"])
            oracle_log.append((o["n"], time.perf_counter() - t))
            return {"entropy_bits": r.entropy_bits, "state": as_pairs(r.state)}
        op(f"oracle_sample:{o['channel']}", sample)
    for name in spec["estimate"]:
        ch = chans[name]
        p = channels.pauli_column_probs(ch)
        op(f"estimate_mu_c_crossing:{name}",
           lambda: {"value": analysis.estimate_mu_c_crossing(ch.dim, p)})

        def curves():
            rows = []
            for m in spec["estimate_mus"]:
                e = analysis.analytic_estimates(ch.dim, p, m)
                rows.append([m, e.f_me, e.f_s, e.r_me, e.r_s])
            return {"rows": rows}
        op(f"analytic_estimates:{name}", curves)
    out_dir = Path(spec["run_dir"]) / f"estimate-{k}"

    def estimate():
        payload = run_cli(["estimate", "--config", spec["configs"]["qutrit"],
                           "--out", str(out_dir)], tracer)
        payload["out"] = str(out_dir)
        return payload
    op("cli_estimate", estimate)
    return ops


def per_call_us(fn, reps: int = 5, block_s: float = 0.03) -> float:
    """Median over `reps` blocks of the time per call, in microseconds."""
    fn()
    n, t = 0, time.perf_counter()
    while time.perf_counter() - t < 0.005:
        fn()
        n += 1
    n = max(1, int(n * block_s / 0.005))
    blocks = []
    for _ in range(reps):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        blocks.append((time.perf_counter() - t) / n)
    return statistics.median(blocks) * 1e6


def install_tracer() -> Tracer:
    tr = Tracer()

    def minimize_attrs(r):
        return {"entropy_bits": r.entropy_bits, "iterations": r.iterations_used}

    tr.patch(cli, "load_config", "config.load_config")
    tr.patch(cli, "build_channel", "config.build_channel")
    tr.patch(analysis, "sweep", "analysis.sweep")
    tr.patch(analysis, "detect_transition", "analysis.detect_transition")
    tr.patch(analysis, "minimize_full", "optimize.minimize", minimize_attrs)
    tr.patch(analysis, "minimize_ansatz", "optimize.minimize", minimize_attrs)
    tr.patch(optimize, "_scipy_minimize", "optimize.local_search",
             lambda r: {"nfev": int(r.nfev), "fun": float(r.fun)})
    tr.patch(analysis, "apply_correlated", "channels.apply_correlated")
    tr.patch(analysis, "check_theorem", "analysis.check_theorem")
    tr.patch(analysis, "verify_covariance", "analysis.verify_covariance")
    tr.patch(analysis, "verify_schur_average", "analysis.verify_schur_average")
    tr.patch(analysis, "analytic_estimates", "analysis.analytic_estimates")
    return tr


def probe_missing_layers(spec: dict, chans: dict, tr: Tracer,
                         oracle_log: list) -> list[str]:
    """Reach, once, each layer the workload's own operations did not."""
    probed = []
    probe = spec["probe"]
    ch = chans[probe["channel"]]
    if not tr.named("analysis.sweep"):
        analysis.sweep(chans[probe["sweep_channel"]], probe["sweep_grid"],
                       optimize.OptimizerConfig(restarts=1, seed=42,
                                                mode=probe["sweep_mode"]))
        probed.append("search")
    if not tr.named("analysis.verify_covariance"):
        cc = channels.CorrelatedChannel(base=ch, mu=probe["mu"])
        psi = as_complex(probe["psi"])
        rho = np.outer(psi, psi.conj())
        pauli = channels.pauli_operator_set(ch.dim)
        analysis.verify_covariance(cc, rho, pauli)
        analysis.verify_schur_average(cc, rho, pauli)
        analysis.check_theorem(ch)
        t = time.perf_counter()
        optimize.oracle_sample(cc, probe["oracle_n"], spec["seed"])
        oracle_log.append((probe["oracle_n"], time.perf_counter() - t))
        probed.append("certification")
    return probed


def layer_metrics(spec: dict, chans: dict, tr: Tracer,
                  oracle_log: list) -> dict:
    missing = [name for name in REQUIRED_SPANS if not tr.named(name)]
    if missing:
        raise RuntimeError("traced boundaries never called: " + ", ".join(missing))
    sweeps = tr.named("analysis.sweep")
    n_sweeps = len(sweeps)
    minimize = tr.named("optimize.minimize")
    local = tr.named("optimize.local_search")
    detect = tr.named("analysis.detect_transition")
    detect_ids = {s.index for s in detect}
    wins = 0
    for m in minimize:
        funs = [c.attrs["fun"] for c in tr.children(m)
                if c.name == "optimize.local_search"]
        if funs:
            wins += sum(f <= min(funs) + spec["ftol"] for f in funs)
    nfev = [s.attrs["nfev"] for s in local]
    grid_s = [s.seconds - sum(c.seconds for c in tr.children(s)
                              if c.name == "analysis.detect_transition")
              for s in sweeps]
    cli_self = [tr.self_seconds(s) for s in tr.named("cli.main")]

    micro = spec["probe"]
    cc = channels.CorrelatedChannel(base=chans[micro["channel"]], mu=micro["mu"])
    psi = as_complex(micro["psi"])
    rho = np.outer(psi, psi.conj())

    def mean_s(name):
        return statistics.fmean(s.seconds for s in tr.named(name))

    return {
        "channels.apply_correlated_pure.us":
            per_call_us(lambda: channels.apply_correlated_pure(cc, psi)),
        "optimize.objective.us": per_call_us(lambda: optimize.objective(cc, psi)),
        "channels.apply_correlated.us":
            per_call_us(lambda: channels.apply_correlated(cc, rho)),
        "analysis.verify_covariance.s": mean_s("analysis.verify_covariance"),
        "analysis.verify_schur_average.s": mean_s("analysis.verify_schur_average"),
        "analysis.check_theorem.ms": 1e3 * mean_s("analysis.check_theorem"),
        "optimize.oracle_sample.states_per_s":
            sum(n for n, _ in oracle_log) / sum(t for _, t in oracle_log),
        "optimize.minimize.calls": len(minimize) / n_sweeps,
        "optimize.minimize.s": sum(s.seconds for s in minimize) / n_sweeps,
        "optimize.minimize.s_p50": statistics.median(s.seconds for s in minimize),
        "optimize.minimize.iterations":
            sum(s.attrs["iterations"] for s in minimize) / n_sweeps,
        "optimize.local_search.calls": len(local) / n_sweeps,
        "optimize.local_search.nfev": sum(nfev) / n_sweeps,
        "optimize.local_search.nfev_p50": statistics.median(nfev),
        "optimize.local_search.us_per_eval":
            1e6 * sum(s.seconds for s in local) / sum(nfev),
        "optimize.local_search.win_ratio": wins / len(local),
        "analysis.sweep.grid_s": statistics.fmean(grid_s),
        "analysis.detect_transition.s": sum(s.seconds for s in detect) / n_sweeps,
        "analysis.detect_transition.probes":
            sum(1 for s in minimize if s.parent in detect_ids) / n_sweeps,
        "config.build_channel.ms": 1e3 * mean_s("config.build_channel"),
        "cli.output_ms": 1e3 * statistics.fmean(cli_self),
    }


def run(spec: dict) -> dict:
    chans = build_channels(spec)
    tr = install_tracer() if spec["trace"] else None
    oracle_log: list = []
    ops, round_s = [], []
    start = time.perf_counter()
    while True:
        k = len(round_s)
        t = time.perf_counter()
        try:
            if spec["kind"] == "sweep":
                done = sweep_round(spec, k, tr)
            else:
                done = certify_round(spec, chans, k, tr, oracle_log)
        except Exception:  # recorded as a failed operation, then stop
            ops.append({"name": "round", "round": k, "seconds": 0.0,
                        "error": traceback.format_exc()})
            break
        round_s.append(time.perf_counter() - t)
        ops += [{"name": n, "round": k, "seconds": s, "result": r}
                for n, s, r in done]
        if time.perf_counter() - start >= spec["seconds"]:
            break
    out = {"ops": ops, "round_s": round_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tr is not None:
        out["probed"] = probe_missing_layers(spec, chans, tr, oracle_log)
        tr.unpatch()
        out["layers"] = layer_metrics(spec, chans, tr, oracle_log)
        tr.dump(Path(spec["run_dir"]) / "trace.json")
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if sys.argv[2:] == ["--setup"]:
        build_channels(spec)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    result = run(spec)
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
