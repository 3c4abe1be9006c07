"""corrchan benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a corrchan checkout. The program is driven from
outside, through its public functions and the CLI entry point, in fresh
interpreters started here (see worker.py): first set-up alone, a warm-up
and then SETUP_REPS timed times, then the workload itself. Every operation's
output is checked against the independent reference in checks.py. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A fuller record, with the machine and
library versions, is written to bench/runs/<run>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# workload -> (preset config, search mode). The preset is run with a coarse
# grid and a single random restart; see README.md for why.
SWEEPS = {"qubit-full-sweep": ("qubit_ixz.cfg", "full"),
          "qutrit-ansatz-sweep": ("qutrit_symmetric.cfg", "ansatz")}
SWEEP_OVERRIDES = {"mu_start": 0.0, "mu_end": 1.0, "mu_points": 5,
                   "restarts": 1, "seed": 42, "outputs": "csv,svg"}
WORKLOADS = (*SWEEPS, "certify")
ORACLE_STATES = 8192
FTOL = 1e-12  # the configs' default simplex ftol

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "channels.apply_correlated_pure.us": "us",
    "optimize.objective.us": "us",
    "channels.apply_correlated.us": "us",
    "analysis.verify_covariance.s": "s",
    "analysis.verify_schur_average.s": "s",
    "analysis.check_theorem.ms": "ms",
    "optimize.oracle_sample.states_per_s": "states/s",
    "optimize.minimize.calls": "count",
    "optimize.minimize.s": "s",
    "optimize.minimize.s_p50": "s",
    "optimize.minimize.iterations": "count",
    "optimize.local_search.calls": "count",
    "optimize.local_search.nfev": "count",
    "optimize.local_search.nfev_p50": "count",
    "optimize.local_search.us_per_eval": "us",
    "optimize.local_search.win_ratio": "ratio",
    "analysis.sweep.grid_s": "s",
    "analysis.detect_transition.s": "s",
    "analysis.detect_transition.probes": "count",
    "config.build_channel.ms": "ms",
    "cli.output_ms": "ms",
}


def random_state(rng: np.random.Generator, dim: int) -> list:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return [[float(x.real), float(x.imag)] for x in v]


def write_config(run_dir: Path, name: str, text: str, **keys) -> str:
    path = run_dir / f"{name}.cfg"
    lines = [text.rstrip("\n")] + [f"{k}={v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def make_spec(args, root: Path, run_dir: Path) -> dict:
    """Every input of the run, generated from --seed."""
    rng = np.random.default_rng(args.seed)
    presets = root / "configs"
    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "run_dir": str(run_dir), "result_path": str(run_dir / "worker.json"),
            "ftol": FTOL}
    if args.workload in SWEEPS:
        preset, mode = SWEEPS[args.workload]
        text = (presets / preset).read_text(encoding="utf-8")
        cfg = write_config(run_dir, "main", text, mode=mode, **SWEEP_OVERRIDES)
        dim = checks.read_config(cfg)["dim"]
        spec.update(kind="sweep", configs={"main": cfg}, probe={
            "channel": "main", "mu": 0.5, "psi": random_state(rng, dim * dim),
            "oracle_n": 4096})
        return spec
    column = rng.uniform(0.5, 1.5, 4)
    column /= 4.0 * column.sum()
    configs = {
        "qubit": write_config(run_dir, "qubit", (presets / "qubit_ixz.cfg")
                              .read_text(encoding="utf-8")),
        "qutrit": write_config(run_dir, "qutrit", (presets / "qutrit_symmetric.cfg")
                               .read_text(encoding="utf-8"), outputs="csv,svg"),
        "witness": write_config(run_dir, "witness", "", dim=2, channel="qubit_ixz",
                                probs="0,0.4,0.6"),
        "d4": write_config(run_dir, "d4", "", dim=4, channel="pauli_symmetric",
                           probs=",".join(f"{p:.17g}" for p in column)),
    }
    dims = {"qubit": 2, "qutrit": 3, "d4": 4}
    spec.update(
        kind="certify", configs=configs,
        mu=float(rng.uniform(0.2, 0.8)),
        states={name: random_state(rng, d * d) for name, d in dims.items()},
        theorem=["qubit", "qutrit", "witness"],
        oracle=[{"channel": name, "mu": float(rng.uniform(0.0, 1.0)),
                 "n": ORACLE_STATES, "seed": int(rng.integers(2 ** 31))}
                for name in dims],
        estimate=["qutrit", "d4"],
        estimate_mus=sorted(float(m) for m in rng.uniform(0.0, 1.0, 3)))
    spec["probe"] = {"channel": "d4", "mu": 0.5, "psi": spec["states"]["d4"],
                     "oracle_n": 4096, "sweep_channel": "qutrit",
                     "sweep_mode": "ansatz", "sweep_grid": [0.28, 0.3]}
    return spec


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec_path: Path, env: dict, root: Path, deadline: float,
               setup: bool = False) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path)]
    if setup:
        cmd.append("--setup")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    with open(spec_path.parent / "worker.log", "a", encoding="utf-8") as log:
        log.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return proc


def printed(stdout: str, key: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            value = line.split("=", 1)[1]
            return None if value == "none" else float(value)
    return None


def complex_array(pairs) -> np.ndarray:
    return np.array([re + 1j * im for re, im in pairs])


class Checker:
    """Checks one operation's output against the reference for its inputs."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.refs = {name: checks.Reference.from_config(checks.read_config(path))
                     for name, path in spec["configs"].items()}
        if spec["kind"] == "sweep":
            cfg = checks.read_config(spec["configs"]["main"])
            self.grid = np.linspace(cfg["mu_start"], cfg["mu_end"], cfg["mu_points"])
            self.mu_c = self.refs["main"].mu_c()
        else:
            self.crossing = self.refs["qutrit"].crossing()

    def __call__(self, op: dict) -> list[str]:
        if "error" in op:
            return [op["error"]]
        name, _, which = op["name"].partition(":")
        return getattr(self, "check_" + name)(which, op["result"])

    def check_cli(self, result: dict) -> list[str]:
        if result["exit"] != 0:
            return [f"CLI exited with {result['exit']}"]
        return []

    def check_sweep(self, _, result: dict) -> list[str]:
        errors = self.check_cli(result)
        out = Path(result["out"])
        if not errors and not (out / "sweep.svg").is_file():
            errors.append("sweep.svg not written")
        if errors:
            return errors
        return checks.check_sweep(self.refs["main"], self.mu_c, self.grid,
                                  (out / "sweep.csv").read_text(encoding="utf-8"),
                                  printed(result["stdout"], "mu_c"))

    def check_apply_correlated(self, which: str, result: dict) -> list[str]:
        psi = complex_array(self.spec["states"][which])
        out = complex_array(result["out"]).reshape(psi.size, psi.size)
        return checks.check_output(self.refs[which], self.spec["mu"],
                                   np.outer(psi, psi.conj()), out)

    def check_verify_covariance(self, which: str, result: dict) -> list[str]:
        return checks.check_residual(f"covariance ({which})", result["residual"])

    def check_verify_schur_average(self, which: str, result: dict) -> list[str]:
        return checks.check_residual(f"twirl average ({which})", result["residual"])

    def check_check_theorem(self, which: str, result: dict) -> list[str]:
        witness = result["witness"]
        return checks.check_verdict(
            self.refs[which], which != "witness", result["intersection_empty"],
            None if witness is None else complex_array(witness))

    def check_oracle_sample(self, which: str, result: dict) -> list[str]:
        mu = next(o["mu"] for o in self.spec["oracle"] if o["channel"] == which)
        return checks.check_oracle(self.refs[which], mu, result["entropy_bits"],
                                   complex_array(result["state"]))

    def check_estimate_mu_c_crossing(self, which: str, result: dict) -> list[str]:
        return checks.check_crossing(self.refs[which], result["value"])

    def check_analytic_estimates(self, which: str, result: dict) -> list[str]:
        errors = []
        for mu, f_me, f_s, r_me, r_s in result["rows"]:
            errors += checks.check_estimates(self.refs[which], mu, f_me, f_s,
                                             r_me, r_s)
        return errors

    def check_cli_estimate(self, _, result: dict) -> list[str]:
        errors = self.check_cli(result)
        if errors:
            return errors
        value = printed(result["stdout"], "mu_c_estimate")
        if value is None or abs(value - self.crossing) > 1e-6:
            errors.append(f"corrchan estimate printed {value!r}, reference "
                          f"crossing {self.crossing!r}")
        text = (Path(result["out"]) / "estimates.csv").read_text(encoding="utf-8")
        for row in text.splitlines()[1:]:
            mu, f_me, f_s, r_me, r_s = map(float, row.split(","))
            errors += checks.check_estimates(self.refs["qutrit"], mu, f_me, f_s,
                                             r_me, r_s)
        return errors


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    load_at_start = os.getloadavg()
    root = Path.cwd()
    if not (root / "src" / "corrchan" / "cli.py").is_file() \
            or not (root / "configs").is_dir():
        print("error: run from the root of a corrchan checkout "
              "(src/corrchan and configs/ are missing)", file=sys.stderr)
        return 2

    run_dir = BENCH / "runs" / (f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = make_spec(args, root, run_dir)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    env = child_env(root)
    try:
        # the first fresh import byte-compiles and fills the file cache,
        # which a user pays once, not on every run
        run_worker(spec_path, env, root, deadline, setup=True)
        setup_s = [json.loads(run_worker(spec_path, env, root, deadline,
                                         setup=True).stdout)["setup_s"]
                   for _ in range(SETUP_REPS)]
        run_worker(spec_path, env, root, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
    if not res["round_s"]:
        print("error: no round of operations completed:\n"
              + res["ops"][-1]["error"], file=sys.stderr)
        return 1

    checker = Checker(spec)
    failed = 0
    for op in res["ops"]:
        errors = checker(op)
        if errors:
            failed += 1
            for e in errors:
                print(f"check failed: {op['name']} round {op['round']}: {e}",
                      file=sys.stderr)
    attempted = len(res["ops"])
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "job_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    outcome = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    record = dict(outcome, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples_s=setup_s, round_s=res["round_s"],
                  probed_layers=res.get("probed", []),
                  numpy=np.__version__, scipy=scipy.__version__,
                  blas_threads={v: env[v] for v in THREAD_VARS},
                  nproc=os.cpu_count(), load_at_start=load_at_start,
                  python=sys.version.split()[0], git_commit=git_commit(root))
    (run_dir / "result.json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")
    for tmp in list(run_dir.glob("sweep-*")) + list(run_dir.glob("estimate-*")):
        shutil.rmtree(tmp)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
