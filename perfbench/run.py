"""Benchmark of otbot: one workload, run through ``otbot.cli.main``.

    python3 perfbench/run.py --workload track-figure8 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The operations run one after another in
this process, on one thread, each with a fresh ``--out`` directory under
``.perfbench_runs/``, which is removed at the end. Every operation's
artifacts are checked (``checks.py``). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced op with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

# One thread of work: keep BLAS from starting its own pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

# Noise seed of every identify-chain op: fixed, so that every run fits the
# same records (the solver's work depends on the noise draw).
IDENTIFY_SEED = 0


@dataclass(frozen=True)
class Workload:
    op_s: float  # one op on the reference machine; sets the op count of a run
    argv: Callable[[int], list[str]]  # seed -> op arguments, without --params/--out
    check: Callable[[Path], list[str]]  # out dir -> failure messages


WORKLOADS = {
    # the figure-8 lap has no sensor noise: the seed goes to the manifest only
    "track-figure8": Workload(
        17.0,
        lambda seed: ["control", "--scenario", "figure8", "--seed", str(seed)],
        checks.check_figure8,
    ),
    "identify-chain": Workload(
        24.0,
        lambda seed: ["identify", "--step", "all", "--sweep", "0", "--jobs", "1",
                      "--seed", str(IDENTIFY_SEED)],
        checks.check_identify_chain,
    ),
}


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter until otbot.cli is imported."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import otbot.cli, time; print(repr(time.monotonic()))"
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples)


def import_otbot():
    sys.path.insert(0, str(SRC))
    import otbot.cli

    if Path(otbot.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"otbot was imported from {otbot.cli.__file__}, not from {SRC}")
    return otbot.cli


def run_ops(cli, argvs, plant: Path, outs: list[Path]) -> tuple[list[float], list[bool]]:
    """Run each op into its own out dir; returns op times and success flags."""
    times, ok = [], []
    for argv, out in zip(argvs, outs):
        full = argv + ["--params", str(plant), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(full)
        except Exception:  # an op that crashes counts as failed; keep going
            traceback.print_exc()
            rc = None
        times.append(time.perf_counter() - t0)
        ok.append(rc == 0)
        print(f"op {' '.join(argv)}: {times[-1]:.3f} s", file=sys.stderr)
        if rc != 0:
            print(f"op {' '.join(full)} exited {rc}", file=sys.stderr)
    return times, ok


def check_ops(workload: Workload, outs, ok) -> list[str]:
    fails = []
    for out, good in zip(outs, ok):
        if good:
            fails += [f"{out.name}: {msg}" for msg in workload.check(out)]
    return fails


def layer_metrics(tracer, wall_untraced: float, wall_traced: float, bytes_written: int) -> dict:
    def m(value, unit):
        return {"value": value, "unit": unit}

    fevals, fevals_s, _ = tracer.record("dynamics.state_derivative")
    steps = tracer.counts["integrator.steps"]
    rejected = tracer.counts["integrator.rejected"]
    attempted_steps = steps + rejected
    integ_self = tracer.self_s("integrator")
    periods = tracer.record("control.computed_torque")[0]
    fits = tracer.record("identify.fit_trust_region")[0]
    evals = tracer.record("identify.prediction_error")[0]
    csv_s = tracer.record("simulate.trajectory_to_csv")[1] + tracer.record("simulate.trajectory_from_csv")[1]
    return {
        "dynamics.fevals": m(fevals, "count"),
        "dynamics.tsm_calls": m(tracer.record("dynamics.task_space_model")[0], "count"),
        "dynamics.self_s": m(tracer.self_s("dynamics"), "s"),
        "dynamics.us_per_feval": m(1e6 * fevals_s / fevals if fevals else 0.0, "us"),
        "model.calls": m(tracer.calls("model"), "count"),
        "model.self_s": m(tracer.self_s("model"), "s"),
        "integrator.segments": m(tracer.record("integrator.advance_segment")[0], "count"),
        "integrator.steps": m(steps, "count"),
        "integrator.rejected": m(rejected, "count"),
        "integrator.accept_ratio": m(steps / attempted_steps if attempted_steps else 0.0, "ratio"),
        "integrator.self_s": m(integ_self, "s"),
        "integrator.us_per_step": m(1e6 * integ_self / attempted_steps if attempted_steps else 0.0, "us"),
        "simulate.rollouts": m(tracer.record("simulate.integrate")[0], "count"),
        "simulate.self_s": m(tracer.self_s("simulate"), "s"),
        "simulate.csv_s": m(csv_s, "s"),
        "control.periods": m(periods, "count"),
        "control.fevals_per_period": m(tracer.counts["control.fevals"] / periods if periods else 0.0, "fevals/period"),
        "control.self_s": m(tracer.self_s("control"), "s"),
        "control.feasibility_s": m(tracer.record("control.torque_feasibility")[1], "s"),
        "references.samples": m(tracer.calls("references", ".sample"), "count"),
        "references.self_s": m(tracer.self_s("references"), "s"),
        "interval.calls": m(tracer.calls("interval"), "count"),
        "interval.self_s": m(tracer.self_s("interval"), "s"),
        "identify.fits": m(fits, "count"),
        "identify.residual_evals": m(evals, "count"),
        "identify.evals_per_fit": m(evals / fits if fits else 0.0, "evals/fit"),
        "identify.solver_self_s": m(tracer.record("identify.fit_trust_region")[2], "s"),
        "sensors.self_s": m(tracer.self_s("sensors"), "s"),
        "scenarios.self_s": m(tracer.self_s("scenarios"), "s"),
        "cli.self_s": m(tracer.self_s("cli"), "s"),
        "cli.bytes_written": m(bytes_written, "bytes"),
        "trace.overhead_s": m(wall_traced - wall_untraced, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "otbot" / "cli.py").is_file():
        sys.exit(f"error: no otbot sources under {SRC}; run from the root of an otbot checkout")

    setup_s = None if args.trace else measure_setup()
    cli = import_otbot()
    n_ops = 1 if args.trace else max(1, round(args.seconds / workload.op_s))
    argvs = [workload.argv(args.seed)] * n_ops

    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        plant = tmp / "plant.cfg"
        checks.write_plant(plant)
        outs = [tmp / f"op{i:03d}" for i in range(len(argvs))]
        times, ok = run_ops(cli, argvs, plant, outs)
        wall_s = sum(times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fails = check_ops(workload, outs, ok)

        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            traced_outs = [tmp / f"traced{i:03d}" for i in range(len(argvs))]
            tracer.install()
            try:
                traced_times, traced_ok = run_ops(cli, argvs, plant, traced_outs)
            finally:
                tracer.remove()
            fails += check_ops(workload, traced_outs, traced_ok)
            for a, b, good_a, good_b in zip(outs, traced_outs, ok, traced_ok):
                if good_a and good_b:
                    fails += checks.check_files_match(a, b)
            total_self = sum(r[3] for r in tracer.records.values())
            main_incl = tracer.record("cli.main")[1]
            if abs(total_self - main_incl) > 1e-6 * main_incl + 1e-6:
                fails.append(f"layer self times sum to {total_self} s, cli.main took {main_incl} s")
            ok += traced_ok
            metrics = layer_metrics(
                tracer, wall_s, sum(traced_times),
                sum(checks.count_bytes(o) for o, g in zip(traced_outs, traced_ok) if g),
            )
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "op_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(ok)} ops, {ok.count(False)} failed, "
          f"{'all checks passed' if not fails else f'{len(fails)} check failures'}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not fails, "attempted": len(ok), "failed": ok.count(False), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
