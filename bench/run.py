"""hawkpair benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload fig3-closed --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: it runs hawkpair from src/ and reads the
metric names and units from BENCHMARK.json. Workloads: fig3-closed,
oracle-sweep (see bench/README.md). With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
A human-readable report goes to stderr; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
an output fails a correctness check and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CALL_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, failed probe)."""


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one call gave in process; error is empty when it succeeded."""

    rows: list | None = None
    comparison: object = None
    csv: str | None = None
    error: str = ""


def cap_threads(env) -> None:
    """Run BLAS/OpenMP single-threaded, which is within any CPU count.

    The largest matrix is 225 x 225, too small to gain from a second thread,
    and an idle BLAS worker spinning on the other CPU slows the interpreter
    thread whenever the machine is busy."""
    for var in THREAD_VARS:
        env[var] = "1"


def run_call(call, hp, tail_tol) -> Outcome:
    """The call through the library API. Names are looked up on the modules
    at call time, so a traced pass goes through the tracer's wrappers."""
    sweep = hp.sweep
    cutoff = (
        hp.SeriesConfig(n_max=call.n_max) if call.n_max is not None else hp.SeriesConfig(tail_tol=tail_tol)
    )
    try:
        if call.kind == "sweep":
            rows = sweep.run_sweep(sweep.SweepConfig(cutoff=cutoff, methods=call.methods, **call.sweep))
        else:
            if call.mode is not None:
                mass, omega, omega_prime = call.mode
                where = dict(mode=hp.ModeSpec(mass=mass, omega=omega), omega_prime=omega_prime)
            else:
                where = dict(r_a=call.r_a)
            rows = [sweep.run_point(cutoff=cutoff, methods=call.methods, **where)]
        comparison = sweep.compare_closed_vs_numeric(rows[0]) if call.kind == "compare" else None
        return Outcome(rows=rows, comparison=comparison, csv="\n".join(sweep.csv_lines(rows)) + "\n")
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def library_pass(wl, hp, tail_tol):
    return [run_call(call, hp, tail_tol) for call in wl.calls]


def child_env() -> dict:
    env = dict(os.environ)
    cap_threads(env)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_probe(mode, spec, env) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "probe.py"), mode, json.dumps(spec)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"probe {mode} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(call, env):
    """One `python -m hawkpair.cli` process writing to a file.
    Returns (exit code, wall seconds, peak RSS in MB, output path)."""
    path = OUT / call.out
    path.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "hawkpair.cli", *call.argv, "--out", str(path)]
    with open(OUT / f"{call.out}.stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child alone
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, path


class Verifier:
    """Checks every output of a run and counts operations per round.

    The first pass is checked against the reference; every later pass must
    give exactly the same outcomes, and every CLI output must match them."""

    def __init__(self, wl, checks):
        self.wl = wl
        self.checks = checks
        self.baseline = None
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def library(self, outcomes) -> None:
        if self.baseline is None:
            self.baseline = outcomes
            for call, outcome in zip(self.wl.calls, outcomes):
                if outcome.error:
                    continue
                self.errors += self.checks.check_rows(call, outcome.rows)
                if outcome.comparison is not None:
                    self.errors += self.checks.check_comparison(call, outcome.rows[0], outcome.comparison)
        elif outcomes != self.baseline:
            self.errors.append("in-process outputs differ between passes of the same inputs")

    def cli(self, call, outcome, exit_code, path) -> None:
        self.errors += self.checks.check_cli_output(call, outcome, exit_code, path)

    def count_round(self) -> None:
        self.attempted += self.wl.ops
        self.failed += sum(c.ops for c, o in zip(self.wl.calls, self.baseline) if o.error)


def median(values):
    """Median; for counts, which repeat exactly, the lower middle value."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def summary(values) -> str:
    """Median and sample count, plus the highest percentile with at least ten
    samples beyond it once there are forty samples."""
    text = f"median {median(values):.6g} (n={len(values)}"
    if len(values) >= 40:
        ordered = sorted(values)
        pct = 100.0 * (len(values) - 10) / len(values)
        text += f", p{pct:.0f} {ordered[len(values) - 11]:.6g}"
    return text + ")"


def another_round_fits(start, round_start, seconds) -> bool:
    """Whether a round as long as the last one still ends within `seconds`."""
    now = perf_counter()
    return now - start + (now - round_start) <= seconds


def measure(wl, hp, seconds, env, verifier, tail_tol):
    """Untraced run: a checked warm-up pass, then whole rounds while another
    fits in `seconds` (at least one). A round takes one set-up probe in a
    fresh process, then runs each call once as a CLI process, with
    inproc_reps in-process passes spread evenly between those calls, so that
    every kind of sample is taken all through the run."""
    bands = {"bands": wl.bands, "tail_tol": tail_tol}
    verifier.library(library_pass(wl, hp, tail_tol))  # warm-up, checked against the reference
    n_calls = len(wl.calls)
    slots = [k * (n_calls + 1) // wl.inproc_reps for k in range(wl.inproc_reps)]
    samples = {"wall_s": [], "cli_wall_s": [], "setup_s": [], "peak_rss_mb": []}
    start = perf_counter()
    while True:
        round_start = perf_counter()
        samples["setup_s"].append(run_probe("setup", bands, env)["setup_s"])
        cli_total, peak = 0.0, 0.0
        for i in range(n_calls + 1):
            for _ in range(slots.count(i)):
                t0 = perf_counter()
                outcomes = library_pass(wl, hp, tail_tol)
                samples["wall_s"].append(perf_counter() - t0)
                verifier.library(outcomes)
            if i < n_calls:
                code, wall, peak_mb, path = run_cli(wl.calls[i], env)
                cli_total += wall
                peak = max(peak, peak_mb)
                verifier.cli(wl.calls[i], outcomes[i], code, path)
        samples["cli_wall_s"].append(cli_total)
        samples["peak_rss_mb"].append(peak)
        verifier.count_round()
        if not another_round_fits(start, round_start, seconds):
            break
    return samples, None


def trace(wl, hp, seconds, env, verifier, tail_tol):
    """Traced run: per round a fresh-process probe of the import and
    first-large-N times, an untraced pass, a traced pass through the library
    and a traced pass through cli.main in process."""
    from tracing import Tracer, layer_metrics

    probe_spec = {"large_point": wl.large_point, "tail_tol": tail_tol}
    verifier.library(library_pass(wl, hp, tail_tol))  # warm-up, checked against the reference
    numeric_asked = sum(c.ops for c in wl.calls if "numeric" in c.methods)
    rounds, spans = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        probe = run_probe("layers", probe_spec, env)
        t0 = perf_counter()
        outcomes = library_pass(wl, hp, tail_tol)
        untraced = perf_counter() - t0
        verifier.library(outcomes)
        lib_tracer = Tracer(hp)
        with lib_tracer.installed():
            t0 = perf_counter()
            outcomes = library_pass(wl, hp, tail_tol)
            traced = perf_counter() - t0
        verifier.library(outcomes)
        cli_tracer = Tracer(hp)
        with cli_tracer.installed(), redirect_stderr(io.StringIO()):
            for call, outcome in zip(wl.calls, outcomes):
                path = OUT / call.out
                path.unlink(missing_ok=True)
                try:
                    code = hp.cli.main([*call.argv, "--out", str(path)])
                except Exception:  # the interpreter would print a traceback and exit 1
                    code = 1
                verifier.cli(call, outcome, code, path)
        numeric_rows = sum(
            row.e_n_num is not None for o in outcomes if o.rows for row in o.rows
        )
        metrics = layer_metrics(lib_tracer.spans, cli_tracer.spans, numeric_rows, numeric_asked)
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["cli.import_s"] = probe["import_s"]
        metrics["closed_form.s_ab.first_large_n_s"] = probe["first_large_n_s"]
        rounds.append(metrics)
        spans.append({"library": lib_tracer.spans, "cli": cli_tracer.spans})
        verifier.count_round()
        if not another_round_fits(start, round_start, seconds):
            break
    return {name: [m[name] for m in rounds] for name in rounds[0]}, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hawkpair benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "hawkpair" / "__init__.py").is_file():
            raise BenchError(f"no hawkpair sources under {ROOT / 'src'}")
        cap_threads(os.environ)  # before numpy is first imported
        sys.path.insert(0, str(ROOT / "src"))
        import hawkpair as hp
        import hawkpair.cli  # noqa: F401  (the traced run calls hp.cli.main)

        import checks
        from workloads import TAIL_TOL, WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
        wl = WORKLOADS[args.workload](args.seed)
        OUT.mkdir(parents=True, exist_ok=True)
        verifier = Verifier(wl, checks)
        run = trace if args.trace else measure
        samples, spans = run(wl, hp, args.seconds, child_env(), verifier, TAIL_TOL)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in samples]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    rounds = verifier.attempted // wl.ops
    print(f"{wl.name} seed {args.seed}: {rounds} rounds; per round {wl.ops} operations attempted, "
          f"{verifier.failed // rounds} failed", file=sys.stderr)
    for call, outcome in zip(wl.calls, verifier.baseline):
        if outcome.error:
            print(f"  failed: {call.label}: {outcome.error}", file=sys.stderr)
    for metric in wanted:
        values = samples[metric["name"]]
        print(f"  {metric['name']:<44} {summary(values)} {metric['unit']}", file=sys.stderr)
    for error in verifier.errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not verifier.errors,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {
            m["name"]: {"value": median(samples[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "samples": samples}) + "\n")
    if spans is not None:
        (OUT / f"spans-{wl.name}-seed{args.seed}.json").write_text(json.dumps(spans))
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
