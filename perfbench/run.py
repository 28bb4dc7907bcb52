"""Benchmark of the gstbc package: Monte Carlo sweep throughput and counted
scalar detection.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones (`uses_per_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` they are the per-layer ones, from a
traced pass that follows an untraced pass, each half of `--seconds`.  Details of
each run (check results, per-round rates, self times) go to
`perfbench/out/`, and the spans of a traced pass to
`perfbench/out/trace-<workload>.npz`.  See perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy loads; the set-up probes inherit it
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 8


def fast_share(values: list, higher_is_better: bool) -> float:
    """The value that a tenth of the samples beat: the 90th percentile of a
    rate, the 10th of a time."""
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1] if higher_is_better else deciles[0]


class SetupProbes:
    """Times fresh interpreters from start until they report the workload
    ready.  The probes are spread over the timed pass, between rounds, so
    they sample the machine's fast and slow phases alike; the first start
    (which may compile bytecode) is discarded."""

    def __init__(self, workload: str, seed: int, count: int, seconds: float):
        self.argv = [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)]
        self.count = count
        self.interval = seconds / count
        self.times = []
        self._probe()
        self.times.clear()
        self._probe()
        self._due = perf_counter() + self.interval

    def _probe(self) -> None:
        t0 = perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        self.times.append(t1 - t0)

    def between_rounds(self) -> None:
        if len(self.times) < self.count and perf_counter() >= self._due:
            self._probe()
            self._due = perf_counter() + self.interval

    def setup_s(self) -> float:
        while len(self.times) < self.count:
            self._probe()
        return fast_share(self.times, higher_is_better=False)


def timed_pass(wl, seconds: float, report: dict, recorder=None, between_rounds=None) -> tuple:
    """Whole rounds until `seconds` of round time have passed.

    Returns the rate of every timing sample (a block on the sweeps, a
    round on scalar-counted) and the number of rounds.  Each round's
    outputs are checked after its clock stops.
    """
    rates = []
    mark = [0.0]

    def tick(uses):
        now = perf_counter()
        rates.append(uses / (now - mark[0]))
        mark[0] = now

    root = recorder.name_index("round") if recorder else None
    spent = 0.0
    rounds = 0
    while spent < seconds or rounds == 0:
        span = recorder.open(root) if recorder else None
        t0 = mark[0] = perf_counter()
        try:
            out = wl.run_round(tick)
        except Exception as exc:  # every operation of the round fails
            print(f"round raised {exc!r}", file=sys.stderr)
            out = None
        spent += perf_counter() - t0
        if recorder:
            recorder.close(span)
        rounds += 1
        wl.check_round(out, report)
        if between_rounds:
            between_rounds()
    return rates, rounds


def traced_metrics(wl, seconds: float, untraced_rates: list, report: dict) -> dict:
    """The traced pass, checked like the untraced one; returns the per-layer metrics."""
    import spans
    import workloads

    rec = spans.SpanRecorder()
    with spans.Wrappers(rec) as wrappers:
        wl.install(wrappers)
        rates, rounds = timed_pass(wl, seconds, report, rec)
    summ = spans.SpanSummary(rec)
    rec.save(OUT / f"trace-{wl.name}.npz")
    metrics = dict.fromkeys(workloads.PER_LAYER, 0.0)
    metrics.update(wl.layer_metrics(summ, rounds))
    metrics["trace.overhead_pct"] = 100.0 * (
        fast_share(untraced_rates, higher_is_better=True) / fast_share(rates, higher_is_better=True) - 1.0
    )
    metrics["trace.accounted_pct"] = 100.0 * summ.below_root / summ.root_time
    metrics["trace.missing_targets"] = len(wrappers.missing)
    report["trace"] = {
        "spans": summ.spans,
        "rounds": rounds,
        "nested": summ.nested,
        "wall_s": summ.root_time,
        "missing_targets": wrappers.missing,
        "self_time_s": summ.self_by_name(),
        "traced_rates": rates,
    }
    if wrappers.missing:
        print(f"trace targets missing: {', '.join(wrappers.missing)}", file=sys.stderr)
    if not summ.nested:
        report.setdefault("global_failures", []).append("trace spans not nested")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and one set-up probe, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "gstbc" / "__init__.py").is_file():
        print(f"error: no gstbc package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    probes = None
    if not args.trace:
        probes = SetupProbes(args.workload, args.seed, 1 if args.smoke else SETUP_PROBES, args.seconds)
    wl = workloads.make(args.workload, args.seed, args.smoke)
    wl.warm_up()

    # a traced run splits its time between an untraced and a traced pass
    seconds = args.seconds / 2 if args.trace else args.seconds
    rates, rounds = timed_pass(wl, seconds, report, between_rounds=probes.between_rounds if probes else None)
    report.update(rates=rates, rounds=rounds)
    if args.trace:
        metrics = traced_metrics(wl, seconds, rates, report)
        units = workloads.PER_LAYER
    else:
        metrics = {
            "uses_per_s": fast_share(rates, higher_is_better=True),
            "setup_s": probes.setup_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["setup_probe_s"] = probes.times
        units = workloads.END_TO_END

    attempted, failed = wl.finish(report)
    correct = failed == 0 and not report.get("global_failures")
    report.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    for line in report.get("problems", []) + report.get("global_failures", []):
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
