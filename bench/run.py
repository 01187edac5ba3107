"""satguide benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload prove_auto --seed 1 --seconds 35 --trace 0

`--trace 0` measures the end-to-end metrics untraced: it runs whole passes
over the workload's inputs until `--seconds` have elapsed (always at least
one pass) and reports them from each input's median time, scaled by the
yardstick (see yardstick.py). `--trace 1` runs each input untraced and
then traced, with every satguide layer wrapped in spans, and reports the
per-layer metrics and the tracing overhead. README.md lists the metrics.

Every attempt is checked: verdicts against the corpus tags, proofs with
the verifier, and repeated attempts against the first one. Human-readable
lines come first; the last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
only when every attempt was correct. A full result, with the environment
and the search digest, is written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import env

SETUP_REPEATS = 3
CHEAP_S = 0.05  # attempts faster than this repeat back to back...
CHEAP_REPEATS = 5  # ...up to this many runs in a pass

# (name, unit, scope). BENCHMARK.json gates the `all` metrics; `report`
# metrics print for every workload, the others for theirs only. The
# median latency drifts by more than a third of the widest bound between
# runs on a shared machine, so it is printed but not gated.
END_TO_END = [
    ("setup_s", "s", "all"),
    ("pass_s", "s", "all"),
    ("attempts_per_s", "1/s", "all"),
    ("processed_per_s", "clauses/s", "all"),
    ("attempt_ms_p50", "ms", "report"),
    ("attempt_ms_p90", "ms", "all"),
    ("solved_frac", "ratio", "all"),
    ("peak_rss_mb", "MiB", "all"),
    ("failed_frac", "ratio", "report"),
    ("train_steps_per_s", "steps/s", "learn"),
    ("heldout_acc", "ratio", "learn"),
]
GATED = [name for name, _, scope in END_TO_END if scope == "all"]
UNITS = {name: unit for name, unit, _ in END_TO_END}


class Run:
    """Attempt bookkeeping shared by both modes of one run."""

    def __init__(self, workloads):
        self.w = workloads
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[int, object] = {}  # input index -> first outcome

    def account(self, idx: int, name: str, outcome) -> None:
        """Count one judged attempt; a repeat must reproduce the first."""
        self.attempted += 1
        first = self.first.setdefault(idx, outcome)
        if outcome.verdict != "failed" and outcome.record != first.record:
            outcome.verdict, outcome.reason = "failed", "search differs from its first run"
        if outcome.verdict == "failed":
            self.failures.append(f"{name}: {outcome.reason}")

    def attempt(self, inp, fixture, clock):
        """Run one attempt; returns its outcome, start and end time."""
        t0 = clock()
        try:
            outcome = self.w.run_attempt(inp, fixture)
        except Exception as exc:  # one broken attempt must not end the run
            traceback.print_exc(file=sys.stderr)
            outcome = self.w.failed_outcome(exc)
        return outcome, t0, clock()

    def digest(self) -> str:
        return self.w.digest([self.first[i].record for i in sorted(self.first)])


def timed_setup(w, workload: str, seed: int, ys):
    """Set up SETUP_REPEATS times; the median scaled time is setup_s."""
    spans = []
    for _ in range(SETUP_REPEATS):
        ys.sample()
        t0 = ys.clock()
        inputs, fixture = w.setup(workload, seed)
        spans.append((t0, ys.clock()))
    ys.sample()
    return inputs, fixture, statistics.median(ys.scaled(*s) for s in spans)


def per_input_table(run: Run, inputs, durations) -> dict:
    """Per input: scaled median time, samples and counts, for the result file."""
    return {
        inp.name: {"ms": statistics.median(d) * 1e3, "runs": len(d),
                   "status": run.first[k].status, "processed": run.first[k].processed,
                   "generated": run.first[k].generated}
        for k, (inp, d) in enumerate(zip(inputs, durations))
    }


def pass_metrics(outcomes, durations: list[list[float]]) -> dict[str, float]:
    """Throughput and latency of one pass over the inputs, from the median
    of each input's scaled times."""
    med = [statistics.median(d) for d in durations]
    busy = sum(med)
    return {
        "pass_s": busy,
        "attempts_per_s": len(med) / busy,
        "processed_per_s": sum(o.processed for o in outcomes) / busy,
        "attempt_ms_p50": statistics.median(med) * 1e3,
        "attempt_ms_p90": statistics.quantiles(med, n=10, method="inclusive")[8] * 1e3,
        "solved_frac": sum(o.verdict == "solved" for o in outcomes) / len(outcomes),
    }


# -- prove workloads -------------------------------------------------------------


def measure_prove(run: Run, inputs, fixture, seconds: float, ys):
    clock = ys.clock
    order = run.w.interleave(inputs)
    spans: list[list[tuple[float, float]]] = [[] for _ in order]
    t_end = clock() + seconds
    i = 0
    while i < len(order) or clock() < t_end:
        ys.tick()
        idx = i % len(order)
        # a cheap attempt runs again at once, so that the short attempts
        # that set the median latency get as many samples as a pass allows
        busy = 0.0
        for _ in range(CHEAP_REPEATS):
            outcome, t0, t1 = run.attempt(order[idx], fixture, clock)
            run.w.judge(outcome, order[idx].expected)
            run.account(idx, order[idx].name, outcome)
            spans[idx].append((t0, t1))
            busy += t1 - t0
            if busy >= CHEAP_S:
                break
        i += 1
    ys.sample(2)
    durations = [[ys.scaled(*s) for s in per_input] for per_input in spans]
    raw = sum(statistics.median(t1 - t0 for t0, t1 in s) for s in spans)
    m = pass_metrics([run.first[k] for k in range(len(order))], durations)
    return m, {"passes": round(i / len(order), 3), "inputs": len(order), "raw_pass_s": raw,
               "per_input": per_input_table(run, order, durations)}


def trace_prove(run: Run, inputs, fixture, tracing):
    """Each input once untraced and once traced, back to back, so that
    both runs of an attempt see the same machine load."""
    clock = time.perf_counter
    tracer = tracing.Tracer()
    work = {"attempts": 0, "chars": 0, "clause_evals": 0, "batch_calls": 0}
    untraced = 0.0
    for idx, inp in enumerate(run.w.interleave(inputs)):
        outcome, t0, t1 = run.attempt(inp, fixture, clock)
        untraced += t1 - t0
        run.w.judge(outcome, inp.expected)
        run.account(idx, inp.name, outcome)
        tracer.install()
        try:
            with tracer.span(run.w.ROOT_SPAN):
                outcome, _, _ = run.attempt(inp, fixture, clock)
        finally:
            tracer.uninstall()
        run.w.judge(outcome, inp.expected)
        run.account(idx, inp.name, outcome)
        work["attempts"] += 1
        work["chars"] += outcome.chars
        work["clause_evals"] += outcome.evals
        work["batch_calls"] += outcome.batch_calls
    return tracer, work, untraced


# -- learn ------------------------------------------------------------------------


def judge_learn(run: Run, inputs, result):
    for idx, (inp, outcome) in enumerate(zip(inputs, result.outcomes)):
        run.w.judge(outcome, inp.expected)
        run.account(idx, inp.name, outcome)
    run.account(len(inputs), "train", run.w.Outcome(
        "trained", 0, 0, result.record,
        verdict="failed" if result.failure else "solved", reason=result.failure))


def measure_learn(run: Run, inputs, seconds: float, ys):
    clock = ys.clock
    start = clock()
    passes = []
    # a pass is one whole pipeline; start another only if it fits
    while not passes or clock() - start + passes[-1].busy_s() <= seconds:
        result = run.w.learn_pass(inputs, clock, tick=ys.tick)
        judge_learn(run, inputs, result)
        passes.append(result)
    ys.sample(2)
    durations = [[ys.scaled(*s) for s in per_input]
                 for per_input in zip(*(p.intervals for p in passes))]
    m = pass_metrics([run.first[k] for k in range(len(inputs))], durations)
    phase = {name: statistics.median(ys.scaled(*p.phases[name]) for p in passes)
             for name in passes[0].phases}
    m["pass_s"] = sum(statistics.median(d) for d in durations) + sum(phase.values())
    m["train_steps_per_s"] = run.w.TRAIN_STEPS / phase["train"]
    m["heldout_acc"] = passes[0].heldout_acc
    info = {"passes": len(passes), "inputs": len(inputs), "examples": passes[0].examples,
            "phases_s": phase, "raw_pass_s": statistics.median(p.busy_s() for p in passes),
            "per_input": per_input_table(run, inputs, durations)}
    return m, info


def trace_learn(run: Run, inputs, tracing):
    clock = time.perf_counter
    untraced = run.w.learn_pass(inputs, clock)
    judge_learn(run, inputs, untraced)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.w.learn_pass(inputs, clock, span=tracer.span)
    finally:
        tracer.uninstall()
    judge_learn(run, inputs, traced)
    work = {"attempts": len(inputs) + 1, "chars": sum(len(i.text) for i in inputs),
            "clause_evals": 0, "batch_calls": 0}
    return tracer, work, untraced.busy_s()


# -- main -------------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  limit: int | None = None) -> dict:
    """One run; `limit` keeps the first inputs of each group (self-test)."""
    import tracing
    import workloads as w
    from yardstick import Yardstick

    if workload not in w.WORKLOADS:
        raise env.SetupError(f"unknown workload {workload!r}; one of {w.WORKLOADS}")
    ys = Yardstick()
    try:
        inputs, fixture, setup_s = timed_setup(w, workload, seed, ys)
    except OSError as exc:
        raise env.SetupError(f"set-up failed: {exc}") from exc
    if limit is not None:
        inputs = w.first_of_each_group(inputs, limit)

    run = Run(w)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "load": "closed loop, 1 client, 1 attempt at a time",
        "environment": env.describe(),
    }
    if trace:
        if workload == "learn":
            tracer, work, untraced_s = trace_learn(run, inputs, tracing)
        else:
            tracer, work, untraced_s = trace_prove(run, inputs, fixture, tracing)
        values = tracing.layer_metrics(tracer, w.ROOT_SPAN, work, untraced_s)
        units = dict(tracing.LAYER_METRICS)
        os.makedirs(env.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(env.OUT_DIR, f"spans-{workload}-seed{seed}.npz")
        tracer.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, env.ROOT)
        result["emitted"] = [name for name, _ in tracing.LAYER_METRICS]
    else:
        if workload == "learn":
            values, info = measure_learn(run, inputs, seconds, ys)
        else:
            values, info = measure_prove(run, inputs, fixture, seconds, ys)
        info["slowdown"] = ys.slowdown()
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["failed_frac"] = len(run.failures) / run.attempted
        result["samples"] = info
        units = UNITS
        result["emitted"] = GATED
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result["digest"] = run.digest()
    result["attempted"] = run.attempted
    result["failures"] = run.failures
    result["correct"] = not run.failures
    return result


def report(result: dict) -> None:
    envd = result["environment"]
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {result['load']}")
    print(f"# nproc {envd['nproc']}  python {envd['python']}  numpy {envd['numpy']}  "
          f"blas {envd['blas']}  threads {envd['blas_threads']}")
    if "samples" in result:
        shown = {k: v for k, v in result["samples"].items() if k != "per_input"}
        print(f"# samples {json.dumps(shown, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# digest {result['digest']}  attempted {result['attempted']}  "
          f"failed {len(result['failures'])}")
    for line in result["failures"][:20]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: result["metrics"][k] for k in result["emitted"]},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="satguide benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        env.pin()
        result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except env.SetupError as exc:
        print(f"bench: cannot run here: {exc}", file=sys.stderr)
        return 2
    os.makedirs(env.OUT_DIR, exist_ok=True)
    path = os.path.join(env.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
