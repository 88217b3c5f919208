#!/usr/bin/env python3
"""Repository benchmark: builds the worker, runs one workload, prints one
JSON result line.

    python3 perfbench/run.py --workload serve_rerank --seed 1 --seconds 35 --trace 0

Run it from the repository root. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
full record of the run (raw figures, context, spans) goes to
.bench_build/perfbench/results/. Workloads, metrics and the layer map are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was
import stats  # noqa: E402

SETUP_REPEATS = 3
ORACLE_SHARE = 0.03
CAPACITY_RESOLUTION = 0.05  # step of the latency-limited capacity search
SEARCH_DEADLINE_S = 100.0  # a run must end within 180 s

# Every trial of a run serves the same first `requests` requests of the
# stream (None = all of it) on a fresh prewarmed service, so per-request
# work is the same at every rate. The reference rate of the traced runs
# sits at about a third of the capacity the defaults reach on a 4-vCPU VM. serve_city serves its
# whole (short) stream: histories grow along it, and only the whole stream
# has the intended 40-55% of requests past the serving window.
WORKLOADS = {
    "serve_rerank": {"ref_rate": 400.0, "requests": 1000},
    "serve_city": {"ref_rate": 250.0, "requests": None},
}
# The untraced run repeats rounds of (saturation trials, eval block,
# training block) until --seconds have passed, at least MIN_ROUNDS times,
# so every kind of sample is spread over the whole run. Reference-rate
# trials run in traced runs only (see serve_trace).
MIN_ROUNDS = 3
SATURATION_TRIALS = 3  # per round
EVAL_BLOCK_S = 1.0  # eval passes per round: at least one and this long
EVAL_SAMPLE_S = 0.2  # shortest eval sample (consecutive passes joined)
FLOOD_RATE = 1e6  # offered rate of a saturation trial: every request at once
# serve/* counters the direct re-issue must reproduce exactly.
PATH_COUNTERS = ("serve/incremental_scored", "serve/fallback_scored", "serve/evictions",
                 "serve/cold_builds", "serve/cache_rebuilds", "serve/catalog_requests",
                 "serve/overflows")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the worker under .bench_build; returns its path
    or None when the sources are missing or do not compile."""
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("repository sources (src/) not found; cannot build")
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_worker",
                  "-j", str(min(4, os.cpu_count() or 1))])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_worker")


class Worker:
    """The C++ worker process, driven one command per line."""

    def __init__(self, binary, workload, seed, trace, spans):
        self.proc = subprocess.Popen(
            [binary, "--workload", workload, "--seed", str(seed),
             "--trace", "1" if trace else "0", "--spans", spans],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def cmd(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker exited during '{line}'")
        data = json.loads(reply)
        if "error" in data:
            raise RuntimeError(f"worker error during '{line}': {data['error']}")
        return data

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def source_commit(root):
    """The git commit when the checkout is a repository, else a digest of
    the sources the worker is built from."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()


def ratio(num, den):
    return num / den if den else 0.0


class Run:
    """Collects figures and failures of one benchmark run."""

    def __init__(self):
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.e2e = {}
        self.layer = {}
        self.record = {}

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
            log("CHECK FAILED: " + what)


def setup_phase(worker, run):
    setups = [worker.cmd("setup") for _ in range(SETUP_REPEATS)]
    run.record["setup"] = setups
    run.e2e["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    run.layer["data.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    return setups[-1]


def pass_rates(reply):
    """(instances per second, host steal share) of the eval passes of a
    fit_eval or eval_pass reply, consecutive passes joined until each sample
    lasts EVAL_SAMPLE_S: /proc/stat counts steal in 10 ms ticks, too coarse
    for one short pass."""
    samples, seconds, stolen, passes = [], 0.0, 0.0, 0
    for t, st in zip(reply["pass_s"], reply["pass_steal"]):
        seconds, stolen, passes = seconds + t, stolen + st * t, passes + 1
        if seconds >= EVAL_SAMPLE_S or (not samples and passes == len(reply["pass_s"])):
            samples.append((reply["instances"] * passes / seconds, stolen / seconds))
            seconds, stolen, passes = 0.0, 0.0, 0
    return samples


def epoch_rates(fit):
    """(windows per second, host steal share) of each epoch of a fit but the
    first, which also captures the step plan and fills the caches and the
    arena."""
    per_epoch = fit["windows"] / len(fit["epoch_s"])
    return [(per_epoch / t, st) for t, st in zip(fit["epoch_s"][1:], fit["epoch_steal"][1:])]


def fit_eval_figures(fe, run):
    """Per-layer figures and checks of the fit_eval reply."""
    fit, ev = fe["fit_obs"], fe["eval_obs"]
    epochs = fe["epoch_s"]
    run.layer["train.first_epoch_s"] = epochs[0]
    run.layer["train.epoch_s"] = statistics.mean(epochs[1:]) if len(epochs) > 1 else epochs[0]
    run.layer["train.opt_steps"] = fit.get("train/opt_steps", 0.0)
    steps = fit.get("plan/steps", 0.0) + ev.get("plan/steps", 0.0)
    run.layer["plan.replay_share"] = ratio(
        fit.get("plan/replays", 0.0) + ev.get("plan/replays", 0.0), steps)
    run.layer["plan.recaptures"] = fit.get("plan/recaptures", 0.0) + ev.get("plan/recaptures", 0.0)
    hits = fit.get("arena/hits", 0.0) + fit.get("arena/exact_hits", 0.0)
    run.layer["tensor.arena_hit_rate"] = ratio(hits, hits + fit.get("arena/misses", 0.0))
    run.layer["eval.hr_at_10"] = fe["hr10"]
    run.layer["eval.ndcg_at_10"] = fe["ndcg10"]
    run.layer["eval.score_batch_ms"] = statistics.mean(fe["batch_ms"])
    run.check(fit.get("tape/negative_gaps_clamped", 0.0) == 0
              and ev.get("tape/negative_gaps_clamped", 0.0) == 0,
              "tape/negative_gaps_clamped moved during fit/eval")
    run.check(fe["passes_reproduce"], "eval passes did not reproduce HR@10/NDCG@10")
    run.attempted += fe["windows"] + fe["instances"] * len(fe["pass_s"])
    if not fe["passes_reproduce"]:
        run.failed += fe["instances"] * fe["passes"]


def check_reproduced(fe, run, results_dir, workload, seed):
    """The served model's fit and first eval pass (final loss, HR@10,
    NDCG@10) must equal those of every earlier run of this binary with this
    workload and seed."""
    path = os.path.join(results_dir, "reference", f"{workload}-{seed}.json")
    mine = {k: fe[k] for k in ("final_loss", "hr10", "ndcg10")}
    mine["binary"] = run.record["binary_sha256"]
    if os.path.isfile(path):
        with open(path) as f:
            previous = json.load(f)
        if previous.get("binary") == mine["binary"]:
            run.check(previous == mine, f"fit/eval results differ from an earlier run: {previous}")
            run.attempted += 1
            run.failed += previous != mine
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(mine, f)


def trial_cmd(worker, rate, requests):
    return worker.cmd(f"trial {rate!r} {requests} {ORACLE_SHARE}")


def account_trial(trial, run):
    run.attempted += trial["sent"]
    bad = trial["not_ok"] + trial["oracle_mismatches"] + trial["invariant_violations"]
    run.failed += bad
    run.check(bad == 0, f"trial at {trial['rate']:.0f} req/s: {trial['first_failure']}")
    run.check(trial["obs"].get("tape/negative_gaps_clamped", 0.0) == 0,
              "tape/negative_gaps_clamped moved while serving")


def path_shares(obs):
    req = obs.get("serve/requests", 0.0)
    return {
        "incremental": ratio(obs.get("serve/incremental_scored", 0.0), req),
        "fallback": ratio(obs.get("serve/fallback_scored", 0.0), req),
        "catalog": ratio(obs.get("serve/catalog_requests", 0.0), req),
        "evictions": ratio(obs.get("serve/evictions", 0.0), req),
        "cold_builds": ratio(obs.get("serve/cold_builds", 0.0), req),
        "cache_rebuilds": ratio(obs.get("serve/cache_rebuilds", 0.0), req),
    }


def check_mix(workload, shares, run):
    """The layer mix each serving workload was chosen for."""
    if workload == "serve_rerank":
        run.check(shares["incremental"] >= 0.99 and shares["evictions"] == 0
                  and shares["fallback"] == 0 and shares["catalog"] == 0,
                  f"serve_rerank path mix off: {shares}")
    elif workload == "serve_city":
        run.check(all(shares[k] > 0 for k in
                      ("incremental", "fallback", "catalog", "evictions", "cold_builds")),
                  f"serve_city path mix off: {shares}")


def serve_layer_figures(ref, run):
    obs = ref["obs"]
    req = obs.get("serve/requests", 0.0)
    run.layer["serve.service_ms.p50"] = stats.percentile(ref["service_ms"], 0.5)
    run.layer["serve.service_ms.p99"] = stats.tail(ref["service_ms"])
    run.layer["serve.queue_wait_ms"] = 1e3 * ratio(obs.get("serve/queue_wait#sum", 0.0),
                                                   obs.get("serve/queue_wait#count", 0.0))
    run.layer["serve.generator_lag_ms"] = stats.tail(ref["lag_ms"])
    run.layer["serve.latency_samples"] = float(len(ref["latency_ms"]))
    run.layer["serve.batch_size"] = ratio(obs.get("serve/batch_size#sum", 0.0),
                                          obs.get("serve/batch_size#count", 0.0))
    shares = path_shares(obs)
    for key in ("incremental", "fallback", "catalog"):
        run.layer[f"serve.{key}_share"] = shares[key]
    for key in ("evictions", "cold_builds", "cache_rebuilds"):
        run.layer[f"serve.{key}_per_req"] = shares[key]
    run.layer["core.causal_masks_per_req"] = ratio(obs.get("mask/causal_built", 0.0), req)
    for cache in ("tape", "relation"):
        hits = obs.get(f"{cache}/cache_hits", 0.0)
        run.layer[f"core.{cache}_cache_hit_rate"] = ratio(
            hits, hits + obs.get(f"{cache}/cache_misses", 0.0))
    run.layer["tensor.dispatches_per_op"] = ratio(obs.get("kernels/dispatches", 0.0), req)
    run.layer["util.pool_tasks_per_op"] = ratio(obs.get("threadpool/tasks_submitted", 0.0), req)
    if ref["enqueue_us"]:
        run.layer["serve.enqueue_us.p50"] = stats.percentile(ref["enqueue_us"], 0.5)
        run.layer["serve.enqueue_us.p99"] = stats.tail(ref["enqueue_us"])


def serve_trace(worker, name, cfg, requests, run):
    """Traced serving: one reference trial, its direct re-issue, and the
    latency-limited capacity search (per-layer figures only)."""
    ref = trial_cmd(worker, cfg["ref_rate"], requests)
    account_trial(ref, run)
    check_mix(name, path_shares(ref["obs"]), run)
    serve_layer_figures(ref, run)
    run.layer["serve.p50_ms"] = stats.percentile(ref["latency_ms"], 0.5)
    run.layer["serve.p99_ms"] = stats.tail(ref["latency_ms"])
    re = worker.cmd("reissue")
    run.record["reissue"] = re
    run.attempted += re["requests"]
    run.failed += re["mismatches"]
    run.check(re["mismatches"] == 0, "direct re-issue scores differ from served")
    for key in PATH_COUNTERS:
        direct, served = re["paths"].get(key, 0.0), ref["obs"].get(key, 0.0)
        run.check(direct == served, f"re-issue counted {key}={direct}, the service {served}")
    total, calls = re["calls"].get("core.incremental_score", (0.0, 0))
    run.layer["core.incremental.score_us"] = 1e6 * ratio(total, calls)
    direct_us = 1e6 * re["layer_s"] / max(1, re["requests"])
    run.layer["serve.overhead_us_per_req"] = 1e3 * statistics.mean(ref["service_ms"]) - direct_us
    run.layer["obs.trace_overhead"] = ratio(
        re["wall_traced_s"] - re["wall_untraced_s"], re["wall_untraced_s"])

    trials = []

    def passes(rate):
        # A failing rate is tried once more: a passing retry shows the
        # failure came from the host, not from the service's load. Out of
        # time, the search ends on the highest rate that passed so far.
        for _ in range(2):
            if time.monotonic() - run.started > SEARCH_DEADLINE_S:
                run.record["capacity_search_cut"] = True
                log(f"capacity search out of time at {rate:.1f} req/s")
                return False
            t = trial_cmd(worker, rate, requests)
            account_trial(t, run)
            ok = stats.trial_passes(t["latency_ms"], t["sent"], t["ok"])
            trials.append((rate, ok))
            log(f"capacity trial {rate:8.1f} req/s: robust p99"
                f" {stats.robust_tail(t['latency_ms']):8.3f} ms -> {'pass' if ok else 'fail'}")
            if ok:
                return True
        return False

    capacity, _ = stats.capacity_search(passes, 2.0 * cfg["ref_rate"], CAPACITY_RESOLUTION,
                                        max_trials=10)
    run.record["capacity_trials"] = trials
    run.layer["serve.slo_capacity_rps"] = capacity


def serve_workload(worker, name, cfg, seconds, trace, run, results_dir, seed):
    setup = setup_phase(worker, run)
    fe = worker.cmd(f"fit_eval {EVAL_BLOCK_S!r} 1")
    run.record["fit_eval"] = fe
    fit_eval_figures(fe, run)
    check_reproduced(fe, run, results_dir, name, seed)
    requests = setup["stream_requests"] if cfg["requests"] is None else cfg["requests"]
    if trace:
        serve_trace(worker, name, cfg, requests, run)
        return

    # (value, host steal share) samples of each kind, spread over the run.
    throughputs = []
    evals, trains = pass_rates(fe), epoch_rates(fe)

    def saturate():
        # Every request offered at once: the rate the service drains them at.
        t = trial_cmd(worker, FLOOD_RATE, requests)
        account_trial(t, run)
        throughputs.append((t["sent"] / t["wall_s"], t["steal_share"]))
        log(f"saturated: {throughputs[-1][0]:.1f} req/s, steal {t['steal_share']:.3f}")
        return t

    def eval_block():
        e = worker.cmd(f"eval_pass {EVAL_BLOCK_S!r}")
        same = e["passes_reproduce"] and (e["hr10"], e["ndcg10"]) == (fe["hr10"], fe["ndcg10"])
        run.check(same, "eval passes did not reproduce HR@10/NDCG@10")
        run.attempted += e["instances"] * len(e["pass_s"])
        run.failed += 0 if same else e["instances"] * len(e["pass_s"])
        evals.extend(pass_rates(e))

    def train_block():
        # A fresh model fitted with the served model's schedule from the
        # same seed: it must end on the same loss.
        t = worker.cmd("train")
        same = t["final_loss"] == fe["final_loss"]
        run.check(same, f"a refit ended on loss {t['final_loss']}, the first fit on"
                  f" {fe['final_loss']}")
        run.attempted += t["windows"]
        run.failed += 0 if same else t["windows"]
        trains.extend(epoch_rates(t))

    measure_start = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - measure_start < seconds:
        for i in range(SATURATION_TRIALS):
            t = saturate()
            if rounds == 0 and i == 0:
                shares = path_shares(t["obs"])
                run.record["path_shares"] = shares
                check_mix(name, shares, run)
        eval_block()
        train_block()
        rounds += 1
    run.record["samples"] = {"saturated_rps": throughputs, "eval_rate": evals,
                             "train_rate": trains, "rounds": rounds,
                             "measure_s": time.monotonic() - measure_start}

    run.e2e["throughput_rps"] = stats.at_zero_steal(throughputs)
    run.e2e["eval_instances_per_s"] = stats.at_zero_steal(evals)
    run.e2e["train_windows_per_s"] = stats.at_zero_steal(trains)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=None,
                        help="where the run record goes (default .bench_build/perfbench/results)")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    binary = build(root)
    if binary is None:
        return 2
    results_dir = args.results_dir or os.path.join(root, ".bench_build", "perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(results_dir, stem + ".spans.json")

    run = Run()
    run.record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, commit=source_commit(root),
                      binary_sha256=sha256_file(binary))
    cfg = WORKLOADS[args.workload]
    started = time.monotonic()
    worker = Worker(binary, args.workload, args.seed, args.trace, spans_path)
    try:
        serve_workload(worker, args.workload, cfg, args.seconds, args.trace, run,
                       results_dir, args.seed)
        if args.trace:
            probes = worker.cmd("probes")["probes"]
            run.layer.update({k: v for k, v in probes.items() if k in units})
        facts = worker.cmd("finish")
    finally:
        worker.close()
    run.record["facts"] = facts
    run.record["wall_s"] = time.monotonic() - started
    run.e2e["peak_rss_mb"] = facts["peak_rss_mb"]
    run.e2e["ok_rate"] = 1.0 - run.failed / max(1, run.attempted)
    run.layer["util.pool_threads"] = float(facts["pool_threads"])
    run.layer["obs.host_steal_share"] = facts["steal_share"]

    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)["spans"]
        per_layer, _ = stats.self_times(spans)
        for layer in ("serve", "core", "geo", "eval", "train", "tensor", "data"):
            run.layer[f"{layer}.self_s"] = per_layer.get(layer, 0.0)
        # The traced re-issue is the only span set with request ids: its
        # remainder is harness time between the layer calls of requests.
        _, unattributed = stats.self_times([s for s in spans if s[2] >= 0])
        run.layer["obs.unattributed_s"] = unattributed
        run.record["self_times"] = per_layer

    figures = run.layer if args.trace else run.e2e
    missing = sorted(set(units) - set(figures))
    run.check(not missing, f"metrics not measured: {missing}")
    result = {
        "correct": not run.problems,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {name: {"value": float(figures.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    problems = stats.validate_result(result, units)
    run.check(not problems, f"result schema: {problems}")
    result["correct"] = not run.problems
    run.record.update(result=result, problems=run.problems, e2e=run.e2e, layer=run.layer)
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(run.record, f)
    log(f"{args.workload} seed {args.seed}: {'correct' if result['correct'] else 'INCORRECT'}"
        f" in {run.record['wall_s']:.1f}s; pool {facts['pool_threads']} threads,"
        f" simd {facts['simd']}, {facts['build_type']}, nproc {facts['nproc']},"
        f" commit {run.record['commit'][:24]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
