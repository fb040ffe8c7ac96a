#!/usr/bin/env python3
"""The repository benchmark: the `holes` CLI on single-threaded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 15 --trace 0

Workloads (perfbench/LAYERS.md says why each exists and what it predicts):

  campaign       holes campaign --personality ccg --out F, no store
  store-warm     holes triage --personality lcc --json --cache-dir D, rerun
                 over a store filled cold (untimed) with the same command
  triage-reduce  the same triage with no store, then holes reduce on a
                 seeded sample of the range's seeds

This script starts one CLI process at a time, with HOLES_THREADS=1.
The seed picks the seed range and the reduce sample; the CLI only sees the
generated arguments.

--trace 0 repeats rounds of the workload for --seconds and reports the
end-to-end metrics: medians over rounds of subjects_per_s, cpu_s,
peak_rss_mb and the disk_mb a round leaves behind, and setup_s, the median
of three set-ups.

--trace 1 alternates untimed CLI rounds with the traced replay
(perfbench/replay: the same work through the library's public functions,
one span per layer call), checks that the replay did the same work, and
reports the per-layer metrics.

Every output is checked; an operation is one CLI invocation or one check,
and any non-zero exit or mismatch counts as failed. The last line of
stdout is the JSON result; progress goes to stderr.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("campaign", "store-warm", "triage-reduce")

# Seeds per round: a round takes about a second on a shared 2-vCPU machine,
# long enough to average over program sizes, short enough for many rounds.
RANGE_SEEDS = {"campaign": 800, "store-warm": 150, "triage-reduce": 300}
REDUCE_SAMPLE = 24
# Triage every unique violation: no range here has this many.
TRIAGE_LIMIT = 1_000_000
SETUPS = 3
# A CLI process that runs longer than this is killed and counted as failed.
PROCESS_TIMEOUT_S = 100

GOLDEN_CAMPAIGN = Path("tests/golden/cli-campaign-2500-2506.json")
GOLDEN_REPORT = Path("tests/golden/cli-report-2500-2506.txt")
REPLAY_MANIFEST = Path("perfbench/replay/Cargo.toml")
WORK_ROOT = Path(".bench_work")

STATS_KEYS = ("compiles", "traces", "checks", "hits", "disk loads", "codegen-only", "plan stops")
STORE_KEYS = ("loads", "misses", "writes", "rejected")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Proc:
    """One finished process: exit code, wall time, CPU time, peak RSS."""

    def __init__(self, code, wall, cpu, rss_kb, stdout, stderr):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.stderr = stderr

    def stats(self):
        """The `--stats` counters printed on stderr, as a flat dict."""
        found = {}
        for line in self.stderr.read_text(errors="replace").splitlines():
            for prefix, keys in (("stats", STATS_KEYS), ("store", STORE_KEYS)):
                if line.startswith(prefix + ":"):
                    for key in keys:
                        match = re.search(rf"(?:: |, ){re.escape(key)} (\d+)", line)
                        if match:
                            found[f"{prefix}.{key}"] = int(match.group(1))
        return found


class Bench:
    """Starts processes one at a time and counts operations and failures."""

    def __init__(self, holes, replay, work):
        self.holes = holes
        self.replay = replay
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, HOLES_THREADS="1")
        self.env.pop("HOLES_CACHE_DIR", None)
        self.serial = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")
        return ok

    def spawn(self, argv, label):
        """Run one process to completion, reading its rusage with wait4."""
        argv = [str(a) for a in argv]
        self.serial += 1
        stdout = self.work / f"{self.serial:05d}-{label}.out"
        stderr = self.work / f"{self.serial:05d}-{label}.err"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            process = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, process.kill)
            watchdog.start()
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
            process.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if process.returncode != 0:
            self.failed += 1
            tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
            log(f"`{' '.join(argv[1:])}` exited {process.returncode}: {tail}")
        return Proc(process.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout, stderr)

    def holes_cli(self, args, label):
        return self.spawn([self.holes] + args, label)


def tree_bytes(path):
    """Bytes of every regular file under path (0 if it does not exist)."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Round:
    """What one round of a workload did and produced."""

    def __init__(self):
        self.procs = []
        self.outputs = {}
        self.stats = []
        self.disk = 0

    def add(self, proc, stats=False):
        self.procs.append(proc)
        if stats:
            self.stats.append(proc.stats())
        return proc

    @property
    def wall(self):
        return sum(p.wall for p in self.procs)

    @property
    def cpu(self):
        return sum(p.cpu for p in self.procs)

    @property
    def rss_kb(self):
        return max(p.rss_kb for p in self.procs)


class Workload:
    def __init__(self, name, seed, bench):
        self.name = name
        self.seed = seed
        self.bench = bench
        self.seeds = RANGE_SEEDS[name]
        base = 100_000 + (seed % 10_000) * 10_000
        self.range = f"{base}..{base + self.seeds}"
        sample = random.Random(seed).sample(range(base, base + self.seeds), REDUCE_SAMPLE)
        self.reduce_seeds = sorted(sample) if name == "triage-reduce" else []
        self.stores = 0
        self.store = None
        self.reference = None

    def new_store(self):
        """A never-used store directory. Stores are deleted only when the
        run ends, never while it measures."""
        self.stores += 1
        self.store = self.bench.work / f"store-{self.stores}"
        return self.store

    # ---------------------------------------------------------------- commands

    def campaign(self, round_, out, store=None, label="campaign"):
        args = ["campaign", "--personality", "ccg", "--seeds", self.range, "--out", out, "--stats"]
        if store is not None:
            args += ["--cache-dir", store]
        round_.add(self.bench.holes_cli(args, label), stats=True)
        round_.outputs["campaign"] = out.read_bytes() if out.exists() else b""
        round_.disk += len(round_.outputs["campaign"]) + (tree_bytes(store) if store else 0)

    def triage(self, round_, store=None, label="triage"):
        args = ["triage", "--personality", "lcc", "--seeds", self.range, "--limit", TRIAGE_LIMIT,
                "--json", "--stats"]
        if store is not None:
            args += ["--cache-dir", store]
        proc = round_.add(self.bench.holes_cli(args, label), stats=True)
        round_.outputs["triage"] = proc.stdout.read_bytes()
        round_.disk += len(round_.outputs["triage"]) + (tree_bytes(store) if store else 0)

    def reduces(self, round_):
        for seed in self.reduce_seeds:
            proc = round_.add(self.bench.holes_cli(
                ["reduce", "--personality", "lcc", "--seed", seed], f"reduce-{seed}"))
            round_.outputs[f"reduce-{seed}"] = proc.stdout.read_bytes()

    # ------------------------------------------------------------------ phases

    def golden_check(self):
        bench = self.bench
        out = bench.work / "golden.json"
        bench.holes_cli(["campaign", "--seeds", "2500..2506", "--out", out, "--quiet"], "golden")
        bench.check(out.exists() and out.read_bytes() == GOLDEN_CAMPAIGN.read_bytes(),
                    f"campaign 2500..2506 differs from {GOLDEN_CAMPAIGN}")
        report = bench.holes_cli(["report", out], "golden-report")
        bench.check(report.stdout.read_bytes() == GOLDEN_REPORT.read_bytes(),
                    f"report of 2500..2506 differs from {GOLDEN_REPORT}")

    def setup(self):
        """One set-up: the golden pre-check, then the workload's reference
        run. For store-warm that is the storeless triage, triage-reduce's
        command, whose JSON every warm round must print."""
        self.golden_check()
        reference = Round()
        if self.name == "campaign":
            self.campaign(reference, self.bench.work / "reference.json", label="reference")
        else:
            self.triage(reference, label="reference")
            self.reduces(reference)
        return reference

    def fill_store(self):
        """store-warm only: fill a new store cold with the round's command,
        once and untimed. Creating its ~7000 files takes 0.3 to 3.5 s of
        system time on an ext4 volume, varying from one minute to the next,
        so no set-up time includes it."""
        fill = Round()
        self.triage(fill, store=self.new_store(), label="cold-fill")
        self.bench.check(fill.outputs["triage"] == self.reference.outputs["triage"],
                         "store-warm triage JSON differs from the storeless triage")
        return fill

    def run_round(self):
        round_ = Round()
        if self.name == "campaign":
            self.campaign(round_, self.bench.work / "round.json")
        elif self.name == "store-warm":
            self.triage(round_, store=self.store)
        else:
            self.triage(round_)
            self.reduces(round_)
        self.check_round(round_)
        return round_

    def check_round(self, round_):
        """Check a round's outputs against the set-up's reference."""
        bench = self.bench
        for key, value in round_.outputs.items():
            bench.check(value == self.reference.outputs.get(key),
                        f"{self.name} output `{key}` differs from the set-up's reference")
        if self.name == "store-warm":
            stats = round_.stats[0]
            bench.check(all(stats.get(f"stats.{k}") == 0 for k in ("compiles", "traces", "checks")),
                        f"warm round recomputed: {stats}")
        for seed in self.reduce_seeds:
            text = round_.outputs[f"reduce-{seed}"].decode(errors="replace")
            bench.check(re.search(r"^reduced \d+ -> \d+ statements", text, re.M) is not None
                        or "no violations" in text, f"reduce --seed {seed} printed no result")

    def cross_checks(self):
        """An untimed check after store-warm's rounds: a campaign writing a
        cold store prints the storeless campaign's document."""
        if self.name != "store-warm":
            return None
        bench = self.bench
        cold, plain = Round(), Round()
        store = self.new_store()
        self.campaign(cold, bench.work / "cold.json", store=store, label="store-cold")
        self.campaign(plain, bench.work / "plain.json", label="storeless-campaign")
        bench.check(cold.outputs["campaign"] == plain.outputs["campaign"],
                    "campaign document with a cold store differs from the storeless one")
        return cold, store


def check_counters(bench, workload, rounds, setups, fill):
    """CLI --stats counters must repeat exactly: across rounds, across
    set-ups, and across runs of the same binary on the same range."""
    timed = [r.stats for r in rounds]
    bench.check(all(s == timed[0] for s in timed), f"--stats counters drift across rounds: {timed}")
    prepared = [s.stats for s in setups]
    bench.check(all(s == prepared[0] for s in prepared), f"--stats counters drift across set-ups: {prepared}")
    record = {"timed": timed[0], "setup": prepared[0], "fill": fill.stats if fill else None}
    digest = hashlib.sha256(bench.holes.read_bytes()).hexdigest()[:16]
    path = WORK_ROOT / "stats" / digest / f"{workload.name}-{workload.range}.json"
    if path.exists():
        bench.check(json.loads(path.read_text()) == json.loads(json.dumps(record)),
                    f"--stats counters differ from an earlier run of this binary ({path})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    log(f"{workload.name} --stats per round: {timed[0]}")


# ---------------------------------------------------------------- untraced


def measure(bench, workload, seconds):
    setup_times = []
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        setups.append(workload.setup())
        setup_times.append(time.perf_counter() - start)
    workload.reference = setups[-1]
    fill = workload.fill_store() if workload.name == "store-warm" else None

    rounds = []
    phase_start = time.perf_counter()
    while not rounds or time.perf_counter() - phase_start < seconds:
        rounds.append(workload.run_round())
    workload.cross_checks()
    check_counters(bench, workload, rounds, setups, fill)

    log(f"{workload.name}: {len(rounds)} rounds over {workload.range}; round walls "
        + " ".join(f"{r.wall:.3f}" for r in rounds) + "; set-ups " + " ".join(f"{t:.3f}" for t in setup_times))
    return {
        "subjects_per_s": (statistics.median(workload.seeds / r.wall for r in rounds), "1/s"),
        "cpu_s": (statistics.median(r.cpu for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r.rss_kb for r in rounds) / 1024, "MB"),
        "disk_mb": (statistics.median(r.disk for r in rounds) / 1e6, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


# ------------------------------------------------------------------ traced


def run_replay(bench, args):
    """One replay process; returns its report, or None after counting the
    failure."""
    proc = bench.spawn([bench.replay] + args, "replay")
    try:
        return json.loads(proc.stdout.read_text().strip().splitlines()[-1])
    except (IndexError, ValueError):
        bench.check(False, "replay printed no report")
        return None


def check_parity(bench, report, cli_round, output, replayed, with_store):
    """The replay did the same work as the CLI round: byte-identical
    output, and counters equal to the CLI's --stats (its `store:` line too
    when the round had a store)."""
    bench.check(replayed.exists() and replayed.read_bytes() == cli_round.outputs[output],
                f"replay {output} output differs from the CLI's")
    cli = cli_round.stats[0]
    pairs = [(f"stats.{k}", "cache." + re.sub(r"[ -]", "_", k)) for k in STATS_KEYS]
    if with_store:
        pairs += [(f"store.{k}", f"store.{k}") for k in STORE_KEYS]
    counts = report["counts"]
    mismatched = [(c, cli.get(c), counts.get(r)) for c, r in pairs if cli.get(c) != counts.get(r)]
    bench.check(not mismatched, f"replay counters differ from the CLI's --stats: {mismatched}")


def replay_round(bench, workload, cli_round):
    """Replay one round of the workload and check it against the CLI's."""
    out = bench.work / "replay.out"
    if workload.name == "campaign":
        report = run_replay(bench, ["campaign", "--personality", "ccg", "--seeds", workload.range, "--out", out])
        if report:
            check_parity(bench, report, cli_round, "campaign", out, with_store=False)
        return report
    args = ["triage", "--personality", "lcc", "--seeds", workload.range, "--out", out]
    if workload.name == "store-warm":
        args += ["--cache-dir", workload.store]
    reduce_dir = bench.work / "replay-reduce"
    if workload.reduce_seeds:
        reduce_dir.mkdir(exist_ok=True)
        args += ["--reduce", ",".join(map(str, workload.reduce_seeds)), "--reduce-dir", reduce_dir]
    report = run_replay(bench, args)
    if report:
        check_parity(bench, report, cli_round, "triage", out, with_store=workload.name == "store-warm")
        for seed in workload.reduce_seeds:
            replayed = reduce_dir / f"{seed}.txt"
            bench.check(replayed.exists() and replayed.read_bytes() == cli_round.outputs[f"reduce-{seed}"],
                        f"replay reduce --seed {seed} differs from the CLI's")
    return report


def replay_fill(bench, workload, cold, cold_store):
    """Replay the store write path: the cold-store campaign of
    store-warm's cross-checks, against that CLI run."""
    out = bench.work / "replay-fill.json"
    store = workload.new_store()
    report = run_replay(bench, ["campaign", "--personality", "ccg", "--seeds", workload.range, "--out", out,
                                "--cache-dir", store])
    if report:
        check_parity(bench, report, cold, "campaign", out, with_store=True)
        bench.check(tree_bytes(store) == tree_bytes(cold_store), "replay store bytes differ from the CLI's")
    return report


def self_totals(reports):
    """Per-layer self seconds summed over reports."""
    totals = {}
    for report in reports:
        for name, layer in report["layers"].items():
            totals[name] = totals.get(name, 0.0) + layer["self_s"]
    return totals


SPAN_LAYERS = ("progen", "compiler.lower", "compiler.passes", "compiler.codegen", "compiler.whole",
               "debugger.plan", "debugger.trace", "debugger.whole", "core.check", "store.save", "store.load",
               "triage", "reduce", "campaign.output", "triage.output")


def layer_metrics(reports, cli_walls, fill):
    """Per-layer metrics: counts of one round (they repeat exactly), self
    times as shares of the replay wall summed over rounds. store.save comes
    from the store-write replay, where one ran."""
    counts = reports[0]["counts"]
    calls = {name: layer["calls"] for name, layer in reports[0]["layers"].items()}
    self_s = self_totals(reports)
    wall = sum(r["wall_s"] for r in reports)
    if fill is not None:
        calls["store.save"] = fill["layers"].get("store.save", {}).get("calls", 0)
        self_s["store.save"] = fill["layers"].get("store.save", {}).get("self_s", 0.0) * wall / fill["wall_s"]
        for key in ("store.writes", "store.write_bytes", "store.retries"):
            counts[key] = fill["counts"][key]

    def ratio(num, den):
        return num / den if den else 0.0

    c = counts
    metrics = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_pct"] = (100.0 * self_s.get(layer, 0.0) / wall, "%")
    lookups = sum(c[f"cache.{k}"] for k in ("hits", "compiles", "traces", "checks", "disk_loads", "codegen_only"))
    store_lookups = c["store.loads"] + c["store.misses"] + c["store.rejected"]
    metrics.update({
        "progen.stmts": (c["progen.stmts"], "count"),
        "compiler.passes.passes_run": (c["compiler.passes_run"], "count"),
        "compiler.codegen.instrs": (c["compiler.instrs"], "count"),
        "compiler.snapshots.derived_ratio": (
            ratio(c["cache.codegen_only"], c["cache.compiles"] + c["cache.codegen_only"]), "ratio"),
        "debugger.plan.plan_len": (ratio(c["debugger.plan_len"], c["debugger.plans"]), "count"),
        "debugger.plan.traces_per_plan": (ratio(c["cache.traces"], c["debugger.plans"]), "ratio"),
        "debugger.trace.stops": (c["debugger.stops"], "count"),
        "core.check.violations": (c["core.violations"], "count"),
        "core.query.calls": (c["triage.probes"], "count"),
        "store.save.files": (c["store.writes"], "count"),
        "store.save.bytes": (c["store.write_bytes"], "bytes"),
        "store.save.retries": (c["store.retries"], "count"),
        "store.load.lookups": (store_lookups, "count"),
        "store.load.bytes": (c["store.read_bytes"], "bytes"),
        "store.load.hit_ratio": (ratio(c["store.loads"], store_lookups), "ratio"),
        "store.load.rejected": (c["store.rejected"], "count"),
        "triage.probes_per_bisection": (ratio(c["triage.probes"], c["triage.bisections"]), "ratio"),
        "reduce.attempts": (c["reduce.attempts"], "count"),
        "reduce.ratio": (ratio(c["reduce.ratio_sum"], c["reduce.reductions"]), "ratio"),
        "campaign.output.bytes": (c["campaign.output_bytes"], "bytes"),
        "triage.output.bytes": (c["triage.output_bytes"], "bytes"),
    })
    for key in ("compiles", "traces", "checks", "hits", "disk_loads", "codegen_only", "plan_stops"):
        metrics[f"cache.{key}"] = (c[f"cache.{key}"], "count")
    metrics["cache.hit_ratio"] = (ratio(c["cache.hits"], lookups), "ratio")
    replay_walls = [r["wall_s"] for r in reports]
    metrics["replay.wall_s"] = (statistics.median(replay_walls), "s")
    metrics["replay.coverage_pct"] = (
        100.0 * statistics.median(r["covered_s"] / w for r, w in zip(reports, cli_walls)), "%")
    metrics["replay.overhead_pct"] = (
        100.0 * (statistics.median(replay_walls) / statistics.median(cli_walls) - 1.0), "%")
    return metrics


def log_oracle_split(reports):
    """The campaign oracle's split next to the ROADMAP's 63/16/9/6/6."""
    self_s = self_totals(reports)
    parts = {
        "compile": sum(self_s.get(n, 0.0) for n in ("compiler.lower", "compiler.passes", "compiler.codegen")),
        "stop-plan": self_s.get("debugger.plan", 0.0),
        "check": self_s.get("core.check", 0.0),
        "trace": self_s.get("debugger.trace", 0.0),
        "generate": self_s.get("progen", 0.0),
    }
    total = sum(parts.values()) or 1.0
    roadmap = {"compile": 63, "stop-plan": 16, "check": 9, "trace": 6, "generate": 6}
    log("oracle split, ROADMAP in parentheses: " + ", ".join(
        f"{name} {100 * value / total:.0f}% ({roadmap[name]}%)" for name, value in parts.items()))


def trace(bench, workload, seconds):
    workload.reference = workload.setup()
    if workload.name == "store-warm":
        workload.fill_store()
    reports = []
    cli_walls = []
    phase_start = time.perf_counter()
    while not reports or time.perf_counter() - phase_start < seconds:
        cli_round = workload.run_round()
        report = replay_round(bench, workload, cli_round)
        if report is None:
            return {}
        reports.append(report)
        cli_walls.append(cli_round.wall)
    bench.check(all(r["counts"] == reports[0]["counts"] for r in reports), "replay counts drift across rounds")
    fill = None
    checked = workload.cross_checks()
    if checked is not None:
        fill = replay_fill(bench, workload, *checked)
        if fill is None:
            return {}
    if workload.name == "campaign":
        log_oracle_split(reports)
    log(f"{workload.name}: {len(reports)} traced rounds; replay walls "
        + " ".join(f"{r['wall_s']:.3f}" for r in reports) + "; CLI walls " + " ".join(f"{w:.3f}" for w in cli_walls))
    return layer_metrics(reports, cli_walls, fill)


# -------------------------------------------------------------------- main


def build(target_dir):
    """Build the CLI and the replay from source (a no-op when current)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for argv in (["cargo", "build", "--release", "--offline", "-q", "-p", "holes_cli"],
                 ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(REPLAY_MANIFEST)]):
        result = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
        if result.returncode != 0:
            sys.stderr.write(result.stdout.decode(errors="replace")[-4000:])
            raise SystemExit(f"perfbench: `{' '.join(argv)}` failed")
    return target_dir / "release" / "holes", target_dir / "release" / "holes-replay"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (Path("Cargo.toml"), Path("crates"), GOLDEN_CAMPAIGN, GOLDEN_REPORT, REPLAY_MANIFEST):
        if not needed.exists():
            raise SystemExit(f"perfbench: run from the root of a holes checkout (missing {needed})")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").absolute()
    holes, replay = build(target_dir)

    work = WORK_ROOT / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(holes, replay, work)
    workload = Workload(args.workload, args.seed, bench)
    try:
        metrics = (trace if args.trace else measure)(bench, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
