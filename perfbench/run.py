#!/usr/bin/env python3
"""Repository benchmark: time the real `dibella` user path on generated reads.

    python3 perfbench/run.py --workload ecoli30x --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a dibella source tree. The first call builds `dibella`
and the benchmark's two helpers (perfbench_gen, perfbench_trace) from source
into $CARGO_TARGET_DIR (default .bench_build); later calls reuse the build.

Each invocation generates the workload's reads from --seed (setup_s: the
median of nine generations), then runs fresh `dibella --input=...`
processes one at a time until --seconds have passed. Every run is checked:
exit code 0, well-formed PAF/GFA/eval.tsv that agree with each other, and
output digests identical across the invocation's runs. With --trace 1 the
invocation also runs the traced harness once (its outputs must match the
CLI's byte for byte, and its layers must cover the traced wall) and a 1-rank
CLI run, and reports the per-layer metrics named in BENCHMARK.json.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RANKS = 4
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0  # one invocation must end within 180 s
COVERAGE_TOLERANCE = 0.10  # traced layers must sum to within 10% of traced wall

# Workloads. `gen` drives perfbench_gen (the genome is the preset's; the seed
# draws the reads), `flags` are the dibella flags beyond the ones every
# workload passes (--input, --truth, --coverage, --error-rate,
# --eval-min-overlap, --ranks). `heldout_seed` is kept out of tuning and is
# for re-checking a claimed gain on inputs nobody tuned against.
WORKLOADS = {
    "ecoli30x": {
        "gen": ["--preset=ecoli30x", "--scale=0.05"],
        "flags": ["--minimizer-w=10", "--overlap-comm=on"],
        "heldout_seed": 7001,
    },
    "hifi-dense": {
        "gen": ["--preset=ecoli30x", "--scale=0.03", "--error-rate=0.02"],
        "flags": ["--minimizer-w=0", "--overlap-comm=off"],
        "heldout_seed": 7002,
    },
    "ecoli100x-blocks": {
        "gen": ["--preset=ecoli100x", "--scale=0.01"],
        "flags": ["--minimizer-w=10", "--overlap-comm=on", "--blocks=4",
                  "--memory-budget=1048576", "--spill-dir={spill}"],
        "heldout_seed": 7003,
    },
}

OUTPUTS = ("alignments.paf", "graph.gfa", "eval.tsv")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then bring the three binaries up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"perfbench: {ROOT} is not a dibella source tree")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                    "--target", "dibella", "perfbench_gen", "perfbench_trace"],
                   check=True, stdout=sys.stderr)
    return {"dibella": out / "repo" / "dibella",
            "gen": out / "perfbench_gen",
            "trace": out / "perfbench_trace"}


def timed_process(argv, log_path):
    """Run argv to completion; return (exit code, wall s, max RSS MiB)."""
    with open(log_path, "w") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=sink,
                                stderr=subprocess.STDOUT, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


# --- output checks -----------------------------------------------------------

class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def read_eval(path):
    lines = path.read_text().splitlines()
    check(lines and lines[0] == "section\tmetric\tvalue", "eval.tsv header")
    table = {}
    for line in lines[1:]:
        fields = line.split("\t")
        check(len(fields) == 3, f"eval.tsv row {line!r}")
        table[(fields[0], fields[1])] = float(fields[2])
    return table


def check_paf(path):
    """Every PAF line is well formed; returns the line count."""
    count = 0
    with open(path) as paf:
        for line in paf:
            f = line.rstrip("\n").split("\t")
            check(len(f) == 14, f"PAF line {count + 1}: {len(f)} fields")
            try:
                qlen, qs, qe, tlen, ts, te = (int(f[i]) for i in (1, 2, 3, 6, 7, 8))
                int(f[9]), int(f[10]), int(f[11])
            except ValueError:
                raise CheckFailed(f"PAF line {count + 1}: non-numeric field")
            check(0 <= qs < qe <= qlen and 0 <= ts < te <= tlen,
                  f"PAF line {count + 1}: interval out of range")
            check(f[4] in "+-" and f[12].startswith("ol:i:") and f[13].startswith("tp:A:"),
                  f"PAF line {count + 1}: strand or tags")
            count += 1
    return count


def check_gfa(path):
    segments = 0
    for line in path.read_text().splitlines():
        kind = line.split("\t", 1)[0]
        check(kind in ("H", "S", "L"), f"GFA record {kind!r}")
        segments += kind == "S"
    check(segments > 0, "GFA has no segments")


def check_outputs(out_dir):
    """Validate one run's outputs; returns (digest, eval table)."""
    for name in OUTPUTS:
        check((out_dir / name).is_file(), f"missing {name}")
    records = check_paf(out_dir / "alignments.paf")
    check_gfa(out_dir / "graph.gfa")
    ev = read_eval(out_dir / "eval.tsv")
    tp = ev[("overlap", "true_positives")]
    check(records > 0, "no alignments")
    check(ev[("overlap", "reported_pairs")] == records, "eval.tsv disagrees with PAF")
    check(abs(ev[("overlap", "recall")] - tp / ev[("overlap", "true_pairs")]) < 1e-5,
          "recall inconsistent")
    check(abs(ev[("overlap", "precision")] - tp / records) < 1e-5,
          "precision inconsistent")
    digest = hashlib.sha256()
    for name in OUTPUTS:
        digest.update(hashlib.sha256((out_dir / name).read_bytes()).digest())
    return digest.hexdigest(), ev


class Run:
    """One program run and its verdict."""

    def __init__(self, kind, code, wall, rss, out_dir):
        self.kind, self.wall, self.rss = kind, wall, rss
        self.digest, self.eval, self.error = None, None, None
        try:
            check(code == 0, f"exit code {code}")
            self.digest, self.eval = check_outputs(out_dir)
        except (CheckFailed, OSError, KeyError, ValueError, ZeroDivisionError) as e:
            self.error = f"{type(e).__name__}: {e}"

    @property
    def ok(self):
        return self.error is None


class Campaign:
    """All runs of one invocation. Outputs must agree across every run: the
    reference digest is the one most runs produced, and a run that differs
    from it fails."""

    def __init__(self):
        self.runs = []

    def add(self, run):
        self.runs.append(run)
        if not run.ok:
            log(f"perfbench: {run.kind} run failed: {run.error}")
        return run

    def settle(self):
        digests = collections.Counter(r.digest for r in self.runs if r.ok)
        reference = digests.most_common(1)[0][0] if digests else None
        for r in self.runs:
            if r.ok and r.digest != reference:
                r.error = f"output digest {r.digest[:12]} != {reference[:12]}"
                log(f"perfbench: {r.kind} run failed: {r.error}")
        return [r for r in self.runs if r.ok]

    @property
    def failed(self):
        return sum(not r.ok for r in self.runs)


# --- the benchmark -----------------------------------------------------------

def generate(bins, spec, seed, prefix):
    """Generate the reads SETUP_REPEATS times; return (meta, median wall)."""
    # Flush what earlier runs left dirty, so its writeback is not timed here.
    os.sync()
    walls, meta = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        res = subprocess.run([str(bins["gen"]), *spec["gen"], f"--seed={seed}",
                              f"--out={prefix}"], check=True, capture_output=True,
                             text=True, cwd=ROOT)
        walls.append(time.perf_counter() - start)
        meta = json.loads(res.stdout.strip().splitlines()[-1])
    return meta, statistics.median(walls)


def pipeline_flags(spec, meta, prefix, spill):
    return [f"--input={prefix}.fq", f"--truth={prefix}.truth.tsv",
            f"--coverage={meta['coverage']!r}", f"--error-rate={meta['error_rate']!r}",
            f"--eval-min-overlap={meta['min_true_overlap']}",
            *(f.format(spill=spill) for f in spec["flags"])]


def run_cli(bins, campaign, flags, ranks, out_dir, kind, spill):
    shutil.rmtree(out_dir, ignore_errors=True)
    code, wall, rss = timed_process(
        [bins["dibella"], *flags, f"--ranks={ranks}", f"--out-dir={out_dir}"],
        out_dir.with_suffix(".log"))
    run = campaign.add(Run(kind, code, wall, rss, out_dir))
    if run.ok and any(spill.iterdir()):
        run.error = "spill directory left behind"
        log(f"perfbench: {kind} run failed: {run.error}")
    return run


def traced_metrics(bins, campaign, flags, work, median_wall):
    out_dir = work / "traced"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [bins["trace"], *flags, f"--ranks={RANKS}", f"--out-dir={out_dir}"]
    code, wall, _ = timed_process(argv, work / "traced.log")
    run = campaign.add(Run("traced", code, wall, 0.0, out_dir))
    if not run.ok:
        return {}
    lines = (work / "traced.log").read_text().strip().splitlines()
    layers = json.loads(lines[-1])
    if abs(layers["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        run.error = f"traced layers cover {layers['trace.coverage']:.3f} of the wall"
        log(f"perfbench: traced run failed: {run.error}")
    layers["trace.overhead_frac"] = wall / median_wall - 1.0
    return layers


def benchmark(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    started = time.perf_counter()
    bins = build()
    work = build_dir() / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    spill = work / "spill"
    spill.mkdir(parents=True)

    prefix = work / "reads"
    meta, setup_s = generate(bins, spec, seed, prefix)
    flags = pipeline_flags(spec, meta, prefix, spill)
    log(f"perfbench: {workload} seed {seed}: {meta['reads']} reads, {meta['bases']} bp")

    campaign = Campaign()
    measure_start = time.perf_counter()
    while True:
        run = run_cli(bins, campaign, flags, RANKS, work / f"run{len(campaign.runs)}",
                      "cli", spill)
        log(f"perfbench: run {len(campaign.runs)}: {run.wall:.3f} s, {run.rss:.0f} MiB")
        # Trace mode still owes the traced run and the 1-rank run.
        reserve = run.wall * (2 + RANKS) if trace else 0.0
        now = time.perf_counter()
        if now - measure_start >= seconds or now - started + run.wall + reserve > TIME_LIMIT_S:
            break

    ok = campaign.settle()
    if not ok:
        return campaign, {}
    median_wall = statistics.median(r.wall for r in ok)
    reference = ok[0].eval
    metrics = {
        "wall_s": median_wall,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r.rss for r in ok),
        "recall": reference[("overlap", "recall")],
        "precision": reference[("overlap", "precision")],
    }
    if trace:
        layers = traced_metrics(bins, campaign, flags, work, median_wall)
        single = run_cli(bins, campaign, flags, 1, work / "ranks1", "cli-1rank", spill)
        campaign.settle()
        metrics = dict(layers)
        if single.ok:
            metrics["pipeline.speedup_4r"] = single.wall / median_wall
        metrics["eval.unitig_n50_bp"] = reference[("unitig", "unitig_n50")]
        metrics["eval.unitig_misjoins"] = reference[("unitig", "misjoined_unitigs")]
    return campaign, metrics


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    declared = declared_metrics(args.trace)
    campaign, metrics = benchmark(args.workload, args.seed, args.seconds, args.trace)
    missing = sorted(set(declared) - set(metrics))
    correct = campaign.failed == 0 and not missing
    if missing:
        log(f"perfbench: metrics not measured: {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": len(campaign.runs),
        "failed": campaign.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


# --- self-test ---------------------------------------------------------------

def self_test():
    """Pin the checks this benchmark relies on:
    1. the seed-0 ecoli30x input, run through --input with the explicit flags,
       reproduces `dibella --preset=ecoli30x --scale=0.05` byte for byte;
    2. a corrupted PAF and a non-zero exit both count as failed runs."""
    bins = build()
    spec = WORKLOADS["ecoli30x"]
    work = build_dir() / "work" / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    spill = work / "spill"
    spill.mkdir(parents=True)
    meta, _ = generate(bins, spec, 0, work / "reads")
    flags = pipeline_flags(spec, meta, work / "reads", spill)
    results = []

    campaign = Campaign()
    via_input = run_cli(bins, campaign, flags, RANKS, work / "input", "cli", spill)
    preset = work / "preset"
    code, wall, rss = timed_process([bins["dibella"], "--preset=ecoli30x", "--scale=0.05",
                                     f"--ranks={RANKS}", f"--out-dir={preset}"],
                                    work / "preset.log")
    as_preset = campaign.add(Run("cli-preset", code, wall, rss, preset))
    results.append(("--input run reproduces the preset run byte for byte",
                    via_input.ok and as_preset.ok and all(
                        (work / "input" / n).read_bytes() == (preset / n).read_bytes()
                        for n in OUTPUTS)))

    def corrupt(name, edit):
        bad = work / name
        shutil.copytree(work / "input", bad)
        paf = bad / "alignments.paf"
        paf.write_bytes(edit(paf.read_bytes()))
        return bad

    # A flipped strand keeps the PAF well formed: only the digest check sees it.
    flipped = corrupt("flipped", lambda b: b.replace(b"\t+\t", b"\t-\t", 1))
    truncated = corrupt("truncated", lambda b: b[: len(b) // 2])
    for label, bad in (("a PAF with one strand flipped", flipped),
                       ("a truncated PAF", truncated)):
        trial = Campaign()
        trial.add(Run("cli", 0, 1.0, 1.0, work / "input"))
        trial.add(Run("cli", 0, 1.0, 1.0, work / "input"))
        trial.add(Run("cli", 0, 1.0, 1.0, bad))
        trial.settle()
        results.append((f"{label} counts as failed", trial.failed == 1))

    trial = Campaign()
    missing_input = [f if not f.startswith("--input=") else "--input=" + str(work / "absent.fq")
                     for f in flags]
    bad_exit = run_cli(bins, trial, missing_input, RANKS, work / "absent", "cli", spill)
    trial.settle()
    results.append(("a non-zero exit counts as failed",
                    not bad_exit.ok and "exit code" in bad_exit.error and trial.failed == 1))

    for label, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(passed for _, passed in results) else 1


if __name__ == "__main__":
    sys.exit(main())
