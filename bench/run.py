"""supkit benchmark: times supkit's own command-line entry point on four
workloads and checks every answer it gives.

    python3 bench/run.py --workload fo-all --seed 1 --seconds 20 --trace 0

Run from the root of a supkit checkout.  The workloads are described in
bench/README.md.  Each run repeats whole rounds of its workload until
``--seconds`` have passed; a round holds the same rungs in the same order
for every seed, and the seed only renames their symbols, so no sentence
repeats within a run.  Every call goes through ``supkit.cli.run`` with
``--json``, in this one process.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics, with times scaled to a reference host speed (see
hostspeed.py); with ``--trace 1`` it holds the per-layer metrics of
one traced round (see layers.py).  Either way each call's answer is checked
after the timed phase, and one row per call is printed before the result.
"""

import argparse
import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("fo-all", "fo-classes", "proof-check", "fo-jobs")
SETUP_REPEATS = 9

# What the program loads before its first query: the import, and on
# proof-check the shipped corpus.  Each set-up sample runs it in a fresh
# interpreter, as a user's command does; this process has already imported
# much of what supkit imports.  The sample then times the host-speed loop in
# the same interpreter, by which its time is scaled.
SETUP_CODE = """
import sys, time
sys.path.insert(0, {bench!r})
import hostspeed
start = time.perf_counter()
sys.path.insert(0, {src!r})
import supkit.cli
if {corpus!r}:
    import supkit.corpus
    supkit.corpus.corpus_entries()
print(time.perf_counter() - start, hostspeed.calibrate())
"""


@dataclasses.dataclass
class Record:
    """One call's outcome.  ``loop_s`` is the host-speed loop's time just
    before the call; ``scaled_s`` is set once the loop after it has run."""

    op: object
    code: object
    stdout: str
    seconds: object
    error: object
    loop_s: object
    scaled_s: object = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample(corpus):
    """One set-up in a fresh interpreter: (seconds, scaled seconds)."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(bench=BENCH_DIR, src=SRC, corpus=corpus)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    seconds, loop_s = map(float, out.stdout.strip().splitlines()[-1].split())
    return seconds, hostspeed.scaled(seconds, loop_s)


def call(argv):
    """One call of ``supkit.cli.run``: (exit code, stdout, seconds)."""
    from supkit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def rounds(workload, seed, work_dir, entries):
    """Yields the operations of one round of the workload after another."""
    rng, used = random.Random(seed), set()
    if workload == "proof-check":
        from supkit.proofs import proof_to_json
        wanted = {name for name, _, _ in workloads.SV_PROOFS}
        bases = {e.name: proof_to_json(e.proof) for e in entries if e.name in wanted}
        file_numbers = itertools.count(1)
        while True:
            yield workloads.proof_round(bases, rng, work_dir, used, file_numbers)
    sig_path = os.path.join(work_dir, "signature.json")
    with open(sig_path, "w") as handle:
        json.dump(workloads.signature(), handle)
    rungs = workloads.FO_CLASSES if workload == "fo-classes" else workloads.FO_ALL
    jobs = workloads.JOBS if workload == "fo-jobs" else 1
    while True:
        yield [workloads.search_op(rung, rng, sig_path, jobs, used) for rung in rungs]


def run_ops(ops, loop):
    records = []
    for op in ops:
        paths = list(op.files)
        for path, content in op.files.items():
            with open(path, "w") as handle:
                handle.write(content)
        op.files.clear()  # the records outlive the run's rounds
        # A user runs each command in a fresh process: collect the previous
        # call's garbage here, so that no call pays for another's.
        gc.collect()
        loop_s = loop.time() if loop else None
        try:
            code, stdout, seconds = call(op.argv)
            error = None
        except SystemExit as exc:  # argparse rejected the command line
            code, stdout, seconds, error = exc.code, "", None, f"exit {exc.code}"
        except Exception:  # a crash is a failed operation, not a stop
            code, stdout, seconds, error = None, "", None, traceback.format_exc()
        records.append(Record(op, code, stdout, seconds, error, loop_s))
        for path in paths:
            os.remove(path)
    return records


def check(records):
    """(failed calls, wrong answers, models checked) over every record."""
    failed, problems, models_checked = [], [], 0
    for r in records:
        if r.error is not None or r.code == 2:
            failed.append(f"{r.op.label}: {r.error or 'exit 2'}")
            continue
        try:
            payload = json.loads(r.stdout)
        except json.JSONDecodeError:
            problems.append(f"{r.op.label}: output is not JSON")
            continue
        models_checked += payload.get("models_checked", 0)
        problems += [f"{r.op.label}: {p}" for p in r.op.check(r.code, payload)]
    return failed, problems, models_checked


def scale(records, final_loop_s):
    """Scales each call's time by the mean of the host-speed loop's times
    just before and just after it (see hostspeed.py)."""
    loops = [r.loop_s for r in records] + [final_loop_s]
    for i, r in enumerate(records):
        if r.seconds is not None:
            r.scaled_s = hostspeed.scaled(r.seconds, (loops[i] + loops[i + 1]) / 2)


def rung_medians(records, field):
    """Each rung's median time over the run's rounds.  A round holds every
    rung once, so the medians weigh every rung alike, and a burst of host
    slowness in one round does not move them."""
    by_rung = {}
    for r in records:
        if r.seconds is not None and r.code != 2:
            by_rung.setdefault(r.op.label, []).append(getattr(r, field))
    return [statistics.median(t) for t in by_rung.values()]


def throughput_and_gmean(rung_s):
    return (len(rung_s) / sum(rung_s),
            math.exp(statistics.fmean(math.log(t) for t in rung_s)))


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "supkit", "cli.py")):
        print(f"error: no supkit sources under {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.JOBS if args.workload == "fo-jobs" else 1
    corpus = args.workload == "proof-check"
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    loop = None
    try:
        sys.path.insert(0, SRC)
        import supkit.cli  # noqa: F401  (the import is not traced)
        tracer = None
        if args.trace:
            import layers
            tracer = layers.Tracer(sys.modules["supkit"])
            tracer.start()
        entries = None
        if corpus:
            import supkit.corpus
            entries = supkit.corpus.corpus_entries()
        workload_rounds = rounds(args.workload, args.seed, work_dir, entries)
        if not tracer:
            loop = hostspeed.Loop(jobs)

        records, round_count = [], 0
        cpu_before = children_cpu()
        phase_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            records += run_ops(next(workload_rounds), loop)
            round_count += 1
            now = time.perf_counter()
            # Stop when another round as long as this one would overshoot
            # the deadline by more than this one falls short of it.
            if tracer or now - phase_start + (now - round_start) / 2 >= args.seconds:
                break
        worker_cpu = children_cpu() - cpu_before
        # Read while the host-speed helpers live, so that RUSAGE_CHILDREN
        # holds only the program's workers.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss \
            if jobs > 1 else 0
        if tracer:
            tracer.stop()
        else:
            scale(records, loop.time())
            loop.close()

        failed, problems, models_checked = check(records)
        for r in records:
            shown = f"{r.seconds:9.4f} s" if r.seconds is not None else "   failed"
            if r.scaled_s is not None:
                shown += f" (scaled {r.scaled_s:7.4f} s)"
            print(f"{r.op.label:34s} {r.op.expect:12s} exit {r.code}  {shown}  ({r.op.reason})")
        for problem in failed:
            print(f"FAILED {problem}")
        for problem in problems:
            print(f"WRONG {problem}")
        times = [r.seconds for r in records if r.seconds is not None and r.code != 2]
        if not times:
            print("error: every call failed", file=sys.stderr)
            return 1
        busy = sum(times)
        print(f"{args.workload}: {round_count} round(s), {len(records)} calls, "
              f"{busy:.3f} s in supkit")

        if tracer:
            metrics = tracer.metrics(models_checked, busy, worker_cpu, jobs)
            if tracer.missing:
                print(f"missing per-layer metrics: {sorted(tracer.missing)}")
            metrics = {name: {"value": value, "unit": layers.unit_of(name)}
                       for name, value in sorted(metrics.items())}
        else:
            setup = [setup_sample(corpus) for _ in range(SETUP_REPEATS)]
            print("setup samples, s (scaled): " + ", ".join(
                f"{s:.4f} ({scaled:.4f})" for s, scaled in setup))
            loops = [r.loop_s for r in records]
            raw_rate, raw_gmean = throughput_and_gmean(rung_medians(records, "seconds"))
            print(f"unscaled: verdicts_per_s {raw_rate:.4f}, verdict_gmean_s "
                  f"{raw_gmean:.4f}, setup_s {statistics.median(s for s, _ in setup):.4f}; "
                  f"host-speed loop median {statistics.median(loops):.4f} s "
                  f"(reference {hostspeed.REFERENCE_S} s)")
            rate, gmean = throughput_and_gmean(rung_medians(records, "scaled_s"))
            metrics = {
                "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
                "verdicts_per_s": {"value": rate, "unit": "1/s"},
                "verdict_gmean_s": {"value": gmean, "unit": "s"},
                "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            }
        print(json.dumps({"correct": not problems,
                          "attempted": len(records), "failed": len(failed),
                          "metrics": metrics}))
        return 0
    finally:
        if loop:
            loop.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))


if __name__ == "__main__":
    sys.exit(main())
