"""The serving-and-training benchmark: one command, six workloads.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this interpreter and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``.

    python3 benchmarks/perf/run.py [--seed N] [--seconds S] [--out DIR] [--selftest]

runs every workload, untraced and traced, each in its own fresh
interpreter (so ``setup_s`` and ``rss_peak_mb`` belong to one workload
and no cache warmth leaks between them), prints every metric by name
with its unit, writes ``DIR/results.json`` and exits non-zero when an
output check failed. README.md says why each workload and metric is
there.

A workload runs in a child of the process that was asked for it. That
parent adopts every process the child leaves behind (the process
shards' ``multiprocessing`` resource tracker outlives its interpreter),
stops them and waits for each, so nothing survives a run on any path
out of it.
"""

import time

_STARTED = time.perf_counter()  # as close to interpreter start as a script gets

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_OUT = HERE / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``--selftest``: a cap only; the short self-test streams run out first.
SELFTEST_SECONDS = 30.0
#: How long processes a finished workload left behind get to end by
#: themselves before they are killed.
LEFTOVER_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result and trace files")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny sizes: checks the harness, measures nothing")
    parser.add_argument("--contained", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def children() -> list:
    """Pids whose parent is this process, zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                ppid = stat.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue  # ended while we looked
        if int(ppid) == os.getpid():
            found.append(int(entry))
    return found


def reap(grace_s: float) -> None:
    """Wait for every child of this process; kill what outlives
    ``grace_s``. As the sub-reaper this process is the parent of every
    orphan the workload made, so when this returns none is left."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def run_contained(argv) -> int:
    """One workload in a child interpreter, and nothing left of it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.exit(f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    # Same process group as this process, so a signal sent to the group
    # reaches the workload too.
    child = subprocess.Popen([sys.executable, str(HERE / "run.py"), *argv, "--contained"])
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            # Stopped early. The shards end when their pipes close and the
            # resource tracker then unlinks their shared memory.
            child.terminate()
        reap(LEFTOVER_GRACE_S)


def run_one(args: argparse.Namespace) -> int:
    """One workload in this interpreter; the result is the last line."""
    import envinfo

    envinfo.pin_threads()  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import serving
    import training

    import_s = time.perf_counter() - _STARTED
    env = envinfo.fingerprint(ROOT)
    spec = inputs.BY_NAME[args.workload]
    repeats = SETUP_REPEATS
    if args.selftest:
        spec, repeats = inputs.selftest(spec), 1
    trace_path = args.out / f"trace-{spec.name}.jsonl"
    if spec.kind == "train":
        if args.trace:
            result = training.measure_layers(spec, args.seed, args.seconds, trace_path)
        else:
            result = training.measure(spec, args.seed, args.seconds, import_s, repeats)
    elif args.trace:
        result = serving.measure_layers(spec, args.seed, args.seconds, trace_path)
    else:
        result = serving.measure(spec, args.seed, args.seconds, import_s, repeats)

    checks = result.pop("checks")
    record = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "selftest": args.selftest,
        "correct": checks.correct,
        "checks_passed": checks.passed,
        "checks_failed": checks.failures,
        "environment": envinfo.finish(env),
        **result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    detail_path = args.out / f"{spec.name}.trace{args.trace}.json"
    detail_path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in checks.failures:
        print(f"CHECK FAILED {spec.name}: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checks.correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()
                },
            }
        )
    )
    return 0 if checks.correct else 1


def run_all(args: argparse.Namespace, names) -> int:
    """Every workload, untraced then traced, one child process each."""
    jobs = [(name, trace) for name in names for trace in (0, 1)]

    def command(name: str, trace: int):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", str(args.out)]
        return cmd + (["--selftest"] if args.selftest else [])

    def returncode(job) -> int:
        return subprocess.run(command(*job), stdout=subprocess.PIPE, text=True).returncode

    # One child at a time, so each has the machine to itself. The
    # self-test measures nothing, so there one child per core may run.
    with ThreadPoolExecutor((os.cpu_count() or 1) if args.selftest else 1) as pool:
        codes = dict(zip(jobs, pool.map(returncode, jobs)))

    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in names:
        merged = {"metrics": {}}
        for trace in (0, 1):
            path = args.out / f"{name}.trace{trace}.json"
            if codes[(name, trace)] != 0 or not path.exists():
                print(f"{name} --trace {trace}: FAILED "
                      f"(exit code {codes[(name, trace)]})")
                ok = False
            if path.exists():
                record = json.loads(path.read_text())
                merged["metrics"].update(record.pop("metrics"))
                merged[f"trace{trace}"] = record
        results["workloads"][name] = merged
        results.setdefault("environment", merged.get("trace0", {}).get("environment"))
        print(f"== {name}")
        for metric, m in merged["metrics"].items():
            spread = (f"  [{m['min']:.6g} .. {m['max']:.6g}, n={m['n']}]"
                      if m.get("n", 1) > 1 else "")
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}{spread}")
    noisy = [n for n, w in results["workloads"].items()
             if w.get("trace0", {}).get("environment", {}).get("noisy")]
    if noisy:
        print(f"noisy (load average above the core count at start): {noisy}")
    out = args.out / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"the program under test is not there: {ROOT / 'src' / 'repro'}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = SELFTEST_SECONDS if args.selftest else float(benchmark["run_seconds"])
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is None:
        return run_all(args, names)
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}")
    if not args.contained:
        return run_contained(sys.argv[1:] if argv is None else list(argv))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
