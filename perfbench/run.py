"""End-to-end benchmark of the forge pipeline: build, simulate and scan.

Run from the root of a codeforge checkout:

    python3 perfbench/run.py --workload build --seed 7 --seconds 15 --trace 0

Each run is one fresh process.  It caps BLAS threads at the CPUs this
process may use, imports codeforge from ``src/`` of the checkout, builds
the input bundles the workload reads with the code under test (set-up),
then drives ``codeforge.cli.main(argv)`` in-process for the workload's
timed commands, capturing their stdout.  A pass is one run of the timed
commands.  ``build`` makes one pass of about 23 s.  ``scan`` and
``simulate`` repeat passes while another one fits in ``--seconds``:
``scan`` repeats its fixed commands, and pass j of ``simulate``
simulates a chunk of trials keyed ``seed + j * 2**32``.
Each command's output is checked against ``reference.json``; a command
that raises, exits with an unexpected code or writes different output is
a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
untraced passes in half of ``--seconds``, repeats the same passes traced,
and prints the per-layer metrics of the traced ones (see tracing.py).
The last stdout line is the JSON result; the line before it is the full
record (environment, argv of every command, per-command timings), also
saved under ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

# BLAS reads its thread count once, when numpy loads, so cap it first
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
# set-up repeats at least this many times and until this many seconds
# are spent; its samples swing by +-25% with the machine's load
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
# --record stores the simulate CSV of pass 0 for these seeds and --seed
RECORDED_SEEDS = range(1, 21)

# At p=0.02 a quarter of the trials exhaust a weight-4 search and cost
# ~0.5 s, the rest ~1 ms: a trial's cost has a CV of ~1.8, and 55 s of
# trials gave ten-seed spreads of 0.12 to 0.36.  At p=0.08 every trial
# makes a long weight-4 search (three quarters exhaust it).  The cost of
# a 5-trial chunk still varies with its trials: run twice, seven chunks
# took 2.5 to 5.4 s with a correlation of 0.89 between the two runs.
# Chunks run for --seconds.
CHUNK_KEY_STRIDE = 1 << 32
SIMULATE_ARGS = ["--p", "0.08", "--bias", "etaZ:10", "--qmeas", "0.01"]


def _build(label, family, base, max_weight=0):
    return {"kind": "build", "label": label, "family": family, "base": base,
            "max_weight": max_weight}


def _scan(label, code, t):
    return {"kind": "soundness", "label": label, "code": code, "t": t}


def _simulate(label, code, trials):
    return {"kind": "simulate", "label": label, "code": code,
            "trials": trials}


# scale -> workload -> (set-up input builds, timed commands, repeats)
WORKLOADS = {
    "full": {
        "build": ([], [
            _build("sehgp_rep4", "sehgp", "rep:4"),
            _build("bsh_rep3_w4", "bsh", "rep:3", 4),
            _build("bssh_rep3_w3", "bssh", "rep:3", 3),
            _build("sehgp_rep3_w4", "sehgp", "rep:3", 4),
        ], False),
        "simulate": ([_build("bssh_rep2", "bssh", "rep:2")],
                     [_simulate("simulate", "bssh_rep2", 5)], True),
        "scan": ([_build("bsh_rep3", "bsh", "rep:3"),
                  _build("rsh1_rep3", "rsh1", "rep:3")],
                 [_scan("scan_bsh_rep3", "bsh_rep3", 3),
                  _scan("scan_rsh1_rep3", "rsh1_rep3", 3)], True),
    },
    # seconds-long versions of the same commands, for the self-test
    "tiny": {
        "build": ([], [
            _build("sehgp_rep2", "sehgp", "rep:2"),
            _build("bsh_rep2_w3", "bsh", "rep:2", 3),
            _build("bssh_rep2_w3", "bssh", "rep:2", 3),
        ], False),
        "simulate": ([_build("bssh_rep2", "bssh", "rep:2")],
                     [_simulate("simulate", "bssh_rep2", 3)], True),
        "scan": ([_build("bsh_rep2", "bsh", "rep:2"),
                  _build("rsh1_rep2", "rsh1", "rep:2")],
                 [_scan("scan_bsh_rep2", "bsh_rep2", 2),
                  _scan("scan_rsh1_rep2", "rsh1_rep2", 2)], True),
    },
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "trials_per_s": "1/s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_share")):
        return "frac"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def argv_of(cmd: dict, work: Path, key: int) -> list[str]:
    if cmd["kind"] == "build":
        argv = ["build", "--family", cmd["family"], "--base", cmd["base"],
                "--out", str(work / cmd["label"])]
        if cmd["max_weight"]:
            argv += ["--max-weight", str(cmd["max_weight"])]
        return argv
    if cmd["kind"] == "soundness":
        return ["soundness", "--code", str(work / cmd["code"]),
                "--t", str(cmd["t"]), "--f", "x2over4",
                "--report", str(work / f"{cmd['label']}.csv")]
    return ["simulate", "--code", str(work / cmd["code"]), *SIMULATE_ARGS,
            "--trials", str(cmd["trials"]), "--seed", str(key),
            "--out", str(work / f"{cmd['label']}.csv")]


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.is_file() else None


def forge(cli, argv: list[str]) -> dict:
    """One forge command in-process: exit code, stdout, wall and CPU time.
    An exception is caught here, so that it counts as a failed operation
    instead of ending the run."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0, c0 = perf_counter(), process_time()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # noqa: BLE001 - recorded as a failed operation
            rc, error = None, traceback.format_exc()
    wall, cpu = perf_counter() - t0, process_time() - c0
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error, "wall_s": wall,
            "cpu_s": cpu}


def observe(cmd: dict, res: dict, work: Path, seed: int) -> dict:
    """The output values a command is checked on."""
    seen = {"rc": res["rc"]}
    if res["rc"] is None:
        return seen
    if cmd["kind"] == "build":
        out = work / cmd["label"]
        text = res["stdout"]
        seen["params"] = text[text.find("n="):].strip()
        seen["digests"] = {p.name: sha256(p) for p in sorted(out.glob("*"))
                           if p.name != "run_manifest.json"}
    elif cmd["kind"] == "soundness":
        seen["csv_sha256"] = sha256(work / f"{cmd['label']}.csv")
    else:
        seen["csv_sha256"] = sha256(work / f"{cmd['label']}.csv")
    return seen


def simulate_structure(cmd: dict, res: dict, work: Path, seed: int,
                       columns: list[str]) -> list[str]:
    """Seed-independent checks of a simulate CSV and its summary line."""
    with open(work / f"{cmd['label']}.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    summary = json.loads(res["stdout"].strip().splitlines()[-1])
    problems = []
    if header != columns:
        problems.append(f"CSV columns {header} != {columns}")
    if len(rows) != cmd["trials"] or summary["trials"] != cmd["trials"]:
        problems.append(f"{len(rows)} rows, summary says "
                        f"{summary['trials']}, expected {cmd['trials']}")
    if summary["seed"] != seed:
        problems.append(f"summary seed {summary['seed']} != {seed}")
    if header == columns:
        fails = sum(int(r[columns.index("logical_fail")]) for r in rows)
        if fails != summary["logical_failures"]:
            problems.append(f"logical_fail column sums to {fails}, summary "
                            f"says {summary['logical_failures']}")
    return problems


def check(cmd: dict, res: dict, work: Path, seed: int, ref: dict) -> list[str]:
    """Problems with one command's output; empty when it is correct."""
    if res["error"] is not None:
        return [res["error"].strip().splitlines()[-1]]
    want = ref.get(cmd["label"])
    if want is None:
        return [f"no reference for {cmd['label']}"]
    seen = observe(cmd, res, work, seed)
    problems = []
    for key, value in want.items():
        if key == "columns":
            continue
        if cmd["kind"] == "simulate" and key == "csv_sha256":
            # recorded per seed, for pass 0 of the recorded seeds only
            value = value.get(str(seed))
            if value is None:
                continue
        if seen.get(key) != value:
            problems.append(f"{key}: got {seen.get(key)!r}, "
                            f"reference {value!r}")
    if cmd["kind"] == "simulate" and res["rc"] == 0:
        problems += simulate_structure(cmd, res, work, seed,
                                       want["columns"])
    return problems


class Run:
    """One benchmark run: executes and checks commands, counts failures."""

    def __init__(self, cli, work: Path, seed: int, ref: dict):
        self.cli, self.work, self.seed, self.ref = cli, work, seed, ref
        self.attempted = 0
        self.failures: list[dict] = []
        self.log: list[dict] = []

    def command(self, cmd: dict, key: int | None = None) -> dict:
        """Run and check one command; key is the simulate --seed."""
        key = self.seed if key is None else key
        res = forge(self.cli, argv_of(cmd, self.work, key))
        problems = check(cmd, res, self.work, key, self.ref)
        self.attempted += 1
        entry = {"label": cmd["label"], "argv": res["argv"], "rc": res["rc"],
                 "wall_s": res["wall_s"], "cpu_s": res["cpu_s"]}
        if problems:
            entry["problems"] = problems
            self.failures.append(entry)
        self.log.append(entry)
        return res

    def setup(self, inputs: list[dict], root: Path) -> float:
        """Seconds to start python and import codeforge (in a child), plus
        building this workload's input bundles (here)."""
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import codeforge.cli"],
                       env=env, cwd=root, check=True)
        for cmd in inputs:
            self.command(cmd)
        return perf_counter() - t0

    def one_pass(self, timed: list[dict], index: int) -> dict:
        """Pass `index` of the timed commands.  Its trials are the
        simulate trials, or else one per command."""
        key = self.seed + index * CHUNK_KEY_STRIDE
        results = [self.command(cmd, key) for cmd in timed]
        wall = sum(r["wall_s"] for r in results)
        sim_wall = sum(r["wall_s"] for c, r in zip(timed, results)
                       if c["kind"] == "simulate")
        return {"wall_s": wall, "cpu_s": sum(r["cpu_s"] for r in results),
                "trials": sum(c.get("trials", 0) for c in timed) or len(timed),
                "trials_wall_s": sim_wall or wall}

    def measure(self, timed: list[dict], repeats: bool,
                seconds: float) -> list[dict]:
        """One pass; if it repeats, more while another fits in seconds."""
        start = perf_counter()
        passes = [self.one_pass(timed, 0)]
        while repeats and (perf_counter() - start + passes[-1]["wall_s"]
                          <= seconds):
            passes.append(self.one_pass(timed, len(passes)))
        return passes


def environment(root: Path, seed: int, trace: int) -> dict:
    import numpy as np
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = got.stdout.strip() if got.returncode == 0 else None
    src = hashlib.sha256()
    for p in sorted((root / "src" / "codeforge").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "trace": trace,
    }


def attribution(tracer, labels: list[str]) -> dict:
    """Inclusive seconds per span name within each timed command (summed
    over passes), plus the scan's enumeration self time."""
    from tracing import NAME, SECONDS, command_spans
    own = tracer.self_seconds()
    out: dict[str, dict] = {}
    for label, group in zip(labels, command_spans(tracer.spans)):
        per = out.setdefault(label, {})
        for i in group:
            name = tracer.spans[i][NAME]
            per[name] = per.get(name, 0.0) + tracer.spans[i][SECONDS]
            if name == "soundness.scan":
                key = "soundness.scan.enum_self_s"
                per[key] = per.get(key, 0.0) + own[i]
    return {label: dict(sorted(per.items(), key=lambda kv: -kv[1]))
            for label, per in out.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS["full"]))
    p.add_argument("--seed", type=int, required=True,
                   help="key of the simulate trial streams (>= 0)")
    p.add_argument("--seconds", type=float, required=True,
                   help="simulate runs trial chunks while another one fits "
                        "in this time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(WORKLOADS), default="full",
                   help="'tiny' runs rep:2 inputs for the self-test")
    p.add_argument("--reference", type=Path, default=HERE / "reference.json")
    p.add_argument("--record", action="store_true",
                   help="write this workload's outputs to --reference "
                        "instead of checking them")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "codeforge" / "__init__.py").is_file():
        print("error: run from the root of a codeforge checkout "
              "(src/codeforge not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from codeforge import cli
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported codeforge from {cli.__file__}, not from "
              f"{root / 'src'}", file=sys.stderr)
        return 2
    import tracing

    inputs, timed, repeats = WORKLOADS[args.scale][args.workload]
    work = WORK / args.scale / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = json.loads(args.reference.read_text()) \
        if args.reference.exists() else {}
    ref = refs.get(args.scale, {}).get(args.workload, {})
    run = Run(cli, work, args.seed, ref)

    if args.record:
        return record(run, inputs, timed, refs, args)

    setups = [run.setup(inputs, root)]
    while not args.trace and (len(setups) < SETUP_REPEATS
                              or sum(setups) < SETUP_SECONDS):
        setups.append(run.setup(inputs, root))
    passes = run.measure(timed, repeats,
                         args.seconds / 2 if args.trace else args.seconds)
    record_out = {"workload": args.workload, "scale": args.scale,
                  "env": environment(root, args.seed, args.trace),
                  "setup_s": setups, "passes": passes}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [run.one_pass(timed, i) for i in range(len(passes))]
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, tracer.self_seconds())
        traced_wall = sum(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - sum(p["wall_s"]
                                                        for p in passes)
        metrics["trace.spans"] = len(tracer.spans)
        record_out["attribution"] = attribution(
            tracer, [c["label"] for _ in traced for c in timed])
        spans_path = WORK / "results" / (
            f"{args.scale}-{args.workload}-seed{args.seed}-spans.json")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            # medians over passes, so one pass hit by a burst of other
            # load does not move the figure
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "trials_per_s": statistics.median(
                p["trials"] / p["trials_wall_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (run.attempted - len(run.failures)) / run.attempted,
        }
    units = END_TO_END_UNITS if not args.trace else \
        {name: layer_unit(name) for name in metrics}
    record_out["commands"] = run.log
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record_out["result"] = result
    report(record_out, run)
    out = WORK / "results" / (f"{args.scale}-{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record_out, indent=1, default=str))
    print(json.dumps({"record": record_out}, default=str))
    print(json.dumps(result))
    return 0


def record(run: Run, inputs, timed, refs: dict, args) -> int:
    """Run set-up and one pass once and store what every command wrote;
    for simulate, store pass 0's CSV digest for every recorded seed."""
    from codeforge import noisesim
    entries = {}
    for cmd in inputs + timed:
        seeds = sorted({args.seed, *RECORDED_SEEDS}) \
            if cmd["kind"] == "simulate" else [args.seed]
        digests = {}
        for seed in seeds:
            res = forge(run.cli, argv_of(cmd, run.work, seed))
            if res["error"] is not None:
                print(res["error"], file=sys.stderr)
                return 1
            seen = observe(cmd, res, run.work, seed)
            digests[str(seed)] = seen.get("csv_sha256")
        entries[cmd["label"]] = seen
        if cmd["kind"] == "simulate":
            seen["columns"] = list(noisesim.CSV_COLUMNS)
            seen["csv_sha256"] = digests
    refs.setdefault(args.scale, {})[args.workload] = entries
    args.reference.write_text(json.dumps(refs, indent=1, sort_keys=True)
                              + "\n")
    print(f"recorded {len(entries)} commands of {args.scale}/"
          f"{args.workload} to {args.reference}", file=sys.stderr)
    return 0


def report(rec: dict, run: Run) -> None:
    """Human-readable summary on stderr."""
    res = rec["result"]
    print(f"{rec['scale']}/{rec['workload']}: {res['attempted']} operations, "
          f"{res['failed']} failed (fail_frac "
          f"{res['failed'] / res['attempted']:.4g})", file=sys.stderr)
    for fail in run.failures:
        print(f"  FAILED {fail['label']}: {'; '.join(fail['problems'])}",
              file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for label, per in rec.get("attribution", {}).items():
        wall = per.get("cli.main", 0.0) or 1.0
        top = ", ".join(f"{k} {v / wall:.1%}" for k, v in list(per.items())[1:6])
        print(f"  {label}: {wall:.3f} s; {top}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
