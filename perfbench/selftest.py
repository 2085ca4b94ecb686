"""Self-test of the benchmark on tiny rep:2 inputs (about half a minute).

    python3 perfbench/selftest.py        # from the root of the checkout

It checks that
  * every workload prints each end-to-end metric of BENCHMARK.json with
    its unit under --trace 0, and each per-layer metric under --trace 1,
    with all operations correct (pass 0 of simulate is byte-checked on
    both seeds, the later passes on their structure);
  * a deliberately wrong reference digest is reported as a failed
    operation, so the output check can fail;
  * in a directory holding only BENCHMARK.json and perfbench/ the run
    exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work") / "selftest"


def bench(*extra: str, cwd: Path = Path(".")) -> tuple[int, str]:
    got = subprocess.run([sys.executable, str(Path(HERE.name) / "run.py"),
                          "--seconds", "1", "--scale", "tiny", *extra],
                         cwd=cwd, capture_output=True, text=True)
    return got.returncode, got.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for trace, key, seed in ((0, "end_to_end", "7"), (1, "per_layer", "8")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in (w["name"] for w in spec["workloads"]):
            rc, out = bench("--workload", w, "--seed", seed,
                            "--trace", str(trace))
            res = result_of(out) if rc == 0 else {}
            expect(rc == 0 and set(res) == {"correct", "attempted", "failed",
                                            "metrics"},
                   f"{w} --trace {trace}: exit 0, result keys")
            if rc != 0:
                continue
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{w} --trace {trace}: {res['attempted']} operations, "
                   f"{res['failed']} failed")
            got = {k: m["unit"] for k, m in res["metrics"].items()
                   if isinstance(m["value"], (int, float))}
            expect(got == want,
                   f"{w} --trace {trace}: {len(want)} {key} metrics with "
                   f"their units")

    WORK.mkdir(parents=True, exist_ok=True)
    refs = json.loads((HERE / "reference.json").read_text())
    digests = refs["tiny"]["build"]["sehgp_rep2"]["digests"]
    digests["hx.alist"] = "0" * 64
    bad = WORK / "wrong-reference.json"
    bad.write_text(json.dumps(refs))
    rc, out = bench("--workload", "build", "--seed", "7", "--trace", "0",
                    "--reference", str(bad))
    res = result_of(out) if rc == 0 else {}
    expect(rc == 0 and not res["correct"] and res["failed"] >= 1,
           "a wrong reference digest counts as a failed operation")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = bench("--workload", "build", "--seed", "7", "--trace", "0",
                    cwd=bare)
    expect(rc != 0 and '"metrics"' not in out,
           "without src/ the run exits non-zero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
