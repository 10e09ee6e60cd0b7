#!/usr/bin/env python3
"""The serve benchmark's own test. Run from the root of a source tree:

    python3 perfbench/test_bench.py

1. The generator's references agree with single-domain Pipeline runs over
   a few hundred seeded programs on two seeds (`pb selftest`), so a
   generator bug cannot look like an mhc failure.
2. Generated streams are byte-identical across invocations.
3. The traced run, twice on one seed per workload, reports identical
   exact counts (types.*, eval.dict_*, core.compile_kwords) and
   identical stream digests.
4. Outside a source tree the benchmark exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def main():
    run.build()
    for seed in (1, 2):
        r = subprocess.run([run.PB, "selftest", "--seed", str(seed), "--count", "300",
                            "--corpus", run.CORPUS], capture_output=True, text=True)
        expect(r.returncode == 0,
               f"generator references match Pipeline (seed {seed}): {r.stdout.strip()[-200:]}")

    for workload in run.SPEC["workloads"]:
        for part in (0, 1):
            a = run.pb("gen", "--workload", workload, "--seed", "5", "--part", str(part),
                       "--count", "400")
            b = run.pb("gen", "--workload", workload, "--seed", "5", "--part", str(part),
                       "--count", "400")
            expect(a == b and a, f"{workload} part {part} stream is byte-identical")

    for workload, cfg in run.SPEC["workloads"].items():
        outs = []
        for _ in range(2):
            out = run.pb("traced", "--workload", workload, "--seed", "3", "--seconds", "2",
                         "--cache-mb", str(cfg["cache_mb"]), "--conns", str(cfg["conns"]),
                         "--workers", str(cfg["workers"]))
            outs.append(json.loads(out.strip().splitlines()[-1]))
        a, b = outs
        expect(a["exact"] == b["exact"] and len(a["exact"]) == 6,
               f"{workload} traced exact counts repeat: {a['exact']}")
        expect(a["stream_md5"] == b["stream_md5"], f"{workload} traced stream digest repeats")
        expect(a["wrong"] == 0 and b["wrong"] == 0, f"{workload} traced run has no wrong answers")

    # outside a source tree: only BENCHMARK.json and perfbench/
    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir="_build")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hot-exec",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
        expect(r.returncode != 0 and not r.stdout.strip(),
               "outside a source tree the benchmark fails without a result")
    finally:
        shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
