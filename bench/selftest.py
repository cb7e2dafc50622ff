"""Fast self-test of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

It runs a tiny corpus through every workload, untraced and traced, and
checks that each run passes its output checks, that the printed metrics are
exactly the ones BENCHMARK.json names, that the corpus, the product and
report files and the traced counts repeat for a seed, and that the benchmark
refuses to run without the program's sources.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import corpus
import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One tiny in-process run; returns (workload properties, result line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    check(code == 0, f"{workload} trace {trace} exited {code}")
    properties = json.loads(lines[0].split(": ", 1)[1])
    return properties, json.loads(lines[-1])


def expect_metrics(result: dict, specs: list[dict], label: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    check(result["correct"] is True, f"{label}: output checks failed")
    check(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: attempted/failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {spec["name"]: spec["unit"] for spec in specs}
    check(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")


def corpus_digest(seed: int) -> str:
    kb = corpus.KnowledgeBase.load(run.DATA_DIR)
    built = corpus.build_corpus(seed, kb)
    return hashlib.sha256(built.ioc_bytes() + built.truth_bytes()).hexdigest()


def main() -> int:
    # Generator determinism: same bytes in this process and in another one
    # with a different string-hash seed; another seed gives other bytes.
    here = corpus_digest(7)
    code = "import selftest; print(selftest.corpus_digest(7))"
    other = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "12345"}, check=True,
    ).stdout.strip()
    check(here == other, "corpus bytes differ between processes for one seed")
    check(here != corpus_digest(8), "seeds 7 and 8 gave the same corpus")

    run.N_PLANTED, run.SETUP_REPS, run.MIN_PASSES, run.EVAL_PASSES = 12, 2, 2, 1
    for workload in run.WORKLOADS:
        props, result = bench(workload, 3, 0)
        expect_metrics(result, SPEC["end_to_end"], f"{workload} trace 0")
        check(props["iocs"] == 13 and props["planted_reject_share"] > 0,
              f"{workload}: unexpected corpus size {props['iocs']}")
        again, _ = bench(workload, 3, 0)
        for key in ("products_sha256", "report_sha256"):
            check(props[key] == again[key], f"{workload}: {key} differs between runs")

        _, first = bench(workload, 3, 1)
        expect_metrics(first, SPEC["per_layer"], f"{workload} trace 1")
        _, second = bench(workload, 3, 1)
        for name, m in first["metrics"].items():
            if m["unit"] in ("count", "ratio") and name != "trace.overhead_frac":
                check(m["value"] == second["metrics"][name]["value"],
                      f"{workload}: count {name} differs between traced runs")
        print(f"selftest: {workload} ok")

    # Without the program's sources the benchmark exits non-zero, printing
    # no result.
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "evaluate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "the benchmark ran without the program's sources")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
