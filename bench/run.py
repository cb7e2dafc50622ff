"""Benchmark for ioc2regex: generate and evaluate on a seeded synthetic corpus.

    python3 bench/run.py --workload gen-template --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  Workloads, all built from the same seed:

  gen-template  ``run_generate`` with the default template backend, k=5.
                Every candidate passes all gates on the first try, so the
                over-generalization probe, tokenizing and grading dominate.
  gen-repair    ``run_generate`` with the scripted backend in per-record mode:
                every indicator first gets a fixed run of bad emissions
                (syntax errors, literals that match nothing, over-broad
                patterns), then the template fallback.  The repair loop
                (debug diagnostics, group audit, feedback prompts, restarts)
                dominates.  The backend is stateful.
  evaluate      ``run_evaluate`` of the products that this commit's generate
                made during set-up, against truths split over four datasets.
                Matching every product against every truth dominates.

Passes run one after another, each in a fresh interpreter (``one_pass.py``),
until ``--seconds`` have passed.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones plus the tracing
overhead.  The outputs are checked after the timed passes; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed check exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import corpus

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DATA_DIR = SRC / "ioc2regex" / "data"

WORKLOADS = ("gen-template", "gen-repair", "evaluate")
N_PLANTED = None  # indicators with invariants; None is one of every structure
BAD_EMISSIONS = 48  # scripted emissions per indicator before the fallback
SETUP_REPS = 8  # set-ups per run; setup_s is their median
MIN_PASSES = 4  # timed passes per run, however short --seconds is
EVAL_PASSES = 8  # gen-* only: timed evaluations of the fresh products after the window
PASS_TIMEOUT_S = 120

# (name, unit, better) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("iocs_per_s", "1/s", "higher"),
    ("truths_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("mean_score", "points", "higher"),
    ("hit_rate", "ratio", "higher"),
    ("mean_fpr", "ratio", "lower"),
)


class PassError(RuntimeError):
    pass


def unit_of(layer_metric: str) -> str:
    """A per-layer metric's unit, from the suffix of its name."""
    if layer_metric.endswith("_checks"):
        return "count"
    if "_ms_" in layer_metric:
        return "ms"
    if layer_metric.endswith("_s"):
        return "s"
    return "ratio"


def scaled_wall(result: dict) -> float:
    """A pass's wall time at the reference machine speed."""
    return calib.scale(result["wall_s"], result["calib_s"])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(mode: str, files: dict[str, Path], spans: Path | None = None) -> dict:
    """One pass in a fresh interpreter; waits for it, or kills it on timeout."""
    cmd = [sys.executable, str(BENCH_DIR / "one_pass.py"), mode, "--src", str(SRC)]
    for flag in ("input", "replay", "products", "truths", "output"):
        if flag in files:
            cmd += [f"--{flag}", str(files[flag])]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- set-up -----------------------------------------------------------------


def set_up(workload: str, seed: int, work: Path) -> dict:
    """Load the knowledge base, build and write the corpus; for ``evaluate``
    also generate the product file it scores."""
    from ioc2regex import default_store

    store = default_store()
    kb = corpus.KnowledgeBase.load(DATA_DIR)
    built = corpus.build_corpus(seed, kb, N_PLANTED)
    files = {"input": work / "iocs.json", "truths": work / "truths.json"}
    files["input"].write_bytes(built.ioc_bytes())
    files["truths"].write_bytes(built.truth_bytes())
    if workload == "gen-repair":
        files["replay"] = work / "replay.json"
        replay = {
            "emissions": corpus.bad_emissions(kb, BAD_EMISSIONS),
            "per_record": True,
            "fallback": "template",
        }
        files["replay"].write_text(json.dumps(replay, indent=1), encoding="utf-8")
    generated = None
    if workload == "evaluate":
        files["products"] = work / "products.json"
        generated = run_pass("generate", {"input": files["input"], "output": files["products"]})
    digest = hashlib.sha256()
    for path in files.values():
        digest.update(path.read_bytes())
    return {"store": store, "corpus": built, "files": files,
            "generated": generated, "digest": digest.hexdigest()}


# -- output checks (outside the timed region) --------------------------------


def check_products(product: dict, built: corpus.Corpus) -> list[str]:
    """Shipped patterns match their own indicator, capture groups equal the
    planted invariants, and planted false positives are rejected."""
    problems = []
    records = {r["ioc_id"]: r for r in product["records"]}
    reasons = {r["ioc_id"]: r["reason"] for r in product["rejections"]}
    for ioc in built.iocs:
        sid = ioc["source_id"]
        planted = built.planted[sid]
        record = records.get(sid)
        if planted is None:
            if reasons.get(sid) not in ("classified other", "no capture group"):
                problems.append(f"{sid}: planted false positive {ioc['text']!r} not rejected")
        elif record is None:
            if reasons.get(sid) != "generation failed":
                problems.append(f"{sid}: {ioc['text']!r} rejected: {reasons.get(sid)}")
        else:
            if record["capture_groups"] != planted:
                problems.append(
                    f"{sid}: capture groups {record['capture_groups']} != planted {planted}"
                )
            if re.search(record["pattern"], record["normalized"]) is None:
                problems.append(f"{sid}: {record['pattern']!r} does not match its indicator")
    return problems


def reference_report(records: list[dict], truths: list) -> list[dict]:
    """Hit rate and per-regex FPR per dataset by plain nested loops."""
    by_dataset: dict[str, list] = {}
    for truth in truths:
        by_dataset.setdefault(truth.dataset_id, []).append(truth)
    expected = []
    for dataset in sorted(by_dataset):
        subset = by_dataset[dataset]
        hit: set[int] = set()
        per_regex = []
        for record in records:
            rx = re.compile(record["pattern"])
            groups = frozenset(record["capture_groups"])
            matched = [i for i, t in enumerate(subset) if rx.search(t.normalized)]
            hit.update(matched)
            false_pos = [i for i in matched if subset[i].capture_groups != groups]
            per_regex.append([record["ioc_id"], len(false_pos) / len(matched) if matched else None])
        expected.append({"dataset_id": dataset, "matched": len(hit),
                         "hit_rate": len(hit) / len(subset), "per_regex_fpr": per_regex})
    return expected


def check_report(report: dict, records: list[dict], truths_path: Path, store) -> list[str]:
    from ioc2regex import evaluation

    truths = evaluation.load_truths(truths_path, store)
    got = [{k: r[k] for k in ("dataset_id", "matched", "hit_rate", "per_regex_fpr")}
           for r in report["reports"]]
    if got != reference_report(records, truths):
        return ["report hit rate / per-regex FPR differ from the nested-loop reference"]
    return []


def quality(product: dict, report: dict) -> dict[str, float]:
    """The deterministic metrics that show a speed-up degrading the regexes."""
    reports = report["reports"]
    fprs = [v for r in reports for _rid, v in r["per_regex_fpr"] if v is not None]
    return {
        "mean_score": statistics.fmean(r["score"] for r in product["records"]),
        "hit_rate": sum(r["matched"] for r in reports) / sum(r["total"] for r in reports),
        "mean_fpr": statistics.fmean(fprs),
    }


# -- the run --------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    problems: list[str] = []

    setup_times, setups = [], []
    for _ in range(SETUP_REPS):
        with calib.Sampler() as sampler:
            setups.append(set_up(workload, seed, work))
        setup_times.append(calib.scale(sampler.wall_s, sampler.loop_s))
    if len({s["digest"] for s in setups}) != 1:
        problems.append("set-up is not byte-deterministic for one seed")
    setup = setups[-1]
    built, files = setup["corpus"], dict(setup["files"])
    n_truths = len(built.truths)

    if workload == "evaluate":
        mode, window_ops = "evaluate", n_truths
        files["output"] = work / "report.json"
    else:
        mode, window_ops = "generate", len(built.iocs)
        files["products"] = files["output"] = work / "products.json"

    passes: list[tuple[bool, dict]] = []
    digests: set[str] = set()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        spans = work / "spans.jsonl.gz" if traced else None  # the last traced pass
        passes.append((traced, run_pass(mode, files, spans)))
        digests.add(sha256(files["output"]))
    if len(digests) != 1:
        problems.append(f"{files['output'].name} differs between passes of one run")

    eval_walls = []
    if workload == "evaluate":
        gen_walls = [scaled_wall(s["generated"]) for s in setups]
        eval_walls = [scaled_wall(r) for _t, r in passes]
        failed = 0
    else:
        gen_walls = [scaled_wall(r) for _t, r in passes]
        failed = sum(r["summary"]["failed"] for _t, r in passes)
        files["output"] = work / "report.json"
        report_digests = set()
        for _ in range(1 if trace else EVAL_PASSES):
            eval_walls.append(scaled_wall(run_pass("evaluate", files)))
            report_digests.add(sha256(files["output"]))
        if len(report_digests) != 1:
            problems.append("report.json differs between evaluations of one product")

    product = json.loads(files["products"].read_text(encoding="utf-8"))
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    problems += check_products(product, built)
    problems += check_report(report, product["records"], files["truths"], setup["store"])

    records = product["records"]
    properties = {
        **built.properties(),
        "products": len(records),
        "distinct_pattern_share": len({r["pattern"] for r in records}) / len(records),
        "bad_emissions_per_ioc": BAD_EMISSIONS if workload == "gen-repair" else 0,
        "passes": len(passes),
        "products_sha256": sha256(files["products"]),
        "report_sha256": sha256(work / "report.json"),
        "calib_loop_s": statistics.median(r["calib_s"] for _t, r in passes),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }

    if trace:
        metrics = layer_metrics(passes, failed, len(built.iocs))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "iocs_per_s": len(built.iocs) / statistics.median(gen_walls),
            "truths_per_s": n_truths / statistics.median(eval_walls),
            "peak_rss_mb": statistics.median(r["rss_mb"] for _t, r in passes),
            **quality(product, report),
        }
    attempted = window_ops * len(passes)
    return problems, properties, metrics, attempted, failed


def layer_metrics(passes: list[tuple[bool, dict]], failed: int, n_iocs: int) -> dict:
    """Medians over the traced passes; times at the reference machine speed."""
    traced = [r for t, r in passes if t]
    untraced = [r for t, r in passes if not t]
    metrics = {}
    for name in traced[0]["layers"]:
        timed = unit_of(name) == "s"
        metrics[name] = statistics.median(
            calib.scale(r["layers"][name], r["calib_s"]) if timed else r["layers"][name]
            for r in traced
        )
    ioc_ms = [calib.scale(ms, r["calib_s"]) for r in traced for ms in r["ioc_ms"]]
    has_iocs = len(ioc_ms) >= 2
    metrics["pipeline.ioc_ms_p50"] = statistics.median(ioc_ms) if has_iocs else 0.0
    metrics["pipeline.ioc_ms_p99"] = statistics.quantiles(ioc_ms, n=100)[98] if has_iocs else 0.0
    metrics["pipeline.failed_frac"] = failed / (n_iocs * len(passes))
    metrics["trace.overhead_frac"] = (
        statistics.median(scaled_wall(r) for r in traced)
        / statistics.median(scaled_wall(r) for r in untraced) - 1
    )
    return dict(sorted(metrics.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ioc2regex" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'ioc2regex'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems, properties, metrics, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except PassError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(properties, sort_keys=True)}")
    units = (
        {name: unit_of(name) for name in metrics} if args.trace
        else {name: unit for name, unit, _better in END_TO_END}
    )
    better = {name: f"{b} is better" for name, _unit, b in END_TO_END}
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit:<6} {better.get(name, '')}")
    if not args.trace:
        print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} {'ratio':<6} lower is better"
              " (the result's failed/attempted)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
