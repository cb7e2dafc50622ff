"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from ioc2regex import annotate, make_record
from ioc2regex.capture import find_command_groups, find_path_groups
from ioc2regex.dialect import DialectError
from ioc2regex.evaluation import (
    evaluate_by_dataset,
    fpr,
    hit_rate,
    make_truth,
    mean_fpr,
    similarity,
    structural_similarity,
)
from ioc2regex.generation import (
    IndicatorMemo,
    ScriptedBackend,
    debug_check,
    generate,
    noncapture_check,
    overgen_check,
    render_template,
)
from ioc2regex.grading import grade
from ioc2regex.pipeline import PipelineConfig, run_evaluate, run_generate

from oracles import (
    brute_force_longest_run,
    interpret_command_algorithm,
    recount_score,
)
from test_capture import cmd_record, path_record, random_command_instance, random_path_instance
from test_grading import random_annotation_and_pattern

DATA = Path(__file__).parent / "data"
E2E_IOCS = DATA / "e2e_iocs.json"
E2E_TRUTHS = DATA / "e2e_truths.json"


def report(number: int, name: str, outcome: bool, detail: str = "") -> None:
    status = "PASS" if outcome else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert outcome, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_path_algorithm_oracle():
    rng = random.Random(0xA11CE)
    started = time.perf_counter()
    failures = 0
    for _ in range(1000):
        store, components, names, edges = random_path_instance(rng)
        ann = find_path_groups(path_record(components), store)
        got = len(ann.capture_sequences[0]) if ann.capture_sequences else 0
        want = brute_force_longest_run(components, names, edges)
        if got != want:
            failures += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "path algorithm vs brute force, 1000 randomized instances",
        failures == 0 and elapsed < 5.0,
        f"{failures} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_command_algorithm_oracle():
    rng = random.Random(0xB0B)
    started = time.perf_counter()
    failures = 0
    for _ in range(1000):
        store, components, mapping, params = random_command_instance(rng)
        ann = find_command_groups(cmd_record(components), store)
        want = interpret_command_algorithm(components, mapping, params)
        if ann.capture_sequences != want:
            failures += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        "command algorithm vs independent interpreter, 1000 randomized instances",
        failures == 0 and elapsed < 5.0,
        f"{failures} mismatches, {elapsed:.2f}s",
    )


def test_criterion_3_worked_examples(
    store, path_annotation, schtasks_annotation
):
    started = time.perf_counter()
    ok = path_annotation.capture_sequences == [["Users", "Public"]]

    ok = ok and schtasks_annotation.capture_sequences == [
        ["schtasks", "/create", "/s", "/u", "/p", "/ru", "/tn", "/sc", "/tr", "/F"]
    ]
    ok = ok and schtasks_annotation.discard_components == [
        "<remote_host>", "<username>", "<password>", "SYSTEM", "one", "DAILY",
        r"c:\users\public\11.bat",
    ]

    truths = [
        make_truth(
            {"text": r"c:\windows\system32\pscp.exe", "kind": "file_path",
             "capture_groups": ["windows", "system32"], "dataset_id": "v"},
            store,
        ),
        make_truth(
            {"text": r"c:\users\pam\desktop\rcs.3aka3.doc", "kind": "file_path",
             "capture_groups": ["users", "user", "desktop"], "dataset_id": "v"},
            store,
        ),
        make_truth(
            {"text": r"c:\windows\system32\certutil.exe", "kind": "file_path",
             "capture_groups": ["windows", "system32"], "dataset_id": "v"},
            store,
        ),
    ]
    res = fpr(r"(?i)c:\\.*\.\w+", ["windows", "system32"], truths)
    ok = ok and len(res.matched_indices) == 3 and len(res.false_positive_indices) == 1
    elapsed = time.perf_counter() - started
    report(
        3,
        "paper worked examples (capture groups + one flagged FP)",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def _scenario_annotations(store):
    recs = [
        make_record(r"C:\Users\Public\11.bat", store, source_id="sc-path"),
        make_record(
            r"HKCU\Software\Microsoft\Windows\CurrentVersion\Run\Evil",
            store,
            source_id="sc-reg",
        ),
        make_record("cmd /c whoami", store, source_id="sc-cmd"),
    ]
    return [annotate(r, store) for r in recs]


def test_criterion_4_workflow_guarantees(store):
    started = time.perf_counter()
    annotations = _scenario_annotations(store)
    rng = random.Random(44)
    cap, iters = 5, 10
    violations = []

    for case in range(100):
        ann = annotations[case % len(annotations)]
        good = render_template(ann)
        kind = case % 4
        if kind == 0:  # always broken: never compiles or never matches
            script = ScriptedBackend([rng.choice(["(bad", f"ZZnope{case}q"])])
            expect_final = False
        elif kind == 1:  # always universal
            script = ScriptedBackend([".*"])
            expect_final = False
        elif kind == 2:  # eventually correct at iteration n <= 10
            n = (case % 10) + 1
            script = ScriptedBackend(["(x"] * (n - 1) + [good])
            expect_final = True
        else:  # correct only after a restart
            script = ScriptedBackend(["(x"] * iters + [good])
            expect_final = True

        final, trace = generate(
            IndicatorMemo(ann), script, rng_seed=case, max_iterations=iters,
            restart_cap=cap,
        )

        for restart in range(cap):
            stages = Counter(a.stage for a in trace.attempts if a.restart == restart)
            for stage, count in stages.items():
                if count > iters:
                    violations.append((case, "loop cap", stage, count))
        if trace.restarts > cap:
            violations.append((case, "restart cap", trace.restarts))
        if script.calls > cap * (1 + iters + iters) + cap:
            violations.append((case, "backend calls", script.calls))
        if (final is not None) != expect_final:
            violations.append((case, "final expectation", final))
        if final is not None:
            if not debug_check(final, ann.record.normalized).ok:
                violations.append((case, "final does not match IOC"))
            audit = noncapture_check(final, ann)
            if not audit.ok:
                violations.append((case, "final violates group audit"))
            if not overgen_check(final, case, ann.keep_components).ok:
                violations.append((case, "final overgeneral"))
    elapsed = time.perf_counter() - started
    report(
        4,
        "workflow caps + final-pattern invariants over 100 scripted scenarios",
        not violations and elapsed < 10.0,
        f"{len(violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_5_grading_oracle(store):
    rng = random.Random(0x5C0FE)
    mismatches = 0
    graded = 0
    while graded < 200:
        ann, pattern = random_annotation_and_pattern(rng)
        try:
            cand = grade(pattern, IndicatorMemo(ann))
        except DialectError:
            continue
        graded += 1
        n_cg, n_wc = recount_score(pattern, ann.keep_components)
        if (cand.n_cg, cand.n_wc, cand.score) != (n_cg, n_wc, n_cg - n_wc):
            mismatches += 1

    rec = make_record(
        r"ProgramData\Microsoft\Windows\StartMenu\Programs\StartUp", store
    )
    exemplar = grade(
        r"(?i).*ProgramData\\Microsoft\\Windows\\StartMenu\\Programs\\StartUp.*",
        IndicatorMemo(annotate(rec, store)),
    )
    exemplar_ok = (exemplar.n_cg, exemplar.score) == (6, 6)
    report(
        5,
        "grading score vs independent recount (200 fuzz) + StartUp exemplar",
        mismatches == 0 and exemplar_ok,
        f"{mismatches} mismatches, exemplar n_cg={exemplar.n_cg} score={exemplar.score}",
    )


def _metric_fixture(store):
    spec = [
        (r"c:\windows\temp\a.exe", "file_path", ["windows", "temp"]),
        (r"c:\windows\temp\b.exe", "file_path", ["windows", "temp"]),
        (r"c:\windows\system32\c.exe", "file_path", ["windows", "system32"]),
        (r"c:\users\public\d.bat", "file_path", ["users", "public"]),
        (r"c:\users\public\e.bat", "file_path", ["users", "public"]),
        (r"q:\elsewhere\folder\f.bin", "file_path", ["folder"]),
        (r"HKCU\Software\Classes\g", "registry_key", ["hkcu", "software", "classes"]),
        (r"HKCU\Software\Classes\h", "registry_key", ["hkcu", "software", "classes"]),
        (r"HKLM\System\CurrentControlSet\Services\i", "registry_key",
         ["hklm", "system", "currentcontrolset", "services"]),
        ("cmd /c whoami", "command_line", ["cmd", "/c", "whoami"]),
        ("cmd /c hostname", "command_line", ["cmd", "/c"]),
        ("curl --get --url http://x.example/", "command_line", ["curl", "--get", "--url"]),
    ]
    truths = [
        make_truth(
            {"text": t, "kind": k, "capture_groups": g, "dataset_id": "fix6"}, store
        )
        for t, k, g in spec
    ]
    products = [
        {"ioc_id": "R0", "pattern": r"(?i).*windows\\temp\\.*",
         "capture_groups": ["windows", "temp"],
         "normalized": r"C:\Windows\Temp\src.exe", "score": 2},
        {"ioc_id": "R1", "pattern": r"(?i).*users\\public\\.*",
         "capture_groups": ["users", "public"],
         "normalized": r"C:\Users\Public\src.bat", "score": 2},
        {"ioc_id": "R2", "pattern": r"(?i).*hkcu\\software\\classes\\.*",
         "capture_groups": ["hkcu", "software", "classes"],
         "normalized": r"HKCU\Software\Classes\src", "score": 3},
        {"ioc_id": "R3", "pattern": r"(?i).*cmd.*/c.*",
         "capture_groups": ["cmd", "/c"],
         "normalized": "cmd /c src", "score": 1},
    ]
    return products, truths


def test_criterion_6_metric_fixtures(store):
    products, truths = _metric_fixture(store)

    rows = [fpr(p["pattern"], p["capture_groups"], truths) for p in products]
    hits = hit_rate([row.matched_indices for row in rows], truths)
    ok = hits.total == 12 and len(hits.matched_indices) == 8
    ok = ok and hits.rate == pytest.approx(8 / 12)
    ok = ok and hits.unmatched_by_kind == {
        "file_path": 2, "registry_key": 1, "command_line": 1,
    }

    values = {p["ioc_id"]: row.value for p, row in zip(products, rows)}
    ok = ok and values == {"R0": 0.0, "R1": 0.0, "R2": 0.0, "R3": 0.5}
    ok = ok and mean_fpr([v for v in values.values()]) == pytest.approx(0.125)

    [report6] = evaluate_by_dataset(products, truths)
    stats = report6.score_stats
    ok = ok and (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum, stats.mean) == (
        1.0, 1.75, 2.0, 2.25, 3.0, 2.0,
    )

    sim_ok = abs(similarity("abc", "abd") - 2 / 3) <= 1e-9
    cos_ok = abs(structural_similarity("(a)+", "[b]*") - 0.5) <= 1e-9
    report(
        6,
        "hand-built 12x4 metric fixture + similarity constants",
        ok and sim_ok and cos_ok,
        f"hit={hits.rate:.4f} mean_fpr=0.125 sim={similarity('abc', 'abd'):.6f}",
    )


def _run_fixture_pipeline(tmp_path, tag, **overrides):
    cfg = PipelineConfig(
        input_path=str(E2E_IOCS),
        output_path=str(tmp_path / f"products-{tag}.json"),
        seed=7,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    summary = run_generate(cfg)
    payload = run_evaluate(
        cfg.output_path, E2E_TRUTHS, tmp_path / f"report-{tag}.json"
    )
    (rep,) = payload["reports"]
    return cfg, summary, rep


def test_criterion_7_synthetic_end_to_end(tmp_path):
    started = time.perf_counter()
    cfg_a, summary, rep = _run_fixture_pipeline(tmp_path, "a")
    cfg_b, _, _ = _run_fixture_pipeline(tmp_path, "b")
    elapsed = time.perf_counter() - started

    deterministic = (
        Path(cfg_a.output_path).read_bytes() == Path(cfg_b.output_path).read_bytes()
    )
    ok = (
        summary["inputs"] == 50
        and rep["total"] == 150
        and rep["hit_rate"] >= 0.95
        and rep["mean_fpr"] is not None
        and rep["mean_fpr"] <= 0.05
        and deterministic
        and elapsed < 30.0
    )
    report(
        7,
        "synthetic end-to-end (50 IOCs, 150 truths, template backend)",
        ok,
        f"hit={rep['hit_rate']:.3f} mean_fpr={rep['mean_fpr']:.4f} {elapsed:.1f}s",
    )


def test_criterion_8_ablation_direction(tmp_path):
    _, _, full_rep = _run_fixture_pipeline(tmp_path, "full")
    _, _, nocr_rep = _run_fixture_pipeline(tmp_path, "nocr", ablation="-CR")
    fpr_ok = full_rep["mean_fpr"] <= nocr_rep["mean_fpr"]

    replay = tmp_path / "replay.json"
    replay.write_text(
        json.dumps({"emissions": ["(broken"], "per_record": True, "fallback": "template"})
    )
    _, _, full_hit_rep = _run_fixture_pipeline(
        tmp_path, "wf", backend="scripted", replay_path=str(replay), candidates=1
    )
    _, _, cr_rep = _run_fixture_pipeline(
        tmp_path, "cr", backend="scripted", replay_path=str(replay),
        candidates=1, ablation="C-R",
    )
    hit_ok = full_hit_rep["hit_rate"] >= cr_rep["hit_rate"]
    report(
        8,
        "ablation direction (full FPR <= -CR FPR; workflow hit >= single-shot hit)",
        fpr_ok and hit_ok,
        f"fpr {full_rep['mean_fpr']:.4f} <= {nocr_rep['mean_fpr']:.4f}; "
        f"hit {full_hit_rep['hit_rate']:.3f} >= {cr_rep['hit_rate']:.3f}",
    )


def test_criterion_9_reproducibility(tmp_path):
    paths = []
    for run in ("one", "two"):
        cfg = PipelineConfig(
            input_path=str(E2E_IOCS),
            output_path=str(tmp_path / f"products-{run}.json"),
            seed=123,
        )
        run_generate(cfg)
        run_evaluate(cfg.output_path, E2E_TRUTHS, tmp_path / f"report-{run}.json")
        paths.append((Path(cfg.output_path), tmp_path / f"report-{run}.json"))
    products_same = paths[0][0].read_bytes() == paths[1][0].read_bytes()
    reports_same = paths[0][1].read_bytes() == paths[1][1].read_bytes()
    report(
        9,
        "byte-identical product and report files across identical runs",
        products_same and reports_same,
    )
