import argparse
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ioc2regex
from ioc2regex import cli, dialect, pipeline
from ioc2regex.capture import GroupAnnotation
from ioc2regex.cli import main
from ioc2regex.evaluation import load_truths, score_distribution
from ioc2regex.generation import ScriptedBackend, TemplateBackend
from ioc2regex.inputs import read_json
from ioc2regex.knowledge import KnowledgeStore
from ioc2regex.normalize import IocKind, Tables
from ioc2regex.pipeline import (
    ConfigError,
    PipelineConfig,
    load_iocs,
    run_ablation,
    run_evaluate,
    run_generate,
    unfiltered_annotation,
)

from oracles import reference_levenshtein, reference_matches

DATA = Path(__file__).parent / "data"

PRODUCT_RECORD_KEYS = {
    "ioc_id", "raw", "kind", "normalized", "capture_groups", "capture_sequences",
    "pattern", "score", "n_cg", "n_wc", "candidates_considered",
}
REPORT_KEYS = {
    "dataset_id", "total", "matched", "hit_rate", "unmatched_by_kind",
    "per_regex_fpr", "mean_fpr", "score_stats", "similarity_stats",
}


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def product_record(ioc_id="hand-edited", pattern="abc", **overrides):
    """A product record with every key evaluate reads."""
    return {"ioc_id": ioc_id, "pattern": pattern, "capture_groups": ["abc"],
            "normalized": "abc", "score": 1, **overrides}


@pytest.fixture
def fig1_input(tmp_path):
    from conftest import FIG1_PATH, FIG1_SCHTASKS

    return write_json(tmp_path / "iocs.json", [FIG1_PATH, FIG1_SCHTASKS])


def base_config(tmp_path, input_path, **overrides):
    cfg = PipelineConfig(
        input_path=input_path,
        output_path=str(tmp_path / "products.json"),
        seed=0,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def modules_at_start_up() -> set[str]:
    """The modules a fresh interpreter holds after ``import ioc2regex.cli``."""
    code = "import json, sys, ioc2regex, ioc2regex.cli\nprint(json.dumps(list(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(ioc2regex.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout))


class TestRunGenerate:
    def test_fig1_pair_generates_two_records(self, tmp_path, fig1_input):
        cfg = base_config(tmp_path, fig1_input)
        summary = run_generate(cfg)
        assert summary["generated"] == 2
        assert summary["rejected_no_capture"] == 0
        assert summary["failed"] == 0
        product = json.loads(Path(cfg.output_path).read_text())
        assert len(product["records"]) == 2
        assert product["rejections"] == []

    def test_hash_like_string_excluded(self, tmp_path):
        inp = write_json(
            tmp_path / "iocs.json", ["d41d8cd98f00b204e9800998ecf8427e"]
        )
        cfg = base_config(tmp_path, inp)
        summary = run_generate(cfg)
        assert summary["classified_other"] == 1
        assert summary["generated"] == 0
        product = json.loads(Path(cfg.output_path).read_text())
        assert product["rejections"][0]["reason"] == "classified other"

    def test_empty_input(self, tmp_path):
        inp = write_json(tmp_path / "iocs.json", [])
        cfg = base_config(tmp_path, inp)
        summary = run_generate(cfg)
        assert summary["inputs"] == 0
        product = json.loads(Path(cfg.output_path).read_text())
        assert product["records"] == []

    def test_no_capture_group_rejected(self, tmp_path):
        inp = write_json(tmp_path / "iocs.json", [r"Q:\nothing\known\here.xyz"])
        cfg = base_config(tmp_path, inp)
        summary = run_generate(cfg)
        assert summary["rejected_no_capture"] == 1
        product = json.loads(Path(cfg.output_path).read_text())
        assert product["rejections"][0]["reason"] == "no capture group"

    def test_stage_count_conservation(self, tmp_path):
        inp = write_json(
            tmp_path / "iocs.json",
            [
                r"C:\Users\Public\a.bat",
                "d41d8cd98f00b204e9800998ecf8427e",
                r"Q:\nope\zzz\x.y",
                "cmd /c whoami",
            ],
        )
        cfg = base_config(tmp_path, inp)
        s = run_generate(cfg)
        assert s["inputs"] == (
            s["generated"] + s["rejected_no_capture"] + s["classified_other"] + s["failed"]
        )

    def test_product_record_schema_frozen(self, tmp_path, fig1_input):
        cfg = base_config(tmp_path, fig1_input)
        run_generate(cfg)
        product = json.loads(Path(cfg.output_path).read_text())
        for record in product["records"]:
            assert set(record) == PRODUCT_RECORD_KEYS

    def test_custom_source_ids_kept(self, tmp_path):
        inp = write_json(
            tmp_path / "iocs.json",
            [{"text": r"C:\Users\Public\x.bat", "source_id": "rpt-77"}],
        )
        cfg = base_config(tmp_path, inp)
        run_generate(cfg)
        product = json.loads(Path(cfg.output_path).read_text())
        assert product["records"][0]["ioc_id"] == "rpt-77"

    def test_reproducible_bytes(self, tmp_path, fig1_input):
        cfg_a = base_config(tmp_path, fig1_input, output_path=str(tmp_path / "a.json"))
        cfg_b = base_config(tmp_path, fig1_input, output_path=str(tmp_path / "b.json"))
        run_generate(cfg_a)
        run_generate(cfg_b)
        assert Path(cfg_a.output_path).read_bytes() == Path(cfg_b.output_path).read_bytes()

    def test_workers_do_not_change_output(self, tmp_path, fig1_input):
        cfg_a = base_config(tmp_path, fig1_input, output_path=str(tmp_path / "a.json"))
        cfg_b = base_config(
            tmp_path, fig1_input, output_path=str(tmp_path / "b.json"), workers=4
        )
        run_generate(cfg_a)
        run_generate(cfg_b)
        assert Path(cfg_a.output_path).read_bytes() == Path(cfg_b.output_path).read_bytes()

    def test_thread_pool_not_imported_at_start_up(self):
        # only workers > 1 uses the pool, so no other run pays for its import
        assert not any(m.startswith("concurrent") for m in modules_at_start_up())

    def test_http_client_not_imported_at_start_up(self):
        # only the remote backend's call uses them, so no other run pays for them
        assert not {"urllib.request", "http.client"} & modules_at_start_up()

    def test_scripted_backend_forces_one_worker(self, tmp_path, fig1_input, caplog):
        replay = write_json(
            tmp_path / "replay.json",
            {"emissions": ["(?i).*(unclosed", "(?i).*x.*"], "per_record": True,
             "fallback": "template"},
        )
        outputs = []
        for workers in (1, 4):
            cfg = base_config(
                tmp_path, fig1_input, output_path=str(tmp_path / f"{workers}.json"),
                backend="scripted", replay_path=replay, workers=workers,
            )
            caplog.clear()
            assert run_generate(cfg)["generated"] == 2
            outputs.append(Path(cfg.output_path).read_bytes())
        assert "forcing workers=1" in caplog.text
        assert outputs[0] == outputs[1]

    def test_annotation_dump(self, tmp_path, fig1_input):
        cfg = base_config(
            tmp_path, fig1_input, annotations_path=str(tmp_path / "ann.json")
        )
        run_generate(cfg)
        dump = json.loads((tmp_path / "ann.json").read_text())
        assert len(dump) == 2
        assert set(dump[0]) == {
            "raw", "kind", "normalized", "source_id", "components", "labels",
            "capture_sequences", "rejection_reason",
        }
        assert dump[0]["labels"] == ["discard", "keep", "keep", "discard"]
        assert dump[0]["rejection_reason"] is None

    def test_annotations_built_only_for_the_dump(self, tmp_path, monkeypatch):
        inp = write_json(
            tmp_path / "iocs.json",
            [r"C:\Users\Public\11.bat", "d41d8cd98f00b204e9800998ecf8427e",
             r"Q:\none\here\x.y"],
        )

        def refuse(_self):
            raise AssertionError("annotation dump built without --dump-annotations")

        monkeypatch.setattr(GroupAnnotation, "to_dict", refuse)
        summary = run_generate(base_config(tmp_path, inp))
        assert (summary["generated"], summary["failed"]) == (1, 0)

    def test_annotation_dump_includes_rejections(self, tmp_path):
        inp = write_json(
            tmp_path / "iocs.json",
            ["d41d8cd98f00b204e9800998ecf8427e", r"Q:\none\here\x.y"],
        )
        cfg = base_config(
            tmp_path, inp, annotations_path=str(tmp_path / "ann.json")
        )
        run_generate(cfg)
        dump = json.loads((tmp_path / "ann.json").read_text())
        assert [d["rejection_reason"] for d in dump] == [
            "classified other", "no capture group",
        ]

    def test_expansion_table_override(self, tmp_path):
        table = write_json(tmp_path / "exp.json", {"%STAGING%": "C:\\Users\\Public"})
        inp = write_json(tmp_path / "iocs.json", [r"%STAGING%\payload.bin"])
        cfg = base_config(tmp_path, inp, expansions_path=table)
        run_generate(cfg)
        product = json.loads(Path(cfg.output_path).read_text())
        record = product["records"][0]
        assert record["normalized"] == r"C:\Users\Public\payload.bin"
        assert record["capture_groups"] == ["public", "users"]

    def test_scripted_failure_counts_as_failed(self, tmp_path, fig1_input):
        replay = write_json(tmp_path / "replay.json", ["(bad"])
        cfg = base_config(
            tmp_path,
            fig1_input,
            backend="scripted",
            replay_path=replay,
            max_iterations=2,
            restart_cap=1,
            candidates=1,
        )
        summary = run_generate(cfg)
        assert summary["failed"] == 2

    def test_path_led_by_a_parameter_name_ships(self, tmp_path):
        # ``start`` names a knowledge-base parameter; the string is a path
        iocs = write_json(tmp_path / "iocs.json", [r"Start Menu\Programs\Startup\evil.lnk"])
        cfg = base_config(tmp_path, iocs)
        run_generate(cfg)
        (record,) = json.loads(Path(cfg.output_path).read_text())["records"]
        assert record["kind"] == "file_path"
        assert record["pattern"] == r"(?i).*Start\ Menu\\Programs\\Startup\\.*"

    def test_unbounded_brace_emission_is_repaired(self, tmp_path, fig1_input):
        # re cannot compile either bound; the dialect rejects both, so the
        # debug loop feeds them back and the template fallback repairs them
        emissions = ["a{4294967296}", "a{" + "9" * 5000 + "}"]
        replay = write_json(
            tmp_path / "replay.json", {"emissions": emissions, "fallback": "template"}
        )
        cfg = base_config(
            tmp_path, fig1_input, backend="scripted", replay_path=replay, candidates=1
        )
        summary = run_generate(cfg)
        assert (summary["generated"], summary["failed"]) == (2, 0)

    @pytest.mark.filterwarnings("error")
    def test_class_set_operation_emission_is_repaired(self, tmp_path, fig1_input):
        # re warns of both with a FutureWarning; the dialect rejects both, so
        # the debug loop feeds them back instead of failing the indicator
        replay = write_json(
            tmp_path / "replay.json",
            {"emissions": ["(?i).*[[:alpha:]]", "(?i)[a&&b].*"], "fallback": "template"},
        )
        cfg = base_config(
            tmp_path, fig1_input, backend="scripted", replay_path=replay, candidates=1
        )
        summary = run_generate(cfg)
        assert (summary["generated"], summary["failed"]) == (2, 0)

    def test_internal_error_costs_one_indicator(self, tmp_path, monkeypatch):
        iocs = write_json(
            tmp_path / "iocs.json",
            [r"C:\Users\Public\11.bat", r"C:\Windows\Temp\x.exe", "cmd /c whoami"],
        )
        cfg = base_config(tmp_path, iocs)
        run_generate(cfg)
        clean = json.loads(Path(cfg.output_path).read_text())

        class Faulty(TemplateBackend):
            def propose(self, annotation, prompt):
                if annotation.record.source_id == "ioc-0001":
                    raise ValueError("boom")
                return super().propose(annotation, prompt)

        monkeypatch.setattr(pipeline, "make_backend", lambda config: Faulty())
        summary = run_generate(cfg)
        faulty = json.loads(Path(cfg.output_path).read_text())
        assert summary["failed"] == 1
        assert faulty["rejections"] == clean["rejections"] + [
            {"ioc_id": "ioc-0001", "raw": r"C:\Windows\Temp\x.exe",
             "kind": "file_path", "reason": "internal error: ValueError: boom"}
        ]
        assert faulty["records"] == [
            r for r in clean["records"] if r["ioc_id"] != "ioc-0001"
        ]
        assert len(faulty["records"]) == 2

    def test_every_outcome_pins_its_product_and_dump_entry(self, tmp_path, monkeypatch):
        iocs = write_json(tmp_path / "iocs.json", [
            r"C:\Users\Public\11.bat",  # generated
            "d41d8cd98f00b204e9800998ecf8427e",  # classified other
            r"Q:\none\here\x.y",  # no capture group
            'cmd /c "whoami',  # normalization error
            r"C:\Windows\Temp\x.exe",  # generation failed
            "cmd /c whoami",  # internal error
        ])

        class Outcomes(TemplateBackend):
            def propose(self, annotation, prompt):
                source_id = annotation.record.source_id
                if source_id == "ioc-0004":
                    return "(bad"
                if source_id == "ioc-0005":
                    raise ValueError("boom")
                return super().propose(annotation, prompt)

        monkeypatch.setattr(pipeline, "make_backend", lambda config: Outcomes())
        cfg = base_config(tmp_path, iocs, annotations_path=str(tmp_path / "ann.json"),
                          candidates=1, max_iterations=2, restart_cap=1)
        summary = run_generate(cfg)
        assert {k: summary[k] for k in (
            "inputs", "generated", "rejected_no_capture", "classified_other", "failed"
        )} == {"inputs": 6, "generated": 1, "rejected_no_capture": 1,
               "classified_other": 1, "failed": 3}
        product = json.loads(Path(cfg.output_path).read_text())
        assert product["records"] == [{
            "ioc_id": "ioc-0000", "raw": r"C:\Users\Public\11.bat", "kind": "file_path",
            "normalized": r"C:\Users\Public\11.bat", "capture_groups": ["public", "users"],
            "capture_sequences": [["Users", "Public"]],
            "pattern": r"(?i).*Users\\Public\\.*", "score": 2, "n_cg": 2, "n_wc": 0,
            "candidates_considered": 1,
        }]
        assert product["rejections"] == [
            {"ioc_id": "ioc-0001", "raw": "d41d8cd98f00b204e9800998ecf8427e",
             "reason": "classified other"},
            {"ioc_id": "ioc-0002", "raw": r"Q:\none\here\x.y", "kind": "file_path",
             "reason": "no capture group"},
            {"ioc_id": "ioc-0003", "raw": 'cmd /c "whoami',
             "reason": "normalization error: unterminated double quote (offset 7)"},
            {"ioc_id": "ioc-0004", "raw": r"C:\Windows\Temp\x.exe", "kind": "file_path",
             "reason": "generation failed"},
            {"ioc_id": "ioc-0005", "raw": "cmd /c whoami", "kind": "command_line",
             "reason": "internal error: ValueError: boom"},
        ]

        def dumped(source_id, raw, kind, components, labels, sequences, reason):
            return {"source_id": source_id, "raw": raw, "normalized": raw, "kind": kind,
                    "components": components, "labels": labels,
                    "capture_sequences": sequences, "rejection_reason": reason}

        # a normalization or internal error writes no dump entry
        assert json.loads((tmp_path / "ann.json").read_text()) == [
            dumped("ioc-0000", r"C:\Users\Public\11.bat", "file_path",
                   ["C:", "Users", "Public", "11.bat"],
                   ["discard", "keep", "keep", "discard"], [["Users", "Public"]], None),
            dumped("ioc-0001", "d41d8cd98f00b204e9800998ecf8427e", "other",
                   [], [], [], "classified other"),
            dumped("ioc-0002", r"Q:\none\here\x.y", "file_path",
                   ["Q:", "none", "here", "x.y"], ["discard"] * 4, [],
                   "no capture group"),
            dumped("ioc-0004", r"C:\Windows\Temp\x.exe", "file_path",
                   ["C:", "Windows", "Temp", "x.exe"],
                   ["discard", "keep", "keep", "discard"], [["Windows", "Temp"]], None),
        ]

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            run_generate(base_config(tmp_path, str(tmp_path / "missing.json")))
        cfg = base_config(tmp_path, write_json(tmp_path / "i.json", []))
        cfg.candidates = 0
        with pytest.raises(ConfigError):
            run_generate(cfg)


class TestLoadIocs:
    def test_mixed_entries(self, tmp_path):
        path = write_json(
            tmp_path / "iocs.json", ["plain", {"text": "obj", "source_id": "s1"}]
        )
        assert load_iocs(path) == [("ioc-0000", "plain"), ("s1", "obj")]

    def test_bad_entry_rejected(self, tmp_path):
        path = write_json(tmp_path / "iocs.json", [42])
        with pytest.raises(ConfigError):
            load_iocs(path)

    @pytest.mark.parametrize("source_id", [["x"], True, False, 0, 7, 1.5, {"id": "x"}])
    def test_non_string_source_id_rejected(self, tmp_path, source_id):
        entries = ["plain", {"text": "obj", "source_id": source_id}]
        path = write_json(tmp_path / "iocs.json", entries)
        with pytest.raises(ConfigError, match=r"iocs\.json\[1\]: 'source_id' must be"):
            load_iocs(path)

    def test_null_or_empty_source_id_takes_the_default(self, tmp_path):
        entries = [{"text": "a", "source_id": None}, {"text": "b", "source_id": ""},
                   {"text": "c"}]
        path = write_json(tmp_path / "iocs.json", entries)
        assert load_iocs(path) == [("ioc-0000", "a"), ("ioc-0001", "b"), ("ioc-0002", "c")]

    @pytest.mark.parametrize(
        "entries, first, second, ioc_id",
        [
            ([{"text": "x", "source_id": "a"}, {"text": "y", "source_id": "a"}],
             0, 1, "a"),
            # an explicit id that equals another entry's default id
            (["x", "y", "z", {"text": "w", "source_id": "ioc-0002"}], 2, 3, "ioc-0002"),
            ([{"text": "x", "source_id": "ioc-0001"}, "y"], 0, 1, "ioc-0001"),
        ],
        ids=["explicit", "explicit-after-default", "default-after-explicit"],
    )
    def test_duplicate_ids_rejected(self, tmp_path, entries, first, second, ioc_id):
        path = write_json(tmp_path / "iocs.json", entries)
        message = rf"iocs\.json\[{first}\] and .*iocs\.json\[{second}\] share the id '{ioc_id}'"
        with pytest.raises(ConfigError, match=message):
            load_iocs(path)

    def test_duplicate_ids_exit_code_1(self, tmp_path, caplog):
        entries = [{"text": r"C:\Users\Public\x.bat", "source_id": "a"},
                   {"text": r"C:\Windows\Temp\y.exe", "source_id": "a"}]
        inp = write_json(tmp_path / "iocs.json", entries)
        rc = main(["generate", "--input", inp, "--output", str(tmp_path / "p.json")])
        assert rc == 1
        assert "share the id 'a'" in caplog.text
        assert not (tmp_path / "p.json").exists()


class TestRunEvaluate:
    def make_files(self, tmp_path):
        iocs = write_json(tmp_path / "iocs.json", [r"C:\Users\Public\11.bat"])
        cfg = base_config(tmp_path, iocs)
        run_generate(cfg)
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"c:\users\public\22.bat",
                    "kind": "file_path",
                    "capture_groups": ["users", "public"],
                    "dataset_id": "t1",
                }
            ],
        )
        return cfg.output_path, truths

    def test_full_match_report(self, tmp_path):
        products, truths = self.make_files(tmp_path)
        out = tmp_path / "report.json"
        payload = run_evaluate(products, truths, out)
        (report,) = payload["reports"]
        assert set(report) == REPORT_KEYS
        assert report["hit_rate"] == 1.0
        assert report["mean_fpr"] == 0.0

    def test_certutil_pscp_rcs_one_fp(self, tmp_path):
        products = write_json(
            tmp_path / "products.json",
            {
                "records": [
                    {
                        "ioc_id": "certutil-ioc",
                        "pattern": r"(?i)c:\\.*\.\w+",
                        "capture_groups": ["windows", "system32"],
                        "normalized": r"C:\Windows\System32\certutil.exe",
                        "score": 2,
                    }
                ],
                "rejections": [],
                "summary": {},
            },
        )
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"c:\windows\system32\pscp.exe",
                    "kind": "file_path",
                    "capture_groups": ["windows", "system32"],
                    "dataset_id": "v",
                },
                {
                    "text": r"c:\users\pam\desktop\rcs.3aka3.doc",
                    "kind": "file_path",
                    "capture_groups": ["users", "user", "desktop"],
                    "dataset_id": "v",
                },
            ],
        )
        dump = tmp_path / "matches.json"
        payload = run_evaluate(products, truths, tmp_path / "r.json", dump_matches=dump)
        (report,) = payload["reports"]
        assert report["per_regex_fpr"] == [["certutil-ioc", 0.5]]
        matches = json.loads(dump.read_text())
        assert matches[0]["false_positives"] == [r"c:\users\pam\desktop\rcs.3aka3.doc"]

    def test_disjoint_mean_fpr_absent(self, tmp_path):
        products, _ = self.make_files(tmp_path)
        truths = write_json(
            tmp_path / "truths2.json",
            [
                {
                    "text": "cmd /c ping",
                    "kind": "command_line",
                    "capture_groups": ["cmd", "/c"],
                    "dataset_id": "t2",
                }
            ],
        )
        payload = run_evaluate(products, truths, tmp_path / "r2.json")
        (report,) = payload["reports"]
        assert report["hit_rate"] == 0.0
        assert report["mean_fpr"] is None

    @pytest.mark.parametrize(
        "pattern", [r"(?P<n>x)", r"(a+)+$", r"(?:a|a)+$", "a{4294967296}"]
    )
    def test_product_pattern_outside_dialect(self, tmp_path, pattern):
        # the record is scored as a regex that matches nothing, and named
        products = write_json(
            tmp_path / "products.json", {"records": [product_record(pattern=pattern)]}
        )
        truths = write_json(
            tmp_path / "t.json", [{"text": "abc", "kind": "other", "capture_groups": ["abc"]}]
        )
        dump = tmp_path / "matches.json"
        payload = run_evaluate(products, truths, tmp_path / "r.json", dump_matches=dump)
        (entry,) = payload["invalid"]
        assert entry["ioc_id"] == "hand-edited"
        assert entry["reason"].startswith("pattern outside the dialect: ")
        (report,) = payload["reports"]
        assert report["per_regex_fpr"] == [["hand-edited", None]]
        assert (report["matched"], report["mean_fpr"], report["score_stats"]) == (0, None, None)
        assert json.loads((tmp_path / "r.json").read_text()) == payload
        assert json.loads(dump.read_text()) == [
            {"ioc_id": "hand-edited", "matched": [], "false_positives": []}
        ]

    def test_bad_record_leaves_the_good_rows_as_they_were(self, tmp_path):
        entries = json.loads((DATA / "e2e_truths.json").read_text(encoding="utf-8"))
        for i, entry in enumerate(entries):
            entry["dataset_id"] = f"part-{i % 3}"
        truths = write_json(tmp_path / "truths.json", entries)
        cfg = base_config(tmp_path, str(DATA / "e2e_iocs.json"))
        run_generate(cfg)
        good = run_evaluate(cfg.output_path, truths, tmp_path / "good.json",
                            dump_matches=tmp_path / "good-matches.json")
        product = json.loads(Path(cfg.output_path).read_text())
        product["records"].insert(1, product_record(ioc_id="bad", pattern="(a+)+$"))
        products = write_json(tmp_path / "with-bad.json", product)
        dump = tmp_path / "matches.json"
        payload = run_evaluate(products, truths, tmp_path / "r.json", dump_matches=dump)
        assert [entry["ioc_id"] for entry in payload.pop("invalid")] == ["bad"]
        assert len(payload["reports"]) == 3
        for report in payload["reports"]:
            assert report["per_regex_fpr"].pop(1) == ["bad", None]
        assert payload == good
        matches = [m for m in json.loads(dump.read_text()) if m["ioc_id"] != "bad"]
        assert matches == json.loads((tmp_path / "good-matches.json").read_text())

    @pytest.mark.parametrize(
        "record, problem",
        [
            ({k: v for k, v in product_record().items() if k != "pattern"},
             "missing 'pattern'"),
            ({k: v for k, v in product_record().items() if k != "score"},
             "missing 'score'"),
            (product_record(ioc_id=7), "'ioc_id' must be a string"),
            (product_record(pattern=None), "'pattern' must be a string"),
            (product_record(normalized=["abc"]), "'normalized' must be a string"),
            (product_record(score="2"), "'score' must be a number"),
            (product_record(score=True), "'score' must be a number"),
            (product_record(capture_groups="abc"), "'capture_groups' must be a list"),
            (product_record(capture_groups=[1]), "'capture_groups' must be a list"),
            ("abc", "not an object"),
            (product_record(pattern=""), "'pattern' must be a string of one or more"),
            (product_record(normalized=""), "'normalized' must be a string of one or more"),
        ],
    )
    def test_product_record_schema(self, tmp_path, record, problem):
        # record 0 is outside the dialect: every record's schema is checked first
        products = write_json(
            tmp_path / "products.json",
            {"records": [product_record(pattern="(a+)+"), record]},
        )
        truths = write_json(tmp_path / "t.json", [])
        with pytest.raises(ConfigError, match=f"record 1: {problem}"):
            run_evaluate(products, truths, tmp_path / "r.json")

    def test_three_datasets_equal_nested_loop_reference(self, tmp_path, store):
        entries = json.loads((DATA / "e2e_truths.json").read_text(encoding="utf-8"))
        for i, entry in enumerate(entries):
            entry["dataset_id"] = f"part-{i % 3}"
        truths_path = write_json(tmp_path / "truths.json", entries)
        cfg = base_config(tmp_path, str(DATA / "e2e_iocs.json"), seed=7)
        run_generate(cfg)
        records = json.loads(Path(cfg.output_path).read_text())["records"]
        dump = tmp_path / "matches.json"
        payload = run_evaluate(cfg.output_path, truths_path, tmp_path / "r.json",
                               dump_matches=dump)
        reports, matches = reference_reports(records, load_truths(truths_path, store))
        assert [r["dataset_id"] for r in reports] == ["part-0", "part-1", "part-2"]
        assert payload == {"reports": reports}
        assert json.loads(dump.read_text()) == matches
        assert any(m["false_positives"] for m in matches)

    def test_each_product_pattern_analyzed_once(self, tmp_path):
        # more distinct patterns than the analysis cache holds, half of them
        # of the find-chain shape and half not
        patterns = [
            rf"(?i).*\\users\\dir{i}\\.{tail}" for i in range(100) for tail in "*+"
        ]
        products = write_json(
            tmp_path / "products.json",
            {"records": [product_record(f"p{i}", p) for i, p in enumerate(patterns)]},
        )
        dialect.analysis_or_error.cache_clear()
        run_evaluate(products, str(DATA / "e2e_truths.json"), tmp_path / "r.json")
        assert dialect.analysis_or_error.cache_info().misses == len(patterns)

    def test_records_sharing_an_ioc_id_rejected(self, tmp_path):
        products = write_json(
            tmp_path / "products.json",
            {"records": [product_record("a"), product_record("b"), product_record("a")]},
        )
        truths = write_json(tmp_path / "t.json", [])
        with pytest.raises(ConfigError, match="record 0 and .*record 2 share the id 'a'"):
            run_evaluate(products, truths, tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_bad_product_file(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"nope": []})
        truths = write_json(tmp_path / "t.json", [])
        with pytest.raises(ConfigError):
            run_evaluate(bad, truths, tmp_path / "r.json")


class TestAblation:
    def test_unfiltered_annotation_shape(self, store, path_record):
        ann = unfiltered_annotation(path_record)
        assert all(label == "keep" for label in ann.labels)
        assert ann.capture_sequences == [path_record.components]

    def test_cr_mode_single_shot_no_repair(self, tmp_path, fig1_input):
        replay = write_json(tmp_path / "replay.json", ["(broken"])
        cfg = base_config(
            tmp_path,
            fig1_input,
            backend="scripted",
            replay_path=replay,
            candidates=1,
            ablation="C-R",
        )
        summary = run_generate(cfg)
        assert summary["generated"] == 0
        assert summary["failed"] == 2

    def test_minus_cr_pattern_embeds_mutable_parts(self, tmp_path):
        inp = write_json(tmp_path / "iocs.json", [r"C:\Users\Public\uniq77.bat"])
        cfg = base_config(tmp_path, inp, ablation="-CR")
        run_generate(cfg)
        product = json.loads(Path(cfg.output_path).read_text())
        assert "uniq77" in product["records"][0]["pattern"]
        assert product["summary"]["ablation"] == "-CR"

    def test_run_ablation_writes_report(self, tmp_path):
        inp = write_json(tmp_path / "iocs.json", [r"C:\Users\Public\uniq77.bat"])
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"C:\Users\Public\uniq77.bat",
                    "kind": "file_path",
                    "capture_groups": ["users", "public"],
                    "dataset_id": "abl",
                }
            ],
        )
        cfg = base_config(tmp_path, inp, ablation="-CR")
        payload = run_ablation(cfg, truths, tmp_path / "report.json")
        (report,) = payload["reports"]
        # the -CR pattern embeds the payload literally: it matches the copy,
        # and the all-component group set differs from the annotated one
        assert report["hit_rate"] == 1.0
        assert report["mean_fpr"] == 1.0

    def test_run_ablation_rejects_an_unknown_mode_before_writing(self, tmp_path):
        inp = write_json(tmp_path / "iocs.json", [r"C:\Users\Public\uniq77.bat"])
        truths = write_json(tmp_path / "truths.json", [])
        cfg = base_config(tmp_path, inp, ablation="x")
        report = tmp_path / "report.json"
        with pytest.raises(ConfigError, match="^unknown ablation mode 'x'$"):
            run_ablation(cfg, truths, report)
        assert not Path(cfg.output_path).exists()
        assert not report.exists()


class TestCli:
    def test_bare_generate_takes_every_config_default(self):
        parser = argparse.ArgumentParser()
        cli._add_generate_flags(parser)
        args = parser.parse_args(["--input", "x", "--output", "y"])
        assert cli._config_from(args) == PipelineConfig(input_path="x", output_path="y")

    def test_every_generate_flag_sets_its_config_field(self):
        parser = argparse.ArgumentParser()
        cli._add_generate_flags(parser)
        args = parser.parse_args([
            "--input", "x", "--output", "y", "--kb", "k1", "--kb", "k2",
            "--expansions", "e", "--registry-roots", "r", "--backend", "remote",
            "--replay", "p", "--endpoint", "u", "--model", "m", "--temperature", "0.5",
            "--api-key-env", "E", "-k", "2", "--max-iterations", "3",
            "--restart-cap", "4", "--seed", "6", "--workers", "7",
            "--dump-annotations", "a",
        ])
        assert cli._config_from(args) == PipelineConfig(
            input_path="x", output_path="y", kb_paths=["k1", "k2"],
            expansions_path="e", registry_roots_path="r", backend="remote",
            replay_path="p", endpoint="u", model="m", temperature=0.5,
            api_key_env="E", candidates=2, max_iterations=3, restart_cap=4,
            seed=6, workers=7, annotations_path="a",
        )

    def test_generate_evaluate_roundtrip(self, tmp_path, fig1_input, capsys):
        products = tmp_path / "products.json"
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"c:\users\public\99.bat",
                    "kind": "file_path",
                    "capture_groups": ["users", "public"],
                    "dataset_id": "cli",
                }
            ],
        )
        rc = main(["generate", "--input", fig1_input, "--output", str(products)])
        assert rc == 0
        rc = main(
            [
                "evaluate",
                "--products", str(products),
                "--truths", str(truths),
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 0

    def test_exit_code_2_on_product_outside_dialect(self, tmp_path, caplog):
        products = write_json(
            tmp_path / "products.json", {"records": [product_record(pattern="(a+)+$")]}
        )
        truths = write_json(tmp_path / "t.json", [])
        rc = main(
            [
                "evaluate",
                "--products", products,
                "--truths", truths,
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 2
        assert "'hand-edited'" in caplog.text
        assert "nested repetition" in caplog.text
        report = json.loads((tmp_path / "report.json").read_text())
        (entry,) = report["invalid"]
        assert entry["ioc_id"] == "hand-edited"
        assert "nested repetition" in entry["reason"]

    def test_unexpected_failure_traceback_at_debug_level(
        self, tmp_path, fig1_input, caplog, monkeypatch
    ):
        def boom(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_generate", boom)
        rc = main(["--verbose", "generate", "--input", fig1_input,
                   "--output", str(tmp_path / "p.json")])
        assert rc == 1
        error, debug = caplog.records
        assert (error.levelno, error.getMessage()) == (logging.ERROR, "unexpected failure: boom")
        assert error.exc_info is None  # the default output stays one line
        assert debug.levelno == logging.DEBUG
        assert debug.exc_info[0] is RuntimeError
        assert "Traceback (most recent call last)" in caplog.text
        assert 'raise RuntimeError("boom")' in caplog.text

    @pytest.mark.parametrize(
        "flags, levels",
        [(["--verbose"], [logging.ERROR, logging.DEBUG]), ([], [logging.ERROR])],
        ids=["verbose", "default"],
    )
    def test_verbose_sets_the_level_when_logging_is_already_set_up(
        self, tmp_path, fig1_input, caplog, monkeypatch, flags, levels
    ):
        # caplog's handler on the root logger makes basicConfig a no-op
        def boom(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_generate", boom)
        rc = main([*flags, "generate", "--input", fig1_input,
                   "--output", str(tmp_path / "p.json")])
        assert rc == 1
        assert [record.levelno for record in caplog.records] == levels

    def test_exit_code_1_on_product_record_without_pattern(self, tmp_path, caplog):
        record = product_record()
        del record["pattern"]
        products = write_json(tmp_path / "products.json", {"records": [record]})
        truths = write_json(tmp_path / "t.json", [])
        rc = main(
            [
                "evaluate",
                "--products", products,
                "--truths", truths,
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 1
        assert "record 0: missing 'pattern'" in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_exit_code_1_on_bad_truth_file(self, tmp_path, caplog):
        products = write_json(tmp_path / "products.json", {"records": [product_record()]})
        truths = write_json(
            tmp_path / "t.json",
            [{"text": r"c:\windows\a.exe", "kind": "file_path",
              "capture_groups": ["system32"]}],
        )
        rc = main(
            [
                "evaluate",
                "--products", products,
                "--truths", truths,
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 1
        assert "t.json[0]: capture group 'system32' does not appear" in caplog.text
        assert "unexpected failure" not in caplog.text

    @pytest.mark.parametrize(
        "content, line",
        [(b"not json\n", 1), (b"\xff\xfe[]", 1), (b'[\n"a",\n"\xff"]', 3),
         (b'{\n\n  "a": [,]}', 3)],
        ids=["not-json", "not-utf8", "not-utf8-on-line-3", "not-json-on-line-3"],
    )
    @pytest.mark.parametrize(
        "command, broken",
        [
            ("generate", "iocs.json"),
            ("evaluate", "products.json"),
            ("evaluate", "truths.json"),
            ("ablate", "iocs.json"),
            ("ablate", "truths.json"),
            ("kb-validate", "kb.json"),
        ],
    )
    def test_exit_code_1_names_a_file_that_is_not_json(
        self, tmp_path, caplog, command, broken, content, line
    ):
        files = {
            "iocs.json": write_json(tmp_path / "iocs.json", [r"C:\Users\Public\z.bat"]),
            "products.json": write_json(
                tmp_path / "products.json", {"records": [product_record()]}
            ),
            "truths.json": write_json(tmp_path / "truths.json", []),
            "kb.json": str(tmp_path / "kb.json"),
        }
        (tmp_path / broken).write_bytes(content)
        out = str(tmp_path / "out.json")
        args = {
            "generate": ["--input", files["iocs.json"], "--output", out],
            "evaluate": ["--products", files["products.json"],
                         "--truths", files["truths.json"], "--output", out],
            "ablate": ["--mode", "C-R", "--input", files["iocs.json"], "--output", out,
                       "--truths", files["truths.json"],
                       "--report", str(tmp_path / "r.json")],
            "kb-validate": [files["kb.json"]],
        }[command]
        rc = main([command, *args])
        assert rc == 1
        assert [m for m in caplog.messages if m.startswith(f"{files[broken]}:{line}: ")]
        assert "unexpected failure" not in caplog.text

    @pytest.mark.parametrize(
        "score, written",
        [
            (float("nan"), "NaN"),
            (float("inf"), "Infinity"),
            (float("-inf"), "-Infinity"),
            (10**400, "1" + "0" * 400),
        ],
        ids=["nan", "infinity", "minus-infinity", "beyond-float"],
    )
    def test_exit_code_1_on_non_finite_score(self, tmp_path, caplog, score, written):
        record = product_record(score=score)
        products = write_json(tmp_path / "products.json", {"records": [record]})
        assert f'"score": {written}' in Path(products).read_text()
        truths = write_json(tmp_path / "t.json", [])
        rc = main(
            [
                "evaluate",
                "--products", products,
                "--truths", truths,
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 1
        assert "record 0: 'score' must be a number in the float range" in caplog.text
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "replay, message",
        [
            ({"per_record": True}, "missing 'emissions'"),
            ("(?i).*", "not an object"),
            ({"emissions": [5]}, "'emissions' must be a list of strings"),
            # a misspelt key that must be present reads as unknown, not missing
            ({"emission": ["x"]}, "unknown key 'emission'"),
            ({"emissions": []}, "'emissions' must not be empty without a fallback"),
        ],
        ids=["no-emissions", "string", "non-string-emission", "misspelt-emissions-key",
             "empty-emissions"],
    )
    def test_exit_code_1_on_malformed_replay(
        self, tmp_path, fig1_input, caplog, replay, message
    ):
        path = write_json(tmp_path / "replay.json", replay)
        rc = main(
            [
                "generate",
                "--input", fig1_input,
                "--output", str(tmp_path / "o.json"),
                "--backend", "scripted",
                "--replay", path,
            ]
        )
        assert rc == 1
        assert f"{path}: {message}" in caplog.messages
        assert "unexpected failure" not in caplog.text
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"per_record": "false"}, "'per_record' must be true or false"),
            ({"per_record": 1}, "'per_record' must be true or false"),
            ({"fallback": "templat"}, "'fallback' must be null or \"template\""),
            ({"fallback": True}, "'fallback' must be null or \"template\""),
            ({"per-record": True}, "unknown key 'per-record'"),
            ({"fallbak": "template"}, "unknown key 'fallbak'"),
        ],
        ids=["string-per-record", "number-per-record", "misspelt-fallback",
             "boolean-fallback", "misspelt-per-record-key", "misspelt-fallback-key"],
    )
    def test_exit_code_1_on_bad_replay_option(
        self, tmp_path, fig1_input, caplog, option, message
    ):
        path = write_json(tmp_path / "replay.json", {"emissions": ["x"], **option})
        rc = main(
            [
                "generate",
                "--input", fig1_input,
                "--output", str(tmp_path / "o.json"),
                "--backend", "scripted",
                "--replay", path,
            ]
        )
        assert rc == 1
        assert f"{path}: {message}" in caplog.messages
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "command, entries, fault",
        [
            ("generate",
             [r"C:\Users\Public\x.bat", {"text": r"C:\Windows\y.exe", "source-id": "r-7"}],
             "[1]: unknown key 'source-id'"),
            ("evaluate",
             [{"text": r"c:\windows\a.exe", "kind": "file_path",
               "capture_groups": ["windows"], "dataset-id": "scenario-1"}],
             "[0]: unknown key 'dataset-id'"),
        ],
        ids=["input-source-id", "truth-dataset-id"],
    )
    def test_exit_code_1_on_unknown_key_in_an_input_object(
        self, tmp_path, caplog, command, entries, fault
    ):
        path = write_json(tmp_path / "entries.json", entries)
        products = write_json(tmp_path / "products.json", {"records": [product_record()]})
        out = str(tmp_path / "out.json")
        args = {
            "generate": ["--input", path, "--output", out],
            "evaluate": ["--products", products, "--truths", path, "--output", out],
        }[command]
        assert main([command, *args]) == 1
        assert f"{path}{fault}" in caplog.messages
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "name, content, read, args, message",
        [
            ("kb.json", {"path": ["Users/Public"]},
             lambda path: KnowledgeStore.ingest([path]),
             lambda path, out: ["kb-validate", path],
             "{path}: unknown key 'path'"),
            ("truths.json",
             [{"text": r"c:\windows\a.exe", "kind": "file_path",
               "capture_groups": ["system32"]}],
             lambda path: load_truths(path, pipeline.default_store()),
             lambda path, out: ["evaluate", "--products", write_json(
                 Path(out).with_name("p.json"), {"records": []}),
                 "--truths", path, "--output", out],
             "{path}[0]: capture group 'system32' does not appear in the normalized text"),
            ("replay.json", {"emissions": []},
             ScriptedBackend.from_file,
             lambda path, out: ["generate", "--input", write_json(
                 Path(out).with_name("i.json"), [r"C:\Users\Public\x.bat"]),
                 "--output", out, "--backend", "scripted", "--replay", path],
             "{path}: 'emissions' must not be empty without a fallback"),
            ("table.json", {"%APPDATA%": 5},
             lambda path: Tables.from_json(
                 {"expansions": read_json(path)}, {"expansions": path}.get),
             lambda path, out: ["generate", "--input", write_json(
                 Path(out).with_name("i.json"), [r"C:\Users\Public\x.bat"]),
                 "--output", out, "--expansions", path],
             "{path} must map strings to strings"),
            ("products.json", {"records": [], "summary": {"registry_roots": ["HKLM"]}},
             lambda path: Tables.from_json(
                 read_json(path)["summary"], lambda key: f"{path}: summary {key!r}"),
             lambda path, out: ["evaluate", "--products", path, "--truths", write_json(
                 Path(out).with_name("t.json"), []), "--output", out],
             "{path}: summary 'registry_roots' must map strings to strings"),
        ],
        ids=["knowledge-base", "truth", "replay", "table-file", "summary-table"],
    )
    def test_input_fault_is_a_config_error_where_it_is_found(
        self, tmp_path, caplog, name, content, read, args, message
    ):
        path = write_json(tmp_path / name, content)
        message = message.format(path=path)
        with pytest.raises(ConfigError) as fault:
            read(path)
        assert str(fault.value) == message
        out = str(tmp_path / "out.json")
        assert main(args(path, out)) == 1
        assert caplog.messages == [message]
        assert not Path(out).exists()

    def test_exit_code_1_on_missing_input(self, tmp_path):
        rc = main(
            ["generate", "--input", str(tmp_path / "nope.json"),
             "--output", str(tmp_path / "o.json")]
        )
        assert rc == 1

    def test_exit_code_2_on_partial_failure(self, tmp_path, fig1_input):
        replay = write_json(tmp_path / "replay.json", ["(bad"])
        rc = main(
            [
                "generate",
                "--input", fig1_input,
                "--output", str(tmp_path / "o.json"),
                "--backend", "scripted",
                "--replay", str(replay),
                "--max-iterations", "2",
                "--restart-cap", "1",
                "--candidates", "1",
            ]
        )
        assert rc == 2

    def test_kb_validate(self, capsys):
        kb = Path(__file__).parent.parent / "src/ioc2regex/data/kb/windows_base.json"
        assert main(["kb-validate", str(kb)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["commands"] > 0

    def test_kb_validate_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["kb-validate", str(bad)]) == 1

    def test_ablate_mode_flag_with_equals(self, tmp_path):
        inp = write_json(tmp_path / "iocs.json", [r"C:\Users\Public\z.bat"])
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"C:\Users\Public\z.bat",
                    "kind": "file_path",
                    "capture_groups": ["users", "public"],
                    "dataset_id": "abl",
                }
            ],
        )
        rc = main(
            [
                "ablate",
                "--mode=-CR",
                "--input", str(inp),
                "--output", str(tmp_path / "p.json"),
                "--truths", str(truths),
                "--report", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "r.json").exists()
        assert read_json(tmp_path / "p.json")["summary"]["ablation"] == "-CR"

    def test_ablate_normalizes_truths_with_its_expansion_table(self, tmp_path):
        table = write_json(tmp_path / "expansions.json", {"%APPDIR%": "C:\\Windows"})
        inp = write_json(tmp_path / "iocs.json", [r"%APPDIR%\Temp\other.exe"])
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"%APPDIR%\Temp\other.exe",
                    "kind": "file_path",
                    "capture_groups": ["windows", "temp"],
                    "dataset_id": "abl",
                }
            ],
        )
        rc = main(
            [
                "ablate",
                "--mode=-CR",
                "--input", inp,
                "--output", str(tmp_path / "p.json"),
                "--expansions", table,
                "--truths", truths,
                "--report", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 0
        (report,) = json.loads((tmp_path / "r.json").read_text())["reports"]
        # the -CR pattern holds every component of C:\Windows\Temp\other.exe
        assert report["hit_rate"] == 1.0


    def test_evaluate_normalizes_truths_with_the_tables_generate_used(self, tmp_path):
        table = write_json(tmp_path / "expansions.json", {"%APPDIR%": "C:\\Windows"})
        inp = write_json(tmp_path / "iocs.json", [r"%APPDIR%\Temp\other.exe"])
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"%APPDIR%\Temp\other.exe",
                    "kind": "file_path",
                    "capture_groups": ["windows", "temp"],
                }
            ],
        )
        products = str(tmp_path / "p.json")
        assert main(["generate", "--input", inp, "--output", products,
                     "--expansions", table]) == 0
        summary = json.loads(Path(products).read_text())["summary"]
        assert summary["expansions"] == {"%APPDIR%": "C:\\Windows"}
        assert "registry_roots" not in summary  # the bundled map: not recorded
        rc = main(["evaluate", "--products", products, "--truths", truths,
                   "--output", str(tmp_path / "r.json")])
        assert rc == 0
        (report,) = json.loads((tmp_path / "r.json").read_text())["reports"]
        assert report["hit_rate"] == 1.0

    def test_evaluate_drops_a_registry_head_before_the_root(self, tmp_path):
        run = r"Software\Microsoft\Windows\CurrentVersion\Run"
        inp = write_json(tmp_path / "iocs.json", [rf"HKEY_LOCAL_MACHINE\{run}\evil"])
        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": rf"Registry\HKEY_LOCAL_MACHINE\{run}\other",
                    "kind": "registry_key",
                    "capture_groups": ["hklm", "software", "run"],
                }
            ],
        )
        products = str(tmp_path / "p.json")
        assert main(["generate", "--input", inp, "--output", products]) == 0
        rc = main(["evaluate", "--products", products, "--truths", truths,
                   "--output", str(tmp_path / "r.json")])
        assert rc == 0
        (report,) = json.loads((tmp_path / "r.json").read_text())["reports"]
        assert report["hit_rate"] == 1.0

    def test_ablate_single_shot_of_an_empty_reply_fails_one_indicator(
        self, tmp_path, caplog
    ):
        inp = write_json(tmp_path / "iocs.json", [r"C:\Users\Public\z.bat"])
        replay = write_json(tmp_path / "replay.json", [""])
        truths = write_json(
            tmp_path / "truths.json",
            [{"text": r"C:\Users\Public\z.bat", "kind": "file_path",
              "capture_groups": ["users", "public"]}],
        )
        products = tmp_path / "p.json"
        rc = main(
            [
                "ablate",
                "--mode", "C-R",
                "--backend", "scripted",
                "--replay", replay,
                "--input", inp,
                "--output", str(products),
                "--truths", truths,
                "--report", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 0
        assert "unexpected failure" not in caplog.text
        product = json.loads(products.read_text())
        assert product["records"] == []
        assert [r["reason"] for r in product["rejections"]] == ["generation failed"]
        (report,) = json.loads((tmp_path / "r.json").read_text())["reports"]
        assert report["hit_rate"] == 0.0

    @pytest.mark.parametrize(
        "option, table",
        [
            ("--expansions", ["a"]),
            ("--expansions", {"%APPDATA%": 5}),
            ("--registry-roots", {"hkey_local_machine": 7}),
            ("--expansions", "{broken"),
        ],
        ids=["list", "number-expansion", "number-root", "malformed-json"],
    )
    def test_exit_code_1_on_malformed_table(self, tmp_path, caplog, option, table):
        inp = write_json(
            tmp_path / "iocs.json",
            [r"%APPDATA%\Temp\x.exe", r"HKEY_LOCAL_MACHINE\Software\Run\x"],
        )
        path = tmp_path / "table.json"
        if isinstance(table, str):
            path.write_text(table, encoding="utf-8")
        else:
            write_json(path, table)
        rc = main(["generate", "--input", inp, "--output", str(tmp_path / "o.json"),
                   option, str(path)])
        assert rc == 1
        assert f"{path}" in caplog.text
        assert "unexpected failure" not in caplog.text
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "key, table, unfolded, kind, ioc, truth, groups",
        [
            ("registry_roots", {"HKEY_CURRENT_USER": "HKCU"},
             {"HKEY_CURRENT_USER": "HKCU"}, "registry_key",
             r"HKEY_CURRENT_USER\Software\Microsoft\Windows\CurrentVersion\Run\x",
             r"HKEY_CURRENT_USER\Software\Microsoft\Windows\CurrentVersion\Run\y",
             ["software", "microsoft", "windows", "currentversion", "run"]),
            ("expansions", {"%USERPROFILE%": "C:\\Users\\Public"},
             {"%userprofile%": "C:\\Users\\Public"}, "file_path",
             r"%USERPROFILE%\Tools\x.bat", r"%USERPROFILE%\Tools\y.bat",
             ["users", "public", "tools"]),
        ],
        ids=["registry-roots", "expansions"],
    )
    def test_recorded_table_keys_are_folded(
        self, tmp_path, key, table, unfolded, kind, ioc, truth, groups
    ):
        option = "--" + key.replace("_", "-")
        inp = write_json(tmp_path / "iocs.json", [ioc])
        table_path = write_json(tmp_path / "table.json", table)
        truths = write_json(
            tmp_path / "truths.json",
            [{"text": truth, "kind": kind, "capture_groups": groups}],
        )
        products = tmp_path / "p.json"
        assert main(["generate", "--input", inp, "--output", str(products),
                     option, table_path]) == 0
        product = json.loads(products.read_text())
        assert product["summary"][key] != unfolded  # written with folded keys
        product["summary"][key] = unfolded
        unfolded_products = write_json(tmp_path / "p-unfolded.json", product)
        reports = []
        for path in (str(products), unfolded_products):
            report = tmp_path / "report.json"
            assert main(["evaluate", "--products", path, "--truths", truths,
                         "--output", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["reports"][0]["hit_rate"] == 1.0

    @pytest.mark.parametrize(
        "summary, problem",
        [
            ({"expansions": ["x"]}, "summary 'expansions' must map strings"),
            ({"expansions": {"%A%": 1}}, "summary 'expansions' must map strings"),
            ({"expansions": "C:"}, "summary 'expansions' must map strings"),
            # not read as no summary, which would evaluate with the bundled tables
            (["registry_roots"], "'summary' must be an object"),
        ],
        ids=["list-table", "number-value", "string-table", "list-summary"],
    )
    def test_malformed_summary_is_config_error(self, tmp_path, summary, problem):
        product = {"records": [], "summary": summary}
        products = write_json(tmp_path / "p.json", product)
        truths = write_json(tmp_path / "t.json", [])
        with pytest.raises(ConfigError, match=rf"^{re.escape(products)}: {problem}"):
            run_evaluate(products, truths, tmp_path / "r.json")


class TestGoldenFiles:
    """Byte-frozen product/report pair for the Fig. 1 indicators."""

    def test_product_and_report_bytes(self, tmp_path, fig1_input):
        cfg = base_config(tmp_path, fig1_input)
        run_generate(cfg)
        got_product = Path(cfg.output_path).read_text(encoding="utf-8")
        assert got_product == (DATA / "golden_products.json").read_text(encoding="utf-8")

        truths = write_json(
            tmp_path / "truths.json",
            [
                {
                    "text": r"c:\users\public\changed.bat",
                    "kind": "file_path",
                    "capture_groups": ["users", "public"],
                    "dataset_id": "golden",
                },
                {
                    "text": 'schtasks /create /s hostX /u "u" /p "p" /ru "SYSTEM" '
                            '/tn job9 /sc DAILY /tr "c:\\tasks\\other.bat" /F',
                    "kind": "command_line",
                    "capture_groups": [
                        "schtasks", "/create", "/s", "/u", "/p", "/ru", "/tn",
                        "/sc", "/tr", "/f",
                    ],
                    "dataset_id": "golden",
                },
            ],
        )
        run_evaluate(cfg.output_path, truths, tmp_path / "report.json")
        got_report = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert got_report == (DATA / "golden_report.json").read_text(encoding="utf-8")


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf])
    | st.text(max_size=8)
    | st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001f600a', max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


class TestJsonText:
    """Every output file is written by ``pipeline.json_text``."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(JSON_VALUES)
    @example({"b": [], "a": {}, "": [(), {"x": (1.5, None)}]})
    @example(True)
    @example({"kind": IocKind.FILE_PATH, "kinds": [IocKind.COMMAND_LINE]})
    def test_bytes_of_json_dumps(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert pipeline.json_text(value) == expected

    @pytest.mark.parametrize(
        "value", [{1}, {"a": [frozenset()]}, {1: "a"}, {"a": {None: 0}}, {True: 1}, object()]
    )
    def test_value_outside_json_raises_type_error(self, value):
        with pytest.raises(TypeError):
            pipeline.json_text(value)


def reference_reports(records, truths):
    """Per-dataset reports and the match dump by plain nested loops."""
    reports, matches = [], []
    for ds in sorted({t.dataset_id for t in truths}):
        subset = [t for t in truths if t.dataset_id == ds]
        hit, per_regex, values, matching = set(), [], [], []
        for rec in records:
            groups = frozenset(g.casefold() for g in rec["capture_groups"])
            matched = reference_matches(rec["pattern"], subset)
            false_pos = [i for i in matched if subset[i].capture_groups != groups]
            hit.update(matched)
            value = len(false_pos) / len(matched) if matched else None
            per_regex.append([rec["ioc_id"], value])
            if matched:
                values.append(value)
                matching.append(rec)
            matches.append({
                "ioc_id": rec["ioc_id"],
                "matched": [subset[i].text for i in matched],
                "false_positives": [subset[i].text for i in false_pos],
            })
        unmatched = {"command_line": 0, "file_path": 0, "registry_key": 0}
        for i, t in enumerate(subset):
            if i not in hit:
                unmatched[t.kind.value] += 1
        sims = [
            1.0 - reference_levenshtein(r["pattern"], r["normalized"])
            / max(len(r["pattern"]), len(r["normalized"]))
            for r in matching
        ]
        reports.append({
            "dataset_id": ds,
            "total": len(subset),
            "matched": len(hit),
            "hit_rate": len(hit) / len(subset),
            "unmatched_by_kind": unmatched,
            "per_regex_fpr": per_regex,
            "mean_fpr": sum(values) / len(values) if values else None,
            "score_stats": (
                score_distribution([r["score"] for r in matching]) if matching else None
            ),
            "similarity_stats": score_distribution(sims) if sims else None,
        })
    return reports, matches
