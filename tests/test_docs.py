"""The prose links to real sections of ``docs/formats.md``, and each JSON
example there loads through the code it documents."""

import json
import re
from pathlib import Path

from ioc2regex import evaluation, pipeline
from ioc2regex.capture import GroupAnnotation
from ioc2regex.generation import ScriptedBackend
from ioc2regex.knowledge import KnowledgeStore
from ioc2regex.normalize import IocKind, IocRecord, Tables

ROOT = Path(__file__).parent.parent
FORMATS = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
DATA = Path(__file__).parent / "data"

_FENCE = re.compile(r"^```.*?^```$", re.M | re.S)
_HEADING = re.compile(r"^#{1,6} (.+?)\s*$", re.M)
_JSON_BLOCK = re.compile(r"^```json\n(.*?)^```$", re.M | re.S)


def slug(heading: str) -> str:
    """GitHub's anchor for a heading: lowercased, every character but a
    letter, digit, space, '-' or '_' dropped, and each space made a '-'."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


def anchors(markdown: str) -> set[str]:
    """The anchors of a file's headings; GitHub numbers a repeated one."""
    seen: dict[str, int] = {}
    out = set()
    for heading in _HEADING.findall(_FENCE.sub("", markdown)):
        base = slug(heading)
        n = seen.get(base, 0)
        seen[base] = n + 1
        out.add(f"{base}-{n}" if n else base)
    return out


def examples() -> dict[str, list[str]]:
    """The JSON examples of docs/formats.md, by the anchor of their section."""
    out: dict[str, list[str]] = {}
    for section in re.split(r"^(?=## )", FORMATS, flags=re.M):
        heading = _HEADING.match(section)
        if heading:
            out[slug(heading[1])] = _JSON_BLOCK.findall(section)
    return out


def test_slug_follows_the_github_rule():
    assert slug("IOC input list (`generate --input`)") == "ioc-input-list-generate---input"
    assert slug("Best of k and reuse") == "best-of-k-and-reuse"
    assert anchors("# A\n## A\n```\n# not a heading\n```\n") == {"a", "a-1"}


def test_every_formats_link_names_a_heading():
    known = anchors(FORMATS)
    sources = [ROOT / "README.md", *sorted((ROOT / "src" / "ioc2regex").glob("*.py"))]
    links = [
        (path.name, anchor)
        for path in sources
        for anchor in re.findall(r"formats\.md#([\w-]+)", path.read_text(encoding="utf-8"))
    ]
    links += [("formats.md", a) for a in re.findall(r"\]\(#([\w-]+)\)", FORMATS)]
    assert len({name for name, _ in links}) >= 5  # README, formats.md and modules
    assert [link for link in links if link[1] not in known] == []


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```$", readme, re.M | re.S)[1]
    named = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    modules = {path.name for path in (ROOT / "src" / "ioc2regex").glob("*.py")}
    assert named == modules - {"__init__.py"}


def test_knowledge_base_example_loads():
    (block,) = examples()["knowledge-base-definition-file"]
    stats = KnowledgeStore.from_dict(json.loads(block)).stats()
    assert stats["path_nodes"] and stats["registry_nodes"] and stats["parameters"]
    assert stats["sources"] == 1


def test_table_examples_load():
    (block,) = examples()["expansion-table-and-registry-root-map"]
    lines = block.splitlines()
    assert len(lines) == 2
    for key, line in zip(("expansions", "registry_roots"), lines):
        table = json.loads(line)
        loaded = getattr(Tables.from_json({key: table}, str), key)
        assert list(loaded.values()) == list(table.values())


def test_input_list_example_loads(tmp_path):
    (block,) = examples()["ioc-input-list"]
    path = tmp_path / "iocs.json"
    path.write_text(block, encoding="utf-8")
    assert pipeline.load_iocs(path) == [
        ("ioc-0000", "C:\\Users\\Public\\11.bat"),
        ("report-7/line-42", "cmd /c whoami"),
    ]


def test_replay_example_loads(tmp_path):
    (block,) = examples()["scripted-replay-file"]
    path = tmp_path / "replay.json"
    path.write_text(block, encoding="utf-8")
    backend = ScriptedBackend.from_file(path)
    assert backend.per_record and backend.fallback is not None
    assert backend.emissions == json.loads(block)["emissions"]


def test_truth_example_loads(store):
    (block,) = examples()["ground-truth-file"]
    for i, entry in enumerate(json.loads(block)):
        truth = evaluation.make_truth(entry, store, where=f"example[{i}]")
        assert truth.kind is IocKind.FILE_PATH


def test_product_and_annotation_examples_are_what_generate_writes(tmp_path):
    (product,) = map(json.loads, examples()["product-file"])
    golden = json.loads((DATA / "golden_products.json").read_text(encoding="utf-8"))
    assert product.keys() == golden.keys()
    assert product["records"][0].keys() == golden["records"][0].keys()
    assert product["summary"].keys() == golden["summary"].keys()

    (annotation,) = map(json.loads, examples()["annotation-dump"])
    dump_keys = GroupAnnotation(IocRecord("x", IocKind.OTHER, "x")).to_dict().keys()
    assert annotation[0].keys() == {*dump_keys, "rejection_reason"}

    raws = [entry["raw"] for entry in product["records"] + product["rejections"]]
    inputs = tmp_path / "iocs.json"
    inputs.write_text(json.dumps(raws), encoding="utf-8")
    config = pipeline.PipelineConfig(
        input_path=str(inputs),
        output_path=str(tmp_path / "products.json"),
        annotations_path=str(tmp_path / "annotations.json"),
    )
    pipeline.run_generate(config)
    written = json.loads((tmp_path / "products.json").read_text(encoding="utf-8"))
    assert written == product
    dump = json.loads((tmp_path / "annotations.json").read_text(encoding="utf-8"))
    assert dump[: len(annotation)] == annotation


def test_report_example_has_the_golden_keys():
    (report,) = map(json.loads, examples()["evaluation-report"])
    golden = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))
    assert report.keys() == golden.keys()
    entry, golden_entry = report["reports"][0], golden["reports"][0]
    assert entry.keys() == golden_entry.keys()
    for key in ("score_stats", "similarity_stats"):
        assert entry[key].keys() == golden_entry[key].keys()


def test_every_example_is_checked_above():
    assert {anchor for anchor, blocks in examples().items() if blocks} == {
        "knowledge-base-definition-file", "expansion-table-and-registry-root-map",
        "ioc-input-list", "scripted-replay-file", "ground-truth-file",
        "product-file", "annotation-dump", "evaluation-report",
    }
