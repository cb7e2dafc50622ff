import json

import pytest

from ioc2regex.knowledge import (
    COMMAND_FOREST,
    PATH_FOREST,
    REGISTRY_FOREST,
    KnowledgeBaseError,
    KnowledgeStore,
    NodeLabel,
)

from conftest import tiny_store


def test_ingest_path_hierarchy():
    store = tiny_store(paths=["Users/Public"])
    assert store.contains(PATH_FOREST, "users")
    assert store.contains(PATH_FOREST, "public")
    assert store.adjacent(PATH_FOREST, "Users", "public")
    assert store.label_of("users") is None  # paths are not commands


def test_empty_definition_list_gives_empty_store():
    store = KnowledgeStore.ingest([])
    for forest in (PATH_FOREST, REGISTRY_FOREST, COMMAND_FOREST):
        assert not store.contains(forest, "users")
        assert not store.adjacent(forest, "a", "b")
    assert store.label_of("schtasks") is None


def test_ingest_command_with_parameters():
    store = tiny_store(commands=[("curl", ["--get", "--request", "--data"])])
    assert store.label_of("curl") is NodeLabel.COMMAND
    for param in ("--data", "--get", "--request"):
        assert store.adjacent(COMMAND_FOREST, "curl", param)
        assert store.label_of(param) is NodeLabel.PARAMETER
    assert not store.adjacent(COMMAND_FOREST, "curl", "--post")


def test_contains_examples(store):
    assert store.contains(PATH_FOREST, "users") is True
    assert store.contains(PATH_FOREST, "11.bat") is False


def test_adjacent_examples(store):
    assert store.adjacent(PATH_FOREST, "users", "public") is True
    assert store.adjacent(PATH_FOREST, "public", "users") is False
    assert store.adjacent(COMMAND_FOREST, "schtasks", "/create") is True


def test_label_of_examples(store):
    assert store.label_of("schtasks") is NodeLabel.COMMAND
    assert store.label_of("/create") is NodeLabel.PARAMETER
    assert store.label_of("<remote_host>") is None


def test_case_insensitive_queries(store):
    assert store.contains(PATH_FOREST, "USERS")
    assert store.adjacent(PATH_FOREST, "Users", "PUBLIC")
    assert store.contains(COMMAND_FOREST, "/F")
    assert store.label_of("SCHTASKS") is NodeLabel.COMMAND


def test_command_names_stored_extensionless():
    store = tiny_store(commands=[("cmd.exe", ["/c"])])
    assert store.contains(COMMAND_FOREST, "cmd")
    assert store.adjacent(COMMAND_FOREST, "cmd", "/c")


def test_duplicate_declarations_merge():
    store = tiny_store(paths=["a/b", "a/b", "A/B", "a/c"])
    assert store.adjacent(PATH_FOREST, "a", "b")
    assert store.adjacent(PATH_FOREST, "a", "c")
    assert not store.adjacent(PATH_FOREST, "b", "c")
    assert store.path_children("a") == {"b", "c"}
    assert store.stats()["path_nodes"] == 3


def test_ingestion_order_independent(tmp_path):
    part_a = {"version": "a", "paths": ["x/y"], "commands": [{"name": "t1", "parameters": ["-a"]}]}
    part_b = {"version": "b", "paths": ["y/z"], "registry": ["HKCU/Run"]}
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(part_a))
    fb.write_text(json.dumps(part_b))
    one = KnowledgeStore.ingest([fa, fb])
    two = KnowledgeStore.ingest([fb, fa])
    assert one.path_children("y") == two.path_children("y") == {"z"}
    assert one.stats() == two.stats()
    assert one.stats()["sources"] == 2
    assert one.adjacent(PATH_FOREST, "x", "y") and two.adjacent(PATH_FOREST, "x", "y")
    assert one.adjacent(PATH_FOREST, "y", "z") and two.adjacent(PATH_FOREST, "y", "z")


def test_adjacent_implies_contains():
    store = tiny_store(paths=["a/b/c", "q"], registry=["HKCU/Software"])
    for forest, pairs in (
        (PATH_FOREST, [("a", "b"), ("b", "c")]),
        (REGISTRY_FOREST, [("hkcu", "software")]),
    ):
        for parent, child in pairs:
            assert store.adjacent(forest, parent, child)
            assert store.contains(forest, parent)
            assert store.contains(forest, child)


def test_malformed_json_names_file_and_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "paths": [,]\n}\n')
    with pytest.raises(KnowledgeBaseError) as err:
        KnowledgeStore.ingest([bad])
    assert "bad.json" in str(err.value)
    assert ":2" in str(err.value)


def test_command_without_name_is_schema_error(tmp_path):
    bad = tmp_path / "cmd.json"
    bad.write_text(json.dumps({"commands": [{"parameters": ["-x"]}]}))
    with pytest.raises(KnowledgeBaseError, match=r"cmd\.json: commands\[0\]: missing 'name'"):
        KnowledgeStore.ingest([bad])


def test_unknown_top_level_key_is_error(tmp_path):
    bad = tmp_path / "kb.json"
    bad.write_text(json.dumps(
        {"path": ["Users/Public"], "command": [{"name": "cmd", "params": ["/c"]}]}
    ))
    with pytest.raises(KnowledgeBaseError, match=r"kb\.json: unknown key 'path'"):
        KnowledgeStore.ingest([bad])


def test_unknown_command_key_is_error(tmp_path):
    bad = tmp_path / "kb.json"
    bad.write_text(json.dumps({"commands": [{"name": "cmd", "params": ["/c"]}]}))
    with pytest.raises(
        KnowledgeBaseError, match=r"kb\.json: commands\[0\]: unknown key 'params'"
    ):
        KnowledgeStore.ingest([bad])


def test_empty_hierarchy_entry_is_error(tmp_path):
    bad = tmp_path / "p.json"
    bad.write_text(json.dumps({"paths": ["//"]}))
    with pytest.raises(KnowledgeBaseError, match="no components"):
        KnowledgeStore.ingest([bad])


def test_parameter_parent_is_always_command(store):
    for name in ("/create", "--get", "/c"):
        assert store.label_of(name) is NodeLabel.PARAMETER
    # parameters are only reachable through their commands
    assert store.adjacent(COMMAND_FOREST, "curl", "--get")
    assert not store.adjacent(COMMAND_FOREST, "--get", "curl")
