import random
import string

import pytest

from ioc2regex.capture import (
    DISCARD,
    KEEP,
    annotate,
    find_command_groups,
    find_path_groups,
)
from ioc2regex.knowledge import COMMAND_FOREST, PATH_FOREST
from ioc2regex.normalize import IocKind, IocRecord

from conftest import tiny_store
from oracles import brute_force_longest_run, interpret_command_algorithm


def path_record(components, kind=IocKind.FILE_PATH):
    return IocRecord(
        raw="\\".join(components),
        kind=kind,
        normalized="\\".join(components),
        components=list(components),
    )


def cmd_record(components):
    return IocRecord(
        raw=" ".join(components),
        kind=IocKind.COMMAND_LINE,
        normalized=" ".join(components),
        components=list(components),
    )


class TestPathGroups:
    def test_worked_example(self, store, path_annotation):
        assert path_annotation.capture_sequences == [["Users", "Public"]]
        assert path_annotation.labels == [DISCARD, KEEP, KEEP, DISCARD]

    def test_all_components_unknown(self, store):
        ann = find_path_groups(path_record(["nope", "zilch", "nada"]), store)
        assert ann.capture_sequences == []
        assert ann.labels == [DISCARD] * 3

    def test_longest_of_two_chains(self):
        store = tiny_store(paths=["A/B/C", "D/E"])
        ann = find_path_groups(path_record(["A", "B", "C", "X", "D", "E"]), store)
        assert ann.capture_sequences == [["A", "B", "C"]]

    def test_first_run_wins_ties(self):
        store = tiny_store(paths=["A/B", "D/E"])
        ann = find_path_groups(path_record(["A", "B", "D", "E"]), store)
        assert ann.capture_sequences == [["A", "B"]]

    def test_one_adjacency_query_per_neighbouring_pair(self, monkeypatch):
        store = tiny_store(paths=["A/B/C", "D/E/F"])
        pairs = []
        adjacent = store.adjacent

        def counting(forest, parent, child):
            pairs.append((parent, child))
            return adjacent(forest, parent, child)

        monkeypatch.setattr(store, "adjacent", counting)
        ann = find_path_groups(path_record(["A", "B", "C", "D", "E", "F"]), store)
        assert ann.capture_sequences == [["A", "B", "C"]]
        assert pairs == [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "F")]

    def test_gap_bridged_when_graph_links_neighbours(self):
        # "mid" is unknown to the store, but A->B holds in the graph, so the
        # compacted scan joins them across the gap.
        store = tiny_store(paths=["A/B"])
        ann = find_path_groups(path_record(["A", "mid", "B"]), store)
        assert ann.capture_sequences == [["A", "B"]]
        assert ann.labels == [KEEP, DISCARD, KEEP]

    def test_registry_uses_registry_forest(self, store):
        rec = path_record(
            ["HKCU", "Software", "Microsoft", "Windows", "CurrentVersion", "Run", "EvilName"],
            kind=IocKind.REGISTRY_KEY,
        )
        ann = find_path_groups(rec, store)
        assert ann.capture_sequences == [
            ["HKCU", "Software", "Microsoft", "Windows", "CurrentVersion", "Run"]
        ]

    def test_wrong_kind_rejected(self, store, schtasks_record):
        with pytest.raises(ValueError):
            find_path_groups(schtasks_record, store)

    def test_monotone_in_store_growth(self):
        base = tiny_store(paths=["a/b"])
        bigger = tiny_store(paths=["a/b", "b/c", "q/r"])
        rec = path_record(["a", "b", "c", "q", "r"])
        short = find_path_groups(rec, base).capture_sequences
        longer = find_path_groups(rec, bigger).capture_sequences
        assert len(longer[0]) >= len(short[0])


class TestCommandGroups:
    def test_fig1_worked_example(self, schtasks_annotation):
        assert schtasks_annotation.capture_sequences == [
            ["schtasks", "/create", "/s", "/u", "/p", "/ru", "/tn", "/sc", "/tr", "/F"]
        ]
        assert schtasks_annotation.discard_components == [
            "<remote_host>",
            "<username>",
            "<password>",
            "SYSTEM",
            "one",
            "DAILY",
            r"c:\users\public\11.bat",
        ]

    def test_no_command_means_all_discard(self, store):
        ann = find_command_groups(cmd_record(["noidea", "/create", "target"]), store)
        assert ann.capture_sequences == []
        assert set(ann.labels) == {DISCARD}

    def test_two_commands_open_two_sequences(self):
        store = tiny_store(commands=[("cmd", ["/c"]), ("curl", ["--get"])])
        ann = find_command_groups(cmd_record(["cmd", "/c", "curl", "--get"]), store)
        assert ann.capture_sequences == [["cmd", "/c"], ["curl", "--get"]]

    def test_parameter_before_any_command_is_discard(self):
        store = tiny_store(commands=[("cmd", ["/c"])])
        ann = find_command_groups(cmd_record(["/c", "cmd", "/c"]), store)
        assert ann.capture_sequences == [["cmd", "/c"]]
        assert ann.labels == [DISCARD, KEEP, KEEP]

    def test_parameter_of_other_command_not_joined(self):
        store = tiny_store(commands=[("cmd", ["/c"]), ("curl", ["--get"])])
        ann = find_command_groups(cmd_record(["cmd", "--get", "/c"]), store)
        assert ann.capture_sequences == [["cmd", "/c"]]

    def test_quoted_values_absent_from_store_are_discard(self, schtasks_annotation):
        assert "SYSTEM" in schtasks_annotation.discard_components


def random_path_instance(rng):
    universe = list(string.ascii_uppercase[:12])
    names = rng.sample(universe, rng.randint(0, 12))
    edges = set()
    for _ in range(rng.randint(0, 18)):
        if names:
            edges.add((rng.choice(names), rng.choice(names)))
    chains = [f"{p}/{c}" for p, c in edges] + [n for n in names]
    store = tiny_store(paths=chains)
    pool = names + ["x1", "x2", "junk", "mal.exe"]
    components = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
    folded_names = {n.casefold() for n in names}
    folded_edges = {(p.casefold(), c.casefold()) for p, c in edges}
    return store, components, folded_names, folded_edges


def test_path_oracle_equivalence_sample():
    rng = random.Random(20240811)
    for _ in range(200):
        store, components, names, edges = random_path_instance(rng)
        ann = find_path_groups(path_record(components), store)
        got = len(ann.capture_sequences[0]) if ann.capture_sequences else 0
        want = brute_force_longest_run(components, names, edges)
        assert got == want, (components, sorted(edges))


def random_command_instance(rng):
    cmds = {f"cmd{i}" for i in range(rng.randint(0, 3))}
    params = {f"-p{i}" for i in range(rng.randint(0, 4))}
    mapping = {c: {p for p in params if rng.random() < 0.5} for c in cmds}
    store = tiny_store(commands=[(c, sorted(ps)) for c, ps in mapping.items()])
    pool = list(cmds) + list(params) + ["<host>", "junk", "55"]
    components = [rng.choice(pool) for _ in range(rng.randint(0, 10))] if pool else []
    return store, components, mapping, params


def test_command_oracle_equivalence_sample():
    rng = random.Random(987)
    for _ in range(200):
        store, components, mapping, params = random_command_instance(rng)
        ann = find_command_groups(cmd_record(components), store)
        want = interpret_command_algorithm(components, mapping, params)
        assert ann.capture_sequences == want, (components, mapping)


def test_keep_label_soundness(store, schtasks_annotation, path_annotation):
    for ann, known in (
        (path_annotation, lambda comp: store.contains(PATH_FOREST, comp)),
        (schtasks_annotation, lambda comp: store.label_of(comp) is not None),
    ):
        for comp, label in zip(ann.record.components, ann.labels):
            if label == KEEP:
                assert known(comp)
    # parameters in a command sequence are adjacent to their opening command
    for seq in schtasks_annotation.capture_sequences:
        head = seq[0]
        for param in seq[1:]:
            assert store.adjacent(COMMAND_FOREST, head, param)


def test_annotate_dispatch(store, path_record_fixture=None):
    rec = path_record(["Users", "Public", "x"])
    assert annotate(rec, store).capture_sequences == [["Users", "Public"]]
    rec_other = IocRecord(raw="zz", kind=IocKind.OTHER, normalized="zz")
    with pytest.raises(ValueError):
        annotate(rec_other, store)
