"""Find the invariant components of an indicator against the knowledge store.

Two finders: the longest-adjacent-run scan for paths and registry keys, and
the command/parameter sequence scan for command lines.  Components inside a
found sequence are labeled ``keep`` (they must appear literally in the final
regex); everything else is ``discard`` (mutable, must be generalized over).
Records with no keep components at all are treated as extraction false
positives: the pipeline rejects them before generation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .knowledge import (
    COMMAND_FOREST,
    PATH_FOREST,
    REGISTRY_FOREST,
    KnowledgeStore,
    NodeLabel,
)
from .normalize import IocKind, IocRecord

KEEP = "keep"
DISCARD = "discard"


def _first_of_each_fold(components, taken=()) -> list[str]:
    """In order, the first component of each case fold not in ``taken``."""
    firsts: dict[str, str] = {}
    for comp in components:
        firsts.setdefault(comp.casefold(), comp)
    return [comp for fold, comp in firsts.items() if fold not in taken]


@dataclass
class GroupAnnotation:
    """Per-component keep/discard labels plus the extracted capture sequences.

    Nothing changes an annotation once it is made, so its keep and discard
    components are worked out once, on first use."""

    record: IocRecord
    labels: list[str] = field(default_factory=list)
    capture_sequences: list[list[str]] = field(default_factory=list)

    @functools.cached_property
    def keep_components(self) -> list[str]:
        """Unique keep components in first-seen order, original casing."""
        return _first_of_each_fold(c for seq in self.capture_sequences for c in seq)

    @functools.cached_property
    def discard_components(self) -> list[str]:
        taken = {c.casefold() for c in self.keep_components}
        labeled = zip(self.record.components, self.labels)
        return _first_of_each_fold((c for c, lab in labeled if lab == DISCARD), taken)

    @property
    def has_capture_groups(self) -> bool:
        return any(self.capture_sequences)

    def to_dict(self) -> dict:
        return {
            "raw": self.record.raw,
            "kind": self.record.kind.value,
            "normalized": self.record.normalized,
            "source_id": self.record.source_id,
            "components": list(self.record.components),
            "labels": list(self.labels),
            "capture_sequences": [list(s) for s in self.capture_sequences],
        }


def find_path_groups(record: IocRecord, store: KnowledgeStore) -> GroupAnnotation:
    """Longest run of store-known, pairwise-adjacent components.

    The scan works on the compacted list V of components present in the store
    (in original order); a component missing from the store therefore does not
    break a run if the graph says its neighbours are parent/child.  One scan
    keeps the current run and the longest so far; ties on run length go to
    the earliest run.
    """
    if record.kind not in (IocKind.FILE_PATH, IocKind.REGISTRY_KEY):
        raise ValueError(f"find_path_groups got kind {record.kind.value!r}")
    forest = PATH_FOREST if record.kind is IocKind.FILE_PATH else REGISTRY_FOREST

    components = record.components
    v = [(i, comp) for i, comp in enumerate(components) if store.contains(forest, comp)]

    start = best_start = best_end = 0
    for j in range(len(v)):
        if j and not store.adjacent(forest, v[j - 1][1], v[j][1]):
            start = j
        if j + 1 - start > best_end - best_start:
            best_start, best_end = start, j + 1
    best = v[best_start:best_end]

    labels = [DISCARD] * len(components)
    for idx, _comp in best:
        labels[idx] = KEEP
    sequences = [[comp for _i, comp in best]] if best else []
    return GroupAnnotation(record=record, labels=labels, capture_sequences=sequences)


def find_command_groups(record: IocRecord, store: KnowledgeStore) -> GroupAnnotation:
    """Command/parameter sequences: each store-known command opens a sequence,
    store-known parameters adjacent to that command extend it."""
    if record.kind is not IocKind.COMMAND_LINE:
        raise ValueError(f"find_command_groups got kind {record.kind.value!r}")

    components = record.components
    labels = [DISCARD] * len(components)
    sequences: list[list[str]] = []
    command: str | None = None
    for idx, comp in enumerate(components):
        label = store.label_of(comp)
        if label is NodeLabel.COMMAND:
            sequences.append([comp])
            command = comp
        elif (
            label is NodeLabel.PARAMETER
            and command is not None
            and store.adjacent(COMMAND_FOREST, command, comp)
        ):
            sequences[-1].append(comp)
        else:
            continue
        labels[idx] = KEEP
    return GroupAnnotation(record=record, labels=labels, capture_sequences=sequences)


def annotate(record: IocRecord, store: KnowledgeStore) -> GroupAnnotation:
    """Dispatch to the finder matching the record's kind."""
    if record.kind is IocKind.COMMAND_LINE:
        return find_command_groups(record, store)
    if record.kind in (IocKind.FILE_PATH, IocKind.REGISTRY_KEY):
        return find_path_groups(record, store)
    raise ValueError(f"cannot annotate record of kind {record.kind.value!r}")

