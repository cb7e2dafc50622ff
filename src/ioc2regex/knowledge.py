"""In-process inventory of OS-native components used to tell invariant IOC parts apart.

Three forests are kept: file-system directories, registry key components, and
commands with their parameters, as definition files declare them
(``docs/formats.md#knowledge-base-definition-file``).  Each forest is one
dict from a node name to the names of its children, merged over every
declaration that mentions the name; the command forest's children, the
parameters, are also kept as one set.  Names are case-folded at ingestion
and at query time, so membership and adjacency are plain hash probes
wherever in a hierarchy a component appeared.  A store is read-only once
built, which makes it safe to share across worker threads.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

from .inputs import NONBLANK, STRING, STRINGS, ConfigError, check_object, read_json

PATH_FOREST = "path"
REGISTRY_FOREST = "registry"
COMMAND_FOREST = "command"

FOREST_NAMES = (PATH_FOREST, REGISTRY_FOREST, COMMAND_FOREST)

# Executable suffixes stripped when canonicalizing command names.
EXECUTABLE_EXTENSIONS = (".exe", ".com", ".bat", ".cmd", ".ps1")

# What a definition file may hold, at the top level and in a command entry.
_FILE_FIELDS = {
    "version": STRING,
    "paths": STRINGS,
    "registry": STRINGS,
    "commands": ("a list of objects", lambda value: isinstance(value, list)),
}
_COMMAND_FIELDS = {
    "name": NONBLANK,
    "parameters": (
        "a list of strings that are not blank",
        lambda value: isinstance(value, list) and all(map(NONBLANK[1], value)),
    ),
}


class NodeLabel(str, Enum):
    COMMAND = "command"
    PARAMETER = "parameter"


def _split_hierarchy(entry: str) -> list[str]:
    parts = [p.strip() for p in entry.replace("\\", "/").split("/")]
    return [p for p in parts if p]


def strip_executable_extension(token: str) -> str:
    """Drop a trailing executable suffix (``cmd.exe`` -> ``cmd``), if present."""
    folded = token.casefold()
    for ext in EXECUTABLE_EXTENSIONS:
        if folded.endswith(ext) and len(token) > len(ext):
            return token[: -len(ext)]
    return token


class KnowledgeStore:
    """Read-only membership/adjacency/label oracle over the three forests."""

    def __init__(self):
        # forest name -> case-folded node name -> case-folded child names
        self._forests: dict[str, dict[str, set[str]]] = {f: {} for f in FOREST_NAMES}
        self._parameters: set[str] = set()  # case-folded parameter names
        self.sources = 0  # definition files loaded

    # -- construction -------------------------------------------------

    @classmethod
    def ingest(cls, definition_files: list[str | Path]) -> "KnowledgeStore":
        """Build a store from JSON definition files; duplicates merge."""
        store = cls()
        for path in definition_files:
            store._load_dict(read_json(path), filename=str(path))
        return store

    @classmethod
    def from_dict(cls, data: dict, filename: str = "<dict>") -> "KnowledgeStore":
        store = cls()
        store._load_dict(data, filename=filename)
        return store

    def _load_dict(self, data: dict, filename: str) -> None:
        check_object(data, _FILE_FIELDS, filename)
        for key, forest in (("paths", PATH_FOREST), ("registry", REGISTRY_FOREST)):
            children = self._forests[forest]
            for i, entry in enumerate(data.get(key, [])):
                components = _split_hierarchy(entry)
                if not components:
                    raise ConfigError(
                        f"{filename}: {key}[{i}]: no components in {entry!r}"
                    )
                folded = [c.casefold() for c in components]
                for name in folded:
                    children.setdefault(name, set())
                for parent, child in zip(folded, folded[1:]):
                    children[parent].add(child)

        for i, entry in enumerate(data.get("commands", [])):
            check_object(entry, _COMMAND_FIELDS, f"{filename}: commands[{i}]",
                         required=("name",))
            params = {p.strip().casefold() for p in entry.get("parameters", [])}
            command = strip_executable_extension(entry["name"].strip()).casefold()
            self._forests[COMMAND_FOREST].setdefault(command, set()).update(params)
            self._parameters |= params

        self.sources += 1

    # -- queries ------------------------------------------------------

    def contains(self, forest: str, name: str) -> bool:
        """True iff a node of that case-folded name exists in the forest; in
        the command forest the nodes are the commands, not their parameters.
        A forest name outside ``FOREST_NAMES`` is a KeyError."""
        return name.casefold() in self._forests[forest]

    def adjacent(self, forest: str, parent: str, child: str) -> bool:
        """True iff some node named ``parent`` has a child named ``child``."""
        return child.casefold() in self._forests[forest].get(parent.casefold(), ())

    def label_of(self, name: str) -> NodeLabel | None:
        """Label of ``name`` in the command forest, or None if absent."""
        key = name.casefold()
        if key in self._forests[COMMAND_FOREST]:
            return NodeLabel.COMMAND
        if key in self._parameters:
            return NodeLabel.PARAMETER
        return None

    def path_children(self, name: str) -> frozenset[str]:
        """Case-folded child names of every path node called ``name``."""
        return frozenset(self._forests[PATH_FOREST].get(name.casefold(), ()))

    def stats(self) -> dict:
        return {
            "path_nodes": len(self._forests[PATH_FOREST]),
            "registry_nodes": len(self._forests[REGISTRY_FOREST]),
            "commands": len(self._forests[COMMAND_FOREST]),
            "parameters": len(self._parameters),
            "sources": self.sources,
        }


def default_store() -> KnowledgeStore:
    """Load the starter knowledge base shipped with the package."""
    kb_dir = Path(__file__).parent / "data" / "kb"
    return KnowledgeStore.ingest(sorted(kb_dir.glob("*.json")))
