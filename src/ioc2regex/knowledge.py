"""In-process inventory of OS-native components used to tell invariant IOC parts apart.

Three forests are kept: file-system directories, registry key components, and
commands with their parameters.  All names are case-folded at ingestion and at
query time, so lookups are plain hash probes.  A store is built once from one
or more JSON definition files and is read-only afterwards, which makes it safe
to share across worker threads.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path

PATH_FOREST = "path"
REGISTRY_FOREST = "registry"
COMMAND_FOREST = "command"

FOREST_NAMES = (PATH_FOREST, REGISTRY_FOREST, COMMAND_FOREST)

# Executable suffixes stripped when canonicalizing command names.
EXECUTABLE_EXTENSIONS = (".exe", ".com", ".bat", ".cmd", ".ps1")


class NodeLabel(str, Enum):
    COMMAND = "command"
    PARAMETER = "parameter"


class KnowledgeBaseError(ValueError):
    """Raised when a definition file cannot be parsed or violates the schema."""

    def __init__(self, message: str, filename: str = "", line: int | None = None):
        where = filename or "<data>"
        if line is not None:
            where = f"{where}:{line}"
        super().__init__(f"{where}: {message}")
        self.filename = filename
        self.line = line


def _fold(name: str) -> str:
    return name.casefold()


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


class _HierarchyForest:
    """Name-keyed forest for paths or registry keys.

    Node identity is the case-folded component name; children collected from
    every declaration that mentions the name, so membership and adjacency are
    O(1) regardless of where in a hierarchy a component appeared.
    """

    def __init__(self):
        self.children: dict[str, set[str]] = {}

    def add_chain(self, components: list[str]) -> None:
        folded = [_fold(c) for c in components]
        for name in folded:
            self.children.setdefault(name, set())
        for parent, child in zip(folded, folded[1:]):
            self.children[parent].add(child)

    def contains(self, name: str) -> bool:
        return _fold(name) in self.children

    def adjacent(self, parent: str, child: str) -> bool:
        return _fold(child) in self.children.get(_fold(parent), ())


class _CommandForest:
    """Two-level forest: command nodes with parameter children."""

    def __init__(self):
        self.commands: dict[str, set[str]] = {}
        self.parameters: set[str] = set()

    def add_command(self, name: str, parameters: list[str]) -> None:
        cmd = _fold(strip_executable_extension(name))
        self.commands.setdefault(cmd, set())
        for param in parameters:
            p = _fold(param)
            self.commands[cmd].add(p)
            self.parameters.add(p)

    def contains(self, name: str) -> bool:
        key = _fold(name)
        return key in self.commands or key in self.parameters

    def adjacent(self, parent: str, child: str) -> bool:
        return _fold(child) in self.commands.get(_fold(parent), ())

    def label_of(self, name: str) -> NodeLabel | None:
        key = _fold(name)
        if key in self.commands:
            return NodeLabel.COMMAND
        if key in self.parameters:
            return NodeLabel.PARAMETER
        return None


class KnowledgeStore:
    """Read-only membership/adjacency/label oracle over the three forests."""

    def __init__(self):
        self._paths = _HierarchyForest()
        self._registry = _HierarchyForest()
        self._commands = _CommandForest()
        self.source_manifest: list[dict] = []

    # -- construction -------------------------------------------------

    @classmethod
    def ingest(cls, definition_files: list[str | Path]) -> "KnowledgeStore":
        """Build a store from JSON definition files; duplicates merge."""
        store = cls()
        for path in definition_files:
            path = Path(path)
            try:
                raw = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise KnowledgeBaseError(f"cannot read file: {exc}", str(path)) from exc
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise KnowledgeBaseError(
                    f"invalid JSON: {exc.msg}", str(path), exc.lineno
                ) from exc
            store._load_dict(data, filename=str(path))
        return store

    @classmethod
    def from_dict(cls, data: dict, filename: str = "<dict>") -> "KnowledgeStore":
        store = cls()
        store._load_dict(data, filename=filename)
        return store

    def _load_dict(self, data: dict, filename: str) -> None:
        if not isinstance(data, dict):
            raise KnowledgeBaseError("top level must be an object", filename)
        version = data.get("version", "")
        if not isinstance(version, str):
            raise KnowledgeBaseError("'version' must be a string", filename)

        for key, forest in (("paths", self._paths), ("registry", self._registry)):
            entries = data.get(key, [])
            if not isinstance(entries, list):
                raise KnowledgeBaseError(f"'{key}' must be a list of strings", filename)
            for i, entry in enumerate(entries):
                if not isinstance(entry, str):
                    raise KnowledgeBaseError(f"{key}[{i}]: not a string", filename)
                components = _split_hierarchy(entry)
                if not components:
                    raise KnowledgeBaseError(
                        f"{key}[{i}]: no components in {entry!r}", filename
                    )
                forest.add_chain(components)

        commands = data.get("commands", [])
        if not isinstance(commands, list):
            raise KnowledgeBaseError("'commands' must be a list of objects", filename)
        for i, entry in enumerate(commands):
            if not isinstance(entry, dict):
                raise KnowledgeBaseError(f"commands[{i}]: not an object", filename)
            name = entry.get("name")
            params = entry.get("parameters", [])
            if not isinstance(name, str) or not name.strip():
                raise KnowledgeBaseError(
                    f"commands[{i}]: parameters declared without a command name",
                    filename,
                )
            if not isinstance(params, list) or not all(
                isinstance(p, str) and p.strip() for p in params
            ):
                raise KnowledgeBaseError(
                    f"commands[{i}] ({name}): 'parameters' must be non-empty strings",
                    filename,
                )
            self._commands.add_command(name.strip(), [p.strip() for p in params])

        self.source_manifest.append({"file": filename, "version": version})

    # -- queries ------------------------------------------------------

    def _forest(self, forest: str):
        if forest == PATH_FOREST:
            return self._paths
        if forest == REGISTRY_FOREST:
            return self._registry
        if forest == COMMAND_FOREST:
            return self._commands
        raise ValueError(f"unknown forest selector: {forest!r}")

    def contains(self, forest: str, name: str) -> bool:
        """True iff a node of that case-folded name exists in the forest."""
        if not name:
            return False
        return self._forest(forest).contains(name)

    def adjacent(self, forest: str, parent: str, child: str) -> bool:
        """True iff some node named ``parent`` has a child named ``child``."""
        if not parent or not child:
            return False
        return self._forest(forest).adjacent(parent, child)

    def label_of(self, name: str) -> NodeLabel | None:
        """Label of ``name`` in the command forest, or None if absent."""
        return self._commands.label_of(name)

    def path_children(self, name: str) -> frozenset[str]:
        """Case-folded child names of every path node called ``name``."""
        return frozenset(self._paths.children.get(_fold(name), ()))

    def stats(self) -> dict:
        return {
            "path_nodes": len(self._paths.children),
            "registry_nodes": len(self._registry.children),
            "commands": len(self._commands.commands),
            "parameters": len(self._commands.parameters),
            "sources": len(self.source_manifest),
        }


def default_store() -> KnowledgeStore:
    """Load the starter knowledge base shipped with the package."""
    kb_dir = Path(__file__).parent / "data" / "kb"
    return KnowledgeStore.ingest(sorted(kb_dir.glob("*.json")))
