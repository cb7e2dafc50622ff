"""In-process inventory of OS-native components used to tell invariant IOC parts apart.

Three forests are kept: file-system directories, registry key components, and
commands with their parameters.  Each forest is one dict from a node name to
the names of its children, merged over every declaration that mentions the
name; the command forest's children, the parameters, are also kept as one
set.  All names are case-folded at ingestion and at query time, so
membership and adjacency are plain hash probes wherever in a hierarchy a
component appeared.  A store is built once from one
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

        for key, forest in (("paths", PATH_FOREST), ("registry", REGISTRY_FOREST)):
            children = self._forests[forest]
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
                folded = [c.casefold() for c in components]
                for name in folded:
                    children.setdefault(name, set())
                for parent, child in zip(folded, folded[1:]):
                    children[parent].add(child)

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
            params = {p.strip().casefold() for p in params}
            command = strip_executable_extension(name.strip()).casefold()
            self._forests[COMMAND_FOREST].setdefault(command, set()).update(params)
            self._parameters |= params

        self.source_manifest.append({"file": filename, "version": version})

    # -- queries ------------------------------------------------------

    def contains(self, forest: str, name: str) -> bool:
        """True iff a node of that case-folded name exists in the forest."""
        if not name:
            return False
        if forest not in self._forests:
            raise ValueError(f"unknown forest selector: {forest!r}")
        if forest == COMMAND_FOREST:
            return self.label_of(name) is not None
        return name.casefold() in self._forests[forest]

    def adjacent(self, forest: str, parent: str, child: str) -> bool:
        """True iff some node named ``parent`` has a child named ``child``."""
        if not parent or not child:
            return False
        if forest not in self._forests:
            raise ValueError(f"unknown forest selector: {forest!r}")
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
            "sources": len(self.source_manifest),
        }


def default_store() -> KnowledgeStore:
    """Load the starter knowledge base shipped with the package."""
    kb_dir = Path(__file__).parent / "data" / "kb"
    return KnowledgeStore.ingest(sorted(kb_dir.glob("*.json")))
