"""The one reader and the one object check of every JSON input file.

Every JSON file the package reads is read by ``read_json``, and the objects
of knowledge-base, input-list, replay, product and ground-truth files are
checked by ``check_object``, so each fault is named in one of a few forms
(``docs/formats.md#input-files``).
Every input fault is a ``ConfigError``, raised where it is found, so the
command line reads one class and no caller translates it; a reader may pass
a subclass of its own.  A field is a
``(what, check)`` pair: ``check`` tells whether a value is allowed, and
``what`` says which values are, after "must be".
"""

from __future__ import annotations

import json
from pathlib import Path

STRING = ("a string", lambda value: isinstance(value, str))
STRINGS = (
    "a list of strings",
    lambda value: isinstance(value, list) and all(isinstance(s, str) for s in value),
)
NONBLANK = (
    "a string that is not blank",
    lambda value: isinstance(value, str) and value.strip() != "",
)
INTEGER = ("an integer", lambda value: type(value) is int)


class ConfigError(ValueError):
    """A fault in a file or option the user gave: the command ends with exit
    code 1 and this message."""


def read_json(path: str | Path, error: type[ConfigError] = ConfigError):
    """A JSON file's content.  Malformed UTF-8 or JSON is ``error`` naming
    the file and line as ``path:line``."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line, problem = data.count(b"\n", 0, exc.start) + 1, f"invalid UTF-8: {exc.reason}"
    except json.JSONDecodeError as exc:
        line, problem = exc.lineno, f"invalid JSON: {exc.msg}"
    except ValueError as exc:  # a number of more digits than int() reads
        raise error(f"{path}: {exc}") from exc
    raise error(f"{path}:{line}: {problem}")


def check_object(value, fields: dict, where: str, error: type[ConfigError] = ConfigError,
                 required: tuple[str, ...] = ()) -> dict:
    """``value``, when it is a dict whose keys are all in ``fields``, whose
    values each pass their key's check, and that holds each ``required``
    key; else ``error`` naming ``where`` and the first fault, in that order,
    so a misspelt required key reads as an unknown key."""
    if not isinstance(value, dict):
        raise error(f"{where}: not an object")
    for key, item in value.items():
        field = fields.get(key)
        if field is None:
            raise error(f"{where}: unknown key {key!r}")
        if not field[1](item):
            raise error(f"{where}: {key!r} must be {field[0]}")
    for key in required:
        if key not in value:
            raise error(f"{where}: missing {key!r}")
    return value
