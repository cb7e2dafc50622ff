"""Seeded synthetic corpus for the benchmark.

The invariant structure of every indicator comes from the bundled knowledge
base: a prefix of a path or registry chain, or a command with one to four of
its parameters in random order.  The mutable parts (file names, user names,
value names, argument values) are random tokens that the knowledge base does
not know.  Spellings vary the way threat-report strings do: ``%ENV%``
variables, ``HKEY_*`` roots, ``.exe`` on commands, letter case and, in the
ground truths only, ``/`` in place of ``\\``.  The indicators themselves keep
``\\``, because the template backend joins path components with ``\\`` and
could not match them otherwise.

The generator records the invariants it planted, so the benchmark checks the
program's capture groups against them instead of against the program's own
capture finder.  A fixed share of the indicators are planted extraction false
positives (hashes, domains, paths with no knowledge-base component) that the
program must reject.

Everything is drawn from one ``random.Random(seed)`` over ordered lists, so a
seed gives byte-identical files in any process.  The parameter subsets and
the scripted backend's bad emissions come from a fixed stream instead, the
same for every seed, since they set much of the cost of a pass.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

KIND_PATH = "file_path"
KIND_REGISTRY = "registry_key"
KIND_COMMAND = "command_line"
KIND_REJECT = "planted_reject"

# Share of planted extraction false positives among all indicators.
REJECT_SHARE = 0.08
TRUTHS_PER_IOC = 3
DATASETS = ("ds-a", "ds-b", "ds-c", "ds-d")

_FILE_EXTS = (".exe", ".dll", ".bat", ".tmp", ".dat", ".ps1", ".js", ".lnk", ".bin")
_TOKEN_CHARS = string.ascii_lowercase + string.digits


def _dump(payload) -> bytes:
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("utf-8")


def _split(entry: str) -> list[str]:
    return [p.strip() for p in entry.replace("\\", "/").split("/") if p.strip()]


def _fold(components: list[str]) -> list[str]:
    return [c.casefold() for c in components]


@dataclass
class KnowledgeBase:
    """The definition-file content the generator draws from, in file order."""

    paths: list[list[str]]
    registry: list[list[str]]
    commands: list[tuple[str, list[str]]]
    names: list[str]  # every case-folded knowledge-base name
    env_vars: list[tuple[str, list[str]]]  # (%VAR%, its components after the drive)
    root_names: dict[str, str]  # folded abbreviation -> full HKEY_* name

    @classmethod
    def load(cls, data_dir: Path) -> "KnowledgeBase":
        paths: list[list[str]] = []
        registry: list[list[str]] = []
        commands: list[tuple[str, list[str]]] = []
        for kb_file in sorted((data_dir / "kb").glob("*.json")):
            data = json.loads(kb_file.read_text(encoding="utf-8"))
            paths += [_split(entry) for entry in data.get("paths", [])]
            registry += [_split(entry) for entry in data.get("registry", [])]
            commands += [
                (c["name"], list(c.get("parameters", [])))
                for c in data.get("commands", [])
            ]
        names = {c.casefold() for chain in paths + registry for c in chain}
        for name, params in commands:
            names.add(name.casefold())
            names.update(p.casefold() for p in params)

        expansions = json.loads((data_dir / "env_expansions.json").read_text("utf-8"))
        env_vars = [
            (var, _split(value)[1:])
            for var, value in expansions.items()
            if value[1:2] == ":" and not value.casefold().endswith(".exe")
        ]
        roots = json.loads((data_dir / "registry_roots.json").read_text("utf-8"))
        root_names = {abbrev.casefold(): full for full, abbrev in roots.items()}
        return cls(paths, registry, commands, sorted(names), env_vars, root_names)


@dataclass
class Corpus:
    """Generated inputs plus what the generator planted in them."""

    iocs: list[dict]  # {"source_id", "text", "kind"}
    truths: list[dict]  # ground-truth file entries
    planted: dict[str, list[str] | None]  # source_id -> invariants, None = reject

    def ioc_bytes(self) -> bytes:
        return _dump([{"source_id": i["source_id"], "text": i["text"]} for i in self.iocs])

    def truth_bytes(self) -> bytes:
        return _dump(self.truths)

    def properties(self) -> dict:
        """Workload properties recorded beside the metrics."""
        mix: dict[str, int] = {}
        for ioc in self.iocs:
            mix[ioc["kind"]] = mix.get(ioc["kind"], 0) + 1
        rejects = sum(1 for inv in self.planted.values() if inv is None)
        return {
            "iocs": len(self.iocs),
            "truths": len(self.truths),
            "kind_mix": dict(sorted(mix.items())),
            "planted_reject_share": rejects / len(self.iocs),
            "distinct_ioc_text_share": len({i["text"] for i in self.iocs}) / len(self.iocs),
        }


class _Drawer:
    """Every random choice for one corpus, from a single seeded stream."""

    def __init__(self, seed: int, kb: KnowledgeBase):
        self.rng = random.Random(seed)
        self.kb = kb

    def token(self) -> str:
        """A mutable token: letters with at least one digit, never a
        knowledge-base name or part of one."""
        rng = self.rng
        while True:
            chars = [rng.choice(_TOKEN_CHARS) for _ in range(rng.randint(5, 9))]
            chars[rng.randrange(len(chars))] = rng.choice(string.digits)
            tok = "".join(chars)
            if any(c.isalpha() for c in tok) and not any(
                tok in name for name in self.kb.names
            ):
                return tok

    def filename(self) -> str:
        return self.token() + self.rng.choice(_FILE_EXTS)

    def case(self, text: str) -> str:
        roll = self.rng.random()
        if roll < 0.15:
            return text.upper()
        if roll < 0.30:
            return text.lower()
        return text

    def tail(self) -> list[str]:
        """Mutable components after an invariant prefix."""
        extra = [self.token()] if self.rng.random() < 0.3 else []
        return extra + [self.filename()]

    def cycle(self, items: list, n: int) -> list:
        """``n`` items taken round-robin over seeded shuffles of ``items``, so
        every seed draws nearly the same multiset of structures."""
        out: list = []
        while len(out) < n:
            out += self.rng.sample(items, len(items))
        return out[:n]

    # -- spellings ----------------------------------------------------------

    def path_text(self, prefix: list[str], delim: str) -> str:
        rng = self.rng
        matching = [
            (var, comps)
            for var, comps in self.kb.env_vars
            if _fold(prefix[: len(comps)]) == _fold(comps)
        ]
        if matching and rng.random() < 0.35:
            var, comps = rng.choice(matching)
            head, body = [self.case(var)], prefix[len(comps):]
        else:
            head, body = (["C:"] if rng.random() < 0.85 else []), list(prefix)
        parts = []
        for k, comp in enumerate(body):
            after_users = k > 0 and body[k - 1].casefold() == "users"
            if after_users and comp.casefold() == "user" and rng.random() < 0.7:
                parts.append(self.token())  # normalized back to "user"
            else:
                parts.append(self.case(comp))
        return delim.join(head + parts + self.tail())

    def registry_text(self, prefix: list[str], delim: str) -> str:
        root = prefix[0]
        if self.rng.random() < 0.4:
            root = self.kb.root_names.get(root.casefold(), root)
        parts = [self.case(root)] + [self.case(c) for c in prefix[1:]]
        return delim.join(parts + [self.token()])

    def value(self, kind: int) -> str:
        if kind == 0:
            return self.token()
        if kind == 1:
            return "c:\\drops\\" + self.filename()
        return f"http://{self.token()}.example/{self.filename()}"

    def command_text(self, parts: list[str]) -> str:
        # Every second parameter takes a value, and the value kinds rotate:
        # long command lines dominate the cost of matching, so their length
        # is kept from varying much between seeds.
        name = self.case(parts[0])
        if self.rng.random() < 0.3:
            name += ".exe"
        words = [name]
        for k, param in enumerate(parts[1:]):
            words.append(self.case(param))
            if k % 2 == 0:
                words.append(self.value((k // 2 + len(parts)) % 3))
        return " ".join(words)

    def reject_text(self, n: int) -> str:
        rng = self.rng
        if n % 3 == 0:
            return "".join(rng.choice("0123456789abcdef") for _ in range(rng.choice((32, 40, 64))))
        if n % 3 == 1:
            return f"{self.token()}.{self.token()}.{rng.choice(('example', 'net', 'org'))}"
        return "D:\\" + "\\".join([self.token(), self.token(), self.filename()])


def _prefixes(chains: list[list[str]]) -> list[list[str]]:
    """Every distinct chain prefix an indicator may be built on.  A prefix has
    at least two components where its chain has them: a path prefix ending at
    "Users" would turn the next mutable component into the user name."""
    seen: dict[tuple[str, ...], list[str]] = {}
    for chain in chains:
        for length in range(min(2, len(chain)), len(chain) + 1):
            seen.setdefault(tuple(_fold(chain[:length])), chain[:length])
    return list(seen.values())


def structures(kb: KnowledgeBase) -> list[tuple[str, list[str]]]:
    """One of every invariant structure: each path and registry prefix, and
    each command with one to four of its parameters.  The parameter subsets
    are drawn once, the same for every seed, because which short parameters
    a command pattern must find sets much of the cost of matching it."""
    subsets = random.Random(0)
    return (
        [(KIND_PATH, prefix) for prefix in _prefixes(kb.paths)]
        + [(KIND_REGISTRY, prefix) for prefix in _prefixes(kb.registry)]
        + [
            (KIND_COMMAND, [name] + subsets.sample(params, size))
            for name, params in kb.commands
            for size in range(min(1, len(params)), min(4, len(params)) + 1)
        ]
    )


def build_corpus(seed: int, kb: KnowledgeBase, n_planted: int | None = None) -> Corpus:
    """``n_planted`` indicators with invariants (by default one of every
    structure, so every seed has the same multiset), planted rejects to make
    up ``REJECT_SHARE`` of the whole, and ``TRUTHS_PER_IOC`` truths per
    planted indicator."""
    draw = _Drawer(seed, kb)
    rng = draw.rng
    pool = structures(kb)
    chosen = draw.cycle(pool, len(pool) if n_planted is None else n_planted)
    n_reject = round(len(chosen) * REJECT_SHARE / (1 - REJECT_SHARE))
    chosen += [(KIND_REJECT, None)] * n_reject
    rng.shuffle(chosen)
    n_other = 0

    iocs: list[dict] = []
    truths: list[dict] = []
    planted: dict[str, list[str] | None] = {}
    for index, (kind, structure) in enumerate(chosen):
        source_id = f"b{index:05d}"
        if kind == KIND_REJECT:
            iocs.append({"source_id": source_id, "text": draw.reject_text(n_other), "kind": kind})
            planted[source_id] = None
            n_other += 1
            continue
        if kind == KIND_COMMAND:  # the parameters in a random order
            structure = structure[:1] + rng.sample(structure[1:], len(structure) - 1)
        invariants = sorted(set(_fold(structure)))
        planted[source_id] = invariants

        variants = []
        for j in range(TRUTHS_PER_IOC + 1):
            # variant 0 is the indicator; the last truth uses "/" delimiters
            # and, for a command, lists its parameters in reverse order
            delim = "/" if j == TRUTHS_PER_IOC else "\\"
            if kind == KIND_PATH:
                variants.append(draw.path_text(structure, delim))
            elif kind == KIND_REGISTRY:
                variants.append(draw.registry_text(structure, delim))
            else:
                order = structure if j < TRUTHS_PER_IOC else structure[:1] + structure[:0:-1]
                variants.append(draw.command_text(order))
        iocs.append({"source_id": source_id, "text": variants[0], "kind": kind})
        truths += [
            {
                "text": text,
                "kind": kind,
                "capture_groups": invariants,
                "dataset_id": DATASETS[(len(truths) + j) % len(DATASETS)],
            }
            for j, text in enumerate(variants[1:])
        ]
    return Corpus(iocs=iocs, truths=truths, planted=planted)


# The scripted backend replays this run of bad emissions for every indicator
# before it falls back to the template: each kind the repair loop must answer.
SYNTAX_ERRORS = ("(?i).*(unclosed", "[a-z", "\\", "*lead", "(?i).*\\q", "(?P<n>x)")
OVER_BROAD = (".*", "(?i).+", ".+", "(?i).*\\\\.*")


def bad_emissions(kb: KnowledgeBase, count: int) -> list[str]:
    """``count`` emissions cycling through syntax errors, literals that match
    no indicator, and over-broad patterns.  The run is the same for every
    seed: how long the literals are sets how much the debug diagnostics
    cost, and that must not change with the corpus seed."""
    draw = _Drawer(0, kb)
    prefixes = _prefixes(kb.paths + kb.registry)
    out: list[str] = []
    for n in range(count):
        kind = n % 3
        if kind == 0:
            out.append(SYNTAX_ERRORS[(n // 3) % len(SYNTAX_ERRORS)])
        elif kind == 1:
            prefix = prefixes[(n // 3) % len(prefixes)]
            out.append("(?i).*" + "\\\\".join(map(re.escape, prefix + [draw.token()])) + "\\.exe")
        else:
            out.append(OVER_BROAD[(n // 3) % len(OVER_BROAD)])
    return out
