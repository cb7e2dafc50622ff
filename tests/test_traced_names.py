"""Every entry point the benchmark's tracer times is one the pipeline runs.

``bench/tracing.py`` times each layer by wrapping the functions that its
``patch(module, "name", ...)`` calls name.  A name that no pipeline path
calls reads 0 in every traced run, whatever the layer costs.  The test reads
those calls as text, so it neither imports nor changes the tracer, counts
the calls of each named function over a generate and an evaluate run, and
names the functions that were never called.  The offline backends read no
prompt, so one more run replays to a backend that reads its prompts, as a
remote one does.
"""

import json
import re
from collections import Counter
from pathlib import Path

from ioc2regex import dialect, evaluation, generation, grading, pipeline
from ioc2regex.generation import ScriptedBackend
from ioc2regex.pipeline import PipelineConfig, run_evaluate, run_generate

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
MODULES = {
    module.__name__.rpartition(".")[2]: module
    for module in (dialect, evaluation, generation, grading, pipeline)
}
# Traced names that only the tracer, the public API and tests call; the
# test fails once a pipeline path calls one, or once one is deleted.
UNCALLED = {("dialect", "compile_pattern"), ("generation", "random_probe_strings")}
# An emission that is not a find chain, so that its analysis tokenizes it.
NON_CHAIN = r"(?i).*Users\\[a-z]+\\.*"


class PromptReadingReplay(ScriptedBackend):
    reads_prompt = True


def traced_names() -> list[tuple[str, str]]:
    text = (ROOT / "bench" / "tracing.py").read_text(encoding="utf-8")
    return re.findall(r'\bpatch\((\w+), "(\w+)"', text)


def test_every_traced_name_is_called_by_the_pipeline(tmp_path, monkeypatch):
    names = traced_names()
    assert len(names) >= 15 and set(names) >= UNCALLED
    calls: Counter = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in names:
        module = MODULES[name[0]]
        monkeypatch.setattr(module, name[1], counting(name, getattr(module, name[1])))
    dialect.analysis_or_error.cache_clear()

    products = tmp_path / "products.json"
    run_generate(PipelineConfig(str(DATA / "e2e_iocs.json"), str(products)))
    run_evaluate(products, DATA / "e2e_truths.json", tmp_path / "report.json")
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"emissions": [NON_CHAIN], "fallback": "template"}))
    replayed = PipelineConfig(
        str(DATA / "e2e_iocs.json"), str(tmp_path / "replayed.json"),
        backend="scripted", replay_path=str(replay),
    )
    run_generate(replayed)
    assert not calls["generation", "build_prompt"]
    monkeypatch.setattr(
        pipeline, "make_backend", lambda config: PromptReadingReplay([NON_CHAIN])
    )
    run_generate(replayed)

    assert {name for name in names if not calls[name]} == UNCALLED
