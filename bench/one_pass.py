"""One timed generate or evaluate pass, in a fresh interpreter.

Each pass runs in its own process, one at a time, so nothing the program
caches in memory survives from one pass to the next, as with the CLI.  The
pass prints one JSON line: the wall time of ``run_generate`` or
``run_evaluate`` and the mean calibration loop time through it (see
``calib.py``), the process's peak RSS and, for a traced pass, its per-layer
metrics and per-indicator times.  A traced pass also writes its
spans as gzipped JSON lines.

    python3 bench/one_pass.py generate --src SRC --input I --output O [--replay R]
    python3 bench/one_pass.py evaluate --src SRC --products P --truths T --output O
    (either one with --spans FILE to trace it)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import calib
import tracing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("generate", "evaluate"))
    parser.add_argument("--src", required=True, help="directory holding ioc2regex")
    parser.add_argument("--input", default="")
    parser.add_argument("--replay", default="")
    parser.add_argument("--products", default="")
    parser.add_argument("--truths", default="")
    parser.add_argument("--output", required=True)
    parser.add_argument("--spans", default="", help="trace the pass; write spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from ioc2regex import pipeline

    if args.mode == "generate":
        config = pipeline.PipelineConfig(
            input_path=args.input,
            output_path=args.output,
            backend="scripted" if args.replay else "template",
            replay_path=args.replay,
            workers=1,
        )

        def run():
            return pipeline.run_generate(config)
    else:

        def run():
            pipeline.run_evaluate(args.products, args.truths, args.output)
            return None

    recorder = None
    if args.spans:
        recorder = tracing.Recorder()
        tracing.install(recorder)
        run = recorder.wrap("pipeline.run", run)

    sampler = calib.Sampler(on_tick=recorder.pause if recorder is not None else None)
    with sampler:
        summary = run()

    result = {
        "wall_s": sampler.wall_s,
        "calib_s": sampler.loop_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "summary": summary,
    }
    if recorder is not None:
        recorder.write(Path(args.spans))
        result["layers"] = tracing.layer_metrics(recorder)
        result["ioc_ms"] = tracing.ioc_times_ms(recorder)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
