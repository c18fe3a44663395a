"""One fresh process of the benchmark: generate inputs, or run the CLI once.

    python3 perfbench/child.py generate SPEC.json
    python3 perfbench/child.py setup SPEC.json
    python3 perfbench/child.py run SPEC.json

Every mode imports ``thckit.cli`` from the checkout's ``src`` first and
records when the import returned, so the parent can time set-up from
process start; ``setup`` stops there. ``run`` then calls
``thckit.cli.main(argv)`` (inside the tracer when the spec asks for it) and
writes its timings, and in traced runs the per-layer metrics and spans, to
the spec's result paths. The CLI's own output goes to this process's
stdout, which the parent sends to a file.
"""

import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    mode, spec_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, SRC)
    import thckit.cli
    imported = perf_counter()

    import json
    import resource
    import time

    if not os.path.abspath(thckit.cli.__file__).startswith(SRC + os.sep):
        print(f"thckit was imported from {thckit.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "generate":
        return generate(spec)
    if mode == "setup":
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump({"imported_at": imported}, fh)
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu_start = time.process_time()
    start = perf_counter()
    if tracer is None:
        rc = thckit.cli.main(spec["argv"])
    else:
        rc = tracer.span("cli", thckit.cli.main, spec["argv"])
    sys.stdout.flush()
    pipeline_s = perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    result = {
        "rc": rc,
        "imported_at": imported,
        "pipeline_s": pipeline_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(cpu_s)
        result["missing"] = tracer.missing
        result["count_errors"] = dict(tracer.count_errors)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def generate(spec: dict) -> int:
    """Write an Atari-shaped planted sweep (see perfbench/README.md)."""
    from thckit.dataset import dump_schema, write_baselines, write_run_log
    from thckit.synth import PlantedDesign, PlantedHyperparameter, generate as synth

    design = PlantedDesign(
        hyperparameters=tuple(
            PlantedHyperparameter(name, tuple(spec["values"]), pattern)
            for name, pattern in spec["hyperparameters"]),
        agents=tuple(spec["agents"]),
        environments=tuple(spec["environments"]),
        data_regimes=tuple(spec["data_regimes"]),
        context_axis=spec["context_axis"],
        seeds_per_cell=spec["seeds_per_cell"],
        noise_scale=spec["noise_scale"],
        score_gap=spec["score_gap"],
        seed=spec["seed"],
    )
    dataset = synth(design)
    out = spec["out"]
    with open(os.path.join(out, "runs.csv"), "w", encoding="utf-8", newline="") as fh:
        write_run_log(dataset, fh)
    with open(os.path.join(out, "baselines.csv"), "w", encoding="utf-8", newline="") as fh:
        write_baselines(dataset, fh)
    with open(os.path.join(out, "schema.yaml"), "w", encoding="utf-8") as fh:
        dump_schema(dataset.schema, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
