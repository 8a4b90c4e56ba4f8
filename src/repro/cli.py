"""Command-line interface for the L2Q reproduction.

Six subcommands cover the common workflows:

``repro-l2q corpus``
    Generate a synthetic corpus and print its summary statistics.

``repro-l2q harvest``
    Run the full harvesting loop for one (entity, aspect) pair with a chosen
    strategy and print the fired queries and resulting metrics.

``repro-l2q experiment``
    Regenerate one of the paper's figures (fig09 ... fig14) and print the
    corresponding table.

``repro-l2q scenarios``
    Robustness lab: ``scenarios list`` prints the registered hostile-corpus
    scenarios; ``scenarios run`` sweeps selectors × scenarios and writes the
    robustness matrix to ``BENCH_scenarios.json`` (same seed ⇒ byte-identical
    output).

``repro-l2q perf``
    Performance tracking: ``perf manifest`` regenerates the unified
    ``BENCH_manifest.json`` from the ``benchmarks/results/BENCH_*.json``
    artifacts (deterministic — CI diffs it for freshness); ``perf report``
    renders per-backend speedup tables and throughput deltas vs the
    committed manifest.

``repro-l2q campaign``
    Resumable campaigns: ``campaign plan`` compiles a spec (from a JSON
    file or inline flags) into its content-addressed cell list;
    ``campaign run`` executes pending cells against a journaled directory
    (checkpointing each finished cell, skipping everything already
    journalled — a killed run loses at most one checkpoint batch);
    ``campaign resume`` is ``run`` against an already-bound directory;
    ``campaign status`` reports completed/pending cells and journal
    anomalies; ``campaign clean`` reaps shared-store segments a killed
    orchestrator leaked.  Resumed output is byte-identical to an
    uninterrupted run (matrices fold purely from on-disk artifacts).

``harvest`` and ``experiment`` both accept ``--ranker`` to pick the
retrieval model backing the offline search engine (any name in the ranker
registry, ``dirichlet`` by default), plus ``--backend {serial,process}``
and ``--workers`` to pick the execution engine for the harvesting loops
(serial for 1 worker, process for more; results are identical for any
backend and worker count, because seeds are derived per run, not per
schedule).  ``--backend``/``--workers`` are ignored — with a note — where
they cannot help: single ``harvest`` runs, ``fig09`` (no harvesting) and
``fig14`` (wall-clock selection timings must be measured serially).

``scenarios run`` takes the same ``--backend``/``--workers``, but they
dispatch the sweep's (domain, scenario) cells, one task per cell, and a
cell's harvests run serially.  It additionally accepts ``--paper-scale``
(the paper's 996 researchers / 143 cars sweep, defaulting to the process
backend over all CPUs) and ``--param name=v1,v2,...`` severity grids that
expand each requested scenario into one cell per parameter value; when the
name is an :class:`~repro.core.config.L2QConfig` field (e.g.
``dedup_penalty``) the grid varies the learner against a fixed corpus
condition instead.
``harvest``, ``experiment`` and ``scenarios run`` take ``--dedup-penalty``
to enable dedup-aware selection (page-level MinHash novelty discount;
0 = off, the paper's exact behaviour) and ``--perf-output PATH`` to record
wall-clock phase timings (split preparation, harvest loops, sweep cells)
into a JSON report — the same profiling ``REPRO_PERF=1`` enables ambiently.

Usage examples::

    python -m repro.cli corpus --domain car --entities 20
    python -m repro.cli harvest --domain researcher --aspect RESEARCH --method L2QBAL
    python -m repro.cli harvest --domain researcher --ranker bm25
    python -m repro.cli experiment --figure fig13 --scale smoke --backend process --workers 4
    python -m repro.cli scenarios list
    python -m repro.cli scenarios run --scale smoke --scenarios zipf-skew near-duplicates
    python -m repro.cli scenarios run --scenarios zipf-skew --param exponent=0.5,1.0,1.5
    python -m repro.cli scenarios run --scenarios near-duplicates --param dedup_penalty=0.0,0.5
    python -m repro.cli scenarios run --scenarios near-duplicates hostile-mix --dedup-penalty 0.5
    python -m repro.cli scenarios run --paper-scale --perf-output perf.json
    python -m repro.cli perf manifest
    python -m repro.cli perf report
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro import perf
from repro.core.config import L2QConfig
from repro.core.queries import format_query
from repro.corpus.domains import available_domains
from repro.corpus.synthetic import build_corpus
from repro.eval import experiments, reporting
from repro.eval.metrics import compute_metrics
from repro.eval.runner import ExperimentRunner
from repro.eval.scenario_sweep import (
    DEFAULT_SWEEP_METHODS,
    ScenarioSweep,
    expand_config_grid,
    expand_severity_grid,
)
from repro.exec.backends import BACKEND_PROCESS, backend_names
from repro.scenarios import make_scenario, scenario_names
from repro.store import STORE_MODES
from repro.search.rankers import ranker_names

_FIGURES = {
    "fig09": (experiments.run_fig09, reporting.format_fig09),
    "fig10": (experiments.run_fig10, reporting.format_fig10),
    "fig11": (experiments.run_fig11, reporting.format_fig11),
    "fig12": (experiments.run_fig12, reporting.format_fig12),
    "fig13": (experiments.run_fig13, reporting.format_fig13),
    "fig14": (experiments.run_fig14, reporting.format_fig14),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-l2q",
        description="Reproduction of 'Learning to Query' (ICDE 2016)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    corpus = subparsers.add_parser("corpus", help="generate a corpus and print statistics")
    _add_corpus_arguments(corpus)

    harvest = subparsers.add_parser("harvest", help="harvest one entity aspect")
    _add_corpus_arguments(harvest)
    harvest.add_argument("--aspect", default=None,
                         help="target aspect (defaults to the domain's first aspect)")
    harvest.add_argument("--method", default="L2QBAL",
                         help="selection strategy (e.g. L2QBAL, L2QP, MQ, LM)")
    harvest.add_argument("--queries", type=int, default=3,
                         help="number of queries after the seed (default 3)")
    harvest.add_argument("--entity", default=None,
                         help="entity id to harvest (defaults to the first test entity)")
    _add_engine_arguments(harvest)

    experiment = subparsers.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument("--figure", choices=sorted(_FIGURES), required=True)
    experiment.add_argument("--scale", choices=["smoke", "default", "paper"],
                            default="smoke")
    experiment.add_argument("--domains", nargs="+", default=list(experiments.DOMAINS),
                            choices=available_domains())
    _add_engine_arguments(experiment)

    scenarios = subparsers.add_parser(
        "scenarios", help="list or run hostile-corpus robustness scenarios")
    scenario_commands = scenarios.add_subparsers(dest="scenario_command",
                                                 required=True)
    scenario_commands.add_parser("list", help="print the registered scenarios")
    run = scenario_commands.add_parser(
        "run", help="sweep selectors x scenarios and write BENCH_scenarios.json")
    run.add_argument("--scale", choices=["smoke", "default", "paper"],
                     default=None,
                     help="corpus / split sizing preset (default: smoke)")
    run.add_argument("--paper-scale", action="store_true",
                     help="run the paper-scale sweep (996 researchers / 143 "
                          "cars); implies --scale paper and defaults to the "
                          "process backend over all CPUs (conflicts with an "
                          "explicit --scale)")
    run.add_argument("--scenarios", nargs="+", default=None,
                     metavar="SCENARIO",
                     help="scenario names to sweep (default: all registered)")
    run.add_argument("--param", default=None, metavar="NAME=V1,V2,...",
                     help="severity grid: sweep one perturbation parameter "
                          "— or one L2QConfig field such as dedup_penalty — "
                          "over the given values (requires --scenarios)")
    run.add_argument("--methods", nargs="+", default=list(DEFAULT_SWEEP_METHODS),
                     metavar="METHOD",
                     help="selectors / baselines to sweep "
                          f"(default: {' '.join(DEFAULT_SWEEP_METHODS)})")
    run.add_argument("--domains", nargs="+", default=list(experiments.DOMAINS),
                     choices=available_domains())
    run.add_argument("--queries", type=_positive_int, default=3,
                     help="query budget evaluated per run (default 3)")
    run.add_argument("--output", default="BENCH_scenarios.json",
                     help="path of the robustness matrix JSON "
                          "(default: ./BENCH_scenarios.json)")
    _add_engine_arguments(run, dispatched="the sweep's cells, one task per "
                                          "(domain, scenario) cell whose "
                                          "harvests run serially")

    campaign = subparsers.add_parser(
        "campaign", help="plan, run, resume and inspect journaled campaigns")
    campaign_commands = campaign.add_subparsers(dest="campaign_command",
                                                required=True)
    plan = campaign_commands.add_parser(
        "plan", help="compile a campaign spec into its content-addressed "
                     "cell list (and optionally bind a directory to it)")
    _add_campaign_spec_arguments(plan)
    plan.add_argument("--dir", default=None, metavar="DIR",
                      help="campaign directory to initialise with the spec "
                           "(default: plan only, no directory touched)")
    for verb, text in (("run", "execute pending cells against a journaled "
                               "campaign directory (resume-safe: journalled "
                               "cells are skipped)"),
                       ("resume", "resume a killed campaign (identical to "
                                  "run, but requires an already-bound "
                                  "directory)")):
        sub = campaign_commands.add_parser(verb, help=text)
        sub.add_argument("--dir", required=True, metavar="DIR",
                         help="campaign directory (journal, artifacts, "
                              "matrices)")
        if verb == "run":
            _add_campaign_spec_arguments(sub)
        sub.add_argument("--backend", default=None, choices=backend_names(),
                         help="execution backend for cell dispatch "
                              "(default: serial for 1 worker, process for "
                              "more; results identical for any backend)")
        sub.add_argument("--workers", type=_positive_int, default=None,
                         help="parallel cell workers (default 1)")
        sub.add_argument("--checkpoint-every", type=_positive_int,
                         default=None, metavar="N",
                         help="cells committed per dispatch round — the "
                              "crash-loss bound (default: the worker count)")
        sub.add_argument("--max-cells", type=_positive_int, default=None,
                         metavar="N",
                         help="execute at most N pending cells this "
                              "invocation (default: all)")
        sub.add_argument("--bench-output", default=None, metavar="PATH",
                         help="write the BENCH_campaign summary artifact "
                              "(cells skipped/executed, journal anomalies) "
                              "for the perf manifest's campaigns block")
        sub.add_argument("--perf-output", default=None, metavar="PATH",
                         help="record campaign phase timings (replay, "
                              "publish, dispatch, fold) to PATH")
    status = campaign_commands.add_parser(
        "status", help="journal-replay view: completed vs pending cells")
    status.add_argument("--dir", required=True, metavar="DIR")
    clean = campaign_commands.add_parser(
        "clean", help="reap shared-store segments/mmap temp files a killed "
                      "campaign orchestrator leaked")
    clean.add_argument("--dir", required=True, metavar="DIR")

    perf_parser = subparsers.add_parser(
        "perf", help="build the perf manifest or render speedup reports")
    perf_commands = perf_parser.add_subparsers(dest="perf_command",
                                               required=True)
    manifest = perf_commands.add_parser(
        "manifest", help="regenerate BENCH_manifest.json from the "
                         "committed BENCH_*.json artifacts (deterministic)")
    manifest.add_argument("--results", default="benchmarks/results",
                          help="directory holding the BENCH_*.json artifacts "
                               "(default: benchmarks/results)")
    manifest.add_argument("--output", default=None,
                          help="manifest path to write "
                               "(default: <results>/BENCH_manifest.json)")
    report = perf_commands.add_parser(
        "report", help="render per-backend speedup tables and deltas vs "
                       "the committed manifest")
    report.add_argument("--results", default="benchmarks/results",
                        help="artifact directory a fresh manifest is built "
                             "from when --manifest is not given")
    report.add_argument("--manifest", default=None,
                        help="pre-built manifest to render (default: build "
                             "one in memory from --results)")
    report.add_argument("--baseline", default=None,
                        help="committed manifest to diff against (default: "
                             "<results>/BENCH_manifest.json when present)")
    return parser


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domain", default="researcher", choices=available_domains())
    parser.add_argument("--entities", type=int, default=24)
    parser.add_argument("--pages", type=int, default=16)
    parser.add_argument("--seed", type=int, default=3)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _dedup_penalty(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {number}")
    return number


def _add_engine_arguments(parser: argparse.ArgumentParser,
                          dispatched: str = "the harvesting loops") -> None:
    parser.add_argument("--ranker", default=None, choices=ranker_names(),
                        help="retrieval model of the offline search engine "
                             "(default: the configured 'dirichlet')")
    parser.add_argument("--dedup-penalty", type=_dedup_penalty, default=None,
                        metavar="WEIGHT",
                        help="dedup-aware selection: discount collective "
                             "utilities by page-level expected redundancy "
                             "(0 = off, the default; 1 = full discount)")
    parser.add_argument("--backend", default=None, choices=backend_names(),
                        help=f"execution backend for {dispatched} "
                             "(default: serial for 1 worker, process for "
                             "more; results are identical for any backend)")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help=f"parallel workers for {dispatched} (default "
                             "1, or all CPUs under --paper-scale; results "
                             "are identical for any value)")
    parser.add_argument("--corpus-store", default=None,
                        choices=list(STORE_MODES),
                        help="shared corpus store for the process backend: "
                             "publish the corpus + index once and have "
                             "workers attach instead of rebuilding (auto = "
                             "probe shm, else mmap; results are identical "
                             "with or without the store)")
    parser.add_argument("--perf-output", default=None, metavar="PATH",
                        help="record wall-clock phase timings (split "
                             "preparation, harvest loops, sweep cells) and "
                             "write the JSON report to PATH")


def _add_campaign_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="campaign spec JSON (embeds the scale by "
                             "value); inline flags below are ignored when "
                             "given")
    parser.add_argument("--name", default="campaign",
                        help="campaign name (default: campaign)")
    parser.add_argument("--scale", choices=["smoke", "default", "paper"],
                        default="smoke",
                        help="corpus / split sizing preset embedded into "
                             "the spec by value (default: smoke)")
    parser.add_argument("--domains", nargs="+",
                        default=list(experiments.DOMAINS),
                        choices=available_domains())
    parser.add_argument("--scenarios", nargs="+", default=None,
                        metavar="SCENARIO",
                        help="scenario names (default: all registered)")
    parser.add_argument("--methods", nargs="+",
                        default=list(DEFAULT_SWEEP_METHODS),
                        metavar="METHOD",
                        help="selectors / baselines per cell "
                             f"(default: {' '.join(DEFAULT_SWEEP_METHODS)})")
    parser.add_argument("--seeds", nargs="+", type=int, default=None,
                        metavar="SEED",
                        help="corpus seeds, one world per seed (default: "
                             "the scale preset's corpus seed)")
    parser.add_argument("--queries", type=_positive_int, default=3,
                        help="query budget evaluated per run (default 3)")
    parser.add_argument("--corpus-store", default="auto",
                        choices=list(STORE_MODES),
                        help="shared corpus store policy for distributed "
                             "cell dispatch (default: auto)")


def _parse_param_grid(text: str) -> Tuple[str, List[object]]:
    """Parse ``name=v1,v2,...`` into a parameter name and typed values."""
    name, separator, raw_values = text.partition("=")
    if not separator or not name or not raw_values:
        raise argparse.ArgumentTypeError(
            f"--param expects NAME=V1,V2,... , got {text!r}")
    values: List[object] = []
    for token in raw_values.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token))
        except ValueError:
            try:
                values.append(float(token))
            except ValueError:
                values.append(token)
    if not values:
        raise argparse.ArgumentTypeError(
            f"--param expects at least one value, got {text!r}")
    return name, values


def _command_corpus(args: argparse.Namespace, out) -> int:
    corpus = build_corpus(args.domain, num_entities=args.entities,
                          pages_per_entity=args.pages, seed=args.seed)
    for name, value in corpus.stats().as_rows():
        print(f"{name:30s} {value}", file=out)
    return 0


def _command_harvest(args: argparse.Namespace, out) -> int:
    corpus = build_corpus(args.domain, num_entities=args.entities,
                          pages_per_entity=args.pages, seed=args.seed)
    aspect = args.aspect or corpus.aspects[0]
    if aspect not in corpus.aspects:
        print(f"unknown aspect {aspect!r}; available: {corpus.aspects}", file=out)
        return 2
    config = L2QConfig(num_queries=args.queries)
    if args.ranker:
        config.ranker = args.ranker
    if args.dedup_penalty is not None:
        config.dedup_penalty = args.dedup_penalty
    if args.workers is not None or args.backend:
        print("note: harvest runs a single loop; --backend/--workers ignored",
              file=out)
    runner = ExperimentRunner(corpus, config=config)
    split = runner.default_split(0)
    prepared = runner.prepare(split)
    entity_id = args.entity or split.test_entities[0]
    if entity_id not in corpus.entities:
        print(f"unknown entity {entity_id!r}", file=out)
        return 2

    result = runner.harvest_once(prepared, args.method, entity_id, aspect,
                                 args.queries)
    entity = corpus.get_entity(entity_id)
    print(f"entity : {entity.name} ({entity_id})", file=out)
    print(f"aspect : {aspect}", file=out)
    print(f"method : {args.method}", file=out)
    for record in result.iterations:
        print(f"  query #{record.index + 1}: {format_query(record.query)!r} "
              f"({len(record.new_page_ids)} new pages)", file=out)
    relevant = [p.page_id for p in corpus.relevant_pages(entity_id, aspect)]
    metrics = compute_metrics(result.gathered_after(args.queries), relevant)
    print(f"gathered {len(result.gathered_after(args.queries))} pages; "
          f"precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
          f"f-score={metrics.f_score:.3f}", file=out)
    return 0


def _command_experiment(args: argparse.Namespace, out) -> int:
    run, render = _FIGURES[args.figure]
    scale = experiments.get_scale(args.scale)
    kwargs = {}
    if args.figure == "fig09":  # fig09 trains classifiers only, no harvesting
        if args.ranker or args.workers is not None or args.backend \
                or args.dedup_penalty is not None:
            print("note: fig09 does no harvesting; --ranker/--backend/"
                  "--workers/--dedup-penalty ignored", file=out)
    else:
        if args.ranker or args.dedup_penalty is not None:
            config = L2QConfig()
            if args.ranker:
                config.ranker = args.ranker
            if args.dedup_penalty is not None:
                config.dedup_penalty = args.dedup_penalty
            kwargs["config"] = config
        if args.figure == "fig14":
            if args.workers is not None or args.backend:
                print("note: fig14 measures wall-clock selection time; "
                      "harvests stay pinned to the serial backend, "
                      "--backend/--workers ignored", file=out)
        else:
            kwargs["workers"] = args.workers if args.workers is not None else 1
            if args.backend:
                kwargs["backend"] = args.backend
            if args.corpus_store is not None:
                kwargs["corpus_store"] = args.corpus_store
    result = run(scale, domains=tuple(args.domains), **kwargs)
    print(render(result), file=out)
    return 0


def _command_scenarios(args: argparse.Namespace, out) -> int:
    if args.scenario_command == "list":
        for name in scenario_names():
            spec = make_scenario(name)
            stages = ", ".join(p.name for p in spec.perturbations) or "none"
            print(f"{name:22s} {spec.description}", file=out)
            print(f"{'':22s} stages: {stages}", file=out)
        return 0

    config = None
    if args.ranker or args.dedup_penalty is not None:
        config = L2QConfig()
        if args.ranker:
            config.ranker = args.ranker
        if args.dedup_penalty is not None:
            config.dedup_penalty = args.dedup_penalty

    backend = args.backend
    workers = args.workers
    if args.paper_scale:
        if args.scale is not None:
            # Silently preferring either flag could launch an hours-long
            # paper run the user meant to scale down (or vice versa).
            print("--paper-scale conflicts with an explicit --scale; "
                  "pass one or the other", file=out)
            return 2
        scale_name = "paper"
        # The paper-scale sweep is the workload the process backend exists
        # for; fill in whichever of backend/workers the user left unset (an
        # explicit --backend or --workers always wins).
        if backend is None:
            backend = BACKEND_PROCESS
        if workers is None:
            workers = os.cpu_count() or 1
        print(f"note: --paper-scale runs on the {backend} backend "
              f"with {workers} worker(s)", file=out)
    else:
        scale_name = args.scale if args.scale is not None else "smoke"
    if workers is None:
        workers = 1

    scenarios: Optional[Sequence[object]] = args.scenarios
    param_grid = None
    config_by_scenario = None
    if args.param is not None:
        if not args.scenarios:
            print("--param requires --scenarios naming the scenario "
                  "factories to expand", file=out)
            return 2
        try:
            name, values = _parse_param_grid(args.param)
            if name in L2QConfig.__dataclass_fields__:
                # Learner-parameter grid (e.g. dedup_penalty): same corpus
                # condition per scenario, one config override per cell.
                scenarios, param_grid, config_by_scenario = \
                    expand_config_grid(args.scenarios, name, values,
                                       base_config=config)
            else:
                scenarios, param_grid = expand_severity_grid(args.scenarios,
                                                             name, values)
        except (argparse.ArgumentTypeError, ValueError) as error:
            print(str(error), file=out)
            return 2

    try:
        sweep = ScenarioSweep(
            scale=experiments.get_scale(scale_name),
            scenarios=scenarios,
            methods=tuple(args.methods),
            domains=tuple(args.domains),
            num_queries=args.queries,
            config=config,
            workers=workers,
            backend=backend,
            param_grid=param_grid,
            config_by_scenario=config_by_scenario,
            corpus_store=(args.corpus_store if args.corpus_store is not None
                          else "auto"),
        )
    except ValueError as error:  # unknown/duplicate scenario or method
        print(str(error), file=out)
        return 2
    result = sweep.run()
    print(reporting.format_scenarios(result), file=out)
    path = result.write(args.output)
    print(f"\nwrote {path}", file=out)
    return 0


def _campaign_spec_from_args(args: argparse.Namespace):
    """Resolve the campaign spec a plan/run invocation describes.

    ``--spec FILE`` wins; otherwise the inline flags (name, scale,
    domains, ...) build one, with scenarios defaulting to the full
    registry and seeds to the preset's own corpus seed.
    """
    from repro.campaign import CampaignSpec, spec_from_preset

    if args.spec is not None:
        return CampaignSpec.load(args.spec)
    scenarios = args.scenarios if args.scenarios is not None \
        else scenario_names()
    seeds = args.seeds if args.seeds is not None \
        else [experiments.get_scale(args.scale).corpus_seed]
    return spec_from_preset(args.name, args.scale, args.domains, scenarios,
                            args.methods, seeds, num_queries=args.queries,
                            corpus_store=args.corpus_store)


def _command_campaign(args: argparse.Namespace, out) -> int:
    import json
    from pathlib import Path

    # Lazy: the campaign layer pulls in the sweep + store machinery,
    # which only this subcommand needs.
    from repro.campaign import (
        SPEC_NAME,
        CampaignRunner,
        CampaignStore,
        clean_stale_stores,
        compile_cells,
    )

    if args.campaign_command == "plan":
        try:
            spec = _campaign_spec_from_args(args)
        except (OSError, KeyError, ValueError) as error:
            print(str(error), file=out)
            return 2
        cells = compile_cells(spec)
        print(f"campaign {spec.name!r}: {len(cells)} cells "
              f"(scale {spec.scale.name}, {len(spec.seeds)} seed(s), "
              f"{len(spec.domains)} domain(s), {len(spec.scenarios)} "
              f"scenario(s) + clean)", file=out)
        for cell in cells:
            print(f"  {cell.key}  {cell.label()}", file=out)
        if args.dir is not None:
            try:
                CampaignStore(args.dir).initialise(spec)
            except ValueError as error:
                print(str(error), file=out)
                return 2
            print(f"\nbound {Path(args.dir) / SPEC_NAME}", file=out)
        return 0

    if args.campaign_command == "status":
        try:
            runner = CampaignRunner(args.dir)
        except FileNotFoundError:
            print(f"{args.dir} is not a campaign directory "
                  f"(no {SPEC_NAME})", file=out)
            return 2
        cells, replay = runner.status()
        pending = [cell for cell in cells
                   if cell.key not in replay.completed]
        print(f"campaign {runner.spec.name!r}: "
              f"{len(cells) - len(pending)}/{len(cells)} cells completed, "
              f"{len(pending)} pending", file=out)
        if replay.duplicates:
            print(f"journal: {replay.duplicates} duplicate entrie(s) "
                  f"collapsed", file=out)
        for warning in replay.warnings:
            print(f"warning: {warning}", file=out)
        for cell in pending:
            print(f"  pending  {cell.key}  {cell.label()}", file=out)
        return 0

    if args.campaign_command == "clean":
        reaped = clean_stale_stores(args.dir)
        if reaped:
            print(f"reaped {len(reaped)} stale store segment(s):", file=out)
            for name in reaped:
                print(f"  {name}", file=out)
        else:
            print("no stale store segments registered", file=out)
        return 0

    # run / resume — the same resume-safe code path; resume merely
    # refuses to start a campaign that does not exist yet.
    root = Path(args.dir)
    bound = (root / SPEC_NAME).exists()
    spec = None
    if args.campaign_command == "resume":
        if not bound:
            print(f"{args.dir} is not a campaign directory (no {SPEC_NAME}); "
                  f"start one with 'campaign run'", file=out)
            return 2
    elif args.spec is not None or not bound:
        # An explicit --spec is always honoured (a mismatch with a bound
        # directory fails loudly below); inline flags only matter when
        # the directory is fresh.
        try:
            spec = _campaign_spec_from_args(args)
        except (OSError, KeyError, ValueError) as error:
            print(str(error), file=out)
            return 2
    try:
        runner = CampaignRunner(
            root, spec=spec, backend=args.backend,
            workers=args.workers if args.workers is not None else 1,
            checkpoint_every=args.checkpoint_every)
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=out)
        return 2
    report = runner.run(max_cells=args.max_cells)
    print(f"campaign {runner.spec.name!r}: {report.total} cells — "
          f"{report.skipped} skipped (journalled), "
          f"{report.executed} executed, {report.remaining} remaining",
          file=out)
    if report.duplicates:
        print(f"journal: {report.duplicates} duplicate journal entries collapsed",
              file=out)
    for warning in report.warnings:
        print(f"warning: {warning}", file=out)
    if report.matrices_path is not None:
        print(f"wrote {report.matrices_path}", file=out)
    if args.bench_output is not None:
        path = Path(args.bench_output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(runner.summary_document(report),
                                   indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}", file=out)
    return 0


def _command_perf(args: argparse.Namespace, out) -> int:
    from pathlib import Path

    if args.perf_command == "manifest":
        results = Path(args.results)
        if not results.is_dir():
            print(f"results directory {results} does not exist", file=out)
            return 2
        path = perf.write_manifest(results, output=args.output)
        print(f"wrote {path}", file=out)
        return 0

    # perf report
    results = Path(args.results)
    if args.manifest is not None:
        manifest = perf.load_manifest(args.manifest)
    elif results.is_dir():
        manifest = perf.build_manifest(results)
    else:
        print(f"results directory {results} does not exist "
              f"(pass --manifest or --results)", file=out)
        return 2
    print(perf.format_manifest(manifest), file=out)

    baseline_path = Path(args.baseline) if args.baseline is not None \
        else results / perf.MANIFEST_NAME
    if baseline_path.exists():
        baseline = perf.load_manifest(baseline_path)
        print(f"\nThroughput vs committed manifest ({baseline_path}):",
              file=out)
        print(perf.format_manifest_delta(manifest, baseline), file=out)
    elif args.baseline is not None:
        print(f"baseline manifest {baseline_path} does not exist", file=out)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    perf_output = getattr(args, "perf_output", None)
    rec = perf.enable() if perf_output else None
    try:
        if args.command == "corpus":
            return _command_corpus(args, out)
        if args.command == "harvest":
            return _command_harvest(args, out)
        if args.command == "experiment":
            return _command_experiment(args, out)
        if args.command == "scenarios":
            return _command_scenarios(args, out)
        if args.command == "campaign":
            return _command_campaign(args, out)
        if args.command == "perf":
            return _command_perf(args, out)
        parser.error(f"unknown command {args.command!r}")
        return 2  # pragma: no cover - parser.error raises
    finally:
        if rec is not None:
            perf.disable()
            path = rec.write(perf_output)
            print(f"wrote perf report {path}", file=out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
