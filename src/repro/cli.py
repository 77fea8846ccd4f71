"""Command-line interface: ``python -m repro <command>`` (or the
``repro`` console script).

Commands mirroring the session life cycle of
:class:`repro.db.GraphDatabase`, which every command routes through:

* ``datasets`` — list the registry with stand-in and paper statistics;
* ``build``    — build any registered engine over a dataset and (for the
  persistable CPQx/iaCPQx) save it to disk;
* ``query``    — evaluate a CPQ (text syntax) against a saved index or a
  freshly built dataset with a chosen ``--engine``;
* ``info``     — statistics of a saved index;
* ``serve``    — the resilient serving daemon over a saved index (see
  the "Serving daemon" section of ``docs/robustness.md``);
* ``experiment`` — regenerate one paper table/figure by name.

Examples::

    python -m repro datasets
    python -m repro build --dataset robots --k 2 --out robots.idx
    python -m repro query --index robots.idx "(l1 . l1) & l1^-"
    python -m repro query --dataset robots --engine auto --stats "l1 & l1"
    python -m repro serve robots.idx --port 8080
    python -m repro experiment table3
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import experiments as experiments_module
from repro.core.stats import dataset_stats, format_bytes
from repro.db import GraphDatabase, available_engines
from repro.errors import ReproError
from repro.graph.datasets import REGISTRY

#: experiment-name → generator function mapping for the CLI.
EXPERIMENTS = {
    "table2": lambda: experiments_module.table2_datasets(),
    "fig6": lambda: experiments_module.fig6_query_time(datasets=("robots", "advogato")),
    "table3": lambda: experiments_module.table3_pruning_power(datasets=("robots", "advogato")),
    "fig7": lambda: experiments_module.fig7_empty_nonempty(datasets=("yago",)),
    "fig8": lambda: experiments_module.fig8_interest_size(fractions=(1.0, 0.5, 0.0)),
    "fig9": lambda: experiments_module.fig9_yago_benchmark(),
    "fig10": lambda: experiments_module.fig10_lubm_watdiv(sizes=(300, 600, 1200)),
    "fig11": lambda: experiments_module.fig11_scalability(sizes=(300, 600, 1200)),
    "fig12": lambda: experiments_module.fig12_label_count(label_counts=(16, 64, 256)),
    "table4": lambda: experiments_module.table4_index_size(datasets=("robots", "advogato")),
    "table5": lambda: experiments_module.table5_cpqx_updates(datasets=("robots",)),
    "table6": lambda: experiments_module.table6_iacpqx_updates(datasets=("robots",)),
    "table7": lambda: experiments_module.table7_size_growth(),
    "fig13": lambda: experiments_module.fig13_maintenance_impact(),
    "fig14": lambda: experiments_module.fig14_k_query_time(),
    "fig15": lambda: experiments_module.fig15_k_index_cost(),
}


def _workers_arg(raw: str) -> int | str:
    """argparse type for worker counts: a positive int or 'auto'."""
    if raw == "auto":
        return "auto"
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive int or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive int or 'auto', got {raw!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPQ-aware path indexing (ICDE 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset registry")

    engine_choices = ("auto", *available_engines())

    build = sub.add_parser("build", help="build an index over a dataset")
    build.add_argument("--dataset", required=True, choices=sorted(REGISTRY))
    build.add_argument("--scale", type=float, default=0.25)
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--k", type=int, default=2)
    build.add_argument(
        "--engine", choices=engine_choices, default=None,
        help="engine to build ('auto' routes through the advisor/cost model)",
    )
    build.add_argument(
        "--type", choices=("cpqx", "iacpqx"), default=None,
        help="deprecated alias of --engine (kept for old scripts)",
    )
    build.add_argument(
        "--interests", default="auto",
        help="'auto' derives interests from a template workload; "
             "or a comma list of label sequences like 'l1.l2,l2.l3^-'",
    )
    build.add_argument(
        "--workers", type=_workers_arg, default=1, metavar="N|auto",
        help="shard construction over N worker processes "
             "('auto' = one per CPU; engines that cannot shard ignore it)",
    )
    build.add_argument("--out", required=True, help="output index file")
    build.add_argument(
        "--store", action="store_true",
        help="save in the zero-copy columnar store format (mmap-openable) "
             "instead of checksummed JSON",
    )
    build.add_argument(
        "--kernels", choices=("auto", "numpy", "pure"), default="auto",
        help="set-algebra kernel backend ('auto' = numpy when importable; "
             "results are bit-identical either way)",
    )

    query = sub.add_parser("query", help="evaluate a CPQ")
    query.add_argument("cpq", help="query text, e.g. '(f . f) & f^-'")
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument("--index", help="a saved index file")
    source.add_argument("--dataset", choices=sorted(REGISTRY))
    query.add_argument("--scale", type=float, default=0.25)
    query.add_argument("--seed", type=int, default=7)
    query.add_argument("--k", type=int, default=2)
    query.add_argument(
        "--engine", choices=engine_choices, default="cpqx",
        help="engine for --dataset evaluation (ignored with --index)",
    )
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--show", type=int, default=20, help="answers to print")
    query.add_argument(
        "--stats", action="store_true",
        help="print the executor's operator counters and the plan",
    )

    info = sub.add_parser("info", help="statistics of a saved index")
    info.add_argument("index")
    info.add_argument(
        "--verify", action="store_true",
        help="re-derive ground truth and check every index invariant",
    )

    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))

    serve = sub.add_parser(
        "serve",
        help="run the resilient serving daemon over a saved index "
             "(bounded admission, deadlines, circuit breaker, graceful "
             "SIGTERM drain, hot swap via POST /update and /reload)",
    )
    serve.add_argument("index", help="a saved index file (JSON or .rsx store)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--port-file", default=None,
        help="write the bound port here once listening (for supervisors)",
    )
    serve.add_argument(
        "--capacity", type=int, default=64,
        help="admission queue bound; requests beyond it are shed with "
             "structured 'overloaded' rejects",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="serve_batch worker count per coalesced batch",
    )
    serve.add_argument(
        "--mode", choices=("auto", "thread", "process"), default="auto",
        help="serving mode under a closed breaker (the breaker may "
             "demote process mode to threads)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="cap on one coalesced batch (batches form from requests "
             "that queued while the previous batch was in flight)",
    )
    serve.add_argument(
        "--deadline", type=float, default=10.0,
        help="default per-request deadline, seconds (requests may send "
             "their own 'timeout')",
    )
    serve.add_argument(
        "--drain-deadline", type=float, default=10.0,
        help="SIGTERM to forced-exit budget, seconds",
    )
    serve.add_argument(
        "--retries", type=int, default=None,
        help="per-query retry budget inside serve_batch "
             "(default: the serving pool's)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive batch failures that open the circuit breaker",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=5.0,
        help="seconds an open breaker waits before its half-open probe",
    )
    serve.add_argument(
        "--kernels", choices=("auto", "numpy", "pure"), default="auto",
        help="set-algebra kernel backend ('auto' = numpy when importable; "
             "results are bit-identical either way)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the project-specific static analyzer "
             "(concurrency/determinism/snapshot invariants)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline JSON whose findings are tolerated (see docs/static-analysis.md)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    lint.add_argument(
        "--fail-on-findings", action="store_true",
        help="exit nonzero when findings remain (the default, made explicit for CI)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="output_format",
        help="findings output format",
    )
    return parser


def _apply_kernels(choice: str) -> int:
    """Select the kernel backend for ``--kernels``; 0 on success.

    'auto' keeps the import-time default (numpy when importable).  An
    explicit 'numpy' without numpy installed is a hard error rather
    than a silent fallback — the caller asked for the vectorized build.
    """
    if choice == "auto":
        return 0
    from repro.core import kernels

    if choice not in kernels.available_backends():
        print(
            f"error: --kernels {choice} requested but the {choice} backend "
            f"is unavailable (is numpy installed?); available: "
            f"{', '.join(kernels.available_backends())}",
            file=sys.stderr,
        )
        return 2
    kernels.set_backend(choice)
    return 0


def _parse_interest_list(raw: str, registry) -> set[tuple[int, ...]]:
    interests: set[tuple[int, ...]] = set()
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        interests.add(tuple(
            registry.id_of(name.strip()) for name in chunk.split(".")
        ))
    return interests


def cmd_datasets(_args) -> int:
    print(f"{'name':<14}{'|V|':>7}{'|E|':>8}{'|L|':>6}  "
          f"{'paper |V|':>10}{'paper |E|':>12}  full-index")
    for name, spec in REGISTRY.items():
        graph = spec.build(scale=0.1, seed=0)
        stats = dataset_stats(name, graph)
        print(f"{name:<14}{stats.vertices:>7}{stats.edges_extended:>8}"
              f"{stats.labels_extended:>6}  {spec.paper_stats.vertices:>10}"
              f"{spec.paper_stats.edges:>12}  "
              f"{'yes' if spec.full_index_feasible else 'no (OOM in paper)'}")
    return 0


def cmd_build(args) -> int:
    if args.engine is not None and args.type is not None:
        print("error: --type is a deprecated alias of --engine; pass one",
              file=sys.stderr)
        return 2
    engine = args.engine or args.type or "cpqx"
    if (code := _apply_kernels(args.kernels)) != 0:
        return code
    db = GraphDatabase.from_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(f"loaded {args.dataset}: {db.graph}")
    interests = (
        "auto" if args.interests == "auto"
        else _parse_interest_list(args.interests, db.graph.registry)
    )
    db.build_index(
        engine=engine, k=args.k, interests=interests, seed=args.seed,
        workers=args.workers,
    )
    if db.selection is not None:
        print(db.selection.describe())
    print(db.stats.describe())
    db.save(args.out, format="store" if args.store else "json")
    print(f"saved to {args.out}")
    return 0


def cmd_query(args) -> int:
    if args.index:
        db = GraphDatabase.open(args.index)
    else:
        db = GraphDatabase.from_dataset(
            args.dataset, scale=args.scale, seed=args.seed
        )
        db.build_index(engine=args.engine, k=args.k, seed=args.seed)
        if db.selection is not None:
            print(db.selection.describe())
    result = db.query(args.cpq, limit=args.limit)
    start = time.perf_counter()
    answers = result.to_list()
    elapsed = time.perf_counter() - start
    print(f"[{db.engine_name}] {len(answers)} answers in {elapsed * 1000:.3f} ms")
    for pair in answers[: args.show]:
        print(f"  {pair[0]!r} -> {pair[1]!r}")
    if len(answers) > args.show:
        print(f"  ... and {len(answers) - args.show} more")
    if args.stats:
        stats = result.stats
        print(f"stats: lookups={stats.lookups} joins={stats.joins} "
              f"class-conj={stats.class_conjunctions} "
              f"pair-conj={stats.pair_conjunctions} "
              f"classes-touched={stats.classes_touched} "
              f"pairs-touched={stats.pairs_touched}")
        print(result.explain())
    return 0


def cmd_info(args) -> int:
    db = GraphDatabase.open(args.index)
    index = db.engine
    print(db.stats.describe())
    print(f"graph: {db.graph}")
    print(f"size: {format_bytes(index.size_bytes())}")
    if hasattr(index, "interests"):
        multi = sorted(s for s in index.interests if len(s) > 1)
        print(f"interests: {len(index.interests)} "
              f"({len(multi)} multi-label)")
    if args.verify:
        from repro.core.validate import verify_index

        report = verify_index(index)
        print(report.describe())
        return 0 if report.ok else 1
    return 0


#: Figure experiments that also get a log-scale ASCII series rendering:
#: name → (x column, y column, group column).
SERIES_VIEWS = {
    "fig8": ("interest_pct", "mean_time_s", "template"),
    "fig10": ("edges", "mean_time_s", "suite"),
    "fig11": ("vertices", "mean_time_s", "template"),
    "fig12": ("labels", "Path", "labels"),
    "fig13": ("updated_pct", "mean_time_s", "template"),
    "fig14": ("k", "mean_time_s", "template"),
    "fig15": ("k", "size_bytes", "dataset"),
}


def cmd_serve(args) -> int:
    """Run the serving daemon until SIGTERM/SIGINT (or POST /shutdown)."""
    import asyncio

    from repro.serve.daemon import DaemonConfig, ServingDaemon
    from repro.serve.procserve import DEFAULT_RETRIES

    if (code := _apply_kernels(args.kernels)) != 0:
        return code
    db = GraphDatabase.open(args.index)
    config = DaemonConfig(
        host=args.host,
        port=args.port,
        capacity=args.capacity,
        max_batch=args.max_batch,
        workers=args.workers,
        mode=args.mode,
        default_deadline=args.deadline,
        drain_deadline=args.drain_deadline,
        retries=DEFAULT_RETRIES if args.retries is None else args.retries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    daemon = ServingDaemon(db, config)

    async def _serve() -> None:
        started = asyncio.create_task(daemon.run())
        while daemon.port is None and not started.done():  # noqa: ASYNC110
            await asyncio.sleep(0.01)
        if daemon.port is not None:
            print(f"serving {args.index} on {args.host}:{daemon.port}", flush=True)
            if args.port_file:
                with open(args.port_file, "w", encoding="utf-8") as handle:
                    handle.write(f"{daemon.port}\n")
        await started

    asyncio.run(_serve())
    if daemon.drained_clean is False:
        print("warning: drain deadline exceeded; queued requests were "
              "failed fast", file=sys.stderr)
        return 1
    return 0


def cmd_lint(args) -> int:
    from repro import analysis

    if args.list_rules:
        for rule_cls in analysis.ALL_RULES:
            print(f"{rule_cls.rule_id}  {rule_cls.title}")
        return 0
    findings = analysis.run_lint(args.paths)
    if args.write_baseline:
        if args.baseline is None:
            print("error: --write-baseline requires --baseline", file=sys.stderr)
            return 2
        analysis.write_baseline(args.baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0
    if args.baseline is not None:
        findings = analysis.subtract_baseline(
            findings, analysis.load_baseline(args.baseline)
        )
    if args.output_format == "json":
        print(analysis.render_json(findings))
    elif findings:
        print(analysis.render_text(findings))
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def cmd_experiment(args) -> int:
    result = EXPERIMENTS[args.name]()
    print(result.render())
    view = SERIES_VIEWS.get(args.name)
    if view is not None:
        from repro.bench.reporting import render_series

        print()
        print(render_series(result, x=view[0], y=view[1], group_by=view[2]))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "build": cmd_build,
        "query": cmd_query,
        "info": cmd_info,
        "experiment": cmd_experiment,
        "serve": cmd_serve,
        "lint": cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
