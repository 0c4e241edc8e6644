"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``profile``  — access-pattern analysis of one application (Fig 3/4,
  Table III statistics, automated hot-object discovery).
* ``campaign`` — a fault-injection campaign under a chosen scheme and
  protection level (Figs 6/9 cells).
* ``perf``     — timing simulation of a protection configuration
  (Fig 7 bars).
* ``tradeoff`` — the Section V-C sweep across protection levels.
* ``sweep``    — a resumable grid of campaign cells (apps × schemes ×
  protection levels) with durable chunk-level checkpoints
  (``--checkpoint-dir`` / ``--resume``).
* ``optimize`` — protection design-space exploration: search the
  per-object scheme assignments with a pluggable strategy
  (exhaustive / greedy / evolutionary / random), extract the Pareto
  front over (SDC rate, performance overhead, replica footprint),
  and solve "best SDC reduction under an overhead/memory budget"
  (``--budget-overhead`` / ``--budget-memory``); checkpointed and
  resumable like ``sweep``, with a byte-deterministic ``--trail``
  decision log.
* ``trace``    — cycle-level trace of one timing run, exported as
  Perfetto/Chrome ``trace_events`` JSON with per-object attribution.
* ``export``   — write every exhibit's data for one application to
  CSV files (re-plottable with any tool).
* ``stats``    — validate and summarize a telemetry JSONL file
  (``-`` reads the JSONL from stdin).
* ``vuln``     — per-object vulnerability attribution from a
  fault-provenance JSONL file (DVF-style profiles; ``-`` reads
  from stdin).
* ``db``       — the results warehouse: ``db ingest`` loads
  telemetry/provenance/decision/session/bench files into a SQLite
  store keyed by content-addressed cell digests (re-ingest is a
  no-op), ``db cells`` / ``db query`` inspect it, ``db export``
  reconstructs a cell's canonical JSONL byte-identically.
* ``report``   — render a warehouse as one self-contained,
  deterministic static HTML dashboard.
* ``apps``     — list the available applications.

The evaluating commands declare their
:class:`~repro.core.request.EvaluationRequest` flags (``--scale``,
``--app-seed``, ``--fault-seed``, ``--runs``, ``--blocks``, ``--bits``,
``--selection``, ``--scheme``, ``--protect``, ``--jobs``, ``--batch``,
``--target-margin``, ``--chunk-runs``) from one table, take exactly
the ones their entry point honours, and hand it the one request they
build.  ``--app-seed`` always sets the inputs, ``--fault-seed`` the
fault campaign.

``campaign`` and ``tradeoff`` accept ``--telemetry PATH`` to stream
one per-run :class:`~repro.obs.records.RunRecord` JSON line per
fault-injection run; the file is byte-identical for any ``--jobs``
setting and is what ``repro stats`` consumes.  ``campaign`` also
accepts ``--provenance PATH`` to stream one
:class:`~repro.obs.provenance.ProvenanceRecord` JSON line per run
(fault site, propagation story, masking/detection cause) — the input
of ``repro vuln`` — with the same byte-identity guarantee at any
``--jobs``/``--batch``.  ``campaign`` and ``perf`` accept
``--trace PATH`` to additionally capture the golden (fault-free)
timing run as a trace file; for ``campaign`` the export also carries
the campaign-lifecycle track (campaign/chunk spans, per-run outcome
instants, adaptive stop decisions).

``campaign`` and ``sweep`` accept ``--target-margin M`` for adaptive
statistical campaigns: runs commit in fixed chunks (``--chunk-runs``,
default 64) and stop at the first chunk boundary whose Wilson CI
margin on the SDC rate reaches ``M``, with ``--runs`` as the budget.
Stop decisions are made only at chunk boundaries in run-index order,
so the committed results and telemetry stay byte-identical at any
``--jobs``/``--batch``; ``campaign --decisions PATH`` records the
decision trail as JSONL.

``campaign``, ``sweep`` and ``optimize`` accept ``--progress`` for a
live one-line TTY progress display (runs done, rate, ETA, and — for
adaptive or sweep cells — the current Wilson CI margin), refreshed at
chunk boundaries.  Progress is purely observational: results and
telemetry are byte-identical with or without it; on a pipe it
degrades to one line per event.

Output honors the global ``-q/--quiet`` and ``-v/--verbose`` flags:
result tables always print, progress lines are silenced by ``-q``,
and diagnostics appear on stderr under ``-v``.

Exit codes map the :mod:`repro.errors` hierarchy so schedulers can
react without parsing stderr: ``0`` success, ``2`` usage errors,
``3`` unknown application or scheme, ``4`` invalid spec or
configuration, ``5`` checkpoint-store failures, ``6`` session
failures (retries exhausted), ``7`` results-warehouse failures
(missing store, corrupt input, schema mismatch, unknown digest),
``75`` interrupted-but-checkpointed (rerun ``sweep``/``optimize``
with ``--resume`` to continue), ``1`` any other library error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import nullcontext

from repro.analysis.report import campaign_table, performance_table
from repro.core.manager import ReliabilityManager
from repro.core.request import EvaluationRequest
from repro.core.schemes import SCHEME_NAMES
from repro.faults.batch import DEFAULT_BATCH
from repro.kernels.registry import (
    APPLICATIONS,
    FLAT_APPLICATIONS,
    create_app,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.utils.tables import TextTable

log = get_logger("cli")

#: Every request flag, declared once: flag -> (EvaluationRequest
#: field, argparse keywords).  The seeds are left off the namespace
#: when not given, so they take the request's defaults.  ``--scheme``
#: gets its default per subcommand (see :func:`_evaluating`).
_REQUEST_FLAGS = {
    "--scale": ("scale", dict(default="default", choices=(
        "default", "small"), help="application input size")),
    "--app-seed": ("app_seed", dict(
        type=int, default=argparse.SUPPRESS,
        help="application input seed (default 1234)")),
    "--fault-seed": ("seed", dict(
        type=int, default=argparse.SUPPRESS,
        help="fault-campaign seed (default 20210621)")),
    "--runs": ("runs", dict(type=int, default=200, help=(
        "fault-injection runs per campaign (default 200)"))),
    "--blocks": ("n_blocks", dict(type=int, default=1, metavar="N", help=(
        "faulty blocks per run (default 1)"))),
    "--bits": ("n_bits", dict(type=int, default=2, metavar="N", help=(
        "flipped bits per faulty block (default 2)"))),
    "--selection": ("selection", dict(default="access-weighted", choices=(
        "access-weighted", "miss-weighted", "uniform", "hot", "rest",
        "stratified"), help="fault-site policy (default: %(default)s)")),
    "--scheme": ("scheme", dict(choices=SCHEME_NAMES, help=(
        "protection scheme (default: %(default)s)"))),
    "--protect": ("protect", dict(default="hot", help=(
        "none | hot | all | <N objects> | obj=scheme,... "
        "(default: hot)"))),
    "--jobs": ("jobs", dict(type=int, default=1, help=(
        "worker processes (default 1); never affects results"))),
    "--batch": ("batch", dict(type=int, default=DEFAULT_BATCH, help=(
        "runs planned and classified per batched sweep (default "
        f"{DEFAULT_BATCH}); never affects results"))),
    "--target-margin": ("target_margin", dict(
        type=float, default=None, metavar="M", help=(
            "stop at the first chunk boundary whose Wilson 95%% CI "
            "margin on the SDC rate reaches M; --runs is the budget"))),
    "--chunk-runs": ("chunk_runs", dict(type=int, default=None, help=(
        "runs per chunk, the durable unit and the --target-margin "
        "decision boundary (default: 64 under --target-margin, else "
        "--runs/16)"))),
}

#: The shared durability and sink flags, declared once.
_SHARED_FLAGS = {
    "--checkpoint-dir": dict(metavar="DIR", help=(
        "persist every completed chunk under DIR")),
    "--resume": dict(action="store_true", help=(
        "continue from the chunks already in --checkpoint-dir")),
    "--stop-after-chunks": dict(type=int, metavar="N", help=(
        "stop (exit 75, checkpointed) after N newly executed chunks")),
    "--telemetry": dict(metavar="PATH", help=(
        "write one JSONL run record per fault-injection run to PATH")),
    "--progress": dict(action="store_true", help=(
        "live one-line progress on stderr; never affects results")),
    "--trace": dict(metavar="PATH", help=(
        "also capture the golden (fault-free) timing run as Perfetto "
        "trace_events JSON at PATH")),
    "--trace-interval": dict(type=int, default=1024, help=(
        "time-series sampling period in cycles (default 1024)")),
    "--trace-max-events": dict(type=int, default=65536, help=(
        "trace ring-buffer capacity (default 65536)")),
}

_APP_FLAGS = ("--scale", "--app-seed")
_GRID_FLAGS = ("--fault-seed", "--runs", "--blocks", "--bits",
               "--selection")
_EXEC_FLAGS = ("--jobs", "--batch")
_DURABILITY_FLAGS = ("--checkpoint-dir", "--resume",
                     "--stop-after-chunks")
_TRACE_FLAGS = ("--trace", "--trace-interval", "--trace-max-events")


def _request(args, **fields) -> EvaluationRequest:
    """The one :class:`EvaluationRequest` a parsed command describes.

    Reads every request flag the subcommand declared; ``fields`` adds
    the values no flag carries (sinks, a sweep's first app).
    """
    values = {
        field: getattr(args, field)
        for field, _ in _REQUEST_FLAGS.values() if hasattr(args, field)
    }
    if "protect" in values:
        values["protect"] = _protect_level(values["protect"])
    return EvaluationRequest(**{"app": args.app, **values, **fields})


def _app_manager(request: EvaluationRequest) -> ReliabilityManager:
    """A manager for the request's application identity."""
    return ReliabilityManager(create_app(
        request.app, scale=request.scale, seed=request.app_seed))


def _protect_level(value: str) -> int | str:
    """An object count as an int; every other spelling (shorthand or
    ``obj=scheme,...``) as given, for the request to validate."""
    try:
        return int(value)
    except ValueError:
        return value


def _progress_sink(args):
    """A :class:`~repro.obs.progress.TtyProgress` for ``--progress``.

    A context manager yielding ``None`` unless the flag was given (and
    not silenced by ``-q``), so drivers take the exact pre-progress
    code path by default — the campaign engine never sees a disabled
    sink.
    """
    if not args.progress or args.quiet:
        return nullcontext()
    from repro.obs.progress import TtyProgress

    return TtyProgress()


def _cmd_apps(_args) -> int:
    log.result("Resilience-study applications (Table II):")
    for name in APPLICATIONS:
        log.result(f"  {name}")
    log.result("Flat-profile applications (Fig 3(g)-(h)):")
    for name in FLAT_APPLICATIONS:
        log.result(f"  {name}")
    return 0


def _cmd_profile(args) -> int:
    manager = _app_manager(_request(args))
    profile = manager.profile
    t3 = manager.table3()
    discovery = manager.discover_hot_objects()
    log.result(
        f"{manager.app.name}: {profile.total_reads} read transactions "
        f"over {profile.n_blocks} blocks")
    log.result(f"  max/min per-block access ratio: "
               f"{profile.max_min_ratio():.1f}x")
    log.result(f"  hot blocks: {len(manager.hot_blocks.hot_addrs)}")
    log.result(f"  hot objects (declared): {t3.hot_objects}")
    log.result(f"  hot objects (discovered): {discovery.hot_objects}")
    log.result(f"  hot footprint: {t3.hot_footprint_pct:.3f}% "
               "of app memory")
    log.result(f"  hot accesses:  {t3.hot_access_pct:.2f}% of all reads")
    return 0


def _write_golden_trace(manager: ReliabilityManager,
                        request: EvaluationRequest, args,
                        extra_events: list[dict] | None = None) -> None:
    """Capture the golden (fault-free) timing run at ``--trace``.

    The trace is recorded parent-side as one single-threaded timing
    simulation, so the output is byte-identical for any ``--jobs``
    setting — the campaign workers never touch the trace session.
    ``extra_events`` (e.g. campaign-lifecycle spans) are appended to
    the export on their own Perfetto track.
    """
    from repro.obs.perfetto import write_chrome_trace
    from repro.obs.trace import TraceConfig, TraceSession

    tracer = TraceSession(TraceConfig(
        max_events=args.trace_max_events,
        interval_cycles=args.trace_interval,
    ))
    path, scheme, protect = args.trace, request.scheme, request.protect
    log.debug("capturing golden-run trace (%s, protect=%s)",
              scheme, protect)
    manager.simulate_performance(scheme, protect, tracer=tracer)
    n = write_chrome_trace(
        tracer, path, label=f"{manager.app.name} {scheme} golden run",
        extra_events=extra_events)
    log.info(f"wrote {n} trace event(s) to {path}")


def _cmd_campaign(args) -> int:
    from repro.errors import SpecError

    request = _request(
        args, collect_records=args.telemetry is not None,
        collect_provenance=args.provenance is not None)
    if request.target_margin is None:
        for flag, value in (("--decisions", args.decisions),
                            ("--chunk-runs", request.chunk_runs)):
            if value is not None:
                raise SpecError(f"{flag} requires --target-margin")
    log.info(f"campaign: request {request.digest()}")
    manager = _app_manager(request)
    adaptive = None
    with _progress_sink(args) as progress:
        request = dataclasses.replace(request, progress=progress)
        if request.target_margin is not None:
            adaptive = manager.evaluate_adaptive(request=request)
            result = adaptive.result
        else:
            result = manager.evaluate(request=request)
    log.result(campaign_table([result]).render())
    log.result("")
    log.result(f"SDC rate: {result.sdc_interval()}")
    if adaptive is not None:
        log.result(adaptive.summary())
        if args.decisions is not None:
            from repro.obs.records import write_decisions

            n = write_decisions(args.decisions, adaptive.decisions)
            log.info(f"wrote {n} stop decision(s) to {args.decisions}")
    from repro.obs.provenance import ProvenanceWriter
    from repro.obs.records import TelemetryWriter

    for path, sink, kind in ((args.telemetry, TelemetryWriter, "run"),
                             (args.provenance, ProvenanceWriter,
                              "provenance")):
        if path is not None:
            with sink(path) as writer:
                n = writer.write_result(result)
            log.info(f"wrote {n} {kind} record(s) to {path}")
    if args.trace is not None:
        from repro.obs.perfetto import campaign_lifecycle_events

        lifecycle = campaign_lifecycle_events(
            result,
            decisions=adaptive.decisions if adaptive is not None
            else None,
        )
        _write_golden_trace(manager, request, args,
                            extra_events=lifecycle)
    return 0


def _cmd_perf(args) -> int:
    request = _request(args)
    manager = _app_manager(request)
    baseline = manager.simulate_performance("baseline", "none")
    reports = [baseline]
    if request.scheme == "baseline":
        request = dataclasses.replace(request, protect="none")
    else:
        reports.append(manager.simulate_performance(request.scheme,
                                                    request.protect))
    log.result(performance_table(reports, baseline).render())
    if args.trace is not None:
        _write_golden_trace(manager, request, args)
    return 0


def _cmd_tradeoff(args) -> int:
    from repro.analysis.tradeoff import knee_point, tradeoff_curve
    from repro.obs.records import TelemetryWriter

    request = _request(args)
    writer = (TelemetryWriter(args.telemetry)
              if args.telemetry is not None else None)
    with writer if writer is not None else nullcontext():
        points = tradeoff_curve(_app_manager(request), request,
                                telemetry=writer)
    if writer is not None:
        log.info(f"wrote {writer.n_written} run record(s) to "
                 f"{args.telemetry}")
    table = TextTable(
        ["protected", "objects", "norm-time", "norm-missed", "SDC",
         "detected", "corrected"],
        float_format="{:.3f}",
    )
    for p in points:
        table.add_row([
            p.n_protected, ",".join(p.protected_names) or "-",
            p.slowdown, p.missed_accesses_ratio, p.sdc_count,
            p.detected_count, p.corrected_count,
        ])
    log.result(table.render())
    knee = knee_point(points)
    log.result(
        f"\nsweet spot: protect {knee.n_protected} object(s) "
        f"({','.join(knee.protected_names) or 'none'}) -> "
        f"{knee.sdc_count} SDCs at {100 * (knee.slowdown - 1):+.1f}% "
        "time")
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.sweep import (
        sdc_reduction_by_app,
        summarize_sweep,
        sweep_table,
    )
    from repro.obs.session import SessionLog
    from repro.runtime.session import Session, SessionConfig, SweepSpec

    request = _request(args, app=args.app[0],
                       collect_records=args.telemetry is not None)
    grid = SweepSpec(request, apps=args.app, schemes=args.schemes,
                     protects=[_protect_level(p) for p in args.protects])
    config = SessionConfig(
        jobs=request.jobs,
        max_retries=args.max_retries,
        chunk_timeout_s=args.chunk_timeout,
        stop_after_chunks=args.stop_after_chunks,
    )
    events = (SessionLog(args.session_log)
              if args.session_log is not None else None)
    with _progress_sink(args) as progress, \
            events if events is not None else nullcontext():
        session = Session(grid, store=args.checkpoint_dir, config=config,
                          events=events, progress=progress)
        log.info(f"sweep: {len(session.requests)} cell(s) x "
                 f"{request.runs} runs, jobs={config.jobs}, "
                 f"spec {session.digest()}"
                 + (f", checkpoints in {args.checkpoint_dir}"
                    if args.checkpoint_dir else ""))
        sweep = session.run(resume=args.resume)
    rows = summarize_sweep(sweep)
    log.result(sweep_table(rows).render())
    reductions = sdc_reduction_by_app(rows)
    for app in sorted(reductions):
        for arm, pct in sorted(reductions[app].items()):
            log.result(f"{app}: {arm} reduces SDCs by {pct:.1f}% "
                       "vs baseline")
    if args.telemetry is not None:
        n = sweep.write_telemetry(args.telemetry)
        log.info(f"wrote {n} run record(s) to {args.telemetry}")
    if args.out is not None:
        from repro.utils.canonical import canonical_json

        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canonical_json(sweep.to_dict()) + "\n")
        log.info(f"wrote merged sweep results to {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    from repro.search import optimize

    if args.json:
        # --json promises machine-readable stdout; round-progress info
        # lines would corrupt it.
        configure_logging(quiet=True)
    request = _request(args)
    with _progress_sink(args) as progress:
        result = optimize(
            dataclasses.replace(request, progress=progress),
            strategy=args.strategy,
            objects=args.objects, search_seed=args.search_seed,
            population=args.population, generations=args.generations,
            max_evals=args.max_evals, store=args.checkpoint_dir,
            resume=args.resume, stop_after_chunks=args.stop_after_chunks,
            trail=args.trail, max_overhead=args.budget_overhead,
            max_replica_bytes=args.budget_memory,
        )
    if args.json:
        from repro.utils.canonical import canonical_json

        log.result(canonical_json(result.to_dict()))
        return 0
    front = {e.digest for e in result.front}
    table = TextTable(
        ["configuration", "runs", "sdc", "sdc%", "overhead%",
         "replica-bytes", "front"],
        float_format="{:.2f}",
    )
    for e in result.evaluations:
        table.add_row([
            e.point.label, e.runs, e.sdc_count, 100.0 * e.sdc_rate,
            100.0 * e.overhead, e.replica_bytes,
            "*" if e.digest in front else "",
        ])
    log.result(f"{result.app}: {len(result.evaluations)} "
               f"configuration(s) evaluated in {result.rounds} "
               f"round(s) ({result.strategy}), front size "
               f"{len(result.front)}")
    log.result(table.render())
    if args.budget_overhead is not None or args.budget_memory is not None:
        if result.best is None:
            log.result("budget: no front configuration fits")
        else:
            b = result.best
            log.result(
                f"budget pick: {b.point.label} — removes "
                f"{result.sdc_reduction(b):.1f}% of baseline SDCs at "
                f"{100.0 * b.overhead:.2f}% overhead, "
                f"{b.replica_bytes} replica bytes"
            )
    if args.out is not None:
        from repro.utils.canonical import canonical_json

        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canonical_json(result.to_dict()) + "\n")
        log.info(f"wrote search results to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.perfetto import validate_trace_file, write_chrome_trace
    from repro.obs.trace import TraceConfig, TraceSession

    request = _request(args)
    manager = _app_manager(request)
    tracer = TraceSession(TraceConfig(
        max_events=args.max_events,
        interval_cycles=args.interval,
        sample_rate=args.sample_rate,
        seed=args.sample_seed,
    ))
    report = manager.simulate_performance(
        request.scheme, request.protect, tracer=tracer)
    out = args.out or f"{args.app}.trace.json"
    n = write_chrome_trace(
        tracer, out, label=f"{manager.app.name} {request.scheme}")
    validate_trace_file(out)
    log.info(f"wrote {n} trace event(s) to {out} "
             f"(emitted {tracer.emitted}, dropped {tracer.dropped}, "
             f"{len(tracer.samples)} interval samples)")
    log.info("load at https://ui.perfetto.dev (1 us = 1 core cycle)")
    log.result(f"{manager.app.name}: {report.cycles} cycles, "
               f"{report.instructions} instructions "
               f"({request.scheme}, protect={request.protect})")
    summary = tracer.object_summary()
    if summary:
        table = TextTable(
            ["object", "loads", "l1-miss", "stall-cyc", "l2-acc",
             "dram-rd", "read-bytes"],
        )
        for name, stats in summary.items():
            table.add_row([
                name, stats["loads"], stats["l1_misses"],
                stats["stall_cycles"], stats["l2_accesses"],
                stats["dram_reads"], stats["read_bytes"],
            ])
        log.result(table.render())
    if args.objects_out is not None:
        import json

        with open(args.objects_out, "w", encoding="utf-8") as fh:
            json.dump({"app": manager.app.name,
                       "scheme": request.scheme,
                       "objects": summary}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        log.info(f"wrote object-attribution summary to "
                 f"{args.objects_out}")
    return 0


def _read_stream(command: str, path: str, kind: str,
                 what: str) -> list[dict] | None:
    """Every validated ``kind`` record of the file at ``path`` (``-``
    reads stdin), or ``None`` once ``command``'s error is logged: a
    missing file, a directory or a corrupt stream (exit code 2)."""
    from repro.errors import ReproError
    from repro.obs.records import iter_jsonl

    try:
        if path == "-":
            return list(iter_jsonl(sys.stdin, kind, "<stdin>"))
        return list(iter_jsonl(path, kind))
    except FileNotFoundError:
        log.error(f"{command}: {what} file not found: {path}")
    except IsADirectoryError:
        log.error(f"{command}: {path} is a directory, not a {what} file")
    except ReproError as exc:
        log.error(f"{command}: {exc}")
    return None


def _cmd_stats(args) -> int:
    from repro.obs.summary import summarize_records

    records = _read_stream("stats", args.file, "runs", "telemetry")
    if records is None:
        return 2
    summary = summarize_records(
        "<stdin>" if args.file == "-" else args.file, records)
    if args.json:
        from repro.utils.canonical import canonical_json

        log.result(canonical_json(summary.to_dict()))
    else:
        log.result(summary.render())
    return 0


def _cmd_vuln(args) -> int:
    from repro.analysis.report import vulnerability_table
    from repro.obs.provenance import top_sdc_objects, vulnerability_profiles

    records = _read_stream("vuln", args.file, "provenance", "provenance")
    if records is None:
        return 2
    profiles = vulnerability_profiles(records)
    if args.top is not None:
        profiles = top_sdc_objects(profiles, args.top)
    if args.json:
        from repro.utils.canonical import canonical_json

        log.result(canonical_json(
            [profile.to_dict() for profile in profiles]))
        return 0
    log.result(f"{args.file}: {len(records)} provenance record(s), "
               f"{len(profiles)} object profile(s)")
    log.result(vulnerability_table(profiles).render())
    ranked = top_sdc_objects(profiles)
    worst = [p for p in ranked if p.sdc_count > 0][:3]
    if worst:
        log.result(
            "most vulnerable: "
            + ", ".join(
                f"{p.app}/{p.scheme}:{p.object} "
                f"({p.sdc_count} SDC, {100 * p.sdc_rate:.1f}%)"
                for p in worst
            )
        )
    return 0


def _cmd_db_ingest(args) -> int:
    from repro.obs.store import ResultsStore, ingest_files

    with ResultsStore(args.store) as store:
        receipts = ingest_files(store, args.files, kind=args.kind)
    new = sum(1 for r in receipts if not r["deduped"])
    for receipt in receipts:
        state = "deduped" if receipt["deduped"] else "ingested"
        log.info(f"{state} {receipt['kind']} cell "
                 f"{receipt['digest'][:12]} ({receipt['label']}, "
                 f"{receipt['rows']} row(s))")
    log.result(f"{args.store}: {new} new cell(s), "
               f"{len(receipts) - new} deduplicated")
    return 0


def _existing_store(path: str):
    """Open the results store at ``path``; only ``db ingest`` creates
    one, so a path that is not a file is a :class:`StoreError`."""
    import os

    from repro.errors import StoreError
    from repro.obs.store import ResultsStore

    if not os.path.isfile(path):
        raise StoreError(f"no results store at {path}")
    return ResultsStore(path)


def _cmd_db_cells(args) -> int:
    with _existing_store(args.store) as store:
        cells = store.cells()
    if args.json:
        from repro.utils.canonical import canonical_json

        log.result(canonical_json(cells))
        return 0
    table = TextTable(["digest", "kind", "label", "rows"])
    for cell in cells:
        table.add_row([cell["digest"][:12], cell["kind"],
                       cell["label"], cell["rows"]])
    log.result(table.render())
    return 0


def _cmd_db_query(args) -> int:
    with _existing_store(args.store) as store:
        summaries = store.query(app=args.app, scheme=args.scheme)
    if args.json:
        from repro.utils.canonical import canonical_json

        log.result(canonical_json(summaries))
        return 0
    table = TextTable(
        ["app", "scheme", "selection", "faults", "runs", "SDC",
         "SDC rate", "CI margin"],
        float_format="{:.4f}",
    )
    for cell in summaries:
        ci = cell["sdc_interval"]
        table.add_row([
            cell["app"], cell["scheme"], cell["selection"],
            f'{cell["n_blocks"]}x{cell["n_bits"]}', cell["runs"],
            cell["outcomes"].get("sdc", 0), ci["proportion"],
            ci["margin"],
        ])
    log.result(table.render())
    return 0


def _cmd_db_export(args) -> int:
    with _existing_store(args.store) as store:
        text = store.export(args.digest)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        log.info(f"wrote {text.count(chr(10))} line(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.html import write_html_report

    with _existing_store(args.store) as store:
        n = write_html_report(store, args.out)
    log.result(f"wrote {n} byte(s) of report to {args.out}")
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.export import export_all

    request = _request(args)
    paths = export_all(_app_manager(request), args.out,
                       runs=request.runs)
    for path in paths:
        log.result(f"wrote {path}")
    return 0


def _evaluating(sub, name: str, func, flags, scheme: str | None = None,
                app_nargs: str | None = None, **kwargs):
    """Add an evaluating subcommand declaring ``flags`` from the tables.

    ``scheme`` is the subcommand's ``--scheme`` default, the one
    per-subcommand override of the request flag table; ``app_nargs``
    is the app positional's arity (``sweep`` takes several).
    """
    parser = sub.add_parser(name, **kwargs)
    parser.add_argument("app", nargs=app_nargs,
                        help="application name, e.g. P-BICG")
    for flag in flags:
        if flag in _REQUEST_FLAGS:
            field, options = _REQUEST_FLAGS[flag]
            options = dict(options, dest=field)
            if flag == "--scheme":
                options["default"] = scheme
        else:
            options = _SHARED_FLAGS[flag]
        parser.add_argument(flag, **options)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data-centric GPU reliability management (DSN'21) "
                    "reproduction",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress output (results and "
                             "errors still print)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print diagnostics to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list applications").set_defaults(
        func=_cmd_apps)

    _evaluating(sub, "profile", _cmd_profile, _APP_FLAGS,
                help="access-pattern analysis")

    p = _evaluating(
        sub, "campaign", _cmd_campaign,
        (*_APP_FLAGS, *_GRID_FLAGS, "--scheme", "--protect",
         *_EXEC_FLAGS, "--target-margin", "--chunk-runs",
         "--telemetry", "--progress", *_TRACE_FLAGS),
        scheme="baseline", help="fault-injection campaign")
    p.add_argument("--decisions", metavar="PATH", default=None,
                   help="write the adaptive stop-decision trail as "
                        "JSONL to PATH (requires --target-margin)")
    p.add_argument("--provenance", metavar="PATH", default=None,
                   help="write one JSONL fault-provenance record per "
                        "run to PATH (byte-identical at any "
                        "--jobs/--batch); feed it to `repro vuln`")

    _evaluating(sub, "perf", _cmd_perf,
                (*_APP_FLAGS, "--scheme", "--protect", *_TRACE_FLAGS),
                scheme="detection", help="timing simulation")

    _evaluating(sub, "tradeoff", _cmd_tradeoff,
                (*_APP_FLAGS, *_GRID_FLAGS, "--scheme", "--jobs",
                 "--telemetry"),
                scheme="correction", help="Section V-C sweep")

    p = _evaluating(
        sub, "sweep", _cmd_sweep,
        (*_APP_FLAGS, *_GRID_FLAGS, *_EXEC_FLAGS, "--target-margin",
         "--chunk-runs", *_DURABILITY_FLAGS, "--telemetry",
         "--progress"),
        app_nargs="+",
        help="resumable checkpointed campaign grid")
    p.add_argument("--schemes", nargs="+",
                   default=["baseline", "correction"], choices=SCHEME_NAMES,
                   help="schemes to cross with every app "
                        "(default: baseline correction)")
    p.add_argument("--protects", nargs="+", default=["hot"],
                   help="protection level(s): none | hot | all | "
                        "<N objects> | obj=scheme,... (one cell per "
                        "app, whatever --schemes) (default: hot)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries per chunk beyond the first attempt "
                        "(default 2)")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="deadline per chunk attempt (default: none)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the merged sweep results as canonical "
                        "JSON to PATH")
    p.add_argument("--session-log", metavar="PATH", default=None,
                   help="narrate orchestration (chunks, retries, "
                        "fallbacks) as JSONL events at PATH")

    p = _evaluating(
        sub, "optimize", _cmd_optimize,
        (*_APP_FLAGS, *_GRID_FLAGS, *_EXEC_FLAGS, "--chunk-runs",
         *_DURABILITY_FLAGS, "--progress"),
        help="protection design-space exploration (Pareto front over "
             "SDC rate, overhead, replica footprint)")
    p.add_argument("--strategy", default="greedy",
                   choices=("exhaustive", "greedy", "evolutionary",
                            "random"),
                   help="search strategy (default: greedy, seeded "
                        "from per-object vulnerability attribution)")
    p.add_argument("--objects", type=int, default=None, metavar="N",
                   help="restrict the design space to the first N "
                        "objects of the importance order "
                        "(default: all)")
    p.add_argument("--search-seed", type=int, default=1,
                   help="strategy randomness seed (default 1); part "
                        "of the search identity")
    p.add_argument("--population", type=int, default=12,
                   help="evolutionary/random candidates per round "
                        "(default 12)")
    p.add_argument("--generations", type=int, default=6,
                   help="evolutionary generations (default 6)")
    p.add_argument("--max-evals", type=int, default=None, metavar="N",
                   help="stop after N evaluated configurations")
    p.add_argument("--budget-overhead", type=float, default=None,
                   metavar="F",
                   help="budget solver: best SDC reduction with "
                        "simulated overhead <= F (e.g. 0.02 = 2%%)")
    p.add_argument("--budget-memory", type=int, default=None,
                   metavar="BYTES",
                   help="budget solver: replica footprint <= BYTES")
    p.add_argument("--trail", metavar="PATH", default=None,
                   help="write the per-round search decision log as "
                        "JSONL at PATH (byte-identical at any "
                        "--jobs/--batch and across resume)")
    p.add_argument("--json", action="store_true",
                   help="print the full search result as canonical "
                        "JSON instead of tables")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the search result as canonical "
                        "JSON to PATH")

    p = _evaluating(
        sub, "trace", _cmd_trace, (*_APP_FLAGS, "--scheme", "--protect"),
        scheme="baseline",
        help="cycle-level trace of one timing run (Perfetto JSON)")
    p.add_argument("--out", default=None,
                   help="output path (default: <app>.trace.json)")
    p.add_argument("--objects-out", metavar="PATH", default=None,
                   help="also write the per-object attribution "
                        "summary as JSON to PATH")
    p.add_argument("--interval", type=int, default=1024,
                   help="time-series sampling period in cycles "
                        "(default 1024)")
    p.add_argument("--max-events", type=int, default=65536,
                   help="trace ring-buffer capacity (default 65536)")
    p.add_argument("--sample-rate", type=float, default=1.0,
                   help="keep fraction for high-frequency events "
                        "(default 1.0)")
    p.add_argument("--sample-seed", type=int, default=20210621,
                   help="RNG seed of the sampling coin flips")

    p = sub.add_parser("stats",
                       help="summarize a telemetry JSONL file")
    p.add_argument("file", help="telemetry JSONL written by "
                                "--telemetry, or - for stdin")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as canonical JSON instead "
                        "of the text table")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "vuln",
        help="per-object vulnerability profiles from a provenance "
             "file")
    p.add_argument("file", help="provenance JSONL written by "
                                "campaign --provenance, or - for "
                                "stdin")
    p.add_argument("--json", action="store_true",
                   help="emit the profiles as canonical JSON instead "
                        "of the text table")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="keep only the N objects with the most SDC "
                        "attributions")
    p.set_defaults(func=_cmd_vuln)

    p = sub.add_parser(
        "db",
        help="the SQLite results warehouse (ingest/cells/query/"
             "export)")
    dbsub = p.add_subparsers(dest="db_command", required=True)

    d = dbsub.add_parser(
        "ingest",
        help="load JSONL/JSON result files into a store; re-ingest "
             "of identical content is a no-op")
    d.add_argument("store", help="SQLite store path (created on "
                                 "first use)")
    d.add_argument("files", nargs="+", metavar="FILE",
                   help="telemetry / provenance / decision / "
                        "session-event JSONL or BENCH_*.json files")
    d.add_argument("--kind", default=None,
                   choices=("runs", "provenance", "decisions",
                            "session", "bench"),
                   help="force the record kind (default: "
                        "auto-detect per file)")
    d.set_defaults(func=_cmd_db_ingest)

    d = dbsub.add_parser("cells",
                         help="list the warehoused cells")
    d.add_argument("store")
    d.add_argument("--json", action="store_true",
                   help="emit canonical JSON instead of the table")
    d.set_defaults(func=_cmd_db_cells)

    d = dbsub.add_parser(
        "query",
        help="per-cell outcome tallies with Wilson CIs")
    d.add_argument("store")
    d.add_argument("--app", default=None,
                   help="restrict to one application")
    d.add_argument("--scheme", default=None,
                   help="restrict to one protection scheme")
    d.add_argument("--json", action="store_true",
                   help="emit canonical JSON instead of the table")
    d.set_defaults(func=_cmd_db_query)

    d = dbsub.add_parser(
        "export",
        help="reconstruct one cell's canonical JSONL, byte-identical "
             "to the ingested file")
    d.add_argument("store")
    d.add_argument("digest", help="full cell digest (see `db cells`)")
    d.add_argument("--out", metavar="PATH", default=None,
                   help="write to PATH instead of stdout")
    d.set_defaults(func=_cmd_db_export)

    p = sub.add_parser(
        "report",
        help="render a results warehouse as one static HTML page")
    p.add_argument("store", help="SQLite store written by `db ingest`")
    p.add_argument("--out", metavar="PATH", default="report.html",
                   help="output HTML path (default: report.html)")
    p.set_defaults(func=_cmd_report)

    p = _evaluating(sub, "export", _cmd_export, (*_APP_FLAGS, "--runs"),
                    help="write exhibit data to CSV")
    p.add_argument("--out", default="results",
                   help="output directory (default: results/)")

    return parser


def _exit_code_for(exc) -> int:
    """Map a library error to its exit code; first match wins, so
    subclasses come before their bases.  75 is BSD's EX_TEMPFAIL —
    "try again later" — the natural fit for interrupted-but-
    checkpointed."""
    from repro import errors

    mapping = (
        (errors.SessionInterrupted, 75),
        (errors.SessionError, 6),
        (errors.CheckpointError, 5),
        (errors.StoreError, 7),
        (errors.UnknownAppError, 3),
        (errors.UnknownSchemeError, 3),
        (errors.ConfigError, 4),
    )
    for klass, code in mapping:
        if isinstance(exc, klass):
            return code
    return 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.errors.ReproError`) are rendered to
    stderr and mapped to distinct exit codes — see the module
    docstring.  An interrupted sweep (``SIGINT`` or
    ``--stop-after-chunks``) exits 75 with its progress checkpointed.
    """
    from repro.errors import ReproError, SpecError

    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        if getattr(args, "resume", False) and args.checkpoint_dir is None:
            raise SpecError("--resume requires --checkpoint-dir")
        return args.func(args)
    except ReproError as exc:
        log.error(f"{args.command}: {exc}")
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
