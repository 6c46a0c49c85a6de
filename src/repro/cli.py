"""The ``bugnet`` command line: record, ship, ingest, triage, replay,
debug, autopsy.

The full production workflow from the paper, as a tool::

    # user site: run the program; on a crash the logs are shipped
    bugnet run app.s --input "AAAA..." --output crash.bugnet

    # developer site: same binary + the shipment
    bugnet report crash.bugnet [--json]
    bugnet replay app.s crash.bugnet --tail 15
    bugnet debug  app.s crash.bugnet --watch 0x10001000 --why t0
    bugnet autopsy app.s crash.bugnet      # automated root cause
    bugnet disasm app.s --start main

    # fleet site: validate + dedup floods of shipments, then triage
    bugnet ingest --store ./fleet --source app.s crash.bugnet ...
    bugnet triage --store ./fleet --limit 10 [--autopsy]
    bugnet fleet-sim --runs 50          # synthesize realistic traffic
    bugnet autopsy --store ./fleet --json   # root-cause every bucket

    # live fleet site: a long-running ingestion endpoint + load driver
    bugnet serve --store ./fleet --port 7077
    bugnet load-sim --port 7077 --runs 200 --concurrency 8
    curl http://127.0.0.1:7077/stats
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

from repro.arch.assembler import assemble
from repro.arch.disasm import disassemble, listing, symbol_map
from repro.common.config import BugNetConfig, MachineConfig
from repro.fleet.ingest import IngestPipeline, resolver_from_sources
from repro.fleet.store import ReportStore
from repro.fleet.triage import build_buckets, render_triage
from repro.mp.machine import Machine
from repro.replay.debugger import ReplayDebugger
from repro.replay.replayer import Replayer
from repro.tracing.serialize import read_crash_report, save_crash_report


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return assemble(handle.read(), name=path)


def _cmd_run(args) -> int:
    program = _load_program(args.source)
    machine = Machine(
        program,
        MachineConfig(num_cores=args.cores, timer_interval=args.timer),
        BugNetConfig(checkpoint_interval=args.interval),
        dma_delay=args.dma_delay,
    )
    if args.input:
        machine.input.push_string(args.input)
    for index in range(args.threads):
        entry = args.entry[index] if index < len(args.entry) else "main"
        machine.spawn(entry=entry)
    result = machine.run(max_instructions=args.max_instructions)
    if result.console_text:
        print(f"[console] {result.console_text}")
    if result.timed_out:
        print(f"timed out after {result.global_steps} instructions",
              file=sys.stderr)
        return 2
    if result.crashed:
        print(result.crash.summary())
        if args.output:
            written = save_crash_report(args.output, result.crash,
                                        machine.bugnet)
            print(f"crash report written to {args.output} ({written} bytes)")
        return 1
    codes = ", ".join(f"t{tid}={code}" for tid, code in
                      sorted(result.exit_codes.items()))
    print(f"exited cleanly ({codes}); {result.global_steps} instructions")
    return 0


def _report_dict(report, config) -> dict:
    """The machine-readable ``bugnet report --json`` shape (consumed by
    the ingestion tooling and the CI smoke step)."""
    return {
        "program": report.program_name,
        "pid": report.pid,
        "fault": {
            "kind": report.fault_kind,
            "message": report.fault_message,
            "pc": report.fault_pc,
            "source_line": report.fault_source_line,
            "tid": report.faulting_tid,
        },
        "threads": {
            str(tid): {
                "checkpoints": len(report.checkpoints[tid]),
                # The grounded window `bugnet replay`/ingest can actually
                # deliver; resident_window additionally counts any
                # ungrounded prefix left behind by eviction.
                "replay_window": sum(
                    fll.end_ic for fll in report.replay_chain(tid)
                ),
                "resident_window": report.replay_window(tid),
                "fll_bytes": report.fll_bytes(config, tid),
                "mrl_bytes": report.mrl_bytes(config, tid),
                "total_instructions": report.total_instructions.get(tid, 0),
            }
            for tid in report.thread_ids
        },
        "shipment_bytes": report.total_bytes(config),
        "recorder": {
            "checkpoint_interval": config.checkpoint_interval,
            "reduced_lcount_bits": config.reduced_lcount_bits,
            "dictionary_entries": config.dictionary.entries,
            "log_memory_budget": config.log_memory_budget,
            "bit_clear_period": config.bit_clear_period,
        },
    }


def _cmd_report(args) -> int:
    report, config = read_crash_report(args.report)
    if args.json:
        print(json.dumps(_report_dict(report, config), indent=2))
        return 0
    print(report.summary())
    print(f"  recorder interval : {config.checkpoint_interval}")
    print(f"  shipment size     : {report.total_bytes(config)} bytes "
          f"(FLL {report.fll_bytes(config)}, MRL {report.mrl_bytes(config)})")
    return 0


def _cmd_replay(args) -> int:
    program = _load_program(args.source)
    report, config = read_crash_report(args.report)
    tid = report.faulting_tid if args.tid is None else args.tid
    # The grounded chain (earliest resident major checkpoint onward) —
    # the same sequence ingest-time validation proved replayable.
    flls = report.replay_chain(tid)
    if not flls:
        available = ", ".join(str(t) for t in report.thread_ids) or "none"
        print(f"error: no replayable logs for thread {tid} "
              f"(threads with logs: {available})", file=sys.stderr)
        return 3
    replayer = Replayer(program, config)
    replays = replayer.replay(flls)
    events = [event for replay in replays for event in replay.events]
    symbols = symbol_map(program)
    print(f"replayed {len(events)} instructions for thread {tid} across "
          f"{len(flls)} checkpoint(s)")
    tail = events[-args.tail:] if args.tail else []
    for event in tail:
        ins = program.fetch(event.pc)
        text = disassemble(ins, symbols) if ins else "???"
        extra = ""
        if event.load:
            mark = "*" if event.from_log else ""
            extra = f"   ; load{mark} [{event.load[0]:#x}] = {event.load[1]:#x}"
        elif event.store:
            extra = f"   ; store [{event.store[0]:#x}] <- {event.store[1]:#x}"
        print(f"  {event.ic:>8}  {event.pc:#010x}  {text}{extra}")
    if replays and replays[-1].fll.fault_pc is not None:
        print(f"execution faults next at pc={replays[-1].fll.fault_pc:#010x} "
              f"({report.fault_kind}: {report.fault_message})")
    return 0


def _parse_watch(spec: str) -> tuple[int, int]:
    """``ADDR`` or ``ADDR:SIZE`` → (addr, size) for a sized watchpoint."""
    if ":" in spec:
        addr, size = spec.split(":", 1)
        return int(addr, 0), int(size, 0)
    return int(spec, 0), 4


def _cmd_debug(args) -> int:
    program = _load_program(args.source)
    report, config = read_crash_report(args.report)
    tid = report.faulting_tid if args.tid is None else args.tid
    debugger = ReplayDebugger(program, config, report.replay_chain(tid))
    for label in args.breakpoints:
        debugger.add_breakpoint(label)
    for spec in args.watch:
        debugger.add_watchpoint(*_parse_watch(spec))
    stops = 0
    while stops < args.stops:
        stop = debugger.run()
        print(stop)
        print(f"  {debugger.where()}")
        if stop.kind == "end":
            break
        stops += 1
        if stop.kind == "watchpoint":
            event = debugger.last_event()
            addr = (event.store or event.load)[0]
            writer = debugger.last_writer(addr)
            if writer is not None:
                line = program.source_line_of(writer.pc)
                print(f"  last writer: pc={writer.pc:#010x} "
                      f"(line {line}) value={writer.store[1]:#x}")
    for what in args.why:
        try:
            target = int(what, 0)
        except ValueError:
            target = what
        print(f"why {what}:")
        print(debugger.why(target))
    return 0


def _print_ingest_results(results, store, elapsed, as_json) -> None:
    from repro.analysis.report import format_rate

    accepted = [r for r in results if r.accepted]
    rejected = [r for r in results if not r.accepted]
    if as_json:
        print(json.dumps({
            "ingested": len(results),
            "accepted": len(accepted),
            "rejected": [
                {"label": r.label, "reason": r.reason} for r in rejected
            ],
            "signatures": sorted({r.digest for r in accepted}),
            "store_reports": len(store),
            "store_bytes": store.total_bytes,
            "evicted_reports": store.evicted_reports,
            "reports_per_sec": round(len(results) / elapsed, 1) if elapsed else None,
        }, indent=2))
        return
    for result in results:
        if result.accepted:
            print(f"  + {result.label}: signature {result.signature.short} "
                  f"(replayed {result.instructions_replayed} instructions)")
        else:
            print(f"  - {result.label}: REJECTED ({result.reason})",
                  file=sys.stderr)
    print(f"ingested {len(accepted)}/{len(results)} report(s) in "
          f"{elapsed:.2f}s ({format_rate(len(results), elapsed, 'reports')}); "
          f"store holds {len(store)} report(s), "
          f"{store.evicted_reports} evicted")


def _expand_report_paths(specs) -> "tuple[list, list[str], list[str]]":
    """Expand report arguments: files stay files, directories expand to
    their ``*.bugnet`` contents.  Returns (paths, notes, errors):
    notes describe routine empty/missing *directories* (a fleet
    drop-off with nothing in it); errors name explicitly-given report
    *files* that do not exist (a typo'd path must not exit 0)."""
    from pathlib import Path

    paths = []
    notes = []
    errors = []
    for spec in specs:
        path = Path(spec)
        if path.is_dir():
            found = sorted(path.glob("*.bugnet"))
            if not found:
                notes.append(f"directory {spec} contains no .bugnet reports")
            paths.extend(found)
        elif path.exists():
            paths.append(path)
        elif spec.endswith(".bugnet"):
            errors.append(f"no such report file: {spec}")
        else:
            notes.append(f"no such report directory: {spec}")
    return paths, notes, errors


def _cmd_ingest(args) -> int:
    if args.cluster is None and args.store is None:
        print("error: --store is required (or --cluster to upload to a "
              "live cluster)", file=sys.stderr)
        return 2
    if args.cluster is None:
        sources = [(path, _load_program(path)) for path in args.source]
        if not sources:
            print("error: at least one --source binary is required",
                  file=sys.stderr)
            return 2
    paths, notes, errors = _expand_report_paths(args.reports)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 2
    if not paths:
        # Empty fleet drop-offs are routine, not an error — and not a
        # reason to create or touch the store.
        if args.json:
            print(json.dumps({"ingested": 0, "accepted": 0, "rejected": [],
                              "signatures": []}))
        else:
            print("0 reports to ingest")
        return 0
    if args.cluster is not None:
        return _ingest_into_cluster(args, paths)
    store = ReportStore(args.store, num_shards=args.shards,
                        byte_budget=args.budget)
    pipeline = IngestPipeline(
        store, resolver_from_sources(sources),
        workers=args.workers, probe=not args.no_probe,
        admit_cache=_admit_cache_for(args, store),
    )
    start = time.perf_counter()
    results = pipeline.ingest_paths(paths)
    elapsed = time.perf_counter() - start
    _print_ingest_results(results, store, elapsed, args.json)
    return 1 if pipeline.rejected else 0


def _admit_cache_for(args, store):
    """The dedup-before-validate cache over *store*, warm from every
    earlier commit to it (``--no-admit-cache`` disables it)."""
    if getattr(args, "no_admit_cache", False):
        return None
    from repro.fleet.admitcache import AdmitCache

    return AdmitCache(
        store,
        seed=getattr(args, "admit_seed", 0) or 0,
        reverify_fraction=getattr(args, "reverify_fraction", 0.05),
    )


def _ingest_into_cluster(args, paths) -> int:
    """``bugnet ingest --cluster``: upload report files ring-routed to
    a live serve cluster (the server side validates and resolves
    programs; no local store is touched)."""
    import asyncio

    from repro.fleet.cluster.router import run_cluster_load_sim
    from repro.fleet.cluster.topology import ClusterSpec

    spec = ClusterSpec.load(args.cluster)
    # Empty upload_id: the receiving node synthesizes a blob-hash id,
    # so re-running the same drop-off directory stays idempotent.
    items = [(str(path), path.read_bytes(), "") for path in paths]
    report = asyncio.run(run_cluster_load_sim(
        spec, items, concurrency=max(args.workers, 1),
    ))
    if args.json:
        print(json.dumps({
            "ingested": len(items),
            "accepted": len(report.accepted),
            "duplicates": sum(1 for o in report.outcomes if o.duplicate),
            "rejected": [
                {"label": o.label, "reason": o.reason}
                for o in report.rejected + report.failed
            ],
            "signatures": sorted({
                o.signature for o in report.accepted if o.signature
            }),
        }, indent=2))
    else:
        print(f"cluster ingest: {len(report.accepted)} accepted, "
              f"{len(report.rejected)} rejected, "
              f"{len(report.failed)} failed "
              f"across {len(spec.nodes)} node(s)")
        for outcome in report.rejected + report.failed:
            print(f"  - {outcome.label}: {outcome.status} "
                  f"({outcome.reason})")
    return 1 if (report.rejected or report.failed) else 0


def _store_resolver(binaries):
    """Program resolver for store-wide analyses: explicit ``--binary``
    sources first, then the Table-1 bug suite (fleet-sim traffic names
    programs by bug name, so whole-fleet autopsies run unattended)."""
    from repro.forensics.autopsy import bug_suite_resolver

    extra = {}
    for path in binaries:
        program = _load_program(path)
        extra[path] = program
        extra[path.rsplit("/", 1)[-1]] = program
    return bug_suite_resolver(extra)


def _cmd_triage(args) -> int:
    from pathlib import Path

    store_path = Path(args.store)
    if not (store_path / "store.json").exists():
        if store_path.is_dir():
            # An existing-but-empty store directory is the routine
            # "nothing has been ingested yet" case, not an error.
            if args.json:
                print(json.dumps({"buckets": [], "store_reports": 0,
                                  "store_bytes": 0, "evicted_reports": 0}))
            else:
                print(f"store {args.store} is empty: 0 reports to triage")
            return 0
        print(f"error: no fleet store at {args.store} "
              f"(create one with `bugnet ingest` or `bugnet fleet-sim`)",
              file=sys.stderr)
        return 2
    store = ReportStore(args.store)
    buckets = build_buckets(store)
    autopsies = None
    if args.autopsy:
        from repro.forensics.autopsy import autopsy_store

        results = autopsy_store(
            store, _store_resolver(args.binary),
            workers=args.workers, limit=args.limit,
        )
        autopsies = {result.digest: result for result in results}
    if args.json:
        payload = []
        for bucket in buckets:
            entry = bucket.to_dict()
            if autopsies is not None and bucket.digest in autopsies:
                entry["autopsy"] = autopsies[bucket.digest].to_dict()
            payload.append(entry)
        print(json.dumps({
            "buckets": payload,
            "store_reports": len(store),
            "store_bytes": store.total_bytes,
            "evicted_reports": store.evicted_reports,
        }, indent=2))
        return 0
    if not buckets:
        print("store is empty: 0 reports to triage")
        return 0
    print(render_triage(buckets, limit=args.limit, autopsies=autopsies))
    return 0


def _cmd_autopsy(args) -> int:
    from repro.forensics.autopsy import autopsy_store, perform_autopsy

    if args.store:
        from pathlib import Path

        if args.source or args.report:
            print("error: give either --store or a source+report pair, "
                  "not both", file=sys.stderr)
            return 2
        if not (Path(args.store) / "store.json").exists():
            print(f"error: no fleet store at {args.store}", file=sys.stderr)
            return 2
        store = ReportStore(args.store)
        results = autopsy_store(
            store, _store_resolver(args.binary),
            workers=args.workers, limit=args.limit,
            races=not args.no_races,
        )
        failed = [r for r in results if r.autopsy is None]
        if args.json:
            print(json.dumps({
                "buckets": [result.to_dict() for result in results],
                "store_reports": len(store),
                "analyzed": len(results) - len(failed),
                "failed": len(failed),
            }, indent=2))
        else:
            for result in results:
                if result.autopsy is not None:
                    print(f"== bucket {result.digest[:12]} "
                          f"({result.count} report(s))")
                    print(result.autopsy.render())
                else:
                    print(f"== bucket {result.digest[:12]}: {result.error}",
                          file=sys.stderr)
                print()
        return 1 if failed else 0
    if not args.source or not args.report:
        print("error: need a source and a crash report (or --store)",
              file=sys.stderr)
        return 2
    program = _load_program(args.source)
    report, config = read_crash_report(args.report)
    autopsy = perform_autopsy(report, config, program,
                              races=not args.no_races)
    if args.json:
        print(json.dumps(autopsy.to_dict(), indent=2))
    else:
        print(autopsy.render())
    return 0


def _parse_bug_names(spec: "str | None") -> "list[str] | None":
    """Validate a ``--bugs`` list against the suite; None on error.

    Two aliases expand in place: ``mt`` — the paper's multithreaded
    programs (multi-core racy traffic), ``default`` — the fast
    single-thread subset.  ``--bugs default,gaim-0.82.1`` mixes both
    traffic classes in one corpus.
    """
    from repro.fleet.loadsim import DEFAULT_BUGS, MT_BUGS
    from repro.workloads.bugs import BUGS_BY_NAME

    names = []
    for name in (spec.split(",") if spec else ["default"]):
        if name == "mt":
            names.extend(MT_BUGS)
        elif name == "default":
            names.extend(DEFAULT_BUGS)
        else:
            names.append(name)
    unknown = [name for name in names if name not in BUGS_BY_NAME]
    if unknown:
        print(f"error: unknown bug(s): {', '.join(unknown)} "
              f"(see workloads/bugs.py)", file=sys.stderr)
        return None
    return names


def _cmd_fleet_sim(args) -> int:
    """Synthesize fleet traffic from the Table-1 bug suite and ingest it."""
    from repro.fleet.loadsim import synthesize_corpus

    names = _parse_bug_names(args.bugs)
    if names is None:
        return 2
    if args.nodes is not None:
        return _fleet_sim_cluster(args, names)
    programs, corpus, failures = synthesize_corpus(
        args.runs, names, seed=args.seed, corrupt=args.corrupt,
        duplicate_fraction=args.duplicate_fraction,
    )
    # observed_at None: store-monotonic, survives store reuse.
    items = [(label, blob, None) for label, blob, _upload_id in corpus]
    crashes = sum(1 for label, _b, _u in corpus
                  if not label.startswith("corrupt-"))
    corrupted = len(corpus) - crashes
    store_dir = args.store or tempfile.mkdtemp(prefix="bugnet-fleet-")
    store = ReportStore(store_dir, num_shards=args.shards,
                        byte_budget=args.budget)
    pipeline = IngestPipeline(store, programs.get, workers=args.workers,
                              admit_cache=_admit_cache_for(args, store))
    start = time.perf_counter()
    results = pipeline.ingest_many(items)
    elapsed = time.perf_counter() - start
    buckets = build_buckets(store)
    if args.json:
        print(json.dumps({
            "runs": args.runs,
            "crashes": crashes,
            "non_crashing_runs": failures,
            "corrupt_injected": corrupted,
            "accepted": pipeline.accepted,
            "rejected": pipeline.rejected,
            "cache_hits": pipeline.cache_hits,
            "reverified": pipeline.reverified,
            "buckets": [bucket.to_dict() for bucket in buckets],
            "store": store_dir,
        }, indent=2))
        return 0
    print(f"fleet-sim: {args.runs} run(s), {crashes} crash report(s), "
          f"{corrupted} corrupted blob(s) injected")
    print(f"ingest: {pipeline.accepted} accepted, {pipeline.rejected} "
          f"rejected in {elapsed:.2f}s"
          + (f" ({pipeline.cache_hits} cache hit(s), "
             f"{pipeline.reverified} reverified)"
             if pipeline.cache_hits or pipeline.reverified else ""))
    for result in results:
        if not result.accepted:
            print(f"  - {result.label}: rejected ({result.reason})")
    print()
    print(render_triage(buckets))
    print(f"\nstore: {store_dir} ({len(store)} report(s) in "
          f"{store.num_shards} shard(s))")
    return 0


def _fleet_sim_cluster(args, names) -> int:
    """``bugnet fleet-sim --nodes N``: the whole-cluster scenario —
    real serve subprocesses, ring-routed load, a mid-run kill -9, and
    the zero-loss/convergence/reconciliation contract checks.  With
    ``--elastic``: a mid-load add-node and decommission instead of the
    kill, plus the epoch/quorum contract checks."""
    from repro.fleet.cluster.harness import run_cluster_sim

    if args.elastic:
        return _fleet_sim_elastic(args, names)
    store_dir = args.store or tempfile.mkdtemp(prefix="bugnet-cluster-")
    try:
        summary = run_cluster_sim(
            store_dir,
            runs=args.runs,
            nodes=args.nodes,
            replication=args.replication,
            bug_names=names,
            seed=args.seed,
            corrupt=args.corrupt,
            kill=not args.no_kill,
            concurrency=args.concurrency,
            workers=args.workers if args.workers else 0,
            retain=args.retain,
        )
    except AssertionError as error:
        print(f"error: cluster contract violated: {error}",
              file=sys.stderr)
        return 1
    if args.json:
        summary["store"] = store_dir
        print(json.dumps(summary, indent=2))
        return 0
    print(f"fleet-sim: {args.nodes}-node cluster "
          f"(replication {args.replication}), {args.runs} run(s)")
    killed = summary["killed_node"]
    if killed is not None:
        print(f"  killed {killed} with SIGKILL mid-load; "
              f"it rejoined and converged")
    print(f"  accepted {summary['accepted']} "
          f"(duplicates {summary['duplicates']}), "
          f"rejected {summary['rejected']}, failed {summary['failed']}, "
          f"lost {summary['lost']}")
    print(f"  every accepted report on >= {summary['min_copies']} "
          f"node(s); per node: "
          + ", ".join(f"{node}={count}" for node, count
                      in summary["per_node_reports"].items()))
    print(f"  /metrics vs /stats: "
          f"{'reconciled' if summary['reconciled'] else 'MISMATCH'}")
    print(f"  cluster root: {store_dir}")
    return 0


def _fleet_sim_elastic(args, names) -> int:
    """``bugnet fleet-sim --nodes 3 --elastic``: topology change under
    load (add-node mid-load, then decommission an original member)."""
    from repro.fleet.cluster.harness import run_elasticity_sim

    store_dir = args.store or tempfile.mkdtemp(prefix="bugnet-elastic-")
    try:
        summary = run_elasticity_sim(
            store_dir,
            runs=args.runs,
            replication=args.replication,
            bug_names=names,
            seed=args.seed,
            corrupt=args.corrupt,
            concurrency=args.concurrency,
            workers=args.workers if args.workers else 0,
        )
    except AssertionError as error:
        print(f"error: elasticity contract violated: {error}",
              file=sys.stderr)
        return 1
    except (TimeoutError, RuntimeError) as error:
        print(f"error: topology change did not converge: {error}",
              file=sys.stderr)
        return 1
    if args.json:
        summary["store"] = store_dir
        print(json.dumps(summary, indent=2))
        return 0
    epochs = summary["epochs"]
    print(f"fleet-sim --elastic: {summary['nodes_initial']}-node cluster "
          f"(replication {summary['replication']}), {args.runs} run(s)")
    print(f"  added {summary['added_node']} mid-load: streamed "
          f"{summary['streamed']} report(s) "
          f"(~{summary['range_span_added']:.1%} of the keyspace) before "
          f"the epoch-{epochs['after_add']} routing flip")
    print(f"  decommissioned {summary['decommissioned_node']}: drained "
          f"{summary['drained']} report(s), dropped at epoch "
          f"{epochs['final']}")
    print(f"  accepted {summary['accepted']} "
          f"(duplicates {summary['duplicates']}), "
          f"rejected {summary['rejected']}, failed {summary['failed']}, "
          f"lost {summary['lost']}")
    print(f"  every accepted report on >= {summary['min_copies']} "
          f"final member(s); per node: "
          + ", ".join(f"{node}={count}" for node, count
                      in summary["per_node_reports"].items()))
    print(f"  quorum read: epoch {summary['quorum']['epoch']}, stale "
          f"answer from {summary['decommissioned_node']} "
          f"{'flagged' if summary['stale_flagged'] else 'NOT flagged'}")
    print(f"  /metrics vs /stats: "
          f"{'reconciled' if summary['reconciled'] else 'MISMATCH'}")
    print(f"  cluster root: {store_dir}")
    return 0


def _cmd_serve(args) -> int:
    """Run the live ingestion endpoint until SIGINT/SIGTERM."""
    import asyncio
    import signal

    from repro.fleet.service import (
        FleetService,
        ServiceConfig,
        default_workers,
    )
    from repro.fleet.validate import ResolverSpec

    if (args.cluster is None) != (args.node_id is None):
        print("error: --cluster and --node-id go together",
              file=sys.stderr)
        return 2
    spec = ResolverSpec.from_paths(
        args.source, include_bug_suite=not args.no_bug_suite,
    )
    workers = default_workers() if args.workers is None else args.workers
    config = ServiceConfig(
        host=args.host, port=args.port,
        queue_limit=args.queue_limit,
        workers=workers,
        validate_chunk=args.validate_chunk,
        commit_batch=args.commit_batch,
        probe=not args.no_probe,
        log_json=args.log_json,
        admit_cache=not args.no_admit_cache,
        reverify_fraction=args.reverify_fraction,
        admit_seed=args.admit_seed,
    )
    cluster_banner = ""
    if args.cluster is not None:
        from repro.fleet.cluster.node import ClusterNodeService
        from repro.fleet.cluster.topology import ClusterSpec

        cluster_spec = ClusterSpec.load(args.cluster)
        try:
            member = cluster_spec.node(args.node_id)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        # The spec is the cluster's single source of addressing truth:
        # this member listens where every peer expects to find it.
        config.host, config.port = member.host, member.port
        service = ClusterNodeService(
            args.store, spec, cluster_spec, args.node_id, config,
            num_shards=args.shards,
            byte_budget=args.budget,
            fsync=args.fsync,
            retention_window=args.retain,
        )
        cluster_banner = (
            f", cluster member {args.node_id} of "
            f"{len(cluster_spec.nodes)} (replication "
            f"{cluster_spec.replication})"
        )
    else:
        service = FleetService(
            args.store, spec, config,
            num_shards=args.shards,
            byte_budget=args.budget,
            fsync=args.fsync,
            retention_window=args.retain,
        )

    async def _run() -> None:
        host, port = await service.start()
        print(f"bugnet serve: listening on {host}:{port} "
              f"(store {args.store}, {workers} validation "
              f"worker{'s' if workers != 1 else ''}, "
              f"queue {args.queue_limit}{cluster_banner})", flush=True)
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop_event.set)
        except NotImplementedError:
            # Non-POSIX event loops (Windows) have no signal handlers;
            # fall back to the KeyboardInterrupt that asyncio.run
            # delivers on Ctrl-C.
            pass
        await stop_event.wait()
        print("bugnet serve: draining and shutting down", flush=True)
        await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        # Windows path (no loop signal handlers): Ctrl-C lands here
        # after asyncio.run tore the loop down; nothing left to drain.
        print("bugnet serve: interrupted", file=sys.stderr)
        return 130
    return 0


def _cmd_load_sim(args) -> int:
    """Drive a running ``bugnet serve`` with synthesized fleet traffic."""
    import asyncio

    from repro.fleet.loadsim import (
        ServiceClient,
        crosscheck_metrics,
        fetch_metrics,
        run_load_sim,
        synthesize_corpus,
    )
    from repro.fleet.wire import FrameError

    names = _parse_bug_names(args.bugs)
    if names is None:
        return 2
    _programs, items, failures = synthesize_corpus(
        args.runs, names, seed=args.seed, corrupt=args.corrupt,
        id_prefix=args.id_prefix,
        duplicate_fraction=args.duplicate_fraction,
    )
    check_metrics = not args.no_metrics_check
    cluster_spec = None
    if args.cluster is not None:
        from repro.fleet.cluster.topology import ClusterSpec

        cluster_spec = ClusterSpec.load(args.cluster)

    async def _scrape():
        """Parsed /metrics — one node's, or the cluster-wide sum."""
        if cluster_spec is None:
            return await fetch_metrics(args.host, args.port)
        from repro.fleet.cluster.admin import (
            aggregate_metrics,
            cluster_metrics,
        )

        return aggregate_metrics(await cluster_metrics(cluster_spec))

    async def _run():
        before = None
        if check_metrics:
            try:
                before = await _scrape()
            except (ConnectionError, OSError):
                before = None
        if cluster_spec is not None:
            from repro.fleet.cluster.router import run_cluster_load_sim

            report = await run_cluster_load_sim(
                cluster_spec, items,
                concurrency=args.concurrency,
                max_attempts=args.max_attempts,
                seed=args.seed,
            )
        else:
            report = await run_load_sim(
                args.host, args.port, items,
                concurrency=args.concurrency,
                max_attempts=args.max_attempts,
                seed=args.seed,
            )
        stats = after = None
        if cluster_spec is not None:
            from repro.fleet.cluster.admin import (
                aggregate_stats,
                cluster_stats,
            )

            stats = aggregate_stats(await cluster_stats(cluster_spec))
        else:
            client = ServiceClient(args.host, args.port)
            try:
                stats = await client.stats()
            except (ConnectionError, OSError, FrameError):
                # Best-effort epilogue: the service may have gone away
                # (or cut the reply short) after the uploads finished;
                # the load report itself still stands.
                pass
            finally:
                await client.close()
        if before is not None:
            try:
                after = await _scrape()
            except (ConnectionError, OSError):
                after = None
        return report, stats, before, after

    report, stats, before, after = asyncio.run(_run())
    payload = report.to_dict()
    payload["non_crashing_runs"] = failures
    mismatches: "list[str]" = []
    if check_metrics:
        # Cross-check the client's tallies against the server's
        # /metrics counter deltas: the two bookkeepers counted the same
        # run independently, so any disagreement is a lost-update bug
        # (or a scrape that couldn't happen — reported, not fatal).
        if before is None or after is None:
            payload["metrics_check"] = "unavailable (no /metrics scrape)"
        else:
            mismatches, note = crosscheck_metrics(before, after, report)
            payload["metrics_check"] = (
                note or ("mismatch" if mismatches else "ok"))
            if mismatches:
                payload["metrics_mismatches"] = mismatches
    if args.json:
        payload["service_stats"] = stats
        print(json.dumps(payload, indent=2))
    else:
        print(f"load-sim: {payload['uploads']} upload(s) over "
              f"{args.concurrency} connection(s) in "
              f"{payload['elapsed_sec']}s "
              f"({payload['reports_per_sec']} reports/s)")
        print(f"  accepted {payload['accepted']} "
              f"(duplicates {payload['duplicates']}), "
              f"rejected {payload['rejected']}, "
              f"failed {payload['failed']}")
        print(f"  backpressure retries {payload['backpressure_retries']}, "
              f"reconnects {payload['reconnects']}")
        print(f"  ack latency p50 {payload['latency_p50_ms']}ms, "
              f"p90 {payload['latency_p90_ms']}ms, "
              f"p99 {payload['latency_p99_ms']}ms")
        if "metrics_check" in payload:
            print(f"  metrics cross-check: {payload['metrics_check']}")
            for mismatch in mismatches:
                print(f"    {mismatch}", file=sys.stderr)
        if stats:
            store = stats["store"]
            if cluster_spec is not None:
                reach = stats.get("reachable", [])
                print(f"  cluster: {len(reach)}/{len(cluster_spec.nodes)} "
                      f"node(s) reachable, {store['reports']} stored "
                      f"report(s) fleet-wide (replica copies included)")
            else:
                print(f"  service: queue depth {stats['queue_depth']}, "
                      f"store {store['reports']} report(s) across "
                      f"{store['num_shards']} shard(s)")
    if mismatches:
        print("error: client tallies disagree with server /metrics "
              "counters", file=sys.stderr)
        return 1
    return 1 if report.failed else 0


def _cmd_route(args) -> int:
    """Run the thin forwarding proxy until SIGINT/SIGTERM."""
    import asyncio
    import signal

    from repro.fleet.cluster.router import RouterService
    from repro.fleet.cluster.topology import ClusterSpec

    spec = ClusterSpec.load(args.cluster)
    service = RouterService(spec, host=args.host, port=args.port)

    async def _run() -> None:
        host, port = await service.start()
        print(f"bugnet route: listening on {host}:{port} "
              f"(forwarding into {len(spec.nodes)} node(s), "
              f"replication {spec.replication})", flush=True)
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop_event.set)
        except NotImplementedError:
            pass
        await stop_event.wait()
        print("bugnet route: shutting down", flush=True)
        await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("bugnet route: interrupted", file=sys.stderr)
        return 130
    return 0


def _metrics_to_jsonable(samples: dict) -> dict:
    """Parsed-Prometheus samples with tuple label keys flattened for
    JSON output."""
    return {
        name: [
            {"labels": dict(labels), "value": value}
            for labels, value in sorted(series.items())
        ]
        for name, series in sorted(samples.items())
    }


def _cmd_cluster(args) -> int:
    """Cluster-wide reads (quorum stats/metrics/triage/autopsy) and
    planned topology change (add-node/decommission)."""
    import asyncio

    from repro.fleet.cluster import admin
    from repro.fleet.cluster.topology import ClusterSpec

    try:
        spec = ClusterSpec.load(args.spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "add-node":
        return _cluster_add_node(args, spec)
    if args.action == "decommission":
        return _cluster_decommission(args)
    if args.action == "stats":
        read = asyncio.run(admin.cluster_stats_quorum(spec))
        aggregate = read["aggregate"]
        quorum = read["quorum"]
        status = 0
        if args.check and (quorum["unreachable"] or not quorum["ok"]):
            status = 1
        if args.json:
            print(json.dumps({"aggregate": aggregate,
                              "quorum": quorum,
                              "per_node": read["per_node"]}, indent=2))
            if status:
                if quorum["unreachable"]:
                    print(f"error: unreachable node(s): "
                          f"{', '.join(quorum['unreachable'])}",
                          file=sys.stderr)
                if not quorum["ok"]:
                    print(f"error: quorum not met: "
                          f"{len(quorum['consistent'])} epoch-consistent "
                          f"answer(s), need {quorum['required']}",
                          file=sys.stderr)
            return status
        counters = aggregate["counters"]
        print(f"cluster: epoch {quorum['epoch']}, "
              f"{len(quorum['consistent'])}/{aggregate['nodes']} node(s) "
              f"answering at quorum epoch "
              f"(quorum {'met' if quorum['ok'] else 'NOT met'}: "
              f"needs {quorum['required']})")
        if quorum["stale"]:
            print(f"  stale epoch (answers excluded): "
                  f"{', '.join(quorum['stale'])}")
        if quorum["unreachable"]:
            print(f"  unreachable: {', '.join(quorum['unreachable'])}")
        print(f"  uploads: {counters['received']} received, "
              f"{counters['accepted']} accepted, "
              f"{counters['rejected']} rejected, "
              f"{counters['duplicates']} duplicate(s)")
        cluster_counters = aggregate["cluster"]
        print(f"  cluster: {cluster_counters['forwarded']} forwarded, "
              f"{cluster_counters['replicated_out']} replicated, "
              f"{cluster_counters['handoff_reports']} handed off, "
              f"{cluster_counters['spec_updates']} spec update(s)")
        store = aggregate["store"]
        print(f"  store: {store['reports']} resident report(s) "
              f"fleet-wide ({store['evicted_reports']} evicted)")
        if status:
            if quorum["unreachable"]:
                print(f"error: unreachable node(s): "
                      f"{', '.join(quorum['unreachable'])}",
                      file=sys.stderr)
            if not quorum["ok"]:
                print(f"error: quorum not met: "
                      f"{len(quorum['consistent'])} epoch-consistent "
                      f"answer(s), need {quorum['required']}",
                      file=sys.stderr)
        return status
    if args.action == "metrics":
        per_node = asyncio.run(admin.cluster_metrics(spec))
        aggregate = admin.aggregate_metrics(per_node)
        status = 0
        check_note = None
        mismatches: "list[str]" = []
        if args.check:
            stats = admin.aggregate_stats(
                asyncio.run(admin.cluster_stats(spec))
            )
            mismatches = admin.reconcile(aggregate, stats)
            check_note = "ok" if not mismatches else "mismatch"
            status = 1 if mismatches else 0
        if args.json:
            payload = {"metrics": _metrics_to_jsonable(aggregate)}
            if check_note is not None:
                payload["check"] = check_note
                payload["mismatches"] = mismatches
            print(json.dumps(payload, indent=2))
            return status
        for name, series in sorted(aggregate.items()):
            for labels, value in sorted(series.items()):
                rendered = ",".join(
                    f'{key}="{val}"' for key, val in labels
                )
                suffix = f"{{{rendered}}}" if rendered else ""
                print(f"{name}{suffix} {value:g}")
        if check_note is not None:
            print(f"# reconciliation vs summed /stats: {check_note}")
            for mismatch in mismatches:
                print(f"#   {mismatch}", file=sys.stderr)
        return status
    # triage / autopsy: both start from the quorum-read bucket merge
    read = asyncio.run(admin.cluster_triage(spec))
    buckets = read["buckets"]
    quorum = read["quorum"]
    if args.action == "autopsy":
        return _cluster_autopsy(args, spec, buckets, quorum)
    shown = buckets if args.limit is None else buckets[:args.limit]
    if args.json:
        print(json.dumps({"buckets": shown,
                          "total_buckets": len(buckets),
                          "quorum": quorum}, indent=2))
        return 0 if quorum["ok"] else 1
    if not quorum["ok"]:
        print(f"error: quorum not met at epoch {quorum['epoch']}: "
              f"{len(quorum['consistent'])} consistent answer(s), need "
              f"{quorum['required']}"
              + (f" (stale: {', '.join(quorum['stale'])})"
                 if quorum["stale"] else "")
              + (f" (unreachable: {', '.join(quorum['unreachable'])})"
                 if quorum["unreachable"] else ""),
              file=sys.stderr)
        return 1
    if not buckets:
        print("cluster stores are empty: 0 reports to triage")
        return 0
    print(f"Cluster triage at epoch {quorum['epoch']} "
          f"(distinct uploads, replicas deduplicated)")
    if quorum["stale"]:
        print(f"  [stale-epoch answers excluded: "
              f"{', '.join(quorum['stale'])}]")
    for rank, bucket in enumerate(shown, start=1):
        racy = " [racy]" if bucket.get("racy") else ""
        count = str(bucket["count"])
        if bucket.get("rolled_up"):
            count = (f"{bucket['total_count']} "
                     f"({bucket['rolled_up']} evicted)")
        rep = bucket.get("representative")
        where = (f"shard-{rep['shard']:02d}/{rep['filename']}"
                 if rep else "(all blobs evicted)")
        print(f"  {rank:>2}. {bucket['signature'][:12]} "
              f"{bucket['program']} {bucket['fault_kind']}{racy} "
              f"count={count} {where}")
    if args.limit is not None and len(buckets) > args.limit:
        print(f"  ... and {len(buckets) - args.limit} more bucket(s)")
    return 0


def _cluster_autopsy(args, spec, buckets, quorum) -> int:
    """Root-cause cluster buckets: pull each representative report from
    a quorum-consistent replica and autopsy it locally."""
    import asyncio

    from repro.fleet.cluster import admin
    from repro.forensics.autopsy import bug_suite_resolver, perform_autopsy
    from repro.tracing.serialize import load_crash_report

    if not quorum["ok"]:
        print(f"error: quorum not met at epoch {quorum['epoch']}: "
              f"cannot trust the bucket merge", file=sys.stderr)
        return 1
    consistent = set(quorum["consistent"])
    members = [m for m in spec.nodes if m.node_id in consistent]
    resolver = bug_suite_resolver()
    shown = buckets if args.limit is None else buckets[:args.limit]
    results = []
    rendered: "dict[str, str]" = {}
    failed = 0
    for bucket in shown:
        upload_ids = bucket.get("upload_ids", ())
        fetched = None
        for upload_id in upload_ids:
            for member in members:
                fetched = asyncio.run(
                    admin.fetch_report_blob(member, upload_id)
                )
                if fetched is not None:
                    break
            if fetched is not None:
                break
        entry = {"signature": bucket["signature"],
                 "program": bucket.get("program", ""),
                 "count": bucket.get("count", 0)}
        if fetched is None:
            entry["error"] = "no quorum replica served the report"
            failed += 1
            results.append(entry)
            continue
        _meta, blob = fetched
        program = resolver(bucket.get("program", ""))
        if program is None:
            entry["error"] = (f"unknown program "
                              f"{bucket.get('program', '')!r}")
            failed += 1
            results.append(entry)
            continue
        try:
            report, config = load_crash_report(blob)
            autopsy = perform_autopsy(report, config, program)
        except Exception as error:  # noqa: BLE001 — per-bucket isolation
            entry["error"] = f"autopsy failed: {error}"
            failed += 1
            results.append(entry)
            continue
        entry["autopsy"] = autopsy.to_dict()
        rendered[bucket["signature"]] = autopsy.render()
        results.append(entry)
    if args.json:
        print(json.dumps({"buckets": results, "failed": failed,
                          "quorum": quorum}, indent=2))
        return 1 if failed else 0
    print(f"Cluster autopsy at epoch {quorum['epoch']} "
          f"({len(results)} bucket(s))")
    for entry in results:
        if "error" in entry:
            print(f"== bucket {entry['signature'][:12]}: {entry['error']}",
                  file=sys.stderr)
            continue
        print(f"== bucket {entry['signature'][:12]} "
              f"({entry['count']} report(s))")
        print(rendered[entry["signature"]])
        print()
    return 1 if failed else 0


def _cluster_add_node(args, spec) -> int:
    """``bugnet cluster add-node``: joining epoch → stream → flip."""
    import asyncio

    from repro.fleet.cluster import admin

    if not args.node_id or not args.node_port:
        print("error: add-node needs --node-id and --node-port",
              file=sys.stderr)
        return 2
    if spec.has_node(args.node_id):
        print(f"error: node {args.node_id!r} is already a member",
              file=sys.stderr)
        return 2
    print(f"add-node {args.node_id}: minting joining epoch "
          f"{spec.epoch + 1} and pushing it to "
          f"{len(spec.nodes)} member(s)")
    print(f"  start the new node now (it may also already be running):")
    print(f"    bugnet serve --store <store> --cluster {args.spec} "
          f"--node-id {args.node_id}")
    try:
        summary = asyncio.run(admin.add_node(
            args.spec, args.node_id, args.node_host, args.node_port,
            poll_interval=args.poll, timeout=args.timeout,
        ))
    except (TimeoutError, ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"  streamed {summary['streamed']} report(s) across "
          f"{summary['ranges']} remapped range(s) "
          f"(~{summary['range_span']:.1%} of the keyspace)")
    print(f"  committed epoch {summary['epochs']['final']}: "
          f"{args.node_id} is active")
    return 0


def _cluster_decommission(args) -> int:
    """``bugnet cluster decommission``: draining epoch → drain → drop."""
    import asyncio

    from repro.fleet.cluster import admin

    if not args.node_id:
        print("error: decommission needs --node-id", file=sys.stderr)
        return 2
    try:
        summary = asyncio.run(admin.decommission(
            args.spec, args.node_id,
            poll_interval=args.poll, timeout=args.timeout,
        ))
    except (TimeoutError, ValueError, RuntimeError, KeyError) as error:
        detail = error.args[0] if error.args else error
        print(f"error: {detail}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"decommission {args.node_id}: drained {summary['drained']} "
          f"report(s) off the node "
          f"(~{summary['range_span']:.1%} of the keyspace re-homed)")
    print(f"  committed epoch {summary['epochs']['final']}: "
          f"{args.node_id} dropped from the spec "
          f"(stop its process when convenient)")
    return 0


def _cmd_profile(args) -> int:
    from repro.fleet.profile import profile_blob, render_profile
    from repro.fleet.signature import DEFAULT_TAIL_DEPTH

    tail_depth = args.tail if args.tail is not None else DEFAULT_TAIL_DEPTH
    targets: "list[tuple[str, bytes]]" = []
    if args.store is not None:
        if args.reports:
            print("error: give report files or --store, not both",
                  file=sys.stderr)
            return 2
        store = ReportStore(args.store)
        entries = store.entries()
        if args.bucket:
            entries = [e for e in entries
                       if e.digest.startswith(args.bucket)]
            if not entries:
                print(f"error: no stored report matches bucket prefix "
                      f"{args.bucket!r}", file=sys.stderr)
                return 2
        # Deterministic pick: most recent first (commonly the report
        # whose slowness prompted the profiling).
        entries = sorted(entries, key=lambda e: e.order_key, reverse=True)
        for entry in entries[:max(args.limit, 1)]:
            label = f"{entry.digest[:12]}/{entry.filename}"
            targets.append((label, store.path_of(entry).read_bytes()))
    else:
        paths, notes, errors = _expand_report_paths(args.reports)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        if errors:
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            return 2
        if not paths:
            print("error: nothing to profile (give report files or "
                  "--store)", file=sys.stderr)
            return 2
        targets = [(str(path), path.read_bytes()) for path in paths]
    resolver = _store_resolver(args.source)
    results = [
        profile_blob(label, blob, resolver, tail_depth=tail_depth,
                     probe=not args.no_probe, repeat=args.repeat)
        for label, blob in targets
    ]
    if args.json:
        print(json.dumps([result.to_dict() for result in results], indent=2))
    else:
        print("\n\n".join(render_profile(result) for result in results))
    return 0 if all(result.accepted for result in results) else 1


def _cmd_disasm(args) -> int:
    program = _load_program(args.source)
    start = program.pc_of(args.start) if args.start else None
    print(listing(program, start=start, count=args.count,
                  annotate=args.annotate))
    return 0


def _lint_one(args) -> int:
    """``bugnet lint app.s``: findings for one program; exit 1 if any."""
    from repro.analysis.static.lint import lint_program

    program = _load_program(args.source)
    if args.entry:
        program.thread_entries = tuple(args.entry)
    findings = lint_program(program)
    if args.json:
        print(json.dumps({
            "program": program.name,
            "findings": [finding.to_dict() for finding in findings],
        }, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s) in {args.source}")
    return 1 if findings else 0


def _verify_race_candidates() -> "tuple[int, list[str]]":
    """Run every multithreaded bug to its crash and check each
    dynamically inferred race lies in the static candidate set.

    Returns ``(races_checked, escapes)`` — an escape is a dynamic race
    the lockset analysis *proved* impossible, i.e. an analysis bug.
    """
    from repro.analysis.static.lockset import cached_race_candidates
    from repro.replay.races import ReportLogs, infer_races, replay_all_threads
    from repro.workloads.bugs import BUG_SUITE, run_bug

    checked = 0
    escapes: list[str] = []
    for bug in BUG_SUITE:
        if not bug.multithreaded:
            continue
        run = run_bug(bug, BugNetConfig(checkpoint_interval=20_000))
        report = run.result.crash
        if report is None:
            escapes.append(f"{bug.name}: did not crash")
            continue
        replay = replay_all_threads(
            ReportLogs(report),
            {tid: run.program for tid in report.thread_ids},
            run.machine.bugnet, fast=True,
        )
        races = infer_races(replay, sync=[])
        candidates = cached_race_candidates(run.program)
        if candidates is None:
            escapes.append(f"{bug.name}: static analysis failed")
            continue
        for race in races:
            checked += 1
            if not candidates.may_race(race.first[2], race.second[2]):
                escapes.append(f"{bug.name}: {race}")
    return checked, escapes


def _cmd_lint(args) -> int:
    """Static lint: one program, or the whole built-in corpus.

    Corpus mode is the CI gate: every clean SPEC-personality workload
    must produce zero findings, every bug annotated with an expected
    check must be flagged with it, and (with ``--verify-races``) every
    dynamically inferred race must lie inside the static race-candidate
    set.
    """
    if args.source:
        return _lint_one(args)
    from repro.analysis.static.lint import lint_program
    from repro.workloads.bugs import BUG_SUITE
    from repro.workloads.clean import CLEAN_SUITE

    programs = []
    failures: list[str] = []
    for clean in CLEAN_SUITE:
        findings = lint_program(clean.program())
        ok = not findings
        if not ok:
            failures.append(f"clean workload {clean.name} has "
                            f"{len(findings)} finding(s)")
        programs.append({
            "name": clean.name, "kind": "clean", "expected": None,
            "findings": [f.to_dict() for f in findings], "ok": ok,
        })
    for bug in BUG_SUITE:
        findings = lint_program(bug.program())
        checks = {finding.check for finding in findings}
        ok = bug.expected_lint is None or bug.expected_lint in checks
        if not ok:
            failures.append(
                f"bug {bug.name}: expected a {bug.expected_lint} "
                f"finding, got {sorted(checks) or 'none'}"
            )
        programs.append({
            "name": bug.name, "kind": "bug", "expected": bug.expected_lint,
            "findings": [f.to_dict() for f in findings], "ok": ok,
        })
    race_check = None
    if args.verify_races:
        checked, escapes = _verify_race_candidates()
        race_check = {"races_checked": checked, "escapes": escapes}
        failures.extend(f"race escape: {escape}" for escape in escapes)
    if args.json:
        payload = {"programs": programs, "ok": not failures,
                   "failures": failures}
        if race_check is not None:
            payload["race_check"] = race_check
        print(json.dumps(payload, indent=2))
    else:
        for entry in programs:
            status = "ok" if entry["ok"] else "FAIL"
            expected = (f" (expected {entry['expected']})"
                        if entry["expected"] else "")
            print(f"  {status:>4}  {entry['kind']:<5} {entry['name']}: "
                  f"{len(entry['findings'])} finding(s){expected}")
        if race_check is not None:
            print(f"  race candidates: {race_check['races_checked']} "
                  f"dynamic race(s) checked, "
                  f"{len(race_check['escapes'])} escape(s)")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``bugnet`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="bugnet",
        description="BugNet (ISCA 2005) reproduction: record, replay, debug.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a BN32 program under the recorder")
    run.add_argument("source")
    run.add_argument("--interval", type=int, default=100_000)
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--cores", type=int, default=1)
    run.add_argument("--timer", type=int, default=0)
    run.add_argument("--entry", action="append", default=[],
                     help="entry label per thread (repeatable)")
    run.add_argument("--input", default="",
                     help="string pushed to the input device")
    run.add_argument("--dma-delay", type=int, default=0)
    run.add_argument("--max-instructions", type=int, default=10_000_000)
    run.add_argument("--output", "-o", default=None,
                     help="write the crash report here on a fault")
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="summarize a crash report")
    report.add_argument("report")
    report.add_argument("--json", action="store_true",
                        help="machine-readable output")
    report.set_defaults(func=_cmd_report)

    ingest = sub.add_parser(
        "ingest", help="validate crash reports into a fleet store")
    ingest.add_argument("reports", nargs="+",
                        help="crash report file(s) to ingest")
    ingest.add_argument("--store", default=None,
                        help="fleet store directory (created if missing); "
                             "required unless --cluster")
    ingest.add_argument("--cluster", default=None,
                        help="cluster spec JSON: upload the reports to a "
                             "live cluster (ring-routed) instead of a "
                             "local store")
    ingest.add_argument("--source", action="append", default=[],
                        help="program binary the reports name (repeatable)")
    ingest.add_argument("--shards", type=int, default=None,
                        help="consistent-hash shards for a NEW store "
                             "(default 8); an existing store's ring shape "
                             "is inherited and immutable")
    ingest.add_argument("--budget", type=int, default=None,
                        help="store byte budget (oldest reports evicted)")
    ingest.add_argument("--workers", type=int, default=1,
                        help="validation worker threads (overlaps decode "
                             "I/O; replay itself is GIL-bound)")
    ingest.add_argument("--no-probe", action="store_true",
                        help="skip re-executing the faulting instruction")
    ingest.add_argument("--no-admit-cache", action="store_true",
                        help="fully validate every report (skip the "
                             "dedup-before-validate admission cache)")
    ingest.add_argument("--reverify-fraction", type=float, default=0.05,
                        help="deterministic fraction of cache-hit repeats "
                             "that still replay in full (trust-but-verify; "
                             "default 0.05)")
    ingest.add_argument("--json", action="store_true")
    ingest.set_defaults(func=_cmd_ingest)

    triage = sub.add_parser(
        "triage", help="rank a fleet store's crash buckets")
    triage.add_argument("--store", required=True)
    triage.add_argument("--limit", type=int, default=None,
                        help="show only the top N buckets")
    triage.add_argument("--autopsy", action="store_true",
                        help="link each bucket to its automated root cause")
    triage.add_argument("--binary", action="append", default=[],
                        help="program source for autopsy resolution "
                             "(repeatable; bug-suite names resolve "
                             "automatically)")
    triage.add_argument("--workers", type=int, default=1,
                        help="autopsy worker threads")
    triage.add_argument("--json", action="store_true")
    triage.set_defaults(func=_cmd_triage)

    autopsy = sub.add_parser(
        "autopsy",
        help="automated root-cause analysis (one report, or a whole store)",
    )
    autopsy.add_argument("source", nargs="?", default=None,
                         help="program source (single-report mode)")
    autopsy.add_argument("report", nargs="?", default=None,
                         help="crash report file (single-report mode)")
    autopsy.add_argument("--store", default=None,
                         help="fleet store: autopsy every triage bucket")
    autopsy.add_argument("--binary", action="append", default=[],
                         help="program source for store mode (repeatable; "
                              "bug-suite names resolve automatically)")
    autopsy.add_argument("--workers", type=int, default=1,
                         help="analysis worker threads (store mode)")
    autopsy.add_argument("--limit", type=int, default=None,
                         help="autopsy only the top N buckets")
    autopsy.add_argument("--no-races", action="store_true",
                         help="skip race inference on multithreaded reports")
    autopsy.add_argument("--json", action="store_true")
    autopsy.set_defaults(func=_cmd_autopsy)

    fleet = sub.add_parser(
        "fleet-sim",
        help="synthesize fleet crash traffic from the Table-1 bug suite",
    )
    fleet.add_argument("--runs", type=int, default=50)
    fleet.add_argument("--bugs", default=None,
                       help="comma-separated bug names; aliases: "
                            "'default' (fast subset), 'mt' (multithreaded "
                            "racy traffic)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--corrupt", type=int, default=2,
                       help="corrupted blobs to inject (must be rejected)")
    fleet.add_argument("--store", default=None,
                       help="fleet store directory (default: fresh temp dir)")
    fleet.add_argument("--shards", type=int, default=None,
                       help="consistent-hash shards for a NEW store "
                            "(default 8); an existing store's ring shape "
                            "is inherited and immutable")
    fleet.add_argument("--budget", type=int, default=None)
    fleet.add_argument("--workers", type=int, default=1)
    fleet.add_argument("--nodes", type=int, default=None,
                       help="run the corpus against a real N-node "
                            "subprocess cluster (ring routing, "
                            "replication, kill -9 mid-load) instead of "
                            "the in-process batch pipeline")
    fleet.add_argument("--replication", type=int, default=2,
                       help="cluster mode: replica copies per report")
    fleet.add_argument("--no-kill", action="store_true",
                       help="cluster mode: skip the mid-load kill -9")
    fleet.add_argument("--elastic", action="store_true",
                       help="cluster mode: mid-load add-node + "
                            "decommission instead of the kill "
                            "(epoch/quorum contract checks)")
    fleet.add_argument("--concurrency", type=int, default=4,
                       help="cluster mode: concurrent uploader connections")
    fleet.add_argument("--retain", type=int, default=None,
                       help="cluster mode: per-node retention window "
                            "(logical observed_at units)")
    fleet.add_argument("--duplicate-fraction", type=float, default=0.0,
                       help="fraction of runs that re-upload an earlier "
                            "blob under a fresh upload id "
                            "(duplicate-dominated fleet traffic)")
    fleet.add_argument("--no-admit-cache", action="store_true",
                       help="fully validate every report (skip the "
                            "dedup-before-validate admission cache)")
    fleet.add_argument("--reverify-fraction", type=float, default=0.05,
                       help="deterministic fraction of cache-hit repeats "
                            "that still replay in full (default 0.05)")
    fleet.add_argument("--json", action="store_true")
    fleet.set_defaults(func=_cmd_fleet_sim)

    serve = sub.add_parser(
        "serve", help="run the live crash-report ingestion endpoint")
    serve.add_argument("--store", required=True,
                       help="fleet store directory (created if missing)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7077,
                       help="TCP port (0: pick a free one)")
    serve.add_argument("--source", action="append", default=[],
                       help="program binary uploads may name (repeatable; "
                            "bug-suite names always resolve unless "
                            "--no-bug-suite)")
    serve.add_argument("--no-bug-suite", action="store_true",
                       help="do not resolve Table-1 bug-suite programs")
    serve.add_argument("--workers", type=int, default=None,
                       help="validation processes (default: cores-1, "
                            "capped; 0 = validate in-process, best on "
                            "single-core hosts)")
    serve.add_argument("--queue-limit", type=int, default=128,
                       help="admission bound; beyond it uploads get an "
                            "explicit retry-later")
    serve.add_argument("--validate-chunk", type=int, default=8,
                       help="max uploads per validation handoff")
    serve.add_argument("--commit-batch", type=int, default=16,
                       help="max accepted reports per store commit")
    serve.add_argument("--shards", type=int, default=None,
                       help="consistent-hash shards for a NEW store "
                            "(default 8); an existing store's ring shape "
                            "is inherited and immutable")
    serve.add_argument("--budget", type=int, default=None,
                       help="store byte budget (oldest reports evicted)")
    serve.add_argument("--retain", type=int, default=None,
                       help="retention window in logical observed_at "
                            "units; older blobs are compacted away, "
                            "their counts surviving in rollups")
    serve.add_argument("--cluster", default=None,
                       help="cluster spec JSON: serve as a cluster member "
                            "(ring ownership, replication, gossip, "
                            "anti-entropy) — requires --node-id; the "
                            "member's host/port come from the spec")
    serve.add_argument("--node-id", default=None,
                       help="this node's id in the --cluster spec")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync commits (survive OS crash, not just "
                            "process death)")
    serve.add_argument("--no-probe", action="store_true",
                       help="skip re-executing the faulting instruction")
    serve.add_argument("--no-admit-cache", action="store_true",
                       help="fully validate every upload (skip the "
                            "dedup-before-validate admission cache)")
    serve.add_argument("--reverify-fraction", type=float, default=0.05,
                       help="deterministic fraction of cache-hit repeats "
                            "that still replay in full (trust-but-verify; "
                            "default 0.05)")
    serve.add_argument("--admit-seed", type=int, default=0,
                       help="seed of the reverify sample (every cluster "
                            "node must share it)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit one structured JSON log line per "
                            "admission outcome (and service lifecycle "
                            "events) on stdout")
    serve.set_defaults(func=_cmd_serve)

    loadsim = sub.add_parser(
        "load-sim",
        help="drive a running `bugnet serve` with synthetic fleet traffic",
    )
    loadsim.add_argument("--host", default="127.0.0.1")
    loadsim.add_argument("--port", type=int, default=7077)
    loadsim.add_argument("--cluster", default=None,
                         help="cluster spec JSON: ring-route uploads "
                              "across the members (with node-death "
                              "failover) instead of one host:port")
    loadsim.add_argument("--runs", type=int, default=50,
                         help="crashing runs to synthesize and upload")
    loadsim.add_argument("--bugs", default=None,
                         help="comma-separated bug names; aliases: "
                              "'default' (fast subset), 'mt' "
                              "(multithreaded racy traffic)")
    loadsim.add_argument("--seed", type=int, default=0)
    loadsim.add_argument("--corrupt", type=int, default=2,
                         help="corrupted blobs to inject (must be rejected)")
    loadsim.add_argument("--duplicate-fraction", type=float, default=0.0,
                         help="fraction of runs that re-upload an earlier "
                              "blob under a fresh upload id "
                              "(duplicate-dominated fleet traffic)")
    loadsim.add_argument("--concurrency", type=int, default=8,
                         help="concurrent uploader connections")
    loadsim.add_argument("--max-attempts", type=int, default=60,
                         help="attempts per upload before giving up "
                              "(covers backpressure and reconnects)")
    loadsim.add_argument("--id-prefix", default="sim",
                         help="upload-id prefix (stable ids make retries "
                              "idempotent across service restarts)")
    loadsim.add_argument("--no-metrics-check", action="store_true",
                         help="skip scraping /metrics and cross-checking "
                              "client tallies against server counters")
    loadsim.add_argument("--json", action="store_true")
    loadsim.set_defaults(func=_cmd_load_sim)

    route = sub.add_parser(
        "route",
        help="run a thin forwarding proxy into a serve cluster "
             "(for clients that cannot load the cluster spec)",
    )
    route.add_argument("--cluster", required=True,
                       help="cluster spec JSON")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=7070,
                       help="TCP port the proxy listens on (0: pick one)")
    route.set_defaults(func=_cmd_route)

    cluster = sub.add_parser(
        "cluster",
        help="cluster-wide views and planned topology change over a "
             "running serve cluster",
    )
    cluster.add_argument("action",
                         choices=("stats", "metrics", "triage", "autopsy",
                                  "add-node", "decommission"),
                         help="stats: quorum-read aggregated /stats; "
                              "metrics: aggregated /metrics; triage: "
                              "quorum-read buckets merged by signature; "
                              "autopsy: root-cause each quorum bucket's "
                              "representative; add-node: grow the ring "
                              "(stream, then flip); decommission: drain "
                              "a node and drop it")
    cluster.add_argument("--cluster", required=True, dest="spec",
                         help="cluster spec JSON")
    cluster.add_argument("--check", action="store_true",
                         help="stats: exit 1 naming unreachable nodes or "
                              "a failed quorum; metrics: reconcile "
                              "aggregated /metrics against summed "
                              "per-node /stats (exit 1 on mismatch)")
    cluster.add_argument("--limit", type=int, default=None,
                         help="triage/autopsy: only the top N buckets")
    cluster.add_argument("--node-id", default=None,
                         help="add-node/decommission: the member to add "
                              "or drain")
    cluster.add_argument("--node-host", default="127.0.0.1",
                         help="add-node: host of the new member")
    cluster.add_argument("--node-port", type=int, default=None,
                         help="add-node: port of the new member")
    cluster.add_argument("--timeout", type=float, default=60.0,
                         help="add-node/decommission: seconds to wait "
                              "for range streaming to converge")
    cluster.add_argument("--poll", type=float, default=0.25,
                         help="add-node/decommission: convergence poll "
                              "interval")
    cluster.add_argument("--json", action="store_true")
    cluster.set_defaults(func=_cmd_cluster)

    profile = sub.add_parser(
        "profile",
        help="replay a report (or stored bucket) under the span recorder "
             "and print a per-stage validation breakdown",
    )
    profile.add_argument("reports", nargs="*", default=[],
                         help="crash report file(s) (file mode)")
    profile.add_argument("--source", action="append", default=[],
                         help="program binary the report(s) may name "
                              "(repeatable; bug-suite names resolve "
                              "automatically)")
    profile.add_argument("--store", default=None,
                         help="fleet store: profile stored reports instead "
                              "of files")
    profile.add_argument("--bucket", default=None,
                         help="store mode: only reports whose signature "
                              "digest starts with this prefix")
    profile.add_argument("--limit", type=int, default=1,
                         help="store mode: profile at most N reports "
                              "(default 1)")
    profile.add_argument("--tail", type=int, default=None,
                         help="replay tail depth (default: ingest default)")
    profile.add_argument("--repeat", type=int, default=1,
                         help="validate N times, report the fastest "
                              "(warm compiled-plan cache = steady-state "
                              "fleet cost)")
    profile.add_argument("--no-probe", action="store_true",
                         help="skip re-executing the faulting instruction")
    profile.add_argument("--json", action="store_true")
    profile.set_defaults(func=_cmd_profile)

    replay = sub.add_parser("replay", help="replay a crash report")
    replay.add_argument("source")
    replay.add_argument("report")
    replay.add_argument("--tid", type=int, default=None)
    replay.add_argument("--tail", type=int, default=10,
                        help="disassembled instructions to print from the end")
    replay.set_defaults(func=_cmd_replay)

    debug = sub.add_parser("debug", help="breakpoint/watchpoint session")
    debug.add_argument("source")
    debug.add_argument("report")
    debug.add_argument("--tid", type=int, default=None)
    debug.add_argument("--break", dest="breakpoints", action="append",
                       default=[], help="label or pc to break on")
    debug.add_argument("--watch", action="append", default=[],
                       help="memory range to watch: ADDR or ADDR:SIZE")
    debug.add_argument("--stops", type=int, default=5,
                       help="maximum stops to report")
    debug.add_argument("--why", action="append", default=[],
                       help="explain a register or address value at the "
                            "final stop (repeatable)")
    debug.set_defaults(func=_cmd_debug)

    disasm = sub.add_parser("disasm", help="disassemble a program")
    disasm.add_argument("source")
    disasm.add_argument("--start", default=None)
    disasm.add_argument("--count", type=int, default=24)
    disasm.add_argument("--annotate", action="store_true",
                        help="mark basic-block leaders and successors")
    disasm.set_defaults(func=_cmd_disasm)

    lint = sub.add_parser(
        "lint",
        help="static analysis findings for a program (or the whole "
             "built-in corpus)",
    )
    lint.add_argument("source", nargs="?", default=None,
                      help="BN32 source file; omit to lint the bug suite "
                           "and the clean SPEC workloads")
    lint.add_argument("--entry", action="append", default=[],
                      help="declare a thread entry label (repeatable; "
                           "single-program mode)")
    lint.add_argument("--verify-races", action="store_true",
                      help="corpus mode: additionally run every "
                           "multithreaded bug and check each dynamic race "
                           "lies in the static candidate set")
    lint.add_argument("--json", action="store_true")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
