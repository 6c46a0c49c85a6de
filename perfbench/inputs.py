"""Seeded workload inputs, every one recorded from the Table-1 bug suite.

Inputs are made before the timed region.  The seed picks checkpoint
intervals and interleave seeds; the same seed gives the same bytes.
Recording statistics are kept beside the blobs, because the recordings
that make a workload's crash reports are also what the end-to-end
``record_ips`` / ``log_bytes_per_kinstr`` / ``report_bytes`` figures of
that workload measure.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

from repro.common.config import BugNetConfig
from repro.tracing import serialize
from repro.workloads import bugs

#: node_racy: racy multithreaded bugs (one signature each whatever the
#: interleaving), cheap non-racy multithreaded bugs, and single-thread
#: bugs with short windows.
RACY_BUGS = ("gaim-0.82.1", "napster-1.5.2")
MT_BUGS = ("python-2.1.1-1", "python-2.1.1-2")
SHORT_BUGS = ("bc-1.06", "tar-1.13.25", "gnuplot-3.7.1-1",
              "tidy-34132-1", "tidy-34132-2", "tidy-34132-3")
#: Distinct reports per node_racy pass, by class, and byte-identical
#: copies uploaded right behind each one (a crash burst).
RACY_PER_BUG = 1
MT_DISTINCT = 20
SHORT_DISTINCT = 20
BURST_COPIES = 5
#: cluster_rw: single-thread reports only, with short windows, so
#: validation is cheap and the admit cache never hits.
CLUSTER_BUGS = ("bc-1.06", "tar-1.13.25", "gnuplot-3.7.1-1",
                "tidy-34132-2", "tidy-34132-3")
#: Single-thread checkpoint intervals are drawn without replacement from
#: this range: the interval is part of the serialized config, so two
#: reports of one deterministic single-thread bug differ exactly when it
#: differs.  Multithreaded reports differ by interleave seed and keep
#: one interval.  A narrow range keeps log bytes per instruction (which
#: the interval moves) alike from seed to seed.
INTERVAL_RANGE = (20_000, 60_000)
MT_INTERVAL = 10_000
#: record_autopsy: every Table-1 bug at one interval and one fixed
#: interleave seed, at which all 18 crash and root-cause correctly.
AUTOPSY_INTERVAL = 10_000
AUTOPSY_INTERLEAVE = 7


@dataclass
class RecordStats:
    """What the recorder did across a set of recordings."""

    instructions: int = 0
    seconds: float = 0.0
    fll_bytes: int = 0
    mrl_bytes: int = 0
    recorded_instructions: int = 0
    dict_hits: int = 0
    dict_misses: int = 0
    loads_seen: int = 0
    loads_logged: int = 0
    bus_instructions: int = 0
    bus_stall_cycles: float = 0.0
    report_bytes: int = 0
    reports: int = 0

    def add_run(self, run, seconds: float) -> None:
        machine = run.machine
        self.instructions += run.result.global_steps
        self.seconds += seconds
        store = machine.log_store
        # No log_memory_budget is set, so nothing is evicted: the
        # resident logs are every FLL and MRL the recorder closed.
        self.fll_bytes += store.fll_bytes()
        self.mrl_bytes += store.mrl_bytes()
        for recorder in machine.recorders.values():
            self.recorded_instructions += recorder.instructions_recorded
            self.dict_hits += recorder.dictionary.hits
            self.dict_misses += recorder.dictionary.misses
            self.loads_seen += recorder.loads_seen
            self.loads_logged += recorder.loads_logged
        for bus in machine.bus_models:
            self.bus_instructions += bus.instructions
            self.bus_stall_cycles += bus.stall_cycles

    def add_report(self, blob: bytes) -> None:
        self.reports += 1
        self.report_bytes += len(blob)

    @property
    def log_bytes_per_kinstr(self) -> float:
        return ((self.fll_bytes + self.mrl_bytes) * 1000.0
                / max(self.recorded_instructions, 1))

    def end_to_end(self) -> dict:
        return {
            "record_ips": (self.instructions / self.seconds, "instr/s"),
            "log_bytes_per_kinstr": (self.log_bytes_per_kinstr, "B/kinstr"),
            "report_bytes": (self.report_bytes / max(self.reports, 1), "B"),
        }

    def per_layer(self) -> dict:
        kinstr = max(self.recorded_instructions, 1) / 1000.0
        return {
            "tracing.fll_bytes_per_kinstr": self.fll_bytes / kinstr,
            "tracing.mrl_bytes_per_kinstr": self.mrl_bytes / kinstr,
            "tracing.dict_hit_rate": self.dict_hits / max(
                self.dict_hits + self.dict_misses, 1),
            "tracing.first_load_rate": self.loads_logged / max(
                self.loads_seen, 1),
            "tracing.bus_overhead_pct": 100.0 * self.bus_stall_cycles / max(
                self.bus_instructions, 1),
        }


@dataclass
class Report:
    """One crash report and what made it."""

    bug: str
    blob: bytes
    interval: int
    interleave: int


def record(bug_name: str, interval: int, interleave: int,
           stats: RecordStats):
    """Record one bug with BugNet on; returns ``(Report | None, run)``
    (``None`` when the run did not crash)."""
    bug = bugs.BUGS_BY_NAME[bug_name]
    config = BugNetConfig(checkpoint_interval=interval)
    start = time.perf_counter()
    run = bugs.run_bug(bug, bugnet=config, record=True,
                       interleave_seed=interleave)
    stats.add_run(run, time.perf_counter() - start)
    if not run.crashed:
        return None, run
    blob = serialize.dump_crash_report(run.result.crash, config)
    stats.add_report(blob)
    return Report(bug_name, blob, interval, interleave), run


def _distinct(rng: random.Random, bug_names, count: int,
              multithreaded: bool, stats: RecordStats) -> "list[Report]":
    """*count* reports cycling through *bug_names*, each at an interval
    (single-thread) or an interleave seed (multithreaded) drawn from
    *rng*; a run that does not crash is redrawn, so the result depends
    on the seed alone."""
    intervals = rng.sample(range(*INTERVAL_RANGE), count * 4)
    reports = []
    while len(reports) < count:
        bug_name = bug_names[len(reports) % len(bug_names)]
        if multithreaded:
            interval, interleave = MT_INTERVAL, rng.randrange(1, 1 << 16)
        else:
            interval, interleave = intervals.pop(), 0
        report, _run = record(bug_name, interval, interleave, stats)
        if report is not None:
            reports.append(report)
    return reports


def node_racy_reports(seed: int) -> "tuple[list[Report], RecordStats]":
    """The distinct reports of one node_racy pass, shuffled by *seed*;
    the racy ones are spread through the pass."""
    rng = random.Random(seed)
    stats = RecordStats()
    reports = (
        _distinct(rng, RACY_BUGS, RACY_PER_BUG * len(RACY_BUGS), True, stats)
        + _distinct(rng, MT_BUGS, MT_DISTINCT, True, stats)
        + _distinct(rng, SHORT_BUGS, SHORT_DISTINCT, False, stats)
    )
    rng.shuffle(reports)
    return reports, stats


def cluster_reports(seed: int, count: int
                    ) -> "tuple[list[Report], RecordStats]":
    """*count* byte-distinct single-thread reports (asserted)."""
    rng = random.Random(seed)
    stats = RecordStats()
    reports = _distinct(rng, CLUSTER_BUGS, count, False, stats)
    rng.shuffle(reports)
    if len({hashlib.sha256(r.blob).digest() for r in reports}) != len(reports):
        raise RuntimeError("cluster_rw inputs are not byte-distinct")
    return reports, stats


def warmup_reports(reports, stats: RecordStats) -> "list[Report]":
    """One more report of each bug in *reports*, at an interval above the
    drawn range (so its bytes are new) and the same interleave seed as
    that bug's first report (the interval changes only what is logged,
    so it crashes the same way).  Uploaded before timing starts, they
    compile each program's replay plans."""
    first = {}
    for report in reports:
        first.setdefault(report.bug, report)
    warm = []
    for offset, (bug_name, report) in enumerate(sorted(first.items())):
        made, _run = record(bug_name, INTERVAL_RANGE[1] + offset,
                            report.interleave, stats)
        if made is None:
            raise RuntimeError(f"{bug_name} did not crash on warm-up")
        warm.append(made)
    return warm


def autopsy_order(seed: int) -> "list[str]":
    """Every Table-1 bug, in an order drawn from *seed*."""
    names = [bug.name for bug in bugs.BUG_SUITE]
    random.Random(seed).shuffle(names)
    return names
