"""Duplicate-dominant MT admission throughput: the dedup fast path.

The racy-traffic chasm this tier closes: multithreaded validation
(``fleet_mt_validate``) replays every thread and infers races, so it
runs an order of magnitude slower than single-thread ingest — yet
BugNet's fleet premise is that most uploads are *duplicates* of a few
bugs.  With the admission cache attached, repeat blobs commit on the
signature-prefix probe without replay (minus the deterministic
trust-but-verify sample), so an 80 %-repeat racy workload should land
within ~2x of single-thread ``fleet_ingest`` instead of ~18x below it.

The corpus is the ``test_mt_validation`` MT suite (gaim-0.82.1 racy +
python-2.1.1-2) with 80 % byte-identical re-uploads under fresh
labels — the same shape ``bugnet load-sim --duplicate-fraction 0.8``
drives against a live service.  The cache starts cold each round:
duplicates are served by the intra-batch leader dedup plus the cache,
exactly like a fresh collector seeing a burst of one crash.

``BENCH_throughput.json`` records the checked-in baseline
(``fleet_mt_dedup``; regenerate with ``PYTHONPATH=src python
benchmarks/record_baseline.py``); ``benchmarks/check_regression.py``
gates CI on it.
"""

import random
import shutil
import tempfile
from pathlib import Path

from benchmarks.scaling import scaled
from benchmarks.test_mt_validation import _mt_traffic

from repro.fleet.admitcache import AdmitCache
from repro.fleet.ingest import IngestPipeline
from repro.fleet.store import ReportStore
from repro.fleet.triage import build_buckets
from repro.forensics.autopsy import bug_suite_resolver

DEDUP_UPLOADS = scaled(40, minimum=10)
DUPLICATE_FRACTION = 0.8
REVERIFY_FRACTION = 0.05

_cache = None


def _dedup_traffic():
    """DEDUP_UPLOADS items, DUPLICATE_FRACTION of them byte-identical
    re-uploads of earlier items under fresh labels (dedup-keyed order is
    deterministic: fixed rng, duplicates interleaved after their
    originals the way a crash burst arrives)."""
    global _cache
    if _cache is None:
        base = _mt_traffic()
        duplicates = int(round(DEDUP_UPLOADS * DUPLICATE_FRACTION))
        uniques = max(DEDUP_UPLOADS - duplicates, 1)
        originals = [base[index % len(base)] for index in range(uniques)]
        items = [
            (f"orig-{index:03d}:{label.split(':', 1)[-1]}", blob, index)
            for index, (label, blob, _observed) in enumerate(originals)
        ]
        rng = random.Random(7)
        for position in range(duplicates):
            label, blob, _observed = rng.choice(originals)
            items.append((
                f"dup-{position:03d}:{label.split(':', 1)[-1]}",
                blob,
                uniques + position,
            ))
        _cache = items
    return _cache


def _ingest_dedup():
    items = _dedup_traffic()
    root = Path(tempfile.mkdtemp(prefix="bugnet-bench-dedup-"))
    try:
        store = ReportStore(root, num_shards=4)
        pipeline = IngestPipeline(
            store, bug_suite_resolver(),
            admit_cache=AdmitCache(
                store,
                reverify_fraction=REVERIFY_FRACTION,
            ),
        )
        results = pipeline.ingest_many(items)
        buckets = build_buckets(store)
        return results, buckets, pipeline
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_mt_dedup_throughput(benchmark):
    _dedup_traffic()  # synthesize outside the timed region
    results, buckets, pipeline = benchmark.pedantic(
        _ingest_dedup, rounds=3, iterations=1
    )
    assert all(result.accepted for result in results)
    # Dedup does not change triage: same two buckets as the pure MT
    # benchmark, gaim's racy bucket counting every duplicate upload.
    assert len(buckets) == 2
    racy = [bucket for bucket in buckets if bucket.racy]
    assert len(racy) == 1
    assert racy[0].program_name == "gaim-0.82.1"
    assert racy[0].count == sum(
        1 for label, _b, _o in _dedup_traffic() if "gaim" in label
    )
    duplicates = int(round(DEDUP_UPLOADS * DUPLICATE_FRACTION))
    # Most duplicates commit off the cache; only the deterministic
    # reverify sample replays in full (trust-but-verify).
    assert pipeline.cache_hits >= duplicates * 0.8
    assert pipeline.cache_hits + pipeline.reverified <= duplicates
    benchmark.extra_info["uploads"] = len(results)
    benchmark.extra_info["cache_hits"] = pipeline.cache_hits
    benchmark.extra_info["reverified"] = pipeline.reverified
