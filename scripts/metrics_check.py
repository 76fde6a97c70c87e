#!/usr/bin/env python3
"""Validates a /v1/metrics Prometheus text exposition.

Usage: metrics_check.py <metrics.txt>

Run in CI against the dump from `remi-serve-load --dump-metrics`: after a
mixed read/ingest/query run, the exposition must be well-formed (every
line parses, one `# TYPE` per family, cumulative histogram buckets
monotone and capped by `+Inf` == `_count`) and the families the serve,
pool, and kb layers register must actually be present with traffic in
them. A wiring regression — a renamed series, a histogram that stops
recording, a dropped registration — fails here even when the server
itself still answers 200s.
"""

import re
import sys

# Families that must exist and have recorded activity after a mixed
# loadgen run (reads + ingests + queries).
REQUIRED_ACTIVE = [
    "remi_http_requests_total",
    "remi_http_request_duration_ns_count",
    "remi_connections_total",
    "remi_kb_ingests_total",
    "remi_kb_ingested_triples_total",
    "remi_cache_misses_total",
    "remi_miner_builds_total",
]

# Families that must at least be exposed (activity depends on scheduling).
REQUIRED_PRESENT = [
    "remi_http_inflight",
    "remi_connections_open",
    "remi_pool_queue_depth",
    "remi_pool_steals_total",
    "remi_kb_publish_duration_ns_count",
    "remi_kb_epoch",
    "remi_kb_triples",
    "remi_kb_delta_triples",
    "remi_kb_compactions_total",
    "remi_kb_duplicate_triples_total",
    "remi_cache_hits_total",
    "remi_cache_purged_total",
    "remi_cache_evictions_total",
    "remi_cache_entries",
]

# The serve layer pre-registers every route x status latency family at
# boot so dashboards see a stable series set before (and regardless of)
# traffic. Keep both lists in sync with `router::TABLE` and
# `PREREGISTERED_STATUSES` in crates/serve/src/lib.rs.
PREREGISTERED_ROUTES = [
    "healthz",
    "stats",
    "metrics",
    "describe",
    "describe_batch",
    "summarize",
    "ingest",
    "query",
    "debug_events",
]
PREREGISTERED_STATUSES = ["200", "400", "500", "503"]


def check_preregistered(samples, errors):
    """Every route x status latency series exists even with zero traffic."""
    seen = set()
    for (name, labels), _ in samples.items():
        if name != "remi_http_request_duration_ns_count":
            continue
        route = re.search(r'route="([^"]*)"', labels)
        status = re.search(r'status="([^"]*)"', labels)
        if route and status:
            seen.add((route.group(1), status.group(1)))
    for route in PREREGISTERED_ROUTES:
        for status in PREREGISTERED_STATUSES:
            if (route, status) not in seen:
                errors.append(
                    f"pre-registered latency family missing: "
                    f'remi_http_request_duration_ns{{route="{route}",status="{status}"}}'
                )

SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?)$")


def parse(text):
    """Returns (samples, types, errors): samples is {(name, labels): float}."""
    samples, types, errors = {}, {}, []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                errors.append(f"line {lineno}: malformed TYPE line: {line!r}")
                continue
            fam, kind = parts[2], parts[3]
            if fam in types:
                errors.append(f"line {lineno}: duplicate TYPE for family {fam}")
            types[fam] = kind
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name, labels, value = m.group(1), m.group(2) or "", float(m.group(3))
        key = (name, labels)
        if key in samples:
            errors.append(f"line {lineno}: duplicate sample {name}{labels}")
        samples[key] = value
    return samples, types, errors


def le_value(labels):
    m = re.search(r'le="([^"]*)"', labels)
    if m is None:
        return None
    return float("inf") if m.group(1) == "+Inf" else float(m.group(1))


def strip_le(labels):
    inner = re.sub(r',?le="[^"]*"', "", labels.strip("{}")).strip(",")
    return inner


def check_histograms(samples, errors):
    """Cumulative buckets monotone; +Inf bucket present and == _count."""
    series = {}
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        le = le_value(labels)
        if le is None:
            errors.append(f"{name}{labels}: _bucket sample without le label")
            continue
        fam = name[: -len("_bucket")]
        series.setdefault((fam, strip_le(labels)), []).append((le, value))
    for (fam, base), buckets in series.items():
        buckets.sort()
        prev = 0.0
        for le, cum in buckets:
            if cum < prev:
                errors.append(
                    f"{fam}{{{base}}}: cumulative bucket le={le} fell from {prev} to {cum}"
                )
            prev = cum
        if not buckets or buckets[-1][0] != float("inf"):
            errors.append(f"{fam}{{{base}}}: no +Inf bucket")
            continue
        count_labels = "{" + base + "}" if base else ""
        count = samples.get((fam + "_count", count_labels))
        if count is None:
            errors.append(f"{fam}{{{base}}}: _bucket series without _count")
        elif count != buckets[-1][1]:
            errors.append(
                f"{fam}{{{base}}}: +Inf bucket {buckets[-1][1]} != _count {count}"
            )
        if (fam + "_sum", count_labels) not in samples:
            errors.append(f"{fam}{{{base}}}: _bucket series without _sum")
    return len(series)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        text = fh.read()
    samples, types, errors = parse(text)
    if not samples:
        errors.append("exposition holds no samples at all")
    histo_series = check_histograms(samples, errors)
    check_preregistered(samples, errors)

    by_name = {}
    for (name, _), value in samples.items():
        by_name[name] = by_name.get(name, 0.0) + value

    for fam in REQUIRED_ACTIVE:
        total = by_name.get(fam)
        if total is None:
            errors.append(f"required family {fam} is missing")
        elif total <= 0:
            errors.append(f"required family {fam} recorded no activity (sum 0)")
    for fam in REQUIRED_PRESENT:
        if fam not in by_name:
            errors.append(f"required family {fam} is missing")

    open_conns = by_name.get("remi_connections_open", 0)
    total_conns = by_name.get("remi_connections_total", 0)
    if open_conns > total_conns:
        errors.append(
            f"remi_connections_open ({open_conns}) exceeds remi_connections_total ({total_conns})"
        )

    # A miner context is only ever built to answer a cache miss (at most
    # one build per generation, plus one per request pinned on a rotated
    # generation), so builds can never outnumber misses.
    builds = by_name.get("remi_miner_builds_total", 0)
    misses = by_name.get("remi_cache_misses_total", 0)
    if builds > misses:
        errors.append(
            f"remi_miner_builds_total ({builds}) exceeds remi_cache_misses_total ({misses})"
        )

    if errors:
        for e in errors:
            print(f"metrics-check: {e}", file=sys.stderr)
        print(f"metrics-check: FAILED with {len(errors)} error(s)", file=sys.stderr)
        return 1
    print(
        f"metrics-check: ok — {len(samples)} samples, {len(types)} typed families, "
        f"{histo_series} histogram series"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
