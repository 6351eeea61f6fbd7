"""Turn one lion_perfbench raw-results document into named metrics.

Everything here is a pure function of the raw document, so the rules the
benchmark relies on (tail percentiles, self time, open-loop lateness,
failure counting) are unit-tested in perfbench/tests/.
"""

import bisect
import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# The open-loop generator counts as behind its schedule (the run is
# invalid) when its 99th-percentile send lag exceeds this...
LAG_LIMIT_MS = 50.0
# ...or when the outstanding-request backlog grows by more than this many
# requests over the run (least-squares trend).
BACKLOG_GROWTH_LIMIT = 20.0

# Spans that cover waiting, not work: they can overlap unrelated spans on
# their thread (a queue wait covers the worker's previous solve; a reorder
# hold covers whatever the releasing thread did), so they take no part in
# nesting.
UNNESTED = {"queue_wait", "reorder"}


class MetricError(ValueError):
    """A metric cannot be computed honestly from the samples given."""


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 1]."""
    if not values:
        raise MetricError("percentile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Whole samples in the top (1 - q) share of n samples."""
    return math.floor(n * (1.0 - q) + 1e-9)


def tail_percentile(values, q):
    """percentile() that refuses a tail with fewer than MIN_BEYOND samples
    beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        raise MetricError(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (100 * q, MIN_BEYOND, len(values),
               samples_beyond(len(values), q)))
    return percentile(values, q)


def self_times(spans):
    """Self time of every nested span: its duration minus the part of its
    interval that its direct children on the same thread cover.

    spans: iterable of (name, tid, start_ns, dur_ns, arg). Returns
    {name: [self_ns, ...]}. Spans named in UNNESTED are skipped.
    """
    by_tid = {}
    for s in spans:
        if s[0] not in UNNESTED:
            by_tid.setdefault(s[1], []).append(s)
    out = {}
    for rows in by_tid.values():
        rows.sort(key=lambda s: (s[2], -s[3]))
        stack = []  # [name, end, child_cover]

        def close(entry):
            name, _, start, dur, cover = entry
            out.setdefault(name, []).append(max(0, dur - cover))

        for name, _, start, dur, _ in rows:
            end = start + dur
            while stack and stack[-1][1] <= start:
                close(stack.pop())
            if stack and end <= stack[-1][1]:
                stack[-1][4] += dur
            stack.append([name, end, start, dur, 0])
        while stack:
            close(stack.pop())
    return out


def lateness(ops):
    """Open-loop accounting: per op, how late the generator sent it and
    its latency measured from the scheduled send. ops: dicts with s
    (scheduled), t (sent, < 0 if never) and r (answered, < 0 if never).
    Unsent or unanswered ops get an infinite latency: they miss every
    limit."""
    lags = [(o["t"] - o["s"]) * 1e3 for o in ops if o["t"] >= 0]
    latency = [(o["r"] - o["s"]) * 1e3 if o["r"] >= 0 and o["t"] >= 0
               else math.inf for o in ops]
    return lags, latency


def trend_slope(ts, ys):
    """Least-squares slope of ys over ts (0 with fewer than 2 points)."""
    if len(ts) < 2:
        return 0.0
    mt = statistics.fmean(ts)
    my = statistics.fmean(ys)
    var = sum((t - mt) ** 2 for t in ts)
    if var == 0:
        return 0.0
    return sum((t - mt) * (y - my) for t, y in zip(ts, ys)) / var


def generator_verdict(ops, backlog_t, backlog_n):
    """(lag_ms_p99, backlog_slope, reasons): reasons is empty when the
    open loop kept to its schedule."""
    lags, _ = lateness(ops)
    lag_p99 = percentile(lags, 0.99) if lags else math.inf
    slope = trend_slope(backlog_t, backlog_n)
    span = (backlog_t[-1] - backlog_t[0]) if len(backlog_t) > 1 else 0.0
    reasons = []
    if lag_p99 > LAG_LIMIT_MS:
        reasons.append("generator lag p99 %.1f ms > %.0f ms"
                       % (lag_p99, LAG_LIMIT_MS))
    if slope * span > BACKLOG_GROWTH_LIMIT:
        reasons.append("backlog grew by %.1f requests over the run"
                       % (slope * span))
    return lag_p99, slope, reasons


def count_operations(raw):
    """(attempted, failed) over every phase of a raw document. Phases
    count their own set-up, barrier and restore operations; flush ops
    carry a per-op verdict, and an op that was never answered, answered
    lion.error.v1, or failed its output check counts as failed."""
    attempted = failed = 0
    for key in ("setup", "batch", "ingest", "flush"):
        section = raw.get(key)
        if section is None:
            continue
        attempted += int(section["attempted"])
        failed += int(section["failed"])
        for op in section.get("ops", ()):
            attempted += 1
            if not op["ok"] or op["r"] < 0:
                failed += 1
    return attempted, failed


def ops_of(raw, kind):
    return [o for o in raw["flush"]["ops"] if o["k"] == kind]


def end_to_end(raw):
    """Every end-to-end metric of an untraced run: {name: (value, unit)}."""
    b, i, f = raw["batch"], raw["ingest"], raw["flush"]
    m = {
        "setup_s": (statistics.median(raw["setup"]["setup_s"]), "s"),
        "batch_cal_per_s": (statistics.median(b["cal_per_s"]),
                            "calibrations/s"),
        "center_err_mm_p50": (percentile(b["center_err_mm"], 0.5), "mm"),
        "center_err_mm_p90": (tail_percentile(b["center_err_mm"], 0.9), "mm"),
        "offset_err_mrad_p90": (
            tail_percentile(b["offset_err_mrad"], 0.9), "mrad"),
        "ingest_reads_per_s": (statistics.median(i["reads_per_s"]),
                               "reads/s"),
        "restore_ingest_s": (statistics.median(i["restore_s"]), "s"),
        "restore_flush_s": (statistics.median(f["restore_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    # The tails stop where a run still holds about 25 requests (full and
    # delta flushes) or ~100 blocking solves (ticks) beyond them;
    # perfbench/README.md says why, and why repeat flushes have none.
    lat = {k: lateness(ops_of(raw, k))[1] for k in "FDT"}
    m["flush_full_p50_ms"] = (percentile(lat["F"], 0.5), "ms")
    m["flush_full_p75_ms"] = (tail_percentile(lat["F"], 0.75), "ms")
    m["flush_delta_p75_ms"] = (tail_percentile(lat["D"], 0.75), "ms")
    m["tick_p95_ms"] = (tail_percentile(lat["T"], 0.95), "ms")
    return m


# --- traced run -------------------------------------------------------------

def _by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s[0], []).append(s)
    return out


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def full_flush_breakdown(raw):
    """Match every full (fallback) `!flush` of a traced flush phase to the
    spans the daemon recorded for it, and split its client-seen latency
    (from the scheduled send) into the time each stage covers and the
    time no span covers.

    Matching: the answer's seq names its reorder span (arg = seq, ending
    just before the answer arrived); the emit span that starts at that
    reorder span's arrival stamp names the worker; on that worker the
    serve_solve span that ended last before the emit, and the queue_wait
    span that ends where it starts, are the request's; the demux span with
    the queue wait's trace id that ended last before it was scheduled,
    and the ingest span around that demux, are the `!flush` line's.

    Returns (matched, stage_ms) with stage_ms {stage: [ms per op]} over
    the matched ops, from critical_path().
    """
    f = raw["flush"]
    spans = _by_name(f["spans"])
    epoch = f["epoch_ns"]
    reorder = {}
    for s in spans.get("reorder", ()):
        reorder.setdefault(s[4], []).append(s)
    emits = sorted(spans.get("emit", ()), key=lambda s: s[2])
    emit_starts = [s[2] for s in emits]
    per_tid = {}
    for name in ("serve_solve", "queue_wait", "demux", "ingest"):
        for s in spans.get(name, ()):
            per_tid.setdefault((name, s[1]), []).append(s)
    demux_by_arg = {}
    for s in spans.get("demux", ()):
        demux_by_arg.setdefault(s[4], []).append(s)

    stages = {k: [] for k in ("ingest", "queue_wait", "serve_solve",
                              "emit_reorder", "unattributed")}
    matched = 0
    for op in ops_of(raw, "F"):
        if op["r"] < 0 or op["src"] != "f":
            continue
        recv_ns = epoch + op["r"] * 1e9
        cands = [s for s in reorder.get(op["seq"], ())
                 if recv_ns - 50e6 <= s[2] + s[3] <= recv_ns + 1e6]
        if not cands:
            continue
        r = max(cands, key=lambda s: s[2] + s[3])
        k = bisect.bisect_right(emit_starts, r[2]) - 1
        if k < 0 or r[2] - emits[k][2] > 1e6:
            continue
        e = emits[k]
        solves = [s for s in per_tid.get(("serve_solve", e[1]), ())
                  if s[2] + s[3] <= e[2]]
        if not solves:
            continue
        sv = max(solves, key=lambda s: s[2] + s[3])
        waits = [s for s in per_tid.get(("queue_wait", e[1]), ())
                 if s[2] + s[3] == sv[2] and s[4] == sv[4]]
        if not waits:
            continue
        qw = waits[0]
        demux = [s for s in demux_by_arg.get(qw[4], ())
                 if s[2] + s[3] <= qw[2] and qw[2] - s[2] < 1e9]
        if not demux:
            continue
        dm = max(demux, key=lambda s: s[2] + s[3])
        ingest = [s for s in per_tid.get(("ingest", dm[1]), ())
                  if s[2] <= dm[2] and qw[2] <= s[2] + s[3]]
        if not ingest:
            continue
        matched += 1
        parts = critical_path(epoch + op["s"] * 1e9, recv_ns, ingest[0], qw,
                              sv, e, r)
        for name, ms in parts.items():
            stages[name].append(ms)
    return matched, stages


def critical_path(sched_ns, recv_ns, ingest, queue_wait, solve, emit,
                  reorder):
    """Split one request's latency into consecutive stretches of its
    critical path, in ms: the `!flush` line's ingest up to the hand-off,
    the queue wait, the solve, emit and reorder hold up to the release,
    and everything no span covers ("unattributed": generator lag, socket,
    event loop, routing, shard queue, response serialization, the client's
    read). The stretches add up to the latency. Spans are (name, tid,
    start_ns, dur_ns, arg)."""
    end = lambda s: s[2] + s[3]
    parts = {
        "ingest": max(0.0, queue_wait[2] - ingest[2]),
        "queue_wait": queue_wait[3],
        "serve_solve": solve[3],
        "emit_reorder": max(end(emit), end(reorder)) - emit[2],
    }
    parts["unattributed"] = max(0.0, recv_ns - sched_ns - sum(parts.values()))
    return {k: v / 1e6 for k, v in parts.items()}


def per_layer(raw):
    """Every per-layer metric of a traced run, as ({name: (value, unit)},
    matched, stage_ms) with the last two from full_flush_breakdown()."""
    b, i, f = raw["batch"], raw["ingest"], raw["flush"]
    m = {}

    # batch_fleet: engine spans of the traced fleet pass.
    bspans = b["spans"]
    selfs = self_times(bspans)
    byname = _by_name(bspans)
    calls = len(byname.get("calibrate", ())) or 1
    # Every span nested in preprocess is a signal stage, so the layer's
    # self time per call is the preprocess span's whole duration.
    m["signal.preprocess_ms"] = (
        _mean([s[3] for s in byname.get("preprocess", ())]) / 1e6, "ms")
    m["signal.kept_frac"] = (b["profile_points"] / b["raw_samples"],
                             "fraction")
    m["core.radical_ms"] = (sum(selfs.get("radical", ())) / calls / 1e6, "ms")
    m["core.ransac_ms"] = (sum(selfs.get("ransac", ())) / calls / 1e6, "ms")
    m["linalg.irls_ms"] = (sum(selfs.get("irls", ())) / calls / 1e6, "ms")
    m["core.adaptive_ms"] = (
        sum(selfs.get("calibrate", ())) / calls / 1e6, "ms")
    m["core.offset_ms"] = (
        _mean([s[3] for s in byname.get("offset", ())]) / 1e6, "ms")
    m["core.calibrate_ms_p95"] = (
        percentile([s[3] / 1e6 for s in byname.get("calibrate", [])], 0.95)
        if byname.get("calibrate") else 0.0, "ms")
    m["core.ransac_degenerate_frac"] = (
        b["ransac_degenerate"] / b["ransac_subsets"]
        if b["ransac_subsets"] else 0.0, "fraction")
    m["core.center_outlier_frac"] = (b["center_outliers"] / b["jobs"],
                                     "fraction")
    m["core.adaptive_selected_frac"] = (
        b["adaptive_selected"] / b["adaptive_candidates"]
        if b["adaptive_candidates"] else 0.0, "fraction")
    jobs = [s[3] for s in byname.get("job", ())]
    m["engine.busy_frac"] = (
        sum(jobs) / 1e9 / (b["threads"] * b["traced_wall_s"]), "fraction")
    m["engine.steals"] = (b["steals"] + b["traced_steals"], "count")
    m["engine.job_ms_p95"] = (
        percentile([j / 1e6 for j in jobs], 0.95) if jobs else 0.0, "ms")
    m["trace.overhead_pct"] = (
        100.0 * (b["traced_wall_s"] / b["rerun_wall_s"] - 1.0), "%")

    # serve_ingest: shard-thread spans of the traced ingest pass.
    ispans = i["spans"]
    iselfs = self_times(ispans)
    ibyname = _by_name(ispans)
    lines = i["traced_lines"] or 1
    m["serve.decode_ns_per_line"] = (i["decode_ns_per_line"], "ns")
    m["serve.ingest_us"] = (sum(iselfs.get("ingest", ())) / lines / 1e3, "us")
    m["serve.demux_us"] = (sum(iselfs.get("demux", ())) / lines / 1e3, "us")
    appends = [s[3] for s in ibyname.get("journal_append", ())]
    m["serve.journal_append_us"] = (_mean(appends) / 1e3, "us")
    syncs = [s[3] for s in ibyname.get("journal_sync", ())] + [
        s[3] for s in _by_name(f["spans"]).get("journal_sync", ())]
    m["serve.journal_fsync_ms"] = (_mean(syncs) / 1e6, "ms")
    m["serve.backpressure_waits"] = (i["backpressure_waits"], "count")
    m["serve.shard_queue_hwm"] = (i["queue_hwm"], "lines")
    m["serve.shard_stalls"] = (i["queue_stalls"], "count")
    shard_lines = i["shard_lines"]
    m["serve.shard_skew"] = (
        max(shard_lines) / statistics.fmean(shard_lines), "ratio")
    m["serve.journal_bytes_per_read"] = (i["journal_bytes"] / i["reads"],
                                         "B")
    m["serve.replay_records_per_s"] = (
        i["restore_records"] / statistics.median(i["restore_s"]),
        "records/s")
    scrapes = [x for x in i["scrape_ms"] if x >= 0]
    m["obs.scrape_ms_p95"] = (percentile(scrapes, 0.95), "ms")
    m["obs.scrape_bytes"] = (statistics.median(i["scrape_bytes"]), "B")
    m["trace.ingest_overhead_pct"] = (
        100.0 * ((i["traced_wall_s"] / i["traced_reads"])
                 / (i["wall_s"] / i["confirmed_reads"]) - 1.0), "%")

    # serve_flush: spans of the traced flush pass, answers, mirror.
    fbyname = _by_name(f["spans"])
    dur_ms = lambda name: [s[3] / 1e6 for s in fbyname.get(name, ())]
    m["serve.queue_wait_ms_p95"] = (percentile(dur_ms("queue_wait"), 0.95),
                                    "ms")
    m["serve.solve_ms_p95"] = (percentile(dur_ms("serve_solve"), 0.95), "ms")
    m["serve.reorder_hold_ms_p95"] = (percentile(dur_ms("reorder"), 0.95),
                                      "ms")
    m["serve.emit_us"] = (_mean(dur_ms("emit")) * 1e3, "us")
    # Pool solves are the serve_solve spans a queue_wait span hands over
    # to on the same worker (inline memo/warm answers have no queue wait).
    handoffs = {(s[1], s[2] + s[3]) for s in fbyname.get("queue_wait", ())}
    pool_ns = sum(s[3] for s in fbyname.get("serve_solve", ())
                  if (s[1], s[2]) in handoffs)
    m["serve.pool_busy_frac"] = (
        pool_ns / 1e9 / (f["pool_threads"] * f["horizon_s"]), "fraction")
    matched, stages = full_flush_breakdown(raw)
    total = sum(sum(v) for v in stages.values())
    m["serve.unattributed_frac"] = (
        sum(stages["unattributed"]) / total if total else 1.0, "fraction")
    reports = [o for o in f["ops"] if o["k"] != "T"]
    for src, name in (("m", "memo"), ("i", "incremental"), ("f", "fallback")):
        m["core.flush_source_%s_frac" % name] = (
            sum(1 for o in reports if o.get("src") == src) / len(reports),
            "fraction")
    m["core.tick_us"] = (statistics.median(f["tick_us"]), "us")
    m["core.tick_fallback_frac"] = (
        f["tick_fallbacks"] / f["pose_ticks"] if f["pose_ticks"] else 0.0,
        "fraction")
    m["io.report_json_us"] = (statistics.median(f["report_json_us"]), "us")
    lag_p99, slope, _ = generator_verdict(f["ops"], f["backlog_t"],
                                          f["backlog_n"])
    m["gen.lag_ms_p99"] = (lag_p99, "ms")
    m["gen.backlog_slope"] = (slope, "requests/s")
    return m, matched, stages
