"""``repro dash``: a self-contained HTML dashboard from captured artifacts.

Consumes the files the observability flags write — a metrics snapshot
(``--metrics``), a span trace (``--trace``), a time-series capture
(``--timeseries``) — plus the benchmark results directory
(``BENCH_*.json`` baselines and the consolidated
``BENCH_history.jsonl`` trajectory), and renders one HTML file with
**no external dependencies**: styling is inline CSS, charts are inline
SVG sparklines and bars, and the raw payload is embedded so the file
is a complete record of the run.

Sections (each rendered only when its input exists):

* per-experiment wall clock (the ``experiment.*`` timers) as a bar list
* cache and replay hit rates (profile cache + event-trace store)
* measured sampling overhead vs. the thesis Ch. VIII expectations
* tier-2 specialization: lifecycle flow bars, journal event counts,
  reject reasons and worst blocks — from the ``machine.tier2.*``
  figures plus a ``--jitlog`` journal file when one is given
* time-series sparklines, one per counter/gauge, over the event clock
* bench trajectory: one sparkline per benchmark from the history file,
  with the latest value's delta against the committed baseline

``--live URL`` switches to :func:`render_live_dashboard`, which scrapes
a *running* serve daemon (``/healthz``, ``/stats``, ``/timeseries``,
``/metrics``) and renders the serve-plane view instead: shard health,
latency histograms with quantiles, producer sessions, the slow-op ring
and the raw Prometheus scrape.
"""

from __future__ import annotations

import glob
import html
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.stats import THESIS_OVERHEAD, stats_payload

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a2330; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #d5dbe3; padding-bottom: .3rem; }
table { border-collapse: collapse; font-size: .85rem; }
th, td { text-align: left; padding: .25rem .75rem .25rem 0; }
th { color: #5a6675; font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { fill: #4878b8; } .spark { stroke: #4878b8; fill: none;
       stroke-width: 1.5; } .spark-area { fill: #4878b833; stroke: none; }
.up { color: #b04030; } .down { color: #2f7d4f; }
.muted { color: #8a94a1; font-size: .8rem; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def sparkline(
    points: Sequence[float], width: int = 220, height: int = 36
) -> str:
    """An inline-SVG sparkline of ``points`` (empty string when < 2)."""
    if len(points) < 2:
        return ""
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    pad = 2
    step = (width - 2 * pad) / (len(points) - 1)
    coords = [
        (pad + i * step, pad + (height - 2 * pad) * (1 - (p - lo) / span))
        for i, p in enumerate(points)
    ]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    area = (
        f"{coords[0][0]:.1f},{height - pad} {path} "
        f"{coords[-1][0]:.1f},{height - pad}"
    )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<polygon class="spark-area" points="{area}"/>'
        f'<polyline class="spark" points="{path}"/></svg>'
    )


def hbar(fraction: float, width: int = 160, height: int = 12) -> str:
    """An inline-SVG horizontal bar filled to ``fraction`` (clamped)."""
    fraction = max(0.0, min(1.0, fraction))
    return (
        f'<svg width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="#e8ecf1"/>'
        f'<rect class="bar" width="{fraction * width:.1f}" height="{height}"/>'
        "</svg>"
    )


def _table(headers: Sequence[Tuple[str, bool]], rows: List[Sequence[str]]) -> str:
    """HTML table; header tuples are (label, numeric). Cells are pre-escaped."""
    head = "".join(
        f'<th class="num">{_esc(label)}</th>' if numeric else f"<th>{_esc(label)}</th>"
        for label, numeric in headers
    )
    body = []
    for row in rows:
        cells = "".join(
            f'<td class="num">{cell}</td>' if headers[i][1] else f"<td>{cell}</td>"
            for i, cell in enumerate(row)
        )
        body.append(f"<tr>{cells}</tr>")
    return f'<table><tr>{head}</tr>{"".join(body)}</table>'


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------


def _section_experiments(payload: dict) -> str:
    timers = payload.get("timers", {})
    rows = [
        (name[len("experiment.") :], stats)
        for name, stats in timers.items()
        if name.startswith("experiment.")
    ]
    if not rows:
        return ""
    rows.sort(key=lambda item: -item[1].get("total_s", 0.0))
    longest = rows[0][1].get("total_s", 0.0) or 1.0
    table_rows = [
        (
            _esc(name),
            f"{stats.get('total_s', 0.0):.3f}",
            f"{stats.get('count', 0)}",
            hbar(stats.get("total_s", 0.0) / longest),
        )
        for name, stats in rows
    ]
    return "<h2>Per-experiment wall clock</h2>" + _table(
        (("experiment", False), ("total s", True), ("runs", True), ("", False)),
        table_rows,
    )


def _section_caches(payload: dict) -> str:
    cache = payload.get("cache")
    store = payload.get("tracestore")
    if not cache and not store:
        return ""
    rows = []
    if cache:
        rows.append(
            (
                "profile cache",
                f"{cache['lookups']}",
                f"{cache['memory_hits']}",
                "",
                f"{cache['misses']}",
                f"{cache['hit_rate'] * 100:.1f}%",
                hbar(cache["hit_rate"]),
            )
        )
    if store:
        rows.append(
            (
                "event-trace store",
                f"{store['lookups']}",
                f"{store['memory_hits']}",
                f"{store['disk_hits']}",
                f"{store['captures']}",
                f"{store['hit_rate'] * 100:.1f}%",
                hbar(store["hit_rate"]),
            )
        )
    section = "<h2>Cache &amp; replay hit rates</h2>" + _table(
        (
            ("layer", False),
            ("lookups", True),
            ("L1 hits", True),
            ("disk hits", True),
            ("misses", True),
            ("hit rate", True),
            ("", False),
        ),
        rows,
    )
    if store and store.get("replay_events"):
        section += (
            f'<p class="muted">{store["replays"]} replays, '
            f"{store['replay_events']:,} events replayed at "
            f"{store['replay_eps'] / 1e6:.1f} Mev/s.</p>"
        )
    return section


def _section_sampling(payload: dict) -> str:
    sampling = payload.get("sampling") or []
    if not sampling:
        return ""
    rows = [
        (
            _esc(row["policy"]),
            f"{row['seen']:,}",
            f"{row['profiled']:,}",
            f"{row['overhead'] * 100:.2f}%",
            hbar(row["overhead"]),
            _esc(row.get("thesis", THESIS_OVERHEAD.get(row["policy"], "-"))),
        )
        for row in sampling
    ]
    return "<h2>Sampling overhead vs thesis Ch. VIII</h2>" + _table(
        (
            ("policy", False),
            ("seen", True),
            ("profiled", True),
            ("measured", True),
            ("", False),
            ("thesis-reported", False),
        ),
        rows,
    )


def _section_interpreter(payload: dict) -> str:
    interp = payload.get("interpreter")
    if not interp or not interp.get("runs"):
        return ""
    return (
        "<h2>Interpreter throughput</h2>"
        + _table(
            (
                ("runs", True),
                ("threaded", True),
                ("simple", True),
                ("instructions", True),
                ("run s", True),
                ("MIPS", True),
            ),
            [
                (
                    f"{interp['runs']}",
                    f"{interp['threaded_runs']}",
                    f"{interp['simple_runs']}",
                    f"{interp['instructions']:,}",
                    f"{interp['seconds']:.3f}",
                    f"{interp['mips']:.2f}",
                )
            ],
        )
    )


def _section_tier2(payload: dict, jitlog: Optional[Tuple[dict, List[dict]]]) -> str:
    """The specialization flight deck: lifecycle flow, deopt reasons,
    worst blocks — from the ``machine.tier2.*`` figures plus (when a
    ``--jitlog`` journal is given) the per-block event stream."""
    tier2 = payload.get("tier2") or {}
    jl = payload.get("jitlog") or {}
    header, events = jitlog if jitlog else ({}, [])
    if not tier2.get("runs") and not jl.get("events") and not events:
        return ""
    parts = ["<h2>Tier-2 specialization</h2>"]

    quickened = tier2.get("quickened", 0)
    flow = [
        ("quickened", quickened),
        ("requickened", tier2.get("requickened", 0)),
        ("despecialized", tier2.get("despecialized", 0)),
        ("deopts", tier2.get("deopts", 0)),
    ]
    peak = max((count for _, count in flow), default=0)
    if peak:
        rows = [
            (_esc(stage), f"{count:,}", hbar(count / peak))
            for stage, count in flow
        ]
        rows.append(
            (
                "guard hit rate",
                f"{tier2.get('guard_hit_rate', 0.0) * 100:.2f}%",
                hbar(tier2.get("guard_hit_rate", 0.0)),
            )
        )
        parts.append(_table((("lifecycle", False), ("count", True), ("", False)), rows))

    counts = dict(jl.get("events", {}))
    if not counts and events:
        for event in events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
    if counts:
        peak = max(counts.values())
        parts.append("<h3>Journal events</h3>")
        parts.append(
            _table(
                (("event", False), ("count", True), ("", False)),
                [
                    (_esc(name), f"{count:,}", hbar(count / peak))
                    for name, count in sorted(counts.items())
                ],
            )
        )

    if events:
        reasons: Dict[str, int] = {}
        blocks: Dict[Tuple[str, int], Dict[str, int]] = {}
        for event in events:
            type_ = event["type"]
            if type_ == "reject":
                key = f"reject:{event.get('reason', '?')}"
                reasons[key] = reasons.get(key, 0) + 1
            if type_ not in ("deopt", "guard_fail", "requicken", "despecialize"):
                continue
            row = blocks.setdefault(
                (event["program"], event["block"]),
                {"deopts": 0, "guard_fails": 0, "requickens": 0, "despecialized": 0},
            )
            if type_ == "deopt":
                row["deopts"] += 1
            elif type_ == "guard_fail":
                row["guard_fails"] += 1
            elif type_ == "requicken":
                row["requickens"] += 1
            else:
                row["despecialized"] = 1
        if reasons:
            parts.append("<h3>Reject reasons</h3>")
            parts.append(
                _table(
                    (("reason", False), ("count", True)),
                    [(_esc(r), f"{c:,}") for r, c in sorted(reasons.items())],
                )
            )
        worst = sorted(
            blocks.items(), key=lambda kv: (-kv[1]["deopts"], kv[0])
        )[:10]
        if worst:
            parts.append("<h3>Worst blocks (by deopts)</h3>")
            parts.append(
                _table(
                    (
                        ("block", False),
                        ("deopts", True),
                        ("guard fails", True),
                        ("requickens", True),
                        ("despecialized", False),
                    ),
                    [
                        (
                            _esc(f"{program}:{block}"),
                            f"{row['deopts']:,}",
                            f"{row['guard_fails']:,}",
                            f"{row['requickens']:,}",
                            "yes" if row["despecialized"] else "",
                        )
                        for (program, block), row in worst
                    ],
                )
            )
        dropped = header.get("dropped", 0)
        if dropped:
            parts.append(
                f'<p class="muted">journal ring dropped {dropped:,} of '
                f'{header.get("total_events", 0):,} events.</p>'
            )
    return "".join(parts) if len(parts) > 1 else ""


def _section_timeseries(samples: List[dict]) -> str:
    if not samples:
        return ""
    series: Dict[str, List[float]] = {}
    for sample in samples:
        for section in ("counters", "gauges"):
            for name, value in sample.get(section, {}).items():
                series.setdefault(name, []).append(value)
    rows = []
    for name in sorted(series):
        points = series[name]
        spark = sparkline(points) or '<span class="muted">(one sample)</span>'
        rows.append((_esc(name), f"{points[-1]:,.0f}", spark))
    ticks = [sample.get("tick", 0) for sample in samples]
    header = (
        f'<p class="muted">{len(samples)} samples over event clock '
        f"{min(ticks):,} &rarr; {max(ticks):,}.</p>"
    )
    return (
        "<h2>Time series</h2>"
        + header
        + _table((("metric", False), ("last", True), ("", False)), rows)
    )


def _section_bench(bench_dir: str) -> str:
    baselines: Dict[str, float] = {}
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        if path.endswith("history.jsonl"):
            continue
        try:
            with open(path) as handle:
                payload = json.load(handle)
            baselines[payload["name"]] = payload["mean_s"]
        except (OSError, json.JSONDecodeError, KeyError):
            continue
    history: Dict[Tuple[str, str], List[dict]] = {}
    history_path = os.path.join(bench_dir, "BENCH_history.jsonl")
    try:
        with open(history_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    history.setdefault(
                        (record["bench"], record["metric"]), []
                    ).append(record)
                except (json.JSONDecodeError, KeyError):
                    continue
    except OSError:
        pass
    if not baselines and not history:
        return ""
    rows = []
    benches = sorted(set(baselines) | {bench for bench, _ in history})
    for bench in benches:
        records = history.get((bench, "mean_s"), [])
        points = [record["value"] for record in records]
        baseline = baselines.get(bench)
        latest = points[-1] if points else baseline
        if latest is None:
            continue
        if baseline:
            delta = (latest - baseline) / baseline
            cls = "up" if delta > 0.0 else "down"
            delta_cell = f'<span class="{cls}">{delta * 100:+.1f}%</span>'
        else:
            delta_cell = '<span class="muted">no baseline</span>'
        sha = _esc(records[-1].get("git_sha", "-")) if records else "-"
        rows.append(
            (
                _esc(bench),
                f"{latest:.3f}",
                f"{baseline:.3f}" if baseline else "-",
                delta_cell,
                f"{len(points)}",
                sha,
                sparkline(points) if len(points) > 1 else "",
            )
        )
    if not rows:
        return ""
    return "<h2>Bench trajectory vs baselines</h2>" + _table(
        (
            ("bench", False),
            ("latest s", True),
            ("baseline s", True),
            ("delta", True),
            ("runs", True),
            ("last sha", False),
            ("", False),
        ),
        rows,
    )


# ----------------------------------------------------------------------
# live mode (``repro dash --live URL``)
# ----------------------------------------------------------------------


def _fmt_seconds(value: float) -> str:
    """A latency with a unit a human reads at a glance."""
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}µs"


def _hist_bars(snap: dict, width: int = 160, height: int = 24) -> str:
    """A tiny inline-SVG bucket-count bar chart of one histogram."""
    buckets = {int(i): n for i, n in snap.get("buckets", {}).items()}
    if snap.get("overflow"):
        buckets[snap.get("nbuckets", max(buckets, default=0) + 1)] = snap["overflow"]
    if not buckets:
        return ""
    lo, hi = min(buckets), max(buckets)
    nbars = hi - lo + 1
    peak = max(buckets.values())
    bar_w = max(1.0, width / nbars - 1)
    bars = []
    for i in range(lo, hi + 1):
        count = buckets.get(i, 0)
        h = (height - 2) * count / peak
        x = (i - lo) * (width / nbars)
        bars.append(
            f'<rect class="bar" x="{x:.1f}" y="{height - h:.1f}" '
            f'width="{bar_w:.1f}" height="{h:.1f}"/>'
        )
    return f'<svg width="{width}" height="{height}">{"".join(bars)}</svg>'


def _section_live_hists(hists: dict, title: str) -> str:
    from repro.obs.hist import Histogram

    rows = []
    for name, snap in sorted(hists.items()):
        hist = Histogram.from_snapshot(snap)
        if hist.count == 0:
            continue
        latency = hist.kind == "latency"
        fmt = _fmt_seconds if latency else (lambda v: f"{v:,.0f}")
        rows.append(
            (
                _esc(name),
                f"{hist.count:,}",
                fmt(hist.quantile(0.5)),
                fmt(hist.quantile(0.9)),
                fmt(hist.quantile(0.99)),
                fmt(hist.vmax),
                _hist_bars(snap),
            )
        )
    if not rows:
        return ""
    return f"<h2>{_esc(title)}</h2>" + _table(
        (
            ("histogram", False),
            ("count", True),
            ("p50", True),
            ("p90", True),
            ("p99", True),
            ("max", True),
            ("", False),
        ),
        rows,
    )


def _section_live_shards(shards: List[dict]) -> str:
    from repro.obs.hist import Histogram

    if not shards:
        return ""
    rows = []
    for shard in shards:
        counters = shard.get("counters", {})
        flush = shard.get("hists", {}).get("shard.flush")
        rows.append(
            (
                f"{shard.get('index', '?')}",
                "yes" if shard.get("alive") else '<span class="up">DEAD</span>',
                f"{shard.get('queue_depth', 0)}",
                f"{shard.get('sites', 0):,}",
                f"{counters.get('events', 0):,}",
                f"{counters.get('flushes', 0):,}",
                _fmt_seconds(Histogram.from_snapshot(flush).total) if flush else "-",
                f"{shard.get('journal_bytes', 0):,}",
                f"{shard.get('snapshot_bytes', 0):,}",
                _esc(
                    f"{shard['snapshot_age_s']:.1f}s"
                    if shard.get("snapshot_age_s") is not None
                    else "never"
                ),
                _esc(
                    f"{shard['last_fold_age_s']:.1f}s"
                    if shard.get("last_fold_age_s") is not None
                    else "never"
                ),
                f"{shard.get('last_fold_tick', 0):,}",
            )
        )
    return "<h2>Shard health</h2>" + _table(
        (
            ("shard", False),
            ("alive", False),
            ("queue", True),
            ("sites", True),
            ("events", True),
            ("flushes", True),
            ("flush time", True),
            ("journal B", True),
            ("snapshot B", True),
            ("snapshot age", True),
            ("last apply", True),
            ("apply tick", True),
        ),
        rows,
    )


def _section_live_counters(stats: dict) -> str:
    rows = [
        (_esc(name), f"{value:,}")
        for name, value in sorted(stats.get("counters", {}).items())
    ]
    rows += [
        (_esc(name), f"{value:,}")
        for name, value in sorted(stats.get("gauges", {}).items())
    ]
    if not rows:
        return ""
    return "<h2>Service counters &amp; gauges</h2>" + _table(
        (("metric", False), ("value", True)), rows
    )


def _section_live_clients(stats: dict) -> str:
    clients = stats.get("clients", {})
    if not clients:
        return ""
    rows = [
        (
            _esc(client),
            _esc(session.get("stream", "") or "-"),
            f"{session.get('expected_seq', 0):,}",
            f"{session.get('pending', 0)}",
            f"{session.get('reorder_buffered', 0)}",
            f"{session.get('sites', 0):,}",
        )
        for client, session in sorted(clients.items())
    ]
    return "<h2>Producer sessions</h2>" + _table(
        (
            ("client", False),
            ("stream", False),
            ("next seq", True),
            ("pending", True),
            ("reordered", True),
            ("sites", True),
        ),
        rows,
    )


def _section_live_slow_ops(stats: dict) -> str:
    slow_ops = stats.get("slow_ops", [])
    threshold = stats.get("slow_op_threshold")
    if not slow_ops:
        return ""
    rows = [
        (
            _esc(record.get("op", "?")),
            _fmt_seconds(record.get("seconds", 0.0)),
            _esc(record.get("detail", "")),
        )
        for record in slow_ops
    ]
    header = (
        f'<p class="muted">threshold {threshold}s; newest last, '
        f"ring of the most recent {len(slow_ops)}.</p>"
    )
    return (
        "<h2>Slow operations</h2>"
        + header
        + _table((("op", False), ("took", True), ("detail", False)), rows)
    )


def render_live_dashboard(base_url: str, timeout: float = 5.0) -> str:
    """Render the dashboard against a *running* serve daemon.

    Scrapes ``/healthz``, ``/stats``, ``/timeseries`` and ``/metrics``
    from ``base_url`` (the daemon's HTTP listener, e.g.
    ``http://127.0.0.1:7572``) and renders the same self-contained HTML
    the offline mode produces — no JavaScript polling; re-run the
    command for a fresh snapshot.  Raises :class:`OSError` when the
    daemon is unreachable; the optional endpoints degrade to omitted
    sections instead.
    """
    import urllib.request

    base = base_url.rstrip("/")
    if "://" not in base:
        base = "http://" + base

    def fetch(path: str) -> str:
        with urllib.request.urlopen(base + path, timeout=timeout) as response:
            return response.read().decode("utf-8")

    health = json.loads(fetch("/healthz"))
    stats = json.loads(fetch("/stats"))
    try:
        timeseries = json.loads(fetch("/timeseries"))
    except OSError:
        timeseries = {"samples": []}
    try:
        metrics_text = fetch("/metrics")
    except OSError:
        metrics_text = ""

    alive = health.get("alive", [])
    status = (
        '<span class="down">all shards up</span>'
        if all(alive) and alive
        else f'<span class="up">{alive.count(False)} shard(s) DOWN</span>'
    )
    header = (
        f'<p class="muted">Scraped {_esc(base)} &mdash; '
        f"{health.get('shards', '?')} shard(s), {status}"
        + (", <b>ingest paused</b>" if stats.get("paused") else "")
        + ".</p>"
    )

    shard_hists: Dict[str, dict] = {}
    for shard in stats.get("shards", []):
        for name, snap in shard.get("hists", {}).items():
            shard_hists[f"shard{shard.get('index', '?')}.{name}"] = snap

    sections = [
        _section_live_counters(stats),
        _section_live_hists(stats.get("hists", {}), "Serve latency histograms"),
        _section_live_shards(stats.get("shards", [])),
        _section_live_hists(shard_hists, "Per-shard histograms"),
        _section_live_clients(stats),
        _section_live_slow_ops(stats),
        _section_timeseries(timeseries.get("samples", [])),
    ]
    body = "".join(section for section in sections if section)
    raw = (
        "<details><summary class='muted'>raw /metrics scrape</summary>"
        f"<pre>{_esc(metrics_text)}</pre></details>"
        if metrics_text
        else ""
    )
    embedded = json.dumps({"healthz": health, "stats": stats}, sort_keys=True)
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>value-profiling live dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>Value Profiling &mdash; live service</h1>"
        f"{header}{body}{raw}"
        f'<script type="application/json" id="repro-live">{embedded}</script>'
        "</body></html>"
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def render_dashboard(
    metrics_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    timeseries_path: Optional[str] = None,
    bench_dir: Optional[str] = None,
    jitlog_path: Optional[str] = None,
) -> str:
    """Render the full dashboard HTML from whichever artifacts exist."""
    from repro.obs.jitlog import load_jitlog
    from repro.obs.metrics import load_snapshot
    from repro.obs.timeseries import load_series
    from repro.obs.trace import load_trace

    snapshot = load_snapshot(metrics_path) if metrics_path else None
    spans = load_trace(trace_path) if trace_path else None
    samples = load_series(timeseries_path) if timeseries_path else None
    jitlog = load_jitlog(jitlog_path) if jitlog_path else None
    payload = stats_payload(spans=spans, snapshot=snapshot)

    sections = [
        _section_experiments(payload),
        _section_caches(payload),
        _section_interpreter(payload),
        _section_tier2(payload, jitlog),
        _section_sampling(payload),
        _section_timeseries(samples or []),
        _section_bench(bench_dir) if bench_dir else "",
    ]
    body = "".join(section for section in sections if section)
    if not body:
        body = "<p>(no artifacts to report — pass --metrics/--trace/--timeseries)</p>"
    inputs = ", ".join(
        _esc(os.path.basename(p))
        for p in (metrics_path, trace_path, timeseries_path, jitlog_path)
        if p
    )
    embedded = json.dumps(payload, sort_keys=True, default=str)
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>value-profiling dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>Value Profiling &mdash; run dashboard</h1>"
        f'<p class="muted">Inputs: {inputs or "(none)"}.</p>'
        f"{body}"
        f'<script type="application/json" id="repro-stats">{embedded}</script>'
        "</body></html>"
    )
