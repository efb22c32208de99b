"""``repro inspect``: per-site TNV health introspection.

The experiment tables answer the paper's questions with end-of-run
aggregates; this module answers the operational one — *is this site's
bounded TNV table actually capturing the site's behavior?* — from the
clear-boundary health counters :class:`~repro.core.tnv.TNVTable` keeps
(occupancy, eviction churn, clear→steady promotions, value turnover,
saturation).

Two views:

* **Overview** — the hottest sites with their health counters and any
  warning flags (see :func:`health_flags`).
* **Site detail** (``--site N``, indexing the overview rows) — the
  table's resident entries split into steady and clear parts, the full
  health record, and the site's Inv-Top / LVP trajectory across
  clearing intervals — the same convergence-over-intervals lens the
  thesis applies in its convergence chapter — computed by replaying
  the site's value stream in ``clear_interval``-sized windows.

Everything renders from the shared simulate-once caches
(:func:`repro.analysis.experiments.profiled` / ``traced``), so
inspecting a workload that an experiment already simulated costs no
interpreter time.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import Table, percentage
from repro.core.metrics import TOP_N
from repro.core.sites import Site, SiteKind

#: churn above this fraction of the clear part per clearing pass is
#: flagged: most of the evictable table is cycling every interval, so
#: the table is chasing values rather than accumulating them.
HIGH_CHURN = 0.5

#: fraction of clearing passes that found the table full before a site
#: is flagged saturated (capacity likely too small for its value set).
SATURATED = 0.5

#: windows rendered in the trajectory table before eliding the middle.
MAX_WINDOWS = 24


def health_flags(health: dict) -> List[str]:
    """Warning flags for one table's :meth:`~repro.core.tnv.TNVTable.health`.

    * ``high-churn`` — more than :data:`HIGH_CHURN` of the clear part
      is evicted per clearing pass on average.
    * ``saturated`` — at least :data:`SATURATED` of clearing passes
      found every slot occupied.
    * ``never-promoted`` — the table has cleared repeatedly and admitted
      new values, yet no value ever displaced the initial steady set;
      the steady part froze on whatever arrived first.
    """
    flags = []
    clears = health["clears"]
    clear_slots = max(1, health["capacity"] - health["steady"])
    if clears >= 2 and health["churn"] / clear_slots > HIGH_CHURN:
        flags.append("high-churn")
    if clears >= 1 and health["saturated_clears"] / clears >= SATURATED:
        flags.append("saturated")
    if clears >= 2 and health["promotions"] == 0 and health["turnover"] > 0:
        flags.append("never-promoted")
    return flags


def _hot_profiles(database, kind: Optional[SiteKind] = None) -> List:
    """Profiles hottest-first, ties by site — the overview's (and
    ``--site``'s) order.  ``profiles`` lists them by site already, and
    a stable sort keeps that order among equal counts."""
    profiles = database.profiles(kind)
    profiles.sort(key=lambda p: -p.executions)
    return profiles


def render_overview(database, kind: Optional[SiteKind] = None, top: int = 10) -> str:
    """The hottest sites with TNV health counters and warning flags."""
    profiles = _hot_profiles(database, kind)
    label = kind.value if kind else "all"
    table = Table(
        (
            "#",
            "site",
            "execs",
            "occupancy",
            "clears",
            "churn/clear",
            "promos",
            "turnover",
            "saturated%",
            "flags",
        ),
        title=f"{database.name}: TNV health, hottest {label} sites (top {top})",
    )
    flagged = 0
    for index, profile in enumerate(profiles[:top]):
        health = profile.tnv.health()
        flags = health_flags(health)
        flagged += bool(flags)
        clears = health["clears"]
        table.add_row(
            index,
            profile.site.qualified_name(),
            profile.executions,
            f"{health['resident']}/{health['capacity']}",
            clears,
            health["churn"],
            health["promotions"],
            health["turnover"],
            percentage(health["saturated_clears"] / clears if clears else 0.0),
            ",".join(flags) if flags else "-",
        )
    if not profiles:
        table.add_row(0, "(no sites profiled)", 0, "-", 0, 0.0, 0, 0, 0.0, "-")
    footer = (
        f"{flagged} of {min(top, len(profiles))} shown sites flagged; "
        "drill down with --site N"
    )
    return table.render() + "\n" + footer


def render_tnv_contents(profile) -> str:
    """The table's resident entries, steady part first."""
    tnv = profile.tnv
    steady = tnv.steady
    table = Table(
        ("rank", "part", "value", "count", "share%"),
        title=f"{profile.site.qualified_name()}: TNV contents "
        f"({len(tnv)}/{tnv.capacity} resident, {tnv.clears} clears)",
    )
    total = profile.executions
    for rank, entry in enumerate(tnv.snapshot()):
        table.add_row(
            rank,
            "steady" if rank < steady else "clear",
            repr(entry.value),
            entry.count,
            percentage(entry.count / total if total else 0.0),
        )
    if not len(tnv):
        table.add_row(0, "-", "(empty)", 0, 0.0)
    return table.render()


def render_health(profile) -> str:
    """The full health record for one site's table."""
    health = profile.tnv.health()
    table = Table(("health counter", "value"), precision=2)
    for name, value in health.items():
        table.add_row(name, value)
    flags = health_flags(health)
    table.add_row("flags", ",".join(flags) if flags else "-")
    return table.render()


def window_trajectory(values: List, window: int) -> List[dict]:
    """Per-window Inv-Top/LVP rows over one site's value stream.

    Each window is ``window`` consecutive executions — the clearing
    interval, so row N describes what the table saw between clears N
    and N+1.
    """
    rows = []
    for start in range(0, len(values), window):
        chunk = values[start : start + window]
        counts = Counter(chunk).most_common()
        n = len(chunk)
        pairs = sum(1 for prev, cur in zip(chunk, chunk[1:]) if prev == cur)
        rows.append(
            {
                "window": len(rows),
                "events": n,
                "distinct": len(counts),
                "top_value": counts[0][0],
                "inv_top1": counts[0][1] / n,
                "inv_top_n": sum(count for _, count in counts[:TOP_N]) / n,
                "lvp": pairs / (n - 1) if n > 1 else 0.0,
            }
        )
    return rows


def render_trajectory(site: Site, values: Optional[List], window: int) -> str:
    """Inv-Top/LVP per clearing interval (elides the middle when long)."""
    title = f"{site.qualified_name()}: trajectory per {window}-event clearing interval"
    table = Table(
        ("window", "events", "distinct", "top value", "inv-top1%", f"inv-top{TOP_N}%", "lvp%"),
        title=title,
    )
    if not values:
        table.add_row(0, 0, 0, "(no value trace for this site kind)", 0.0, 0.0, 0.0)
        return table.render()
    rows = window_trajectory(values, window)
    shown = rows
    elided = 0
    if len(rows) > MAX_WINDOWS:
        head = MAX_WINDOWS // 2
        shown = rows[:head] + rows[-(MAX_WINDOWS - head) :]
        elided = len(rows) - MAX_WINDOWS
    previous = None
    for row in shown:
        if previous is not None and row["window"] != previous + 1:
            table.add_separator()
        previous = row["window"]
        table.add_row(
            row["window"],
            row["events"],
            row["distinct"],
            repr(row["top_value"]),
            percentage(row["inv_top1"]),
            percentage(row["inv_top_n"]),
            percentage(row["lvp"]),
        )
    rendered = table.render()
    if elided:
        rendered += f"\n({elided} middle window(s) elided)"
    return rendered


def inspect_workload(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    kind: Optional[SiteKind] = None,
    site: Optional[int] = None,
    top: int = 10,
) -> str:
    """The full ``repro inspect`` report (overview or one site's detail).

    ``site`` indexes the overview's hottest-first rows.  Replays from
    the simulate-once event store, so repeated inspections are cheap.
    """
    from repro.analysis import experiments

    run = experiments.profiled(name, variant, scale)
    database = run.database
    if site is None:
        return render_overview(database, kind=kind, top=top)
    profiles = _hot_profiles(database, kind)
    if not 0 <= site < len(profiles):
        raise IndexError(
            f"--site {site} out of range: {name} has {len(profiles)} "
            f"{'sites' if kind is None else kind.value + ' sites'}"
        )
    profile = profiles[site]
    window = database.config.clear_interval or 2000
    traces = experiments.traced(name, variant, scale, targets=_trace_targets())
    sections = [
        render_tnv_contents(profile),
        render_health(profile),
        render_trajectory(profile.site, traces.get(profile.site), window),
    ]
    return "\n\n".join(sections)


def _trace_targets():
    from repro.isa.instrument import ProfileTarget

    # Match profiled()'s default families, so the trajectory's stream is
    # exactly what the inspected table consumed.
    return (ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS)
