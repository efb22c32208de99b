"""Per-site profiles and the profile database.

A :class:`SiteProfile` couples the paper's bounded TNV table with the
exact reference statistics; a :class:`ProfileDatabase` maps sites to
profiles and is what instrumentation front ends write into and what the
analysis layer reads.

By default both structures are maintained so experiments can compare
TNV estimates against ground truth.  Front ends that want to model the
paper's actual memory budget can construct the database with
``exact=False`` and get TNV-only profiles (LVP is still tracked — it
needs only the previous value, which real value profilers also keep).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from heapq import nlargest
from operator import attrgetter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.fold import SiteFold, fold_values, is_zero
from repro.core.metrics import TOP_N, SiteMetrics, ValueStreamStats, aggregate_metrics
from repro.core.sites import Site, SiteKind
from repro.core.tnv import TNVTable
from repro.errors import ProfileError
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES

Value = Hashable


@dataclass
class TNVConfig:
    """Configuration shared by every TNV table in a database."""

    capacity: int = 10
    steady: int = 5
    clear_interval: Optional[int] = 2000

    def make_table(self) -> TNVTable:
        return TNVTable(
            capacity=self.capacity,
            steady=self.steady,
            clear_interval=self.clear_interval,
        )


class SiteProfile:
    """All profiling state for one site.

    Each per-site scalar is kept once.  The execution count is the TNV
    table's ``total``, which the table keeps anyway for its invariance
    estimates; the zero count, LVP hits and first and last value live
    here, and the exact statistics add only the full histogram.
    ``_first`` and ``_last`` mean something only once ``executions`` is
    positive.

    Attributes:
        site: the profiled entity.
        tnv: the bounded top-value table (always maintained).
        exact: the exact value histogram, or ``None`` when the profile
            was created in TNV-only mode or has merged a TNV-only one.
    """

    __slots__ = ("site", "tnv", "exact", "_zeros", "_lvp_hits", "_first", "_last")

    def __init__(self, site: Site, config: TNVConfig, exact: bool = True) -> None:
        self.site = site
        self.tnv = config.make_table()
        self.exact: Optional[ValueStreamStats] = ValueStreamStats() if exact else None
        self._zeros = 0
        self._lvp_hits = 0
        self._first: Value = None
        self._last: Value = None

    def record(self, value: Value) -> None:
        """Record one dynamic value for this site."""
        if self.tnv._total:
            if value == self._last:
                self._lvp_hits += 1
        else:
            self._first = value
        if is_zero(value):
            self._zeros += 1
        self._last = value
        self.tnv.record(value)
        if self.exact is not None:
            self.exact.record(value)

    def record_many(self, values: Iterable[Value]) -> None:
        """Record a run of dynamic values for this site, in order.

        State-identical to per-value :meth:`record` calls, but the run
        is reduced exactly once (:func:`repro.core.fold.fold_values` —
        one dedup pass split at this table's clearing boundaries, one
        adjacency pass) and the reduction feeds every structure through
        :meth:`record_fold`.
        """
        tnv = self.tnv
        self.record_fold(fold_values(values, tnv.clear_interval, tnv._since_clear))

    def record_fold(self, fold: SiteFold) -> None:
        """Fold an already-reduced value run into this profile.

        The one batch path: the run arrives as a
        :class:`~repro.core.fold.SiteFold` whose chunks were split for
        exactly this profile's TNV table, so the scalars splice on
        directly, the TNV table takes the chunks and the exact
        histogram takes the same fold, with no further dedup.
        """
        if fold.n == 0:
            return
        tnv = self.tnv
        if fold.interval != tnv.clear_interval or fold.since != tnv._since_clear:
            raise ProfileError(
                f"fold split for clear_interval={fold.interval} at "
                f"since={fold.since} cannot feed a table at "
                f"clear_interval={tnv.clear_interval} "
                f"since={tnv._since_clear}"
            )
        hits = fold.lvp_hits
        if tnv._total:
            if fold.first == self._last:
                hits += 1
        else:
            self._first = fold.first
        self._lvp_hits += hits
        self._zeros += fold.zeros
        self._last = fold.last
        for counts, chunk_n in fold.chunks:
            tnv.record_grouped(counts, chunk_n)
        if self.exact is not None:
            self.exact.record_fold(fold)

    @property
    def executions(self) -> int:
        return self.tnv._total

    def lvp(self) -> float:
        """Last-value predictability: P(value == previous value).

        The first execution has no predecessor and is excluded from the
        denominator, matching a last-value predictor that cannot predict
        its first encounter.
        """
        total = self.tnv._total
        if total <= 1:
            return 0.0
        return self._lvp_hits / (total - 1)

    def pct_zeros(self) -> float:
        """Fraction of executions whose value was zero."""
        total = self.tnv._total
        if total == 0:
            return 0.0
        return self._zeros / total

    def metrics(self, top_n: int = TOP_N, prefer_exact: bool = True) -> SiteMetrics:
        """The per-site result row; every :class:`SiteMetrics` row of a
        profile is built here.

        Executions, LVP and %Zeros are this profile's own scalars.  With
        exact statistics available (and ``prefer_exact``), the
        invariance and distinct-value numbers are ground truth from the
        histogram, whose top counts are taken once for Inv-Top(1) and
        Inv-Top(N); otherwise they are the TNV table's estimates, with
        ``distinct`` reported as the number of resident entries (a lower
        bound).
        """
        tnv = self.tnv
        total = tnv._total
        if prefer_exact and self.exact is not None:
            histogram = self.exact.histogram
            if total == 0:
                inv_top1 = inv_top_n = 0.0
            else:
                counts = nlargest(max(top_n, 1), histogram.values())
                inv_top1 = counts[0] / total
                inv_top_n = sum(counts[:top_n]) / total
            distinct = len(histogram)
        else:
            inv_top1 = tnv.estimated_invariance(1)
            inv_top_n = tnv.estimated_invariance(top_n)
            distinct = len(tnv)
        return SiteMetrics(
            executions=total,
            lvp=self.lvp(),
            inv_top1=inv_top1,
            inv_top_n=inv_top_n,
            distinct=distinct,
            pct_zeros=self.pct_zeros(),
        )

    def tnv_metrics(self, top_n: int = TOP_N) -> SiteMetrics:
        """Metrics as the bounded TNV table reports them."""
        return self.metrics(top_n, prefer_exact=False)

    def merge(self, other: "SiteProfile") -> None:
        """Fold another run's profile of the *same site* into this one.

        The merged LVP matches the concatenated value stream: when
        ``other``'s first value equals this profile's last value, the
        run boundary is itself a last-value hit and is counted.  The
        exact histogram survives only when both sides have one: after
        merging a TNV-only profile it would cover only some of the
        counted executions, so the merged profile becomes TNV-only.
        """
        if other.site != self.site:
            raise ProfileError(f"cannot merge profiles of different sites: {self.site} vs {other.site}")
        if other.tnv._total:
            if not self.tnv._total:
                self._first = other._first
            elif other._first == self._last:
                self._lvp_hits += 1
            self._last = other._last
        self._zeros += other._zeros
        self._lvp_hits += other._lvp_hits
        self.tnv.merge(other.tnv)
        if self.exact is not None:
            if other.exact is None:
                self.exact = None
            else:
                self.exact.merge(other.exact)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SiteProfile({self.site}, executions={self.executions})"


class ProfileDatabase:
    """Mapping of :class:`Site` to :class:`SiteProfile`.

    This is the object instrumentation front ends populate.  It offers
    the query surface the analysis layer needs: filtering by site kind,
    per-site metrics, execution-weighted aggregates, and persistence.

    Args:
        config: TNV knobs applied to every site's table.
        exact: whether to keep exact reference statistics per site.
        name: optional label (workload + input set) used in reports.
    """

    def __init__(
        self,
        config: Optional[TNVConfig] = None,
        exact: bool = True,
        name: str = "",
    ) -> None:
        self.config = config or TNVConfig()
        self.exact = exact
        self.name = name
        self._profiles: Dict[Site, SiteProfile] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(self, site: Site, value: Value) -> None:
        """Record one dynamic value for ``site``, creating it on demand."""
        profile = self._profiles.get(site)
        if profile is None:
            profile = SiteProfile(site, self.config, exact=self.exact)
            self._profiles[site] = profile
            _METRICS.inc("profile.sites_created")
        profile.record(value)

    def record_batch(self, site: Site, values: Sequence[Value]) -> None:
        """Record a run of dynamic values for ``site``, in order.

        State-identical to per-value :meth:`record` calls but pays the
        site lookup once per run instead of once per event; the run is
        folded once (:func:`~repro.core.fold.fold_values`) and the fold
        goes to :meth:`SiteProfile.record_fold`.
        """
        if not values:
            return
        profile = self._batch_profile(site, len(values))
        tnv = profile.tnv
        profile.record_fold(fold_values(values, tnv.clear_interval, tnv._since_clear))

    def record_fold(self, site: Site, fold: SiteFold) -> None:
        """Record an already-reduced value run for ``site``.

        The columnar replay path: the trace store folds each site's run
        once (:func:`repro.core.tracestore.replay_profile`) and this
        method splices the reduction in with the same batch accounting
        :meth:`record_batch` pays — no per-event objects anywhere in
        between.
        """
        if fold.n == 0:
            return
        self._batch_profile(site, fold.n).record_fold(fold)

    def _batch_profile(self, site: Site, n: int) -> SiteProfile:
        """``site``'s profile, created on demand, with a batch of ``n``
        events counted against it: the accounting every batch pays once,
        whichever way it arrives."""
        profile = self._profiles.get(site)
        if profile is None:
            profile = SiteProfile(site, self.config, exact=self.exact)
            self._profiles[site] = profile
            _METRICS.inc("profile.sites_created")
        # Most runs are a few events long, so the registries are only
        # called while they are on: a disabled call still costs a frame.
        if _METRICS.enabled:
            _METRICS.inc("profile.batches")
            _METRICS.inc("profile.batch_events", n)
        if _TIMESERIES.enabled:
            _TIMESERIES.advance(n)
        return profile

    def profile_for(self, site: Site) -> SiteProfile:
        """The profile for ``site``; raises if the site was never seen."""
        try:
            return self._profiles[site]
        except KeyError:
            raise ProfileError(f"no profile recorded for site {site}") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, site: Site) -> bool:
        return site in self._profiles

    def __iter__(self) -> Iterator[SiteProfile]:
        return iter(self._profiles.values())

    def sites(self, kind: Optional[SiteKind] = None) -> List[Site]:
        """All sites, optionally restricted to one kind, sorted."""
        sites = self._profiles.keys()
        if kind is not None:
            sites = (site for site in sites if site.kind == kind)
        return sorted(sites)

    def profiles(
        self,
        kind: Optional[SiteKind] = None,
        predicate: Optional[Callable[[Site], bool]] = None,
    ) -> List[SiteProfile]:
        """Profiles filtered by kind and/or an arbitrary site predicate."""
        result = []
        for site, profile in self._profiles.items():
            if kind is not None and site.kind != kind:
                continue
            if predicate is not None and not predicate(site):
                continue
            result.append(profile)
        result.sort(key=lambda p: p.site)
        return result

    def total_executions(self, kind: Optional[SiteKind] = None) -> int:
        return sum(profile.executions for profile in self.profiles(kind))

    def metrics_by_site(
        self, kind: Optional[SiteKind] = None, top_n: int = TOP_N
    ) -> List[Tuple[Site, SiteMetrics]]:
        """(site, metrics) rows sorted hottest-first."""
        rows = [(p.site, p.metrics(top_n)) for p in self.profiles(kind)]
        rows.sort(key=lambda item: (-item[1].executions, item[0]))
        return rows

    def summary(
        self,
        kind: Optional[SiteKind] = None,
        top_n: int = TOP_N,
        predicate: Optional[Callable[[Site], bool]] = None,
    ) -> SiteMetrics:
        """Execution-weighted aggregate metrics over matching sites."""
        rows = [p.metrics(top_n) for p in self.profiles(kind, predicate)]
        return aggregate_metrics(rows)

    def summary_by_procedure(
        self, kind: Optional[SiteKind] = None, top_n: int = TOP_N
    ) -> Dict[str, SiteMetrics]:
        """Aggregate metrics per procedure (thesis Table V.4)."""
        grouped: Dict[str, List[SiteMetrics]] = {}
        for profile in self.profiles(kind):
            grouped.setdefault(profile.site.procedure, []).append(profile.metrics(top_n))
        return {name: aggregate_metrics(rows) for name, rows in grouped.items()}

    def summary_by_opcode(
        self, kind: Optional[SiteKind] = None, top_n: int = TOP_N
    ) -> Dict[str, SiteMetrics]:
        """Aggregate metrics per defining opcode (thesis Table V.3)."""
        grouped: Dict[str, List[SiteMetrics]] = {}
        for profile in self.profiles(kind):
            grouped.setdefault(profile.site.opcode, []).append(profile.metrics(top_n))
        return {name: aggregate_metrics(rows) for name, rows in grouped.items()}

    # ------------------------------------------------------------------
    # combination / persistence
    # ------------------------------------------------------------------

    def merge(self, other: "ProfileDatabase") -> None:
        """Fold another database into this one, site by site."""
        _METRICS.inc("profile.db_merges")
        for site, profile in other._profiles.items():
            mine = self._profiles.get(site)
            if mine is None:
                self._profiles[site] = profile
            else:
                mine.merge(profile)

    def union(self, other: "ProfileDatabase") -> None:
        """Adopt every profile of ``other``, which shares no site with this one.

        One ``dict.update``: the profiles join as they are, and the
        site hashes the dict stored are reused, so no ``Site.__hash__``
        runs.  Raises :class:`ProfileError` when the sizes show a site
        in both; :meth:`merge` folds overlapping databases.
        """
        expected = len(self._profiles) + len(other._profiles)
        self._profiles.update(other._profiles)
        if len(self._profiles) != expected:
            raise ProfileError(
                f"union of databases sharing {expected - len(self._profiles)} site(s)"
            )

    def __reduce__(self):
        """Pickle as a few columns of builtins, one row per site.

        The default pickle of this object graph pays per-object work
        for every site (slot-state reduction of three objects, a
        ``Counter`` reduction, a ``Site`` ``__dict__``) that dwarfs the
        data itself.  Rows are in insertion order, so the rebuilt
        database iterates, merges and renders exactly like this one.
        """
        profiles = list(self._profiles.values())
        sites = [
            (site.kind.value, site.program, site.procedure, site.label, site.opcode)
            for site in self._profiles
        ]
        tables = [_tnv_fields(profile.tnv) for profile in profiles]
        stats = [
            None if (exact := profile.exact) is None else dict(exact._histogram)
            for profile in profiles
        ]
        scalars = [_profile_fields(profile) for profile in profiles]
        return (
            _rebuild_database,
            (self.config, self.exact, self.name, sites, tables, stats, scalars),
        )

    def to_json(self) -> str:
        """Serialize TNV snapshots and headline stats to JSON.

        Exact histograms are intentionally not serialized — persisted
        profiles model what a real value profiler would write to disk.
        Values must be JSON-friendly (the ISA front end's integers are).
        """
        payload = {
            "name": self.name,
            "config": {
                "capacity": self.config.capacity,
                "steady": self.config.steady,
                "clear_interval": self.config.clear_interval,
            },
            "sites": [
                self._site_payload(site, profile)
                for site, profile in sorted(self._profiles.items())
            ],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def _site_payload(site: Site, profile: SiteProfile) -> dict:
        entry = {
            "kind": site.kind.value,
            "program": site.program,
            "procedure": site.procedure,
            "label": site.label,
            "opcode": site.opcode,
            "executions": profile.executions,
            "lvp": profile.lvp(),
            "pct_zeros": profile.pct_zeros(),
            "tnv": profile.tnv.to_dict(),
        }
        # First/last values let merges of reloaded profiles count the
        # run-boundary LVP hit; the keys are present only when the
        # profile saw at least one value, so None stays unambiguous.
        if profile.executions:
            entry["first"] = profile._first
            entry["last"] = profile._last
        return entry

    @classmethod
    def from_json(cls, text: str) -> "ProfileDatabase":
        """Rebuild a TNV-only database from :meth:`to_json` output.

        A site's execution count is its TNV table's ``total``; an entry
        whose ``executions`` says otherwise, or one with executions but
        without ``first`` and ``last``, is not :meth:`to_json` output
        and raises :class:`ProfileError`.
        """
        payload = json.loads(text)
        config = TNVConfig(**payload["config"])
        db = cls(config=config, exact=False, name=payload.get("name", ""))
        for entry in payload["sites"]:
            site = Site(
                kind=SiteKind(entry["kind"]),
                program=entry["program"],
                procedure=entry["procedure"],
                label=entry["label"],
                opcode=entry["opcode"],
            )
            profile = SiteProfile(site, config, exact=False)
            profile.tnv = TNVTable.from_dict(entry["tnv"])
            executions = entry["executions"]
            if executions != profile.tnv.total:
                raise ProfileError(
                    f"site {site}: executions {executions} differ from its "
                    f"TNV table's total {profile.tnv.total}"
                )
            if executions:
                if "first" not in entry or "last" not in entry:
                    raise ProfileError(
                        f"site {site}: {executions} executions without a "
                        "first and last value"
                    )
                profile._first = entry["first"]
                profile._last = entry["last"]
                profile._zeros = round(entry["pct_zeros"] * executions)
                if executions > 1:
                    profile._lvp_hits = round(entry["lvp"] * (executions - 1))
            db._profiles[site] = profile
        return db


# ----------------------------------------------------------------------
# pickling: ProfileDatabase.__reduce__ and its reconstructor
# ----------------------------------------------------------------------

# Field lists come from the classes' own __slots__, so a slot added
# later is carried through a pickle instead of silently dropped.  An
# exact statistics row is its histogram as a plain dict.
_TNV_SLOTS = TNVTable.__slots__
_PROFILE_SCALARS = tuple(
    name for name in SiteProfile.__slots__ if name not in ("site", "tnv", "exact")
)
_tnv_fields = attrgetter(*_TNV_SLOTS)
_profile_fields = attrgetter(*_PROFILE_SCALARS)


def _fill_slots(obj, names: Sequence[str], row: Sequence) -> None:
    if len(row) != len(names):
        raise ProfileError(
            f"a pickled {type(obj).__name__} row holds {len(row)} fields, "
            f"not the {len(names)} of {', '.join(names)}"
        )
    for name, value in zip(names, row):
        setattr(obj, name, value)


def _rebuild_database(
    config: TNVConfig,
    exact: bool,
    name: str,
    sites: List[tuple],
    tables: List[tuple],
    stats: List[Optional[dict]],
    scalars: List[tuple],
) -> ProfileDatabase:
    """Reconstructor for :meth:`ProfileDatabase.__reduce__` rows.

    Every mutable container is copied: ``copy.copy`` hands this
    function the original's own dicts, and the copy must not share
    them.  A row whose length differs from its class's field list (a
    pickle written with other slots) raises :class:`ProfileError`.
    """
    db = ProfileDatabase(config=config, exact=exact, name=name)
    profiles = db._profiles
    for (kind, program, procedure, label, opcode), tnv_row, histogram, scalar_row in zip(
        sites, tables, stats, scalars
    ):
        site = Site(SiteKind(kind), program, procedure, label, opcode)
        table = TNVTable.__new__(TNVTable)
        _fill_slots(table, _TNV_SLOTS, tnv_row)
        table._entries = dict(table._entries)
        if histogram is None:
            exact_stats = None
        elif type(histogram) is dict:
            exact_stats = ValueStreamStats.__new__(ValueStreamStats)
            exact_stats._histogram = Counter(histogram)
        else:
            raise ProfileError(
                f"a pickled exact statistics row is a {type(histogram).__name__}, "
                "not a histogram dict"
            )
        profile = SiteProfile.__new__(SiteProfile)
        profile.site = site
        profile.tnv = table
        profile.exact = exact_stats
        _fill_slots(profile, _PROFILE_SCALARS, scalar_row)
        profiles[site] = profile
    return db
