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

import copy
import json
from collections import Counter
from dataclasses import dataclass
from heapq import nlargest
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.fold import SiteFold, fold_values, is_zero
from repro.core.metrics import TOP_N, SiteMetrics, ValueStreamStats, aggregate_metrics
from repro.core.sites import Site, SiteKind, site_columns, sites_from_columns
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
        """Fold another database into this one, site by site.

        A site only ``other`` has joins as a copy of its profile, so no
        later merge into this database changes ``other``.
        """
        _METRICS.inc("profile.db_merges")
        for site, profile in other._profiles.items():
            mine = self._profiles.get(site)
            if mine is None:
                self._profiles[site] = _copy_profile(profile)
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
        """Pickle as a fixed number of flat per-field lists.

        The default pickle of this object graph pays per-object work
        for every site (slot-state reduction of three objects, a
        ``Counter`` reduction, a ``Site`` ``__dict__``) that dwarfs the
        data itself, and building a row per site instead still makes a
        few containers per site for the collector to track.  So every
        field is one list over the sites: the site table's five
        (:func:`~repro.core.sites.site_columns`), one per TNV slot and
        one per profile scalar, each holding the sites' own objects.
        The exact histograms flatten into one list of values and one of
        counts, with each site's histogram size (-1 for a TNV-only
        profile).  Lists are in insertion order, so the rebuilt database
        iterates, merges and renders exactly like this one.
        """
        profiles = list(self._profiles.values())
        tables = [profile.tnv for profile in profiles]
        histograms = [
            None if (exact := profile.exact) is None else exact._histogram
            for profile in profiles
        ]
        kept = [histogram for histogram in histograms if histogram is not None]
        return (
            _rebuild_database,
            (
                self.config,
                self.exact,
                self.name,
                site_columns(self._profiles),
                [list(map(attrgetter(name), tables)) for name in _TNV_SLOTS],
                [list(map(attrgetter(name), profiles)) for name in _PROFILE_SCALARS],
                [-1 if histogram is None else len(histogram) for histogram in histograms],
                list(chain.from_iterable(kept)),
                list(chain.from_iterable(map(dict.values, kept))),
            ),
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
        and raises :class:`ProfileError`.  So does any other malformed
        input: text that does not parse, a payload, entry or field of
        the wrong JSON type (named in the message; a TNV table's knobs,
        totals, health counters and entries included), a TNV knob out
        of range, or a missing key (named too).  So a database that
        loads renders.
        """
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as error:  # JSONDecodeError is a ValueError
            raise ProfileError(f"profile JSON does not parse: {error}") from None
        try:
            return cls._from_payload(payload)
        except KeyError as error:
            raise ProfileError(f"profile JSON lacks the key {error}") from None
        except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as error:
            raise ProfileError(
                f"malformed profile JSON: {type(error).__name__}: {error}"
            ) from None

    @classmethod
    def _from_payload(cls, payload) -> "ProfileDatabase":
        _expect("the profile JSON", payload, dict)
        _expect("'config'", payload["config"], dict)
        _expect("'sites'", payload["sites"], list)
        name = payload.get("name", "")
        _expect("'name'", name, str)
        _expect_knobs("'config'", payload["config"])
        config = TNVConfig(**payload["config"])
        config.make_table()  # refuses a capacity or steady part out of range
        db = cls(config=config, exact=False, name=name)
        for entry in payload["sites"]:
            _expect("a site entry", entry, dict)
            kind = SiteKind(entry["kind"])
            for key in _SITE_FIELDS:
                _expect(f"a site's {key!r}", entry[key], str)
            site = Site(
                kind=kind,
                program=entry["program"],
                procedure=entry["procedure"],
                label=entry["label"],
                opcode=entry["opcode"],
            )
            profile = SiteProfile(site, config, exact=False)
            profile.tnv = _table_from_payload(f"site {site}: 'tnv'", entry["tnv"])
            executions = entry["executions"]
            _expect(f"site {site}: 'executions'", executions, int)
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
                _expect(f"site {site}: 'pct_zeros'", entry["pct_zeros"], (int, float))
                _expect(f"site {site}: 'lvp'", entry["lvp"], (int, float))
                profile._first = entry["first"]
                profile._last = entry["last"]
                profile._zeros = round(entry["pct_zeros"] * executions)
                if executions > 1:
                    profile._lvp_hits = round(entry["lvp"] * (executions - 1))
            db._profiles[site] = profile
        return db


#: JSON's names for the Python types :func:`json.loads` produces.
_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "integer",
    float: "number", bool: "boolean", type(None): "null",
}


def _expect(what: str, value, types) -> None:
    """Raise :class:`ProfileError` unless ``value`` is one of ``types``
    (never a ``bool``, which JSON keeps apart from numbers)."""
    if not isinstance(value, types) or isinstance(value, bool):
        expected = " or ".join(
            _JSON_TYPES[kind] for kind in (types if isinstance(types, tuple) else (types,))
        )
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ProfileError(f"{what} is a JSON {found}, not a JSON {expected}")


#: a site entry's string fields in :meth:`ProfileDatabase.to_json` output.
_SITE_FIELDS = ("program", "procedure", "label", "opcode")


def _expect_knobs(what: str, payload: dict) -> None:
    """Refuse a TNV knob of the wrong JSON type: ``capacity`` and
    ``steady`` are integers, ``clear_interval`` an integer or null.
    An absent knob is left to the reader."""
    for key, types in (("capacity", int), ("steady", int), ("clear_interval", (int, type(None)))):
        if key in payload:
            _expect(f"{what} {key!r}", payload[key], types)


def _table_from_payload(what: str, payload) -> TNVTable:
    """:meth:`TNVTable.from_dict` on JSON whose every field has its type.

    The knobs, ``total``, ``clears``, ``since_clear`` and each
    ``health`` counter are integers (``clear_interval`` may be null),
    and each entry is a ``[value, count]`` pair of a JSON scalar and an
    integer.  Anything else raises :class:`ProfileError` naming the
    field; a field :meth:`TNVTable.from_dict` defaults may be absent.
    """
    _expect(what, payload, dict)
    _expect_knobs(what, payload)
    for key in ("total", "clears", "since_clear"):
        if key in payload:
            _expect(f"{what} {key!r}", payload[key], int)
    health = payload.get("health", {})
    _expect(f"{what} 'health'", health, dict)
    for key, value in health.items():
        _expect(f"{what} 'health' {key!r}", value, int)
    entries = payload["entries"]
    _expect(f"{what} 'entries'", entries, list)
    for pair in entries:
        _expect(f"{what} entry", pair, list)
        if len(pair) != 2 or isinstance(pair[0], (dict, list)):
            raise ProfileError(f"{what} entry {pair!r} is not a [value, count] pair")
        _expect(f"{what} entry {pair!r}: its count", pair[1], int)
    return TNVTable.from_dict(payload)


# ----------------------------------------------------------------------
# pickling: ProfileDatabase.__reduce__ and its reconstructor
# ----------------------------------------------------------------------

# Field lists come from the classes' own __slots__, so a slot added
# later is carried through a pickle instead of silently dropped.
_TNV_SLOTS = TNVTable.__slots__
_PROFILE_SCALARS = tuple(
    name for name in SiteProfile.__slots__ if name not in ("site", "tnv", "exact")
)


def _copy_profile(profile: SiteProfile) -> SiteProfile:
    """A copy of ``profile`` that shares no mutable state with it."""
    clone = copy.copy(profile)
    clone.tnv = table = copy.copy(profile.tnv)
    table._entries = dict(table._entries)
    if profile.exact is not None:
        clone.exact = copy.copy(profile.exact)
        clone.exact._histogram = profile.exact._histogram.copy()
    return clone


def _check_columns(owner: str, names: Sequence[str], columns: Sequence[list], n: int) -> None:
    if len(columns) != len(names) or any(len(column) != n for column in columns):
        raise ProfileError(
            f"a pickled {owner} holds {len(columns)} columns of lengths "
            f"{sorted({len(column) for column in columns})}, not the "
            f"{len(names)} of {', '.join(names)} over {n} sites"
        )


def _rebuild_database(
    config: TNVConfig,
    exact: bool,
    name: str,
    sites: Sequence[list],
    tables: Sequence[list],
    scalars: Sequence[list],
    sizes: List[int],
    values: list,
    counts: List[int],
) -> ProfileDatabase:
    """Reconstructor for :meth:`ProfileDatabase.__reduce__` columns.

    Every mutable container is copied: ``copy.copy`` hands this
    function the original's own dicts, and the copy must not share
    them.  Columns of another layout (another slot list, a length that
    differs from the site count, histogram sizes that do not add up to
    the flattened values) raise :class:`ProfileError`.
    """
    site_list = sites_from_columns(sites)
    n = len(site_list)
    _check_columns("TNVTable", _TNV_SLOTS, tables, n)
    _check_columns("SiteProfile", _PROFILE_SCALARS, scalars, n)
    flattened = sum(size for size in sizes if size > 0)
    if len(sizes) != n or not flattened == len(values) == len(counts):
        raise ProfileError(
            f"pickled exact histograms of {len(sizes)} sizes adding to "
            f"{flattened} do not fit {n} sites, {len(values)} values and "
            f"{len(counts)} counts"
        )
    db = ProfileDatabase(config=config, exact=exact, name=name)
    profiles = db._profiles
    value_iter = iter(values)
    count_iter = iter(counts)
    for site, tnv_row, scalar_row, size in zip(site_list, zip(*tables), zip(*scalars), sizes):
        table = TNVTable.__new__(TNVTable)
        for slot, value in zip(_TNV_SLOTS, tnv_row):
            setattr(table, slot, value)
        table._entries = dict(table._entries)
        if size < 0:
            exact_stats = None
        else:
            exact_stats = ValueStreamStats.__new__(ValueStreamStats)
            histogram = exact_stats._histogram = Counter()
            dict.update(histogram, zip(islice(value_iter, size), islice(count_iter, size)))
        profile = SiteProfile.__new__(SiteProfile)
        profile.site = site
        profile.tnv = table
        profile.exact = exact_stats
        for slot, value in zip(_PROFILE_SCALARS, scalar_row):
            setattr(profile, slot, value)
        profiles[site] = profile
    return db
