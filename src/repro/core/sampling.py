"""Sampling policies and the sampling profiler (thesis Ch. VIII).

Profiling every execution of every instruction is slow (the thesis
reports order-of-magnitude slowdowns under ATOM).  The thesis evaluates
two remedies and we implement both:

* **Periodic sampling** — profile a fixed *burst* of executions out of
  every *interval* (a duty cycle), per site.
* **Convergent ("intelligent") sampling** — start with periodic bursts;
  once a site's invariance estimate converges
  (:class:`~repro.core.convergence.ConvergenceDetector`), double that
  site's skip interval up to a cap, so converged sites are only
  re-checked occasionally.  If a re-check finds the invariance drifted,
  the interval resets.

The key quantities the experiments report are **overhead** — the
fraction of dynamic executions actually profiled — and **accuracy** —
how close sampled metrics are to full-profiling metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.convergence import ConvergenceConfig, ConvergenceDetector
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site
from repro.errors import ProfileError
from repro.obs.metrics import METRICS as _METRICS

Value = Hashable


class SamplingPolicy:
    """Decides, per dynamic execution of a site, whether to profile it.

    Subclasses implement :meth:`should_sample`, the spec: per-event
    recording calls it exactly once per dynamic execution, in order.
    The bulk paths ask :meth:`window` (site-local policies) or
    :meth:`draw` instead, which a subclass may override with an
    equivalent that decides many executions at once.
    """

    #: whether the policy's decisions for a site depend only on that
    #: site's own event stream.  Site-local policies produce identical
    #: results when events are buffered per site and replayed in runs
    #: (the batched fast path); policies with cross-site state (e.g.
    #: a shared RNG) must see the global interleaving and set this to
    #: False, which keeps the harness on per-event recording and makes
    #: :meth:`SamplingProfiler.record_batch` refuse the policy.
    site_local = True

    def should_sample(self, site: Site) -> bool:
        raise NotImplementedError

    def window(self, site: Site, n: int, limit: int) -> Tuple[int, int]:
        """Decide the next executions of ``site`` as one sampled window.

        Returns ``(skip, take)``: of the next ``n`` executions, the
        first ``skip`` are not sampled and the ``take`` after them are,
        with ``skip + take <= n``, ``take <= limit`` and progress
        (``skip + take >= 1``) whenever ``n >= 1``.  The policy's state
        afterwards is what ``skip + take`` :meth:`should_sample` calls
        would leave.  ``limit`` keeps a window from running past the
        profiler's next checkpoint, so a checkpoint only ever fires
        between windows, as it fires between per-event decisions.

        The default asks :meth:`should_sample` once per execution and
        returns at the first sampled one.
        """
        should_sample = self.should_sample
        for skip in range(n):
            if should_sample(site):
                return skip, 1
        return n, 0

    def draw(self, n: int) -> Optional[List[bool]]:
        """The next ``n`` decisions in global order, or ``None``.

        A policy whose decisions depend on neither the site nor any
        checkpoint can decide a whole stream at once; the default
        (``None``) leaves :meth:`SamplingProfiler.replay` on the
        per-event path.
        """
        return None

    def checkpoint(self, site: Site, estimate: float) -> None:
        """Called at the end of each profiled burst with the site's
        current invariance estimate.  Default: ignore."""

    def fresh(self) -> "SamplingPolicy":
        """A new, state-free copy of this policy (same parameters)."""
        raise NotImplementedError


class FullSampling(SamplingPolicy):
    """Profile every execution (the paper's baseline)."""

    def should_sample(self, site: Site) -> bool:
        return True

    def window(self, site: Site, n: int, limit: int) -> Tuple[int, int]:
        return 0, min(n, limit)

    def fresh(self) -> "FullSampling":
        return FullSampling()


@dataclass
class _PeriodicState:
    position: int = 0


class PeriodicSampling(SamplingPolicy):
    """Profile the first ``burst`` of every ``interval`` executions.

    ``burst=1000, interval=10000`` is a 10% duty cycle.  State is kept
    per site so sites with different execution counts each get their
    fair duty cycle.
    """

    def __init__(self, burst: int, interval: int) -> None:
        if burst < 1 or interval < burst:
            raise ValueError(f"need 1 <= burst <= interval, got burst={burst} interval={interval}")
        self.burst = burst
        self.interval = interval
        self._state: Dict[Site, _PeriodicState] = {}

    def should_sample(self, site: Site) -> bool:
        state = self._state.setdefault(site, _PeriodicState())
        sampled = state.position < self.burst
        state.position += 1
        if state.position >= self.interval:
            state.position = 0
        return sampled

    def window(self, site: Site, n: int, limit: int) -> Tuple[int, int]:
        state = self._state.get(site)
        if state is None:
            state = self._state[site] = _PeriodicState()
        position = state.position
        skip = 0
        if position >= self.burst:
            # Skip to the end of the period; the next one opens with
            # its burst.
            skip = min(self.interval - position, n)
            position += skip
            if position >= self.interval:
                position = 0
        take = 0
        if skip < n:
            take = min(self.burst - position, n - skip, limit)
            position += take
            if position >= self.interval:
                position = 0
        state.position = position
        return skip, take

    def fresh(self) -> "PeriodicSampling":
        return PeriodicSampling(self.burst, self.interval)


class RandomSampling(SamplingPolicy):
    """CPI-style random sampling (Anderson et al. [1]).

    The Continuous Profiling Infrastructure samples *randomly* rather
    than in bursts; the thesis asks whether that suffices for value
    profiling.  This policy samples each execution independently with
    probability ``rate`` using a deterministic PRNG (seeded per policy,
    so experiments are reproducible).

    The experiment answer (``table-sampling-accuracy``): random
    sampling estimates *histogram* metrics (Inv-Top) about as well as
    periodic sampling at equal cost, but is much worse for *sequential*
    metrics (LVP), because sampling breaks adjacency — the pairs of
    consecutive executions LVP is defined over are almost never both
    sampled.
    """

    site_local = False  # one RNG shared across sites

    def __init__(self, rate: float, seed: int = 0x5EED) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        import random as _random

        self._rng = _random.Random(seed)

    def should_sample(self, site: Site) -> bool:
        return self._rng.random() < self.rate

    def draw(self, n: int) -> List[bool]:
        random, rate = self._rng.random, self.rate
        return [random() < rate for _ in range(n)]

    def fresh(self) -> "RandomSampling":
        return RandomSampling(self.rate, self.seed)


@dataclass
class _ConvergentState:
    """Per-site burst/backoff state machine."""

    in_burst: bool = True
    burst_remaining: int = 0
    skip_remaining: int = 0
    skip_interval: int = 0


class ConvergentSampling(SamplingPolicy):
    """The thesis' intelligent sampler.

    Each site alternates bursts of ``burst`` profiled executions with
    skips.  Before convergence the skip interval is ``base_skip``; each
    time the convergence detector reports the site converged, the skip
    interval doubles, up to ``max_skip``.  A drifting re-check resets
    both the detector and the interval.
    """

    def __init__(
        self,
        burst: int = 1000,
        base_skip: int = 9000,
        max_skip: int = 1_000_000,
        backoff: float = 2.0,
        convergence: Optional[ConvergenceConfig] = None,
    ) -> None:
        if burst < 1 or base_skip < 1 or max_skip < base_skip or backoff < 1.0:
            raise ValueError("invalid ConvergentSampling parameters")
        self.burst = burst
        self.base_skip = base_skip
        self.max_skip = max_skip
        self.backoff = backoff
        self.convergence = convergence or ConvergenceConfig()
        self._state: Dict[Site, _ConvergentState] = {}
        self._detectors: Dict[Site, ConvergenceDetector] = {}

    def detector_for(self, site: Site) -> ConvergenceDetector:
        detector = self._detectors.get(site)
        if detector is None:
            detector = ConvergenceDetector(self.convergence)
            self._detectors[site] = detector
        return detector

    def _state_for(self, site: Site) -> _ConvergentState:
        state = self._state.get(site)
        if state is None:
            state = _ConvergentState(
                in_burst=True, burst_remaining=self.burst, skip_interval=self.base_skip
            )
            self._state[site] = state
        return state

    def should_sample(self, site: Site) -> bool:
        state = self._state_for(site)
        if state.in_burst:
            state.burst_remaining -= 1
            if state.burst_remaining <= 0:
                # Burst over; the profiler will call checkpoint() next.
                state.in_burst = False
                state.skip_remaining = state.skip_interval
            return True
        state.skip_remaining -= 1
        if state.skip_remaining <= 0:
            state.in_burst = True
            state.burst_remaining = self.burst
        return False

    def window(self, site: Site, n: int, limit: int) -> Tuple[int, int]:
        state = self._state_for(site)
        skip = 0
        if not state.in_burst:
            skip = min(state.skip_remaining, n)
            state.skip_remaining -= skip
            if state.skip_remaining > 0:
                return skip, 0
            state.in_burst = True
            state.burst_remaining = self.burst
            if skip == n:
                return skip, 0
        take = min(state.burst_remaining, n - skip, limit)
        state.burst_remaining -= take
        if state.burst_remaining <= 0:
            # The burst's last execution sets the skip from the interval
            # in force now, before the checkpoint that may follow it.
            state.in_burst = False
            state.skip_remaining = state.skip_interval
        return skip, take

    def checkpoint(self, site: Site, estimate: float) -> None:
        state = self._state.get(site)
        if state is None:  # pragma: no cover - profiler always samples first
            return
        detector = self.detector_for(site)
        was_converged = detector.converged
        now_converged = detector.observe(estimate)
        if now_converged:
            state.skip_interval = min(self.max_skip, int(state.skip_interval * self.backoff))
            _METRICS.inc("sampling.convergence_backoffs")
        elif was_converged:
            # Drift detected during a re-check: back to attentive mode.
            state.skip_interval = self.base_skip
            _METRICS.inc("sampling.convergence_resets")

    def fresh(self) -> "ConvergentSampling":
        return ConvergentSampling(
            burst=self.burst,
            base_skip=self.base_skip,
            max_skip=self.max_skip,
            backoff=self.backoff,
            convergence=self.convergence,
        )


class SamplingProfiler:
    """A profile database writer gated by a sampling policy.

    Sees *every* (site, value) event, records only the sampled subset
    into its :class:`ProfileDatabase`, and tracks true execution totals
    so experiments can report overhead and scale sampled counts.
    """

    def __init__(
        self,
        policy: SamplingPolicy,
        config: Optional[TNVConfig] = None,
        exact: bool = True,
        name: str = "",
    ) -> None:
        self.policy = policy
        self.database = ProfileDatabase(config=config, exact=exact, name=name)
        self._seen: Dict[Site, int] = {}
        self._profiled: Dict[Site, int] = {}
        self._since_checkpoint: Dict[Site, int] = {}
        # Per-policy counter names, computed once so the per-event path
        # pays only an enabled check plus dict increments when the
        # observability layer is on (and a single branch when off).
        policy_label = type(policy).__name__
        self._m_seen = f"sampling.{policy_label}.seen"
        self._m_profiled = f"sampling.{policy_label}.profiled"
        #: profiled executions between checkpoint() calls to the policy;
        #: defaults to the policy's burst so each burst ends with a
        #: checkpoint (what the convergent sampler's backoff needs).
        self.checkpoint_every = getattr(policy, "burst", 1000)

    def record(self, site: Site, value: Value) -> None:
        """Feed one dynamic execution; profiles it iff the policy says so."""
        self._seen[site] = self._seen.get(site, 0) + 1
        sampled = self.policy.should_sample(site)
        if _METRICS.enabled:
            _METRICS.inc(self._m_seen)
            if sampled:
                _METRICS.inc(self._m_profiled)
        if not sampled:
            return
        self.database.record(site, value)
        self._profiled[site] = self._profiled.get(site, 0) + 1
        pending = self._since_checkpoint.get(site, 0) + 1
        if pending >= self.checkpoint_every:
            self._checkpoint(site)
            pending = 0
        self._since_checkpoint[site] = pending

    def record_batch(self, site: Site, values: Sequence[Value]) -> None:
        """Feed a run of dynamic executions of one site, in order.

        State-identical to per-value :meth:`record` calls, for a
        site-local policy only: a policy with cross-site state must see
        the global interleaving (use :meth:`replay` or :meth:`record`),
        so any other policy raises :class:`~repro.errors.ProfileError`.
        The policy decides the run in sampled windows
        (:meth:`SamplingPolicy.window`) instead of once per execution;
        the sampled values between checkpoints are recorded as one
        batch, and each checkpoint fires at exactly the execution it
        would under per-event recording.
        """
        policy = self.policy
        if not policy.site_local:
            raise ProfileError(
                f"record_batch needs a site-local sampling policy; "
                f"{type(policy).__name__} keeps cross-site state"
            )
        n = len(values)
        if n == 0:
            return
        self._seen[site] = self._seen.get(site, 0) + n
        profiled = self._feed(site, values, policy.window)
        if _METRICS.enabled:
            _METRICS.inc(self._m_seen, n)
            _METRICS.inc(self._m_profiled, profiled)

    def replay(
        self, sites: Sequence[Site], site_ids: Sequence[int], values: Sequence[Value]
    ) -> None:
        """Feed a whole event stream given as interned columns.

        Event ``i`` is ``(sites[site_ids[i]], values[i])``, in global
        order: the columns
        :func:`~repro.core.tracestore.replay_global_events` returns.
        The profiler ends exactly as per-event :meth:`record` calls in
        that order would leave it.

        * A site-local policy gets one :meth:`record_batch` per site,
          sites in order of first appearance.
        * A policy that can :meth:`~SamplingPolicy.draw` its decisions
          (random sampling) decides the whole stream in global order,
          one draw per event; each site then records its sampled values.
        * Any other policy is fed event by event.
        """
        policy = self.policy
        if policy.site_local:
            for sid, run in _site_runs(len(sites), site_ids, values):
                self.record_batch(sites[sid], run)
            return
        decisions = policy.draw(len(site_ids))
        if decisions is None:
            record = self.record
            for sid, value in zip(site_ids, values):
                record(sites[sid], value)
            return
        seen = self._seen
        for sid, count in Counter(site_ids).items():
            site = sites[sid]
            seen[site] = seen.get(site, 0) + count
        sampled = _site_runs(
            len(sites), compress(site_ids, decisions), compress(values, decisions)
        )
        take_all = FullSampling().window
        profiled = 0
        for sid, run in sampled:
            profiled += self._feed(sites[sid], run, take_all)
        if _METRICS.enabled:
            _METRICS.inc(self._m_seen, len(site_ids))
            _METRICS.inc(self._m_profiled, profiled)

    def _feed(self, site: Site, values: Sequence[Value], window) -> int:
        """Record the windows ``window`` samples from one site's run.

        Windows are capped at the next checkpoint, so the sampled
        values between two checkpoints go to the database as one batch
        and each checkpoint sees everything recorded before it.
        Returns the number of values profiled.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        n = len(values)
        database = self.database
        every = self.checkpoint_every
        pending = self._since_checkpoint.get(site, 0)
        run: List[Value] = []
        position = profiled = 0
        while position < n:
            skip, take = window(site, n - position, max(1, every - pending))
            position += skip
            if not take:
                continue
            run.extend(values[position : position + take])
            position += take
            pending += take
            if pending >= every:
                database.record_batch(site, run)
                profiled += len(run)
                run = []
                self._checkpoint(site)
                pending = 0
        if run:
            database.record_batch(site, run)
            profiled += len(run)
        if profiled:
            self._profiled[site] = self._profiled.get(site, 0) + profiled
        self._since_checkpoint[site] = pending
        return profiled

    def _checkpoint(self, site: Site) -> None:
        estimate = self.database.profile_for(site).tnv.estimated_invariance(1)
        self.policy.checkpoint(site, estimate)

    # ------------------------------------------------------------------

    def seen(self, site: Optional[Site] = None) -> int:
        """True dynamic executions observed (for one site or overall)."""
        if site is not None:
            return self._seen.get(site, 0)
        return sum(self._seen.values())

    def profiled(self, site: Optional[Site] = None) -> int:
        """Executions actually recorded into the database."""
        if site is not None:
            return self._profiled.get(site, 0)
        return sum(self._profiled.values())

    def overhead(self) -> float:
        """Fraction of dynamic executions that paid profiling cost."""
        seen = self.seen()
        if seen == 0:
            return 0.0
        return self.profiled() / seen


def _site_runs(
    nsites: int, site_ids: Iterable[int], values: Iterable[Value]
) -> List[Tuple[int, List[Value]]]:
    """Group a global-order stream into ``(site id, values)`` runs.

    Sites come in order of first appearance; each run keeps its
    site's values in stream order.
    """
    sinks: List[Optional[Callable]] = [None] * nsites
    runs: List[Tuple[int, List[Value]]] = []
    for sid, value in zip(site_ids, values):
        append = sinks[sid]
        if append is None:
            run: List[Value] = []
            runs.append((sid, run))
            append = sinks[sid] = run.append
        append(value)
    return runs
