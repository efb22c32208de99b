"""Tier-2 jitlog integration: the engine's journal of its own lifecycle.

``tests/obs/test_jitlog.py`` covers the journal data structure; these
tests pin the *instrumentation* — that the tier-2 engine emits the
right typed events with the right reasons at each lifecycle point,
that the journal is byte-deterministic across runs, that enabling it
changes nothing observable (results, profiles), that the
``_metrics_prev`` delta baseline survives re-decodes, and that
deopt/despecialize decisions tee into the flight recorder.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import ProfileDatabase
from repro.core.sites import SiteKind
from repro.errors import MachineError
from repro.isa import machine as machine_module
from repro.isa import engine as engine_module
from repro.isa.assembler import assemble
from repro.isa.instrument import ALL_TARGETS, ProfileTarget, ValueProfiler
from repro.isa.machine import Machine
from repro.isa.engine import _CODE_CACHE
from repro.isa.tier2 import Tier2Config
from repro.obs.flight import FLIGHT
from repro.obs.jitlog import JITLOG
from repro.obs.metrics import METRICS
from repro.workloads.registry import get_workload

from tests.isa.test_engine_differential import _random_program
from tests.isa.test_tier2 import _PERTURB, _hot_config


@pytest.fixture(autouse=True)
def _clean_singletons():
    JITLOG.disable()
    JITLOG.reset()
    FLIGHT.disable()
    METRICS.disable()
    METRICS.reset()
    yield
    JITLOG.disable()
    JITLOG.reset()
    FLIGHT.disable()
    METRICS.disable()
    METRICS.reset()


def _run_perturb(config=None):
    program = assemble(_PERTURB)
    machine = Machine(
        program, engine="tier2", tier2_config=config or _hot_config()
    )
    machine.run()
    return machine


def test_lifecycle_events_with_reasons():
    JITLOG.enable()
    _run_perturb()
    events = JITLOG.events()
    by_type = {}
    for event in events:
        by_type.setdefault(event["type"], []).append(event)

    assert "hot" in by_type and "quicken" in by_type
    hot = by_type["hot"][0]
    assert hot["program"] == "perturb"
    assert hot["count"] >= hot["threshold"]

    guarded = [e for e in by_type["quicken"] if e["mode"] == "guarded"]
    assert guarded, "perturb's hot loop should quicken guarded"
    first = guarded[0]
    # r8 starts at 5 and is stable through warm-up: it must be among
    # the folded bindings, serialized as sorted [reg, value] pairs.
    assert [8, 5] in [list(b) for b in first["bindings"]]
    assert first["fused"] >= 2
    assert first["pc_range"][0] == first["block"]
    assert first["guards"] == len(first["bindings"])
    assert first["net"] is not None and first["net"] > 0

    # The program perturbs r8 -> guard failures name the register and
    # both values.
    fails = by_type.get("guard_fail", [])
    assert fails, "perturbation never failed a guard"
    assert {e["reg"] for e in fails} == {8}
    assert all(e["expected"] != e["observed"] for e in fails)
    assert all(e["entries"] >= 0 for e in fails)

    assert by_type.get("deopt"), "guard failures must journal deopts"
    assert by_type.get("requicken"), "first perturbation should requicken"
    requick = by_type["requicken"][0]
    assert requick["bindings"], "requicken carries the refreshed bindings"
    assert by_type.get("despecialize"), (
        "second perturbation should exhaust the budget"
    )
    assert by_type["despecialize"][0]["budget"] == 1

    # The event clock (instructions retired) is monotone non-decreasing.
    clocks = [e["clock"] for e in events]
    assert clocks == sorted(clocks)
    assert JITLOG.counts["quicken"] == len(by_type["quicken"])


def test_reject_events_name_the_limit():
    JITLOG.enable()
    # A benefit model that never pays off forces reason="benefit".
    from repro.specialize.analysis import BenefitModel

    config = _hot_config(
        model=BenefitModel(saving_per_call=0.0, guard_cost=10.0,
                           specialization_cost=1e9)
    )
    _run_perturb(config)
    rejects = [e for e in JITLOG.events() if e["type"] == "reject"]
    benefit = [e for e in rejects if e["reason"] == "benefit"]
    assert benefit, "hopeless benefit model should journal benefit rejects"
    assert all(e["net"] <= 0 for e in benefit)

    JITLOG.reset()
    # min_fused above any trace length rejects every candidate.
    _run_perturb(_hot_config(min_fused=64))
    rejects = [e for e in JITLOG.events() if e["type"] == "reject"]
    assert rejects and {e["reason"] for e in rejects} == {"min_fused"}
    assert all(e["limit"] == 64 for e in rejects)

    JITLOG.reset()
    # A tiny max_trace caps growth: the cap is journaled as a reject
    # even though the truncated trace itself still compiles.
    _run_perturb(_hot_config(max_trace=3))
    events = JITLOG.events()
    capped = [e for e in events
              if e["type"] == "reject" and e["reason"] == "max_trace"]
    assert capped and all(e["limit"] == 3 for e in capped)
    assert any(e["type"] == "quicken" and e["capped"] for e in events)


def test_preheat_event():
    program = assemble(_PERTURB)
    database = ProfileDatabase(name="t2")
    profiler = ValueProfiler(program, database, targets=ALL_TARGETS, buffered=True)
    warm = Machine(program, observer=profiler, engine="threaded")
    warm.run()

    JITLOG.enable()
    fresh = Machine(program, engine="tier2", tier2_config=_hot_config())
    seeded = fresh.tier2_preheat(database)
    preheats = [e for e in JITLOG.events() if e["type"] == "preheat"]
    assert len(preheats) == seeded >= 1
    assert all(e["threshold"] == 1 for e in preheats)


def test_code_cache_events():
    JITLOG.enable()
    cache_snapshot = dict(_CODE_CACHE)
    _CODE_CACHE.clear()
    try:
        _run_perturb()
        first = [e["type"] for e in JITLOG.events()
                 if e["type"].startswith("cache_")]
        assert "cache_miss" in first, "cold cache must journal misses"
        JITLOG.reset()
        _run_perturb()
        second = [e["type"] for e in JITLOG.events()
                  if e["type"].startswith("cache_")]
        assert second and all(t == "cache_hit" for t in second), (
            "identical program on a warm cache must hit for every compile"
        )
    finally:
        _CODE_CACHE.clear()
        _CODE_CACHE.update(cache_snapshot)


def test_block_summaries_shape():
    machine = _run_perturb()
    summaries = machine.tier2_block_summaries()
    assert summaries, "perturb has candidate blocks"
    assert [s["start"] for s in summaries] == sorted(s["start"] for s in summaries)
    modes = {s["mode"] for s in summaries}
    assert modes <= {"counting", "guarded", "fused", "rejected"}
    hot = [s for s in summaries if s["mode"] != "counting"]
    assert hot and any(s["fails"] for s in summaries)
    for s in summaries:
        assert s["pcs"][0] == s["start"]
        assert isinstance(s["bindings"], list)
    # Off the tier-2 engine there are no summaries.
    other = Machine(assemble(_PERTURB), engine="threaded")
    assert other.tier2_block_summaries() is None


def _journal_of(source: str, budget: int = 200_000) -> str:
    """One run's journal as canonical JSON, from a cold code cache."""
    program = assemble(source)
    machine = Machine(program, engine="tier2", tier2_config=_hot_config())
    machine.set_input([3, 1, 4, 1, 5, 9, 2, 6])
    JITLOG.enable()
    cache_snapshot = dict(_CODE_CACHE)
    _CODE_CACHE.clear()
    try:
        machine.run(max_instructions=budget)
    except MachineError:
        pass  # traps and budget exhaustion journal deterministically too
    finally:
        _CODE_CACHE.clear()
        _CODE_CACHE.update(cache_snapshot)
    journal = json.dumps(JITLOG.events(), sort_keys=True)
    JITLOG.disable()
    JITLOG.reset()
    return journal


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_journal_byte_identical_across_runs(seed):
    source = _random_program(seed)
    assert _journal_of(source) == _journal_of(source)


def test_journal_byte_identical_on_perturb():
    assert _journal_of(_PERTURB) == _journal_of(_PERTURB)


def test_results_and_profiles_identical_with_and_without_journal():
    def run(journal: bool):
        program = assemble(_PERTURB)
        database = ProfileDatabase(name="t2")
        profiler = ValueProfiler(
            program, database, targets=ALL_TARGETS, buffered=True
        )
        machine = Machine(
            program, observer=profiler, engine="tier2",
            tier2_config=_hot_config(),
        )
        if journal:
            JITLOG.enable()
        result = machine.run()
        if journal:
            assert JITLOG.total_events > 0
            JITLOG.disable()
            JITLOG.reset()
        return (
            list(machine.output),
            result.instructions_executed,
            machine.cycles,
            json.dumps(database.to_json(), sort_keys=True),
        )

    assert run(journal=False) == run(journal=True)


def test_metrics_prev_survives_redecode():
    """Regression: re-decoding (observer swap between runs) must not
    leave ``_metrics_prev`` holding the previous run's totals — the
    next delta emission would subtract them from fresh counters and
    under-report ``machine.tier2.*``."""
    program = assemble(_PERTURB)
    machine = Machine(program, engine="tier2", tier2_config=_hot_config())
    initial_registers = list(machine.registers)

    METRICS.reset()
    METRICS.enable()
    try:
        machine.run()
        first = machine.tier2_stats()["quickened"]
        assert first >= 1

        # Swap in an observer: the next run re-decodes, resetting the
        # engine's lifecycle counters back to zero.
        database = ProfileDatabase(name="t2")
        machine.observer = ValueProfiler(
            program, database, targets=ALL_TARGETS, buffered=True
        )
        machine.pc = 0
        machine.halted = False
        machine.registers[:] = initial_registers
        machine.run()
        second = machine.tier2_stats()["quickened"]
        assert second >= 1

        counters = METRICS.snapshot()["counters"]
        assert counters["machine.tier2.quickened"] == first + second
        assert counters["machine.tier2.deopts"] >= 1
    finally:
        METRICS.disable()
        METRICS.reset()


def test_deopt_and_despecialize_tee_into_flight_recorder():
    FLIGHT.enable()
    _run_perturb()
    opcodes = [site.opcode for _, site, _ in FLIGHT.events()]
    assert "tier2.deopt" in opcodes
    assert "tier2.despecialize" in opcodes
    for _, site, value in FLIGHT.events():
        assert site.kind is SiteKind.INSTRUCTION
        assert site.program == "perturb"
        assert site.label.isdigit(), "label is the block leader pc"
        assert isinstance(value, int) and value >= 1


def test_flight_tee_without_jitlog_enabled():
    # The tee rides FLIGHT.enabled alone — no journal required.
    FLIGHT.enable()
    assert not JITLOG.enabled
    _run_perturb()
    assert any(site.opcode == "tier2.deopt" for _, site, _ in FLIGHT.events())
    assert JITLOG.total_events == 0


@pytest.mark.parametrize("name", ["compress", "go", "li", "gcc", "perl"])
def test_poll_interval_changes_no_tier2_decision(name, monkeypatch):
    """Granting the budget in poll slices must not move any quicken,
    deopt or guard decision: the journal's (type, clock, block) stream
    and the lifecycle statistics match at the default interval and at 7.

    Each side starts from an empty code cache, so compile events read
    the same on both."""
    workload = get_workload(name)
    dataset = workload.dataset("train", scale=0.05)

    def lifecycle(interval):
        monkeypatch.setattr(machine_module, "POLL_INSTRUCTIONS", interval)
        monkeypatch.setattr(engine_module, "_CODE_CACHE", {})
        program = workload.program()
        profiler = ValueProfiler(
            program, ProfileDatabase(name=name),
            targets=(ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
            buffered=True,
        )
        machine = Machine(program, observer=profiler, engine="tier2")
        machine.set_input(dataset.values)
        JITLOG.reset()
        JITLOG.enable()
        machine.run()
        JITLOG.disable()
        stream = [(e["type"], e["clock"], e["block"]) for e in JITLOG.events()]
        JITLOG.reset()
        return stream, machine.tier2_stats()

    default = lifecycle(machine_module.POLL_INSTRUCTIONS)
    assert default[0], "the run journaled nothing"
    assert lifecycle(7) == default
