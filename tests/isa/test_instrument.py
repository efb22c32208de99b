"""Tests for the ATOM-style instrumentation layer."""

import pytest

from repro.core.profile import ProfileDatabase
from repro.core.sites import SiteKind
from repro.isa import machine as machine_module
from repro.isa.assembler import assemble
from repro.isa.instrument import (
    FanoutObserver,
    ProfileTarget,
    ValueProfiler,
    ValueTraceCollector,
)
from repro.isa.machine import Machine, run_program
from repro.isa.tier2 import Tier2Config
from repro.obs.metrics import METRICS

from tests.isa.test_engine_differential import _BatchLog

SOURCE = """
.data
arr: .word 10, 10, 10, 7
.text
.proc main nargs=0
    la r10, arr
    li r11, 4
loop:
    beqz r11, done
    ld r12, 0(r10)
    st r12, 4(r10)
    inc r10
    dec r11
    j loop
done:
    li r1, 3
    li r2, 4
    call f
    out r1
    halt
.endproc
.proc f nargs=2
    add r1, r1, r2
    ret
.endproc
"""


def profile(targets):
    program = assemble(SOURCE, name="t")
    db = ProfileDatabase(name="t")
    observer = ValueProfiler(program, db, targets=targets)
    run_program(program, observer=observer)
    return program, db


class TestValueProfiler:
    def test_load_target_records_only_loads(self):
        _, db = profile([ProfileTarget.LOADS])
        assert db.sites(SiteKind.LOAD)
        assert not db.sites(SiteKind.INSTRUCTION)
        assert not db.sites(SiteKind.MEMORY)

    def test_load_values_recorded(self):
        _, db = profile([ProfileTarget.LOADS])
        (site,) = db.sites(SiteKind.LOAD)
        exact = db.profile_for(site).exact
        assert sorted(exact.histogram.elements()) == [7, 10, 10, 10]

    def test_instruction_target_includes_loads(self):
        program, db = profile([ProfileTarget.INSTRUCTIONS])
        load_pcs = {inst.pc for inst in program.instructions if inst.info.is_load}
        recorded_pcs = {int(s.label) for s in db.sites(SiteKind.INSTRUCTION)}
        assert load_pcs <= recorded_pcs

    def test_instruction_sites_carry_opcode(self):
        _, db = profile([ProfileTarget.INSTRUCTIONS])
        opcodes = {site.opcode for site in db.sites(SiteKind.INSTRUCTION)}
        assert "li" in opcodes and "addi" in opcodes

    def test_branches_not_recorded(self):
        _, db = profile([ProfileTarget.INSTRUCTIONS])
        opcodes = {site.opcode for site in db.sites(SiteKind.INSTRUCTION)}
        assert "beq" not in opcodes and "j" not in opcodes

    def test_memory_target_records_stores_per_address(self):
        _, db = profile([ProfileTarget.MEMORY])
        sites = db.sites(SiteKind.MEMORY)
        assert len(sites) == 4  # four distinct addresses stored to
        total = sum(db.profile_for(s).executions for s in sites)
        assert total == 4

    def test_parameter_target_records_args(self):
        _, db = profile([ProfileTarget.PARAMETERS])
        sites = db.sites(SiteKind.PARAMETER)
        assert {s.label for s in sites} == {"arg0", "arg1"}
        values = {
            s.label: db.profile_for(s).tnv.top_value() for s in sites
        }
        assert values == {"arg0": 3, "arg1": 4}

    def test_dynamic_counts_match_database(self):
        program = assemble(SOURCE, name="t")
        db = ProfileDatabase()
        observer = ValueProfiler(program, db, targets=[ProfileTarget.LOADS])
        result = run_program(program, observer=observer)
        assert db.total_executions(SiteKind.LOAD) == result.dynamic_loads

    def test_procedure_attribution(self):
        _, db = profile([ProfileTarget.INSTRUCTIONS])
        procedures = {site.procedure for site in db.sites(SiteKind.INSTRUCTION)}
        assert {"main", "f"} <= procedures


class TestValueTraceCollector:
    def test_traces_preserve_order(self):
        program = assemble(SOURCE, name="t")
        collector = ValueTraceCollector(program, targets=[ProfileTarget.LOADS])
        run_program(program, observer=collector)
        (trace,) = collector.traces.values()
        assert trace == [10, 10, 10, 7]

    def test_max_per_site_caps(self):
        program = assemble(SOURCE, name="t")
        collector = ValueTraceCollector(
            program, targets=[ProfileTarget.LOADS], max_per_site=2
        )
        run_program(program, observer=collector)
        (trace,) = collector.traces.values()
        assert trace == [10, 10]

    def test_parameter_traces(self):
        program = assemble(SOURCE, name="t")
        collector = ValueTraceCollector(program, targets=[ProfileTarget.PARAMETERS])
        run_program(program, observer=collector)
        assert sorted(v for t in collector.traces.values() for v in t) == [3, 4]


class TestFanoutObserver:
    def test_both_observers_fed_identically(self):
        program = assemble(SOURCE, name="t")
        db1, db2 = ProfileDatabase(), ProfileDatabase()
        fan = FanoutObserver(
            [
                ValueProfiler(program, db1, targets=[ProfileTarget.LOADS]),
                ValueProfiler(program, db2, targets=[ProfileTarget.LOADS]),
            ]
        )
        run_program(program, observer=fan)
        (site,) = db1.sites(SiteKind.LOAD)
        assert db1.profile_for(site).executions == db2.profile_for(site).executions

    def test_fanout_covers_all_event_kinds(self):
        program = assemble(SOURCE, name="t")
        db = ProfileDatabase()
        fan = FanoutObserver([ValueProfiler(program, db, targets=list(ProfileTarget))])
        run_program(program, observer=fan)
        assert db.sites(SiteKind.LOAD)
        assert db.sites(SiteKind.MEMORY)
        assert db.sites(SiteKind.PARAMETER)
        assert db.sites(SiteKind.INSTRUCTION)


LOOP = """
.data
arr: .word 10, 10, 10, 7
.text
.proc main nargs=0
    li r11, 300
loop:
    la r10, arr
    ld r12, 0(r10)
    st r11, 1(r10)
    mov r1, r11
    li r2, 4
    call f
    dec r11
    bnez r11, loop
    out r1
    halt
    li r13, 99
.endproc
.proc f nargs=2
    add r1, r1, r2
    ret
.endproc
"""


class TestBufferedPolling:
    @pytest.mark.parametrize("engine", ["threaded", "tier2"])
    def test_fanout_polls_buffered_children(self, engine, monkeypatch):
        interval, threshold = 5, 3
        config = Tier2Config(hot_threshold=2)
        monkeypatch.setattr(machine_module, "POLL_INSTRUCTIONS", interval)
        program = assemble(LOOP, name="t")

        def profiler(database):
            return ValueProfiler(
                program, database, targets=list(ProfileTarget),
                buffered=True, flush_threshold=threshold,
            )

        fanned = [_BatchLog("t"), _BatchLog("t")]
        fan = FanoutObserver([profiler(db) for db in fanned])
        Machine(program, observer=fan, engine=engine, tier2_config=config).run()
        alone = ProfileDatabase(name="t")
        Machine(
            program, observer=profiler(alone), engine=engine, tier2_config=config
        ).run()
        for database in fanned:
            assert database.to_json() == alone.to_json()
            # Between two polls at most one grant of instructions runs,
            # plus the tail of a superinstruction that did not fit the
            # last one; each emits at most one event per site.
            assert max(database.batches) <= threshold + interval + config.max_trace
            assert len(database.batches) > len(database)

    def test_buffered_sites_gauge_counts_pending_buffers(self):
        program = assemble(LOOP, name="t")
        database = ProfileDatabase(name="t")
        profiler = ValueProfiler(
            program, database, targets=[ProfileTarget.INSTRUCTIONS],
            buffered=True, flush_threshold=1 << 20,
        )
        METRICS.reset()
        METRICS.enable()
        try:
            Machine(program, observer=profiler, engine="threaded").run()
            gauges = METRICS.snapshot()["gauges"]
        finally:
            METRICS.disable()
            METRICS.reset()
        # Every bound site has a buffer, the never-run ``li r13`` too;
        # the gauge counts only the ones holding events at the flush.
        assert len(profiler._buffers) > len(database)
        assert gauges["profiler.buffered_sites"] == len(database)


class TestOverheadModel:
    def test_unobserved_run_matches_observed_output(self):
        program = assemble(SOURCE, name="t")
        plain = run_program(program)
        db = ProfileDatabase()
        observed = run_program(
            program, observer=ValueProfiler(program, db, targets=list(ProfileTarget))
        )
        assert plain.output == observed.output
        assert plain.instructions_executed == observed.instructions_executed


class TestCallingContext:
    CTX_SOURCE = """
.text
.proc main nargs=0
    li r1, 1
    call f          ; call site A always passes 1
    li r1, 2
    call f          ; call site B always passes 2
    li r1, 1
    call f
    li r1, 2
    call f
    halt
.endproc
.proc f nargs=1
    ret
.endproc
"""

    def _profile(self, parameter_context):
        program = assemble(self.CTX_SOURCE, name="ctx")
        db = ProfileDatabase()
        observer = ValueProfiler(
            program,
            db,
            targets=[ProfileTarget.PARAMETERS],
            parameter_context=parameter_context,
        )
        run_program(program, observer=observer)
        return db

    def test_merged_profile_is_variant(self):
        db = self._profile(parameter_context=False)
        (site,) = db.sites(SiteKind.PARAMETER)
        assert db.profile_for(site).metrics().inv_top1 == pytest.approx(0.5)

    def test_context_split_is_invariant(self):
        db = self._profile(parameter_context=True)
        sites = db.sites(SiteKind.PARAMETER)
        assert len(sites) == 4  # one per static call site
        for site in sites:
            assert db.profile_for(site).metrics().inv_top1 == 1.0
            assert "@" in site.label

    def test_context_sites_carry_call_pc(self):
        program = assemble(self.CTX_SOURCE, name="ctx")
        db = ProfileDatabase()
        observer = ValueProfiler(
            program, db, targets=[ProfileTarget.PARAMETERS], parameter_context=True
        )
        run_program(program, observer=observer)
        call_pcs = {
            inst.pc for inst in program.instructions if inst.opcode == "jal"
        }
        labels = {int(s.label.split("@")[1]) for s in db.sites(SiteKind.PARAMETER)}
        assert labels <= call_pcs


class TestReturnProfiling:
    RET_SOURCE = """
.text
.proc main nargs=0
    li r1, 5
    call classify
    li r1, 50
    call classify
    halt
.endproc
.proc classify nargs=1
    li r7, 10
    blt r1, r7, small
    li r1, 1
    ret
small:
    li r1, 0
    ret
.endproc
"""

    def test_return_values_recorded_per_procedure(self):
        program = assemble(self.RET_SOURCE, name="r")
        db = ProfileDatabase()
        observer = ValueProfiler(program, db, targets=[ProfileTarget.RETURNS])
        run_program(program, observer=observer)
        sites = db.sites(SiteKind.RETURN)
        assert len(sites) == 1
        (site,) = sites
        assert site.procedure == "classify"
        exact = db.profile_for(site).exact
        assert sorted(exact.histogram.elements()) == [0, 1]

    def test_returns_not_recorded_without_target(self):
        program = assemble(self.RET_SOURCE, name="r")
        db = ProfileDatabase()
        observer = ValueProfiler(program, db, targets=[ProfileTarget.PARAMETERS])
        run_program(program, observer=observer)
        assert not db.sites(SiteKind.RETURN)

    def test_jr_through_other_register_is_not_a_return(self):
        source = """
.data
tbl: .word target
.text
.proc main nargs=0
    la r2, tbl
    ld r3, 0(r2)
    jr r3
target:
    li r1, 9
    halt
.endproc
"""
        program = assemble(source, name="r")
        db = ProfileDatabase()
        observer = ValueProfiler(program, db, targets=[ProfileTarget.RETURNS])
        run_program(program, observer=observer)
        assert not db.sites(SiteKind.RETURN)
