"""Tests for the explicit-state coherence-protocol model checker."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import TargetConfig, build_cosim
from repro.errors import ConfigError, ProtocolError
from repro.fullsys.cmp import CmpSystem
from repro.fullsys.coherence import (
    CACHE_TABLE,
    DIRECTORY_TABLE,
    CacheLabel,
    MessageKind,
    TransitionSpec,
    message_id_state,
)
from repro.fullsys.core_model import Core
from repro.fullsys.directory import HomeController
from repro.noc.config import NocConfig
from repro.noc.topology import Mesh
from repro.verify import (
    Finding,
    VerifyReport,
    broken_cache_table,
    verify_noc,
    verify_protocol,
    verify_target_config,
)
from repro.verify.protocol import (
    check_message_dependencies,
    check_protocol,
    core_label,
)


@pytest.fixture(scope="module")
def shipped_report():
    # One exploration shared across assertions; the checker is pure.
    return check_protocol(num_cores=2)


class TestShippedProtocolCertifies:
    def test_all_checks_pass(self, shipped_report):
        assert shipped_report.ok, shipped_report.render()

    def test_swmr_certified_over_full_space(self, shipped_report):
        assert any("SWMR holds" in c for c in shipped_report.certified)

    def test_every_transition_covered(self, shipped_report):
        assert any(
            "transition table row" in c for c in shipped_report.certified
        )

    def test_drain_certified(self, shipped_report):
        assert any("drains" in c for c in shipped_report.certified)

    def test_all_transient_labels_reached(self, shipped_report):
        # The small-N abstraction exercises every transient state the
        # tables document, including the deferred/recalled shadows.
        (swmr_line,) = [c for c in shipped_report.certified if "SWMR" in c]
        for label in CacheLabel.TRANSIENT:
            assert label in swmr_line, f"{label} never reached"

    def test_deliberately_omitted_rows_proven_unreachable(self, shipped_report):
        # The tables omit (M, Inv) and friends as a claim of
        # unreachability (the ack-before-unblock discipline); certifying
        # with no unhandled-transition finding proves the claim.
        assert (CacheLabel.M, MessageKind.INV) not in CACHE_TABLE
        assert (CacheLabel.IM_A, MessageKind.INV) not in CACHE_TABLE
        assert shipped_report.ok


class TestTooFewCachers:
    @pytest.mark.parametrize("num_cores", [1, 0, -1])
    def test_fewer_than_two_cachers_is_a_config_error(self, num_cores):
        # one cacher never shares or invalidates: SWMR would hold vacuously
        with pytest.raises(ConfigError, match=">= 2 cachers"):
            check_protocol(num_cores=num_cores)
        with pytest.raises(ConfigError, match=">= 2 cachers"):
            verify_protocol(num_cores=num_cores)


class TestBrokenTableRefuted:
    def test_missing_s_inv_row_found_with_trace(self):
        report = check_protocol(num_cores=2, cache_table=broken_cache_table())
        assert not report.ok
        finding = report.findings[0]
        assert finding.check == "unhandled-transition"
        assert "no transition for Inv in state S" in finding.summary
        # The counterexample is a readable message interleaving ending in
        # the offending delivery, not an abstract state dump.
        assert "load miss" in finding.details or "GetS" in finding.details
        assert "deliver" in finding.details
        assert "reached:" in finding.details

    def test_trace_steps_are_numbered(self):
        report = check_protocol(num_cores=2, cache_table=broken_cache_table())
        details = report.findings[0].details
        assert "1." in details and "2." in details

    def test_missing_directory_row_refuted(self):
        broken_dir = dict(DIRECTORY_TABLE)
        del broken_dir[("idle", MessageKind.PUTM)]
        report = check_protocol(num_cores=2, directory_table=broken_dir)
        assert not report.ok
        assert any(
            f.check == "unhandled-transition" and "home" in f.summary
            for f in report.findings
        )

    def test_emission_outside_spec_is_table_mismatch(self):
        # Strip Inv from the (idle, GetX) row: the executor still emits it,
        # which the cross-validation must flag as a table mismatch.
        row = DIRECTORY_TABLE[("idle", MessageKind.GETX)]
        narrowed = dict(DIRECTORY_TABLE)
        narrowed[("idle", MessageKind.GETX)] = TransitionSpec(
            emits=row.emits - {MessageKind.INV},
            next_states=row.next_states,
        )
        report = check_protocol(num_cores=2, directory_table=narrowed)
        assert not report.ok
        assert any(f.check == "table-mismatch" for f in report.findings)


class TestCertifiesTheSimulatorsHandlers:
    """The checker runs the controllers the simulator runs, so a bug planted
    in a handler — and in no table — is refuted, not certified."""

    def test_inv_dropped_without_ack_never_drains(self, monkeypatch):
        def inv_without_ack(core, msg):
            core.l1.invalidate(msg.line)

        with monkeypatch.context() as patch:
            patch.setitem(Core.HANDLERS, MessageKind.INV, inv_without_ack)
            report = check_protocol(num_cores=2)
        assert [f.check for f in report.findings] == ["drain"]
        assert check_protocol(num_cores=2).ok

    def test_getx_that_forgets_the_sharers_breaks_swmr(self, monkeypatch):
        complete_get = HomeController._complete_get

        def forgetful(home, msg, ent):
            if msg.kind == MessageKind.GETX:
                ent.sharers.clear()
            complete_get(home, msg, ent)

        with monkeypatch.context() as patch:
            patch.setattr(HomeController, "_complete_get", forgetful)
            report = check_protocol(num_cores=2)
        assert report.findings and {f.check for f in report.findings} == {"swmr"}
        details = report.findings[0].details
        assert "deliver GetX" in details and "reached:" in details
        assert check_protocol(num_cores=2).ok

    def test_handler_refusal_is_a_protocol_error_with_its_message(self, monkeypatch):
        def refuse(core, msg):
            raise ProtocolError(f"core {core.core_id}: PutAck refused")

        with monkeypatch.context() as patch:
            patch.setitem(Core.HANDLERS, MessageKind.PUT_ACK, refuse)
            report = check_protocol(num_cores=2)
        assert report.findings
        for finding in report.findings:
            assert finding.check == "protocol-error"
            assert finding.summary.endswith(": PutAck refused")
            assert "deliver PutAck" in finding.details
        assert check_protocol(num_cores=2).ok

    def test_checking_leaves_the_simulator_alone(self):
        # Checkpoints restore the message-id counter, so certifying must
        # not move it; nor may it leave a handler table changed.
        tables = [dict(owner.HANDLERS) for owner in (Core, HomeController, CmpSystem)]
        before = message_id_state()
        assert check_protocol(num_cores=2).ok
        assert message_id_state() == before
        assert [Core.HANDLERS, HomeController.HANDLERS, CmpSystem.HANDLERS] == tables


class TestMessageDependencies:
    def test_shipped_graphs_acyclic(self):
        report = check_message_dependencies()
        assert report.ok
        assert any("generation graph" in c for c in report.certified)
        assert any("blocking-wait graph" in c for c in report.certified)

    def test_blocking_edges_are_the_documented_ones(self):
        report = check_message_dependencies()
        (line,) = [c for c in report.certified if "blocking-wait" in c]
        for edge in (
            "request->writeback",
            "request->response",
            "request->control",
            "writeback->control",
            "response->control",
        ):
            assert edge in line


class TestCoreLabelling:
    def test_stable_states(self):
        assert core_label((CacheLabel.I, None, "none")) == CacheLabel.I
        assert core_label((CacheLabel.S, None, "none")) == CacheLabel.S
        assert core_label((CacheLabel.M, None, "none")) == CacheLabel.M

    def test_eviction_shadows(self):
        assert core_label((CacheLabel.I, None, "shadow")) == CacheLabel.MI_A
        assert core_label((CacheLabel.I, None, "recalled")) == CacheLabel.II_A

    def test_miss_states(self):
        read = (False, False, False, False, None, 0)
        write = (True, True, False, False, None, 0)
        assert core_label((CacheLabel.I, read, "none")) == CacheLabel.IS_D
        assert core_label((CacheLabel.I, write, "none")) == CacheLabel.IM_AD
        assert core_label((CacheLabel.S, write, "none")) == CacheLabel.SM_AD

    def test_deferred_misses_behind_putm(self):
        deferred_read = (False, False, True, False, None, 0)
        deferred_write = (True, True, True, False, None, 0)
        assert (
            core_label((CacheLabel.I, deferred_read, "shadow"))
            == CacheLabel.IS_D_DEF
        )
        assert (
            core_label((CacheLabel.I, deferred_write, "recalled"))
            == CacheLabel.IM_AD_DEF_R
        )

    def test_data_received_awaiting_acks(self):
        awaiting = (True, True, False, True, 1, 0)
        assert core_label((CacheLabel.I, awaiting, "none")) == CacheLabel.IM_A
        assert core_label((CacheLabel.S, awaiting, "none")) == CacheLabel.SM_A


def _fresh_process_report(broken: bool) -> dict:
    """``check_protocol``'s report as a process that ran nothing else sees it."""
    code = (
        "import json\n"
        "from repro.verify import broken_cache_table\n"
        "from repro.verify.protocol import check_protocol\n"
        f"table = broken_cache_table() if {broken} else None\n"
        "print(json.dumps(check_protocol(cache_table=table).to_dict()))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


class TestTablesBelongToOneCheck:
    def test_broken_then_shipped_then_broken_match_fresh_processes(self):
        broken = check_protocol(cache_table=broken_cache_table()).to_dict()
        shipped = check_protocol().to_dict()
        again = check_protocol(cache_table=broken_cache_table()).to_dict()
        assert shipped["ok"]
        assert broken == again == _fresh_process_report(broken=True)
        assert shipped == _fresh_process_report(broken=False)


class TestMemoisedReportsAreCopies:
    """A caller that extends a memoised report must not change the verdict."""

    @staticmethod
    def _spoil(report: VerifyReport) -> None:
        report.findings.append(Finding(check="spoiled", summary="by a caller"))
        report.merge(VerifyReport("other", findings=[Finding("spoiled", "merged")]))
        report.certified.clear()

    def test_protocol_verdict_survives_a_caller_extending_it(self):
        before = verify_protocol().to_dict()
        self._spoil(verify_protocol())
        assert verify_protocol().to_dict() == before
        assert verify_protocol().ok

    def test_network_verdict_survives_a_caller_extending_it(self):
        before = verify_noc(Mesh(4, 4), "xy", NocConfig()).to_dict()
        self._spoil(verify_noc(Mesh(4, 4), "xy", NocConfig()))
        assert verify_noc(Mesh(4, 4), "xy", NocConfig()).to_dict() == before

    def test_a_later_strict_build_still_certifies(self):
        config = TargetConfig(width=4, height=4, app="water", scale=0.3)
        for report in verify_target_config(config):
            self._spoil(report)
        assert all(report.ok for report in verify_target_config(config))
        build_cosim(config, verify="strict")  # raised ConfigError when shared
