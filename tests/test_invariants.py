"""Tests for the runtime invariant checker."""

import pytest

from repro.analysis import InvariantChecker, check_network_invariants
from repro.core import TargetConfig, build_cosim
from repro.errors import InvariantError
from repro.noc import NocConfig
from repro.noc.network import CycleNetwork
from repro.noc.topology import Mesh
from repro.workloads.synthetic import SyntheticTraffic


def small(**kw):
    defaults = dict(
        width=2,
        height=2,
        app="water",
        network_model="cycle",
        quantum=4,
        seed=3,
        scale=0.3,
    )
    defaults.update(kw)
    return TargetConfig(**defaults)


class TestCleanRuns:
    @pytest.mark.parametrize("model", ["cycle", "fixed", "table-shadow"])
    def test_checked_run_completes(self, model):
        cosim = build_cosim(small(network_model=model), check_invariants=True)
        result = cosim.run()
        assert result.completed
        assert cosim.invariants.windows_checked > 0

    def test_every_n_samples_fewer_windows(self):
        cosim = build_cosim(small(), check_invariants=True)
        cosim.invariants.every = 8
        cosim.run()
        assert 0 < cosim.invariants.windows_checked < cosim.windows

    def test_checker_appears_in_describe(self):
        checker = InvariantChecker()
        assert "conservation" in checker.describe()["invariants"]

    def test_bad_every_rejected(self):
        with pytest.raises(InvariantError):
            InvariantChecker(every=0)


class TestBrokenConservation:
    def test_dropped_delivery_is_caught(self):
        """A network model that loses one message must trip the checker."""
        cosim = build_cosim(small(), check_invariants=True)
        original = cosim.network.pop_deliveries
        state = {"dropped": False}

        def dropping():
            out = original()
            if out and not state["dropped"]:
                state["dropped"] = True
                return out[1:]
            return out

        cosim.network.pop_deliveries = dropping
        with pytest.raises(InvariantError, match="conservation"):
            cosim.run()

    def test_duplicated_delivery_is_caught(self):
        cosim = build_cosim(small(), check_invariants=True)
        original = cosim.network.pop_deliveries
        state = {"duplicated": False}

        def duplicating():
            out = original()
            if out and not state["duplicated"]:
                state["duplicated"] = True
                return out + [out[0]]
            return out

        cosim.network.pop_deliveries = duplicating
        with pytest.raises(InvariantError):
            cosim.run()


class TestTimeMonotonicity:
    def test_backwards_window_rejected(self):
        # An inline model keeps the network-clock check quiet so only the
        # boundary ordering is exercised.
        checker = InvariantChecker(check_network=False)
        cosim = build_cosim(small(network_model="fixed"), check_invariants=False)
        cosim.system.run_until(8)
        checker.after_window(cosim, 8)
        with pytest.raises(InvariantError, match="backwards"):
            checker.after_window(cosim, 4)

    def test_clock_disagreement_rejected(self):
        checker = InvariantChecker(check_network=False)
        cosim = build_cosim(small(), check_invariants=False)
        cosim.system.run_until(8)
        with pytest.raises(InvariantError, match="disagrees"):
            checker.after_window(cosim, 12)


def _driven_network(cycles=200):
    topo = Mesh(4, 4)
    net = CycleNetwork(topo, NocConfig())
    traffic = SyntheticTraffic(topo, pattern="uniform", rate=0.1, seed=5)
    traffic.drive(net, cycles, drain=False)
    return net


class TestNetworkConservation:
    def test_live_network_conserves_credits(self):
        net = _driven_network()
        check_network_invariants(net)  # must not raise mid-flight

    def test_corrupted_credit_counter_is_caught(self):
        net = _driven_network()
        net.routers[0].credits[1][0] += 1
        with pytest.raises(InvariantError, match="credit conservation"):
            check_network_invariants(net)

    def test_corrupted_vc_ownership_is_caught(self):
        net = _driven_network()
        router = net.routers[0]
        router.out_vc_owner[1][0] = (2, 0)
        with pytest.raises(InvariantError):
            check_network_invariants(net)

    def test_cosim_detects_network_corruption(self):
        """End-to-end: corrupting the live NoC mid-run trips the checker."""
        cosim = build_cosim(small(), check_invariants=True)
        original_advance = cosim._phase_advance
        state = {"corrupted": False}

        def corrupting(target):
            original_advance(target)
            if not state["corrupted"] and cosim.windows > 4:
                state["corrupted"] = True
                cosim.network.network.routers[0].credits[1][0] -= 1

        cosim._phase_advance = corrupting
        with pytest.raises(InvariantError):
            cosim.run()
