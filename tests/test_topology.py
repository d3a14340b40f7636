"""Base topologies and the visibility function."""

import pytest

from guardsim.network import Envelope, Slot, watchers
from guardsim.terms import Nonce
from guardsim.topology import LAYOUTS as TOPOLOGY_LAYOUTS
from guardsim.topology import ConfigError, base_topology

N = Nonce(value=1, label="N_A")


def env(claimed, receiver, true=None, injected=False):
    return Envelope(seq=1, claimed_sender=claimed, body=N, receiver=receiver,
                    true_sender=true or claimed, slot=Slot(1, 1),
                    injected=injected)


def test_kind_a_guardian_sees_all_of_a_traffic():
    topo = base_topology("A", honest=("A", "B"))
    assert "G" in watchers(topo, env("A", "B"))
    assert "E" in watchers(topo, env("A", "B"))
    # injected toward A from E crosses G
    assert "G" in watchers(topo, env("B", "A", true="E", injected=True))


def test_kind_b_attacker_excludes_guardian():
    topo = base_topology("B", honest=("A", "B"))
    # E adjacent to A: his forgeries toward A never reach G's tap
    assert "G" not in watchers(topo, env("B", "A", true="E", injected=True))
    assert "G" in watchers(topo, env("A", "B"))  # honest traffic still crosses


def test_three_agent_kinds_station_layout():
    topo_c = base_topology("C")
    assert topo_c.guards_path("G", "A", "B")
    assert topo_c.guards_path("G", "A", "S")
    assert topo_c.guards_path("G", "B", "S")
    assert topo_c.guards_injection("G", "E", "A")
    assert not topo_c.guards_injection("G", "E", "B")

    topo_d = base_topology("D")
    assert topo_d.guards_injection("G", "E", "B")
    assert not topo_d.guards_injection("G", "E", "A")
    assert topo_d.sees_first("G", "S", "A")

    topo_e = base_topology("E")
    assert not topo_e.sees_first("G", "S", "A")  # E shades the server leg

    topo_f = base_topology("F")
    assert not topo_f.guards_path("G", "A", "S")


# stations per edge, listed from the edge's first vertex; "" is the
# guardian's station when it is on and vanishes when it is off
LAYOUTS = {
    "A": {("A", "B"): "G E"},
    "B": {("A", "B"): "E G"},
    "C": {("A", "B"): "G E", ("A", "S"): "G", ("B", "S"): "E G"},
    "D": {("A", "B"): "E G", ("A", "S"): "E G", ("B", "S"): "G"},
    "E": {("A", "B"): "G E", ("A", "S"): "G E", ("B", "S"): "E"},
    "F": {("A", "B"): "E G", ("A", "S"): "E", ("B", "S"): "G E"},
}


@pytest.mark.parametrize("guardian", ["G", None])
@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_base_layout_stations_pinned(kind, guardian):
    honest = ("A", "B") if kind in ("A", "B") else ("A", "B", "S")
    topo = base_topology(kind, honest=honest, attackers=("E",),
                         guardian=guardian)
    expected = {edge: [frozenset([who]) for who in line.split()
                       if guardian or who != "G"]
                for edge, line in LAYOUTS[kind].items()}
    assert topo.stations == expected
    assert topo.vertices == set(honest)
    links = {("G", "A")} if kind in ("A", "B") else {("G", "A"), ("G", "B")}
    assert topo.resilient_links == (links if guardian else set())


def test_co_located_rivals_see_each_others_injections():
    topo = base_topology("A", honest=("A", "B"), attackers=("E_1", "E_2"),
                         guardian=None)
    forged = env("B", "A", true="E_1", injected=True)
    assert "E_2" in watchers(topo, forged)
    forged2 = env("B", "A", true="E_2", injected=True)
    assert "E_1" in watchers(topo, forged2)


def test_ordered_stations_shade_far_side():
    # kind A: E injecting toward B never crosses G (G sits on A's side)
    topo = base_topology("A", honest=("A", "B"))
    assert "G" not in watchers(topo, env("A", "B", true="E", injected=True))


@pytest.mark.parametrize("kind", sorted(TOPOLOGY_LAYOUTS))
def test_watchers_keeps_each_route_of_the_uncached_functions(kind):
    """Every send and injection route between any two of the layout's
    agents and interceptors: the kept answer is the uncached one, as a
    tuple, and empty where the topology gives no path."""
    topo = base_topology(kind, attackers=("E_1", "E_2"))
    names = sorted(topo.vertices | {who for groups in topo.stations.values()
                                    for group in groups for who in group})
    for injected in (False, True):
        uncached = (topo.observers_for_injection if injected
                    else topo.observers_for_send)
        for sender in names:
            for receiver in names:
                try:
                    expected = tuple(uncached(sender, receiver))
                except ConfigError:
                    expected = ()
                route = env(sender, receiver, injected=injected)
                for _ in range(2):   # worked out, then kept
                    got = watchers(topo, route)
                    assert type(got) is tuple and got == expected
