"""Integration: the paper's Figure 1 walked with full accounting.

Beyond the unit-level protocol tests, this module checks *observable
economics*: how many messages and bytes each protocol step costs, and
that the data structures at each site match the paper's situations
(a) → (b) → (c).
"""

import pytest

from repro.core.costs import CostModel
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World
from tests.models import Chain


@pytest.fixture
def figure1():
    with World.loopback(costs=CostModel.zero()) as world:
        s2 = world.create_site("S2")
        s1 = world.create_site("S1")
        c = Chain(index=3)
        b = Chain(index=2, nxt=c)
        a = Chain(index=1, nxt=b)
        s2.export(a, name="a")
        yield world, s2, s1, a, b, c


def test_situation_a_only_aproxyin_is_remote(figure1):
    world, s2, s1, a, b, c = figure1
    # Exactly three exported objects on S2: the name server lives on S2
    # (first site), every site exports its feed service, plus AProxyIn.
    assert len(s2.endpoint.objects) == 3
    assert s2.is_master(obi_id_of(a))
    assert not s2.is_master(obi_id_of(b))  # B has no proxy-in yet


def test_get_costs_exactly_two_round_trips(figure1):
    """Replicating A costs one name-server lookup + one get."""
    world, s2, s1, a, b, c = figure1
    before = world.network.stats.total_messages
    s1.replicate("a")
    assert world.network.stats.total_messages - before == 4  # 2 calls x 2


def test_situation_b_data_structures(figure1):
    world, s2, s1, a, b, c = figure1
    a1 = s1.replicate("a")
    # S2 now has BProxyIn exported (pair created during get).
    assert len(s2.endpoint.objects) == 4
    # S1 holds A' and one pending proxy-out for B.
    assert s1.is_replica(obi_id_of(a))
    assert isinstance(a1.next, ProxyOutBase)
    assert s1.local_node_for(obi_id_of(b)) is a1.next


def test_fault_costs_one_round_trip(figure1):
    world, s2, s1, a, b, c = figure1
    a1 = s1.replicate("a")
    before = world.network.stats.total_messages
    a1.next.get_index()  # demand()
    assert world.network.stats.total_messages - before == 2


def test_situation_c_no_indirection_left(figure1):
    world, s2, s1, a, b, c = figure1
    a1 = s1.replicate("a")
    a1.next.get_index()
    b1 = a1.next
    assert not isinstance(b1, ProxyOutBase)
    # Invoking B' again costs no messages at all: direct invocation.
    before = world.network.stats.total_messages
    assert b1.get_index() == 2
    assert world.network.stats.total_messages == before
    # C is now the frontier.
    assert isinstance(b1.next, ProxyOutBase)


def test_replication_bytes_scale_with_payload(figure1):
    world, s2, s1, a, b, c = figure1
    a.payload = b"\xab" * 4096
    before = world.network.stats.bytes_between("S1", "S2")
    s1.replicate("a")
    moved = world.network.stats.bytes_between("S1", "S2") - before
    assert moved > 4096


def test_full_figure1_lifecycle(figure1):
    """(a) → (b) → (c) → put → refresh, asserting state at each stage."""
    world, s2, s1, a, b, c = figure1
    a1 = s1.replicate("a")  # (b)
    assert a1.get_index() == 1
    assert a1.next.get_index() == 2  # (c) via fault
    b1 = a1.next
    assert b1.next.get_index() == 3  # C faulted too
    c1 = b1.next

    # Replica updates master.
    c1.set_index(33)
    s1.put_back(c1)
    assert c.index == 33

    # Master updates replica.
    b.index = 22
    s2.touch(b)
    s1.refresh(b1)
    assert b1.get_index() == 22

    # Both invocation paths remain live (paper Section 2.1).
    assert s1.remote_stub("a").get_index() == 1
    assert a1.get_index() == 1
