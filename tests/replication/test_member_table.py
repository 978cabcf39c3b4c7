"""Unit tests for the per-connection member table (DESIGN.md §15.1).

The table is driven directly against a stand-in connection state:
``iss = irs = 0``, so a report's ``seq_next`` is ``1 + sent`` and its
``ack`` is ``1 + deposited``.
"""

from types import SimpleNamespace

import pytest

from repro.netsim.addressing import IPAddress
from repro.replication import MemberTable
from repro.replication.members import PROGRESS_SLACK

A, B, C = IPAddress("10.0.0.9"), IPAddress("10.0.0.10"), IPAddress("10.0.0.11")


class FakeState:
    """What the table reads of an ``FtConnectionState`` and its port."""

    def __init__(self, star: bool, gated: bool = True):
        self.gated = gated
        self.members = MemberTable()
        self.pushed = []
        self.liars = []
        self.conn = SimpleNamespace(
            iss=0,
            irs=0,
            snd_nxt=0,
            reassembler=SimpleNamespace(in_order_end=10_000, take_point=0),
            send_buffer=SimpleNamespace(end=10_000),
        )
        self.port = SimpleNamespace(
            strategy=SimpleNamespace(layout="star" if star else "linear"),
            sim=SimpleNamespace(now=1.0, invariants=None),
            stale_epoch_dropped=0,
            is_primary=True,
            _note_lie_evidence=self.liars.append,
        )

    def push_gates(self):
        members = self.members
        self.pushed.append((self.gated, members.sent, members.deposited))

    def report(self, sender, sent, deposited, epoch=0):
        message = SimpleNamespace(seq_next=1 + sent, ack=1 + deposited, epoch=epoch)
        self.members.report(self, message, sender)


def star(*targets, gated=True):
    state = FakeState(star=True, gated=gated)
    for ip in targets:
        state.members.admit(state, ip)
    state.members.refresh(state)
    return state


def test_stale_epoch_is_dropped_per_member():
    state = star(A, B)
    state.report(A, 100, 100, epoch=5)
    state.report(A, 200, 200, epoch=3)
    assert state.port.stale_epoch_dropped == 1
    assert state.members.views[A].sent == 100
    # B's epochs are its own: epoch 3 is fresh from B.
    state.report(B, 150, 150, epoch=3)
    assert state.port.stale_epoch_dropped == 1
    assert state.members.views[B].sent == 150


def test_star_ignores_a_non_member():
    state = star(A)
    state.report(A, 10, 10)
    pushes = len(state.pushed)
    state.report(C, 500, 500)
    assert list(state.members.views) == [A]
    assert (state.members.sent, state.members.deposited) == (10, 10)
    assert len(state.pushed) == pushes


def test_chain_follows_a_new_sender_keeping_marks_and_restarting_its_epoch():
    state = FakeState(star=False)
    state.report(A, 100, 80, epoch=4)
    state.port.sim.now = 2.0
    state.report(B, 10, 10, epoch=0)  # older epoch, but a different sender
    members = state.members
    assert state.port.stale_epoch_dropped == 0
    assert list(members.views) == [B]
    view = members.views[B]
    assert (view.sent, view.deposited, view.epoch) == (100, 80, 0)
    assert (members.straggler, members.last_heard) == (B, 2.0)
    assert state.pushed[-1] == (True, 100, 80)


def test_min_and_straggler_with_the_string_tie_break():
    state = star(A, B, C)
    state.report(A, 300, 100)
    state.report(B, 100, 300)
    state.report(C, 500, 500)
    members = state.members
    assert (members.sent, members.deposited) == (100, 100)
    # A and B tie on sent + deposited; "10.0.0.10" < "10.0.0.9" as text.
    assert members.straggler == B
    state.report(B, 101, 300)
    assert members.straggler == A
    assert state.pushed[-1] == (True, 101, 100)


@pytest.mark.parametrize("order", [(A, B), (B, A)])
def test_equal_progress_straggler_is_the_lesser_address_string(order):
    state = star(*order)
    state.report(A, 40, 60)
    state.report(B, 60, 40)
    # String order, not numeric: "10.0.0.10" < "10.0.0.9".
    assert state.members.straggler == B


def test_chain_view_taken_over_by_admit_takes_the_new_address_string():
    state = FakeState(star=False)
    state.report(C, 100, 80)
    view = state.members.admit(state, B)
    assert list(state.members.views) == [B]
    assert view.name == "10.0.0.10"


def test_implausible_report_names_its_sender():
    state = star(A, B)
    state.report(A, 10, 10)
    state.report(B, 50, 50)
    assert state.members.straggler == A
    state.report(B, 60, 10_000 + PROGRESS_SLACK + 1)
    assert state.liars == [B]  # not A, the straggler
    assert (state.members.views[B].sent, state.members.views[B].deposited) == (50, 50)


def test_emptied_star_table_ungates_and_empty_chain_table_stays_gated():
    state = star(A)
    state.members.keep_only(())
    state.members.refresh(state)
    assert not state.gated
    assert state.pushed[-1][0] is False
    chain = FakeState(star=False)
    chain.members.refresh(chain)
    assert chain.gated
    assert chain.pushed[-1] == (True, 0, 0)


def test_fence_holds_until_both_marks_are_covered():
    state = star(A, B)
    members = state.members
    members.fence = (100, 50)
    state.report(A, 100, 50)
    state.report(B, 90, 50)
    assert members.fence_holds(state)  # sent short
    state.report(B, 100, 40)  # sent covered; deposited stays 50 (monotone)
    assert not members.fence_holds(state)
    assert members.fence is None
    members.fence = (100, 60)
    state.report(A, 100, 60)
    assert members.fence_holds(state)  # deposited short: B has 50
    state.report(B, 100, 60)
    assert not members.fence_holds(state)
    assert members.fence is None


@pytest.mark.parametrize("is_primary, armed", [(True, True), (False, False)])
def test_splice_arms_the_fence_on_an_ungated_star_primary_only(is_primary, armed):
    state = star(gated=False)
    state.port.is_primary = is_primary
    state.conn.snd_nxt, state.conn.reassembler.take_point = 70, 30
    state.members.splice(state, C)
    assert state.gated and list(state.members.views) == [C]
    assert (state.members.fence == (70, 30)) is armed
    chain = FakeState(star=False, gated=False)
    chain.members.splice(chain, C)
    assert chain.gated and chain.members.fence is None
