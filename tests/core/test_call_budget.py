"""Call budget of the offloaded small message (DESIGN.md §19).

The small-message workloads are interpreter-bound: what a message
costs is the Python executed for it.  These tests count it — ``call``
and ``c_call`` profile events on every thread, application and engine
alike, over 15 warmed windows of 64 pre-posted ``irecv`` / ``isend`` +
``wait`` (``repro.bench.call_budget``) — and hold it to a budget, in
absolute terms and against the plain communicator counted the same way
in the same test.  Counts repeat to within a call per message from run
to run, which timings on a shared box do not.

Parent of the PR that introduced the budget: 207.3 calls per message
offloaded (98.4 on application threads, 109.0 on engine threads), 79.1
plain.
"""

import pytest

from repro.bench.call_budget import measure

#: calls per message (one isend, one irecv, two waits), both ranks
BUDGET = 160
#: ... and as a multiple of the plain communicator's
RATIO = 2.1


@pytest.fixture(scope="module")
def counts():
    return measure(offload=True), measure(offload=False)


def _detail(offload, plain) -> str:
    return (
        f"\noffloaded: {offload.report()}\nplain: {plain.report(top=0)}"
    )


def test_offloaded_message_stays_inside_its_call_budget(counts):
    offload, plain = counts
    assert offload.per_msg <= BUDGET, _detail(offload, plain)


def test_offload_costs_at_most_twice_the_plain_communicator(counts):
    offload, plain = counts
    assert offload.per_msg <= RATIO * plain.per_msg, _detail(offload, plain)


def test_one_substrate_entry_per_drained_run(counts):
    """The engine enters the substrate once per drained run of p2p
    commands, not once per command: a window of 64 is a few entries."""
    offload, _ = counts
    assert offload.commands >= offload.messages  # >= one command each
    assert 0 < offload.entries_per_cmd < 0.1, (
        f"{offload.substrate_entries} substrate entries for "
        f"{offload.commands} commands"
    )
