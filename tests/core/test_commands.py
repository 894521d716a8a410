"""Command record validation and kind classification."""

import pytest

from repro.core.commands import ISSUE, Command, CommandKind


class TestCommandValidation:
    def test_nonblocking_requires_slot(self):
        with pytest.raises(ValueError):
            Command(kind=CommandKind.ISEND)
        cmd = Command(kind=CommandKind.ISEND, slot=3)
        assert cmd.slot == 3

    def test_every_kind_but_shutdown_requires_slot(self):
        # blocking calls included: the slot is the one completion channel
        for kind in CommandKind:
            if kind is CommandKind.SHUTDOWN:
                continue
            with pytest.raises(ValueError, match="needs a slot"):
                Command(kind=kind)

    def test_done_is_a_class_level_none(self):
        # read by the frozen end-to-end tracer; never a per-command flag
        assert Command.done is None
        assert Command(kind=CommandKind.IBARRIER, slot=0).done is None

    def test_shutdown_needs_no_flag(self):
        cmd = Command(kind=CommandKind.SHUTDOWN)
        assert cmd.slot == -1
        assert cmd.done is None

    def test_call_command(self):
        cmd = Command(kind=CommandKind.CALL, fn=lambda: 42, slot=0)
        assert cmd.fn() == 42
        assert ISSUE[CommandKind.CALL](cmd) == 42


class TestKindClassification:
    def test_exactly_the_eleven_kinds(self):
        assert [k.name for k in CommandKind] == [
            "ISEND", "IRECV", "IPROBE", "IBARRIER", "IBCAST", "IALLREDUCE",
            "IGATHER", "IALLTOALL", "CALL", "FLUSH", "SHUTDOWN",
        ]

    def test_one_issue_call_per_issuable_kind(self):
        control = {CommandKind.FLUSH, CommandKind.SHUTDOWN}
        assert set(ISSUE) == set(CommandKind) - control
        # only IPROBE and CALL complete where they are issued
        assert {k for k in CommandKind if k.immediate} == {
            CommandKind.IPROBE, CommandKind.CALL,
        }
        assert {k for k in CommandKind if k.p2p} == {
            CommandKind.ISEND, CommandKind.IRECV,
        }

    def test_call_is_never_retried(self):
        assert not CommandKind.CALL.idempotent
        assert CommandKind.ISEND.idempotent
        assert CommandKind.IALLREDUCE.idempotent
