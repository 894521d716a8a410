"""Comm-local statuses on every completion path; sendrecv's send is
validated before its receive is posted."""

import numpy as np
import pytest

from repro.mpisim import ANY_SOURCE
from repro.mpisim.exceptions import InvalidRankError
from repro.mpisim import requests as rq

from tests.conftest import run_world


class TestSplitStatusIsLocal:
    def test_every_completion_path_reports_the_local_source(self):
        """Odd ranks split into {1, 3}: rank 3 is local rank 1 there."""

        def prog(comm):
            sub = comm.split(comm.rank % 2 if comm.rank % 2 else None)
            if sub is None:
                return True
            buf = np.zeros(1)
            if comm.rank == 3:
                for tag in range(5):
                    sub.send(np.ones(1), 0, tag)
                return True
            st = sub.irecv(buf, ANY_SOURCE, 0).wait(timeout=30)
            assert st.source == 1
            req = sub.irecv(buf, ANY_SOURCE, 1)
            while not req.test()[0]:
                pass
            assert req.test()[1].source == 1
            (st,) = rq.waitall([sub.irecv(buf, ANY_SOURCE, 2)], timeout=30)
            assert st.source == 1
            _, st = rq.waitany([sub.irecv(buf, ANY_SOURCE, 3)], timeout=30)
            assert st.source == 1
            assert sub.recv(buf, ANY_SOURCE, 4).source == 1
            return True

        assert all(run_world(4, prog))


class TestSendrecvInvalidSend:
    def test_invalid_send_posts_no_receive(self):
        def prog(comm):
            peer = 1 - comm.rank
            buf = np.zeros(1)
            with pytest.raises(InvalidRankError):
                comm.sendrecv(np.ones(1), 99, buf, peer)
            assert comm.engine.pending_counts()["posted_recvs"] == 0
            # the next message from the peer is the next receive's
            comm.sendrecv(np.full(1, comm.rank + 1.0), peer, buf, peer)
            assert buf[0] == peer + 1.0
            st = comm.sendrecv(np.ones(1), peer, buf, peer, sendtag=7)
            assert (st.source, st.tag) == (peer, 7)
            return True

        assert all(run_world(2, prog, timeout=30))
