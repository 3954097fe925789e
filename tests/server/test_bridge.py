"""SolveBridge job bookkeeping: state and checkpoint change together."""

from repro.core import SolverConfig
from repro.graph import generators as gen
from repro.server.bridge import DONE, SolveBridge
from repro.service import SolveRequest, SolveService


class _Recording(dict):
    """A dict that calls ``on_set(key, value)`` after every store."""

    def __init__(self, on_set):
        super().__init__()
        self._on_set = on_set

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._on_set(key, value)


def test_done_job_never_exposes_its_checkpoint():
    bridge = SolveBridge(SolveService())
    stored = []
    at_done = {}

    def snapshot(job_id, state):
        # what a checkpoint frame reads the instant the job turns done
        if state == DONE:
            at_done[job_id] = bridge.checkpoint(job_id)

    bridge._states = _Recording(snapshot)
    bridge._checkpoints = _Recording(lambda job_id, ckpt: stored.append(job_id))
    try:
        graph = gen.team_collaboration(1000, 700, team_size_range=(2, 9), seed=201)
        request = SolveRequest(
            graph=graph, config=SolverConfig(window_size=128), job_id="ck"
        )
        record = bridge.submit(request).result(timeout=60)
        assert record.status == "ok"
        assert stored, "the windowed solve stored no checkpoint"
        assert at_done == {"ck": None}
        assert bridge.checkpoint("ck") is None
    finally:
        assert bridge.stop(timeout_s=10.0)
