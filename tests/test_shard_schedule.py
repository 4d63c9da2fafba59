"""ShardSchedule: the coordinator's shard decisions as a pure state machine.

Unit tests pin each transition; a Hypothesis ``RuleBasedStateMachine``
then drives arbitrary interleavings of take, result (first, duplicate
and stale), worker death, rolled-back sends, deadline sweeps and
release under a fake clock.  Whatever the interleaving, every shard is
released exactly once and in order, no unreleased shard is ever
orphaned, and no shard ever has more than ``_MAX_SPECULATION`` live
holders.
"""

import ast
import inspect
import textwrap

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.scan.distributed import (
    _HARD_KILL_FACTOR,
    _MAX_SPECULATION,
    Coordinator,
    ShardSchedule,
)

_DEADLINE = 1.0


def test_schedule_is_pure_and_owns_the_shard_state():
    source = textwrap.dedent(inspect.getsource(ShardSchedule))
    names = {
        node.id for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name)
    }
    # No I/O, no observability, no clock: time is always an argument.
    assert not names & {"socket", "selectors", "subprocess", "obs", "time"}
    # The coordinator threads no queue through its methods any more;
    # only the public entry point takes the shard list.
    for name, method in inspect.getmembers(Coordinator, inspect.isfunction):
        params = set(inspect.signature(method).parameters)
        assert "pending" not in params, name
        assert "targets" not in params or name == "run", name


class TestTransitions:
    def test_takes_in_order_and_counts_attempts(self):
        schedule = ShardSchedule(3)
        assert schedule.take("a", 0.0) == (0, 0)
        assert schedule.take("a", 0.0) is None  # already holds one
        assert schedule.take("b", 0.0) == (1, 0)
        assert schedule.pending == (2,)

    def test_lost_shard_requeued_first_and_retried(self):
        schedule = ShardSchedule(3)
        schedule.take("a", 0.0)
        assert schedule.lose("a") == 0
        assert schedule.pending == (0, 1, 2)
        assert schedule.take("b", 0.0) == (0, 1)  # second attempt
        assert schedule.lose("a") is None  # nothing held any more

    def test_undo_restores_the_queue_and_attempt(self):
        schedule = ShardSchedule(2)
        assert schedule.take("a", 0.0) == (0, 0)
        schedule.undo("a")
        assert schedule.pending == (0, 1)
        assert schedule.holding("a") is None
        assert schedule.take("a", 0.0) == (0, 0)

    def test_first_result_wins(self):
        schedule = ShardSchedule(1, deadline=_DEADLINE)
        schedule.take("a", 0.0)
        assert list(schedule.overdue(1.5, ["a"])) == [
            ("a", 0, 1.5, "speculate")
        ]
        assert schedule.take("b", 1.5) == (0, 1)
        assert schedule.finish("b", 0, "rb") == "first"
        assert schedule.finish("a", 0, "ra") == "duplicate"
        assert schedule.release() == ["rb"]
        assert schedule.done

    def test_stale_result_changes_nothing(self):
        schedule = ShardSchedule(2)
        schedule.take("a", 0.0)
        assert schedule.finish("a", 1, "r") == "stale"
        assert schedule.finish("b", 0, "r") == "stale"
        assert schedule.holding("a") == 0
        assert schedule.pending == (1,)

    def test_release_waits_for_the_cursor(self):
        schedule = ShardSchedule(2)
        schedule.take("a", 0.0)
        schedule.take("b", 0.0)
        schedule.finish("b", 1, "r1")
        assert schedule.release() == []
        schedule.finish("a", 0, "r0")
        assert schedule.release() == ["r0", "r1"]

    def test_deadline_speculates_once_then_kills(self):
        schedule = ShardSchedule(1, deadline=_DEADLINE)
        schedule.take("a", 0.0)
        assert list(schedule.overdue(0.5, ["a"])) == []
        assert [a for *_, a in schedule.overdue(1.5, ["a"])] == [
            "speculate"
        ]
        # Already queued: no second speculative copy.
        assert list(schedule.overdue(1.6, ["a"])) == []
        schedule.take("b", 1.6)
        # Two live copies: the cap holds until the original is killed.
        assert list(schedule.overdue(2.0, ["a", "b"])) == []
        kill_at = _HARD_KILL_FACTOR * _DEADLINE + 0.1
        assert [a for *_, a in schedule.overdue(kill_at, ["a", "b"])] == [
            "kill"
        ]

    def test_no_deadline_never_overdue(self):
        schedule = ShardSchedule(1)
        schedule.take("a", 0.0)
        assert list(schedule.overdue(1e9, ["a"])) == []

    def test_released_shard_is_never_run_again(self):
        schedule = ShardSchedule(2, deadline=_DEADLINE)
        schedule.take("a", 0.0)
        next(schedule.overdue(1.5, ["a"]))  # speculate shard 0
        schedule.take("b", 1.5)
        schedule.finish("b", 0, "r0")
        assert schedule.release() == ["r0"]
        # The slow original dies: the released shard is not re-queued,
        # and a late duplicate is discarded.
        assert schedule.lose("a") == 0
        assert schedule.pending == (1,)
        assert schedule.take("c", 2.0) == (1, 0)


class ScheduleMachine(RuleBasedStateMachine):
    """Arbitrary event interleavings against a fake clock."""

    workers = ("w0", "w1", "w2", "w3")

    @initialize(shards=st.integers(min_value=1, max_value=6))
    def start(self, shards):
        self.schedule = ShardSchedule(shards, deadline=_DEADLINE)
        self.now = 0.0
        self.finished = set()  # indices whose first result landed
        self.released = []

    worker = st.sampled_from(workers)

    @rule(worker=worker)
    def take(self, worker):
        held = self.schedule.holding(worker)
        taken = self.schedule.take(worker, self.now)
        if held is not None:
            assert taken is None
            return
        if taken is not None:
            index, attempt = taken
            assert index not in self.finished
            assert attempt >= 0
            assert self.schedule.holding(worker) == index

    def live_queue(self) -> tuple:
        """The queue without the finished entries a take skips."""
        return tuple(
            i for i in self.schedule.pending if not self.schedule.finished(i)
        )

    @rule(worker=worker)
    def take_then_send_fails(self, worker):
        before = self.live_queue()
        taken = self.schedule.take(worker, self.now)
        if taken is None:
            return
        self.schedule.undo(worker)
        assert self.live_queue() == before
        assert self.schedule.holding(worker) is None
        # The rolled-back attempt is handed out again, unchanged.
        assert self.schedule.take(worker, self.now) == taken
        self.schedule.undo(worker)

    @rule(worker=worker)
    def result(self, worker):
        index = self.schedule.holding(worker)
        if index is None:
            return
        outcome = self.schedule.finish(worker, index, ("result", index))
        if index in self.finished:
            assert outcome == "duplicate"
        else:
            assert outcome == "first"
            self.finished.add(index)
        assert self.schedule.holding(worker) is None

    @rule(worker=worker, index=st.integers(min_value=-1, max_value=7))
    def stale_result(self, worker, index):
        if self.schedule.holding(worker) == index:
            return
        before = (self.schedule.pending, self.schedule.holding(worker))
        assert self.schedule.finish(worker, index, "stale") == "stale"
        assert (self.schedule.pending, self.schedule.holding(worker)) == (
            before
        )

    @rule(worker=worker)
    def lose(self, worker):
        held = self.schedule.holding(worker)
        assert self.schedule.lose(worker) == held
        assert self.schedule.holding(worker) is None

    @rule(dt=st.sampled_from([0.25, 0.6, 1.1, 2.5]))
    def advance_and_sweep(self, dt):
        self.now += dt
        for worker, index, held, action in self.schedule.overdue(
            self.now, list(self.workers)
        ):
            assert held > _DEADLINE
            if action == "kill":
                # The coordinator drops a worker it kills.
                assert held > _HARD_KILL_FACTOR * _DEADLINE
                self.schedule.lose(worker)
            else:
                assert action == "speculate"
                assert index not in self.finished
                assert self.schedule.pending[0] == index

    @precondition(lambda self: not self.schedule.done)
    @rule()
    def release(self):
        for result in self.schedule.release():
            assert result == ("result", len(self.released))
            self.released.append(result)

    @invariant()
    def released_once_in_order(self):
        assert self.schedule.released == len(self.released)
        assert [i for _, i in self.released] == list(
            range(len(self.released))
        )

    @invariant()
    def no_orphaned_shard(self):
        pending = set(self.schedule.pending)
        for index in range(self.schedule.released, self.schedule.total):
            assert (
                index in pending
                or self.schedule.copies(index)
                or self.schedule.finished(index)
            ), f"shard {index} is neither pending, held nor finished"

    @invariant()
    def speculation_is_capped(self):
        for index in range(self.schedule.total):
            assert self.schedule.copies(index) <= _MAX_SPECULATION

    def teardown(self):
        # Liveness: from any reachable state, a healthy fleet drains the
        # rest and every shard is released exactly once, in order.
        for _ in range(4 * self.schedule.total + 4):
            for worker in self.workers:
                index = self.schedule.holding(worker)
                if index is None:
                    self.schedule.take(worker, self.now)
                else:
                    if index not in self.finished:
                        self.finished.add(index)
                    self.schedule.finish(worker, index, ("result", index))
            self.release()
            if self.schedule.done:
                break
        assert self.schedule.done
        assert [i for _, i in self.released] == list(
            range(self.schedule.total)
        )


TestScheduleMachine = ScheduleMachine.TestCase
TestScheduleMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
