"""Individual-based simulator: determinism, the kernel against its per-step reference, and sanity."""

import errno
import inspect
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from coaldyn import BenefitFunction, CapacityError, GameParams, WorkerError, markov, monte_carlo

from oracles import _simulate_block, no_child_processes

SIGMOID = BenefitFunction.sigmoid()


def params(z=12, **kw):
    base = dict(z=z, g_m=2 / z, benefit=SIGMOID, alpha=2.0, beta=0.1, mu=0.05)
    base.update(kw)
    return GameParams(**base)


def test_same_seed_reproduces_exactly():
    a = monte_carlo(params(), steps=40_000, seed=3)
    b = monte_carlo(params(), steps=40_000, seed=3)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert np.array_equal(a.trajectory, b.trajectory)


def test_different_seeds_differ():
    a = monte_carlo(params(), steps=40_000, seed=3)
    b = monte_carlo(params(), steps=40_000, seed=4)
    assert not np.array_equal(a.occupancy, b.occupancy)


def run_in_blocks(monkeypatch, block_steps, *args, **kw):
    """`monte_carlo` with uniforms drawn ``block_steps`` steps at a time (None keeps the default)."""
    with monkeypatch.context() as m:
        if block_steps is not None:
            m.setattr(markov, "BLOCK_STEPS", block_steps)
        return monte_carlo(*args, **kw)


def test_block_size_does_not_change_the_stream(monkeypatch):
    kw = dict(steps=30_000, seed=9)
    a, b, c = (run_in_blocks(monkeypatch, block, params(), **kw) for block in (30_000, 1_000, 7))
    assert np.array_equal(a.occupancy, b.occupancy)
    assert np.array_equal(a.occupancy, c.occupancy)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.trajectory, c.trajectory)


# (z, mu, initial, steps, burn_in, BLOCK_STEPS, trajectory_samples); None keeps
# the default.  Burn-in is 0, inside the first block, or spans several blocks;
# the strides 19, 1428 and 2857 divide none of the block sizes.
PARITY_CASES = [
    (12, 0.05, None, 20_000, 0, 7, 512),
    (12, 0.05, None, 20_000, 5, 333, 7),
    (12, 0.05, None, 500, 0, 7, 512),
    (20, 0.05, None, 40_000, 35_000, None, 512),
    (20, 0.05, (20, 0), 10_000, 2_000, 333, 0),
    (30, 0.05, (0, 30), 10_000, 100, 7, 7),
    (30, 0.05, (0, 0), 10_000, 0, None, 512),
    (30, 0.0, (0, 0), 5_000, 0, 333, 512),
    (12, 0.0, (6, 0), 20_000, 1_000, None, 7),
    (20, 0.0, (6, 0), 10_000, 2_500, 333, 512),
    (20, 1.0, None, 10_000, 0, 333, 512),
    (12, 1.0, (12, 0), 5_000, 4_999, 7, 7),
]


@pytest.mark.parametrize("z, mu, initial, steps, burn_in, block_steps, samples", PARITY_CASES)
def test_interpreted_kernel_matches_per_step_reference(
        monkeypatch, z, mu, initial, steps, burn_in, block_steps, samples):
    """`_simulate_steps` gives what the per-step `oracles._simulate_block` gives."""
    kw = dict(steps=steps, seed=z + steps, burn_in=burn_in, initial=initial,
              trajectory_samples=samples)
    p = params(z, mu=mu)
    fast = run_in_blocks(monkeypatch, block_steps, p, **kw)
    with monkeypatch.context() as m:
        m.setattr(markov, "_simulate_steps", _simulate_block)
        ref = run_in_blocks(monkeypatch, block_steps, p, **kw)
    assert np.array_equal(fast.occupancy, ref.occupancy)
    assert np.array_equal(fast.trajectory, ref.trajectory)


def test_reference_has_the_kernel_signature():
    """The tests swap `oracles._simulate_block` in for `_simulate_steps`, so both take the same arguments."""
    assert inspect.signature(markov._simulate_steps) == inspect.signature(_simulate_block)


@pytest.mark.parametrize("beta", [0.1, 5.0])
@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("z", [4, 5, 7, 12])
def test_kernel_matches_per_step_reference_from_corners_and_edges(monkeypatch, z, mu, beta):
    """At the smallest valid games, from each corner and edge of the simplex, the kernel's
    relabelled positions give the reference's state at every step.  There a move often
    empties a block, as C -> O and O -> C at i_d = 0 relabel one position twice."""
    p = params(z, g_m=0.5, mu=mu, beta=beta)
    for initial in [(z, 0), (0, z), (0, 0), (z - 1, 0), (1, 0), (0, 1), (z // 3, z // 3)]:
        kw = dict(steps=2_000, seed=z + initial[0], initial=initial, trajectory_samples=2_000)
        fast = run_in_blocks(monkeypatch, 333, p, **kw)
        with monkeypatch.context() as m:
            m.setattr(markov, "_simulate_steps", _simulate_block)
            ref = run_in_blocks(monkeypatch, 333, p, **kw)
        assert np.array_equal(fast.trajectory, ref.trajectory), initial
        assert np.array_equal(fast.occupancy, ref.occupancy), initial


def test_stepper_rows_hold_the_fermi_table(monkeypatch):
    """Slot 3 x + y of the row `_stepper` hands the kernel is `_fermi_table`'s column of
    MOVES (x, y), bit for bit, and the diagonal slots are 0.0."""
    p = params(7, g_m=0.5, beta=5.0)
    index = markov.StateIndex.for_population(p.z)
    seen = []

    def spy(u, i_c, i_d, z, mu, rows, offsets, counts, start_step, *rest):
        seen.append(rows)
        return i_c, i_d, start_step + u.shape[0]

    monkeypatch.setattr(markov, "_simulate_steps", spy)
    list(markov._stepper(p, index, 1, 0, 0, 0)(0, 0, 0, 10, None, None))
    rows = np.array([row for level in seen[0] for row in level])
    fermi = markov._fermi_table(p, index)
    expected = np.zeros((index.n_states, 9))
    for m, (x, y) in enumerate(markov.MOVES):
        expected[:, 3 * x + y] = fermi[:, m]
    assert np.array_equal(rows, expected)
    assert [len(level) for level in seen[0]] == list(range(p.z + 1, 0, -1))


def run_in_segments(monkeypatch, segments, block_steps, *args, **kw):
    """`monte_carlo` split into ``segments`` segments, and the steps at which
    the caller started a stream past its first segment: each later segment's
    re-run, then its guessed prefix's replay if it met the child's path."""
    started = []
    stream = markov._stream

    def spy(seed, step):
        started.append(step)
        return stream(seed, step)

    with monkeypatch.context() as m:
        m.setattr(markov, "SEGMENT_STEPS", 1_000)
        m.setattr(markov, "_usable_cpus", lambda: segments)
        m.setattr(markov, "_stream", spy)
        result = run_in_blocks(monkeypatch, block_steps, *args, **kw)
    assert started[0] == 0
    return result, started[1:]


# (z, mu, initial, steps, burn_in, BLOCK_STEPS, trajectory_samples, seed, meets).
# Burn-in crosses a segment boundary; the stride 4285 divides no segment nor
# block; no trajectory; without mutation, from one cooperator among outsiders,
# each path is absorbed in a corner and the guessed one never meets the true
# one, so every segment runs in full in the caller.
SEGMENT_CASES = [
    (20, 0.05, None, 40_000, 25_000, 333, 512, 1, True),
    (30, 0.05, (0, 30), 30_000, 100, 333, 7, 2, True),
    (12, 0.05, (12, 0), 30_000, 0, None, 0, 3, True),
    (12, 0.0, (1, 0), 12_000, 0, 333, 512, 5, False),
]


@pytest.mark.parametrize("segments", [2, 3])
@pytest.mark.parametrize("z, mu, initial, steps, burn_in, block_steps, samples, seed, meets",
                         SEGMENT_CASES)
def test_segments_give_the_one_segment_run(
        monkeypatch, segments, z, mu, initial, steps, burn_in, block_steps, samples, seed, meets):
    """Segments spliced in once they meet the true path, or run in full where they never
    do, give the one-segment run and the per-step `oracles._simulate_block` bit for bit."""
    kw = dict(steps=steps, seed=seed, burn_in=burn_in, initial=initial, trajectory_samples=samples)
    p = params(z, mu=mu)
    split, started = run_in_segments(monkeypatch, segments, block_steps, p, **kw)
    one = run_in_blocks(monkeypatch, block_steps, p, **kw)
    with monkeypatch.context() as m:
        m.setattr(markov, "_simulate_steps", _simulate_block)
        ref = run_in_blocks(monkeypatch, block_steps, p, **kw)
    starts = [steps * j // segments for j in range(1, segments)]
    assert started == [start for start in starts for _ in range(1 + meets)]
    for other in (one, ref):
        assert np.array_equal(split.occupancy, other.occupancy)
        assert np.array_equal(split.trajectory, other.trajectory)
    assert no_child_processes()


class SegmentFailed(RuntimeError):
    pass


class Unpicklable(RuntimeError):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # a lambda cannot be pickled


class NeedsTwo(RuntimeError):
    def __init__(self, what, where):  # pickles, but cannot be rebuilt from its one message
        super().__init__(f"{what} {where}")


def in_a_child(monkeypatch, action):
    """Make a simulator segment run ``action()`` as it starts, in a child process only."""
    caller, stream = os.getpid(), markov._stream

    def spy(seed, step):
        if os.getpid() != caller:
            action()
        return stream(seed, step)
    monkeypatch.setattr(markov, "_stream", spy)


def test_a_worker_error_reaches_the_caller_with_its_type(monkeypatch):
    def fail():
        raise SegmentFailed("raised in a child")
    in_a_child(monkeypatch, fail)
    with pytest.raises(SegmentFailed, match="raised in a child"):
        run_in_segments(monkeypatch, 2, None, params(), steps=4_000, seed=1)
    assert no_child_processes()


@pytest.mark.parametrize("error, text", [
    (Unpicklable("holds a lambda"), "Unpicklable: holds a lambda"),
    (NeedsTwo("two", "parts"), "NeedsTwo: two parts"),
])
def test_an_error_that_cannot_be_pickled_arrives_as_a_worker_error(monkeypatch, error, text):
    def fail():
        raise error
    in_a_child(monkeypatch, fail)
    with pytest.raises(WorkerError, match=text):
        run_in_segments(monkeypatch, 2, None, params(), steps=4_000, seed=1)
    assert no_child_processes()


def test_a_killed_segment_raises_a_worker_error(monkeypatch):
    in_a_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(WorkerError, match=f"killed by signal {int(signal.SIGKILL)} "):
        run_in_segments(monkeypatch, 3, None, params(), steps=6_000, seed=1)
    assert no_child_processes()


def test_a_fork_that_fails_raises_a_worker_error_and_closes_its_pipe(monkeypatch):
    pipes, pipe = [], os.pipe

    def spy():
        pipes.append(pipe())
        return pipes[-1]

    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "pipe", spy)
    monkeypatch.setattr(os, "fork", refuse)
    with pytest.raises(WorkerError, match="cannot fork a child process"):
        run_in_segments(monkeypatch, 2, None, params(), steps=4_000, seed=1)
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_children_send_more_than_a_pipe_holds_and_none_outlives_the_block():
    """The caller reads each pipe to its end before it reaps the child; a result of
    8 MB would otherwise leave its child blocked on a full pipe.  A child not
    collected when the block ends is killed, not waited for."""
    with markov._children() as fork:
        waits = [fork(np.arange, n) for n in (10**6, 3)]
        assert [wait().sum() for wait in waits] == [10**6 * (10**6 - 1) // 2, 3]
    start = time.perf_counter()
    with markov._children() as fork:
        fork(time.sleep, 60)
    assert time.perf_counter() - start < 10
    assert no_child_processes()


def test_occupancy_is_a_distribution():
    res = monte_carlo(params(), steps=10_000, seed=1, burn_in=2_500)
    assert res.occupancy.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.occupancy >= 0.0)
    assert res.steps == 10_000 and res.burn_in == 2_500


def test_trajectory_stride_and_contents():
    res = monte_carlo(
        params(), steps=1_000, seed=2, trajectory_samples=10
    )
    assert res.trajectory.shape == (10, 3)
    np.testing.assert_array_equal(res.trajectory[:, 0], np.arange(99, 1_000, 100))
    i_c, i_d = res.trajectory[:, 1], res.trajectory[:, 2]
    assert np.all(i_c >= 0) and np.all(i_d >= 0) and np.all(i_c + i_d <= 12)


def test_trajectory_can_be_disabled():
    res = monte_carlo(params(), steps=500, seed=2, trajectory_samples=0)
    assert res.trajectory.shape == (0, 3)


def test_all_outsider_state_is_absorbing_without_mutation():
    res = monte_carlo(
        params(mu=0.0), steps=5_000, seed=6, initial=(0, 0)
    )
    assert res.occupancy[res.index.index_of(0, 0)] == 1.0


def test_extinct_strategy_stays_extinct_without_mutation():
    """Imitation can only copy strategies that are present."""
    res = monte_carlo(
        params(mu=0.0), steps=20_000, seed=8, initial=(6, 0),
        trajectory_samples=200,
    )
    assert np.all(res.trajectory[:, 2] == 0)


def test_input_validation():
    with pytest.raises(ValueError, match="steps"):
        monte_carlo(params(), steps=0, seed=1)
    with pytest.raises(ValueError, match="burn_in"):
        monte_carlo(params(), steps=10, seed=1, burn_in=10)
    with pytest.raises(ValueError, match="simplex"):
        monte_carlo(params(), steps=10, seed=1, initial=(10, 10))
    with pytest.raises(ValueError, match="integer"):
        monte_carlo(params(), steps=10, seed=1, initial=(1.5, 2))
    with pytest.raises(ValueError, match="trajectory_samples"):
        monte_carlo(params(), steps=10, seed=1, trajectory_samples=-5)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2003001 states"):  # over MAX_STATES
            monte_carlo(params(z=2000), steps=10, seed=1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20  # raised before the states were allocated
    finally:
        tracemalloc.stop()
