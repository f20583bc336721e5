"""Two threads, by one start/join/re-raise path (cyclic._share_out).

From cyclic._THREAD_FLOOR values on, the transform, the chirps, the real
convolution of the exact counts and the closed-form kernel spectrum share
their work out in chunks (cyclic._in_two). Where P//2 + 1 is below the
floor, delta_sweep also shares its grid points' records out: the caller
takes every point whose B kernel_spectrum would transform (B = {0} among
them, whose record forms no sigmahat), one thread the closed-form points,
so at most one transform is in flight; that transform still splits itself
if its own length reaches the floor. Every bit must be the same as on one
thread, every thread must be joined, and an error in either thread must
reach the caller as it was raised."""

import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from ap3lab import cyclic, pipeline
from ap3lab import bohr as bohr_module
from ap3lab.bohr import BohrSet, _progression_spectrum, kernel_spectrum, smooth
from ap3lab.cli import main
from ap3lab.cyclic import CyclicFunction, forward_transform
from ap3lab.pipeline import PipelineConfig, delta_sweep
from ap3lab.threeap import additive_counts

# primes with P and P//2 + 1 past the 2^20 floor
P_ABOVE = 2097169
# the least 5-smooth length past the floor, whose rows end in a short block
S_ABOVE = 1049760


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def _no_thread(self):
    raise RuntimeError("can't start new thread")


def _refused(self):
    raise AssertionError("a thread was started")


def _three_ways(monkeypatch, compute):
    """compute() with two threads; with every chunk on the caller, in
    order, as when no thread can be started; and in one piece (the floor
    raised past every size). The first run is checked to start a thread."""
    with monkeypatch.context() as patch:
        patch.setattr(threading, "Thread", _CountedThread)
        _CountedThread.started = 0
        threaded = compute()
        assert _CountedThread.started > 0
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", _no_thread)
        chunks = compute()
    with monkeypatch.context() as patch:
        patch.setattr(cyclic, "_THREAD_FLOOR", 1 << 62)
        whole = compute()
    return threaded, chunks, whole


def _assert_same_bits(results):
    threaded, chunks, whole = results
    assert np.array_equal(threaded, chunks) and np.array_equal(threaded, whole)


@pytest.mark.parametrize("inverse", [False, True])
def test_row_column_fft_is_the_same_on_two_threads(monkeypatch, inverse):
    rng = np.random.default_rng(16)
    data = rng.standard_normal(S_ABOVE) + 1j * rng.standard_normal(S_ABOVE)
    columns = cyclic._fft_columns(S_ABOVE)
    assert (S_ABOVE // columns) % cyclic._TWIDDLE_ROWS != 0  # a short last block

    def compute():
        out = data.copy()
        cyclic._row_column_fft(out, columns, inverse=inverse)
        return out

    _assert_same_bits(_three_ways(monkeypatch, compute))


def test_chirp_is_the_same_on_two_threads(monkeypatch):
    start, stop = -12345, P_ABOVE // 2 + 1

    def compute():
        out = np.empty(stop - start, dtype=np.complex128)
        cyclic._chirp(start, stop, P_ABOVE, out)
        return out

    _assert_same_bits(_three_ways(monkeypatch, compute))


def test_progression_spectrum_is_the_same_on_two_threads(monkeypatch):
    _assert_same_bits(_three_ways(monkeypatch, lambda: _progression_spectrum(P_ABOVE, 15, 5005)))


@pytest.mark.parametrize("cross", [False, True])
def test_real_convolution_is_the_same_on_two_threads(monkeypatch, cross):
    rng = np.random.default_rng(18)
    x = rng.standard_normal(2 * S_ABOVE)
    y = rng.standard_normal(2 * S_ABOVE)
    rows = S_ABOVE // cyclic._fft_columns(S_ABOVE)
    assert ((rows - 1) // 2) % cyclic._TWIDDLE_ROWS != 0  # a short last block of pairs

    def compute():
        return cyclic._real_convolution(x.copy(), y.copy() if cross else None)

    _assert_same_bits(_three_ways(monkeypatch, compute))


def test_exact_counts_are_the_same_on_two_threads(monkeypatch):
    # r has past 2^20 values, so the rounding and energy passes share
    # their blocks out too, each thread appending its blocks' sums; with
    # the switch interval shortened, a lost sum would break the check
    # that the counts total |A|^2, or the energy
    rng = np.random.default_rng(19)
    members = np.flatnonzero(rng.random(P_ABOVE // 3) < 0.2)
    assert 2 * int(members[-1]) + 1 >= cyclic._THREAD_FLOOR

    def compute():
        counts = additive_counts(members, P_ABOVE)
        return counts.pairs, counts.energy, counts.rounding_error

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_same_bits(_three_ways(monkeypatch, compute))
    finally:
        sys.setswitchinterval(interval)


def _spread_smoothing():
    """(S, B, g) at a P past the floor: S random points of [1, P/3], a
    15-member B spread over Z/PZ, and the count g that smooth must form."""
    rng = np.random.default_rng(17)
    support = np.unique(rng.integers(1, P_ABOVE // 3, size=P_ABOVE // 20))
    indicator = np.zeros(P_ABOVE, dtype=np.int64)
    indicator[support] = 1
    js = np.arange(-7, 8, dtype=np.int64)
    bohr = BohrSet(P_ABOVE, (1,), Fraction(1, 2), np.sort(js * 99991 % P_ABOVE))
    counts = sum(np.roll(indicator, b) for b in bohr.members().tolist())
    return support, bohr, counts


def test_shifted_count_starts_no_thread_above_the_floor(monkeypatch):
    support, bohr, counts = _spread_smoothing()
    assert bohr.size <= bohr_module._SHIFT_COUNT_MAX_SIZE
    monkeypatch.setattr(threading.Thread, "start", _refused)
    assert np.array_equal(smooth(support, bohr), counts)


def test_convolved_count_is_the_same_on_two_threads(monkeypatch):
    # B's window spreads over Z/PZ, so the convolution has past 2^20
    # complex values and shares its passes out
    support, bohr, counts = _spread_smoothing()
    monkeypatch.setattr(bohr_module, "_SHIFT_COUNT_MAX_SIZE", 1)
    results = _three_ways(monkeypatch, lambda: smooth(support, bohr))
    _assert_same_bits(results)
    assert np.array_equal(results[0], counts)


def test_no_thread_is_started_below_the_floor(monkeypatch):
    # P = 500009 is the N = 1e6 modulus; every stage there stays on one thread
    def refused(*args, **kwargs):
        raise AssertionError("a thread was started below the floor")

    p = 500009
    values = np.zeros(p)
    values[1 : p // 3 : 7] = 1.0
    monkeypatch.setattr(threading, "Thread", refused)
    forward_transform(CyclicFunction(p, values))
    js = np.arange(-7, 8, dtype=np.int64)
    kernel_spectrum(BohrSet(p, (1,), Fraction(1, 2), np.sort(js * 1001 % p)))
    additive_counts(np.flatnonzero(values), p)


class _Failure(Exception):
    pass


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_an_error_in_either_thread_reaches_the_caller_unchanged(failing):
    before = threading.active_count()
    both_hold_a_chunk = threading.Barrier(2, timeout=30)
    began, raised, done = set(), [], []

    def work(lo, hi):
        thread = threading.current_thread()
        if thread not in began:
            began.add(thread)
            both_hold_a_chunk.wait()
        if (thread is threading.main_thread()) == (failing == "caller"):
            raised.append(_Failure(failing))
            raise raised[-1]
        time.sleep(0.01)  # the failed thread empties the queue meanwhile
        done.append(lo)

    with pytest.raises(_Failure) as caught:
        cyclic._in_two(work, 1 << 21, 1, 1 << 21)
    assert caught.value is raised[0] and len(raised) == 1
    # the other thread started no chunk after the failure but the one it held
    assert len(done) <= 2 < cyclic._THREAD_CHUNKS
    assert threading.active_count() == before


def test_memory_error_in_the_worker_thread_of_a_pipeline_exits_3(tmp_path, capsys, monkeypatch):
    real = cyclic._in_two
    before = threading.active_count()

    def failing_worker(work, stop, step, values):
        began = threading.Event()

        def work_or_fail(lo, hi):
            if threading.current_thread() is not threading.main_thread():
                began.set()
                raise MemoryError("Unable to allocate 38.1 MiB for an array")
            if threading.active_count() > before:  # a worker runs beside this call
                began.wait(timeout=30)
            work(lo, hi)

        real(work_or_fail, stop, step, values)

    monkeypatch.setattr(cyclic, "_THREAD_FLOOR", 0)  # N = 1e4 then reaches the threads
    monkeypatch.setattr(cyclic, "_in_two", failing_worker)
    code = main(["pipeline", "--n", "10000", "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: out of memory: Unable to allocate 38.1 MiB for an array\n"
    assert threading.active_count() == before


# At N = 1e5 (P = 150001) this grid holds four points with B = {0}, six
# progressions and two sets (eps = 0.4, |B| = 629 and 4801) whose sigmahat
# is a forward transform.
SWEEP_ARGS = ["delta-sweep", "--n", "100000", "--delta-grid", "0.05,0.1,0.15",
              "--eps-grid", "0.1,0.2,0.3,0.4"]


def _shared_out(*args, **kwargs):
    raise AssertionError("the points were shared out")


def _sweep_bytes(tmp_path, name):
    out = tmp_path / name
    assert main([*SWEEP_ARGS, "--out", str(out)]) == 0
    return out.read_bytes()


def test_sweep_csv_is_the_same_on_two_threads(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(threading, "Thread", _CountedThread)
        _CountedThread.started = 0
        threaded = _sweep_bytes(tmp_path, "threaded.csv")
        assert _CountedThread.started == 1
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", _no_thread)
        refused = _sweep_bytes(tmp_path, "refused.csv")
    with monkeypatch.context() as patch:
        patch.setattr(cyclic, "_THREAD_FLOOR", 0)  # every stage splits itself
        patch.setattr(pipeline, "_share_out", _shared_out)  # so the points run in turn
        in_turn = _sweep_bytes(tmp_path, "in_turn.csv")
    assert threaded == refused == in_turn


def test_sweep_at_n_1e6_starts_one_thread_and_no_stage_starts_one(monkeypatch):
    # P = 500009: the records share two threads, and every stage stays on one
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    _CountedThread.started = 0
    config = PipelineConfig(n=10**6, delta_grid=("0.02", "0.05", "0.1"),
                            epsilon_grid=("0.1", "0.2", "0.3", "0.4"))
    delta_sweep(config)
    assert _CountedThread.started == 1
    _CountedThread.started = 0
    delta_sweep(PipelineConfig(n=10**6))  # one point runs on the caller
    assert _CountedThread.started == 0


def test_sweep_holds_at_most_one_forward_transform_in_flight(tmp_path, monkeypatch):
    real = cyclic.forward_transform
    lock = threading.Lock()
    in_flight, most, calls = [0], [0], []

    def counted(f):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
            calls.append(threading.current_thread() is threading.main_thread())
        try:
            time.sleep(0.02)  # widen the window a second transform could open
            return real(f)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(cyclic, "forward_transform", counted)
    _sweep_bytes(tmp_path, "sweep.csv")
    assert calls == [True] * 3  # a, and the two sets that are not progressions
    assert most[0] == 1


def _fail_on_the_worker(monkeypatch, error):
    """Patch _point_record so that the worker's first point raises error,
    while the caller's first point waits for the worker to have failed and
    ended. Returns the list of points started, as (thread is main, delta, eps)."""
    real = pipeline._point_record
    failed = threading.Event()
    worker = []
    started = []

    def record(config, delta, epsilon, *args):
        on_caller = threading.current_thread() is threading.main_thread()
        started.append((on_caller, delta, epsilon))
        if not on_caller:
            worker.append(threading.current_thread())
            failed.set()
            raise error
        if failed.wait(timeout=30):
            worker[0].join(timeout=30)
            assert not worker[0].is_alive()
        return real(config, delta, epsilon, *args)

    monkeypatch.setattr(pipeline, "_point_record", record)
    return started


def test_an_error_on_the_sweep_worker_reaches_the_caller_unchanged(monkeypatch):
    before = threading.active_count()
    error = _Failure("worker")
    started = _fail_on_the_worker(monkeypatch, error)
    config = PipelineConfig(n=10**5, delta_grid=("0.05", "0.1", "0.15"),
                            epsilon_grid=("0.1", "0.2", "0.3", "0.4"))
    with pytest.raises(_Failure) as caught:
        delta_sweep(config)
    assert caught.value is error
    # the worker failed on its first point, the least progression; the
    # caller had at most begun its first point (B = {0}), finished it, and
    # started no point after
    assert [s for s in started if not s[0]] == [(False, "0.1", "0.1")]
    assert [s for s in started if s[0]] in ([], [(True, "0.05", "0.1")])
    assert threading.active_count() == before


def test_memory_error_on_the_sweep_worker_exits_3(tmp_path, capsys, monkeypatch):
    before = threading.active_count()
    _fail_on_the_worker(monkeypatch, MemoryError("Unable to allocate 1.1 MiB for an array"))
    code = main([*SWEEP_ARGS, "--out", str(tmp_path / "sweep.csv")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: out of memory: Unable to allocate 1.1 MiB for an array\n"
    assert threading.active_count() == before
