"""One worker thread beside the calling thread, for the computation of a
training step that is off its critical path.

It is not the only thread a run starts: ``trainer._train`` writes each
periodic checkpoint on a writer thread of its own while the next step
computes. The saves do not come here, because the next step's forward
hands its ``halves`` to this worker, and they would queue behind a write
of 20-25 ms.

A caller opens ``joined(size)`` and hands calls to the ``Jobs`` it yields;
the worker runs them in the order they were handed over, and the block does
not exit before every one of them has run. The thread is started by the
first call handed over in the process, so a program whose work all stays
under the size rule starts none, and it then waits for more work for the
life of the process. Several threads may hand calls over at once: each
``Jobs`` waits for its own calls and sees only their errors. A call runs in
a copy of the context it was handed over in, so numpy's error state
(``np.errstate``) is the caller's.

The size rule, applied in this module alone: ``joined(size)`` yields a
fresh ``Jobs`` if ``size``, the elements of the work a caller would hand
over, is at least ``MIN_SIZE``, and otherwise ``SERIAL``, the one shared
serial ``Jobs``, whose ``submit`` runs the call at once on the calling
thread and whose ``wait`` and ``join`` do nothing. A caller runs the same
code either way and does not ask which it got; ``Jobs.threaded`` tells them
apart for the one caller whose one-thread path differs
(``model._stack_fwd``).

``Jobs.halves(n, fn)`` is the one way work is split: it runs ``fn(lo, hi)``
over [0, n), the calling thread the larger half [0, n - n // 2) while the
worker runs [n - n // 2, n), then joins. ``SERIAL``, or n < 2, makes it the
one call ``fn(0, n)``. Each caller asks ``joined`` once per call:

- ``model.loss_and_grads`` and ``model.forward`` ask with the elements of
  the model's smallest weight matrix, ``d_model * min(d_model, d_ff,
  vocab_size)``. With the worker, the backward pass hands over every
  weight-gradient product and embedding scatter, and the forward pass, the
  output layer and the cross-entropy run as ``halves`` of the batch's
  sequences, if each half has ``model.MIN_HALF_ROWS`` token rows.
- ``model.init_params`` asks the same question as ``forward``, with the
  model's smallest weight matrix. With the worker, the initial weights'
  blocks of normal draws run as ``halves``; the bits are those of one
  thread.
- ``trainer.optimizer_step`` asks with the elements the worker's half of
  its slices would update, and runs the slices as ``halves``.

Every weight matrix of the d=256 model has 65536 elements or more, and
2.3M of its 4.7M parameters are the worker's half of an Adam step, so its
initial draws and its steps run on two threads. The d=64 model's matrices
have 4096 to 16384 elements and the worker's half of its Adam step 50176,
so they run on one. A model whose matrices straddle ``MIN_SIZE``, such as
d=128 with d_ff=512 (16384-element attention matrices, 65536-element
feed-forward ones), runs ``init_params``, ``loss_and_grads`` and
``forward`` wholly on the calling thread; only its Adam step may split.

The forward pass and the cross-entropy wait for the worker's half of each
sublayer (``Jobs.halves`` joins) before the next, so nothing of theirs
stays queued; a ``wait`` with no call handed over since the last one sends
the worker nothing, so the block's exit after a ``halves`` costs no second
round trip. The backward pass hands over its calls and does not wait until
``model.loss_and_grads`` returns, so a worker that falls behind holds the
arrays of its queued calls a while longer: the backward frees each
sublayer's cache as it leaves it, but a queued call still holds what it
reads, and a call that rebuilds an operand (``model._op_weight_grads``,
``model._context_weight_grad``) holds what it rebuilds it from: the
sublayer norm's input and reciprocal RMS, attention's probabilities and
values. That backlog is bounded by one step, since ``loss_and_grads`` joins
before it returns: with every backward call held back until that join, a
d=256 step (8 sequences of 65 input and 22 target tokens) peaked at 36.9 MiB
of traced memory, against 21.2 MiB when the calls ran at once on one
thread, so at most 15.7 MiB.

Handing a call over costs a queue operation and a hand-off of the
interpreter lock; numpy releases the lock inside BLAS and its large loops,
so the two threads overlap there. On small arrays the hand-offs cost about
what the overlap saves: with every gradient of the d=64 model handed over,
its fine-tuning ran no faster (45.4k against 46.4k tokens/s, median of five
runs each), and an Adam step over its 181k elements took 0.74 ms split
against 0.60-0.70 ms on one thread. Hence ``MIN_SIZE``.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from contextlib import contextmanager

MIN_SIZE = 65536  # elements of work below which it stays on the calling thread

_lock = threading.Lock()
_thread: threading.Thread | None = None
_tasks: queue.SimpleQueue | None = None


def _run(tasks: queue.SimpleQueue) -> None:
    while True:
        jobs, context, fn, args = tasks.get()
        if jobs is None:  # a join's marker
            fn()
        elif jobs.error is None:  # after a failure the owner's later calls are skipped
            try:
                context.run(fn, *args)
            except BaseException as e:  # raised again by the owner's joined()
                jobs.error = e


def _queue() -> queue.SimpleQueue:
    """The worker's task queue. Starts the worker if none runs: none has
    been started yet, or the process is a fork child, which has no thread
    of its parent but the forking one."""
    global _thread, _tasks
    with _lock:
        if _thread is None or not _thread.is_alive():
            _tasks = queue.SimpleQueue()
            _thread = threading.Thread(target=_run, args=(_tasks,), name="t2tbio-worker", daemon=True)
            _thread.start()
        return _tasks


class Jobs:
    """The calls one caller hands to the worker. Once one raises, the rest
    are skipped, and ``error`` holds what it raised."""

    threaded = True  # False for SERIAL

    def __init__(self):
        self.error: BaseException | None = None
        self._tasks: queue.SimpleQueue | None = None
        self._pending = False  # a call was handed over since the last wait

    def submit(self, fn, *args) -> None:
        """Hand ``fn(*args)`` to the worker, to run after the calls handed over before it."""
        if self._tasks is None:
            self._tasks = _queue()
        self._tasks.put((self, contextvars.copy_context(), fn, args))
        self._pending = True

    def wait(self) -> None:
        """Return once every call handed over has run or been skipped. Only
        a call handed over since the last wait costs a round trip."""
        if self._pending:
            self._pending = False
            done = threading.Event()
            self._tasks.put((None, None, done.set, ()))
            done.wait()

    def join(self) -> None:
        """``wait``, then raise the error of a call handed over, if one raised."""
        self.wait()
        if self.error is not None:
            raise self.error

    def halves(self, n: int, fn) -> None:
        """``fn(lo, hi)`` over [0, n): the calling thread runs [0, n - n // 2)
        while the worker runs the rest, then ``join``. Serial, or for n < 2,
        it is one call, ``fn(0, n)``. An error in the calling thread's half
        is raised once the worker's half is done with the caller's arrays."""
        if not self.threaded or n < 2:
            fn(0, n)
            return
        mid = n - n // 2
        self.submit(fn, mid, n)
        try:
            fn(0, mid)
        except BaseException:
            self.wait()
            raise
        self.join()


class _Serial(Jobs):
    """Runs each call at once on the calling thread, so it has nothing to
    wait for."""

    threaded = False

    def submit(self, fn, *args) -> None:
        fn(*args)


SERIAL = _Serial()  # what ``joined`` yields under the size rule


@contextmanager
def joined(size: int = 0):
    """A ``Jobs`` for the block, waited for when the block exits: a fresh one
    if work of ``size`` elements (none by default) goes to the worker by the
    size rule above, else ``SERIAL``. An error raised in the block
    propagates as it is; otherwise the error of a call handed over, if one
    raised, is raised in the calling thread."""
    if size < MIN_SIZE:
        yield SERIAL
        return
    jobs = Jobs()
    try:
        yield jobs
    except BaseException:
        jobs.wait()  # the calls may still write the caller's arrays
        raise
    jobs.join()
