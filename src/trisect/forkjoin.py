"""A fork-join for ``crossval --jobs N``: forked workers that inherit the inputs.

Only ``cmd_crossval`` imports this module, and only for more than one job,
so no other command compiles it.
"""

import os
import pickle
import select
import signal

# bytes of one item number on the task pipe
TOKEN_BYTES = 4
# a write of at most this many bytes to a pipe is atomic on every POSIX
# system, so the task pipe only ever holds whole item numbers
ATOMIC_WRITE = 512


def _serve(fn, inputs, tasks: int, results: int) -> None:
    """Call ``fn(inputs, item)`` on each item number read from ``tasks`` until
    the pipe is empty or a call raises, then write the pickled pair
    ``(done, failure)`` to ``results``: ``done`` lists ``(item, result)``,
    ``failure`` is ``(item, exception)`` or None."""
    done, failure = [], None
    while token := os.read(tasks, TOKEN_BYTES):
        item = int.from_bytes(token, "little")
        try:
            done.append((item, fn(inputs, item)))
        except Exception as exc:
            failure = (item, exc)
            break
    with os.fdopen(results, "wb") as fh:
        pickle.dump((done, failure), fh)


def fork_map(fn, inputs, items, workers: int) -> list:
    """``[fn(inputs, item) for item in items]``, computed by ``workers`` forked
    processes that inherit ``inputs``; ``items`` are increasing integers in
    [0, 2**32).

    A free worker takes the next item from one pipe they all share, and sends
    its results back, pickled, once that pipe is empty. If calls raised, the
    exception of the first such item in ``items`` is raised here. A worker
    that ends without sending its results is a RuntimeError naming it. On any
    error, every worker still running is killed and reaped.
    """
    tasks_r, tasks_w = os.pipe()
    running = {}  # read end of a worker's result pipe -> (worker number, pid)
    try:
        for number in range(1, workers + 1):
            results_r, results_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker keeps only its ends of the task and result pipes
                code = 1
                try:
                    for fd in (tasks_w, results_r, *running):
                        os.close(fd)
                    _serve(fn, inputs, tasks_r, results_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(results_w)
            running[results_r] = (number, pid)
        os.close(tasks_r)
        tasks_r = None
        queue = b"".join(item.to_bytes(TOKEN_BYTES, "little") for item in items)
        try:
            for start in range(0, len(queue), ATOMIC_WRITE):
                os.write(tasks_w, queue[start:start + ATOMIC_WRITE])
        except BrokenPipeError:  # every worker has ended; collecting says how
            pass
        os.close(tasks_w)
        tasks_w = None

        received = {fd: [] for fd in running}
        poller = select.poll()
        for fd in running:
            poller.register(fd, select.POLLIN)
        while running:
            for fd, _ in poller.poll():
                if chunk := os.read(fd, 1 << 16):
                    received[fd].append(chunk)
                    continue
                poller.unregister(fd)
                os.close(fd)
                number, pid = running.pop(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0:
                    how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
                    raise RuntimeError(f"crossval worker {number} of {workers} (pid {pid}) {how} "
                                       f"before it sent its results")
    finally:
        for fd in (tasks_r, tasks_w):
            if fd is not None:
                os.close(fd)
        for fd, (_, pid) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)

    results, failures = {}, []
    for chunks in received.values():
        done, failure = pickle.loads(b"".join(chunks))
        results.update(done)
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [results[item] for item in items]
