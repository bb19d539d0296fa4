"""Spawned worker processes, addressed by index, one duplex pipe each.

Both process pools of this package — the sweep executor
(:func:`repro.parallel.engine.run_parallel`) and the checker's
:class:`~repro.parallel.frontier.FrontierPool` — start, address, bury
and stop their workers through :class:`Workers`.  A worker runs
``target(conn, *args)`` in a fresh ``spawn`` process (the only start
method that is safe on every platform) and serves messages from
``conn`` until it reads ``None`` or EOF.  A worker that dies shows up
as EOF on its pipe; :meth:`Workers.exit_status` then names it.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, List, Sequence, Tuple

#: Seconds :meth:`Workers.close` waits for workers to exit after the
#: stop message before terminating them.
STOP_GRACE_S = 1.0


def spawn(target: Callable, args: Sequence[Any], name: str) -> Tuple:
    """Start ``target(conn, *args)`` in a fresh spawned process.

    Returns ``(process, conn)``, ``conn`` being the parent's end of the
    worker's duplex pipe.
    """
    ctx = multiprocessing.get_context("spawn")
    parent_end, child_end = ctx.Pipe()
    proc = ctx.Process(target=target, args=(child_end, *args), name=name,
                       daemon=True)
    proc.start()
    child_end.close()
    return proc, parent_end


class Workers:
    """``n`` spawned workers named ``<name>-<index>``."""

    def __init__(self, target: Callable, args: Sequence[Any], n: int,
                 name: str) -> None:
        self._target = target
        self._args = tuple(args)
        self._name = name
        self.procs: List[Any] = []
        self.conns: List[Any] = []
        try:
            for i in range(n):
                proc, conn = spawn(target, self._args, f"{name}-{i}")
                self.procs.append(proc)
                self.conns.append(conn)
        except BaseException:
            self.close()
            raise

    def kill(self, i: int) -> None:
        """Kill worker ``i`` (if still alive) and close its pipe."""
        proc = self.procs[i]
        if proc.is_alive():
            proc.kill()
        proc.join()
        self.conns[i].close()

    def restart(self, i: int) -> None:
        """Kill worker ``i`` and start a fresh one in its place."""
        self.kill(i)
        self.procs[i], self.conns[i] = spawn(self._target, self._args,
                                             f"{self._name}-{i}")

    def exit_status(self, i: int) -> Tuple[int, Any]:
        """``(pid, exit code)`` of worker ``i``, whose pipe hit EOF."""
        proc = self.procs[i]
        proc.join(STOP_GRACE_S)
        return proc.pid, proc.exitcode

    def close(self) -> None:
        """Stop and join every worker; terminate any that linger."""
        for conn in self.conns:
            try:
                conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + STOP_GRACE_S
        for proc in self.procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in self.conns:
            conn.close()
        self.procs = []
        self.conns = []
