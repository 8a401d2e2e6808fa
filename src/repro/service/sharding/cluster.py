"""Launching a process-backed shard cluster on the local host.

:func:`ShardCluster.launch` is what ``repro serve --shards N`` runs: it
pre-builds the ``.rdb`` database store **once** (so N shards race zero
BFS builds and the memory-mapped table is shared physical pages across
all of them), spawns N ``repro serve`` subprocesses on ephemeral ports,
registers them with a :class:`ShardSupervisor`, and wraps the result in
a :class:`ShardRouter` ready to hand to ``TCPDaemon``/``serve_stdio``.

The cluster also provides the router's *spawner*, which is what makes
the ``shard_join`` op (and crash restarts) work: a fresh shard is just
another ``repro serve --port 0`` child pointed at the same cache
directory.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from pathlib import Path

import repro
from repro.engines import create_engine
from repro.errors import ServiceError
from repro.service.sharding.config import ShardingConfig
from repro.service.sharding.router import ShardRouter
from repro.service.sharding.shard import ProcessShard
from repro.service.sharding.supervisor import ShardSupervisor


def shard_environment(cache_dir=None) -> "dict[str, str]":
    """Environment for a shard subprocess.

    Prepends this package's source root to ``PYTHONPATH`` (so the child
    resolves the same ``repro`` regardless of how the parent was
    launched) and pins ``REPRO_CACHE_DIR`` so every shard maps the same
    pre-built store.
    """
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else os.pathsep.join([src_root, existing])
    )
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def shard_command(
    *,
    host: str = "127.0.0.1",
    n_wires: int = 4,
    k: int = 6,
    max_list_size: "int | None" = None,
) -> "list[str]":
    """The ``repro serve`` invocation for one shard.

    ``--port 0`` gives every (re)start a fresh ephemeral port --
    :class:`ProcessShard` reads the bound address off the ready line.
    """
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        host,
        "--port",
        "0",
        "--wires",
        str(n_wires),
        "-k",
        str(k),
    ]
    if max_list_size is not None:
        command.extend(["--lists", str(max_list_size)])
    return command


class ShardCluster:
    """A router plus the N local shard processes it fronts."""

    def __init__(
        self, router: ShardRouter, supervisor: ShardSupervisor
    ) -> None:
        self.router = router
        self.supervisor = supervisor

    @classmethod
    def launch(
        cls,
        shard_count: int,
        *,
        host: str = "127.0.0.1",
        n_wires: int = 4,
        k: int = 6,
        max_list_size: "int | None" = None,
        cache_dir=None,
        config: "ShardingConfig | None" = None,
        faults=None,
        ready_timeout: float = 300.0,
    ) -> "ShardCluster":
        """Build the store, spawn the shards, return a ready cluster."""
        if shard_count < 1:
            raise ServiceError("a cluster needs at least one shard")
        # One BFS build in this process; the children find the .rdb in
        # the cache and just map it.
        create_engine(
            "optimal",
            n_wires=n_wires,
            k=k,
            max_list_size=max_list_size,
            cache_dir=cache_dir,
        ).prepare()
        command = shard_command(
            host=host,
            n_wires=n_wires,
            k=k,
            max_list_size=max_list_size,
        )
        env = shard_environment(cache_dir)

        def spawn(shard_id: str) -> ProcessShard:
            return ProcessShard(
                shard_id, command, env=env, ready_timeout=ready_timeout
            ).start()

        supervisor = ShardSupervisor(config=config)
        backends: "list[ProcessShard | None]" = []
        executor = ThreadPoolExecutor(
            max_workers=shard_count, thread_name_prefix="repro-shard-spawn"
        )
        try:
            futures = [
                executor.submit(spawn, f"shard-{index}")
                for index in range(shard_count)
            ]
            errors = []
            for future in futures:
                try:
                    backends.append(future.result(timeout=ready_timeout * 2))
                except (ServiceError, _FutureTimeout) as exc:
                    errors.append(exc)
                    backends.append(None)
        finally:
            executor.shutdown(wait=False)
        live = [backend for backend in backends if backend is not None]
        if not live:
            raise ServiceError(
                f"no shard came up (first error: {errors[0]})"
                if errors
                else "no shard came up"
            )
        for backend in live:
            supervisor.add(backend)
        router = ShardRouter(
            supervisor,
            n_wires=n_wires,
            config=config,
            faults=faults,
            spawner=spawn,
        )
        return cls(router, supervisor)

    def close(self) -> None:
        self.router.shutdown()

    def __enter__(self) -> "ShardCluster":
        self.router.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "ShardCluster",
    "shard_command",
    "shard_environment",
]
