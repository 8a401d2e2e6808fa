"""Command-line interface: ``repro <subcommand>`` (or ``python -m repro``).

Subcommands:

* ``synth SPEC``      -- synthesize a circuit (``--engine`` picks which).
* ``compile SPEC``    -- compile a Boolean function form (truth table with
                         don't-cares, multi-output, affine/XOR, LUT).
* ``engines``         -- list the synthesis engines and what they promise.
* ``build-db``        -- build the BFS database and write its ``.rdb`` store.
* ``db``              -- inspect on-disk stores: info/verify/list.
* ``serve``           -- run the long-lived synthesis daemon (TCP/stdio).
* ``query``           -- query a running daemon.
* ``health``          -- a running daemon's resilience status.
* ``linear``          -- Table 5: all 4-bit linear reversible functions.
* ``random N``        -- size distribution of N random permutations.
* ``benchmarks``      -- synthesize the Table 6 benchmark suite.
* ``bench``           -- run a pinned perf suite / diff BENCH_*.json records.
* ``trace``           -- one-shot synthesis with span tracing enabled.
* ``check``           -- run the domain-aware static-analysis rules.
* ``info``            -- library and database information.

Every synthesis path goes through :mod:`repro.engines`: the CLI names an
engine, the registry builds the adapter, and the adapter owns the
concrete synthesizer.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import __version__
from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceError,
    SizeLimitExceededError,
)


def _add_synth_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--wires", type=int, default=4, help="wire count (default 4)"
    )
    parser.add_argument(
        "-k", type=int, default=6, help="BFS database depth (default 6)"
    )
    parser.add_argument(
        "--lists",
        type=int,
        default=None,
        help="list depth m; reachable size is k+m (default min(k,3))",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="do not read/write the cache"
    )


def _make_synthesizer(args):
    """The optimal engine's underlying synthesizer, for subcommands that
    use its database/search surface directly (build-db, random, ...)."""
    from repro.engines import create_engine

    return create_engine(
        "optimal",
        n_wires=args.wires,
        k=args.k,
        max_list_size=args.lists,
        cache_dir=False if args.no_cache else None,
        verbose=True,
    ).impl


_GUARANTEE_NOTES = {
    ("optimal", "gates"): "provably minimal",
    ("optimal", "depth"): "provably depth-minimal",
    ("heuristic", "gates"): "heuristic upper bound",
}


def cmd_synth(args) -> int:
    from repro.engines import SynthesisRequest, create_engine

    engine = create_engine(
        args.engine,
        n_wires=args.wires,
        k=args.k,
        max_list_size=args.lists,
        cache_dir=False if args.no_cache else None,
        verbose=True,
    )
    request = SynthesisRequest(spec=args.spec, n_wires=args.wires)
    try:
        result = engine.synthesize(request)
    except SizeLimitExceededError as exc:
        print(
            f"size out of reach for engine '{args.engine}' "
            f"(proven lower bound: {exc.lower_bound}); raise -k or --lists"
        )
        return 1
    note = _GUARANTEE_NOTES.get(
        (result.guarantee, result.metric), result.guarantee
    )
    print(f"specification : {result.spec}")
    print(f"engine        : {result.engine}")
    print(f"size          : {result.size} gates ({note})")
    print(f"circuit       : {result.circuit}")
    print(f"depth         : {result.depth}")
    print(f"NCV cost      : {result.cost}")
    print(f"query time    : {result.seconds:.4f}s")
    for key, value in sorted(result.extra.items()):
        print(f"  {key}: {value}")
    circuit = result.circuit_obj
    if circuit is None:
        return 0
    if args.draw:
        print(circuit.draw())
    if args.qasm:
        from repro.io.qasm import write_qasm

        write_qasm(
            circuit,
            args.qasm,
            comment=f"{result.engine} ({result.size} gates) for {result.spec}",
        )
        print(f"QASM written to {args.qasm}")
    if args.real:
        from repro.io.real_format import write_real

        write_real(
            circuit,
            args.real,
            comment=f"{result.engine} ({result.size} gates) for {result.spec}",
        )
        print(f".real written to {args.real}")
    return 0


def _read_compile_source(arg: str) -> str:
    """The spec text for ``repro compile``: inline, ``@file``, or stdin."""
    if arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as handle:
            return handle.read()
    return arg


def _parse_compile_source(text: str):
    """JSON object -> :func:`repro.specs.spec_from_wire`; anything else
    is treated as ``.pla``-style cube text."""
    import json

    from repro.errors import SpecError
    from repro.specs import parse_pla, spec_from_wire

    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return spec_from_wire(payload)
    return parse_pla(text)


def cmd_compile(args) -> int:
    import json

    from repro.engines import create_engine
    from repro.errors import SynthesisError
    from repro.specs import compile_spec

    spec = _parse_compile_source(_read_compile_source(args.spec))
    engine = create_engine(
        args.engine,
        n_wires=args.wires,
        k=args.k,
        max_list_size=args.lists,
        cache_dir=False if args.no_cache else None,
        verbose=not args.json,
    )
    try:
        result = compile_spec(spec, engine, n_wires=args.wires,
                              samples=args.samples)
    except SynthesisError as exc:
        print(
            f"compile failed: {exc}; raise -k or --lists, or try "
            "--engine heuristic",
            file=sys.stderr,
        )
        return 1
    if args.json:
        # The same deterministic body the daemon would send (sans
        # transport fields) -- scripts and the compile-smoke CI job
        # parse this.
        print(json.dumps(result.to_wire(), separators=(",", ":"),
                         sort_keys=True))
        return 0
    plan = result.plan
    note = "provably minimal over all completions" \
        if result.guarantee == "optimal" else "upper bound"
    print(f"spec kind     : {result.spec.kind}")
    print(f"engine        : {result.engine}")
    print(f"size          : {result.size} gates ({note})")
    print(f"circuit       : {result.circuit}")
    print(f"depth         : {result.depth}")
    print(f"NCV cost      : {result.cost}")
    print(f"input wires   : {list(plan.input_wires)}")
    print(f"output wires  : {list(plan.output_wires)}")
    print(f"constant wires: {[list(p) for p in plan.constant_wires]}")
    print(f"garbage wires : {list(plan.garbage_wires)}")
    print(
        f"completions   : {result.completions_tried} tried "
        f"of {plan.partial.n_completions()} "
        f"({'exhaustive' if result.exhaustive else 'sampled'})"
    )
    print(f"permutation   : {result.permutation.spec()}")
    print(f"compile time  : {result.seconds:.4f}s")
    return 0


def cmd_engines(args) -> int:
    from repro.engines import (
        engine_capabilities,
        engine_names,
        engine_summary,
        servable_engine_names,
    )

    print(
        f"{'name':<10} {'guarantee':<10} {'metric':<7} {'spec':<12} "
        f"{'served':<7} {'cancel':<7} reach"
    )
    for name in engine_names():
        caps = engine_capabilities(name)
        print(
            f"{name:<10} {caps.guarantee:<10} {caps.metric:<7} "
            f"{caps.spec_kind:<12} {'yes' if caps.servable else 'no':<7} "
            f"{'yes' if caps.cancellable else 'no':<7} "
            f"{caps.reach}"
        )
        if args.verbose:
            print(f"{'':<10} {engine_summary(name)}")
    print(f"daemon-servable: {', '.join(servable_engine_names())}")
    return 0


def cmd_build_db(args) -> int:
    synth = _make_synthesizer(args)
    synth.prepare(force_rebuild=args.force)
    db = synth.database
    print(f"classes per size : {db.reduced_counts()}")
    print(f"functions per size: {db.function_counts()}")
    stats = db.table.stats()
    for row in stats.format_rows():
        print(row)
    return 0


def cmd_serve(args) -> int:
    from repro.service import ServiceConfig, SynthesisService, TCPDaemon, serve_stdio

    if args.shards:
        return _serve_sharded(args)
    resilience = {}
    if args.hard_timeout is not None:
        resilience["hard_timeout"] = args.hard_timeout
    if args.breaker_threshold is not None:
        resilience["breaker_failure_threshold"] = args.breaker_threshold
    if args.breaker_cooldown is not None:
        resilience["breaker_cooldown"] = args.breaker_cooldown
    config = ServiceConfig(
        n_wires=args.wires,
        k=args.k,
        max_list_size=args.lists,
        result_cache_path=args.result_cache,
        db_cache_dir=False if args.no_cache else None,
        verbose=not args.stdio,
        extra={
            key: value
            for key, value in (
                ("resilience", resilience),
                ("trace", args.trace),
            )
            if value
        },
    )
    service = SynthesisService.from_config(config)
    if args.stdio:
        serve_stdio(service)
        return 0
    daemon = TCPDaemon(service, host=args.host, port=args.port)
    host, port = daemon.address
    print(
        f"repro daemon listening on {host}:{port} "
        f"(n={args.wires}, k={args.k}, L={service.handle.max_size})",
        flush=True,
    )
    daemon.serve_forever()
    return 0


def _serve_sharded(args) -> int:
    """``repro serve --shards N``: a consistent-hash router over N
    single-owner shard daemons sharing one memory-mapped store."""
    from repro.service import TCPDaemon
    from repro.service.sharding import ShardCluster

    # Every serve flag the cluster does not pass on is refused before
    # any shard starts, rather than parsed and silently dropped.
    unpassed = "the shards would run without it"
    for flag, given, reason in (
        ("--stdio", args.stdio, "a router fronts TCP shard daemons"),
        ("--no-cache", args.no_cache, "shards share one cached .rdb store"),
        ("--result-cache", args.result_cache is not None, unpassed),
        ("--hard-timeout", args.hard_timeout is not None, unpassed),
        ("--breaker-threshold", args.breaker_threshold is not None, unpassed),
        ("--breaker-cooldown", args.breaker_cooldown is not None, unpassed),
        ("--trace", args.trace, unpassed),
    ):
        if given:
            print(
                f"error: {flag} is incompatible with --shards ({reason})",
                file=sys.stderr,
            )
            return 2
    cluster = ShardCluster.launch(
        args.shards,
        n_wires=args.wires,
        k=args.k,
        max_list_size=args.lists,
    )
    router = cluster.router.start()
    daemon = TCPDaemon(router, host=args.host, port=args.port)
    host, port = daemon.address
    print(
        f"repro router listening on {host}:{port} "
        f"(shards={len(router.ring)}, n={args.wires}, k={args.k}, "
        f"epoch={router.ring.epoch})",
        flush=True,
    )
    daemon.serve_forever()
    return 0


def cmd_query(args) -> int:
    import json

    from repro.service import RetryPolicy, ServiceClient

    retry = RetryPolicy(retries=args.retries) if args.retries > 0 else None
    with ServiceClient(
        args.host,
        args.port,
        connect_timeout=args.connect_timeout,
        read_timeout=args.timeout,
        retry=retry,
    ) as client:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("daemon draining")
            return 0
        specs = list(args.spec)
        if args.stdin:
            specs.extend(line.strip() for line in sys.stdin if line.strip())
        if not specs:
            print("error: no specs given (pass specs or --stdin)", file=sys.stderr)
            return 2
        failures = 0
        transport_failures = 0
        for spec in specs:
            try:
                if args.size_only:
                    print(
                        f"{spec} -> "
                        f"{client.size(spec, engine=args.engine, deadline_ms=args.deadline_ms)}"
                    )
                else:
                    result = client.synth(
                        spec, engine=args.engine, deadline_ms=args.deadline_ms
                    )
                    tag = result["source"]
                    if result.get("guarantee") == "upper_bound":
                        tag += f", upper bound ({result.get('degraded_reason')})"
                    print(
                        f"{spec} -> {result['size']} gates "
                        f"[{tag}]: {result['circuit']}"
                    )
            except SizeLimitExceededError as exc:
                print(f"{spec} -> size > bound (lower bound {exc.lower_bound})")
                failures += 1
            except ProtocolError as exc:
                # The daemon answered, but with an error envelope
                # (bad spec, unknown engine, ...).
                print(f"{spec} -> error: {exc}", file=sys.stderr)
                failures += 1
            except ServiceError as exc:
                # Transport broke mid-stream (daemon died, connection
                # dropped).  Report and keep going: the client reconnects
                # per request, so later specs may still succeed.
                print(
                    f"{spec} -> transport error: {exc}", file=sys.stderr
                )
                transport_failures += 1
        if transport_failures:
            return 3
        return 1 if failures else 0


#: ``repro health`` exit codes by reported status; anything unknown is
#: treated as degraded.  Probes and CI script against these: 0 = serve
#: traffic, 1 = investigate, 2 = draining (stop sending work).
_HEALTH_EXIT_CODES = {"ok": 0, "degraded": 1, "stopping": 2}


def cmd_health(args) -> int:
    import json

    from repro.service import ServiceClient

    with ServiceClient(
        args.host, args.port, connect_timeout=args.connect_timeout
    ) as client:
        body = client.health()
    print(json.dumps(body, indent=2, sort_keys=True))
    return _HEALTH_EXIT_CODES.get(body.get("status"), 1)


def cmd_shards(args) -> int:
    import json

    from repro.service import ServiceClient

    with ServiceClient(
        args.host,
        args.port,
        connect_timeout=args.connect_timeout,
        read_timeout=args.timeout,
    ) as client:
        if args.action == "status":
            print(json.dumps(client.shards(), indent=2, sort_keys=True))
            return 0
        if args.action == "join":
            summary = client.shard_join(args.shard)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        # drain
        if not args.shard:
            print("error: drain needs --shard <id>", file=sys.stderr)
            return 2
        summary = client.shard_leave(args.shard)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary.get("drained") else 1


def cmd_linear(args) -> int:
    from repro.engines import create_engine

    db = create_engine("linear", n_wires=args.wires).impl.database
    print("Size  Functions   (Table 5 of the paper)")
    for size in range(db.max_size, -1, -1):
        print(f"{size:<5d} {db.counts[size]}")
    print(f"total {db.total_functions}")
    return 0


def cmd_random(args) -> int:
    from repro.analysis.distribution import sample_distribution

    synth = _make_synthesizer(args)
    synth.prepare()
    dist = sample_distribution(
        synth.search_engine,
        args.count,
        seed=args.seed,
        n_wires=args.wires,
        progress=lambda done, total: print(f"  {done}/{total}", flush=True),
    )
    print(dist.format_table())
    if dist.observed:
        print(f"average size (observed): {dist.weighted_average():.2f}")
    if dist.censored:
        low, high = dist.weighted_average_bounds()
        print(f"average size (bounds incl. censored): [{low:.2f}, {high:.2f}]")
    return 0


def cmd_benchmarks(args) -> int:
    from repro.benchmarks_data import BENCHMARKS

    synth = _make_synthesizer(args)
    synth.prepare()
    print(f"{'Name':<10} {'SBKC':>5} {'SOC':>4} {'ours':>5} {'time':>9}")
    for bench in BENCHMARKS:
        start = time.perf_counter()
        size, exact = synth.size_or_bound(bench.permutation())
        elapsed = time.perf_counter() - start
        ours = str(size) if exact else f">={size}"
        sbkc = str(bench.best_known_size) if bench.best_known_size else "n/a"
        print(
            f"{bench.name:<10} {sbkc:>5} {bench.optimal_size:>4} {ours:>5} "
            f"{elapsed:>8.3f}s"
        )
    return 0


def cmd_bench(args) -> int:
    from pathlib import Path

    from repro.perf.bench import run_suite
    from repro.perf.compare import compare_records
    from repro.perf.env import bench_cache_dir
    from repro.perf.schema import BenchRecord, bench_filename
    from repro.perf.suites import suite_ops

    if args.list:
        for op in suite_ops(args.suite):
            print(op.name)
        return 0

    if args.input:
        record = BenchRecord.load(args.input)
    else:
        cache = None if args.no_cache else bench_cache_dir()
        record = run_suite(
            args.suite,
            cache_dir=cache,
            select=args.op or None,
            progress=lambda line: print(line, flush=True),
        )
        if args.output:
            target = Path(args.output)
            if target.is_dir():
                target = target / bench_filename(record.created_unix)
        else:
            target = Path.cwd() / bench_filename(record.created_unix)
        record.dump(target)
        print(f"wrote {target}")

    if not args.compare:
        return 0
    baseline = BenchRecord.load(args.compare)
    report = compare_records(
        record,
        baseline,
        tolerance_pct=args.tolerance,
        normalize=False if args.raw else None,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    import json

    import repro.perf as perf
    from repro.engines import SynthesisRequest, create_engine

    engine = create_engine(
        args.engine,
        n_wires=args.wires,
        k=args.k,
        max_list_size=args.lists,
        cache_dir=False if args.no_cache else None,
    ).prepare()
    tracer = perf.enable(max_roots=args.max_roots)
    tracer.reset()
    request = SynthesisRequest(spec=args.spec, n_wires=args.wires)
    try:
        result = engine.synthesize(request)
    except SizeLimitExceededError as exc:
        result = None
        lower_bound = exc.lower_bound
    finally:
        perf.disable()
    if args.json:
        body = {
            "spec": args.spec,
            "engine": args.engine,
            "size": result.size if result is not None else None,
            "spans": perf.spans_to_dicts(tracer.roots()),
            "aggregate": tracer.aggregate(),
        }
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0 if result is not None else 1
    if result is not None:
        print(f"{result.spec} -> {result.size} gates ({result.engine})")
    else:
        print(f"{args.spec} -> size out of reach (lower bound {lower_bound})")
    print()
    for root in tracer.roots():
        print(perf.render_tree(root))
    print()
    print(perf.render_aggregate(tracer.aggregate()))
    return 0 if result is not None else 1


def cmd_peephole(args) -> int:
    from repro.apps.peephole import PeepholeOptimizer
    from repro.io.real_format import read_real, write_real

    circuit = read_real(args.input)
    synth = _make_synthesizer(args)
    synth.prepare()
    optimizer = PeepholeOptimizer(synth)
    report = optimizer.optimize(circuit)
    print(f"input : {circuit.gate_count} gates on {circuit.n_wires} wires")
    print(
        f"output: {report.optimized.gate_count} gates "
        f"({report.gates_saved} saved in {report.passes} pass(es), "
        f"{report.windows_replaced}/{report.windows_examined} windows improved)"
    )
    if args.output:
        write_real(
            report.optimized,
            args.output,
            comment=f"peephole-optimized from {args.input}",
        )
        print(f"written to {args.output}")
    return 0


def cmd_testgen(args) -> int:
    from repro.analysis.testgen import generate_suite

    synth = _make_synthesizer(args)
    synth.prepare()
    suite = generate_suite(
        synth.database, per_size=args.per_size, seed=args.seed
    )
    suite.save(args.output)
    by_size = suite.by_size()
    print(
        f"wrote {len(suite.cases)} cases "
        f"(sizes {min(by_size)}..{max(by_size)}) to {args.output}"
    )
    return 0


def cmd_libraries(args) -> int:
    from repro.synth.libraries import STANDARD_LIBRARIES, full_distribution

    print("exact optimal-size distributions over the full 3-bit group:")
    print(f"{'library':<7} {'gates':>5} {'L(3)':>5}  distribution")
    for maker in STANDARD_LIBRARIES.values():
        library = maker(3)
        dist = full_distribution(library)
        print(
            f"{library.name:<7} {len(library):>5} {len(dist) - 1:>5}  {dist}"
        )
    return 0


def cmd_clifford(args) -> int:
    from repro.engines import create_engine

    synth = create_engine("clifford", n_qubits=args.qubits).impl
    distribution = synth.distribution()
    print(
        f"|C_{args.qubits}| = {sum(distribution):,} Clifford operators "
        f"over {{H, S, S†, CNOT}}"
    )
    print("Size  Elements")
    for size in range(len(distribution) - 1, -1, -1):
        print(f"{size:<5d} {distribution[size]}")
    return 0


def cmd_check(args) -> int:
    from repro.checks import (
        all_rules,
        check_paths,
        render_json,
        render_sarif,
        render_text,
    )
    from repro.checks.registry import select_rules

    if args.list_rules:
        for rule in all_rules():
            marker = " (graph)" if rule.project else ""
            print(f"{rule.id:<24} [{rule.family}] {rule.description}{marker}")
        return 0
    select = tuple(args.select) if args.select else None
    try:
        select_rules(select)  # validate --select before walking files
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = check_paths(args.paths, select=select, graph=args.graph)
    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = render_text(report)
    print(rendered)
    return 0 if report.ok else 1


def cmd_arch(args) -> int:
    from repro.checks import CheckConfig
    from repro.checks.graph import emit
    from repro.checks.graph.project import build_project
    from repro.checks.runner import iter_python_files

    sources = []
    for path in iter_python_files(args.paths):
        try:
            sources.append((path.as_posix(), path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            continue
    project = build_project(sources, CheckConfig())
    renderers = {
        ("imports", "dot"): emit.import_graph_dot,
        ("imports", "json"): emit.import_graph_json,
        ("locks", "dot"): emit.lock_graph_dot,
        ("locks", "json"): emit.lock_graph_json,
    }
    print(renderers[(args.what, args.format)](project.index).rstrip("\n"))
    return 0


def cmd_info(args) -> int:
    import numpy

    from repro.synth.synthesizer import default_cache_dir

    print(f"repro {__version__} (numpy {numpy.__version__})")
    print(f"cache directory: {default_cache_dir()}")
    cache = default_cache_dir()
    if cache.exists():
        for path in sorted(cache.glob("*.rdb")):
            print(f"  {path.name}  {path.stat().st_size / (1 << 20):.1f} MB")
    return 0


def cmd_cache(args) -> int:
    """List every cached database store with its size and stats."""
    from pathlib import Path

    from repro.errors import DatabaseError
    from repro.store import describe
    from repro.synth.synthesizer import default_cache_dir

    cache = Path(args.dir) if args.dir else default_cache_dir()
    if not cache.exists():
        print(f"cache directory {cache} does not exist")
        return 0
    paths = sorted(cache.glob("*.rdb"))
    if not paths:
        print(f"cache directory {cache} holds no database stores")
        return 0
    print(f"cache directory: {cache}")
    failures = 0
    for path in paths:
        print(f"\n{path.name}")
        try:
            info = describe(path)
        except DatabaseError as exc:
            print(f"  UNREADABLE: {exc}")
            failures += 1
            continue
        for row in info.format_rows()[1:]:
            print(f"  {row}")
    return 1 if failures else 0


def cmd_db_info(args) -> int:
    from repro.store import describe

    info = describe(args.path)
    for row in info.format_rows():
        print(row)
    return 0


def cmd_db_verify(args) -> int:
    from repro.errors import DatabaseError
    from repro.store import verify_store

    try:
        info = verify_store(args.path)
    except DatabaseError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {info.path} ({info.entries} entries)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Optimal synthesis of 4-bit reversible circuits "
            "(Golubitsky, Falconer & Maslov, DAC 2010)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.engines import engine_names

    p_synth = sub.add_parser("synth", help="synthesize a circuit")
    p_synth.add_argument("spec", help='spec string, e.g. "[0,2,1,3,...]"')
    p_synth.add_argument(
        "--engine",
        default="optimal",
        choices=engine_names(),
        help="synthesis engine (default: optimal)",
    )
    p_synth.add_argument("--draw", action="store_true", help="ASCII drawing")
    p_synth.add_argument("--qasm", help="also write OpenQASM 2.0 to this file")
    p_synth.add_argument("--real", help="also write RevLib .real to this file")
    _add_synth_options(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_compile = sub.add_parser(
        "compile",
        help="compile a Boolean function form (truth table with "
        "don't-cares, multi-output, affine/XOR, LUT) to a circuit",
    )
    p_compile.add_argument(
        "spec",
        help="spec as inline JSON ('{\"kind\": \"truth_table\", ...}') "
        "or .pla cube text; @FILE reads a file, '-' reads stdin",
    )
    p_compile.add_argument(
        "--engine",
        default="optimal",
        choices=engine_names(),
        help="synthesis engine (default: optimal)",
    )
    p_compile.add_argument(
        "--samples",
        type=int,
        default=200,
        help="sampled-regime completion budget (default 200)",
    )
    p_compile.add_argument(
        "--json",
        action="store_true",
        help="print the deterministic wire body instead of a report",
    )
    _add_synth_options(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_engines = sub.add_parser(
        "engines", help="list the synthesis engines and their guarantees"
    )
    p_engines.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print each engine's summary line",
    )
    p_engines.set_defaults(func=cmd_engines)

    p_build = sub.add_parser(
        "build-db", help="build the database and write its .rdb store"
    )
    p_build.add_argument(
        "--force", action="store_true",
        help="rebuild and rewrite the store even when one is cached",
    )
    _add_synth_options(p_build)
    p_build.set_defaults(func=cmd_build_db)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived synthesis daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7878, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve the JSONL protocol over stdin/stdout instead of TCP",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run a sharded cluster: N shard daemons behind a "
        "consistent-hash router, the way to use more cores "
        "(0 = single daemon)",
    )
    p_serve.add_argument(
        "--result-cache",
        help="persistent result-cache JSON file (loaded at start, "
        "saved at shutdown)",
    )
    p_serve.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        help="seconds a scan, compile or named-engine request without "
        "deadline_ms may run before it degrades (default 120)",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        help="consecutive hard-path failures that trip the circuit "
        "breaker open (default 5)",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=None,
        help="seconds the breaker stays open before probing (default 30)",
    )
    p_serve.add_argument(
        "--trace",
        action="store_true",
        help="enable span tracing; per-span histograms appear in stats",
    )
    _add_synth_options(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_query = sub.add_parser("query", help="query a running daemon")
    p_query.add_argument("spec", nargs="*", help="spec strings to synthesize")
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument("--port", type=int, default=7878)
    p_query.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="seconds to wait for each response (read timeout)",
    )
    p_query.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for the TCP handshake",
    )
    p_query.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry attempts with backoff for safe failures (0 = off)",
    )
    p_query.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="server-side latency budget per query; hard queries that "
        "cannot fit it return an upper-bound answer instead of blocking",
    )
    p_query.add_argument(
        "--engine",
        default=None,
        help="daemon-side engine to answer with (default: optimal)",
    )
    p_query.add_argument(
        "--size-only", action="store_true", help="only report gate counts"
    )
    p_query.add_argument(
        "--stdin", action="store_true", help="read extra specs from stdin"
    )
    p_query.add_argument(
        "--stats", action="store_true", help="print the daemon's stats"
    )
    p_query.add_argument(
        "--shutdown", action="store_true", help="drain and stop the daemon"
    )
    p_query.set_defaults(func=cmd_query)

    p_health = sub.add_parser(
        "health",
        help="print a running daemon's resilience status "
        "(exit 0 = ok, 1 = degraded, 2 = stopping)",
    )
    p_health.add_argument("--host", default="127.0.0.1")
    p_health.add_argument("--port", type=int, default=7878)
    p_health.add_argument("--connect-timeout", type=float, default=5.0)
    p_health.set_defaults(func=cmd_health)

    p_shards = sub.add_parser(
        "shards", help="inspect or reshape a sharded router"
    )
    p_shards.add_argument(
        "action",
        choices=["status", "drain", "join"],
        help="status: membership rollup; drain: live-leave a shard "
        "(--shard required); join: spawn and add a shard",
    )
    p_shards.add_argument("--shard", help="target shard id")
    p_shards.add_argument("--host", default="127.0.0.1")
    p_shards.add_argument("--port", type=int, default=7878)
    p_shards.add_argument("--connect-timeout", type=float, default=5.0)
    p_shards.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the response (drain waits for "
        "in-flight work)",
    )
    p_shards.set_defaults(func=cmd_shards)

    p_linear = sub.add_parser("linear", help="Table 5: linear functions")
    p_linear.add_argument("--wires", type=int, default=4)
    p_linear.set_defaults(func=cmd_linear)

    p_random = sub.add_parser("random", help="random-permutation distribution")
    p_random.add_argument("count", type=int)
    p_random.add_argument("--seed", type=int, default=5489)
    _add_synth_options(p_random)
    p_random.set_defaults(func=cmd_random)

    p_bench = sub.add_parser("benchmarks", help="Table 6 benchmark suite")
    _add_synth_options(p_bench)
    p_bench.set_defaults(func=cmd_benchmarks)

    p_perf = sub.add_parser(
        "bench",
        help="run a pinned perf suite, write BENCH_*.json, diff baselines",
    )
    p_perf.add_argument(
        "--suite", choices=("quick", "full"), default="quick",
        help="which pinned suite to run (default: quick)",
    )
    p_perf.add_argument(
        "--output", "-o", default=None,
        help="output file or directory (default: ./BENCH_<timestamp>.json)",
    )
    p_perf.add_argument(
        "--input", default=None,
        help="compare an existing BENCH_*.json instead of running the suite",
    )
    p_perf.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="diff against this baseline record; exit 1 on regression",
    )
    p_perf.add_argument(
        "--tolerance", type=float, default=25.0,
        help="regression threshold in percent (default 25)",
    )
    p_perf.add_argument(
        "--raw", action="store_true",
        help="compare raw medians (skip calibration normalization)",
    )
    p_perf.add_argument(
        "--op", action="append", metavar="NAME",
        help="run only this op (repeatable; calibration always runs)",
    )
    p_perf.add_argument(
        "--list", action="store_true", help="list the suite's ops and exit"
    )
    p_perf.add_argument(
        "--no-cache", action="store_true",
        help="do not read/write the benchmark database cache",
    )
    p_perf.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser(
        "trace", help="synthesize once with span tracing and show the trees"
    )
    p_trace.add_argument("spec", help='spec string, e.g. "[0,2,1,3,...]"')
    p_trace.add_argument(
        "--engine",
        default="optimal",
        choices=engine_names(),
        help="synthesis engine (default: optimal)",
    )
    p_trace.add_argument(
        "--json", action="store_true", help="emit span trees as JSON"
    )
    p_trace.add_argument(
        "--max-roots", type=int, default=64,
        help="most recent root spans to keep (default 64)",
    )
    _add_synth_options(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_peep = sub.add_parser(
        "peephole", help="optimize a .real circuit via optimal resynthesis"
    )
    p_peep.add_argument("input", help="input .real file")
    p_peep.add_argument("-o", "--output", help="output .real file")
    _add_synth_options(p_peep)
    p_peep.set_defaults(func=cmd_peephole)

    p_testgen = sub.add_parser(
        "testgen", help="generate a heuristic-evaluation test suite"
    )
    p_testgen.add_argument("output", help="output suite file")
    p_testgen.add_argument("--per-size", type=int, default=10)
    p_testgen.add_argument("--seed", type=int, default=5489)
    _add_synth_options(p_testgen)
    p_testgen.set_defaults(func=cmd_testgen)

    p_libs = sub.add_parser(
        "libraries", help="compare gate libraries (NCT/NCTS/NCTSF/NCP)"
    )
    p_libs.set_defaults(func=cmd_libraries)

    p_clifford = sub.add_parser(
        "clifford", help="optimal Clifford (stabilizer) circuit table"
    )
    p_clifford.add_argument("--qubits", type=int, default=2, choices=(1, 2))
    p_clifford.set_defaults(func=cmd_clifford)

    p_check = sub.add_parser(
        "check", help="run the domain-aware static-analysis rules"
    )
    p_check.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    p_check.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    p_check.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only this rule id or family (repeatable)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    p_check.add_argument(
        "--graph", action="store_true",
        help="add the whole-program pass (lock-order-cycle, "
        "cross-unmasked-op, layer-violation)",
    )
    p_check.set_defaults(func=cmd_check)

    p_arch = sub.add_parser(
        "arch", help="dump whole-program import/lock graphs (DOT or JSON)"
    )
    p_arch.add_argument(
        "what", choices=("imports", "locks"),
        help="which graph to emit",
    )
    p_arch.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to index (default: src)",
    )
    p_arch.add_argument(
        "--format", choices=("dot", "json"), default="dot",
        help="output format (default: dot)",
    )
    p_arch.set_defaults(func=cmd_arch)

    p_db = sub.add_parser("db", help="inspect on-disk .rdb database stores")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)

    p_db_info = db_sub.add_parser(
        "info", help="print a store's parameters and Table 2 statistics"
    )
    p_db_info.add_argument("path", help=".rdb store file")
    p_db_info.set_defaults(func=cmd_db_info)

    p_db_verify = db_sub.add_parser(
        "verify",
        help="full integrity pass: header, checksum, probe consistency "
        "(exit 1 on failure)",
    )
    p_db_verify.add_argument("path", help=".rdb store file")
    p_db_verify.set_defaults(func=cmd_db_verify)

    p_db_list = db_sub.add_parser(
        "list", help="list cached stores with size and stats"
    )
    p_db_list.add_argument(
        "--dir", default=None,
        help="cache directory to list (default: the library cache)",
    )
    p_db_list.set_defaults(func=cmd_cache)

    p_info = sub.add_parser("info", help="library and cache information")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
