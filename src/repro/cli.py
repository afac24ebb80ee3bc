"""Command-line interface: ``python -m repro <command> ...``.

The CLI is a thin shell over the engine facade (:mod:`repro.engine`): one
shared :class:`~repro.engine.engine.Engine` per invocation, so every command
benefits from cached process handles and verdicts.  Operations work on
serialised processes (JSON via :mod:`repro.utils.serialization` or Aldebaran
``.aut``, selected by file extension; unknown extensions are rejected with
the list of supported formats):

``classify``      print the model classes of a process (Fig. 1a hierarchy)
``check``         decide an equivalence between two processes' start states
                  (``--on-the-fly`` explores the pair space lazily instead of
                  materialising quotients)
``batch``         run a JSON manifest of checks through the shared caches
``minimize``      write the strong or observational quotient of a process
``convert``       convert between JSON, ``.aut`` and DOT
``expr``          decide the CCS equivalence problem for two star expressions
``ccs``           compile a CCS term (with optional definitions file) to a process
``explore``       on-the-fly operations on composed systems described by JSON
                  system files (stats/materialize/check/minimize), see
                  :mod:`repro.explore`
``protocol``      consensus-protocol scenarios (:mod:`repro.protocols`):
                  instantiate/check/sweep over JSON scenario files
``serve``         run the sharded equivalence service (:mod:`repro.service`)
``client``        talk to a running service (ping/store/check/stats/...)
``cluster``       multi-node fabric (:mod:`repro.cluster`): serve-node /
                  serve-gateway / client over the HTTP gateway

The ``--notion`` choices are read from the engine's notion registry, so
notions registered by plugins are immediately available.  Every command
prints a human-readable verdict and uses the exit status to report boolean
answers (0 = equivalent / success, 1 = not equivalent, 2 = usage or input
error), so the tool can be scripted; ``--version`` prints the library
version.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import __version__
from repro.ccs.parser import parse_definitions, parse_process
from repro.ccs.semantics import compile_to_fsp
from repro.core.classify import classify
from repro.core.errors import ReproError
from repro.core.fsp import FSP
from repro.engine import Verdict, available_notions, default_engine, expression_notions
from repro.partition.generalized import BACKENDS
from repro.utils.serialization import load_process_file, save_process_file

#: Exit code used for "the answer is: not equivalent".
EXIT_INEQUIVALENT = 1
#: Exit code used for malformed input or usage errors.
EXIT_ERROR = 2


def load_process(path: str | Path) -> FSP:
    """Load a process from a ``.json`` or ``.aut`` file (by extension)."""
    return load_process_file(path)


def save_process(process: FSP, path: str | Path) -> None:
    """Write a process to ``.json``, ``.aut`` or ``.dot`` (by extension)."""
    save_process_file(process, path)


#: notions whose pipeline honours a partition ``backend`` parameter.
_BACKEND_NOTIONS = frozenset({"strong", "bisimulation", "observational", "weak"})


def _notion_params(args: argparse.Namespace) -> dict:
    params = {"k": args.k} if args.notion == "k-observational" else {}
    # "auto" is the notion default, so only explicit overrides are passed.
    backend = getattr(args, "backend", "auto")
    if backend != "auto":
        if args.notion not in _BACKEND_NOTIONS:
            raise SystemExit(
                f"--backend {backend} only applies to the strong/observational "
                f"notions, not {args.notion!r}"
            )
        params["backend"] = backend
    return params


def _notion_label(args: argparse.Namespace) -> str:
    return f"approx_{args.k}" if args.notion == "k-observational" else args.notion


def _print_verdict_extras(verdict: Verdict, args: argparse.Namespace) -> None:
    if getattr(args, "explain", False) and verdict.witness is not None:
        print(f"  witness: {verdict.witness.describe()}")
    if getattr(args, "stats", False):
        stats = verdict.stats
        origin = "cache" if stats.from_cache else "computed"
        line = (
            f"  stats: {stats.seconds * 1000:.2f} ms ({origin}); "
            f"left {stats.left_states} states / right {stats.right_states} states"
        )
        pairs = stats.details.get("pairs_visited")
        if pairs is not None:
            line += f" explored; {pairs} product pairs visited"
        print(line)


def _cmd_classify(args: argparse.Namespace) -> int:
    process = load_process(args.process)
    classes = sorted(str(model) for model in classify(process))
    print(f"{args.process}: {process.num_states} states, {process.num_transitions} transitions")
    for name in classes:
        print(f"  {name}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.on_the_fly:
        verdict = default_engine().check_on_the_fly(
            load_process(args.first),
            load_process(args.second),
            args.notion,
            witness=args.explain,
        )
    else:
        verdict = default_engine().check(
            load_process(args.first),
            load_process(args.second),
            args.notion,
            align=True,
            witness=args.explain,
            **_notion_params(args),
        )
    answer = "equivalent" if verdict.equivalent else "NOT equivalent"
    print(f"{args.first} and {args.second} are {answer} under {_notion_label(args)} equivalence")
    _print_verdict_extras(verdict, args)
    return 0 if verdict.equivalent else EXIT_INEQUIVALENT


def _load_manifest(path: str | Path) -> list[dict]:
    """Read a ``batch`` manifest: a JSON list of checks, or ``{"checks": [...]}``.

    Each check is an object with ``left`` and ``right`` process-file paths,
    an optional ``notion`` and optional notion parameters (``k``, bounds).
    Relative paths are resolved against the manifest's directory.
    """
    path = Path(path)
    document = json.loads(path.read_text(encoding="utf-8"))
    checks = document.get("checks") if isinstance(document, dict) else document
    if not isinstance(checks, list):
        raise ValueError(
            f"manifest {path} must be a JSON list of checks or an object with a 'checks' list"
        )
    base = path.parent
    resolved: list[dict] = []
    for index, item in enumerate(checks):
        if not isinstance(item, dict) or "left" not in item or "right" not in item:
            raise ValueError(f"manifest check #{index} must be an object with 'left' and 'right'")
        spec = dict(item)
        spec["left"] = str(base / spec["left"])
        spec["right"] = str(base / spec["right"])
        resolved.append(spec)
    return resolved


def _cmd_batch(args: argparse.Namespace) -> int:
    checks = _load_manifest(args.manifest)
    result = default_engine().check_many(
        checks, notion=args.notion, align=True, witness=args.explain
    )
    for spec, verdict in zip(checks, result.verdicts):
        answer = "equivalent" if verdict.equivalent else "NOT equivalent"
        left = Path(spec["left"]).name
        right = Path(spec["right"]).name
        print(f"{left} vs {right}: {answer} under {verdict.notion} equivalence")
        _print_verdict_extras(verdict, args)
    summary = result.summary()
    print(
        f"batch: {summary['checks']} checks, {summary['equivalent']} equivalent, "
        f"{summary['inequivalent']} not equivalent, {summary['cache_hits']} cache hits, "
        f"{summary['seconds'] * 1000:.1f} ms"
    )
    if args.output:
        payload = {"summary": summary, "results": result.to_dicts()}
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"results written to {args.output}")
    return 0 if result.num_inequivalent == 0 else EXIT_INEQUIVALENT


def _cmd_minimize(args: argparse.Namespace) -> int:
    process = load_process(args.process)
    minimal = default_engine().minimize(process, notion=args.notion, backend=args.backend)
    save_process(minimal, args.output)
    print(
        f"minimised {args.process}: {process.num_states} -> {minimal.num_states} states "
        f"({args.notion} equivalence); written to {args.output}"
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    process = load_process(args.process)
    save_process(process, args.output)
    print(f"converted {args.process} -> {args.output}")
    return 0


def _cmd_expr(args: argparse.Namespace) -> int:
    verdict = default_engine().check_expressions(
        args.first,
        args.second,
        args.notion,
        witness=args.explain,
        **_notion_params(args),
    )
    answer = "equivalent" if verdict.equivalent else "NOT equivalent"
    print(f"{args.first!r} and {args.second!r} are {answer} under {args.notion} semantics")
    _print_verdict_extras(verdict, args)
    return 0 if verdict.equivalent else EXIT_INEQUIVALENT


def _cmd_ccs(args: argparse.Namespace) -> int:
    definitions = (
        parse_definitions(Path(args.definitions).read_text(encoding="utf-8"))
        if args.definitions
        else None
    )
    process = compile_to_fsp(parse_process(args.term), definitions, max_states=args.max_states)
    print(
        f"compiled {args.term!r}: {process.num_states} states, "
        f"{process.num_transitions} transitions"
    )
    if args.output:
        save_process(process, args.output)
        print(f"written to {args.output}")
    return 0


def load_system(path: str | Path):
    """Load a composed-system spec from a file.

    ``.aut`` files and FSP ``.json`` files load as single-process leaves; any
    other JSON document is parsed as a system description
    (:func:`repro.explore.spec_from_document`) whose ``{"file": ...}``
    leaves resolve relative to the document's directory.
    """
    from repro.explore import LeafSpec, spec_from_document
    from repro.utils.serialization import from_dict

    path = Path(path)
    if path.suffix.lower() != ".json":
        return LeafSpec(load_process(path), label=path.name)
    document = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(document, dict) and document.get("format") == "repro-fsp":
        return LeafSpec(from_dict(document), label=path.name)

    def resolve(leaf: dict):
        if "file" in leaf:
            return load_process(path.parent / str(leaf["file"]))
        if "process" in leaf:
            return from_dict(leaf["process"])
        raise ValueError(
            f"system leaf must carry 'file' or 'process', got keys {sorted(leaf)}"
        )

    return spec_from_document(document, resolve)


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro import explore

    if args.explore_op == "stats":
        spec = load_system(args.system)
        stats = explore.reachable_stats(explore.build_implicit(spec), limit=args.limit)
        shape = "at least" if not stats.complete else "exactly"
        print(f"{args.system}: {spec.describe()}")
        print(f"  reachable: {shape} {stats.states} states, {stats.transitions} transitions")
        return 0
    if args.explore_op == "materialize":
        spec = load_system(args.system)
        process = explore.materialize(
            explore.build_implicit(spec),
            limit=args.limit,
            on_limit="truncate" if args.truncate else "raise",
        )
        save_process(process, args.output)
        print(
            f"materialised {args.system}: {process.num_states} states, "
            f"{process.num_transitions} transitions; written to {args.output}"
        )
        return 0
    if args.explore_op == "check":
        verdict = default_engine().check_on_the_fly(
            load_system(args.first),
            load_system(args.second),
            args.notion,
            witness=args.explain,
            max_pairs=args.max_pairs,
            reduction=args.reduction,
        )
        answer = "equivalent" if verdict.equivalent else "NOT equivalent"
        print(
            f"{args.first} and {args.second} are {answer} under {args.notion} "
            f"equivalence (on-the-fly)"
        )
        _print_verdict_extras(verdict, args)
        return 0 if verdict.equivalent else EXIT_INEQUIVALENT
    if args.explore_op == "minimize":
        spec = load_system(args.system)
        minimal = explore.minimize_compositionally(spec)
        save_process(minimal, args.output)
        print(
            f"compositionally minimised {args.system} to {minimal.num_states} states "
            f"(observational congruence); written to {args.output}"
        )
        return 0
    raise ValueError(f"unhandled explore op {args.explore_op!r}")  # pragma: no cover


def _load_scenario_document(token: str):
    """A CLI scenario argument: a JSON scenario file, or a bare library name."""
    path = Path(token)
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    from repro.protocols import SCENARIOS

    if token in SCENARIOS:
        return {"name": token}
    raise FileNotFoundError(
        f"no scenario file {token!r} and no library scenario of that name "
        f"(library: {', '.join(sorted(SCENARIOS))})"
    )


def _cmd_protocol(args: argparse.Namespace) -> int:
    from repro import protocols
    from repro.explore import build_implicit, reachable_stats
    from repro.explore.system import spec_to_document

    document = _load_scenario_document(args.scenario)
    scenario = protocols.scenario_from_document(document)
    if args.protocol_op == "instantiate":
        system = protocols.system_from_document(document)
        payload = spec_to_document(system)
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        stats = reachable_stats(build_implicit(system), limit=args.limit)
        shape = "exactly" if stats.complete else "at least"
        print(f"{scenario.name}: n={scenario.n}, f={scenario.f} -- {scenario.description}")
        print(f"  reachable: {shape} {stats.states} states, {stats.transitions} transitions")
        print(f"  system document written to {args.output}")
        return 0
    if args.protocol_op == "check":
        implementation = protocols.system_from_document(document)
        if args.deadlock:
            report = protocols.find_stuck(
                implementation, limit=args.limit, reduction=args.reduction
            )
            if report is None:
                print(
                    f"{scenario.name}: no deadlock or livelock "
                    f"(searched up to {args.limit} product states)"
                )
                return 0
            rendered = ".".join(report.trace) if report.trace else "ε"
            shape = "complete" if report.complete else "truncated"
            print(f"{scenario.name}: {report.kind} at {report.state}")
            print(f"  trace: {rendered}")
            print(f"  explored {report.states_explored} states ({shape})")
            return EXIT_INEQUIVALENT
        verdict = protocols.check_conformance(
            scenario.spec,
            implementation,
            args.notion,
            max_pairs=args.max_pairs,
            reduction=args.reduction,
        )
        answer = "equivalent" if verdict.equivalent else "NOT equivalent"
        print(
            f"{scenario.name}: implementation is {answer} to its spec under "
            f"{args.notion} equivalence (on-the-fly)"
        )
        _print_verdict_extras(verdict, args)
        return 0 if verdict.equivalent else EXIT_INEQUIVALENT
    if args.protocol_op == "sweep":
        result = protocols.sweep_crashes(
            scenario,
            max_faults=args.max_faults,
            notion=args.notion,
            reduction=args.reduction,
        )
        print(f"{scenario.name}: crash-fault sweep, declared tolerance f={result.tolerance}")
        for point in result.points:
            status = "equivalent" if point.equivalent else "BROKEN"
            line = f"  {point.faults} fault(s): {status} ({point.pairs_visited} pairs visited)"
            if point.trace is not None:
                verified = "verified " if point.trace_verified else ""
                line += f"; {verified}trace {'.'.join(point.trace)}"
            print(line)
        if result.confirmed:
            print("  tolerance confirmed: holds through f, breaks at f+1 where swept")
            return 0
        print(f"  tolerance NOT confirmed (breaks at {result.breaks_at})")
        return EXIT_INEQUIVALENT
    raise ValueError(f"unhandled protocol op {args.protocol_op!r}")  # pragma: no cover


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` and ``repro cluster serve-node`` (a named service)."""
    from repro.service import serve

    # None means "use the per-shard defaults documented in repro.service.shards"
    # (the parser cannot name them without importing the full service stack).
    bounds = {
        name: value
        for name, value in (
            ("max_processes", args.max_processes),
            ("max_verdicts", args.max_verdicts),
        )
        if value is not None
    }
    serve(
        args.host,
        args.port,
        store_root=args.store,
        num_shards=args.shards,
        max_queue=args.max_queue,
        steal_threshold=args.steal_threshold,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        metrics_port=args.metrics_port,
        trace_stream=sys.stderr if args.trace else None,
        node_name=args.name,
        **bounds,
    )
    return 0


def _client_source(token: str):
    """A CLI process argument: a ``sha256:...`` digest or a process file."""
    if token.startswith("sha256:"):
        return token
    return load_process(token)


def _cmd_client(args: argparse.Namespace) -> int:
    """``repro client`` (NDJSON to a node) and ``repro cluster client`` (HTTP)."""
    from repro.service import ProtocolError, ServiceError

    if args.cluster:
        from repro.cluster import ClusterClient as Client

        server, start = "gateway", "repro cluster serve-gateway"
    else:
        from repro.service import ServiceClient as Client

        server, start = "service", "repro serve"
    try:
        with Client(args.host, args.port) as client:
            return _run_client_op(client, args)
    except (ServiceError, ProtocolError, FileNotFoundError) as error:
        # ServiceError: the server rejected the request (its code says why).
        # ProtocolError: the peer is not speaking the protocol or vanished
        # mid-request.  FileNotFoundError: a missing local process file, not
        # a network problem.  All are input/environment errors in CLI terms.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except ConnectionRefusedError:
        print(
            f"error: no {server} listening on {args.host}:{args.port} "
            f"(start one with `{start}`)",
            file=sys.stderr,
        )
        return EXIT_ERROR
    except OSError as error:
        # Timeouts, resets, unreachable hosts: environment errors, exit 2.
        print(f"error: cannot talk to {args.host}:{args.port}: {error}", file=sys.stderr)
        return EXIT_ERROR


def _run_client_op(client, args: argparse.Namespace) -> int:
    if args.client_op == "ping":
        info = client.ping()
        if "healthy_nodes" in info:
            print(
                f"cluster up: {info['healthy_nodes']}/{len(info['nodes'])} node(s) healthy, "
                f"replication factor {info['replication_factor']}"
            )
        else:
            print(f"service {info['version']} up, {info['shards']} shard(s)")
        return 0
    if args.client_op == "health":
        health = client.healthz()
        for node, up in sorted(health.get("nodes", {}).items()):
            print(f"  {node}: {'healthy' if up else 'DOWN'}")
        return 0 if health.get("ok") else EXIT_ERROR
    if args.client_op == "store":
        print(client.store(load_process(args.process)))
        return 0
    if args.client_op == "check":
        verdict = client.check(
            _client_source(args.first),
            _client_source(args.second),
            args.notion,
            witness=args.explain,
            reduction=args.reduction,
            deadline_ms=args.deadline_ms,
            **_notion_params(args),
        )
        answer = "equivalent" if verdict["equivalent"] else "NOT equivalent"
        node = f"node {verdict['node']}, " if "node" in verdict else ""
        print(
            f"{args.first} and {args.second} are {answer} under {verdict['notion']} "
            f"equivalence ({node}shard {verdict['shard']})"
        )
        if args.explain and verdict.get("witness"):
            print(f"  witness: {verdict['witness']}")
        return 0 if verdict["equivalent"] else EXIT_INEQUIVALENT
    if args.client_op == "minimize":
        minimal = client.minimize(_client_source(args.process), args.notion)
        save_process(minimal, args.output)
        print(f"minimised to {minimal.num_states} states; written to {args.output}")
        return 0
    if args.client_op == "classify":
        for name in client.classify(_client_source(args.process)):
            print(f"  {name}")
        return 0
    if args.client_op == "metrics":
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    if args.client_op == "stats":
        stats = client.stats()
        if "coordinator" in stats:
            _print_cluster_stats(stats)
        else:
            _print_service_stats(stats)
        return 0
    raise ValueError(f"unhandled client op {args.client_op!r}")  # pragma: no cover


def _print_service_stats(stats: dict) -> None:
    server = stats["server"]
    print(
        f"service {server['version']}: {server['shards']} shard(s), "
        f"{server['requests']} request(s), {server['connections']} connection(s), "
        f"{server['revivals']} worker revival(s), {server.get('steals', 0)} steal(s), "
        f"{server.get('overloads', 0)} overload refusal(s)"
    )
    store = server["store"]
    print(
        f"  store: {store['on_disk']} process(es) on disk, "
        f"{store['cached']}/{store['max_cached']} cached in memory"
    )
    for shard in stats["shards"]:
        engine = shard["engine"]
        print(
            f"  shard {shard['shard']} (pid {shard['pid']}): {shard['checks']} check(s), "
            f"{engine['processes']} process(es) / {engine['verdicts']} verdict(s) cached, "
            f"{engine['hits']} hit(s) / {engine['misses']} miss(es)"
        )


def _print_cluster_stats(stats: dict) -> None:
    coord = stats["coordinator"]
    print(
        f"cluster: {coord['healthy_nodes']}/{coord['nodes']} node(s) healthy, "
        f"rf={coord['replication_factor']}, {coord['failovers']} failover(s), "
        f"{coord['steals']} steal(s), {coord['replications']} replication(s) "
        f"({coord['replication_failures']} failed), "
        f"artifacts {coord['artifact_hits']} hit(s) / {coord['artifact_misses']} miss(es)"
    )
    for node in stats["nodes"]:
        if "error" in node:
            print(f"  node {node['node']}: UNREACHABLE ({node['error']})")
            continue
        server = node["server"]
        print(
            f"  node {node['node']}: {server['shards']} shard(s), "
            f"{server['requests']} request(s), {server['revivals']} revival(s)"
        )


def _parse_node_spec(token: str) -> tuple[str, tuple[str, int]]:
    """One ``--node name=host:port`` argument -> ``(name, (host, port))``."""
    name, eq, address = token.partition("=")
    host, colon, port = address.rpartition(":")
    if not eq or not colon or not name or not host:
        raise ValueError(f"--node wants name=host:port, got {token!r}")
    try:
        return name, (host, int(port))
    except ValueError:
        raise ValueError(f"--node wants a numeric port, got {token!r}") from None


def _cmd_cluster_serve_gateway(args: argparse.Namespace) -> int:
    from repro.cluster import serve_gateway

    nodes = dict(_parse_node_spec(token) for token in args.node)
    if len(nodes) < len(args.node):
        raise ValueError("--node names must be unique")
    serve_gateway(
        nodes,
        host=args.host,
        port=args.port,
        replication_factor=args.replication,
        steal_threshold=args.steal_threshold,
        store_root=args.store,
        probe_interval=args.probe_interval,
    )
    return 0


def _add_verdict_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--explain",
        action="store_true",
        help="print a checkable witness (formula, word or refusal pair) on inequivalence",
    )
    command.add_argument(
        "--stats", action="store_true", help="print timing and cache provenance per check"
    )


def _add_reduction_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--reduction",
        choices=["none", "por", "symmetry", "full"],
        default="none",
        help=(
            "state-space reduction: partial-order (tau-confluence), symmetry "
            "(declared canonical forms), or both; only reductions sound for "
            "the requested check are applied"
        ),
    )


def _add_serve_flags(command: argparse.ArgumentParser) -> None:
    """The flags ``repro serve`` and ``repro cluster serve-node`` share."""
    from repro.service.protocol import DEFAULT_PORT

    command.add_argument("--host", default="127.0.0.1")
    command.add_argument("--port", type=int, default=DEFAULT_PORT)
    command.add_argument(
        "--shards", type=int, default=None, help="worker processes (default: one per CPU)"
    )
    command.add_argument(
        "--store",
        default=None,
        help="directory of the content-addressed process store (default: private temp dir)",
    )
    command.add_argument(
        "--max-processes",
        type=int,
        default=None,
        help="per-shard engine process-cache bound (default: the engine's)",
    )
    command.add_argument(
        "--max-verdicts",
        type=int,
        default=None,
        help="per-shard engine verdict-cache bound (default: the engine's)",
    )
    command.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="per-shard queue bound; beyond it checks are refused with 'overloaded' "
        "(default: unbounded)",
    )
    command.add_argument(
        "--steal-threshold",
        type=int,
        default=None,
        help="queue depth at which cache-cold digest checks migrate to idle shards "
        "(default: stealing off)",
    )


def _add_client_ops(
    command: argparse.ArgumentParser, default_port: int, server: str
) -> argparse._SubParsersAction:
    """The operations ``repro client`` and ``repro cluster client`` share."""
    command.add_argument("--host", default="127.0.0.1")
    command.add_argument("--port", type=int, default=default_port)
    ops = command.add_subparsers(dest="client_op", required=True)

    ops.add_parser("ping", help="liveness probe")

    store = ops.add_parser("store", help="upload a process once; prints its sha256 digest")
    store.add_argument("process", help="process file (.json or .aut)")

    check = ops.add_parser(
        "check", help=f"decide an equivalence on {server} (files or sha256: digests)"
    )
    check.add_argument("first", help="process file or sha256:... digest")
    check.add_argument("second", help="process file or sha256:... digest")
    check.add_argument("--notion", choices=list(available_notions()), default="observational")
    check.add_argument("--k", type=int, default=1, help="level for k-observational")
    check.add_argument(
        "--explain", action="store_true", help="request and print a witness on inequivalence"
    )
    check.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="abort the check past this many milliseconds (error: deadline_exceeded)",
    )
    _add_reduction_flag(check)

    minimize = ops.add_parser("minimize", help=f"minimise on {server}")
    minimize.add_argument("process", help="process file or sha256:... digest")
    minimize.add_argument("output")
    minimize.add_argument("--notion", choices=["strong", "observational"], default="observational")

    classify = ops.add_parser("classify", help=f"classify on {server}")
    classify.add_argument("process", help="process file or sha256:... digest")

    ops.add_parser("stats", help="server totals and per-shard (or per-node) statistics")
    return ops


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Equivalence checking for finite state processes (Kanellakis & Smolka).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    classify_cmd = commands.add_parser("classify", help="print the model classes of a process")
    classify_cmd.add_argument("process", help="process file (.json or .aut)")
    classify_cmd.set_defaults(handler=_cmd_classify)

    check_cmd = commands.add_parser("check", help="decide an equivalence between two processes")
    check_cmd.add_argument("first")
    check_cmd.add_argument("second")
    check_cmd.add_argument("--notion", choices=list(available_notions()), default="observational")
    check_cmd.add_argument("--k", type=int, default=1, help="level for k-observational")
    check_cmd.add_argument(
        "--backend",
        choices=[*BACKENDS, "auto"],
        default="auto",
        help=(
            "partition backend for strong/observational checks: the Python "
            "worklist solvers, the vectorized numpy kernel, or auto dispatch "
            "on size and arcs per state (the default)"
        ),
    )
    check_cmd.add_argument(
        "--on-the-fly",
        action="store_true",
        help=(
            "decide by lazy pair-space exploration (strong/observational only): "
            "returns early with a verified distinguishing trace on inequivalence"
        ),
    )
    _add_verdict_flags(check_cmd)
    check_cmd.set_defaults(handler=_cmd_check)

    batch_cmd = commands.add_parser(
        "batch", help="run a JSON manifest of checks through the shared engine caches"
    )
    batch_cmd.add_argument(
        "manifest",
        help=(
            "JSON manifest: a list (or {'checks': [...]}) of objects with 'left' and "
            "'right' process files, optional 'notion' and notion parameters"
        ),
    )
    batch_cmd.add_argument(
        "--notion",
        choices=list(available_notions()),
        default="observational",
        help="default notion for checks that do not name one",
    )
    batch_cmd.add_argument("--output", help="write the structured results to this JSON file")
    _add_verdict_flags(batch_cmd)
    batch_cmd.set_defaults(handler=_cmd_batch)

    minimize_cmd = commands.add_parser("minimize", help="write the quotient of a process")
    minimize_cmd.add_argument("process")
    minimize_cmd.add_argument("output")
    minimize_cmd.add_argument(
        "--notion", choices=["strong", "observational"], default="observational"
    )
    minimize_cmd.add_argument(
        "--backend",
        choices=[*BACKENDS, "auto"],
        default="auto",
        help="partition backend used to compute the quotient (auto: by size and arcs per state)",
    )
    minimize_cmd.set_defaults(handler=_cmd_minimize)

    convert_cmd = commands.add_parser("convert", help="convert between .json, .aut and .dot")
    convert_cmd.add_argument("process")
    convert_cmd.add_argument("output")
    convert_cmd.set_defaults(handler=_cmd_convert)

    expr_cmd = commands.add_parser(
        "expr", help="decide the CCS equivalence problem for star expressions"
    )
    expr_cmd.add_argument("first")
    expr_cmd.add_argument("second")
    expr_cmd.add_argument("--notion", choices=list(expression_notions()), default="strong")
    expr_cmd.add_argument("--k", type=int, default=1, help="level for k-observational")
    _add_verdict_flags(expr_cmd)
    expr_cmd.set_defaults(handler=_cmd_expr)

    ccs_cmd = commands.add_parser("ccs", help="compile a CCS term to a process")
    ccs_cmd.add_argument("term")
    ccs_cmd.add_argument("--definitions", help="file of `Name := term` definitions")
    ccs_cmd.add_argument("--output", help="write the compiled process here")
    ccs_cmd.add_argument("--max-states", type=int, default=10_000)
    ccs_cmd.set_defaults(handler=_cmd_ccs)

    explore_cmd = commands.add_parser(
        "explore",
        help="on-the-fly operations on composed systems (JSON system files)",
    )
    explore_ops = explore_cmd.add_subparsers(dest="explore_op", required=True)

    explore_stats = explore_ops.add_parser(
        "stats", help="count reachable states/transitions without materialising"
    )
    explore_stats.add_argument("system", help="system file (JSON spec, .json FSP or .aut)")
    explore_stats.add_argument(
        "--limit", type=int, default=None, help="stop counting after this many states"
    )

    explore_mat = explore_ops.add_parser(
        "materialize", help="explore a composed system into an eager process file"
    )
    explore_mat.add_argument("system")
    explore_mat.add_argument("output")
    explore_mat.add_argument(
        "--limit", type=int, default=None, help="state bound (exceeding it is an error)"
    )
    explore_mat.add_argument(
        "--truncate",
        action="store_true",
        help="keep the explored prefix instead of erroring at the limit (lossy)",
    )

    explore_check = explore_ops.add_parser(
        "check", help="on-the-fly equivalence of two (composed) systems"
    )
    explore_check.add_argument("first")
    explore_check.add_argument("second")
    explore_check.add_argument(
        "--notion", choices=["strong", "observational"], default="observational"
    )
    explore_check.add_argument(
        "--max-pairs", type=int, default=None, help="bound on explored product pairs"
    )
    _add_reduction_flag(explore_check)
    _add_verdict_flags(explore_check)

    explore_min = explore_ops.add_parser(
        "minimize",
        help="compositional minimisation: quotient every component before composing",
    )
    explore_min.add_argument("system")
    explore_min.add_argument("output")

    explore_cmd.set_defaults(handler=_cmd_explore)

    protocol_cmd = commands.add_parser(
        "protocol",
        help=(
            "consensus-protocol scenarios: instantiate, conformance-check and "
            "fault-sweep (JSON scenario files or library names)"
        ),
    )
    protocol_ops = protocol_cmd.add_subparsers(dest="protocol_op", required=True)

    protocol_inst = protocol_ops.add_parser(
        "instantiate", help="compile a scenario to a composed-system JSON document"
    )
    protocol_inst.add_argument(
        "scenario",
        help=(
            "scenario file ({'name': ..., 'n': ..., 'f': ..., 'side': ..., "
            "'faults': [...]}) or a library scenario name"
        ),
    )
    protocol_inst.add_argument("output", help="write the system document here")
    protocol_inst.add_argument(
        "--limit", type=int, default=None, help="stop counting reachable states here"
    )

    protocol_check = protocol_ops.add_parser(
        "check",
        help="spec-vs-implementation conformance, or --deadlock reachability",
    )
    protocol_check.add_argument("scenario", help="scenario file or library name")
    protocol_check.add_argument(
        "--notion", choices=["strong", "observational"], default="observational"
    )
    protocol_check.add_argument(
        "--max-pairs", type=int, default=None, help="bound on explored product pairs"
    )
    protocol_check.add_argument(
        "--deadlock",
        action="store_true",
        help="search the lazy product for deadlocks/livelocks instead of equivalence",
    )
    protocol_check.add_argument(
        "--limit", type=int, default=50_000, help="state bound for --deadlock search"
    )
    _add_reduction_flag(protocol_check)
    _add_verdict_flags(protocol_check)

    protocol_sweep = protocol_ops.add_parser(
        "sweep", help="fault-tolerance sweep: equivalent up to f crashes, broken at f+1"
    )
    protocol_sweep.add_argument("scenario", help="scenario file or library name")
    protocol_sweep.add_argument(
        "--max-faults", type=int, default=None, help="sweep up to this many crashes (default f+1)"
    )
    protocol_sweep.add_argument(
        "--notion", choices=["strong", "observational"], default="observational"
    )
    _add_reduction_flag(protocol_sweep)

    protocol_cmd.set_defaults(handler=_cmd_protocol)

    # Deliberately the lightweight protocol module: pulling in the full
    # service stack (asyncio server, process pools) at parse time would tax
    # every CLI invocation; serve/client import it lazily in their handlers.
    from repro.service.protocol import DEFAULT_PORT

    serve_cmd = commands.add_parser(
        "serve", help="run the sharded equivalence service (line-delimited JSON over TCP)"
    )
    _add_serve_flags(serve_cmd)
    serve_cmd.add_argument(
        "--quota-rps",
        type=float,
        default=None,
        help="per-client request rate (tokens/second; check_many costs one per check; "
        "default: no quotas)",
    )
    serve_cmd.add_argument(
        "--quota-burst",
        type=float,
        default=None,
        help="per-client burst capacity (default: twice --quota-rps)",
    )
    serve_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus-text metrics over HTTP on this port (0 picks one; "
        "default: off)",
    )
    serve_cmd.add_argument(
        "--trace",
        action="store_true",
        help="log one JSON trace record per request to stderr",
    )
    serve_cmd.set_defaults(handler=_cmd_serve, name=None)

    client_cmd = commands.add_parser(
        "client", help="talk to a running service (see `repro serve`)"
    )
    client_ops = _add_client_ops(client_cmd, DEFAULT_PORT, "the service")
    client_ops.add_parser("metrics", help="dump the server's metrics snapshot as JSON")
    client_cmd.set_defaults(handler=_cmd_client, cluster=False)

    # Same lazy-import discipline as serve/client: the parser only needs the
    # gateway's default port constant, which the cluster package defines
    # eagerly precisely so this import stays cheap.
    from repro.cluster import DEFAULT_GATEWAY_PORT

    cluster_cmd = commands.add_parser(
        "cluster", help="multi-node checking fabric (nodes + HTTP gateway)"
    )
    cluster_ops = cluster_cmd.add_subparsers(dest="cluster_cmd", required=True)

    node_cmd = cluster_ops.add_parser(
        "serve-node", help="run one cluster node (an equivalence service with a node name)"
    )
    node_cmd.add_argument("--name", required=True, help="node id (labels stats and metrics)")
    _add_serve_flags(node_cmd)
    node_cmd.set_defaults(
        handler=_cmd_serve, quota_rps=None, quota_burst=None, metrics_port=None, trace=False
    )

    gateway_cmd = cluster_ops.add_parser(
        "serve-gateway", help="run the HTTP gateway + coordinator over running nodes"
    )
    gateway_cmd.add_argument(
        "--node",
        action="append",
        required=True,
        metavar="NAME=HOST:PORT",
        help="cluster member (repeat once per node)",
    )
    gateway_cmd.add_argument("--host", default="127.0.0.1")
    gateway_cmd.add_argument("--port", type=int, default=DEFAULT_GATEWAY_PORT)
    gateway_cmd.add_argument(
        "--replication",
        type=int,
        default=2,
        help="ring nodes holding each stored process (default: 2)",
    )
    gateway_cmd.add_argument(
        "--steal-threshold",
        type=int,
        default=None,
        help="in-flight depth at which cache-cold checks leave their primary "
        "for the least-loaded replica (default: stealing off)",
    )
    gateway_cmd.add_argument(
        "--store",
        default=None,
        help="coordinator store directory (processes + minimisation artifacts; "
        "default: stateless)",
    )
    gateway_cmd.add_argument(
        "--probe-interval", type=float, default=1.0, help="seconds between node health probes"
    )
    gateway_cmd.set_defaults(handler=_cmd_cluster_serve_gateway)

    ccli_cmd = cluster_ops.add_parser(
        "client", help="talk to a running gateway (see `repro cluster serve-gateway`)"
    )
    ccli_ops = _add_client_ops(ccli_cmd, DEFAULT_GATEWAY_PORT, "the cluster")
    ccli_ops.add_parser("health", help="per-node health (exit 2 when no node is healthy)")
    ccli_cmd.set_defaults(handler=_cmd_client, cluster=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, FileNotFoundError, OSError, ValueError, TypeError) as error:
        # TypeError covers manifest/param mistakes surfaced by the engine's
        # parameter validation (e.g. a notion handed a bound it does not
        # accept), which are input errors in CLI terms.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
