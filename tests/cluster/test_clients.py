"""One client, two transports.

Every RPC method is written once on :class:`~repro.service.client.
ServiceClient`; :class:`~repro.cluster.client.ClusterClient` inherits them
over HTTP.  Each test here runs twice -- against a two-shard service over
NDJSON and against a two-node cluster through its gateway -- and asks both
the same questions.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.classify import classify
from repro.engine import Engine
from repro.service import protocol
from repro.utils.serialization import content_digest, save_process_file


def test_ping(endpoint):
    with endpoint.client() as client:
        info = client.ping()
    assert info["pong"] is True
    if endpoint.kind == "service":
        assert info["shards"] == 2
    else:
        assert info["healthy_nodes"] == 2
        assert set(info["nodes"]) == {"alpha", "beta"}
        assert info["replication_factor"] == 2


def test_store_then_check_by_digest(endpoint, processes):
    base, copy, near = processes["bases"][0], processes["copies"][0], processes["nears"][0]
    engine = Engine()
    with endpoint.client() as client:
        digest = client.store(base)
        assert digest == content_digest(base)
        assert client.check(digest, copy)["equivalent"] is True
        assert client.check(digest, near)["equivalent"] is False
        for other, notion in ((copy, "observational"), (near, "strong"), (copy, "language")):
            got = client.check(digest, other, notion)
            want = engine.check(base, other, notion, align=True).equivalent
            assert got["equivalent"] is want
            assert got["notion"] == notion
            if endpoint.kind == "cluster":
                assert got["node"] in {"alpha", "beta"}
        inline = client.check(base, copy, "strong")
    assert inline["notion"] == "strong"


def test_check_many_mixed_manifest(endpoint, processes):
    base0, base1 = processes["bases"]
    copy0 = processes["copies"][0]
    near1 = processes["nears"][1]
    engine = Engine()
    manifest = [
        (base0, copy0, "observational"),
        (base0, near1, "language"),
        {"left": base1, "right": near1, "notion": "k-observational", "params": {"k": 2}},
    ]
    with endpoint.client() as client:
        digest = client.store(base0)  # digest references mix into manifests too
        result = client.check_many([(digest, copy0, "strong"), *manifest])
        # Wire-shaped dict entries (docs/service-protocol.md) work verbatim.
        wire = client.check_many([{"left": {"digest": digest}, "right": copy0, "notion": "strong"}])
        assert wire["results"][0]["equivalent"] == result["results"][0]["equivalent"]
    wants = [
        engine.check(base0, copy0, "strong", align=True).equivalent,
        engine.check(base0, copy0, "observational", align=True).equivalent,
        engine.check(base0, near1, "language", align=True).equivalent,
        engine.check(base1, near1, "k-observational", align=True, k=2).equivalent,
    ]
    assert [r["equivalent"] for r in result["results"]] == wants
    assert result["summary"] == {
        "checks": 4,
        "equivalent": sum(wants),
        "inequivalent": 4 - sum(wants),
        "failed": 0,
    }
    if endpoint.kind == "cluster":
        assert all("node" in r for r in result["results"])


def test_check_many_reports_per_check_errors(endpoint, processes):
    base, copy = processes["bases"][0], processes["copies"][0]
    with endpoint.client() as client:
        result = client.check_many(
            [
                (base, copy, "observational"),
                ("sha256:" + "f" * 64, copy, "observational"),  # unknown digest
            ]
        )
    assert result["summary"]["checks"] == 2 and result["summary"]["failed"] == 1
    assert result["results"][0]["equivalent"] is True
    assert result["results"][1]["error"]["code"] == "unknown_digest"


def test_minimize_and_classify(endpoint, processes):
    base = processes["bases"][0]
    with endpoint.client() as client:
        minimal = client.minimize(base, "observational")
        classes = client.classify(base)
    assert minimal == Engine().minimize(base, "observational")
    assert classes == sorted(str(model) for model in classify(base))
    assert classes


def test_metrics_snapshot(endpoint):
    with endpoint.client() as client:
        client.ping()
        snapshot = client.metrics()
    front = "service" if endpoint.kind == "service" else "gateway"
    assert snapshot[f"repro_{front}_requests_total"]["type"] == "counter"


def test_cli_client_speaks_either_transport(endpoint, processes, tmp_path, capsys):
    base, copy, near = processes["bases"][0], processes["copies"][0], processes["nears"][0]
    files = {}
    for name, fsp in (("base", base), ("copy", copy), ("near", near)):
        files[name] = str(tmp_path / f"{name}.json")
        save_process_file(fsp, files[name])
    cli = [*endpoint.cli, "--port", str(endpoint.port)]
    assert main([*cli, "store", files["base"]]) == 0
    digest = capsys.readouterr().out.strip()
    assert digest == content_digest(base)  # just the digest, on both transports
    assert main([*cli, "check", digest, files["copy"]]) == 0
    out = capsys.readouterr().out
    assert "are equivalent under observational equivalence" in out
    assert ("(node " in out) is (endpoint.kind == "cluster")
    assert main([*cli, "check", digest, files["near"], "--notion", "strong"]) == 1
    capsys.readouterr()
    assert main([*cli, "ping"]) == 0
    banner = capsys.readouterr().out
    assert banner.startswith("cluster up" if endpoint.kind == "cluster" else "service ")
    assert main([*cli, "stats"]) == 0
    assert capsys.readouterr().out.startswith(endpoint.kind)


def test_malformed_body_gets_bad_request(endpoint):
    assert endpoint.send_malformed()["code"] == "bad_request"


def test_node_and_gateway_answer_a_malformed_manifest_alike(service, cluster, processes):
    # Every per-entry error lands in its own slot on both paths, so the
    # node and the gateway give the same codes and the same summary.
    base, copy = processes["bases"][0], processes["copies"][0]
    good = {"left": protocol.process_ref(base), "right": protocol.process_ref(copy)}
    manifest = {
        "checks": [
            good,
            42,  # not an object
            {"left": protocol.process_ref(base)},  # no right operand
            {**good, "reduction": "bogus"},  # unknown reduction mode
            {**good, "left": {"digest": "sha256:" + "f" * 64}},  # unknown digest
        ],
        "notion": "observational",
    }
    answers = []
    for endpoint in (service, cluster):
        with endpoint.client() as client:
            answers.append(client.request("check_many", manifest))
            # A 'checks' value that is not a list still fails the request.
            with pytest.raises(protocol.ServiceError) as info:
                client.request("check_many", {"checks": "not-a-list"})
            assert info.value.code == protocol.BAD_REQUEST
    codes = [[r.get("error", {}).get("code") for r in answer["results"]] for answer in answers]
    assert codes[0] == codes[1] == [
        None,
        "bad_request",
        "bad_request",
        "bad_request",
        "unknown_digest",
    ]
    assert answers[0]["summary"] == answers[1]["summary"] == {
        "checks": 5,
        "equivalent": 1,
        "inequivalent": 0,
        "failed": 4,
    }
