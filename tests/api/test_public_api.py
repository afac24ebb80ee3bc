"""Public-API snapshot test: accidental surface breaks fail the build.

The committed ``public_api_contract.json`` records the public surface the
library promises: the top-level ``repro.__all__``, the exports of the engine
facade, of ``repro.automata`` and of ``repro.equivalence``, the registered
built-in notions, and the public methods of the :class:`Engine` /
:class:`Process` / :class:`Verdict` types.  Any drift --
a removed export, a renamed method, a notion that silently disappears --
fails this test with the exact difference.

Intentional changes regenerate the contract::

    PYTHONPATH=src python tests/api/test_public_api.py --update

and the diff is reviewed like any other API change.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

CONTRACT_PATH = Path(__file__).with_name("public_api_contract.json")

#: notions shipped by the library itself; test-registered notions are
#: excluded so registry round-trip tests cannot poison the snapshot.
BUILTIN_NOTIONS = ("failure", "k-observational", "language", "observational", "strong")


def _public_methods(cls: type) -> list[str]:
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, (property, classmethod)))
    )


def current_snapshot() -> dict:
    import repro
    import repro.automata
    import repro.engine
    import repro.equivalence
    from repro.engine import Engine, Process, Verdict, available_notions

    return {
        "repro_all": sorted(repro.__all__),
        "engine_all": sorted(repro.engine.__all__),
        "automata_all": sorted(repro.automata.__all__),
        "equivalence_all": sorted(repro.equivalence.__all__),
        "notions": sorted(set(available_notions()) & set(BUILTIN_NOTIONS) | set(BUILTIN_NOTIONS)),
        "engine_methods": _public_methods(Engine),
        "process_methods": _public_methods(Process),
        "verdict_fields": sorted(field.name for field in fields(Verdict)),
    }


def test_public_api_matches_contract():
    assert CONTRACT_PATH.exists(), (
        f"missing {CONTRACT_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/api/test_public_api.py --update`"
    )
    contract = json.loads(CONTRACT_PATH.read_text(encoding="utf-8"))
    snapshot = current_snapshot()
    for key in sorted(set(contract) | set(snapshot)):
        expected = set(contract.get(key, []))
        actual = set(snapshot.get(key, []))
        missing = sorted(expected - actual)
        added = sorted(actual - expected)
        assert not missing and not added, (
            f"public API drift in {key!r}: removed {missing}, added {added}; if this is "
            "intentional, regenerate the contract with "
            "`PYTHONPATH=src python tests/api/test_public_api.py --update` and review the diff"
        )


def test_builtin_notions_are_registered():
    from repro.engine import available_notions

    assert set(BUILTIN_NOTIONS) <= set(available_notions())


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        CONTRACT_PATH.write_text(json.dumps(current_snapshot(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {CONTRACT_PATH}")
    else:
        print(json.dumps(current_snapshot(), indent=2))
