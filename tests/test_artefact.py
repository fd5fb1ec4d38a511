"""The map artefact has one encoding, and its digest names those bytes.

The contract (docs/serving.md, "The artefact and its digest"): every
writer emits exactly :func:`map_to_json`'s bytes, the served digest is
their SHA-256, and :func:`load_store` hashes what it read instead of
re-encoding the map. A fresh, a parallel, a resumed and a delta build of
one world therefore serve one digest; an artefact in any older or
indented form is refused, never silently renamed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import EXIT_BAD_MAP, _build_parser, _prepare, main
from repro.core import serialize
from repro.core.mapstore import MapStore
from repro.core.serialize import map_to_dict, map_to_json
from repro.delta import ActivitySwing, MutationPlan
from repro.faults import SimulatedCrash
from repro.obs import NULL_RECORDER
from repro.serve import MapArtefactError, load_store


def cli_build(artefact, *flags):
    """Build the small world through the CLI's build path, which writes
    ``artefact`` with its ``--map-json`` writer; returns the scenario
    and the built map."""
    args = _build_parser().parse_args(
        ["--scale", "small", *flags, "--map-json", str(artefact),
         "summary"])
    scenario, __, itm = _prepare(args, NULL_RECORDER)
    return scenario, itm


def served_digest(artefact, scenario, itm) -> str:
    """The digest ``artefact`` serves, asserted to be the SHA-256 of its
    bytes and the digest of the in-process map it was written from."""
    digest = load_store(str(artefact), scenario).digest
    assert digest == hashlib.sha256(artefact.read_bytes()).hexdigest()
    assert digest == MapStore.from_map(itm, graph=scenario.graph).digest
    return digest


def test_every_build_path_serves_one_digest(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    fresh = served_digest(tmp_path / "fresh.json",
                          *cli_build(tmp_path / "fresh.json"))

    parallel = served_digest(
        tmp_path / "workers.json",
        *cli_build(tmp_path / "workers.json", "--workers", "2"))

    resumed_path = tmp_path / "resumed.json"
    with pytest.raises(SimulatedCrash):
        cli_build(resumed_path, "--checkpoint-dir", ckpt,
                  "--crash-at", "services")
    assert not resumed_path.exists()
    resumed = served_digest(
        resumed_path,
        *cli_build(resumed_path, "--checkpoint-dir", ckpt, "--resume"))

    assert fresh == parallel == resumed

    plan = tmp_path / "plan.json"
    MutationPlan(mutations=(ActivitySwing(prefix_ids=(0, 1, 2, 3, 4),
                                          factor=4.0),)).save(plan)
    delta = served_digest(
        tmp_path / "delta.json",
        *cli_build(tmp_path / "delta.json", "--checkpoint-dir", ckpt,
                   "--mutate", str(plan), "--resume"))
    mutated = served_digest(
        tmp_path / "mutated.json",
        *cli_build(tmp_path / "mutated.json", "--mutate", str(plan)))
    assert delta == mutated != fresh


def test_load_store_never_encodes(tmp_path, monkeypatch, small_itm,
                                  small_scenario):
    artefact = tmp_path / "map.json"
    artefact.write_text(map_to_json(small_itm))
    expected = MapStore.from_map(small_itm,
                                 graph=small_scenario.graph).digest

    def refuse(*args, **kwargs):
        raise AssertionError("load_store re-encoded the map")

    monkeypatch.setattr(serialize, "map_to_json", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    assert load_store(str(artefact), small_scenario).digest == expected


def _format_1(itm) -> str:
    payload = map_to_dict(itm)
    payload["format_version"] = 1
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _format_1_as_written(itm) -> str:
    # What the CLI wrote before format 2: indented, newline-terminated.
    payload = map_to_dict(itm)
    payload["format_version"] = 1
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reindented(itm) -> str:
    return json.dumps(json.loads(map_to_json(itm)), indent=2,
                      sort_keys=True)


def _tampered(edit):
    """A writer of the canonical artefact with one field hand-edited."""
    def write(itm) -> str:
        payload = json.loads(map_to_json(itm))
        edit(payload)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return write


def _first_key(mapping):
    return next(iter(mapping))


def _set_as_key(payload):
    activity = payload["users"]["activity_by_as"]
    activity["x" + _first_key(activity)] = 1.0


def _set_prefix_weight(payload):
    activity = payload["users"]["activity_by_prefix"]
    activity[_first_key(activity)] = "lots"


def _set_detected_prefix(payload):
    payload["users"]["detected_prefixes"][0] = "zero"


def _set_route_hop(payload):
    entry = next(e for e in payload["routes"]["paths"] if e["path"])
    entry["path"][0] = "hop"


def _set_client(payload):
    user_to_host = payload["services"]["user_to_host"]
    user_to_host[_first_key(user_to_host)]["clients"][0] = "c"


def _set_city(payload):
    site = next(site for sites in payload["services"]["sites_by_org"]
                .values() for site in sites if site["city"])
    site["city"] = ["ZZ", "Atlantis"]


def _set_serving_asns(payload):
    serving = payload["services"]["serving_asns_by_domain"]
    serving[_first_key(serving)] = 5


TAMPERINGS = [
    (_tampered(_set_as_key), "map payload users"),
    (_tampered(_set_prefix_weight), "map payload users"),
    (_tampered(_set_detected_prefix), "map payload users"),
    (_tampered(_set_route_hop), "map payload routes"),
    (_tampered(_set_client), "map payload services"),
    (_tampered(_set_city), "unknown city"),
    (_tampered(_set_serving_asns), "map payload services"),
]
TAMPERING_IDS = ["as-key", "prefix-weight", "detected-prefix", "route-hop",
                 "client", "unknown-city", "serving-asns"]


@pytest.mark.parametrize("write, reason", [
    (_format_1, "unsupported map format 1"),
    (_format_1_as_written, "newline"),
    (_reindented, "newline"),
] + TAMPERINGS, ids=["format-1", "format-1-indented",
                     "format-2-reindented"] + TAMPERING_IDS)
def test_old_and_indented_artefacts_refused(write, reason, tmp_path,
                                            capsys, small_itm,
                                            small_scenario):
    artefact = tmp_path / "map.json"
    artefact.write_text(write(small_itm))
    with pytest.raises(MapArtefactError, match=reason):
        load_store(str(artefact), small_scenario)

    assert main(["--scale", "small", "serve", "--map-json",
                 str(artefact)]) == EXIT_BAD_MAP
    err = capsys.readouterr().err
    assert reason in err
    assert f"hint: build one with 'repro --scale small --seed " \
           f"20211110 --map-json {artefact} summary'" in err
