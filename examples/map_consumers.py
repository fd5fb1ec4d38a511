#!/usr/bin/env python3
"""The downstream researcher's workflow: load a published map, weight
your own analysis with it.

§4: "we hope the research community both uses and encourages others to
use the Internet traffic map for weighting analysis". This example plays
both roles: the *publisher* builds a map and exports it to JSON; the
*consumer* loads the JSON (no scenario internals needed), plugs their own
per-AS metric into :class:`MapWeighter`, and sees how weighting changes
the conclusion.

Usage::

    python examples/map_consumers.py [seed]
"""

import sys
import tempfile
from pathlib import Path

from repro import ScenarioConfig, build_scenario
from repro.analysis.report import render_table
from repro.core.builder import MapBuilder
from repro.core.consumer import MapWeighter
from repro.core.serialize import map_from_json, map_to_json


def main(seed: int = 20211110) -> None:
    # ---- Publisher side -------------------------------------------------
    scenario = build_scenario(ScenarioConfig.small(seed=seed))
    itm = MapBuilder(scenario).build()
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "itm.json"
        artifact.write_text(map_to_json(itm))
        print(f"Publisher: exported the map "
              f"({artifact.stat().st_size / 1024:.0f} KiB of JSON).")

        # ---- Consumer side ----------------------------------------------
        loaded = map_from_json(
            artifact.read_text(),
            prefix_asn=scenario.prefixes.asn_array)
        print("Consumer: loaded the map; "
              f"{len(loaded.users.activity_by_as)} ASes carry weights.")

    weighter = MapWeighter(loaded)

    # The consumer's own study: "how far is each network from the
    # nearest hypergiant serving site?" (a latency-ish metric they
    # computed themselves; here from the scenario's geometry).
    from repro.net.geography import haversine_km
    sites = scenario.deployment.onnet_sites("googol")
    metric = {}
    for asys in scenario.registry.eyeballs():
        distance = min(haversine_km(asys.home_city.lat,
                                    asys.home_city.lon,
                                    s.city.lat, s.city.lon)
                       for s in sites)
        metric[asys.asn] = distance

    study = weighter.study_as_metric(metric,
                                     "km to nearest Googol site")
    print(f"\nMetric: {study.metric_name} "
          f"({study.keys_used} ASes, "
          f"{study.keys_without_weight} without map weight)\n")
    print(render_table(["quantile", "unweighted", "map-weighted"],
                       study.summary_rows()))
    print("\nWeighted by real activity, users sit much closer to the "
          "content than a flat per-AS view suggests — the paper's "
          "point, now one import away for any consumer.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20211110)
