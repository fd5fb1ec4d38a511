"""Prefix table: the /24-granularity address space of the simulated Internet.

The paper's measurement techniques operate on /24 prefixes ("iterating over
all routable prefixes", §3.1.2), so the /24 is our atomic addressing unit.
Each prefix records its originating AS, its kind (access, server, infra,
scanner, hosting) and the city where its hosts sit.

The table is built incrementally while the scenario is generated, then
frozen; after freezing, numpy column views enable vectorised analysis over
tens of thousands of prefixes.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import TopologyError
from .geography import City


class PrefixKind(enum.IntEnum):
    """What a /24 is used for (ground truth; not directly observable)."""

    ACCESS = 0        # end-user access network (has subscribers)
    SERVER_ONNET = 1  # hypergiant serving prefix inside its own AS
    SERVER_OFFNET = 2 # hypergiant cache prefix inside another AS
    HOSTING = 3       # third-party hosting/server space in stub ASes
    INFRA = 4         # router interconnects, loopbacks
    SCANNER = 5       # bots/automation: DNS-active but not human users


class PrefixTable:
    """Append-then-freeze registry of every routable /24."""

    def __init__(self) -> None:
        self._asn: List[int] = []
        self._kind: List[int] = []
        self._city_index: List[int] = []
        self._cities: List[City] = []
        self._city_ids: Dict[City, int] = {}
        self._by_as: Dict[int, List[int]] = {}
        self._frozen = False
        self._asn_arr: Optional[np.ndarray] = None
        self._kind_arr: Optional[np.ndarray] = None
        self._city_arr: Optional[np.ndarray] = None

    # -- construction -------------------------------------------------------

    def add(self, asn: int, kind: PrefixKind, city: City) -> int:
        """Allocate a new /24; returns its prefix id."""
        if self._frozen:
            raise TopologyError("prefix table is frozen")
        pid = len(self._asn)
        self._asn.append(asn)
        self._kind.append(int(kind))
        city_id = self._city_ids.get(city)
        if city_id is None:
            city_id = len(self._cities)
            self._cities.append(city)
            self._city_ids[city] = city_id
        self._city_index.append(city_id)
        self._by_as.setdefault(asn, []).append(pid)
        return pid

    def add_many(self, asn: int, kind: PrefixKind, city: City,
                 count: int) -> List[int]:
        """Allocate ``count`` /24s with identical attributes."""
        return [self.add(asn, kind, city) for __ in range(count)]

    def freeze(self) -> None:
        """Seal the table and materialise numpy column views."""
        self._frozen = True
        self._asn_arr = np.asarray(self._asn, dtype=np.int64)
        self._kind_arr = np.asarray(self._kind, dtype=np.int8)
        self._city_arr = np.asarray(self._city_index, dtype=np.int32)

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- scalar accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._asn)

    def _check(self, pid: int) -> None:
        if not 0 <= pid < len(self._asn):
            raise TopologyError(f"unknown prefix id {pid}")

    def asn_of(self, pid: int) -> int:
        self._check(pid)
        return self._asn[pid]

    def kind_of(self, pid: int) -> PrefixKind:
        self._check(pid)
        return PrefixKind(self._kind[pid])

    def city_of(self, pid: int) -> City:
        self._check(pid)
        return self._cities[self._city_index[pid]]

    def address_of(self, pid: int) -> str:
        """Synthetic dotted-quad rendering, e.g. ``10.3.17.0/24``."""
        self._check(pid)
        return f"{10 + (pid >> 16)}.{(pid >> 8) & 255}.{pid & 255}.0/24"

    # -- collection accessors -------------------------------------------------------

    def prefixes_of_as(self, asn: int) -> List[int]:
        return list(self._by_as.get(asn, []))

    def ids(self) -> Iterator[int]:
        return iter(range(len(self._asn)))

    def of_kind(self, *kinds: PrefixKind) -> np.ndarray:
        """Prefix ids matching any of ``kinds`` (requires frozen table)."""
        arr = self.kind_array
        mask = np.isin(arr, np.asarray([int(k) for k in kinds], dtype=np.int8))
        return np.flatnonzero(mask)

    # -- numpy views -----------------------------------------------------------------

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise TopologyError("freeze() the prefix table first")

    @property
    def asn_array(self) -> np.ndarray:
        self._require_frozen()
        assert self._asn_arr is not None
        return self._asn_arr

    @property
    def kind_array(self) -> np.ndarray:
        self._require_frozen()
        assert self._kind_arr is not None
        return self._kind_arr

    @property
    def city_index_array(self) -> np.ndarray:
        self._require_frozen()
        assert self._city_arr is not None
        return self._city_arr

    @property
    def cities(self) -> Sequence[City]:
        """Distinct cities referenced by the table, index-aligned with
        :attr:`city_index_array`."""
        return tuple(self._cities)

    def group_by_as(self, values: np.ndarray) -> Dict[int, float]:
        """Sum a per-prefix vector into a per-AS dict."""
        self._require_frozen()
        if len(values) != len(self):
            raise TopologyError("value vector length mismatch")
        totals: Dict[int, float] = {}
        if len(self) == 0:
            return totals
        asns = self.asn_array
        order = np.argsort(asns, kind="stable")
        sorted_asns = asns[order]
        sorted_vals = np.asarray(values, dtype=float)[order]
        boundaries = np.flatnonzero(np.diff(sorted_asns)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_asns)]))
        for start, end in zip(starts, ends):
            totals[int(sorted_asns[start])] = float(sorted_vals[start:end].sum())
        return totals
