"""Valley-free (Gao-Rexford) route computation over the AS graph.

Routes are computed per destination with the standard three-phase
propagation model:

1. **Customer routes** — the origin's route propagates upward over
   customer→provider links any number of times.
2. **Peer routes** — a route held via a customer (or by the origin) crosses
   at most one peering link.
3. **Provider routes** — after crossing a peer link or turning downhill,
   routes propagate only downward over provider→customer links.

Route selection follows BGP decision logic restricted to the attributes the
model carries: prefer customer over peer over provider routes (local
preference mirrors economics), then shortest AS path, then lowest next-hop
ASN as the deterministic tie-break.

The simulator also supports *anycast* destinations — several origin ASes
announcing the same prefix — by seeding phase 1 with every origin; the
winning origin at each AS is its catchment.

**Implementation.** The kernel runs over a dense integer index of the
graph (one contiguous index per ASN, CSR adjacency as sorted numpy
arrays), propagating parallel per-node arrays (``kind``, ``path_len``,
``next hop/parent``, ``origin``) level-by-level instead of pushing
tuple-carrying heap entries. Because every phase processes path lengths
in increasing order and breaks ties by lowest next-hop ASN, the dense
kernel selects *bit-identical* routes to the tuple-based reference
implementation (the test oracle in ``tests/routing_reference.py``).
Full ``path`` tuples are materialized lazily from parent pointers only
when a caller asks for them; bulk consumers use
:meth:`RouteTable.paths_for` and friends.

Results are cached per (graph epoch, origin set) in a bounded LRU
(:class:`BgpSimulator`); mutating the graph bumps its epoch, which makes
stale cache entries unreachable automatically.
"""

from __future__ import annotations

import enum
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)
from weakref import WeakKeyDictionary

import numpy as np

from ..errors import TopologyError
from ..lru import BoundedLru, CacheStats
from ..obs.recorder import resolve_recorder as _resolve_recorder
from .relationships import ASGraph


class RouteKind(enum.Enum):
    """How the best route at an AS was learned (BGP local-pref classes)."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


_KIND_NONE = -1
_KINDS = (RouteKind.ORIGIN, RouteKind.CUSTOMER, RouteKind.PEER,
          RouteKind.PROVIDER)


class Route:
    """Best route from one AS toward a destination.

    ``path`` lists ASNs from the route holder to the origin, inclusive:
    ``path[0]`` is the holder, ``path[-1]`` the (anycast) origin reached.

    Routes handed out by :class:`RouteTable` are *lazy*: they carry only a
    pointer into the table's dense arrays, and the ``path`` tuple is
    materialized by walking parent pointers the first time it is read.
    ``holder``/``origin``/``kind``/``as_path_length`` never materialize
    the path.
    """

    __slots__ = ("_path", "_kind", "_table", "_idx")

    def __init__(self, path: Optional[Tuple[int, ...]] = None,
                 kind: Optional[RouteKind] = None, *,
                 _table: "Optional[RouteTable]" = None,
                 _idx: int = -1) -> None:
        if _table is None and (path is None or kind is None):
            raise ValueError("eager Route needs both path and kind")
        self._path = path
        self._kind = kind
        self._table = _table
        self._idx = _idx

    @property
    def path(self) -> Tuple[int, ...]:
        """Full ASN path, holder first (materialized on first access)."""
        if self._path is None:
            self._path = self._table._materialize(self._idx)
        return self._path

    @property
    def kind(self) -> RouteKind:
        """Local-preference class of the route."""
        if self._kind is None:
            self._kind = _KINDS[int(self._table._kind[self._idx])]
        return self._kind

    @property
    def holder(self) -> int:
        """The AS holding this route (``path[0]``)."""
        if self._table is not None:
            return int(self._table._index.asns[self._idx])
        return self._path[0]

    @property
    def origin(self) -> int:
        """The (anycast) origin the route reaches (``path[-1]``)."""
        if self._table is not None:
            return int(self._table._index.asns[
                self._table._origin[self._idx]])
        return self._path[-1]

    @property
    def as_path_length(self) -> int:
        """Number of AS hops (edges) on the path."""
        if self._table is not None:
            return int(self._table._path_len[self._idx])
        return len(self._path) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Route):
            return NotImplemented
        return self.path == other.path and self.kind is other.kind

    def __hash__(self) -> int:
        return hash((self.path, self.kind))

    def __repr__(self) -> str:
        return f"Route(path={self.path!r}, kind={self.kind!r})"


# ---------------------------------------------------------------------------
# Dense graph index (cached per ASGraph epoch)
# ---------------------------------------------------------------------------

class _GraphIndex:
    """Dense integer view of one :class:`ASGraph` epoch.

    ASNs are mapped to contiguous indices in ascending ASN order, so
    comparing indices is equivalent to comparing ASNs (the routing
    tie-break). Each relationship class is stored as CSR adjacency with
    neighbor indices sorted ascending.
    """

    __slots__ = ("epoch", "n", "asns", "index_of",
                 "prov_indptr", "prov_indices",
                 "peer_indptr", "peer_indices",
                 "cust_indptr", "cust_indices")

    def __init__(self, graph: ASGraph) -> None:
        providers, customers, peers = graph.adjacency()
        self.epoch = graph.epoch
        asn_list = sorted(providers)
        self.n = len(asn_list)
        self.asns = np.asarray(asn_list, dtype=np.int64)
        self.index_of = {asn: i for i, asn in enumerate(asn_list)}
        self.prov_indptr, self.prov_indices = self._csr(providers, asn_list)
        self.cust_indptr, self.cust_indices = self._csr(customers, asn_list)
        self.peer_indptr, self.peer_indices = self._csr(peers, asn_list)

    def _csr(self, adjacency: Dict[int, Set[int]], asn_list: List[int]
             ) -> Tuple[np.ndarray, np.ndarray]:
        index_of = self.index_of
        indptr = np.zeros(len(asn_list) + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        total = 0
        for i, asn in enumerate(asn_list):
            neighbors = adjacency[asn]
            if neighbors:
                row = np.fromiter((index_of[b] for b in neighbors),
                                  dtype=np.int64, count=len(neighbors))
                row.sort()
                chunks.append(row)
                total += row.size
            indptr[i + 1] = total
        indices = (np.concatenate(chunks) if chunks
                   else np.empty(0, dtype=np.int64))
        return indptr, indices


_INDEX_CACHE: "WeakKeyDictionary[ASGraph, _GraphIndex]" = WeakKeyDictionary()


def _graph_index(graph: ASGraph) -> _GraphIndex:
    """The dense index for the graph's current epoch (cached)."""
    index = _INDEX_CACHE.get(graph)
    if index is None or index.epoch != graph.epoch:
        index = _GraphIndex(graph)
        _INDEX_CACHE[graph] = index
    return index


# ---------------------------------------------------------------------------
# Dense three-phase propagation
# ---------------------------------------------------------------------------

def _expand_frontier(indptr: np.ndarray, indices: np.ndarray,
                     frontier: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """All (target, parent) edge endpoints leaving ``frontier`` nodes."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    parents = np.repeat(frontier, counts)
    starts = np.repeat(indptr[frontier], counts)
    offsets = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    return indices[starts + offsets], parents


def _best_per_target(targets: np.ndarray, parents: np.ndarray,
                     lens: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray,
                                Optional[np.ndarray]]:
    """Per target, the candidate with (lowest length,) lowest parent ASN.

    Index order equals ASN order, so selecting the minimal parent index
    reproduces the reference's lowest-next-hop-ASN tie-break exactly.
    """
    if lens is None:
        order = np.lexsort((parents, targets))
    else:
        order = np.lexsort((parents, lens, targets))
    t_sorted = targets[order]
    keep = np.ones(t_sorted.size, dtype=bool)
    keep[1:] = t_sorted[1:] != t_sorted[:-1]
    best_targets = t_sorted[keep]
    best_parents = parents[order][keep]
    best_lens = lens[order][keep] if lens is not None else None
    return best_targets, best_parents, best_lens


def _propagate(index: _GraphIndex, origin_idxs: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the three valley-free phases over dense per-node arrays.

    Returns ``(kind, path_len, parent, origin)`` arrays of length ``n``;
    ``parent[i]`` is the index of the next hop toward the origin (``-1``
    for origins and unreached nodes), and ``origin[i]`` the index of the
    winning anycast origin. Because each phase assigns routes in strictly
    increasing path-length order and resolves same-length ties by lowest
    parent index (== lowest next-hop ASN), the per-node winners — and the
    paths recovered by walking ``parent`` — are identical to the
    tuple-based reference implementation.
    """
    n = index.n
    kind = np.full(n, _KIND_NONE, dtype=np.int8)
    path_len = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int64)
    origin = np.full(n, -1, dtype=np.int64)

    kind[origin_idxs] = RouteKind.ORIGIN.value
    path_len[origin_idxs] = 0
    origin[origin_idxs] = origin_idxs

    # Phase 1: customer routes, level-synchronous BFS over c2p links.
    frontier = origin_idxs
    length = 0
    while frontier.size:
        targets, parents = _expand_frontier(
            index.prov_indptr, index.prov_indices, frontier)
        targets, parents, __ = _best_per_target(targets, parents)
        fresh = kind[targets] == _KIND_NONE
        targets, parents = targets[fresh], parents[fresh]
        length += 1
        kind[targets] = RouteKind.CUSTOMER.value
        path_len[targets] = length
        parent[targets] = parents
        origin[targets] = origin[parents]
        frontier = targets

    # Phase 2: peer routes — cross one peering link from any AS holding
    # an origin or customer route. All candidates are materialized at
    # once, so phase-2 routes never chain across two peer links.
    uphill = np.flatnonzero((kind == RouteKind.ORIGIN.value)
                            | (kind == RouteKind.CUSTOMER.value))
    if uphill.size:
        targets, parents = _expand_frontier(
            index.peer_indptr, index.peer_indices, uphill)
        if targets.size:
            lens = path_len[parents].astype(np.int64) + 1
            targets, parents, lens = _best_per_target(targets, parents,
                                                      lens)
            fresh = kind[targets] == _KIND_NONE
            targets, parents, lens = (targets[fresh], parents[fresh],
                                      lens[fresh])
            kind[targets] = RouteKind.PEER.value
            path_len[targets] = lens
            parent[targets] = parents
            origin[targets] = origin[parents]

    # Phase 3: provider routes, BFS downward from every route holder,
    # processed in increasing path-length order so shorter provider
    # routes win before longer ones are considered.
    holders = np.flatnonzero(kind != _KIND_NONE)
    buckets: Dict[int, List[np.ndarray]] = {}
    for level in np.unique(path_len[holders]):
        members = holders[path_len[holders] == level]
        buckets[int(level)] = [members]
    length = 0
    max_length = max(buckets) if buckets else -1
    while length <= max_length:
        parts = buckets.pop(length, None)
        if parts:
            frontier = parts[0] if len(parts) == 1 else \
                np.unique(np.concatenate(parts))
            targets, parents = _expand_frontier(
                index.cust_indptr, index.cust_indices, frontier)
            targets, parents, __ = _best_per_target(targets, parents)
            fresh = kind[targets] == _KIND_NONE
            targets, parents = targets[fresh], parents[fresh]
            if targets.size:
                kind[targets] = RouteKind.PROVIDER.value
                path_len[targets] = length + 1
                parent[targets] = parents
                origin[targets] = origin[parents]
                buckets.setdefault(length + 1, []).append(targets)
                max_length = max(max_length, length + 1)
        length += 1

    return kind, path_len, parent, origin


# ---------------------------------------------------------------------------
# RouteTable: the dense, dict-like result object
# ---------------------------------------------------------------------------

class RouteTable:
    """Best routes from every AS toward one origin set.

    Backed by the dense per-node arrays of :func:`_propagate`; behaves
    like the ``Dict[int, Route]`` the old API returned (``in``, ``len``,
    iteration over holder ASNs, ``get``/``[]``, ``keys``/``values``/
    ``items``) while adding cheap scalar accessors (:meth:`origin_of`,
    :meth:`path_of`, :meth:`kind_of`, :meth:`length_of`,
    :meth:`penultimate_of`) and bulk APIs (:meth:`paths_for`,
    :meth:`walk_paths`, :meth:`holders`) that avoid per-route object
    creation. Path tuples
    are materialized lazily from parent pointers and memoized.
    """

    __slots__ = ("_index", "_kind", "_path_len", "_parent", "_origin",
                 "_holder_idxs", "_memo")

    def __init__(self, index: _GraphIndex, kind: np.ndarray,
                 path_len: np.ndarray, parent: np.ndarray,
                 origin: np.ndarray) -> None:
        self._index = index
        self._kind = kind
        self._path_len = path_len
        self._parent = parent
        self._origin = origin
        self._holder_idxs = np.flatnonzero(kind != _KIND_NONE)
        self._memo: Dict[int, Tuple[int, ...]] = {}

    # -- internal ---------------------------------------------------------

    def _idx_of(self, asn: int) -> int:
        """Dense index of ``asn`` if it holds a route, else ``-1``."""
        i = self._index.index_of.get(asn, -1)
        if i < 0 or self._kind[i] == _KIND_NONE:
            return -1
        return i

    def _materialize(self, i: int) -> Tuple[int, ...]:
        """Path tuple for holder index ``i`` (memoized, suffix-shared)."""
        memo = self._memo
        asns = self._index.asns
        parent = self._parent
        stack: List[int] = []
        j = i
        while j >= 0 and j not in memo:
            stack.append(j)
            j = int(parent[j])
        suffix = memo[j] if j >= 0 else ()
        for k in reversed(stack):
            suffix = (int(asns[k]),) + suffix
            memo[k] = suffix
        return suffix

    @property
    def nbytes(self) -> int:
        """Resident bytes of this table's dense arrays (memo excluded).

        The memoized path tuples are deliberately left out: they are a
        demand-paged cache whose size tracks the caller's access
        pattern, not the table itself.
        """
        return int(self._kind.nbytes + self._path_len.nbytes
                   + self._parent.nbytes + self._origin.nbytes
                   + self._holder_idxs.nbytes)

    # -- dict-like interface ----------------------------------------------

    def __len__(self) -> int:
        return int(self._holder_idxs.size)

    def __iter__(self) -> Iterator[int]:
        asns = self._index.asns
        for i in self._holder_idxs:
            yield int(asns[i])

    def __contains__(self, asn: object) -> bool:
        try:
            return self._idx_of(asn) >= 0  # type: ignore[arg-type]
        except TypeError:
            return False

    def __getitem__(self, asn: int) -> Route:
        i = self._idx_of(asn)
        if i < 0:
            raise KeyError(asn)
        return Route(_table=self, _idx=i)

    def get(self, asn: int, default: Optional[Route] = None
            ) -> Optional[Route]:
        """Route held by ``asn``, or ``default`` if unreachable."""
        i = self._idx_of(asn)
        return Route(_table=self, _idx=i) if i >= 0 else default

    def keys(self) -> Iterator[int]:
        """Holder ASNs (ascending)."""
        return iter(self)

    def values(self) -> Iterator[Route]:
        """Routes, in ascending holder-ASN order."""
        for i in self._holder_idxs:
            yield Route(_table=self, _idx=int(i))

    def items(self) -> Iterator[Tuple[int, Route]]:
        """(holder ASN, route) pairs, in ascending holder-ASN order."""
        asns = self._index.asns
        for i in self._holder_idxs:
            yield int(asns[i]), Route(_table=self, _idx=int(i))

    # -- scalar accessors (no Route object, no path materialization) ------

    def origin_of(self, asn: int) -> Optional[int]:
        """Winning (anycast) origin for ``asn``, or None if unreachable."""
        i = self._idx_of(asn)
        return int(self._index.asns[self._origin[i]]) if i >= 0 else None

    def kind_of(self, asn: int) -> Optional[RouteKind]:
        """Local-pref class of ``asn``'s route, or None if unreachable."""
        i = self._idx_of(asn)
        return _KINDS[int(self._kind[i])] if i >= 0 else None

    def length_of(self, asn: int) -> Optional[int]:
        """AS-hop count of ``asn``'s route, or None if unreachable."""
        i = self._idx_of(asn)
        return int(self._path_len[i]) if i >= 0 else None

    def path_of(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to its origin, or None if unreachable."""
        i = self._idx_of(asn)
        return self._materialize(i) if i >= 0 else None

    def penultimate_of(self, asn: int) -> Optional[int]:
        """``path[-2]`` — the AS handing traffic to the origin.

        None when the holder is unreachable or is itself the origin.
        Walks parent pointers without materializing the path tuple.
        """
        i = self._idx_of(asn)
        if i < 0:
            return None
        parent = self._parent
        if parent[i] < 0:
            return None  # the holder is an origin: no handoff AS
        j = i
        while parent[parent[j]] >= 0:
            j = int(parent[j])
        return int(self._index.asns[j])

    # -- bulk APIs ---------------------------------------------------------

    def paths_for(self, srcs: Iterable[int]
                  ) -> Dict[int, Optional[Tuple[int, ...]]]:
        """AS paths for many sources at once (None for unreachable)."""
        out: Dict[int, Optional[Tuple[int, ...]]] = {}
        for asn in srcs:
            i = self._idx_of(asn)
            out[asn] = self._materialize(i) if i >= 0 else None
        return out

    def walk_paths(self, srcs: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every hop of many sources' paths, walked in lockstep.

        ``srcs`` is an array of ASNs. Returns ``(rows, hops, nexts)``
        with one entry per AS on each routed source's path: ``rows``
        indexes ``srcs``, ``hops`` is the AS and ``nexts`` the AS it
        hands traffic to (``-1`` at the origin). Entries come source by
        source, each path in :meth:`path_of` order; a source holding no
        route has none. Follows the parent pointers of all paths one
        step at a time, without building path tuples.
        """
        asns = self._index.asns
        srcs = np.asarray(srcs, dtype=np.int64)
        pos = np.minimum(np.searchsorted(asns, srcs), len(asns) - 1)
        held = (asns[pos] == srcs) & (self._kind[pos] != _KIND_NONE)
        row = np.flatnonzero(held)
        cur = pos[row]
        count = self._path_len[cur].astype(np.int64) + 1
        at = np.cumsum(count) - count
        hops = np.empty(int(count.sum()), dtype=np.int64)
        nexts = np.empty_like(hops)
        parent = self._parent
        while cur.size:
            nxt = parent[cur]
            hops[at] = cur
            nexts[at] = nxt
            keep = nxt >= 0
            cur, at = nxt[keep], at[keep] + 1
        return (np.repeat(row, count), asns[hops],
                np.where(nexts >= 0, asns[nexts], -1))

    def holders(self) -> np.ndarray:
        """ASNs holding a route, ascending (dense bulk view)."""
        return self._index.asns[self._holder_idxs]

    def holder_set(self) -> Set[int]:
        """ASNs holding a route, as a plain set of ints."""
        return {int(a) for a in self._index.asns[self._holder_idxs]}


def compute_routes(graph: ASGraph, origins: Sequence[int]) -> RouteTable:
    """Best route from every AS that can reach any of ``origins``.

    Unreachable ASes are absent from the result. With multiple origins
    the announcement is anycast: each AS reaches exactly one winning
    origin.

    Returns a :class:`RouteTable` — a lazy mapping view over dense
    parent/origin arrays, not a plain dict of :class:`Route` objects.
    It supports the read-only mapping protocol (``table[asn]``,
    ``.get``, ``in``, ``len``, iteration) plus cheap accessors that skip
    :class:`Route` construction: ``path_of(asn)`` / ``origin_of(asn)`` /
    ``length_of(asn)`` per AS, ``paths_for(asns)`` for bulk path dicts,
    and ``holders()`` / ``holder_set()`` for the reachable set. Paths
    are materialized only when asked for. Route selection is
    bit-identical to the tuple-based oracle in
    ``tests/routing_reference.py``.
    """
    if not origins:
        raise TopologyError("need at least one origin")
    index = _graph_index(graph)
    origin_idxs = []
    for asn in sorted(set(origins)):
        i = index.index_of.get(asn)
        if i is None:
            raise TopologyError(f"origin ASN {asn} not in graph")
        origin_idxs.append(i)
    arrays = _propagate(index, np.asarray(origin_idxs, dtype=np.int64))
    return RouteTable(index, *arrays)


# ---------------------------------------------------------------------------
# Simulator with a bounded, instrumented route cache
# ---------------------------------------------------------------------------


class BgpSimulator:
    """Per-origin-set route cache over a (mostly static) AS graph.

    The cache is a bounded LRU: at most ``max_cache_entries`` origin sets
    are kept, so long anycast sweeps no longer grow memory without limit.
    Entries are implicitly keyed on the graph's mutation epoch — editing
    the topology makes every cached table unreachable without any caller
    having to remember to :meth:`invalidate`.
    """

    def __init__(self, graph: ASGraph, max_cache_entries: int = 256,
                 recorder=None) -> None:
        if max_cache_entries < 1:
            raise TopologyError("max_cache_entries must be >= 1")
        self._graph = graph
        self._recorder = _resolve_recorder(recorder)
        self._cache: "BoundedLru[FrozenSet[int], RouteTable]" = BoundedLru(
            max_cache_entries, recorder=self._recorder,
            counter_prefix="routing.cache")
        self._cache_epoch = graph.epoch

    def attach_recorder(self, recorder) -> None:
        """Mirror cache hit/miss/eviction and route-computation counters
        onto a :class:`repro.obs.Recorder` (observation only)."""
        self._recorder = _resolve_recorder(recorder)
        self._cache.attach_recorder(self._recorder)

    @property
    def graph(self) -> ASGraph:
        return self._graph

    def invalidate(self) -> None:
        """Drop cached routes explicitly.

        Not required for correctness — graph mutations bump the epoch and
        orphan stale entries automatically — but frees memory immediately.
        """
        self._cache.clear()

    def cache_stats(self) -> CacheStats:
        """Current cache counters (entries, hits, misses, evictions)."""
        return self._cache.cache_stats()

    def cache_memory_bytes(self) -> int:
        """Resident bytes of all cached route tables' dense arrays.

        Feeds the ``mem.routing.cache.resident_bytes`` gauge of
        memory-profiled builds (``BuilderOptions.profile_memory``).
        """
        return sum(table.nbytes for table in self._cache.values())

    def routes_to(self, origins: Iterable[int]) -> RouteTable:
        """Best routes from every AS toward the origin set (cached)."""
        epoch = self._graph.epoch
        if epoch != self._cache_epoch:
            self._cache.clear()  # stale epoch: nothing can hit again
            self._cache_epoch = epoch
        key = frozenset(origins)
        table = self._cache.get(key)
        if table is not None:
            return table
        table = compute_routes(self._graph, sorted(key))
        self._recorder.count("routing.routes_computed")
        self._recorder.count("routing.ases_visited", len(table))
        self._cache.put(key, table)
        return table

    def route(self, src: int, dst: int) -> Optional[Route]:
        """Best route from ``src`` to ``dst`` (None if unreachable)."""
        return self.routes_to([dst]).get(src)

    def path(self, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``src`` to ``dst`` (None if unreachable)."""
        return self.routes_to([dst]).path_of(src)

    def paths_from(self, src: int, dsts: Sequence[int]
                   ) -> Dict[int, Optional[Tuple[int, ...]]]:
        """AS path from ``src`` to each destination (None = unreachable).

        Each destination is its own origin set, so this is a convenience
        loop over the per-destination cache — useful for traceroute-style
        campaigns measuring out from one vantage point.
        """
        return {dst: self.routes_to([dst]).path_of(src) for dst in dsts}

    def catchment(self, src: int, origins: Iterable[int]) -> Optional[int]:
        """Which anycast origin ``src``'s best route reaches."""
        return self.routes_to(origins).origin_of(src)
