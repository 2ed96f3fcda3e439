"""Hot Calling-Context Tree (HCCT): context-sensitive profile model.

The flat profile answers "how hot is ``fftXYZ``"; the calling-context
tree answers "how hot is ``fftXYZ`` *when called from* ``evolve``" — the
question a hot-spot tool exists to answer.  Each tree node is one
calling context (the path of function names from the root), carrying
exclusive (top-of-stack) seconds, activation counts, and per-sensor
:class:`~repro.core.streamprof.OnlineStats` for the thermal samples
taken while that context was on top.  Inclusive time is *derived*
bottom-up (a node's exclusive plus its children's inclusive), so the
tree invariants — inclusive ≥ exclusive, a child's inclusive never
exceeds its parent's — hold by construction on any tree this module
builds.

**Space-saving budget.**  Full CCTs grow with the number of distinct
contexts; the HCCT (D'Elia et al., PLDI'11) keeps memory bounded by the
number of *hot* contexts instead.  A tree created with ``budget=B``
prunes itself back to at most ``B`` contexts at every chunk boundary
(:meth:`ContextTree.end_chunk`): the coldest unpinned leaves — ordered
by ``exclusive + error``, ties broken by path — are evicted until the
budget holds.  Eviction follows the space-saving discipline:

* ``epsilon_s`` records the largest weight ever evicted;
* a context (re)created after evictions starts with
  ``error_s = epsilon_s`` — its earlier incarnation may have carried up
  to that much exclusive time before being dropped;
* therefore every node's **true** exclusive time lies in
  ``[excl_s, excl_s + error_s]``: the recorded value never overcounts,
  and undercounts by at most ``error_s``.

Any context whose true exclusive time exceeds ``epsilon_s`` is
guaranteed to be present (its counter could never have been the
minimum at eviction time once it outgrew every evicted weight), which
is why top-k hot-path queries over a budgeted tree match the exact
unbounded CCT whenever the k-th hot path clears ``epsilon_s`` — the
property ``benchmarks/test_hcct_scale.py`` gates.

**Merge algebra.**  Trees merge by structural union
(:meth:`ContextTree.merge`): per-context exclusive seconds, call counts
and error bounds are additive, per-sensor estimators merge via
:meth:`OnlineStats.merge`, contexts present on only one side inherit
the other side's ``epsilon_s`` as extra error (it may have evicted
them), and the merged ``epsilon_s`` is the sum of both.  The merge of
two budgeted trees is pruned back to the budget, so budgeted trees are
*closed* under merge.  Like the PR 7 summary laws the operation is
commutative and (absent eviction) associative — times and counts
exactly, estimator moments up to summation-order rounding — with the
empty tree as a two-sided identity; ``tests/core/test_cct.py``
property-tests all of it.

**Flat projection.**  Summing ``excl_s``/``calls`` over every context
of a function reproduces the flat profile's exclusive time and call
count *exactly* when nothing was evicted, and within the summed error
bounds otherwise — the flat profile is a projection of the tree, not a
separate account (``flat_projection``).  Per-function *inclusive* time
is intentionally not additive across contexts (recursive functions
appear in nested contexts whose subtree times overlap), so inclusive
queries go through paths, not the projection.

**Batched updates.**  The streaming engine interns a chunk's contexts
one depth level at a time: a round takes the ENTERs whose parent
context is known and calls :meth:`ContextTree.intern` once per
distinct ``(parent, name)``; the chunk's calls count in one
``bincount``.  :meth:`ContextTree.prune_to_budget` heaps only the
eviction candidates: a prune evicting ``k`` contexts pops exactly ``k``
times, and a leaf heavier than the k-th lightest leaf has ``k``
strictly smaller keys ahead of it from the start, so leaving it off
the heap cannot change the pop order.

**Context ids are internal.**  Which cid a context gets depends on the
interning order (and on which freed slot is recycled), so the batched
commit and an event-at-a-time replay may number the same tree
differently.  Nothing observable depends on it: eviction and every
ranking tie on the path, never the cid, and ``to_dict`` renumbers.

Serialization (``to_dict``/``from_dict``) round-trips bit-exactly:
nodes are renumbered into a dense breadth-first order and every float
crosses JSON via ``repr``.  ``from_dict`` refuses a document that
repeats a node id or a context, or carries a negative call count or a
NaN/inf time, error or epsilon.  The node row layout is
drift-documented in ``docs/INTERNALS.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.core.profilemodel import hottest_first
from repro.core.streamprof import OnlineStats
from repro.util.errors import TraceError

__all__ = [
    "HCCT_ROOT",
    "NODE_ROW_FIELDS",
    "ContextNode",
    "ContextTree",
    "hottest_first",
]

#: name of the virtual root context (cid 0; never evicted, never credited)
HCCT_ROOT = "<root>"

#: serialized node-row field order (drift-tested against INTERNALS.md)
NODE_ROW_FIELDS = ("id", "parent", "name", "excl_s", "calls", "error_s",
                   "stats")

_INITIAL_CIDS = 64


def _seconds(value, what: str) -> float:
    """*value* as a float, or ``ValueError`` unless finite and >= 0."""
    v = float(value)
    if not 0.0 <= v < np.inf:
        raise ValueError(f"{what} is {'negative' if v < 0 else 'non-finite'}"
                         f": {v!r}")
    return v


class ContextNode:
    """One calling context: a read-only view over a tree node.

    ``path`` is the tuple of function names from the root (root
    excluded); ``excl_s``/``calls`` are the recorded exclusive seconds
    and activation count; ``error_s`` bounds the undercount introduced
    by space-saving eviction (true exclusive ∈ ``[excl_s, excl_s +
    error_s]``); ``incl_s`` is the derived subtree (inclusive) time;
    ``stats`` maps sensor name → :class:`OnlineStats` for samples taken
    while this exact context topped the stack.
    """

    __slots__ = ("path", "excl_s", "incl_s", "calls", "error_s", "stats")

    def __init__(self, path, excl_s, incl_s, calls, error_s, stats):
        self.path = path
        self.excl_s = excl_s
        self.incl_s = incl_s
        self.calls = calls
        self.error_s = error_s
        self.stats = stats

    @property
    def function(self) -> str:
        return self.path[-1] if self.path else HCCT_ROOT

    @property
    def weight_s(self) -> float:
        """The space-saving ranking weight (exclusive upper bound)."""
        return self.excl_s + self.error_s

    def __repr__(self):
        return (f"ContextNode({'>'.join(self.path)!r}, "
                f"excl={self.excl_s:.6f}s, incl={self.incl_s:.6f}s, "
                f"calls={self.calls}, err={self.error_s:.6f}s)")


class ContextTree:
    """A mergeable, budget-bounded calling-context tree.

    Storage is columnar — parallel arrays indexed by dense context id
    (cid), with cid 0 the virtual root — so the streaming engine's
    vectorized path can reduce exclusive-time segments with one
    ``np.add.at`` exactly like its flat arrays.  Freed cids are
    recycled, keeping the arrays O(budget) however many contexts churn
    through.
    """

    def __init__(self, sensor_names: Optional[list[str]] = None, *,
                 budget: Optional[int] = None):
        if budget is not None:
            budget = int(budget)
            if budget < 1:
                raise TraceError(f"hcct budget must be >= 1, got {budget}")
        self.budget = budget
        self.sensor_names: list[str] = list(sensor_names or [])
        cap = _INITIAL_CIDS
        self._names: list[Optional[str]] = [HCCT_ROOT]
        self._parents: list[int] = [-1]
        self._children: list[Optional[dict[str, int]]] = [{}]
        self._excl = np.zeros(cap)
        self._calls = np.zeros(cap, dtype=np.int64)
        self._error = np.zeros(cap)
        self._free: list[int] = []
        #: per-(cid, sensor index) sample estimators
        self.stats: dict[tuple[int, int], OnlineStats] = {}
        #: largest weight ever evicted (the space-saving error floor)
        self.epsilon_s = 0.0
        #: exact total exclusive seconds ever credited (eviction-proof)
        self.total_excl_s = 0.0
        self.n_evicted = 0
        #: most contexts ever live at once (chunk-boundary granularity)
        self.peak_live = 0
        self._n_live = 0            # contexts, root excluded

    # ------------------------------------------------------------------
    # Construction

    def __len__(self) -> int:
        """Number of live contexts (the root does not count)."""
        return self._n_live

    def _grow_to(self, need: int) -> None:
        cap = len(self._excl)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for attr in ("_excl", "_calls", "_error"):
            old = getattr(self, attr)
            new = np.zeros(cap, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, attr, new)

    def sensor_index(self, name: str) -> int:
        """Dense index of *name*, registering it on first use."""
        try:
            return self.sensor_names.index(name)
        except ValueError:
            self.sensor_names.append(name)
            return len(self.sensor_names) - 1

    def intern(self, parent: int, name: str) -> int:
        """The cid of context ``parent → name``, creating it if new.

        A context created after any eviction inherits ``error_s =
        epsilon_s``: an earlier incarnation may have accrued (and lost)
        up to that much exclusive time.
        """
        kids = self._children[parent]
        if kids is None:
            raise TraceError(f"intern under freed context id {parent}")
        cid = kids.get(name)
        if cid is not None:
            return cid
        if self._free:
            cid = self._free.pop()
            self._names[cid] = name
            self._parents[cid] = parent
            self._children[cid] = {}
            self._excl[cid] = 0.0
            self._calls[cid] = 0
            self._error[cid] = self.epsilon_s
        else:
            cid = len(self._names)
            self._names.append(name)
            self._parents.append(parent)
            self._children.append({})
            self._grow_to(cid + 1)
            self._error[cid] = self.epsilon_s
        kids[name] = cid
        self._n_live += 1
        return cid

    def record_call(self, cid: int, n: int = 1) -> None:
        self._calls[cid] += n

    def add_excl(self, cid: int, dt: float) -> None:
        self._excl[cid] += dt
        self.total_excl_s += dt

    def add_excl_at(self, cids: np.ndarray, dts: np.ndarray) -> None:
        """Bulk exclusive credit (stream-ordered ``np.add.at``).

        Applied in index order like the flat engine's segment reduction,
        so per-context float accumulation stays bit-identical to
        scalar crediting in the same stream order.
        """
        np.add.at(self._excl, cids, dts)
        self.total_excl_s += float(dts.sum())

    def push_sample(self, cid: int, sidx: int, value: float) -> None:
        key = (cid, sidx)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = OnlineStats()
        st.push(value)

    def push_samples(self, cid: int, sidx: int, values: np.ndarray) -> None:
        key = (cid, sidx)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = OnlineStats()
        st.push_many(values)

    # ------------------------------------------------------------------
    # Space-saving eviction

    def path_of(self, cid: int) -> tuple[str, ...]:
        parts = []
        while cid > 0:
            parts.append(self._names[cid])
            cid = self._parents[cid]
        return tuple(reversed(parts))

    def prune_to_budget(self, *, pinned: Optional[set[int]] = None,
                        budget: Optional[int] = None) -> int:
        """Evict coldest unpinned leaves until ≤ *budget* contexts live.

        Eviction order is deterministic: ascending ``(excl + error,
        path)``.  Pinned cids (contexts still open on some process's
        stack) are never evicted — their ancestors are interior nodes
        and therefore safe automatically.  Returns the eviction count.

        Only the ``k = live − budget`` pops can happen, so only leaves
        weighing at most the k-th lightest leaf go on the heap: each
        other leaf has at least ``k`` strictly smaller keys ahead of it
        from the start, and cannot surface before they are all popped.
        A parent left childless is pushed when it becomes a leaf.
        """
        limit = self.budget if budget is None else budget
        if limit is None or self._n_live <= limit:
            return 0
        pinned = pinned or set()
        import heapq

        k = self._n_live - limit
        names, parents, children = self._names, self._parents, self._children
        n = len(names)
        par = np.array(parents, dtype=np.int64)
        live = par >= 0
        leaf = live & (np.bincount(par[live], minlength=n) == 0)
        if pinned:
            leaf[list(pinned)] = False
        weight = self._excl[:n] + self._error[:n]
        leaves = np.nonzero(leaf)[0]
        if len(leaves) > k:
            lw = weight[leaves]
            leaves = leaves[lw <= np.partition(lw, k - 1)[k - 1]]
        heap = [(float(weight[cid]), self.path_of(cid), cid)
                for cid in leaves.tolist()]
        heapq.heapify(heap)
        evicted: list[int] = []
        while len(evicted) < k and heap:
            _w, _path, cid = heapq.heappop(heap)
            parent = parents[cid]
            kids = children[parent]
            del kids[names[cid]]
            names[cid] = None
            parents[cid] = -1
            children[cid] = None
            evicted.append(cid)
            if parent > 0 and not kids and parent not in pinned:
                heapq.heappush(heap, (float(weight[parent]),
                                      self.path_of(parent), parent))
        if evicted:
            gone = np.array(evicted, dtype=np.int64)
            self.epsilon_s = max(self.epsilon_s, float(weight[gone].max()))
            self._excl[gone] = 0.0
            self._calls[gone] = 0
            self._error[gone] = 0.0
            for cid in evicted:
                for sidx in range(len(self.sensor_names)):
                    self.stats.pop((cid, sidx), None)
            self._free.extend(evicted)
            self._n_live -= len(evicted)
            self.n_evicted += len(evicted)
        return len(evicted)

    def end_chunk(self, *, pinned: Optional[set[int]] = None) -> None:
        """Chunk-boundary bookkeeping: prune to budget, track the peak.

        The budget is enforced at chunk granularity — within a chunk the
        tree may transiently exceed it by that chunk's new contexts;
        every boundary restores ``len(tree) ≤ budget`` (modulo pinned
        open contexts, which the next boundary reclaims once closed).
        """
        self.prune_to_budget(pinned=pinned)
        if self._n_live > self.peak_live:
            self.peak_live = self._n_live

    # ------------------------------------------------------------------
    # Queries

    def live_cids(self) -> list[int]:
        """Live context ids in deterministic breadth-first path order."""
        out: list[int] = []
        queue = deque([0])
        while queue:
            cid = queue.popleft()
            if cid:
                out.append(cid)
            kids = self._children[cid]
            if kids:
                queue.extend(cid2 for _, cid2 in sorted(kids.items()))
        return out

    def inclusive_s(self) -> dict[int, float]:
        """Derived per-context inclusive seconds (exclusive + subtree).

        Computed bottom-up, so ``incl ≥ excl`` and ``Σ child incl ≤
        parent incl`` hold by construction; eviction makes a parent's
        inclusive undercount by at most the evicted subtree weights
        (bounded by the summed ``error_s``).
        """
        order = self.live_cids()
        incl = {cid: float(self._excl[cid]) for cid in order}
        incl[0] = float(self._excl[0])
        for cid in reversed(order):
            incl[self._parents[cid]] += incl[cid]
        return incl

    def node(self, cid: int) -> ContextNode:
        return ContextNode(
            path=self.path_of(cid),
            excl_s=float(self._excl[cid]),
            incl_s=self.inclusive_s()[cid],
            calls=int(self._calls[cid]),
            error_s=float(self._error[cid]),
            stats={
                self.sensor_names[sidx]: self.stats[(cid, sidx)]
                for sidx in range(len(self.sensor_names))
                if (cid, sidx) in self.stats
            },
        )

    def hot_paths(self, k: int = 10) -> list[ContextNode]:
        """The top-*k* contexts by exclusive weight (``excl + error``).

        Ranking uses the space-saving upper bound so a context whose
        recorded time undercounts (because an earlier incarnation was
        evicted) cannot be unfairly outranked; ties break by path via
        :func:`hottest_first`.
        """
        incl = self.inclusive_s()
        cids = self.live_cids()
        weight = {cid: float(self._excl[cid] + self._error[cid])
                  for cid in cids}
        paths = {self.path_of(cid): cid for cid in cids}
        ranked = hottest_first(paths, lambda p: weight[paths[p]])
        out = []
        for path in ranked[: max(0, int(k))]:
            cid = paths[path]
            out.append(ContextNode(
                path=path,
                excl_s=float(self._excl[cid]),
                incl_s=incl[cid],
                calls=int(self._calls[cid]),
                error_s=float(self._error[cid]),
                stats={
                    self.sensor_names[sidx]: self.stats[(cid, sidx)]
                    for sidx in range(len(self.sensor_names))
                    if (cid, sidx) in self.stats
                },
            ))
        return out

    def flat_projection(self) -> dict[str, tuple[float, int]]:
        """Per-function ``(exclusive seconds, calls)`` summed over
        contexts — exactly the flat profile when ``n_evicted == 0``,
        within the summed error bounds otherwise."""
        out: dict[str, tuple[float, int]] = {}
        for cid in self.live_cids():
            name = self._names[cid]
            excl, calls = out.get(name, (0.0, 0))
            out[name] = (excl + float(self._excl[cid]),
                         calls + int(self._calls[cid]))
        return out

    def function_contexts(self, name: str) -> list[ContextNode]:
        """Every live context whose function is *name*, hottest first."""
        return [n for n in self.hot_paths(len(self) or 1)
                if n.function == name]

    # ------------------------------------------------------------------
    # Algebra

    def clone(self) -> "ContextTree":
        out = ContextTree(self.sensor_names, budget=self.budget)
        out._names = list(self._names)
        out._parents = list(self._parents)
        out._children = [None if kids is None else dict(kids)
                         for kids in self._children]
        out._excl = self._excl.copy()
        out._calls = self._calls.copy()
        out._error = self._error.copy()
        out._free = list(self._free)
        out.stats = {k: st.clone() for k, st in self.stats.items()}
        out.epsilon_s = self.epsilon_s
        out.total_excl_s = self.total_excl_s
        out.n_evicted = self.n_evicted
        out.peak_live = self.peak_live
        out._n_live = self._n_live
        return out

    def merge(self, other: "ContextTree") -> None:
        """Fold another tree in, in place (the space-saving union).

        Per-context times, calls and error bounds add; a context present
        on only one side inherits the other side's ``epsilon_s`` as
        extra error (that side may have evicted it); the merged
        ``epsilon_s`` adds; the result re-prunes to this tree's budget,
        so budgeted trees are closed under merge.  Commutative (and,
        absent eviction, associative) to the PR 7 tolerances: structure,
        times, counts and errors exactly; estimator moments up to
        summation-order rounding.
        """
        sidx_map = [self.sensor_index(s) for s in other.sensor_names]
        touched = {0}
        # BFS over the other tree (parents before children — required,
        # since recycled cids break numeric ordering).
        queue = deque([(0, 0)])
        while queue:
            o_cid, s_parent = queue.popleft()
            kids = other._children[o_cid]
            if kids:
                for name, o_kid in sorted(kids.items()):
                    s_kid = self.intern(s_parent, name)
                    # A context fresh on this side was seeded with our
                    # epsilon by intern; either way the other side's
                    # recorded error adds on top.
                    self._error[s_kid] += float(other._error[o_kid])
                    touched.add(s_kid)
                    self._excl[s_kid] += float(other._excl[o_kid])
                    self._calls[s_kid] += int(other._calls[o_kid])
                    for o_sidx, s_sidx in enumerate(sidx_map):
                        st = other.stats.get((o_kid, o_sidx))
                        if st is None:
                            continue
                        held = self.stats.get((s_kid, s_sidx))
                        if held is None:
                            self.stats[(s_kid, s_sidx)] = st.clone()
                        else:
                            held.merge(st)
                    queue.append((o_kid, s_kid))
        if other.epsilon_s:
            # Contexts the other side never saw (or evicted): widen.
            for cid in self.live_cids():
                if cid not in touched:
                    self._error[cid] += other.epsilon_s
        self.epsilon_s += other.epsilon_s
        self.total_excl_s += other.total_excl_s
        self.n_evicted += other.n_evicted
        self.prune_to_budget()
        if self._n_live > self.peak_live:
            self.peak_live = self._n_live

    # ------------------------------------------------------------------
    # Validation (the `tempest check` hook)

    def validate(self) -> list[str]:
        """Invariant violations, empty when the tree is sound.

        Checks structure (linkage, live accounting), value sanity
        (finite, non-negative times/calls/errors), the derived-inclusive
        relations (inclusive ≥ exclusive; children's inclusive ≤
        parent's), and the budget (live contexts ≤ budget).
        """
        problems: list[str] = []
        seen = 0
        for cid in range(1, len(self._names)):
            name = self._names[cid]
            if name is None:
                continue
            seen += 1
            parent = self._parents[cid]
            if parent < 0 or parent >= len(self._names) \
                    or self._names[parent] is None and parent != 0:
                problems.append(f"context {cid} has invalid parent "
                                f"{parent}")
                continue
            kids = self._children[parent]
            if not kids or kids.get(name) != cid:
                problems.append(
                    f"context {'>'.join(self.path_of(cid))!r}: parent "
                    "does not link back to it")
            for label, v in (("exclusive time", float(self._excl[cid])),
                             ("error bound", float(self._error[cid]))):
                if not 0.0 <= v < np.inf:
                    problems.append(
                        f"context {'>'.join(self.path_of(cid))!r}: "
                        f"{'negative' if v < 0 else 'non-finite'} "
                        f"{label} {v!r}")
            if self._calls[cid] < 0:
                problems.append(
                    f"context {'>'.join(self.path_of(cid))!r}: negative "
                    f"call count {int(self._calls[cid])}")
        for label, v in (("epsilon_s", self.epsilon_s),
                         ("total_excl_s", self.total_excl_s)):
            if not np.isfinite(v):
                problems.append(f"tree {label} is non-finite: {v!r}")
        if self.n_evicted < 0:
            problems.append(f"tree n_evicted is negative: {self.n_evicted}")
        if seen != self._n_live:
            problems.append(f"live-context accounting off: counted {seen}, "
                            f"recorded {self._n_live}")
        if self.budget is not None and self._n_live > self.budget:
            problems.append(f"{self._n_live} live contexts exceed the "
                            f"declared budget {self.budget}")
        incl = self.inclusive_s()
        for cid in self.live_cids():
            if incl[cid] < float(self._excl[cid]) - 1e-9:
                problems.append(
                    f"context {'>'.join(self.path_of(cid))!r}: inclusive "
                    f"{incl[cid]!r} < exclusive {float(self._excl[cid])!r}")
            kid_sum = sum(incl[k] for k in
                          (self._children[cid] or {}).values())
            if kid_sum > incl[cid] - float(self._excl[cid]) + 1e-9:
                problems.append(
                    f"context {'>'.join(self.path_of(cid))!r}: children's "
                    f"inclusive {kid_sum!r} exceeds available "
                    f"{incl[cid] - float(self._excl[cid])!r}")
        return problems

    # ------------------------------------------------------------------
    # Serialization (bit-exact; floats cross JSON via repr)

    def to_dict(self) -> dict:
        """Serialize with dense breadth-first renumbering.

        Node rows follow :data:`NODE_ROW_FIELDS`; parents always precede
        children, so :meth:`from_dict` rebuilds in one pass.
        """
        order = self.live_cids()
        remap = {0: 0}
        for i, cid in enumerate(order):
            remap[cid] = i + 1
        nodes = []
        for cid in order:
            per = {}
            for sidx, sname in enumerate(self.sensor_names):
                st = self.stats.get((cid, sidx))
                if st is not None and st.n:
                    per[sname] = st.to_state()
            nodes.append([
                remap[cid],
                remap[self._parents[cid]],
                self._names[cid],
                float(self._excl[cid]),
                int(self._calls[cid]),
                float(self._error[cid]),
                per,
            ])
        return {
            "sensor_names": list(self.sensor_names),
            "budget": self.budget,
            "epsilon_s": float(self.epsilon_s),
            "total_excl_s": float(self.total_excl_s),
            "n_evicted": int(self.n_evicted),
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ContextTree":
        try:
            out = cls([str(s) for s in obj.get("sensor_names", [])],
                      budget=obj.get("budget"))
            out.epsilon_s = _seconds(obj.get("epsilon_s", 0.0), "epsilon_s")
            out.n_evicted = int(obj.get("n_evicted", 0))
            if out.n_evicted < 0:
                raise ValueError(f"negative n_evicted {out.n_evicted}")
            remap = {0: 0}
            for row in obj.get("nodes", []):
                nid, parent, name, excl, calls, error, per = row
                nid, parent, name = int(nid), remap[int(parent)], str(name)
                if nid in remap:
                    raise ValueError(f"duplicate node id {nid}")
                if name in out._children[parent]:
                    raise ValueError(
                        f"node {nid} repeats context "
                        f"{'>'.join(out.path_of(parent) + (name,))!r}")
                if int(calls) < 0:
                    raise ValueError(f"node {nid}: negative call count "
                                     f"{int(calls)}")
                cid = out.intern(parent, name)
                remap[nid] = cid
                out._excl[cid] = _seconds(excl, f"node {nid} excl_s")
                out._calls[cid] = int(calls)
                out._error[cid] = _seconds(error, f"node {nid} error_s")
                for sname, state in per.items():
                    sidx = out.sensor_index(str(sname))
                    out.stats[(cid, sidx)] = OnlineStats.from_state(state)
            out.total_excl_s = _seconds(
                obj.get("total_excl_s", out._excl.sum()), "total_excl_s")
            return out
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise TraceError(f"malformed hcct document: {exc}")

    def to_comparable(self) -> dict:
        """Path-keyed structural view for equality assertions in tests."""
        return {
            self.path_of(cid): (
                float(self._excl[cid]),
                int(self._calls[cid]),
                float(self._error[cid]),
                {
                    self.sensor_names[sidx]:
                        self.stats[(cid, sidx)].to_state()
                    for sidx in range(len(self.sensor_names))
                    if (cid, sidx) in self.stats
                },
            )
            for cid in self.live_cids()
        }

    def __repr__(self):
        b = "unbounded" if self.budget is None else self.budget
        return (f"ContextTree({self._n_live} contexts, budget={b}, "
                f"eps={self.epsilon_s:.6f}s, evicted={self.n_evicted})")
