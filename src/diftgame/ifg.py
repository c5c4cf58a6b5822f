"""Information-flow graph ingestion, pruning, cycle removal, and synthesis.

An information-flow graph (IFG) records which system entities (processes,
files, sockets, network endpoints) can pass data to which others.  Raw
graphs extracted from system logs are noisy: they carry parallel edges,
cycles, and large benign regions that have nothing to do with an attack.
This module reduces such a raw graph to the small, acyclic, attack-relevant
graph the game layer consumes: nodes that sit on a flow path from an
adversary entry point to a first-stage target, or on a path between targets
of different stages.

Cycles are removed by node versioning: an edge that would close a cycle is
redirected to a fresh copy of its target, and copies grow further out-edges
only where some source-graph dependency would otherwise be lost.  The output
is always acyclic and preserves pairwise reachability between node versions.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

log = logging.getLogger(__name__)

NODE_KINDS = ("process", "file", "socket", "other")


class GraphLoadError(ValueError):
    """Malformed or schema-violating graph file."""


class InfeasibleGraphError(ValueError):
    """The requested attack structure cannot be realized on this graph."""


@dataclass(frozen=True)
class IfgNode:
    id: int
    kind: str
    label: str
    origin: int | None = None  # original node id for version copies


@dataclass
class RawLogGraph:
    """A log-derived graph: parallel edges allowed, cycles allowed.

    ``entries`` and ``destinations`` are carried along when known (the JSON
    schema includes them) but are not validated until an :class:`Ifg` is
    built.
    """

    nodes: list[IfgNode]
    edges: list[tuple[int, int]]
    entries: set[int] = field(default_factory=set)
    destinations: list[set[int]] = field(default_factory=list)
    self_loops_dropped: int = 0

    def node_ids(self) -> set[int]:
        return {n.id for n in self.nodes}

    def adjacency(self) -> dict[int, list[int]]:
        """Deduplicated out-neighbor lists, sorted for determinism."""
        adj: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
        return {u: sorted(vs) for u, vs in adj.items()}


@dataclass
class Ifg:
    """Pruned attack graph: simple, acyclic, dense ids, validated roles."""

    nodes: list[IfgNode]
    edges: set[tuple[int, int]]
    entries: set[int]
    destinations: list[set[int]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def stages(self) -> int:
        return len(self.destinations)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for u, v in sorted(self.edges):
            adj[u].append(v)
        return adj

    def validate(self) -> None:
        ids = [n.id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise GraphLoadError("node ids must be dense 0..N-1 and sorted")
        idset = set(ids)
        for u, v in self.edges:
            if u not in idset or v not in idset:
                raise GraphLoadError(f"edge ({u},{v}) references unknown node")
            if u == v:
                raise GraphLoadError(f"self-loop at node {u}")
        if not self.destinations or any(not d for d in self.destinations):
            raise GraphLoadError("every stage needs a nonempty destination set")
        all_dests = set().union(*self.destinations)
        if self.entries & all_dests:
            raise GraphLoadError("entries and destinations must be disjoint")
        if not self.entries:
            raise GraphLoadError("at least one entry node is required")
        if not (self.entries <= idset and all_dests <= idset):
            raise GraphLoadError("entry/destination ids must be graph nodes")
        if not assert_acyclic(self):
            raise GraphLoadError("graph must be acyclic")
        raw = RawLogGraph(list(self.nodes), sorted(self.edges))
        kept = _attack_relevant_nodes(raw, self.entries, self.destinations)
        extra = idset - kept
        if extra:
            raise GraphLoadError(
                f"nodes {sorted(extra)} lie on no entry-to-target or "
                "target-to-target flow path"
            )


def _node_ids(value: object, what: str) -> list[int]:
    """``value`` if it is a list of integer node ids (bool is not one)."""
    if not isinstance(value, list):
        raise GraphLoadError(f"'{what}' must be a list of node ids, got {value!r}")
    for v in value:
        if not isinstance(v, int) or isinstance(v, bool):
            raise GraphLoadError(f"'{what}': node id {v!r} is not an integer")
    return value


def _parse_nodes(data: object) -> list[IfgNode]:
    if not isinstance(data, list) or not data:
        raise GraphLoadError("'nodes' must be a nonempty list")
    nodes = []
    for item in data:
        if not isinstance(item, dict):
            raise GraphLoadError("each node must be an object")
        try:
            nid, kind, label = item["id"], item["kind"], item["label"]
        except KeyError as exc:
            raise GraphLoadError(f"node missing field {exc}") from exc
        if not isinstance(nid, int) or isinstance(nid, bool):
            raise GraphLoadError(f"node id {nid!r} is not an integer")
        if kind not in NODE_KINDS:
            raise GraphLoadError(f"node {nid}: unknown kind {kind!r}")
        if not isinstance(label, str):
            raise GraphLoadError(f"node {nid}: label must be a string")
        nodes.append(IfgNode(nid, kind, label))
    ids = sorted(n.id for n in nodes)
    if ids != list(range(len(ids))):
        raise GraphLoadError("node ids must be dense 0..N-1")
    return sorted(nodes, key=lambda n: n.id)


def load_graph(path: str) -> RawLogGraph:
    """Read a raw log graph from a JSON file.

    Self-loops are dropped with a warning; parallel edges are kept.  Entry
    and per-stage destination sets are read when present.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphLoadError(f"cannot read graph file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphLoadError("graph file must contain a JSON object")
    nodes = _parse_nodes(data.get("nodes"))
    idset = {n.id for n in nodes}

    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphLoadError("'edges' must be a list of [src, dst] pairs")
    edges: list[tuple[int, int]] = []
    dropped = 0
    for e in raw_edges:
        if (not isinstance(e, list)) or len(e) != 2:
            raise GraphLoadError(f"bad edge entry {e!r}")
        u, v = _node_ids(e, "edges")
        if u not in idset or v not in idset:
            raise GraphLoadError(f"edge ({u},{v}) references unknown node")
        if u == v:
            dropped += 1
            continue
        edges.append((u, v))
    if dropped:
        log.warning("dropped %d self-loop(s) while loading %s", dropped, path)

    entries = set(_node_ids(data.get("entries", []), "entries"))
    groups = data.get("destinations", [])
    if not isinstance(groups, list):
        raise GraphLoadError(f"'destinations' must be a list of node id lists, got {groups!r}")
    destinations = [set(_node_ids(d, "destinations")) for d in groups]
    for group in [entries, *destinations]:
        if not group <= idset:
            raise GraphLoadError("entry/destination ids must be graph nodes")
    return RawLogGraph(nodes, edges, entries, destinations, dropped)


def save_graph(g: RawLogGraph | Ifg, path: str) -> None:
    """Write a graph in the same JSON schema ``load_graph`` reads."""
    data = {
        "nodes": [{"id": n.id, "kind": n.kind, "label": n.label} for n in g.nodes],
        "edges": [list(e) for e in sorted(g.edges)],
        "entries": sorted(g.entries),
        "destinations": [sorted(d) for d in g.destinations],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def collapse_multi_edges(g: RawLogGraph) -> RawLogGraph:
    """Collapse parallel edges into single edges."""
    seen = sorted(set(g.edges))
    return replace(g, edges=seen)


def _reach_from(adj: dict[int, list[int]], sources: set[int]) -> set[int]:
    out = set(sources)
    stack = list(sources)
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in out:
                out.add(v)
                stack.append(v)
    return out


def _reverse(adj: dict[int, list[int]]) -> dict[int, list[int]]:
    rev: dict[int, list[int]] = {u: [] for u in adj}
    for u, vs in adj.items():
        for v in vs:
            rev[v].append(u)
    return rev


def _attack_relevant_nodes(
    g: RawLogGraph, entries: set[int], destinations: list[set[int]]
) -> set[int]:
    """Nodes kept by pruning: entries, targets, and flow-path interiors.

    A node is flow-path relevant when it lies on a directed path from an
    entry to a first-stage target, or on a path from a stage-j target to a
    stage-j' target with j != j'.  Path endpoints count.
    """
    adj = g.adjacency()
    rev = _reverse(adj)
    fwd_entry = _reach_from(adj, entries)
    back_d1 = _reach_from(rev, destinations[0])
    keep = fwd_entry & back_d1
    if not keep & destinations[0] or not keep & entries:
        raise InfeasibleGraphError(
            "no flow path from any entry to a first-stage target: attack infeasible"
        )
    fwd_d = [_reach_from(adj, d) for d in destinations]
    back_d = [_reach_from(rev, d) for d in destinations]
    for j in range(len(destinations)):
        for jp in range(len(destinations)):
            if j != jp:
                keep |= fwd_d[j] & back_d[jp]
    keep |= entries
    keep |= set().union(*destinations)
    return keep


def prune_attack_subgraph(
    g: RawLogGraph, entries: set[int], destinations: list[set[int]]
) -> RawLogGraph:
    """Restrict ``g`` to the attack-relevant subgraph.

    Raises :class:`InfeasibleGraphError` when no entry can reach a
    first-stage target at all.  Node ids are preserved (not re-densified);
    dense re-indexing happens in :func:`to_ifg`.
    """
    keep = _attack_relevant_nodes(g, entries, destinations)
    nodes = [n for n in g.nodes if n.id in keep]
    edges = [(u, v) for (u, v) in g.edges if u in keep and v in keep]
    return RawLogGraph(
        nodes, edges, set(entries), [set(d) for d in destinations], g.self_loops_dropped
    )


def merge_directory_nodes(g: RawLogGraph, groups: dict[str, str]) -> RawLogGraph:
    """Merge file nodes whose labels share a directory prefix.

    ``groups`` maps a label prefix to the merged node's label.  Only nodes of
    kind ``file`` participate.  When a label matches several prefixes the
    longest one wins.  Incident edges are re-attached to the merged node;
    parallel edges are collapsed and self-loops created by the merge are
    dropped.  Groups that match no node leave the graph unchanged.
    """
    prefixes = sorted(groups, key=len, reverse=True)

    def group_of(n: IfgNode) -> str | None:
        if n.kind != "file":
            return None
        for p in prefixes:
            if n.label.startswith(p):
                return p
        return None

    members: dict[str, list[int]] = {}
    for n in g.nodes:
        p = group_of(n)
        if p is not None:
            members.setdefault(p, []).append(n.id)
    members = {p: ids for p, ids in members.items() if ids}
    if not members:
        return replace(g, edges=list(g.edges))

    next_id = max(n.id for n in g.nodes) + 1
    remap: dict[int, int] = {}
    new_nodes = [n for n in g.nodes if group_of(n) is None]
    for p in sorted(members):
        merged = IfgNode(next_id, "file", groups[p])
        new_nodes.append(merged)
        for nid in members[p]:
            remap[nid] = next_id
        next_id += 1

    edges = set()
    for u, v in g.edges:
        u2, v2 = remap.get(u, u), remap.get(v, v)
        if u2 != v2:
            edges.add((u2, v2))
    entries = {remap.get(u, u) for u in g.entries}
    destinations = [{remap.get(u, u) for u in d} for d in g.destinations]
    return RawLogGraph(
        new_nodes, sorted(edges), entries, destinations, g.self_loops_dropped
    )


def assert_acyclic(g: RawLogGraph | Ifg) -> bool:
    """True when the graph has no directed cycle (Kahn peeling)."""
    adj = g.adjacency()
    indeg = {u: 0 for u in adj}
    for u, vs in adj.items():
        for v in vs:
            indeg[v] += 1
    queue = [u for u, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == len(adj)


def _closure_pairs(adj: dict[int, list[int]]) -> set[tuple[int, int]]:
    pairs = set()
    for u in adj:
        for v in _reach_from(adj, {u}) - {u}:
            pairs.add((u, v))
    return pairs


def remove_cycles_by_versioning(g: RawLogGraph) -> RawLogGraph:
    """Break every cycle by redirecting back edges to fresh node versions.

    Pass 1 walks the graph depth-first from the lowest node id and redirects
    each cycle-closing edge to a new version of its target.  A fresh version
    starts with no out-edges, so pass 1 alone can lose transitive
    dependencies (in a 3-cycle the tail can no longer reach the middle).
    Pass 2 therefore repairs, smallest first, every reachable pair of the
    input that no version pair realizes: it replays a shortest input path,
    following an existing out-edge where one leads to the next node's
    versions and growing a chain of fresh versions from the first node where
    none does.  New edges always point at brand-new nodes, so acyclicity is
    preserved by construction.  Which roots each root's versions reach is
    computed once after pass 1 (descendant bitsets, folded in reverse
    topological order) and then updated per repair: the chain's start and
    its ancestors gain the chain's roots, and each chain node's root gains
    those of the nodes after it.

    Entries and destination sets are extended with the versions of their
    members: a version copy stands for the same system entity.
    """
    adj = g.adjacency()
    order = sorted(adj)
    color = {u: 0 for u in order}  # 0 white, 1 on stack, 2 done
    back_edges: list[tuple[int, int]] = []
    for root in order:
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            u, i = stack[-1]
            if i < len(adj[u]):
                stack[-1] = (u, i + 1)
                v = adj[u][i]
                if color[v] == 0:
                    color[v] = 1
                    stack.append((v, 0))
                elif color[v] == 1:
                    back_edges.append((u, v))
            else:
                color[u] = 2
                stack.pop()

    by_id = {n.id: n for n in g.nodes}
    next_id = max(by_id) + 1 if by_id else 0
    version_count: dict[int, int] = {}
    nodes = list(g.nodes)
    out: dict[int, set[int]] = {u: set(vs) for u, vs in adj.items()}

    def root_of(nid: int) -> int:
        n = by_id[nid]
        return n.origin if n.origin is not None else n.id

    def new_version(orig: int) -> int:
        nonlocal next_id
        base = by_id[orig]
        k = version_count.get(orig, 0) + 1
        version_count[orig] = k
        node = IfgNode(next_id, base.kind, f"{base.label}#{k}", origin=root_of(orig))
        nodes.append(node)
        by_id[node.id] = node
        out[node.id] = set()
        next_id += 1
        return node.id

    for u, v in back_edges:
        out[u].discard(v)
        out[u].add(new_version(v))

    # Pass 2: restore reachable pairs the redirects may have broken.
    # reach[r] is a bitset of the roots some version of root r reaches.
    preds: dict[int, list[int]] = {u: [] for u in out}
    for u, vs in out.items():
        for v in vs:
            preds[v].append(u)
    indeg = {u: len(ps) for u, ps in preds.items()}
    topo = [u for u, d in indeg.items() if d == 0]
    for u in topo:  # Kahn's queue: the list grows while it is walked
        for v in out[u]:
            indeg[v] -= 1
            if not indeg[v]:
                topo.append(v)
    below: dict[int, int] = {}
    reach = dict.fromkeys(adj, 0)
    for u in reversed(topo):
        bits = 0
        for v in out[u]:
            bits |= below[v] | 1 << root_of(v)
        below[u] = bits
        reach[root_of(u)] |= bits

    # Repairs only add reachability, so the smallest missing pair is always
    # the next one in sorted order that is still missing.
    for x, y in sorted(_closure_pairs(adj)):
        if reach[x] >> y & 1:
            continue
        path = _shortest_path(adj, x, y)
        cur = x
        chain: list[int] = []
        for q in path[1:]:
            cand = [w for w in out[cur] if root_of(w) == q]
            if cand:
                cur = max(cand)
            else:
                nxt = new_version(q)
                out[cur].add(nxt)
                preds[nxt] = [cur]
                chain.append(nxt)
                cur = nxt
        gained = 0
        for n in reversed(chain):
            reach[root_of(n)] |= gained
            gained |= 1 << root_of(n)
        if chain:  # the chain's start and all its ancestors gain the chain
            for u in _reach_from(preds, set(preds[chain[0]])):
                reach[root_of(u)] |= gained
        if not reach[x] >> y & 1:
            raise InfeasibleGraphError(f"cycle removal failed to restore {x} -> {y}")

    edges = sorted((u, v) for u, vs in out.items() for v in vs)
    entries = {n.id for n in nodes if root_of(n.id) in g.entries}
    destinations = [
        {n.id for n in nodes if root_of(n.id) in d} for d in g.destinations
    ]
    return RawLogGraph(nodes, edges, entries, destinations, g.self_loops_dropped)


def _shortest_path(adj: dict[int, list[int]], src: int, dst: int) -> list[int]:
    prev = {src: src}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    if v == dst:
                        path = [v]
                        while path[-1] != src:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(v)
        frontier = nxt
    raise ValueError(f"no path {src} -> {dst}")


def to_ifg(g: RawLogGraph) -> Ifg:
    """Re-index a processed graph densely and validate the Ifg invariants."""
    old_ids = sorted(n.id for n in g.nodes)
    remap = {old: new for new, old in enumerate(old_ids)}
    nodes = [
        replace(n, id=remap[n.id])
        for n in sorted(g.nodes, key=lambda n: n.id)
    ]
    edges = {(remap[u], remap[v]) for (u, v) in g.edges}
    ifg = Ifg(
        nodes,
        edges,
        {remap[u] for u in g.entries},
        [{remap[u] for u in d} for d in g.destinations],
    )
    ifg.validate()
    return ifg


def generate_synthetic(
    n_nodes: int,
    stages: int,
    n_entries: int,
    dests_per_stage: tuple[int, ...],
    edge_density: float,
    seed: int,
) -> Ifg:
    """Sample a random attack graph that already satisfies the Ifg invariants.

    Nodes are laid out in topological order: entry sources first, then one
    block per stage whose last nodes are that stage's targets.  Random
    forward edges are drawn at ``edge_density`` and a minimal set of repair
    edges guarantees every node sits on a qualifying flow path.
    """
    dests = tuple(dests_per_stage)
    if stages != len(dests):
        raise InfeasibleGraphError("dests_per_stage length must equal stages")
    if n_entries < 1 or any(d < 1 for d in dests):
        raise InfeasibleGraphError("need at least one entry and one target per stage")
    if n_nodes < n_entries + sum(dests):
        raise InfeasibleGraphError("n_nodes too small for requested roles")
    if not 0.0 < edge_density <= 1.0:
        raise InfeasibleGraphError("edge_density must be in (0, 1]")

    rng = np.random.default_rng(seed)
    for _ in range(1000):
        ifg = _synthetic_attempt(n_nodes, stages, n_entries, dests, edge_density, rng)
        if ifg is not None:
            return ifg
    raise InfeasibleGraphError("could not realize constraints in 1000 attempts")


def _synthetic_attempt(
    n_nodes: int,
    stages: int,
    n_entries: int,
    dests: tuple[int, ...],
    density: float,
    rng: np.random.Generator,
) -> Ifg | None:
    ne = n_entries
    spare = n_nodes - ne - sum(dests)
    extra = rng.multinomial(spare, np.full(stages, 1.0 / stages))
    sizes = [dests[j] + int(extra[j]) for j in range(stages)]

    blocks: list[list[int]] = []
    pos = ne
    for j in range(stages):
        blocks.append(list(range(pos, pos + sizes[j])))
        pos += sizes[j]
    entries = set(range(ne))
    destinations = [set(blocks[j][-dests[j]:]) for j in range(stages)]

    edges: set[tuple[int, int]] = set()
    for i in range(n_nodes):
        for k in range(max(i + 1, ne), n_nodes):
            if rng.random() < density:
                edges.add((i, k))

    def has_out_into(u: int, pool: list[int]) -> bool:
        return any((u, w) in edges for w in pool)

    def has_in_from(u: int, pool: list[int]) -> bool:
        return any((w, u) in edges for w in pool)

    for e in sorted(entries):
        if not has_out_into(e, blocks[0]):
            edges.add((e, int(rng.choice(blocks[0]))))
    for j in range(stages):
        sources = sorted(entries) if j == 0 else sorted(destinations[j - 1])
        for v in blocks[j]:
            earlier = [w for w in blocks[j] if w < v]
            pool_in = earlier + sources
            if not has_in_from(v, pool_in):
                edges.add((int(rng.choice(pool_in)), v))
            if v not in destinations[j]:
                later = [w for w in blocks[j] if w > v]
                if not has_out_into(v, later):
                    edges.add((v, int(rng.choice(later))))

    nodes = []
    for i in range(n_nodes):
        if i in entries:
            nodes.append(IfgNode(i, "socket", f"net{i}"))
        elif any(i in d for d in destinations):
            j = next(j for j, d in enumerate(destinations) if i in d)
            nodes.append(IfgNode(i, "file", f"/target/stage{j + 1}/t{i}"))
        else:
            kind = str(rng.choice(["process", "file", "other"]))
            nodes.append(IfgNode(i, kind, f"{kind[:4]}{i}"))

    try:
        ifg = Ifg(nodes, edges, entries, destinations)
        ifg.validate()
    except (GraphLoadError, InfeasibleGraphError):
        return None
    return ifg
