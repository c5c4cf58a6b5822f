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
import re
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

log = logging.getLogger(__name__)

NODE_KINDS = ("process", "file", "socket", "other")

# a high surrogate followed by a low one: written as two escapes, read back
# as one character (compiled by re on first use, not at import)
_SURROGATE_PAIR = "[\ud800-\udbff][\udc00-\udfff]"


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

    def adjacency(self) -> dict[int, list[int]]:
        """Deduplicated out-neighbor lists, sorted for determinism."""
        adj: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for u, v in set(self.edges):
            adj[u].append(v)
        for vs in adj.values():
            vs.sort()
        return adj


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

    adjacency = RawLogGraph.adjacency

    def validate(self) -> None:
        ids = [n.id for n in self.nodes]
        _plain_ints(ids, "node id")
        _plain_ints(list(self.entries), "entry")
        _plain_ints(list(chain.from_iterable(self.destinations)), "destination")
        if ids != list(range(len(ids))):
            raise GraphLoadError("node ids must be dense 0..N-1 and sorted")
        idset = set(ids)
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:
                _plain_ints([u, v], "edge end")
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
        adj = self.adjacency()
        if not _acyclic(adj):
            raise GraphLoadError("graph must be acyclic")
        kept = _attack_relevant_nodes(adj, self.entries, self.destinations)
        extra = idset - kept
        if extra:
            raise GraphLoadError(
                f"nodes {sorted(extra)} lie on no entry-to-target or "
                "target-to-target flow path"
            )
        _check_labels(self.nodes)


def _check_labels(nodes: list[IfgNode]) -> None:
    """Raise :class:`GraphLoadError`, naming the first node, if a label
    holds a surrogate pair as two code points: a graph file would hold its
    two escapes, which ``json`` reads back as one character.  All labels
    are searched at once (no pair spans the ``"\\0"`` between two of
    them), and the node is looked up only on a hit."""
    if re.search(_SURROGATE_PAIR, "\0".join([n.label for n in nodes])):
        for n in nodes:
            if re.search(_SURROGATE_PAIR, n.label):
                raise GraphLoadError(
                    f"node {n.id}: label {n.label!r} holds a surrogate pair, which a graph "
                    "file would read back as one character"
                )


def _plain_ints(values: list[object], what: str) -> None:
    """Raise :class:`GraphLoadError` naming the first of ``values`` that is
    not a plain ``int``.  ``True`` and ``np.int64(1)`` both equal 1 and pass
    every set and range test, but neither is written to a graph file as 1."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise GraphLoadError(f"{what} {bad!r} is not a plain int")


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


def _json_list(items: list[str], indent: str) -> str:
    """A list as ``json.dump(..., indent=1)`` writes it at depth
    ``len(indent)``, from its items already rendered one level deeper."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def save_graph(g: RawLogGraph | Ifg, path: str) -> None:
    """Write a graph in the same JSON schema ``load_graph`` reads.

    The text is byte for byte what ``json.dump(doc, fh, indent=1)`` writes,
    plus a final newline, where ``doc`` holds the nodes by ``id``, ``kind``
    and ``label``, the sorted edges as pairs, the sorted entries and each
    destination set sorted.  ``json.dump`` with an indent always runs json's
    pure-Python encoder, so the text is built here from one format string
    per node and one per edge; strings go through the ASCII escaper that
    encoder uses by default.  Every id must be a plain ``int``, as
    :meth:`Ifg.validate` checks, and the file is opened only once the whole
    text is built, so a bad graph leaves no partial file.  A label that
    holds a surrogate pair as two code points raises ``GraphLoadError``: its
    two escapes would load back as one character.  A lone surrogate is
    written as its escape and loads back unchanged.
    """
    edges = sorted(g.edges)
    ends = list(chain.from_iterable(edges))
    entries = sorted(g.entries)
    destinations = [sorted(d) for d in g.destinations]
    for what, values in (
        ("node id", [n.id for n in g.nodes]),
        ("edge end", ends),
        ("entry", entries),
        ("destination", list(chain.from_iterable(destinations))),
    ):
        _plain_ints(values, what)
    _check_labels(g.nodes)
    nodes = [
        '  {\n   "id": %d,\n   "kind": %s,\n   "label": %s\n  }'
        % (n.id, _json_str(n.kind), _json_str(n.label))
        for n in g.nodes
    ]
    # one pair of %d slots per edge, all filled by one format call
    edge_list = _json_list(["  [\n   %d,\n   %d\n  ]"] * len(edges), " ") % tuple(ends)
    groups = ["  " + _json_list(["   %d" % u for u in d], "  ") for d in destinations]
    text = '{\n "nodes": %s,\n "edges": %s,\n "entries": %s,\n "destinations": %s\n}\n' % (
        _json_list(nodes, " "),
        edge_list,
        _json_list(["  %d" % u for u in entries], " "),
        _json_list(groups, " "),
    )
    with open(path, "w") as fh:
        fh.write(text)


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


def _sccs(adj: Mapping[int, Iterable[int]]) -> list[list[int]]:
    """Strongly connected components of ``adj``, sinks first.

    Iterative Tarjan.  Every edge that leaves a component enters one listed
    earlier, so on an acyclic graph the one-node components come out in
    reverse topological order.  ``adj`` must have a key for every node.
    """
    low: dict[int, int] = {}  # visit index until lowered; `done` once placed
    done = len(adj)  # above every index, so placed nodes lower no low link
    stack: list[int] = []
    comps: list[list[int]] = []
    for root in adj:
        if root in low:
            continue
        # a frame: node, its unvisited successors, its index, its stack slot
        work = [(root, iter(adj[root]), len(low), len(stack))]
        low[root] = len(low)
        stack.append(root)
        while work:
            v, succ, index, pos = work[-1]
            for w in succ:
                lw = low.get(w)
                if lw is None:
                    work.append((w, iter(adj[w]), len(low), len(stack)))
                    low[w] = len(low)
                    stack.append(w)
                    break
                if lw < low[v]:
                    low[v] = lw
            else:
                work.pop()
                if low[v] == index:
                    comp = stack[pos:]
                    del stack[pos:]
                    for w in comp:
                        low[w] = done
                    comps.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


def _reverse(adj: dict[int, list[int]]) -> dict[int, list[int]]:
    rev: dict[int, list[int]] = {u: [] for u in adj}
    for u, vs in adj.items():
        for v in vs:
            rev[v].append(u)
    return rev


def _attack_relevant_nodes(
    adj: dict[int, list[int]], entries: set[int], destinations: list[set[int]]
) -> set[int]:
    """Nodes kept by pruning: entries, targets, and flow-path interiors.

    A node is flow-path relevant when it lies on a directed path from an
    entry to a first-stage target, or on a path from a stage-j target to a
    stage-j' target with j != j'.  Path endpoints count.
    """
    rev = _reverse(adj)
    back_d = [_reach_from(rev, d) for d in destinations]
    keep = _reach_from(adj, entries) & back_d[0]
    if not keep & destinations[0] or not keep & entries:
        raise InfeasibleGraphError(
            "no flow path from any entry to a first-stage target: attack infeasible"
        )
    fwd_d = [_reach_from(adj, d) for d in destinations]
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
    keep = _attack_relevant_nodes(g.adjacency(), entries, destinations)
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

    A file node labelled with a group's merged label ``L``, or with ``L``
    and version suffixes ``#k`` (the labels versioning gives copies of the
    merged node), is left alone, so merging an output of ``diftgame prune``
    again with the same groups changes nothing.
    """
    prefixes = sorted(groups, key=len, reverse=True)
    merged = re.compile("(?:%s)(?:#[0-9]+)*" % "|".join(map(re.escape, set(groups.values()))))

    def group_of(n: IfgNode) -> str | None:
        if n.kind != "file" or merged.fullmatch(n.label):
            return None
        for p in prefixes:
            if n.label.startswith(p):
                return p
        return None

    members: dict[str, list[int]] = {}
    new_nodes = []
    for n in g.nodes:
        p = group_of(n)
        if p is None:
            new_nodes.append(n)
        else:
            members.setdefault(p, []).append(n.id)
    if not members:
        return replace(g, edges=list(g.edges))

    next_id = max(n.id for n in g.nodes) + 1
    remap: dict[int, int] = {}
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
    """True when the graph has no directed cycle: every strongly connected
    component is one node without a self-loop."""
    return _acyclic(g.adjacency())


def _acyclic(adj: dict[int, list[int]]) -> bool:
    return all(len(c) == 1 and c[0] not in adj[c[0]] for c in _sccs(adj))


def _closure(adj: dict[int, list[int]]) -> dict[int, int]:
    """For each node, the bitset of the other nodes it reaches.

    Folded over the components sinks first: a component reaches the heads
    of its members' out-edges and all they reach.  Those heads include
    every member of a nontrivial component, since each has an in-edge from
    another member.  A node is never in its own bitset, even on a cycle.
    """
    closure: dict[int, int] = {}
    for comp in _sccs(adj):
        bits = 0
        for u in comp:
            for v in adj[u]:
                bits |= closure.get(v, 0) | 1 << v
        for u in comp:
            closure[u] = bits & ~(1 << u)
    return closure


def _bfs_parents(adj: dict[int, list[int]], src: int) -> dict[int, int]:
    """Breadth-first parent of every node ``src`` reaches (``src`` its own).

    Walking the parents back from ``dst`` gives the shortest path a BFS
    that stops on first reaching ``dst`` would find: a parent is set once,
    when its node is first reached, so stopping early changes none of them.
    """
    prev = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    return prev


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
    preserved by construction.  The input's reachable pairs come from one
    closure bitset per node; sources are taken in ascending order, and each
    source's missing targets in ascending order, re-tested before each
    repair, which is the sorted pair order because repairs only add
    reachability.  The shortest paths from one source all come from one
    breadth-first parent map, built at its first missing pair.  Every node
    keeps the bitset of roots its descendants have, folded over pass 1's
    depth-first finish order and kept exact per repair: each chain node
    gains the roots after it, and the chain's start and its ancestors gain
    the chain's roots, the walk up stopping at any node that already has
    them, since its ancestors have them too.  A root's versions reach the
    union of their bitsets.

    Every input node is its own root, a version copy included, so the
    function accepts its own output.  A new copy's ``origin`` is its input
    node's ``origin`` when that is set, else the input node's id: it still
    names the raw node.  When pass 1 finds no back edge, the function
    returns right after it, with the input's edges collapsed and sorted and
    its roles kept.  Pass 2 could add nothing there: ``out`` would equal the
    input's adjacency, so each ``reach[x]`` would equal ``closure[x]`` and
    no pair would be missing.

    Entries and destination sets are extended with the versions of their
    members: a version copy stands for the same system entity.
    """
    adj = g.adjacency()
    order = sorted(adj)
    # iterator frames, as in _sccs: a node's successors are tried in order
    # and the walk resumes after the one it descended into
    on_stack: dict[int, bool] = {}  # True while on the stack, False once finished
    finished: list[int] = []  # every edge but a back edge points to an earlier node
    back_edges: list[tuple[int, int]] = []
    for start in order:
        if start in on_stack:
            continue
        on_stack[start] = True
        work = [(start, iter(adj[start]))]
        while work:
            u, succ = work[-1]
            for v in succ:
                state = on_stack.get(v)
                if state is None:
                    on_stack[v] = True
                    work.append((v, iter(adj[v])))
                    break
                if state:
                    back_edges.append((u, v))
            else:
                work.pop()
                on_stack[u] = False
                finished.append(u)

    if not back_edges:
        ids = set(adj)
        edges = [(u, v) for u in order for v in adj[u]]
        destinations = [ids.intersection(d) for d in g.destinations]
        return RawLogGraph(
            list(g.nodes), edges, ids.intersection(g.entries), destinations,
            g.self_loops_dropped,
        )

    by_id = {n.id: n for n in g.nodes}
    next_id = max(by_id) + 1 if by_id else 0
    version_count: dict[int, int] = {}
    nodes = list(g.nodes)
    out: dict[int, set[int]] = {u: set(vs) for u, vs in adj.items()}
    root = {n.id: n.id for n in g.nodes}

    def new_version(orig: int) -> int:
        nonlocal next_id
        base = by_id[orig]
        k = version_count.get(orig, 0) + 1
        version_count[orig] = k
        origin = orig if base.origin is None else base.origin
        node = IfgNode(next_id, base.kind, f"{base.label}#{k}", origin=origin)
        nodes.append(node)
        root[node.id] = root[orig]
        out[node.id] = set()
        next_id += 1
        return node.id

    for u, v in back_edges:
        out[u].discard(v)
        out[u].add(new_version(v))

    # Pass 2: restore reachable pairs the redirects may have broken.
    # below[u] is a bitset of the roots of u's descendants; reach[r] is the
    # union of below over the versions of root r.  It is folded over pass
    # 1's copies, which have no out-edges, then over its finish order,
    # which puts every head of a kept edge before its tail.
    preds = _reverse(out)
    below = {n.id: 0 for n in nodes[len(g.nodes):]}
    reach = dict.fromkeys(adj, 0)
    for u in finished:
        bits = 0
        for v in out[u]:
            bits |= below[v] | 1 << root[v]
        below[u] = bits
        reach[root[u]] |= bits

    closure = _closure(adj)
    for x in sorted(adj):
        missing = closure[x] & ~reach[x]
        prev = _bfs_parents(adj, x) if missing else {}
        while missing:
            low = missing & -missing
            missing ^= low
            y = low.bit_length() - 1
            if reach[x] >> y & 1:
                continue
            path = [y]
            while path[-1] != x:
                path.append(prev[path[-1]])
            cur = x
            chain: list[int] = []
            for q in reversed(path[:-1]):
                cand = [w for w in out[cur] if root[w] == q]
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
                below[n] = gained
                reach[root[n]] |= gained
                gained |= 1 << root[n]
            if chain:  # the chain's start and its ancestors gain the chain
                stack = list(preds[chain[0]])
                while stack:
                    u = stack.pop()
                    if below[u] & gained != gained:
                        below[u] |= gained
                        reach[root[u]] |= gained
                        stack.extend(preds[u])
            if not reach[x] >> y & 1:
                raise InfeasibleGraphError(f"cycle removal failed to restore {x} -> {y}")

    edges = sorted((u, v) for u, vs in out.items() for v in vs)
    entries = {n.id for n in nodes if root[n.id] in g.entries}
    destinations = [
        {n.id for n in nodes if root[n.id] in d} for d in g.destinations
    ]
    return RawLogGraph(nodes, edges, entries, destinations, g.self_loops_dropped)


def to_ifg(g: RawLogGraph) -> Ifg:
    """Re-index a processed graph densely and validate the Ifg invariants."""
    old_ids = sorted(n.id for n in g.nodes)
    remap = {old: new for new, old in enumerate(old_ids)}
    nodes = [
        IfgNode(remap[n.id], n.kind, n.label, n.origin)
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
    edges guarantees every node sits on a qualifying flow path: every edge
    points to a higher id, every block node gets an in-edge from an earlier
    node of its block or from the previous stage's sources, and every
    non-target node an out-edge to a later node of its block.  So one draw
    always qualifies; the final ``validate`` raises if that ever breaks.
    """
    dests = tuple(dests_per_stage)
    if stages != len(dests):
        raise InfeasibleGraphError("dests_per_stage length must equal stages")
    if stages < 1 or n_entries < 1 or any(d < 1 for d in dests):
        raise InfeasibleGraphError("need at least one stage, one entry and one target per stage")
    if n_nodes < n_entries + sum(dests):
        raise InfeasibleGraphError("n_nodes too small for requested roles")
    if not 0.0 < edge_density <= 1.0:
        raise InfeasibleGraphError("edge_density must be in (0, 1]")

    rng = np.random.default_rng(seed)
    spare = n_nodes - n_entries - sum(dests)
    extra = rng.multinomial(spare, np.full(stages, 1.0 / stages))
    sizes = [dests[j] + int(extra[j]) for j in range(stages)]

    blocks: list[list[int]] = []
    pos = n_entries
    for j in range(stages):
        blocks.append(list(range(pos, pos + sizes[j])))
        pos += sizes[j]
    entries = set(range(n_entries))
    destinations = [set(blocks[j][-dests[j]:]) for j in range(stages)]

    # one row of candidate edges per source, drawn as one array: the same
    # uniforms, in the same order, as one scalar draw per pair
    edges: set[tuple[int, int]] = set()
    for i in range(n_nodes):
        lo = max(i + 1, n_entries)
        if lo < n_nodes:
            hits = np.flatnonzero(rng.random(n_nodes - lo) < edge_density) + lo
            edges.update((i, k) for k in hits.tolist())

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

    ifg = Ifg(nodes, edges, entries, destinations)
    ifg.validate()
    return ifg
