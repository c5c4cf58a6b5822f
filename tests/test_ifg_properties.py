"""Property tests for the prune and versioning pipeline on random multigraphs.

Reachability is checked against ``networkx.transitive_closure``, an oracle
written independently of the package (networkx is a test-only dependency).
The graph file format is checked by round trips through ``save_graph`` and
``load_graph``, and against the bytes ``json.dumps(doc, indent=1)`` gives
for the document ``save_graph`` used to hand to ``json.dump``.  The one
strongly-connected-component routine, ``_sccs``, and its users
``assert_acyclic``, ``_closure`` and ``classify_chain`` are checked against
networkx's components, DAG test, transitive closure and attracting
components.
"""

import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import event, example, given, settings, strategies as st  # noqa: E402

from diftgame.game import FnRates, RewardParams, build_game, classify_chain  # noqa: E402
from diftgame.ifg import (  # noqa: E402
    NODE_KINDS,
    GraphLoadError,
    Ifg,
    IfgNode,
    RawLogGraph,
    _closure,
    _sccs,
    assert_acyclic,
    collapse_multi_edges,
    load_graph,
    merge_directory_nodes,
    prune_attack_subgraph,
    remove_cycles_by_versioning,
    save_graph,
    to_ifg,
)

KINDS = ("process", "file", "socket")


@st.composite
def raw_multigraphs(draw, forward=False):
    """Entry-to-target spine plus arbitrary extra edges: parallel edges,
    self-loops and cycles all occur.  File nodes off the spine's ends live
    under /m/ so an optional merge can fold them into one node.  With
    ``forward`` every extra edge follows the spine's node order, so the
    graph is acyclic until a merge folds nodes together."""
    n = draw(st.integers(3, 14))
    order = draw(st.permutations(range(n)))
    spine = order[: draw(st.integers(3, n))]
    entry, target = spine[0], spine[-1]
    nodes = [
        IfgNode(i, KINDS[i % 3], f"/m/{i}" if i % 3 == 1 and i not in (entry, target) else f"x{i}")
        for i in range(n)
    ]
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if forward:
        rank = {u: i for i, u in enumerate(order)}
        extra = [(u, v) for u, v in extra if rank[u] < rank[v]]
    edges = list(zip(spine, spine[1:])) + extra
    return RawLogGraph(nodes, edges, {entry}, [{target}]), draw(st.booleans())


def closure(node_ids, edges, root=lambda u: u):
    """Reachable (root(u), root(v)) pairs with distinct roots."""
    g = nx.DiGraph()
    g.add_nodes_from(node_ids)
    g.add_edges_from(edges)
    tc = nx.transitive_closure(g, reflexive=False)
    return {(root(u), root(v)) for u, v in tc.edges if root(u) != root(v)}


@settings(max_examples=150, deadline=None)
@given(raw_multigraphs())
def test_pipeline_acyclic_and_reachability_preserved(case):
    raw, merge = case
    g = collapse_multi_edges(raw)
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    if merge:
        g = merge_directory_nodes(g, {"/m/": "/m"})
    versioned = remove_cycles_by_versioning(g)

    origin = {n.id: n.origin if n.origin is not None else n.id for n in versioned.nodes}
    assert set(origin.values()) == {n.id for n in g.nodes}
    assert all(u != v for u, v in versioned.edges)
    assert nx.is_directed_acyclic_graph(nx.DiGraph(versioned.edges))
    assert closure(origin, versioned.edges, origin.get) == closure(
        [n.id for n in g.nodes], g.edges
    )

    ifg = to_ifg(prune_attack_subgraph(versioned, versioned.entries, versioned.destinations))
    dag = nx.DiGraph()
    dag.add_nodes_from(range(ifg.n_nodes))
    dag.add_edges_from(ifg.edges)
    assert nx.is_directed_acyclic_graph(dag)


@settings(max_examples=200, deadline=None)
@given(st.one_of(raw_multigraphs(), raw_multigraphs(forward=True)))
def test_second_prune_changes_nothing_without_version_copies(case):
    # diftgame prune runs its second prune only when versioning made a copy
    raw, merge = case
    g = collapse_multi_edges(raw)
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    if merge:
        g = merge_directory_nodes(g, {"/m/": "/m"})
    versioned = remove_cycles_by_versioning(g)
    copies = len(versioned.nodes) > len(g.nodes)
    event("version copies" if copies else "no copy")
    if copies:
        return
    again = prune_attack_subgraph(versioned, versioned.entries, versioned.destinations)
    assert again.nodes == versioned.nodes
    assert again.edges == versioned.edges
    assert again.entries == versioned.entries
    assert again.destinations == versioned.destinations


# quotes, backslashes, control characters, non-ASCII, a lone surrogate and
# non-BMP text, plus whatever else hypothesis draws
LABELS = st.text(st.sampled_from('"\\/%\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600a') | st.characters())


@st.composite
def saved_graphs(draw):
    """A raw graph (dense or sparse ids, nodes in any order, parallel edges
    and self-loops) or an Ifg (a set of forward edges, version origins),
    with arbitrary labels and role sets: possibly no node, no edge, no
    entry, an empty destination set or no stage.  Neither is validated,
    since saving checks only that ids are plain ints."""
    n = draw(st.integers(0, 10))
    if draw(st.booleans()):
        ids = sorted(draw(st.sets(st.integers(0, 10**12), min_size=n, max_size=n)))
    else:
        ids = list(range(n))
    node = st.sampled_from(ids) if ids else st.nothing()
    nodes = [
        IfgNode(i, draw(st.sampled_from(NODE_KINDS)), draw(LABELS), draw(st.none() | node))
        for i in ids
    ]
    entries = draw(st.sets(node))
    destinations = draw(st.lists(st.sets(node), max_size=3))
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if draw(st.booleans()):
        return RawLogGraph(draw(st.permutations(nodes)), pairs, entries, destinations)
    return Ifg(nodes, {(u, v) for u, v in pairs if u < v}, entries, destinations)


def json_doc(g):
    """The document save_graph used to pass to ``json.dump(indent=1)``."""
    return {
        "nodes": [{"id": n.id, "kind": n.kind, "label": n.label} for n in g.nodes],
        "edges": [list(e) for e in sorted(g.edges)],
        "entries": sorted(g.entries),
        "destinations": [sorted(d) for d in g.destinations],
    }


def has_surrogate_pair(label):
    return any(
        "\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff" for a, b in zip(label, label[1:])
    )


SURROGATE_LABELS = pytest.mark.parametrize(
    "label, saved",
    [
        ("\ud800\udc00", False),
        ("x\udbff\udfffy", False),
        ("\ud800", True),
        ("\udc00\ud800", True),
        ("\ud800x\udc00", True),
        ("\U00010000", True),
    ],
)


@SURROGATE_LABELS
def test_surrogate_pair_labels_rejected(tmp_path, label, saved):
    g = RawLogGraph([IfgNode(0, "process", "a"), IfgNode(1, "file", label)], [(0, 1)], {0}, [{1}])
    path = str(tmp_path / "g.json")
    if not saved:
        with pytest.raises(GraphLoadError, match="node 1: .*surrogate pair"):
            save_graph(g, path)
        assert not os.path.exists(path)
        return
    save_graph(g, path)
    assert load_graph(path).nodes[1].label == label


@SURROGATE_LABELS
def test_surrogate_pair_labels_fail_validation(label, saved):
    """A graph built in memory fails at ``build_game`` (or ``to_ifg``),
    through ``Ifg.validate``, with ``save_graph``'s message.  Node 0's
    label ends in a high surrogate, and a pair split across two labels is
    no pair."""
    g = Ifg([IfgNode(0, "process", "a\ud800"), IfgNode(1, "file", label)], {(0, 1)}, {0}, [{1}])
    if not saved:
        with pytest.raises(GraphLoadError, match="node 1: .*surrogate pair"):
            build_game(g, RewardParams.defaults(1), FnRates(default=0.2))
        return
    g.validate()


@settings(max_examples=200, deadline=None)
@given(saved_graphs())
@example(RawLogGraph([IfgNode(0, "process", "\ud800\udc00")], [], set(), []))
def test_save_load_round_trip(g):
    """The file holds the bytes ``json.dumps(json_doc(g), indent=1)`` gives,
    plus a newline, and loads back whenever its ids are dense.  A label
    holding a surrogate pair, which the file would read back as one
    character, is rejected and no file is written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        if any(has_surrogate_pair(n.label) for n in g.nodes):
            with pytest.raises(GraphLoadError, match="surrogate pair"):
                save_graph(g, path)
            assert not os.path.exists(path)
            return
        save_graph(g, path)
        with open(path, "rb") as fh:
            assert fh.read() == (json.dumps(json_doc(g), indent=1) + "\n").encode()
        ids = sorted(n.id for n in g.nodes)
        if not ids or ids != list(range(len(ids))):
            with pytest.raises(GraphLoadError, match="nonempty|dense"):
                load_graph(path)
            return
        back = load_graph(path)
    assert back.nodes == [IfgNode(n.id, n.kind, n.label) for n in sorted(g.nodes, key=lambda n: n.id)]
    # the file keeps edges sorted; loading drops self-loops and counts them
    assert back.edges == [(u, v) for u, v in sorted(g.edges) if u != v]
    assert back.self_loops_dropped == sum(u == v for u, v in g.edges)
    assert back.entries == g.entries
    assert back.destinations == g.destinations


@settings(max_examples=100, deadline=None)
@given(raw_multigraphs())
def test_versioning_returns_pruned_output_unchanged(case):
    """A pruned file read back is acyclic and holds no version copy, so
    versioning returns it with its edges collapsed and sorted."""
    raw, merge = case
    g = collapse_multi_edges(raw)
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    if merge:
        g = merge_directory_nodes(g, {"/m/": "/m"})
    g = remove_cycles_by_versioning(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        save_graph(to_ifg(prune_attack_subgraph(g, g.entries, g.destinations)), path)
        pruned = load_graph(path)
    out = remove_cycles_by_versioning(pruned)
    assert (out.nodes, out.edges, out.entries, out.destinations) == (
        pruned.nodes, sorted(set(pruned.edges)), pruned.entries, pruned.destinations
    )


@st.composite
def digraphs(draw):
    """Out-neighbor lists on 1-12 sparse, unordered node ids; self-loops,
    parallel edges and cycles all occur."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    node = st.sampled_from(ids)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * len(ids)))
    adj: dict[int, list[int]] = {u: [] for u in ids}
    for u, v in edges:
        adj[u].append(v)
    return adj


def nx_digraph(adj):
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    g.add_edges_from((u, v) for u, vs in adj.items() for v in vs)
    return g


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_sccs_partition_matches_networkx(adj):
    comps = _sccs(adj)
    assert sum(map(len, comps)) == len(adj)
    assert {frozenset(c) for c in comps} == {
        frozenset(c) for c in nx.strongly_connected_components(nx_digraph(adj))
    }


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_sccs_lists_sinks_first(adj):
    listed = {v: i for i, comp in enumerate(_sccs(adj)) for v in comp}
    assert all(listed[v] <= listed[u] for u, vs in adj.items() for v in vs)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_assert_acyclic_matches_networkx(adj):
    g = RawLogGraph([IfgNode(u, "process", f"x{u}") for u in adj],
                    [(u, v) for u, vs in adj.items() for v in vs])
    assert assert_acyclic(g) == nx.is_directed_acyclic_graph(nx_digraph(adj))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_closure_matches_networkx(adj):
    # networkx pairs a node on a cycle with itself; the bitsets never do
    tc = nx.transitive_closure(nx_digraph(adj), reflexive=False)
    assert _closure(adj) == {u: sum(1 << v for v in tc[u] if v != u) for u in adj}


@st.composite
def sparse_chains(draw):
    """Row-stochastic matrices on 1-10 states, 1-3 positive entries a row."""
    n = draw(st.integers(1, 10))
    P = np.zeros((n, n))
    for s in range(n):
        cols = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(cols), max_size=len(cols))))
        P[s, cols] = w / w.sum()
    return P


@settings(max_examples=300, deadline=None)
@given(sparse_chains())
def test_classify_chain_matches_attracting_components(P):
    rec, trans = classify_chain(P)
    support = nx.DiGraph()
    support.add_nodes_from(range(len(P)))
    support.add_edges_from(zip(*np.nonzero(P)))
    want = sorted((set(c) for c in nx.attracting_components(support)), key=min)
    assert rec == want
    assert trans == set(range(len(P))).difference(*want)
