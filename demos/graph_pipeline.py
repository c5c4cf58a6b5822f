"""
From raw audit logs to an analysis-ready attack graph
=====================================================

A provenance graph distilled from system logs is messy: parallel edges
from repeated syscalls, benign subtrees that never touch the attack, and
cycles from read/write churn on the same files.  This script walks the
full cleanup pipeline on a small hand-built example.
"""

from diftgame.ifg import (
    IfgNode,
    RawLogGraph,
    assert_acyclic,
    collapse_multi_edges,
    merge_directory_nodes,
    prune_attack_subgraph,
    remove_cycles_by_versioning,
    save_graph,
    to_ifg,
)

# A fictitious host trace.  Node 0 is a browser process (the entry), node
# 5 is the credential file the attacker is after.  Nodes 6 and 7 are two
# log files under /var/log that the analyst wants folded into one, node 8
# is an unrelated daemon.  Edges 1<->2 form a read/write cycle.
nodes = [
    IfgNode(0, "process", "browser"),
    IfgNode(1, "process", "helper"),
    IfgNode(2, "file", "/tmp/stage.bin"),
    IfgNode(3, "process", "loader"),
    IfgNode(4, "process", "dumper"),
    IfgNode(5, "file", "/etc/shadow.copy"),
    IfgNode(6, "file", "/var/log/a.log"),
    IfgNode(7, "file", "/var/log/b.log"),
    IfgNode(8, "process", "ntpd"),
]
edges = [
    (0, 1),
    (0, 1),  # duplicate syscall record
    (1, 2),
    (2, 1),  # back edge: helper re-reads its own dropper
    (2, 3),
    (3, 4),
    (4, 5),
    (1, 6),
    (1, 7),
    (8, 7),  # benign daemon writing a log
]
raw = RawLogGraph(nodes, edges, entries={0}, destinations=[{5}])
print(f"raw log graph: {len(raw.nodes)} nodes, {len(raw.edges)} edges")

# Step 1: collapse parallel edges.  Only connectivity matters for flow
# analysis, not how many times a flow was observed.
g = collapse_multi_edges(raw)
print(f"after collapse: {len(g.edges)} edges")

# Step 2: merge file nodes that live under the same directory.  The two
# /var/log files become one aggregate node.
g = merge_directory_nodes(g, {"/var/log/": "/var/log/*"})
print(f"after merge:    {len(g.nodes)} nodes")

# Step 3: prune everything that cannot sit on an attack path from an
# entry to a target.  The log nodes and ntpd disappear here: information
# can flow into them, but never onward to the credential file.
g = prune_attack_subgraph(g, g.entries, g.destinations)
print(f"after prune:    {len(g.nodes)} nodes, {len(g.edges)} edges")
print("  kept:", sorted(n.label for n in g.nodes))

# Step 4: break cycles by node versioning.  The back edge 2 -> 1 is
# redirected to a fresh copy "helper#1", preserving which nodes can
# taint which while making the graph acyclic.
g = remove_cycles_by_versioning(g)
assert assert_acyclic(g)
print(f"after version:  {len(g.nodes)} nodes, {len(g.edges)} edges")
print("  versions:", sorted(n.label for n in g.nodes if n.origin is not None))

# Step 5: prune once more.  Here the version copy is a dead end (the
# cycle was off the critical path), so it drops right back out.
g = prune_attack_subgraph(g, g.entries, g.destinations)
print(f"after re-prune: {len(g.nodes)} nodes, {len(g.edges)} edges")

# Step 6: densify ids and validate the final information-flow graph.
ifg = to_ifg(g)
ifg.validate()
print(
    f"final graph: {ifg.n_nodes} nodes, {len(ifg.edges)} edges, "
    f"{ifg.stages} stage(s), entries {sorted(ifg.entries)}"
)

save_graph(ifg, "demo_graph.json")
print("wrote demo_graph.json")
