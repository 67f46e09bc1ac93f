import random

import pytest

from memtax import LcaStructure, PhyloTree, ValidationError, parse_newick
from memtax.taxonomy import RangeMin

import oracles


def test_parse_balanced_quartet():
    tree = parse_newick("((g0,g1),(g2,g3));")
    assert tree.leaf_count == 4
    assert tree.node_count == 7
    labels = [tree.labels[leaf] for leaf in tree.leaves]
    assert labels == ["g0", "g1", "g2", "g3"]


def test_parse_single_leaf():
    tree = parse_newick("(g0);")
    assert tree.leaf_count == 1
    assert tree.node_count == 2  # one leaf under the root


def test_parse_labels_and_lengths():
    tree = parse_newick("((a:0.1,b:0.2)ab:0.3,c)root;")
    assert tree.labels[tree.root] == "root"
    assert [tree.labels[leaf] for leaf in tree.leaves] == ["a", "b", "c"]
    internal = [l for l in tree.labels if l not in (None, "a", "b", "c")]
    assert set(internal) == {"ab", "root"}


def test_parse_errors():
    for bad in ("", "((a,b)", "a,b;", "(a,,b);", "(a,a);"):
        with pytest.raises(ValidationError):
            parse_newick(bad)
    with pytest.raises(ValidationError, match="unbalanced parentheses"):
        parse_newick("((a,b);")


def test_parse_rejects_text_after_terminator():
    # it used to parse the first tree and drop the rest
    for bad in ("(a,b);(c,d);", "(a,b);c", "(a,b);;", "(a,b); ;\n"):
        with pytest.raises(ValidationError, match="after its terminating"):
            parse_newick(bad)
    assert parse_newick(" (a,b);\n").leaf_count == 2


def test_leaf_name_validation():
    tree = parse_newick("((g0,g1),(g2,g3));")
    tree.validate_leaf_names(["g0", "g1", "g2", "g3"])
    with pytest.raises(ValidationError):
        tree.validate_leaf_names(["g0", "g1", "g2"])  # count mismatch
    with pytest.raises(ValidationError):
        tree.validate_leaf_names(["g1", "g0", "g2", "g3"])  # order mismatch
    # non-matching labels fall back to positional mapping
    tree.validate_leaf_names(["x", "y", "z", "w"])
    # labels only some of which are genome names do not
    with pytest.raises(ValidationError, match="leaf 2 is 'g3', expected 'g2'"):
        parse_newick("((g0,g1),g3);").validate_leaf_names(["g0", "g1", "g2"])


def test_lca_examples():
    tree = parse_newick("((g0,g1),(g2,g3));")
    s = LcaStructure(tree)
    a = tree.leaves[0]
    assert s.lca(a, a) == a
    parent = tree.parent[tree.leaves[0]]
    assert s.lca(tree.leaves[0], tree.leaves[1]) == parent
    assert s.lca(tree.leaves[0], tree.leaves[3]) == tree.root


def _random_tree(rng, max_leaves=64):
    tree = PhyloTree()
    root = tree.add_node(None)
    tree.root = root
    nodes = [root]
    leaves_target = rng.randint(1, max_leaves)
    # grow by attaching children to random internal candidates
    while True:
        leaf_nodes = [u for u in range(tree.node_count) if not tree.children[u]]
        if len(leaf_nodes) >= leaves_target:
            break
        u = rng.choice(nodes)
        for _ in range(rng.randint(2, 3)):
            nodes.append(tree.add_node(u))
    stack = [tree.root]
    ordered = []
    while stack:
        u = stack.pop()
        if not tree.children[u]:
            ordered.append(u)
        else:
            stack.extend(reversed(tree.children[u]))
    tree.leaves = ordered
    for i, leaf in enumerate(ordered):
        tree.labels[leaf] = f"g{i}"
    return tree


def _newick(tree, u):
    kids = tree.children[u]
    if not kids:
        return tree.labels[u]
    return "(" + ",".join(_newick(tree, v) for v in kids) + ")"


def test_lca_against_naive_random():
    rng = random.Random(404)
    for _ in range(25):
        tree = _random_tree(rng)
        parsed = parse_newick(_newick(tree, tree.root) + ";")
        assert [parsed.labels[u] for u in parsed.leaves] == \
            [f"g{i}" for i in range(tree.leaf_count)]
        s = LcaStructure(tree)
        n = tree.node_count
        for _ in range(200):
            a, b = rng.randrange(n), rng.randrange(n)
            assert s.lca(a, b) == oracles.naive_lca(tree.parent, a, b)
            assert s.lca(a, b) == s.lca(b, a)


def test_subtree_for_range():
    tree = parse_newick("((g0,g1),(g2,g3));")
    s = LcaStructure(tree)
    for g in range(4):
        assert s.subtree_for_range(g, g) == tree.leaves[g]
    assert s.subtree_for_range(0, 3) == tree.root
    with pytest.raises(ValidationError):
        s.subtree_for_range(2, 1)
    with pytest.raises(ValidationError):
        s.subtree_for_range(0, 9)


def _spans_by_parent_walks(tree):
    """(first, last) genome index under every node: each leaf, left to right
    for first and right to left for last, walks up until it meets a node
    that an earlier leaf reached."""
    spans = []
    for order in (range(tree.leaf_count), reversed(range(tree.leaf_count))):
        span = [None] * tree.node_count
        for g in order:
            u = tree.leaves[g]
            while u != -1 and span[u] is None:
                span[u] = g
                u = tree.parent[u]
        spans.append(span)
    return spans


def test_subtree_span_contains_range_random():
    rng = random.Random(505)
    for _ in range(20):
        tree = _random_tree(rng, max_leaves=32)
        s = LcaStructure(tree)
        first_of, last_of = _spans_by_parent_walks(tree)
        G = tree.leaf_count
        for _ in range(50):
            first = rng.randrange(G)
            last = rng.randrange(first, G)
            node = s.subtree_for_range(first, last)
            assert first_of[node] <= first and last <= last_of[node]


def _caterpillar(leaves, right=True):
    """Newick of a caterpillar: each internal node holds one leaf and the
    rest, down the right (or left) side; a loop, as _newick would recurse
    once per level."""
    if right:
        return "".join(f"(g{i}," for i in range(leaves - 1)) + \
            f"g{leaves - 1}" + ")" * (leaves - 1) + ";"
    return "(" * (leaves - 1) + "g0" + "".join(f",g{i})" for i in range(1, leaves)) + ";"


@pytest.mark.parametrize("newick", ["((((a))),(b,c));", _caterpillar(3000),
                                    _caterpillar(3000, right=False)],
                         ids=["unary-chain", "caterpillar-right", "caterpillar-left"])
def test_lca_and_spans_on_chains_and_caterpillars(newick):
    # _random_tree gives every internal node 2-3 children and at most 64
    # leaves; these trees have unary nodes, or a depth of 2 999
    tree = parse_newick(newick)
    s = LcaStructure(tree)
    assert len(s.rmq.levels[0]) == tree.node_count
    rng = random.Random(606)
    n, G = tree.node_count, tree.leaf_count
    for _ in range(300):
        a, b = rng.randrange(n), rng.randrange(n)
        assert s.lca(a, b) == s.lca(b, a) == oracles.naive_lca(tree.parent, a, b)
    first_of, last_of = _spans_by_parent_walks(tree)
    for u in rng.sample(range(n), min(n, 300)):
        # a node's own span roots at the node, or at a unary descendant of it
        node = s.subtree_for_range(first_of[u], last_of[u])
        assert s.lca(u, node) == u
        assert (first_of[node], last_of[node]) == (first_of[u], last_of[u])
    for _ in range(300):
        first = rng.randrange(G)
        last = rng.randrange(first, G)
        node = s.subtree_for_range(first, last)
        # the deepest node whose span covers [first, last]: it does, and no
        # child of it does
        assert first_of[node] <= first and last <= last_of[node]
        assert not any(first_of[c] <= first and last <= last_of[c]
                       for c in tree.children[node])


def test_rmq_examples():
    r = RangeMin([5, 2, 7, 2])
    assert r.argmin(0, 3) == 1  # leftmost tie
    assert r.argmin(2, 3) == 3


def test_rmq_against_scan():
    rng = random.Random(17)
    pairs = 0
    while pairs < 10_000:
        n = rng.randint(1, 120)
        values = [rng.randrange(10) for _ in range(n)]
        r = RangeMin(values)
        for _ in range(min(120, 10_000 - pairs)):
            lo = rng.randrange(n)
            hi = rng.randrange(lo, n)
            assert r.argmin(lo, hi) == oracles.naive_rmq(values, lo, hi, "min")
            pairs += 1
