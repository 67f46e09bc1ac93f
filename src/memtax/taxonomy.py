"""Phylogenetic tree parsing and LCA queries over genome ranges.

Leaves in left-to-right order correspond to genome indices 0..G-1, so the
lowest common ancestor of leaf(first) and leaf(last) roots the smallest
subtree covering every genome in [first, last].  LCA is answered with a
range-minimum table over the depths of the nodes in preorder (Bender &
Farach-Colton 2000).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

_TOKEN = re.compile(r"\(|\)|,|;|:[^,();]*|[^,();:\s]+")


@dataclass
class PhyloTree:
    parent: list[int] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)
    labels: list[str | None] = field(default_factory=list)
    root: int = 0
    leaves: list[int] = field(default_factory=list)  # left-to-right order

    def add_node(self, parent: int | None, label: str | None = None) -> int:
        node = len(self.parent)
        self.parent.append(-1 if parent is None else parent)
        self.children.append([])
        self.labels.append(label)
        if parent is not None:
            self.children[parent].append(node)
        return node

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def leaf_for_genome(self, g: int) -> int:
        if not 0 <= g < len(self.leaves):
            raise ValidationError(f"genome index {g} out of range")
        return self.leaves[g]

    def label_of(self, node: int) -> str:
        lbl = self.labels[node]
        return lbl if lbl else f"node{node}"

    def validate_leaf_names(self, names: list[str]) -> None:
        """Tree leaves must match the collection: same count, and when any
        leaf label is one of the collection's names every leaf must carry
        the name at its left-to-right position; otherwise leaves map to
        genomes by position."""
        if self.leaf_count != len(names):
            raise ValidationError(
                f"tree has {self.leaf_count} leaves but the collection has {len(names)} genomes")
        leaf_labels = [self.labels[leaf] for leaf in self.leaves]
        if not set(leaf_labels).isdisjoint(names):
            for i, lbl in enumerate(leaf_labels):
                if lbl != names[i]:
                    raise ValidationError(
                        f"leaf order mismatch: leaf {i} is {lbl!r}, expected {names[i]!r}")


def parse_newick(text: str) -> PhyloTree:
    """Parse a newick string; branch lengths are accepted and ignored."""
    text = text.strip()
    if not text:
        raise ValidationError("empty newick input")
    if text.find(";") not in (-1, len(text) - 1):
        raise ValidationError("newick input continues after its terminating ';'")
    if not text.endswith(";"):
        raise ValidationError("newick input must end with ';'")
    tokens = _TOKEN.findall(text)
    tree = PhyloTree()
    root = tree.add_node(None)
    cur = root
    opened = 0
    for tok in tokens:
        if tok == "(":
            opened += 1
            cur = tree.add_node(cur)
        elif tok == ",":
            if cur == root:
                raise ValidationError("unbalanced ',' in newick input")
            cur = tree.add_node(tree.parent[cur])
        elif tok == ")":
            opened -= 1
            if opened < 0:
                raise ValidationError("unbalanced ')' in newick input")
            cur = tree.parent[cur]
        elif tok == ";":
            break  # the last token
        elif tok.startswith(":"):
            continue  # branch length, ignored
        else:
            if tree.labels[cur] is not None:
                raise ValidationError(f"unexpected label {tok!r} in newick input")
            tree.labels[cur] = tok
    if opened != 0:
        raise ValidationError("unbalanced parentheses in newick input")
    tree.root = root

    # nodes are numbered in text order, parents first, so the childless ones
    # in id order are the leaves from left to right
    tree.leaves = [u for u in range(tree.node_count) if not tree.children[u]]
    seen_labels: set[str] = set()
    for u in tree.leaves:
        lbl = tree.labels[u]
        if lbl is None:
            raise ValidationError("unlabeled leaf in newick input")
        if lbl in seen_labels:
            raise ValidationError(f"duplicate leaf label {lbl!r}")
        seen_labels.add(lbl)
    return tree


class RangeMin:
    """Sparse table of the leftmost minimum of non-negative integers over
    any inclusive range [lo, hi] of positions, 0 <= lo <= hi < n.  Entry
    p of level j is the least value * n + position over the 2**j values
    from p, so one np.minimum builds a level from the one below, and the
    least of two overlapping runs' entries, mod n, is the position."""

    def __init__(self, values):
        self.n = n = len(values)
        level = np.asarray(values, dtype=np.int64) * n + np.arange(n)
        self.levels = [level]
        while (half := 1 << (len(self.levels) - 1)) * 2 <= n:
            level = np.minimum(level[:-half], level[half:])
            self.levels.append(level)

    def argmin(self, lo: int, hi: int) -> int:
        j = (hi - lo + 1).bit_length() - 1
        level = self.levels[j]
        return int(min(level[lo], level[hi - (1 << j) + 1])) % self.n


class LcaStructure:
    """Depth RMQ over a PhyloTree's nodes in preorder (children in any
    order).  A node's subtree is the run of positions from its own, so for
    nodes at positions i < j the shallowest node in (i, j] is a child of
    their LCA."""

    def __init__(self, tree: PhyloTree):
        self.tree = tree
        self.pos = pos = [0] * tree.node_count
        self.up = up = []  # the parent of each node in preorder
        depths: list[int] = []
        stack = [(tree.root, 0)]
        while stack:
            node, depth = stack.pop()
            pos[node] = len(up)
            up.append(tree.parent[node])
            depths.append(depth)
            for child in tree.children[node]:
                stack.append((child, depth + 1))
        self.rmq = RangeMin(depths)

    def lca(self, a: int, b: int) -> int:
        i, j = self.pos[a], self.pos[b]
        if i > j:
            i, j = j, i
        return a if i == j else self.up[self.rmq.argmin(i + 1, j)]

    def subtree_for_range(self, first: int, last: int) -> int:
        if first > last:
            raise ValidationError("invalid genome range")
        return self.lca(self.tree.leaf_for_genome(first),
                        self.tree.leaf_for_genome(last))
