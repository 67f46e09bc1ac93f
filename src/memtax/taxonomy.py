"""Phylogenetic tree parsing and LCA queries over genome ranges.

Leaves in left-to-right order correspond to genome indices 0..G-1, so the
lowest common ancestor of leaf(first) and leaf(last) roots the smallest
subtree covering every genome in [first, last].  LCA is answered with an
Euler tour plus a range-minimum table over tour depths.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ValidationError
from .suffix import RangeExtremes

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

    def leaf_span(self, node: int) -> tuple[int, int]:
        """(first, last) genome index under a node."""
        order = {leaf: i for i, leaf in enumerate(self.leaves)}
        stack = [node]
        lo, hi = None, None
        while stack:
            u = stack.pop()
            if not self.children[u]:
                i = order[u]
                lo = i if lo is None else min(lo, i)
                hi = i if hi is None else max(hi, i)
            else:
                stack.extend(self.children[u])
        if lo is None:
            raise ValidationError("node has no leaves")
        return lo, hi

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


class LcaStructure:
    """Euler tour + depth RMQ over a PhyloTree."""

    def __init__(self, tree: PhyloTree):
        self.tree = tree
        euler: list[int] = []
        depths: list[int] = []
        first_occ = [-1] * tree.node_count
        stack: list[tuple[int, int, int]] = [(tree.root, 0, 0)]  # node, depth, child idx
        while stack:
            node, depth, ci = stack.pop()
            if ci == 0:
                first_occ[node] = len(euler)
            euler.append(node)
            depths.append(depth)
            if ci < len(tree.children[node]):
                stack.append((node, depth, ci + 1))
                stack.append((tree.children[node][ci], depth + 1, 0))
        self.euler = euler
        self.first_occ = first_occ
        self.rmq = RangeExtremes(depths, kinds=("min",))

    def lca(self, a: int, b: int) -> int:
        i, j = self.first_occ[a], self.first_occ[b]
        if i > j:
            i, j = j, i
        return self.euler[self.rmq.argmin(i, j)]

    def subtree_for_range(self, first: int, last: int) -> int:
        if first > last:
            raise ValidationError("invalid genome range")
        return self.lca(self.tree.leaf_for_genome(first),
                        self.tree.leaf_for_genome(last))
