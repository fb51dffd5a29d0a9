// Package hierarchy models the multi-level storage cache hierarchy tree
// A = {T, k} that drives the mapping algorithm: storage nodes at the top,
// I/O nodes in the middle, compute (client) nodes at the leaves — or any
// other tree shape. Each node carries a storage cache of a given capacity
// (in data chunks); a capacity of zero marks a cache-less node (e.g. the
// hypothetical dummy root the paper introduces when there are multiple
// storage nodes).
package hierarchy

import (
	"fmt"
	"strings"
)

// Node is one cache in the hierarchy tree.
type Node struct {
	ID          int
	Label       string
	Level       int // 0 = root, increasing toward the leaves
	Parent      *Node
	Children    []*Node
	CacheChunks int // cache capacity in data chunks; 0 = no cache here
}

// IsLeaf reports whether the node is a client (compute) node.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Tree is a storage cache hierarchy. Leaves are client nodes, ordered
// left-to-right; the leaf order defines the client numbering.
type Tree struct {
	Root   *Node
	nodes  []*Node
	leaves []*Node
}

// Build finalizes a tree rooted at root: assigns IDs in DFS pre-order,
// levels, parents and the leaf (client) ordering. The root's Parent must be
// nil; Children links must already be set.
func Build(root *Node) *Tree {
	if root == nil {
		panic("hierarchy: nil root")
	}
	t := &Tree{Root: root}
	var walk func(n *Node, level int)
	walk = func(n *Node, level int) {
		n.ID = len(t.nodes)
		n.Level = level
		t.nodes = append(t.nodes, n)
		if n.IsLeaf() {
			t.leaves = append(t.leaves, n)
			return
		}
		for _, c := range n.Children {
			c.Parent = n
			walk(c, level+1)
		}
	}
	root.Parent = nil
	walk(root, 0)
	return t
}

// LayerSpec describes one layer of a layered topology.
type LayerSpec struct {
	Count       int // number of nodes in the layer
	CacheChunks int // per-node cache capacity in data chunks
	Label       string
}

// NewLayered builds the paper's layered topology from top (storage) to
// bottom (clients). Each layer's nodes are distributed as evenly as
// possible over the previous layer's nodes (exact division when counts
// divide, as in all the paper's configurations). If the top layer has more
// than one node, a cache-less dummy root is inserted, matching the paper's
// "hypothetical last level unified storage".
func NewLayered(layers ...LayerSpec) *Tree {
	if len(layers) == 0 {
		panic("hierarchy: no layers")
	}
	for i, l := range layers {
		if l.Count <= 0 {
			panic(fmt.Sprintf("hierarchy: layer %d has count %d", i, l.Count))
		}
		if i > 0 && layers[i].Count < layers[i-1].Count {
			panic(fmt.Sprintf("hierarchy: layer %d shrinks from %d to %d nodes",
				i, layers[i-1].Count, layers[i].Count))
		}
	}
	var root *Node
	prev := make([]*Node, 0)
	if layers[0].Count == 1 {
		root = &Node{Label: layerLabel(layers[0], 0), CacheChunks: layers[0].CacheChunks}
		prev = append(prev, root)
		layers = layers[1:]
	} else {
		root = &Node{Label: "root(dummy)"}
		prev = append(prev, root)
	}
	for _, l := range layers {
		cur := make([]*Node, l.Count)
		for i := range cur {
			cur[i] = &Node{Label: layerLabel(l, i), CacheChunks: l.CacheChunks}
		}
		// Distribute cur over prev as evenly as possible, preserving order.
		per := l.Count / len(prev)
		extra := l.Count % len(prev)
		idx := 0
		for pi, p := range prev {
			n := per
			if pi < extra {
				n++
			}
			for j := 0; j < n; j++ {
				p.Children = append(p.Children, cur[idx])
				idx++
			}
		}
		prev = cur
	}
	return Build(root)
}

func layerLabel(l LayerSpec, i int) string {
	if l.Label == "" {
		return fmt.Sprintf("n%d", i)
	}
	return fmt.Sprintf("%s%d", l.Label, i)
}

// NumClients returns k, the number of client (leaf) nodes.
func (t *Tree) NumClients() int { return len(t.leaves) }

// Clients returns the client nodes in client-number order.
func (t *Tree) Clients() []*Node { return t.leaves }

// Client returns the i-th client node.
func (t *Tree) Client(i int) *Node {
	if i < 0 || i >= len(t.leaves) {
		panic(fmt.Sprintf("hierarchy: client %d out of range [0,%d)", i, len(t.leaves)))
	}
	return t.leaves[i]
}

// Nodes returns all nodes in DFS pre-order (index = Node.ID).
func (t *Tree) Nodes() []*Node { return t.nodes }

// Height returns the maximum level (leaf level) of the tree.
func (t *Tree) Height() int {
	h := 0
	for _, n := range t.nodes {
		if n.Level > h {
			h = n.Level
		}
	}
	return h
}

// AncestorAt returns the ancestor of n at the given level (possibly n
// itself); nil if n is above that level.
func AncestorAt(n *Node, level int) *Node {
	for n != nil && n.Level > level {
		n = n.Parent
	}
	if n != nil && n.Level == level {
		return n
	}
	return nil
}

// NumLeavesUnder reports how many clients are beneath node n without
// materializing the client list.
func (t *Tree) NumLeavesUnder(n *Node) int {
	count := 0
	for _, leaf := range t.leaves {
		if AncestorAt(leaf, n.Level) == n {
			count++
		}
	}
	return count
}

// PathToRoot returns the nodes from the i-th client up to the root,
// inclusive — the caches a client's access stream traverses bottom-up.
func (t *Tree) PathToRoot(i int) []*Node {
	var out []*Node
	for n := t.Client(i); n != nil; n = n.Parent {
		out = append(out, n)
	}
	return out
}

// Validate checks structural invariants and returns the first violation.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("hierarchy: nil root")
	}
	if len(t.leaves) == 0 {
		return fmt.Errorf("hierarchy: no client nodes")
	}
	for _, n := range t.nodes {
		if n != t.Root && n.Parent == nil {
			return fmt.Errorf("hierarchy: node %d has no parent", n.ID)
		}
		if n.CacheChunks < 0 {
			return fmt.Errorf("hierarchy: node %d has negative cache capacity", n.ID)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("hierarchy: node %d has broken child link", n.ID)
			}
			if c.Level != n.Level+1 {
				return fmt.Errorf("hierarchy: node %d child level %d", n.ID, c.Level)
			}
		}
	}
	return nil
}

// String renders the tree as an indented outline.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		fmt.Fprintf(&sb, "%s%s (cache=%d)\n", strings.Repeat("  ", n.Level), n.Label, n.CacheChunks)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return sb.String()
}
