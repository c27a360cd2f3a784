// Package rtree implements a static, bulk-loaded R-tree over 2-D envelopes
// using Sort-Tile-Recursive (STR) packing. Vector tables use it to
// accelerate spatial selections over feature envelopes — the role a spatial
// index plays for auxiliary GIS data in a traditional spatially-enabled
// DBMS (§2.2), complementing the imprints that serve the point cloud.
package rtree

import (
	"math"
	"sort"

	"gisnav/internal/geom"
)

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 16

// Item is one indexed envelope with its caller-assigned id.
type Item struct {
	Env geom.Envelope
	ID  int
}

// node is an R-tree node: either a leaf holding items or an inner node
// holding children.
type node struct {
	env      geom.Envelope
	items    []Item  // leaves only
	children []*node // inner nodes only
}

// Tree is an immutable STR-packed R-tree.
type Tree struct {
	root       *node
	count      int
	maxEntries int
}

// BuildSTR bulk-loads the items. maxEntries ≤ 1 selects the default
// fan-out. The input slice is not retained but items are copied.
func BuildSTR(items []Item, maxEntries int) *Tree {
	if maxEntries <= 1 {
		maxEntries = DefaultMaxEntries
	}
	t := &Tree{count: len(items), maxEntries: maxEntries}
	if len(items) == 0 {
		return t
	}
	level := packLeaves(append([]Item(nil), items...), maxEntries)
	for len(level) > 1 {
		level = packNodes(level, maxEntries)
	}
	t.root = level[0]
	return t
}

// packLeaves tiles items into leaf nodes with the STR recipe: sort by
// centre X, cut into vertical slabs of ~sqrt(nSlices) leaves each, sort
// each slab by centre Y, emit runs of maxEntries.
func packLeaves(items []Item, maxEntries int) []*node {
	nLeaves := (len(items) + maxEntries - 1) / maxEntries
	nSlabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	slabSize := nSlabs * maxEntries

	sort.Slice(items, func(i, j int) bool {
		return items[i].Env.Center().X < items[j].Env.Center().X
	})
	var leaves []*node
	for start := 0; start < len(items); start += slabSize {
		end := start + slabSize
		if end > len(items) {
			end = len(items)
		}
		slab := items[start:end]
		sort.Slice(slab, func(i, j int) bool {
			return slab[i].Env.Center().Y < slab[j].Env.Center().Y
		})
		for ls := 0; ls < len(slab); ls += maxEntries {
			le := ls + maxEntries
			if le > len(slab) {
				le = len(slab)
			}
			leaf := &node{items: append([]Item(nil), slab[ls:le]...), env: geom.EmptyEnvelope()}
			for _, it := range leaf.items {
				leaf.env.ExpandToEnvelope(it.Env)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packNodes packs one tree level into the next using the same STR tiling.
func packNodes(level []*node, maxEntries int) []*node {
	nParents := (len(level) + maxEntries - 1) / maxEntries
	nSlabs := int(math.Ceil(math.Sqrt(float64(nParents))))
	slabSize := nSlabs * maxEntries

	sort.Slice(level, func(i, j int) bool {
		return level[i].env.Center().X < level[j].env.Center().X
	})
	var parents []*node
	for start := 0; start < len(level); start += slabSize {
		end := start + slabSize
		if end > len(level) {
			end = len(level)
		}
		slab := level[start:end]
		sort.Slice(slab, func(i, j int) bool {
			return slab[i].env.Center().Y < slab[j].env.Center().Y
		})
		for ls := 0; ls < len(slab); ls += maxEntries {
			le := ls + maxEntries
			if le > len(slab) {
				le = len(slab)
			}
			parent := &node{children: append([]*node(nil), slab[ls:le]...), env: geom.EmptyEnvelope()}
			for _, ch := range parent.children {
				parent.env.ExpandToEnvelope(ch.env)
			}
			parents = append(parents, parent)
		}
	}
	return parents
}

// Len reports the number of indexed items.
func (t *Tree) Len() int { return t.count }

// Search visits every item whose envelope intersects q; fn returning false
// stops the search early. Visit order is unspecified.
func (t *Tree) Search(q geom.Envelope, fn func(Item) bool) {
	if t.root == nil || q.IsEmpty() {
		return
	}
	searchNode(t.root, q, fn)
}

func searchNode(n *node, q geom.Envelope, fn func(Item) bool) bool {
	if !n.env.Intersects(q) {
		return true
	}
	if n.items != nil {
		for _, it := range n.items {
			if it.Env.Intersects(q) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, ch := range n.children {
		if !searchNode(ch, q, fn) {
			return false
		}
	}
	return true
}

// SearchIDs collects the ids of intersecting items in ascending order.
func (t *Tree) SearchIDs(q geom.Envelope) []int {
	var ids []int
	t.Search(q, func(it Item) bool {
		ids = append(ids, it.ID)
		return true
	})
	sort.Ints(ids)
	return ids
}

// NodesTouched counts the nodes a query visits (for index diagnostics).
func (t *Tree) NodesTouched(q geom.Envelope) int {
	if t.root == nil {
		return 0
	}
	return countTouched(t.root, q)
}

func countTouched(n *node, q geom.Envelope) int {
	if !n.env.Intersects(q) {
		return 0
	}
	total := 1
	for _, ch := range n.children {
		total += countTouched(ch, q)
	}
	return total
}
