package mergetree

import (
	"fmt"
	"slices"

	"insitu/internal/grid"
	"insitu/internal/parallel"
)

// FromField computes the augmented merge tree of a scalar field over
// its box using 6-neighbor (face) adjacency. Vertex ids are global
// indices within the `global` box, so trees from different blocks of
// one domain share ids on shared vertices. The field's box must lie
// inside global. This is the low-overhead in-core sweep run in-situ on
// each block.
func FromField(f *grid.Field, global grid.Box) *Tree {
	b := f.Box
	var s sweep
	s.run(f.Data, boxNeighbors(b))
	slab := make([]Node, len(f.Data))
	for v := range slab {
		slab[v] = Node{ID: globalID(global, b, v), Value: f.Data[v]}
	}
	return s.tree(slab)
}

// boxNeighbors returns the face adjacency of the points of box b,
// numbered by local linear offset. Inside one box, offset order equals
// global-id order, so a sweep over offsets breaks ties like Above.
func boxNeighbors(b grid.Box) func(v int32, buf []int32) []int32 {
	d := b.Dims()
	dx, dxy := int32(d[0]), int32(d[0]*d[1])
	return func(v int32, out []int32) []int32 {
		i, j, k := v%dx, v%dxy/dx, v/dxy
		if i > 0 {
			out = append(out, v-1)
		}
		if i < dx-1 {
			out = append(out, v+1)
		}
		if j > 0 {
			out = append(out, v-dx)
		}
		if int(j) < d[1]-1 {
			out = append(out, v+dx)
		}
		if k > 0 {
			out = append(out, v-dxy)
		}
		if int(k) < d[2]-1 {
			out = append(out, v+dxy)
		}
		return out
	}
}

// globalID is the global id of local offset v of box b.
func globalID(global, b grid.Box, v int) int64 {
	i, j, k := b.Point(v)
	return grid.GlobalIndex(global, i, j, k)
}

// BoundaryPolicy selects which vertices, besides critical points, a
// reduced subtree retains so neighboring subtrees can be glued.
type BoundaryPolicy int

const (
	// KeepSharedBoundary retains every vertex the block shares with a
	// neighboring extended block (the one-point shell inside the block
	// plus the ghost layer). This is the provably sufficient
	// augmentation: gluing reduced subtrees reproduces the exact
	// global merge tree.
	KeepSharedBoundary BoundaryPolicy = iota
	// KeepCornersAndBoundaryMaxima retains only the sub-domain corners
	// and the maxima restricted to boundary components, the minimal
	// set the paper describes. Under this library's graph-gluing
	// scheme it is insufficient on some inputs, which the ablation
	// tests demonstrate; it is provided for that comparison.
	KeepCornersAndBoundaryMaxima
	// KeepNone performs no boundary augmentation. Gluing fails on any
	// feature spanning a block boundary; provided for ablation.
	KeepNone
)

// Subtree is the intermediate product of the in-situ stage: the
// reduced merge tree of one extended block, ready to be shipped to the
// staging area.
type Subtree struct {
	Rank  int      // producing rank
	Block grid.Box // the rank's owned block (without ghost layer)
	// Verts holds (id, value) pairs sorted in descending sweep order.
	Verts []SubtreeVert
	// Edges holds (hi, lo) id pairs sorted by descending sweep order
	// of the lower endpoint, the order the streaming aggregation
	// protocol requires for memory-bounded eviction.
	Edges []Arc
}

// SubtreeVert is one retained vertex of a reduced subtree. Degree is
// the number of subtree edges incident to the vertex within this
// block's stream; the in-transit stage uses it to detect when a vertex
// is finalized.
type SubtreeVert struct {
	ID     int64
	Value  float64
	Degree int
}

// LocalSubtrees runs the in-situ stage for every rank's ghosted block
// concurrently on the shared worker pool: fields[i] must cover
// blocks[i] grown by one ghost layer (clipped to global). Each block's
// sweep is independent, so the returned subtrees are bitwise identical
// to rank-by-rank LocalSubtree calls at any pool width; the slice is
// ordered by rank. This is the driver used when one OS process hosts
// many ranks (benches, offline tools, post-hoc reconstruction).
func LocalSubtrees(fields []*grid.Field, global grid.Box, blocks []grid.Box, policy BoundaryPolicy) ([]*Subtree, error) {
	if len(fields) != len(blocks) {
		return nil, fmt.Errorf("mergetree: %d fields for %d blocks", len(fields), len(blocks))
	}
	subtrees := make([]*Subtree, len(fields))
	errs := make([]error, len(fields))
	parallel.For(len(fields), func(r int) {
		subtrees[r], errs[r] = LocalSubtree(fields[r], global, blocks[r], r, policy)
	})
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mergetree: rank %d: %w", r, err)
		}
	}
	return subtrees, nil
}

// LocalSubtree runs the full in-situ stage for one rank: sweep the
// extended block (owned block grown by one ghost layer, clipped to the
// global domain) of the rank's field, reduce it under the policy, and
// package the result. The field must cover the extended block;
// typically it is the rank's ghosted field.
//
// The reduction runs on the sweep's index arrays without building a
// *Tree, and the result is identical to
// packSubtree(Reduce(FromField(block), keep), rank, owned): Verts in
// sweep order, Edges grouped by their lower endpoint's sweep position
// with ties broken by the upper endpoint's.
func LocalSubtree(f *grid.Field, global, owned grid.Box, rank int, policy BoundaryPolicy) (*Subtree, error) {
	ext := owned.Grow(1).Intersect(global)
	if !f.Box.ContainsBox(ext) {
		return nil, fmt.Errorf("mergetree: field box %v does not cover extended block %v", f.Box, ext)
	}
	vals := f.Data
	if f.Box != ext {
		vals = f.Extract(ext).Data
	}
	var s sweep
	s.run(vals, boxNeighbors(ext))
	keep := keepFunc(vals, global, owned, ext, policy)

	// Low-to-high pass: a vertex is retained unless it is regular and
	// keep drops it. next (the union-find array, no longer needed)
	// becomes each vertex's nearest retained vertex at or below it;
	// for a retained vertex, down becomes its arc's lower end in the
	// reduced tree and ups its reduced degree. Every write lands on the
	// vertex being visited or on a lower, already visited one, so each
	// entry is read before it is overwritten.
	order, down, ups, next := s.order, s.down, s.ups, s.parent
	nVerts, nEdges := 0, 0
	for p := len(order) - 1; p >= 0; p-- {
		v := order[p]
		d := down[v]
		if d >= 0 && ups[v] == 1 && (keep == nil || !keep(v)) {
			next[v] = next[d]
			continue
		}
		next[v] = v
		nVerts++
		ups[v] = 0
		if d >= 0 {
			rd := next[d]
			down[v] = rd
			ups[v]++
			ups[rd]++
			nEdges++
		}
	}

	// High-to-low pass: emit Verts in sweep order, compact the retained
	// vertices to the front of order, and turn ups into each retained
	// vertex's first slot in Edges and next into its index in Verts.
	st := &Subtree{Rank: rank, Block: owned, Verts: make([]SubtreeVert, nVerts), Edges: make([]Arc, nEdges)}
	vi, slot := 0, int32(0)
	for _, v := range order {
		if next[v] != v {
			continue
		}
		st.Verts[vi] = SubtreeVert{ID: globalID(global, ext, int(v)), Value: vals[v], Degree: int(ups[v])}
		in := ups[v]
		if down[v] >= 0 {
			in--
		}
		ups[v] = slot
		slot += in
		next[v] = int32(vi)
		order[vi] = v
		vi++
	}
	// Upper endpoints in sweep order fill each lower endpoint's run of
	// slots, so ties within a run come out in sweep order too.
	for hi, v := range order[:nVerts] {
		lo := down[v]
		if lo < 0 {
			continue
		}
		st.Edges[ups[lo]] = Arc{Hi: st.Verts[hi].ID, Lo: st.Verts[next[lo]].ID}
		ups[lo]++
	}
	return st, nil
}

// keepFunc returns the retention predicate of a policy over the local
// offsets of ext, whose values are vals; nil retains nothing.
func keepFunc(vals []float64, global, owned, ext grid.Box, policy BoundaryPolicy) func(v int32) bool {
	switch policy {
	case KeepNone:
		return nil
	case KeepCornersAndBoundaryMaxima:
		// The owned block's corners; a flat axis repeats them.
		var corners [8]int32
		for n := range corners {
			c := owned.Lo
			for d := range c {
				if n>>d&1 == 1 {
					c[d] = owned.Hi[d] - 1
				}
			}
			corners[n] = int32(ext.Index(c[0], c[1], c[2]))
		}
		return func(v int32) bool {
			if slices.Contains(corners[:], v) {
				return true
			}
			// Maxima restricted to boundary components: boundary
			// vertices all of whose boundary neighbors are lower.
			i, j, k := ext.Point(int(v))
			if !ext.OnBoundary(i, j, k) {
				return false
			}
			for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
				ni, nj, nk := i+d[0], j+d[1], k+d[2]
				if !ext.OnBoundary(ni, nj, nk) {
					continue
				}
				u := ext.Index(ni, nj, nk)
				if Above(vals[u], int64(u), vals[v], int64(v)) {
					return false
				}
			}
			return true
		}
	default: // KeepSharedBoundary
		interior := owned.Grow(-1)
		return func(v int32) bool {
			i, j, k := ext.Point(int(v))
			return !interior.Contains(i, j, k)
		}
	}
}

// Reduce contracts every regular node for which keep returns false,
// yielding the reduced tree over critical points plus retained
// vertices. Roots, maxima and saddles are always kept.
func Reduce(t *Tree, keep func(n *Node) bool) *Tree {
	retained := func(n *Node) bool {
		return !n.IsRegular() || keep(n)
	}
	var kept []*Node
	for _, n := range t.Nodes {
		if retained(n) {
			kept = append(kept, n)
		}
	}
	slab := make([]Node, len(kept))
	out := &Tree{Nodes: make(map[int64]*Node, len(kept))}
	for i, n := range kept {
		slab[i] = Node{ID: n.ID, Value: n.Value}
		out.Nodes[n.ID] = &slab[i]
	}
	for i, n := range kept {
		// Walk down to the next retained node; a root is always
		// retained, so every walk from a non-root ends at one.
		d := n.Down
		for d != nil && !retained(d) {
			d = d.Down
		}
		if d != nil {
			slab[i].Down = out.Nodes[d.ID]
		}
	}
	out.link(slab)
	return out
}

// packSubtree converts a reduced tree into the wire-ordered Subtree,
// with LocalSubtree's vertex and edge order.
func packSubtree(t *Tree, rank int, block grid.Box) *Subtree {
	nodes := make([]*Node, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		nodes = append(nodes, n)
	}
	sortNodes(nodes)
	st := &Subtree{Rank: rank, Block: block, Verts: make([]SubtreeVert, len(nodes)),
		Edges: make([]Arc, 0, len(nodes)-len(t.Roots))}
	var ups []*Node
	for i, n := range nodes {
		deg := len(n.Ups)
		if n.Down != nil {
			deg++
		}
		st.Verts[i] = SubtreeVert{ID: n.ID, Value: n.Value, Degree: deg}
		ups = append(ups[:0], n.Ups...)
		sortNodes(ups)
		for _, u := range ups {
			st.Edges = append(st.Edges, Arc{Hi: u.ID, Lo: n.ID})
		}
	}
	return st
}
