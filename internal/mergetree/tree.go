// Package mergetree implements merge trees (join trees of superlevel
// sets) and the paper's hybrid decomposition of their construction: a
// low-overhead in-core sweep per block in-situ (after Carr, Snoeyink &
// Axen), boundary augmentation so neighboring subtrees can be glued,
// and a streaming in-transit aggregation that processes subtree
// vertices and edges in arbitrary order, finalizes vertices whose last
// incident edge has been seen, and evicts finalized regular vertices
// from memory (Bremer et al.'s streaming construction).
//
// The merge tree here sweeps the isovalue from +inf downward: nodes
// appear at local maxima, arcs lengthen as contours grow, and arcs
// merge at saddles — the convention used for burning-region and
// ignition-kernel analysis of combustion data.
package mergetree

import (
	"cmp"
	"fmt"
	"slices"
)

// Above reports whether vertex a=(ida,va) precedes b in the descending
// sweep order. Ties in value are broken by id (simulation of
// simplicity), so the order is total and identical on every rank.
func Above(va float64, ida int64, vb float64, idb int64) bool {
	if va != vb {
		return va > vb
	}
	return ida < idb
}

// Node is one vertex of an augmented merge tree.
type Node struct {
	ID    int64
	Value float64
	// Down points to the next lower node this vertex's contour merges
	// into; nil at the root (global minimum of the swept region).
	Down *Node
	// Ups lists the nodes directly above this one. len(Ups) == 0 marks
	// a maximum, >= 2 a merge saddle.
	Ups []*Node
}

// IsMax reports whether the node is a leaf (local maximum).
func (n *Node) IsMax() bool { return len(n.Ups) == 0 }

// IsSaddle reports whether two or more contours merge at this node.
func (n *Node) IsSaddle() bool { return len(n.Ups) >= 2 }

// IsRegular reports whether the node lies in the interior of an arc.
func (n *Node) IsRegular() bool { return len(n.Ups) == 1 && n.Down != nil }

// Tree is an augmented merge tree: every swept vertex is a node.
type Tree struct {
	Nodes map[int64]*Node
	// Roots are nodes with no Down pointer. A connected domain yields
	// exactly one root (its global minimum); a forest arises when the
	// swept region is disconnected.
	Roots []*Node
}

// Node returns the node with the given id, or nil.
func (t *Tree) Node(id int64) *Node { return t.Nodes[id] }

// Maxima returns all leaves in descending sweep order.
func (t *Tree) Maxima() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.IsMax() {
			out = append(out, n)
		}
	}
	sortNodes(out)
	return out
}

// Saddles returns all merge saddles in descending sweep order.
func (t *Tree) Saddles() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.IsSaddle() {
			out = append(out, n)
		}
	}
	sortNodes(out)
	return out
}

func sortNodes(ns []*Node) {
	slices.SortFunc(ns, func(a, b *Node) int { return compareSweep(a.Value, a.ID, b.Value, b.ID) })
}

// compareSweep is Above as a three-way comparison: negative when
// (va,ida) precedes (vb,idb) in the descending sweep order.
func compareSweep(va float64, ida int64, vb float64, idb int64) int {
	if va != vb {
		if va > vb {
			return -1
		}
		return 1
	}
	return cmp.Compare(ida, idb)
}

// Arc is one edge of a (reduced) merge tree, directed downward.
type Arc struct {
	Hi, Lo int64
}

// Arcs returns every (up, down) node pair, sorted for deterministic
// comparison.
func (t *Tree) Arcs() []Arc {
	var out []Arc
	for _, n := range t.Nodes {
		if n.Down != nil {
			out = append(out, Arc{Hi: n.ID, Lo: n.Down.ID})
		}
	}
	slices.SortFunc(out, func(a, b Arc) int {
		if c := cmp.Compare(a.Hi, b.Hi); c != 0 {
			return c
		}
		return cmp.Compare(a.Lo, b.Lo)
	})
	return out
}

// sweep is the descending union-find sweep of Carr, Snoeyink & Axen
// over flat index arrays. Vertices are numbered 0..n-1 and visited by
// value, highest first, with ties broken by index; callers number
// vertices so that index order equals id order, which makes the sweep
// order the global Above order. Each array holds one int32 per vertex
// and all four share one allocation.
type sweep struct {
	order []int32 // sweep position -> vertex
	down  []int32 // vertex -> next lower vertex on its arc, -1 at a root
	ups   []int32 // vertex -> number of arcs arriving from above
	// parent is the union-find forest over swept vertices (-1 before a
	// vertex is swept). A component's root is always its lowest swept
	// vertex, so the root doubles as the component's current lowest
	// tree node.
	parent []int32
}

// run sweeps the vertices holding vals. nbrs returns the neighbours of
// vertex v; it may append them to buf (capacity 6) or return a slice
// of its own.
func (s *sweep) run(vals []float64, nbrs func(v int32, buf []int32) []int32) {
	n := len(vals)
	buf := make([]int32, 4*n)
	s.order, s.down, s.ups, s.parent = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:]
	for i := range s.order {
		s.order[i] = int32(i)
		s.down[i] = -1
		s.parent[i] = -1
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		return compareSweep(vals[a], int64(a), vals[b], int64(b))
	})

	parent, down := s.parent, s.down
	var nbuf [6]int32
	var cbuf [6]int32
	for _, v := range s.order {
		// Distinct components among already-swept neighbours.
		comps := cbuf[:0]
		for _, u := range nbrs(v, nbuf[:0]) {
			if parent[u] < 0 {
				continue // not yet swept (below v)
			}
			r := u
			for parent[r] != r {
				parent[r] = parent[parent[r]]
				r = parent[r]
			}
			if !slices.Contains(comps, r) {
				comps = append(comps, r)
			}
		}
		// v becomes the lowest node, hence the root, of the union of
		// those components; a vertex with none is a local maximum.
		parent[v] = v
		for _, c := range comps {
			down[c] = v
			parent[c] = v
		}
		s.ups[v] = int32(len(comps))
	}
}

// tree turns a finished sweep into a *Tree. slab holds one node per
// vertex, indexed like the sweep, with ID and Value set.
func (s *sweep) tree(slab []Node) *Tree {
	t := &Tree{Nodes: make(map[int64]*Node, len(slab))}
	for v := range slab {
		if d := s.down[v]; d >= 0 {
			slab[v].Down = &slab[d]
		}
		t.Nodes[slab[v].ID] = &slab[v]
	}
	t.link(slab)
	return t
}

// link completes a tree whose nodes live in slab with their Down
// pointers set and their Ups empty: it fills every node's Ups, in slab
// order, from one backing array shared by the whole tree, and collects
// the roots in sweep order.
func (t *Tree) link(slab []Node) {
	ups := make([]*Node, len(slab))
	// Count first: each node's Ups length is its up count, resliced
	// over the shared array whose contents the fill pass writes.
	for i := range slab {
		if d := slab[i].Down; d != nil {
			d.Ups = ups[:len(d.Ups)+1]
		}
	}
	off := 0
	for i := range slab {
		n := &slab[i]
		if c := len(n.Ups); c > 0 {
			n.Ups = ups[off : off : off+c]
			off += c
		}
		if n.Down == nil {
			t.Roots = append(t.Roots, n)
		}
	}
	for i := range slab {
		if d := slab[i].Down; d != nil {
			d.Ups = append(d.Ups, &slab[i])
		}
	}
	sortNodes(t.Roots)
}

// FromGraph computes the augmented merge tree of an arbitrary graph
// given vertex values and undirected edges. It is the reference
// construction the distributed pipeline is validated against.
func FromGraph(values map[int64]float64, edges [][2]int64) (*Tree, error) {
	ids := make([]int64, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	index := make(map[int64]int32, len(ids))
	vals := make([]float64, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
		vals[i] = values[id]
	}
	adj := make([][]int32, len(ids))
	for _, e := range edges {
		a, oka := index[e[0]]
		b, okb := index[e[1]]
		if !oka || !okb {
			return nil, fmt.Errorf("mergetree: edge (%d,%d) references undeclared vertex", e[0], e[1])
		}
		if a == b {
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	var s sweep
	s.run(vals, func(v int32, _ []int32) []int32 { return adj[v] })
	slab := make([]Node, len(ids))
	for i, id := range ids {
		slab[i] = Node{ID: id, Value: vals[i]}
	}
	return s.tree(slab), nil
}

// Equal reports whether two trees have identical node sets, values and
// arcs. It is used by tests to check distributed == serial.
func Equal(a, b *Tree) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for id, na := range a.Nodes {
		nb, ok := b.Nodes[id]
		if !ok || na.Value != nb.Value {
			return false
		}
		da, db := int64(-1), int64(-1)
		if na.Down != nil {
			da = na.Down.ID
		}
		if nb.Down != nil {
			db = nb.Down.ID
		}
		if da != db {
			return false
		}
	}
	return true
}
