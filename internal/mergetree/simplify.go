package mergetree

import (
	"math"
	"slices"
)

// Branch describes one branch of the branch decomposition: a maximum,
// the saddle at which its contour merges into a contour with a higher
// maximum, and the resulting persistence. The globally highest maximum
// of each component is unpaired (infinite persistence, Saddle == nil).
type Branch struct {
	Max         *Node
	Saddle      *Node // nil for the root branch
	Persistence float64
}

// BranchDecomposition pairs every maximum with its death saddle.
// Branches are returned in decreasing persistence order.
func BranchDecomposition(t *Tree) []Branch {
	// branchMax[n] = the highest maximum above n (inclusive).
	branchMax := make(map[*Node]*Node, len(t.Nodes))
	order := make([]*Node, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		order = append(order, n)
	}
	sortNodes(order) // descending sweep order: ups before downs
	for _, n := range order {
		if n.IsMax() {
			branchMax[n] = n
			continue
		}
		var best *Node
		for _, u := range n.Ups {
			um := branchMax[u]
			if best == nil || Above(um.Value, um.ID, best.Value, best.ID) {
				best = um
			}
		}
		branchMax[n] = best
	}

	var out []Branch
	for _, n := range order {
		if !n.IsSaddle() {
			continue
		}
		winner := branchMax[n]
		for _, u := range n.Ups {
			um := branchMax[u]
			if um == winner {
				continue
			}
			out = append(out, Branch{Max: um, Saddle: n, Persistence: um.Value - n.Value})
		}
		// If several ups carry the winner (possible only with
		// duplicate branchMax pointers), the first keeps it; the sweep
		// order tie-break makes branchMax pointers unique per max, so
		// each non-winning up dies exactly once.
	}
	// Root branches: unpaired maxima.
	paired := make(map[*Node]bool, len(out))
	for _, br := range out {
		paired[br.Max] = true
	}
	for _, n := range order {
		if n.IsMax() && !paired[n] {
			out = append(out, Branch{Max: n, Persistence: math.Inf(1)})
		}
	}
	slices.SortFunc(out, func(a, b Branch) int {
		if a.Persistence != b.Persistence {
			if a.Persistence > b.Persistence {
				return -1
			}
			return 1
		}
		return compareSweep(a.Max.Value, a.Max.ID, b.Max.Value, b.Max.ID)
	})
	return out
}

// Persistence returns the persistence of every maximum, keyed by node
// id.
func Persistence(t *Tree) map[int64]float64 {
	out := make(map[int64]float64)
	for _, br := range BranchDecomposition(t) {
		out[br.Max.ID] = br.Persistence
	}
	return out
}

// Simplify removes every branch with persistence below eps, returning
// a new tree over the surviving nodes. Saddles that become regular are
// retained; apply Reduce to contract them. The input tree is not
// modified.
func Simplify(t *Tree, eps float64) *Tree {
	pers := Persistence(t)

	// A node survives iff the highest maximum above it survives.
	branchMax := make(map[*Node]*Node, len(t.Nodes))
	order := make([]*Node, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		order = append(order, n)
	}
	sortNodes(order)
	alive := make(map[*Node]bool, len(t.Nodes))
	for _, n := range order {
		if n.IsMax() {
			branchMax[n] = n
			alive[n] = pers[n.ID] >= eps
			continue
		}
		var best *Node
		for _, u := range n.Ups {
			um := branchMax[u]
			if best == nil || Above(um.Value, um.ID, best.Value, best.ID) {
				best = um
			}
		}
		branchMax[n] = best
		alive[n] = alive[best]
	}

	order = slices.DeleteFunc(order, func(n *Node) bool { return !alive[n] })
	out := &Tree{Nodes: make(map[int64]*Node, len(order))}
	slab := make([]Node, len(order))
	for i, n := range order {
		slab[i] = Node{ID: n.ID, Value: n.Value}
		out.Nodes[n.ID] = &slab[i]
	}
	for i, n := range order {
		if n.Down != nil {
			// A live node's down is always live: its branch continues
			// through or merges below.
			slab[i].Down = out.Nodes[n.Down.ID]
		}
	}
	out.link(slab)
	return out
}
