package mergetree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"insitu/internal/grid"
)

// tieField fills a field with small integers, so most vertices tie
// with a neighbour and the sweep leans on its id tie-break.
func tieField(rng *rand.Rand, b grid.Box, levels int) *grid.Field {
	f := grid.NewField("t", b)
	for i := range f.Data {
		f.Data[i] = float64(rng.Intn(levels))
	}
	return f
}

// referenceKeep is the retention predicate of a policy stated over
// tree nodes and global ids, independent of LocalSubtree's local-offset
// form.
func referenceKeep(t *Tree, global, owned, ext grid.Box, policy BoundaryPolicy) func(n *Node) bool {
	switch policy {
	case KeepNone:
		return func(*Node) bool { return false }
	case KeepCornersAndBoundaryMaxima:
		corners := map[int64]bool{}
		for _, c := range owned.Corners() {
			corners[grid.GlobalIndex(global, c[0], c[1], c[2])] = true
		}
		return func(n *Node) bool {
			if corners[n.ID] {
				return true
			}
			i, j, k := grid.GlobalPoint(global, n.ID)
			if !ext.OnBoundary(i, j, k) {
				return false
			}
			for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
				ni, nj, nk := i+d[0], j+d[1], k+d[2]
				if !ext.OnBoundary(ni, nj, nk) {
					continue
				}
				u := t.Nodes[grid.GlobalIndex(global, ni, nj, nk)]
				if Above(u.Value, u.ID, n.Value, n.ID) {
					return false
				}
			}
			return true
		}
	default:
		interior := owned.Grow(-1)
		return func(n *Node) bool {
			i, j, k := grid.GlobalPoint(global, n.ID)
			return !interior.Contains(i, j, k)
		}
	}
}

// TestLocalSubtreeMatchesReducedTree checks the array reduction against
// the tree path it replaces, on tie-heavy fields, for every policy and
// several decompositions; and that gluing the shared-boundary subtrees
// reproduces the whole domain's tree.
func TestLocalSubtreeMatchesReducedTree(t *testing.T) {
	cases := []struct {
		nx, ny, nz int
		px, py, pz int
	}{
		{12, 10, 8, 2, 2, 2},
		{16, 9, 1, 4, 3, 1},
		{9, 9, 9, 3, 1, 2},
		{6, 5, 4, 1, 1, 1},
	}
	rng := rand.New(rand.NewSource(5))
	for ci, c := range cases {
		global := grid.NewBox(c.nx, c.ny, c.nz)
		dc, err := grid.NewDecomp(global, c.px, c.py, c.pz)
		if err != nil {
			t.Fatal(err)
		}
		for _, levels := range []int{2, 4, 16} {
			f := tieField(rng, global, levels)
			for _, policy := range []BoundaryPolicy{KeepSharedBoundary, KeepCornersAndBoundaryMaxima, KeepNone} {
				var subtrees []*Subtree
				for r := 0; r < dc.Ranks(); r++ {
					owned := dc.Block(r)
					ext := owned.Grow(1).Intersect(global)
					got, err := LocalSubtree(f, global, owned, r, policy)
					if err != nil {
						t.Fatal(err)
					}
					full := FromField(f.Extract(ext), global)
					want := packSubtree(Reduce(full, referenceKeep(full, global, owned, ext, policy)), r, owned)
					if !slices.Equal(got.Verts, want.Verts) {
						t.Fatalf("case %d levels %d policy %d rank %d: Verts differ (%d vs %d)",
							ci, levels, policy, r, len(got.Verts), len(want.Verts))
					}
					if !slices.Equal(got.Edges, want.Edges) {
						t.Fatalf("case %d levels %d policy %d rank %d: Edges differ (%d vs %d)",
							ci, levels, policy, r, len(got.Edges), len(want.Edges))
					}
					subtrees = append(subtrees, got)
				}
				if policy != KeepSharedBoundary {
					continue // the ablation policies need not glue exactly
				}
				serial := criticalReduce(FromField(f, global))
				for _, evict := range []bool{false, true} {
					glued, _, err := Glue(subtrees, GlueOptions{Evict: evict, SweepEvery: 16})
					if err != nil {
						t.Fatal(err)
					}
					if !Equal(serial, criticalReduce(glued)) {
						t.Fatalf("case %d levels %d evict %v: glued tree differs from the whole domain's", ci, levels, evict)
					}
				}
			}
		}
	}
}

// TestLocalSubtreeMarshalDeterministic: the subtree's wire bytes are a
// function of the field alone, ties included.
func TestLocalSubtreeMarshalDeterministic(t *testing.T) {
	global := grid.NewBox(48, 32, 16)
	f := tieField(rand.New(rand.NewSource(11)), global, 8)
	owned := grid.Box{Lo: [3]int{12, 8, 4}, Hi: [3]int{36, 24, 12}}
	first, err := LocalSubtree(f, global, owned, 3, KeepSharedBoundary)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Marshal()
	for i := 0; i < 10; i++ {
		st, err := LocalSubtree(f, global, owned, 3, KeepSharedBoundary)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Marshal(), want) {
			t.Fatalf("repeat %d: wire bytes differ", i)
		}
	}
	ext := owned.Grow(1).Intersect(global)
	full := FromField(f.Extract(ext), global)
	packed := packSubtree(Reduce(full, referenceKeep(full, global, owned, ext, KeepSharedBoundary)), 3, owned)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(packed.Marshal(), want) {
			t.Fatal("packSubtree's wire bytes differ from LocalSubtree's")
		}
	}
}

// TestLocalSubtreeAllocs bounds the in-situ sweep's allocations: a
// fixed handful per call, however large the block.
func TestLocalSubtreeAllocs(t *testing.T) {
	global := grid.NewBox(32, 32, 16)
	f := smoothField(global, 0.7)
	owned := grid.Box{Lo: [3]int{0, 16, 0}, Hi: [3]int{16, 32, 16}}
	for _, policy := range []BoundaryPolicy{KeepSharedBoundary, KeepCornersAndBoundaryMaxima, KeepNone} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := LocalSubtree(f, global, owned, 0, policy); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("policy %d: %v allocs", policy, allocs)
		if allocs > 10 {
			t.Fatalf("policy %d: %v allocs per LocalSubtree, want at most 10", policy, allocs)
		}
	}
}

// TestFromFieldMatchesFromGraph: the grid sweep and the graph sweep
// build the same tree, with the same Ups order, on a tie-heavy field.
func TestFromFieldMatchesFromGraph(t *testing.T) {
	b := grid.NewBox(7, 6, 5)
	f := tieField(rand.New(rand.NewSource(2)), b, 3)
	values := map[int64]float64{}
	var edges [][2]int64
	for idx, v := range f.Data {
		i, j, k := b.Point(idx)
		id := grid.GlobalIndex(b, i, j, k)
		values[id] = v
		for _, d := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
			if b.Contains(i+d[0], j+d[1], k+d[2]) {
				edges = append(edges, [2]int64{id, grid.GlobalIndex(b, i+d[0], j+d[1], k+d[2])})
			}
		}
	}
	fromGraph, err := FromGraph(values, edges)
	if err != nil {
		t.Fatal(err)
	}
	fromField := FromField(f, b)
	if !Equal(fromField, fromGraph) {
		t.Fatal("FromField and FromGraph disagree")
	}
	for id, n := range fromField.Nodes {
		g := fromGraph.Nodes[id]
		if len(n.Ups) != len(g.Ups) {
			t.Fatalf("vertex %d: %d ups vs %d", id, len(n.Ups), len(g.Ups))
		}
		for i := range n.Ups {
			if n.Ups[i].ID != g.Ups[i].ID {
				t.Fatalf("vertex %d: Ups order differs", id)
			}
		}
	}
}

// TestGlueCountsEdges: StreamStats.Edges counts every processed edge.
func TestGlueCountsEdges(t *testing.T) {
	global := grid.NewBox(18, 14, 10)
	f := smoothField(global, 0.4)
	dc, err := grid.NewDecomp(global, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	subtrees, err := LocalSubtrees(repeatField(f, dc.Ranks()), global, blocksOf(dc), KeepSharedBoundary)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, st := range subtrees {
		want += len(st.Edges)
	}
	for _, evict := range []bool{false, true} {
		_, stats, err := Glue(subtrees, GlueOptions{Evict: evict})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Edges != want {
			t.Fatalf("evict %v: Stats.Edges = %d, want %d", evict, stats.Edges, want)
		}
	}
}

func repeatField(f *grid.Field, n int) []*grid.Field {
	out := make([]*grid.Field, n)
	for i := range out {
		out[i] = f
	}
	return out
}

func blocksOf(dc *grid.Decomp) []grid.Box {
	out := make([]grid.Box, dc.Ranks())
	for r := range out {
		out[r] = dc.Block(r)
	}
	return out
}

// TestGlueRejectsBadLowerEndpoint: with eviction, an edge whose lower
// endpoint the subtree does not declare, or that breaks the sorted
// order, is an error rather than a silent zero value.
func TestGlueRejectsBadLowerEndpoint(t *testing.T) {
	b := grid.NewBox(8, 8, 2)
	st, err := LocalSubtree(smoothField(b, 1.1), b, b, 0, KeepNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Edges) < 2 || st.Edges[0].Lo == st.Edges[len(st.Edges)-1].Lo {
		t.Fatal("fixture needs edges with distinct lower endpoints")
	}
	if _, _, err := Glue([]*Subtree{st}, GlueOptions{Evict: true}); err != nil {
		t.Fatalf("sorted subtree rejected: %v", err)
	}
	missing := &Subtree{Verts: st.Verts, Edges: slices.Clone(st.Edges)}
	missing.Edges[0].Lo = -7
	if _, _, err := Glue([]*Subtree{missing}, GlueOptions{Evict: true}); err == nil {
		t.Fatal("want error for an undeclared lower endpoint")
	}
	reversed := &Subtree{Verts: st.Verts, Edges: slices.Clone(st.Edges)}
	slices.Reverse(reversed.Edges)
	if _, _, err := Glue([]*Subtree{reversed}, GlueOptions{Evict: true}); err == nil {
		t.Fatal("want error for edges out of sweep order")
	}
}
