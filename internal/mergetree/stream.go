package mergetree

import (
	"cmp"
	"fmt"
	"slices"
)

// The streaming builder implements the in-transit stage: it aggregates
// subtrees into the global merge tree while processing vertices and
// edges in arbitrary order, subject to two rules from the paper:
// a vertex must be declared before any edge that contains it, and a
// vertex is *finalized* once its last incident edge has been
// processed. Finalized vertices whose tree-position can no longer
// change are evicted from memory and written to an output log, keeping
// the in-memory footprint far below the total tree size.

// bnode is the builder's working vertex record.
type bnode struct {
	id      int64
	val     float64
	down    *bnode
	pending int // declared incident edges not yet processed
	evicted bool
}

// EvictRecord is one finalized vertex written to the output log:
// its identity, value, and final downward arc (-1 for none known at
// eviction, which only happens for isolated vertices).
type EvictRecord struct {
	ID    int64
	Value float64
	Down  int64
}

// StreamStats reports the memory behaviour of a streaming aggregation.
type StreamStats struct {
	Declared  int // total vertices declared
	Edges     int // total edges processed
	Evicted   int // vertices evicted before Finish
	PeakLive  int // maximum simultaneously resident vertices
	SpliceOps int // chain-walk steps, the algorithm's work measure
}

// Builder incrementally constructs a merge tree from streamed
// vertices and edges.
type Builder struct {
	nodes map[int64]*bnode
	// slab backs new bnodes. A full slab is replaced, never grown in
	// place, so the pointers held by nodes and down chains stay valid.
	slab []bnode
	log  []EvictRecord
	sink func(EvictRecord) // optional external log consumer

	// watermark is the sweep position at or below which all future
	// edge lower-endpoints are guaranteed to lie. It advances via
	// SetWatermark (or automatically under sorted feeding in Glue).
	wmVal   float64
	wmID    int64
	wmSet   bool
	evictOn bool

	stats StreamStats
}

// BuilderOption configures a Builder.
type BuilderOption func(*Builder)

// WithEviction enables eviction of finalized vertices. The caller must
// then advance the watermark truthfully via SetWatermark.
func WithEviction() BuilderOption {
	return func(b *Builder) { b.evictOn = true }
}

// WithSink streams eviction records to fn instead of the internal log;
// Finish then cannot reconstruct the full augmented tree, only the
// resident part (matching the paper's write-to-disk behaviour).
func WithSink(fn func(EvictRecord)) BuilderOption {
	return func(b *Builder) { b.sink = fn }
}

// NewBuilder creates an empty streaming builder.
func NewBuilder(opts ...BuilderOption) *Builder {
	return newBuilder(0, opts...)
}

// newBuilder sizes the node map, the first slab and, with eviction to
// the internal log, the log for n declarations.
func newBuilder(n int, opts ...BuilderOption) *Builder {
	b := &Builder{nodes: make(map[int64]*bnode, n), slab: make([]bnode, 0, max(n, 64))}
	for _, o := range opts {
		o(b)
	}
	if b.evictOn && b.sink == nil {
		b.log = make([]EvictRecord, 0, n)
	}
	return b
}

// DeclareVertex announces a vertex with `degree` incident edges in
// this producer's stream. The same vertex may be declared by several
// producers (shared boundary vertices); degrees accumulate and values
// must agree.
func (b *Builder) DeclareVertex(id int64, val float64, degree int) error {
	if n, ok := b.nodes[id]; ok {
		if n.val != val {
			return fmt.Errorf("mergetree: vertex %d declared with conflicting values %g and %g", id, n.val, val)
		}
		n.pending += degree
		return nil
	}
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]bnode, 0, 2*cap(b.slab))
	}
	b.slab = append(b.slab, bnode{id: id, val: val, pending: degree})
	b.nodes[id] = &b.slab[len(b.slab)-1]
	b.stats.Declared++
	if live := len(b.nodes); live > b.stats.PeakLive {
		b.stats.PeakLive = live
	}
	return nil
}

// Evicted vertices stay linked into the chains (their downward arcs
// are frozen by the watermark invariant, and no future splice can land
// adjacent to them), so walks simply traverse them. Rewriting pointers
// past evicted vertices would destroy true augmented-tree arcs.

// AddEdge merges the chains of two declared vertices, maintaining the
// invariant that descending down-pointer chains order all vertices
// known to share a superlevel component.
func (b *Builder) AddEdge(hi, lo int64) error {
	u, ok := b.nodes[hi]
	if !ok {
		return fmt.Errorf("mergetree: edge references undeclared or evicted vertex %d", hi)
	}
	v, ok := b.nodes[lo]
	if !ok {
		return fmt.Errorf("mergetree: edge references undeclared or evicted vertex %d", lo)
	}
	b.stats.Edges++
	u.pending--
	v.pending--
	if u.pending < 0 || v.pending < 0 {
		return fmt.Errorf("mergetree: vertex finalized before its last edge (%d,%d)", hi, lo)
	}
	if u == v {
		return nil
	}
	if !Above(u.val, u.id, v.val, v.id) {
		u, v = v, u
	}
	// Splice v into u's chain: walk down from u until v's slot.
	for {
		b.stats.SpliceOps++
		if u == v {
			return nil
		}
		d := u.down
		if d == nil {
			u.down = v
			return nil
		}
		if d == v {
			return nil
		}
		if Above(d.val, d.id, v.val, v.id) {
			u = d
			continue
		}
		// v belongs between u and d; splice and continue merging the
		// old tail below v.
		u.down = v
		u = v
		v = d
	}
}

// SetWatermark promises that every edge processed from now on has a
// lower endpoint at or below sweep position (val, id). It triggers an
// eviction sweep when eviction is enabled.
func (b *Builder) SetWatermark(val float64, id int64) {
	b.wmVal, b.wmID, b.wmSet = val, id, true
	if b.evictOn {
		b.sweep()
	}
}

// evictable reports whether vertex n can no longer change: all its
// edges are processed, and its downward arc ends at or above the
// watermark, so no future edge can splice between them.
func (b *Builder) evictable(n *bnode) bool {
	if n.pending != 0 || n.evicted {
		return false
	}
	d := n.down
	if d == nil {
		return false // roots stay resident until Finish
	}
	return !Above(b.wmVal, b.wmID, d.val, d.id)
}

// sweep evicts every currently evictable vertex.
func (b *Builder) sweep() {
	if !b.wmSet {
		return
	}
	for id, n := range b.nodes {
		if !b.evictable(n) {
			continue
		}
		rec := EvictRecord{ID: n.id, Value: n.val, Down: n.down.id}
		if b.sink != nil {
			b.sink(rec)
		} else {
			b.log = append(b.log, rec)
		}
		n.evicted = true
		delete(b.nodes, id)
		b.stats.Evicted++
	}
}

// Live returns the number of currently resident vertices.
func (b *Builder) Live() int { return len(b.nodes) }

// Stats returns a snapshot of the builder's counters.
func (b *Builder) Stats() StreamStats { return b.stats }

// Finish assembles the final merge tree from the resident vertices
// plus the eviction log. If a WithSink option diverted the log, only
// the resident part is returned.
func (b *Builder) Finish() (*Tree, StreamStats, error) {
	for id, n := range b.nodes {
		if n.pending != 0 {
			return nil, b.stats, fmt.Errorf("mergetree: vertex %d still has %d unprocessed edges", id, n.pending)
		}
	}
	total := len(b.nodes) + len(b.log)
	t := &Tree{Nodes: make(map[int64]*Node, total)}
	slab := make([]Node, 0, total)
	for _, n := range b.nodes {
		slab = t.addNode(slab, n.id, n.val)
	}
	for _, r := range b.log {
		slab = t.addNode(slab, r.ID, r.Value)
	}
	setDown := func(hi, lo int64) error {
		n, ok := t.Nodes[lo]
		if !ok {
			if b.sink != nil {
				// The target was evicted to the external sink; the
				// arc is restored by MergeSunk with the sink records.
				return nil
			}
			return fmt.Errorf("mergetree: eviction log references missing vertex %d", lo)
		}
		t.Nodes[hi].Down = n
		return nil
	}
	for _, n := range b.nodes {
		if n.down != nil {
			if err := setDown(n.id, n.down.id); err != nil {
				return nil, b.stats, err
			}
		}
	}
	for _, r := range b.log {
		if r.Down >= 0 {
			if err := setDown(r.ID, r.Down); err != nil {
				return nil, b.stats, err
			}
		}
	}
	t.link(slab)
	return t, b.stats, nil
}

// addNode appends a node for id to slab unless t already has one. slab
// must have room for it: its nodes are pointed to, so it never grows.
func (t *Tree) addNode(slab []Node, id int64, val float64) []Node {
	if _, ok := t.Nodes[id]; ok {
		return slab
	}
	slab = append(slab, Node{ID: id, Value: val})
	t.Nodes[id] = &slab[len(slab)-1]
	return slab
}

// GlueOptions configures the in-transit aggregation driver.
type GlueOptions struct {
	// Evict enables memory-bounded streaming with the sorted-edge
	// protocol. With eviction off, edges may be processed in any order.
	Evict bool
	// SweepEvery triggers an eviction sweep after this many edges
	// (default 4096) in addition to watermark advances.
	SweepEvery int
}

// Glue aggregates the reduced subtrees of all blocks into the global
// merge tree — the serial in-transit stage of the hybrid topology
// algorithm. With opts.Evict it feeds edges in globally descending
// order of their lower endpoints (a k-way merge over the per-block
// sorted edge lists) and advances the watermark as it goes, so the
// builder can evict finalized vertices and keep its resident set
// small.
func Glue(subtrees []*Subtree, opts GlueOptions) (*Tree, StreamStats, error) {
	var bopts []BuilderOption
	if opts.Evict {
		bopts = append(bopts, WithEviction())
	}
	nverts := 0
	for _, st := range subtrees {
		nverts += len(st.Verts)
	}
	b := newBuilder(nverts, bopts...)

	if !opts.Evict {
		// Arbitrary-order mode: declare everything, then feed edges in
		// whatever order the subtrees carry them.
		for _, st := range subtrees {
			for _, v := range st.Verts {
				if err := b.DeclareVertex(v.ID, v.Value, v.Degree); err != nil {
					return nil, b.stats, err
				}
			}
		}
		for _, st := range subtrees {
			for _, e := range st.Edges {
				if err := b.AddEdge(e.Hi, e.Lo); err != nil {
					return nil, b.stats, err
				}
			}
		}
		return b.Finish()
	}

	// Streaming mode: interleave per-block vertex declarations with a
	// k-way merge of the per-block edge lists by descending lower
	// endpoint (packSubtree sorts both lists that way). Before an edge
	// at sweep position L is processed, every block declares its
	// vertices down to L, so shared vertices accumulate their full
	// degree before their first edge and the resident set tracks the
	// sweep front instead of the whole tree.
	sweepEvery := opts.SweepEvery
	if sweepEvery <= 0 {
		sweepEvery = 4096
	}
	type cursor struct {
		st   *Subtree
		pos  int // next edge
		vpos int // next undeclared vertex
		// lpos indexes the Verts entry of the next edge's lower
		// endpoint, at sweep position (lv, lid). Edges arrive sorted by
		// lower endpoint, so lpos only moves forward.
		lpos int
		lv   float64
		lid  int64
	}
	cursors := make([]cursor, len(subtrees))
	live := make([]*cursor, 0, len(cursors))
	// lower points c at its next edge's lower endpoint.
	lower := func(c *cursor) error {
		e := c.st.Edges[c.pos]
		for ; c.lpos < len(c.st.Verts); c.lpos++ {
			if v := c.st.Verts[c.lpos]; v.ID == e.Lo {
				c.lv, c.lid = v.Value, v.ID
				return nil
			}
		}
		return fmt.Errorf("mergetree: rank %d edge (%d,%d): lower endpoint missing from the subtree or out of sweep order", c.st.Rank, e.Hi, e.Lo)
	}
	for i, st := range subtrees {
		c := &cursors[i]
		c.st = st
		if len(st.Edges) > 0 {
			if err := lower(c); err != nil {
				return nil, b.stats, err
			}
			live = append(live, c)
		}
	}
	// declareDown declares all of c's vertices at or above sweep
	// position (val, id).
	declareDown := func(c *cursor, val float64, id int64) error {
		for c.vpos < len(c.st.Verts) {
			v := c.st.Verts[c.vpos]
			if Above(val, id, v.Value, v.ID) {
				break
			}
			if err := b.DeclareVertex(v.ID, v.Value, v.Degree); err != nil {
				return err
			}
			c.vpos++
		}
		return nil
	}
	processed := 0
	for len(live) > 0 {
		// Pick the cursor with the highest next lower endpoint.
		best := 0
		bv, bi := live[0].lv, live[0].lid
		for i := 1; i < len(live); i++ {
			if c := live[i]; Above(c.lv, c.lid, bv, bi) {
				best, bv, bi = i, c.lv, c.lid
			}
		}
		// All blocks declare down to the new watermark first.
		for i := range cursors {
			if err := declareDown(&cursors[i], bv, bi); err != nil {
				return nil, b.stats, err
			}
		}
		c := live[best]
		e := c.st.Edges[c.pos]
		if err := b.AddEdge(e.Hi, e.Lo); err != nil {
			return nil, b.stats, err
		}
		c.pos++
		if c.pos == len(c.st.Edges) {
			live = append(live[:best], live[best+1:]...)
		} else if err := lower(c); err != nil {
			return nil, b.stats, err
		}
		processed++
		b.wmVal, b.wmID, b.wmSet = bv, bi, true
		if processed%sweepEvery == 0 {
			b.sweep()
		}
	}
	// Declare any remaining (isolated) vertices and finish.
	for i := range cursors {
		c := &cursors[i]
		for ; c.vpos < len(c.st.Verts); c.vpos++ {
			v := c.st.Verts[c.vpos]
			if err := b.DeclareVertex(v.ID, v.Value, v.Degree); err != nil {
				return nil, b.stats, err
			}
		}
	}
	b.sweep()
	return b.Finish()
}

// GlueSerial aggregates subtrees by collecting all vertices and edges
// and running the reference graph sweep — the non-streaming baseline
// the streaming aggregation is validated against.
func GlueSerial(subtrees []*Subtree) (*Tree, error) {
	values := make(map[int64]float64)
	var edges [][2]int64
	for _, st := range subtrees {
		for _, v := range st.Verts {
			if old, ok := values[v.ID]; ok && old != v.Value {
				return nil, fmt.Errorf("mergetree: vertex %d has conflicting values %g and %g", v.ID, old, v.Value)
			}
			values[v.ID] = v.Value
		}
		for _, e := range st.Edges {
			edges = append(edges, [2]int64{e.Hi, e.Lo})
		}
	}
	// Deterministic edge order.
	slices.SortFunc(edges, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return FromGraph(values, edges)
}
