package mergetree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"insitu/internal/grid"
)

// TestUnmarshalSubtreeHostileCounts: declared counts far beyond the
// payload, including ones whose byte size overflows int, are rejected
// with ErrTruncatedSubtree before anything is allocated.
func TestUnmarshalSubtreeHostileCounts(t *testing.T) {
	p := (&Subtree{Verts: []SubtreeVert{{ID: 1, Value: 2, Degree: 1}}, Edges: []Arc{{Hi: 1, Lo: 1}}}).Marshal()
	const vertOff, vertSize = 4 + 6*8, 20
	edgeOff := vertOff + 8 + vertSize
	for _, c := range []struct {
		name string
		off  int
		n    uint64
	}{
		{"vertices 1<<62", vertOff, 1 << 62},
		{"vertices 1<<63", vertOff, 1 << 63},
		{"vertices max", vertOff, ^uint64(0)},
		{"vertices one too many", vertOff, 2},
		{"edges 1<<62", edgeOff, 1 << 62},
		{"edges max", edgeOff, ^uint64(0)},
		{"edges one too many", edgeOff, 2},
	} {
		bad := bytes.Clone(p)
		binary.LittleEndian.PutUint64(bad[c.off:], c.n)
		if _, err := UnmarshalSubtree(bad); !errors.Is(err, ErrTruncatedSubtree) {
			t.Errorf("%s: err = %v, want ErrTruncatedSubtree", c.name, err)
		}
	}
	for n := 0; n < len(p); n++ {
		if _, err := UnmarshalSubtree(p[:n]); !errors.Is(err, ErrTruncatedSubtree) {
			t.Fatalf("%d-byte prefix: err = %v, want ErrTruncatedSubtree", n, err)
		}
	}
}

// FuzzUnmarshalSubtree: no input panics, and an accepted input
// re-marshals to the prefix of its own bytes.
func FuzzUnmarshalSubtree(f *testing.F) {
	global := grid.NewBox(10, 8, 4)
	field := smoothField(global, 0.3)
	for _, owned := range []grid.Box{global, {Lo: [3]int{5, 0, 0}, Hi: [3]int{10, 4, 4}}} {
		for _, policy := range []BoundaryPolicy{KeepSharedBoundary, KeepNone} {
			st, err := LocalSubtree(field, global, owned, 2, policy)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(st.Marshal())
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		st, err := UnmarshalSubtree(p)
		if err != nil {
			if !errors.Is(err, ErrTruncatedSubtree) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if q := st.Marshal(); !bytes.Equal(q, p[:len(q)]) {
			t.Fatal("re-marshal is not a prefix of the input")
		}
	})
}
