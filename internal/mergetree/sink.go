package mergetree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The paper's in-transit algorithm "writes those vertices and edges to
// disk that have been finalized, removing them from memory". RecordSink
// implements that disk path: eviction records stream to an io.Writer
// in a compact binary form, and ReadRecords restores them, so the full
// augmented tree can be reconstituted offline from the sink file plus
// the resident remainder (see Builder.Finish and MergeSunk).

// recordWireSize is the encoded size of one eviction record.
const recordWireSize = 3 * 8

// RecordSink streams eviction records to a writer. Close flushes; the
// caller owns the underlying writer.
type RecordSink struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewRecordSink wraps w.
func NewRecordSink(w io.Writer) *RecordSink {
	return &RecordSink{w: bufio.NewWriter(w)}
}

// Write appends one record; errors are sticky and reported by Close.
func (s *RecordSink) Write(rec EvictRecord) {
	if s.err != nil {
		return
	}
	var b [recordWireSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(rec.ID))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(rec.Value))
	binary.LittleEndian.PutUint64(b[16:], uint64(rec.Down))
	if _, err := s.w.Write(b[:]); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Count returns the number of records written so far.
func (s *RecordSink) Count() int { return s.n }

// Close flushes and returns the first error encountered.
func (s *RecordSink) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// ReadRecords parses a sink stream back into records.
func ReadRecords(r io.Reader) ([]EvictRecord, error) {
	br := bufio.NewReader(r)
	var out []EvictRecord
	var b [recordWireSize]byte
	for {
		_, err := io.ReadFull(br, b[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("mergetree: corrupt record stream after %d records: %w", len(out), err)
		}
		out = append(out, EvictRecord{
			ID:    int64(binary.LittleEndian.Uint64(b[0:])),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			Down:  int64(binary.LittleEndian.Uint64(b[16:])),
		})
	}
}

// DrainToSink writes every still-resident vertex to the sink as a
// final record (Down = -1 for roots), so the sink stream alone carries
// the complete augmented tree. Call after all edges are processed,
// instead of Finish, when evictions are being diverted with WithSink.
func (b *Builder) DrainToSink() error {
	if b.sink == nil {
		return fmt.Errorf("mergetree: DrainToSink requires a WithSink builder")
	}
	for id, n := range b.nodes {
		if n.pending != 0 {
			return fmt.Errorf("mergetree: vertex %d still has %d unprocessed edges", id, n.pending)
		}
	}
	for _, n := range b.nodes {
		rec := EvictRecord{ID: n.id, Value: n.val, Down: -1}
		if n.down != nil {
			rec.Down = n.down.id
		}
		b.sink(rec)
	}
	return nil
}

// TreeFromRecords reconstitutes the full augmented tree from a
// complete record stream (evictions plus the DrainToSink remainder) —
// the offline post-processing path for trees the in-transit stage
// wrote to disk.
func TreeFromRecords(records []EvictRecord) (*Tree, error) {
	t := &Tree{Nodes: make(map[int64]*Node, len(records))}
	slab := make([]Node, len(records))
	for i, r := range records {
		if _, dup := t.Nodes[r.ID]; dup {
			return nil, fmt.Errorf("mergetree: duplicate record for vertex %d", r.ID)
		}
		slab[i] = Node{ID: r.ID, Value: r.Value}
		t.Nodes[r.ID] = &slab[i]
	}
	for i, r := range records {
		if r.Down < 0 {
			continue
		}
		lo, ok := t.Nodes[r.Down]
		if !ok {
			return nil, fmt.Errorf("mergetree: record stream references missing vertex %d", r.Down)
		}
		slab[i].Down = lo
	}
	t.link(slab)
	return t, nil
}
