package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Gantt renders a recorder's timeline spans (category CatTimeline) as
// text, `width` characters across: when each simulation step ran,
// when each in-transit task occupied which staging bucket, and the
// instantaneous marks degradations, dead-letters, breaker and ladder
// moves leave behind. Each lane is one row, "sim" first and the rest
// sorted; spans draw as runs of '#' with the span's first label
// character where it fits. It makes the paper's temporal multiplexing
// visible: successive timesteps' slow in-transit tasks overlap on
// different buckets while the simulation marches ahead.
func Gantt(rec *Recorder, width int) string {
	spans := rec.SpansCat(CatTimeline)
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	if width < 20 {
		width = 20
	}
	start, total := timelineExtent(spans)
	if total <= 0 {
		total = time.Nanosecond
	}
	cell := func(t time.Time) int {
		c := int(float64(width) * float64(t.Sub(start)) / float64(total))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %v total, one column ~ %v\n", total.Round(time.Microsecond),
		(total / time.Duration(width)).Round(time.Microsecond))
	for _, lane := range timelineLanes(spans) {
		row := []byte(strings.Repeat(".", width))
		for _, s := range spans {
			if s.Lane != lane {
				continue
			}
			a, b := cell(s.Start), cell(s.End)
			for c := a; c <= b; c++ {
				row[c] = '#'
			}
			if len(s.Name) > 0 {
				row[a] = s.Name[0]
			}
		}
		fmt.Fprintf(&sb, "%-12s |%s|\n", lane, row)
	}
	return sb.String()
}

// Utilization returns, per timeline lane, the fraction of the
// timeline's extent covered by work (overlapping spans merged), or nil
// when the recorder holds no timeline spans.
func Utilization(rec *Recorder) map[string]float64 {
	spans := rec.SpansCat(CatTimeline)
	if len(spans) == 0 {
		return nil
	}
	_, total := timelineExtent(spans)
	if total <= 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, lane := range timelineLanes(spans) {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, s := range spans {
			if s.Lane == lane {
				ivs = append(ivs, iv{s.Start, s.End})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		var busy time.Duration
		var curA, curB time.Time
		for i, v := range ivs {
			if i == 0 {
				curA, curB = v.a, v.b
				continue
			}
			if v.a.After(curB) {
				busy += curB.Sub(curA)
				curA, curB = v.a, v.b
				continue
			}
			if v.b.After(curB) {
				curB = v.b
			}
		}
		busy += curB.Sub(curA)
		out[lane] = float64(busy) / float64(total)
	}
	return out
}

// timelineExtent returns the earliest start and the total extent of a
// non-empty span set.
func timelineExtent(spans []Span) (time.Time, time.Duration) {
	start, end := spans[0].Start, spans[0].End
	for _, s := range spans {
		if s.Start.Before(start) {
			start = s.Start
		}
		if s.End.After(end) {
			end = s.End
		}
	}
	return start, end.Sub(start)
}

// timelineLanes returns the distinct lanes of spans, "sim" first, then
// sorted.
func timelineLanes(spans []Span) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range spans {
		if !seen[s.Lane] {
			seen[s.Lane] = true
			out = append(out, s.Lane)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i] == "sim" {
			return true
		}
		if out[j] == "sim" {
			return false
		}
		return out[i] < out[j]
	})
	return out
}
