package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// Fewer than that and the percentile is one or two outliers, not a
// property of the run.
const minTail = 10

// percentile returns the nearest-rank q-th percentile (0 < q <= 100)
// of samples, and whether at least minTail samples lie beyond it. The
// median (q = 50) is always reported as ok when samples exist.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], q <= 50 || n-rank >= minTail
}

// median is the nearest-rank 50th percentile, 0 for no samples.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// tailed reports the median and the q-th percentile of samples. With
// gate set, a percentile with fewer than minTail samples beyond it adds
// a problem to p.
func tailed(gate bool, p *problems, what string, samples []float64, q float64) (float64, float64) {
	v, ok := percentile(samples, q)
	if gate && !ok {
		p.add("%s: %d samples leave fewer than %d beyond p%g", what, len(samples), minTail, q)
	}
	return median(samples), v
}

// p50p90 reports the median and the 90th percentile of an ungated
// per-layer timing.
func p50p90(samples []float64) (float64, float64) {
	v, _ := percentile(samples, 90)
	return median(samples), v
}

// validName reports whether a metric name starts with a letter or a
// digit and is at most 64 letters, digits, '_', '.' and '-'.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// Backlog check thresholds: a run is not steady when the median result
// latency of its last quarter of steps exceeds that of its first
// quarter by both backlogRatio and backlogFloor. The floor keeps
// sub-millisecond jitter from reading as growth.
const (
	backlogRatio = 2.0
	backlogFloor = 2.0 // ms
)

// backlog compares the median latency of the first and last quarters
// of a run's steps. Latency that grows with run length means the
// analyses fall further behind the simulation every step, so the
// run's numbers describe its own length rather than the program.
func backlog(first, last []float64) (steady bool, firstMed, lastMed float64) {
	firstMed, lastMed = median(first), median(last)
	return lastMed <= backlogRatio*firstMed || lastMed-firstMed <= backlogFloor, firstMed, lastMed
}

// problems collects failed output checks; any entry fails the run.
type problems []string

func (p *problems) add(format string, args ...any) {
	*p = append(*p, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
