package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// addTimeline records one timeline span, start and end in milliseconds
// after the recorder's anchor.
func addTimeline(rec *Recorder, lane, label string, startMs, endMs int) {
	t0 := rec.Anchor()
	rec.Record(0, CatTimeline, lane, label,
		t0.Add(time.Duration(startMs)*time.Millisecond),
		t0.Add(time.Duration(endMs)*time.Millisecond))
}

func TestTimelineSpansSorted(t *testing.T) {
	rec := NewRecorder()
	addTimeline(rec, "b", "later", 10, 20)
	addTimeline(rec, "a", "earlier", 0, 5)
	spans := rec.SpansCat(CatTimeline)
	if len(spans) != 2 || spans[0].Name != "earlier" {
		t.Fatalf("spans not sorted by start: %+v", spans)
	}
}

func TestGanttLanesSimFirst(t *testing.T) {
	rec := NewRecorder()
	for _, lane := range []string{"bucket-1", "bucket-0", "sim"} {
		addTimeline(rec, lane, "x", 0, 1)
	}
	lanes := timelineLanes(rec.SpansCat(CatTimeline))
	if lanes[0] != "sim" || lanes[1] != "bucket-0" || lanes[2] != "bucket-1" {
		t.Fatalf("lane order wrong: %v", lanes)
	}
}

func TestGanttRendering(t *testing.T) {
	rec := NewRecorder()
	addTimeline(rec, "sim", "step 1", 0, 10)
	addTimeline(rec, "bucket-0", "topology@1", 10, 100)
	out := Gantt(rec, 40)
	if !strings.Contains(out, "sim") || !strings.Contains(out, "bucket-0") {
		t.Fatalf("lanes missing:\n%s", out)
	}
	// The bucket row must contain a long run of '#'.
	lines := strings.Split(out, "\n")
	var bucketRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "bucket-0") {
			bucketRow = l
		}
	}
	if strings.Count(bucketRow, "#") < 20 {
		t.Fatalf("bucket span not drawn:\n%s", out)
	}
	if Gantt(NewRecorder(), 40) != "(empty timeline)\n" {
		t.Fatal("empty timeline rendering wrong")
	}
}

// TestGanttGolden pins the rendered text for a fixed span set: lanes
// "sim" first, marks drawn as one label character, and spans of other
// categories left out.
func TestGanttGolden(t *testing.T) {
	rec := NewRecorderAt(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	addTimeline(rec, "sim", "step 1", 0, 10)
	addTimeline(rec, "sim", "step 2", 30, 40)
	addTimeline(rec, "bucket-1", "stats@2", 40, 70)
	addTimeline(rec, "bucket-0", "topology@1", 10, 100)
	addTimeline(rec, "overload", "shed", 55, 55)
	at := rec.Anchor().Add(5 * time.Millisecond)
	rec.Event(0, CatTask, "queue", "task.submit", at)
	want := "timeline: 100ms total, one column ~ 2.5ms\n" +
		"sim          |s####.......s####.......................|\n" +
		"bucket-0     |....t###################################|\n" +
		"bucket-1     |................s############...........|\n" +
		"overload     |......................s.................|\n"
	if got := Gantt(rec, 40); got != want {
		t.Fatalf("gantt:\n%q\nwant\n%q", got, want)
	}
	u := Utilization(rec)
	for lane, frac := range map[string]float64{"sim": 0.2, "bucket-0": 0.9, "bucket-1": 0.3, "overload": 0} {
		if d := u[lane] - frac; d > 1e-9 || d < -1e-9 {
			t.Errorf("utilization[%s] = %v, want %v", lane, u[lane], frac)
		}
	}
	if _, ok := u["queue"]; ok {
		t.Error("utilization includes a non-timeline lane")
	}
}

func TestUtilization(t *testing.T) {
	rec := NewRecorder()
	// Lane "a" busy 0-50 and 25-75 (merged: 0-75 of 0-100 = 0.75).
	addTimeline(rec, "a", "x", 0, 50)
	addTimeline(rec, "a", "y", 25, 75)
	addTimeline(rec, "b", "z", 0, 100)
	u := Utilization(rec)
	if u["b"] < 0.99 {
		t.Fatalf("lane b should be fully busy: %v", u)
	}
	if u["a"] < 0.74 || u["a"] > 0.76 {
		t.Fatalf("lane a overlap merge wrong: %v", u)
	}
	if Utilization(NewRecorder()) != nil {
		t.Fatal("empty utilization must be nil")
	}
}

func TestTimelineConcurrentAdds(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				addTimeline(rec, "lane", "x", i, i+1)
			}
		}()
	}
	wg.Wait()
	if n := len(rec.SpansCat(CatTimeline)); n != 800 {
		t.Fatalf("lost spans: %d", n)
	}
}
