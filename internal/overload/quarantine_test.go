package overload

import (
	"sync"
	"testing"
)

func TestQuarantineStrikesOpenAndProbeRelease(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 3, ProbeAfter: 2})

	// Healthy route admits forever.
	for i := 0; i < 5; i++ {
		if v := q.Allow("a", "viz"); v != QAdmit {
			t.Fatalf("healthy allow %d = %v, want admit", i, v)
		}
		q.Settle("a", "viz", true)
	}

	// Two strikes then a success: streak resets, still closed.
	q.Settle("a", "viz", false)
	q.Settle("a", "viz", false)
	q.Settle("a", "viz", true)
	if st := q.State("a", "viz"); st != QClosed {
		t.Fatalf("state after reset = %v, want closed", st)
	}
	if q.Opened("a", "viz") {
		t.Fatal("route reported opened before it was ever quarantined")
	}

	// Three consecutive strikes open the quarantine.
	for i := 0; i < 3; i++ {
		q.Settle("a", "viz", false)
	}
	if st := q.State("a", "viz"); st != QOpen {
		t.Fatalf("state after 3 strikes = %v, want open", st)
	}
	if q.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", q.Opens())
	}
	if !q.Barred("a", "viz") {
		t.Fatal("open route not barred")
	}

	// Denials accumulate: first rejected, second converts to a probe.
	if v := q.Allow("a", "viz"); v != QReject {
		t.Fatalf("first open allow = %v, want reject", v)
	}
	if v := q.Allow("a", "viz"); v != QProbe {
		t.Fatalf("second open allow = %v, want probe", v)
	}
	// Only one probe in flight at a time.
	if v := q.Allow("a", "viz"); v != QReject {
		t.Fatalf("allow during in-flight probe = %v, want reject", v)
	}

	// Failed probe re-opens; the denial clock restarts.
	q.RecordProbe("a", "viz", false)
	if st := q.State("a", "viz"); st != QOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if v := q.Allow("a", "viz"); v != QReject {
		t.Fatalf("allow after failed probe = %v, want reject", v)
	}
	if v := q.Allow("a", "viz"); v != QProbe {
		t.Fatalf("second allow after failed probe = %v, want probe", v)
	}

	// Successful probe releases the route.
	q.RecordProbe("a", "viz", true)
	if st := q.State("a", "viz"); st != QClosed {
		t.Fatalf("state after good probe = %v, want closed", st)
	}
	if q.Releases() != 1 {
		t.Fatalf("releases = %d, want 1", q.Releases())
	}
	if !q.Opened("a", "viz") {
		t.Fatal("released route no longer reports it was quarantined")
	}
	if v := q.Allow("a", "viz"); v != QAdmit {
		t.Fatalf("allow after release = %v, want admit", v)
	}
}

func TestQuarantineRoutesAreIndependent(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 2, ProbeAfter: 3})
	for i := 0; i < 2; i++ {
		q.Settle("noisy", "poison", false)
	}
	if st := q.State("noisy", "poison"); st != QOpen {
		t.Fatalf("poison route = %v, want open", st)
	}
	// Same analysis under a different tenant, and a different analysis
	// under the same tenant, both stay closed.
	if q.Barred("victim", "poison") || q.Barred("noisy", "viz") {
		t.Fatal("quarantine leaked across routes")
	}
	if q.Opened("victim", "poison") || q.Opened("noisy", "viz") || !q.Opened("noisy", "poison") {
		t.Fatal("Opened does not track routes independently")
	}
	if v := q.Allow("victim", "poison"); v != QAdmit {
		t.Fatalf("victim allow = %v, want admit", v)
	}
}

func TestQuarantineStaleResultsIgnoredWhileOpen(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 1, ProbeAfter: 2})
	q.Settle("t", "a", false)
	if st := q.State("t", "a"); st != QOpen {
		t.Fatalf("state = %v, want open", st)
	}
	// In-flight results from before the open must not move the state.
	q.Settle("t", "a", true)
	q.Settle("t", "a", false)
	if st := q.State("t", "a"); st != QOpen {
		t.Fatalf("state after stale settles = %v, want open", st)
	}
	// A probe outcome reported while not probing is ignored too.
	q.RecordProbe("t", "a", true)
	if st := q.State("t", "a"); st != QOpen {
		t.Fatalf("state after stray probe record = %v, want open", st)
	}
}

func TestQuarantineConcurrentAccess(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b"}[g%2]
			for i := 0; i < 200; i++ {
				switch q.Allow(tenant, "viz") {
				case QAdmit:
					q.Settle(tenant, "viz", i%7 != 0)
				case QProbe:
					q.RecordProbe(tenant, "viz", i%2 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
}
