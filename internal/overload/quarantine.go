package overload

import (
	"errors"
	"fmt"
	"sync"
)

// ErrQuarantined is the typed fail-fast returned (wrapped) when a
// (tenant, analysis) route is quarantined: the route has produced
// poison tasks — tasks that crash their bucket or dead-letter — often
// enough that admitting more of them would burn shared staging
// capacity (bucket respawns, retries, credits) for every tenant.
var ErrQuarantined = errors.New("overload: route quarantined")

// QState is a quarantined route's position, mirroring BreakerState but
// driven by *task disposition* (dead-letter / handler error) rather
// than transit health, and advanced by deterministic denial counting
// rather than wall-clock cooldowns so chaos gates replay exactly.
type QState int

const (
	// QClosed admits the route; strikes are being counted.
	QClosed QState = iota
	// QOpen rejects the route until enough denials have accumulated to
	// justify a probe.
	QOpen
	// QProbing admits exactly one probe task at a time; its disposition
	// decides between release (QClosed) and re-open (QOpen).
	QProbing
)

// String implements fmt.Stringer.
func (s QState) String() string {
	switch s {
	case QClosed:
		return "closed"
	case QOpen:
		return "open"
	case QProbing:
		return "probing"
	}
	return fmt.Sprintf("QState(%d)", int(s))
}

// QVerdict is the quarantine's answer to an admission request.
type QVerdict int

const (
	// QAdmit lets the route submit normally.
	QAdmit QVerdict = iota
	// QProbe asks the caller to submit one probe-marked task and report
	// its disposition via RecordProbe.
	QProbe
	// QReject refuses the route for this step.
	QReject
)

// String implements fmt.Stringer.
func (v QVerdict) String() string {
	switch v {
	case QAdmit:
		return "admit"
	case QProbe:
		return "probe"
	case QReject:
		return "reject"
	}
	return fmt.Sprintf("QVerdict(%d)", int(v))
}

// QuarantineConfig tunes the poison-route quarantine.
type QuarantineConfig struct {
	// Strikes is the consecutive poison-disposition count (dead-letter
	// or errored final result) that quarantines a route (default 3).
	Strikes int
	// ProbeAfter is how many admission denials an open route absorbs
	// before it is allowed one half-open probe (default 4). Denials are
	// the deterministic stand-in for a cooldown clock: one denial per
	// step the route would have submitted.
	ProbeAfter int
}

func (c QuarantineConfig) withDefaults() QuarantineConfig {
	if c.Strikes <= 0 {
		c.Strikes = 3
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 4
	}
	return c
}

type qroute struct {
	state    QState
	strikes  int
	denials  int
	inflight bool // QProbing: one probe task outstanding
	opened   bool // the route has been quarantined at least once
}

type qkey struct{ tenant, analysis string }

// Quarantine tracks poison (tenant, analysis) routes across a shared
// staging fabric. It is pure policy — no clock, no goroutines — and is
// safe for concurrent use by the admission pass and the drain
// goroutine.
type Quarantine struct {
	cfg QuarantineConfig

	mu     sync.Mutex
	routes map[qkey]*qroute

	opens    int64
	releases int64
}

// NewQuarantine returns an empty quarantine ledger.
func NewQuarantine(cfg QuarantineConfig) *Quarantine {
	return &Quarantine{cfg: cfg.withDefaults(), routes: make(map[qkey]*qroute)}
}

func (q *Quarantine) route(tenant, analysis string) *qroute {
	k := qkey{tenant, analysis}
	r := q.routes[k]
	if r == nil {
		r = &qroute{}
		q.routes[k] = r
	}
	return r
}

// Allow answers an admission request for the route. QClosed admits;
// QOpen counts the denial and, once ProbeAfter denials have
// accumulated, transitions to QProbing and returns QProbe; QProbing
// returns QProbe while no probe is outstanding and QReject otherwise.
func (q *Quarantine) Allow(tenant, analysis string) QVerdict {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.route(tenant, analysis)
	switch r.state {
	case QClosed:
		return QAdmit
	case QOpen:
		r.denials++
		if r.denials >= q.cfg.ProbeAfter {
			r.state = QProbing
			r.denials = 0
			r.inflight = true
			return QProbe
		}
		return QReject
	default: // QProbing
		if r.inflight {
			return QReject
		}
		r.inflight = true
		return QProbe
	}
}

// Settle reports a normally admitted task's final disposition: ok
// resets the strike streak, a poison disposition (dead-letter or
// errored final result) counts a strike and quarantines the route at
// the threshold. It only acts in QClosed — stale results from before a
// quarantine opened must not disturb the probe protocol.
func (q *Quarantine) Settle(tenant, analysis string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.route(tenant, analysis)
	if r.state != QClosed {
		return
	}
	if ok {
		r.strikes = 0
		return
	}
	r.strikes++
	if r.strikes >= q.cfg.Strikes {
		r.state = QOpen
		r.strikes = 0
		r.denials = 0
		r.opened = true
		q.opens++
	}
}

// RecordProbe reports a probe task's disposition: success releases the
// route back to QClosed, failure re-opens it and restarts the denial
// count. It only acts in QProbing.
func (q *Quarantine) RecordProbe(tenant, analysis string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.route(tenant, analysis)
	if r.state != QProbing {
		return
	}
	r.inflight = false
	if ok {
		r.state = QClosed
		r.strikes = 0
		q.releases++
	} else {
		r.state = QOpen
		r.denials = 0
	}
}

// Barred reports whether the route is currently quarantined (open or
// probing) — the cheap check dataspaces' admission guard uses to
// fail-fast submissions that bypassed the admission pass.
func (q *Quarantine) Barred(tenant, analysis string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.routes[qkey{tenant, analysis}]
	return r != nil && r.state != QClosed
}

// State returns the route's current position.
func (q *Quarantine) State(tenant, analysis string) QState {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.routes[qkey{tenant, analysis}]
	if r == nil {
		return QClosed
	}
	return r.state
}

// Opened reports whether the route has entered quarantine at least
// once, whatever its state now.
func (q *Quarantine) Opened(tenant, analysis string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.routes[qkey{tenant, analysis}]
	return r != nil && r.opened
}

// Opens returns how many times any route entered quarantine.
func (q *Quarantine) Opens() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.opens
}

// Releases returns how many times a probe released a route.
func (q *Quarantine) Releases() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.releases
}
