package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"insitu/internal/imagestore"
)

// viewerStats is what one round of viewer load measured.
type viewerStats struct {
	latency   []float64 // ms from each request's scheduled send to its response end
	lag       []float64 // ms the generator sent each request after its due time
	attempted int
	failed    int
}

// viewers is an open-loop viewer load: requests go out on a seeded,
// fixed-rate schedule whatever the server's speed, over at most conns
// connections. Half are latest.json polls, half catalog reads; every
// tenth catalog read refreshes /db/info.json so later reads reach
// frames committed after the load started.
type viewers struct {
	base   string
	client *http.Client
	stop   chan struct{}
	done   chan struct{}

	mu    sync.Mutex
	st    viewerStats
	etags map[string]string
	specs []string
}

type viewerJob struct {
	due     time.Time
	latest  bool
	refresh bool
	pick    float64 // which catalog entry a read fetches, in [0, 1)
}

// startViewers starts the load against base. The serving tier answers
// 404 until the first frame is committed, so the schedule starts only
// once /latest.json answers 200; requests before that would measure
// the run's start, not the serving tier.
func startViewers(base string, seed int64, rate float64, conns int) *viewers {
	v := &viewers{
		base: base,
		client: &http.Client{
			Timeout: 10 * time.Second, // a hung request fails instead of hanging the run
			Transport: &http.Transport{
				MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
			},
		},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		etags: make(map[string]string),
	}
	go v.run(seed, rate, conns)
	return v
}

func (v *viewers) run(seed int64, rate float64, conns int) {
	defer close(v.done)
	defer v.client.CloseIdleConnections()
	for !v.ready() {
		select {
		case <-v.stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
	// Sized so the generator never blocks on a stalled server for the
	// length of any round: stalls must show as latency, not as lag.
	jobs := make(chan viewerJob, 1<<16)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				v.do(j)
			}
		}()
	}
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	catalog := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		j := viewerJob{due: due, latest: rng.Intn(2) == 0, pick: rng.Float64()}
		if !j.latest {
			j.refresh = catalog%10 == 0
			catalog++
		}
		t := time.NewTimer(time.Until(due))
		select {
		case <-v.stop:
			t.Stop()
			close(jobs)
			wg.Wait()
			return
		case <-t.C:
		}
		v.mu.Lock()
		v.st.lag = append(v.st.lag, ms(time.Since(due)))
		v.mu.Unlock()
		jobs <- j
	}
}

// ready reports whether /latest.json answers 200.
func (v *viewers) ready() bool {
	resp, err := v.client.Get(v.base + "/latest.json")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (v *viewers) do(j viewerJob) {
	path := "/latest.json"
	if !j.latest {
		path = "/db/info.json"
		v.mu.Lock()
		if !j.refresh && len(v.specs) > 0 {
			path = "/db/" + v.specs[int(j.pick*float64(len(v.specs)))]
		}
		v.mu.Unlock()
	}
	ok := v.get(path)
	end := time.Now()
	v.mu.Lock()
	v.st.attempted++
	if !ok {
		v.st.failed++
	}
	v.st.latency = append(v.st.latency, ms(end.Sub(j.due)))
	v.mu.Unlock()
}

// get fetches path, revalidating with the ETag it last saw there. A
// transport error or any status but 2xx/304 is a failure.
func (v *viewers) get(path string) bool {
	req, err := http.NewRequest(http.MethodGet, v.base+path, nil)
	if err != nil {
		return false
	}
	v.mu.Lock()
	if tag, ok := v.etags[path]; ok {
		req.Header.Set("If-None-Match", tag)
	}
	v.mu.Unlock()
	resp, err := v.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false
	}
	if resp.StatusCode == http.StatusNotModified {
		return true
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if tag := resp.Header.Get("ETag"); tag != "" {
		v.etags[path] = tag
	}
	if path == "/db/info.json" {
		var info imagestore.Info
		if err := json.Unmarshal(body, &info); err != nil || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			return false
		}
		v.specs = info.Specs
	}
	return true
}

// finish stops the schedule, waits for requests in flight, and returns
// what the round measured.
func (v *viewers) finish() viewerStats {
	close(v.stop)
	<-v.done
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.st
}
