package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one open-loop traffic phase: n requests, the i-th due at
// start + i/rate, whatever happened to earlier ones. An infinite rate
// makes every request due at once.
type phase struct {
	name string
	rate float64 // requests per second
	n    int
	body func(i int) []byte
	// check validates the i-th response body; an error counts the
	// request as failed.
	check func(i int, body []byte) error
}

// phaseStats is what one phase measured. Latency runs from each
// request's scheduled send time, so a stall also shows on the requests
// queued behind it; a failed request counts with the timeout as its
// latency, which misses any latency limit.
type phaseStats struct {
	sent, ok, failed int
	latMS            []float64 // per request, from its scheduled send time
	lateMS           []float64 // per request, how late the generator sent it
	wall             time.Duration
}

// openLoop runs p against url over conns connections. A request waits
// for a free connection, and that wait counts in its latency and in the
// generator's lateness.
func openLoop(ctx context.Context, client *http.Client, url string, conns int, timeout time.Duration,
	p phase, tr *tracer, parent int64) phaseStats {
	st := phaseStats{latMS: make([]float64, p.n), lateMS: make([]float64, p.n)}
	failed := make([]bool, p.n)
	interval := float64(time.Second) / p.rate
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= p.n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(d):
					}
				}
				sent := time.Now()
				err := send(ctx, client, url, timeout, p.body(i), func(b []byte) error { return p.check(i, b) })
				done := time.Now()
				tr.record("http.request", parent, sent, done)
				st.lateMS[i] = ms(sent.Sub(due))
				if err != nil {
					failed[i] = true
					st.latMS[i] = ms(done.Sub(due) + timeout)
					continue
				}
				st.latMS[i] = ms(done.Sub(due))
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.sent = p.n
	for _, f := range failed {
		if f {
			st.failed++
		} else {
			st.ok++
		}
	}
	return st
}

// send POSTs body and validates a 2xx response with check. Any other
// status, a transport error and a timeout are failures.
func send(ctx context.Context, client *http.Client, url string, timeout time.Duration, body []byte,
	check func([]byte) error) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return check(b)
}

// newClient returns an HTTP client that keeps at most conns connections
// to one host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     30 * time.Second,
	}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
