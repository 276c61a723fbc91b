package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stallServer answers "{}" immediately, except that request number
// stallAt holds a server-wide lock for stall, and every request whose
// number is in fail gets a 503.
func stallServer(stallAt int, stall time.Duration, fail map[int]bool) *httptest.Server {
	var mu sync.Mutex
	n := 0
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := n
		n++
		if i == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		if fail[i] {
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("{}"))
	}))
}

func okPhase(n int, rate float64) phase {
	return phase{name: "test", rate: rate, n: n,
		body:  func(int) []byte { return []byte("{}") },
		check: func(int, []byte) error { return nil }}
}

// TestOpenLoopShowsStallOnLaterRequests checks the open-loop accounting:
// latency runs from the scheduled send time, so one server stall also
// shows on the requests scheduled while it lasted, and the generator
// reports that it ran late.
func TestOpenLoopShowsStallOnLaterRequests(t *testing.T) {
	const (
		n     = 200
		rate  = 200.0 // one request every 5 ms
		stall = 300 * time.Millisecond
	)
	srv := stallServer(20, stall, nil)
	defer srv.Close()

	st := openLoop(context.Background(), newClient(2), srv.URL, 2, 5*time.Second, okPhase(n, rate), newTracer(false, "test"), 0)
	if st.sent != n || st.ok != n || st.failed != 0 {
		t.Fatalf("sent=%d ok=%d failed=%d, want %d/%d/0", st.sent, st.ok, st.failed, n, n)
	}
	// Requests scheduled in the first half of the stall wait at least
	// half of it. A closed-loop measurement would see only the one or two
	// requests in flight when the stall began.
	slow := 0
	for _, l := range st.latMS {
		if l >= ms(stall/2) {
			slow++
		}
	}
	if want := int(stall.Seconds()*rate) / 2; slow < want {
		t.Errorf("%d requests took >= %v, want at least %d: the stall must show on later requests", slow, stall/2, want)
	}
	if late := quantile(st.lateMS, 1); late < ms(stall/2) {
		t.Errorf("generator lateness max %.1fms, want >= %.1fms", late, ms(stall/2))
	}
}

// TestOpenLoopCountsFailures checks that non-2xx responses count as
// failures and as latency-limit misses.
func TestOpenLoopCountsFailures(t *testing.T) {
	const timeout = time.Second
	srv := stallServer(-1, 0, map[int]bool{3: true, 7: true})
	defer srv.Close()

	st := openLoop(context.Background(), newClient(2), srv.URL, 2, timeout, okPhase(20, 1000), newTracer(false, "test"), 0)
	if st.sent != 20 || st.ok != 18 || st.failed != 2 {
		t.Fatalf("sent=%d ok=%d failed=%d, want 20/18/2", st.sent, st.ok, st.failed)
	}
	misses := 0
	for _, l := range st.latMS {
		if l >= ms(timeout) {
			misses++
		}
	}
	if misses != 2 {
		t.Errorf("%d requests count as at least the timeout, want the 2 failed ones", misses)
	}
}

// TestTracerSelfTime checks that a span's self time excludes the part
// of its interval that its children cover, counting overlap once.
func TestTracerSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}
	agg := aggregate(spans)
	if got := agg["parent"].SelfNS; got != 100-40-10 {
		t.Errorf("parent self time %d, want 50", got)
	}
	if got := agg["child"]; got.Count != 3 || got.TotalNS != 30+20+30 {
		t.Errorf("child totals %+v, want count 3 and total 80", got)
	}
}
