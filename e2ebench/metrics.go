package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	autobias "repro"
	"repro/internal/metrics"
)

// endToEndMetrics are reported by every workload with --trace 0. The
// benchmark contract gives all workloads one metric set, so each name
// stands for the workload's own user-facing figure (README.md lists the
// mapping).
var endToEndMetrics = []string{
	"setup_s", "p50_ms", "slow_ms", "throughput_per_s", "quality_f1", "peak_rss_mb",
}

// layerMetrics are reported by every workload with --trace 1, with their
// units. A layer a workload does not exercise reads 0.
var layerMetrics, layerUnits = func() ([]string, map[string]string) {
	table := []struct{ name, unit string }{
		{"ind.discover_s", "s"}, {"ind.candidates", "count"},
		{"bias.induce_s", "s"}, {"bias.defs", "count"},
		{"bottom.construct_s", "s"}, {"bottom.constructions", "count"}, {"bottom.literals_per_bc", "count"},
		{"subsume.tests", "count"}, {"subsume.nodes_per_test", "count"}, {"subsume.budget_exhausted_frac", "ratio"},
		{"learn.run_s", "s"}, {"learn.coverage_count_s", "s"}, {"learn.outside_coverage_s", "s"},
		{"learn.rounds", "count"}, {"learn.candidates", "count"},
		{"coverage.tests", "count"}, {"coverage.memo_hit_frac", "ratio"}, {"coverage.pool_busy_frac", "ratio"},
		{"query.exact_eval_s", "s"},
		{"model.artifact_bytes", "bytes"}, {"model.save_s", "s"},
		{"serve.replay_s", "s"}, {"serve.engine_cold_ms", "ms"}, {"serve.engine_hot_ms", "ms"},
		{"serve.memo_hit_frac", "ratio"}, {"serve.cache_hit_frac", "ratio"}, {"serve.cache_rejects", "count"},
		{"serve.max_rps_p99", "1/s"},
		{"http.overhead_hot_ms", "ms"}, {"gen.late_ms", "ms"},
		{"repair.learn_s", "s"}, {"repair.dirty_examples", "count"}, {"repair.carried_hits", "count"},
		{"repair.full_relearns", "count"}, {"ingest.commit_other_ms", "ms"},
		{"shard.rpcs", "count"}, {"shard.worker_busy_s", "s"}, {"shard.wire_bytes_sent", "bytes"},
		{"shard.wire_bytes_recv", "bytes"}, {"shard.memo_hits", "count"}, {"shard.retries", "count"},
		{"cpu_s", "s"}, {"trace.p50_ms", "ms"}, {"trace.spans", "count"},
	}
	names := make([]string, len(table))
	units := make(map[string]string, len(table))
	for i, m := range table {
		names[i] = m.name
		units[m.name] = m.unit
	}
	return names, units
}()

// layer records a per-layer metric with its unit from layerUnits.
func (r *run) layer(name string, v float64, n int) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("e2ebench: unknown layer metric " + name)
	}
	r.layers[name] = metric{v, unit, n}
}

// zeroLayers records every per-layer metric as 0, for the workload to
// overwrite the layers it exercises.
func (r *run) zeroLayers() {
	for _, name := range layerMetrics {
		r.layer(name, 0, 0)
	}
}

// snap wraps a metrics snapshot with accessors that read a missing entry
// as 0.
type snap struct{ s autobias.MetricsSnapshot }

func (s snap) counter(name string) float64 { return float64(s.s.Counters[name]) }
func (s snap) gauge(name string) float64   { return float64(s.s.Gauges[name]) }
func (s snap) spanS(name string) float64 {
	return time.Duration(s.s.Spans[name].TotalNS).Seconds()
}
func (s snap) spanCount(name string) float64 { return float64(s.s.Spans[name].Count) }

// gaugePrefix sums every gauge whose name starts with prefix.
func (s snap) gaugePrefix(prefix string) float64 {
	var sum float64
	for name, v := range s.s.Gauges {
		if strings.HasPrefix(name, prefix) {
			sum += float64(v)
		}
	}
	return sum
}

// minus returns s − o for counters, gauges and spans: the work done
// between two snapshots of one collector.
func (s snap) minus(o snap) snap {
	d := autobias.MetricsSnapshot{
		Counters: map[string]int64{}, Gauges: map[string]int64{}, Spans: map[string]metrics.SpanSnapshot{},
	}
	for k, v := range s.s.Counters {
		d.Counters[k] = v - o.s.Counters[k]
	}
	for k, v := range s.s.Gauges {
		d.Gauges[k] = v - o.s.Gauges[k]
	}
	for k, v := range s.s.Spans {
		p := o.s.Spans[k]
		d.Spans[k] = metrics.SpanSnapshot{Count: v.Count - p.Count, TotalNS: v.TotalNS - p.TotalNS}
	}
	return snap{d}
}

// fetchSnap reads a service's GET /metrics snapshot.
func fetchSnap(ctx context.Context, client *http.Client, url string) (snap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return snap{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var s autobias.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return snap{}, fmt.Errorf("GET %s: %w", url, err)
	}
	return snap{s}, nil
}

// learnLayers records the learner-side layer metrics of one snapshot,
// averaged over n learning runs, given the coverage pool size.
func (r *run) learnLayers(s snap, n float64, workers int) {
	tests := s.gauge("subsume.tests")
	constructions := s.counter("bottom.constructions")
	run := s.spanS("learn.run")
	r.layer("ind.discover_s", s.spanS("ind.discover")/n, int(n))
	r.layer("ind.candidates", s.counter("ind.candidates")/n, int(n))
	r.layer("bias.induce_s", s.spanS("bias.induce")/n, int(n))
	r.layer("bottom.construct_s", s.spanS("bottom.construct")/n, int(s.spanCount("bottom.construct")))
	r.layer("bottom.constructions", constructions/n, int(n))
	r.layer("bottom.literals_per_bc", ratio(s.counter("bottom.literals"), constructions), int(constructions))
	r.layer("subsume.tests", tests/n, int(n))
	r.layer("subsume.nodes_per_test", ratio(s.gauge("subsume.nodes"), tests), int(tests))
	r.layer("subsume.budget_exhausted_frac", ratio(s.gauge("subsume.budget_exhausted"), tests), int(tests))
	r.layer("learn.run_s", run/n, int(s.spanCount("learn.run")))
	r.layer("learn.coverage_count_s", s.spanS("coverage.count")/n, int(s.spanCount("coverage.count")))
	r.layer("learn.outside_coverage_s", (run-s.spanS("coverage.count")-s.spanS("bottom.construct"))/n, int(n))
	r.layer("learn.rounds", s.counter("learn.rounds")/n, int(n))
	r.layer("learn.candidates", s.counter("learn.candidates")/n, int(n))
	covTests := s.gauge("coverage.tests")
	r.layer("coverage.tests", covTests/n, int(n))
	hits := s.gauge("coverage.memo_hits")
	r.layer("coverage.memo_hit_frac", ratio(hits, hits+covTests), int(hits+covTests))
	busy := time.Duration(s.gaugePrefix("coverage.worker_busy_ns.")).Seconds()
	r.layer("coverage.pool_busy_frac", ratio(busy, float64(workers)*run), int(n))
}
