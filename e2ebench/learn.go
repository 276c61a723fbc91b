package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	autobias "repro"
)

// corpusSeed fixes the generated datasets and their train/held-out
// splits. Learning cost and held-out F1 swing by 2–3x between generator
// seeds (README.md, "Why the corpus is fixed"), far more than any bound
// a regression check can use, so --seed drives only the traffic and the
// mutation stream, as with a fixed benchmark corpus.
const corpusSeed = 1

// setupReps is the least number of times a run sets the system up;
// setup_s is the median. A set-up faster than minSetupTime/setupReps
// repeats until minSetupTime has passed.
const (
	setupReps    = 5
	minSetupTime = 250 * time.Millisecond
)

// learnSpec describes one learning workload.
type learnSpec struct {
	dataset string
	scale   float64
	shards  int // 0: single process; otherwise in-process shard workers
	// minF1 is the floor on held-out F1 below which the run fails.
	minF1 float64
}

func learnUW(ctx context.Context, r *run) error {
	return learnWorkload(ctx, r, learnSpec{dataset: "uw", scale: 0.3, minF1: 0.6})
}

func shardSys(ctx context.Context, r *run) error {
	return learnWorkload(ctx, r, learnSpec{dataset: "sys", scale: 0.3, shards: 2, minF1: 0.55})
}

// splitTask generates a dataset and splits its examples 2/3 : 1/3 into a
// training task and held-out positives and negatives.
func splitTask(name string, scale float64, seed int64) (autobias.Task, []autobias.Example, []autobias.Example, error) {
	ds, err := autobias.GenerateDataset(name, scale, seed)
	if err != nil {
		return autobias.Task{}, nil, nil, err
	}
	task := autobias.TaskFromDataset(ds)
	rng := rand.New(rand.NewSource(seed))
	cut := func(ex []autobias.Example) ([]autobias.Example, []autobias.Example) {
		p := append([]autobias.Example(nil), ex...)
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		k := len(p) * 2 / 3
		return p[:k], p[k:]
	}
	var testPos, testNeg []autobias.Example
	task.Pos, testPos = cut(task.Pos)
	task.Neg, testNeg = cut(task.Neg)
	return task, testPos, testNeg, nil
}

// fleet is a set of in-process shard workers on loopback. Each worker's
// handler is wrapped in a timer, since a sharded run records no
// coverage.count span and the wrapper is the only way to attribute its
// coverage time.
type fleet struct {
	urls    []string
	servers []*http.Server
	serving sync.WaitGroup // one per server's Serve loop
	busyNS  atomic.Int64
	parent  atomic.Int64 // span the handler spans belong to
}

// startFleet starts n workers over task and waits until each is ready.
func startFleet(ctx context.Context, r *run, task autobias.Task, n int) (*fleet, error) {
	f := &fleet{}
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < n; i++ {
		w, err := autobias.NewShardWorker(task, autobias.Options{Workers: 1, Metrics: r.traced},
			fmt.Sprintf("w%d", i+1), autobias.ShardWorkerOptions{})
		if err != nil {
			f.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		h := w.Handler()
		srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			start := time.Now()
			h.ServeHTTP(rw, req)
			end := time.Now()
			f.busyNS.Add(int64(end.Sub(start)))
			r.tr.record("shard.handler", f.parent.Load(), start, end)
		})}
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = srv.Serve(ln)
		}()
		f.servers = append(f.servers, srv)
		url := "http://" + ln.Addr().String()
		f.urls = append(f.urls, url)
		if err := waitHTTP(ctx, client, nil, url+"/readyz"); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// close stops the workers' HTTP servers and waits until they have
// stopped serving.
func (f *fleet) close() {
	for _, s := range f.servers {
		_ = s.Close()
	}
	f.serving.Wait()
}

// scrape sums the workers' /metrics snapshots.
func (f *fleet) scrape(ctx context.Context) (autobias.MetricsSnapshot, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	var total autobias.MetricsSnapshot
	for _, u := range f.urls {
		s, err := fetchSnap(ctx, client, u+"/metrics")
		if err != nil {
			return total, err
		}
		total.Merge(s.s)
	}
	return total, nil
}

func learnWorkload(ctx context.Context, r *run, spec learnSpec) error {
	// Set-up is cheap here, so it repeats until its median is steady.
	var (
		setups           []float64
		task             autobias.Task
		testPos, testNeg []autobias.Example
	)
	setupStart := time.Now()
	for len(setups) < setupReps || time.Since(setupStart) < minSetupTime {
		sp := r.tr.begin("setup", 0)
		start := time.Now()
		gen := r.tr.begin("datagen.generate", sp)
		var err error
		task, testPos, testNeg, err = splitTask(spec.dataset, spec.scale, corpusSeed)
		r.tr.end(gen)
		if err != nil {
			return err
		}
		if spec.shards > 0 {
			fs := r.tr.begin("shard.fleet_start", sp)
			fl, err := startFleet(ctx, r, task, spec.shards)
			r.tr.end(fs)
			if err != nil {
				return err
			}
			fl.close()
		}
		setups = append(setups, time.Since(start).Seconds())
		r.tr.end(sp)
	}

	const workers = 2
	var (
		learnMS, f1s []float64
		cpu          float64
		agg, wagg    autobias.MetricsSnapshot // coordinator and worker metrics
		busy         time.Duration            // shard handler time
		defs         int
	)
	measureEnd := time.Now().Add(r.seconds)
	for len(learnMS) == 0 || time.Now().Before(measureEnd) {
		if err := ctx.Err(); err != nil {
			return err
		}
		opts := autobias.Options{Workers: workers, Metrics: r.traced}
		// Every sharded learn gets a fresh fleet, so that each one is a
		// cold run like the single-process learns; the fleet start is one
		// more set-up sample.
		var fl *fleet
		if spec.shards > 0 {
			start := time.Now()
			var err error
			if fl, err = startFleet(ctx, r, task, spec.shards); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			opts.Shard = &autobias.ShardOptions{Workers: fl.urls}
		}
		sp := r.tr.begin("autobias.LearnCtx", 0)
		if fl != nil {
			fl.parent.Store(sp)
		}
		cpu0 := selfCPUSeconds()
		start := time.Now()
		res, err := autobias.LearnCtx(ctx, task, opts)
		elapsed := time.Since(start)
		cpu += selfCPUSeconds() - cpu0
		r.tr.end(sp)
		if fl != nil {
			if r.traced {
				w, err := fl.scrape(ctx)
				if err != nil {
					fl.close()
					return err
				}
				wagg.Merge(w)
			}
			busy += time.Duration(fl.busyNS.Load())
			fl.close()
		}
		if err == nil {
			err = learnFailure(res)
		}
		r.op(err)
		if err != nil {
			r.check(false, "learn %d: %v", len(learnMS)+1, err)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		learnMS = append(learnMS, ms(elapsed))
		defs = res.Bias.Size()
		if res.Metrics != nil {
			agg.Merge(*res.Metrics)
		}

		sp = r.tr.begin("query.exact_eval", 0)
		m, err := res.EvaluateExact(testPos, testNeg)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("exact evaluation: %w", err)
		}
		f1s = append(f1s, m.F1)
	}
	if len(learnMS) == 0 {
		return errors.New("no learning run succeeded")
	}
	n := float64(len(learnMS))
	fmt.Fprintf(os.Stderr, "learn %s: %d runs, train %d+%d, held-out %d+%d, bias %d defs, F1 %.4f\n",
		spec.dataset, len(learnMS), len(task.Pos), len(task.Neg), len(testPos), len(testNeg), defs, median(f1s))
	r.check(quantile(f1s, 0) >= spec.minF1, "held-out F1 %.4f below the floor %.2f", quantile(f1s, 0), spec.minF1)

	rss, err := selfPeakRSSMB()
	if err != nil {
		return err
	}
	r.setE2E("setup_s", median(setups), "s", len(setups))
	r.setE2E("p50_ms", median(learnMS), "ms", len(learnMS))
	r.setE2E("slow_ms", quantile(learnMS, 1), "ms", len(learnMS))
	r.setE2E("throughput_per_s", float64(len(task.Pos)+len(task.Neg))/(median(learnMS)/1000), "1/s", len(learnMS))
	r.setE2E("quality_f1", median(f1s), "ratio", len(f1s))
	r.setE2E("peak_rss_mb", rss, "MB", 1)

	if !r.traced {
		return nil
	}
	r.zeroLayers()
	r.learnLayers(snap{agg}, n, workers)
	r.layer("bias.defs", float64(defs), 1)
	r.layer("query.exact_eval_s", r.tr.total("query.exact_eval").Seconds()/n, len(f1s))
	r.layer("cpu_s", cpu/n, len(learnMS))
	r.layer("trace.p50_ms", median(learnMS), len(learnMS))
	if spec.shards > 0 {
		c, w := snap{agg}, snap{wagg}
		r.layer("shard.rpcs", c.gauge("shard.rpc_sent")/n, int(n))
		r.layer("shard.worker_busy_s", busy.Seconds()/n, int(n))
		r.layer("shard.wire_bytes_sent", c.gauge("shard.wire_bytes_sent")/n, int(n))
		r.layer("shard.wire_bytes_recv", c.gauge("shard.wire_bytes_recv")/n, int(n))
		r.layer("shard.memo_hits", c.gauge("shard.memo_hits")/n, int(n))
		r.layer("shard.retries", c.gauge("shard.rpc_retried")/n, int(n))
		// Sharded coverage runs in the workers, so their BC construction
		// and subsumption work is what the run did.
		r.layer("bottom.construct_s", (c.spanS("bottom.construct")+w.spanS("bottom.construct"))/n, int(n))
		tests := c.gauge("subsume.tests") + w.gauge("subsume.tests")
		r.layer("subsume.tests", tests/n, int(n))
		r.layer("subsume.nodes_per_test", ratio(c.gauge("subsume.nodes")+w.gauge("subsume.nodes"), tests), int(tests))
		r.layer("subsume.budget_exhausted_frac",
			ratio(c.gauge("subsume.budget_exhausted")+w.gauge("subsume.budget_exhausted"), tests), int(tests))
	}
	r.layer("trace.spans", float64(r.tr.count()), 1)
	return nil
}

// learnFailure turns a learning result that lost work into an error: a
// degraded run, or a sharded run that lost a shard or fell back to local
// computation.
func learnFailure(res *autobias.Result) error {
	switch {
	case res.Degraded():
		return fmt.Errorf("degraded run: %s", res.Report.Summary())
	case res.Report.Count(autobias.DegradationShardLost) > 0:
		return errors.New("a shard was lost")
	case res.Report.Count(autobias.DegradationShardFellBackLocal) > 0:
		return errors.New("a shard fell back to local computation")
	}
	return nil
}
