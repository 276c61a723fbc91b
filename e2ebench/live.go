package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	autobias "repro"
	"repro/internal/eval"
	"repro/internal/logic"
	"repro/internal/query"
)

const (
	liveScale   = 0.2
	liveBatches = 20
	liveMinF1   = 0.7
	// liveSetups is 2, not setupReps: each set-up is a full initial
	// learn of ~16 s, and the benchmark's total time budget allows two.
	liveSetups = 2
)

// liveBatch is one batch of the mutation stream.
type liveBatch struct {
	Mutations []autobias.IngestMutation `json:"mutations"`
}

// liveStream builds the seeded stream: each batch adds 2–3 publication
// tuples for one random existing student, and every fifth batch deletes
// the tuples an earlier insert batch added.
func liveStream(students []string, seed int64) []liveBatch {
	rng := rand.New(rand.NewSource(seed))
	var out []liveBatch
	var live []int // insert batches whose tuples are still present
	for b := 1; b <= liveBatches; b++ {
		if b%5 == 0 {
			k := rng.Intn(len(live))
			src := out[live[k]]
			live = append(live[:k], live[k+1:]...)
			var del liveBatch
			for _, m := range src.Mutations {
				del.Mutations = append(del.Mutations, autobias.IngestMutation{
					Op: autobias.IngestDelete, Relation: m.Relation, Tuple: m.Tuple})
			}
			out = append(out, del)
			continue
		}
		stud := students[rng.Intn(len(students))]
		var ins liveBatch
		for j, n := 0, 2+rng.Intn(2); j < n; j++ {
			ins.Mutations = append(ins.Mutations, autobias.IngestMutation{
				Op: autobias.IngestInsert, Relation: "publication",
				Tuple: []string{fmt.Sprintf("title_live_%d_%d_%d", seed, b, j), stud}})
		}
		live = append(live, len(out))
		out = append(out, ins)
	}
	return out
}

func liveUW(ctx context.Context, r *run) error {
	ds, err := autobias.GenerateDataset("uw", liveScale, corpusSeed)
	if err != nil {
		return err
	}
	var students []string
	for _, t := range ds.DB.Relation("student").Snapshot() {
		students = append(students, t[0])
	}
	stream := liveStream(students, corpusSeed)

	// Set-up: start cmd/ingest until it accepts mutations (its initial
	// learn included), liveSetups times; the last instance takes the
	// stream.
	var (
		setups    []float64
		ing       *child
		base      string
		modelsDir string
	)
	client := newClient(1)
	for i := 0; i < liveSetups; i++ {
		if ing != nil {
			ing.stop()
		}
		modelsDir = filepath.Join(r.dir, fmt.Sprintf("models%d", i))
		sp := r.tr.begin("setup", 0)
		start := time.Now()
		ing, err = r.procs.start(filepath.Join(r.bin, "ingest"), filepath.Join(r.dir, fmt.Sprintf("ingest%d.log", i)),
			"-dataset", "uw", "-scale", fmt.Sprint(liveScale), "-seed", fmt.Sprint(corpusSeed),
			"-workers", "2", "-models", modelsDir, "-addr", "127.0.0.1:0")
		if err != nil {
			return err
		}
		line, err := waitLog(ctx, ing, "accepting mutations on ")
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.tr.end(sp)
		base = "http://" + strings.TrimSpace(line[strings.Index(line, "accepting mutations on ")+len("accepting mutations on "):])
	}
	defer ing.stop()

	// The stream: one writer, closed loop.
	var (
		commitMS, learnMS []float64
		dirty, carried    float64
		versions          []uint64
		total             snap
	)
	cpu0, err := ing.cpuSeconds()
	if err != nil {
		return err
	}
	streamStart := time.Now()
	for i, b := range stream {
		var before snap
		if r.traced {
			if before, err = fetchSnap(ctx, client, base+"/metrics"); err != nil {
				return err
			}
		}
		body, err := json.Marshal(b)
		if err != nil {
			return err
		}
		sp := r.tr.begin("http.ingest", 0)
		start := time.Now()
		v, err := postCommit(ctx, client, base+"/ingest", body)
		elapsed := time.Since(start)
		r.tr.end(sp)
		r.op(err)
		if err != nil {
			r.check(false, "batch %d: %v", i+1, err)
			continue
		}
		versions = append(versions, v)
		commitMS = append(commitMS, ms(elapsed))
		if r.traced {
			after, err := fetchSnap(ctx, client, base+"/metrics")
			if err != nil {
				return err
			}
			d := after.minus(before)
			learnMS = append(learnMS, 1000*d.spanS("learn.run"))
			dirty += d.counter("ingest.examples_dirty")
			carried += after.gauge("ingest.carried_hits")
			total.s.Merge(d.s)
		}
	}
	streamS := time.Since(streamStart).Seconds()
	cpu1, err := ing.cpuSeconds()
	if err != nil {
		return err
	}

	for i, v := range versions {
		r.check(v == uint64(i+1), "commit %d got data version %d; versions must run 1..%d without gaps", i+1, v, liveBatches)
	}
	r.check(len(versions) == liveBatches, "%d of %d batches committed", len(versions), liveBatches)
	var status struct {
		DataVersion uint64 `json:"data_version"`
		Repairs     int    `json:"repairs"`
		FullRelearn int    `json:"full_relearn"`
		LastError   string `json:"last_error"`
	}
	if err := getJSON(ctx, client, base+"/status", &status); err != nil {
		return err
	}
	r.check(status.Repairs == liveBatches && status.FullRelearn == 0 && status.LastError == "",
		"/status after the stream: %d repairs, %d full re-learns, last error %q; want %d, 0, none",
		status.Repairs, status.FullRelearn, status.LastError, liveBatches)
	if status.LastError != "" {
		r.failed++
	}
	rss, err := ing.peakRSSMB()
	if err != nil {
		return err
	}
	ing.stop()

	art, err := autobias.LoadModel(filepath.Join(modelsDir, "uw.model"))
	if err != nil {
		return fmt.Errorf("final artifact: %w", err)
	}
	r.check(art.DataVersion == liveBatches, "final artifact is at data version %d, want %d", art.DataVersion, liveBatches)

	// Quality: the final theory scored with exact query semantics over the
	// post-stream database, replayed here from the same stream.
	sp := r.tr.begin("query.exact_eval", 0)
	f1, err := exactF1(ctx, ds, stream, art.Theory)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.check(f1 >= liveMinF1, "final theory's training F1 %.4f below the floor %.2f", f1, liveMinF1)
	fmt.Fprintf(os.Stderr, "live uw: %d commits, stream %.3fs, commit p50 %.1fms max %.1fms, %d clauses, F1 %.4f\n",
		len(commitMS), streamS, median(commitMS), quantile(commitMS, 1), strings.Count(art.Theory, ":-"), f1)

	r.setE2E("setup_s", median(setups), "s", len(setups))
	r.setE2E("p50_ms", median(commitMS), "ms", len(commitMS))
	r.setE2E("slow_ms", quantile(commitMS, 1), "ms", len(commitMS))
	r.setE2E("throughput_per_s", float64(len(commitMS))/streamS, "1/s", 1)
	r.setE2E("quality_f1", f1, "ratio", len(ds.Pos)+len(ds.Neg))
	r.setE2E("peak_rss_mb", rss, "MB", 1)
	if !r.traced {
		return nil
	}
	n := float64(len(commitMS))
	r.zeroLayers()
	r.learnLayers(total, n, 2)
	r.layer("repair.learn_s", mean(learnMS)/1000, len(learnMS))
	r.layer("repair.dirty_examples", dirty/n, len(commitMS))
	r.layer("repair.carried_hits", carried/n, len(commitMS))
	r.layer("repair.full_relearns", float64(status.FullRelearn), 1)
	other := make([]float64, len(commitMS))
	for i := range commitMS {
		other[i] = commitMS[i] - learnMS[i]
	}
	r.layer("ingest.commit_other_ms", median(other), len(other))
	r.layer("query.exact_eval_s", r.tr.total("query.exact_eval").Seconds(), 1)
	fi, err := os.Stat(filepath.Join(modelsDir, "uw.model"))
	if err != nil {
		return err
	}
	r.layer("model.artifact_bytes", float64(fi.Size()), 1)
	r.layer("cpu_s", cpu1-cpu0, 1)
	r.layer("trace.p50_ms", median(commitMS), len(commitMS))
	r.layer("trace.spans", float64(r.tr.count()), 1)
	return nil
}

// postCommit POSTs one batch and returns the data version it committed.
func postCommit(ctx context.Context, client *http.Client, url string, body []byte) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var c struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return 0, err
	}
	return c.Version, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// exactF1 applies stream to ds's database and scores theory on ds's
// examples with exact select-project-join semantics.
func exactF1(ctx context.Context, ds *autobias.Dataset, stream []liveBatch, theory string) (float64, error) {
	ing := autobias.NewIngestor(ds.DB, nil)
	for _, b := range stream {
		if _, err := ing.Apply(ctx, autobias.IngestBatch{Mutations: b.Mutations}); err != nil {
			return 0, fmt.Errorf("replay the stream: %w", err)
		}
	}
	def, err := logic.ParseDefinition(theory)
	if err != nil {
		return 0, fmt.Errorf("parse the final theory: %w", err)
	}
	eng := query.New(ds.DB, query.Options{})
	covers := func(d *logic.Definition, e logic.Literal) (bool, error) {
		ok, err := eng.DefinitionCovers(d, e)
		if errors.Is(err, query.ErrBudget) {
			return false, nil
		}
		return ok, err
	}
	m, err := eval.Evaluate(covers, def, ds.Pos, ds.Neg)
	if err != nil {
		return 0, err
	}
	return m.F1, nil
}
