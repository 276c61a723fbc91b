// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the real entry points — autobias.LearnCtx, in-process
// shard-worker fleets, and the cmd/serve and cmd/ingest binaries driven
// over HTTP — checks every output, and prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds the
// binaries under test first:
//
//	bash e2ebench/run.sh --workload learn-uw --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, and the spans of the run are written
// under .bench_build/traces. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/benchenv"
)

// runDeadline bounds a whole run, so that a hung child or request cannot
// keep the benchmark past its 180 s budget.
const runDeadline = 170 * time.Second

// workload is one benchmark workload: it measures, checks its outputs
// and records metrics on r.
type workload func(ctx context.Context, r *run) error

var workloads = map[string]workload{
	"learn-uw":   learnUW,
	"shard-sys":  shardSys,
	"serve-imdb": serveIMDb,
	"live-uw":    liveUW,
}

// metric is one reported value with its unit and the number of samples
// behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// run is the state of one benchmark invocation.
type run struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string // directory holding the serve and ingest binaries
	dir     string // scratch directory of this run, removed at exit

	tr    *tracer
	procs *procSet

	e2e       map[string]metric
	layers    map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

// setE2E records an end-to-end metric.
func (r *run) setE2E(name string, v float64, unit string, n int) {
	r.e2e[name] = metric{v, unit, n}
}

// check records a failed output check; the run then reports
// correct=false and exits non-zero.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, when err is non-nil, one failed
// operation.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	workloadName := flag.String("workload", "", "workload to run: learn-uw, shard-sys, serve-imdb, live-uw")
	seed := flag.Int64("seed", 1, "workload seed: the traffic and mutation stream derive from it")
	seconds := flag.Int("seconds", 10, "how long the workload measures")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	bin := flag.String("bin", "", "directory holding the serve and ingest binaries built from the tree under test")
	work := flag.String("work", ".bench_build", "directory for scratch files and traces")
	flag.Parse()

	wl, ok := workloads[*workloadName]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (%s), -seconds >= 1, -trace 0|1 and -bin\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		name: *workloadName, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, bin: *bin, dir: dir,
		e2e: map[string]metric{}, layers: map[string]metric{},
	}
	r.tr = newTracer(r.traced, fmt.Sprintf("%s-seed%d", r.name, r.seed))
	r.procs = &procSet{}
	defer r.procs.stopAll()

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	printEnv(r)

	if err := wl(ctx, r); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", r.name, err)
		return 1
	}
	r.procs.stopAll()
	if r.traced {
		path := filepath.Join(*work, "traces", r.tr.run+".json")
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: write trace:", err)
			return 1
		}
		r.tr.summary(os.Stderr)
		fmt.Fprintln(os.Stderr, "e2ebench: spans written to", path)
	}
	return r.report()
}

// report prints every metric with its unit and sample count, then the
// result line, and returns the exit code.
func (r *run) report() int {
	set, want := r.e2e, endToEndMetrics
	if r.traced {
		set, want = r.layers, layerMetrics
	}
	for _, name := range want {
		if _, ok := set[name]; !ok {
			r.problems = append(r.problems, "metric "+name+" was not measured")
		}
	}
	out := map[string]map[string]any{}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := set[name]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.problems = append(r.problems, "metric "+name+" is not finite")
			continue
		}
		fmt.Printf("%-32s %14.6g %-8s n=%d\n", name, m.value, m.unit, m.n)
		out[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if r.attempted < 1 {
		r.problems = append(r.problems, "no operation was attempted")
		r.attempted = 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: CHECK FAILED:", p)
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// printEnv prints the environment block of the run: the benchenv fields
// plus nproc, the CPU model, the commit under test and the seed.
func printEnv(r *run) {
	env := struct {
		benchenv.Env
		Nproc    int    `json:"nproc"`
		CPUModel string `json:"cpu_model"`
		Commit   string `json:"commit"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Seconds  int    `json:"seconds"`
		Traced   bool   `json:"traced"`
	}{benchenv.Capture(), nproc(), cpuModel(), gitCommit(), r.name, r.seed, int(r.seconds / time.Second), r.traced}
	b, _ := json.Marshal(env)
	fmt.Printf("env %s\n", b)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
