// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every reply it gets, and prints the result as
// one JSON object on the last line of standard output. run.py builds it
// and the cuckood daemon from the tree under test and then runs it; see
// WORKLOADS.md for the workloads and what each metric means.
//
//	perfbench -workload wire-zipf-pipelined -seed 1 -seconds 10 -trace 0 \
//	          -cuckood .bench_build/cuckood -out .bench_build/perfbench
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up a wire workload, and
// tableSetupRepeats the table, whose set-up is shorter and varies more
// with the host; setup_s is the median, which a single slow start cannot
// move.
const (
	setupRepeats      = 3
	tableSetupRepeats = 7
)

// metric is one metric of the final result line.
type metric struct{ name, unit string }

// endToEnd are the metrics every untraced run prints on its last line.
// Each applies to every workload; WORKLOADS.md gives its meaning on each.
// The time metrics, setup_s included, are at the nominal reference speed
// (ref.go); the raw figures are in the report.
var endToEnd = []metric{
	{"norm_throughput_ops_s", "ops/s"},
	{"norm_latency_p50_us", "us"},
	{"norm_server_cpu_us_per_op", "us"},
	{"hit_ratio", "ratio"},
	{"bytes_per_entry", "B"},
	{"setup_s", "s"},
}

// perLayer are the metrics every traced run prints. A layer the workload
// does not reach reads 0.
var perLayer = []metric{
	{"client.encode_ns_per_op", "ns"},
	{"client.flush_us_per_batch", "us"},
	{"server.cache_get_ns", "ns"},
	{"server.cache_set_ns", "ns"},
	{"server.wire_self_ns_per_op", "ns"},
	{"server.cpu_user_us_per_op", "us"},
	{"server.cpu_sys_us_per_op", "us"},
	{"server.evictions_per_set", "count"},
	{"server.full_errors_per_kset", "count"},
	{"server.counter_mismatch", "count"},
	{"generic.get_ns", "ns"},
	{"generic.upsert_ns", "ns"},
	{"generic.searches_per_set", "count"},
	{"generic.displacements_per_search", "count"},
	{"generic.path_restarts", "count"},
	{"generic.grows_in_window", "count"},
	{"spinlock.contended_ratio", "ratio"},
	{"core.lookup_ns", "ns"},
	{"core.fill_ops_s.lf00-50", "ops/s"},
	{"core.fill_ops_s.lf90-95", "ops/s"},
	{"core.searches_per_insert", "count"},
	{"core.displacements_per_search", "count"},
	{"core.path_restarts", "count"},
	{"core.max_path_len", "count"},
	{"core.path_len_p99", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_bytes_per_entry", "B"},
	{"kernel.read_syscalls_per_op", "count"},
	{"kernel.write_syscalls_per_op", "count"},
	{"loadgen.cpu_us_per_op", "us"},
	{"trace.overhead_ops_s", "ops/s"},
}

// result is everything one run measured.
type result struct {
	attempted, failed uint64
	checks            []string             // failed correctness checks
	e2e               map[string]float64   // end-to-end metrics, by the names in WORKLOADS.md
	layers            map[string]float64   // per-layer metrics (traced runs)
	lat               map[string]latency   // every latency population, with sample counts
	notes             map[string]float64   // sizes and counts that explain the metrics
	parts             map[string][]float64 // per-part readings of the measured window
}

func newResult() *result {
	return &result{
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		lat:    map[string]latency{},
		notes:  map[string]float64{},
	}
}

func (r *result) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// workloads are the workloads a run can name. BENCHMARK.json declares
// all but wire-churn-evict, on which some SETs fail today (see
// WORKLOADS.md).
var workloads = map[string]func(cfg config) (*result, error){
	"wire-zipf-pipelined": runWire,
	"wire-uniform-d1":     runWire,
	"wire-churn-evict":    runWire,
	"table-fill95":        runTable,
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	cuckood  string // daemon binary built from the tree under test
	out      string // directory for span files and full reports
}

func main() {
	var cfg config
	var trace int
	var commit string
	var echo bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see WORKLOADS.md)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.cuckood, "cuckood", "", "cuckood binary (wire workloads)")
	flag.StringVar(&cfg.out, "out", "", "directory for span files and the full report (empty = none)")
	flag.StringVar(&commit, "commit", "", "commit of the tree under test, for the report")
	flag.BoolVar(&echo, "echo", false, "run as the reference echo process (ref.go)")
	flag.Parse()
	if echo {
		echoMain()
		return
	}
	cfg.trace = trace == 1

	runFn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds; workloads: %s\n",
			cfg.workload, strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fatal(err)
		}
	}

	host0 := sampleHost()
	res, err := runFn(cfg)
	if err != nil {
		fatal(err)
	}
	meta := hostMeta(host0, sampleHost(), cfg, commit)

	report := map[string]any{
		"workload":   cfg.workload,
		"trace":      cfg.trace,
		"host":       meta,
		"end_to_end": res.e2e,
		"latency":    res.lat,
		"notes":      res.notes,
		"parts":      res.parts,
		"checks":     res.checks,
	}
	if cfg.trace {
		report["per_layer"] = res.layers
	}
	printReport(res)
	full, _ := json.Marshal(report)
	fmt.Println("report", string(full))
	if cfg.out != "" {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
		if err := os.WriteFile(filepath.Join(cfg.out, name), full, 0o644); err != nil {
			fatal(err)
		}
	}

	defs, values := endToEnd, res.e2e
	if cfg.trace {
		defs, values = perLayer, res.layers
	}
	metrics := map[string]any{}
	for _, m := range defs {
		metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(res.checks) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
	if len(res.checks) > 0 {
		for _, c := range res.checks {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
		}
		os.Exit(1)
	}
}

// printReport prints the run's metrics one per line, by name and unit.
func printReport(res *result) {
	for _, k := range sortedKeys(res.e2e) {
		fmt.Printf("%-34s %16.6g %s\n", k, res.e2e[k], unitOf(k))
	}
	for _, k := range sortedKeys(res.lat) {
		l := res.lat[k]
		fmt.Printf("%-34s n=%d p50=%.3fus p90=%.3fus p99=%.3fus p%g=%.3fus\n", k+"_latency", l.N, l.P50us, l.P90us, l.P99us, l.DeepestQ*100, l.DeepestUs)
	}
	for _, k := range sortedKeys(res.layers) {
		fmt.Printf("%-34s %16.6g %s\n", k, res.layers[k], unitOf(k))
	}
}

// unitOf is a metric's unit, from the metric tables or its name.
func unitOf(name string) string {
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if m.name == name {
			return m.unit
		}
	}
	switch {
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_op"):
		return "us"
	case strings.HasSuffix(name, "_ops_s"):
		return "ops/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "ratio"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// selfCPU is this process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var epoch = time.Now()

// nanotime is monotonic nanoseconds since the process started.
func nanotime() int64 { return int64(time.Since(epoch)) }
