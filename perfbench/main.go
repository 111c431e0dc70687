// Command perfbench is the repository's benchmark: it runs one workload
// against the fleet engine or the serving daemon, checks every output it
// produces, and prints each metric by name with its unit. The last line of
// standard output is a JSON object with the keys correct, attempted, failed
// and metrics.
//
//	bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from spans the benchmark
// records around its calls into each layer (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed the recorded results use.
const defaultSeed = 1

// metricDef names a metric and its unit. The lists below are the ones
// BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"cpu_ms_per_badge", "ms"},
	{"alloc_mb_per_badge", "MB"},
}

var perLayer = []metricDef{
	{"workload.generate.ms", "ms"},
	{"workload.generate.alloc_mb", "MB"},
	{"dpm.renewal_fit.ms", "ms"},
	{"badge.setup.us", "us"},
	{"sim.loop.ms", "ms"},
	{"sim.loop.ns_per_frame", "ns"},
	{"sim.loop.alloc_kb", "kB"},
	{"sim.loop.changepoint.ms", "ms"},
	{"sim.loop.expavg.ms", "ms"},
	{"fleet.overhead.ms", "ms"},
	{"fleet.shard_imbalance", "ratio"},
	{"thrcache.misses", "count"},
	{"thrcache.hit_ratio", "ratio"},
	{"client.request.ms", "ms"},
	{"server.handler.ms", "ms"},
	{"http.transport.ms", "ms"},
	{"server.engine.ms", "ms"},
	{"server.marshal.us", "us"},
	{"server.admission.ms", "ms"},
	{"server.idem.replay", "count"},
	{"server.idem.miss", "count"},
	{"server.engine.fleet_runs", "count"},
	{"server.shed", "count"},
	{"client.retries", "count"},
	{"loadgen.lag_ms_p90", "ms"},
	{"ledger.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	traceOut string
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// problems describes every failed check; any entry fails the run.
	problems []string
	// values holds the machine-readable metrics by name.
	values map[string]float64
	// notes are report-only lines: the issue's named figures that are not
	// in BENCHMARK.json, sample counts and validity flags.
	notes []string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(ctx context.Context, o options) (*result, error){
	"fleet-mix":   func(ctx context.Context, o options) (*result, error) { return runFleet(ctx, mixShape, o) },
	"fleet-lean":  func(ctx context.Context, o options) (*result, error) { return runFleet(ctx, leanShape, o) },
	"serve-mixed": runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: fleet-mix, fleet-lean or serve-mixed")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed; every input is generated from it")
		seconds = fs.Int("seconds", 25, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		commit  = fs.String("commit", "unknown", "commit under test, for the host block")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fleet-mix|fleet-lean|serve-mixed, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	o := options{
		workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		traceOut: fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.jsonl", *name, *seed),
	}
	fmt.Fprintln(stdout, hostBlock(*commit))
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %d  trace %d\n", o.workload, o.seed, *seconds, *trace)

	// The hard stop keeps a wedged run inside the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := wl(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return report(stdout, res, o.traced)
}

// report prints the human-readable metric lines and then the JSON line.
// It returns the exit code: 0 when every check passed.
func report(w io.Writer, r *result, traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s was not measured", d.name)
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g %s (%d of %d)\n", "error_rate", errRate, "ratio", r.failed, r.attempted)
	if r.attempted == 0 {
		r.problem("no operation was attempted")
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL: "+p)
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		fmt.Fprintf(w, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}

// hostBlock describes the machine and build the numbers come from.
func hostBlock(commit string) string {
	return fmt.Sprintf("host: GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s %s/%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantiles formats the median and a tail percentile of xs with the sample
// count, marking the tail when fewer than minBeyond samples lie beyond it.
func quantiles(label, unit string, xs []float64, tail float64) string {
	if len(xs) == 0 {
		return label + ": no samples"
	}
	s := fmt.Sprintf("%s: p50 %.4g %s, p%.0f %.4g %s (n=%d, %d beyond p%.0f", label,
		percentile(xs, 0.5), unit, tail*100, percentile(xs, tail), unit, len(xs), samplesBeyond(len(xs), tail), tail*100)
	if !tailValid(len(xs), tail) {
		s += "; too few for a p" + fmt.Sprint(tail*100)
	}
	return s + ")"
}
