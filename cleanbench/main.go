// Command cleanbench is cleandb's benchmark. It runs one named workload
// against the public API, checks every answer, and prints its metrics:
//
//	go run . --workload clean_batch --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced and then traced, and prints the
// per-layer metrics the spans give, the tracing overhead (traced minus
// untraced end-to-end result), and fails when the two runs' execution
// counters differ. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The lines before it list every metric with its unit and sample count, and
// the run record: machine, toolchain, seed, inputs and sample counts.
//
// Inputs are generated from the seed into a directory under .bench_build in
// the working directory, which is removed when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs and the loop that drives them.
type workload struct {
	name string
	run  func(env *runEnv) (*report, error)
}

var workloads = []workload{
	{"clean_batch", runCleanBatch},
	{"serve_mix", runServeMix},
	{"incr_append", runIncrAppend},
	{"cluster_dc", runClusterDC},
}

// endToEnd lists the metrics printed by an untraced run, on every workload.
// Their per-workload meaning is in README.md.
var endToEnd = []metricDef{
	{"clean_rows_per_s", "rows/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// setups is how many times an untraced run sets its workload up; setup_s is
// the median, which steadies it against one slow set-up.
const setups = 5

// runEnv is what a workload run gets from the command line.
type runEnv struct {
	seed    int64
	seconds float64
	// setups is how many times the workload sets itself up; setup_s is the
	// median, and the last set-up is the one measured.
	setups int
	// tr records spans; nil in an untraced run.
	tr *tracer
	// dir holds the generated inputs and outputs of this run.
	dir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("cleanbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: clean_batch, serve_mix, incr_append or cluster_dc")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and traced and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cleanbench: bad arguments %q\n", args)
		return 2
	}
	out, err := execute(*wl, *seed, *seconds, setups, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cleanbench: %s: %v\n", wl.name, err)
		return 1
	}
	if err := out.print(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cleanbench: %v\n", err)
		return 1
	}
	return 0
}

// outcome is everything one invocation prints.
type outcome struct {
	workload string
	traced   bool
	base     *report // untraced run
	tracedR  *report // traced run, when traced
	record   runRecord
	metrics  map[string]metric
	// counterDiffs lists execution counters that differ between the
	// untraced and the traced run.
	counterDiffs []string
}

func execute(wl workload, seed int64, seconds float64, setups int, traced bool) (*outcome, error) {
	out := &outcome{workload: wl.name, traced: traced}
	if traced {
		// The traced side only needs its per-layer numbers and counters;
		// set-up is reported by untraced runs.
		setups = 1
	}
	base, err := runOnce(wl, runEnv{seed: seed, seconds: seconds, setups: setups})
	if err != nil {
		return nil, err
	}
	out.base = base
	out.metrics = base.e2e()
	if traced {
		tr := newTracer()
		tr2, err := runOnce(wl, runEnv{seed: seed, seconds: seconds, setups: setups, tr: tr})
		if err != nil {
			return nil, err
		}
		out.tracedR = tr2
		if err := tr.writeSpans(filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))); err != nil {
			return nil, err
		}
		out.counterDiffs = diffCounters(base.counters, tr2.counters)
		out.metrics = layerMetrics(tr2, base)
	}
	out.record = newRunRecord(wl.name, seed, seconds, out)
	return out, nil
}

// setUp runs a workload's set-up env.setups times, each in a fresh
// directory, and records the median duration as the report's setup_s. It
// returns the last set-up; earlier ones are released with release (when not
// nil) and their memory collected and returned to the OS, so they burden
// neither the measured one nor peak_rss_mb.
func setUp[T any](env *runEnv, rep *report, f func(dir string) (T, error), release func(T)) (T, error) {
	var cur T
	var ds []float64
	for i := 0; i < env.setups; i++ {
		if i > 0 {
			if release != nil {
				release(cur)
			}
			var zero T
			cur = zero
			debug.FreeOSMemory()
		}
		dir := filepath.Join(env.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return cur, err
		}
		start := time.Now()
		var err error
		if cur, err = f(dir); err != nil {
			return cur, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	rep.setupS, rep.setupN = median(ds), len(ds)
	debug.FreeOSMemory()
	return cur, nil
}

// buildDir is where build products, run inputs and traces live, relative to
// the working directory (the repository root).
const buildDir = ".bench_build"

func runOnce(wl workload, env runEnv) (*report, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env.dir = dir
	return wl.run(&env)
}

// peakRSSMB is the resident-set high-water mark of this process, which runs
// only one workload. Workloads read it when their timed phase ends, before
// the output checks build reference DBs of their own.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (o *outcome) correct() bool {
	r := o.base
	ok := r.failed == 0 && len(r.checkFailures) == 0 && r.allChecksRan()
	if o.tracedR != nil {
		t := o.tracedR
		ok = ok && t.failed == 0 && len(t.checkFailures) == 0 && t.allChecksRan() && len(o.counterDiffs) == 0
	}
	return ok
}

func (o *outcome) attemptedFailed() (int64, int64) {
	a, f := o.base.attempted, o.base.failed
	if o.tracedR != nil {
		a += o.tracedR.attempted
		f += o.tracedR.failed
		if len(o.counterDiffs) > 0 {
			a++
			f++
		}
	}
	return a, f
}

func (o *outcome) print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s (trace=%v)\n", o.workload, o.traced)
	o.base.printLines(&b, "")
	if o.tracedR != nil {
		o.tracedR.printLines(&b, "traced ")
		for _, d := range o.counterDiffs {
			fmt.Fprintf(&b, "COUNTER MISMATCH untraced vs traced: %s\n", d)
		}
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "-- %d metrics --\n", len(names))
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(&b, "%-34s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	rec, err := json.Marshal(o.record)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "record %s\n", rec)
	if err := os.MkdirAll(filepath.Join(buildDir, "records"), 0o755); err == nil {
		path := filepath.Join(buildDir, "records", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.record.Seed, btoi(o.traced)))
		if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
			return err
		}
	}
	attempted, failed := o.attemptedFailed()
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct(), attempted, failed, o.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runRecord describes the run: machine, toolchain, seed, inputs and the
// sample count behind every percentile.
type runRecord struct {
	Workload   string          `json:"workload"`
	Seed       int64           `json:"seed"`
	Seconds    float64         `json:"seconds"`
	Traced     bool            `json:"traced"`
	GitSHA     string          `json:"git_sha"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NProc      int             `json:"nproc"`
	CPUModel   string          `json:"cpu_model"`
	Inputs     []inputInfo     `json:"inputs"`
	Samples    map[string]int  `json:"samples"`
	Checks     map[string]int  `json:"checks"`
	Failures   []string        `json:"check_failures,omitempty"`
	FailRatio  float64         `json:"fail_ratio"`
	Reported   []reportedValue `json:"reported"`
	Time       string          `json:"time"`
}

type reportedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func newRunRecord(name string, seed int64, seconds float64, o *outcome) runRecord {
	attempted, failed := o.attemptedFailed()
	rec := runRecord{
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     o.traced,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Inputs:     o.base.inputs,
		Samples:    o.base.samples,
		Checks:     o.base.checks,
		Failures:   append(append([]string(nil), o.base.checkFailures...), o.counterDiffs...),
		FailRatio:  float64(failed) / float64(max(attempted, 1)),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	for _, l := range o.base.lines {
		rec.Reported = append(rec.Reported, reportedValue{l.name, l.value, l.unit, l.n})
	}
	if o.tracedR != nil {
		rec.Failures = append(rec.Failures, o.tracedR.checkFailures...)
	}
	return rec
}

// gitSHA names the commit checked out in the working directory, read from
// .git without running git, or "unknown" outside a git work tree.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
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
