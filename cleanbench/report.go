package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
)

// metric is one printed value. n is the sample count behind it, printed on
// the human-readable lines and kept out of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type metricDef struct{ name, unit string }

// line is a human-readable result: every end-to-end quantity a workload
// measures, including the workload-specific ones that are not printed on
// the result line of every workload.
type line struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is what one untraced or traced workload run measured.
type report struct {
	attempted, failed int64
	// checks counts how often each output check ran; wantChecks names the
	// checks a run must have made.
	checks        map[string]int
	wantChecks    []string
	checkFailures []string
	lines         []line
	samples       map[string]int
	inputs        []inputInfo
	// counters are deterministic execution counters of a fixed probe, which
	// the traced run must reproduce exactly.
	counters map[string]int64
	// The end-to-end values on the result line.
	rowsPerS, p50Ms, setupS float64
	p50N, setupN            int
	peakRSSMB               float64
	// layer holds the per-layer values of a traced run.
	layer map[string]metric
}

func newReport(wantChecks ...string) *report {
	return &report{
		checks:     map[string]int{},
		wantChecks: wantChecks,
		samples:    map[string]int{},
		counters:   map[string]int64{},
		layer:      map[string]metric{},
	}
}

// check records one output check. A failed check counts as a failed
// operation, like an error.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks[name]++
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.checkFailures) < 20 {
		r.checkFailures = append(r.checkFailures, name+": "+fmt.Sprintf(format, args...))
	}
}

// fail records a failed operation (an error or a rejected request).
func (r *report) fail(what string, err error) {
	r.failed++
	if len(r.checkFailures) < 20 {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *report) allChecksRan() bool {
	for _, c := range r.wantChecks {
		if r.checks[c] == 0 {
			return false
		}
	}
	return true
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.lines = append(r.lines, line{name, finite(value), unit, n})
	if n > 0 {
		r.samples[name] = n
	}
}

// setLayer records a per-layer value of a traced run.
func (r *report) setLayer(name string, value float64, n int) {
	r.layer[name] = metric{Value: finite(value), Unit: layerUnit(name), n: n}
}

func (r *report) e2e() map[string]metric {
	return map[string]metric{
		"clean_rows_per_s": {finite(r.rowsPerS), "rows/s", r.p50N},
		"latency_p50_ms":   {finite(r.p50Ms), "ms", r.p50N},
		"peak_rss_mb":      {r.peakRSSMB, "MB", 1},
		"setup_s":          {r.setupS, "s", r.setupN},
	}
}

func (r *report) printLines(b *strings.Builder, prefix string) {
	for _, l := range r.lines {
		fmt.Fprintf(b, "%s%-34s %14.4f %-8s n=%d\n", prefix, l.name, l.value, l.unit, l.n)
	}
	names := make([]string, 0, len(r.checks))
	for n := range r.checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "%scheck %-28s ran %d times\n", prefix, n, r.checks[n])
	}
	for _, c := range r.wantChecks {
		if r.checks[c] == 0 {
			fmt.Fprintf(b, "%sCHECK NOT RUN: %s\n", prefix, c)
		}
	}
	for _, f := range r.checkFailures {
		fmt.Fprintf(b, "%sFAILED: %s\n", prefix, f)
	}
	fmt.Fprintf(b, "%sattempted %d failed %d (fail_ratio %.6f)\n", prefix, r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
}

// perLayer lists the metrics printed by a traced run, on every workload; a
// layer a workload does not cross reads 0 there. Their meaning is in
// README.md.
var perLayer = []metricDef{
	{"core.prepare_ms", "ms"},
	{"core.prepare_alloc_mb", "MB"},
	{"cleandb.plancache_hit_ratio", "ratio"},
	{"source.load_ms.csv", "ms"},
	{"source.load_ms.jsonl", "ms"},
	{"source.load_ms.colbin", "ms"},
	{"source.load_alloc_mb", "MB"},
	{"source.dict_hit_ratio", "ratio"},
	{"source.append_ms", "ms"},
	{"exec.fd_ms", "ms"},
	{"exec.unified_ms", "ms"},
	{"exec.termval_ms", "ms"},
	{"exec.dc_repair_ms", "ms"},
	{"exec.fd_alloc_mb", "MB"},
	{"exec.unified_alloc_mb", "MB"},
	{"exec.termval_alloc_mb", "MB"},
	{"exec.dc_repair_alloc_mb", "MB"},
	{"exec.shuffled_records", "count"},
	{"exec.comparisons", "count"},
	{"exec.simticks", "ticks"},
	{"exec.batches_evaluated", "count"},
	{"exec.simcache_hit_ratio", "ratio"},
	{"cleaning.repair_values_changed", "count"},
	{"cleaning.repair_rounds", "count"},
	{"sink.write_ms", "ms"},
	{"sink.close_ms", "ms"},
	{"sink.rows", "count"},
	{"sink.bytes", "bytes"},
	{"server.handler_ms.point", "ms"},
	{"server.handler_ms.adhoc", "ms"},
	{"server.handler_ms.fd", "ms"},
	{"server.handler_ms.repair", "ms"},
	{"server.ttfb_p50_ms", "ms"},
	{"server.stream_p50_ms", "ms"},
	{"server.resp_bytes", "bytes"},
	{"server.rejected_429", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"incr.requery_ms.delta", "ms"},
	{"incr.requery_ms.cold", "ms"},
	{"incr.delta_share", "ratio"},
	{"incr.requery_alloc_mb", "MB"},
	{"cleandb.viewcache_hit_ratio", "ratio"},
	{"dist.session_ms", "ms"},
	{"dist.exchange_calls", "count"},
	{"dist.exchange_req_mb", "MB"},
	{"dist.exchange_resp_mb", "MB"},
	{"dist.exchange_handler_ms", "ms"},
	{"dist.fragment_ms", "ms"},
	{"dist.exec_slots.coord", "count"},
	{"dist.exec_slots.worker", "count"},
	{"dist.owned_bytes_share", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	panic("cleanbench: undeclared per-layer metric " + name)
}

// layerMetrics builds a traced run's result: every per-layer metric, plus
// the tracing overhead on the workload's median latency.
func layerMetrics(traced, base *report) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m, ok := traced.layer[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out[d.name] = m
	}
	over := traced.p50Ms - base.p50Ms
	out["trace.overhead_ms"] = metric{Value: over, Unit: "ms", n: traced.p50N}
	out["trace.overhead_share"] = metric{Value: ratio(over, base.p50Ms), Unit: "ratio", n: traced.p50N}
	return out
}

// diffCounters lists the counters whose values differ between two runs.
func diffCounters(a, b map[string]int64) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, fmt.Sprintf("%s untraced=%d traced=%d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s untraced=<none> traced=%d", k, v))
		}
	}
	sort.Strings(out)
	return out
}

// --- statistics ---------------------------------------------------------------

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite maps the NaN of an empty sample to 0, which JSON can carry; the
// sample count printed beside it says there was nothing to measure.
func finite(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

const mib = 1 << 20

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
