package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cleandb"
	"cleandb/internal/sink"
)

// TestWorkloads is the benchmark's self-test: a short traced run of every
// workload must pass every output check, print every end-to-end and
// per-layer metric with its unit, and reproduce its execution counters with
// tracing on.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			out, err := execute(wl, 3, 1.5, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{out.base, out.tracedR} {
				if !r.allChecksRan() {
					t.Errorf("checks %v did not all run: %v", r.wantChecks, r.checks)
				}
				if r.failed != 0 || len(r.checkFailures) > 0 {
					t.Errorf("%d failed: %v", r.failed, r.checkFailures)
				}
			}
			if len(out.counterDiffs) > 0 {
				t.Errorf("traced counters differ: %v", out.counterDiffs)
			}
			if len(out.base.counters) == 0 {
				t.Error("no execution counters recorded")
			}
			e2e := out.base.e2e()
			for _, d := range endToEnd {
				m, ok := e2e[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("end-to-end %s: got %+v, want unit %q", d.name, m, d.unit)
				}
				if d.name != "peak_rss_mb" && !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
				}
			}
			if len(out.metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(out.metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := out.metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer %s: got %+v, want unit %q", d.name, m, d.unit)
				}
			}
			for name := range out.tracedR.layer {
				layerUnit(name) // panics on an undeclared metric
			}
			var buf bytes.Buffer
			if err := out.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Failed    int64                      `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
				t.Errorf("result line: correct=%v attempted=%d failed=%d metrics=%d",
					res.Correct, res.Attempted, res.Failed, len(res.Metrics))
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric lists in
// step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWrapSinkMirrorsInterfaces checks that the timing wrapper exposes
// exactly the optional interfaces of the sink it wraps, and forwards to
// them.
func TestWrapSinkMirrorsInterfaces(t *testing.T) {
	dir := t.TempDir()
	for _, inner := range []cleandb.Sink{
		cleandb.NewCSVSink(&bytes.Buffer{}),
		cleandb.NewJSONLSink(&bytes.Buffer{}),
		cleandb.NewColbinSink(&bytes.Buffer{}),
		cleandb.NewColbinFileSink(filepath.Join(dir, "x.colbin")),
		cleandb.NewMemSink(),
	} {
		var stats sinkStats
		w := wrapSink(inner, newTracer(), -1, 0, &stats)
		_, ib := inner.(sink.BatchSink)
		_, wb := w.(sink.BatchSink)
		_, ia := inner.(sink.Aborter)
		_, wa := w.(sink.Aborter)
		_, ic := inner.(ctxCloser)
		_, wc := w.(ctxCloser)
		if ib != wb || ia != wa || ic != wc {
			t.Errorf("%T: inner batch/abort/ctxclose = %v/%v/%v, wrapper %v/%v/%v", inner, ib, ia, ic, wb, wa, wc)
		}
	}

	// An export through the wrapper writes what the bare sink writes.
	db := cleandb.Open()
	db.RegisterRows("customer", customerData(1, 50).Rows)
	var bare, wrapped bytes.Buffer
	ctx := context.Background()
	q := `SELECT * FROM customer c`
	if _, err := db.ExecuteTo(ctx, q, cleandb.NewColbinSink(&bare)); err != nil {
		t.Fatal(err)
	}
	var stats sinkStats
	res, err := db.ExecuteTo(ctx, q, wrapSink(cleandb.NewColbinSink(&wrapped), nil, -1, 0, &stats))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.Bytes(), wrapped.Bytes()) {
		t.Error("wrapped colbin export differs from the bare one")
	}
	if stats.rows.Load() != res.Metrics().ExportedRows {
		t.Errorf("wrapper counted %d rows, ExportedRows %d", stats.rows.Load(), res.Metrics().ExportedRows)
	}
}
