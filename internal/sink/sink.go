// Package sink is CleanDB's pluggable result-output layer — the mirror image
// of package source. Where a Source scans external bytes into ordered engine
// partitions, a Sink drains ordered partitions back out: one small interface
// behind which every output format (CSV, JSON lines, colbin, in-memory rows)
// receives query results without the engine ever materializing a flattened
// copy of them.
//
// The protocol is Open / WritePartition / Close. WritePartition may be called
// from multiple goroutines with distinct partition indices — that is the
// point: the expensive per-row encoding runs partition-parallel, and only the
// final byte hand-off is serialized. Formats that are a byte stream (CSV,
// JSON lines) encode each partition into its own buffer and stitch the
// buffers to the writer in partition order, so memory stays bounded by the
// partitions in flight rather than the whole result. Colbin is the holdout
// on the write side, exactly as XML is on the read side: a columnar layout
// needs every row before its first output byte, so the colbin sink retains
// partition references (no copies) and encodes column-parallel at Close.
//
// Pump is the standard driver: it derives the schema from the first row,
// opens the sink, fans the partitions out over a bounded worker pool under a
// context, and closes — the engine's ExecuteTo and the CLI's export paths
// all go through it.
package sink

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"cleandb/internal/data"
	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Sink consumes one result set. The call protocol is:
//
//	Open(schema)                 once, before any write; schema holds the
//	                             column names, or nil when rows are not
//	                             records (or there are no rows)
//	WritePartition(i, rows)      once per partition index 0..n-1, possibly
//	                             from concurrent goroutines; rows must not
//	                             be mutated by the sink
//	Close()                      exactly once after the last write — also on
//	                             aborted exports, so resources are released
//
// Implementations must tolerate concurrent WritePartition calls and must
// emit partitions in index order regardless of call order. A failed Open
// must release anything it acquired before returning — the driver does not
// Close a sink whose Open errored.
type Sink interface {
	Open(schema []string) error
	WritePartition(i int, rows []types.Value) error
	Close() error
}

// Aborter is an optional Sink extension. When an export fails or is
// cancelled, Pump calls Abort instead of Close: resources are released but
// no completion work runs — a sink that defers its encode to Close (colbin)
// must not burn through it, and must not leave behind a file that looks
// finished, after a cancellation.
type Aborter interface {
	Abort() error
}

// ctxCloser is an optional Sink extension for sinks whose Close performs
// deferred work (colbin's columnar encode): Pump threads the export's
// context through so that work stays cancellable too.
type ctxCloser interface {
	CloseContext(ctx context.Context) error
}

// FromPath builds a file-backed sink, inferring the format from the path's
// extension. The file is not created until Open.
func FromPath(path string) (Sink, error) {
	switch filepath.Ext(path) {
	case ".csv":
		return NewCSVFile(path), nil
	case ".json", ".jsonl", ".ndjson":
		return NewJSONLFile(path), nil
	case ".colbin":
		return NewColbinFile(path), nil
	default:
		return nil, fmt.Errorf("sink: unknown format for %q (want .csv/.json/.jsonl/.ndjson/.colbin)", path)
	}
}

// Pump drives a complete export: it opens s with the schema of the first row
// found, writes every partition on at most workers goroutines, and closes s.
// It returns the number of rows written. Cancelling ctx stops the fan-out
// between partitions and returns ctx.Err(); every started goroutine exits
// before Pump returns, and the sink is still released — via Abort when it
// implements Aborter (so Close-time completion work is skipped on failure),
// via Close otherwise.
func Pump(ctx context.Context, s Sink, parts [][]types.Value, workers int) (int64, error) {
	if err := s.Open(schemaOf(parts)); err != nil {
		return 0, err
	}
	var rows atomic.Int64
	err := par.Run(ctx, len(parts), workers, func(i int) error {
		if err := s.WritePartition(i, parts[i]); err != nil {
			return err
		}
		rows.Add(int64(len(parts[i])))
		return nil
	})
	if err != nil {
		// The partial output is abandoned; release descriptors and buffers
		// without running any completion work, and keep the first error.
		if a, ok := s.(Aborter); ok {
			a.Abort()
		} else {
			s.Close()
		}
		return 0, err
	}
	// A Close failure (a lost flush, an incomplete partition sequence) is the
	// export failing. Sinks with deferred close-time work get the context so
	// even that stays cancellable.
	if cc, ok := s.(ctxCloser); ok {
		err = cc.CloseContext(ctx)
	} else {
		err = s.Close()
	}
	if err != nil {
		return 0, err
	}
	return rows.Load(), nil
}

// BatchSink is the optional columnar capability of a Sink: consume the
// result as one concatenated column batch with zero row boxing. Colbin
// implements it — the batch's vectors are its on-disk layout.
type BatchSink interface {
	WriteBatch(ctx context.Context, b *data.ColumnBatch) error
}

// PumpBatches drives an export straight from column batches when the sink
// can take them. It reports handled=false — without having touched the sink
// — when the sink is row-only or the batches do not share one shape; the
// caller then falls back to the row-based Pump. On the fast path it opens
// the sink, hands it the concatenated batch, and closes, mirroring Pump's
// abort-on-failure contract.
func PumpBatches(ctx context.Context, s Sink, batches []*data.ColumnBatch) (int64, bool, error) {
	bs, ok := s.(BatchSink)
	if !ok {
		return 0, false, nil
	}
	live := make([]*data.ColumnBatch, 0, len(batches))
	for _, b := range batches {
		if b != nil {
			live = append(live, b)
		}
	}
	cc := data.ConcatBatches(live)
	if cc == nil {
		return 0, false, nil
	}
	var names []string
	if cc.Schema != nil && cc.N > 0 {
		names = cc.Schema.Names
	}
	if err := s.Open(names); err != nil {
		return 0, true, err
	}
	if err := bs.WriteBatch(ctx, cc); err != nil {
		if a, ok := s.(Aborter); ok {
			a.Abort()
		} else {
			s.Close()
		}
		return 0, true, err
	}
	var err error
	if cc2, ok := s.(ctxCloser); ok {
		err = cc2.CloseContext(ctx)
	} else {
		err = s.Close()
	}
	if err != nil {
		return 0, true, err
	}
	return int64(cc.N), true, nil
}

// schemaOf returns the column names of the first record in parts, or nil
// when there are no rows or rows are not records.
func schemaOf(parts [][]types.Value) []string {
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if rec := p[0].Record(); rec != nil {
			return rec.Schema.Names
		}
		return nil
	}
	return nil
}

// stitcher serializes concurrently encoded partition buffers onto one writer
// in partition order. A buffer whose turn has come is written through
// immediately; early arrivals park until the gap before them fills. It also
// accounts the high-water mark of parked bytes — the number that proves the
// O(partitions-in-flight) memory claim of the streaming formats.
type stitcher struct {
	mu      sync.Mutex
	write   func([]byte) error
	next    int
	pending map[int][]byte
	parked  int64
	peak    int64
	err     error
}

func newStitcher(write func([]byte) error) *stitcher {
	return &stitcher{write: write, pending: map[int][]byte{}}
}

// put hands the stitcher partition i's encoded bytes. Safe for concurrent
// use; the first write error sticks and fails every later put.
func (st *stitcher) put(i int, buf []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return st.err
	}
	if i != st.next {
		st.pending[i] = buf
		st.parked += int64(len(buf))
		if st.parked > st.peak {
			st.peak = st.parked
		}
		return nil
	}
	if err := st.flush(buf); err != nil {
		return err
	}
	for {
		nb, ok := st.pending[st.next]
		if !ok {
			return nil
		}
		delete(st.pending, st.next)
		st.parked -= int64(len(nb))
		if err := st.flush(nb); err != nil {
			return err
		}
	}
}

// flush writes one buffer and advances the cursor; st.mu must be held.
func (st *stitcher) flush(buf []byte) error {
	if err := st.write(buf); err != nil {
		st.err = err
		return err
	}
	st.next++
	return nil
}

// finish reports whether every partition handed to the stitcher reached the
// writer — a parked leftover means some index was never written, which is a
// driver bug, not an I/O failure.
func (st *stitcher) finish() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return st.err
	}
	if len(st.pending) != 0 {
		gaps := make([]int, 0, len(st.pending))
		for i := range st.pending {
			gaps = append(gaps, i)
		}
		sort.Ints(gaps)
		return fmt.Errorf("sink: partition %d was never written (parked: %v)", st.next, gaps)
	}
	return nil
}

// peakParked returns the high-water mark of bytes parked behind an
// out-of-order gap.
func (st *stitcher) peakParked() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.peak
}
