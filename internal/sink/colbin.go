package sink

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

	"cleandb/internal/data"
	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Colbin writes results in the colbin binary columnar format, byte-compatible
// with data.WriteColbin. A columnar layout cannot emit its first byte until
// every row is known (column types and string dictionaries span the whole
// result), so this sink is the write-side holdout, mirroring XML on the read
// side: WritePartition only retains the partition slices — no copy, no
// encode — and Close does the heavy work with the parallelism turned
// sideways, encoding each column chunk on its own goroutine and
// concatenating the chunks behind one header.
type Colbin struct {
	path string
	w    io.Writer

	f *os.File

	// wroteBatch marks that the columnar fast path already emitted the file
	// body; Close then skips the row-based encode.
	wroteBatch bool

	collector
}

// NewColbin returns a colbin sink over an io.Writer.
func NewColbin(w io.Writer) *Colbin { return &Colbin{w: w} }

// NewColbinFile returns a colbin sink that creates path at Open.
func NewColbinFile(path string) *Colbin { return &Colbin{path: path} }

// Open implements Sink.
func (s *Colbin) Open([]string) error {
	if s.path != "" {
		f, err := os.Create(s.path)
		if err != nil {
			return err
		}
		s.f, s.w = f, f
	}
	s.reset()
	return nil
}

// WritePartition implements Sink by retaining the partition (the slice is
// shared, not copied — result partitions are immutable). Safe for concurrent
// calls with distinct indices.
func (s *Colbin) WritePartition(i int, rows []types.Value) error {
	s.add(i, rows)
	return nil
}

// Close implements Sink: it verifies the partition sequence is complete,
// encodes the columns in parallel, and writes header plus chunks. A gap in
// the partition indices fails fast before any encoding work.
func (s *Colbin) Close() error { return s.CloseContext(context.Background()) }

// CloseContext is Close under a context: Pump threads the export's context
// here, so a deadline that expires during the deferred encode still aborts
// it between column chunks. (The stream sinks have no close-time work to
// cancel; colbin is why this hook exists.)
func (s *Colbin) CloseContext(ctx context.Context) error {
	err := s.encode(ctx)
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Abort implements Aborter: the retained partitions are dropped unencoded —
// a cancelled export must not pay for, or leave behind, a complete-looking
// file — and the file-backed stub is deleted.
func (s *Colbin) Abort() error {
	s.drop()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	if rerr := os.Remove(s.path); err == nil {
		err = rerr
	}
	return err
}

// WriteBatch is the columnar fast path: the result's column vectors encode
// straight to colbin chunks — type inference reads the vector kind, string
// columns re-dictionarize from codes, and no row is ever boxed. It replaces
// the entire WritePartition/Close row protocol; the driver (PumpBatches)
// calls it between Open and Close, and Close then only flushes the file.
func (s *Colbin) WriteBatch(ctx context.Context, b *data.ColumnBatch) error {
	s.wroteBatch = true
	if b == nil || b.N == 0 || b.Schema == nil {
		return data.WriteColbinHeader(s.w, nil, nil, 0)
	}
	names := b.Schema.Names
	strs := b.Strings()
	colTypes := make([]data.ColType, len(names))
	chunks := make([][]byte, len(names))
	err := par.Run(ctx, len(names), runtime.GOMAXPROCS(0), func(c int) error {
		col := &b.Cols[c]
		colTypes[c] = data.ColTypeForColumn(col, strs)
		buf, err := data.EncodeColumnVec(col, strs, colTypes[c])
		if err != nil {
			return err
		}
		chunks[c] = buf
		return nil
	})
	if err != nil {
		return err
	}
	if err := data.WriteColbinHeader(s.w, names, colTypes, b.N); err != nil {
		return err
	}
	bw := bufio.NewWriter(s.w)
	for _, chunk := range chunks {
		if _, err := bw.Write(chunk); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (s *Colbin) encode(ctx context.Context) error {
	if s.wroteBatch {
		return nil
	}
	parts, err := s.ordered()
	if err != nil {
		return err
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return data.WriteColbinHeader(s.w, nil, nil, 0)
	}
	// One flat view of the rows: pointers only, needed because column
	// encoding walks every row once per column.
	rows := make([]types.Value, 0, n)
	for _, p := range parts {
		rows = append(rows, p...)
	}
	rec := rows[0].Record()
	if rec == nil {
		return fmt.Errorf("sink: colbin: rows must be records, got %s", rows[0].Kind())
	}
	names := rec.Schema.Names

	// Column-parallel encode under the export's context: infer each column's
	// type and encode its chunk (null bitmap + typed data) into an
	// independent buffer; cancellation aborts between columns.
	colTypes := make([]data.ColType, len(names))
	chunks := make([][]byte, len(names))
	err = par.Run(ctx, len(names), runtime.GOMAXPROCS(0), func(c int) error {
		colTypes[c] = data.ColbinTypeOf(rows, c)
		buf, err := data.EncodeColbinColumn(rows, c, colTypes[c])
		if err != nil {
			return err
		}
		chunks[c] = buf
		return nil
	})
	if err != nil {
		return err
	}

	if err := data.WriteColbinHeader(s.w, names, colTypes, n); err != nil {
		return err
	}
	bw := bufio.NewWriter(s.w)
	for _, chunk := range chunks {
		if _, err := bw.Write(chunk); err != nil {
			return err
		}
	}
	return bw.Flush()
}
