package source

import (
	"context"
	"sync"

	"cleandb/internal/data"
	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Colbin is a colbin (binary columnar) source. Scan index-scans the header
// once to locate each column chunk's byte extent, decodes the columns on
// parallel goroutines, then assembles row ranges into partitions — also in
// parallel. Its header stores the row count, so Stats is exact without a
// scan, unlike any of the text formats.
type Colbin struct {
	src bytesAt
}

// NewColbinFile returns a lazy colbin source over a file path.
func NewColbinFile(path string) *Colbin { return &Colbin{src: bytesAt{path: path}} }

// ColbinBytes returns a colbin source over an in-memory buffer.
func ColbinBytes(buf []byte) *Colbin { return &Colbin{src: bytesAt{buf: buf}} }

// Format implements Source.
func (s *Colbin) Format() string { return "colbin" }

// Schema reads the column names from the header without decoding — or, for
// file-backed sources, even reading — the column data.
func (s *Colbin) Schema() ([]string, error) {
	names, _, err := s.header()
	return names, err
}

// Stats reads the exact row count from the header: colbin is the one format
// whose pending sources can answer Rows without a scan.
func (s *Colbin) Stats() (Stats, error) {
	_, rows, err := s.header()
	if err != nil {
		return Stats{Rows: -1, Bytes: s.src.sizeBytes()}, err
	}
	return Stats{Rows: rows, Bytes: s.src.sizeBytes()}, nil
}

// header parses the colbin header from a bounded prefix of the input, so
// Stats/Schema on a huge pending file cost O(header), not O(file). A
// header longer than the prefix (half a million columns) fails the
// cursor's bounds checks, which Stats degrades to an unknown-rows hint.
func (s *Colbin) header() ([]string, int64, error) {
	buf, _, err := s.src.head(headPrefixBytes)
	if err != nil {
		return nil, 0, err
	}
	names, _, rows, err := data.ColbinHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	return names, rows, nil
}

func (s *Colbin) index() (*data.ColbinInfo, error) {
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	return data.IndexColbin(buf)
}

// Scan implements Source by running the scan plan (colbinPlan) locally:
// column chunks decode concurrently, then row ranges assemble concurrently,
// landing directly as ordered partitions.
func (s *Colbin) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	return scanPlanned(ctx, s, parts)
}

// colbinPlan reads only the header up front (row count and column names come
// from a bounded prefix), then decodes the column chunks lazily on the first
// owned Build. A member owning no chunks of a colbin source therefore loads
// O(header) bytes, and ChunkBytes charges each row range its proportional
// share of the file.
type colbinPlan struct {
	s      *Colbin
	rows   int
	size   int64
	per    int
	nparts int

	once   sync.Once
	schema *types.Schema
	cols   [][]types.Value
	err    error
}

// PlanScan implements PartitionedScanner: at most parts equal row ranges,
// the ranges ScanBatches slices too.
func (s *Colbin) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	if parts < 1 {
		parts = 1
	}
	names, rows64, err := s.header()
	if err != nil {
		return nil, err
	}
	rows := int(rows64)
	p := &colbinPlan{s: s, rows: rows, size: s.src.sizeBytes()}
	if rows == 0 || len(names) == 0 { // no columns means no rows (IndexColbin)
		return p, nil
	}
	p.per = (rows + parts - 1) / parts
	p.nparts = (rows + p.per - 1) / p.per
	return p, nil
}

func (p *colbinPlan) Chunks() int { return p.nparts }

func (p *colbinPlan) ChunkBytes(i int) int64 {
	lo, hi := p.span(i)
	return p.size * int64(hi-lo) / int64(p.rows)
}

func (p *colbinPlan) span(i int) (lo, hi int) {
	lo = i * p.per
	hi = lo + p.per
	if hi > p.rows {
		hi = p.rows
	}
	return lo, hi
}

func (p *colbinPlan) Build(ctx context.Context, i int) ([]types.Value, error) {
	if err := p.decode(ctx); err != nil {
		return nil, err
	}
	lo, hi := p.span(i)
	vals := make([]types.Value, hi-lo)
	ncols := len(p.cols)
	for r := lo; r < hi; r++ {
		fields := make([]types.Value, ncols)
		for c := range p.cols {
			fields[c] = p.cols[c][r]
		}
		vals[r-lo] = types.NewRecord(p.schema, fields)
	}
	return vals, nil
}

// decode indexes the file and decodes every column, once, on the first owned
// Build. Columns span all rows, so chunk custody for colbin divides row
// assembly and lets chunk-less members skip the body entirely, but an owner
// of any chunk decodes whole columns.
func (p *colbinPlan) decode(ctx context.Context) error {
	p.once.Do(func() {
		info, err := p.s.index()
		if err != nil {
			p.err = err
			return
		}
		ncols := len(info.Names)
		cols := make([][]types.Value, ncols)
		p.err = par.Run(ctx, ncols, p.nparts, func(c int) error {
			vals, err := info.DecodeColumn(c)
			if err != nil {
				return err
			}
			cols[c] = vals
			return nil
		})
		if p.err == nil {
			p.schema = types.NewSchema(info.Names...)
			p.cols = cols
		}
	})
	return p.err
}

func (p *colbinPlan) Finish(full [][]types.Value) ([][]types.Value, error) {
	if len(full) == 0 {
		return nil, nil
	}
	return full, nil
}
