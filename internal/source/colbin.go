package source

import (
	"context"

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

// Scan implements Source: column chunks decode concurrently, then row
// ranges assemble concurrently, landing directly as ordered partitions.
func (s *Colbin) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	if parts < 1 {
		parts = 1
	}
	info, err := s.index()
	if err != nil {
		return nil, err
	}
	if info.Rows == 0 {
		return nil, nil
	}
	ncols := len(info.Names)
	cols := make([][]types.Value, ncols)
	err = par.Run(ctx, ncols, parts, func(c int) error {
		vals, err := info.DecodeColumn(c)
		if err != nil {
			return err
		}
		cols[c] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}

	schema := types.NewSchema(info.Names...)
	per := (info.Rows + parts - 1) / parts
	nparts := (info.Rows + per - 1) / per
	out := make([][]types.Value, nparts)
	err = par.Run(ctx, nparts, parts, func(p int) error {
		lo := p * per
		hi := lo + per
		if hi > info.Rows {
			hi = info.Rows
		}
		vals := make([]types.Value, hi-lo)
		for i := lo; i < hi; i++ {
			fields := make([]types.Value, ncols)
			for c := range cols {
				fields[c] = cols[c][i]
			}
			vals[i-lo] = types.NewRecord(schema, fields)
		}
		out[p] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
