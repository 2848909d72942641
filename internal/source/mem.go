package source

import (
	"context"
	"sync"

	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Mem is an in-memory source over already-built rows. It exists so
// programmatically registered datasets speak the same catalog interface as
// file-backed ones: exact stats, a schema when the rows are records, and a
// copy-free partitioning Scan.
type Mem struct {
	rows []types.Value
	// bytes is the recursive size sum, computed on first Stats call — rows
	// are immutable, registration stays O(1), and status polls after the
	// first pay nothing.
	bytesOnce sync.Once
	bytes     int64
}

// FromRows wraps rows (not copied) as a source.
func FromRows(rows []types.Value) *Mem { return &Mem{rows: rows} }

// Format implements Source.
func (s *Mem) Format() string { return "mem" }

// Schema returns the first record's field names, or nil for non-record rows.
func (s *Mem) Schema() ([]string, error) {
	if len(s.rows) == 0 {
		return nil, nil
	}
	if rec := s.rows[0].Record(); rec != nil {
		return rec.Schema.Names, nil
	}
	return nil, nil
}

// Stats implements Source with exact counts.
func (s *Mem) Stats() (Stats, error) {
	s.bytesOnce.Do(func() {
		for _, r := range s.rows {
			s.bytes += int64(types.SizeBytes(r))
		}
	})
	return Stats{Rows: int64(len(s.rows)), Bytes: s.bytes}, nil
}

// Scan implements Source by partitioning the rows without copying.
func (s *Mem) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return par.Chunks(s.rows, parts), nil
}
