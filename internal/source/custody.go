package source

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"cleandb/internal/data"
	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Partition-custody scans. A ScanPlan exposes a source's partition layout —
// exactly the chunks Scan would produce — without parsing anything, so a
// cluster member can parse only the chunks it owns and receive the rest from
// peers through the exchange. The contract that makes the gathered dataset
// bit-identical to a single-process Scan: Chunks/chunk boundaries are a pure
// function of the bytes and the partition count, Build(i) returns exactly the
// rows Scan would have placed in partition i, and Finish applies whatever
// whole-scan postprocessing Scan performs (CSV tail-state recording, JSON
// empty-partition dropping) to the reassembled whole.
//
// CSV needs a vote round first: column types are inferred globally, so each
// member votes types for its owned chunks (NeedsVote/Vote), the votes cross
// the exchange, and SetTypes installs the merged result before any Build.
type ScanPlan interface {
	// Chunks is the number of ordered partitions the scan produces.
	Chunks() int
	// ChunkBytes is the input-byte cost of building chunk i — what a member
	// that owns the chunk must parse (or decode) from the source.
	ChunkBytes(i int) int64
	// NeedsVote reports whether a type-vote round must precede Build.
	NeedsVote() bool
	// Vote parses chunk i's raw cells and returns its column-type votes.
	Vote(ctx context.Context, i int) ([]data.ColVote, error)
	// SetTypes installs the merged global votes; required before Build when
	// NeedsVote, ignored otherwise.
	SetTypes(votes []data.ColVote) error
	// Build returns chunk i's rows, typed exactly as Scan would type them.
	Build(ctx context.Context, i int) ([]types.Value, error)
	// Finish postprocesses the fully reassembled partition vector (owned
	// chunks built locally, the rest gathered from peers) and records any
	// tail-scan state, completing the custody scan's equivalence to Scan.
	Finish(full [][]types.Value) ([][]types.Value, error)
}

// PartitionedScanner is implemented by sources whose Scan can be divided by
// partition custody. Sources without it are scanned whole on every member,
// which stays deterministic, just not divided.
type PartitionedScanner interface {
	Source
	PlanScan(ctx context.Context, parts int) (ScanPlan, error)
}

// ---- CSV ----

// csvPlan mirrors scanCSV's three phases with per-chunk granularity: raw
// cells parse lazily per owned chunk (cached between the vote and build
// phases, and re-parsed on demand when custody reassignment adopts a chunk
// after the vote round), types arrive via SetTypes instead of local
// inference, and Finish installs the tail state Scan would have recorded.
type csvPlan struct {
	s           *CSV
	buf         []byte
	header      []string
	schema      *types.Schema
	headerLines int
	hEnd        int
	chunks      [][]byte
	baseLines   []int

	mu       sync.Mutex
	raw      map[int][][]string
	colTypes []data.ColType
	voted    []bool
}

// PlanScan implements PartitionedScanner. The chunk layout is byte-for-byte
// the one Scan(ctx, parts) uses.
func (s *CSV) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	if parts < 1 {
		parts = 1
	}
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	p := &csvPlan{s: s, buf: buf, raw: make(map[int][][]string)}
	if len(buf) == 0 {
		return p, nil
	}
	header, hEnd, err := csvHeader(buf)
	if err != nil {
		return nil, err
	}
	if header == nil { // io.EOF: blank input
		return p, nil
	}
	p.header = header
	p.schema = types.NewSchema(header...)
	p.hEnd = hEnd
	p.headerLines = bytes.Count(buf[:hEnd], []byte{'\n'})
	p.chunks, p.baseLines = splitCSVBody(buf[hEnd:], parts)
	return p, nil
}

func (p *csvPlan) Chunks() int { return len(p.chunks) }

func (p *csvPlan) ChunkBytes(i int) int64 {
	n := int64(len(p.chunks[i]))
	if i == 0 {
		n += int64(p.hEnd) // the owner of chunk 0 also parsed the header
	}
	return n
}

func (p *csvPlan) NeedsVote() bool { return true }

func (p *csvPlan) Vote(ctx context.Context, i int) ([]data.ColVote, error) {
	raw, err := p.rawChunk(ctx, i)
	if err != nil {
		return nil, err
	}
	ts, voted := data.InferColumnTypesSeen([][][]string{raw}, len(p.header))
	return data.ColVotes(ts, voted), nil
}

func (p *csvPlan) SetTypes(votes []data.ColVote) error {
	if len(votes) != len(p.header) {
		return fmt.Errorf("source: csv: %d type votes for %d columns", len(votes), len(p.header))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.colTypes = make([]data.ColType, len(votes))
	p.voted = make([]bool, len(votes))
	for c, v := range votes {
		p.colTypes[c], p.voted[c] = v.Type, v.Voted
	}
	return nil
}

func (p *csvPlan) Build(ctx context.Context, i int) ([]types.Value, error) {
	p.mu.Lock()
	colTypes := p.colTypes
	p.mu.Unlock()
	if colTypes == nil {
		return nil, fmt.Errorf("source: csv: build before type votes merged")
	}
	raw, err := p.rawChunk(ctx, i)
	if err != nil {
		return nil, err
	}
	rows := buildCSVRows(raw, p.header, p.schema, colTypes)
	p.mu.Lock()
	delete(p.raw, i) // built chunks never re-vote; adoption re-parses
	p.mu.Unlock()
	return rows, nil
}

func (p *csvPlan) Finish(full [][]types.Value) ([][]types.Value, error) {
	if len(p.buf) == 0 || p.header == nil {
		return full, nil // blank input: Scan records no state either
	}
	p.mu.Lock()
	colTypes, voted := p.colTypes, p.voted
	p.mu.Unlock()
	if colTypes == nil {
		if len(p.chunks) > 0 {
			return nil, fmt.Errorf("source: csv: finish before type votes merged")
		}
		// Header-only input: no chunks voted, so no vote round ran; default
		// every column exactly as inference over zero chunks would.
		colTypes, voted = data.InferColumnTypesSeen(nil, len(p.header))
	}
	p.s.mu.Lock()
	p.s.state = &csvState{
		header:   p.header,
		schema:   p.schema,
		colTypes: colTypes,
		voted:    voted,
		consumed: int64(len(p.buf)),
	}
	p.s.mu.Unlock()
	return full, nil
}

// rawChunk parses chunk i's raw cells, caching the result between the vote
// and build phases. Errors are rebased to absolute file line numbers exactly
// as scanCSV's phase 1 does.
func (p *csvPlan) rawChunk(ctx context.Context, i int) ([][]string, error) {
	p.mu.Lock()
	rows, ok := p.raw[i]
	p.mu.Unlock()
	if ok {
		return rows, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := parseCSVChunk(p.chunks[i], p.headerLines+p.baseLines[i])
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.raw[i] = rows
	p.mu.Unlock()
	return rows, nil
}

// ---- JSON ----

// jsonPlan defers the whole-scan parts of JSON's Scan to Finish: the state
// install and the empty-partition drop both need every chunk, so under
// custody they run on the gathered vector.
type jsonPlan struct {
	s          *JSON
	buf        []byte
	chunks     [][]byte
	firstLines []int
	cache      *data.SchemaCache
}

// PlanScan implements PartitionedScanner with Scan's exact line-boundary
// chunking.
func (s *JSON) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	if parts < 1 {
		parts = 1
	}
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	chunks, firstLines := splitLines(buf, parts)
	return &jsonPlan{s: s, buf: buf, chunks: chunks, firstLines: firstLines, cache: data.NewSchemaCache()}, nil
}

func (p *jsonPlan) Chunks() int                   { return len(p.chunks) }
func (p *jsonPlan) ChunkBytes(i int) int64        { return int64(len(p.chunks[i])) }
func (p *jsonPlan) NeedsVote() bool               { return false }
func (p *jsonPlan) SetTypes([]data.ColVote) error { return nil }

func (p *jsonPlan) Vote(context.Context, int) ([]data.ColVote, error) {
	return nil, fmt.Errorf("source: json: scans do not vote")
}

func (p *jsonPlan) Build(ctx context.Context, i int) ([]types.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return data.ReadJSONChunk(p.chunks[i], p.firstLines[i], p.cache)
}

func (p *jsonPlan) Finish(full [][]types.Value) ([][]types.Value, error) {
	p.s.mu.Lock()
	p.s.state = &jsonState{cache: p.cache, consumed: int64(len(p.buf)), lines: bytes.Count(p.buf, []byte{'\n'})}
	p.s.mu.Unlock()
	// Scan drops whitespace-only partitions after parsing; the custody scan
	// drops them after the gather, preserving partition-count equivalence.
	kept := full[:0]
	for _, part := range full {
		if len(part) > 0 {
			kept = append(kept, part)
		}
	}
	return kept, nil
}

// ---- colbin ----

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

// PlanScan implements PartitionedScanner with Scan's exact row-range
// partitioning.
func (s *Colbin) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	if parts < 1 {
		parts = 1
	}
	_, rows64, err := s.header()
	if err != nil {
		return nil, err
	}
	rows := int(rows64)
	p := &colbinPlan{s: s, rows: rows, size: s.src.sizeBytes()}
	if rows == 0 {
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

func (p *colbinPlan) NeedsVote() bool               { return false }
func (p *colbinPlan) SetTypes([]data.ColVote) error { return nil }

func (p *colbinPlan) Vote(context.Context, int) ([]data.ColVote, error) {
	return nil, fmt.Errorf("source: colbin: scans do not vote")
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

func (p *colbinPlan) Finish(full [][]types.Value) ([][]types.Value, error) { return full, nil }
