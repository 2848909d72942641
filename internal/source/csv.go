package source

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sync"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// CSV is a CSV source (header row, type-inferred columns). Its Scan splits
// the body on row boundaries and parses the chunks on parallel goroutines;
// only type inference — which needs every chunk's vote — runs between the
// two parallel phases.
//
// A successful Scan also records tail state — the header, the inferred
// column types with their voted flags, and the consumed byte offset — so
// TailScan can parse just the bytes appended past the high-water mark and
// ParsePayload can type inline appended rows consistently with the base.
type CSV struct {
	src bytesAt

	mu    sync.Mutex
	state *csvState
}

// csvState is the scan state a tail parse continues from.
type csvState struct {
	header   []string
	schema   *types.Schema
	colTypes []data.ColType
	voted    []bool // per column: any non-empty cell seen so far
	consumed int64  // bytes parsed (header + body), the tail high-water mark
}

// NewCSVFile returns a lazy CSV source over a file path.
func NewCSVFile(path string) *CSV { return &CSV{src: bytesAt{path: path}} }

// CSVBytes returns a CSV source over an in-memory buffer.
func CSVBytes(buf []byte) *CSV { return &CSV{src: bytesAt{buf: buf}} }

// Format implements Source.
func (s *CSV) Format() string { return "csv" }

// Schema returns the header row's column names without parsing the body.
// File-backed sources read a bounded prefix — a header longer than
// headPrefixBytes is reported as an error rather than silently truncated.
func (s *CSV) Schema() ([]string, error) {
	buf, complete, err := s.src.head(headPrefixBytes)
	if err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return nil, nil
	}
	cr := csv.NewReader(bytes.NewReader(buf))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("source: csv: %w", err)
	}
	// A header record consuming the whole prefix of a larger file may have
	// been cut mid-record (csv EOF-terminates partial records without
	// error); refuse to guess.
	if !complete && int(cr.InputOffset()) == len(buf) {
		return nil, fmt.Errorf("source: csv: header record exceeds %d-byte prefix", headPrefixBytes)
	}
	return header, nil
}

// Stats implements Source: the byte size is knowable, the row count is not.
func (s *CSV) Stats() (Stats, error) {
	return Stats{Rows: -1, Bytes: s.src.sizeBytes()}, nil
}

// Scan implements Source by running the scan plan (csvPlan) locally: chunk
// the body at row boundaries, parse and vote column types per chunk in
// parallel, merge the votes, then build typed records per chunk in parallel
// — each chunk landing as one ordered partition.
func (s *CSV) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	return scanPlanned(ctx, s, parts)
}

// Consumed implements Tailer.
func (s *CSV) Consumed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == nil {
		return 0
	}
	return s.state.consumed
}

// TailScan implements Tailer: it parses only the bytes appended past the
// last scan's high-water mark. The tail's cells vote on column types under
// the same lattice the base scan used; if a voted base column would widen
// (old cells like "1" parse differently as int vs float), the tail cannot
// be represented consistently and reset=true asks the caller for a full
// re-scan. A column the base scan defaulted (all empty) adopts the tail's
// type — the base cells are nulls under any type. The mark only advances
// when the tail parses cleanly.
func (s *CSV) TailScan(ctx context.Context) ([]types.Value, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state
	if st == nil {
		return nil, true, nil // no base scan recorded: caller must Scan
	}
	buf, err := s.src.bytes()
	if err != nil {
		return nil, false, err
	}
	if int64(len(buf)) < st.consumed {
		return nil, true, nil // truncated or rewritten: full re-scan
	}
	// Without a trailing newline the base scan's last record would glue
	// onto appended bytes, changing an already-delivered row; re-scan.
	if st.consumed > 0 && buf[st.consumed-1] != '\n' && int64(len(buf)) > st.consumed {
		return nil, true, nil
	}
	tail := buf[st.consumed:]
	if len(tail) == 0 {
		return nil, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	cr := csv.NewReader(bytes.NewReader(tail))
	cr.FieldsPerRecord = -1
	raw, err := cr.ReadAll()
	if err != nil {
		return nil, false, fmt.Errorf("source: csv: tail: %w", err)
	}
	tailTypes, tailVoted := data.InferColumnTypesSeen([][][]string{raw}, len(st.header))
	merged := make([]data.ColType, len(st.header))
	for c := range st.header {
		switch {
		case !tailVoted[c]:
			merged[c] = st.colTypes[c]
		case !st.voted[c]:
			merged[c] = tailTypes[c]
		default:
			j := joinColType(st.colTypes[c], tailTypes[c])
			if j != st.colTypes[c] {
				return nil, true, nil // widening: base cells would re-type
			}
			merged[c] = j
		}
	}
	rows := buildCSVRows(raw, st.header, st.schema, merged)
	st.colTypes = merged
	for c := range st.voted {
		st.voted[c] = st.voted[c] || tailVoted[c]
	}
	st.consumed = int64(len(buf))
	return rows, false, nil
}

// ParsePayload parses inline appended CSV rows (no header line) with the
// column types the base scan inferred; cells that do not parse under the
// column's type fall back to strings, exactly as ParseCell treats any
// malformed cell. It requires a prior Scan (the header and types come from
// it) and does not move the file high-water mark — payload rows exist only
// in the catalog, not in the backing file.
func (s *CSV) ParsePayload(payload []byte) ([]types.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state
	if st == nil {
		return nil, fmt.Errorf("source: csv: payload append before first scan")
	}
	cr := csv.NewReader(bytes.NewReader(payload))
	cr.FieldsPerRecord = -1
	raw, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("source: csv: payload: %w", err)
	}
	return buildCSVRows(raw, st.header, st.schema, st.colTypes), nil
}

// buildCSVRows types raw cells into records, sharing the base scan's schema
// so appended rows batch and compare identically to base rows.
func buildCSVRows(raw [][]string, header []string, schema *types.Schema, colTypes []data.ColType) []types.Value {
	vals := make([]types.Value, len(raw))
	for j, row := range raw {
		fields := make([]types.Value, len(header))
		for c := range header {
			var cell string
			if c < len(row) {
				cell = row[c]
			}
			fields[c] = data.ParseCell(cell, colTypes[c])
		}
		vals[j] = types.NewRecord(schema, fields)
	}
	return vals
}

// joinColType is the inference lattice's join: int ⊑ float ⊑ string.
func joinColType(a, b data.ColType) data.ColType { return data.JoinColType(a, b) }

// csvHeader lets the csv reader itself find the header record's end: it
// skips blank leading lines and handles quoting/CRLF exactly as the
// sequential reader does, and InputOffset marks where the body starts. A nil
// header with nil error means blank input.
func csvHeader(buf []byte) ([]string, int, error) {
	hr := csv.NewReader(bytes.NewReader(buf))
	hr.FieldsPerRecord = -1
	header, err := hr.Read()
	if err == io.EOF {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("source: csv: %w", err)
	}
	return header, int(hr.InputOffset()), nil
}

// parseCSVChunk parses one body chunk's raw cells, rebasing parse errors by
// the chunk's preceding line count so they report absolute file positions.
func parseCSVChunk(chunk []byte, baseLines int) ([][]string, error) {
	cr := csv.NewReader(bytes.NewReader(chunk))
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.Line += baseLines
			if pe.StartLine > 0 {
				pe.StartLine += baseLines
			}
		}
		return nil, fmt.Errorf("source: csv: %w", err)
	}
	return rows, nil
}

// splitCSVBody cuts the post-header bytes into at most parts chunks, each
// starting on a record boundary, aiming for even byte sizes, and reports
// the number of input lines preceding each chunk (for absolute error line
// numbers). A newline is a record boundary iff it is outside quotes, and
// quote-parity tracking is exact for well-formed CSV (the RFC 4180 escape
// "" toggles twice and nets out). The scan hops newline to newline with
// IndexByte and counts quotes per line with Count — both memchr-speed —
// instead of inspecting every byte, so boundary finding stays a small
// fraction of the parse it enables.
func splitCSVBody(body []byte, parts int) (chunks [][]byte, baseLines []int) {
	if len(body) == 0 {
		return nil, nil
	}
	starts := []int{0}
	baseLines = []int{0}
	pos, line, inQ := 0, 0, false
	for pos < len(body) && len(starts) < parts {
		j := bytes.IndexByte(body[pos:], '\n')
		if j < 0 {
			break
		}
		nl := pos + j
		if bytes.Count(body[pos:nl], []byte{'"'})%2 == 1 {
			inQ = !inQ
		}
		pos = nl + 1
		line++
		if !inQ && pos < len(body) && pos >= len(starts)*len(body)/parts {
			starts = append(starts, pos)
			baseLines = append(baseLines, line)
		}
	}
	chunks = make([][]byte, len(starts))
	for i := range starts {
		end := len(body)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		chunks[i] = body[starts[i]:end]
	}
	return chunks, baseLines
}

// csvPlan is CSV's scan in three phases, each per chunk: parse raw cells and
// vote column types (Vote), install the merged types (SetTypes), and build
// typed records (Build). Raw cells are cached between the vote and build of
// a chunk and re-parsed on demand when a cluster member adopts a chunk after
// the vote round. Finish records the tail state.
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

// PlanScan implements PartitionedScanner: the body splits at row boundaries
// into at most parts chunks.
func (s *CSV) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	if parts < 1 {
		parts = 1
	}
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	p := &csvPlan{s: s, buf: buf, raw: make(map[int][][]string)}
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
	if p.header == nil { // blank input: no rows and nothing to tail from
		p.s.mu.Lock()
		p.s.state = nil
		p.s.mu.Unlock()
		return nil, nil
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
// and build phases. Parse errors are rebased from chunk-relative to absolute
// file line numbers, matching what the sequential reader reports.
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
