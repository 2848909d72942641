package source

import (
	"bytes"
	"context"

	"cleandb/internal/data"
	"cleandb/internal/par"
	"cleandb/internal/types"
)

// XML is a two-level XML source (DBLP-style; repeated child elements become
// list fields). XML nests, so there are no byte-level split points that are
// safe without parsing: Scan parses sequentially and partitions the result
// without copying. Registering an XML source still wins from laziness —
// nothing parses until the first query needs it.
type XML struct {
	src bytesAt
}

// NewXMLFile returns a lazy XML source over a file path.
func NewXMLFile(path string) *XML { return &XML{src: bytesAt{path: path}} }

// XMLBytes returns an XML source over an in-memory buffer.
func XMLBytes(buf []byte) *XML { return &XML{src: bytesAt{buf: buf}} }

// Format implements Source.
func (s *XML) Format() string { return "xml" }

// Schema implements Source; element names are unknowable without parsing.
func (s *XML) Schema() ([]string, error) { return nil, nil }

// Stats implements Source.
func (s *XML) Stats() (Stats, error) {
	return Stats{Rows: -1, Bytes: s.src.sizeBytes()}, nil
}

// Scan implements Source with a sequential parse followed by a copy-free
// partitioning of the parsed rows.
func (s *XML) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	rows, err := data.ReadXML(bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return par.Chunks(rows, parts), nil
}
