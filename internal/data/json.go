package data

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cleandb/internal/types"
)

// SchemaCache shares record schemas across readers so records with equal
// field-name sets share one *types.Schema. It is safe for concurrent use,
// which lets partition-parallel JSON loaders preserve the schema-sharing
// behaviour of the sequential reader.
type SchemaCache struct {
	mu sync.Mutex
	m  map[string]*types.Schema
}

// NewSchemaCache returns an empty schema cache.
func NewSchemaCache() *SchemaCache {
	return &SchemaCache{m: map[string]*types.Schema{}}
}

// schemaKey renders sorted field names unambiguously: each name is prefixed
// by its length, so distinct name sets get distinct cache keys. Any joined
// rendering would conflate some of them — with a NUL separator, {} with
// {""} and {"a\u0000b"} with {"a","b"}.
func schemaKey(names []string) string {
	size := 0
	for _, n := range names {
		size += len(n) + 4
	}
	var sb strings.Builder
	sb.Grow(size)
	var num [20]byte
	for _, n := range names {
		sb.Write(strconv.AppendInt(num[:0], int64(len(n)), 10))
		sb.WriteByte(':')
		sb.WriteString(n)
	}
	return sb.String()
}

func (c *SchemaCache) intern(key string, names []string) *types.Schema {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	if !ok {
		s = types.NewSchema(names...)
		c.m[key] = s
	}
	return s
}

// schemaInterner is one reader's view of a SchemaCache: a lock-free local
// map in front of the shared one, so parallel chunk readers take the shared
// mutex only on first sight of a name set instead of once per record.
type schemaInterner struct {
	local  map[string]*types.Schema
	shared *SchemaCache
}

func (si *schemaInterner) For(names []string) *types.Schema {
	key := schemaKey(names)
	if s, ok := si.local[key]; ok {
		return s
	}
	s := si.shared.intern(key, names)
	si.local[key] = s
	return s
}

// ReadJSON parses JSON-lines input (one object per line) into record values.
// Nested objects become nested records, arrays become lists; numbers parse
// as ints when integral, floats otherwise. Field order is canonical
// (sorted), so records with equal keys share a schema.
func ReadJSON(r io.Reader) ([]types.Value, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("data: json: %w", err)
	}
	return ReadJSONChunk(buf, 1, NewSchemaCache())
}

// ReadJSONChunk parses one byte range of a JSON-lines input whose first line
// has 1-based number firstLine (for error messages), sharing record schemas
// through the cache. Splitting an input at line boundaries and concatenating
// the per-chunk results yields exactly what ReadJSON produces on the whole.
func ReadJSONChunk(buf []byte, firstLine int, schemas *SchemaCache) ([]types.Value, error) {
	sc := bufio.NewScanner(bytes.NewReader(buf))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	interner := &schemaInterner{local: map[string]*types.Schema{}, shared: schemas}
	var out []types.Value
	line := firstLine - 1
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var v interface{}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("data: json line %d: %w", line, err)
		}
		out = append(out, fromJSON(v, interner))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("data: json: %w", err)
	}
	return out, nil
}

func fromJSON(v interface{}, schemas *schemaInterner) types.Value {
	switch x := v.(type) {
	case nil:
		return types.Null()
	case bool:
		return types.Bool(x)
	case string:
		return types.String(x)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return types.Int(i)
		}
		f, err := x.Float64()
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return types.String(x.String())
		}
		return types.Float(f)
	case []interface{}:
		elems := make([]types.Value, len(x))
		for i, e := range x {
			elems[i] = fromJSON(e, schemas)
		}
		return types.ListOf(elems)
	case map[string]interface{}:
		names := make([]string, 0, len(x))
		for k := range x {
			names = append(names, k)
		}
		sort.Strings(names)
		schema := schemas.For(names)
		fields := make([]types.Value, len(names))
		for i, n := range names {
			fields[i] = fromJSON(x[n], schemas)
		}
		return types.NewRecord(schema, fields)
	default:
		return types.String(fmt.Sprint(x))
	}
}

// WriteJSON renders values as JSON lines.
func WriteJSON(w io.Writer, rows []types.Value) error {
	bw := bufio.NewWriter(w)
	for _, row := range rows {
		b, err := json.Marshal(toJSON(row))
		if err != nil {
			return fmt.Errorf("data: json: %w", err)
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ToJSON converts a value to the plain Go shape json.Marshal renders the way
// WriteJSON does (records → maps, lists → slices, null → nil) — for callers
// that embed rows in a larger JSON document instead of a JSON-lines stream.
func ToJSON(v types.Value) interface{} { return toJSON(v) }

func toJSON(v types.Value) interface{} {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindList:
		out := make([]interface{}, len(v.List()))
		for i, e := range v.List() {
			out[i] = toJSON(e)
		}
		return out
	case types.KindRecord:
		rec := v.Record()
		out := make(map[string]interface{}, len(rec.Fields))
		for i, n := range rec.Schema.Names {
			out[n] = toJSON(rec.Fields[i])
		}
		return out
	default:
		return nil
	}
}
