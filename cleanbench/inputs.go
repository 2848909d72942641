package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cleandb"
	"cleandb/internal/data"
	"cleandb/internal/datagen"
	"cleandb/internal/types"
)

// inputInfo describes one generated input file, for the run record.
type inputInfo struct {
	Source string `json:"source"`
	Format string `json:"format"`
	Rows   int    `json:"rows"`
	Bytes  int64  `json:"bytes"`
	path   string
}

// Seeds of the generators are derived from the run's seed, one per relation.
func lineitemRows(seed int64, n int) []cleandb.Value {
	return datagen.GenLineitem(datagen.LineitemConfig{Rows: n, Seed: seed*7 + 1})
}

// customerData generates exactly rows customer records: base customers with
// their Zipf-distributed duplicates, cut at rows so that every seed yields
// the same input size.
func customerData(seed int64, rows int) datagen.CustomerData {
	d := datagen.GenCustomer(datagen.CustomerConfig{Rows: rows, DupRate: 0.10, MaxDups: 50, Seed: seed*7 + 2})
	d.Rows = d.Rows[:rows]
	kept := d.DupPairs[:0]
	for _, p := range d.DupPairs {
		if p[1] <= int64(rows) {
			kept = append(kept, p)
		}
	}
	d.DupPairs = kept
	return d
}

// dictionaryRows holds the clean names of the non-duplicate customers: the
// term-validation dictionary.
func dictionaryRows(cust datagen.CustomerData) []cleandb.Value {
	dup := make(map[int64]bool, len(cust.DupPairs))
	for _, p := range cust.DupPairs {
		dup[p[1]] = true
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range cust.Rows {
		if dup[r.Field("custkey").Int()] {
			continue
		}
		if n := r.Field("name").Str(); !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	schema := types.NewSchema("term")
	out := make([]cleandb.Value, len(names))
	for i, n := range names {
		out[i] = types.NewRecord(schema, []types.Value{types.String(n)})
	}
	return out
}

// writeInput renders rows as one file of the given format (csv, jsonl or
// colbin) in dir.
func writeInput(dir, source, format string, rows []cleandb.Value) (inputInfo, error) {
	path := filepath.Join(dir, source+"."+format)
	f, err := os.Create(path)
	if err != nil {
		return inputInfo{}, err
	}
	w := bufio.NewWriter(f)
	switch format {
	case "csv":
		err = data.WriteCSV(w, rows)
	case "jsonl":
		err = data.WriteJSON(w, rows)
	case "colbin":
		err = data.WriteColbin(w, rows)
	default:
		err = fmt.Errorf("unknown input format %q", format)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return inputInfo{}, fmt.Errorf("write %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return inputInfo{}, err
	}
	return inputInfo{Source: source, Format: format, Rows: len(rows), Bytes: st.Size(), path: path}, nil
}

// csvPayload renders rows as CSV lines without the header: an AppendCSV
// payload.
func csvPayload(rows []cleandb.Value) ([]byte, error) {
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rows); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return b, nil
}

func jsonlPayload(rows []cleandb.Value) ([]byte, error) {
	var buf bytes.Buffer
	if err := data.WriteJSON(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canonRows is an order-insensitive digest form of a result: the sorted
// canonical keys of its rows.
func canonRows(rows []cleandb.Value) []string {
	out := make([]string, len(rows))
	for i, v := range rows {
		out[i] = types.Key(v)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
