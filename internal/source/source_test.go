package source

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// flatten concatenates scan partitions in order.
func flatten(parts [][]types.Value) []types.Value {
	var out []types.Value
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// wantSameRows asserts that got matches want element-wise, in order.
func wantSameRows(t *testing.T, got, want []types.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !types.Equal(got[i], want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// genCSV builds a messy-but-valid CSV: quoted fields with embedded commas,
// quotes and newlines, empty cells, short rows, int/float/string columns.
func genCSV(rng *rand.Rand, rows int) string {
	var sb strings.Builder
	sb.WriteString("id,score,name,note\n")
	for i := 0; i < rows; i++ {
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, "%d,%g,\"row, %d\",plain\n", i, rng.Float64(), i)
		case 1:
			fmt.Fprintf(&sb, "%d,,\"multi\nline \"\"quoted\"\" cell\",x\n", i)
		case 2:
			fmt.Fprintf(&sb, "%d,%g,,\n", i, float64(i)/3)
		case 3:
			fmt.Fprintf(&sb, "%d,%g,short\n", i, rng.Float64()) // short row
		case 4:
			fmt.Fprintf(&sb, ",%g,empty id,note %d\n", rng.Float64(), i)
		default:
			fmt.Fprintf(&sb, "%d,%g,name %d,ünïcode ✓\n", i, rng.Float64(), i)
		}
	}
	return sb.String()
}

func TestCSVScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{0, 1, 3, 97, 500} {
		csvText := genCSV(rng, rows)
		want, err := data.ReadCSV(strings.NewReader(csvText))
		if err != nil {
			t.Fatalf("ReadCSV: %v", err)
		}
		for _, parts := range []int{1, 2, 3, 7, 16} {
			got, err := CSVBytes([]byte(csvText)).Scan(context.Background(), parts)
			if err != nil {
				t.Fatalf("rows=%d parts=%d: Scan: %v", rows, parts, err)
			}
			if len(got) > parts {
				t.Fatalf("rows=%d: got %d partitions, want <= %d", rows, len(got), parts)
			}
			wantSameRows(t, flatten(got), want)
		}
	}
}

// TestCSVScanPropertyRandom is the property test the chunked loader is held
// to: for random tables round-tripped through the CSV writer, every
// parallelism degree yields exactly the sequential reader's rows, in order.
func TestCSVScanPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	schema := types.NewSchema("a", "b", "c")
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(60)
		rows := make([]types.Value, n)
		for i := range rows {
			fields := []types.Value{
				types.Int(rng.Int63n(1000)),
				types.Float(rng.Float64()),
				types.String(randomCell(rng)),
			}
			if rng.Intn(4) == 0 {
				fields[rng.Intn(3)] = types.Null()
			}
			rows[i] = types.NewRecord(schema, fields)
		}
		var buf bytes.Buffer
		if err := data.WriteCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		want, err := data.ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		parts := 1 + rng.Intn(12)
		got, err := CSVBytes(buf.Bytes()).Scan(context.Background(), parts)
		if err != nil {
			t.Fatalf("trial %d (parts=%d): %v", trial, parts, err)
		}
		wantSameRows(t, flatten(got), want)
	}
}

func randomCell(rng *rand.Rand) string {
	pieces := []string{"plain", "with, comma", "with \"quotes\"", "multi\nline", "ünïcode", ""}
	return pieces[rng.Intn(len(pieces))]
}

func TestJSONScanMatchesSequential(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, `{"id":%d,"name":"n%d","tags":["a","b"]}`+"\n", i, i)
		case 1:
			fmt.Fprintf(&sb, `{"id":%d,"nested":{"x":%d,"y":null}}`+"\n", i, i*2)
		case 2:
			sb.WriteString("\n") // blank line: skipped
		default:
			fmt.Fprintf(&sb, `{"id":%d,"score":%g}`+"\n", i, float64(i)/7)
		}
	}
	want, err := data.ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 5, 13} {
		got, err := JSONBytes([]byte(sb.String())).Scan(context.Background(), parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		wantSameRows(t, flatten(got), want)
	}
}

func TestJSONScanErrorKeepsAbsoluteLineNumber(t *testing.T) {
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"id":%d}`, i)
	}
	lines[33] = `{"id":` // malformed
	input := strings.Join(lines, "\n")
	_, err := JSONBytes([]byte(input)).Scan(context.Background(), 8)
	if err == nil || !strings.Contains(err.Error(), "line 34") {
		t.Fatalf("err = %v, want mention of line 34", err)
	}
}

func TestXMLScanMatchesSequential(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<dblp>\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, `<article key="a%d"><title>t%d</title><year>%d</year><author>x</author><author>y</author></article>`+"\n", i, i, 2000+i%20)
	}
	sb.WriteString("</dblp>\n")
	want, err := data.ReadXML(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := XMLBytes([]byte(sb.String())).Scan(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 4 {
		t.Fatalf("partitions = %d, want <= 4", len(got))
	}
	wantSameRows(t, flatten(got), want)
}

func colbinSample(t *testing.T, n int) []byte {
	t.Helper()
	schema := types.NewSchema("id", "score", "name", "flag", "tags")
	rows := make([]types.Value, n)
	for i := range rows {
		fields := []types.Value{
			types.Int(int64(i)),
			types.Float(float64(i) / 3),
			types.String(fmt.Sprintf("name-%d", i%17)), // dictionary-friendly
			types.Bool(i%2 == 0),
			types.List(types.String("a"), types.String(fmt.Sprint(i%5))),
		}
		if i%11 == 0 {
			fields[i%5] = types.Null()
		}
		rows[i] = types.NewRecord(schema, fields)
	}
	var buf bytes.Buffer
	if err := data.WriteColbin(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestColbinScanMatchesSequential(t *testing.T) {
	buf := colbinSample(t, 300)
	want, err := data.ReadColbin(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 7, 32} {
		got, err := ColbinBytes(buf).Scan(context.Background(), parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if len(got) > parts {
			t.Fatalf("parts=%d: got %d partitions", parts, len(got))
		}
		wantSameRows(t, flatten(got), want)
	}
}

func TestColbinSchemaAndStatsWithoutScan(t *testing.T) {
	buf := colbinSample(t, 64)
	src := ColbinBytes(buf)
	names, err := src.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || names[0] != "id" {
		t.Fatalf("schema = %v", names)
	}
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 64 || st.Bytes != int64(len(buf)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCSVSchemaAndStats(t *testing.T) {
	src := CSVBytes([]byte("a,\"b,c\",d\n1,2,3\n"))
	names, err := src.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[1] != "b,c" {
		t.Fatalf("schema = %v", names)
	}
	st, _ := src.Stats()
	if st.Rows != -1 || st.Bytes != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemSource(t *testing.T) {
	schema := types.NewSchema("x")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{types.Int(1)}),
		types.NewRecord(schema, []types.Value{types.Int(2)}),
		types.NewRecord(schema, []types.Value{types.Int(3)}),
	}
	src := FromRows(rows)
	st, _ := src.Stats()
	if st.Rows != 3 {
		t.Fatalf("stats = %+v", st)
	}
	names, _ := src.Schema()
	if len(names) != 1 || names[0] != "x" {
		t.Fatalf("schema = %v", names)
	}
	got, err := src.Scan(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("partitions = %d", len(got))
	}
	wantSameRows(t, flatten(got), rows)
}

func TestFromPath(t *testing.T) {
	for ext, format := range map[string]string{
		".csv": "csv", ".json": "json", ".jsonl": "json", ".ndjson": "json",
		".xml": "xml", ".colbin": "colbin",
	} {
		src, err := FromPath("file" + ext)
		if err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		if src.Format() != format {
			t.Fatalf("%s: format = %q, want %q", ext, src.Format(), format)
		}
	}
	if _, err := FromPath("file.parquet"); err == nil {
		t.Fatal("unknown extension should error")
	}
}

func TestFileBackedScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	csvText := genCSV(rand.New(rand.NewSource(3)), 120)
	if err := os.WriteFile(path, []byte(csvText), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := data.ReadCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	src := NewCSVFile(path)
	st, _ := src.Stats()
	if st.Bytes != int64(len(csvText)) {
		t.Fatalf("stats = %+v, want %d bytes", st, len(csvText))
	}
	names, err := src.Schema()
	if err != nil || len(names) != 4 {
		t.Fatalf("schema = %v, %v", names, err)
	}
	got, err := src.Scan(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	wantSameRows(t, flatten(got), want)
}

func TestFileBackedScanMissingFile(t *testing.T) {
	if _, err := NewCSVFile("/nonexistent/nope.csv").Scan(context.Background(), 2); err == nil {
		t.Fatal("missing file should error at scan time")
	}
}

func TestScanCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	csvText := genCSV(rand.New(rand.NewSource(5)), 500)
	for _, src := range []Source{
		CSVBytes([]byte(csvText)),
		JSONBytes([]byte(`{"a":1}` + "\n")),
		XMLBytes([]byte(`<r><e><a>1</a></e></r>`)),
		ColbinBytes(colbinSample(t, 50)),
		FromRows([]types.Value{types.Int(1)}),
	} {
		if _, err := src.Scan(ctx, 4); err != context.Canceled {
			t.Errorf("%s: cancelled Scan err = %v, want context.Canceled", src.Format(), err)
		}
	}
}

// TestCSVScanErrorKeepsAbsoluteLineNumber mirrors the JSON test: a parse
// error inside a later chunk must report the same file-absolute line number
// the sequential reader reports.
func TestCSVScanErrorKeepsAbsoluteLineNumber(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d,ok\n", i)
	}
	sb.WriteString("351,bad\"cell\n") // bare quote: csv parse error
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "%d,ok\n", i)
	}
	in := []byte(sb.String())
	_, seqErr := data.ReadCSV(bytes.NewReader(in))
	var seqPE *csv.ParseError
	if !errors.As(seqErr, &seqPE) {
		t.Fatalf("sequential err = %v, want a csv.ParseError", seqErr)
	}
	for _, parts := range []int{2, 4, 8} {
		_, err := CSVBytes(in).Scan(context.Background(), parts)
		var pe *csv.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("parts=%d: err = %v, want a csv.ParseError", parts, err)
		}
		if pe.Line != seqPE.Line || pe.StartLine != seqPE.StartLine {
			t.Fatalf("parts=%d: error at line %d (start %d), sequential says %d (start %d)",
				parts, pe.Line, pe.StartLine, seqPE.Line, seqPE.StartLine)
		}
	}
}
