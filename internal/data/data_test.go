package data

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"cleandb/internal/types"
)

func TestCSVRoundTrip(t *testing.T) {
	schema := types.NewSchema("id", "name", "score")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{types.Int(1), types.String("ann"), types.Float(2.5)}),
		types.NewRecord(schema, []types.Value{types.Int(2), types.String("bob"), types.Float(-1)}),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("rows = %d", len(back))
	}
	if back[0].Field("id").Int() != 1 || back[0].Field("name").Str() != "ann" {
		t.Fatalf("row 0 = %s", back[0])
	}
	if back[1].Field("score").Float() != -1 {
		t.Fatalf("float column: %s", back[1])
	}
}

func TestCSVTypeInference(t *testing.T) {
	in := "a,b,c,d\n1,1.5,xyz,\n2,2,abc,\n"
	rows, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Field("a").Kind() != types.KindInt {
		t.Error("column a should infer int")
	}
	if rows[0].Field("b").Kind() != types.KindFloat {
		t.Error("column b should infer float")
	}
	if rows[0].Field("c").Kind() != types.KindString {
		t.Error("column c should infer string")
	}
	if !rows[0].Field("d").IsNull() {
		t.Error("empty cells become null")
	}
}

func TestCSVEmpty(t *testing.T) {
	rows, err := ReadCSV(strings.NewReader(""))
	if err != nil || rows != nil {
		t.Fatalf("empty csv: %v, %v", rows, err)
	}
	if err := WriteCSV(&bytes.Buffer{}, nil); err != nil {
		t.Fatal("writing no rows should succeed")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	schema := types.NewSchema("authors", "title", "year")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{
			types.List(types.String("x"), types.String("y")),
			types.String("paper"), types.Int(2001),
		}),
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("rows = %d", len(back))
	}
	if types.Key(back[0]) != types.Key(rows[0]) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back[0], rows[0])
	}
}

func TestJSONNested(t *testing.T) {
	in := `{"a": {"b": [1, 2.5, "s", null, true]}}`
	rows, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	inner := rows[0].Field("a").Field("b").List()
	if len(inner) != 5 {
		t.Fatalf("nested list: %v", inner)
	}
	if inner[0].Kind() != types.KindInt || inner[1].Kind() != types.KindFloat {
		t.Fatal("number kinds")
	}
	if !inner[3].IsNull() || !inner[4].Bool() {
		t.Fatal("null/bool")
	}
}

func TestJSONBadInput(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("bad json should error")
	}
}

func TestJSONSkipsBlankLines(t *testing.T) {
	rows, err := ReadJSON(strings.NewReader("\n{\"a\":1}\n\n{\"a\":2}\n"))
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	schema := types.NewSchema("authors", "title", "year")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{
			types.List(types.String("ann"), types.String("bob")),
			types.String("a <nice> paper"), types.Int(1999),
		}),
		types.NewRecord(schema, []types.Value{
			types.List(types.String("solo")),
			types.String("another"), types.Int(2000),
		}),
	}
	var buf bytes.Buffer
	if err := WriteXML(&buf, rows, "dblp", "article"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("rows = %d", len(back))
	}
	if back[0].Field("title").Str() != "a <nice> paper" {
		t.Fatalf("escaping broken: %s", back[0].Field("title"))
	}
	if len(back[0].Field("authors").List()) != 2 {
		t.Fatalf("repeated elements should form a list: %s", back[0])
	}
	// Single author stays scalar (XML cannot distinguish); Flatten treats
	// both uniformly.
	if back[1].Field("authors").Kind() == types.KindList {
		t.Log("single author parsed as scalar, as expected")
	}
}

func TestXMLAttributes(t *testing.T) {
	in := `<root><rec key="k1"><v>3</v></rec></root>`
	rows, err := ReadXML(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Field("key").Str() != "k1" || rows[0].Field("v").Int() != 3 {
		t.Fatalf("attr parse: %s", rows[0])
	}
}

func TestFlatten(t *testing.T) {
	schema := types.NewSchema("authors", "title")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{
			types.List(types.String("a"), types.String("b"), types.String("c")),
			types.String("t1"),
		}),
		types.NewRecord(schema, []types.Value{
			types.List(types.String("x")),
			types.String("t2"),
		}),
	}
	flat := Flatten(rows)
	if len(flat) != 4 {
		t.Fatalf("flattened rows = %d, want 4", len(flat))
	}
	if flat[0].Field("authors").Kind() != types.KindString {
		t.Fatalf("flattened author should be scalar: %s", flat[0])
	}
}

func TestFlattenNoList(t *testing.T) {
	schema := types.NewSchema("a")
	rows := []types.Value{types.NewRecord(schema, []types.Value{types.Int(1)})}
	flat := Flatten(rows)
	if len(flat) != 1 || flat[0].Field("a").Int() != 1 {
		t.Fatalf("no-list flatten should be identity: %v", flat)
	}
}

func TestColbinRoundTrip(t *testing.T) {
	schema := types.NewSchema("authors", "n", "score", "title", "valid")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{
			types.List(types.String("a"), types.String("b")),
			types.Int(-7), types.Float(1.25), types.String("t1"), types.Bool(true),
		}),
		types.NewRecord(schema, []types.Value{
			types.List(),
			types.Int(12), types.Float(-0.5), types.String("t2"), types.Bool(false),
		}),
		types.NewRecord(schema, []types.Value{
			types.Null(), types.Null(), types.Null(), types.Null(), types.Null(),
		}),
	}
	var buf bytes.Buffer
	if err := WriteColbin(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadColbin(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("rows = %d", len(back))
	}
	for i := range rows {
		if types.Key(back[i]) != types.Key(rows[i]) {
			t.Fatalf("row %d mismatch:\n%s\nvs\n%s", i, back[i], rows[i])
		}
	}
}

func TestColbinDictionaryCompression(t *testing.T) {
	// Highly repetitive strings: colbin should be much smaller than CSV.
	schema := types.NewSchema("j")
	rows := make([]types.Value, 2000)
	for i := range rows {
		rows[i] = types.NewRecord(schema, []types.Value{types.String("the same long journal name")})
	}
	var csvBuf, binBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteColbin(&binBuf, rows); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len()*5 > csvBuf.Len() {
		t.Fatalf("colbin %dB should be ≤ 1/5 of CSV %dB on repetitive data", binBuf.Len(), csvBuf.Len())
	}
}

func TestColbinEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteColbin(&buf, nil); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadColbin(&buf)
	if err != nil || rows != nil {
		t.Fatalf("empty colbin: %v, %v", rows, err)
	}
}

func TestColbinBadMagic(t *testing.T) {
	if _, err := ReadColbin(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := ReadColbin(strings.NewReader("")); err == nil {
		t.Fatal("empty stream should error")
	}
}

func TestColbinRandomRoundTrip(t *testing.T) {
	// Property: random flat-with-one-list-column records survive the trip.
	rng := rand.New(rand.NewSource(111))
	schema := types.NewSchema("list", "num", "str")
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		rows := make([]types.Value, n)
		for i := range rows {
			var lv types.Value
			if rng.Intn(5) == 0 {
				lv = types.Null()
			} else {
				elems := make([]types.Value, rng.Intn(4))
				for j := range elems {
					elems[j] = types.String(randStr(rng))
				}
				lv = types.ListOf(elems)
			}
			var nv types.Value
			if rng.Intn(5) == 0 {
				nv = types.Null()
			} else {
				nv = types.Int(int64(rng.Intn(2000) - 1000))
			}
			rows[i] = types.NewRecord(schema, []types.Value{lv, nv, types.String(randStr(rng))})
		}
		var buf bytes.Buffer
		if err := WriteColbin(&buf, rows); err != nil {
			t.Fatal(err)
		}
		back, err := ReadColbin(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if types.Key(back[i]) != types.Key(rows[i]) {
				t.Fatalf("trial %d row %d: %s vs %s", trial, i, back[i], rows[i])
			}
		}
	}
}

func randStr(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func TestColTypeString(t *testing.T) {
	if ColString.String() != "string" || ColStringList.String() != "list<string>" {
		t.Fatal("ColType names")
	}
}

// TestCSVEmptyCellsAreNulls locks in the null contract of ParseCell: an
// empty cell is a null in every inferred column type — never a typed zero
// value — matching the null handling of the JSON and XML readers. Short
// rows behave as if their missing cells were empty.
func TestCSVEmptyCellsAreNulls(t *testing.T) {
	cases := []struct {
		name string
		in   string
		col  string
		row  int
		want types.Kind
	}{
		{"empty int cell", "i,s\n1,a\n,b\n", "i", 1, types.KindNull},
		{"empty float cell", "f,s\n1.5,a\n,b\n", "f", 1, types.KindNull},
		{"empty string cell", "s,t\nx,a\n,b\n", "s", 1, types.KindNull},
		{"short row missing int", "s,i\na,1\nb\n", "i", 1, types.KindNull},
		{"short row missing string", "i,s\n1,a\n2\n", "s", 1, types.KindNull},
		{"quoted empty cell", "i,s\n1,a\n\"\",b\n", "i", 1, types.KindNull},
		{"all-empty column stays null", "i,e\n1,\n2,\n", "e", 0, types.KindNull},
		{"populated int cell", "i,s\n1,a\n,b\n", "i", 0, types.KindInt},
		{"populated float cell", "f,s\n1.5,a\n,b\n", "f", 0, types.KindFloat},
		{"whitespace cell is a string", "i,s\n1,a\n ,b\n", "i", 1, types.KindString},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := ReadCSV(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			got := rows[tc.row].Field(tc.col).Kind()
			if got != tc.want {
				t.Fatalf("%s[%d] kind = %v, want %v", tc.col, tc.row, got, tc.want)
			}
		})
	}
}

// TestParseCellTable exercises ParseCell directly: empties are nulls for
// every column type, and cells that fail to parse fall back to strings.
func TestParseCellTable(t *testing.T) {
	cases := []struct {
		cell string
		t    ColType
		want types.Value
	}{
		{"", ColInt, types.Null()},
		{"", ColFloat, types.Null()},
		{"", ColString, types.Null()},
		{"", ColBool, types.Null()},
		{"42", ColInt, types.Int(42)},
		{"-7", ColInt, types.Int(-7)},
		{"1.5", ColFloat, types.Float(1.5)},
		{"2", ColFloat, types.Float(2)},
		{"x", ColString, types.String("x")},
		{"abc", ColInt, types.String("abc")},   // mismatch falls back to string
		{"abc", ColFloat, types.String("abc")}, // mismatch falls back to string
		{"0", ColString, types.String("0")},
	}
	for _, tc := range cases {
		got := ParseCell(tc.cell, tc.t)
		if !types.Equal(got, tc.want) || got.Kind() != tc.want.Kind() {
			t.Errorf("ParseCell(%q, %v) = %v (%v), want %v (%v)",
				tc.cell, tc.t, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}

// TestInferColumnTypesChunked checks that chunked inference equals
// single-slice inference regardless of how rows are split — the property
// the parallel CSV loader relies on for identical typing.
func TestInferColumnTypesChunked(t *testing.T) {
	rows := [][]string{
		{"1", "1.5", "x", ""},
		{"2", "2", "y", ""},
		{"3.5", "z", "", ""},
		{"4", "5", "7", ""},
	}
	want := InferColumnTypes([][][]string{rows}, 4)
	if want[0] != ColFloat || want[1] != ColString || want[2] != ColString || want[3] != ColString {
		t.Fatalf("baseline inference = %v", want)
	}
	for split := 1; split < len(rows); split++ {
		got := InferColumnTypes([][][]string{rows[:split], rows[split:]}, 4)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("split %d col %d: %v, want %v", split, c, got[c], want[c])
			}
		}
	}
}

// TestColbinCorruptInputs feeds truncated and size-lying buffers to the
// indexed reader: every one must fail with an error — no panics, no
// input-independent allocations.
func TestColbinCorruptInputs(t *testing.T) {
	var good bytes.Buffer
	schema := types.NewSchema("a", "b")
	if err := WriteColbin(&good, []types.Value{
		types.NewRecord(schema, []types.Value{types.Int(1), types.String("x")}),
	}); err != nil {
		t.Fatal(err)
	}
	buf := good.Bytes()
	for n := 4; n < len(buf); n++ {
		if _, err := ReadColbin(bytes.NewReader(buf[:n])); err == nil {
			t.Fatalf("truncation at %d bytes should error", n)
		}
	}
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"huge ncols", []byte("CBN1\xff\xff\xff\xff\x0f")},
		{"huge nrows", append([]byte("CBN1\x01\x01a\x00"), 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"huge dict", []byte("CBN1\x01\x01a\x00\x01\x00\xff\xff\xff\xff\x0f")},
		{"unknown col type", []byte("CBN1\x01\x01a\x09\x01\x00\x00")},
	} {
		if _, err := ReadColbin(bytes.NewReader(tc.in)); err == nil {
			t.Errorf("%s should error", tc.name)
		}
	}
}

// TestColbinIndexParallelDecode checks the index/decode pair the
// column-parallel loader uses: extents decode independently to the same
// values the sequential reader produces.
func TestColbinIndexParallelDecode(t *testing.T) {
	schema := types.NewSchema("i", "s", "l")
	rows := make([]types.Value, 50)
	for i := range rows {
		rows[i] = types.NewRecord(schema, []types.Value{
			types.Int(int64(i)),
			types.String("v" + string(rune('a'+i%3))),
			types.List(types.String("t"), types.String("u")),
		})
	}
	var buf bytes.Buffer
	if err := WriteColbin(&buf, rows); err != nil {
		t.Fatal(err)
	}
	info, err := IndexColbin(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 50 || len(info.Names) != 3 {
		t.Fatalf("info = %+v", info)
	}
	for c := range info.Names {
		vals, err := info.DecodeColumn(c)
		if err != nil {
			t.Fatalf("col %d: %v", c, err)
		}
		for i, v := range vals {
			want := rows[i].Record().Fields[c]
			if !types.Equal(v, want) {
				t.Fatalf("col %d row %d = %v, want %v", c, i, v, want)
			}
		}
	}
}

// TestJSONSchemaKeyCollision guards the schema-cache key against name sets
// that differ only in where a space falls: {"a b","c"} and {"a","b c"} must
// get distinct schemas (a space-joined cache key conflated them).
func TestJSONSchemaKeyCollision(t *testing.T) {
	in := `{"a b":1,"c":2}` + "\n" + `{"a":3,"b c":4}` + "\n"
	rows, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n := rows[0].Field("a b").Int(); n != 1 {
		t.Fatalf(`rows[0]["a b"] = %d, want 1`, n)
	}
	if n := rows[1].Field("b c").Int(); n != 4 {
		t.Fatalf(`rows[1]["b c"] = %d, want 4 (schema collision?)`, n)
	}
	if n := rows[1].Field("a").Int(); n != 3 {
		t.Fatalf(`rows[1]["a"] = %d, want 3`, n)
	}

	// A NUL-joined key conflated {} with {""} and {"a\u0000b"} with
	// {"a","b"}, and building the second record then panicked on arity.
	in = `{"":0}` + "\n{}\n" + `{"a\u0000b":1}` + "\n" + `{"a":2,"b":3}` + "\n"
	rows, err = ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rows[1].Record().Fields); n != 0 {
		t.Fatalf("rows[1] has %d fields, want 0", n)
	}
	if n := rows[3].Field("b").Int(); n != 3 {
		t.Fatalf(`rows[3]["b"] = %d, want 3`, n)
	}
}
