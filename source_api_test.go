package cleandb_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cleandb"
	"cleandb/internal/data"
	"cleandb/internal/datagen"
)

func writeTempFile(t *testing.T, name string, contents []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, contents, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegisterSourceIsLazy(t *testing.T) {
	path := writeTempFile(t, "c.csv", []byte("name,nationkey\nalice,1\nbob,2\ncarol,1\n"))
	db := cleandb.Open(cleandb.WithWorkers(2))
	db.RegisterCSVFile("customer", path)

	info, err := db.SourceInfo("customer")
	if err != nil {
		t.Fatal(err)
	}
	if info.Loaded {
		t.Fatal("registration must not load the source")
	}
	if info.Format != "csv" || info.Rows != -1 {
		t.Fatalf("pending info = %+v", info)
	}

	// The first query triggers the (parallel) load.
	res, err := db.Query(`SELECT c.name AS n FROM customer c WHERE c.nationkey = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows()) != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
	info, _ = db.SourceInfo("customer")
	if !info.Loaded || info.Rows != 3 {
		t.Fatalf("post-query info = %+v", info)
	}
}

// TestRegisterSourceDoesNotParse proves registration really defers parsing:
// a file whose contents are invalid for its format registers fine, and the
// parse error surfaces on first use.
func TestRegisterSourceDoesNotParse(t *testing.T) {
	path := writeTempFile(t, "bad.colbin", []byte("this is not colbin"))
	db := cleandb.Open()
	db.RegisterColbinFile("bin", path)
	if _, err := db.SourceInfo("bin"); err != nil {
		t.Fatalf("SourceInfo on pending bad source: %v", err)
	}
	_, err := db.Query(`SELECT b.x FROM bin b`)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("first query err = %v, want colbin parse error", err)
	}
	// The failure is remembered, not retried — and the catalog says so.
	if err := db.Load(context.Background(), "bin"); err == nil {
		t.Fatal("Load after failed load should report the remembered error")
	}
	if info, _ := db.SourceInfo("bin"); info.Loaded || info.Err == nil {
		t.Fatalf("failed source info = %+v, want Err set and Loaded=false", info)
	}
	// Re-registering resets the slot.
	good := &bytes.Buffer{}
	if err := data.WriteColbin(good, nil); err != nil {
		t.Fatal(err)
	}
	db.RegisterColbin("bin", bytes.NewReader(good.Bytes()))
	if rows, err := db.Rows("bin"); err != nil || len(rows) != 0 {
		t.Fatalf("after re-register: %v, %v", rows, err)
	}
}

func TestExplicitLoad(t *testing.T) {
	path := writeTempFile(t, "c.csv", []byte("a\n1\n2\n"))
	db := cleandb.Open()
	db.RegisterCSVFile("t", path)
	if err := db.Load(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	info, _ := db.SourceInfo("t")
	if !info.Loaded || info.Rows != 2 {
		t.Fatalf("info = %+v", info)
	}
	if err := db.Load(context.Background(), "t"); err != nil {
		t.Fatalf("re-Load should be a no-op, got %v", err)
	}
	if err := db.Load(context.Background(), "nope"); err == nil {
		t.Fatal("loading an unknown source should error")
	}
}

func TestRowsLoadsPendingSource(t *testing.T) {
	path := writeTempFile(t, "c.csv", []byte("a,b\n1,x\n2,y\n"))
	db := cleandb.Open()
	db.RegisterCSVFile("t", path)
	rows, err := db.Rows("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Field("a").Int() != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLazyLoadCancellable(t *testing.T) {
	path := writeTempFile(t, "c.csv", []byte("a\n1\n"))
	db := cleandb.Open()
	db.RegisterCSVFile("t", path)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT t.a FROM t t`); err == nil {
		t.Fatal("cancelled first query should fail")
	}
	// A cancelled load must not poison the source: the next query retries.
	res, err := db.Query(`SELECT t.a FROM t t`)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if len(res.Rows()) != 1 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestQueryLoadsOnlyReferencedSources(t *testing.T) {
	used := writeTempFile(t, "used.csv", []byte("a\n1\n"))
	unused := writeTempFile(t, "unused.csv", []byte("b\n2\n"))
	db := cleandb.Open()
	db.RegisterCSVFile("used", used)
	db.RegisterCSVFile("unused", unused)
	if _, err := db.Query(`SELECT u.a FROM used u`); err != nil {
		t.Fatal(err)
	}
	if info, _ := db.SourceInfo("used"); !info.Loaded {
		t.Fatal("referenced source should be loaded")
	}
	if info, _ := db.SourceInfo("unused"); info.Loaded {
		t.Fatal("unreferenced source must stay pending")
	}
}

func TestRegisterSourceInvalidatesPlanCache(t *testing.T) {
	db := cleandb.Open()
	db.RegisterCSV("t", strings.NewReader("a\n1\n"))
	q := `SELECT t.a FROM t t`
	for i := 0; i < 2; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.PlanCacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("warm stats = %+v", s)
	}
	// Registering any source — even lazily, without a load — bumps the epoch
	// and invalidates cached plans.
	db.RegisterCSVFile("other", writeTempFile(t, "o.csv", []byte("b\n2\n")))
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if s := db.PlanCacheStats(); s.Misses != 2 {
		t.Fatalf("post-register stats = %+v", s)
	}
}

func TestEagerWrappersLoadImmediately(t *testing.T) {
	db := cleandb.Open()
	if err := db.RegisterCSV("t", strings.NewReader("a\n1\n")); err != nil {
		t.Fatal(err)
	}
	info, err := db.SourceInfo("t")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.Format != "csv" || info.Rows != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info, _ := db.SourceInfo("t"); info.Bytes != 4 {
		t.Fatalf("bytes hint = %d", info.Bytes)
	}
}

func TestRegisterFileUnknownExtension(t *testing.T) {
	db := cleandb.Open()
	if err := db.RegisterFile("t", "data.parquet"); err == nil {
		t.Fatal("unknown extension should error at registration")
	}
}

func TestSourceInfosAllFormats(t *testing.T) {
	db := cleandb.Open()
	db.RegisterRows("mem", []cleandb.Value{cleandb.Int(1)})
	db.RegisterCSVFile("csv", writeTempFile(t, "a.csv", []byte("a\n1\n")))
	db.RegisterJSONFile("json", writeTempFile(t, "a.json", []byte(`{"a":1}`+"\n")))
	db.RegisterXMLFile("xml", writeTempFile(t, "a.xml", []byte(`<r><e><a>1</a></e></r>`)))
	infos := db.SourceInfos()
	if len(infos) != 4 {
		t.Fatalf("infos = %v", infos)
	}
	byName := map[string]cleandb.SourceInfo{}
	for _, i := range infos {
		byName[i.Name] = i
	}
	if !byName["mem"].Loaded || byName["mem"].Format != "mem" || byName["mem"].Rows != 1 {
		t.Fatalf("mem info = %+v", byName["mem"])
	}
	for _, n := range []string{"csv", "json", "xml"} {
		if byName[n].Loaded || byName[n].Format != n {
			t.Fatalf("%s info = %+v", n, byName[n])
		}
	}
}

// TestParallelLoadIdenticalQueryResults is the acceptance check: the same
// generated dataset, loaded eagerly through the seed sequential reader path
// and lazily through the chunk-parallel scan, yields identical query
// results.
func TestParallelLoadIdenticalQueryResults(t *testing.T) {
	rows := datagen.GenCustomer(datagen.CustomerConfig{Rows: 3000, DupRate: 0.1, MaxDups: 8, Seed: 7}).Rows
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	seqRows, err := data.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	eager := cleandb.Open(cleandb.WithWorkers(8))
	eager.RegisterRows("customer", seqRows)

	lazy := cleandb.Open(cleandb.WithWorkers(8))
	lazy.RegisterCSVFile("customer", writeTempFile(t, "c.csv", buf.Bytes()))

	for _, q := range []string{
		`SELECT c.name AS n FROM customer c WHERE c.nationkey = 3`,
		`SELECT * FROM customer c FD(c.address, c.nationkey)`,
	} {
		a, err := eager.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lazy.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := a.Rows(), b.Rows()
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d rows", q, len(ra), len(rb))
		}
		for i := range ra {
			if fmt.Sprint(ra[i]) != fmt.Sprint(rb[i]) {
				t.Fatalf("%s: row %d differs: %v vs %v", q, i, ra[i], rb[i])
			}
		}
	}
}

// TestUnload pins Unload's contract: a loaded entry drops its data and the
// next use re-scans the file, a file-appended tail folds into the base, while
// memory-only appended rows refuse and pending or failed entries are left
// exactly as they are.
func TestUnload(t *testing.T) {
	ctx := context.Background()
	db := cleandb.Open(cleandb.WithWorkers(2))
	info := func(name string) cleandb.SourceInfo {
		t.Helper()
		si, err := db.SourceInfo(name)
		if err != nil {
			t.Fatal(err)
		}
		return si
	}

	// Pending: a no-op.
	pending := writeTempFile(t, "p.csv", []byte("a\n1\n"))
	db.RegisterCSVFile("pending", pending)
	if err := db.Unload("pending"); err != nil {
		t.Fatal(err)
	}
	if si := info("pending"); si.Loaded || si.Err != nil || si.BaseGen != 0 {
		t.Fatalf("unloaded pending source: %+v", si)
	}

	// Failed: the remembered error survives, even once the file is fixed.
	bad := writeTempFile(t, "bad.colbin", []byte("not colbin"))
	db.RegisterColbinFile("bad", bad)
	if err := db.Load(ctx, "bad"); err == nil {
		t.Fatal("load of a corrupt colbin file succeeded")
	}
	var good bytes.Buffer
	if err := data.WriteColbin(&good, []cleandb.Value{cleandb.NewRecord(cleandb.NewSchema("a"), []cleandb.Value{cleandb.Int(1)})}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, good.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Unload("bad"); err != nil {
		t.Fatal(err)
	}
	if si := info("bad"); si.Loaded || si.Err == nil {
		t.Fatalf("unload cleared the failed load: %+v", si)
	}
	if err := db.Load(ctx, "bad"); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("load after unloading a failed entry = %v, want the remembered error", err)
	}

	// Memory-only appended rows cannot be re-scanned: refuse, keep the data.
	mem := writeTempFile(t, "m.csv", []byte("a\n1\n"))
	db.RegisterCSVFile("mem", mem)
	if err := db.AppendCSV("mem", []byte("2\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.Unload("mem"); err == nil || !strings.Contains(err.Error(), "memory-only") {
		t.Fatalf("unload with payload rows = %v, want a refusal", err)
	}
	if si := info("mem"); !si.Loaded || si.Rows != 2 || si.MemRows != 1 {
		t.Fatalf("refused unload changed the entry: %+v", si)
	}

	// A file-appended tail folds into the base; the next query re-scans.
	path := writeTempFile(t, "f.csv", []byte("a\n1\n2\n"))
	db.RegisterCSVFile("file", path)
	if err := db.Load(ctx, "file"); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("3\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if added, err := db.Refresh(ctx, "file"); err != nil || added != 1 {
		t.Fatalf("refresh = %d, %v; want 1 row", added, err)
	}
	before := info("file")
	if before.Appends != 1 || before.BaseGen != 0 {
		t.Fatalf("after tail refresh: %+v", before)
	}
	if err := db.Unload("file"); err != nil {
		t.Fatal(err)
	}
	after := info("file")
	if after.Loaded || after.Err != nil || after.BaseGen != before.BaseGen+1 || after.Appends != 0 || after.DeltaEpoch != before.DeltaEpoch {
		t.Fatalf("after unload: %+v (before %+v)", after, before)
	}
	if err := os.WriteFile(path, []byte("a\n7\n8\n9\n10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT x.a AS a FROM file x WHERE x.a > 7`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 3 {
		t.Fatalf("query after unload read %d rows > 7, want 3 from the rewritten file", res.RowCount())
	}
}
