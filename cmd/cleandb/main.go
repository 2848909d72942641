// Command cleandb is the CleanDB shell: it registers data files of any
// supported format as queryable sources and runs CleanM statements against
// them — querying and cleaning through one interface, as the paper proposes.
//
// Usage:
//
//	cleandb query  -src name=path.csv [-src dict=path.json ...] [-explain] 'SELECT ...'
//	cleandb serve  -http :8080 -src name=path.csv [-max-inflight N] [-timeout D]
//	cleandb gen    -kind tpch-lineitem|tpch-customer|dblp|mag -rows N -out path.csv
//	cleandb convert -in path.csv -out path.colbin
//
// Formats are inferred from file extensions: .csv, .json (JSON lines),
// .xml, .colbin.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cleandb"
	"cleandb/internal/data"
	"cleandb/internal/datagen"
	"cleandb/internal/dist"
	"cleandb/internal/lang"
	"cleandb/internal/server"
	"cleandb/internal/sink"
	"cleandb/internal/source"
	"cleandb/internal/types"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "query":
		err = cmdQuery(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cleandb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `cleandb — unified scale-out data cleaning (CleanM)

subcommands:
  query    -src name=path [...] [-workers N] [-explain] [-limit N]
           [-param k=v ...] [-timeout D] [-task NAME] [-serve]
           [-out out.{csv,jsonl,colbin}] 'CLEANM QUERY'
  serve    -http :8080 [-src name=path ...] [-workers N]
           [-max-inflight N] [-timeout D] [-drain-timeout D]
           [-role single|coordinator|worker] [-advertise URL]
           [-coordinator URL] [-exchange-timeout D]
  gen      -kind tpch-lineitem|tpch-customer|dblp|mag -rows N -out path
  convert  -in path -out path [-workers N]

examples:
  cleandb gen -kind tpch-customer -rows 10000 -out customer.csv
  cleandb query -src customer=customer.csv \
    'SELECT * FROM customer c FD(c.address, c.nationkey)'
  cleandb query -src customer=customer.csv -param nation=7 \
    'SELECT * FROM customer c WHERE c.nationkey = :nation DEDUP(attribute, LD, 0.8, c.name)'
  cleandb query -src customer=customer.csv -serve < statements.cleanm
  cleandb query -src customer=customer.csv -out violations.colbin \
    'SELECT * FROM customer c FD(c.address, c.nationkey)'

-serve reads one statement per line from stdin and executes them
concurrently against the shared catalog (prepared plans are cached), which
is how to exercise the service-grade API from the shell.

-out streams the result into the named file through the sink layer:
partitions encode in parallel and nothing is printed or buffered whole.

serve mounts the engine behind HTTP: POST /v1/query streams results as
NDJSON or CSV, POST /v1/statements prepares once and executes by handle,
GET/POST /v1/sources work the lazy source catalog over the wire, and
/healthz + /metrics (Prometheus) make it operable. SIGINT/SIGTERM drain
gracefully: health flips to 503, in-flight queries finish (bounded by
-drain-timeout), then the listener closes.

-role forms a cleaning cluster: one coordinator plus workers started with
-coordinator http://coord:8080 (each node registers the same -src files).
Queries sent to the coordinator fan their join work out across the workers,
exchanging intermediate partitions as binary colbin frames; a worker lost
mid-query is evicted and its share re-executes elsewhere. Cold source loads
divide the same way — each member parses only the chunks it owns and gathers
the rest — so per-node parse work scales down with the cluster size; XML
sources, which cannot be split into chunks, load whole on every member.`)
}

type srcList []string

func (s *srcList) String() string     { return strings.Join(*s, ",") }
func (s *srcList) Set(v string) error { *s = append(*s, v); return nil }

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var sources srcList
	var params srcList
	fs.Var(&sources, "src", "name=path source registration (repeatable)")
	fs.Var(&params, "param", "k=v named parameter binding for :k placeholders (repeatable)")
	workers := fs.Int("workers", 8, "simulated cluster width")
	explain := fs.Bool("explain", false, "print the three-level plan instead of executing")
	limit := fs.Int("limit", 20, "max rows to print")
	standalone := fs.Bool("standalone", false, "disable unified optimization")
	outPath := fs.String("out", "", "stream result rows to this file instead of printing (.csv/.jsonl/.colbin)")
	repairedOut := fs.String("repaired-out", "", "write REPAIR-healed rows to this file (format by extension)")
	timeout := fs.Duration("timeout", 0, "per-statement deadline (0 = none)")
	taskName := fs.String("task", "", "also print the named cleaning task's own output rows")
	serve := fs.Bool("serve", false, "read statements from stdin and execute them concurrently")
	viewCache := fs.Int("view-cache", 0, "materialized cleaning views to cache (0 = off); repeated statements over unchanged or appended sources serve incrementally")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := []cleandb.Option{cleandb.WithWorkers(*workers)}
	if *standalone {
		opts = append(opts, cleandb.WithStandaloneOps())
	}
	if *viewCache > 0 {
		opts = append(opts, cleandb.WithViewCache(*viewCache))
	}
	db := cleandb.Open(opts...)
	for _, s := range sources {
		name, path, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("query: -src wants name=path, got %q", s)
		}
		if err := register(db, name, path); err != nil {
			return err
		}
	}
	bindings, err := parseParams(params)
	if err != nil {
		return err
	}
	if *serve {
		if fs.NArg() != 0 {
			return fmt.Errorf("query: -serve reads statements from stdin; drop the statement argument")
		}
		return serveStatements(db, bindings, *timeout, *limit)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: want exactly one CleanM statement argument")
	}
	query := fs.Arg(0)
	// Validate -repaired-out against the statement before executing: a
	// misuse error should not come after the (possibly expensive) run.
	if *repairedOut != "" {
		if parsed, err := lang.Parse(query); err == nil {
			repairs := 0
			for _, op := range parsed.Cleaning {
				if op.Kind == lang.CleanDenial && op.RepairAttr != nil {
					repairs++
				}
			}
			if repairs == 0 {
				return fmt.Errorf("query: -repaired-out set but the statement has no REPAIR clause")
			}
		}
	}
	if *explain {
		out, err := db.Explain(query)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var res *cleandb.Result
	if *outPath != "" {
		// Streaming export: result partitions pump straight into the file
		// sink under the query's context — no printed rows, no flattened
		// answer buffer.
		snk, err := cleandb.SinkFromPath(*outPath)
		if err != nil {
			return fmt.Errorf("query: -out: %w", err)
		}
		if res, err = db.ExecuteTo(ctx, query, snk, bindings...); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "-- wrote %d rows to %s\n", res.Metrics().ExportedRows, *outPath)
	} else {
		if res, err = db.QueryContext(ctx, query, bindings...); err != nil {
			return err
		}
		printed := 0
		for r, _ := range res.Iter() {
			if printed >= *limit {
				fmt.Printf("... (%d more rows)\n", res.RowCount()-*limit)
				break
			}
			fmt.Println(r)
			printed++
		}
	}
	if *taskName != "" {
		taskRows, ok := res.TaskRowsOK(*taskName)
		if !ok {
			return fmt.Errorf("query: no task %q (tasks: %s)", *taskName, strings.Join(res.TaskNames(), ", "))
		}
		fmt.Fprintf(os.Stderr, "-- task %s: %d rows\n", *taskName, len(taskRows))
		for i, r := range taskRows {
			if i >= *limit {
				fmt.Printf("... (%d more task rows)\n", len(taskRows)-*limit)
				break
			}
			fmt.Println(r)
		}
	}
	repairs := res.Repairs()
	for _, s := range repairs {
		fmt.Fprintf(os.Stderr, "-- repair %s.%s: %d violating pairs, %d values changed (%d clusters, %d rounds), %d remaining\n",
			s.Source, s.Col, s.Violations, s.Changed, s.Clusters, s.Rounds, s.Remaining)
	}
	if *repairedOut != "" {
		if len(repairs) == 0 {
			return fmt.Errorf("query: -repaired-out set but the statement has no REPAIR clause")
		}
		// Successive REPAIR clauses compose, so the last summary per source
		// holds the final rows; one output file means one repaired source.
		last := repairs[len(repairs)-1]
		for _, s := range repairs {
			if s.Source != last.Source {
				return fmt.Errorf("query: -repaired-out supports repairs of a single source, got %s and %s", s.Source, last.Source)
			}
		}
		n, err := writeRows(ctx, *repairedOut, res, last.Source)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "-- repaired %s written to %s (%d rows)\n", last.Source, *repairedOut, n)
	}
	m := res.Metrics()
	fmt.Fprintf(os.Stderr, "-- %d rows; %d ticks, %d comparisons, %d records shuffled\n",
		res.RowCount(), m.SimTicks, m.Comparisons, m.ShuffledRecords)
	return nil
}

// writeRows exports a query's repaired rows for source through the sink
// layer when the extension has a sink format, falling back to the
// materialized writers for the formats only they speak (.xml). The query's
// context governs the export too, so a -timeout covers the whole job.
func writeRows(ctx context.Context, path string, res *cleandb.Result, source string) (int64, error) {
	snk, err := cleandb.SinkFromPath(path)
	if err != nil {
		rows := res.RepairedRows(source)
		if werr := writeFile(path, rows); werr != nil {
			return 0, werr
		}
		return int64(len(rows)), nil
	}
	return res.RepairedTo(ctx, source, snk)
}

// parseParams converts -param k=v flags into named query arguments. Values
// sniff to int/float/bool when unambiguous; an explicit type suffix on the
// key — k:string=02134, k:int=5, k:float=0.5, k:bool=true — forces the
// binding type.
func parseParams(params []string) ([]any, error) {
	var out []any
	for _, p := range params {
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("query: -param wants k=v, got %q", p)
		}
		name, typ, _ := strings.Cut(k, ":")
		val, err := typedValue(v, typ)
		if err != nil {
			return nil, fmt.Errorf("query: -param %s: %w", p, err)
		}
		out = append(out, cleandb.Named(name, val))
	}
	return out, nil
}

func typedValue(s, typ string) (any, error) {
	switch typ {
	case "":
		return sniffValue(s), nil
	case "string", "str":
		return s, nil
	case "int":
		return strconv.ParseInt(s, 10, 64)
	case "float":
		return strconv.ParseFloat(s, 64)
	case "bool":
		return strconv.ParseBool(s)
	default:
		return nil, fmt.Errorf("unknown type %q (want string, int, float or bool)", typ)
	}
}

func sniffValue(s string) any {
	// Leading zeros mark identifier-like strings (zip codes, order numbers):
	// coercing "02134" to 2134 would silently change its meaning.
	if len(s) > 1 && (s[0] == '0' || (s[0] == '-' && len(s) > 2 && s[1] == '0')) && !strings.Contains(s, ".") {
		return s
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return b
	}
	return s
}

// serveStatements reads one CleanM statement per line from stdin and
// executes them concurrently against the shared DB — the CLI face of the
// concurrency-safe API. Blank lines and #-comments are skipped. Output lines
// are prefixed with the 1-based statement number.
func serveStatements(db *cleandb.DB, bindings []any, timeout time.Duration, limit int) error {
	var (
		wg       sync.WaitGroup
		printMu  sync.Mutex
		failures int
	)
	// Bound in-flight statements: each one already fans out across the
	// engine's worker pool, so piping a huge statement file must not launch
	// one goroutine per line.
	inflight := make(chan struct{}, max(4, runtime.NumCPU()))
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" || strings.HasPrefix(stmt, "#") {
			continue
		}
		n++
		id := n
		inflight <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			ctx := context.Background()
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			res, err := execStatement(db, ctx, stmt, bindings)
			printMu.Lock()
			defer printMu.Unlock()
			if err != nil {
				failures++
				fmt.Fprintf(os.Stderr, "[%d] error: %v\n", id, err)
				return
			}
			printed := 0
			for r, _ := range res.Iter() {
				if printed >= limit {
					fmt.Printf("[%d] ... (%d more rows)\n", id, res.RowCount()-limit)
					break
				}
				fmt.Printf("[%d] %v\n", id, r)
				printed++
			}
			m := res.Metrics()
			fmt.Fprintf(os.Stderr, "[%d] -- %d rows; %d ticks, %d comparisons, plan reused=%t\n",
				id, res.RowCount(), m.SimTicks, m.Comparisons, m.PlanCacheHit)
		}()
	}
	wg.Wait()
	if err := sc.Err(); err != nil {
		return err
	}
	cs := db.PlanCacheStats()
	fmt.Fprintf(os.Stderr, "-- served %d statements; plan cache: %d hits, %d misses, %d entries\n",
		n, cs.Hits, cs.Misses, cs.Entries)
	if failures > 0 {
		return fmt.Errorf("query: %d of %d statements failed", failures, n)
	}
	return nil
}

// execStatement prepares one served statement and executes it with only the
// -param bindings it actually declares — a shared binding set can then serve
// a mixed statement file without every statement naming every parameter.
func execStatement(db *cleandb.DB, ctx context.Context, stmt string, bindings []any) (*cleandb.Result, error) {
	prep, err := db.PrepareStmt(stmt)
	if err != nil {
		return nil, err
	}
	declared := map[string]bool{}
	for _, k := range prep.Params() {
		declared[k] = true
	}
	var use []any
	for _, b := range bindings {
		if na, ok := b.(cleandb.NamedArg); ok && declared[strings.ToLower(na.Name)] {
			use = append(use, b)
		}
	}
	return prep.ExecContext(ctx, use...)
}

// register adds a file source to the catalog lazily: only the sources a
// statement actually references get parsed (in parallel), so -explain and
// -serve sessions over many -src flags never pay for unused files. A
// missing or unreadable file therefore surfaces at query time. The file is
// stat'd here so a typo'd path still fails fast.
func register(db *cleandb.DB, name, path string) error {
	if _, err := os.Stat(path); err != nil {
		return err
	}
	return db.RegisterFile(name, path)
}

// cmdServe mounts the engine behind the HTTP service: sources register
// lazily up front (only queried ones ever parse), admission control bounds
// concurrent queries, and SIGINT/SIGTERM drain gracefully — health flips to
// 503 for load balancers, in-flight queries finish, then the listener
// closes.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var sources srcList
	fs.Var(&sources, "src", "name=path source registration (repeatable)")
	addr := fs.String("http", ":8080", "listen address")
	workers := fs.Int("workers", 8, "simulated cluster width")
	standalone := fs.Bool("standalone", false, "disable unified optimization")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight, "max concurrently executing queries; beyond it requests get 429")
	timeout := fs.Duration("timeout", 0, "per-query server-side deadline (0 = none)")
	drain := fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight queries at shutdown")
	quiet := fs.Bool("quiet", false, "suppress the per-request access log")
	role := fs.String("role", "single", "cluster role: single, coordinator, or worker")
	advertise := fs.String("advertise", "", "base URL peers reach this node on (default http://<-http addr>)")
	coordURL := fs.String("coordinator", "", "worker role: the coordinator's base URL to register with")
	exchangeTimeout := fs.Duration("exchange-timeout", 30*time.Second, "coordinator role: barrier failure-detector timeout")
	viewCache := fs.Int("view-cache", 0, "materialized cleaning views to cache (0 = off); re-polled statements over unchanged or appended sources serve incrementally")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	opts := []cleandb.Option{cleandb.WithWorkers(*workers)}
	if *standalone {
		opts = append(opts, cleandb.WithStandaloneOps())
	}
	if *viewCache > 0 {
		opts = append(opts, cleandb.WithViewCache(*viewCache))
	}
	db := cleandb.Open(opts...)
	for _, s := range sources {
		name, path, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("serve: -src wants name=path, got %q", s)
		}
		if err := register(db, name, path); err != nil {
			return err
		}
	}
	cfg := server.Config{MaxInflight: *maxInflight, QueryTimeout: *timeout}
	if !*quiet {
		cfg.Logf = log.New(os.Stderr, "cleandb: ", log.LstdFlags).Printf
	}
	if *advertise == "" {
		*advertise = advertiseFor(*addr)
	}
	switch *role {
	case "single":
	case "coordinator":
		coord := dist.NewCoordinator(db, dist.Config{
			AdvertiseURL:    *advertise,
			ExchangeTimeout: *exchangeTimeout,
			Logf:            cfg.Logf,
		})
		defer coord.Close()
		cfg.Coordinator = coord
	case "worker":
		if *coordURL == "" {
			return fmt.Errorf("serve: -role worker requires -coordinator URL")
		}
		cfg.Worker = dist.NewWorker(db)
	default:
		return fmt.Errorf("serve: unknown -role %q (want single, coordinator or worker)", *role)
	}
	srv := server.New(db, cfg)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.Worker != nil {
		// Register with the coordinator in the background, retrying until it
		// answers: the worker serves fragments as soon as registration lands,
		// and keeps serving locally either way.
		go registerWorker(ctx, *coordURL, *advertise, cfg.Worker.Fingerprint())
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		srv.BeginDrain()
		fmt.Fprintln(os.Stderr, "cleandb: draining...")
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		done <- hs.Shutdown(sctx)
	}()
	fmt.Fprintf(os.Stderr, "cleandb: serving on %s as %s (%d sources, max-inflight %d)\n",
		*addr, *role, len(sources), *maxInflight)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// advertiseFor derives a reachable base URL from a listen address: a bare
// ":8080" means any interface, so localhost stands in.
func advertiseFor(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://localhost" + addr
	}
	return "http://" + addr
}

// registerWorker announces a worker to its coordinator, retrying with backoff
// until the registration lands or the process shuts down. Re-registration is
// idempotent on the coordinator, so retrying after a transient failure or a
// coordinator restart is always safe.
func registerWorker(ctx context.Context, coordURL, advertise, fingerprint string) {
	body, _ := json.Marshal(map[string]string{"url": advertise, "fingerprint": fingerprint})
	delay := time.Second
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coordURL+"/v1/cluster/register", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintf(os.Stderr, "cleandb: register: %v\n", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				fmt.Fprintf(os.Stderr, "cleandb: registered with %s: %s\n", coordURL, strings.TrimSpace(string(msg)))
				return
			}
			err = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
		}
		fmt.Fprintf(os.Stderr, "cleandb: register with %s failed (%v), retrying in %s\n", coordURL, err, delay)
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		if delay < 30*time.Second {
			delay *= 2
		}
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "tpch-customer", "dataset kind: tpch-lineitem, tpch-customer, dblp, mag, dict")
	rows := fs.Int("rows", 10000, "row / publication count")
	out := fs.String("out", "", "output path (.csv/.json/.xml/.colbin)")
	seed := fs.Int64("seed", 42, "generator seed")
	noise := fs.Float64("noise", 0.10, "noise rate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var records []types.Value
	switch *kind {
	case "tpch-lineitem":
		records = datagen.GenLineitem(datagen.LineitemConfig{Rows: *rows, NoiseRate: *noise, Seed: *seed})
	case "tpch-customer":
		records = datagen.GenCustomer(datagen.CustomerConfig{Rows: *rows, DupRate: *noise, MaxDups: 50, Seed: *seed}).Rows
	case "dblp":
		records = datagen.GenDBLP(datagen.DBLPConfig{Pubs: *rows, AuthorPool: *rows/10 + 50, NoiseRate: *noise, DupRate: 0.1, Seed: *seed}).Pubs
	case "dict":
		records = datagen.GenDBLP(datagen.DBLPConfig{Pubs: 1, AuthorPool: *rows, Seed: *seed}).Dictionary
	case "mag":
		records = datagen.GenMAG(datagen.MAGConfig{Rows: *rows, DupRate: *noise, Seed: *seed}).Rows
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	return writeFile(*out, records)
}

// cmdConvert re-encodes a data file between formats — most usefully
// CSV/JSON/XML → colbin, the binary columnar format the benchmarks read
// fastest. The input parses through the source layer's partition-parallel
// scan, and the partitions pump straight into the output sink: encode is
// partition-parallel too, and the rows are never flattened in between.
// Formats only the materialized writers speak (.xml) fall back to those.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input path")
	out := fs.String("out", "", "output path")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel parse width")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -in and -out are required")
	}
	src, err := source.FromPath(*in)
	if err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	parts, err := src.Scan(context.Background(), *workers)
	if err != nil {
		return err
	}
	var n int64
	if snk, serr := sink.FromPath(*out); serr == nil {
		if n, err = sink.Pump(context.Background(), snk, parts, *workers); err != nil {
			return err
		}
	} else {
		var records []types.Value
		for _, p := range parts {
			records = append(records, p...)
		}
		if err := writeFile(*out, records); err != nil {
			return err
		}
		n = int64(len(records))
	}
	fmt.Fprintf(os.Stderr, "-- converted %s (%s) to %s: %d rows\n", *in, src.Format(), *out, n)
	return nil
}

func writeFile(path string, records []types.Value) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch filepath.Ext(path) {
	case ".csv":
		return data.WriteCSV(f, records)
	case ".json", ".jsonl", ".ndjson":
		return data.WriteJSON(f, records)
	case ".xml":
		return data.WriteXML(f, records, "rows", "row")
	case ".colbin":
		return data.WriteColbin(f, records)
	default:
		return fmt.Errorf("unknown output format %q", path)
	}
}
