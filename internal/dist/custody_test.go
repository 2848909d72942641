package dist

// Partition-custody scan suite: each member parses only the source chunks
// placement assigns to it and gathers the rest through the barrier exchange,
// so the cluster's aggregate parse work stays ~constant while per-node work
// drops to ~1/members — without giving up bit-identity with the single
// process, including across mid-scan worker death and client disconnect.

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cleandb"
	"cleandb/internal/datagen"
)

// writeCustomerXML renders the equivalence customers as a two-level XML
// file: a source with no per-chunk scan plan, which every member loads whole.
func writeCustomerXML(tb testing.TB) string {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("<customers>\n")
	for _, r := range datagen.GenCustomer(datagen.CustomerConfig{Rows: 60, Seed: 7}).Rows {
		rec := r.Record()
		sb.WriteString("<customer>")
		for i, name := range rec.Schema.Names {
			fmt.Fprintf(&sb, "<%s>", name)
			if err := xml.EscapeText(&sb, []byte(rec.Fields[i].String())); err != nil {
				tb.Fatal(err)
			}
			fmt.Fprintf(&sb, "</%s>", name)
		}
		sb.WriteString("</customer>\n")
	}
	sb.WriteString("</customers>\n")
	path := filepath.Join(tb.TempDir(), "customer.xml")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestClusterWholeSourceScan pins the whole-source scan arm in a cluster: an
// XML source has no PlanScan, so every member parses all of it while the CSV
// sources beside it still divide. The full query matrix must match a single
// process, and every member must own the whole XML source.
func TestClusterWholeSourceScan(t *testing.T) {
	paths := writeEquivSources(t, 150)
	paths["customer"] = writeCustomerXML(t)
	opts := []cleandb.Option{cleandb.WithWorkers(4)}
	c := newTestCluster(t, 3, paths, opts...)
	single := cleandb.Open(opts...)
	for name, p := range paths {
		if err := single.RegisterFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range clusterQueries {
		checkClusterEquiv(t, c, single, "xml/"+q.name, q.query, q.repairs)
	}
	dbs := map[string]*cleandb.DB{coordID: c.db}
	for _, w := range c.workers {
		dbs[w.id] = w.wk.db
	}
	for member, db := range dbs {
		si, err := db.SourceInfo("customer")
		if err != nil {
			t.Fatal(err)
		}
		if si.Format != "xml" || !si.Loaded || si.Bytes == 0 {
			t.Fatalf("%s: customer format=%s loaded=%v bytes=%d", member, si.Format, si.Loaded, si.Bytes)
		}
		if si.OwnedPartitions != si.Partitions || si.OwnedBytes != si.Bytes {
			t.Fatalf("%s owns %d/%d partitions, %d/%d bytes of the XML source",
				member, si.OwnedPartitions, si.Partitions, si.OwnedBytes, si.Bytes)
		}
		li, err := db.SourceInfo("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		if li.OwnedBytes <= 0 || li.OwnedBytes >= li.Bytes {
			t.Fatalf("%s owns %d of %d lineitem CSV bytes — not a strict share", member, li.OwnedBytes, li.Bytes)
		}
	}
	if st := c.coord.Status(); st.CustodyRescans != 0 {
		t.Fatalf("status rescans=%d, want 0", st.CustodyRescans)
	}
}

// TestPartitionedScanDividesBytes is the memory-scaling acceptance check: in
// partitioned mode the members' owned bytes partition the input — each member
// parses a strict subset, and the shares sum exactly to the catalog's total —
// while the query still answers identically to a single process.
func TestPartitionedScanDividesBytes(t *testing.T) {
	paths := writeEquivSources(t, 150)
	opts := []cleandb.Option{cleandb.WithWorkers(4)}
	c := newTestCluster(t, 2, paths, opts...)
	single := cleandb.Open(opts...)
	for name, p := range paths {
		if err := single.RegisterFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	q := clusterQueries[2] // equi_join: loads customer and lineitem cold
	frags := checkClusterEquiv(t, c, single, "divide/"+q.name, q.query, q.repairs)

	var totalBytes, coordBytes int64
	var totalParts, coordParts int64
	for _, si := range c.db.SourceInfos() {
		if !si.Loaded {
			continue
		}
		totalBytes += si.Bytes
		totalParts += int64(si.Partitions)
		coordBytes += si.OwnedBytes
		coordParts += int64(si.OwnedPartitions)
		if si.OwnedPartitions > si.Partitions || si.OwnedBytes > si.Bytes {
			t.Fatalf("%s: owned %d/%d partitions, %d/%d bytes — custody exceeds the source",
				si.Name, si.OwnedPartitions, si.Partitions, si.OwnedBytes, si.Bytes)
		}
	}
	if totalBytes == 0 || totalParts == 0 {
		t.Fatal("no sources loaded")
	}
	sumBytes, sumParts := coordBytes, coordParts
	for _, f := range frags {
		if f.Err != "" {
			t.Fatalf("fragment on %s: %s", f.Worker, f.Err)
		}
		if f.OwnedBytes <= 0 || f.OwnedBytes >= totalBytes {
			t.Fatalf("worker %s owns %d of %d bytes — not a strict share", f.Worker, f.OwnedBytes, totalBytes)
		}
		sumBytes += f.OwnedBytes
		sumParts += f.OwnedPartitions
	}
	if coordBytes <= 0 || coordBytes >= totalBytes {
		t.Fatalf("coordinator owns %d of %d bytes — not a strict share", coordBytes, totalBytes)
	}
	if sumBytes != totalBytes {
		t.Fatalf("member shares sum to %d bytes, catalog holds %d", sumBytes, totalBytes)
	}
	if sumParts != totalParts {
		t.Fatalf("member shares sum to %d partitions, catalog holds %d", sumParts, totalParts)
	}

	// The /healthz report mirrors the same custody numbers.
	st := c.coord.Status()
	if st.CoordinatorLoadedBytes != coordBytes || st.CoordinatorOwnedPartitions != coordParts {
		t.Fatalf("status coordinator owns %d parts/%d bytes, catalog says %d/%d",
			st.CoordinatorOwnedPartitions, st.CoordinatorLoadedBytes, coordParts, coordBytes)
	}
	var stBytes int64
	for _, w := range st.Workers {
		stBytes += w.LoadedBytes
	}
	if stBytes+st.CoordinatorLoadedBytes != totalBytes {
		t.Fatalf("status shares sum to %d bytes, catalog holds %d", stBytes+st.CoordinatorLoadedBytes, totalBytes)
	}
}

// TestClusterWorkerKillDuringScan kills a worker at its first custody scan
// exchange — mid cold load, before any join ran. The survivors must adopt the
// victim's chunks (visible as custody rescans), finish the load, and answer
// bit-identically to a single process.
func TestClusterWorkerKillDuringScan(t *testing.T) {
	paths := writeEquivSources(t, 150)
	opts := []cleandb.Option{cleandb.WithWorkers(4)}
	c := newTestCluster(t, 3, paths, opts...)
	single := cleandb.Open(opts...)
	for name, p := range paths {
		if err := single.RegisterFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.workers[2]
	var killed atomic.Bool
	hook := func(hdr exchangeHeader) {
		if _, scan := scanSource(hdr.Stage); scan && hdr.Self == victim.id &&
			killed.CompareAndSwap(false, true) {
			victim.srv.CloseClientConnections()
		}
	}
	c.onExchange.Store(&hook)

	q := clusterQueries[2] // equi_join: cold-loads customer and lineitem
	frags := checkClusterEquiv(t, c, single, "scankill/"+q.name, q.query, q.repairs)
	if !killed.Load() {
		t.Fatal("kill hook never fired; no custody scan exchange from the victim")
	}
	var sawVictim bool
	for _, f := range frags {
		if f.Worker == victim.id {
			sawVictim = true
			if f.Err == "" {
				t.Fatalf("victim %s reported success after its connections were severed", victim.id)
			}
		}
	}
	if !sawVictim {
		t.Fatalf("no fragment result for victim %s: %+v", victim.id, frags)
	}
	// Adoption is observable: the victim's chunks were re-scanned somewhere.
	rescans := c.coord.Status().CustodyRescans
	for _, f := range frags {
		rescans += f.CustodyRescans
	}
	if rescans == 0 {
		t.Fatal("victim died mid-scan but no member reports adopted chunks")
	}

	// The victim process itself is healthy — only its connections were
	// severed. Once the probe readmits it, the next query must ship it a
	// fragment that succeeds: the 410 its divided scan died with was session
	// state, not a property of the source, so it must not have been memoized
	// as a permanent load failure.
	c.onExchange.Store(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, w := range c.coord.Status().Workers {
			if w.Alive {
				alive++
			}
		}
		if alive == len(c.workers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe never readmitted the victim: %d/%d alive", alive, len(c.workers))
		}
		time.Sleep(25 * time.Millisecond)
	}
	frags = checkClusterEquiv(t, c, single, "scankill/recovered/"+q.name, q.query, q.repairs)
	recovered := false
	for _, f := range frags {
		if f.Err != "" {
			t.Fatalf("recovery round: fragment on %s errored: %s", f.Worker, f.Err)
		}
		if f.Worker == victim.id {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("recovery round ran without the revived victim %s", victim.id)
	}
}

// TestClusterClientDisconnectDuringScan cancels the client at the first
// custody scan exchange of a cold source: the query aborts promptly on every
// member, no goroutines leak, and — because a cancelled load is not cached as
// a failure — the very next query over the same membership re-runs the scan
// and answers correctly.
func TestClusterClientDisconnectDuringScan(t *testing.T) {
	paths := writeEquivSources(t, 150)
	c := newTestCluster(t, 3, paths, cleandb.WithWorkers(4))
	single := cleandb.Open(cleandb.WithWorkers(4))
	for name, p := range paths {
		if err := single.RegisterFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up on a customer-only query: connection pools form, lineitem stays
	// cold so the measured query must scan it.
	if _, _, err := c.run(context.Background(), clusterQueries[0].query); err != nil {
		t.Fatal(err)
	}
	c.closeIdle()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := func(hdr exchangeHeader) {
		if name, scan := scanSource(hdr.Stage); scan && name == "lineitem" {
			cancel()
		}
	}
	c.onExchange.Store(&hook)

	q := clusterQueries[6] // denial_repair: lineitem only, cold
	sess := c.coord.StartSession(ctx, q.query, nil)
	if sess == nil {
		t.Fatal("StartSession declined")
	}
	_, err := c.db.QueryContext(sess.Attach(ctx), q.query)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("coordinator query err = %v, want context.Canceled", err)
	}
	for _, f := range sess.Finish() {
		if f.Err == "" {
			t.Fatalf("fragment on %s completed despite client disconnect mid-scan", f.Worker)
		}
	}
	c.onExchange.Store(nil)
	c.settle(before)

	// The cancelled fragment RPCs read as worker failures and evict; wait for
	// the probe to revive the (perfectly healthy) workers.
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, w := range c.coord.Status().Workers {
			if w.Alive {
				alive++
			}
		}
		if alive == len(c.workers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe never revived the workers: %d/%d alive", alive, len(c.workers))
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The aborted scan poisoned nothing: the same query now completes and
	// matches single-process execution.
	checkClusterEquiv(t, c, single, "rescan/"+q.name, q.query, q.repairs)
}

// TestClusterMembershipShrinkRedivides kills a worker *between* queries: the
// probe drops it from the membership, so the next query runs under a new
// custody stamp and every surviving member must go cold and re-divide the
// scans in lockstep. Two historical bugs pin this scenario: the coordinator
// serving the re-query from a cached plan that still pinned the unloaded
// datasets (leaving the freshly-cold worker parked alone at the scan barrier
// until the sweep evicted it), and that evicted worker then memoizing the
// eviction as a permanent load failure, poisoning every later session.
func TestClusterMembershipShrinkRedivides(t *testing.T) {
	paths := writeEquivSources(t, 150)
	opts := []cleandb.Option{cleandb.WithWorkers(4)}
	c := newTestCluster(t, 2, paths, opts...)
	single := cleandb.Open(opts...)
	for name, p := range paths {
		if err := single.RegisterFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	q := clusterQueries[2] // equi_join: cold-loads customer and lineitem
	checkClusterEquiv(t, c, single, "shrink/warm/"+q.name, q.query, q.repairs)

	// Kill the second worker outright and wait for the probe to notice.
	victim := c.workers[1]
	victim.srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		dead := false
		for _, w := range c.coord.Status().Workers {
			if w.ID == victim.id && !w.Alive {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never marked the killed worker dead")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Two rounds over the shrunk membership: the first re-divides everything
	// cold under the new stamp, and nothing from it — including any barrier
	// hiccup — may leak into the second.
	for round := 1; round <= 2; round++ {
		label := fmt.Sprintf("shrink/round%d/%s", round, q.name)
		frags := checkClusterEquiv(t, c, single, label, q.query, q.repairs)
		var workerBytes int64
		for _, f := range frags {
			if f.Worker == victim.id {
				t.Fatalf("round %d: dead worker %s got a fragment", round, victim.id)
			}
			if f.Err != "" {
				t.Fatalf("round %d: fragment on %s errored: %s", round, f.Worker, f.Err)
			}
			workerBytes += f.OwnedBytes
		}
		var totalBytes, coordBytes int64
		for _, si := range c.db.SourceInfos() {
			if si.Loaded {
				totalBytes += si.Bytes
				coordBytes += si.OwnedBytes
			}
		}
		if totalBytes == 0 {
			t.Fatalf("round %d: coordinator has no loaded sources", round)
		}
		if coordBytes <= 0 || workerBytes <= 0 {
			t.Fatalf("round %d: custody not strictly divided: coordinator %d bytes, surviving worker %d",
				round, coordBytes, workerBytes)
		}
		if coordBytes+workerBytes != totalBytes {
			t.Fatalf("round %d: survivor shares sum to %d bytes, catalog holds %d",
				round, coordBytes+workerBytes, totalBytes)
		}
	}
}

// TestCustodyStabilityUnderChurn pins the rendezvous property custody scans
// lean on: growing the membership 1 → 5 moves only the partitions the new
// member takes over, shrinking moves only the leaver's — every other chunk
// stays put, so churn never reshuffles data that didn't have to move.
func TestCustodyStabilityUnderChurn(t *testing.T) {
	const keys = 240
	members := []string{coordID}
	ownerOf := func(ms []string) []string {
		out := make([]string, keys)
		for i := range out {
			out[i] = PartitionOwner("lineitem", i, ms)
		}
		return out
	}
	for n := 1; n < 5; n++ {
		added := fmt.Sprintf("w%04d", n)
		grown := append(append([]string{}, members...), added)
		before, after := ownerOf(members), ownerOf(grown)
		moved := 0
		for i := range before {
			if after[i] != before[i] {
				moved++
				if after[i] != added {
					t.Fatalf("grow to %d: partition %d moved %s -> %s, not to the new member %s",
						len(grown), i, before[i], after[i], added)
				}
			}
		}
		// The newcomer takes ~1/(n+1) of the keys: movement is bounded by a
		// generous factor of fair share, and is never zero.
		fair := keys / len(grown)
		if moved == 0 || moved > 2*fair {
			t.Fatalf("grow to %d members moved %d partitions, fair share is %d", len(grown), moved, fair)
		}
		// Shrinking back moves exactly the newcomer's keys home.
		for i, o := range ownerOf(members) {
			if after[i] == added && o == added {
				t.Fatalf("shrink: partition %d still owned by removed member", i)
			}
			if after[i] != added && o != after[i] {
				t.Fatalf("shrink: partition %d moved %s -> %s though its owner survived", i, after[i], o)
			}
		}
		members = grown
	}
}

// BenchmarkPartitionedScan prices the cold scan path: the same join query
// against 1 vs 3 workers, every iteration on a fresh cluster so the load is
// never warm. loaded-bytes/node-op is the custody win: the bytes one member
// parses, which partitioned custody divides by the member count while
// scan-bytes/op (the cluster-wide total) stays flat.
func BenchmarkPartitionedScan(b *testing.B) {
	paths := writeEquivSources(b, 1200)
	const q = `SELECT c.name AS n, o.orderkey AS ok FROM customer c, lineitem o WHERE c.custkey = o.suppkey and o.discount > 0.05`
	for _, nw := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			var nodeBytes, clusterBytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := newTestCluster(b, nw, paths, cleandb.WithWorkers(8))
				b.StartTimer()
				_, frags, err := c.run(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				var owned int64
				for _, si := range c.db.SourceInfos() {
					if si.Loaded {
						owned += si.OwnedBytes
					}
				}
				for _, f := range frags {
					if f.Err != "" {
						b.Fatalf("fragment on %s: %s", f.Worker, f.Err)
					}
					owned += f.OwnedBytes
				}
				clusterBytes += owned
				nodeBytes += owned / int64(nw+1)
				c.close()
				b.StartTimer()
			}
			b.ReportMetric(float64(nodeBytes)/float64(b.N), "loaded-bytes/node-op")
			b.ReportMetric(float64(clusterBytes)/float64(b.N), "scan-bytes/op")
		})
	}
}
