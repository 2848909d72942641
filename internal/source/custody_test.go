package source

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// fakeExchange is a two-member stand-in for the cluster's scan barrier.
// Member m owns the chunks with i%2 == m, so the masks are disjoint, and
// builds them in reverse order. In the build round member 1 dies before its
// copy of chunk 1 lands, so the barrier hands chunk 1 to member 0 to adopt
// and rebuild — the adoption path, on a member that never voted the chunk.
type fakeExchange struct {
	mu     sync.Mutex
	rounds map[string]*fakeRound
	built  [2][]string // per member: "stage:chunk" in build order
}

type fakeRound struct {
	full    [][]types.Value
	have    map[int]bool
	adopted bool
	done    chan struct{}
}

func (x *fakeExchange) runner(m int) Runner {
	return func(stage string, n int, do func(int) ([]types.Value, error)) ([][]types.Value, error) {
		var mine []int
		for i := n - 1; i >= 0; i-- {
			if i%2 == m {
				mine = append(mine, i)
			}
		}
		for {
			local := make(map[int][]types.Value, len(mine))
			for _, i := range mine {
				rows, err := do(i)
				if err != nil {
					return nil, err
				}
				local[i] = rows
				x.mu.Lock()
				x.built[m] = append(x.built[m], fmt.Sprintf("%s:%d", stage, i))
				x.mu.Unlock()
			}
			full, extra := x.gather(stage, m, n, local)
			if len(extra) == 0 {
				return full, nil
			}
			mine = extra
		}
	}
}

func (x *fakeExchange) gather(stage string, m, n int, local map[int][]types.Value) ([][]types.Value, []int) {
	x.mu.Lock()
	r, ok := x.rounds[stage]
	if !ok {
		r = &fakeRound{full: make([][]types.Value, n), have: map[int]bool{}, done: make(chan struct{})}
		x.rounds[stage] = r
	}
	adopt := stage == stageBuild && n > 1
	for i, rows := range local {
		if adopt && m == 1 && i == 1 {
			continue // member 1 died before chunk 1 landed
		}
		r.full[i], r.have[i] = rows, true
	}
	if adopt && m == 0 && !r.adopted {
		r.adopted = true
		x.mu.Unlock()
		return nil, []int{1}
	}
	if len(r.have) == n {
		select {
		case <-r.done:
		default:
			close(r.done)
		}
	}
	x.mu.Unlock()
	<-r.done
	return slices.Clone(r.full), nil // each member owns its gathered vector
}

// runTwoMembers runs one plan per member, each over its own source, under a
// fakeExchange, and returns both members' results.
func runTwoMembers(t *testing.T, mk func() PartitionedScanner, parts int) (got [2][][]types.Value, x *fakeExchange) {
	t.Helper()
	ctx := context.Background()
	x = &fakeExchange{rounds: map[string]*fakeRound{}}
	var errs [2]error
	var wg sync.WaitGroup
	for m := range got {
		plan, err := mk().PlanScan(ctx, parts)
		if err != nil {
			t.Fatalf("PlanScan(%d): %v", parts, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[m], errs[m] = RunPlan(ctx, plan, x.runner(m))
		}()
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", m, err)
		}
	}
	return got, x
}

// wantSameParts asserts partition-vector equality: same partition count, same
// rows per partition, element-wise identical values.
func wantSameParts(t *testing.T, got, want [][]types.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("partition count = %d, want %d", len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("partition %d: %d rows, want %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if !types.Equal(got[p][i], want[p][i]) {
				t.Fatalf("partition %d row %d = %v, want %v", p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestCustodyPlanMatchesScan is the source-layer half of the partitioned
// custody equivalence proof: two members splitting a plan between them —
// disjoint masks, reverse build order, one chunk adopted and rebuilt — each
// end with the partition vector the single-member run (Scan) produces, same
// partition boundaries included, since downstream placement keys on
// partition index. Both equal the sequential reader's rows.
func TestCustodyPlanMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	csvText := genCSV(rng, 120)
	var jsonSB strings.Builder
	for i := 0; i < 150; i++ {
		if i%5 == 2 {
			jsonSB.WriteString("\n")
			continue
		}
		jsonSB.WriteString(`{"id":` + strings.Repeat("1", 1+i%3) + `,"tag":"t"}` + "\n")
	}
	colbinBuf := colbinSample(t, 200)

	readCSV := func(b []byte) ([]types.Value, error) { return data.ReadCSV(bytes.NewReader(b)) }
	readJSON := func(b []byte) ([]types.Value, error) { return data.ReadJSON(bytes.NewReader(b)) }
	readColbin := func(b []byte) ([]types.Value, error) { return data.ReadColbin(bytes.NewReader(b)) }
	cases := []struct {
		name string
		in   []byte
		mk   func([]byte) PartitionedScanner
		read func([]byte) ([]types.Value, error)
	}{
		{"csv", []byte(csvText), func(b []byte) PartitionedScanner { return CSVBytes(b) }, readCSV},
		{"csv-empty", nil, func(b []byte) PartitionedScanner { return CSVBytes(b) }, readCSV},
		{"csv-header-only", []byte("a,b,c\n"), func(b []byte) PartitionedScanner { return CSVBytes(b) }, readCSV},
		{"json", []byte(jsonSB.String()), func(b []byte) PartitionedScanner { return JSONBytes(b) }, readJSON},
		{"json-empty", nil, func(b []byte) PartitionedScanner { return JSONBytes(b) }, readJSON},
		{"colbin", colbinBuf, func(b []byte) PartitionedScanner { return ColbinBytes(b) }, readColbin},
		{"colbin-empty", colbinSample(t, 0), func(b []byte) PartitionedScanner { return ColbinBytes(b) }, readColbin},
		// A header claiming rows but no columns holds no rows.
		{"colbin-no-columns", append(colbinSample(t, 0)[:4:4], 0, 5), func(b []byte) PartitionedScanner { return ColbinBytes(b) }, readColbin},
	}
	for _, tc := range cases {
		want, err := tc.read(tc.in)
		if err != nil {
			t.Fatalf("%s: sequential read: %v", tc.name, err)
		}
		for _, parts := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("%s parts=%d", tc.name, parts)
			single, err := tc.mk(tc.in).Scan(context.Background(), parts)
			if err != nil {
				t.Fatalf("%s: Scan: %v", label, err)
			}
			if len(single) > parts {
				t.Fatalf("%s: %d partitions", label, len(single))
			}
			wantSameRows(t, flatten(single), want)
			got, x := runTwoMembers(t, func() PartitionedScanner { return tc.mk(tc.in) }, parts)
			for m := range got {
				wantSameParts(t, got[m], single)
			}
			if r := x.rounds[stageBuild]; r != nil && len(r.full) > 1 {
				if !slices.Contains(x.built[0], stageBuild+":1") || !slices.Contains(x.built[1], stageBuild+":1") {
					t.Fatalf("%s: chunk 1 was not built by both members: %v / %v", label, x.built[0], x.built[1])
				}
			}
		}
	}
}

// TestCustodyPlanChunkBytes pins the byte accounting the cluster's
// memory-scaling claim rests on: per-chunk costs are positive and sum to
// (roughly, exactly for CSV) the whole input, so owning 1/N of the chunks
// means parsing ~1/N of the bytes.
func TestCustodyPlanChunkBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	csvText := genCSV(rng, 200)
	src := CSVBytes([]byte(csvText))
	plan, err := src.PlanScan(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := 0; i < plan.Chunks(); i++ {
		b := plan.ChunkBytes(i)
		if b <= 0 {
			t.Fatalf("chunk %d: ChunkBytes = %d", i, b)
		}
		sum += b
	}
	if sum != int64(len(csvText)) {
		t.Fatalf("CSV chunk bytes sum to %d, input is %d", sum, len(csvText))
	}

	colbinBuf := colbinSample(t, 100)
	cp, err := ColbinBytes(colbinBuf).PlanScan(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var csum int64
	for i := 0; i < cp.Chunks(); i++ {
		csum += cp.ChunkBytes(i)
	}
	if csum <= 0 || csum > int64(len(colbinBuf)) {
		t.Fatalf("colbin chunk bytes sum to %d, file is %d", csum, len(colbinBuf))
	}
}

// TestCustodyPlanBuildBeforeVotes: a CSV Build without SetTypes must error —
// the custody driver sequences the vote barrier first, and the plan enforces
// it rather than silently producing wrongly-typed rows.
func TestCustodyPlanBuildBeforeVotes(t *testing.T) {
	plan, err := CSVBytes([]byte("a,b\n1,2\n")).PlanScan(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Build(context.Background(), 0); err == nil {
		t.Fatal("Build before SetTypes succeeded")
	}
	if _, err := plan.Finish(make([][]types.Value, plan.Chunks())); err == nil {
		t.Fatal("Finish before SetTypes succeeded")
	}
}

// TestCustodyPlanAdoptionReparse: Build after an earlier Build of the same
// chunk (the adoption path re-parses chunks whose vote-round cache was
// dropped) returns identical rows.
func TestCustodyPlanAdoptionReparse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	plan, err := CSVBytes([]byte(genCSV(rng, 60))).PlanScan(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	v := plan.(voter)
	n := plan.Chunks()
	votes := make([][]data.ColVote, n)
	for i := 0; i < n; i++ {
		if votes[i], err = v.Vote(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	ts, voted := data.MergeColVotes(votes, len(votes[0]))
	if err := v.SetTypes(data.ColVotes(ts, voted)); err != nil {
		t.Fatal(err)
	}
	first, err := plan.Build(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := plan.Build(context.Background(), 1) // cache dropped by the first Build
	if err != nil {
		t.Fatal(err)
	}
	wantSameRows(t, again, first)
}
