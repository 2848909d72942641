package cleandb

import (
	"context"
	"fmt"
	"sync"

	"cleandb/internal/data"
	"cleandb/internal/engine"
	"cleandb/internal/par"
	"cleandb/internal/source"
	"cleandb/internal/types"
)

// Partition-custody scans: under a cluster session a cold source load is
// divided across the members the way join slots are. Each member parses only
// the chunks rendezvous hashing assigns it (stage "scan/<name>", masked by
// dist.PartitionOwner), ships them through the same framed barrier exchange
// the joins use, and gathers everyone else's — so every member still ends the
// load with the complete, bit-identical partition vector, and all downstream
// SPMD execution is untouched. What scales with the member count is the bytes
// each node parses (and, for colbin, decodes). Sources that cannot plan
// per-chunk builds (XML, in-memory) load whole on every member.
//
// CSV adds a preliminary "scanvote/<name>" stage: column types are inferred
// globally, so the per-chunk votes cross the exchange first and every member
// installs the identical merged types before building rows.
//
// A member that dies mid-scan has its open chunks reassigned by the barrier;
// the adopting member's Gather returns them as extra slots and the loops
// below re-scan the adopted ranges (the plan re-parses raw bytes on demand).
// The floor is the coordinator building every chunk itself — exactly the
// single-process scan.

// custodyLoad records what this member actually parsed from disk for one
// custody-masked load, for SourceInfo's owned-vs-total reporting and the
// coordinator's per-worker gauges.
type custodyLoad struct {
	parts int   // chunks this member built (owned + adopted)
	bytes int64 // input bytes behind those chunks
}

// scanCustody runs the custody-masked scan when this load is eligible:
// the entry is catalog-registered (named), the query carries a cluster
// exchange, and the source can plan per-chunk builds. ok=false falls back to
// the whole-source scan, which every member executes identically.
func (e *sourceEntry) scanCustody(goctx context.Context, ectx *engine.Context) (*engine.Dataset, bool, error) {
	if e.name == "" {
		return nil, false, nil
	}
	ex, ok := engine.ExchangeFrom(goctx)
	if !ok {
		return nil, false, nil
	}
	ps, ok := e.src.(source.PartitionedScanner)
	if !ok {
		return nil, false, nil
	}
	ds, err := e.custodyScan(goctx, ectx, ex, ps)
	if err != nil {
		err = &custodyScanError{err}
	}
	return ds, true, err
}

// custodyScanError marks a failure on the custody-masked scan path. Whether
// such a scan succeeds depends on cluster session state — a barrier sweep
// can evict this member, the session can close under it — not just on the
// source bytes, so load() must not memoize the failure: the next session
// retries the scan from scratch.
type custodyScanError struct{ err error }

func (c *custodyScanError) Error() string { return c.err.Error() }
func (c *custodyScanError) Unwrap() error { return c.err }

func (e *sourceEntry) custodyScan(goctx context.Context, ectx *engine.Context, ex engine.Exchange, ps source.PartitionedScanner) (*engine.Dataset, error) {
	plan, err := ps.PlanScan(goctx, ectx.Workers)
	if err != nil {
		return nil, err
	}
	n := plan.Chunks()
	built := make(map[int]bool)

	if n > 0 && plan.NeedsVote() {
		votes, err := e.gatherVotes(goctx, ectx, ex, plan, n, built)
		if err != nil {
			return nil, err
		}
		ts, voted := data.MergeColVotes(votes, len(votes[0]))
		if err := plan.SetTypes(data.ColVotes(ts, voted)); err != nil {
			return nil, err
		}
	}

	var full [][]types.Value
	if n > 0 {
		if full, err = e.gatherChunks(goctx, ectx, ex, plan, n, built); err != nil {
			return nil, err
		}
	}
	if full, err = plan.Finish(full); err != nil {
		return nil, err
	}

	load := &custodyLoad{parts: len(built)}
	for i := range built {
		load.bytes += plan.ChunkBytes(i)
	}
	e.mu.Lock()
	e.custody = load
	e.mu.Unlock()

	// The gathered rows are identical on every member, and RowsToBatches is
	// deterministic from rows, so the batches (and their dictionary
	// statistics) are too.
	batches, err := source.RowsToBatches(goctx, full, ectx.Workers)
	if err != nil {
		return nil, err
	}
	return assembleDataset(ectx, batches, full), nil
}

// gatherVotes runs the type-vote round: vote owned chunks, exchange the vote
// frames, loop on reassigned extras, and return the full per-chunk vote set.
func (e *sourceEntry) gatherVotes(goctx context.Context, ectx *engine.Context, ex engine.Exchange, plan source.ScanPlan, n int, built map[int]bool) ([][]data.ColVote, error) {
	stage := "scanvote/" + e.name
	mine := ex.Mask(stage, n)
	for {
		local, err := buildLocal(goctx, ectx, mine, func(i int) ([]types.Value, error) {
			v, err := plan.Vote(goctx, i)
			if err != nil {
				return nil, err
			}
			return data.VoteRows(v), nil
		})
		if err != nil {
			return nil, err
		}
		for _, i := range mine {
			built[i] = true
		}
		full, extra, err := ex.Gather(stage, n, local)
		if err != nil {
			return nil, err
		}
		if len(extra) > 0 {
			mine = extra
			continue
		}
		votes := make([][]data.ColVote, n)
		for i, rows := range full {
			if votes[i], err = data.VotesOfRows(rows); err != nil {
				return nil, fmt.Errorf("cleandb: source %q chunk %d: %w", e.name, i, err)
			}
		}
		return votes, nil
	}
}

// gatherChunks runs the data round: build owned chunks, exchange them as row
// frames, loop on reassigned extras (adoption re-scans), and return the
// complete partition vector in chunk order.
func (e *sourceEntry) gatherChunks(goctx context.Context, ectx *engine.Context, ex engine.Exchange, plan source.ScanPlan, n int, built map[int]bool) ([][]types.Value, error) {
	stage := "scan/" + e.name
	mine := ex.Mask(stage, n)
	for {
		local, err := buildLocal(goctx, ectx, mine, func(i int) ([]types.Value, error) {
			return plan.Build(goctx, i)
		})
		if err != nil {
			return nil, err
		}
		for _, i := range mine {
			built[i] = true
		}
		full, extra, err := ex.Gather(stage, n, local)
		if err != nil {
			return nil, err
		}
		if len(extra) > 0 {
			mine = extra
			continue
		}
		return full, nil
	}
}

// buildLocal computes f over the owned chunk set on parallel goroutines,
// keyed by chunk index for the exchange.
func buildLocal(goctx context.Context, ectx *engine.Context, mine []int, f func(i int) ([]types.Value, error)) (map[int][]types.Value, error) {
	local := make(map[int][]types.Value, len(mine))
	var mu sync.Mutex
	err := par.Run(goctx, len(mine), ectx.Workers, func(k int) error {
		rows, err := f(mine[k])
		if err != nil {
			return err
		}
		mu.Lock()
		local[mine[k]] = rows
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return local, nil
}
