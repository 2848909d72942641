package cleandb

import (
	"context"
	"sync"

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
// the adopting member's Gather returns them as extra slots and the runner
// below re-builds the adopted chunks (the plan re-parses raw bytes on
// demand). The floor is the coordinator building every chunk itself —
// exactly the single-process scan, which runs the same plan through the
// same driver (source.RunPlan) under the local runner.

// custodyLoad records what this member actually parsed from disk for one
// custody-masked load, for SourceInfo's owned-vs-total reporting and the
// coordinator's per-worker gauges.
type custodyLoad struct {
	parts int   // chunks this member built (owned + adopted)
	bytes int64 // input bytes behind those chunks
}

// custodyScan runs the custody-masked scan when this load is eligible: the
// entry is catalog-registered (named), the query carries a cluster exchange,
// and the source can plan per-chunk builds. It is the source's scan plan run
// by custodyRunner, and it reports the member's share of the load.
// ok=false falls back to the whole-source scan, which every member executes
// identically.
func (e *sourceEntry) custodyScan(goctx context.Context, ectx *engine.Context) (ds *engine.Dataset, load *custodyLoad, ok bool, err error) {
	if e.name == "" {
		return nil, nil, false, nil
	}
	ex, ok := engine.ExchangeFrom(goctx)
	if !ok {
		return nil, nil, false, nil
	}
	ps, ok := e.src.(source.PartitionedScanner)
	if !ok {
		return nil, nil, false, nil
	}
	defer func() {
		if err != nil {
			err = &custodyScanError{err}
		}
	}()
	plan, err := ps.PlanScan(goctx, ectx.Workers)
	if err != nil {
		return nil, nil, true, err
	}
	built := make(map[int]bool)
	full, err := source.RunPlan(goctx, plan, e.custodyRunner(goctx, ectx, ex, built))
	if err != nil {
		return nil, nil, true, err
	}
	load = &custodyLoad{parts: len(built)}
	for i := range built {
		load.bytes += plan.ChunkBytes(i)
	}
	// The gathered rows are identical on every member, and RowsToBatches is
	// deterministic from rows, so the batches (and their dictionary
	// statistics) are too.
	batches, err := source.RowsToBatches(goctx, full, ectx.Workers)
	if err != nil {
		return nil, nil, true, err
	}
	return assembleDataset(ectx, batches, full), load, true, nil
}

// custodyScanError marks a failure on the custody-masked scan path. Whether
// such a scan succeeds depends on cluster session state — a barrier sweep
// can evict this member, the session can close under it — not just on the
// source bytes, so load() must not memoize the failure: the next session
// retries the scan from scratch.
type custodyScanError struct{ err error }

func (c *custodyScanError) Error() string { return c.err.Error() }
func (c *custodyScanError) Unwrap() error { return c.err }

// custodyRunner runs one scan round ("scanvote/<name>" or "scan/<name>")
// across the cluster: build the owned chunks, exchange them as row frames,
// loop on chunks the barrier reassigns from a dead member (adoption
// re-builds them), and return the complete vector in chunk order. built
// collects every chunk this member built in either round.
func (e *sourceEntry) custodyRunner(goctx context.Context, ectx *engine.Context, ex engine.Exchange, built map[int]bool) source.Runner {
	return func(stage string, n int, do func(int) ([]types.Value, error)) ([][]types.Value, error) {
		stage += "/" + e.name
		mine := ex.Mask(stage, n)
		for {
			local := make(map[int][]types.Value, len(mine))
			var mu sync.Mutex
			err := par.Run(goctx, len(mine), ectx.Workers, func(k int) error {
				rows, err := do(mine[k])
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
			for _, i := range mine {
				built[i] = true
			}
			full, extra, err := ex.Gather(stage, n, local)
			if err != nil {
				return nil, err
			}
			if len(extra) == 0 {
				return full, nil
			}
			mine = extra
		}
	}
}
