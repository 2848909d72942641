package source

import (
	"context"
	"fmt"

	"cleandb/internal/data"
	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Planned scans. A ScanPlan exposes a source's partition layout — the chunks
// Scan produces — without parsing anything, and RunPlan is the one driver
// that executes it. Scan is PlanScan plus RunPlan under the local runner,
// which builds every chunk in this process; a cluster member runs the same
// plan under a runner that builds only the chunks it owns and gathers the
// rest from its peers through the exchange. The two loads therefore share
// every step but the per-chunk scheduling, and are equal by construction
// provided the plan keeps two promises: chunk boundaries are a pure function
// of the bytes and the partition count, and Build(i) depends only on chunk i
// and the installed types, so it does not matter which member builds it or
// in which order.
//
// Whole-scan work runs once, on the reassembled vector, in Finish: CSV
// records its tail state, JSON drops whitespace-only partitions. CSV also
// votes first (see voter): column types are inferred globally, so every
// chunk votes, the votes are merged, and the merged types are installed
// before any Build.
type ScanPlan interface {
	// Chunks is the number of ordered partitions the scan produces.
	Chunks() int
	// ChunkBytes is the input-byte cost of building chunk i — what a member
	// that owns the chunk must parse (or decode) from the source.
	ChunkBytes(i int) int64
	// Build returns chunk i's rows. It may be called more than once for the
	// same chunk (a cluster member adopting a dead peer's chunk re-builds
	// it) and must return the same rows each time.
	Build(ctx context.Context, i int) ([]types.Value, error)
	// Finish postprocesses the fully reassembled partition vector and records
	// any tail-scan state.
	Finish(full [][]types.Value) ([][]types.Value, error)
}

// voter is implemented by plans whose Build needs a type-vote round first.
type voter interface {
	// Vote parses chunk i's raw cells and returns its column-type votes.
	Vote(ctx context.Context, i int) ([]data.ColVote, error)
	// SetTypes installs the merged votes of every chunk.
	SetTypes(votes []data.ColVote) error
}

// PartitionedScanner is implemented by sources whose Scan is a ScanPlan run
// by RunPlan, and so can be divided by partition custody. Sources without it
// are scanned whole on every member, which stays deterministic, just not
// divided.
type PartitionedScanner interface {
	Source
	PlanScan(ctx context.Context, parts int) (ScanPlan, error)
}

// Stage names of the two rounds RunPlan hands its runner. A cluster keys
// its exchange barriers on them (suffixed with the source name), so every
// member agrees on the stage without coordination.
const (
	stageVote  = "scanvote"
	stageBuild = "scan"
)

// A Runner executes one round of per-chunk work: it calls do for the chunks
// it is responsible for and returns the rows of all n chunks, in chunk order.
// stage names the round: "scanvote" for votes, "scan" for rows.
type Runner func(stage string, n int, do func(i int) ([]types.Value, error)) ([][]types.Value, error)

// localRunner is the single-process Runner: it builds every chunk here, on
// up to width goroutines.
func localRunner(ctx context.Context, width int) Runner {
	return func(_ string, n int, do func(int) ([]types.Value, error)) ([][]types.Value, error) {
		out := make([][]types.Value, n)
		err := par.Run(ctx, n, width, func(i int) error {
			rows, err := do(i)
			out[i] = rows
			return err
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}

// RunPlan executes plan with run scheduling the per-chunk work: the vote
// round when the plan votes, the merged type install, the build round, and
// Finish. A plan with no chunks runs neither round.
func RunPlan(ctx context.Context, plan ScanPlan, run Runner) ([][]types.Value, error) {
	n := plan.Chunks()
	if n == 0 {
		return plan.Finish([][]types.Value{})
	}
	if v, ok := plan.(voter); ok {
		if err := runVotes(ctx, v, n, run); err != nil {
			return nil, err
		}
	}
	full, err := run(stageBuild, n, func(i int) ([]types.Value, error) { return plan.Build(ctx, i) })
	if err != nil {
		return nil, err
	}
	return plan.Finish(full)
}

// runVotes runs the vote round. Votes travel as rows (data.VoteRows), the
// one currency every runner moves.
func runVotes(ctx context.Context, v voter, n int, run Runner) error {
	rows, err := run(stageVote, n, func(i int) ([]types.Value, error) {
		votes, err := v.Vote(ctx, i)
		if err != nil {
			return nil, err
		}
		return data.VoteRows(votes), nil
	})
	if err != nil {
		return err
	}
	votes := make([][]data.ColVote, n)
	for i, r := range rows {
		if votes[i], err = data.VotesOfRows(r); err != nil {
			return fmt.Errorf("source: chunk %d votes: %w", i, err)
		}
	}
	ts, voted := data.MergeColVotes(votes, len(votes[0]))
	return v.SetTypes(data.ColVotes(ts, voted))
}

// scanPlanned is Scan for a PartitionedScanner: its plan, run locally.
func scanPlanned(ctx context.Context, s PartitionedScanner, parts int) ([][]types.Value, error) {
	plan, err := s.PlanScan(ctx, parts)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, plan, localRunner(ctx, parts))
}
