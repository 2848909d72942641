package core

import (
	"iter"
	"sync"

	"cleandb/internal/types"
)

// Rowset is a partitioned, immutable view of one result set — the output
// half of the engine's partition hand-off. Executions build Rowsets directly
// from engine partitions, so producing a Result no longer merges every
// partition into one flattened slice; consumers choose their own access
// pattern: Partition/All to stream without any copy, Rows when a flat slice
// is genuinely needed (built once and memoized).
//
// A Rowset is safe for concurrent use. All methods tolerate a nil receiver,
// which behaves as an empty row set — Partition, like any index into an
// empty collection, panics out of range; everything else answers empty.
type Rowset struct {
	parts [][]types.Value
	n     int

	// load materializes the partitions on first access when the result is
	// held in columnar form: a batch-backed result defers row boxing until a
	// consumer actually asks for rows, so exports that drain the vectors
	// directly never box at all.
	load  func() [][]types.Value
	ponce sync.Once

	once sync.Once
	flat []types.Value
}

// NewRowset wraps partitions (shared, not copied) as a Rowset. Callers must
// not mutate parts afterwards.
func NewRowset(parts [][]types.Value) *Rowset {
	rs := &Rowset{parts: parts}
	for _, p := range parts {
		rs.n += len(p)
	}
	return rs
}

// LazyRowset defers partition materialization to first row access. n must be
// the total row count load will produce (known cheaply for columnar results).
func LazyRowset(n int, load func() [][]types.Value) *Rowset {
	return &Rowset{n: n, load: load}
}

// materialized returns the partitions, running the deferred load once.
func (r *Rowset) materialized() [][]types.Value {
	if r.load != nil {
		r.ponce.Do(func() { r.parts = r.load() })
	}
	return r.parts
}

// NumPartitions returns the partition count.
func (r *Rowset) NumPartitions() int {
	if r == nil {
		return 0
	}
	return len(r.materialized())
}

// Partition returns partition i (shared storage; do not mutate). A nil
// Rowset has no partitions, so any index on one is out of range, reported
// without dereferencing the receiver.
func (r *Rowset) Partition(i int) []types.Value {
	if r == nil {
		panic("core: Partition on an empty Rowset")
	}
	return r.materialized()[i]
}

// Partitions returns every partition in order (shared storage; do not
// mutate).
func (r *Rowset) Partitions() [][]types.Value {
	if r == nil {
		return nil
	}
	return r.materialized()
}

// Len returns the total row count without flattening anything.
func (r *Rowset) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// All iterates the rows in partition order without materializing a flat
// slice.
func (r *Rowset) All() iter.Seq[types.Value] {
	return func(yield func(types.Value) bool) {
		if r == nil {
			return
		}
		for _, p := range r.materialized() {
			for _, v := range p {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// Rows returns the rows as one flat slice in partition order. The slice is
// built on first call and memoized — repeated calls return the same backing
// array, so treat it as read-only. It is allocated at exact capacity:
// appending to it reallocates rather than corrupting the Rowset. An empty
// Rowset returns nil.
func (r *Rowset) Rows() []types.Value {
	if r == nil || r.n == 0 {
		return nil
	}
	r.once.Do(func() {
		r.flat = make([]types.Value, 0, r.n)
		for _, p := range r.materialized() {
			r.flat = append(r.flat, p...)
		}
	})
	return r.flat
}
