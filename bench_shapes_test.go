// Query-shape benchmarks: warm, plan-cached executions of the join-heavy
// paths the columnar engine targets — a vectorized scan filter, selective
// filters feeding an equi join, a theta self join (DENIAL), and the
// similarity-cached DEDUP pipeline.
//
//	go test -bench BenchmarkQueryShapes -benchmem
package cleandb_test

import (
	"testing"

	"cleandb"
	"cleandb/internal/datagen"
)

// shapeBenchDB opens a DB with both relations registered and loaded, so the
// timed loop measures execution, not parsing.
func shapeBenchDB(b *testing.B, custRows, lineRows int) *cleandb.DB {
	b.Helper()
	db := cleandb.Open(cleandb.WithWorkers(8))
	cust := datagen.GenCustomer(datagen.CustomerConfig{Rows: custRows, Seed: 7})
	db.RegisterRows("customer", cust.Rows)
	db.RegisterRows("lineitem", datagen.GenLineitem(datagen.LineitemConfig{
		Rows: lineRows, NoiseDiscount: true, Seed: 11,
	}))
	return db
}

func BenchmarkQueryShapes(b *testing.B) {
	workloads := []struct {
		name     string
		query    string
		custRows int
		lineRows int
	}{
		{
			// Vectorized scan filter: typed numeric loops over the column
			// vectors.
			name:     "filter_scan",
			query:    `SELECT c.name AS n FROM customer c WHERE c.nationkey = 3`,
			custRows: 6000, lineRows: 100,
		},
		{
			// Selective filters on both inputs feeding a hash equi join —
			// the filters run as vectorized kernels (dictionary-code string
			// compares, typed numeric loops).
			name: "filter_equijoin",
			query: `SELECT c.name AS n, o.orderkey AS ok FROM customer c, lineitem o
WHERE c.custkey = o.suppkey and o.discount > 0.09 and c.nationkey = 3`,
			custRows: 2000, lineRows: 6000,
		},
		{
			// Theta self join through the DENIAL pipeline: the pair
			// predicate runs as a compiled accessor chain instead of a
			// generic evaluator closure.
			name: "theta_denial",
			query: `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < 905)`,
			custRows: 100, lineRows: 700,
		},
		{
			// Group + pairwise-similarity pipeline: per-group key/attribute
			// precomputation plus the interned pair-similarity cache.
			name:     "dedup_attribute",
			query:    `SELECT * FROM customer c DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`,
			custRows: 1200, lineRows: 100,
		},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			db := shapeBenchDB(b, w.custRows, w.lineRows)
			// Warm: loads the sources and populates the plan cache.
			res, err := db.Query(w.query)
			if err != nil {
				b.Fatal(err)
			}
			rows := res.RowCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(w.query)
				if err != nil {
					b.Fatal(err)
				}
				if res.RowCount() != rows {
					b.Fatalf("row count drifted: %d != %d", res.RowCount(), rows)
				}
			}
		})
	}
}
