// Package dist is the cleaning cluster: coordinator/worker roles over the
// single-process engine.
//
// The execution model is SPMD over a replicated catalog. A query arriving at
// the coordinator is planned into per-worker fragments that are the *whole
// query*: every node — the coordinator included — executes the same pipeline
// over the same sources, so every node's narrow stages, shuffles, statistics
// and strategy choices are bit-identical to single-process execution. The
// expensive O(n·m) comparison loops (theta, min-max, cartesian and hash
// joins) are the exception: the engine masks them (engine.Exchange), each
// node computes only the slots placement assigns to it, and the coordinator's
// barrier hub exchanges the slot outputs as framed colbin batches. The
// coordinator therefore finishes holding exactly the single-process result —
// rows, repairs and cost metrics — having personally executed only its share
// of the join work.
//
// Partition custody applies the same masking to the scans: a cold source
// load becomes a pair of masked stages ("scanvote/<source>", "scan/<source>")
// whose slots are the source's chunks, keyed by PartitionOwner — so each
// member parses only the chunks it has catalog custody of and gathers the
// rest through the barrier, ending with the identical full partition vector.
// Sources without per-chunk scan planning (XML, in-memory) load whole on
// every member.
//
// Placement is rendezvous (highest-random-weight) hashing: a pure function of
// (key, membership), so every node computes the same assignment without
// coordination, and membership changes move only the keys owned by the nodes
// that came or went. The same scheme keys both catalog partition custody
// (source name + partition index, reported by the coordinator's /healthz) and
// masked-stage slots (stage id + slot index).
package dist

import (
	"hash/fnv"
	"strconv"
	"strings"
)

// owner returns the member with the highest rendezvous weight for key.
// Deterministic for any member order; ties break toward the smaller id.
func owner(key string, members []string) string {
	best, bestH := "", uint64(0)
	for _, m := range members {
		h := fnv.New64a()
		h.Write([]byte(m))
		h.Write([]byte{0})
		h.Write([]byte(key))
		v := mix64(h.Sum64())
		if best == "" || v > bestH || (v == bestH && m < best) {
			best, bestH = m, v
		}
	}
	return best
}

// mix64 finalizes the rendezvous weight (splitmix64's avalanche). FNV-1a
// alone leaves the weight ordering of near-identical keys — "part/x/1" vs
// "part/x/2" — heavily correlated, which assigns long runs of a source's
// chunks to one member instead of ~1/N each.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

func slotKey(stage string, slot int) string {
	return "slot/" + stage + "#" + strconv.Itoa(slot)
}

// ownedSlots returns the slots of [0,n) that placement assigns to self under
// the given membership. Unioned over all members the result is exactly [0,n),
// disjoint — the mask contract of engine.Exchange.
func ownedSlots(stage string, n int, self string, members []string) []int {
	var out []int
	for i := 0; i < n; i++ {
		if owner(slotKey(stage, i), members) == self {
			out = append(out, i)
		}
	}
	return out
}

// scanSource extracts the source name from a custody scan stage
// ("scanvote/<name>" or "scan/<name>"). Engine join stages are named
// "<3-digit op index>/<kind>", so the prefixes cannot collide.
func scanSource(stage string) (string, bool) {
	if name, ok := strings.CutPrefix(stage, "scanvote/"); ok {
		return name, true
	}
	if name, ok := strings.CutPrefix(stage, "scan/"); ok {
		return name, true
	}
	return "", false
}

// stageSlots is the placement mask for one masked stage. Join stages hash
// slot keys; custody scan stages reuse catalog partition custody, so the
// member that votes a chunk's types is the member that builds it (one raw
// parse serves both rounds) and /healthz custody reporting matches what each
// node actually loads.
func stageSlots(stage string, n int, self string, members []string) []int {
	name, ok := scanSource(stage)
	if !ok {
		return ownedSlots(stage, n, self, members)
	}
	var out []int
	for i := 0; i < n; i++ {
		if PartitionOwner(name, i, members) == self {
			out = append(out, i)
		}
	}
	return out
}

// PartitionOwner returns the member with custody of one source partition —
// the consistent catalog assignment keyed by source name + partition index.
// It masks the scan stages: the owner is the one member that parses the
// chunk from disk (for sources that load whole on every member it is
// advisory). It also drives the placement report on the coordinator's
// /healthz and re-plans automatically when the live membership changes.
func PartitionOwner(source string, part int, members []string) string {
	return owner("part/"+source+"/"+strconv.Itoa(part), members)
}
