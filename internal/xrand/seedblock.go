package xrand

import (
	"fmt"
	"sync/atomic"
)

// SeedBlockBits sizes the seed blocks handed out by SeedBlocks: each
// block spans 2^SeedBlockBits consecutive seeds. Callers deriving
// per-iteration seeds base+i*stride stay collision-free as long as
// i*stride stays below 2^SeedBlockBits — at the benchmark harness's
// stride of 16 that is 2^16 iterations, far beyond any realistic b.N.
const SeedBlockBits = 20

// SeedBlocks hands out disjoint seed ranges to concurrent consumers.
// The benchmark harness uses it to keep the process-wide memoizing
// runner from short-circuiting measurements: seeds must be unique per
// iteration AND per benchmark, because benchmarks whose sweeps overlap
// (Fig. 8/10, Table 5, the proportionality and cluster studies all
// share the Baseline Memcached curve) would otherwise hit each other's
// cached simulations.
//
// The zero value is ready to use. Safe for concurrent use.
type SeedBlocks struct {
	ctr atomic.Uint64
}

// Next returns the base of the next unused block above start: start +
// k*2^SeedBlockBits for a k unique to this call. Seeds base..base+2^20-1
// are the caller's alone (per SeedBlocks value and common start).
func (s *SeedBlocks) Next(start uint64) uint64 {
	return start + s.ctr.Add(1)<<SeedBlockBits
}

// The class/replica seed plane is the second level of the seed-block
// scheme: where SeedBlocks hands out dynamic blocks to benchmark
// iterations, the plane below is a *deterministic* two-level layout for
// the cluster layer's statistical replicas — replica r of timeline
// equivalence class c always maps to the same seed, so replicated runs
// are reproducible without any process-wide counter state.
//
// Layout: class c owns [ClassSeedBase + c·2^SeedBlockBits, +2^SeedBlockBits),
// and replica r owns the 2^ReplicaBlockBits-seed sub-block at offset
// r·2^ReplicaBlockBits inside it. Disjointness from the other seed
// consumers holds in the documented operating envelope (verified by
// TestClassReplicaPlaneDisjoint):
//
//   - node seeds stay below 2^32 (and SeedBlocks blocks, started from
//     such seeds, below 2^32 + 2^26), far under ClassSeedBase = 2^62;
//   - restart-remixed seeds (seed XOR n·stride, see RestartSeed) never
//     land in the plane for restart counts < 2^12, because the XOR
//     with a sub-2^32 seed only perturbs the low 32 bits and no stride
//     multiple falls within 2^32 of the plane;
//   - distinct (class, replica) pairs never share a seed by construction.
const (
	// ClassSeedBase is the origin of the class/replica plane.
	ClassSeedBase uint64 = 1 << 62
	// ReplicaBlockBits sizes one replica's sub-block within a class
	// block; a class block therefore holds MaxReplicas sub-blocks.
	ReplicaBlockBits = 8
	// MaxReplicas is the number of replica sub-blocks per class block.
	MaxReplicas = 1 << (SeedBlockBits - ReplicaBlockBits)
)

// ClassReplicaSeed returns the base seed of replica `replica` of
// equivalence class `class`. Replica 0 is conventionally the class
// representative running under its own natural seed, so callers
// typically ask for replicas 1..K; replica 0 is still a valid,
// distinct slot. Panics outside the plane (negative inputs or replica
// >= MaxReplicas — a programming error, not a data error).
func ClassReplicaSeed(class, replica int) uint64 {
	if class < 0 || replica < 0 || replica >= MaxReplicas {
		panic(fmt.Sprintf("xrand: class/replica (%d,%d) outside the seed plane", class, replica))
	}
	return ClassSeedBase + uint64(class)<<SeedBlockBits + uint64(replica)<<ReplicaBlockBits
}

// Seed-plane map. Every consumer of deterministic randomness in the
// repository draws from one of four reserved, mutually disjoint regions
// of the 64-bit seed space; the disjointness proofs live in this
// package (TestClassReplicaPlaneDisjoint, TestFaultPlaneDisjoint) so a
// new plane cannot silently collide with an old one:
//
//	plane          region                              consumer
//	-----          ------                              --------
//	node           [0, 2^32)                           raw per-node Config.Seed values
//	sweep-block    SeedBlocks.Next: start + k·2^20     benchmark-harness iteration blocks
//	class-replica  [2^62, 2^62 + 2^40)                 ClassReplicaSeed: timeline-class
//	                                                   statistical replicas
//	fault          [2^61, 2^61 + 2^20)                 FaultSeed: the correlated fault
//	                                                   process RNG stream
//
// Restarted instances reuse the node plane through RestartSeed, an
// XOR-stride remix of the node's own seed — deliberately so: a rebuilt
// node is still that node, just with a fresh RNG history, and the remix
// never equals the original seed for restart counts >= 1.

// FaultSeedBase is the origin of the fault seed plane: the reserved
// region [2^61, 2^61 + 2^20) feeding the cluster layer's correlated
// fault process. It sits below the class/replica plane (2^62) and far
// above everything derived from node seeds, so a fault draw can never
// replay a node's or a replica's random stream (see the seed-plane map
// above and TestFaultPlaneDisjoint).
const FaultSeedBase uint64 = 1 << 61

// FaultSeed maps a user-chosen fault-process seed into the fault plane.
// Only the low SeedBlockBits bits of the user seed select the slot —
// the plane is a single 2^20-seed block — so any uint64 the scenario
// file supplies lands inside the reserved region.
func FaultSeed(seed uint64) uint64 {
	return FaultSeedBase + seed&(1<<SeedBlockBits-1)
}

// RestartSeedStride is the splitmix64 mixing constant used to remix a
// node seed after a crash/restart.
const RestartSeedStride = 0xbf58476d1ce4e5b9

// RestartSeed derives the seed for the n-th rebuild of a crashed node:
// seed ^ n·stride. Restart counts start at 1, so the remix never
// returns the node's original seed — a rebuilt instance must not replay
// the arrival/service history its predecessor already consumed.
func RestartSeed(seed uint64, n int) uint64 {
	return seed ^ uint64(n)*RestartSeedStride
}
