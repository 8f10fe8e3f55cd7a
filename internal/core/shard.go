package core

import "fmt"

// This file defines the shard partitioning contract: a router over N shard
// engines sends every write to exactly one of them by a Partitioner over
// the row's routing key (the primary key by default).  The router and every
// shard loader must use the same partitioner — a change under existing data
// would silently orphan rows on shards the router never consults.

// Partitioner maps a routing key to one of n shards.  Implementations must
// be deterministic and stateless: the same (key, n) pair always yields the
// same shard, on every process that ever loads or routes the data.
type Partitioner interface {
	// Name identifies the partitioner in flags and stats.
	Name() string
	// Shard returns the owning shard in [0, n) for the key.
	Shard(key int64, n int) int
}

// DefaultPartitioner is the partitioner used when none is named.
const DefaultPartitioner = "hash"

// PartitionerByName resolves one of the built-in partitioners, "hash" or
// "mod"; the empty name resolves to DefaultPartitioner.
func PartitionerByName(name string) (Partitioner, error) {
	switch name {
	case "", "hash":
		return hashPartitioner{}, nil
	case "mod":
		return modPartitioner{}, nil
	}
	return nil, fmt.Errorf("core: no partitioner named %q (have hash, mod)", name)
}

// hashPartitioner spreads keys by a 64-bit finalizer (splitmix64's mixing
// function), so dense sequential primary keys land uniformly instead of
// striping.  This is the default.
type hashPartitioner struct{}

func (hashPartitioner) Name() string { return "hash" }

func (hashPartitioner) Shard(key int64, n int) int {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// modPartitioner routes key k to shard k mod n.  Placement is obvious by
// inspection, which tests and debugging sessions want; real deployments
// want "hash" so key locality cannot skew shard load.
type modPartitioner struct{}

func (modPartitioner) Name() string { return "mod" }

func (modPartitioner) Shard(key int64, n int) int {
	m := key % int64(n)
	if m < 0 {
		m += int64(n)
	}
	return int(m)
}
