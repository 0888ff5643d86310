package cluster

// Hash is the cluster's placement rule: a trajectory lives on the shard a
// mixed hash of its OID names — balanced regardless of geometry, and
// point lookups and ingest route to exactly one shard. Placement changes
// what a query costs, never its answer: the bound exchange merges every
// shard's bounds into the global envelope.
type Hash struct{}

// Locate returns the shard index in [0, n) that holds oid.
func (Hash) Locate(oid int64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(mix64(uint64(oid)) % uint64(n))
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer so sequential OIDs spread evenly across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
