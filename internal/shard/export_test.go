package shard

import "hle/internal/tsx"

// ShardItems walks shard si's structure and counts its elements: the
// ground truth the striped size counters must agree with. O(shard size).
func (d *Data) ShardItems(t *tsx.Thread, si int) int {
	if d.cfg.Backend == RBTree {
		return d.trees[si].Size(t)
	}
	return d.tables[si].Size(t)
}
