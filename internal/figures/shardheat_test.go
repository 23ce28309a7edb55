package figures

import (
	"reflect"
	"testing"

	"hle/internal/harness"
	"hle/internal/obs"
)

// TestShardHeatmapKeepsOnlyShards: the hot-shard table has one row per
// shard label prefix (shard.ShardLabel) and nothing else. A labelled line
// outside any shard — the per-thread MCS queue nodes, which once made an
// "mcs-node" row — and unlabelled lines are not shards, and a shard
// prefix beyond the store's shard count is not either.
func TestShardHeatmapKeepsOnlyShards(t *testing.T) {
	lines := []obs.LineHeat{
		{Line: 1, Label: "s03/node", Count: 9},
		{Line: 2, Label: "s03/lock", LockLine: true, Count: 4},
		{Line: 3, Label: "mcs-node", LockLine: true, Count: 19},
		{Line: 4, Label: "s01/root", Count: 2},
		{Line: 5, Count: 7},
		{Line: 6, Label: "s04/node", Count: 5},
	}
	var profiles []*obs.Profile
	for range shardSchemes {
		profiles = append(profiles, &obs.Profile{Lines: lines})
	}
	got := shardHeatmap(profiles, harness.MixModerate, 1.2, 4).Rows
	want := [][]string{
		{"s03", "13(4)", "13(4)", "13(4)", "13(4)"},
		{"s01", "2(0)", "2(0)", "2(0)", "2(0)"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("heatmap rows %v, want %v", got, want)
	}
}
