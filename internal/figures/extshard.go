package figures

import (
	"fmt"

	"hle/internal/core"
	"hle/internal/harness"
	"hle/internal/obs"
	"hle/internal/shard"
	"hle/internal/stats"
	"hle/internal/traffic"
)

// shardSchemes are the per-shard synchronization schemes the sharded
// sweep compares. Standard is the plain-lock baseline; the others elide.
var shardSchemes = []string{"Standard", "HLE", "HLE-SCM", "Adaptive"}

// ShardPoint is one measured point of the sharded sweep.
type ShardPoint struct {
	Shards     int
	Scheme     string
	Skew       float64
	Mix        string
	Throughput float64
}

// ShardRegimes summarizes the two regimes the sweep demonstrates, both at
// the moderate mix: under uniform load, sharding with plain locks beats a
// single elided global lock (partitioning removes the contention elision
// struggles with); under high Zipf skew the traffic re-concentrates on a
// hot shard and elision inside that shard beats plain locking at the same
// shard count. CrossoverSkew is the lowest swept skew where an eliding
// scheme overtakes the plain-lock sharded store.
type ShardRegimes struct {
	UniformGlobalElision float64
	UniformShardedPlain  float64
	ShardingGain         float64

	SkewShardedPlain float64
	SkewBestElided   float64
	SkewBestScheme   string
	ElisionGain      float64

	// CrossoverSkew is -1 when no swept skew let elision win.
	CrossoverSkew float64
}

// ShardBench is the structured result of one sharded sweep: every point's
// throughput and the regime summary, for callers that assert on the
// numbers rather than parse the rendered tables.
type ShardBench struct {
	Points  []ShardPoint
	Regimes ShardRegimes
}

// shardAxes returns the sweep axes at the requested scale. The moderate
// mix comes first: the regime summary and heatmap read it.
func shardAxes(o Options) (shardCounts []int, skews []float64, mixes []harness.Mix) {
	shardCounts = []int{1, 4, 16}
	skews = []float64{0, 0.4, 0.8, 1.2}
	if o.Quick {
		shardCounts = []int{1, 8}
		skews = []float64{0, 1.2}
	}
	return shardCounts, skews, []harness.Mix{harness.MixModerate, harness.MixExtensive}
}

// ExtShard sweeps the sharded store across shard count × per-shard scheme
// × Zipf skew × operation mix under the traffic generator, reporting
// throughput, the two regimes (sharding vs global elision under uniform
// load; elision vs plain locks inside hot shards under skew), the
// skew crossover, and a per-shard abort heatmap for the hottest
// configuration.
func ExtShard(o Options) []*stats.Table {
	_, tables := ShardSweep(o)
	return tables
}

// ShardSweep runs the sharded sweep and returns both the structured result
// and the rendered tables.
func ShardSweep(o Options) (*ShardBench, []*stats.Table) {
	o = o.withDefaults()
	shardCounts, skews, mixes := shardAxes(o)
	const keys = 512

	// One warm template per (mix, skew, shards): the populated store image
	// is shared by that cell's scheme points. Each template is forked once
	// up front to expose its Data handle — the structure's addresses are
	// identical in every fork of the same image, so per-point stores bind
	// to it after the checkpoint fork.
	type cell struct {
		tmpl *harness.WarmTemplate
		data *shard.Data
	}
	cells := make(map[[3]int]cell)
	for mi, mix := range mixes {
		for zi, skew := range skews {
			for hi, shards := range shardCounts {
				mix, skew, shards := mix, skew, shards
				cfg := machineCfg(o, 4*keys)
				cfg.MemWords = keys*64 + 1<<17
				tmpl := &harness.WarmTemplate{
					Machine: cfg,
					MkWorkload: func(t *tsxThread) harness.Workload {
						return traffic.New(t, shard.DataConfig{Shards: shards, Backend: shard.RBTree},
							traffic.Spec{Keys: keys, Mix: mix, ZipfS: skew})
					},
				}
				_, w := tmpl.Fork()
				cells[[3]int{mi, zi, hi}] = cell{tmpl, w.(*traffic.Workload).Data()}
			}
		}
	}

	maxShards := shardCounts[len(shardCounts)-1]
	maxSkew := skews[len(skews)-1]
	type coord struct{ mi, zi, hi, ki int }
	var points []harness.PointSpec
	var coords []coord
	for mi := range mixes {
		for zi := range skews {
			for hi := range shardCounts {
				c := cells[[3]int{mi, zi, hi}]
				for ki, scheme := range shardSchemes {
					data, maker := c.data, shard.SchemeMakerByName(scheme)
					points = append(points, harness.PointSpec{
						Warm: c.tmpl,
						MkScheme: func(t *tsxThread) core.Scheme {
							return traffic.Route(shard.Bind(t, data, shard.StoreConfig{MkScheme: maker}))
						},
						Seed: harness.DeriveSeed(o.Seed, mi, zi, hi, ki),
						Runs: o.Runs,
						Cfg:  harness.Config{Threads: o.Threads, CycleBudget: o.Budget, Warmup: o.Budget},
					})
					coords = append(coords, coord{mi, zi, hi, ki})
				}
			}
		}
	}
	// The hot-shard heatmap reads the hottest configuration's profiles, so
	// those points collect even when the figure run is not profiling.
	results := measureSpecs(o, points, func(pi int) string {
		c := coords[pi]
		return fmt.Sprintf("%s/z%.1f/s%d/%s", mixes[c.mi], skews[c.zi], shardCounts[c.hi], shardSchemes[c.ki])
	}, func(pi int) bool {
		c := coords[pi]
		return c.mi == 0 && c.zi == len(skews)-1 && c.hi == len(shardCounts)-1
	})

	byPoint := make(map[coord]harness.Result, len(results))
	for pi, r := range results {
		byPoint[coords[pi]] = r
	}
	tput := func(mi, zi, hi, ki int) float64 { return byPoint[coord{mi, zi, hi, ki}].Throughput }
	bestElided := func(mi, zi, hi int) (float64, string) {
		best, name := 0.0, ""
		for ki, scheme := range shardSchemes {
			if scheme == "Standard" {
				continue
			}
			if v := tput(mi, zi, hi, ki); v > best {
				best, name = v, scheme
			}
		}
		return best, name
	}

	bench := &ShardBench{}

	// Main sweep table.
	sweep := &stats.Table{
		Title: fmt.Sprintf("Extension — sharded store under internet-shaped traffic, ops/Mcycle, rbtree %d keys, %d threads",
			keys, o.Threads),
		Header: append(append([]string{"mix", "skew", "shards"}, shardSchemes...), "best"),
	}
	for mi, mix := range mixes {
		for zi, skew := range skews {
			for hi, shards := range shardCounts {
				row := []string{mix.String(), stats.F2(skew), stats.I(shards)}
				best, bestName := 0.0, ""
				for ki, scheme := range shardSchemes {
					v := tput(mi, zi, hi, ki)
					bench.Points = append(bench.Points, ShardPoint{
						Shards: shards, Scheme: scheme, Skew: skew, Mix: mix.String(), Throughput: v,
					})
					row = append(row, stats.F2(v))
					if v > best {
						best, bestName = v, scheme
					}
				}
				sweep.AddRow(append(row, bestName)...)
			}
		}
	}

	// Regime summary (moderate mix, mi == 0).
	standardKi := 0
	r := &bench.Regimes
	r.UniformGlobalElision, _ = bestElided(0, 0, 0)
	r.UniformShardedPlain = tput(0, 0, len(shardCounts)-1, standardKi)
	if r.UniformGlobalElision > 0 {
		r.ShardingGain = r.UniformShardedPlain / r.UniformGlobalElision
	}
	r.SkewShardedPlain = tput(0, len(skews)-1, len(shardCounts)-1, standardKi)
	r.SkewBestElided, r.SkewBestScheme = bestElided(0, len(skews)-1, len(shardCounts)-1)
	if r.SkewShardedPlain > 0 {
		r.ElisionGain = r.SkewBestElided / r.SkewShardedPlain
	}
	r.CrossoverSkew = -1
	for zi, skew := range skews {
		best, _ := bestElided(0, zi, len(shardCounts)-1)
		if best >= tput(0, zi, len(shardCounts)-1, standardKi) {
			r.CrossoverSkew = skew
			break
		}
	}

	regimes := &stats.Table{
		Title:  fmt.Sprintf("Regimes (%s mix): partitioning vs elision, and where elision takes over", mixes[0]),
		Header: []string{"regime", "a", "a ops/Mc", "b", "b ops/Mc", "a/b"},
	}
	regimes.AddRow("uniform: sharded plain vs global elided",
		fmt.Sprintf("Standard x%d", maxShards), stats.F2(r.UniformShardedPlain),
		"best elided x1", stats.F2(r.UniformGlobalElision), stats.F2(r.ShardingGain))
	regimes.AddRow(fmt.Sprintf("skew %.1f: best elided vs sharded plain", maxSkew),
		fmt.Sprintf("%s x%d", r.SkewBestScheme, maxShards), stats.F2(r.SkewBestElided),
		fmt.Sprintf("Standard x%d", maxShards), stats.F2(r.SkewShardedPlain), stats.F2(r.ElisionGain))
	cross := "none"
	if r.CrossoverSkew >= 0 {
		cross = stats.F2(r.CrossoverSkew)
	}
	regimes.AddRow("crossover skew (elided >= plain, max shards)", cross, "", "", "", "")

	var hotProfiles []*obs.Profile
	for ki := range shardSchemes {
		hotProfiles = append(hotProfiles, byPoint[coord{0, len(skews) - 1, len(shardCounts) - 1, ki}].Profile)
	}
	tables := []*stats.Table{sweep, regimes}
	if hm := shardHeatmap(hotProfiles, mixes[0], maxSkew, maxShards); hm != nil {
		tables = append(tables, hm)
	}
	return bench, tables
}

// shardHeatmap renders per-shard conflict-abort attribution for the
// hottest configuration (moderate mix, max skew, max shards): one row per
// label-prefix group (shard), one column per scheme, counting conflict
// aborts on the group's lines with the lock-line subset in parentheses.
// Skew should light up few shards; uniform load spreads the heat. Only the
// shards' own prefixes (shard.ShardLabel) make rows: unlabelled lines and
// labelled lines outside any shard (the per-thread lock queue nodes) are
// not a shard. profiles holds one profile per entry of shardSchemes, in
// order.
func shardHeatmap(profiles []*obs.Profile, mix harness.Mix, skew float64, shards int) *stats.Table {
	heats := make([]map[string]obs.PrefixHeat, len(shardSchemes))
	var prefixes []string
	seen := make(map[string]bool)
	isShard := make(map[string]bool, shards)
	for si := range shards {
		isShard[shard.ShardLabel(si)] = true
	}
	for ki := range shardSchemes {
		if profiles[ki] == nil {
			return nil
		}
		heats[ki] = make(map[string]obs.PrefixHeat)
		for _, g := range profiles[ki].HeatByPrefix() {
			heats[ki][g.Prefix] = g
			if isShard[g.Prefix] && !seen[g.Prefix] {
				seen[g.Prefix] = true
				prefixes = append(prefixes, g.Prefix)
			}
		}
	}
	// Order shards by total heat across schemes, heaviest first, and keep
	// the table readable at 16 shards by showing the top 8.
	total := func(p string) uint64 {
		var n uint64
		for ki := range shardSchemes {
			n += heats[ki][p].Count
		}
		return n
	}
	for i := range prefixes {
		for j := i + 1; j < len(prefixes); j++ {
			ti, tj := total(prefixes[i]), total(prefixes[j])
			if tj > ti || (tj == ti && prefixes[j] < prefixes[i]) {
				prefixes[i], prefixes[j] = prefixes[j], prefixes[i]
			}
		}
	}
	if len(prefixes) > 8 {
		prefixes = prefixes[:8]
	}
	tb := &stats.Table{
		Title: fmt.Sprintf("Hot-shard abort heatmap (%s mix, skew %.1f, %d shards): conflict aborts per shard (lock-line subset)",
			mix, skew, shards),
		Header: append([]string{"shard"}, shardSchemes...),
	}
	for _, p := range prefixes {
		row := []string{p}
		for ki := range shardSchemes {
			g := heats[ki][p]
			row = append(row, fmt.Sprintf("%d(%d)", g.Count, g.LockCount))
		}
		tb.AddRow(row...)
	}
	return tb
}
