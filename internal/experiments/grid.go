package experiments

import (
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/runner"
)

// runGrid runs fn once per (cell, shard) pair of a cells × shards sweep on
// a worker pool and returns the outcomes grouped by cell, each in shard
// order. The shard seed handed to fn depends only on (seed, shard), never
// on the cell: every cell replays identical arrivals and service draws, so
// the swept parameter is the only difference between cells. Positional
// collection keeps the result byte-identical at any worker count.
func runGrid[T any](workers int, seed int64, cells, shards int,
	fn func(cell, shard int, shardSeed int64) (T, error)) ([][]T, error) {
	flat, err := runner.Map(runner.Pool{Workers: workers, Seed: seed}, cells*shards,
		func(sh runner.Shard) (T, error) {
			shard := sh.Index % shards
			return fn(sh.Index/shards, shard, dist.ShardSeed(seed, shard))
		})
	if err != nil {
		return nil, err
	}
	grid := make([][]T, cells)
	for c := range grid {
		grid[c] = flat[c*shards : (c+1)*shards]
	}
	return grid, nil
}
