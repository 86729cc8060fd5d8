package stats_test

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
)

// ExampleDPGroupByMean mirrors Listing 1's dp_group_by_mean: per-key
// means released under parallel composition (one ε for all keys).
func ExampleDPGroupByMean() {
	// Two keys with means 10 and -5.
	var keys []int
	var values []float64
	for i := 0; i < 50000; i++ {
		keys = append(keys, 0, 1)
		values = append(values, 10, -5)
	}
	means := stats.DPGroupByMean(keys, values, 2, 1.0, 20, rng.New(3))
	fmt.Println("key 0 near 10:", means[0] > 9.5 && means[0] < 10.5)
	fmt.Println("key 1 near -5:", means[1] > -5.5 && means[1] < -4.5)
	// Output:
	// key 0 near 10: true
	// key 1 near -5: true
}
