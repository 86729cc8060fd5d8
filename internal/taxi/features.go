package taxi

import (
	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Feature layout (Listing 1's preprocessing_fn): two numeric features —
// the scaled ride distance and the average speed for the pickup hour
// (the aggregate feature computed with dp_group_by_mean) — plus one-hot
// indicators for hour of day (24), day of week (7), week of month (5)
// and distance bucket (10). The paper derives 61 binary features from 10
// contextual ones; our schema carries 46 binary + 2 numeric = 48
// dimensions, which preserves the task structure.
const (
	numHourBuckets = 24
	numDayBuckets  = 7
	numWeekBuckets = 5
	numDistBuckets = 10
	// FeatureDim is the dimensionality of featurized taxi examples.
	FeatureDim = 2 + numHourBuckets + numDayBuckets + numWeekBuckets + numDistBuckets
)

// distScale converts km to the [0, 1] scaled distance feature
// (tft.scale_to_0_1 in Listing 1).
func distScale(km float64) float64 { return privacy.Clip(km/35, 0, 1) }

// speedScale converts km/h to [0, 1].
func speedScale(kmh float64) float64 { return privacy.Clip(kmh/45, 0, 1) }

// SpeedByHour computes the average speed per hour of day — Listing 1's
// dp_group_by_mean aggregate feature. With epsilon > 0 the group means
// are released with (ε, 0)-DP; epsilon == 0 computes exact means (the
// non-private pipeline).
func SpeedByHour(rides []Ride, epsilon float64, r *rng.RNG) []float64 {
	speeds := stats.NewGroupSums(numHourBuckets, epsilon, 45)
	for i := range rides {
		speeds.Add(int(rides[i].PickupHour%24), rides[i].Speed)
	}
	return speeds.Means(r)
}

// Featurize converts rides into training examples using the given
// per-hour speed table (from SpeedByHour). Labels are durations scaled
// to [0, 1] by the 2.5 h cap. Examples carry the pickup hour as the
// stream time and the rider as UserID, so the same dataset supports both
// block semantics. The rows come from data.NewDataset: each has
// cap == len and no other Featurize result shares their storage.
func Featurize(rides []Ride, speedByHour []float64) *data.Dataset {
	ds := data.NewDataset(len(rides), FeatureDim)
	for i := range rides {
		ex := featurize(&rides[i], ds.Examples[i].Features)
		ex.Features[1] = speedScale(speedByHour[ex.Time%24])
		ds.Examples[i] = ex
	}
	return ds
}

// featurize writes ride into the zeroed row f but for column 1, the
// hour_speed feature, which needs the table of the whole stream.
func featurize(ride *Ride, f []float64) data.Example {
	hour := int(ride.PickupHour % 24)
	day := int(ride.PickupHour / 24 % 7)
	week := int(ride.PickupHour / (24 * 7) % int64(numWeekBuckets))
	distBucket := int(distScale(ride.Distance) * float64(numDistBuckets))
	if distBucket >= numDistBuckets {
		distBucket = numDistBuckets - 1
	}
	f[0] = distScale(ride.Distance)
	base := 2
	f[base+hour] = 1
	base += numHourBuckets
	f[base+day] = 1
	base += numDayBuckets
	f[base+week] = 1
	base += numWeekBuckets
	f[base+distBucket] = 1
	return data.Example{
		Features: f,
		Label:    privacy.Clip(ride.Duration/MaxDuration, 0, 1),
		Time:     ride.PickupHour,
		UserID:   ride.UserID,
	}
}

// Ingest is the stream's one ingest sequence — generate n rides over
// [startHour, startHour+spanHours), drop what the Appendix C filters
// reject, compute the hour_speed table ((speedEpsilon, 0)-DP from r when
// speedEpsilon > 0, exact otherwise), featurize — and returns the
// dataset with the table it was featurized with. It is one pass: each
// ride is drawn, filtered, summed into the table and featurized into a
// row carved as it is written, in Generate's, Clean's and SpeedByHour's
// order, so the result is theirs to the bit without a stream-sized
// buffer. Column 1 is filled from the table at the end.
//
// The examples are appended to into[:0], or to a fresh slice of
// capacity n when into is nil or lacks the room. Only the headers go
// there: the rows are always new. A caller that ingests into one
// buffer, block after block, owns every header the call leaves in it.
func Ingest(into []data.Example, gen *Generator, n int, startHour, spanHours int64, speedEpsilon float64, r *rng.RNG) (*data.Dataset, []float64) {
	if into == nil || cap(into) < n {
		into = make([]data.Example, 0, n)
	}
	ds := &data.Dataset{Examples: into[:0]}
	rows := data.NewRows(n, FeatureDim)
	speeds := stats.NewGroupSums(numHourBuckets, speedEpsilon, 45)
	var ride Ride
	for i := range n {
		if gen.draw(&ride, i, n, startHour, spanHours); Valid(ride) {
			speeds.Add(int(ride.PickupHour%24), ride.Speed)
			ds.Examples = append(ds.Examples, featurize(&ride, rows.Next()))
		}
	}
	table := speeds.Means(r)
	for _, ex := range ds.Examples {
		ex.Features[1] = speedScale(table[ex.Time%24])
	}
	return ds, table
}

// Pipeline bundles generation → cleaning → featurization for the
// experiment harness: it generates n clean-ish rides starting at
// startHour, applies the Appendix C filters, computes the speed feature
// (DP if speedEpsilon > 0), and featurizes.
func Pipeline(n int, startHour, spanHours int64, outlierFrac, speedEpsilon float64, seed uint64) *data.Dataset {
	var r *rng.RNG
	if speedEpsilon > 0 {
		r = rng.New(seed + 1)
	}
	ds, _ := Ingest(nil, NewGenerator(Config{OutlierFraction: outlierFrac}, seed), n, startHour, spanHours, speedEpsilon, r)
	return ds
}
