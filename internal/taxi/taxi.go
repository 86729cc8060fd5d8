// Package taxi implements a synthetic stand-in for the NYC Yellow Cab
// trip-record dataset the paper evaluates on (§5, [42]). The real data is
// not redistributable here, so we generate rides with the same schema and
// a calibrated learnability profile:
//
//   - ride distances are lognormal, speeds follow an hour-of-day profile
//     with rush-hour dips, and duration ≈ distance/speed — a mildly
//     nonlinear relationship, so a neural network beats a linear model,
//     as in the paper's Fig. 5;
//   - labels (ride durations scaled to [0, 1] by the 2.5 h cap) have
//     variance ≈ 0.0069, the paper's naïve-predictor MSE, and an
//     unexplainable residual ≈ 0.002, the paper's best NN MSE;
//   - a configurable fraction of outliers (absurd prices, negative
//     durations, malformed dates, out-of-area coordinates) exercises the
//     Appendix C cleaning filters.
//
// The regression task, features (Listing 1), and quality-target ranges of
// Table 1 therefore transfer unchanged.
package taxi

import (
	"math"

	"repro/internal/rng"
)

// Ride is one taxi trip record, mirroring the TLC schema fields the
// paper's pipeline touches.
type Ride struct {
	PickupHour int64   // stream tick (hours since epoch of the simulation)
	Distance   float64 // km
	Speed      float64 // km/h, average over the ride
	Duration   float64 // hours
	Price      float64 // dollars
	PickupLat  float64
	PickupLon  float64
	DropLat    float64
	DropLon    float64
	// MalformedDate marks records whose timestamp failed to parse
	// (Appendix C drops these).
	MalformedDate bool
	UserID        int64 // rider identity, for user-keyed blocks (§4.4)
}

// MaxDuration is the duration cap in hours (Appendix C filters rides
// outside [0, 2.5] h); labels are durations divided by this cap.
const MaxDuration = 2.5

// speedProfile returns the mean traffic speed (km/h) for an hour of day:
// free-flowing at night, congested at rush hours — this is the structure
// the hour_of_day_speed feature of Listing 1 extracts.
func speedProfile(hour int) float64 {
	switch {
	case hour < 6:
		return 34
	case hour < 8:
		return 25 - 5*float64(hour-6) // morning slowdown
	case hour < 10:
		return 12 // morning rush
	case hour < 16:
		return 20
	case hour < 19:
		return 10.5 // evening rush
	case hour < 22:
		return 18
	default:
		return 29
	}
}

// Config controls generation.
type Config struct {
	// OutlierFraction is the probability a ride is corrupted into one
	// of the Appendix C outlier classes. Default 0 (clean data).
	OutlierFraction float64
	// Users is the number of distinct riders to draw UserIDs from
	// (default 10000).
	Users int
}

// Generator produces a deterministic synthetic ride stream.
type Generator struct {
	cfg Config
	r   *rng.RNG
}

// NewGenerator returns a generator seeded for reproducibility.
func NewGenerator(cfg Config, seed uint64) *Generator {
	if cfg.Users <= 0 {
		cfg.Users = 10000
	}
	return &Generator{cfg: cfg, r: rng.New(seed)}
}

// Generate returns n rides whose pickup times advance uniformly through
// [startHour, startHour+spanHours).
func (g *Generator) Generate(n int, startHour, spanHours int64) []Ride {
	rides := make([]Ride, n)
	for i := range rides {
		g.draw(&rides[i], i, n, startHour, spanHours)
	}
	return rides
}

// draw writes ride i of Generate's n-ride stream into ride; called for
// i = 0, 1, … it makes Generate's draws in Generate's order.
func (g *Generator) draw(ride *Ride, i, n int, startHour, spanHours int64) {
	*ride = g.ride(startHour + int64(float64(max(spanHours, 1))*float64(i)/float64(n)))
	if g.cfg.OutlierFraction > 0 && g.r.Bool(g.cfg.OutlierFraction) {
		g.corrupt(ride)
	}
}

// ride draws one clean ride at the given stream tick.
func (g *Generator) ride(tick int64) Ride {
	hour := int(tick % 24)
	// Lognormal distances, mostly 1-15 km, clipped to [0.3, 35]. The
	// spread is calibrated so the scaled-label variance (the naïve
	// predictor's MSE) lands near the paper's 0.0069.
	dist := g.r.LogNormal(1.32, 0.66)
	if dist < 0.3 {
		dist = 0.3
	}
	if dist > 35 {
		dist = 35
	}
	// Speed: hour profile plus per-ride variation; longer rides are
	// slightly faster (highway segments).
	speed := speedProfile(hour) + g.r.Normal(0, 3.0) + 0.25*dist
	if speed < 4 {
		speed = 4
	}
	// Duration with multiplicative noise (route, lights, pickup delay),
	// calibrated so the irreducible label variance — the best
	// achievable MSE — lands near the paper's ≈ 0.002.
	duration := dist / speed * math.Exp(g.r.Normal(0, 0.28))
	if duration > MaxDuration {
		duration = MaxDuration
	}
	price := 3 + 2.2*dist + g.r.Normal(0, 1)
	if price < 3 {
		price = 3
	}
	// Coordinates inside the Appendix C bounding box.
	lat := 40.5 + g.r.Float64()*0.35
	lon := -74.1 + g.r.Float64()*0.35
	return Ride{
		PickupHour: tick,
		Distance:   dist,
		Speed:      speed,
		Duration:   duration,
		Price:      price,
		PickupLat:  lat, PickupLon: lon,
		DropLat: lat + g.r.Normal(0, 0.02), DropLon: lon + g.r.Normal(0, 0.02),
		UserID: int64(g.r.IntN(g.cfg.Users)),
	}
}

// corrupt turns a clean ride into one of the outlier classes Appendix C
// filters: absurd price, out-of-range duration, malformed date, or
// out-of-area coordinates.
func (g *Generator) corrupt(ride *Ride) {
	switch g.r.IntN(4) {
	case 0:
		ride.Price = 1000 + g.r.Float64()*1e6
	case 1:
		if g.r.Bool(0.5) {
			ride.Duration = -g.r.Float64()
		} else {
			ride.Duration = MaxDuration + 1 + g.r.Float64()*10
		}
	case 2:
		ride.MalformedDate = true
	default:
		ride.PickupLat = 10 + g.r.Float64()*20 // far outside NYC
		ride.PickupLon = 50
	}
}
