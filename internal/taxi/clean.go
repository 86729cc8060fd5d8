package taxi

// This file implements the Appendix C data-cleaning filters. Filtering is
// acceptable under DP because the predicates are data-independent
// constants, and Sage accounts for privacy loss on filtered points too
// (they sit in the same blocks).

// boundingBox is the Appendix C box: northwest (40.923, −74.27),
// southeast (40.4, −73.65).
const (
	boxLatMax = 40.923
	boxLatMin = 40.4
	boxLonMin = -74.27
	boxLonMax = -73.65
)

// Valid reports whether a ride passes all Appendix C filters: price in
// [$0, $1000], duration in [0, 2.5] h, a well-formed date, and both
// endpoints inside the NYC bounding box.
func Valid(r Ride) bool {
	if r.MalformedDate {
		return false
	}
	if r.Price < 0 || r.Price > 1000 {
		return false
	}
	if r.Duration < 0 || r.Duration > MaxDuration {
		return false
	}
	if !inBox(r.PickupLat, r.PickupLon) || !inBox(r.DropLat, r.DropLon) {
		return false
	}
	return true
}

func inBox(lat, lon float64) bool {
	return lat >= boxLatMin && lat <= boxLatMax && lon >= boxLonMin && lon <= boxLonMax
}

// Clean returns the rides passing Valid and the number dropped.
func Clean(rides []Ride) (kept []Ride, dropped int) {
	kept = make([]Ride, 0, len(rides))
	for i := range rides {
		if Valid(rides[i]) {
			kept = append(kept, rides[i])
		}
	}
	return kept, len(rides) - len(kept)
}
