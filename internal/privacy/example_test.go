package privacy_test

import (
	"fmt"

	"repro/internal/privacy"
	"repro/internal/rng"
)

// ExampleLaplaceMechanism releases a count with (ε, 0)-DP.
func ExampleLaplaceMechanism() {
	m := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: 0.5}
	r := rng.New(1)
	noisy := m.Release(1000, r)
	fmt.Println("within ±50:", noisy > 950 && noisy < 1050)
	fmt.Println("cost:", m.Cost())
	// Output:
	// within ±50: true
	// cost: (ε=0.5, δ=0)
}

// ExampleCalibrateSGDNoise computes the DP-SGD noise multiplier for a
// training plan, as TensorFlow Privacy does for the paper's pipelines.
func ExampleCalibrateSGDNoise() {
	plan := privacy.SGDPlan{N: 100000, BatchSize: 512, Epochs: 3}
	sigma := privacy.CalibrateSGDNoise(plan, 1.0, 1e-6)
	eps := privacy.SGDEpsilon(plan, sigma, 1e-6)
	fmt.Println("guarantee holds:", eps <= 1.0)
	fmt.Println("sigma positive:", sigma > 0)
	// Output:
	// guarantee holds: true
	// sigma positive: true
}

// ExampleStrongCompose contrasts basic and strong composition for many
// small queries.
func ExampleStrongCompose() {
	spends := make([]privacy.Budget, 100)
	for i := range spends {
		spends[i] = privacy.Budget{Epsilon: 0.01}
	}
	basic := privacy.Zero
	for _, b := range spends {
		basic = basic.Add(b)
	}
	strong := privacy.StrongCompose(spends, 1e-6)
	fmt.Printf("basic ε = %.2f\n", basic.Epsilon)
	fmt.Println("strong tighter:", strong.Epsilon < basic.Epsilon)
	// Output:
	// basic ε = 1.00
	// strong tighter: true
}
