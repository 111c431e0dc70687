package changepoint_test

import (
	"fmt"
	"log"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/stats"
)

// The full detector lifecycle: characterise thresholds off-line once, then
// detect rate changes on-line over a stream of interarrival times.
func Example() {
	rates := []float64{10, 20, 40, 60}
	cfg := changepoint.DefaultConfig(rates)
	cfg.CharacterisationWindows = 1000

	thresholds, err := changepoint.Characterise(cfg) // off-line, run once
	if err != nil {
		log.Fatal(err)
	}
	det, err := changepoint.NewDetector(cfg, thresholds[0], 10)
	if err != nil {
		log.Fatal(err)
	}

	rng := stats.NewRNG(42)
	for i := 0; i < 200; i++ { // stationary at 10 events/s
		det.Observe(rng.Exp(10))
	}
	for i := 0; i < 200; i++ { // the rate steps to 60 events/s
		det.Observe(rng.Exp(60))
	}
	fmt.Printf("detected rate: %.0f events/s\n", det.CurrentRate())
	// Output:
	// detected rate: 60 events/s
}

// SnapRate quantises an arbitrary estimate onto the candidate grid.
func ExampleSnapRate() {
	grid := []float64{10, 20, 40, 80}
	fmt.Println(changepoint.SnapRate(grid, 27))
	fmt.Println(changepoint.SnapRate(grid, 33))
	// Output:
	// 20
	// 40
}
