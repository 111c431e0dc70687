package server

import (
	"testing"
)

// FuzzDecodeFleetRequest drives arbitrary bytes through the exact pipeline
// a /v1/fleet body takes — strict decode, limit validation, spec lowering —
// and pins the idempotency layer's load-bearing invariant: once a request
// survives parseFleetConfig, its canonical Hash (the dedup scope) must
// never fail. A panic anywhere in the pipeline is a crash a remote caller
// could trigger with one POST.
func FuzzDecodeFleetRequest(f *testing.F) {
	f.Add([]byte(`{"badges":3,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"]}`))
	f.Add([]byte(`{"badges":1,"seed":0}`))
	f.Add([]byte(`{"badges":-1}`))
	f.Add([]byte(`{"badges":1e9,"workers":-5}`))
	f.Add([]byte(`{"badges":2,"policies":["nosuch"]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"badges":2,"timeout_ms":-1}`))
	s := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req FleetRequest
		if err := decodeBytes(data, &req); err != nil {
			return // malformed JSON is rejected, not crashed on
		}
		cfg, err := s.parseFleetConfig(req)
		if err != nil {
			return // invalid configs are rejected, not crashed on
		}
		if _, err := cfg.Hash(); err != nil {
			t.Fatalf("validated config failed to hash (idempotency scope would 500): %v", err)
		}
	})
}

// FuzzDecodeRunRequest drives arbitrary bytes through the /v1/run body
// pipeline — strict decode, then parseRunConfig — and requires every
// accepted body to lower to a one-badge, one-worker batch whose canonical
// Hash (the dedup scope) succeeds.
func FuzzDecodeRunRequest(f *testing.F) {
	f.Add([]byte(`{"app":"mp3","policy":"changepoint","dpm":"renewal","seed":7}`))
	f.Add([]byte(`{"seed":0}`))
	f.Add([]byte(`{"app":"mixed","policy":"expavg","dpm":"none","seed":18446744073709551615,"timeout_ms":5}`))
	f.Add([]byte(`{"app":"nosuch"}`))
	f.Add([]byte(`{"policy":"MAX","dpm":""}`))
	f.Add([]byte(`{"seed":1,"timeout_ms":-1}`))
	f.Add([]byte(`{"seed":1,"badges":3}`))
	f.Add([]byte(`{`))
	s := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if err := decodeBytes(data, &req); err != nil {
			return // malformed JSON is rejected, not crashed on
		}
		cfg, err := s.parseRunConfig(req)
		if err != nil {
			return // invalid configs are rejected, not crashed on
		}
		if cfg.Badges != 1 || cfg.Workers != 1 {
			t.Fatalf("accepted body lowered to %d badges on %d workers, want 1 and 1", cfg.Badges, cfg.Workers)
		}
		if _, err := cfg.Hash(); err != nil {
			t.Fatalf("validated config failed to hash (idempotency scope would 500): %v", err)
		}
	})
}

// FuzzDecodeThresholdsRequest drives arbitrary bytes through the
// /v1/thresholds body pipeline — strict decode, then parseThresholdsConfig —
// and requires every accepted config to validate and to stay within the
// characterisation work cap, so no accepted body can exhaust the daemon's
// memory or run for days.
func FuzzDecodeThresholdsRequest(f *testing.F) {
	f.Add([]byte(`{"rates":[6,12,24],"characterisation_windows":400}`))
	f.Add([]byte(`{"rates":[2,4],"window_size":20,"confidence":0.9,"characterisation_windows":120,"seed":11}`))
	f.Add([]byte(`{"rates":[10,20],"window_size":1099511627776}`))
	f.Add([]byte(`{"rates":[10,20],"characterisation_windows":4000000000000}`))
	f.Add([]byte(`{"rates":[1,2,3],"window_size":9223372036854775807,"characterisation_windows":9223372036854775807}`))
	f.Add([]byte(`{"rates":[5]}`))
	f.Add([]byte(`{"rates":[1,1],"confidence":2}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ThresholdsRequest
		if err := decodeBytes(data, &req); err != nil {
			return // malformed JSON is rejected, not crashed on
		}
		cfg, err := parseThresholdsConfig(req)
		if err != nil {
			return // invalid or oversized configs are rejected, not crashed on
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}
		// Products of integers stay exact in float64 up to 2^53, far above
		// the cap, and rounding cannot carry a larger product below it.
		n := float64(len(cfg.Rates))
		if work := n * (n - 1) * float64(cfg.CharacterisationWindows) * float64(cfg.WindowSize); work > maxThresholdsWork {
			t.Fatalf("accepted config has work %g > cap %d: %d rates, %d windows, m = %d",
				work, maxThresholdsWork, len(cfg.Rates), cfg.CharacterisationWindows, cfg.WindowSize)
		}
	})
}
