package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {20, 0.5, 10}, {19, 0.5, 9}, {40, 0.75, 10}, {0, 0.9, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got, want := tailValid(c.n, c.p), c.beyond >= 10; got != want {
			t.Errorf("tailValid(%d, %v) = %v, want %v", c.n, c.p, got, want)
		}
	}
}

// fakeClock advances only when the fake sender says work took time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(ctx context.Context, t time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if t > c.t {
		c.t = t
	}
	return nil
}

func TestStalledSenderChargesLaterRequestsFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 100 * ms}
	// Request 1 stalls for 35 ms; every other request takes 1 ms.
	got := runStream(context.Background(), clk, due, func(_ context.Context, k int) error {
		if k == 1 {
			clk.t += 35 * ms
		} else {
			clk.t += ms
		}
		return nil
	})
	want := []struct{ lat, lag time.Duration }{
		{1 * ms, 0},
		{35 * ms, 0},
		{26 * ms, 25 * ms}, // waited behind request 1 from 20 ms to 45 ms
		{17 * ms, 16 * ms},
		{1 * ms, 0}, // the backlog has drained by 100 ms
	}
	for k, w := range want {
		if got[k].latency() != w.lat || got[k].lag() != w.lag || got[k].err != nil {
			t.Errorf("request %d: latency %v lag %v err %v, want latency %v lag %v",
				k, got[k].latency(), got[k].lag(), got[k].err, w.lat, w.lag)
		}
	}
}

func TestStreamMarksUnsentRequestsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{}
	got := runStream(ctx, clk, []time.Duration{0, 1, 2}, func(context.Context, int) error {
		cancel()
		return nil
	})
	if got[0].err != nil || !errors.Is(got[1].err, context.Canceled) || !errors.Is(got[2].err, context.Canceled) {
		t.Fatalf("errors %v %v %v, want nil then context.Canceled twice", got[0].err, got[1].err, got[2].err)
	}
}

func TestLedgerClosureArithmetic(t *testing.T) {
	for _, c := range []struct {
		e2e, attributed, pct float64
		closes               bool
	}{
		{100, 95, 5, true},
		{100, 90, 10, true},
		{100, 89, 11, false},
		{100, 110, -10, true},
		{100, 111, -11, false},
	} {
		pct := unattributedPct(c.e2e, c.attributed)
		if math.Abs(pct-c.pct) > 1e-9 || ledgerCloses(pct) != c.closes {
			t.Errorf("unattributedPct(%v, %v) = %v (closes %v), want %v (closes %v)",
				c.e2e, c.attributed, pct, ledgerCloses(pct), c.pct, c.closes)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "badge", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // clipped to 90..100
		{ID: 5, Parent: 3, Name: "d", StartNS: 25, EndNS: 35},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{50, 20, 20, 30, 10} {
		if self[i] != want {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	if l := sumLayer(spans, self, "b", ""); l.n != 1 || l.self != 20 {
		t.Errorf("sumLayer(b) = %+v", l)
	}
}

func TestShardImbalanceFollowsFleetSharding(t *testing.T) {
	for _, c := range []struct {
		durs    []float64
		workers int
		want    float64
	}{
		// Shard 0 runs badges 0 and 2 (8), shard 1 runs 1 and 3 (2).
		{[]float64{4, 1, 4, 1}, 2, 1.6},
		// i, i+W sharding balances this batch; contiguous halves would not.
		{[]float64{4, 4, 1, 1}, 2, 1},
		{[]float64{3, 1, 2}, 2, 5.0 / 3.0},
		{[]float64{3, 1, 2}, 1, 1},
		// More workers than badges: one shard per badge.
		{[]float64{2, 6}, 4, 1.5},
	} {
		if got := shardImbalance(c.durs, c.workers); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("shardImbalance(%v, %d) = %v, want %v", c.durs, c.workers, got, c.want)
		}
	}
}

func TestReportPrintsContractLine(t *testing.T) {
	r := newResult()
	r.attempted = 3
	for _, d := range endToEnd {
		r.values[d.name] = 1.5
	}
	var out bytes.Buffer
	if code := report(&out, r, false); code != 0 {
		t.Fatalf("report exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if keys := sortedKeys(last); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("keys %v", keys)
	}
	var m map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(last["metrics"], &m); err != nil || len(m) != len(endToEnd) {
		t.Fatalf("metrics %s (%v)", last["metrics"], err)
	}

	// A metric that was not measured fails the run.
	delete(r.values, "setup_s")
	out.Reset()
	if code := report(&out, r, false); code == 0 || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("missing metric not reported as a failure:\n%s", out.String())
	}
}

func TestRunRejectsBadFlagsWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet-mix", "--trace", "2"},
		{"--workload", "fleet-mix", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark's consumers read, in step with the metrics this program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("workloads: BENCHMARK.json %s, program %s", got, want)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
