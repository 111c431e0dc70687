//go:build amd64 && !amd64.v3

// The golden below was recorded on amd64 at the default GOAMD64 level. The
// gc compiler may fuse x*y+z into one fused multiply-add on other targets
// (arm64, ppc64le, s390x, and amd64 from GOAMD64=v3 on), which changes float
// results in the last bit, so the byte comparison runs only where the
// arithmetic matches the recording.

package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// TestDefaultMixReportGolden pins the JSON report of a 24-badge batch on the
// default mix — every app × policy × DPM combination twice — to bytes
// recorded from an earlier build. The fleet's other byte-identity tests
// compare two paths of the same build (worker counts, resume); this one
// catches a change that moves every path alike, and names the first badge
// that moved.
func TestDefaultMixReportGolden(t *testing.T) {
	rep, err := Run(Config{Badges: 24, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "default_mix_24.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var golden Report
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatalf("report differs from %s, which does not decode: %v", path, err)
	}
	for i := 0; i < len(rep.Badges) || i < len(golden.Badges); i++ {
		if i >= len(rep.Badges) || i >= len(golden.Badges) {
			t.Fatalf("report has %d badges, %s has %d", len(rep.Badges), path, len(golden.Badges))
		}
		g, _ := json.Marshal(rep.Badges[i])
		w, _ := json.Marshal(golden.Badges[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("badge %d (%s/%v/%s) differs from %s:\n got: %s\nwant: %s",
				i, rep.Badges[i].App, rep.Badges[i].Policy, rep.Badges[i].DPM, path, g, w)
		}
	}
	t.Fatalf("badges match but the report differs from %s:\n got: %s\nwant: %s", path, got, want)
}
