//go:build amd64 && !amd64.v3

// The golden below was recorded on amd64 at the default GOAMD64 level. The
// gc compiler may fuse x*y+z into one fused multiply-add on other targets
// (arm64, ppc64le, s390x, and amd64 from GOAMD64=v3 on), which changes float
// results in the last bit, so the byte comparison runs only where the
// arithmetic matches the recording.

package smartbadge

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// TestReferenceRunGolden pins the report of the reference run CI publishes
// (dvsim -app mp3 -seq ACEFBD -policy changepoint, seed 1, no DPM) to bytes
// recorded from an earlier build. The byte-identity tests elsewhere compare
// two paths of the same build; this one catches a change that moves every
// path alike.
func TestReferenceRunGolden(t *testing.T) {
	tr, err := MP3Trace(1, "ACEFBD")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Application: AppMP3, Policy: PolicyChangePoint, DPM: DPMNone, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	got := FormatResult(res)
	path := filepath.Join("testdata", "reference_mp3_ACEFBD.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("report differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
