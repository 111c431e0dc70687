package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Manifest records how a run was produced, so any table row can be
// reproduced from its artifacts: the tool and its effective configuration,
// the seed and worker count, and the build provenance.
type Manifest struct {
	Tool        string         `json:"tool"`
	Args        []string       `json:"args,omitempty"`
	Config      map[string]any `json:"config,omitempty"`
	Seed        uint64         `json:"seed"`
	Workers     int            `json:"workers"`
	GitDescribe string         `json:"git_describe,omitempty"`
	GoVersion   string         `json:"go_version"`
	CreatedAt   string         `json:"created_at"`
}

// NewManifest builds a manifest for the named tool, capturing the process
// arguments, the Go version, the git description of the working tree
// (best-effort) and the current time.
func NewManifest(tool string, seed uint64, workers int, config map[string]any) Manifest {
	return Manifest{
		Tool:        tool,
		Args:        os.Args[1:],
		Config:      config,
		Seed:        seed,
		Workers:     workers,
		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		//lint:allow detcheck the manifest's creation stamp is intentionally wall-clock
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// GitDescribe returns `git describe --always --dirty` for the current
// working directory, or "" when git or a repository is unavailable. The
// lookup is best-effort: a missing repository must not fail a run.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// WriteManifest writes the manifest as indented JSON.
func WriteManifest(w io.Writer, m Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Artifacts manages the observability outputs of one command invocation:
// the metrics snapshot, the JSONL event trace, and the run manifest written
// beside the first of them as "<path>.manifest.json". A nil *Artifacts
// (returned when neither path is set) is the disabled fast path; its
// methods are no-ops and Observability() returns nil.
type Artifacts struct {
	obs         *Obs
	metricsPath string
	traceFile   *os.File
}

// OpenArtifacts prepares the run's artifact files. Either path may be empty
// to disable that artifact; when both are empty it returns (nil, nil). The
// manifest is written immediately, so even a crashed run leaves provenance.
func OpenArtifacts(metricsPath, tracePath string, m Manifest) (*Artifacts, error) {
	if metricsPath == "" && tracePath == "" {
		return nil, nil
	}
	a := &Artifacts{metricsPath: metricsPath, obs: &Obs{}}
	if metricsPath != "" {
		a.obs.metrics = NewRegistry()
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		a.traceFile = f
		a.obs.trace = NewTracer(f)
	}
	manifestPath := metricsPath
	if manifestPath == "" {
		manifestPath = tracePath
	}
	mf, err := os.Create(manifestPath + ".manifest.json")
	if err != nil {
		a.abort()
		return nil, err
	}
	werr := WriteManifest(mf, m)
	if cerr := mf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		a.abort()
		return nil, werr
	}
	return a, nil
}

func (a *Artifacts) abort() {
	if a.traceFile != nil {
		a.traceFile.Close()
	}
}

// Observability returns the Obs bundle to thread through the run, or nil
// when artifacts are disabled.
func (a *Artifacts) Observability() *Obs {
	if a == nil {
		return nil
	}
	return a.obs
}

// Close materialises the metrics snapshot, flushes the trace and closes the
// files, returning the first error encountered. Safe on nil.
func (a *Artifacts) Close() error {
	if a == nil {
		return nil
	}
	var first error
	if a.obs.metrics != nil {
		f, err := os.Create(a.metricsPath)
		if err == nil {
			err = a.obs.metrics.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			first = fmt.Errorf("obs: writing metrics: %w", err)
		}
	}
	if a.obs.trace != nil {
		if err := a.obs.trace.Flush(); err != nil && first == nil {
			first = fmt.Errorf("obs: flushing trace: %w", err)
		}
		if err := a.traceFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("obs: closing trace: %w", err)
		}
	}
	return first
}
